"""camrng: quantum random numbers from camera shot noise.

Pipeline: simulate (or ingest) sensor frames -> characterize the sensor
(gain, Fano factor, pixel health) -> bound the per-sample quantum
entropy -> compress raw codes through a seeded binary-matrix extractor
-> verify with a native statistical battery or export for external
ones.  The `camrng` command drives the same pipeline from the shell.
"""

from .bitstream import BitString
from .characterize import (
    FanoPoint,
    PhotonTransferCurve,
    PixelMask,
    PixelStats,
    build_pixel_mask,
    estimate_zeta,
    fano_curve_to_csv,
    fano_factor,
    find_operating_region,
    pixel_stats,
)
from .entropy import (
    EntropyReport,
    ExtractorPlan,
    entropy_report,
    epsilon_bound,
    plan_extractor,
    poisson_entropy_exact,
)
from .extractor import (
    BinaryMatrix,
    ExtractedStream,
    concat_streams,
    extract,
    frame_to_bits,
    generate_matrix,
    load_matrix,
    save_matrix,
)
from .ingest import (
    FrameFileHeader,
    read_pgm,
    read_raw,
    read_sidecar,
    sidecar_path,
    write_pgm,
    write_sidecar,
)
from .sensor import (
    Frame,
    PRESETS,
    SensorConfig,
    digitize_electrons,
    get_preset,
    load_sensor_config,
    simulate_frame,
    simulate_stack,
    worker_count,
)
from .stattests import (
    SerialCorrelationResult,
    TestOutcome,
    TestReport,
    block_frequency_test,
    export_stream,
    monobit_test,
    run_battery,
    runs_test,
    serial_correlation,
    shannon_byte_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BitString",
    "EntropyReport",
    "ExtractedStream",
    "ExtractorPlan",
    "FanoPoint",
    "Frame",
    "FrameFileHeader",
    "PRESETS",
    "PhotonTransferCurve",
    "PixelMask",
    "PixelStats",
    "SensorConfig",
    "SerialCorrelationResult",
    "TestOutcome",
    "TestReport",
    "block_frequency_test",
    "build_pixel_mask",
    "concat_streams",
    "digitize_electrons",
    "entropy_report",
    "epsilon_bound",
    "estimate_zeta",
    "export_stream",
    "extract",
    "fano_curve_to_csv",
    "fano_factor",
    "find_operating_region",
    "frame_to_bits",
    "generate_matrix",
    "get_preset",
    "load_matrix",
    "load_sensor_config",
    "monobit_test",
    "pixel_stats",
    "plan_extractor",
    "poisson_entropy_exact",
    "read_pgm",
    "read_raw",
    "read_sidecar",
    "run_battery",
    "runs_test",
    "save_matrix",
    "serial_correlation",
    "shannon_byte_entropy",
    "sidecar_path",
    "simulate_frame",
    "simulate_stack",
    "worker_count",
    "write_pgm",
    "write_sidecar",
]
