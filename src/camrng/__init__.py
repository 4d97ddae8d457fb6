"""camrng: quantum random numbers from camera shot noise.

Pipeline: simulate (or ingest) sensor frames -> characterize the sensor
(gain, Fano factor, pixel health) -> bound the per-sample quantum
entropy -> compress raw codes through a seeded binary-matrix extractor
-> verify with a native statistical battery or export for external
ones.  The `camrng` command drives the same pipeline from the shell.

The public names below are imported from their submodules on first
use (PEP 562), so `import camrng` loads neither numpy nor scipy, and
`import camrng.sensor` loads only what the sensor needs.
"""

import importlib

__version__ = "0.1.0"

# Public names, by the submodule that defines them.
_NAMES = {
    "bitstream": "BitString export_stream",
    "characterize": (
        "PixelStats build_pixel_mask characterize_stack characterize_sweep "
        "estimate_zeta fano_factor find_operating_region pixel_stats "
        "simulate_stacks"
    ),
    "entropy": (
        "EntropyReport ExtractorPlan entropy_report epsilon_bound "
        "plan_extractor poisson_entropy_exact"
    ),
    "extractor": (
        "BinaryMatrix ExtractedStream concat_streams extract extract_frames "
        "frame_to_bits generate_matrix"
    ),
    "ingest": (
        "FrameFileHeader load_sensor_config read_frames read_pgm read_raw "
        "read_sidecar sidecar_path write_pgm write_sidecar"
    ),
    "sensor": (
        "Frame PRESETS SensorConfig digitize_electrons get_preset "
        "simulate_frame simulate_stack worker_count"
    ),
    "stattests": "TestReport run_battery",
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
