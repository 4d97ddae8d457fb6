"""Per-layer metrics: which camrng functions the traced pass wraps, and
how their spans and the untraced passes become named metrics.

A span is a dict with keys id, name, parent, pass_id, start, end, self_s,
peak_alloc_mb and counts.  Names are "<module>.<function>" for wrapped
functions and "cli.<command>" for each `camrng.cli.main` call.
"""

from __future__ import annotations

import statistics

# Public functions wrapped in the traced pass, by camrng module.
WRAPPED = {
    "sensor": ("simulate_frame",),
    "ingest": ("write_pgm", "read_pgm"),
    "characterize": ("pixel_stats", "fano_factor", "estimate_zeta"),
    "entropy": ("entropy_report", "plan_extractor", "epsilon_bound"),
    "extractor": ("frame_to_bits", "concat_streams", "generate_matrix", "extract"),
    "stattests": (
        "run_battery", "monobit_test", "block_frequency_test", "runs_test",
        "serial_correlation", "export_stream",
    ),
}

COMMANDS = ("simulate", "characterize", "plan", "extract", "test")

_BUSY = [
    "sensor.simulate_frame", "ingest.write_pgm", "ingest.read_pgm",
    "characterize.pixel_stats", "characterize.fano_factor",
    "characterize.estimate_zeta", "extractor.frame_to_bits",
    "extractor.concat_streams", "extractor.generate_matrix", "extractor.extract",
    "stattests.run_battery", "stattests.monobit_test",
    "stattests.block_frequency_test", "stattests.runs_test",
    "stattests.serial_correlation", "stattests.export_stream",
]

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [(f"{n}.busy_s", "s", "lower") for n in _BUSY]
    + [
        ("sensor.simulate_frame.mpix_per_s", "Mpix/s", "higher"),
        ("sensor.simulate_frame.calls", "count", "lower"),
        ("sensor.simulate_frame.speedup_vs_1w", "x", "higher"),
        ("ingest.read_pgm.mb_per_s", "MB/s", "higher"),
        ("entropy.busy_s", "s", "lower"),
        ("extractor.frame_to_bits.peak_alloc_mb", "MB", "lower"),
        ("extractor.concat_streams.peak_alloc_mb", "MB", "lower"),
        ("extractor.table_build_s", "s", "lower"),
        ("extractor.extract.in_mbit_per_s", "Mbit/s", "higher"),
        ("extractor.extract.speedup_vs_1w", "x", "higher"),
        ("extractor.extract.peak_alloc_mb", "MB", "lower"),
        ("extractor.extract.blocks", "count", "higher"),
        ("extractor.extract.computed_gb_moved", "GB", "lower"),
        ("extractor.extract.computed_ops_per_byte", "op/B", "higher"),
        ("extractor.extract.table_working_set_mb", "MB", "lower"),
        ("stattests.run_battery.self_s", "s", "lower"),
        ("stattests.run_battery.peak_alloc_mb", "MB", "lower"),
        ("stattests.tests_failed", "count", "lower"),
    ]
    + [
        ("pass.wall_s", "s", "lower"),
        ("pass.mbit_per_s", "Mbit/s", "higher"),
    ]
    + [(f"cli.{c}.wall_s", "s", "lower") for c in COMMANDS]
    + [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS]
    + [
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_coverage", "ratio", "higher"),
    ]
)

_MiB = float(1 << 20)


def extract_shape(k: int, l: int, blocks: int, path: str) -> dict:
    """Bytes and operations an extract call moves, computed from its shape.

    Table path: per block, ceil(l/8) lookups of ceil(k/64) words, each
    XORed once.  Row path: per block, k rows of ceil(l/64) words, each
    ANDed, popcounted and summed.
    """
    table_bytes = (l + 7) // 8 * 256 * ((k + 63) // 64) * 8
    if path == "table":
        words, ops_per_word = blocks * ((l + 7) // 8) * ((k + 63) // 64), 1
    else:
        words, ops_per_word = blocks * k * ((l + 63) // 64), 3
    return {
        "computed_bytes": 8 * words,
        "computed_ops": ops_per_word * words,
        "table_working_set_bytes": table_bytes,
    }


def _outermost(spans: list[dict], match) -> list[dict]:
    """Spans selected by `match` that have no selected ancestor."""
    by_id = {s["id"]: s for s in spans}

    def has_matching_ancestor(s):
        parent = by_id.get(s["parent"])
        while parent is not None:
            if match(parent["name"]):
                return True
            parent = by_id.get(parent["parent"])
        return False

    return [s for s in spans if match(s["name"]) and not has_matching_ancestor(s)]


def _busy(spans, name):
    return sum(s["end"] - s["start"] for s in _outermost(spans, lambda n: n == name))


def _named(spans, name):
    return [s for s in spans if s["name"] == name]


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def compute(
    spans: list[dict],
    baselines: dict,
    untraced_steps: list[list[dict]],
    untraced_wall: float,
    traced_wall: float,
    product_bits: int,
) -> tuple[dict, dict]:
    """Per-layer metric values (absent work reads 0) and the labels beside them.

    untraced_steps holds, per untraced pass, its steps as dicts with
    "command" and "wall_s"; untraced_wall is their median pass wall time.
    """
    v: dict[str, float] = {}
    for name in _BUSY:
        v[f"{name}.busy_s"] = _busy(spans, name)

    sim = _named(spans, "sensor.simulate_frame")
    pixels = sum(s["counts"].get("pixels", 0) for s in sim)
    v["sensor.simulate_frame.mpix_per_s"] = _ratio(pixels / 1e6, v["sensor.simulate_frame.busy_s"])
    v["sensor.simulate_frame.calls"] = len(sim)
    sim_base = baselines.get("simulate_frame", {})
    v["sensor.simulate_frame.speedup_vs_1w"] = _ratio(
        sim_base.get("one_worker_s", 0.0), sim_base.get("default_s", 0.0)
    )

    read_bytes = sum(s["counts"].get("bytes", 0) for s in _named(spans, "ingest.read_pgm"))
    v["ingest.read_pgm.mb_per_s"] = _ratio(read_bytes / 1e6, v["ingest.read_pgm.busy_s"])
    v["entropy.busy_s"] = sum(
        s["end"] - s["start"] for s in _outermost(spans, lambda n: n.startswith("entropy."))
    )

    def peak(name):
        return max((s["peak_alloc_mb"] for s in _named(spans, name)), default=0.0)

    v["extractor.frame_to_bits.peak_alloc_mb"] = peak("extractor.frame_to_bits")
    v["extractor.concat_streams.peak_alloc_mb"] = peak("extractor.concat_streams")

    labels: dict = {}
    ext = _named(spans, "extractor.extract")
    ext_base = baselines.get("extract", {})
    blocks = sum(s["counts"].get("blocks", 0) for s in ext)
    in_bits = sum(s["counts"].get("blocks", 0) * s["counts"].get("l", 0) for s in ext)
    computed = {"computed_bytes": 0, "computed_ops": 0, "table_working_set_bytes": 0}
    for s in ext:
        c = s["counts"]
        if {"k", "l", "blocks", "path"} <= c.keys():
            shape = extract_shape(c["k"], c["l"], c["blocks"], c["path"])
            for key in ("computed_bytes", "computed_ops"):
                computed[key] += shape[key]
            computed["table_working_set_bytes"] = max(
                computed["table_working_set_bytes"], shape["table_working_set_bytes"]
            )
    if ext:
        labels["extract.path"] = [s["counts"].get("path", "unknown") for s in ext]
    v["extractor.table_build_s"] = ext_base.get("fresh_cpu_s", 0.0) - ext_base.get(
        "default_cpu_s", 0.0
    )
    v["extractor.extract.in_mbit_per_s"] = _ratio(in_bits / 1e6, v["extractor.extract.busy_s"])
    v["extractor.extract.speedup_vs_1w"] = _ratio(
        ext_base.get("one_worker_s", 0.0), ext_base.get("default_s", 0.0)
    )
    v["extractor.extract.peak_alloc_mb"] = peak("extractor.extract")
    v["extractor.extract.blocks"] = blocks
    v["extractor.extract.computed_gb_moved"] = computed["computed_bytes"] / 1e9
    v["extractor.extract.computed_ops_per_byte"] = _ratio(
        computed["computed_ops"], computed["computed_bytes"]
    )
    v["extractor.extract.table_working_set_mb"] = computed["table_working_set_bytes"] / _MiB

    battery = _named(spans, "stattests.run_battery")
    v["stattests.run_battery.self_s"] = sum(s["self_s"] for s in battery)
    v["stattests.run_battery.peak_alloc_mb"] = peak("stattests.run_battery")
    v["stattests.tests_failed"] = sum(s["counts"].get("tests_failed", 0) for s in battery)

    v["pass.wall_s"] = untraced_wall
    v["pass.mbit_per_s"] = _ratio(product_bits / 1e6, untraced_wall)
    for command in COMMANDS:
        per_pass = [
            sum(st["wall_s"] for st in steps if st["command"] == command)
            for steps in untraced_steps
        ]
        v[f"cli.{command}.wall_s"] = statistics.median(per_pass) if per_pass else 0.0
        v[f"cli.{command}.self_s"] = sum(s["self_s"] for s in _named(spans, f"cli.{command}"))

    v["trace.overhead_s"] = traced_wall - untraced_wall
    v["trace.self_coverage"] = _ratio(sum(s["self_s"] for s in spans), traced_wall)
    return v, labels
