"""camrng benchmark: end-to-end passes through the CLI, and a traced pass per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload nokia-c7 --seed 20260819 --seconds 40 --trace 0

One pass runs a workload's `camrng` commands in a fresh child process
against the sources under src/.  Passes repeat, one at a time, until
--seconds have elapsed (at least MIN_PASSES).  After each pass the
outputs are checked against naive oracles that do not use camrng.

--trace 0 prints the end-to-end metrics: cpu_s (CPU time of all the
child's threads in the timed region of one pass), mbit_per_cpu_s
(product bits over cpu_s), setup_s (CPU time from child start to the
first workload call), peak_rss_mb (the child's ru_maxrss), all medians
over the run.  Times are CPU times because on a few shared cores the
wall time of a pass follows the load of other tenants; wall times are
recorded beside them and reported as pass.wall_s and cli.*.wall_s.
--trace 1 adds a traced pass for spans, counts and 1-worker baselines,
and one under tracemalloc for peak allocations, then prints the
per-layer metrics of layers.METRICS.  BENCHMARK.json
gates nokia-c7 and battery-240m; atik-l8192 (sweep, characterize, plan,
row-path extraction) is run by hand.  A human summary, including
error_rate = failed/attempted passes, goes to stderr; the full record
(environment, passes, spans) goes to .perfbench_out/.  The last stdout
line is one JSON object with keys correct, attempted, failed, metrics.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

MIN_PASSES = 3
# Setup-only children per run, after one discarded warm-up that fills
# the bytecode caches.
SETUP_SAMPLES = 6
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("cpu_s", "s"),
    ("mbit_per_cpu_s", "Mbit/cpu_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def environment(seed: int) -> dict:
    """Machine, toolchain and source identity recorded with every result."""
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "QRNG_THREADS": os.environ.get("QRNG_THREADS"),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_ticks() -> list[int]:
    """System-wide CPU time counters from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) != len(before):
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def _git_commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(
    work: str, steps: list[list[str]], stdout_dir: str, trace: str | None, pass_id: int
) -> tuple[dict | None, str | None]:
    """Run child.py once (see its docstring for the spec); (result, error)."""
    spec = {
        "src": os.path.join(ROOT, "src"),
        "steps": steps,
        "stdout_dir": stdout_dir,
        "result": os.path.join(work, "child_result.json"),
        "trace": trace,
        "pass_id": pass_id,
    }
    spec_path = os.path.join(work, "child_spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, spec_path],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited with code {proc.returncode}"
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, f"no child result: {exc}"


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def run_pass(wl: workloads.Workload, work: str, traced: str | None, pass_id: int) -> dict:
    """One pass in a fresh child, then its output checks."""
    shutil.rmtree(wl.pass_dir, ignore_errors=True)
    os.makedirs(wl.pass_dir)
    argv = [list(s.argv) for s in wl.steps]
    result, error = run_child(work, argv, wl.pass_dir, traced, pass_id)
    record = {"traced": traced, "argv": argv, "errors": [], "fingerprint": None}
    if result is None:
        record["errors"].append(error)
        return record
    record.update(result)
    outputs = []
    for step, ran in zip(wl.steps, result["steps"]):
        out = _read(ran["stdout"])
        outputs.append(out)
        want = 0
        if step.expect == "verdict":
            want = 0 if workloads.parse_json(out).get("all_passed") else 1
        if ran["exit"] != want:
            detail = ran["error"] or ""
            record["errors"].append(
                f"{step.command}: exit {ran['exit']}, expected {want} {detail}".rstrip()
            )
    if len(result["steps"]) < len(wl.steps):
        record["errors"].append(f"pass stopped after {len(result['steps'])} steps")
    elif not record["errors"]:
        try:
            errors, record["fingerprint"] = wl.check(outputs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"output check could not run: {exc!r}"]
        record["errors"] += errors
    return record


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size: str, work: str) -> dict:
    """Run one benchmark invocation in `work`; returns the full record."""
    ticks = _cpu_ticks()
    wl = workloads.WORKLOADS[name](seed, size, work)
    wl.prepare()

    setups = []
    for i in range(SETUP_SAMPLES + 1):
        result, error = run_child(work, [], work, None, -1)
        if result is None:
            raise RuntimeError(f"setup-only child failed: {error}")
        if i:
            setups.append(result["setup_s"])

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(run_pass(wl, work, None, len(passes)))
    if trace:
        passes.append(run_pass(wl, work, "spans", len(passes)))
        passes.append(run_pass(wl, work, "alloc", len(passes)))

    # Every pass of one seed must produce identical output bytes.
    first = next((p["fingerprint"] for p in passes if p["fingerprint"]), None)
    for p in passes:
        if p["fingerprint"] and p["fingerprint"] != first:
            p["errors"].append("output differs from the first pass of this seed")

    untraced = [p for p in passes if not p["traced"]]
    timed = [p for p in untraced if not p["errors"]]
    wall = _median([p["wall_s"] for p in timed])
    cpu = _median([p["cpu_s"] for p in timed])
    metrics = {
        "cpu_s": cpu,
        "mbit_per_cpu_s": wl.product_bits / 1e6 / cpu if cpu else 0.0,
        "setup_s": _median(setups + [p["setup_s"] for p in untraced if "setup_s" in p]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in timed]),
    }
    units = dict(END_TO_END)
    labels: dict = {}
    missing: list = []
    if trace:
        tp, ap = passes[-2:]
        spans = tp.get("spans", [])
        alloc_spans = ap.get("spans", [])
        if [s["name"] for s in spans] == [s["name"] for s in alloc_spans]:
            for s, a in zip(spans, alloc_spans):
                s["peak_alloc_mb"] = a["peak_alloc_mb"]
        else:
            labels["peak_alloc"] = "the tracemalloc pass made other calls; peaks read 0"
        values, traced_labels = layers.compute(
            spans,
            tp.get("baselines", {}),
            [p["steps"] for p in timed],
            wall,
            tp.get("wall_s", 0.0),
            wl.product_bits,
        )
        labels.update(traced_labels)
        missing = tp.get("missing", [])
        metrics = values
        units = {n: u for n, u, _ in layers.METRICS}
    failed = sum(1 for p in passes if p["errors"])
    env = environment(seed)
    env["cpu_steal_share"] = _steal_share(ticks, _cpu_ticks())
    return {
        "workload": name,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "product_bits": wl.product_bits,
        "setup_samples": setups,
        "passes": passes,
        "labels": labels,
        "missing": missing,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }


def summarize(record: dict) -> str:
    """Human-readable summary of one run."""
    untraced = [p for p in record["passes"] if not p["traced"] and not p["errors"]]
    walls = sorted(p["wall_s"] for p in untraced)
    cpus = sorted(p["cpu_s"] for p in untraced)
    lines = [
        f"perfbench {record['workload']} ({record['size']}) seed "
        f"{record['environment']['seed']}: {record['attempted']} passes, "
        f"{record['failed']} failed, error_rate {record['failed'] / record['attempted']:.4g} "
        f"(failed/attempted)",
    ]
    if walls:
        lines.append(
            f"  wall_s over {len(walls)} untraced passes: median "
            f"{statistics.median(walls):.4f}, min {walls[0]:.4f}, max {walls[-1]:.4f}"
        )
        lines.append(
            f"  cpu_s over {len(cpus)} untraced passes: median "
            f"{statistics.median(cpus):.4f}, min {cpus[0]:.4f}, max {cpus[-1]:.4f}"
        )
    for name, m in record["metrics"].items():
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for key in ("labels", "missing"):
        if record[key]:
            lines.append(f"  {key}: {json.dumps(record[key])}")
    for i, p in enumerate(record["passes"]):
        for err in p["errors"]:
            lines.append(f"  pass {i}{' (' + p['traced'] + ')' if p['traced'] else ''}: {err}")
    env = record["environment"]
    lines.append(f"  environment: {json.dumps(env)}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "camrng", "__init__.py")):
        print(f"perfbench: no camrng sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that subprocess.run kills and reaps the child
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        record = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(summarize(record) + f"\n  record: {out_path}", file=sys.stderr)

    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
