"""One benchmark pass in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC is a JSON object with
    src        directory that holds the camrng package under test
    steps      argv lists, each run through camrng.cli.main in order
    stdout_dir where step i's standard output goes, as step<i>.out
    result     path of the result JSON this process writes
    pass_id    identifier shared by every span of this pass
    trace      null for a plain pass; "spans" to wrap the
               functions in layers.WRAPPED, record spans and then time
               the 1-worker baselines; "alloc" to record the same spans
               under tracemalloc for their peak allocations only, since
               tracemalloc slows small allocations several-fold

Setup runs from process start to the first workload call, so it covers
interpreter start-up, `import camrng` and `camrng.cli`.  It is reported
as CPU time (setup_s, all threads) and as wall time from this script's
first statement (setup_wall_s).
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import copy  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402


def _extract_counts(args, kwargs, result):
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    path = "unknown"
    if hasattr(matrix, "_tables"):
        path = "row" if matrix._tables is None else "table"
    return {
        "blocks": result.blocks_processed,
        "bits_out": result.bits.n_bits,
        "k": matrix.k,
        "l": matrix.l,
        "path": path,
    }


def _path_arg(args, kwargs, index, name):
    return os.path.getsize(args[index] if len(args) > index else kwargs[name])


# Counts recorded on a span from the wrapped call's arguments and result.
COUNTERS = {
    "sensor.simulate_frame": lambda a, kw, r: {"pixels": r.width * r.height},
    "ingest.read_pgm": lambda a, kw, r: {"bytes": _path_arg(a, kw, 0, "path")},
    "ingest.write_pgm": lambda a, kw, r: {"bytes": _path_arg(a, kw, 1, "path")},
    "extractor.frame_to_bits": lambda a, kw, r: {"bits_out": r.n_bits},
    "extractor.concat_streams": lambda a, kw, r: {"bits_out": r.n_bits},
    "extractor.generate_matrix": lambda a, kw, r: {"k": r.k, "l": r.l},
    "extractor.extract": _extract_counts,
    "stattests.run_battery": lambda a, kw, r: {
        "bits_in": r.n_bits,
        "tests_failed": sum(not t.passed for t in r.results),
    },
}

# Calls kept for the 1-worker baselines: the last frame simulated, and a
# deep copy of the first extraction's arguments taken before the call, so
# that its matrix is as fresh as the one the workload used.
_CAPTURE_LAST = "sensor.simulate_frame"
_CAPTURE_FIRST = "extractor.extract"


def _timed(fn, args, kwargs) -> tuple[float, float]:
    """(wall, process CPU) seconds of one call."""
    wall, cpu = time.perf_counter(), time.process_time()
    fn(*args, **kwargs)
    return time.perf_counter() - wall, time.process_time() - cpu


class Tracer:
    """Spans and counts around wrapped calls made on the main thread."""

    def __init__(self, pass_id: int, capture: bool):
        self.pass_id = pass_id
        self.capture = capture
        self.spans: list[dict] = []
        self.captured: dict = {}
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["span"]["id"] if self._stack else None,
            "pass_id": self.pass_id,
            "start": 0.0,
            "end": 0.0,
            "self_s": 0.0,
            "peak_alloc_mb": 0.0,
            "counts": {},
        }
        self.spans.append(span)
        frame = {"span": span, "children_s": 0.0, "base": 0, "peak": 0}
        if tracemalloc.is_tracing():
            # The tracemalloc peak is global: fold it into the enclosing
            # span before resetting it for this one.
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1]["peak"] = max(self._stack[-1]["peak"], peak)
            tracemalloc.reset_peak()
            frame["base"] = frame["peak"] = current
        self._stack.append(frame)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        frame = self._stack.pop()
        duration = span["end"] - span["start"]
        span["self_s"] = duration - frame["children_s"]
        if self._stack:
            self._stack[-1]["children_s"] += duration
        if tracemalloc.is_tracing():
            top = max(frame["peak"], tracemalloc.get_traced_memory()[1])
            span["peak_alloc_mb"] = (top - frame["base"]) / (1 << 20)
            if self._stack:
                self._stack[-1]["peak"] = max(self._stack[-1]["peak"], top)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            if self.capture and name == _CAPTURE_FIRST and name not in self.captured:
                self.captured[name] = (fn, *copy.deepcopy((args, kwargs)))
            elif self.capture and name == _CAPTURE_LAST:
                self.captured[name] = (fn, args, kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                try:
                    span["counts"].update(counter(args, kwargs, result))
                except (AttributeError, KeyError, IndexError, TypeError, OSError) as exc:
                    span["counts"]["count_error"] = repr(exc)
            return result

        return traced

    def install(self) -> list[str]:
        """Rebind every function in layers.WRAPPED wherever camrng holds it.

        Returns the "<module>.<function>" names that no longer exist.
        """
        missing = []
        found = []
        for module, funcs in layers.WRAPPED.items():
            try:
                mod = importlib.import_module(f"camrng.{module}")
            except ImportError:
                missing += [f"{module}.{f}" for f in funcs]
                continue
            for func in funcs:
                fn = getattr(mod, func, None)
                if callable(fn):
                    found.append((f"{module}.{func}", fn))
                else:
                    missing.append(f"{module}.{func}")
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "camrng"]
        for name, fn in found:
            traced = self.wrap(name, fn)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)
        return missing

    def baselines(self, n_default: int) -> dict:
        """Re-run the captured calls at 1 worker and at the default count.

        The extraction runs first on its fresh copy, then again warm; the
        CPU-time difference of the two is the first-call cost
        (table_build_s), in CPU seconds so that time stolen from this
        process by other load does not count as table building.
        """
        out = {}
        if _CAPTURE_LAST in self.captured:
            fn, args, kwargs = self.captured[_CAPTURE_LAST]
            runs = {"default_s": [], "one_worker_s": []}
            try:
                for _ in range(3):
                    for key, n in (("default_s", n_default), ("one_worker_s", 1)):
                        runs[key].append(_timed(fn, args, {**kwargs, "n_workers": n})[0])
                out["simulate_frame"] = {k: statistics.median(v) for k, v in runs.items()}
            except TypeError as exc:
                out["simulate_frame"] = {"error": repr(exc)}
        if _CAPTURE_FIRST in self.captured:
            fn, args, kwargs = self.captured[_CAPTURE_FIRST]
            try:
                fresh = _timed(fn, args, {**kwargs, "n_workers": n_default})
                warm = _timed(fn, args, {**kwargs, "n_workers": n_default})
                one = _timed(fn, args, {**kwargs, "n_workers": 1})
                out["extract"] = {
                    "fresh_s": fresh[0], "fresh_cpu_s": fresh[1],
                    "default_s": warm[0], "default_cpu_s": warm[1],
                    "one_worker_s": one[0],
                }
            except TypeError as exc:
                out["extract"] = {"error": repr(exc)}
        for entry in out.values():
            entry["n_default"] = n_default
        return out


def run(spec: dict) -> dict:
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import camrng
    import camrng.cli as cli

    setup_wall_s = time.perf_counter() - _T0
    setup_s = time.process_time()
    if not os.path.abspath(camrng.__file__).startswith(src + os.sep):
        raise RuntimeError(f"camrng imported from {camrng.__file__}, not {src}")

    tracer = Tracer(spec["pass_id"], capture=spec["trace"] == "spans") if spec["trace"] else None
    missing = tracer.install() if tracer else []
    if spec["trace"] == "alloc":
        tracemalloc.start()
    steps = []
    cpu_start = time.process_time()
    t_start = time.perf_counter()
    for i, argv in enumerate(spec["steps"]):
        out_path = os.path.join(spec["stdout_dir"], f"step{i}.out")
        error = None
        with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            t = time.perf_counter()
            span = tracer.open(f"cli.{argv[0]}") if tracer else None
            try:
                code = cli.main(list(argv))
            except Exception:  # a crash is a failed step, reported to the parent
                code, error = None, traceback.format_exc()
            finally:
                if span is not None:
                    tracer.close(span)
            wall = time.perf_counter() - t
        steps.append(
            {"command": argv[0], "argv": argv, "exit": code, "wall_s": wall,
             "error": error, "stdout": out_path}
        )
        if code is None:
            break
    wall_s = time.perf_counter() - t_start
    cpu_s = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "steps": steps,
        "camrng_file": camrng.__file__,
    }
    if tracer:
        tracemalloc.stop()
        result.update(spans=tracer.spans, missing=missing, baselines={})
    if spec["trace"] == "spans":
        sensor = sys.modules.get("camrng.sensor")
        n_default = sensor.worker_count() if hasattr(sensor, "worker_count") else os.cpu_count()
        result["baselines"] = tracer.baselines(n_default)
    return result


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
