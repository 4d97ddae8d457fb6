"""The benchmark in perfbench/ wraps camrng functions by name and passes
n_workers to some of them; renaming or deleting one must fail here, in
the fast suite, not only in the benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import camrng

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_camrng():
    missing = []
    for module, names in _layers().WRAPPED.items():
        mod = importlib.import_module(f"camrng.{module}")
        missing += [f"{module}.{n}" for n in names if not callable(getattr(mod, n, None))]
    assert missing == []


def test_one_worker_baselines_can_pass_n_workers():
    for fn in (camrng.simulate_frame, camrng.extract):
        assert "n_workers" in inspect.signature(fn).parameters
