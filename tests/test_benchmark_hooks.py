"""The benchmark in perfbench/ wraps camrng functions by name and passes
n_workers to some of them; renaming or deleting one must fail here, in
the fast suite, not only in the benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import camrng
import camrng.cli
import camrng.extractor
from camrng.ingest import write_pgm
from camrng.sensor import Frame

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


def test_cli_extract_calls_the_traced_extractor_names(tmp_path, rebind):
    # perfbench's per-layer extractor metrics come from spans around these
    # names, rebound wherever camrng holds them; a call that bypasses them
    # reads 0.
    names = ("frame_to_bits", "concat_streams", "generate_matrix", "extract")
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(camrng.extractor, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        rebind(real, counted)
    rng = np.random.default_rng(2)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"f{i}.pgm"))
        write_pgm(Frame(32, 32, rng.integers(700, 900, (32, 32)), 10), paths[-1])
    argv = ["extract", "--preset", "nokia-n9", *paths, "--l", "200", "--k", "20",
            "--out", str(tmp_path / "o.bin")]
    assert camrng.cli.main(argv) == 0
    assert calls["frame_to_bits"] == 3
    assert all(calls[name] >= 1 for name in names), calls
