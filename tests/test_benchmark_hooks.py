"""The benchmark in perfbench/ wraps camrng functions by name and passes
n_workers to some of them; renaming or deleting one must fail here, in
the fast suite, not only in the benchmark's own tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import camrng
import camrng.characterize
import camrng.cli
import camrng.entropy
import camrng.extractor
import camrng.ingest
import camrng.sensor
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
    # perfbench's per-layer extractor and entropy metrics come from spans
    # around these names, rebound wherever camrng holds them; a call that
    # bypasses them reads 0.
    reals = [getattr(camrng.extractor, name) for name in (
        "frame_to_bits", "concat_streams", "generate_matrix", "extract")]
    reals += [camrng.entropy.entropy_report, camrng.entropy.epsilon_bound]
    calls = {real.__name__: 0 for real in reals}
    for real in reals:

        def counted(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        rebind(real, counted)
    rng = np.random.default_rng(2)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"f{i}.pgm"))
        write_pgm(Frame(rng.integers(700, 900, (32, 32)), 10), paths[-1])
    argv = ["extract", "--preset", "nokia-n9", *paths, "--l", "200", "--k", "20",
            "--out", str(tmp_path / "o.bin")]
    assert camrng.cli.main(argv) == 0
    assert calls["frame_to_bits"] == 3
    assert calls["entropy_report"] == calls["epsilon_bound"] == 1
    assert all(calls.values()), calls


def test_cli_simulate_and_characterize_call_the_traced_frame_names(tmp_path, rebind):
    # perfbench's sensor, ingest and characterize spans wrap these names
    # the same way; simulate and characterize must go through them once
    # per frame written or read, once per stack summed or given its Fano
    # factor, and once per sweep fitted.
    reals = (camrng.sensor.simulate_frame, camrng.ingest.write_pgm,
             camrng.ingest.read_pgm, camrng.characterize.pixel_stats,
             camrng.characterize.fano_factor, camrng.characterize.estimate_zeta)
    calls = {}
    for real in reals:

        def counted(*args, _real=real, **kwargs):
            calls[_real.__name__] = calls.get(_real.__name__, 0) + 1
            return _real(*args, **kwargs)

        rebind(real, counted)

    def counts(*argv):
        calls.clear()
        assert camrng.cli.main([str(a) for a in argv]) == 0
        return calls.copy()

    common = ("--preset", "nokia-n9", "--frames", "3", "--width", "8", "--height", "8")
    sweep = tmp_path / "sweep"
    assert counts("simulate", *common, "--sweep", "100,200", "--out", sweep) == {
        "simulate_frame": 6, "write_pgm": 6}
    frames = sorted(sweep.glob("nbar_00_*.pgm"))
    assert counts("characterize", "--preset", "nokia-n9", *frames,
                  "--out", tmp_path / "c") == {
        "read_pgm": 3, "pixel_stats": 1, "fano_factor": 1}
    assert counts("characterize", "--preset", "nokia-n9", "--manifest",
                  sweep / "manifest.json", "--out", tmp_path / "m") == {
        "read_pgm": 6, "pixel_stats": 2, "fano_factor": 2, "estimate_zeta": 1}
