import contextlib
import hashlib
import json
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest

import camrng.characterize
import camrng.cli
from camrng import extractor
from camrng.bitstream import export_stream
from camrng.characterize import (
    DEFAULT_FANO_TOLERANCE,
    PixelMask,
    PixelStats,
    characterize_stack,
    characterize_sweep,
    simulate_stacks,
)
from camrng.cli import main
from camrng.extractor import (
    DEFAULT_MATRIX_SEED,
    BinaryMatrix,
    concat_streams,
    extract,
    frame_to_bits,
    generate_matrix,
    load_matrix,
)
from camrng.ingest import (
    dumps,
    raw_payload,
    read_json,
    read_manifest,
    read_pgm,
    read_raw,
    read_sidecar,
    write_pgm,
)
from camrng.sensor import PRESETS, Frame, simulate_frame


def sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_simulate_writes_pgm_frames(tmp_path, capsys):
    out = tmp_path / "frames"
    rc = run(
        "simulate", "--preset", "nokia-n9", "--nbar", "410", "--frames", "3",
        "--width", "32", "--height", "16", "--seed", "4", "--out", out,
    )
    assert rc == 0
    files = sorted(p.name for p in out.glob("*.pgm"))
    assert files == ["frame_0000.pgm", "frame_0001.pgm", "frame_0002.pgm"]
    assert "predicted_fano" in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            "simulate", "--preset", "nokia-n9", "--nbar", "100", "--frames", "2",
            "--width", "16", "--height", "16", "--seed", "9", "--out", out,
        ) == 0
    for name in ("frame_0000.pgm", "frame_0001.pgm"):
        assert sha(a / name) == sha(b / name)


def test_simulate_raw_format_with_sidecar(tmp_path):
    out = tmp_path / "raw"
    rc = run(
        "simulate", "--preset", "atik383l", "--nbar", "500", "--frames", "4",
        "--width", "8", "--height", "8", "--seed", "1", "--out", out,
        "--format", "raw16le",
    )
    assert rc == 0
    assert (out / "frames.raw").exists()
    sidecar = json.loads((out / "frames.raw.json").read_text())
    assert sidecar["header"]["frame_count"] == 4
    assert sidecar["n_bar"] == 500.0


def test_simulate_requires_intensity_and_out(tmp_path, capsys):
    assert run("simulate", "--preset", "nokia-n9", "--out", tmp_path / "x") == 2
    assert not (tmp_path / "x").exists()
    assert run(
        "simulate", "--preset", "nokia-n9", "--sweep", ",", "--out", tmp_path / "y"
    ) == 2
    assert "argument --sweep: needs at least one n_bar" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()
    assert run(
        "simulate", "--preset", "nokia-n9", "--nbar", "410", "--sweep", "50,100",
        "--out", tmp_path / "z",
    ) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()
    assert run("simulate", "--preset", "nokia-n9", "--nbar", "10") == 2


@pytest.mark.parametrize("n_frames", [1, 3])
def test_simulate_summary_is_exact(tmp_path, capsys, n_frames):
    out = tmp_path / "frames"
    assert run(
        "simulate", "--preset", "nokia-n9", "--nbar", "50", "--frames", n_frames,
        "--width", "7", "--height", "5", "--seed", "11", "--out", out, "--json",
    ) == 0
    (stack,) = json.loads(capsys.readouterr().out)["stacks"]
    codes = [int(c) for name in stack["files"] for c in read_pgm(out / name).codes.ravel()]
    n = len(codes)
    mean = Fraction(sum(codes), n)
    variance = sum((c - mean) ** 2 for c in codes) / (n - 1)
    assert n == 35 * n_frames
    assert stack["mean_code"] == float(mean)
    assert stack["variance_code"] == float(variance)


def test_simulate_summary_totals_do_not_wrap():
    # One frame of four pixels whose squared codes add up past 2**63.
    codes = [2**31, 2**31 - 7, 1, 2**30]
    s1 = np.array(codes, dtype=np.int64).reshape(2, 2)
    stats = PixelStats()
    stats.add(Frame(np.zeros((2, 2), np.uint16), 16))
    # No frame holds such codes: write the sums in place.
    stats.s1[...], stats.s2[...] = s1, s1 * s1
    mean, variance = stats.summary()
    exact_mean = Fraction(sum(codes), 4)
    assert mean == float(exact_mean)
    assert variance == float(sum((c - exact_mean) ** 2 for c in codes) / 3)


def test_simulate_rejects_zero_frames(tmp_path, capsys):
    rc = run(
        "simulate", "--preset", "nokia-n9", "--nbar", "10", "--frames", "0",
        "--out", tmp_path / "x",
    )
    assert rc == 2
    capsys.readouterr()


def test_simulate_config_file_equals_its_preset(tmp_path):
    config = tmp_path / "n9.json"
    config.write_text(json.dumps(PRESETS["nokia-n9"].to_dict()))
    for sensor in (("--preset", "nokia-n9"), ("--config", config)):
        assert run("simulate", *sensor, "--nbar", "410", "--frames", "2", "--width", "16",
                   "--height", "8", "--seed", "5", "--out", tmp_path / sensor[0][2:]) == 0
    for name in ("frame_0000.pgm", "frame_0001.pgm"):
        assert sha(tmp_path / "config" / name) == sha(tmp_path / "preset" / name)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("sigma_t_electrons", float("nan"), "sigma_t must be finite"),
        ("offset_electrons", float("inf"), "offset must be finite"),
        ("zeta", float("nan"), "zeta must be finite"),
        ("full_well_electrons", float("nan"), "full_well must be finite"),
        ("bit_depth", float("inf"), "bit_depth is not a number"),
        ("bit_depth", 10.9, "bit_depth is not an integer: 10.9"),
        ("bit_depth", True, "bit_depth is not an integer: True"),
        ("zeta", "1.9", "zeta is not a number: '1.9'"),
    ],
)
def test_simulate_config_with_a_bad_number_is_a_runtime_failure(
    tmp_path, capsys, key, value, message
):
    config = tmp_path / "sensor.json"
    config.write_text(json.dumps({**PRESETS["nokia-n9"].to_dict(), key: value}))
    out = tmp_path / "x"
    assert run("simulate", "--config", config, "--nbar", "410", "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and message in err
    assert not out.exists()


def test_a_config_with_eta_is_a_runtime_failure_naming_the_key(tmp_path, capsys):
    config = tmp_path / "sensor.json"
    config.write_text(json.dumps({**PRESETS["nokia-n9"].to_dict(), "eta": 1.0}))
    out = tmp_path / "x"
    assert run("simulate", "--config", config, "--nbar", "410", "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: sensor config has unknown keys: ['eta']\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "name,doc,argv,message",
    [
        ("sensor.json", {**PRESETS["nokia-n9"].to_dict(), "name": None},
         ("simulate", "--config", "sensor.json", "--nbar", "410"),
         "sensor config name is not a string: None"),
        ("f.raw.json", {"header": {"format": 16, "width": 4, "height": 4, "bit_depth": 10}},
         ("extract", "--preset", "nokia-n9", "f.raw"),
         "frame header format is not a string: 16"),
    ],
    ids=["config-name", "sidecar-format"],
)
def test_a_json_string_field_refuses_any_other_value(
    tmp_path, monkeypatch, capsys, name, doc, argv, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.raw").write_bytes(b"\x00" * 32)
    (tmp_path / name).write_text(json.dumps(doc))
    assert run(*argv, "--out", "out") == 1
    assert capsys.readouterr().err == f"error: {name}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_entropy_json(capsys):
    assert run("entropy", "--nbar", "410", "--bits", "10", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h_quantum_bits"] == pytest.approx(6.3865, abs=1e-3)
    assert doc["s_bits_per_raw_bit"] == pytest.approx(0.6387, abs=1e-3)
    assert "method" not in doc


def test_entropy_covers_its_whole_range(capsys):
    assert run("entropy", "--nbar", "1e6", "--bits", "16", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h_quantum_bits"] == pytest.approx(12.012879749618081, rel=0, abs=1e-12)


def _strict_json(text: str):
    def refuse(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_simulate_json_of_a_single_code_is_strict_json(tmp_path, capsys):
    argv = ("simulate", "--preset", "nokia-n9", "--nbar", "410", "--width", "1",
            "--height", "1", "--frames", "1", "--out", tmp_path / "f")
    assert run(*argv, "--json") == 0
    (stack,) = _strict_json(capsys.readouterr().out)["stacks"]
    assert stack["variance_code"] is None
    assert run(*argv) == 0
    assert " var=n/a " in capsys.readouterr().out


def test_a_non_finite_value_fails_before_any_json_is_written(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(PixelStats, "summary", lambda *args: (1.0, float("nan")))
    out = tmp_path / "sweep"
    rc = run("simulate", "--preset", "nokia-n9", "--sweep", "10,20", "--width", "2",
             "--height", "2", "--out", out, "--json")
    assert rc == 1
    assert capsys.readouterr().out == ""
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("fmt", ["pgm", "raw16le"])
@pytest.mark.parametrize("sweep", [[], [100.0, 410.0]], ids=["nbar", "sweep"])
def test_library_records_are_the_cli_json(tmp_path, capsys, fmt, sweep):
    # Each pipeline's record, serialized as the CLI prints it, is exactly
    # the CLI's --json stdout; both write the same files to the same paths.
    def printed(*argv):
        assert run(*argv, "--json") == 0
        return capsys.readouterr().out

    sensor, out, rep = PRESETS["nokia-n9"], str(tmp_path / "f"), str(tmp_path / "r")
    n_bars = sweep or [410.0]
    flags = ("--sweep", "100,410") if sweep else ("--nbar", "410")
    cli = printed("simulate", "--preset", "nokia-n9", *flags, "--frames", "10",
                  "--width", "9", "--height", "7", "--seed", "5", "--format", fmt,
                  "--out", out)
    record, manifest = simulate_stacks(sensor, n_bars, bool(sweep), 10, 9, 7, 5, fmt, out)
    assert cli == json.dumps(record, indent=2, allow_nan=False) + "\n"
    if sweep:
        cli = printed("characterize", "--preset", "nokia-n9", "--manifest", manifest,
                      "--out", rep)
        record = characterize_sweep(manifest, sensor, DEFAULT_FANO_TOLERANCE, rep)
    else:
        files = [os.path.join(out, name) for name in record["stacks"][0]["files"]]
        cli = printed("characterize", "--preset", "nokia-n9", *files, "--out", rep)
        record = characterize_stack(files, sensor, rep)
        assert record["mask"] is not None
    assert cli == json.dumps(record, indent=2, allow_nan=False) + "\n"


def test_characterize_builds_each_stacks_per_pixel_moments_once(tmp_path, monkeypatch):
    # The variance is the one reader of s2: one read per stack means the
    # Fano point, the gain fit and the mask share one set of arrays.
    sensor, out = PRESETS["nokia-n9"], str(tmp_path)
    record, manifest = simulate_stacks(sensor, [100.0, 410.0], True, 10, 9, 7, 5, "pgm", out)
    reads, s2 = [], PixelStats.s2
    counted = property(lambda self: reads.append(self) or s2.fget(self))
    monkeypatch.setattr(PixelStats, "s2", counted)
    files = [os.path.join(out, name) for name in record["stacks"][0]["files"]]
    assert characterize_stack(files, sensor, out)["mask"] is not None
    assert len(reads) == 1
    reads.clear()
    assert len(characterize_sweep(manifest, sensor, 0.5, out)["fano_points"]) == 2
    assert len(reads) == len(set(map(id, reads))) == 2


def test_characterize_report_with_a_saturated_point_is_strict_json(tmp_path, capsys):
    # every code of the 600 e- stack sits at the rail: its variance is 0
    out = tmp_path / "sweep"
    assert run("simulate", "--preset", "nokia-n9", "--sweep", "10,100,200,400,450,600",
               "--frames", "3", "--width", "16", "--height", "16", "--out", out) == 0
    _strict_json((out / "manifest.json").read_text())
    capsys.readouterr()
    rc = run("characterize", "--preset", "nokia-n9", "--manifest", out / "manifest.json",
             "--out", tmp_path / "rep", "--json")
    assert rc == 0
    printed = _strict_json(capsys.readouterr().out)
    assert printed == _strict_json((tmp_path / "rep" / "report.json").read_text())
    assert printed["fit_residual"] is None


def test_every_json_file_simulate_and_characterize_write_reads_back_unchanged(tmp_path):
    sweep = tmp_path / "sweep"
    assert run("simulate", "--preset", "nokia-n9", "--sweep", "100,410", "--frames", "10",
               "--width", "9", "--height", "7", "--format", "raw16le", "--out", sweep) == 0
    assert run("characterize", "--preset", "nokia-n9", "--manifest", sweep / "manifest.json",
               "--out", tmp_path / "fano") == 0
    assert run("characterize", "--preset", "nokia-n9", sweep / "nbar_01.raw",
               "--out", tmp_path / "stack") == 0
    docs = {
        path.relative_to(tmp_path).as_posix(): read_json(path, lambda doc: doc)
        for path in tmp_path.rglob("*.json")
    }
    assert sorted(docs) == [
        "fano/report.json", "stack/mask.json", "stack/report.json",
        "sweep/manifest.json", "sweep/nbar_00.raw.json", "sweep/nbar_01.raw.json",
    ]
    for name, doc in docs.items():
        assert dumps(doc) == (tmp_path / name).read_text(), name
    mask = read_json(tmp_path / "stack" / "mask.json", PixelMask.from_dict)
    assert mask.to_dict() == docs["stack/mask.json"]
    header, _ = read_sidecar(sweep / "nbar_01.raw")
    assert header.to_dict() == docs["sweep/nbar_01.raw.json"]["header"]
    assert read_manifest(sweep / "manifest.json") == [
        ((str(sweep / stack["files"][0]),), stack["n_bar"])
        for stack in docs["sweep/manifest.json"]["stacks"]
    ]


def test_plan_evaluates_worked_example(capsys):
    assert run(
        "plan", "--s", "0.64", "--l", "2000", "--k", "500", "--json"
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["log2_epsilon"] == "-390"
    assert doc["log2_epsilon_float"] == -390.0
    assert doc["compression_factor"] == 4.0


def test_plan_from_intensity(capsys):
    assert run(
        "plan", "--nbar", "410", "--bits", "10", "--l", "2000",
        "--target", "-100", "--json",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 1077
    assert float(doc["log2_epsilon_float"]) <= -100.0


@pytest.mark.parametrize(
    "extra", [("--nbar", "410", "--bits", "10"), ("--nbar", "410"), ("--bits", "10")],
    ids=["nbar-and-bits", "nbar", "bits"],
)
def test_plan_s_with_nbar_or_bits_is_a_usage_error(capsys, extra):
    assert run("plan", "--s", "0.5", *extra, "--k", "500", "--json") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: pass --s, or --nbar with --bits, not both\n"


def test_plan_records_of_both_modes_have_the_same_keys_and_types(capsys):
    docs = []
    for mode in (("--k", "500"), ("--target", "-390")):
        assert run("plan", "--s", "0.64", "--l", "2000", *mode, "--json") == 0
        docs.append(json.loads(capsys.readouterr().out))
    evaluated, planned = docs
    assert evaluated == planned
    assert evaluated["s"] == "16/25"
    assert {k: type(v) for k, v in evaluated.items()} == {
        "command": str, "l": int, "k": int, "s": str, "log2_epsilon": str,
        "log2_epsilon_float": float, "compression_factor": float,
    }


def test_plan_flag_validation(capsys):
    assert run("plan", "--s", "0.5", "--l", "100") == 2
    assert run("plan", "--s", "0.5", "--l", "100", "--k", "10", "--target", "-5") == 2
    assert run("plan", "--l", "100", "--k", "10") == 2  # no way to get s
    # a valid target that no k can meet is a runtime failure
    assert run("plan", "--s", "0.01", "--l", "100", "--target", "-100") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--nbar", ("entropy", "--nbar", "nan", "--bits", "10")),
        ("--nbar", ("entropy", "--nbar", "-1", "--bits", "10")),
        ("--bits", ("entropy", "--nbar", "410", "--bits", "17")),
        ("--bits", ("plan", "--nbar", "410", "--bits", "0", "--k", "10")),
        ("--nbar", ("plan", "--nbar", "-3", "--bits", "10", "--k", "10")),
        ("--nbar", ("plan", "--nbar", "inf", "--bits", "10", "--k", "10")),
        ("--s", ("plan", "--s", "2", "--k", "10")),
        ("--s", ("plan", "--s", "0", "--k", "10")),
        ("--target", ("plan", "--s", "0.5", "--target", "5")),
        ("--target", ("plan", "--s", "0.5", "--target=-inf")),
        ("--l", ("plan", "--s", "0.5", "--l", "1e3", "--k", "10")),
        ("--tolerance", ("characterize", "--preset", "nokia-n9", "--manifest", "m.json",
                         "--out", "x", "--tolerance", "nan")),
        ("--tolerance", ("characterize", "--preset", "nokia-n9", "--manifest", "m.json",
                         "--out", "x", "--tolerance", "0")),
        ("--seed", ("simulate", "--preset", "nokia-n9", "--nbar", "1", "--out", "x",
                    "--seed", str(2**64))),
        ("--sweep", ("simulate", "--preset", "nokia-n9", "--sweep", "2,nan", "--out", "x")),
        ("--sweep", ("simulate", "--preset", "nokia-n9", "--sweep", "2,abc", "--out", "x")),
        ("--nbar", ("entropy", "--nbar", "2e6", "--bits", "16")),
        ("--nbar", ("plan", "--nbar", "2e6", "--bits", "16", "--k", "10")),
    ],
)
def test_numeric_flags_outside_their_range_are_usage_errors(capsys, flag, argv):
    assert run(*argv) == 2
    assert f"argument {flag}" in capsys.readouterr().err


def _simulate_small(tmp_path, n_frames=10, capsys=None):
    out = tmp_path / "frames"
    assert run(
        "simulate", "--preset", "nokia-n9", "--nbar", "410",
        "--frames", str(n_frames), "--width", "64", "--height", "64",
        "--seed", "3", "--out", out,
    ) == 0
    if capsys is not None:
        capsys.readouterr()  # drop the simulate text before JSON commands
    return sorted(out.glob("*.pgm"))


def test_extract_then_battery_passes(tmp_path, capsys):
    frames = _simulate_small(tmp_path, capsys=capsys)
    out_bin = tmp_path / "out.bin"
    rc = run(
        "extract", "--preset", "nokia-n9", *frames,
        "--l", "2000", "--k", "500", "--out", out_bin, "--json",
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw_bits"] == 10 * 64 * 64 * 10
    assert doc["blocks_processed"] == doc["raw_bits"] // 2000
    assert doc["output_bits"] == doc["blocks_processed"] * 500
    assert doc["log2_epsilon"] < -380
    assert out_bin.stat().st_size == doc["output_bytes"]

    rc = run("test", out_bin, "--bits", str(doc["output_bits"]), "--json")
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["all_passed"] is True


def test_extract_deterministic(tmp_path):
    frames = _simulate_small(tmp_path, n_frames=3)
    outs = []
    for name in ("x.bin", "y.bin"):
        out = tmp_path / name
        assert run(
            "extract", "--preset", "nokia-n9", *frames,
            "--l", "400", "--k", "100", "--out", out,
        ) == 0
        outs.append(sha(out))
    assert outs[0] == outs[1]


def test_extract_refuses_violated_margin(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=2)
    rc = run(
        "extract", "--preset", "nokia-n9", *frames,
        "--l", "2000", "--k", "1900", "--out", tmp_path / "no.bin",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "margin" in err and "Lower k, raise l, or pass --force to extract anyway" in err
    # the bound's own message says why, and nothing repeats it
    assert "no extractable security margin: s*l = 1277.36 <= k = 1900\n" in err
    assert err.count("s*l") == 1 and "-bit depth.\n  Lower k" in err
    assert "exceeds 1" not in err
    assert not (tmp_path / "no.bin").exists()


def test_extract_refusal_of_an_entropy_rate_above_1_says_why(tmp_path, capsys):
    # At n_bar 0.6 the Poisson count carries 1.32 bits, more than the
    # 1-bit code can hold; the margin s*l - k itself would be positive.
    config = tmp_path / "onebit.json"
    config.write_text(json.dumps({
        "name": "onebit", "zeta": 1, "sigma_t_electrons": 0.5,
        "offset_electrons": 0, "full_well_electrons": 1, "bit_depth": 1,
    }))
    assert run("simulate", "--config", config, "--nbar", "0.6", "--frames", "2",
               "--width", "64", "--height", "64", "--out", tmp_path / "f") == 0
    frames = sorted((tmp_path / "f").glob("*.pgm"))
    argv = ("extract", "--config", config, *frames, "--l", "200", "--k", "10")
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "no.bin") == 2
    err = capsys.readouterr().err
    assert "entropy rate s must be in (0, 1], got 1.316" in err
    assert "s = 1.3164" in err and "<= k" not in err
    assert "entropy per raw bit exceeds 1, so the code cannot carry it." in err
    # no k < l can pass, so --force is the only way on
    assert err.endswith("\n  Pass --force to extract anyway (output is NOT certified random).\n")
    assert "Lower k" not in err
    assert not (tmp_path / "no.bin").exists()
    assert run(*argv, "--out", tmp_path / "forced.bin", "--force", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forced"] is True and doc["log2_epsilon"] is None


def test_extract_force_overrides_margin(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=2, capsys=capsys)
    out = tmp_path / "forced.bin"
    rc = run(
        "extract", "--preset", "nokia-n9", *frames,
        "--l", "2000", "--k", "1900", "--out", out, "--force", "--json",
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forced"] is True
    assert doc["log2_epsilon"] is None and doc["log2_epsilon_total"] is None
    assert out.exists()


def test_extract_matrix_save_and_reuse(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=2)
    mat_path = tmp_path / "m.qm"
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--l", "300", "--k", "60",
        "--out", a, "--save-matrix", mat_path,
    ) == 0
    assert load_matrix(mat_path).l == 300
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--matrix", mat_path,
        "--out", b,
    ) == 0
    assert sha(a) == sha(b)
    # declared geometry must match a loaded matrix
    rc = run(
        "extract", "--preset", "nokia-n9", *frames, "--matrix", mat_path,
        "--l", "301", "--out", tmp_path / "c.bin",
    )
    assert rc == 2
    capsys.readouterr()


def test_extract_matrix_seed_seeds_the_matrix_it_saves(tmp_path):
    frames = _simulate_small(tmp_path, n_frames=2)
    seed_hex = "a5" * 16 + "3c" * 16
    seed = bytes.fromhex(seed_hex)
    mat_path, out, default = tmp_path / "m.qm", tmp_path / "a.bin", tmp_path / "d.bin"
    geometry = ("--l", "300", "--k", "60")
    assert run("extract", "--preset", "nokia-n9", *frames, *geometry,
               "--matrix-seed", seed_hex, "--save-matrix", mat_path, "--out", out) == 0
    assert load_matrix(mat_path).seed == seed
    raw = concat_streams(frame_to_bits(read_pgm(f)) for f in frames)
    want = extract(raw, generate_matrix(seed, 60, 300)).bits
    assert out.read_bytes() == b"".join(want.msb_chunks())
    assert run("extract", "--preset", "nokia-n9", *frames, *geometry, "--out", default) == 0
    assert default.read_bytes() != out.read_bytes()


@pytest.mark.parametrize("flag,value", [("--l", 300), ("--k", 60)])
def test_extract_matrix_reuse_with_one_matching_dimension(tmp_path, flag, value):
    frames = _simulate_small(tmp_path, n_frames=2)
    mat_path = tmp_path / "m.qm"
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--l", "300", "--k", "60",
        "--out", a, "--save-matrix", mat_path,
    ) == 0
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--matrix", mat_path,
        flag, value, "--out", b,
    ) == 0
    assert sha(a) == sha(b)


def test_extract_masked_matches_matmul_oracle(tmp_path, capsys):
    # 4093 usable pixels of 10 bits: each frame ends off the byte grid
    frames = _simulate_small(tmp_path, n_frames=3, capsys=capsys)
    mask_path = tmp_path / "mask.json"
    flagged = {"0,0": "hot", "5,7": "hot", "63,63": "dead"}
    mask_path.write_text(json.dumps({"width": 64, "height": 64, "flagged": flagged}))
    out = tmp_path / "masked.bin"
    l, k = 200, 50
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--mask", mask_path,
        "--l", l, "--k", k, "--out", out, "--json",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["raw_bits"] == 3 * 4093 * 10

    usable = np.ones((64, 64), dtype=bool)
    usable[0, 0] = usable[5, 7] = usable[63, 63] = False
    codes = np.concatenate([read_pgm(f).codes[usable] for f in frames]).astype(np.int64)
    raw01 = ((codes[:, None] >> np.arange(10)) & 1).ravel()
    n_blocks = raw01.size // l
    mat = generate_matrix(DEFAULT_MATRIX_SEED, k, l)
    row_bytes = mat.rows.astype("<u8").view(np.uint8).reshape(k, -1)
    mat01 = np.unpackbits(row_bytes, axis=1, count=l, bitorder="little").astype(np.int64)
    want = (raw01[: n_blocks * l].reshape(n_blocks, l) @ mat01.T) % 2
    got = np.unpackbits(np.frombuffer(out.read_bytes(), dtype=np.uint8))
    assert np.array_equal(got[: n_blocks * k], want.ravel())


@pytest.mark.parametrize(
    "argv",
    [
        ("entropy", "--nbar", "410", "--bits", "10", "--seed", "1"),
        ("plan", "--s", "0.64", "--k", "500", "--config", "x.json"),
        ("test", "in.bin", "--out", "x"),
        ("characterize", "--preset", "nokia-n9", "--out", "x", "--seed", "1"),
        ("extract", "--preset", "nokia-n9", "--out", "x", "--seed", "1"),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    assert run(*argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_simulate_rejects_negative_nbar(tmp_path, capsys):
    rc = run("simulate", "--preset", "nokia-n9", "--nbar", "-1", "--out", tmp_path / "x")
    assert rc == 2
    assert "--nbar" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--nbar", "1e20"), ("--nbar", "2e6"), ("--sweep", "410,1e20")]
)
def test_simulate_refuses_nbar_above_1e6_before_making_out(tmp_path, capsys, flag, value):
    # Above 1e6 every frame saturates; above ~9.2e18 numpy cannot draw at all.
    out = tmp_path / "D"
    assert run("simulate", "--preset", "nokia-n9", flag, value, "--out", out) == 2
    assert f"argument {flag}: must be finite and in [0, 1e6]" in capsys.readouterr().err
    assert not out.exists()
    assert run("simulate", "--preset", "nokia-n9", flag, "1e6", "--width", "4",
               "--height", "4", "--out", out, "--json") == 0


def test_simulate_refused_frame_leaves_no_out(tmp_path, capsys):
    # The pixel limit is checked before the frame is allocated.
    out = tmp_path / "D"
    assert run("simulate", "--preset", "nokia-n9", "--nbar", "10", "--width", "50000",
               "--height", "50000", "--out", out) == 1
    assert "frame of 2500000000 pixels exceeds limit" in capsys.readouterr().err
    assert not out.exists()


def test_battery_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "zeros.bin"
    bad.write_bytes(b"\x00" * 20_000)
    assert run("test", bad) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_test_export_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "in.bin"
    src.write_bytes(rng.integers(0, 256, 15_000, dtype=np.uint8).tobytes())
    exported = tmp_path / "again.bin"
    run("test", src, "--export", exported)
    assert src.read_bytes() == exported.read_bytes()


def test_test_bits_export_keeps_first_bits_zero_padded(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.integers(0, 256, 15_001, dtype=np.uint8).tobytes()
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    exported = tmp_path / "head.bin"
    n_bits = 100_003  # 12_500 whole bytes and 3 bits of the next one
    assert run("test", src, "--bits", n_bits, "--export", exported) == 0
    out = exported.read_bytes()
    assert len(out) == (n_bits + 7) // 8
    assert out[:-1] == data[: n_bits // 8]
    assert out[-1] == data[n_bits // 8] & 0b1110_0000


def test_test_export_round_trip_odd_length(tmp_path):
    # a byte count off the 64-bit word grid
    rng = np.random.default_rng(2)
    src = tmp_path / "in.bin"
    src.write_bytes(rng.integers(0, 256, 15_003, dtype=np.uint8).tobytes())
    exported = tmp_path / "again.bin"
    run("test", src, "--export", exported)
    assert src.read_bytes() == exported.read_bytes()


def test_test_bits_reads_only_the_bytes_it_tests(tmp_path, capsys):
    # The writer offers 4 MiB past the bytes --bits covers, more than a
    # pipe holds: it must see the reader hang up before taking them.
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)
    n_bits = 8 * 12_500 - 3
    payload = np.random.default_rng(10).bytes(12_500) + bytes(4 << 20)
    outcome = []

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(payload)
            outcome.append("all taken")
        except BrokenPipeError:
            outcome.append("hung up")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    rc = run("test", fifo, "--bits", n_bits, "--json")
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["n_bits"] == n_bits
    assert outcome == ["hung up"]


@pytest.mark.parametrize("existing", [False, True])
def test_test_export_that_fails_midway_writes_nothing(
    tmp_path, monkeypatch, capsys, existing
):
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(11).bytes(15_000))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    exported = out_dir / "again.bin"
    if existing:
        exported.write_bytes(b"an earlier run")

    class FullAfterOneChunk:
        """A file whose disk fills once the first chunk is written."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes > 1:
                raise OSError("No space left on device")
            return self.fh.write(data)

        def close(self):
            self.fh.close()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def open_export(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FullAfterOneChunk(fh) if "w" in mode else fh

    monkeypatch.setattr(camrng.cli, "_READ_BYTES", 4096)
    monkeypatch.setattr(camrng.cli, "open", open_export, raising=False)
    assert run("test", src, "--export", exported) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == (["again.bin"] if existing else [])
    if existing:
        assert exported.read_bytes() == b"an earlier run"


def test_test_export_that_fails_on_close_names_the_export(tmp_path, monkeypatch, capsys):
    # The last buffered bytes reach the disk only when the file closes.
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(12).bytes(15_000))
    exported = tmp_path / "out" / "again.bin"
    exported.parent.mkdir()

    class FullOnClose:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            return self.fh.write(data)

        def close(self):
            self.fh.close()
            raise OSError("Disk quota exceeded")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def open_export(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return FullOnClose(fh) if "w" in mode else fh

    monkeypatch.setattr(camrng.cli, "open", open_export, raising=False)
    assert run("test", src, "--export", exported) == 1
    assert f"writing {exported}: Disk quota exceeded" in capsys.readouterr().err
    assert list(exported.parent.iterdir()) == []


def _fed_fifo(tmp_path, payload: bytes):
    """A FIFO in tmp_path, and the thread that writes payload into it."""
    fifo = tmp_path / "in.fifo"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
            fh.write(payload)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    return fifo, writer


@pytest.mark.parametrize("bits", [None, 8 * 40_000 - 5])
def test_test_streams_a_fifo_as_it_does_a_file(tmp_path, monkeypatch, capsys, bits):
    monkeypatch.setattr(camrng.cli, "_READ_BYTES", 3001)  # reads off every grid
    payload = np.random.default_rng(12).bytes(50_003)
    src = tmp_path / "in.bin"
    src.write_bytes(payload)
    flags = ["--json"] + ([] if bits is None else ["--bits", bits])
    assert run("test", src, "--export", tmp_path / "file.bin", *flags) == 0
    from_file = capsys.readouterr().out
    fifo, writer = _fed_fifo(tmp_path, payload)
    assert run("test", fifo, "--export", tmp_path / "fifo.bin", *flags) == 0
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert capsys.readouterr().out == from_file
    assert (tmp_path / "fifo.bin").read_bytes() == (tmp_path / "file.bin").read_bytes()


@pytest.mark.parametrize("n_bits", [8 * 12_000, 8 * 12_000 + 5, 8 * 12_345 + 1])
def test_test_export_is_the_first_bytes_tested(tmp_path, monkeypatch, n_bits):
    # the export equals the first ceil(N/8) input bytes, the last masked
    monkeypatch.setattr(camrng.cli, "_READ_BYTES", 4096)
    data = np.random.default_rng(13).bytes(15_000)
    src = tmp_path / "in.bin"
    src.write_bytes(data)
    exported = tmp_path / "head.bin"
    run("test", src, "--bits", n_bits, "--export", exported)
    want = bytearray(data[: (n_bits + 7) // 8])
    if n_bits % 8:
        want[-1] &= 0xFF00 >> n_bits % 8 & 0xFF
    assert exported.read_bytes() == bytes(want)


def test_test_bits_past_the_end_leaves_no_export(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(14).bytes(15_000))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run("test", src, "--bits", 120_001, "--export", out_dir / "x.bin") == 2
    assert "--bits 120001 exceeds the 120000 bits in the file" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_test_too_short_input_leaves_no_export(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(15).bytes(9_999))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run("test", src, "--export", out_dir / "x.bin") == 1
    assert "battery needs >= 80000 bits, got 79992" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("alpha", ["-1", "0", "1", "1.5", "nan"])
def test_test_rejects_alpha_outside_unit_interval(tmp_path, capsys, alpha):
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(3).bytes(15_000))
    assert run("test", src, "--alpha", alpha) == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", [("--block-size", "128"), ("--max-lag", "16")], ids=["block-size", "max-lag"]
)
def test_test_has_a_fixed_block_size_and_lag_range(tmp_path, capsys, flag):
    src = tmp_path / "in.bin"
    src.write_bytes(np.random.default_rng(4).bytes(15_000))
    assert run("test", src, *flag) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# `camrng test --json` on a seeded vector.  Monobit, runs and byte entropy
# are as printed before the battery moved to packed words, block frequency
# and serial correlation as printed when their block size and lag range
# were options; every float must match to the last bit.
PINNED_TEST_JSON = {
    "command": "test",
    "alpha": 0.01,
    "n_bits": 319997,
    "n_passed": 5,
    "n_tests": 5,
    "all_passed": True,
    "results": [
        {
            "name": "monobit",
            "statistic": 0.4932092918015908,
            "p_value": 0.6218647131267033,
            "passed": True,
            "note": None,
        },
        {
            "name": "block-frequency[128]",
            "statistic": 2509.5,
            "p_value": 0.4373302540642298,
            "passed": True,
            "note": None,
        },
        {
            "name": "runs",
            "statistic": -0.5740973683502425,
            "p_value": 0.5659019140920182,
            "passed": True,
            "note": None,
        },
        {
            "name": "serial-correlation[1..16]",
            "statistic": -0.003563301758472427,
            "p_value": 0.7013517895853254,
            "passed": True,
            "note": "worst lag 9; Bonferroni-corrected",
        },
        {
            "name": "byte-entropy",
            "statistic": 7.995517966578858,
            "p_value": 0.6023154159683185,
            "passed": True,
            "note": "G-statistic chi-square(255)",
        },
    ],
}


def test_test_json_pinned(tmp_path, capsys):
    src = tmp_path / "pin.bin"
    src.write_bytes(np.random.default_rng(1405).bytes(40_000))
    assert run("test", src, "--bits", 319_997, "--json") == 0
    assert capsys.readouterr().out == json.dumps(PINNED_TEST_JSON, indent=2) + "\n"


def test_characterize_stack_report(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=12, capsys=capsys)
    out = tmp_path / "char"
    assert run(
        "characterize", "--preset", "nokia-n9", *frames, "--out", out, "--json"
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fano"]["fano"] == pytest.approx(1.03, abs=0.15)
    assert (out / "report.json").exists()
    assert (out / "mask.json").exists()


def test_characterize_identical_frames_reports_cleanly(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=2, capsys=capsys)
    dup = tmp_path / "dup.pgm"
    dup.write_bytes(frames[0].read_bytes())
    out = tmp_path / "char2"
    rc = run(
        "characterize", "--preset", "nokia-n9", frames[0], dup, "--out", out,
        "--json",
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fano"] is None
    assert "variance" in doc["fano_error"]


def test_characterize_sweep_manifest(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    assert run(
        "simulate", "--preset", "atik383l", "--sweep", "200,600,1800",
        "--frames", "6", "--width", "48", "--height", "48", "--seed", "2",
        "--out", sweep_dir,
    ) == 0
    capsys.readouterr()
    out = tmp_path / "charsweep"
    assert run(
        "characterize", "--preset", "atik383l",
        "--manifest", sweep_dir / "manifest.json", "--out", out, "--json",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fitted_zeta"] == pytest.approx(2.3, rel=0.1)
    assert (out / "fano.csv").exists()
    assert len(doc["fano_points"]) == 3
    assert doc["fano_tolerance"] == DEFAULT_FANO_TOLERANCE == 0.15
    assert run(
        "characterize", "--preset", "atik383l", "--manifest", sweep_dir / "manifest.json",
        "--tolerance", "0.05", "--out", out, "--json",
    ) == 0
    assert json.loads(capsys.readouterr().out)["fano_tolerance"] == 0.05


def test_characterize_sweep_skips_a_point_without_a_fano_factor(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    assert run(
        "simulate", "--preset", "atik383l", "--sweep", "0,200,600,1800",
        "--frames", "4", "--width", "16", "--height", "16", "--seed", "2",
        "--out", sweep_dir,
    ) == 0
    capsys.readouterr()
    assert run(
        "characterize", "--preset", "atik383l", "--manifest", sweep_dir / "manifest.json",
        "--out", tmp_path / "c", "--json",
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    (skipped,) = doc["skipped_points"]
    assert skipped["n_bar"] == 0.0
    assert "Fano undefined" in skipped["reason"]
    assert [p["n_bar"] for p in doc["fano_points"]] == [200.0, 600.0, 1800.0]


def _count_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.setdefault(name, []).append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_characterize_reads_each_stack_once(tmp_path, capsys, monkeypatch):
    calls: dict = {}
    for name in ("pixel_stats", "fano_factor", "estimate_zeta"):
        _count_calls(monkeypatch, camrng.characterize, name, calls)

    frames = _simulate_small(tmp_path, n_frames=10, capsys=capsys)
    assert run("characterize", "--preset", "nokia-n9", *frames, "--out", tmp_path / "c") == 0
    assert len(calls["pixel_stats"]) == 1
    assert not isinstance(calls["pixel_stats"][0][0], list)
    assert len(calls["fano_factor"]) == 1
    assert "estimate_zeta" not in calls

    calls.clear()
    sweep_dir = tmp_path / "sweep"
    assert run(
        "simulate", "--preset", "atik383l", "--sweep", "200,600,1800",
        "--frames", "4", "--width", "16", "--height", "16", "--seed", "2",
        "--out", sweep_dir,
    ) == 0
    assert run(
        "characterize", "--preset", "atik383l",
        "--manifest", sweep_dir / "manifest.json", "--out", tmp_path / "s",
    ) == 0
    assert len(calls["pixel_stats"]) == 3
    assert len(calls["fano_factor"]) == 3
    assert len(calls["estimate_zeta"]) == 1
    assert len(calls["estimate_zeta"][0][0]) == 3  # every stack of the manifest


def test_characterize_refuses_frames_with_a_manifest_before_making_out(tmp_path, capsys):
    sweep_dir = tmp_path / "sweep"
    assert run("simulate", "--preset", "nokia-n9", "--sweep", "100,200", "--frames", "2",
               "--width", "8", "--height", "8", "--out", sweep_dir) == 0
    capsys.readouterr()
    out = tmp_path / "c"
    assert run("characterize", "--preset", "nokia-n9", "--manifest",
               sweep_dir / "manifest.json", sweep_dir / "nbar_00_frame_0000.pgm",
               "--out", out) == 2
    assert capsys.readouterr().err == "error: pass frame files or --manifest, not both\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,exit_code,message",
    [
        ((), 2, "no input frames given"),
        (("f0.pgm",), 1, "need at least 2 frames, got 1"),
        (("f.raw",), 2, "no sidecar JSON describes it"),
        (("f0.pgm", "f1.pgm", "--tolerance", "0.1"), 2,
         "--tolerance applies only to a --manifest sweep"),
        (("f0.pgm", "bad.pgm"), 1, "bad.pgm: malformed PGM header"),
        (("f0.pgm", "cut.pgm"), 1, "cut.pgm: malformed PGM header (no payload separator)"),
        (("--manifest", "flat.json"), 1, "mean codes identical across sweep; slope is undefined"),
        (("--manifest", "falling.json"), 1,
         "is not positive; sweep is outside the shot-noise-limited region"),
    ],
    ids=["no-frames", "one-frame", "raw-without-sidecar", "tolerance-without-manifest",
         "pgm-bad-width", "pgm-no-payload", "sweep-of-equal-means", "sweep-of-falling-variance"],
)
def test_characterize_refusals_leave_no_out(tmp_path, monkeypatch, capsys, argv, exit_code,
                                            message):
    monkeypatch.chdir(tmp_path)
    _write_frames(tmp_path, [np.full((4, 4), 800), np.full((4, 4), 801)], 10)
    (tmp_path / "f.raw").write_bytes(b"\x00" * 8)
    (tmp_path / "bad.pgm").write_bytes(b"P5\n2 x\n255\n..")
    (tmp_path / "cut.pgm").write_bytes(b"P5\n2 1\n255")
    # Two stacks of one mean code, as a saturated sweep gives; then a
    # brighter stack with less variance, as a clamped one gives.
    for name, second in (("flat", ["f0.pgm", "f1.pgm"]), ("falling", ["f1.pgm", "f1.pgm"])):
        stacks = [{"files": ["f0.pgm", "f1.pgm"], "n_bar": 100.0},
                  {"files": second, "n_bar": 200.0}]
        (tmp_path / f"{name}.json").write_text(json.dumps({"stacks": stacks}))
    assert run("characterize", "--preset", "nokia-n9", *argv, "--out", "D") == exit_code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "D").exists()


def test_characterize_refuses_a_stack_of_mixed_geometry(tmp_path, capsys):
    rng = np.random.default_rng(6)
    frames = _write_frames(
        tmp_path / "f",
        [rng.integers(700, 900, (32, 32)), rng.integers(700, 900, (32, 16))],
        10,
    )
    rc = run("characterize", "--preset", "nokia-n9", *frames, "--out", tmp_path / "c")
    assert rc == 1
    assert "frame stack mismatch" in capsys.readouterr().err


def test_unknown_subcommand_and_preset(capsys):
    assert run("frobnicate") == 2
    assert run("simulate", "--preset", "bogus", "--nbar", "1", "--out", "x") == 2
    capsys.readouterr()


def _write_frames(directory, codes_list, bit_depth):
    """One PGM per code array; returns the paths."""
    directory.mkdir(exist_ok=True)
    paths = []
    for i, codes in enumerate(codes_list):
        codes = np.asarray(codes, dtype=np.uint16)
        frame = Frame(codes, bit_depth)
        paths.append(directory / f"f{i}.pgm")
        write_pgm(frame, paths[-1])
    return paths


def test_extract_refuses_frames_of_mixed_bit_depth(tmp_path, capsys):
    rng = np.random.default_rng(5)
    ten = _write_frames(tmp_path / "a", [rng.integers(700, 900, (32, 32))], 10)
    eight = _write_frames(tmp_path / "b", [rng.integers(100, 200, (32, 32))], 8)
    out = tmp_path / "mixed.bin"
    rc = run("extract", "--preset", "nokia-n9", *ten, *eight, "--l", "200", "--k", "10",
             "--out", out)
    assert rc == 1
    assert "frame stack mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_extract_refuses_a_stack_of_another_bit_depth_than_the_sensor(tmp_path, capsys):
    # Uniform 16-bit codes read through the 10-bit nokia-n9 would estimate
    # n_bar near 17,000 e-, far past its 500 e- full well.
    rng = np.random.default_rng(25)
    frames = _write_frames(
        tmp_path / "f", [rng.integers(0, 1 << 16, (200, 200)) for _ in range(3)], 16
    )
    out = tmp_path / "o.bin"
    assert run("extract", "--preset", "nokia-n9", *frames, "--out", out, "--json") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the stack's codes are 16-bit, the sensor's 10-bit\n"
    assert not out.exists() and list(tmp_path.iterdir()) == [tmp_path / "f"]


def test_extract_refuses_frames_below_the_pedestal(tmp_path, capsys):
    # atik383l's dark level is 2.3 * 144 = 331.2 codes
    frames = _write_frames(tmp_path / "f", [np.full((8, 8), 300)] * 2, 16)
    rc = run("extract", "--preset", "atik383l", *frames, "--out", tmp_path / "o.bin")
    assert rc == 1
    assert "not positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flagged,message",
    [
        ({f"{y},{x}": "hot" for y in range(4) for x in range(4)}, "excludes every pixel"),
        (None, "geometry"),
    ],
)
def test_extract_refuses_unusable_mask(tmp_path, capsys, flagged, message):
    frames = _write_frames(tmp_path / "f", [np.full((4, 4), 800)] * 2, 10)
    mask = tmp_path / "mask.json"
    size = 4 if flagged is not None else 5
    doc = {"width": size, "height": size, "flagged": flagged or {}}
    mask.write_text(json.dumps(doc))
    rc = run("extract", "--preset", "nokia-n9", *frames, "--mask", mask,
             "--l", "20", "--k", "2", "--out", tmp_path / "o.bin")
    assert rc == 1
    assert message in capsys.readouterr().err


def test_missing_input_file_is_a_runtime_failure(tmp_path, capsys):
    rc = run("extract", "--preset", "nokia-n9", tmp_path / "gone.pgm",
             "--out", tmp_path / "o.bin")
    assert rc == 1
    assert "gone.pgm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("extract", "--preset", "nokia-n9", "--out", "o.bin"), "no input frames"),
        (("extract", "--preset", "nokia-n9", "f.raw", "--out", "o.bin"), "sidecar"),
        (("extract", "--preset", "nokia-n9", "f.pgm", "--matrix-seed", "zz",
          "--out", "o.bin"), "--matrix-seed"),
        (("extract", "--preset", "nokia-n9", "f.pgm", "--matrix-seed", "00" * 31,
          "--out", "o.bin"), "32 bytes"),
        (("test", "in.bin", "--bits", "8001"), "exceeds"),
        (("plan", "--s", "0.5", "--l", "100", "--k", "100"), "need k < l"),
        (("extract", "--preset", "nokia-n9", "f.pgm", "--l", "100", "--k", "100",
          "--out", "o.bin"), "need k < l"),
        (("extract", "--preset", "nokia-n9", "f.pgm", "--matrix", "m.qm",
          "--matrix-seed", "00" * 32, "--out", "o.bin"), "not allowed with argument"),
    ],
)
def test_refusals_with_usage_exit(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.raw").write_bytes(b"\x00" * 8)
    (tmp_path / "in.bin").write_bytes(b"\x00" * 1000)
    _write_frames(tmp_path, [np.full((4, 4), 800)], 10)[0].rename(tmp_path / "f.pgm")
    assert run(*argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,doc,argv",
    [
        ("mask.json", {"width": 4, "height": 4, "flagged": {"99,99": "hot"}},
         ("extract", "f.pgm", "--mask", "mask.json")),
        ("mask.json", {"width": 4, "height": 4, "flagged": {"-1,0": "hot"}},
         ("extract", "f.pgm", "--mask", "mask.json")),
        ("mask.json", {"width": 4, "flagged": {}},
         ("extract", "f.pgm", "--mask", "mask.json")),
        ("m.json", {"command": "simulate"}, ("characterize", "--manifest", "m.json")),
        ("m.json", {"stacks": [{"n_bar": 10.0}]}, ("characterize", "--manifest", "m.json")),
        ("f.raw.json", {"n_bar": 10.0}, ("extract", "f.raw")),
        ("f.raw.json", {"header": {"format": "raw16le", "height": 4, "bit_depth": 10}},
         ("extract", "f.raw")),
        # int() would read both as a 4x4 frame, exactly the file's 32 bytes.
        ("f.raw.json", {"header": {"format": "raw16le", "width": 4.5, "height": 4,
                                   "bit_depth": 10}}, ("extract", "f.raw")),
        ("f.raw.json", {"header": {"format": "raw16le", "width": 4, "height": 4,
                                   "bit_depth": 10, "frame_count": True}},
         ("characterize", "f.raw")),
        ("f.raw.json", {"header": {"format": "raw16le", "width": 4, "height": 4,
                                   "bit_depth": 10, "frame_count": float("nan")}},
         ("extract", "f.raw")),
        # A mask of 1e16 pixels would not fit in memory.
        ("mask.json", {"width": 10**8, "height": 10**8, "flagged": {}},
         ("extract", "f.pgm", "--mask", "mask.json")),
        ("mask.json", "{not json", ("extract", "f.pgm", "--mask", "mask.json")),
        ("mask.json", [], ("extract", "f.pgm", "--mask", "mask.json")),
        ("mask.json", {"width": 8, "height": 8}, ("extract", "f.pgm", "--mask", "mask.json")),
        *(
            ("m.json", {"stacks": [{"files": ["f.pgm"], "n_bar": n_bar}]},
             ("characterize", "--manifest", "m.json"))
            for n_bar in (True, float("nan"), -5)
        ),
        *(
            ("m.json", {"stacks": [{"files": files, "n_bar": 10.0}]},
             ("characterize", "--manifest", "m.json"))
            for files in ("f.pgm", [])
        ),
    ],
    ids=["mask-key-past-edge", "mask-key-negative", "mask-no-height", "manifest-no-stacks",
         "manifest-entry-no-files", "sidecar-no-header", "sidecar-header-no-width",
         "sidecar-width-not-integral", "sidecar-frame-count-bool", "sidecar-frame-count-nan",
         "mask-too-large", "mask-not-json", "mask-an-array", "mask-no-flagged",
         "manifest-n-bar-bool", "manifest-n-bar-nan",
         "manifest-n-bar-negative", "manifest-files-a-string",
         "manifest-files-empty"],
)
def test_malformed_json_inputs_are_runtime_failures_naming_the_file(
    tmp_path, monkeypatch, capsys, name, doc, argv
):
    monkeypatch.chdir(tmp_path)
    _write_frames(tmp_path, [np.full((4, 4), 800)], 10)[0].rename(tmp_path / "f.pgm")
    (tmp_path / "f.raw").write_bytes(b"\x00" * 32)
    (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rc = run(argv[0], "--preset", "nokia-n9", *argv[1:], "--out", "out")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and "Traceback" not in err
    # nothing is written: no fano.csv or report.json, no extract output
    assert not (tmp_path / "out").is_file() and not list((tmp_path / "out").glob("*"))


def test_extract_rejects_k_that_differs_from_matrix_file(tmp_path, capsys):
    frames = _simulate_small(tmp_path, n_frames=2)
    mat_path = tmp_path / "m.qm"
    assert run(
        "extract", "--preset", "nokia-n9", *frames, "--l", "300", "--k", "60",
        "--out", tmp_path / "a.bin", "--save-matrix", mat_path,
    ) == 0
    rc = run(
        "extract", "--preset", "nokia-n9", *frames, "--matrix", mat_path,
        "--k", "61", "--out", tmp_path / "b.bin",
    )
    assert rc == 2
    assert "--k 61" in capsys.readouterr().err


def test_zero_threads_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QRNG_THREADS", "0")
    rc = run("simulate", "--preset", "nokia-n9", "--nbar", "10", "--out", tmp_path / "x")
    assert rc == 1
    assert "QRNG_THREADS must be an integer >= 1, got '0'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("threads", ["abc", "-2", "1.5"])
def test_bad_threads_fail_before_any_output(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("QRNG_THREADS", threads)
    out = tmp_path / "x"
    rc = run("simulate", "--preset", "nokia-n9", "--nbar", "10", "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"QRNG_THREADS must be an integer >= 1, got {threads!r}" in err
    assert not out.exists()


def test_extract_raw_dump_equals_extract_of_same_frames_as_pgm(tmp_path):
    outs = []
    for fmt in ("pgm", "raw16le"):
        frames = tmp_path / fmt
        assert run(
            "simulate", "--preset", "nokia-n9", "--nbar", "410", "--frames", "3",
            "--width", "40", "--height", "30", "--seed", "8", "--out", frames,
            "--format", fmt,
        ) == 0
        inputs = sorted(frames.glob("*.pgm")) or [frames / "frames.raw"]
        out = tmp_path / f"{fmt}.bin"
        assert run(
            "extract", "--preset", "nokia-n9", *inputs, "--l", "400", "--k", "100",
            "--out", out,
        ) == 0
        outs.append(out.read_bytes())
    assert len(outs[0]) == 3 * 40 * 30 * 10 // 400 * 100 // 8
    assert outs[0] == outs[1]


def test_simulate_writes_each_frame_before_the_next_is_simulated(tmp_path, rebind):
    order = []
    tags = {simulate_frame: "sim", write_pgm: "write", raw_payload: "write"}
    for real, tag in tags.items():

        def logged(*args, _real=real, _tag=tag, **kwargs):
            order.append(_tag)
            return _real(*args, **kwargs)

        rebind(real, logged)
    for fmt in ("pgm", "raw16le"):
        order.clear()
        assert run(
            "simulate", "--preset", "nokia-n9", "--nbar", "410", "--frames", "3",
            "--width", "8", "--height", "8", "--format", fmt, "--out", tmp_path / fmt,
        ) == 0
        assert order == ["sim", "write"] * 3


# 61x59 pixels of 10 bits: every frame ends off the byte grid, and off
# the block grid of every l below.
STACK_W, STACK_H = 61, 59


@pytest.fixture(scope="module")
def stacks(tmp_path_factory):
    """Frame files and their decoded frames: PGM, PGM under a mask, raw16le."""
    base = tmp_path_factory.mktemp("stacks")
    geometry = ("--width", STACK_W, "--height", STACK_H, "--seed", "11")
    assert run("simulate", "--preset", "nokia-n9", "--nbar", "410", "--frames", "4",
               *geometry, "--out", base / "pgm") == 0
    assert run("simulate", "--preset", "nokia-n9", "--nbar", "410", "--frames", "3",
               *geometry, "--format", "raw16le", "--out", base / "raw") == 0
    pgms = sorted((base / "pgm").glob("*.pgm"))
    flagged = {"0,0": "hot", "7,30": "hot", "58,60": "dead"}
    mask_path = base / "mask.json"
    mask_path.write_text(
        json.dumps({"width": STACK_W, "height": STACK_H, "flagged": flagged})
    )
    raw = base / "raw" / "frames.raw"
    pgm_frames = [read_pgm(p) for p in pgms]
    return {
        "pgm": (pgms, [], pgm_frames, None),
        "masked": (pgms, ["--mask", mask_path], pgm_frames,
                   read_json(mask_path, PixelMask.from_dict)),
        "raw16le": ([raw], [], list(read_raw(raw, read_sidecar(raw)[0])), None),
    }


@pytest.mark.parametrize("inputs", ["pgm", "masked", "raw16le"])
@pytest.mark.parametrize(
    "l,k",
    [(64, 16), (777, 200), (1999, 500), (2000, 500), (2001, 500), (2000, 333), (8192, 600)],
)
def test_streamed_extract_equals_whole_stream_oracle(
    stacks, tmp_path, monkeypatch, capsys, inputs, l, k
):
    paths, extra, frames, mask = stacks[inputs]
    raw = concat_streams(frame_to_bits(f, mask) for f in frames)
    want = extract(raw, generate_matrix(DEFAULT_MATRIX_SEED, k, l))
    out = tmp_path / "random.bin"
    docs = []
    # Default batches, then 8-block chunks: batches of 16 blocks that
    # start and end inside frames.
    for chunk in (extractor._CHUNK_BLOCKS, 8):
        monkeypatch.setattr(extractor, "_CHUNK_BLOCKS", chunk)
        for threads in ("1", "2"):
            monkeypatch.setenv("QRNG_THREADS", threads)
            assert run("extract", "--preset", "nokia-n9", *paths, *extra,
                       "--l", l, "--k", k, "--out", out, "--json") == 0
            docs.append(json.loads(capsys.readouterr().out))
            assert out.read_bytes() == b"".join(want.bits.msb_chunks())
    assert all(doc == docs[0] for doc in docs)
    counts = {key: docs[0][key] for key in (
        "frames", "raw_bits", "blocks_processed", "residual_bits_discarded",
        "output_bits", "output_bytes", "padding_bits",
    )}
    assert counts == {
        "frames": len(frames),
        "raw_bits": raw.n_bits,
        "blocks_processed": want.blocks_processed,
        "residual_bits_discarded": want.residual_bits_discarded,
        "output_bits": want.bits.n_bits,
        "output_bytes": want.bits.packed.size,
        "padding_bits": -want.bits.n_bits % 8,
    }
    if (l, k) == (2000, 333):
        assert want.bits.n_bits % 8 != 0


@pytest.mark.parametrize(
    "l,k,bit_depth,digest",
    [
        (2000, 500, 10, "bf1ad4a9bcd3f878763b465ce587c613ddcf54ec8ceabab11ab25a2ddc9b3b49"),
        (8192, 3331, 16, "26a66d36b3085017687ca1bec9f277d1c6bfc7ffabbe8d599909dc944e0ed0f0"),
        (777, 200, 10, "145e140e06a1f2b0455c402bf1dcb7b3a2d72f41b5c6619b77a845959d768670"),
    ],
)
def test_extract_output_is_frozen(tmp_path, l, k, bit_depth, digest):
    # Seeded codes, not simulated frames, so a change to the sensor model
    # leaves these digests alone.  At (2000, 500) the 8320 blocks fill two
    # chunks and start a second batch.
    rng = np.random.default_rng(24)
    frames = _write_frames(
        tmp_path, [rng.integers(0, 1 << bit_depth, (520, 640)) for _ in range(5)],
        bit_depth,
    )
    out = tmp_path / "random.bin"
    preset = {10: "nokia-n9", 16: "atik383l"}[bit_depth]
    assert run("extract", "--preset", preset, *frames, "--l", l, "--k", k,
               "--force", "--out", out, "--json") == 0
    assert sha(out) == digest


@pytest.mark.parametrize("inputs", ["pgm", "masked", "raw16le"])
def test_extract_reports_the_exact_moments_of_the_usable_codes(stacks, tmp_path, capsys,
                                                               inputs):
    paths, extra, frames, mask = stacks[inputs]
    assert run("extract", "--preset", "nokia-n9", *paths, *extra, "--l", 777, "--k", 200,
               "--out", tmp_path / "o.bin", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    codes = [int(c) for f in frames
             for c in (f.codes if mask is None else f.codes[mask.flags]).ravel()]
    n = len(codes)
    mean = Fraction(sum(codes), n)
    assert n == len(frames) * (STACK_W * STACK_H - (0 if mask is None else 3))
    assert doc["mean_code"] == float(mean)
    assert doc["variance_code"] == float(sum((c - mean) ** 2 for c in codes) / (n - 1))
    sensor = PRESETS["nokia-n9"]
    assert doc["estimated_n_bar"] == doc["mean_code"] / sensor.zeta - sensor.offset
    # per-pixel temporal variances over the usable pixels, averaged
    per_pixel = np.var(np.stack([f.codes for f in frames]), axis=0, ddof=1)
    usable = per_pixel if mask is None else per_pixel[mask.flags]
    assert doc["mean_pixel_variance"] == pytest.approx(float(np.mean(usable)), rel=1e-12)
    if mask is None:  # as characterize reports it
        report = characterize_stack([str(p) for p in paths], sensor, str(tmp_path / "c"))
        assert doc["mean_pixel_variance"] == report["mean_pixel_variance"]
    assert doc["log2_epsilon_total"] == (
        doc["log2_epsilon"] + math.log2(doc["blocks_processed"])
    )


def test_extract_sums_the_stack_once_and_exports_each_batch(stacks, tmp_path, monkeypatch,
                                                           rebind):
    paths, _, frames, _ = stacks["pgm"]
    monkeypatch.setattr(extractor, "_CHUNK_BLOCKS", 8)
    monkeypatch.setenv("QRNG_THREADS", "2")
    calls: dict = {}

    def counting(real):
        def counted(*args, **kwargs):
            calls.setdefault(real.__name__, []).append(args)
            return real(*args, **kwargs)

        return counted

    for real in (extract, export_stream):
        rebind(real, counting(real))
    monkeypatch.setattr(PixelStats, "add", counting(PixelStats.add))
    assert run("extract", "--preset", "nokia-n9", *paths, "--l", 777, "--k", 200,
               "--out", tmp_path / "o.bin") == 0
    assert len(calls["add"]) == len(frames)
    assert len(calls["extract"]) == math.ceil(len(frames) * STACK_W * STACK_H * 10 // 777 / 16)
    assert len(calls["export_stream"]) == len(calls["extract"])


def test_extract_refuses_a_stack_of_mixed_geometry(tmp_path, capsys):
    rng = np.random.default_rng(6)
    frames = _write_frames(
        tmp_path / "f",
        [rng.integers(700, 900, (32, 32)), rng.integers(700, 900, (32, 16))],
        10,
    )
    out = tmp_path / "o.bin"
    rc = run("extract", "--preset", "nokia-n9", *frames, "--l", 200, "--k", 10,
             "--out", out)
    assert rc == 1
    assert "frame stack mismatch" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("force", [(), ("--force",)], ids=["plain", "forced"])
def test_extract_refuses_a_stack_too_short_for_one_block(tmp_path, capsys, force):
    # One 4x4 frame is 160 raw bits, less than one block of the default l.
    rng = np.random.default_rng(8)
    frames = _write_frames(tmp_path / "f", [rng.integers(700, 900, (4, 4))], 10)
    out = tmp_path / "o.bin"
    assert run("extract", "--preset", "nokia-n9", *frames, *force, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "160 raw bits hold no whole block" in err
    assert not out.exists() and list(tmp_path.iterdir()) == [tmp_path / "f"]


@pytest.mark.parametrize("threads", [1, 4])
def test_streamed_extract_builds_later_tiles_once_per_batch(stacks, tmp_path, monkeypatch,
                                                            rebind, threads):
    # Batches are a fixed number of chunks: QRNG_THREADS changes neither
    # the extract() calls nor a byte of the output.
    paths, _, frames, _ = stacks["pgm"]
    l, k, chunk = 777, 200, 8
    # 98 byte positions in tiles of 40: the first tile is kept, two are rebuilt.
    monkeypatch.setattr(extractor, "_TABLE_BYTES_LIMIT", 40 * 256 * 8 * ((k + 63) // 64))
    monkeypatch.setattr(extractor, "_CHUNK_BLOCKS", chunk)
    monkeypatch.setenv("QRNG_THREADS", str(threads))
    raw = concat_streams(frame_to_bits(f) for f in frames)
    want = b"".join(extract(raw, generate_matrix(DEFAULT_MATRIX_SEED, k, l)).bits.msb_chunks())
    calls = {"tables": 0, "extract": 0}
    real_tables, real_extract = BinaryMatrix._byte_tables, extractor.extract

    def counted_tables(self, lo, hi):
        calls["tables"] += 1
        return real_tables(self, lo, hi)

    def counted_extract(*args, **kwargs):
        calls["extract"] += 1
        return real_extract(*args, **kwargs)

    monkeypatch.setattr(BinaryMatrix, "_byte_tables", counted_tables)
    rebind(real_extract, counted_extract)
    assert run("extract", "--preset", "nokia-n9", *paths, "--l", l, "--k", k,
               "--out", tmp_path / "o.bin") == 0
    assert (tmp_path / "o.bin").read_bytes() == want
    blocks = len(frames) * STACK_W * STACK_H * 10 // l
    batch = 2 * chunk
    assert blocks % batch != 0  # so the last batch is not empty
    assert calls["extract"] == math.ceil(blocks / batch)
    assert calls["tables"] == 1 + 2 * calls["extract"]


# Stacks in which no usable pixel's code changes from frame to frame.
# Under nokia-n9 each one's mean code alone would certify the output.
NO_VARIANCE = ("constant", "copied", "saturated", "one_frame", "masked")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize(
    "case,exit_code",
    [("margin", 2), ("mixed_depth", 1), ("missing_file", 1), ("below_dark", 1),
     *((case, 1) for case in NO_VARIANCE)],
)
def test_refused_extract_writes_nothing(tmp_path, capsys, case, exit_code, existing):
    rng = np.random.default_rng(9)
    ten = [rng.integers(700, 900, (32, 32)) for _ in range(3)]
    preset, k, extra = "nokia-n9", 10, []
    if case == "margin":
        paths, k = _write_frames(tmp_path / "in", ten, 10), 190
    elif case == "mixed_depth":
        eight = _write_frames(tmp_path / "in8", [rng.integers(100, 200, (32, 32))], 8)
        paths = _write_frames(tmp_path / "in", ten[:2], 10) + eight
    elif case == "missing_file":
        paths = _write_frames(tmp_path / "in", ten, 10) + [tmp_path / "in" / "gone.pgm"]
    elif case == "below_dark":  # atik383l's dark level is 331.2 codes
        preset = "atik383l"
        paths = _write_frames(tmp_path / "in", [np.full((8, 8), 300)] * 3, 16)
    else:
        stack = {
            "constant": [np.full((32, 32), 779)] * 4,
            "copied": ten[:1] * 16,
            "saturated": [np.full((32, 32), 950)] * 4,
            "one_frame": ten[:1],
            "masked": [np.full((32, 32), 779) for _ in range(4)],
        }[case]
        if case == "masked":  # only the flagged first column varies
            for codes, moving in zip(stack, ten + ten[:1]):
                codes[:, 0] = moving[:, 0]
            mask = tmp_path / "mask.json"
            flagged = {f"{y},0": "hot" for y in range(32)}
            mask.write_text(json.dumps({"width": 32, "height": 32, "flagged": flagged}))
            extra = ["--mask", mask]
        paths = _write_frames(tmp_path / "in", stack, 10)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "random.bin"
    if existing:
        out.write_bytes(b"an earlier run")
    rc = run("extract", "--preset", preset, *paths, *extra, "--l", "200", "--k", k,
             "--out", out, "--save-matrix", out_dir / "m.qm")
    assert rc == exit_code
    err = capsys.readouterr().err
    if case == "one_frame":
        assert err == "error: a stack of 1 frame has no temporal variance to extract\n"
    elif case in NO_VARIANCE:
        assert err == (f"error: no usable pixel varies across the stack's {len(paths)} "
                       "frames; frames carry no shot noise to extract\n")
    assert sorted(p.name for p in out_dir.iterdir()) == (["random.bin"] if existing else [])
    if existing:
        assert out.read_bytes() == b"an earlier run"
