"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

NAMES = sorted(workloads.WORKLOADS)


def _main(*args: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(list(args))
    return code, out.getvalue()


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.METRICS
    )


@pytest.mark.parametrize("name", NAMES)
def test_tiny_pass_prints_every_end_to_end_metric(name):
    code, out = _main("--workload", name, "--seed", "5", "--seconds", "0", "--size", "tiny")
    line = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert (line["correct"], line["attempted"], line["failed"]) == (True, run.MIN_PASSES, 0)
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_passes_run_the_untraced_argv(name, tmp_path):
    record = run.run_benchmark(name, 6, 0.0, True, "tiny", str(tmp_path))
    assert record["failed"] == 0
    argvs = {json.dumps(p["argv"]) for p in record["passes"]}
    assert len(argvs) == 1
    assert [p["traced"] for p in record["passes"][-2:]] == ["spans", "alloc"]
    assert set(record["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["missing"] == []
    assert record["metrics"]["trace.self_coverage"]["value"] > 0.9


@pytest.mark.parametrize("name,output", [
    ("nokia-c7", "random.bin"),
    ("atik-l8192", "random.bin"),
    ("battery-240m", "out.bin"),
])
def test_one_corrupted_output_byte_fails_the_check(name, output, tmp_path):
    wl = workloads.WORKLOADS[name](7, "tiny", str(tmp_path))
    wl.prepare()
    record = run.run_pass(wl, str(tmp_path), None, 0)
    assert record["errors"] == []
    outputs = [run._read(step["stdout"]) for step in record["steps"]]
    assert wl.check(outputs)[0] == []

    with open(wl.p(output), "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0x10]))
    assert wl.check(outputs)[0]


def test_no_sources_means_no_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    code, out = _main("--workload", NAMES[0], "--seconds", "1")
    assert code != 0
    assert out == ""
