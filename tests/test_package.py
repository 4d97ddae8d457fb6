"""The package imports lazily, and the CLI pins OpenBLAS to one thread.

Import-time checks run in a fresh interpreter: once this process has
imported camrng.cli, its own environment holds OPENBLAS_NUM_THREADS and
numpy is loaded, so each child gets an explicit environment without it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import camrng

SRC = str(Path(camrng.__file__).resolve().parents[1])


def run_fresh(code: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env},
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_import_starts_no_blas_threads():
    out = run_fresh(
        "import os, camrng.cli\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert out == "1 1"


def test_cli_keeps_the_callers_blas_thread_count():
    out = run_fresh(
        "import os, camrng.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
        OPENBLAS_NUM_THREADS="2",
    )
    assert out == "2"


def test_package_import_loads_neither_numpy_nor_scipy():
    out = run_fresh(
        "import sys, camrng\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    assert out == "[]"


@pytest.mark.parametrize("module", ["camrng.sensor", "camrng.extractor"])
def test_sensor_import_loads_no_scipy_and_keeps_the_environment(module):
    out = run_fresh(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        f"import {module}\n"
        "print('scipy' in sys.modules, dict(os.environ) == before)"
    )
    assert out == "False True"


def test_every_public_name_is_its_submodules_object():
    for name in camrng.__all__:
        module = importlib.import_module(f"camrng.{camrng._EXPORTS[name]}")
        assert getattr(camrng, name) is getattr(module, name), name
    assert set(camrng.__all__) <= set(dir(camrng))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        camrng.no_such_name
    assert not hasattr(camrng, "Fraction")
