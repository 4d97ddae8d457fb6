"""The package imports lazily, the CLI pins OpenBLAS to one thread and
fixes glibc's malloc thresholds, and only ingest imports json.

Import-time checks run in a fresh interpreter: once this process has
imported camrng.cli, its own environment holds OPENBLAS_NUM_THREADS and
numpy is loaded, so each child gets an explicit environment without it.
"""

import ast
import importlib
import os
import platform
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


# ctypes.CDLL(None), the handle camrng.cli finds mallopt in, replaced by
# a namespace; every other library loads as usual.
_FAKE_LIBC = (
    "import ctypes, types\n"
    "real_cdll = ctypes.CDLL\n"
    "def cdll(name, *args, **kwargs):\n"
    "    return libc if name is None else real_cdll(name, *args, **kwargs)\n"
    "ctypes.CDLL = cdll\n"
)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_cli_import_fixes_the_malloc_thresholds_once():
    out = run_fresh(
        _FAKE_LIBC
        + "real = real_cdll(None).mallopt\n"
        "calls = []\n"
        "def mallopt(param, value):\n"
        "    calls.append((param, value, real(param, value)))\n"
        "    return calls[-1][-1]\n"
        "libc = types.SimpleNamespace(mallopt=mallopt)\n"
        "import camrng.cli\n"
        "print(calls)"
    )
    # (M_MMAP_THRESHOLD, 32 MiB) and (M_TRIM_THRESHOLD, 64 MiB), each
    # accepted: mallopt returns 1
    assert out == f"[(-3, {32 << 20}, 1), (-1, {64 << 20}, 1)]"


def test_cli_runs_where_libc_has_no_mallopt():
    out = run_fresh(
        _FAKE_LIBC
        + "libc = types.SimpleNamespace()\n"
        "import camrng.cli\n"
        "print(camrng.cli.main(['entropy', '--nbar', '410', '--bits', '10']))"
    )
    assert out.splitlines() == [
        "H = 6.386542 bits per sample",
        "s = 0.638654 entropy per raw bit at 10-bit depth",
        "0",
    ]


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
    for name in ("no_such_name", "PixelMask", "FanoPoint", "PhotonTransferCurve"):
        with pytest.raises(AttributeError, match=name):
            getattr(camrng, name)
    assert not hasattr(camrng, "Fraction")


def test_only_ingest_imports_json():
    # ingest holds the package's one JSON reader, writer and field check.
    importers = []
    for path in sorted(Path(camrng.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if any(name and name.split(".")[0] == "json" for name in names):
                importers.append(path.name)
    assert importers == ["ingest.py"]
