import sys

import numpy as np
import pytest

from camrng.bitstream import BitString


def reverse_bytes(data) -> np.ndarray:
    """Each byte of data with its bit order mirrored: the oracle of bitstream._reverse_bits."""
    return np.packbits(np.unpackbits(np.asarray(data, np.uint8), bitorder="little"))


def from_msb_bytes(data, n_bits: int | None = None) -> BitString:
    """The first n_bits (default all) of an MSB-first byte stream.

    The inverse of BitString.msb_chunks, and the reference the chunked
    readers of the tests are compared against; bits past n_bits in the
    final byte are dropped.
    """
    data = np.frombuffer(data, dtype=np.uint8)
    if n_bits is None:
        n_bits = 8 * data.size
    packed = reverse_bytes(data[: (n_bits + 7) // 8])
    if n_bits % 8:
        packed[-1:] &= (1 << n_bits % 8) - 1  # a fresh array: clear in place
    return BitString(packed, n_bits)


@pytest.fixture
def rebind(monkeypatch):
    """rebind(fn, replacement) replaces fn wherever a loaded camrng module holds it.

    `from .x import fn` makes a second binding, so patching the one module
    misses callers that hold fn in another.  Bindings are found by
    identity, the way perfbench's tracer finds the functions it wraps,
    and monkeypatch restores each of them after the test.
    """

    def rebind(fn, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "camrng":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)

    return rebind
