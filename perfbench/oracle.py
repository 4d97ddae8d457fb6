"""Naive reference computations for checking camrng outputs.

Nothing here imports camrng.  The checks read the files the CLI wrote
and recompute what they must hold from the documented formats: binary
PGM frames, LSB-first serialization of each pixel's bit_depth low bits,
the SHA-256 counter-stream matrix expansion, parity(row AND block) per
output bit, and MSB-first export bytes.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def pgm_header(data: bytes, path: str) -> tuple[int, int, int, int]:
    """(width, height, maxval, payload offset) of a binary PGM."""
    m = _PGM_HEADER.match(data)
    if m is None:
        raise ValueError(f"{path}: not a binary PGM")
    width, height, maxval = (int(g) for g in m.groups())
    return width, height, maxval, m.end()


def read_pgm(path: str) -> tuple[np.ndarray, int]:
    """Row-major codes and bit depth of a binary PGM (16-bit big-endian above 255)."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, maxval, offset = pgm_header(data, path)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    n = width * height
    codes = np.frombuffer(data, dtype=dtype, count=n, offset=offset)
    if offset + n * dtype.itemsize != len(data):
        raise ValueError(f"{path}: payload size does not match {width}x{height}")
    return codes.astype(np.uint16).reshape(height, width), maxval.bit_length()


def raw_bits(codes: np.ndarray, bit_depth: int, start: int, count: int) -> np.ndarray:
    """Bits start..start+count of the LSB-first serialization of `codes`.

    Pixel p contributes bits p*bit_depth .. p*bit_depth+bit_depth-1,
    least significant first; `codes` is the concatenation of every
    frame's row-major codes in input order.
    """
    idx = np.arange(start, start + count, dtype=np.int64)
    return ((codes[idx // bit_depth] >> (idx % bit_depth)) & 1).astype(np.uint8)


def matrix_rows(seed: bytes, k: int, l: int) -> np.ndarray:
    """The k x l extraction matrix as (k, ceil(l/8)) packed row bytes.

    Bit (j, i) is bit j*l + i of SHA-256(seed || u64be counter) blocks
    laid end to end, LSB-first within each byte.
    """
    n_bytes = (k * l + 7) // 8
    stream = b"".join(
        hashlib.sha256(seed + i.to_bytes(8, "big")).digest()
        for i in range((n_bytes + 31) // 32)
    )
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8), bitorder="little")
    return np.packbits(bits[: k * l].reshape(k, l), axis=1)


def parities(rows: np.ndarray, block01: np.ndarray) -> np.ndarray:
    """parity(row_j AND block) for every packed matrix row j."""
    block = np.packbits(block01)
    return (POPCOUNT[rows & block].sum(axis=1, dtype=np.int64) & 1).astype(np.uint8)


def msb_bits(data: bytes, start: int, count: int) -> np.ndarray:
    """Bits start..start+count of an MSB-first byte stream."""
    lo, hi = start // 8, (start + count + 7) // 8
    bits = np.unpackbits(np.frombuffer(data[lo:hi], dtype=np.uint8))
    return bits[start - lo * 8 : start - lo * 8 + count]


def popcount(data: bytes) -> int:
    return int(POPCOUNT[np.frombuffer(data, dtype=np.uint8)].sum(dtype=np.int64))


def monobit_z(data: bytes) -> float:
    """(ones - zeros) / sqrt(n) over every bit of a byte stream."""
    n = 8 * len(data)
    return (2 * popcount(data) - n) / np.sqrt(n)


def stack_point(frames: list[np.ndarray]) -> tuple[float, float]:
    """Mean code and mean per-pixel unbiased variance across a frame stack."""
    n = len(frames)
    s1 = np.zeros(frames[0].shape, dtype=np.int64)
    s2 = np.zeros(frames[0].shape, dtype=np.int64)
    for frame in frames:
        c = frame.astype(np.int64)
        s1 += c
        s2 += c * c
    var = np.maximum((s2 - s1.astype(np.float64) ** 2 / n) / (n - 1), 0.0)
    return float((s1 / n).mean()), float(var.mean())


def ptc_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of mean pixel variance against mean code."""
    means, variances = zip(*points)
    return float(np.polyfit(means, variances, 1)[0])
