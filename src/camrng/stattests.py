"""Native randomness test battery and byte-stream export.

A small in-repo battery (monobit, block frequency, runs, serial
correlation, byte entropy) gates pipeline output without external
tooling; export_stream produces the MSB-first byte stream that external
batteries (dieharder, NIST SP 800-22 suites) consume.

Every statistic is an integer count taken on the packed stream, never on
one byte per bit: ones by popcount, ones per block from a per-word
popcount prefix sum, bit transitions and (1,1) pairs at lag tau by
popcounts of the stream XORed or ANDed with itself shifted by tau words
and bits, and the byte histogram by a 65536-bin bincount of the packed
bytes taken two at a time, folded to 256 bins.

Every p-value here is two-sided against the fair-coin null.  A stream
"passes" a test when p >= alpha; with several tests at alpha = 0.01 an
ideal stream still fails one occasionally, so battery verdicts are
evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc, gammaincc

from .bitstream import _BIT_REVERSE, BitString

DEFAULT_ALPHA = 0.01
DEFAULT_BLOCK_SIZE = 128
DEFAULT_MAX_LAG = 16

_MIN_MONOBIT_BITS = 100
_MIN_ENTROPY_BITS = 80_000


class TestOutcome(NamedTuple):
    """(statistic, p_value) plus an optional status note.

    A gated test that was not applicable reports its reason in note
    (with p_value 0.0) instead of raising.
    """

    statistic: float
    p_value: float
    note: str | None = None


def _words(bits: BitString) -> np.ndarray:
    """The stream as little-endian uint64 words, zero-padded to a whole word."""
    packed = bits.packed
    if packed.size % 8:
        packed = np.concatenate([packed, np.zeros(-packed.size % 8, np.uint8)])
    return packed.view("<u8")


def _bit_slice(bits: BitString, start: int, stop: int) -> np.ndarray:
    """Bits start..stop-1 as a 0/1 array, unpacking only the bytes they span."""
    lo = start // 8
    part = np.unpackbits(bits.packed[lo : (stop + 7) // 8], bitorder="little")
    return part[start - 8 * lo : stop - 8 * lo]


# _LOW_MASKS[r] keeps the low r bits of a word.
_LOW_MASKS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)

# Words per pass of the chunked loops: 256 KiB of stream, so a pass's
# temporaries stay in cache (in the lag loop, while every lag is applied).
_CHUNK_WORDS = 1 << 15

# Byte pairs per pass of the byte histogram: 1 MiB of stream.  bincount
# widens each pair to an intp, 4 MiB, and fills a fresh 65536-bin result
# per pass, so fewer passes than the words loops pay off.
_PAIRS_PER_PASS = 1 << 19


def _lag_popcounts(bits: BitString, lags, combine) -> list[int]:
    """Per lag tau, popcount of combine(x, x shifted down by tau bits).

    Bit i of the shifted stream is bit i + tau of x, and zero from bit
    n - tau on, so with np.bitwise_and this counts the (1,1) pairs at
    distance tau; with np.bitwise_xor it counts the differing pairs plus
    the ones among the last tau bits.  Any tau >= 1 works, including
    multiples of 64 and lags longer than a word.
    """
    words = _words(bits)
    n_words = words.size
    reach = max(lags) // 64 + 1
    size = min(_CHUNK_WORDS, n_words)
    shifted = np.empty(size, np.uint64)
    spill = np.empty(size, np.uint64)
    counts = np.empty(size, np.uint8)
    totals = [0] * len(lags)
    for lo in range(0, n_words, _CHUNK_WORDS):
        m = min(_CHUNK_WORDS, n_words - lo)
        seg = words[lo : lo + m + reach]
        if seg.size < m + reach:
            seg = np.concatenate([seg, np.zeros(m + reach - seg.size, np.uint64)])
        x, sh, sp, cnt = seg[:m], shifted[:m], spill[:m], counts[:m]
        for idx, tau in enumerate(lags):
            q, r = divmod(int(tau), 64)
            if r:
                np.right_shift(seg[q : q + m], r, out=sh)
                np.left_shift(seg[q + 1 : q + 1 + m], 64 - r, out=sp)
                np.bitwise_or(sh, sp, out=sh)
                combine(x, sh, out=sh)
            else:
                combine(x, seg[q : q + m], out=sh)
            np.bitwise_count(sh, out=cnt)
            totals[idx] += int(cnt.sum())
    return totals


def monobit_test(bits: BitString) -> TestOutcome:
    """Frequency test: are ones and zeros balanced?

    statistic z = (ones - zeros)/sqrt(n); p = erfc(|z|/sqrt(2)).
    Requires >= 100 bits.
    """
    n = bits.n_bits
    if n < _MIN_MONOBIT_BITS:
        raise ValueError(f"monobit test needs >= {_MIN_MONOBIT_BITS} bits, got {n}")
    ones = bits.count_ones()
    z = (2 * ones - n) / math.sqrt(n)
    return TestOutcome(statistic=z, p_value=float(erfc(abs(z) / math.sqrt(2))))


def block_frequency_test(
    bits: BitString, block_size: int = DEFAULT_BLOCK_SIZE
) -> TestOutcome:
    """Per-block one-proportion chi-square (standard formulation).

    chi2 = 4 * block_size * sum((pi_i - 1/2)^2) over N full blocks;
    p = igamc(N/2, chi2/2).  Needs block_size >= 8 and >= 10 blocks.
    """
    if block_size < 8:
        raise ValueError(f"block_size must be >= 8, got {block_size}")
    n_blocks = bits.n_bits // block_size
    if n_blocks < 10:
        raise ValueError(
            f"block frequency test needs >= 10 blocks of {block_size}, "
            f"got {n_blocks}"
        )
    words = _words(bits)
    pi = np.empty(n_blocks, dtype=np.float64)
    step = max(1, _CHUNK_WORDS * 64 // block_size)  # blocks per pass
    for j0 in range(0, n_blocks, step):
        j1 = min(j0 + step, n_blocks)
        edges = np.arange(j0, j1 + 1, dtype=np.int64) * block_size
        first = int(edges[0]) >> 6
        seg = words[first : (int(edges[-1]) >> 6) + 1]
        # Ones from word `first` up to bit e: a prefix sum of per-word
        # popcounts up to word e // 64, plus its low e % 64 bits.
        ones_before_word = np.zeros(seg.size + 1, dtype=np.int64)
        ones_before_word[1:] = np.bitwise_count(seg)
        np.cumsum(ones_before_word, out=ones_before_word)
        idx = (edges >> 6) - first
        partial = seg[np.minimum(idx, seg.size - 1)] & _LOW_MASKS[edges & 63]
        ones_before = ones_before_word[idx] + np.bitwise_count(partial)
        pi[j0:j1] = np.diff(ones_before) / block_size
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    return TestOutcome(
        statistic=chi2, p_value=float(gammaincc(n_blocks / 2.0, chi2 / 2.0))
    )


def runs_test(bits: BitString) -> TestOutcome:
    """Total-runs test against the expectation 2*n*pi*(1-pi).

    Only applicable when the one-proportion pi is within 2/sqrt(n) of
    1/2; outside that gate the outcome carries a note and p_value 0.0
    rather than raising (the stream already failed monobit anyway).
    """
    n = bits.n_bits
    if n < _MIN_MONOBIT_BITS:
        raise ValueError(f"runs test needs >= {_MIN_MONOBIT_BITS} bits, got {n}")
    pi = float(bits.count_ones()) / n
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return TestOutcome(
            statistic=float("nan"),
            p_value=0.0,
            note=f"not applicable: |pi - 0.5| = {abs(pi - 0.5):.4g} >= {tau:.4g}",
        )
    # XOR with the next bit counts every transition, plus bit n-1
    # itself, which is compared with the zero past the end.
    last_bit = int(_bit_slice(bits, n - 1, n)[0])
    runs = 1 + _lag_popcounts(bits, [1], np.bitwise_xor)[0] - last_bit
    expected = 2.0 * n * pi * (1.0 - pi)
    # standard deviation of the run count for i.i.d. bits
    sigma = 2.0 * math.sqrt(n) * pi * (1.0 - pi)
    z = (runs - expected) / sigma
    return TestOutcome(statistic=float(z), p_value=float(erfc(abs(z) / math.sqrt(2))))


@dataclass(frozen=True)
class SerialCorrelationResult:
    """Autocorrelation of the bit sequence at lags 1..max_lag.

    flagged lists every lag whose |coefficient| exceeds 4/sqrt(n),
    an ~4-sigma line for i.i.d. input.
    """

    lags: np.ndarray
    coefficients: np.ndarray
    threshold: float
    flagged: list[int]

    @property
    def all_within_threshold(self) -> bool:
        return not self.flagged


def serial_correlation(
    bits: BitString, max_lag: int = DEFAULT_MAX_LAG
) -> SerialCorrelationResult:
    """Sample autocorrelation of the 0/1 sequence at lags 1..max_lag.

    Computed from exact integer pair counts:
    r_tau = (C_tau - mean*(S_head + S_tail) + (n-tau)*mean^2) / (S - S^2/n)
    with C_tau the count of (1,1) pairs at distance tau.  Requires
    n >= 100 * max_lag.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    n = bits.n_bits
    if n < 100 * max_lag:
        raise ValueError(
            f"serial correlation at max_lag={max_lag} needs >= {100 * max_lag} "
            f"bits, got {n}"
        )
    s = bits.count_ones()
    mean = s / n
    denom = s - s * s / n
    if denom == 0:
        raise ValueError("constant bit sequence has no defined autocorrelation")

    lags = np.arange(1, max_lag + 1)
    pair_counts = _lag_popcounts(bits, lags, np.bitwise_and)
    # ones among the first and the last tau bits, at index tau - 1
    ones_first = np.cumsum(_bit_slice(bits, 0, max_lag))
    ones_last = np.cumsum(_bit_slice(bits, n - max_lag, n)[::-1])
    coefficients = np.empty(max_lag, dtype=np.float64)
    for idx, tau in enumerate(lags):
        tau = int(tau)
        c_tau = pair_counts[idx]
        s_head = s - int(ones_last[tau - 1])
        s_tail = s - int(ones_first[tau - 1])
        cov = c_tau - mean * (s_head + s_tail) + (n - tau) * mean * mean
        coefficients[idx] = cov / denom
    threshold = 4.0 / math.sqrt(n)
    flagged = [int(lag) for lag, c in zip(lags, coefficients) if abs(c) > threshold]
    return SerialCorrelationResult(
        lags=lags, coefficients=coefficients, threshold=threshold, flagged=flagged
    )


def _byte_counts(data: np.ndarray) -> np.ndarray:
    """How often each value 0..255 occurs in the uint8 array data.

    Counting the bytes two at a time as uint16 codes halves the elements
    bincount handles; an odd last byte is counted on its own.
    """
    codes = data[: data.size - data.size % 2].view("<u2")
    pairs = np.zeros(1 << 16, dtype=np.int64)
    for lo in range(0, codes.size, _PAIRS_PER_PASS):
        pairs += np.bincount(codes[lo : lo + _PAIRS_PER_PASS], minlength=1 << 16)
    # A pair's first byte is its low byte, so pairs[hi, lo] sums over its
    # rows to the first-byte counts and over its columns to the second.
    pairs = pairs.reshape(256, 256)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    if data.size % 2:
        counts[data[-1]] += 1
    return counts


def _byte_entropy(bits: BitString) -> tuple[float, int]:
    """Entropy in bits/byte of the stream's full MSB-first bytes, and their count."""
    n_bytes = bits.n_bits // 8
    # MSB-first byte v is stored as packed byte _BIT_REVERSE[v].
    counts = _byte_counts(bits.packed[:n_bytes])[_BIT_REVERSE]
    f = counts[counts > 0] / n_bytes
    return float(-np.sum(f * np.log2(f))), n_bytes


def shannon_byte_entropy(bits: BitString) -> float:
    """Empirical entropy of the stream grouped into bytes, bits/byte.

    Bytes are formed MSB-first (the export convention); a trailing
    partial byte is ignored.  Requires >= 80,000 bits.  Note the
    estimator's negative bias of about 255/(2 N ln 2) bits at N bytes.
    """
    if bits.n_bits < _MIN_ENTROPY_BITS:
        raise ValueError(
            f"byte entropy needs >= {_MIN_ENTROPY_BITS} bits, got {bits.n_bits}"
        )
    return _byte_entropy(bits)[0]


class ExportResult(NamedTuple):
    n_bytes: int
    padding_bits: int


def export_stream(bits: BitString, destination) -> ExportResult:
    """Write bits as a byte stream, MSB of each byte = earliest bit.

    The final byte is zero-padded on the low side when the bit count is
    not a multiple of 8; the padding count is returned alongside the
    byte count.

    Args:
        bits: the stream to write.
        destination: path, or a binary file-like object (e.g.
            sys.stdout.buffer for piping into an external battery).

    Returns:
        ExportResult(n_bytes, padding_bits).
    """
    padding = (-bits.n_bits) % 8

    def _write(fh) -> int:
        written = 0
        for part in bits.msb_chunks():
            fh.write(part)
            written += len(part)
        return written

    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        try:
            with open(destination, "wb") as fh:
                n = _write(fh)
        except OSError as exc:
            raise OSError(f"writing {destination}: {exc}") from exc
    else:
        n = _write(destination)
    return ExportResult(n_bytes=n, padding_bits=padding)


@dataclass(frozen=True)
class TestRecord:
    """One battery entry: statistic, p-value, verdict at alpha."""

    name: str
    statistic: float
    p_value: float
    passed: bool
    note: str | None = None


@dataclass(frozen=True)
class TestReport:
    """Battery outcome for one bit stream."""

    results: list[TestRecord]
    alpha: float
    n_bits: int

    @property
    def n_passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_bits": self.n_bits,
            "n_passed": self.n_passed,
            "n_tests": len(self.results),
            "all_passed": self.all_passed,
            "results": [
                {
                    "name": r.name,
                    "statistic": None if math.isnan(r.statistic) else r.statistic,
                    "p_value": r.p_value,
                    "passed": r.passed,
                    "note": r.note,
                }
                for r in self.results
            ],
        }


def _serial_outcome(bits: BitString, max_lag: int) -> tuple[TestOutcome, bool]:
    """Serial correlation as one battery outcome, and whether no lag was flagged."""
    n = bits.n_bits
    if bits.count_ones() in (0, n):
        # a constant stream has no defined autocorrelation; score it as
        # a failure with a distinct status rather than crashing
        note = "not applicable: constant sequence"
        return TestOutcome(float("nan"), 0.0, note), False
    sc = serial_correlation(bits, max_lag)
    z = np.abs(sc.coefficients) * np.sqrt(n - sc.lags)
    p_lags = erfc(z / math.sqrt(2))
    p_serial = float(min(1.0, max_lag * p_lags.min()))
    worst = int(sc.lags[int(np.argmin(p_lags))])
    statistic = float(sc.coefficients[worst - 1])
    note = f"worst lag {worst}; Bonferroni-corrected"
    return TestOutcome(statistic, p_serial, note), not sc.flagged


def run_battery(
    bits: BitString,
    alpha: float = DEFAULT_ALPHA,
    block_size: int = DEFAULT_BLOCK_SIZE,
    max_lag: int = DEFAULT_MAX_LAG,
) -> TestReport:
    """Run the full native battery over one bit stream.

    Serial correlation is folded to a single Bonferroni-corrected
    p-value (min over lags of erfc(|r|sqrt(n)/sqrt(2)), times max_lag),
    which is conservative: ideal input passes at least as often as the
    per-lag tests would.  It also fails when any lag is flagged.  Byte
    entropy is scored by the likelihood-ratio statistic
    G = 2 N ln2 (8 - H) ~ chi-square(255) under the uniform null.

    Args:
        bits: the stream, long enough for every subtest
            (>= max(10*block_size, 100*max_lag, 80000) bits).
        alpha: per-test significance level for verdicts, in (0, 1).

    Returns:
        TestReport; deterministic for identical input.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = bits.n_bits
    needed = max(_MIN_MONOBIT_BITS, 10 * block_size, 100 * max_lag, _MIN_ENTROPY_BITS)
    if n < needed:
        raise ValueError(f"battery needs >= {needed} bits, got {n}")

    h, n_bytes = _byte_entropy(bits)
    g = 2.0 * n_bytes * math.log(2.0) * (8.0 - h)
    p_entropy = float(gammaincc(255 / 2.0, g / 2.0))
    entropy = TestOutcome(h, p_entropy, "G-statistic chi-square(255)")
    # (name, outcome, whether nothing beyond the p-value fails it)
    checks = [
        ("monobit", monobit_test(bits), True),
        (f"block-frequency[{block_size}]", block_frequency_test(bits, block_size), True),
        ("runs", runs_test(bits), True),
        (f"serial-correlation[1..{max_lag}]", *_serial_outcome(bits, max_lag)),
        ("byte-entropy", entropy, True),
    ]
    results = [
        TestRecord(name, o.statistic, o.p_value, o.p_value >= alpha and ok, o.note)
        for name, o, ok in checks
    ]
    return TestReport(results=results, alpha=alpha, n_bits=n)
