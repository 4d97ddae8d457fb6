"""Native randomness test battery and byte-stream export.

A small in-repo battery (monobit, block frequency, runs, serial
correlation, byte entropy) gates pipeline output without external
tooling; export_stream (from bitstream) produces the MSB-first byte
stream that external batteries (dieharder, NIST SP 800-22 suites) consume.

Every statistic is scored from integer counts that add up over chunks,
folded in one pass over the stream's MSB-first bytes: the order of every
file `camrng test` reads and of every file `--export` writes, so no bit
is reversed on the way.  Each pass of _CHUNK_WORDS words is byteswapped
once into native uint64 words, stream bit i at bit 63 - i % 64, and adds

- the ones, by popcount, and the squared excess (2c - 128)^2 of the
  ones c in each block of two words, pairing the words' popcounts and
  carrying a block's first word past the pass;
- the (1,1) pairs at lags 1..MAX_LAG, by popcounts of the words ANDed
  with themselves shifted by tau bits, carrying the words a lag reaches
  past the pass;
- the histogram of byte pairs, by a 65536-bin bincount of the bytes
  taken two at a time, folded once to the byte histogram at the end;

and the first and last MAX_LAG bits are kept.  Runs follow from the
lag-1 pairs.  A BitString is scored as the same fold over its
msb_chunks(); a reader can feed the fold a file or pipe chunk by chunk
through run_battery.

Every p-value here is two-sided against the fair-coin null.  A stream
"passes" a test when p >= alpha; with several tests at alpha = 0.01 an
ideal stream still fails one occasionally, so battery verdicts are
evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy.special import erfc, gammaincc

# Defined beside BitString, so that the extractor loads no scipy.
from .bitstream import BitString, export_stream  # noqa: F401

DEFAULT_ALPHA = 0.01
# Block frequency's block is two whole fold words, and every serial
# correlation lag reaches only into the next word.
BLOCK_SIZE = 128
MAX_LAG = 16

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


# Words per pass of the fold: 256 KiB of stream, so a pass's temporaries
# stay in cache while every lag is applied.  A pass's popcounts, at most
# 64 a word, are summed in 32 bits.
_CHUNK_WORDS = 1 << 15
# Words a pass keeps back: every lag looks one word ahead, and two words
# hold the last MAX_LAG bits wherever the stream ends.
_HOLD = 2


def _msb_bits(words: np.ndarray) -> np.ndarray:
    """The stream bits held in fold words, one uint8 0/1 per bit, in order."""
    return np.unpackbits(words.astype(">u8").view(np.uint8))


class _Counts(NamedTuple):
    """Everything the battery scores, as folded from one stream."""

    n: int  # bits
    ones: int
    n_blocks: int  # full blocks
    block_sq: int  # sum over full blocks of (2 * ones - BLOCK_SIZE)^2, exact
    pairs: list[int]  # (1,1) pairs at lags 1..MAX_LAG
    head: np.ndarray  # the first min(n, MAX_LAG) bits, 0/1
    tail: np.ndarray  # the last min(n, MAX_LAG) bits, 0/1
    byte_counts: np.ndarray  # histogram of the n // 8 full bytes


class _Fold:
    """Battery counts, accumulated over chunks of an MSB-first byte stream.

    update() takes chunks of any size and alignment, and keeps no
    reference to one after it returns; finish() returns the _Counts.
    With n_bits given, the chunks hold exactly ceil(n_bits / 8) bytes and
    the bits past n_bits in the last one are 0; finish() checks both.

    Chunks are regrouped into passes of _CHUNK_WORDS words.  A pass
    whose look-ahead has not arrived keeps its last _HOLD words.  The
    stream's last byte always waits in the stage for finish(), so the
    last pass knows where the stream's last whole word and full byte end.
    """

    def __init__(self, n_bits: int | None = None):
        self.n_bits = n_bits
        size = _CHUNK_WORDS
        # held words, one pass, then zeros for the last words' look-ahead
        self.words = np.zeros(2 * _HOLD + size, np.uint64)
        self.held = 0
        self.first_word = 0  # stream index of words[0]
        self.stage = np.empty(8 * size, np.uint8)
        self.staged = 0
        self.n_bytes = 0
        self.ones = 0
        self.pairs = [0] * MAX_LAG
        self.head = None  # the stream's first word
        self.n_blocks = 0
        self.block_sq = 0
        # ones per word of a pass, after those of a block's first word
        # when the last pass ended on it
        self.word_ones = np.empty(1 + size, np.uint8)
        self.byte_pairs = np.zeros(1 << 16, np.int64)
        self.odd_byte = None  # a last full byte past the pairs
        self.shifted = np.empty(_HOLD + size, np.uint64)
        self.spill = np.empty(_HOLD + size, np.uint64)
        self.popcounts = np.empty(_HOLD + size, np.uint8)

    def update(self, chunk) -> None:
        """Fold the next bytes of the stream (bytes, memoryview or uint8 array)."""
        data = np.frombuffer(chunk, dtype=np.uint8)
        self.n_bytes += data.size
        size, pos = self.stage.size, 0
        while pos < data.size:
            if self.staged == size:  # more bytes follow, so this is not the last pass
                self._pass(self.stage)
                self.staged = 0
            if not self.staged and data.size - pos > size:
                self._pass(data[pos : pos + size])
                pos += size
                continue
            take = min(size - self.staged, data.size - pos)
            self.stage[self.staged : self.staged + take] = data[pos : pos + take]
            self.staged += take
            pos += take

    def _pass(self, src: np.ndarray, n_full: int | None = None, end: int | None = None):
        """Fold whole words of bytes src, of which the first n_full are stream bytes.

        end, given on the last pass only, is the stream's length in bits.
        """
        m = src.size // 8
        w, h = self.words, self.held
        cur = w[h : h + m]
        np.copyto(cur, src.view(">u8"))  # stream bit i at bit 63 - i % 64
        # Counting bytes two at a time halves the elements bincount handles.
        n_full = src.size if n_full is None else n_full
        self.byte_pairs += np.bincount(
            src[: n_full - n_full % 2].view("<u2"), minlength=1 << 16
        )
        if n_full % 2:
            self.odd_byte = src[n_full - 1]
        if self.head is None:
            self.head = cur[:1].copy()

        base = self.first_word + h  # stream index of cur's first word
        self._blocks(cur, base, m if end is None else end // 64 - base)

        total = h + m
        done = total - _HOLD
        if done > 0:
            self._pair(done)
            w[:_HOLD] = w[done:total]
            self.first_word += done
            self.held = _HOLD
        else:
            self.held = total

    def _blocks(self, cur, base: int, whole: int) -> None:
        """Count cur's ones, and score each block that ends in its first whole words.

        Block j is stream words 2j and 2j + 1, so a pass that starts at an
        odd word pairs it with the last pass's last word.
        """
        odd = base % 2
        per_word = self.word_ones[odd : odd + cur.size]
        np.bitwise_count(cur, out=per_word)
        self.ones += int(per_word.sum(dtype=np.uint32))
        paired = self.word_ones[: odd + whole]
        half = paired.size // 2
        # a block's ones, at most 128, fit in the uint8 sum
        excess = 2 * (paired[: 2 * half : 2] + paired[1 : 2 * half : 2]).astype(np.int64)
        excess -= BLOCK_SIZE
        self.n_blocks += half
        self.block_sq += int(np.dot(excess, excess))
        if paired.size % 2:
            self.word_ones[0] = paired[-1]

    def _pair(self, done: int) -> None:
        """Add the (1,1) pairs that start in words[:done] at every lag."""
        x, ahead = self.words[:done], self.words[1 : 1 + done]
        sh, sp, cnt = self.shifted[:done], self.spill[:done], self.popcounts[:done]
        for tau in range(1, MAX_LAG + 1):
            np.left_shift(x, tau, out=sh)
            np.right_shift(ahead, 64 - tau, out=sp)
            np.bitwise_or(sh, sp, out=sh)
            np.bitwise_and(sh, x, out=sh)
            np.bitwise_count(sh, out=cnt)
            self.pairs[tau - 1] += int(cnt.sum(dtype=np.uint32))

    def finish(self) -> _Counts:
        n = 8 * self.n_bytes if self.n_bits is None else self.n_bits
        tail = self.staged
        if self.n_bytes != -(-n // 8) or n % 8 and self.stage[tail - 1] & 0xFF >> n % 8:
            raise ValueError(
                f"{n} bits take {-(-n // 8)} bytes, zero past the last bit; "
                f"the chunks hold {self.n_bytes} bytes"
            )
        padded = tail + -tail % 8
        self.stage[tail:padded] = 0
        self._pass(self.stage[:padded], n // 8 - (self.n_bytes - tail), n)
        # The last MAX_LAG bits lie in the held words; zeros past them
        # give the held words' look-ahead.
        w, held = self.words, self.held
        start = 64 * self.first_word
        last = _msb_bits(w[:held])[max(n - MAX_LAG, 0) - start : n - start]
        w[held : held + _HOLD] = 0
        self._pair(held)
        # A pair's first byte is its low byte, so pairs[hi, lo] sums over
        # its rows to the first-byte counts and over its columns to the
        # second.
        byte_pairs = self.byte_pairs.reshape(256, 256)
        byte_counts = byte_pairs.sum(axis=0) + byte_pairs.sum(axis=1)
        if self.odd_byte is not None:
            byte_counts[self.odd_byte] += 1
        return _Counts(
            n=n,
            ones=self.ones,
            n_blocks=self.n_blocks,
            block_sq=self.block_sq,
            pairs=self.pairs,
            head=_msb_bits(self.head)[: min(n, MAX_LAG)],
            tail=last,
            byte_counts=byte_counts,
        )


def _count(bits, n_bits: int | None = None) -> _Counts:
    """Fold a BitString, or an iterable of MSB-first byte chunks, into _Counts."""
    if isinstance(bits, BitString):
        if n_bits is not None:
            raise ValueError("n_bits applies only to an iterable of byte chunks")
        bits, n_bits = bits.msb_chunks(), bits.n_bits
    fold = _Fold(n_bits)
    for chunk in bits:
        fold.update(chunk)
    return fold.finish()


def _monobit(c: _Counts) -> TestOutcome:
    z = (2 * c.ones - c.n) / math.sqrt(c.n)
    return TestOutcome(statistic=z, p_value=float(erfc(abs(z) / math.sqrt(2))))


def monobit_test(bits: BitString) -> TestOutcome:
    """Frequency test: are ones and zeros balanced?

    statistic z = (ones - zeros)/sqrt(n); p = erfc(|z|/sqrt(2)).
    Requires >= 100 bits.
    """
    n = bits.n_bits
    if n < _MIN_MONOBIT_BITS:
        raise ValueError(f"monobit test needs >= {_MIN_MONOBIT_BITS} bits, got {n}")
    return _monobit(_count(bits))


def _block_frequency(c: _Counts) -> TestOutcome:
    # 4 M sum (c/M - 1/2)^2 = sum (2c - M)^2 / M, rounded once from the
    # exact integer sum
    chi2 = c.block_sq / BLOCK_SIZE
    return TestOutcome(
        statistic=chi2, p_value=float(gammaincc(c.n_blocks / 2.0, chi2 / 2.0))
    )


def block_frequency_test(bits: BitString) -> TestOutcome:
    """Per-block one-proportion chi-square (standard formulation).

    chi2 = 4 * BLOCK_SIZE * sum((pi_i - 1/2)^2) over N full blocks,
    computed exactly from the block one-counts and rounded once;
    p = igamc(N/2, chi2/2).  Needs >= 10 blocks.
    """
    n_blocks = bits.n_bits // BLOCK_SIZE
    if n_blocks < 10:
        raise ValueError(
            f"block frequency test needs >= 10 blocks of {BLOCK_SIZE}, "
            f"got {n_blocks}"
        )
    return _block_frequency(_count(bits))


def _runs(c: _Counts) -> TestOutcome:
    n = c.n
    pi = float(c.ones) / n
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return TestOutcome(
            statistic=float("nan"),
            p_value=0.0,
            note=f"not applicable: |pi - 0.5| = {abs(pi - 0.5):.4g} >= {tau:.4g}",
        )
    # Bits i and i+1 differ b_i + b_{i+1} - 2 b_i b_{i+1} times over
    # i < n-1: every one counts twice, less the first and last bits.
    runs = 1 + 2 * c.ones - int(c.head[0]) - int(c.tail[-1]) - 2 * c.pairs[0]
    expected = 2.0 * n * pi * (1.0 - pi)
    # standard deviation of the run count for i.i.d. bits
    sigma = 2.0 * math.sqrt(n) * pi * (1.0 - pi)
    z = (runs - expected) / sigma
    return TestOutcome(statistic=float(z), p_value=float(erfc(abs(z) / math.sqrt(2))))


def runs_test(bits: BitString) -> TestOutcome:
    """Total-runs test against the expectation 2*n*pi*(1-pi).

    Only applicable when the one-proportion pi is within 2/sqrt(n) of
    1/2; outside that gate the outcome carries a note and p_value 0.0
    rather than raising (the stream already failed monobit anyway).
    """
    n = bits.n_bits
    if n < _MIN_MONOBIT_BITS:
        raise ValueError(f"runs test needs >= {_MIN_MONOBIT_BITS} bits, got {n}")
    return _runs(_count(bits))


def _serial(c: _Counts) -> np.ndarray:
    """Autocorrelation coefficients of the 0/1 sequence at lags 1..MAX_LAG."""
    n, s = c.n, c.ones
    mean = s / n
    denom = s - s * s / n
    if denom == 0:
        raise ValueError("constant bit sequence has no defined autocorrelation")
    # ones among the first and the last tau bits, at index tau - 1
    ones_first = np.cumsum(c.head)
    ones_last = np.cumsum(c.tail[::-1])
    coefficients = np.empty(MAX_LAG, dtype=np.float64)
    for tau in range(1, MAX_LAG + 1):
        s_head = s - int(ones_last[tau - 1])
        s_tail = s - int(ones_first[tau - 1])
        cov = c.pairs[tau - 1] - mean * (s_head + s_tail) + (n - tau) * mean * mean
        coefficients[tau - 1] = cov / denom
    return coefficients


def serial_correlation(bits: BitString) -> np.ndarray:
    """Sample autocorrelation of the 0/1 sequence at lags 1..MAX_LAG.

    Computed from exact integer pair counts:
    r_tau = (C_tau - mean*(S_head + S_tail) + (n-tau)*mean^2) / (S - S^2/n)
    with C_tau the count of (1,1) pairs at distance tau.  Requires
    n >= 100 * MAX_LAG.
    """
    n = bits.n_bits
    if n < 100 * MAX_LAG:
        raise ValueError(f"serial correlation needs >= {100 * MAX_LAG} bits, got {n}")
    return _serial(_count(bits))


def _byte_entropy(c: _Counts) -> tuple[float, int]:
    """Entropy in bits/byte of the stream's full MSB-first bytes, and their count."""
    n_bytes = c.n // 8
    counts = c.byte_counts
    f = counts[counts > 0] / n_bytes
    return float(-np.sum(f * np.log2(f))), n_bytes


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


def _serial_outcome(c: _Counts) -> tuple[TestOutcome, bool]:
    """Serial correlation as one battery outcome, and whether no lag was flagged.

    A lag is flagged when its |coefficient| exceeds 4/sqrt(n), an
    ~4-sigma line for i.i.d. input.
    """
    n = c.n
    if c.ones in (0, n):
        # a constant stream has no defined autocorrelation; score it as
        # a failure with a distinct status rather than crashing
        note = "not applicable: constant sequence"
        return TestOutcome(float("nan"), 0.0, note), False
    r = _serial(c)
    lags = np.arange(1, MAX_LAG + 1)
    p_lags = erfc(np.abs(r) * np.sqrt(n - lags) / math.sqrt(2))
    p_serial = float(min(1.0, MAX_LAG * p_lags.min()))
    worst = int(np.argmin(p_lags))
    note = f"worst lag {worst + 1}; Bonferroni-corrected"
    flagged = np.abs(r) > 4.0 / math.sqrt(n)
    return TestOutcome(float(r[worst]), p_serial, note), not flagged.any()


def run_battery(
    bits: BitString | Iterable,
    alpha: float = DEFAULT_ALPHA,
    n_bits: int | None = None,
) -> TestReport:
    """Run the full native battery over one bit stream, in one pass.

    Serial correlation is folded to a single Bonferroni-corrected
    p-value (min over lags of erfc(|r|sqrt(n)/sqrt(2)), times MAX_LAG),
    which is conservative: ideal input passes at least as often as the
    per-lag tests would.  It also fails when any lag is flagged.  Byte
    entropy is scored by the likelihood-ratio statistic
    G = 2 N ln2 (8 - H) ~ chi-square(255) under the uniform null.

    Args:
        bits: the stream, long enough for every subtest (>= 80,000
            bits): a BitString, or an iterable of MSB-first byte chunks of any
            sizes (bytes, memoryviews or uint8 arrays), read once.
        alpha: per-test significance level for verdicts, in (0, 1).
        n_bits: for an iterable, the stream's length in bits when it
            is not a whole number of bytes (default 8 per byte).  The
            chunks must then hold exactly ceil(n_bits / 8) bytes, the
            bits past n_bits zero; a reader of a longer file cuts and
            masks them, as `camrng test --bits` does.

    Returns:
        TestReport; deterministic for identical input.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    c = _count(bits, n_bits)
    n = c.n
    if n < _MIN_ENTROPY_BITS:
        raise ValueError(f"battery needs >= {_MIN_ENTROPY_BITS} bits, got {n}")

    h, n_bytes = _byte_entropy(c)
    g = 2.0 * n_bytes * math.log(2.0) * (8.0 - h)
    p_entropy = float(gammaincc(255 / 2.0, g / 2.0))
    entropy = TestOutcome(h, p_entropy, "G-statistic chi-square(255)")
    # (name, outcome, whether nothing beyond the p-value fails it)
    checks = [
        ("monobit", _monobit(c), True),
        (f"block-frequency[{BLOCK_SIZE}]", _block_frequency(c), True),
        ("runs", _runs(c), True),
        (f"serial-correlation[1..{MAX_LAG}]", *_serial_outcome(c)),
        ("byte-entropy", entropy, True),
    ]
    results = [
        TestRecord(name, o.statistic, o.p_value, o.p_value >= alpha and ok, o.note)
        for name, o, ok in checks
    ]
    return TestReport(results=results, alpha=alpha, n_bits=n)
