import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from camrng import bitstream, stattests
from camrng.bitstream import BitString
from camrng.sensor import get_preset, simulate_frame
from camrng.stattests import (
    block_frequency_test,
    export_stream,
    monobit_test,
    run_battery,
    runs_test,
    serial_correlation,
)
from conftest import from_msb_bytes


def test_monobit_all_zeros_fails():
    out = monobit_test(BitString.from_bits01(np.zeros(1000, dtype=np.uint8)))
    assert out.p_value < 1e-100


def test_monobit_balanced_is_perfect():
    bits = BitString.from_bits01(np.array([0, 1] * 500, dtype=np.uint8))
    out = monobit_test(bits)
    assert out.statistic == 0.0
    assert out.p_value == 1.0


def test_monobit_needs_bits():
    with pytest.raises(ValueError):
        monobit_test(BitString.from_bits01(np.zeros(99, dtype=np.uint8)))


def test_monobit_statistic_sign():
    mostly_ones = np.ones(1000, dtype=np.uint8)
    mostly_ones[:100] = 0
    assert monobit_test(BitString.from_bits01(mostly_ones)).statistic > 0


def test_block_frequency_alternating_is_perfect():
    # every 128-bit block holds exactly 64 ones
    bits = BitString.from_bits01(np.array([0, 1] * 5000, dtype=np.uint8))
    out = block_frequency_test(bits)
    assert out.statistic == 0.0
    assert out.p_value == 1.0


def test_block_frequency_all_ones_fails():
    out = block_frequency_test(BitString.from_bits01(np.ones(10_000, np.uint8)))
    assert out.p_value < 1e-100


def test_block_frequency_is_rounded_once_from_exact_counts():
    # Ones per block of 128 in this stream give sum (2c - M)^2 = 600 over
    # 10 blocks, so chi2 = 600 / 128, one division of the exact sum.
    b = np.random.default_rng(0).integers(0, 2, 1280, dtype=np.uint8)
    out = block_frequency_test(BitString.from_bits01(b))
    assert out.statistic == float(Fraction(600, 128)) == 4.6875
    assert out.p_value == float(special.gammaincc(5.0, 4.6875 / 2))


def test_block_frequency_validation():
    with pytest.raises(ValueError):
        block_frequency_test(BitString.from_bits01(np.zeros(100, dtype=np.uint8)))


def test_runs_alternating_fails():
    out = runs_test(BitString.from_bits01(np.array([0, 1] * 500, dtype=np.uint8)))
    assert out.note is None
    assert out.p_value < 1e-100


def test_runs_two_runs_fails():
    bits = np.concatenate([np.zeros(500, np.uint8), np.ones(500, np.uint8)])
    out = runs_test(BitString.from_bits01(bits))
    assert out.note is None  # proportion gate passes at exactly 1/2
    assert out.p_value < 1e-100


def test_runs_gate_is_distinct_status():
    biased = np.ones(10_000, dtype=np.uint8)
    biased[:3000] = 0
    out = runs_test(BitString.from_bits01(biased))
    assert out.note is not None and "not applicable" in out.note
    assert out.p_value == 0.0
    assert math.isnan(out.statistic)


def test_serial_correlation_period_two():
    # finite-sample edge terms keep the magnitudes just inside 1
    bits = BitString.from_bits01(np.array([0, 1] * 2000, dtype=np.uint8))
    got = serial_correlation(bits)
    assert got[0] == pytest.approx(-1.0, abs=1e-3)
    assert got[1] == pytest.approx(1.0, abs=1e-3)
    assert not no_lag_flagged(bits)


def test_serial_correlation_matches_numpy_reference():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=5000, dtype=np.uint8)
    got = serial_correlation(BitString.from_bits01(bits))
    x = bits.astype(np.float64) - bits.mean()
    denom = float(np.sum(x * x))
    for idx, tau in enumerate(range(1, stattests.MAX_LAG + 1)):
        want = float(np.sum(x[:-tau] * x[tau:])) / denom
        assert got[idx] == pytest.approx(want, abs=1e-12)


def test_serial_correlation_validation():
    with pytest.raises(ValueError, match="needs >= 1600 bits"):
        serial_correlation(BitString.from_bits01(np.zeros(1599, np.uint8)))
    with pytest.raises(ValueError, match="constant"):
        serial_correlation(BitString.from_bits01(np.zeros(1600, np.uint8)))


def test_serial_correlation_iid_mostly_within_threshold():
    # ideal input: every coefficient inside 4/sqrt(n) in >= 99% of trials
    rng = np.random.default_rng(11)
    clean = 0
    trials = 400
    for _ in range(trials):
        bits = BitString.from_bits01(rng.integers(0, 2, size=10_000, dtype=np.uint8))
        if no_lag_flagged(bits):
            clean += 1
    assert clean >= math.ceil(0.99 * trials)


def no_lag_flagged(bits):
    # the battery's flag rule: no lag's |coefficient| past 4/sqrt(n)
    return stattests._serial_outcome(stattests._count(bits))[1]


def byte_entropy(bits):
    return next(r.statistic for r in run_battery(bits).results if r.name == "byte-entropy")


def test_byte_entropy_zero_for_constant():
    bits = BitString.from_bits01(np.zeros(100_000, dtype=np.uint8))
    assert byte_entropy(bits) == 0.0


def test_byte_entropy_uniform_in_bias_band():
    rng = np.random.default_rng(12)
    n_bytes = 500_000
    bits = np.unpackbits(rng.integers(0, 256, n_bytes, dtype=np.uint8)[:, None], axis=1)
    h = byte_entropy(BitString.from_bits01(bits))
    bias = 255.0 / (2.0 * n_bytes * math.log(2.0))
    assert 8.0 - 6.0 * bias <= h < 8.0


def test_export_convention_fixture(tmp_path):
    bits = BitString.from_bits01(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    path = tmp_path / "one.bin"
    with open(path, "wb") as fh:
        assert export_stream(bits, fh) is None
    assert path.read_bytes() == b"\x81"


def test_export_padding_fixture():
    buf = io.BytesIO()
    bits = BitString.from_bits01(np.array([1, 0, 0, 0, 0, 0, 0, 1, 1], dtype=np.uint8))
    export_stream(bits, buf)
    assert buf.getvalue() == b"\x81\x80"  # the 7 padding bits are the low zeros


@pytest.mark.parametrize("n_bits", [0, 8, 13, 8 * 250, 8 * 250 + 7])
def test_export_stream_writes_the_msb_chunks(tmp_path, monkeypatch, n_bits):
    monkeypatch.setattr(bitstream, "_MSB_CHUNK_BYTES", 96)  # several chunks
    rng = np.random.default_rng(n_bits)
    bits = BitString.from_bits01(rng.integers(0, 2, n_bits, dtype=np.uint8))
    want = b"".join(bits.msb_chunks())
    assert len(want) == (n_bits + 7) // 8
    buf = io.BytesIO()
    export_stream(bits, buf)
    assert buf.getvalue() == want
    path = tmp_path / "bits.bin"
    with open(path, "wb") as fh:
        export_stream(bits, fh)
    assert path.read_bytes() == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
def test_export_unpack_identity(bits):
    arr = np.array(bits, dtype=np.uint8)
    buf = io.BytesIO()
    export_stream(BitString.from_bits01(arr), buf)
    back = np.unpackbits(np.frombuffer(buf.getvalue(), dtype=np.uint8))
    assert np.array_equal(back[: arr.size], arr)


def test_battery_deterministic_and_serializable():
    rng = np.random.default_rng(13)
    bits = BitString.from_bits01(rng.integers(0, 2, size=200_000, dtype=np.uint8))
    a = run_battery(bits)
    b = run_battery(bits)
    assert a.to_dict() == b.to_dict()
    assert a.n_bits == 200_000
    assert {r.name.split("[")[0] for r in a.results} == {
        "monobit", "block-frequency", "runs", "serial-correlation", "byte-entropy",
    }
    assert all(0.0 <= r.p_value <= 1.0 for r in a.results)


def test_battery_popcounts_the_stream_once(monkeypatch):
    # monobit, block frequency, runs and serial correlation all read the
    # ones of one popcount per word; each lag popcounts its pairs once
    # more.
    rng = np.random.default_rng(16)
    bits = BitString.from_bits01(rng.integers(0, 2, size=200_003, dtype=np.uint8))
    popcounted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def bitwise_count(a, *args, **kwargs):
            popcounted.append(a.nbytes)
            return np.bitwise_count(a, *args, **kwargs)

    monkeypatch.setattr(stattests, "np", CountingNumpy())
    run_battery(bits)
    words = -(-bits.n_bits // 64)
    assert sum(popcounted) == 8 * words * (1 + stattests.MAX_LAG)


def test_battery_passes_ideal_input():
    rng = np.random.default_rng(14)
    bits = BitString.from_bits01(rng.integers(0, 2, size=1_000_000, dtype=np.uint8))
    report = run_battery(bits)
    assert report.all_passed


def test_battery_fails_biased_input():
    rng = np.random.default_rng(15)
    report = run_battery(BitString.from_bits01(rng.random(200_000) < 0.45))
    assert not report.all_passed
    by_name = {r.name: r for r in report.results}
    assert not by_name["monobit"].passed


def test_battery_length_gate():
    with pytest.raises(ValueError):
        run_battery(BitString.from_bits01(np.ones(50_000, dtype=np.uint8)))


def _ks_uniform(p_values):
    return stats.kstest(p_values, "uniform").pvalue


def test_p_value_uniformity_under_null():
    # calibration invariant for the three p-valued tests:
    # on ideal input, 1000 p-values must look uniform (KS at alpha 1e-3)
    rng = np.random.default_rng(16)
    trials = rng.integers(0, 2, size=(1000, 10_000), dtype=np.uint8)
    p_mono, p_block, p_runs = [], [], []
    for row in trials:
        bits = BitString.from_bits01(row)
        p_mono.append(monobit_test(bits).p_value)
        p_block.append(block_frequency_test(bits).p_value)
        out = runs_test(bits)
        if out.note is None:
            p_runs.append(out.p_value)
    assert _ks_uniform(p_mono) > 1e-3
    assert _ks_uniform(p_block) > 1e-3
    assert _ks_uniform(p_runs) > 1e-3


def test_raw_bit_planes_show_structure():
    # low-order planes of raw sensor codes behave like fair coin flips;
    # the top plane is saturated with structure and must fail decisively
    nokia = get_preset("nokia-n9")
    frames = [
        simulate_frame(nokia, 410.0, 128, 128, seed=17, frame_id=i)
        for i in range(4)
    ]
    codes = np.concatenate([f.codes.ravel() for f in frames])
    lsb = BitString.from_bits01(codes & 1)
    msb = BitString.from_bits01((codes >> 9) & 1)
    assert monobit_test(lsb).p_value >= 0.01
    assert monobit_test(msb).p_value < 1e-9


# ----------------------------------------------------------------------
# Packed statistics against the unpacked formulas they replaced.  The
# oracles below take one uint8 per bit and are kept only as a reference.
# ----------------------------------------------------------------------


def oracle_monobit(b):
    n = b.size
    ones = int(np.count_nonzero(b))
    z = (2 * ones - n) / math.sqrt(n)
    return (z, float(special.erfc(abs(z) / math.sqrt(2))), None)


def oracle_block_frequency(b):
    # chi2 = 4 M sum (pi - 1/2)^2 in exact rationals, rounded once
    m = stattests.BLOCK_SIZE
    n_blocks = b.size // m
    blocks = b[: n_blocks * m].reshape(n_blocks, m)
    chi2 = float(
        4 * m * sum((Fraction(int(c), m) - Fraction(1, 2)) ** 2 for c in blocks.sum(axis=1))
    )
    # at a power of two the float formula this replaced is exact too
    pi = blocks.mean(axis=1)
    assert 4.0 * m * float(np.sum((pi - 0.5) ** 2)) == chi2
    return (chi2, float(special.gammaincc(n_blocks / 2.0, chi2 / 2.0)), None)


def oracle_runs(b):
    n = b.size
    pi = float(np.count_nonzero(b)) / n
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        note = f"not applicable: |pi - 0.5| = {abs(pi - 0.5):.4g} >= {tau:.4g}"
        return (float("nan"), 0.0, note)
    runs = 1 + int(np.count_nonzero(b[1:] != b[:-1]))
    expected = 2.0 * n * pi * (1.0 - pi)
    sigma = 2.0 * math.sqrt(n) * pi * (1.0 - pi)
    z = (runs - expected) / sigma
    return (float(z), float(special.erfc(abs(z) / math.sqrt(2))), None)


def oracle_serial_coefficients(b):
    n = b.size
    s = int(np.count_nonzero(b))
    mean = s / n
    denom = s - s * s / n
    coefficients = np.empty(stattests.MAX_LAG, dtype=np.float64)
    for idx, tau in enumerate(range(1, stattests.MAX_LAG + 1)):
        c_tau = int(np.count_nonzero(b[:-tau] & b[tau:]))
        s_head = s - int(np.count_nonzero(b[n - tau :]))
        s_tail = s - int(np.count_nonzero(b[:tau]))
        cov = c_tau - mean * (s_head + s_tail) + (n - tau) * mean * mean
        coefficients[idx] = cov / denom
    return coefficients


def oracle_byte_entropy(b):
    n_bytes = b.size // 8
    counts = np.bincount(np.packbits(b[: n_bytes * 8]), minlength=256)
    f = counts[counts > 0] / n_bytes
    return float(-np.sum(f * np.log2(f)))


KINDS = ("fair", "biased", "sparse", "constant0", "constant1", "alternating", "runs")


def make_stream(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "fair":
        return rng.integers(0, 2, n, dtype=np.uint8)
    if kind == "biased":  # near the runs-test gate either side
        return (rng.random(n) < rng.uniform(0.47, 0.53)).astype(np.uint8)
    if kind == "sparse":
        return (rng.random(n) < 0.01).astype(np.uint8)
    if kind == "constant0":
        return np.zeros(n, dtype=np.uint8)
    if kind == "constant1":
        return np.ones(n, dtype=np.uint8)
    if kind == "alternating":
        return (np.arange(n) + seed % 2).astype(np.uint8) % 2
    # long runs of random length
    return (np.cumsum(rng.random(n) < 0.05) % 2).astype(np.uint8)


@st.composite
def streams(draw, min_bits):
    # n = 64 q + r covers lengths off the byte and the word grid
    q = draw(st.integers(min_bits // 64, min_bits // 64 + 40))
    n = max(min_bits, 64 * q + draw(st.integers(0, 63)))
    kind = draw(st.sampled_from(KINDS))
    return make_stream(kind, n, draw(st.integers(0, 2**32 - 1)))


def assert_outcome(got, want):
    # exact equality, NaN equal to NaN
    np.testing.assert_equal(tuple(got), want)


@settings(max_examples=60, deadline=None)
@given(streams(min_bits=100))
def test_monobit_equals_oracle(b):
    assert_outcome(monobit_test(BitString.from_bits01(b)), oracle_monobit(b))


@settings(max_examples=80, deadline=None)
@given(streams(min_bits=10 * stattests.BLOCK_SIZE))
def test_block_frequency_equals_oracle(b):
    got = block_frequency_test(BitString.from_bits01(b))
    assert_outcome(got, oracle_block_frequency(b))


@settings(max_examples=80, deadline=None)
@given(streams(min_bits=100))
def test_runs_equals_oracle(b):
    assert_outcome(runs_test(BitString.from_bits01(b)), oracle_runs(b))


@settings(max_examples=80, deadline=None)
@given(streams(min_bits=100 * stattests.MAX_LAG))
def test_serial_correlation_equals_oracle(b):
    counts = stattests._count(BitString.from_bits01(b))
    if b.min() == b.max():
        with pytest.raises(ValueError, match="constant"):
            stattests._serial(counts)
        return
    want = oracle_serial_coefficients(b)
    np.testing.assert_array_equal(stattests._serial(counts), want)
    flagged = np.abs(want) > 4.0 / math.sqrt(b.size)
    assert stattests._serial_outcome(counts)[1] == (not flagged.any())


@settings(max_examples=30, deadline=None)
@given(streams(min_bits=80_000))
def test_byte_entropy_equals_oracle(b):
    assert byte_entropy(BitString.from_bits01(b)) == oracle_byte_entropy(b)


def test_statistics_equal_oracle_at_word_boundaries():
    # lengths straddling whole words, where the shift carries
    rng = np.random.default_rng(21)
    for n in (12_800, 12_801, 12_863, 12_864, 12_865):
        b = rng.integers(0, 2, n, dtype=np.uint8)
        bits = BitString.from_bits01(b)
        np.testing.assert_array_equal(
            serial_correlation(bits), oracle_serial_coefficients(b)
        )
        assert_outcome(runs_test(bits), oracle_runs(b))
        assert_outcome(block_frequency_test(bits), oracle_block_frequency(b))


def test_battery_fails_a_flagged_lag_whose_p_value_passes():
    # every lag-3 pair copied with probability 0.0075: |r_3| is past the
    # 4/sqrt(n) flag line, yet its corrected p-value clears a tiny alpha
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2, 400_000, dtype=np.uint8)
    copy = rng.random(x.size - 3) < 0.0075
    x[3:][copy] = x[:-3][copy]
    report = run_battery(BitString.from_bits01(x), alpha=1e-12)
    serial = next(r for r in report.results if r.name.startswith("serial"))
    assert serial.p_value >= 1e-12
    assert not serial.passed


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, float("nan")])
def test_battery_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha"):
        run_battery(BitString.from_bits01(make_stream("fair", 100_000, 23)), alpha)


@pytest.mark.parametrize("chunk_words", [None, 3])
def test_byte_counts_equal_a_plain_bincount(monkeypatch, chunk_words):
    # one pass, or 24-byte passes: pairs from many passes, unaligned
    # sources, an odd last byte, and a last byte that is not full
    if chunk_words is not None:
        monkeypatch.setattr(stattests, "_CHUNK_WORDS", chunk_words)
    whole = np.frombuffer(np.random.default_rng(8).bytes(3000), dtype=np.uint8)
    for start in (0, 1):
        for n in (0, 1, 2, 5, 6, 7, 1001, 2998):
            data = whole[start : start + n]
            np.testing.assert_array_equal(
                stattests._count([data]).byte_counts, np.bincount(data, minlength=256)
            )
            if n:
                cut = data.copy()
                cut[-1] &= 0xF8
                np.testing.assert_array_equal(
                    stattests._count([cut], n_bits=8 * n - 3).byte_counts,
                    np.bincount(data[:-1], minlength=256),
                )


def chunks_of(data: bytes, size: int):
    return (data[lo : lo + size] for lo in range(0, len(data), size))


@st.composite
def chunked_streams(draw, min_bits, small_only=False):
    """(MSB-first bytes, bits to test, chunk size): sizes off every grid.

    Chunks of 200,000 to 300,000 bytes, either side of one 256 KiB pass
    of the fold, come with streams longer than a pass.  The bytes are
    ceil(n / 8), the bits past the last one zero, as the fold takes them.
    """
    sizes = [st.integers(1, 40), st.integers(41, 600)]
    if not small_only:
        sizes.append(st.integers(200_000, 300_000))
    size = draw(st.one_of(*sizes))
    if size < 200_000:
        n = draw(st.integers(min_bits, min_bits + 8 * size))
    else:
        n = draw(st.integers(2_100_000, 2_400_000))
    kind = draw(st.sampled_from(KINDS))
    b = make_stream(kind, n, draw(st.integers(0, 2**32 - 1)))
    return np.packbits(b).tobytes(), n, size


@settings(max_examples=60, deadline=None)
@given(chunked_streams(min_bits=80_000))
def test_battery_is_the_same_for_any_chunk_size(stream):
    raw, n, size = stream
    whole = run_battery(from_msb_bytes(raw, n))
    chunked = run_battery(chunks_of(raw, size), n_bits=n)
    assert chunked.to_dict() == whole.to_dict()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.data())
def test_fold_is_the_same_when_lags_cross_small_passes(pass_words, data):
    # Passes no longer than the words a pass holds back, and of odd
    # lengths, so that a block's two words fall in different passes.  The
    # counts every statistic is scored from are compared, on streams as
    # short as serial correlation takes, so that a pass of one word stays
    # fast.
    raw, n, size = data.draw(
        chunked_streams(min_bits=100 * stattests.MAX_LAG, small_only=True)
    )
    whole = stattests._count(from_msb_bytes(raw, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stattests, "_CHUNK_WORDS", pass_words)
        chunked = stattests._count(chunks_of(raw, size), n)
    for field, want in whole._asdict().items():
        np.testing.assert_array_equal(getattr(chunked, field), want, err_msg=field)


@pytest.mark.parametrize("cut", [0, 3])
def test_fold_ends_a_stream_whose_last_byte_ends_a_whole_pass(monkeypatch, cut):
    # One chunk of exactly four passes: the last byte must still wait
    # for finish(), whose pass knows where the last block and byte end.
    raw = np.full(64, 0xFF, np.uint8)
    raw[-1] <<= cut
    n = 8 * raw.size - cut
    want = stattests._count(from_msb_bytes(raw, n))
    monkeypatch.setattr(stattests, "_CHUNK_WORDS", 2)
    got = stattests._count([raw], n)
    for field, value in want._asdict().items():
        np.testing.assert_array_equal(getattr(got, field), value, err_msg=field)
    assert got.ones == n


def test_battery_takes_a_bit_string_or_chunks_but_n_bits_only_with_chunks():
    bits = BitString.from_bits01(make_stream("fair", 80_000, 3))
    with pytest.raises(ValueError, match="n_bits"):
        run_battery(bits, n_bits=80_000)
    # chunks hold exactly ceil(n_bits / 8) bytes, zero past the last bit
    for chunk, n in [(b"\x00" * 10_000, 80_008), (b"\x00" * 10_002, 80_008),
                     (b"\x00" * 10_000 + b"\x01", 80_007)]:
        with pytest.raises(ValueError, match="zero past the last bit"):
            run_battery([chunk], n_bits=n)
