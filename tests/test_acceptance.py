"""Release acceptance battery.

One test per release gate.  Every test measures at the stated scale,
prints a single verdict line (criterion N: PASS/FAIL plus the measured
numbers), then asserts, so a red gate still reports what was measured.
Gate 4 checks every sub-condition before asserting for the same reason.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import poisson

from camrng import (
    BitString,
    FrameFileHeader,
    entropy_report,
    epsilon_bound,
    estimate_zeta,
    extract,
    fano_factor,
    frame_to_bits,
    concat_streams,
    generate_matrix,
    get_preset,
    pixel_stats,
    poisson_entropy_exact,
    read_pgm,
    read_raw,
    run_battery,
    simulate_frame,
    simulate_stack,
    write_pgm,
)
from camrng.ingest import raw_payload
from camrng.sensor import Frame

NOKIA = get_preset("nokia-n9")
ATIK = get_preset("atik383l")


def _seed32(label: str) -> bytes:
    return hashlib.sha256(label.encode()).digest()


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _direct_entropy(n_bar: float) -> float:
    # independent oracle: direct -sum p log2 p over a wide pmf window
    half = 14.0 * math.sqrt(n_bar) + 30.0
    lo = max(0, int(n_bar - half))
    hi = int(n_bar + half) + 1
    p = poisson.pmf(np.arange(lo, hi), n_bar)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def test_criterion_1_entropy_report_reference_points():
    t0 = time.perf_counter()
    r1 = entropy_report(410, 10)
    r2 = entropy_report(1.5e4, 16)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(r1.h_quantum - 6.4) <= 0.1
        and abs(r1.s - 0.64) <= 0.01
        and abs(r2.h_quantum - 8.9) <= 0.1
        and abs(r2.s - 0.56) <= 0.01
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"H(410)={r1.h_quantum:.4f} s={r1.s:.4f}, "
        f"H(1.5e4)={r2.h_quantum:.4f} s={r2.s:.4f}, "
        f"{elapsed * 1e3:.1f} ms",
    )
    assert r1.h_quantum == pytest.approx(6.4, abs=0.1)
    assert r1.s == pytest.approx(0.64, abs=0.01)
    assert r2.h_quantum == pytest.approx(8.9, abs=0.1)
    assert r2.s == pytest.approx(0.56, abs=0.01)
    assert elapsed < 1.0


def test_criterion_2_security_bound_worked_example():
    bound = epsilon_bound(0.64, 2000, 500)
    # -390 in the log2 domain corresponds to ~10^117.4 trials
    decades = 390 * math.log10(2)
    ok = bound == Fraction(-390) and abs(decades - 117.4) < 0.05
    _verdict(2, ok, f"log2(eps)={bound} (=10^-{decades:.1f})")
    assert bound == Fraction(-390)
    assert decades == pytest.approx(117.4, abs=0.05)


def test_criterion_3_exact_series_vs_oracle_and_asymptote():
    small = [0.1, 1.0, 5.0, 20.0, 100.0]
    err_small = max(
        abs(poisson_entropy_exact(nb) - _direct_entropy(nb)) for nb in small
    )
    grid = np.linspace(500.0, 1000.0, 26)
    err_large = max(
        abs(poisson_entropy_exact(nb) - math.log2(2 * math.pi * math.e * nb) / 2)
        for nb in grid
    )
    ok = err_small <= 1e-9 and err_large <= 1e-3
    _verdict(
        3,
        ok,
        f"max|exact-direct|={err_small:.2e} on {small}, "
        f"max|exact-asymptotic|={err_large:.2e} on [500,1000]",
    )
    assert err_small <= 1e-9
    assert err_large <= 1e-3


def test_criterion_4_fano_plateau_sweep():
    # 50 frames x 10^4 pixels per intensity, digital-domain Fano factor
    t0 = time.perf_counter()
    fano = {}
    for nb in (1, 10, 50, 100, 200, 400, 600):
        frames = simulate_stack(NOKIA, float(nb), 100, 100, 50, seed=12345 + nb)
        try:
            fano[nb] = fano_factor(pixel_stats(frames).stack_point, NOKIA)
        except ValueError:
            # zero temporal variance: fully saturated stack, F -> 0
            fano[nb] = 0.0
    elapsed = time.perf_counter() - t0

    checks = [(f"F(1)={fano[1]:.4f} > 5", fano[1] > 5)]
    for nb in (50, 100, 200, 400):
        checks.append(
            (f"F({nb})={fano[nb]:.4f} in 1.00+/-0.05", abs(fano[nb] - 1.0) <= 0.05)
        )
    checks.append((f"F(600)={fano[600]:.4f} < 0.5", fano[600] < 0.5))
    checks.append((f"runtime {elapsed:.1f} s < 60 s", elapsed < 60.0))

    for label, passed in checks:
        print(f"  {'ok  ' if passed else 'BAD '} {label}")
    print(f"  (informational) F(10)={fano[10]:.4f}")
    failures = [label for label, passed in checks if not passed]
    _verdict(4, not failures, "; ".join(f"{lbl}" for lbl, _ in checks))
    assert not failures, f"fano plateau violations: {failures}"


def test_criterion_5_gain_round_trip():
    recovered = {}
    for config, n_bars, base_seed in (
        (ATIK, [500.0, 1000.0, 2000.0, 4000.0, 8000.0], 777),
        (NOKIA, [60.0, 120.0, 200.0, 300.0, 400.0], 888),
    ):
        sweep = [
            (
                pixel_stats(
                    simulate_stack(config, nb, 128, 128, 16, seed=base_seed + i)
                ).stack_point,
                nb,
            )
            for i, nb in enumerate(n_bars)
        ]
        recovered[config.zeta], _ = estimate_zeta(sweep)

    rel = {z: abs(fit - z) / z for z, fit in recovered.items()}
    ok = all(r <= 0.03 for r in rel.values())
    _verdict(
        5,
        ok,
        ", ".join(
            f"zeta {z} -> {fit:.4f} ({rel[z] * 100:.2f}%)"
            for z, fit in recovered.items()
        ),
    )
    for z, r in rel.items():
        assert r <= 0.03, f"zeta={z} recovered outside 3%"


def _block_int(bits01: np.ndarray) -> int:
    # naive per-bit packing; stream bit i sits at integer bit i
    x = 0
    for i, b in enumerate(bits01):
        if b:
            x |= 1 << i
    return x


def test_criterion_6_packed_vs_naive_oracle():
    rng = np.random.default_rng(0xC6)
    n_configs = 25
    blocks_per_config = 400  # 25 * 400 = 10^4 blocks total

    total_blocks = 0
    for idx in range(n_configs):
        if idx == 0:
            k, l = 64, 256  # always include the corner size
        else:
            k = int(rng.integers(1, 65))
            l = int(rng.integers(k + 1, 257))
        matrix = generate_matrix(_seed32(f"acceptance-c6-{idx}"), k, l)
        # bit i of a row sits at bit i % 64 of little-endian word i // 64
        rows = [
            int.from_bytes(r.astype("<u8").tobytes(), "little")
            for r in matrix.rows
        ]

        blocks01 = rng.integers(0, 2, (blocks_per_config, l), dtype=np.uint8)
        expected = []
        for blk in blocks01:  # naive double loop: every block, every row
            x = _block_int(blk)
            for r in rows:
                expected.append((r & x).bit_count() & 1)

        out = extract(BitString.from_bits01(blocks01.ravel()), matrix)
        assert out.blocks_processed == blocks_per_config
        got = np.unpackbits(out.bits.packed, count=out.bits.n_bits, bitorder="little")
        assert np.array_equal(
            got, np.array(expected, dtype=np.uint8)
        ), f"packed != naive oracle for k={k} l={l}"
        total_blocks += blocks_per_config

    # linearity: extract(x ^ y) == extract(x) ^ extract(y), 10^3 pairs
    matrix = generate_matrix(_seed32("acceptance-c6-linear"), 64, 256)
    n_pairs = 1000
    x = BitString.from_bits01(rng.integers(0, 2, n_pairs * 256, dtype=np.uint8))
    y = BitString.from_bits01(rng.integers(0, 2, n_pairs * 256, dtype=np.uint8))
    out_x = extract(x, matrix).bits
    out_y = extract(y, matrix).bits
    out_xy = extract(BitString(x.packed ^ y.packed, x.n_bits), matrix).bits
    linear = out_xy == BitString(out_x.packed ^ out_y.packed, out_x.n_bits)

    # worker count must never change the output bits
    single = extract(x, matrix, n_workers=1).bits
    multi = extract(x, matrix, n_workers=4).bits
    thread_identical = single == multi

    ok = total_blocks == 10_000 and linear and thread_identical
    _verdict(
        6,
        ok,
        f"{total_blocks} blocks == naive oracle across {n_configs} sizes, "
        f"linearity on {n_pairs} pairs: {linear}, "
        f"1-vs-4 workers identical: {thread_identical}",
    )
    assert linear
    assert thread_identical


def test_criterion_7_end_to_end_randomness():
    t0 = time.perf_counter()
    width, height, n_frames = 800, 625, 48  # 0.5 Mpixel per frame
    streams = []
    for i in range(n_frames):
        frame = simulate_frame(
            NOKIA, 410.0, width, height, seed=20260819, frame_id=i
        )
        streams.append(frame_to_bits(frame))
    raw = concat_streams(streams)
    del streams
    assert raw.n_bits == n_frames * width * height * NOKIA.bit_depth

    matrix = generate_matrix(_seed32("acceptance-c7"), 500, 2000)
    out = extract(raw, matrix)
    n_out = out.bits.n_bits

    report = run_battery(out.bits)
    min_p = min(r.p_value for r in report.results)
    byte_h = next(r.statistic for r in report.results if r.name == "byte-entropy")

    raw_report = run_battery(raw)
    raw_failed = [r.name for r in raw_report.results if not r.passed]
    elapsed = time.perf_counter() - t0

    ok = (
        n_out >= 50_000_000
        and report.all_passed
        and min_p >= 0.01
        and byte_h >= 7.99
        and len(raw_failed) >= 1
        and elapsed < 300.0
    )
    _verdict(
        7,
        ok,
        f"{n_out / 1e6:.0f} Mbit out, battery min p={min_p:.4f} "
        f"all_passed={report.all_passed}, byte entropy={byte_h:.5f}, "
        f"raw fails {raw_failed}, {elapsed:.1f} s",
    )
    assert n_out >= 50_000_000
    assert report.all_passed, report.to_dict()
    assert min_p >= 0.01
    assert byte_h >= 7.99
    assert raw_failed, "raw stream unexpectedly passed every test"
    assert elapsed < 300.0


def test_criterion_8_throughput_floor():
    matrix = generate_matrix(_seed32("acceptance-c8"), 500, 2000)
    batch_blocks = 1 << 15
    rng = np.random.default_rng(0xBE7C)
    batch = BitString(
        rng.integers(0, 256, batch_blocks * matrix.l // 8, dtype=np.uint8),
        batch_blocks * matrix.l,
    )
    extract(batch, matrix)  # warm-up: builds the cached table tile untimed
    blocks = 0
    elapsed = 0.0
    while elapsed < 1.0:
        t0 = time.perf_counter()
        blocks += extract(batch, matrix).blocks_processed
        elapsed += time.perf_counter() - t0
    out_bps = blocks * matrix.k / elapsed
    out_mbps = out_bps / 1e6
    in_mbps = blocks * matrix.l / elapsed / 1e6
    stretch = out_mbps >= 100.0  # recorded, not gated
    ok = out_bps >= 1e6
    _verdict(
        8,
        ok,
        f"output {out_mbps:.1f} Mbps (input {in_mbps:.1f} Mbps), "
        f"100 Mbps stretch target {'met' if stretch else 'not met'}",
    )
    assert out_bps >= 1e6


def test_criterion_9_format_round_trips(tmp_path):
    rng = np.random.default_rng(0xC9)
    n_round_tripped = 0

    # 60 PGM frames at random geometry and depth
    for i in range(60):
        w = int(rng.integers(1, 41))
        h = int(rng.integers(1, 41))
        depth = int(rng.integers(1, 17))
        codes = rng.integers(0, 1 << depth, (h, w)).astype(np.uint16)
        frame = Frame(codes, depth)
        path = tmp_path / f"rt_{i}.pgm"
        write_pgm(frame, path)
        back = read_pgm(path)
        assert np.array_equal(back.codes, codes)
        assert back.bit_depth == depth
        n_round_tripped += 1

    # 40 raw frames in 8 files of 5 frames each
    for i in range(8):
        fmt = "raw8" if i % 2 else "raw16le"
        depth = int(rng.integers(1, 9 if fmt == "raw8" else 17))
        w = int(rng.integers(1, 33))
        h = int(rng.integers(1, 33))
        header = FrameFileHeader(fmt, w, h, depth, frame_count=5)
        frames = [
            Frame(rng.integers(0, 1 << depth, (h, w)).astype(np.uint16), depth)
            for _ in range(5)
        ]
        path = tmp_path / f"rt_{i}.raw"
        path.write_bytes(b"".join(raw_payload(f, header) for f in frames))
        back = list(read_raw(path, header))
        assert len(back) == 5
        for a, b in zip(frames, back):
            assert np.array_equal(a.codes, b.codes)
            n_round_tripped += 1

    # byte-exact fixtures, both directions
    pgm_bytes = b"P5\n2 1\n1023\n\x01\x99\x00\x2a"
    fp = tmp_path / "fixture.pgm"
    fp.write_bytes(pgm_bytes)
    decoded = read_pgm(fp)
    assert decoded.codes.tolist() == [[409, 42]]
    assert decoded.bit_depth == 10
    write_pgm(decoded, tmp_path / "fixture_out.pgm")
    assert (tmp_path / "fixture_out.pgm").read_bytes() == pgm_bytes

    fr = tmp_path / "fixture.raw"
    fr.write_bytes(b"\x9a\x01")
    raw_header = FrameFileHeader("raw16le", 1, 1, 10, 1)
    assert list(read_raw(fr, raw_header))[0].codes.tolist() == [[410]]

    ok = n_round_tripped == 100
    _verdict(
        9,
        ok,
        f"{n_round_tripped} frames round-tripped byte-exact, "
        f"PGM and raw fixtures decode to documented codes",
    )
    assert n_round_tripped == 100
