import hashlib
import itertools
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from camrng.characterize import (
    PixelStats,
    build_pixel_mask,
    certify,
    characterize_sweep,
    estimate_zeta,
    fano_factor,
    find_operating_region,
    pixel_stats,
    simulate_stacks,
)
from camrng.cli import main
from camrng.ingest import read_frames, read_pgm, write_pgm
from camrng.sensor import Frame, SensorConfig, get_preset, predicted_fano, simulate_stack

NOKIA = get_preset("nokia-n9")


def frame_of(values, bit_depth=10) -> Frame:
    codes = np.asarray(values, dtype=np.uint16)
    return Frame(codes, bit_depth)


def test_pixel_stats_hand_example():
    stack = [frame_of([[10, 20]]), frame_of([[14, 20]])]
    stats = pixel_stats(stack)
    assert stats.n_frames == 2
    assert stats.mean.tolist() == [[12.0, 20.0]]
    assert stats.variance.tolist() == [[8.0, 0.0]]  # (n-1) normalization


def test_pixel_stats_validation():
    with pytest.raises(ValueError):
        pixel_stats([frame_of([[1]])])  # one frame has no variance
    with pytest.raises(ValueError):
        pixel_stats([frame_of([[1]]), frame_of([[1, 2]])])  # geometry mismatch


def test_pixel_stats_of_a_one_shot_iterator_equals_the_list():
    rng = np.random.default_rng(3)
    stack = [frame_of(rng.integers(0, 1024, size=(5, 6))) for _ in range(4)]
    streamed = pixel_stats(iter(stack))
    listed = pixel_stats(stack)
    assert streamed.n_frames == listed.n_frames == 4
    assert streamed.bit_depth == listed.bit_depth == 10
    assert np.array_equal(streamed.mean, listed.mean)
    assert np.array_equal(streamed.variance, listed.variance)


def test_pixel_stats_order_invariant_bitwise():
    rng = np.random.default_rng(0)
    stack = [
        frame_of(rng.integers(0, 1000, size=(7, 9)), bit_depth=10)
        for _ in range(8)
    ]
    base = pixel_stats(stack)
    for perm in itertools.islice(itertools.permutations(stack), 0, 24, 7):
        again = pixel_stats(list(perm))
        # integer moment accumulation makes this exact, not approximate
        assert np.array_equal(base.mean, again.mean)
        assert np.array_equal(base.variance, again.variance)


def test_pixel_stats_moments_follow_each_added_frame():
    # mean, variance and stack_point are kept between reads, until an add
    stats = pixel_stats([frame_of([[2, 2]]), frame_of([[4, 4]])])
    assert stats.mean.tolist() == [[3.0, 3.0]] and stats.stack_point == (3.0, 2.0)
    stats.add(frame_of([[9, 9]]))
    assert stats.mean.tolist() == [[5.0, 5.0]] and stats.variance.tolist() == [[13.0, 13.0]]
    assert stats.stack_point == (5.0, 13.0)


def python_sums(stack):
    """Per-pixel sums of codes and squared codes in Python ints."""
    cells = [[int(c) for c in f.codes.ravel()] for f in stack]
    return (
        [sum(col) for col in zip(*cells)],
        [sum(c * c for c in col) for col in zip(*cells)],
    )


@pytest.mark.parametrize(
    "n_frames,bit_depth,code",
    [
        (4105, 10, 1023),  # crosses the 4104-frame flush of 10-bit codes
        (3, 16, 65535),  # 16-bit codes flush every frame
        (300, 12, None),  # random 12-bit codes, flushed every 256 frames
    ],
)
def test_pixel_stats_sums_are_exact_across_the_partial_flush(n_frames, bit_depth, code):
    rng = np.random.default_rng(n_frames)
    stack = [
        frame_of(
            np.full((1, 2), code)
            if code is not None
            else rng.integers(0, 1 << bit_depth, size=(3, 4)),
            bit_depth=bit_depth,
        )
        for _ in range(n_frames)
    ]
    stats = PixelStats()
    # Read the sums after the first frame, while it sits in a partial sum;
    # the frames added after the read still cross a flush.
    stats.add(stack[0])
    assert (stats.s1.ravel().tolist(), stats.s2.ravel().tolist()) == python_sums(stack[:1])
    for frame in stack[1:]:
        stats.add(frame)
    want1, want2 = python_sums(stack)
    assert stats.n_frames == n_frames and stats.bit_depth == bit_depth
    assert stats.s1.dtype == stats.s2.dtype == np.int64
    assert stats.s1.ravel().tolist() == want1
    assert stats.s2.ravel().tolist() == want2


def test_fano_factor_hand_example():
    cfg = SensorConfig(
        name="f", zeta=2.0, sigma_t=0.0, offset=1.0,
        full_well=1000.0, bit_depth=10,
    )
    # one pixel alternating 10/14: mean 12, variance 8, pedestal 2
    stack = [frame_of([[10]]), frame_of([[14]])]
    point = pixel_stats(stack).stack_point
    assert point == (12.0, 8.0)  # mean code, variance code
    assert fano_factor(point, cfg) == pytest.approx(8.0 / (2.0 * (12.0 - 2.0)))


def test_predicted_fano_is_what_the_simulator_gives():
    # n_bar counts absorbed photons: the simulator draws Poisson(n_bar),
    # and the measured Fano factor is the clamp-free shot + technical noise.
    cfg = SensorConfig(
        name="f50", zeta=1.9, sigma_t=3.3, offset=20.0,
        full_well=5000.0, bit_depth=12,
    )
    predicted = predicted_fano(cfg, 50.0)
    assert predicted == 1.0 + 3.3**2 / 50.0
    stack = simulate_stack(cfg, 50.0, 256, 256, 8, seed=1)
    measured = fano_factor(pixel_stats(stack).stack_point, cfg)
    assert measured == pytest.approx(predicted, abs=0.01)


def test_fano_factor_zero_variance_error():
    stack = [frame_of([[7, 7]]), frame_of([[7, 7]])]
    with pytest.raises(ValueError, match="variance"):
        fano_factor(pixel_stats(stack).stack_point, NOKIA)


def test_fano_factor_requires_signal_above_pedestal():
    cfg = SensorConfig(
        name="p", zeta=2.0, sigma_t=0.0, offset=10.0,
        full_well=1000.0, bit_depth=10,
    )
    stack = [frame_of([[19]]), frame_of([[21]])]  # mean 20 == pedestal
    with pytest.raises(ValueError, match="pedestal"):
        fano_factor(pixel_stats(stack).stack_point, cfg)


def test_estimate_zeta_exact_linear_fixture():
    # stacks engineered so variance = 4 * mean exactly => slope 4
    stacks = []
    for mean, half_spread in ((8, 4), (18, 6), (32, 8)):
        stack = [frame_of([[mean - half_spread]]), frame_of([[mean + half_spread]])]
        stacks.append((pixel_stats(stack).stack_point, float(mean)))
    fitted_zeta, fit_residual = estimate_zeta(stacks)
    assert fitted_zeta == pytest.approx(4.0, abs=1e-12)
    assert fit_residual == pytest.approx(0.0, abs=1e-9)


def test_estimate_zeta_simulated_round_trip():
    stacks = [
        (pixel_stats(simulate_stack(NOKIA, nb, 64, 64, 12, seed=int(nb))).stack_point, nb)
        for nb in (60.0, 120.0, 200.0, 300.0, 400.0)
    ]
    fitted_zeta, _ = estimate_zeta(stacks)
    assert fitted_zeta == pytest.approx(NOKIA.zeta, rel=0.05)


def test_estimate_zeta_with_a_zero_variance_point_is_infinite_without_warning():
    # a constant stack has variance 0: no relative residual, and no division
    stacks = [(pixel_stats([frame_of([[2]]), frame_of([[2]])]).stack_point, 2.0)]
    for mean, half_spread in ((8, 4), (18, 6), (32, 8)):
        stack = [frame_of([[mean - half_spread]]), frame_of([[mean + half_spread]])]
        stacks.append((pixel_stats(stack).stack_point, float(mean)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted_zeta, fit_residual = estimate_zeta(stacks)
    assert fit_residual is None
    assert fitted_zeta > 0


def test_estimate_zeta_validation():
    point = pixel_stats([frame_of([[1]]), frame_of([[3]])]).stack_point
    with pytest.raises(ValueError):
        estimate_zeta([(point, 5.0)])  # one point cannot fix a slope
    with pytest.raises(ValueError):
        estimate_zeta([(point, 5.0), (point, 5.0)])  # duplicate intensity


def _peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_sweep_holds_one_stacks_sums_at_a_time(tmp_path):
    # The Fano factor and the gain fit take each stack's point alone, so
    # a sweep of 4 stacks peaks near the peak of reading one of them.
    out = str(tmp_path)
    n_bars = [100.0, 200.0, 300.0, 400.0]
    record, manifest = simulate_stacks(NOKIA, n_bars, True, 3, 200, 200, 7, out)
    files = [os.path.join(out, name) for name in record["stacks"][0]["files"]]
    one = _peak_bytes(lambda: pixel_stats(read_frames(files)).stack_point)
    assert _peak_bytes(characterize_sweep, manifest, NOKIA, out) <= 1.5 * one


def test_find_operating_region_fixture():
    curve = [(1.0, 5.0), (10.0, 1.05), (50.0, 1.02), (200.0, 0.5)]
    assert find_operating_region(curve) == (10.0, 50.0)


def test_find_operating_region_picks_widest_run():
    curve = [(1.0, 1.0), (2.0, 3.0), (10.0, 1.1), (100.0, 0.9), (1000.0, 1.0)]
    assert find_operating_region(curve) == (10.0, 1000.0)


def test_find_operating_region_none_and_validation():
    assert find_operating_region([(1.0, 9.0)]) is None
    with pytest.raises(ValueError):
        find_operating_region([(2.0, 1.0), (1.0, 1.0)])


def test_build_pixel_mask_classifies():
    cfg = SensorConfig(
        name="mask", zeta=1.0, sigma_t=1.0, offset=0.0,
        full_well=2000.0, bit_depth=10,
    )
    rng = np.random.default_rng(8)
    base = rng.integers(80, 121, size=(12, 4, 4)).astype(np.uint16)
    base[:, 0, 0] = 0          # stuck at zero
    base[:, 1, 1] = 1023       # pinned at the ADC rail -> hot
    base[:, 2, 2] = 100        # constant mid-range -> dead (zero variance)
    stack = [frame_of(base[i], bit_depth=10) for i in range(12)]
    state = build_pixel_mask(pixel_stats(stack), cfg)
    want = np.zeros((4, 4), dtype=np.uint8)
    want[0, 0], want[1, 1], want[2, 2] = 2, 3, 1  # stuck, hot, dead
    assert np.array_equal(state, want)
    usable = state == 0
    assert not usable[0, 0] and not usable[1, 1] and not usable[2, 2]
    assert usable.sum() == 16 - 3
    assert np.count_nonzero(state) == 3

    # nokia-n9's well reads 950, below the 10-bit ADC rail: a pixel
    # pinned there is hot, not dead
    lit = rng.integers(700, 801, size=(12, 4, 4)).astype(np.uint16)
    lit[:, 3, 3] = NOKIA.full_well_code
    state = build_pixel_mask(pixel_stats([frame_of(f) for f in lit]), NOKIA)
    assert state[3, 3] == 3 and np.count_nonzero(state) == 1

    # a stack where no pixel responds has median variance 0, and every
    # pixel is still dead
    flat = [frame_of(np.full((8, 8), 779)) for _ in range(10)]
    state = build_pixel_mask(pixel_stats(flat), NOKIA)
    assert np.count_nonzero(state) == 64
    assert (state == 1).all()


def test_build_pixel_mask_needs_frames():
    stack = [frame_of([[1, 2]]), frame_of([[3, 4]])]
    with pytest.raises(ValueError, match="10"):
        build_pixel_mask(pixel_stats(stack), NOKIA)


def looped_pixel_mask(stats: PixelStats, config: SensorConfig) -> np.ndarray:
    """The per-pixel classifier build_pixel_mask replaced, kept as its oracle.

    Returns the state array: 0 usable, 1 dead, 2 stuck, 3 hot.
    """
    mean, variance = stats.mean, stats.variance
    median = float(np.median(variance))
    dead = (variance == 0) | (variance < 0.25 * median)
    stuck = mean <= 1.0
    hot = mean >= config.full_well_code - 1.0
    state = np.zeros(mean.shape, dtype=np.uint8)
    for y, x in np.argwhere(dead | stuck | hot):
        if hot[y, x]:
            state[y, x] = 3
        elif stuck[y, x]:
            state[y, x] = 2
        else:
            state[y, x] = 1
    return state


def overlapping_stack(seed: int, height: int = 24, width: int = 31) -> list[Frame]:
    """12 nokia-n9 frames whose pixels meet none, one or several mask conditions.

    Each pixel is drawn from: noisy mid-range (usable), constant at 0
    (stuck and dead), constant at the full-well code (hot and dead),
    noisy next to 0 or the full-well code (stuck or hot, noise kept),
    constant mid-range (dead), and nearly constant (dead by the median
    fraction).
    """
    rng = np.random.default_rng(seed)
    well = NOKIA.full_well_code
    kind = rng.integers(0, 7, size=(height, width))
    noisy = rng.integers(300, 601, size=(12, height, width))
    near_zero = rng.integers(0, 3, size=(12, height, width))
    near_well = well - rng.integers(0, 3, size=(12, height, width))
    quiet = 500 + (rng.random((12, height, width)) < 0.05)
    codes = np.select(
        [kind == 1, kind == 2, kind == 3, kind == 4, kind == 5, kind == 6],
        [0, well, near_zero, near_well, 450, quiet],
        noisy,
    )
    return [frame_of(c) for c in codes]


def constant_stack(code: int) -> list[Frame]:
    """10 frames of one code: every pixel dead, and stuck or hot on a clamp."""
    return [frame_of(np.full((5, 7), code)) for _ in range(10)]


@pytest.mark.parametrize(
    "stack",
    [*(overlapping_stack(seed) for seed in range(6)),
     constant_stack(0), constant_stack(NOKIA.full_well_code), constant_stack(1023)],
    ids=[*(f"overlapping-{seed}" for seed in range(6)),
         "constant-zero", "constant-well", "constant-adc-rail"],
)
def test_build_pixel_mask_equals_the_per_pixel_loop(stack, tmp_path):
    stats = pixel_stats(stack)
    state = build_pixel_mask(stats, NOKIA)
    want = looped_pixel_mask(stats, NOKIA)
    assert state.dtype == np.uint8
    assert np.array_equal(state, want)
    assert np.count_nonzero(state) == np.count_nonzero(want)
    # characterize writes the state as a 2-bit PGM, and extract reads it back
    path = tmp_path / "mask.pgm"
    write_pgm(Frame(state, 2), path)
    again = read_pgm(path)
    assert again.bit_depth == 2
    assert np.array_equal(again.codes, state)
    assert np.array_equal(again.codes == 0, state == 0)


def test_mask_pgm_of_an_overlapping_stack_matches_frozen_digest(tmp_path):
    state = build_pixel_mask(pixel_stats(overlapping_stack(0)), NOKIA)
    assert set(np.unique(state)) == {0, 1, 2, 3}
    path = tmp_path / "mask.pgm"
    write_pgm(Frame(state, 2), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "5068c716c636565a01277b17cabc1681eeec78f4b1ab23bad0f940e98de1f281"


# certify, straight from a PixelStats: no frame is written.
ATIK = get_preset("atik383l")
ONE_BIT = SensorConfig("onebit", zeta=1, sigma_t=0.5, offset=0, full_well=1, bit_depth=1)
LIT = [[[779, 801], [790, 770]], [[812, 760], [795, 805]], [[790, 781], [770, 799]]]
NO_SHOT_NOISE = "frames carry no shot noise to extract"


def stats_of(stack, bit_depth=10) -> PixelStats:
    stats = PixelStats()
    for codes in stack:
        stats.add(frame_of(codes, bit_depth))
    return stats


@pytest.mark.parametrize("masked", [False, True], ids=["all", "usable"])
@pytest.mark.parametrize(
    "case,config,message",
    [
        # atik383l's dark level is 2.3 * 144 = 331.2 codes
        ("dark", ATIK, f"estimated absorbed mean -11.391 e- is not positive; {NO_SHOT_NOISE}"),
        ("one_frame", NOKIA, "a stack of 1 frame has no temporal variance to extract"),
        ("no_variance", NOKIA, f"no usable pixel varies across the stack's 3 frames; "
                               f"{NO_SHOT_NOISE}"),
    ],
)
def test_certify_refuses_a_degenerate_stack(case, config, message, masked):
    # Unmasked, the right-hand pixel would rescue the dark and the still stack.
    right = [[2000], [2100], [2050]] if case == "dark" else [[800], [810], [790]]
    left = {"dark": [[305], [305], [305]], "one_frame": [[779]],
            "no_variance": [[779], [779], [779]]}[case]
    if masked:
        stack = [[row + pixel] for row, pixel in zip(left, right)]
        usable = np.array([[True, False]])
    else:
        stack, usable = [[codes] for codes in left], None
    stats = stats_of(stack, config.bit_depth)
    with pytest.raises(ValueError) as refused:
        certify(stats, usable, config, 200, 10, 1)
    assert str(refused.value) == message
    if masked and case != "one_frame":
        fields, refusal = certify(stats, None, config, 200, 10, 1)
        assert refusal is None and not fields["forced"]


UNCERTIFIED = {"log2_epsilon": None, "log2_epsilon_fixed_seed": None,
               "log2_epsilon_total": None, "forced": True}


def test_certify_refuses_a_violated_margin():
    fields, refusal = certify(stats_of(LIT), None, NOKIA, 200, 190, 5)
    assert refusal == (
        "no extractable security margin: s*l = 128.098 <= k = 190\n"
        "  s = 0.6405 from estimated n_bar = 420.6 at 10-bit depth.\n"
        "  Lower k, raise l, or pass --force to extract anyway (output is NOT certified random)."
    )
    assert fields.items() >= UNCERTIFIED.items()


def test_certify_refuses_an_entropy_rate_above_1():
    # At n_bar 0.6 the Poisson count carries 1.47 bits, more than 1-bit
    # codes hold; no k < l passes, so only --force is offered.
    stats = stats_of([[[1, 0, 1, 1, 0]], [[0, 1, 1, 0, 1]], [[1, 1, 0, 0, 1]]], 1)
    fields, refusal = certify(stats, None, ONE_BIT, 200, 10, 5)
    assert refusal == (
        "entropy rate s must be in (0, 1], got 1.4740772090654863\n"
        "  s = 1.4741 from estimated n_bar = 0.6 at 1-bit depth; the count's Poisson "
        "entropy per raw bit exceeds 1, so the code cannot carry it.\n"
        "  Pass --force to extract anyway (output is NOT certified random)."
    )
    assert fields.items() >= UNCERTIFIED.items()


def test_certify_fields_of_a_certified_stack():
    fields, refusal = certify(stats_of(LIT), None, NOKIA, 200, 10, 5)
    assert refusal is None
    assert fields == {
        "mean_code": 9452 / 12,
        "variance_code": 252.06060606060606,
        "mean_pixel_variance": 307.0000000000291,
        "estimated_n_bar": 9452 / 12 / 1.9 + 6,
        "s": 0.6404895699586288,
        "log2_epsilon": -59.04895699586288,
        "log2_epsilon_fixed_seed": -59.04895699586288 / 2,
        "log2_epsilon_total": -59.04895699586288 + np.log2(5),
        "forced": False,
    }


@pytest.mark.parametrize("masked", [False, True], ids=["all", "usable"])
def test_certify_fields_are_those_of_extract_json(tmp_path, capsys, masked):
    rng = np.random.default_rng(36)
    stack = [rng.integers(700, 900, (16, 16)) for _ in range(8)]
    paths, extra, usable = [], [], None
    for i, codes in enumerate(stack):
        paths.append(str(tmp_path / f"f{i}.pgm"))
        write_pgm(frame_of(codes), paths[-1])
    if masked:
        state = (rng.random((16, 16)) < 0.2).astype(np.uint8)
        write_pgm(Frame(state, 2), tmp_path / "mask.pgm")
        extra, usable = ["--mask", str(tmp_path / "mask.pgm")], state == 0
    assert main(["extract", "--preset", "nokia-n9", *paths, *extra, "--l", "200",
                 "--k", "10", "--out", str(tmp_path / "o.bin"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fields, refusal = certify(stats_of(stack), usable, NOKIA, 200, 10,
                              doc["blocks_processed"])
    assert refusal is None
    assert list(doc)[10:-3] == list(fields)
    assert {key: doc[key] for key in fields} == fields
