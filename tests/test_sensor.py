import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camrng.sensor import (
    Frame,
    PRESETS,
    SensorConfig,
    _block_rng,
    _simulate_block,
    digitize_electrons,
    get_preset,
    simulate_frame,
    simulate_stack,
    worker_count,
)
from camrng.ingest import load_sensor_config

ATIK = get_preset("atik383l")
NOKIA = get_preset("nokia-n9")


def test_preset_atik383l_values():
    assert ATIK.zeta == 2.3
    assert ATIK.sigma_t == 10.0
    assert ATIK.offset == 144.0
    assert ATIK.full_well == 2.0e4
    assert ATIK.bit_depth == 16
    assert ATIK.max_code == 65535
    assert ATIK.full_well_code == 46000


def test_preset_nokia_n9_values():
    assert NOKIA.zeta == 1.9
    assert NOKIA.sigma_t == 3.3
    assert NOKIA.offset == -6.0
    assert NOKIA.full_well == 500.0
    assert NOKIA.bit_depth == 10
    assert NOKIA.max_code == 1023
    assert NOKIA.full_well_code == 950


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        get_preset("nope")
    assert set(PRESETS) == {"atik383l", "nokia-n9"}


@pytest.mark.parametrize(
    "field,value",
    [
        ("zeta", 0.0),
        ("zeta", -1.0),
        ("sigma_t", -0.1),
        ("full_well", 0.0),
        ("bit_depth", 0),
        ("bit_depth", 17),
    ],
)
def test_config_validation(field, value):
    kwargs = dict(
        name="x", zeta=2.0, sigma_t=1.0, offset=0.0,
        full_well=1000.0, bit_depth=12,
    )
    kwargs[field] = value
    with pytest.raises(ValueError):
        SensorConfig(**kwargs)


def test_sub_unity_gain_warns():
    with pytest.warns(UserWarning, match="single electrons"):
        SensorConfig(
            name="dim", zeta=0.5, sigma_t=1.0, offset=0.0,
            full_well=1000.0, bit_depth=12,
        )


def test_config_json_keys_and_round_trip(tmp_path):
    d = ATIK.to_dict()
    assert set(d) == {
        "name", "zeta", "sigma_t_electrons", "offset_electrons",
        "full_well_electrons", "bit_depth",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    again = load_sensor_config(path)
    assert again == ATIK


def test_config_from_dict_rejects_missing_key(tmp_path):
    d = ATIK.to_dict()
    del d["zeta"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError):
        load_sensor_config(path)


def test_digitize_rounding_and_clamps():
    cfg = SensorConfig(
        name="g23", zeta=2.3, sigma_t=0.0, offset=0.0,
        full_well=100.0, bit_depth=8,
    )
    e = np.array([0.0, 1.0, 2.0, -5.0, 100.0, 150.0])
    codes = digitize_electrons(e, cfg)
    # floor(2.3e + 0.5); negatives clip to 0; 150 clamps to the 100 e- well
    assert codes.dtype == np.uint16
    assert codes.tolist() == [0, 2, 5, 0, 230, 230]


def test_digitize_half_code_ties_round_up():
    cfg = SensorConfig(
        name="g05", zeta=1.0, sigma_t=0.0, offset=0.0,
        full_well=100.0, bit_depth=8,
    )
    codes = digitize_electrons(np.array([0.5, 1.5, 2.5]), cfg)
    assert codes.tolist() == [1, 2, 3]


RAIL = SensorConfig(
    name="rail", zeta=2.0, sigma_t=0.0, offset=0.0,
    full_well=1000.0, bit_depth=8,
)
ONEBIT = SensorConfig(
    name="onebit", zeta=1.0, sigma_t=0.5, offset=0.0,
    full_well=1.0, bit_depth=1,
)
# A well of 2.5 codes reads 3: the full-well code rounds half up, not to even.
WELL_TIE = SensorConfig(
    name="well-tie", zeta=1.0, sigma_t=0.0, offset=0.0,
    full_well=2.5, bit_depth=8,
)


def test_digitize_adc_rail():
    codes = digitize_electrons(np.array([100.0, 1000.0]), RAIL)
    assert codes.tolist() == [200, 255]  # 2000 clips at 2^8 - 1
    assert RAIL.full_well_code == 255


def four_step_digitize(electrons, config):
    """Reference chain: clip to the well, scale, floor(x + 0.5), clip to the ADC."""
    e = np.clip(electrons, 0.0, config.full_well)
    e *= config.zeta
    e += 0.5
    np.floor(e, out=e)
    np.clip(e, 0, config.max_code, out=e)
    return e.astype(np.uint16)


def edge_electrons(config):
    """Negatives, 0, the well and 1e6, and the totals whose scaled value
    lands on or one ulp beside a half code, near 0 and the full-well code."""
    ties = np.concatenate([
        np.arange(-2, 8) + 0.5, config.full_well_code + np.array([-0.5, 0.5])
    ]) / config.zeta
    e = np.concatenate([[-1e6, -5.0, -0.5, -0.0, 0.0, config.full_well, 1e6], ties])
    return np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])


DIGITIZE_CASES = [
    (cfg, edge_electrons(cfg)) for cfg in (NOKIA, ATIK, RAIL, ONEBIT, WELL_TIE)
]


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.floats(-10, 600), st.floats(-1e3, 1e6)), min_size=1, max_size=30
))
def test_digitize_monotone(electrons):
    # The one-clip chain equals the four-step reference, drawn totals and
    # fixed edges alike, and every total at or above the well reads its code.
    for cfg, edges in DIGITIZE_CASES:
        e = np.sort(np.concatenate([electrons, edges]))
        codes = digitize_electrons(e, cfg)
        assert (np.diff(codes.astype(np.int32)) >= 0).all()
        assert np.array_equal(codes, four_step_digitize(e, cfg))
        at_well = digitize_electrons(np.array([cfg.full_well, 1e6]), cfg)
        assert at_well.tolist() == [cfg.full_well_code] * 2


@pytest.mark.parametrize("n_bar", [0.0, 0.6, 40.0, 5000.0])
def test_sigma_t_zero_blocks_equal_the_photon_path(n_bar):
    # At zeta 1 and offset -0.5 a code is its photon count, and one ulp
    # of error in the electron total would move it down a code.
    exact = SensorConfig(
        name="exact", zeta=1.0, sigma_t=0.0, offset=-0.5,
        full_well=1e5, bit_depth=16,
    )
    for cfg in (QUIET, exact):
        out = np.empty(4096, dtype=np.uint16)
        _simulate_block(cfg, n_bar, 7, 2, 3, out)
        photons = _block_rng(7, 2, 3).poisson(n_bar, out.size)
        want = four_step_digitize(photons.astype(np.float64) + cfg.offset, cfg)
        assert np.array_equal(out, want)
    assert np.array_equal(out, photons)


def test_frame_validation():
    codes = np.zeros((4, 6), dtype=np.uint16)
    frame = Frame(codes, bit_depth=10)
    assert (frame.width, frame.height) == (6, 4)  # the geometry is the codes' shape
    # any in-range integer dtype is accepted and normalized to uint16
    as_i32 = Frame(codes.astype(np.int32), bit_depth=10)
    assert as_i32.codes.dtype == np.uint16
    for bad in (codes.ravel(), codes[:, :0], codes.astype(np.float64), codes + 2000):
        with pytest.raises(ValueError):
            Frame(bad, bit_depth=10)
    for depth in (0, 17):
        with pytest.raises(ValueError, match=f"bit_depth must be in 1..16, got {depth}"):
            Frame(codes, depth)


def test_simulate_frame_deterministic():
    a = simulate_frame(NOKIA, 410.0, 64, 48, seed=7)
    b = simulate_frame(NOKIA, 410.0, 64, 48, seed=7)
    assert np.array_equal(a.codes, b.codes)


def test_simulate_frame_varies_with_seed_and_frame_id():
    base = simulate_frame(NOKIA, 410.0, 64, 64, seed=7)
    other_seed = simulate_frame(NOKIA, 410.0, 64, 64, seed=8)
    other_frame = simulate_frame(NOKIA, 410.0, 64, 64, seed=7, frame_id=1)
    assert not np.array_equal(base.codes, other_seed.codes)
    assert not np.array_equal(base.codes, other_frame.codes)


def test_simulate_frame_worker_invariant():
    # stride the 65536-pixel block grid so multiple blocks exist
    a = simulate_frame(ATIK, 900.0, 512, 300, seed=11, n_workers=1)
    b = simulate_frame(ATIK, 900.0, 512, 300, seed=11, n_workers=4)
    assert np.array_equal(a.codes, b.codes)


def test_worker_count_defaults_to_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.delenv("QRNG_THREADS", raising=False)
    default = simulate_frame(NOKIA, 410.0, 400, 300, seed=4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert worker_count() == 1
    pinned = simulate_frame(NOKIA, 410.0, 400, 300, seed=4)
    assert pinned.codes.tobytes() == default.codes.tobytes()


# Frozen sha256 of simulate_frame(...).codes.tobytes().  The determinism
# contract pins every simulated frame, so any change to the draws, their
# order or the digitizing fails here.
# Rows: (config, n_bar, width, height, seed, frame_id, digest).
QUIET = SensorConfig(
    name="quiet", zeta=1.9, sigma_t=0.0, offset=-6.0,
    full_well=500.0, bit_depth=10,
)
FROZEN_FRAMES = [
    # 800x625 ends in a partial block of 41,248 pixels
    (NOKIA, 410.0, 800, 625, 20260819, 3,
     "bd835e4d16d9c65933ae7e8c4ca63c5b1f3bd8b8663cad2c1ea9936d1a9cfdfd"),
    (ATIK, 4000.0, 300, 200, 11, 0,
     "564484a191f7f88d1ce7c465b3bb18734582ac58b657cd343cc00e60e65f37de"),
    # sigma_t = 0 draws no normals
    (QUIET, 50.0, 300, 250, 5, 2,
     "c41e09b4d7ce3743636042c117c1e00f82d7f4f8aca498cb32457fd50f8afec7"),
    # n_bar = 0: technical noise only
    (NOKIA, 0.0, 200, 100, 9, 0,
     "493b6a3811df50c5e68ca7e5bd9cbda74f2fe63ccd265d7273d741e925821e49"),
]


@pytest.mark.parametrize("n_workers", [1, 4])
@pytest.mark.parametrize(
    "config,n_bar,width,height,seed,frame_id,digest",
    FROZEN_FRAMES,
    ids=["nokia-partial-block", "atik", "sigma-t-zero", "nbar-zero"],
)
def test_simulate_frame_matches_frozen_digest(
    config, n_bar, width, height, seed, frame_id, digest, n_workers
):
    frame = simulate_frame(
        config, n_bar, width, height, seed, frame_id=frame_id, n_workers=n_workers
    )
    assert len(np.unique(frame.codes)) > 1
    assert hashlib.sha256(frame.codes.tobytes()).hexdigest() == digest


def test_simulate_frame_moments():
    frame = simulate_frame(NOKIA, 410.0, 512, 512, seed=3)
    absorbed = 410.0 + NOKIA.offset
    want_mean = NOKIA.zeta * absorbed
    want_var = NOKIA.zeta**2 * (410.0 + NOKIA.sigma_t**2)
    got = frame.codes.astype(np.float64)
    assert got.mean() == pytest.approx(want_mean, rel=0.005)
    assert got.var() == pytest.approx(want_var, rel=0.05)


def test_simulate_dark_frame_zero_intensity():
    frame = simulate_frame(ATIK, 0.0, 64, 64, seed=1)
    # pure technical noise around the pedestal
    want = ATIK.zeta * ATIK.offset
    assert frame.codes.mean() == pytest.approx(want, rel=0.05)


def test_simulate_frame_rejects_bad_geometry():
    with pytest.raises(ValueError):
        simulate_frame(NOKIA, 410.0, 0, 64, seed=1)
    with pytest.raises(ValueError):
        simulate_frame(NOKIA, -1.0, 64, 64, seed=1)


def test_simulate_stack_frame_ids():
    stack = simulate_stack(NOKIA, 100.0, 32, 32, 3, seed=5)
    assert len(stack) == 3
    singles = [
        simulate_frame(NOKIA, 100.0, 32, 32, seed=5, frame_id=i) for i in range(3)
    ]
    for got, want in zip(stack, singles):
        assert np.array_equal(got.codes, want.codes)
    with pytest.raises(ValueError, match="n_frames must be >= 1, got 0"):
        simulate_stack(NOKIA, 100.0, 32, 32, 0, seed=5)


def test_full_well_saturation_kills_variance():
    # far past the well: every pixel pinned at the digitized well capacity
    frame = simulate_frame(NOKIA, 700.0, 64, 64, seed=9)
    pinned = digitize_electrons(np.array([NOKIA.full_well]), NOKIA)[0]
    assert pinned == NOKIA.full_well_code
    assert frame.codes.min() == frame.codes.max() == pinned
