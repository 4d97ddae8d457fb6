import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from camrng.entropy import (
    entropy_report,
    epsilon_bound,
    plan_extractor,
    poisson_entropy_exact,
)


def direct_entropy(n_bar: float) -> float:
    """Independent oracle: literal -sum p log2 p over the pmf."""
    width = 14.0 * math.sqrt(n_bar) + 30.0
    lo = max(0, int(n_bar - width))
    hi = int(n_bar + width) + 1
    p = stats.poisson.pmf(np.arange(lo, hi), n_bar)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


# frozen oracle outputs (direct_entropy, double precision)
KNOWN_H = {
    0.1: 0.4813941481,
    1.0: 1.8824894320,
    5.0: 3.1802700859,
    20.0: 4.2018873940,
    100.0: 5.3678153451,
}


@pytest.mark.parametrize("n_bar", sorted(KNOWN_H))
def test_exact_series_against_direct_sum(n_bar):
    assert poisson_entropy_exact(n_bar) == pytest.approx(
        direct_entropy(n_bar), abs=1e-9
    )


@pytest.mark.parametrize("n_bar,h", sorted(KNOWN_H.items()))
def test_exact_series_frozen_values(n_bar, h):
    assert poisson_entropy_exact(n_bar) == pytest.approx(h, abs=1e-9)


def test_zero_intensity_has_zero_entropy():
    assert poisson_entropy_exact(0.0) == 0.0


def test_exact_series_domain():
    with pytest.raises(ValueError):
        poisson_entropy_exact(-1.0)
    with pytest.raises(ValueError):
        poisson_entropy_exact(2.0e6)


def test_entropy_monotone_in_intensity():
    grid = np.geomspace(0.01, 1e6, 60)
    values = [poisson_entropy_exact(x) for x in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


# -sum p log2 p summed to 50 digits (mpmath) over +-14 sigma
REFERENCE_H = {
    0.1: 0.48139414811105231262,
    1.0: 1.8824894320455294311,
    10.0: 3.6953334113048321313,
    410.0: 6.3865420455250202346,
    1000.0: 7.0298674427363454697,
    1000.1: 7.0299395859151928704,
    4000.0: 8.0299576676067907452,
    1e5: 10.351914620147168259,
    1e6: 12.012879749618081293,
}

# below n_bar ~ 1e-8 the entropy itself is far under 1e-12 bits
REFERENCE_H_TINY = {
    1e-8: 2.8018119804987862739e-7,
    1e-300: 9.9802112350709769274e-298,
}


@pytest.mark.parametrize("n_bar,h", sorted(REFERENCE_H.items()))
def test_exact_against_high_precision_reference(n_bar, h):
    assert poisson_entropy_exact(n_bar) == pytest.approx(h, rel=0, abs=1e-12)


@pytest.mark.parametrize("n_bar,h", sorted(REFERENCE_H_TINY.items()))
def test_exact_against_high_precision_reference_at_tiny_means(n_bar, h):
    assert poisson_entropy_exact(n_bar) == pytest.approx(h, rel=1e-12, abs=0)


def test_exact_is_smooth_at_one_ulp():
    # a masked nokia-n9 estimate of extract; dH/dn_bar is ~1.8e-3 bits
    # there, so a one-ulp step (5.7e-14) moves the true H by ~1e-16
    n_bar = 410.00123882936066
    step = poisson_entropy_exact(np.nextafter(n_bar, np.inf)) - poisson_entropy_exact(n_bar)
    assert abs(step) < 1e-12


def test_exact_at_the_smallest_subnormal_mean():
    h = poisson_entropy_exact(5e-324)
    assert math.isfinite(h) and h >= 0.0


def test_report_entropy_fraction():
    rep = entropy_report(410.0, 10)
    assert rep.s == rep.h_quantum / 10
    assert rep.bit_depth == 10
    d = rep.to_dict()
    assert d["n_bar"] == 410.0
    assert d["h_quantum_bits"] == rep.h_quantum


def test_report_rejects_bad_bit_depth():
    with pytest.raises(ValueError):
        entropy_report(10.0, 0)


def test_epsilon_bound_worked_example():
    # s=0.64 means 16/25 exactly; (16/25*2000 - 500)/2 = 390
    got = epsilon_bound(0.64, 2000, 500)
    assert isinstance(got, Fraction)
    assert got == Fraction(-390)
    # numpy scalars, as an H_min computed from arrays gives, read as their float
    for x in (np.float64(0.64), np.float32(0.64)):
        assert epsilon_bound(x, 2000, 500) == epsilon_bound(float(x), 2000, 500)
        assert plan_extractor(x, -100, 2000) == plan_extractor(float(x), -100, 2000)


def test_epsilon_bound_is_exact_arithmetic():
    assert epsilon_bound(Fraction(1, 3), 3000, 600) == Fraction(-200)
    assert epsilon_bound("0.5", 1001, 500) == Fraction(-1, 4)


def test_epsilon_bound_rejects_violated_margin():
    with pytest.raises(ValueError, match="margin"):
        epsilon_bound(0.25, 1000, 250)  # s*l == k
    with pytest.raises(ValueError, match="margin"):
        epsilon_bound(0.1, 1000, 500)


def test_epsilon_bound_domain():
    with pytest.raises(ValueError):
        epsilon_bound(0.0, 1000, 10)
    with pytest.raises(ValueError):
        epsilon_bound(1.5, 1000, 10)
    with pytest.raises(ValueError):
        epsilon_bound(0.5, 0, 10)
    with pytest.raises(ValueError):
        epsilon_bound(0.5, 1000, 0)
    for s in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            epsilon_bound(s, 1000, 10)


@settings(max_examples=300, deadline=None)
@given(
    s_num=st.integers(1, 999),
    l=st.integers(1, 10_000),
    k=st.integers(1, 10_000),
)
def test_epsilon_bound_formula_property(s_num, l, k):
    s = Fraction(s_num, 1000)
    margin = s * l - k
    if margin <= 0:
        with pytest.raises(ValueError):
            epsilon_bound(s, l, k)
    else:
        assert epsilon_bound(s, l, k) == -margin / 2


def test_plan_worked_example():
    plan = plan_extractor(0.64, Fraction(-390), 2000)
    assert plan.k == 500
    assert plan.log2_epsilon == Fraction(-390)
    assert plan.compression_factor == 4.0


def test_plan_meets_target_exactly_or_better():
    plan = plan_extractor(0.6387, -100, 2000)
    assert plan.log2_epsilon <= Fraction(-100)
    # one more output bit would overshoot the target
    assert epsilon_bound(0.6387, 2000, plan.k + 1) > Fraction(-100)


def test_plan_round_trips_through_bound():
    plan = plan_extractor("0.61", -50, 1500)
    assert epsilon_bound("0.61", 1500, plan.k) == plan.log2_epsilon


def test_plan_rejects_nonnegative_target():
    with pytest.raises(ValueError):
        plan_extractor(0.64, 0, 2000)


def test_plan_domain():
    for s in (0.0, 1.5):
        with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
            plan_extractor(s, -10, 1000)
    with pytest.raises(ValueError, match="block length l must be >= 1, got 0"):
        plan_extractor(0.5, -10, 0)


def test_plan_infeasible():
    # s*l too small to leave a single output bit at this target
    with pytest.raises(ValueError, match="infeasible"):
        plan_extractor(0.01, -100, 2000)


@settings(max_examples=200, deadline=None)
@given(
    s_num=st.integers(1, 100),
    target=st.integers(-500, -1),
    l=st.integers(10, 5000),
)
def test_plan_maximality_property(s_num, target, l):
    s = Fraction(s_num, 100)
    try:
        plan = plan_extractor(s, target, l)
    except ValueError:
        # infeasible: even k=1 misses the target
        assert s * l + 2 * target < 1
        return
    assert plan.log2_epsilon <= target
    assert plan.k >= 1
    # maximality: k+1 would violate the target or the margin itself
    try:
        worse = epsilon_bound(s, l, plan.k + 1)
        assert worse > target
    except ValueError:
        pass
