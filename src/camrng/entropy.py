"""Quantum entropy of photon counting and extractor sizing.

A pixel that resolves single photoelectrons measures a Poisson random
variable with mean n_bar.  Its Shannon entropy

    H = -sum_m p(m) log2 p(m),    p(m) = e^-n_bar n_bar^m / m!

quantifies the quantum randomness available per pixel per frame, in
bits.  It is summed directly, with every weight taken relative to the
most likely count, so no two large terms cancel and one path is
accurate from subnormal means up to n_bar = 1e6.

The second half of this module turns an entropy estimate into extractor
dimensions: an (l, k) parity extractor applied to raw blocks carrying
entropy rate s bits per raw bit leaves output bias bounded by
epsilon = 2^-(s*l - k)/2.  Exponents are kept as exact rationals because
interesting epsilon values (2^-390 and smaller) underflow any float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real

import numpy as np

# poisson_entropy_exact supports means up to this value.
_MAX_N_BAR = 1.0e6

_LN2 = math.log(2.0)


def poisson_entropy_exact(n_bar: float) -> float:
    """Shannon entropy (bits) of a Poisson(n_bar) variable.

    Weights are taken relative to the mode m0 = floor(n_bar):
    log w(m) = log(p(m)/p(m0)) is a running sum of log(n_bar/j) outward
    from m0, so every term is small and nothing cancels.  With the
    off-mode mass rest = sum w(m != m0) and Z = 1 + rest,

        H = (log(Z) - sum w log w / Z) / ln 2.

    The sum covers +-12 sigma, which holds all but ~1e-33 of the mass;
    weights below e^-800 are dropped, so no 0 * -inf arises.

    Args:
        n_bar: mean count, 0 <= n_bar <= 1e6.

    Returns:
        Entropy in bits; exactly 0.0 for n_bar = 0.
    """
    if not 0 <= n_bar <= _MAX_N_BAR:
        raise ValueError(f"n_bar must be in [0, {_MAX_N_BAR:g}], got {n_bar}")
    if n_bar == 0:
        return 0.0

    # The +10 floor keeps small means covered.
    half_width = 12.0 * math.sqrt(n_bar) + 10.0
    lo = max(0, int(n_bar - half_width))
    hi = int(math.ceil(n_bar + half_width))
    below = math.floor(n_bar) - lo
    # step[i] = log(p(j)/p(j-1)) for j = lo+1+i; n_bar/j underflows to 0
    # for subnormal n_bar, and its -inf weight is dropped below.
    with np.errstate(divide="ignore"):
        step = np.log(n_bar / np.arange(lo + 1.0, hi + 1.0))
    log_w = np.concatenate(
        [-np.cumsum(step[:below][::-1]), np.cumsum(step[below:])]
    )
    log_w = log_w[log_w > -800.0]
    w = np.exp(log_w)
    rest = float(w.sum())
    return (math.log1p(rest) - float(np.dot(w, log_w)) / (1.0 + rest)) / _LN2


@dataclass(frozen=True)
class EntropyReport:
    """Per-pixel quantum entropy and the derived raw-bit entropy rate.

    Attributes:
        n_bar: mean absorbed photons per pixel.
        bit_depth: ADC bits per raw sample.
        h_quantum: Poisson entropy per pixel, bits.
        s: entropy per raw bit, h_quantum / bit_depth.
    """

    n_bar: float
    bit_depth: int
    h_quantum: float
    s: float

    def to_dict(self) -> dict:
        return {
            "n_bar": self.n_bar,
            "bit_depth": self.bit_depth,
            "h_quantum_bits": self.h_quantum,
            "s_bits_per_raw_bit": self.s,
        }


def entropy_report(n_bar: float, bit_depth: int) -> EntropyReport:
    """Quantum entropy of one pixel readout and its per-raw-bit rate.

    h_quantum is poisson_entropy_exact(n_bar), the one entropy path.

    Args:
        n_bar: mean absorbed photons per pixel, 0 <= n_bar <= 1e6.
        bit_depth: ADC width the raw stream is serialized at, 1..16.

    Returns:
        EntropyReport; s < 1 whenever h_quantum < bit_depth.
    """
    if not 1 <= bit_depth <= 16:
        raise ValueError(f"bit_depth must be in 1..16, got {bit_depth}")
    h = poisson_entropy_exact(n_bar)
    return EntropyReport(
        n_bar=n_bar, bit_depth=bit_depth, h_quantum=h, s=h / bit_depth
    )


def _as_fraction(x) -> Fraction:
    """Coerce an entropy rate to an exact rational.

    Other reals, numpy float scalars included, are read as the float
    they round to, through its shortest decimal representation (repr),
    so a value written as 0.64 means exactly 64/100 rather than the
    nearest binary double.  Strings, Decimals, and Rationals convert
    exactly as given.
    """
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, Real):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"entropy rate must be finite, got {x}")
        return Fraction(repr(x))
    return Fraction(x)


def epsilon_bound(s, l: int, k: int) -> Fraction:
    """Security exponent of an (l, k) parity extractor.

    For raw blocks of l bits at entropy rate s compressed to k bits,
    the output distance from uniform is bounded by 2^log2_epsilon with

        log2_epsilon = -(s*l - k) / 2

    computed in exact rational arithmetic; the bound itself is never
    materialized as a float (2^-390 underflows).

    Args:
        s: entropy per raw bit, 0 < s <= 1 (float/str/Decimal/Fraction).
        l: raw block length in bits, >= 1.
        k: output block length in bits, >= 1.

    Returns:
        log2 of the bias bound, as an exact Fraction (negative).
    """
    s_frac = _as_fraction(s)
    if not 0 < s_frac <= 1:
        raise ValueError(f"entropy rate s must be in (0, 1], got {s}")
    if l < 1 or k < 1:
        raise ValueError(f"block sizes must be >= 1, got l={l}, k={k}")
    margin = s_frac * l - k
    if margin <= 0:
        raise ValueError(
            f"no extractable security margin: s*l = {float(s_frac * l):.6g} "
            f"<= k = {k}"
        )
    return -margin / 2


@dataclass(frozen=True)
class ExtractorPlan:
    """Chosen extractor dimensions with the achieved security exponent.

    Attributes:
        l: raw input block length, bits.
        k: output block length, bits.
        s: entropy per raw bit the plan assumed (exact rational).
        log2_epsilon: achieved bias exponent, -(s*l - k)/2, exact.
    """

    l: int
    k: int
    s: Fraction
    log2_epsilon: Fraction

    @property
    def compression_factor(self) -> float:
        return self.l / self.k

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "k": self.k,
            "s": str(self.s),
            "log2_epsilon": str(self.log2_epsilon),
            "log2_epsilon_float": float(self.log2_epsilon),
            "compression_factor": self.compression_factor,
        }


def plan_extractor(s, target_log2_epsilon, l: int) -> ExtractorPlan:
    """Choose the largest output size meeting a bias target.

    Solves -(s*l - k)/2 <= target for integer k:
    k = floor(s*l + 2*target).  Since the target exponent is negative,
    the achieved exponent recomputed from the integer k is at or below
    the target.

    Args:
        s: entropy per raw bit, 0 < s <= 1.
        target_log2_epsilon: required log2 bias bound, < 0.
        l: raw block length, >= 1.

    Returns:
        ExtractorPlan with k >= 1.

    Raises:
        ValueError: if no positive k satisfies the target (infeasible).
    """
    s_frac = _as_fraction(s)
    if not 0 < s_frac <= 1:
        raise ValueError(f"entropy rate s must be in (0, 1], got {s}")
    target = _as_fraction(target_log2_epsilon)
    if target >= 0:
        raise ValueError(
            f"target log2 epsilon must be negative, got {target_log2_epsilon}"
        )
    if l < 1:
        raise ValueError(f"block length l must be >= 1, got {l}")
    k = math.floor(s_frac * l + 2 * target)
    if k <= 0:
        raise ValueError(
            f"infeasible plan: l={l} raw bits at rate s={float(s_frac):.6g} "
            f"cannot meet log2 epsilon {float(target):.6g} (k would be {k})"
        )
    return ExtractorPlan(
        l=l, k=k, s=s_frac, log2_epsilon=epsilon_bound(s_frac, l, k)
    )
