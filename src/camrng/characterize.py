"""Sensor characterization from frame stacks.

Given repeated frames of a uniformly lit sensor, these routines recover
the conversion gain (photon transfer method), measure the Fano factor
of the digitized signal, locate the shot-noise-limited operating
region, and flag unusable pixels.

All statistics are temporal: each pixel is treated as its own repeated
measurement across the stack, and per-pixel moments are aggregated
afterwards.  Spatial statistics would fold any fixed-pattern structure
into the variance.  Each stack is read once, one frame at a time, by
PixelStats.add, the one reducer of frame codes: its exact integer sums
give the per-pixel mean and variance, built once per stack, their
stack_point, the (mean code, mean pixel variance) that the Fano factor
and the gain fit take, and summary() for a stack's exact moments.  A
sweep keeps only each stack's point.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .ingest import (
    read_frames,
    read_manifest,
    stack_files,
    write_manifest,
    write_pgm,
    write_stack,
)
from .sensor import Frame, SensorConfig, predicted_fano, simulate_frame

# find_operating_region's band around F = 1.
_FANO_TOLERANCE = 0.15

# build_pixel_mask thresholds: a pixel is dead at zero temporal variance
# or below this fraction of the median, and stuck/hot within this many
# codes of code 0 or the full-well code.
_DEAD_VARIANCE_FRACTION = 0.25
_RAIL_MARGIN_CODES = 1.0


class PixelStats:
    """Per-pixel temporal sums of a frame stack, folded in one frame at a time.

    add() puts each frame into uint32 partial sums of codes and squared
    codes, which are added into the int64 sums every `per` frames and
    whenever s1 or s2 is read; `per` is the most frames of the stack's
    largest code whose squares fit in a uint32 (4104 at 10 bits, 1 at
    16), so no partial ever wraps.  Both are exact, so every moment is
    identical for any frame order, and the sums may be read mid-stack.
    mean, variance and stack_point are computed at their first read after
    an add() and kept until the next; callers must not write to them.

    Attributes:
        n_frames: frames added so far.
        bit_depth: ADC width of the frames, None before the first.
    """

    def __init__(self) -> None:
        self.n_frames, self.bit_depth, self._pending = 0, None, 0

    def add(self, frame: Frame) -> None:
        """Fold in one frame; ValueError unless it has the first frame's geometry and depth."""
        codes = frame.codes
        if self.bit_depth is None:
            self.bit_depth = frame.bit_depth
            self._per = (2**32 - 1) // ((1 << frame.bit_depth) - 1) ** 2
            self._s1, self._s2 = (np.zeros(codes.shape, np.int64) for _ in range(2))
            self._p1, self._p2, self._square = (
                np.zeros(codes.shape, np.uint32) for _ in range(3)
            )
        elif (codes.shape, frame.bit_depth) != (self._s1.shape, self.bit_depth):
            height, width = self._s1.shape
            raise ValueError(
                f"frame stack mismatch: {frame.width}x{frame.height}@{frame.bit_depth}b"
                f" vs {width}x{height}@{self.bit_depth}b"
            )
        self._p1 += codes
        np.square(codes, out=self._square, dtype=np.uint32)
        self._p2 += self._square
        self.n_frames += 1
        self._pending += 1
        if self._pending == self._per:
            self._flush()
        for moment in ("mean", "variance", "stack_point"):
            self.__dict__.pop(moment, None)

    def _flush(self) -> None:
        if self._pending:
            self._s1 += self._p1
            self._s2 += self._p2
            self._p1.fill(0)
            self._p2.fill(0)
            self._pending = 0

    @property
    def s1(self) -> np.ndarray:
        """(height, width) int64 per-pixel sum of codes."""
        self._flush()
        return self._s1

    @property
    def s2(self) -> np.ndarray:
        """(height, width) int64 per-pixel sum of squared codes."""
        self._flush()
        return self._s2

    @cached_property
    def mean(self) -> np.ndarray:
        """(height, width) float64 per-pixel mean code."""
        return self.s1 / self.n_frames

    @cached_property
    def variance(self) -> np.ndarray:
        """(height, width) float64 per-pixel unbiased sample variance."""
        n, s1 = self.n_frames, self.s1
        # Unbiased: sum((c - mean)^2) = s2 - s1^2/n, divided by n-1.
        variance = (self.s2 - s1.astype(np.float64) ** 2 / n) / (n - 1)
        return np.maximum(variance, 0.0, out=variance)

    @cached_property
    def stack_point(self) -> tuple[float, float]:
        """(mean code, mean pixel variance): both moments averaged over pixels."""
        return float(np.mean(self.mean)), float(np.mean(self.variance))

    def summary(self, usable: np.ndarray | None = None) -> tuple[float, float | None]:
        """Mean and sample variance of the stack's codes, correctly rounded.

        usable, a (height, width) bool array such as a pixel mask's
        state == 0, picks the pixels that count; None counts all.  The
        totals are exact Python integers.  The variance is None for
        fewer than 2 codes.
        """
        s1, s2 = self.s1, self.s2
        if usable is not None:
            s1, s2 = s1[usable], s2[usable]
        n = self.n_frames * s1.size
        t1 = int(s1.sum())
        # Summed over pixels, s2 can pass 2**63: add its 32-bit halves apart.
        t2 = (int((s2 >> 32).sum()) << 32) + int((s2 & 0xFFFFFFFF).sum())
        var = (n * t2 - t1 * t1) / (n * (n - 1)) if n > 1 else None
        return t1 / n, var


def pixel_stats(frames: Iterable[Frame]) -> PixelStats:
    """PixelStats of a stack of >= 2 frames, in any iterable; each is read once."""
    stats = PixelStats()
    for frame in frames:
        stats.add(frame)
    if stats.n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {stats.n_frames}")
    return stats


def fano_factor(point: tuple[float, float], config: SensorConfig) -> float:
    """Measure the Fano factor of a constant-illumination stack.

    Per-pixel temporal means and variances are averaged over all
    pixels, then F = Var(c) / (zeta * (mean(c) - zeta*offset)): the
    measured code variance over the code variance a pure Poisson signal
    of the same offset-corrected mean would have.  The offset enters in
    code units (zeta * offset) so that a clamp-free Poisson+Gaussian
    signal gives F = 1 + sigma_t**2 / n_bar and a pure Poisson signal
    gives exactly 1.

    Args:
        point: PixelStats.stack_point of >= 2 frames at fixed illumination.
        config: supplies zeta and offset.

    Returns:
        F.

    Raises:
        ValueError: mean code at or below the offset pedestal (F is
            undefined there), or zero temporal variance (degenerate
            stack, e.g. identical frames).
    """
    mean_code, variance_code = point
    pedestal = config.zeta * config.offset
    if mean_code <= pedestal:
        raise ValueError(
            f"Fano undefined: mean code {mean_code:.3f} at or below the "
            f"offset pedestal {pedestal:.3f}"
        )
    if variance_code == 0.0:
        raise ValueError(
            "Fano undefined: zero temporal variance across the stack "
            "(identical frames or fully saturated signal)"
        )
    return variance_code / (config.zeta * (mean_code - pedestal))


def estimate_zeta(
    sweep: list[tuple[tuple[float, float], float]],
) -> tuple[float, float | None]:
    """Fit the conversion gain from a photon transfer sweep.

    In the shot-noise-limited region Var(c) = zeta**2 (n_bar + sigma_t**2)
    and mean(c) = zeta (n_bar + offset), so variance against mean is a
    line with slope zeta; technical noise and offset land in the
    intercept.

    Args:
        sweep: (PixelStats.stack_point of a frame stack, intensity) pairs
            at >= 2 distinct intensities, all inside the linear region.

    Returns:
        (fitted_zeta, fit_residual): the least-squares slope, in codes
        per electron, and the relative RMS of the variance residuals;
        fit_residual is None when a point's variance is 0 (a saturated
        or constant stack), which has no relative residual.
    """
    if len(sweep) < 2:
        raise ValueError(f"need >= 2 sweep points, got {len(sweep)}")
    intensities = [nb for _, nb in sweep]
    if len(set(intensities)) < 2:
        raise ValueError("sweep intensities are all equal; slope is undefined")
    means, variances = np.array([point for point, _ in sweep]).T
    if np.ptp(means) == 0:
        raise ValueError("mean codes identical across sweep; slope is undefined")
    slope, intercept = np.polyfit(means, variances, 1)
    predicted = slope * means + intercept
    if np.any(variances == 0):
        fit_residual = None
    else:
        fit_residual = float(np.sqrt(np.mean(((predicted - variances) / variances) ** 2)))
    if slope <= 0:
        raise ValueError(f"fitted slope {slope:.4g} is not positive; sweep "
                         "is outside the shot-noise-limited region")
    return float(slope), fit_residual


def find_operating_region(
    fano_curve: list[tuple[float, float]],
) -> tuple[float, float] | None:
    """Widest contiguous intensity interval with |F - 1| <= _FANO_TOLERANCE.

    Args:
        fano_curve: (n_bar, F) pairs sorted by rising n_bar.

    Returns:
        (n_min, n_max) of the widest qualifying run, or None when no
        point qualifies.
    """
    n_bars = [nb for nb, _ in fano_curve]
    if any(b < a for a, b in zip(n_bars, n_bars[1:])):
        raise ValueError("fano_curve must be sorted by rising intensity")

    best: tuple[float, float] | None = None
    best_width = -1.0
    run_start: int | None = None
    for i, (nb, fano) in enumerate(fano_curve + [(None, None)]):
        ok = fano is not None and abs(fano - 1.0) <= _FANO_TOLERANCE
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            lo, hi = n_bars[run_start], n_bars[i - 1]
            if hi - lo > best_width:
                best, best_width = (lo, hi), hi - lo
            run_start = None
    return best


def build_pixel_mask(stats: PixelStats, config: SensorConfig) -> np.ndarray:
    """Flag pixels unusable for randomness generation.

    A pixel is flagged when its temporal variance is zero or falls below
    0.25x the median variance (dead: it does not respond), or its mean
    sits within one code of a clamp (stuck at 0, hot at the full-well
    code, where clamping removes the noise).  A pixel that meets more
    than one condition takes the first of hot, stuck, dead.

    Args:
        stats: per-pixel moments from >= 10 uniformly lit frames.
        config: supplies the full-well code.

    Returns:
        The mask's state, a (height, width) uint8 array written as a
        2-bit PGM: 0 usable, and a flagged pixel's reason, 1 dead,
        2 stuck or 3 hot.
    """
    if stats.n_frames < 10:
        raise ValueError(
            f"pixel mask needs >= 10 frames of statistics, got {stats.n_frames}"
        )
    mean, variance = stats.mean, stats.variance
    # the median is 0 when half the pixels or more do not respond
    median = float(np.median(variance))
    dead = (variance == 0) | (variance < _DEAD_VARIANCE_FRACTION * median)
    stuck = mean <= _RAIL_MARGIN_CODES
    hot = mean >= config.full_well_code - _RAIL_MARGIN_CODES
    return np.select([hot, stuck, dead], [3, 2, 1], 0).astype(np.uint8)


def simulate_stacks(
    config: SensorConfig, n_bars: list[float], sweep: bool, n_frames: int,
    width: int, height: int, seed: int, fmt: str, out_dir: str,
) -> tuple[dict, str | None]:
    """Run `camrng simulate`: its `--json` record, and a sweep's manifest path or None.

    Frame j of stack i is frame_id i * n_frames + j, written as soon as
    it is simulated and summed on its way out; out_dir is made with the
    first frame.
    """
    stacks = []
    for i, n_bar in enumerate(n_bars):
        files = stack_files(fmt, n_frames, i if sweep else None)
        frames = (
            simulate_frame(config, n_bar, width, height, seed, frame_id=i * n_frames + j)
            for j in range(n_frames)
        )
        stats = PixelStats()
        for frame in write_stack(frames, out_dir, files, {"n_bar": n_bar, "seed": seed}):
            stats.add(frame)
        mean, var = stats.summary()
        stacks.append(
            {
                "n_bar": n_bar,
                "files": files,
                "mean_code": mean,
                "variance_code": var,
                "predicted_fano": predicted_fano(config, n_bar),
            }
        )
    record = {
        "command": "simulate",
        "config": config.to_dict(),
        "seed": seed,
        "out": out_dir,
        "format": fmt,
        "stacks": stacks,
    }
    return record, write_manifest(out_dir, record) if sweep else None


def characterize_stack(paths, config: SensorConfig, out_dir: str) -> dict:
    """Run `camrng characterize` on one stack; return its `--json` record.

    out_dir is created once every frame is read; the pixel mask's state
    goes to out_dir/mask.pgm, or why build_pixel_mask refused it to mask_error.
    """
    stats = pixel_stats(read_frames(paths))
    os.makedirs(out_dir, exist_ok=True)
    mean, variance = point = stats.stack_point
    record = {
        "command": "characterize",
        "config": config.to_dict(),
        "n_frames": stats.n_frames,
        "mean_code": mean,
        "mean_pixel_variance": variance,
    }
    try:
        fano = fano_factor(point, config)
    except ValueError as exc:
        record["fano"], record["fano_error"] = None, str(exc)
    else:
        record["fano"] = {"mean_code": mean, "variance_code": variance, "fano": fano}
    try:
        state = build_pixel_mask(stats, config)
    except ValueError as exc:
        record["mask"], record["mask_error"] = None, str(exc)
    else:
        mask_path = os.path.join(out_dir, "mask.pgm")
        write_pgm(Frame(state, 2), mask_path)
        record["mask"] = {"path": mask_path, "n_flagged": int(np.count_nonzero(state))}
    return record


def characterize_sweep(manifest: str, config: SensorConfig, out_dir: str) -> dict:
    """Run `camrng characterize --manifest`; return its `--json` record.

    Each stack is read once and only its point is kept, so one stack's
    sums are held at a time.  out_dir is created once every stack is
    read; fano_points holds the stacks that have a Fano factor.
    """
    sweep = sorted(
        (
            (pixel_stats(read_frames(paths)).stack_point, n_bar)
            for paths, n_bar in read_manifest(manifest)
        ),
        key=lambda pair: pair[1],
    )
    points, skipped = [], []
    for point, n_bar in sweep:
        try:
            fano = fano_factor(point, config)
        except ValueError as exc:
            skipped.append({"n_bar": n_bar, "reason": str(exc)})
        else:
            mean, variance = point
            points.append(
                {"n_bar": n_bar, "mean_code": mean, "variance_code": variance, "fano": fano}
            )
    fitted_zeta, fit_residual = estimate_zeta(sweep)
    curve = [(p["n_bar"], p["fano"]) for p in points]
    region = find_operating_region(curve) if curve else None
    os.makedirs(out_dir, exist_ok=True)
    return {
        "command": "characterize",
        "config": config.to_dict(),
        "fitted_zeta": fitted_zeta,
        "fit_residual": fit_residual,
        "operating_region": list(region) if region else None,
        "fano_tolerance": _FANO_TOLERANCE,
        "fano_points": points,
        "skipped_points": skipped,
    }
