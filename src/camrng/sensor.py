"""Photon-counting camera signal chain simulator.

Models the per-pixel measurement chain of a digital image sensor used as
a quantum randomness source:

    light --> Poisson absorption --> + technical noise --> + offset
          --> gain --> round half up --> clamp to [0, full-well code]

The absorbed photon number n per pixel is Poisson with mean n_bar (the
quantum part, variance n_bar).  Readout electronics add a Gaussian term
t with standard deviation sigma_t electrons plus a fixed dark offset.
The electron total is scaled by the conversion gain zeta (codes per
electron), rounded half up, and clamped once to [0, full_well_code],
the code that every total at or above the well reads.

Simulation is deterministic: all randomness is derived from a uint64
seed through counter-based streams keyed by (seed, frame id, pixel
block), so a frame is a pure function of its arguments and identical no
matter how many workers generate it.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

# Pixels are simulated in fixed-size blocks, each with its own
# counter-derived random stream.  The block size is part of the
# determinism contract: changing it changes simulated frames.
_PIXEL_BLOCK = 1 << 16

# Simulated frames larger than this are rejected as likely mistakes.
_MAX_PIXELS = 1 << 31

# SensorConfig.to_dict's keys, one per field in field order.
_CONFIG_KEYS = ("name", "zeta", "sigma_t_electrons", "offset_electrons",
                "full_well_electrons", "bit_depth")


def worker_count() -> int:
    """Worker cap: QRNG_THREADS if set, else the CPUs this process may run on."""
    env = os.environ.get("QRNG_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"QRNG_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class SensorConfig:
    """Static description of one sensor operating mode.

    Attributes:
        name: preset or config label.
        zeta: conversion gain, output codes per electron (> 0).
        sigma_t: technical (readout) noise standard deviation, electrons.
        offset: dark-level offset, electrons; negative values are allowed
            and make low signals clip at zero code.
        full_well: electron capacity of a pixel (> 0).
        bit_depth: ADC output width in bits, 1..16.
    """

    name: str
    zeta: float
    sigma_t: float
    offset: float
    full_well: float
    bit_depth: int

    def __post_init__(self):
        for name in ("zeta", "sigma_t", "offset", "full_well"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.zeta <= 0:
            raise ValueError(f"zeta must be > 0, got {self.zeta}")
        if self.sigma_t < 0:
            raise ValueError(f"sigma_t must be >= 0, got {self.sigma_t}")
        if self.full_well <= 0:
            raise ValueError(f"full_well must be > 0, got {self.full_well}")
        if not 1 <= self.bit_depth <= 16:
            raise ValueError(f"bit_depth must be in 1..16, got {self.bit_depth}")
        if self.zeta < 1:
            # Gain below one code per electron merges adjacent electron
            # counts into one code, so the per-code quantum entropy
            # accounting no longer holds.
            warnings.warn(
                f"config {self.name!r}: zeta={self.zeta} < 1 cannot resolve "
                "single electrons; quantum entropy estimates are invalid",
                UserWarning,
                stacklevel=2,
            )

    @property
    def max_code(self) -> int:
        return (1 << self.bit_depth) - 1

    @property
    def full_well_code(self) -> int:
        """min(max_code, floor(full_well * zeta + 0.5)): what the well reads."""
        return math.floor(min(self.max_code, self.full_well * self.zeta + 0.5))

    def to_dict(self) -> dict:
        return dict(zip(_CONFIG_KEYS, astuple(self)))


# Canonical presets: a cooled 16-bit astronomy CCD and a 10-bit phone
# camera sensor.
PRESETS = {
    "atik383l": SensorConfig(
        name="atik383l",
        zeta=2.3,
        sigma_t=10.0,
        offset=144.0,
        full_well=2.0e4,
        bit_depth=16,
    ),
    "nokia-n9": SensorConfig(
        name="nokia-n9",
        zeta=1.9,
        sigma_t=3.3,
        offset=-6.0,
        full_well=500.0,
        bit_depth=10,
    ),
}


def get_preset(name: str) -> SensorConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def predicted_fano(config: SensorConfig, n_bar: float) -> float | None:
    """Clamp-free shot + technical noise Fano factor at n_bar absorbed photons; None at 0."""
    return 1.0 + config.sigma_t**2 / n_bar if n_bar > 0 else None


@dataclass
class Frame:
    """One captured or simulated image.

    Attributes:
        codes: (height, width) array of ADC output codes, row-major; the
            frame's width and height are read from its shape.
        bit_depth: ADC width the codes were produced with.
    """

    codes: np.ndarray
    bit_depth: int

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    @property
    def height(self) -> int:
        return self.codes.shape[0]

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2:
            raise ValueError(f"codes must be (height, width), got shape {codes.shape}")
        if not codes.size:
            raise ValueError(
                f"frame dimensions must be positive, got {codes.shape[1]}x{codes.shape[0]}"
            )
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
        if not 1 <= self.bit_depth <= 16:
            raise ValueError(f"bit_depth must be in 1..16, got {self.bit_depth}")
        lo, hi = int(codes.min()), int(codes.max())
        if lo < 0 or hi > (1 << self.bit_depth) - 1:
            raise ValueError(f"codes [{lo}, {hi}] exceed {self.bit_depth}-bit range")
        self.codes = codes.astype(np.uint16, copy=False)


def digitize_electrons(electrons: np.ndarray, config: SensorConfig) -> np.ndarray:
    """Scale electron totals by zeta, round half up, clamp to [0, full_well_code].

    Float rounding is monotone, so one clamp of the scaled value gives the
    codes of clamping to [0, full_well] first and to the ADC range last.
    The steps run in place on one temporary; electrons is left untouched.
    """
    e = electrons * config.zeta
    # After the clamp e >= 0, so the uint16 cast truncates it to floor(e):
    # the scaled total rounds half up (np.round would round ties to even).
    e += 0.5
    np.clip(e, 0, config.full_well_code, out=e)
    return e.astype(np.uint16)


def _block_rng(seed: int, frame_id: int, block: int) -> np.random.Generator:
    """Random stream for one pixel block of one frame.

    SeedSequence hashes (seed, frame_id, block) into independent Philox
    counter-based streams, so blocks can be generated in any order or in
    parallel with identical results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(frame_id, block))
    return np.random.Generator(np.random.Philox(ss))


def _simulate_block(
    config: SensorConfig,
    n_bar: float,
    seed: int,
    frame_id: int,
    block: int,
    out: np.ndarray,
) -> None:
    """Simulate one pixel block into out, a slice of the frame's codes.

    The normal draw is standard_normal() * sigma_t on the block's stream,
    bit-identical to normal(0, sigma_t): numpy forms loc + scale * z from
    the same z, and adding 0.0 or reordering the sums changes no bit.  At
    sigma_t = 0 it adds exact zeros, and it is the stream's last draw.
    """
    rng = _block_rng(seed, frame_id, block)
    photons = rng.poisson(n_bar, out.size)
    electrons = rng.standard_normal(out.size)
    electrons *= config.sigma_t
    electrons += photons
    electrons += config.offset
    out[:] = digitize_electrons(electrons, config)


def simulate_frame(
    config: SensorConfig,
    n_bar: float,
    width: int,
    height: int,
    seed: int,
    *,
    frame_id: int = 0,
    n_workers: int | None = None,
) -> Frame:
    """Simulate one frame of the full detector chain.

    The frame is a pure function of (config, n_bar, width, height, seed,
    frame_id).  frame_id distinguishes frames of a stack sharing one
    seed.  Each pixel block is drawn into its own slice of the frame, so
    n_workers only affects wall-clock time, never the output.

    Args:
        config: sensor operating mode.
        n_bar: mean absorbed photons per pixel.
        width, height: frame geometry, both > 0.
        seed: stream seed (uint64 range).
        frame_id: index of this frame within a multi-frame acquisition.
        n_workers: parallel workers; defaults to worker_count().

    Returns:
        Frame with simulated codes.
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"frame dimensions must be positive, got {width}x{height}")
    n_pixels = width * height
    if n_pixels > _MAX_PIXELS:
        raise ValueError(f"frame of {n_pixels} pixels exceeds limit {_MAX_PIXELS}")
    if n_bar < 0:
        raise ValueError(f"n_bar must be >= 0, got {n_bar}")

    n_blocks = (n_pixels + _PIXEL_BLOCK - 1) // _PIXEL_BLOCK
    codes = np.empty(n_pixels, dtype=np.uint16)

    def fill(b: int) -> None:
        lo = b * _PIXEL_BLOCK
        _simulate_block(
            config, n_bar, seed, frame_id, b, codes[lo : lo + _PIXEL_BLOCK]
        )

    if n_workers is None:
        n_workers = worker_count()
    with ThreadPoolExecutor(max_workers=max(1, n_workers)) as pool:
        list(pool.map(fill, range(n_blocks)))
    return Frame(codes.reshape(height, width), config.bit_depth)


def simulate_stack(
    config: SensorConfig,
    n_bar: float,
    width: int,
    height: int,
    n_frames: int,
    seed: int,
) -> list[Frame]:
    """Simulate n_frames consecutive frames at one intensity.

    Frame i uses frame_id=i under the shared seed, so stacks are
    reproducible and extendable without re-rolling earlier frames.
    """
    if n_frames <= 0:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    return [
        simulate_frame(config, n_bar, width, height, seed, frame_id=i)
        for i in range(n_frames)
    ]

