"""Benchmark workloads: the CLI steps of one pass, their inputs, and output checks.

Every workload runs only through `camrng.cli.main(argv)`, so library API
can change underneath without editing the benchmark.  Inputs derive from
the workload seed alone.  Checks use `oracle` and never the code under
test; at DEFAULT_SEED they also compare output digests recorded in
digests.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

import oracle

# The acceptance criterion-7 seed.
DEFAULT_SEED = 20260819

# Blocks whose parities the oracle recomputes in each pass, besides the
# first and the last block.
_SAMPLED_BLOCKS = 24

_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass(frozen=True)
class Step:
    """One `camrng` invocation; expect "ok" needs exit 0, "verdict" the battery's."""

    argv: tuple[str, ...]
    expect: str = "ok"

    @property
    def command(self) -> str:
        return self.argv[0]


def matrix_seed(seed: int) -> bytes:
    return hashlib.sha256(b"perfbench-matrix" + seed.to_bytes(8, "big")).digest()


def parse_json(text: str | None) -> dict:
    """The JSON object a `--json` step printed, or {} if it printed none."""
    try:
        value = json.loads(text or "")
    except json.JSONDecodeError:
        return {}
    return value if isinstance(value, dict) else {}


def _close(a, b, rel: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Workload:
    """One pass = `steps` run in order in a fresh process, then `check`."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.size = size
        self.pass_dir = os.path.join(workdir, "pass")
        self.input_dir = os.path.join(workdir, "input")
        self._rows = None

    def p(self, *parts: str) -> str:
        return os.path.join(self.pass_dir, *parts)

    def prepare(self) -> None:
        """Write the seeded inputs the steps read (outside the pass directory)."""

    def expected_digests(self) -> dict | None:
        if self.seed != DEFAULT_SEED or self.size != "full":
            return None
        with open(_DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)[self.name]

    def _check_extract(
        self, errors: list, frames: list[np.ndarray], depth: int, summary: dict, l: int, k: int
    ) -> bytes:
        """Check `random.bin` block by block against the naive oracle."""
        codes = np.concatenate([c.ravel() for c in frames])
        n_blocks = codes.size * depth // l
        if summary.get("output_bits") != n_blocks * k:
            errors.append(f"extract reports {summary.get('output_bits')} bits, expected {n_blocks * k}")
        with open(self.p("random.bin"), "rb") as fh:
            data = fh.read()
        if len(data) != (n_blocks * k + 7) // 8:
            errors.append(f"random.bin has {len(data)} bytes for {n_blocks * k} bits")
            return data
        if self._rows is None:
            self._rows = oracle.matrix_rows(matrix_seed(self.seed), k, l)
        rng = np.random.default_rng(self.seed)
        sample = {0, n_blocks - 1}
        sample.update(rng.choice(n_blocks, min(n_blocks, _SAMPLED_BLOCKS), replace=False).tolist())
        for b in sorted(sample):
            want = oracle.parities(self._rows, oracle.raw_bits(codes, depth, b * l, l))
            if not np.array_equal(want, oracle.msb_bits(data, b * k, k)):
                errors.append(f"block {b}: output parities differ from the oracle")
        return data

    def check(self, outputs: list[str | None]) -> tuple[list[str], str]:
        """Errors found in the pass outputs, and a digest of its output bytes."""
        raise NotImplementedError


class NokiaC7(Workload):
    """The README CLI quick start on the criterion-7 stack; every layer carries load."""

    name = "nokia-c7"
    SIZES = {"full": (48, 800, 625), "tiny": (12, 200, 100)}
    L, K = 2000, 500
    ZETA, OFFSET = 1.9, -6.0  # the nokia-n9 preset's gain and dark offset

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.frames, self.width, self.height = self.SIZES[size]
        self.frame_paths = [self.p("frames", f"frame_{j:04d}.pgm") for j in range(self.frames)]
        raw = self.frames * self.width * self.height * 10
        self.product_bits = raw // self.L * self.K
        self.steps = [
            Step(("simulate", "--preset", "nokia-n9", "--nbar", "410",
                  "--frames", str(self.frames), "--width", str(self.width),
                  "--height", str(self.height), "--seed", str(seed),
                  "--out", self.p("frames"), "--json")),
            Step(("characterize", "--preset", "nokia-n9", *self.frame_paths,
                  "--out", self.p("ptc"), "--json")),
            Step(("extract", "--preset", "nokia-n9", *self.frame_paths,
                  "--l", str(self.L), "--k", str(self.K),
                  "--matrix-seed", matrix_seed(seed).hex(),
                  "--out", self.p("random.bin"), "--json")),
            Step(("test", self.p("random.bin"), "--json"), expect="verdict"),
        ]

    def check(self, outputs):
        errors: list[str] = []
        loaded = [oracle.read_pgm(path) for path in self.frame_paths]
        frames = [codes for codes, _ in loaded]
        mean, variance = oracle.stack_point(frames)
        fano = variance / (self.ZETA * (mean - self.ZETA * self.OFFSET))
        report = parse_json(outputs[1])
        for key, want in (("mean_code", mean), ("mean_pixel_variance", variance)):
            if not _close(report.get(key), want, 1e-9):
                errors.append(f"characterize {key} {report.get(key)} differs from the oracle {want}")
        if not _close((report.get("fano") or {}).get("fano"), fano, 1e-9):
            errors.append(f"characterize fano differs from the oracle {fano}")

        data = self._check_extract(
            errors, frames, loaded[0][1], parse_json(outputs[2]), self.L, self.K
        )
        report = parse_json(outputs[3])
        if report.get("n_bits") != 8 * len(data):
            errors.append(f"battery tested {report.get('n_bits')} bits of {8 * len(data)}")
        mono = next((r for r in report.get("results", []) if r.get("name") == "monobit"), {})
        if not _close(mono.get("statistic"), oracle.monobit_z(data), 1e-9):
            errors.append("battery monobit statistic differs from the popcount oracle")
        digest = hashlib.sha256(data).hexdigest()
        want = self.expected_digests()
        if want and want["random.bin"] != digest:
            errors.append(f"random.bin digest {digest} differs from the recorded one")
        return errors, digest


class Battery240M(Workload):
    """Battery and export only, on bytes the benchmark generates."""

    name = "battery-240m"
    SIZES = {"full": 30_000_000, "tiny": 200_000}

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.n_bytes = self.SIZES[size]
        self.product_bits = 8 * self.n_bytes
        self.input = os.path.join(self.input_dir, "in.bin")
        self.steps = [
            Step(("test", self.input, "--export", self.p("out.bin"), "--json"),
                 expect="verdict"),
        ]

    def prepare(self):
        os.makedirs(self.input_dir, exist_ok=True)
        with open(self.input, "wb") as fh:
            fh.write(np.random.default_rng(self.seed).bytes(self.n_bytes))

    def check(self, outputs):
        errors: list[str] = []
        with open(self.input, "rb") as fh:
            data = fh.read()
        with open(self.p("out.bin"), "rb") as fh:
            exported = fh.read()
        if exported != data:
            errors.append("exported bytes differ from the tested input")
        report = parse_json(outputs[0])
        if report.get("n_bits") != 8 * len(data):
            errors.append(f"battery tested {report.get('n_bits')} bits of {8 * len(data)}")
        results = report.get("results", [])
        mono = next((r for r in results if r.get("name") == "monobit"), {})
        if not _close(mono.get("statistic"), oracle.monobit_z(data), 1e-9):
            errors.append("battery monobit statistic differs from the popcount oracle")
        verdicts = [[r.get("name"), r.get("passed")] for r in results]
        want = self.expected_digests()
        if want and want["verdicts"] != verdicts:
            errors.append(f"battery verdicts {verdicts} differ from the recorded ones")
        return errors, hashlib.sha256(exported).hexdigest()


class AtikL8192(Workload):
    """Sweep, characterize, plan, then extraction on the row path."""

    name = "atik-l8192"
    SIZES = {"full": (16, 128, 8, 800, 625), "tiny": (4, 32, 2, 200, 100)}
    SWEEP = (500, 1000, 2000, 4000, 8000)
    L, K = 8192, 3331

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.sweep_frames, side, self.frames, width, height = self.SIZES[size]
        self.frame_paths = [self.p("frames", f"frame_{j:04d}.pgm") for j in range(self.frames)]
        raw = self.frames * width * height * 16
        self.product_bits = raw // self.L * self.K
        self.steps = [
            Step(("simulate", "--preset", "atik383l",
                  "--sweep", ",".join(str(nb) for nb in self.SWEEP),
                  "--frames", str(self.sweep_frames), "--width", str(side),
                  "--height", str(side), "--seed", str(seed),
                  "--out", self.p("sweep"), "--json")),
            Step(("characterize", "--preset", "atik383l",
                  "--manifest", self.p("sweep", "manifest.json"),
                  "--out", self.p("ptc"), "--json")),
            Step(("plan", "--nbar", "4000", "--bits", "16", "--l", str(self.L),
                  "--target", "-390", "--json")),
            Step(("simulate", "--preset", "atik383l", "--nbar", "4000",
                  "--frames", str(self.frames), "--width", str(width),
                  "--height", str(height), "--seed", str(seed),
                  "--out", self.p("frames"), "--json")),
            Step(("extract", "--preset", "atik383l", *self.frame_paths,
                  "--l", str(self.L), "--k", str(self.K),
                  "--matrix-seed", matrix_seed(seed).hex(),
                  "--out", self.p("random.bin"), "--json")),
        ]

    def check(self, outputs):
        errors: list[str] = []
        points = [
            oracle.stack_point([
                oracle.read_pgm(self.p("sweep", f"nbar_{i:02d}_frame_{j:04d}.pgm"))[0]
                for j in range(self.sweep_frames)
            ])
            for i in range(len(self.SWEEP))
        ]
        zeta = parse_json(outputs[1]).get("fitted_zeta")
        if not _close(zeta, oracle.ptc_slope(points), 1e-6):
            errors.append(f"fitted zeta {zeta} differs from the oracle slope")
        k = parse_json(outputs[2]).get("k")
        if k != self.K:
            errors.append(f"plan gives k={k}, expected {self.K}")
        loaded = [oracle.read_pgm(path) for path in self.frame_paths]
        data = self._check_extract(
            errors, [c for c, _ in loaded], loaded[0][1], parse_json(outputs[4]), self.L, self.K
        )
        digest = hashlib.sha256(data).hexdigest()
        want = self.expected_digests()
        if want and (want["random.bin"] != digest or want["fitted_zeta"] != zeta):
            errors.append(
                f"random.bin digest {digest} or fitted zeta {zeta} differs from the recorded ones"
            )
        return errors, digest


WORKLOADS = {w.name: w for w in (NokiaC7, Battery240M, AtikL8192)}
