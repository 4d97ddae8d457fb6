"""Command-line pipeline driver.

Subcommands: simulate | characterize | entropy | plan | extract | test.

Exit codes are a stable scripting contract:
    0  success
    1  runtime failure (I/O, degenerate data, failed test battery)
    2  usage or validation error (bad flags, violated security margin)

Every command is deterministic given its explicit seeds; the tool draws
no entropy of its own.  QRNG_THREADS caps the threads of simulate;
extract runs on one thread (see camrng.extractor).

OpenBLAS runs on one thread unless the caller sets OPENBLAS_NUM_THREADS.
numpy and scipy each load their own copy, and each copy would otherwise
start worker threads that spin on the CPU while the process starts, for
BLAS calls (one short dot product, one line fit) too small to share.
The setting must precede the first numpy import, which is why the
package __init__ imports no submodule eagerly.

glibc's mmap threshold is fixed at 32 MiB and its trim threshold at
64 MiB, the ceilings its own dynamic policy climbs towards, so freed
memory stays in the heap for reuse.  Left dynamic, both stall near
1-2 MB, and every freed numpy temporary of about a megabyte (frames,
draws, read buffers, extract batches) goes back to the kernel, to be
page-faulted in again by the next one.  Where libc has no mallopt
nothing is set; the library never touches the allocator.
"""

from __future__ import annotations

import ctypes
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _set_malloc_policy() -> None:
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_set_malloc_policy()

import argparse
import contextlib
import sys

import numpy as np

from .characterize import characterize_stack, characterize_sweep, simulate_stacks
from .entropy import (
    _MAX_N_BAR,
    ExtractorPlan,
    _as_fraction,
    entropy_report,
    epsilon_bound,
    plan_extractor,
)
from .extractor import (
    DEFAULT_K,
    DEFAULT_L,
    DEFAULT_MATRIX_SEED,
    MAX_BLOCK_BITS,
    extract_frames,
    generate_matrix,
)
from .ingest import (
    FramePathError,
    dumps,
    load_sensor_config,
    read_frames,
    read_pgm,
    write_json,
)
from .sensor import PRESETS, SensorConfig, get_preset, worker_count
from .stattests import DEFAULT_ALPHA, run_battery

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Invalid invocation; maps to exit code 2."""


def _emit(args: argparse.Namespace, summary: dict, text_lines: list[str]) -> None:
    """Print the human or machine form of a command summary."""
    if args.json:
        sys.stdout.write(dumps(summary))
    else:
        for line in text_lines:
            print(line)


def _sensor(args: argparse.Namespace) -> SensorConfig:
    if args.config:
        return load_sensor_config(args.config)
    return get_preset(args.preset)


def _number(cast, bound: str, ok):
    """An argparse type: cast(text), which must be finite and pass ok (see bound)."""

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (-np.inf < value < np.inf and ok(value)):
            message = f"must be finite and {bound}, got {text}"
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_COUNT = _number(int, ">= 1", lambda v: v >= 1)
# Every command's n_bar: the range over which the Poisson entropy is
# computed, and a bound far below numpy's Poisson limit (about 9.2e18).
_NBAR = _number(float, "in [0, 1e6]", lambda v: 0 <= v <= _MAX_N_BAR)
_BIT_DEPTH = _number(int, "in 1..16", lambda v: 1 <= v <= 16)


def _hex_seed(text: str) -> bytes:
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex string: {exc}") from exc
    if len(raw) != 32:
        raise argparse.ArgumentTypeError(
            f"matrix seed must be 32 bytes (64 hex digits), got {len(raw)}"
        )
    return raw


def _sweep(text: str) -> list[float]:
    n_bars = [_NBAR(t) for t in text.split(",") if t.strip()]
    if not n_bars:
        raise argparse.ArgumentTypeError("needs at least one n_bar")
    return n_bars


def cmd_simulate(args: argparse.Namespace) -> int:
    sensor = _sensor(args)
    summary, manifest = simulate_stacks(
        sensor, args.sweep or [args.nbar], bool(args.sweep), args.frames,
        args.width, args.height, args.seed, args.format, args.out,
    )
    text = []
    for stack in summary["stacks"]:
        var, pf = stack["variance_code"], stack["predicted_fano"]
        text.append(
            f"n_bar={stack['n_bar']:g}: {args.frames} frame(s) "
            f"{args.width}x{args.height}, mean={stack['mean_code']:.2f} "
            f"var={'n/a' if var is None else f'{var:.2f}'} "
            f"predicted_fano={'n/a' if pf is None else f'{pf:.4f}'}"
        )
    if manifest is not None:
        text.append(f"sweep manifest: {manifest}")
    _emit(args, summary, text)
    return EXIT_OK


def cmd_characterize(args: argparse.Namespace) -> int:
    sensor = _sensor(args)
    if args.manifest and args.inputs:
        raise UsageError("pass frame files or --manifest, not both")
    if args.manifest:
        report = characterize_sweep(args.manifest, sensor, args.out)
        region, residual = report["operating_region"], report["fit_residual"]
        text = [
            f"fitted zeta = {report['fitted_zeta']:.4f} (relative residual "
            f"{'inf' if residual is None else f'{residual:.3g}'})",
            "operating region: "
            + (f"[{region[0]:g}, {region[1]:g}]" if region else "none found"),
        ]
    else:
        report = characterize_stack(args.inputs, sensor, args.out)
        fano, mask = report["fano"], report["mask"]
        text = [
            f"{report['n_frames']} frame(s), mean code {report['mean_code']:.2f}, "
            f"mean pixel variance {report['mean_pixel_variance']:.2f}",
            f"fano factor = {fano['fano']:.4f}" if fano
            else f"fano factor unavailable: {report['fano_error']}",
            f"pixel mask: {mask['path']} ({mask['n_flagged']} flagged)" if mask
            else report["mask_error"],
        ]
    report_path = os.path.join(args.out, "report.json")
    write_json(report_path, report)
    text.append(f"report: {report_path}")
    _emit(args, report, text)
    return EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    rep = entropy_report(args.nbar, args.bits)
    summary = {"command": "entropy", **rep.to_dict()}
    _emit(
        args,
        summary,
        [
            f"H = {rep.h_quantum:.6f} bits per sample",
            f"s = {rep.s:.6f} entropy per raw bit at {rep.bit_depth}-bit depth",
        ],
    )
    return EXIT_OK


def _resolve_s(args: argparse.Namespace) -> float:
    if args.s is not None:
        if args.nbar is not None or args.bits is not None:
            raise UsageError("pass --s, or --nbar with --bits, not both")
        return args.s
    if args.nbar is None or args.bits is None:
        raise UsageError("pass --s, or --nbar with --bits to compute it")
    return entropy_report(args.nbar, args.bits).s


def cmd_plan(args: argparse.Namespace) -> int:
    s = _resolve_s(args)
    if (args.k is None) == (args.target is None):
        raise UsageError("pass exactly one of --k (evaluate) or --target (plan)")
    if args.k is not None:
        if args.k >= args.l:
            raise UsageError(f"need k < l, got k={args.k} l={args.l}")
        plan = ExtractorPlan(
            args.l, args.k, _as_fraction(s), epsilon_bound(s, args.l, args.k)
        )
        text = [
            f"log2(epsilon) <= {float(plan.log2_epsilon):g}  "
            f"(exactly {plan.log2_epsilon})",
            f"compression factor l/k = {plan.compression_factor:g}",
        ]
    else:
        plan = plan_extractor(s, args.target, args.l)
        text = [
            f"k = {plan.k} output bits per {plan.l}-bit block",
            f"achieved log2(epsilon) <= {float(plan.log2_epsilon):g}",
            f"compression factor l/k = {plan.compression_factor:g}",
        ]
    _emit(args, {"command": "plan", **plan.to_dict()}, text)
    return EXIT_OK


@contextlib.contextmanager
def _part_file(path: str):
    """Yield a temp path next to path; whatever is not renamed onto path is deleted.

    Writing there and calling os.replace(tmp, path) only once the output
    is complete and accepted leaves an existing path untouched on any
    refusal or error.
    """
    tmp_path = f"{path}.{os.getpid()}.part"
    try:
        yield tmp_path
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)


def cmd_extract(args: argparse.Namespace) -> int:
    sensor = _sensor(args)

    usable = None
    if args.mask:
        frame = read_pgm(args.mask)
        if frame.bit_depth != 2:
            raise ValueError(f"{args.mask}: a pixel mask is 2-bit, not {frame.bit_depth}-bit")
        usable = frame.codes == 0
        if not usable.any():
            raise ValueError("pixel mask excludes every pixel")

    if not args.k < args.l <= MAX_BLOCK_BITS:
        raise UsageError(f"need k < l <= {MAX_BLOCK_BITS}, got k={args.k} l={args.l}")
    matrix = generate_matrix(args.matrix_seed, args.k, args.l)

    # Output goes to a temp file next to --out, which is renamed to
    # --out only once the output is certified or forced: a refused run
    # writes nothing.
    with _part_file(args.out) as tmp_path:
        with open(tmp_path, "wb") as fh:
            summary, refusal = extract_frames(
                read_frames(args.inputs), sensor, matrix, usable, fh
            )
        if refusal is not None and not args.force:
            raise UsageError(refusal)
        os.replace(tmp_path, args.out)

    summary["out"] = args.out
    text = [
        "{frames} frame(s) -> {raw_bits} raw bits",
        "{blocks_processed} blocks of l={l} -> {output_bits} output bits (k={k}); "
        "{residual_bits_discarded} residual bits discarded",
        "estimated n_bar = {estimated_n_bar:.2f} e-, s = {s:.4f}",
        "log2(epsilon) <= {log2_epsilon:g}"
        if summary["log2_epsilon"] is not None
        else "security margin VIOLATED (--force); output not certified",
        "wrote {output_bytes} bytes to {out}",
    ]
    _emit(args, summary, [line.format_map(summary) for line in text])
    return EXIT_OK


# Bytes per read of `camrng test`, which never holds its input whole.
_READ_BYTES = 1 << 20


def cmd_test(args: argparse.Namespace) -> int:
    # --bits N needs only the first ceil(N/8) bytes.  A buffered read
    # returns short only at end of file, so it also works on a pipe.
    n_bytes = None if args.bits is None else (args.bits + 7) // 8
    reading, writing = f"reading {args.input}", f"writing {args.export}"

    def named(what, op, *op_args):
        """op(*op_args), naming the file in any OSError it raises."""
        try:
            return op(*op_args)
        except OSError as exc:
            raise OSError(f"{what}: {exc}") from exc

    def chunks(fh, out):
        """fh's bytes as tested and exported: under --bits, n_bytes, the last masked."""
        buf = np.empty(_READ_BYTES, np.uint8)
        read = 0
        while n_bytes is None or read < n_bytes:
            size = _READ_BYTES if n_bytes is None else min(_READ_BYTES, n_bytes - read)
            k = named(reading, fh.readinto, memoryview(buf)[:size])
            if not k:
                break
            read += k
            chunk = buf[:k]
            if read == n_bytes and args.bits % 8:
                chunk[-1] &= 0xFF00 >> args.bits % 8 & 0xFF
            if out is not None:
                named(writing, out.write, chunk)
            yield chunk
        if n_bytes is not None and read < n_bytes:
            raise UsageError(
                f"--bits {args.bits} exceeds the {8 * read} bits in the file"
            )

    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(named(reading, open, args.input, "rb"))
        out = None
        if args.export:
            # Only a complete export replaces the file.
            tmp_path = stack.enter_context(_part_file(args.export))
            out = stack.enter_context(named(writing, open, tmp_path, "wb"))
        report = run_battery(chunks(fh, out), alpha=args.alpha, n_bits=args.bits)
        if out is not None:
            named(writing, out.close)
            named(writing, os.replace, tmp_path, args.export)

    text = [f"{report.n_bits} bits, alpha = {report.alpha:g}"]
    for r in report.results:
        verdict = "PASS" if r.passed else "FAIL"
        note = f"  ({r.note})" if r.note else ""
        text.append(
            f"  {verdict}  {r.name:<28} statistic={r.statistic:< 12.5g} "
            f"p={r.p_value:.4g}{note}"
        )
    text.append(
        f"{report.n_passed}/{len(report.results)} tests passed"
        + (f"; exported bytes to {args.export}" if args.export else "")
    )
    _emit(args, {"command": "test", **report.to_dict()}, text)
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def _add_sensor_and_out(p: argparse.ArgumentParser, out_help: str) -> None:
    """The sensor choice and output path of simulate, characterize, extract."""
    sensor = p.add_mutually_exclusive_group(required=True)
    sensor.add_argument("--preset", choices=sorted(PRESETS), help="built-in sensor")
    sensor.add_argument("--config", metavar="JSON", help="sensor config file")
    p.add_argument("--out", metavar="PATH", required=True, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camrng",
        description="Camera shot-noise randomness pipeline: simulate sensor "
        "frames, characterize them, plan and run extraction, test output.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="print machine-readable JSON only"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # Flags are read only in full: no prefix stands for a longer flag.
        return sub.add_parser(name, parents=[common], help=summary, allow_abbrev=False)

    p = command("simulate", "simulate sensor frames to files")
    _add_sensor_and_out(p, "output directory")
    intensity = p.add_mutually_exclusive_group(required=True)
    intensity.add_argument("--nbar", type=_NBAR, help="mean absorbed photons per pixel")
    intensity.add_argument(
        "--sweep", metavar="LIST", type=_sweep, help="comma-separated intensities"
    )
    p.add_argument(
        "--frames", type=_COUNT, default=1, help="frames per intensity (>= 1)"
    )
    p.add_argument("--width", type=_COUNT, default=256)
    p.add_argument("--height", type=_COUNT, default=256)
    p.add_argument("--format", choices=("pgm", "raw16le"), default="pgm")
    p.add_argument(
        "--seed",
        type=_number(lambda t: int(t, 0), "in [0, 2**64)", lambda v: 0 <= v < 2**64),
        default=0, help="simulation seed (default 0)",
    )
    p.set_defaults(func=cmd_simulate)

    p = command("characterize", "gain, Fano, mask from frames")
    _add_sensor_and_out(p, "report directory")
    p.add_argument(
        "inputs", nargs="*", metavar="FRAME",
        help=".pgm files or .raw files with sidecars",
    )
    p.add_argument(
        "--manifest", metavar="JSON", help="sweep manifest from `simulate --sweep`"
    )
    p.set_defaults(func=cmd_characterize)

    p = command("entropy", "per-sample quantum entropy report")
    p.add_argument("--nbar", type=_NBAR, required=True)
    p.add_argument("--bits", type=_BIT_DEPTH, required=True, help="ADC bit depth")
    p.set_defaults(func=cmd_entropy)

    p = command("plan", "extractor sizing from the security bound")
    p.add_argument(
        "--s", type=_number(float, "in (0, 1]", lambda v: 0 < v <= 1),
        help="entropy per raw bit (0, 1]",
    )
    p.add_argument("--nbar", type=_NBAR, help="compute s from this intensity...")
    p.add_argument("--bits", type=_BIT_DEPTH, help="...at this bit depth")
    p.add_argument("--l", type=_COUNT, default=DEFAULT_L)
    p.add_argument("--k", type=_COUNT, help="evaluate the bound for this k")
    p.add_argument(
        "--target", type=_number(float, "< 0", lambda v: v < 0),
        help="plan k for this log2(epsilon) target (< 0)",
    )
    p.set_defaults(func=cmd_plan)

    p = command("extract", "frames -> extractor -> byte stream")
    _add_sensor_and_out(p, "output byte stream file")
    p.add_argument(
        "inputs", nargs="*", metavar="FRAME",
        help=".pgm files or .raw files with sidecars",
    )
    p.add_argument(
        "--l", type=_COUNT, default=DEFAULT_L, help=f"block bits (default {DEFAULT_L})"
    )
    p.add_argument(
        "--k", type=_COUNT, default=DEFAULT_K, help=f"output bits (default {DEFAULT_K})"
    )
    p.add_argument(
        "--matrix-seed", type=_hex_seed, default=DEFAULT_MATRIX_SEED,
        metavar="HEX64", help="32-byte matrix seed in hex",
    )
    p.add_argument("--mask", metavar="PGM", help="pixel mask from `characterize`")
    p.add_argument(
        "--force", action="store_true",
        help="extract even when s*l <= k (output NOT certified random)",
    )
    p.set_defaults(func=cmd_extract)

    p = command("test", "native battery over a byte stream file")
    p.add_argument("input", metavar="FILE", help="byte stream (MSB-first bits)")
    p.add_argument(
        "--bits", type=_COUNT, default=None,
        help="test only the first N bits (drop export padding)",
    )
    p.add_argument(
        "--alpha", type=_number(float, "in (0, 1)", lambda v: 0 < v < 1),
        default=DEFAULT_ALPHA,
    )
    p.add_argument("--export", metavar="FILE", help="re-export tested bits as bytes")
    p.set_defaults(func=cmd_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        worker_count()  # a bad QRNG_THREADS fails before any output is written
        return args.func(args)
    except (UsageError, FramePathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
