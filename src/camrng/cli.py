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
import json
import sys

import numpy as np

from .characterize import (
    DEFAULT_FANO_TOLERANCE,
    build_pixel_mask,
    code_sums,
    estimate_zeta,
    fano_curve_to_csv,
    fano_factor,
    find_operating_region,
    pixel_stats,
    PixelMask,
    PixelStats,
    stack_summary,
)
from .entropy import _MAX_N_BAR, entropy_report, epsilon_bound, plan_extractor
from .extractor import (
    DEFAULT_K,
    DEFAULT_L,
    DEFAULT_MATRIX_SEED,
    MAX_BLOCK_BITS,
    extract_frames,
    generate_matrix,
    load_matrix,
    save_matrix,
)
from .ingest import (
    FrameFileHeader,
    raw_payload,
    read_pgm,
    read_raw,
    read_sidecar,
    write_pgm,
    write_sidecar,
)
from .sensor import (
    PRESETS,
    SensorConfig,
    get_preset,
    load_sensor_config,
    simulate_frame,
    worker_count,
)
from .stattests import (
    DEFAULT_ALPHA,
    DEFAULT_BLOCK_SIZE,
    DEFAULT_MAX_LAG,
    run_battery,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Invalid invocation; maps to exit code 2."""


def _json(doc: dict) -> str:
    """doc as strict JSON: a NaN or infinity raises ValueError, never `NaN`."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _write_json(path: str, doc: dict) -> None:
    """Write doc to path, serialized before the file is opened."""
    text = _json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args: argparse.Namespace, summary: dict, text_lines: list[str]) -> None:
    """Print the human or machine form of a command summary."""
    if args.json:
        print(_json(summary))
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
_NBAR = _number(float, ">= 0", lambda v: v >= 0)
# The range over which the Poisson entropy is computed.
_ENTROPY_NBAR = _number(float, "in [0, 1e6]", lambda v: 0 <= v <= _MAX_N_BAR)
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


def _read_frames(paths: tuple[str, ...]):
    """Yield the input frames: .pgm files directly, .raw via their sidecar."""
    if not paths:
        raise UsageError("no input frames given")
    for path in paths:
        if path.endswith(".pgm"):
            yield read_pgm(path)
        else:
            pair = read_sidecar(path)
            if pair is None:
                raise UsageError(
                    f"{path}: not a .pgm and no sidecar JSON describes it"
                )
            yield from read_raw(path, pair[0])


def _predicted_fano(config: SensorConfig, n_bar: float) -> float | None:
    """Clamp-free shot + technical noise prediction, None at n_bar = 0."""
    absorbed = config.eta * n_bar
    if absorbed <= 0:
        return None
    return 1.0 + config.sigma_t**2 / absorbed


def _written(frames, write):
    """Yield each frame after write(index, frame) has stored it."""
    for j, frame in enumerate(frames):
        write(j, frame)
        yield frame


def cmd_simulate(args: argparse.Namespace) -> int:
    sensor = _sensor(args)
    if args.sweep:
        n_bars = args.sweep
    elif args.nbar is None:
        raise UsageError("pass --nbar or --sweep")
    else:
        n_bars = [args.nbar]
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    manifest_entries = []
    text = []
    for i, n_bar in enumerate(n_bars):
        # One pass: each frame is written as soon as it is simulated, and
        # the stack summary reads the same frames on their way out.
        stack = (
            simulate_frame(
                sensor,
                n_bar,
                args.width,
                args.height,
                args.seed,
                frame_id=i * args.frames + j,
            )
            for j in range(args.frames)
        )
        if args.format == "pgm":
            prefix = f"nbar_{i:02d}_" if args.sweep else ""
            files = [f"{prefix}frame_{j:04d}.pgm" for j in range(args.frames)]
            paths = [os.path.join(out_dir, name) for name in files]
            n, _, s1, s2 = code_sums(
                _written(stack, lambda j, frame: write_pgm(frame, paths[j]))
            )
        else:
            name = "frames.raw" if not args.sweep else f"nbar_{i:02d}.raw"
            path = os.path.join(out_dir, name)
            header = FrameFileHeader(
                format="raw16le",
                width=args.width,
                height=args.height,
                bit_depth=sensor.bit_depth,
                frame_count=args.frames,
            )
            with open(path, "wb") as fh:
                n, _, s1, s2 = code_sums(
                    _written(stack, lambda j, frame: fh.write(raw_payload(frame, header)))
                )
            write_sidecar(
                path, header, extra={"n_bar": n_bar, "seed": args.seed}
            )
            files = [name]
        mean, var = stack_summary(n, s1, s2)
        manifest_entries.append(
            {
                "n_bar": n_bar,
                "files": files,
                "mean_code": mean,
                "variance_code": var,
                "predicted_fano": _predicted_fano(sensor, n_bar),
            }
        )
        pf = manifest_entries[-1]["predicted_fano"]
        text.append(
            f"n_bar={n_bar:g}: {args.frames} frame(s) "
            f"{args.width}x{args.height}, mean={mean:.2f} "
            f"var={'n/a' if var is None else f'{var:.2f}'} "
            f"predicted_fano={'n/a' if pf is None else f'{pf:.4f}'}"
        )

    summary = {
        "command": "simulate",
        "config": sensor.to_dict(),
        "seed": args.seed,
        "out": out_dir,
        "format": args.format,
        "stacks": manifest_entries,
    }
    if args.sweep:
        manifest_path = os.path.join(out_dir, "manifest.json")
        _write_json(manifest_path, summary)
        text.append(f"sweep manifest: {manifest_path}")
    _emit(args, summary, text)
    return EXIT_OK


def cmd_characterize(args: argparse.Namespace) -> int:
    sensor = _sensor(args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    report: dict = {"command": "characterize", "config": sensor.to_dict()}
    text = []

    if args.manifest:
        base = os.path.dirname(os.path.abspath(args.manifest))
        with open(args.manifest, encoding="utf-8") as fh:
            try:
                stacks = [
                    (tuple(os.path.join(base, name) for name in entry["files"]),
                     float(entry["n_bar"]))
                    for entry in json.load(fh)["stacks"]
                ]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{args.manifest}: not a sweep manifest of stacks with "
                    f"files and n_bar ({type(exc).__name__}: {exc})"
                ) from None
        sweep: list[tuple[PixelStats, float]] = [
            (pixel_stats(_read_frames(paths)), n_bar) for paths, n_bar in stacks
        ]
        sweep.sort(key=lambda pair: pair[1])

        curve = []
        skipped = []
        for stats, n_bar in sweep:
            try:
                curve.append((n_bar, fano_factor(stats, sensor)))
            except ValueError as exc:
                skipped.append({"n_bar": n_bar, "reason": str(exc)})
        ptc = estimate_zeta(sweep)
        region = find_operating_region(curve, args.tolerance) if curve else None

        csv_path = os.path.join(out_dir, "fano.csv")
        fano_curve_to_csv(curve, csv_path)
        report.update(
            {
                "fitted_zeta": ptc.fitted_zeta,
                # A point of zero variance leaves the relative residual infinite.
                "fit_residual": (
                    ptc.fit_residual if np.isfinite(ptc.fit_residual) else None
                ),
                "operating_region": list(region) if region else None,
                "fano_tolerance": args.tolerance,
                "fano_points": [{"n_bar": nb, **p.to_dict()} for nb, p in curve],
                "skipped_points": skipped,
                "csv": csv_path,
            }
        )
        text.append(
            f"fitted zeta = {ptc.fitted_zeta:.4f} "
            f"(relative residual {ptc.fit_residual:.3g})"
        )
        text.append(
            "operating region: "
            + (f"[{region[0]:g}, {region[1]:g}]" if region else "none found")
        )
        text.append(f"fano curve: {csv_path}")
    else:
        stats = pixel_stats(_read_frames(args.inputs))
        report["n_frames"] = stats.n_frames
        report["mean_code"], report["mean_pixel_variance"] = stats.stack_point
        text.append(
            f"{stats.n_frames} frame(s), mean code "
            f"{report['mean_code']:.2f}, mean pixel variance "
            f"{report['mean_pixel_variance']:.2f}"
        )

        try:
            point = fano_factor(stats, sensor)
            report["fano"] = point.to_dict()
            text.append(f"fano factor = {point.fano:.4f}")
        except ValueError as exc:
            report["fano"] = None
            report["fano_error"] = str(exc)
            text.append(f"fano factor unavailable: {exc}")

        if stats.n_frames >= 10:
            mask = build_pixel_mask(stats, sensor)
            mask_path = os.path.join(out_dir, "mask.json")
            with open(mask_path, "w", encoding="utf-8") as fh:
                fh.write(mask.to_json())
            report["mask"] = {"path": mask_path, "n_flagged": mask.n_flagged}
            text.append(f"pixel mask: {mask_path} ({mask.n_flagged} flagged)")
        else:
            report["mask"] = None
            report["mask_error"] = "pixel mask needs >= 10 frames"
            text.append("pixel mask skipped (needs >= 10 frames)")

    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, report)
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
        return args.s
    if args.nbar is None or args.bits is None:
        raise UsageError("pass --s, or --nbar with --bits to compute it")
    rep = entropy_report(args.nbar, args.bits)
    return rep.s


def cmd_plan(args: argparse.Namespace) -> int:
    s = _resolve_s(args)
    if (args.k is None) == (args.target is None):
        raise UsageError("pass exactly one of --k (evaluate) or --target (plan)")
    if args.k is not None:
        if args.k >= args.l:
            raise UsageError(f"need k < l, got k={args.k} l={args.l}")
        log2_eps = epsilon_bound(s, args.l, args.k)
        summary = {
            "command": "plan",
            "l": args.l,
            "k": args.k,
            "s": float(s),
            "log2_epsilon": str(log2_eps),
            "log2_epsilon_float": float(log2_eps),
            "compression_factor": args.l / args.k,
        }
        text = [
            f"log2(epsilon) <= {float(log2_eps):g}  (exactly {log2_eps})",
            f"compression factor l/k = {args.l / args.k:g}",
        ]
    else:
        plan = plan_extractor(s, args.target, args.l)
        summary = {"command": "plan", **plan.to_dict()}
        text = [
            f"k = {plan.k} output bits per {plan.l}-bit block",
            f"achieved log2(epsilon) <= {float(plan.log2_epsilon):g}",
            f"compression factor l/k = {plan.compression_factor:g}",
        ]
    _emit(args, summary, text)
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

    mask = None
    if args.mask:
        with open(args.mask, encoding="utf-8") as fh:
            try:
                mask = PixelMask.from_json(fh.read())
            except ValueError as exc:
                raise ValueError(f"{args.mask}: {exc}") from None
        if not mask.flags.any():
            raise ValueError("pixel mask excludes every pixel")

    if args.matrix:
        matrix = load_matrix(args.matrix)
        if args.l is not None and args.l != matrix.l:
            raise UsageError(f"--l {args.l} != loaded matrix l={matrix.l}")
        if args.k is not None and args.k != matrix.k:
            raise UsageError(f"--k {args.k} != loaded matrix k={matrix.k}")
    else:
        l, k = args.l or DEFAULT_L, args.k or DEFAULT_K
        if not k < l <= MAX_BLOCK_BITS:
            raise UsageError(f"need k < l <= {MAX_BLOCK_BITS}, got k={k} l={l}")
        matrix = generate_matrix(args.matrix_seed, k, l)

    # Output goes to a temp file next to --out, which is renamed to
    # --out only once the output is certified or forced: a refused run
    # writes nothing.
    with _part_file(args.out) as tmp_path:
        with open(tmp_path, "wb") as fh:
            summary, refusal = extract_frames(
                _read_frames(args.inputs), sensor, matrix, mask, fh
            )
        if refusal is not None and not args.force:
            raise UsageError(
                f"{refusal}\n  Lower k, raise l, or pass --force to extract "
                "anyway (output is NOT certified random)."
            )
        if args.save_matrix:
            save_matrix(matrix, args.save_matrix)
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
        report = run_battery(
            chunks(fh, out), alpha=args.alpha, block_size=args.block_size,
            max_lag=args.max_lag, n_bits=args.bits,
        )
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

    p = sub.add_parser(
        "simulate", parents=[common], help="simulate sensor frames to files"
    )
    _add_sensor_and_out(p, "output directory")
    p.add_argument("--nbar", type=_NBAR, help="mean absorbed photons per pixel")
    p.add_argument(
        "--sweep", metavar="LIST",
        type=lambda text: [_NBAR(t) for t in text.split(",") if t.strip()],
        help="comma-separated intensities (overrides --nbar)",
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

    p = sub.add_parser(
        "characterize", parents=[common], help="gain, Fano, mask from frames"
    )
    _add_sensor_and_out(p, "report directory")
    p.add_argument(
        "inputs", nargs="*", metavar="FRAME",
        help=".pgm files or .raw files with sidecars",
    )
    p.add_argument(
        "--manifest", metavar="JSON", help="sweep manifest from `simulate --sweep`"
    )
    p.add_argument(
        "--tolerance", type=_number(float, "> 0", lambda v: v > 0),
        default=DEFAULT_FANO_TOLERANCE,
        help=f"|F-1| bound for the operating region (default {DEFAULT_FANO_TOLERANCE})",
    )
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser(
        "entropy", parents=[common], help="per-sample quantum entropy report"
    )
    p.add_argument("--nbar", type=_ENTROPY_NBAR, required=True)
    p.add_argument("--bits", type=_BIT_DEPTH, required=True, help="ADC bit depth")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser(
        "plan", parents=[common], help="extractor sizing from the security bound"
    )
    p.add_argument(
        "--s", type=_number(float, "in (0, 1]", lambda v: 0 < v <= 1),
        help="entropy per raw bit (0, 1]",
    )
    p.add_argument("--nbar", type=_ENTROPY_NBAR, help="compute s from this intensity...")
    p.add_argument("--bits", type=_BIT_DEPTH, help="...at this bit depth")
    p.add_argument("--l", type=_COUNT, default=DEFAULT_L)
    p.add_argument("--k", type=_COUNT, help="evaluate the bound for this k")
    p.add_argument(
        "--target", type=_number(float, "< 0", lambda v: v < 0),
        help="plan k for this log2(epsilon) target (< 0)",
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "extract", parents=[common], help="frames -> extractor -> byte stream"
    )
    _add_sensor_and_out(p, "output byte stream file")
    p.add_argument(
        "inputs", nargs="*", metavar="FRAME",
        help=".pgm files or .raw files with sidecars",
    )
    p.add_argument("--l", type=_COUNT, help=f"block bits (default {DEFAULT_L})")
    p.add_argument("--k", type=_COUNT, help=f"output bits (default {DEFAULT_K})")
    p.add_argument(
        "--matrix-seed", type=_hex_seed, default=DEFAULT_MATRIX_SEED,
        metavar="HEX64", help="32-byte matrix seed in hex",
    )
    p.add_argument("--matrix", metavar="FILE", help="load matrix instead of seeding")
    p.add_argument("--save-matrix", metavar="FILE", help="persist the matrix used")
    p.add_argument("--mask", metavar="JSON", help="pixel mask to apply")
    p.add_argument(
        "--force", action="store_true",
        help="extract even when s*l <= k (output NOT certified random)",
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "test", parents=[common], help="native battery over a byte stream file"
    )
    p.add_argument("input", metavar="FILE", help="byte stream (MSB-first bits)")
    p.add_argument(
        "--bits", type=_COUNT, default=None,
        help="test only the first N bits (drop export padding)",
    )
    p.add_argument(
        "--alpha", type=_number(float, "in (0, 1)", lambda v: 0 < v < 1),
        default=DEFAULT_ALPHA,
    )
    p.add_argument(
        "--block-size", type=_number(int, ">= 8", lambda v: v >= 8),
        default=DEFAULT_BLOCK_SIZE,
    )
    p.add_argument("--max-lag", type=_COUNT, default=DEFAULT_MAX_LAG)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
