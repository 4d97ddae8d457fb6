"""Frame file formats: binary PGM and headerless raw dumps.

PGM (P5) is the interchange format most camera tooling can export.
Samples are one byte up to maxval 255 and two bytes big-endian above,
per the de-facto netpbm convention.  Raw dumps are little-endian 16-bit
("raw16le") or single-byte ("raw8") pixel arrays with no embedded
header, so the caller supplies a FrameFileHeader; a JSON sidecar next
to the file is the usual carrier.

Only this module knows how `simulate` names and writes a stack's files,
how read_frames reads them back, and the sweep manifest.  It holds the
package's only JSON code: dumps, write_json, read_json, json_number and
json_string.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from typing import TypeVar

import numpy as np

from .sensor import _CONFIG_KEYS, Frame, SensorConfig

T = TypeVar("T")

_RAW_FORMATS = ("raw16le", "raw8")


class FramePathError(Exception):
    """No frame paths, or one of no known format: a usage error, not bad data."""


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------


def dumps(doc: dict) -> str:
    """doc as strict JSON ending in one newline; a NaN or infinity raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def write_json(path: str, doc: dict) -> None:
    """Write dumps(doc) to path; a doc that cannot be serialized leaves path unopened."""
    text = dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path: str, parse: Callable[[dict], T]) -> T:
    """parse(the JSON object in path); every ValueError raised is put on path."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return parse(doc)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def json_string(doc: dict, key: str, what: str) -> str:
    """doc[key], which must be a JSON string; a ValueError names what and key."""
    if not isinstance(doc.get(key), str):
        raise ValueError(f"{what} {key} is not a string: {doc.get(key)!r}")
    return doc[key]


def json_number(doc: dict, key: str, what: str, integer: bool = False) -> float | int:
    """doc[key] as a float, or an int if integer: a JSON number, never a bool or string.

    A ValueError names what and key.  A float may be NaN or infinite;
    the caller checks its range.
    """
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} has no {key}")
    value = doc[key]
    try:
        if not isinstance(value, (int, float)):
            raise TypeError(value)
        result = int(value) if integer else float(value)
    except (TypeError, ValueError, OverflowError):  # also int(inf), float(10**400)
        raise ValueError(f"{what} {key} is not a number: {value!r}") from None
    # int() and float() would read true as 1, and int() truncates 10.9 to 10.
    if isinstance(value, bool) or integer and result != value:
        kind = "an integer" if integer else "a number"
        raise ValueError(f"{what} {key} is not {kind}: {value!r}")
    return result


def _sensor_config(doc: dict) -> SensorConfig:
    missing = [k for k in _CONFIG_KEYS if k not in doc]
    if missing:
        raise ValueError(f"sensor config missing keys: {missing}")
    unknown = [k for k in doc if k not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"sensor config has unknown keys: {unknown}")
    return SensorConfig(json_string(doc, "name", "sensor config"), *(
        json_number(doc, key, "sensor config", integer=key == "bit_depth")
        for key in _CONFIG_KEYS[1:]
    ))


def load_sensor_config(path: str) -> SensorConfig:
    """Load a SensorConfig from a JSON object of SensorConfig.to_dict's keys."""
    return read_json(path, _sensor_config)


@dataclass(frozen=True)
class FrameFileHeader:
    """Geometry and encoding of a raw frame file.

    Attributes:
        format: "raw16le" or "raw8".
        width, height: frame geometry in pixels.
        bit_depth: ADC width of the stored codes.
        frame_count: frames in the file.
    """

    format: str
    width: int
    height: int
    bit_depth: int
    frame_count: int = 1

    def __post_init__(self):
        if self.format not in _RAW_FORMATS:
            raise ValueError(
                f"format must be one of {_RAW_FORMATS}, got {self.format!r}"
            )
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"dimensions must be positive, got {self.width}x{self.height}"
            )
        max_depth = 8 if self.format == "raw8" else 16
        if not 1 <= self.bit_depth <= max_depth:
            raise ValueError(
                f"bit_depth {self.bit_depth} invalid for {self.format} "
                f"(allowed 1..{max_depth})"
            )
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")

    @property
    def dtype(self) -> np.dtype:
        """How one sample is stored: little-endian uint16 or one byte."""
        return np.dtype("u1" if self.format == "raw8" else "<u2")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "FrameFileHeader":
        numbers = {  # frame_count may be left out, for a one-frame dump
            key: json_number(d, key, "frame header", integer=True)
            for key in ("width", "height", "bit_depth", "frame_count")
            if key != "frame_count" or key in d
        }
        return cls(format=json_string(d, "format", "frame header"), **numbers)


# ----------------------------------------------------------------------
# PGM
# ----------------------------------------------------------------------


def _read_pgm_tokens(data: bytes) -> tuple[list[int], int]:
    """Parse the PGM header: magic, then 3 integers, honoring # comments.

    Returns (values, payload_offset).
    """
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (missing P5 magic)")
    pos = 2
    values: list[int] = []
    while len(values) < 3:
        # Skip whitespace and comment lines.
        while pos < len(data):
            ch = data[pos : pos + 1]
            if ch.isspace():
                pos += 1
            elif ch == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl + 1
            else:
                break
        start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if start == pos:
            raise ValueError("malformed PGM header")
        values.append(int(data[start:pos]))
    # Exactly one whitespace byte separates maxval from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ValueError("malformed PGM header (no payload separator)")
    return values, pos + 1


def read_pgm(path: str) -> Frame:
    """Read one frame from a binary (P5) PGM file.

    Samples above maxval 255 are two bytes big-endian.  The frame's
    bit_depth is ceil(log2(maxval + 1)).  Every ValueError raised is put
    on path.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        (width, height, maxval), offset = _read_pgm_tokens(data)
        if maxval <= 0 or maxval > 65535:
            raise ValueError(f"PGM maxval {maxval} out of range 1..65535")
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        expected = width * height * dtype.itemsize
        if len(data) - offset < expected:
            raise ValueError(
                f"truncated payload, expected {expected} bytes, got {len(data) - offset}"
            )
        codes = np.frombuffer(data, dtype, count=width * height, offset=offset)
        codes = codes.astype(np.uint16)
        if codes.size and int(codes.max()) > maxval:
            raise ValueError(f"sample exceeds declared maxval {maxval}")
        bit_depth = max(1, math.ceil(math.log2(maxval + 1)))
        return Frame(codes.reshape(height, width), bit_depth)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pgm(frame: Frame, path: str) -> None:
    """Write a frame as binary PGM with maxval 2**bit_depth - 1."""
    maxval = (1 << frame.bit_depth) - 1
    header = f"P5\n{frame.width} {frame.height}\n{maxval}\n".encode("ascii")
    payload = frame.codes.astype(">u2" if maxval > 255 else "u1", order="C")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"writing {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Raw dumps
# ----------------------------------------------------------------------


def read_raw(path: str, header: FrameFileHeader) -> Iterator[Frame]:
    """The frames of a headerless raw dump, in file order, read one at a time.

    path holds frame_count * width * height samples, little-endian 16-bit
    for raw16le or single bytes for raw8.  The file's size is checked
    against header at the call; each frame is read when it is reached,
    so a long dump is never held whole.
    """
    size = os.path.getsize(path)
    n_samples = header.frame_count * header.width * header.height
    expected = n_samples * header.dtype.itemsize
    if size != expected:
        raise ValueError(
            f"{path}: payload is {size} bytes but header declares "
            f"{expected} ({header.frame_count} frames of "
            f"{header.width}x{header.height})"
        )
    def frames() -> Iterator[Frame]:
        with open(path, "rb") as fh:
            for i in range(header.frame_count):
                codes = np.empty((header.height, header.width), header.dtype)
                if fh.readinto(codes) != codes.nbytes:
                    raise ValueError(f"{path}: file ended inside frame {i}")
                try:  # Frame checks the codes against the declared bit depth
                    frame = Frame(codes, header.bit_depth)
                except ValueError as exc:
                    raise ValueError(f"{path}: frame {i}: {exc}") from None
                yield frame

    return frames()


def raw_payload(frame: Frame, header: FrameFileHeader) -> bytes:
    """One frame's samples as stored in a raw dump of `header`'s format."""
    return frame.codes.astype(header.dtype).tobytes()


# ----------------------------------------------------------------------
# Sidecar metadata
# ----------------------------------------------------------------------


def sidecar_path(path: str) -> str:
    return os.fspath(path) + ".json"


def write_sidecar(path: str, header: FrameFileHeader, extra: dict | None = None) -> None:
    """Write the JSON sidecar describing a raw dump.

    `extra` keys (e.g. sensor name, n_bar estimate, exposure) pass
    through untouched.
    """
    write_json(sidecar_path(path), {**(extra or {}), "header": header.to_dict()})


def read_sidecar(path: str) -> tuple[FrameFileHeader, dict] | None:
    """Load the sidecar for a raw dump, or None if absent."""
    sc = sidecar_path(path)
    if not os.path.exists(sc):
        return None

    def parse(doc: dict) -> tuple[FrameFileHeader, dict]:
        if not isinstance(doc.get("header"), dict):
            raise ValueError("sidecar needs a header object")
        extra = {k: v for k, v in doc.items() if k != "header"}
        return FrameFileHeader.from_dict(doc["header"]), extra

    return read_json(sc, parse)


# ----------------------------------------------------------------------
# Stacks and the sweep manifest
# ----------------------------------------------------------------------


def read_frames(paths) -> Iterator[Frame]:
    """Yield the frames of paths in order: .pgm directly, others via their sidecar."""
    if not paths:
        raise FramePathError("no input frames given")
    for path in paths:
        if path.endswith(".pgm"):
            yield read_pgm(path)
        else:
            pair = read_sidecar(path)
            if pair is None:
                raise FramePathError(
                    f"{path}: not a .pgm and no sidecar JSON describes it"
                )
            yield from read_raw(path, pair[0])


def stack_files(fmt: str, n_frames: int, stack: int | None) -> list[str]:
    """File names of a simulated stack: one PGM per frame, or one raw16le dump.

    stack is a sweep stack's index, which prefixes its names, or None.
    """
    if fmt == "pgm":
        prefix = "" if stack is None else f"nbar_{stack:02d}_"
        return [f"{prefix}frame_{j:04d}.pgm" for j in range(n_frames)]
    return ["frames.raw" if stack is None else f"nbar_{stack:02d}.raw"]


def write_stack(
    frames: Iterable[Frame], directory: str, files: list[str], extra: dict
) -> Iterator[Frame]:
    """Yield each frame once it is stored in directory under stack_files' names.

    directory is made once the first frame exists.  A raw16le dump gets
    its sidecar, carrying extra, after the last frame.
    """
    paths = [os.path.join(directory, name) for name in files]
    frames = iter(frames)
    first = next(frames)
    os.makedirs(directory, exist_ok=True)
    frames = itertools.chain([first], frames)
    if paths[0].endswith(".pgm"):
        for path, frame in zip(paths, frames):
            write_pgm(frame, path)
            yield frame
        return
    with open(paths[0], "wb") as fh:
        for n, frame in enumerate(frames, 1):
            header = FrameFileHeader(
                "raw16le", frame.width, frame.height, frame.bit_depth, n
            )
            fh.write(raw_payload(frame, header))
            yield frame
    write_sidecar(paths[0], header, extra)


def write_manifest(directory: str, record: dict) -> str:
    """Write record to directory/manifest.json; return its path."""
    path = os.path.join(directory, "manifest.json")
    write_json(path, record)
    return path


def read_manifest(path: str) -> list[tuple[tuple[str, ...], float]]:
    """Each stack of a sweep manifest, as (frame paths under its directory, n_bar).

    files must be a non-empty list of file names, and n_bar finite and
    >= 0, as `simulate --nbar` requires.
    """
    base = os.path.dirname(os.path.abspath(path))

    def stacks(doc: dict) -> list[tuple[tuple[str, ...], float]]:
        result = []
        try:
            for entry in doc["stacks"]:
                names = entry["files"]
                if not names or not isinstance(names, list) or not all(
                    isinstance(name, str) for name in names
                ):
                    raise ValueError(f"manifest stack files are not a list of names: {names!r}")
                files = tuple(os.path.join(base, name) for name in names)
                n_bar = json_number(entry, "n_bar", "manifest stack")
                if not 0 <= n_bar < math.inf:
                    raise ValueError(
                        f"manifest stack n_bar must be finite and >= 0, got {n_bar}"
                    )
                result.append((files, n_bar))
        except (KeyError, TypeError) as exc:
            raise ValueError(
                "not a sweep manifest of stacks with files and n_bar "
                f"({type(exc).__name__}: {exc})"
            ) from None
        return result

    return read_json(path, stacks)
