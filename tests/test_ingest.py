import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camrng.ingest import (
    FrameFileHeader,
    read_pgm,
    read_raw,
    read_sidecar,
    sidecar_path,
    write_json,
    write_pgm,
)
from camrng.sensor import Frame
from conftest import write_raw_dump


def frame_of(values, bit_depth) -> Frame:
    codes = np.asarray(values, dtype=np.uint16)
    return Frame(codes, bit_depth)


def test_pgm_16bit_fixture(tmp_path):
    # P5, 2x1, maxval 1023, big-endian samples 0x0199=409 and 0x002A=42
    path = tmp_path / "two.pgm"
    path.write_bytes(b"P5\n2 1\n1023\n\x01\x99\x00\x2a")
    frame = read_pgm(path)
    assert frame.width == 2 and frame.height == 1
    assert frame.codes.tolist() == [[409, 42]]
    assert frame.bit_depth == 10


def test_pgm_8bit_fixture(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\xff")
    frame = read_pgm(path)
    assert frame.codes.tolist() == [[255]]
    assert frame.bit_depth == 8


def test_pgm_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t1 # dims\n15\n\x03\x07")
    frame = read_pgm(path)
    assert frame.codes.tolist() == [[3, 7]]
    assert frame.bit_depth == 4


@pytest.mark.parametrize(
    "blob,msg",
    [
        (b"P4\n1 1\n255\n\x00", "magic"),
        (b"P5\n1 1\n0\n", "maxval"),
        (b"P5\n1 1\n70000\n\x00\x00", "maxval"),
        (b"P5\n2 1\n255\n\x01", "truncated"),
        (b"P5\n1 1\n100\n\x65", "exceeds"),  # sample 101 > maxval 100
        (b"P5\n0 4\n3\n", "frame dimensions must be positive, got 0x4"),  # Frame refuses
    ],
)
def test_pgm_rejects_malformed(tmp_path, blob, msg):
    path = tmp_path / "bad.pgm"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=msg) as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: ")


def test_pgm_write_golden_bytes(tmp_path):
    frame = frame_of([[409, 42]], bit_depth=10)
    path = tmp_path / "g.pgm"
    write_pgm(frame, path)
    assert path.read_bytes() == b"P5\n2 1\n1023\n\x01\x99\x00\x2a"
    gone = tmp_path / "gone" / "g.pgm"
    with pytest.raises(OSError, match=f"^writing {re.escape(str(gone))}: "):
        write_pgm(frame, gone)


def test_pgm_round_trip(tmp_path):
    frame = frame_of([[0, 1023], [512, 7]], bit_depth=10)
    path = tmp_path / "r.pgm"
    write_pgm(frame, path)
    again = read_pgm(path)
    assert np.array_equal(again.codes, frame.codes)
    assert again.bit_depth == frame.bit_depth


def test_raw16le_fixture(tmp_path):
    # little-endian: bytes 9A 01 -> 0x019A = 410
    path = tmp_path / "f.raw"
    path.write_bytes(b"\x9a\x01")
    header = FrameFileHeader(
        format="raw16le", width=1, height=1, bit_depth=10, frame_count=1
    )
    frames = list(read_raw(path, header))
    assert len(frames) == 1
    assert frames[0].codes.tolist() == [[410]]


def test_raw8_fixture(tmp_path):
    path = tmp_path / "f.raw"
    path.write_bytes(b"\x2a\xff")
    header = FrameFileHeader(
        format="raw8", width=2, height=1, bit_depth=8, frame_count=1
    )
    frames = list(read_raw(path, header))
    assert frames[0].codes.tolist() == [[42, 255]]


def test_raw_multi_frame(tmp_path):
    path = tmp_path / "f.raw"
    path.write_bytes(b"\x01\x00\x02\x00\x03\x00\x04\x00")
    header = FrameFileHeader(
        format="raw16le", width=2, height=1, bit_depth=10, frame_count=2
    )
    frames = read_raw(path, header)
    assert [f.codes.tolist() for f in frames] == [[[1, 2]], [[3, 4]]]


def test_raw_length_mismatch(tmp_path):
    path = tmp_path / "f.raw"
    path.write_bytes(b"\x00" * 5)
    header = FrameFileHeader(
        format="raw16le", width=1, height=1, bit_depth=10, frame_count=2
    )
    with pytest.raises(ValueError, match="bytes"):
        read_raw(path, header)
    # a dump cut after its size was checked fails when the cut frame is reached
    path.write_bytes(b"\x00" * 4)
    frames = read_raw(path, header)
    path.write_bytes(b"\x00")
    message = re.escape(f"{path}: file ended inside frame 0")
    with pytest.raises(ValueError, match=f"^{message}$"):
        list(frames)


def test_raw_rejects_out_of_range_sample(tmp_path):
    path = tmp_path / "f.raw"
    path.write_bytes(b"\xff\xff")  # 65535 exceeds 10-bit range
    header = FrameFileHeader(
        format="raw16le", width=1, height=1, bit_depth=10, frame_count=1
    )
    with pytest.raises(ValueError, match="range"):
        list(read_raw(path, header))


def test_raw_range_is_checked_per_frame_naming_the_path(tmp_path):
    path = tmp_path / "f.raw"
    path.write_bytes(b"\x01\x00\x02\x00\x00\x04")  # 1024 in the last frame
    header = FrameFileHeader(
        format="raw16le", width=1, height=1, bit_depth=10, frame_count=3
    )
    frames = read_raw(path, header)
    assert [next(frames).codes.tolist() for _ in range(2)] == [[[1]], [[2]]]
    message = f"{path}: frame 2: codes [1024, 1024] exceed 10-bit range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        next(frames)


@pytest.mark.parametrize("fmt", ["raw16le", "raw8"])
def test_raw_holds_one_frame_at_a_time(tmp_path, fmt):
    n_frames, width, height = 16, 256, 128
    rng = np.random.default_rng(3)
    frame = frame_of(rng.integers(0, 256, (height, width)), bit_depth=8)
    path = tmp_path / "f.raw"
    header = write_raw_dump(path, [frame] * n_frames, fmt)
    assert path.stat().st_size == n_frames * width * height * header.dtype.itemsize
    frame_bytes = frame.codes.nbytes  # one decoded uint16 frame
    tracemalloc.start()
    try:
        count = 0
        for got in read_raw(path, header):
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == n_frames and np.array_equal(got.codes, frame.codes)
    assert peak < 3 * frame_bytes


def test_header_rejects_pgm_format():
    with pytest.raises(ValueError, match="format"):
        FrameFileHeader(format="pgm16", width=1, height=1, bit_depth=10, frame_count=1)


def test_header_validation():
    with pytest.raises(ValueError):
        FrameFileHeader(format="raw8", width=1, height=1, bit_depth=10, frame_count=1)
    with pytest.raises(ValueError):
        FrameFileHeader(format="gif", width=1, height=1, bit_depth=8, frame_count=1)
    with pytest.raises(ValueError):
        FrameFileHeader(
            format="raw16le", width=0, height=1, bit_depth=10, frame_count=1
        )
    with pytest.raises(ValueError):
        FrameFileHeader(
            format="raw16le", width=1, height=1, bit_depth=10, frame_count=0
        )


def test_write_raw_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    stack = [
        frame_of(rng.integers(0, 4096, size=(2, 3)), bit_depth=12) for _ in range(2)
    ]
    path = tmp_path / "s.raw"
    header = write_raw_dump(path, stack, "raw16le")
    assert header == FrameFileHeader(
        format="raw16le", width=3, height=2, bit_depth=12, frame_count=2
    )
    again = read_raw(path, header)
    for a, b in zip(again, stack):
        assert np.array_equal(a.codes, b.codes)


def test_sidecar_round_trip(tmp_path):
    path = str(tmp_path / "s.raw")
    header = write_raw_dump(path, [frame_of(np.zeros((4, 4)), bit_depth=10)] * 3, "raw16le")
    assert sidecar_path(path) == path + ".json"
    assert read_sidecar(path) == header
    # keys beside the header, such as a camera's own metadata, are ignored
    write_json(sidecar_path(path), {"n_bar": 410.0, "header": {
        "format": "raw16le", "width": 4, "height": 4, "bit_depth": 10, "frame_count": 3}})
    assert read_sidecar(path) == header


def test_read_sidecar_missing_returns_none(tmp_path):
    assert read_sidecar(str(tmp_path / "nothing.raw")) is None


@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 9),
    height=st.integers(1, 7),
    bit_depth=st.integers(1, 16),
    seed=st.integers(0, 2**31),
)
def test_pgm_round_trip_property(tmp_path_factory, width, height, bit_depth, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bit_depth, size=(height, width), dtype=np.uint16)
    frame = Frame(codes, bit_depth)
    path = tmp_path_factory.mktemp("pgm") / "f.pgm"
    write_pgm(frame, path)
    again = read_pgm(path)
    assert np.array_equal(again.codes, codes)
    assert again.bit_depth == bit_depth
