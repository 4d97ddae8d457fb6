import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camrng import bitstream
from camrng.bitstream import BitString
from conftest import from_msb_bytes, reverse_bytes


def as01(bs: BitString) -> np.ndarray:
    """One uint8 per bit: the oracle view of a packed stream."""
    return np.unpackbits(bs.packed, count=bs.n_bits, bitorder="little")


def msb_bytes(bs: BitString) -> bytes:
    return b"".join(bs.msb_chunks())


def test_round_trip_small():
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    bs = BitString.from_bits01(bits)
    assert len(bs) == 9
    assert np.array_equal(as01(bs), bits)


def test_zeros():
    bs = BitString.zeros(13)
    assert len(bs) == 13
    assert np.bitwise_count(bs.packed).sum() == 0
    assert np.array_equal(as01(bs), np.zeros(13, dtype=np.uint8))


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        BitString.from_bits01(np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(ValueError, match="n_bits must be nonnegative, got -1"):
        BitString(np.zeros(1, np.uint8), -1)


def test_concat_matches_numpy_reference():
    rng = np.random.default_rng(3)
    parts = [rng.integers(0, 2, size=n, dtype=np.uint8) for n in (0, 5, 8, 13, 64, 3)]
    got = BitString.concat([BitString.from_bits01(p) for p in parts])
    want = np.concatenate(parts)
    assert np.array_equal(as01(got), want)


def test_eq_ignores_tail_garbage():
    # same logical bits must compare equal regardless of construction path
    a = BitString.from_bits01(np.array([1, 0, 1], dtype=np.uint8))
    b = BitString.concat(
        [BitString.from_bits01(np.array([1], dtype=np.uint8)),
         BitString.from_bits01(np.array([0, 1], dtype=np.uint8))]
    )
    assert a == b
    # any other type is unequal, never an error
    assert a != [1, 0, 1] and not a == "101"


def test_msb_bytes_packing_convention():
    # 8 bits 10000001 -> 0x81
    bs = BitString.from_bits01(np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
    assert msb_bytes(bs) == b"\x81"


def test_msb_bytes_partial_final_byte():
    # 9 bits -> 2 bytes, 7 zero bits of low-side padding in the second
    bs = BitString.from_bits01(
        np.array([1, 0, 0, 0, 0, 0, 0, 1, 1], dtype=np.uint8)
    )
    assert msb_bytes(bs) == b"\x81\x80"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300))
def test_round_trip_property(bits):
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(as01(BitString.from_bits01(arr)), arr)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 1), max_size=40), min_size=1, max_size=8)
)
def test_concat_property(parts):
    arrays = [np.array(p, dtype=np.uint8) for p in parts]
    got = BitString.concat([BitString.from_bits01(a) for a in arrays])
    assert np.array_equal(as01(got), np.concatenate(arrays) if arrays else [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=200))
def test_msb_export_unpack_identity(bits):
    # packing to bytes then unpacking MSB-first recovers bits + zero padding
    arr = np.array(bits, dtype=np.uint8)
    data = msb_bytes(BitString.from_bits01(arr))
    back = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    assert back.size == arr.size + (-arr.size) % 8
    assert np.array_equal(back[: arr.size], arr)
    assert not back[arr.size :].any()


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40), st.data())
def test_from_msb_bytes_inverts_to_msb_bytes(data, draw):
    n_bits = draw.draw(st.integers(0, 8 * len(data)))
    bs = from_msb_bytes(np.frombuffer(data, dtype=np.uint8), n_bits)
    want = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:n_bits]
    assert np.array_equal(as01(bs), want)
    assert msb_bytes(bs) == msb_bytes(BitString.from_bits01(want))


def test_from_msb_bytes_defaults_to_all_and_rejects_overlong():
    assert msb_bytes(from_msb_bytes(b"\x81\x80")) == b"\x81\x80"
    with pytest.raises(ValueError):
        from_msb_bytes(b"\x81", 9)


def test_msb_chunks_cover_payload_in_order(monkeypatch):
    monkeypatch.setattr(bitstream, "_MSB_CHUNK_BYTES", 16)
    bits = np.random.default_rng(3).integers(0, 2, 1001, dtype=np.uint8)
    chunks = list(BitString.from_bits01(bits).msb_chunks())
    assert [len(c) for c in chunks] == [16] * 7 + [14]
    want = np.packbits(np.concatenate([bits, np.zeros(7, np.uint8)])).tobytes()
    assert b"".join(chunks) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=300))
def test_count_ones_property(bits):
    packed = BitString.from_bits01(np.array(bits, dtype=np.uint8)).packed
    assert np.bitwise_count(packed).sum() == sum(bits)


def test_reverse_bits_equals_table_at_every_length_and_alignment():
    # slices of a bytes buffer starting 0..7 bytes in: uint64 views on
    # and off the 8-byte grid, and every tail length 0..7, against a
    # 256-entry byte table built from the unpackbits/packbits oracle
    table = reverse_bytes(np.arange(256, dtype=np.uint8))
    buf = np.random.default_rng(5).bytes(100)
    whole = np.frombuffer(buf, dtype=np.uint8)
    for start in range(8):
        for n in range(91):
            data = whole[start : start + n]
            got = bitstream._reverse_bits(data)
            assert got.dtype == np.uint8
            assert np.array_equal(got, table[data])
            assert not np.shares_memory(got, data)


def test_reverse_bits_across_pass_boundaries(monkeypatch):
    # 24 bytes per msb_chunks piece, each reversed in one pass: lengths
    # 0..57 cover empty, sub-word, one piece, two pieces and a tail word
    # past them, and the longer ones several pieces; slices start 0..7
    # bytes in
    monkeypatch.setattr(bitstream, "_MSB_CHUNK_BYTES", 24)
    whole = np.frombuffer(np.random.default_rng(6).bytes(205), dtype=np.uint8)
    for start in range(8):
        for n in (*range(58), 72, 150, 197):
            data = whole[start : start + n]
            pieces = list(BitString(data, 8 * n).msb_chunks())
            assert [p.size for p in pieces[:-1]] == [24] * (len(pieces) - 1)
            assert b"".join(pieces) == reverse_bytes(data).tobytes()
            assert not any(np.shares_memory(p, data) for p in pieces)


@pytest.mark.parametrize("n_bits", [8 * 997 + 1, 8 * 997 + 5, 8 * 1000 - 1])
def test_from_msb_bytes_and_msb_chunks_round_trip_off_the_byte_grid(
    monkeypatch, n_bits
):
    monkeypatch.setattr(bitstream, "_MSB_CHUNK_BYTES", 96)
    data = np.random.default_rng(n_bits).bytes(1001)
    bs = from_msb_bytes(data[1:], n_bits)  # an unaligned source
    assert bs.packed[-1] >> n_bits % 8 == 0
    want = np.unpackbits(np.frombuffer(data[1:], dtype=np.uint8))[:n_bits]
    assert np.array_equal(as01(bs), want)
    tail = data[1 + n_bits // 8] & (0xFF00 >> n_bits % 8) & 0xFF
    assert msb_bytes(bs) == data[1 : 1 + n_bits // 8] + bytes([tail])


def test_init_copies_only_to_clear_set_tail_bits():
    clean = np.array([0xFF, 0x07], dtype=np.uint8)
    assert np.shares_memory(BitString(clean, 11).packed, clean)
    dirty = np.array([0xFF, 0xFF], dtype=np.uint8)
    bs = BitString(dirty, 11)
    assert bs.packed.tolist() == [0xFF, 0x07]
    assert dirty.tolist() == [0xFF, 0xFF]  # the caller's array is untouched
