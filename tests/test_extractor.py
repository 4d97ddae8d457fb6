import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from camrng import extractor
from camrng.bitstream import BitString
from camrng.extractor import (
    DEFAULT_K,
    DEFAULT_L,
    DEFAULT_MATRIX_SEED,
    BinaryMatrix,
    concat_streams,
    extract,
    frame_to_bits,
    generate_matrix,
)
from camrng.cli import main
from camrng.ingest import write_pgm
from camrng.sensor import Frame
from camrng.entropy import epsilon_bound


def matrix_bits01(matrix: BinaryMatrix) -> np.ndarray:
    """(k, l) dense 0/1 view of a packed matrix."""
    row_bytes = matrix.rows.astype("<u8").view(np.uint8).reshape(matrix.k, -1)
    return np.unpackbits(row_bytes, axis=1, count=matrix.l, bitorder="little")


def as01(bs: BitString) -> np.ndarray:
    """One uint8 per bit: the oracle view of a packed stream."""
    return np.unpackbits(bs.packed, count=bs.n_bits, bitorder="little")


def oracle_extract(mat01: np.ndarray, blocks01: np.ndarray) -> np.ndarray:
    """Independent path: integer matmul mod 2 on dense arrays."""
    return (mat01.astype(np.int64) @ blocks01.astype(np.int64).T) % 2


def oracle_extract_pure_python(mat01, block01):
    """Literal double loop, one block; anchors the matmul oracle itself."""
    out = []
    for row in mat01:
        acc = 0
        for a, b in zip(row, block01):
            acc ^= int(a) & int(b)
        out.append(acc)
    return out


def test_prf_expansion_matches_hashlib():
    # rebuild the first matrix row stream straight from sha256
    seed = b"\x07" * 32
    mat = generate_matrix(seed, k=3, l=40)
    stream = b"".join(
        hashlib.sha256(seed + i.to_bytes(8, "big")).digest() for i in range(1)
    )
    want = np.unpackbits(
        np.frombuffer(stream, dtype=np.uint8), bitorder="little"
    )[: 3 * 40].reshape(3, 40)
    assert np.array_equal(matrix_bits01(mat), want)


def test_generate_matrix_deterministic_and_seed_sensitive():
    a = generate_matrix(b"\x01" * 32, 8, 32)
    b = generate_matrix(b"\x01" * 32, 8, 32)
    c = generate_matrix(b"\x02" * 32, 8, 32)
    assert np.array_equal(a.rows, b.rows)
    assert a.digest == b.digest
    assert not np.array_equal(a.rows, c.rows)


def test_generate_matrix_validation():
    with pytest.raises(ValueError):
        generate_matrix(b"\x00" * 32, 0, 16)
    with pytest.raises(ValueError):
        generate_matrix(b"\x00" * 32, 16, 16)  # k must be < l
    with pytest.raises(ValueError):
        generate_matrix(b"\x00" * 32, 4, 1 << 21)
    with pytest.raises(ValueError):
        generate_matrix(b"\x00" * 16, 4, 16)  # short seed
    with pytest.raises(ValueError):
        generate_matrix("00" * 32, 4, 16)  # hex text, not bytes


def test_digest_is_sha256_of_payload():
    mat = generate_matrix(b"\x05" * 32, 6, 24)
    want = hashlib.sha256(mat.rows.astype("<u8").tobytes()).hexdigest()
    assert mat.digest == want


def test_default_geometry():
    assert (DEFAULT_L, DEFAULT_K) == (2000, 500)
    assert len(DEFAULT_MATRIX_SEED) == 32


def test_hand_worked_extraction():
    # rows {1011, 0110} applied to r=1101:
    #   y0 = 1&1 ^ 0&1 ^ 1&0 ^ 1&1 = 0
    #   y1 = 0&1 ^ 1&1 ^ 1&0 ^ 0&1 = 1
    rows = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    packed = np.packbits(rows, axis=1, bitorder="little")
    padded = np.zeros((2, 8), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    mat = BinaryMatrix(
        k=2, l=4, rows=padded.view("<u8"), seed=b"\x00" * 32,
        digest=hashlib.sha256(padded.view("<u8").astype("<u8").tobytes()).hexdigest(),
    )
    r = BitString.from_bits01(np.array([1, 1, 0, 1], dtype=np.uint8))
    got = extract(r, mat)
    assert as01(got.bits).tolist() == [0, 1]
    assert got.blocks_processed == 1
    assert got.residual_bits_discarded == 0


# k = 1, 7, 8 and 9 put output rows at every bit offset of a byte, and
# on and off the byte grid.
@pytest.mark.parametrize(
    "k,l",
    [(2, 4), (3, 17), (13, 100), (64, 256), (1, 5), (7, 23), (8, 40), (9, 70)],
)
def test_extract_matches_matmul_oracle(k, l):
    seed = int(np.random.default_rng(k * 1000 + l).integers(2**62)).to_bytes(32, "big")
    mat = generate_matrix(seed, k, l)
    rng = np.random.default_rng(l)
    n_blocks = 250
    bits01 = rng.integers(0, 2, size=n_blocks * l, dtype=np.uint8)
    got = extract(BitString.from_bits01(bits01), mat)
    want = oracle_extract(matrix_bits01(mat), bits01.reshape(n_blocks, l))
    assert np.array_equal(as01(got.bits).reshape(n_blocks, k), want.T)


def loop_byte_tables(matrix: BinaryMatrix) -> np.ndarray:
    """Per-byte-position tables built one position and one value at a time."""
    n_pos = (matrix.l + 7) // 8
    kw = (matrix.k + 63) // 64
    rows_bytes = matrix.rows.astype("<u8").view(np.uint8).reshape(matrix.k, -1)
    tables = np.zeros((n_pos, 256, kw), dtype=np.uint64)
    col_group = np.zeros((8, kw), dtype=np.uint64)
    for p in range(n_pos):
        bits = np.unpackbits(rows_bytes[:, p], bitorder="little").reshape(matrix.k, 8)
        for t in range(8):
            packed = np.packbits(bits[:, t], bitorder="little")
            packed = np.pad(packed, (0, kw * 8 - packed.size))
            col_group[t] = packed.view("<u8")
        for v in range(1, 256):
            low = v & -v
            tables[p, v] = tables[p, v ^ low] ^ col_group[low.bit_length() - 1]
    return tables


@pytest.mark.parametrize(
    "k,l", [(1, 2), (3, 17), (63, 100), (64, 128), (65, 130), (130, 1000), (500, 2000)]
)
def test_byte_tables_equal_loop_construction(k, l):
    mat = generate_matrix(b"\x05" * 32, k, l)
    tables = mat._byte_tables(0, (l + 7) // 8)
    want = loop_byte_tables(mat)
    assert tables.dtype == want.dtype and tables.shape == want.shape
    assert np.array_equal(tables, want)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("k,l", [(3, 17), (65, 130), (130, 1000), (499, 1999)])
def test_tiled_tables_match_matmul_oracle(monkeypatch, k, l, n_workers):
    # Room for two byte positions' tables per tile, and 64-block chunks,
    # so every size runs on several tiles and several chunks.
    monkeypatch.setattr(extractor, "_TABLE_BYTES_LIMIT", 2 * 256 * 8 * ((k + 63) // 64))
    monkeypatch.setattr(extractor, "_CHUNK_BLOCKS", 64)
    mat = generate_matrix(b"\x12" * 32, k, l)
    assert len(list(mat._table_tiles())) == ((l + 7) // 8 + 1) // 2
    rng = np.random.default_rng(k + l)
    n_blocks = 150
    bits01 = rng.integers(0, 2, size=n_blocks * l + 5, dtype=np.uint8)
    got = extract(BitString.from_bits01(bits01), mat, n_workers=n_workers)
    want = oracle_extract(matrix_bits01(mat), bits01[: n_blocks * l].reshape(n_blocks, l))
    assert np.array_equal(as01(got.bits).reshape(n_blocks, k), want.T)
    assert got.residual_bits_discarded == 5
    assert mat._tables.shape[0] == 2  # only the first tile is kept


def test_row_bits_past_l_are_ignored():
    # A matrix file may carry set bits in the padding of each row; blocks
    # that end mid-byte must still see only columns below l.
    clean = generate_matrix(b"\x13" * 32, k=5, l=13)
    rows = clean.rows | ~np.uint64((1 << 13) - 1)
    dirty = BinaryMatrix(k=5, l=13, rows=rows, seed=clean.seed, digest=clean.digest)
    bits = BitString.from_bits01(np.random.default_rng(3).integers(0, 2, 13 * 40, np.uint8))
    assert extract(bits, dirty).bits == extract(bits, clean).bits


def test_matmul_oracle_matches_pure_python():
    # the oracle itself is cross-checked by a literal double loop
    rng = np.random.default_rng(42)
    mat01 = rng.integers(0, 2, size=(5, 19), dtype=np.uint8)
    for _ in range(20):
        block = rng.integers(0, 2, size=19, dtype=np.uint8)
        assert (
            oracle_extract(mat01, block[None, :])[:, 0].tolist()
            == oracle_extract_pure_python(mat01, block)
        )


def test_linearity():
    mat = generate_matrix(b"\x09" * 32, k=16, l=64)
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = BitString.from_bits01(rng.integers(0, 2, 64, dtype=np.uint8))
        y = BitString.from_bits01(rng.integers(0, 2, 64, dtype=np.uint8))
        ext_xor = extract(BitString(x.packed ^ y.packed, 64), mat).bits
        out_x, out_y = extract(x, mat).bits, extract(y, mat).bits
        want = BitString(out_x.packed ^ out_y.packed, out_x.n_bits)
        assert ext_xor == want


def test_worker_count_does_not_change_output():
    mat = generate_matrix(b"\x0a" * 32, k=16, l=64)
    rng = np.random.default_rng(2)
    # enough blocks to span several 4096-block chunks
    bits = BitString.from_bits01(
        rng.integers(0, 2, 64 * 9000, dtype=np.uint8)
    )
    single = extract(bits, mat, n_workers=1)
    multi = extract(bits, mat, n_workers=3)
    assert single.bits == multi.bits


def test_residual_accounting():
    mat = generate_matrix(b"\x0b" * 32, k=2, l=10)
    bits = BitString.zeros(37)  # 3 blocks + 7 residual bits
    got = extract(bits, mat)
    assert got.blocks_processed == 3
    assert got.residual_bits_discarded == 7
    assert got.bits.n_bits == 6


def test_extract_empty_stream():
    mat = generate_matrix(b"\x0c" * 32, k=2, l=10)
    got = extract(BitString.zeros(9), mat)
    assert got.blocks_processed == 0
    assert got.bits.n_bits == 0
    assert got.residual_bits_discarded == 9


def test_frame_to_bits_lsb_first():
    codes = np.array([[0b1010011010]], dtype=np.uint16)  # 666
    frame = Frame(codes, bit_depth=10)
    stream = frame_to_bits(frame)
    assert stream.n_bits == 10
    assert as01(stream).tolist() == [0, 1, 0, 1, 1, 0, 0, 1, 0, 1]


def test_frame_to_bits_row_major_order():
    codes = np.array([[1, 2], [3, 4]], dtype=np.uint16)
    frame = Frame(codes, bit_depth=3)
    got = as01(frame_to_bits(frame)).reshape(4, 3)
    want = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert np.array_equal(got, want)


def test_frame_to_bits_mask():
    codes = np.array([[1, 7], [5, 2]], dtype=np.uint16)
    frame = Frame(codes, bit_depth=3)
    usable = np.array([[True, False], [True, True]])
    got = as01(frame_to_bits(frame, usable)).reshape(3, 3)
    want = np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0]])  # codes 1, 5, 2
    assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="^mask geometry 3x3 does not match frame 2x2$"):
        frame_to_bits(frame, np.ones((3, 3), bool))


def test_concat_streams_orders_frames():
    f1 = Frame(np.array([[1]], dtype=np.uint16), bit_depth=2)
    f2 = Frame(np.array([[2]], dtype=np.uint16), bit_depth=2)
    merged = concat_streams(frame_to_bits(f) for f in (f1, f2))
    assert as01(merged).tolist() == [1, 0, 0, 1]


def unpacked_frame_to_bits(frame: Frame, usable=None) -> BitString:
    """The per-bit serializer frame_to_bits replaced, kept as its oracle."""
    codes = frame.codes if usable is None else frame.codes[usable]
    flat = codes.reshape(-1).astype("<u2")
    bits = np.unpackbits(flat.view(np.uint8), bitorder="little")
    return BitString.from_bits01(bits.reshape(flat.size, 16)[:, : frame.bit_depth])


@pytest.mark.parametrize("bit_depth", range(1, 17))
def test_frame_to_bits_equals_unpacked_serializer(bit_depth):
    rng = np.random.default_rng(bit_depth)
    top = (1 << bit_depth) - 1
    # Pixel counts on and off every group size, 1..64 codes per group.
    for height, width in [(1, 1), (1, 7), (3, 5), (9, 7), (5, 13), (16, 16), (11, 67)]:
        codes = rng.integers(0, top + 1, size=(height, width))
        codes.flat[0] = top
        frame = Frame(codes, bit_depth)
        assert frame_to_bits(frame) == unpacked_frame_to_bits(frame)
        usable = rng.random((height, width)) < 0.8
        assert frame_to_bits(frame, usable) == unpacked_frame_to_bits(frame, usable)


# The exact leftover-hash oracle: at (l, k) = (16, 8), every one of the
# 2^16 input blocks is hashed, so the output distribution of a source
# whose min-entropy is known is exact, not sampled.  Input x is the
# block whose bit i is bit i of x.
_ALL_BLOCKS = np.arange(1 << 16, dtype="<u2")
_LHL_SEEDS = range(24)


@pytest.fixture(scope="module")
def hashed_blocks() -> list[np.ndarray]:
    """Per matrix seed, the 8-bit output of every 16-bit input, by input."""
    raw = BitString(_ALL_BLOCKS.view(np.uint8), 16 << 16)
    blocks01 = (_ALL_BLOCKS[:, None] >> np.arange(16)) & 1
    outputs = []
    for seed in _LHL_SEEDS:
        matrix = generate_matrix(seed.to_bytes(32, "big"), 8, 16)
        hashed = extract(raw, matrix).bits.packed
        # one output byte per block, its bit j the parity of row j
        parities = oracle_extract(matrix_bits01(matrix), blocks01)
        assert np.array_equal(hashed, (parities << np.arange(8)[:, None]).sum(axis=0))
        outputs.append(hashed)
    return outputs


def distance_from_uniform(hashed: np.ndarray, source: np.ndarray) -> float:
    """Exact statistical distance of the hash of source (a pmf over inputs) from uniform."""
    output = np.bincount(hashed, weights=source, minlength=256)
    return 0.5 * float(np.abs(output - 2.0**-8).sum())


def flat_source(h: int) -> np.ndarray:
    """Uniform over the 2^h inputs below 2^h: H_min = h."""
    source = np.zeros(1 << 16)
    source[: 1 << h] = 2.0**-h
    return source


def atom_source(a: int) -> np.ndarray:
    """Uniform except input 0, which has mass 2^-a: H_min = a."""
    source = np.full(1 << 16, (1 - 2.0**-a) / ((1 << 16) - 1))
    source[0] = 2.0**-a
    return source


@pytest.mark.parametrize("h", [9, 10, 12, 14, 16])
def test_leftover_hash_bound_holds_on_average_over_matrices(hashed_blocks, h):
    # The leftover hash lemma bounds the mean over matrices: one matrix
    # whose h used columns do not span GF(2)^8 is at distance >= 1/2.
    bound = 2.0 ** float(epsilon_bound(h / 16, 16, 8))
    distances = [distance_from_uniform(y, flat_source(h)) for y in hashed_blocks]
    assert np.mean(distances) <= bound
    if h == 12:
        assert max(distances) == 0.5 > bound


@pytest.mark.parametrize("source", [*(flat_source(h) for h in (2, 4, 6, 8)),
                                    *(atom_source(a) for a in (2, 4, 6))],
                         ids=["flat-2", "flat-4", "flat-6", "flat-8",
                              "atom-2", "atom-4", "atom-6"])
def test_epsilon_bound_refuses_min_entropy_at_most_k(source):
    h_min = -np.log2(source.max())
    with pytest.raises(ValueError, match="no extractable security margin"):
        epsilon_bound(h_min / 16, 16, 8)


def test_a_shannon_rated_bound_is_false_for_a_heavy_atom(hashed_blocks):
    # A linear hash sends the 2^-2 atom to one output, so the distance is
    # at least 2^-2 - 2^-8 under every matrix.  The source's Shannon
    # entropy, 12.81 bits, would certify a distance of at most 0.1887.
    source = atom_source(2)
    shannon = float(-(source * np.log2(source)).sum())
    shannon_bound = 2.0 ** float(epsilon_bound(shannon / 16, 16, 8))
    assert shannon_bound == pytest.approx(0.1887, abs=1e-4)
    for hashed in hashed_blocks:
        assert distance_from_uniform(hashed, source) >= 2.0**-2 - 2.0**-8 > shannon_bound


# Matrix seeds of the fixed-seed check, none of them in _LHL_SEEDS.
_FIXED_SEEDS = range(1000, 1128)


@pytest.fixture(scope="module")
def fixed_seed_hashes() -> list[np.ndarray]:
    """Per matrix seed in _FIXED_SEEDS, the 8-bit output of every 16-bit input."""
    raw = BitString(_ALL_BLOCKS.view(np.uint8), 16 << 16)
    return [extract(raw, generate_matrix(seed.to_bytes(32, "big"), 8, 16)).bits.packed
            for seed in _FIXED_SEEDS]


@pytest.mark.parametrize("h", [9, 10, 12, 14, 16])
def test_fixed_seed_distance_exceeds_2_to_the_e_plus_t_for_at_most_2_to_the_minus_t(
    fixed_seed_hashes, h
):
    # The bound 2^e is on the mean over seeds, so by Markov one seed drawn
    # independently of the source is farther than 2^(e+t) with probability
    # at most 2^-t.  The share of 128 seeds may exceed that by 3 binomial
    # standard deviations of the share.
    e = float(epsilon_bound(h / 16, 16, 8))
    distances = np.array([distance_from_uniform(y, flat_source(h)) for y in fixed_seed_hashes])
    for t in (1, 2, 3):
        p = 2.0**-t
        allowance = 3 * math.sqrt(p * (1 - p) / len(distances))
        assert np.mean(distances > 2.0 ** (e + t)) <= p + allowance


def test_extract_and_plan_records_carry_the_fixed_seed_exponent(tmp_path, capsys):
    rng = np.random.default_rng(17)
    paths = [str(tmp_path / f"f{i}.pgm") for i in range(3)]
    for path in paths:
        write_pgm(Frame(rng.integers(700, 900, (32, 32)), 10), path)
    assert main(["extract", "--preset", "nokia-n9", *paths, "--l", "200", "--k", "20",
                 "--out", str(tmp_path / "o.bin"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["log2_epsilon_fixed_seed"] == doc["log2_epsilon"] / 2 < 0
    assert main(["plan", "--s", "0.64", "--l", "2000", "--k", "500", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["log2_epsilon_fixed_seed"] == float(Fraction(doc["log2_epsilon"]) / 2) == -195.0
