"""Seeded binary-matrix randomness extractor.

Raw sensor bits are compressed with a fixed pseudorandom k x l matrix M
over GF(2): the stream is cut into l-bit blocks r and each block yields
k output bits y_j = parity(row_j AND r).  The matrix is expanded
deterministically from a 256-bit seed, so any party holding (seed, k, l)
reproduces the identical extractor.

Performance notes: matrix rows and bit streams are kept packed (64 bits
per word).  Extraction precomputes, per input byte position, a 256-entry
table of packed k-bit column parities; one block then costs ceil(l/8)
table lookups XORed together instead of k row scans.  Where the tables
for every position would be large they are built and applied in tiles
of byte positions, one tile at a time.  A naive matrix product verifies
the result in the test suite.
extract_frames runs all of `camrng extract` in one read of the frames:
each frame is folded into a PixelStats and extracted in batches, then
characterize.certify decides the certificate from the PixelStats.

Extraction runs on the calling thread.  Its lookup, a numpy take, holds
the interpreter lock, so a second thread adds CPU without saving wall
time; extract keeps a thread pool only for callers that ask for one.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bitstream import BitString, export_stream
from .characterize import PixelStats, certify
from .sensor import Frame, SensorConfig

MAX_BLOCK_BITS = 1 << 20

# Default dimensions: 2000 raw bits in, 500 extracted bits out.
DEFAULT_L = 2000
DEFAULT_K = 500

# Published default matrix seed.  Any 32 bytes work; this one is fixed
# so that independently built installations agree on the default matrix.
DEFAULT_MATRIX_SEED = bytes.fromhex(
    "3f62e31cc2b8edd197bd4d0e4f5b19c6a8dc41a10779d8a24b92e3e15d26cd08"
)

# Blocks per extraction chunk.  A chunk is the unit of work extract
# hands a worker, and its lookup buffer stays in cache; the value is
# fixed so output assembly is identical for any worker count.
_CHUNK_BLOCKS = 4096

# Chunks per batch of extract_frames: the raw bits buffered between
# extract calls, and the calls over which later table tiles are rebuilt.
_BATCH_CHUNKS = 2

# Byte-parity lookup tables are built in tiles of at most this many bytes.
_TABLE_BYTES_LIMIT = 64 << 20


def _prf_bytes(seed: bytes, n_bytes: int) -> bytes:
    """Deterministic seed expansion: SHA-256(seed || counter) stream.

    The counter is an 8-byte big-endian block index, so the byte stream
    depends only on (seed, n_bytes) and is identical on every platform
    and endianness.
    """
    n_chunks = (n_bytes + 31) // 32
    out = bytearray(n_chunks * 32)
    for i in range(n_chunks):
        out[i * 32 : (i + 1) * 32] = hashlib.sha256(
            seed + i.to_bytes(8, "big")
        ).digest()
    return bytes(out[:n_bytes])


@dataclass
class BinaryMatrix:
    """A k x l GF(2) matrix stored as packed bit rows.

    Attributes:
        k: output bits per block (number of rows).
        l: input bits per block (row length).
        rows: (k, W) uint64 array, W = ceil(l/64); bit i of a row lives
            in word i // 64 at bit position i % 64.
        seed: the 32-byte seed the matrix was expanded from.
        digest: SHA-256 hex digest of the packed row payload.
    """

    k: int
    l: int
    rows: np.ndarray
    seed: bytes
    digest: str
    _tables: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _byte_tables(self, lo: int, hi: int) -> np.ndarray:
        """Parity tables for input byte positions lo .. hi-1.

        tables[p - lo, v] is the packed k-bit XOR of matrix columns
        {8p + t : bit t of v set}, i.e. the contribution of input byte
        value v at byte position p to the output block.  Columns at or
        past l are zero, so bits past the block end never count.
        """
        kw = (self.k + 63) // 64
        # Columns of M, packed: unpack bytes lo..hi of every row (bits
        # below l only) and repack the transpose.  cols[p, t] is column
        # 8(lo + p) + t as k bits.
        rows_bytes = self.rows.astype("<u8").view(np.uint8).reshape(self.k, -1)
        bits = np.unpackbits(
            rows_bytes[:, lo:hi], axis=1, count=min(8 * hi, self.l) - 8 * lo,
            bitorder="little",
        )
        cols = np.zeros(((hi - lo) * 8, kw * 8), dtype=np.uint8)
        cols[: bits.shape[1], : (self.k + 7) // 8] = np.packbits(
            bits.T, axis=1, bitorder="little"
        )
        cols = cols.view("<u8").reshape(hi - lo, 8, kw)
        # T[v] is the XOR of the columns of v's set bits, so the entries
        # with top bit t are the ones below 2^t XOR column t.
        tables = np.zeros((hi - lo, 256, kw), dtype=np.uint64)
        for t in range(8):
            half = 1 << t
            np.bitwise_xor(
                tables[:, :half], cols[:, t, None, :], out=tables[:, half : 2 * half]
            )
        return tables

    def _table_tiles(self):
        """Yield (first byte position, tables) tiles covering every position.

        Each tile holds at most _TABLE_BYTES_LIMIT bytes.  The first tile
        is kept in _tables for later calls; any further tiles are built
        only when reached and dropped after use, so a matrix never holds
        more than one tile.
        """
        n_pos = (self.l + 7) // 8
        per_tile = max(1, _TABLE_BYTES_LIMIT // (256 * 8 * ((self.k + 63) // 64)))
        if self._tables is None:
            self._tables = self._byte_tables(0, min(per_tile, n_pos))
        yield 0, self._tables
        for lo in range(self._tables.shape[0], n_pos, per_tile):
            yield lo, self._byte_tables(lo, min(lo + per_tile, n_pos))


def generate_matrix(seed: bytes, k: int, l: int) -> BinaryMatrix:
    """Expand a 256-bit seed into a k x l extraction matrix.

    Bit (row j, column i) of the matrix is bit j*l + i of the SHA-256
    counter stream keyed by the seed (LSB-first within each stream
    byte), giving a platform- and endianness-independent expansion.

    Args:
        seed: 32 bytes.
        k, l: dimensions with 0 < k < l <= 2**20.

    Returns:
        BinaryMatrix with its content digest filled in.
    """
    if not 0 < k < l:
        raise ValueError(f"need 0 < k < l, got k={k}, l={l}")
    if l > MAX_BLOCK_BITS:
        raise ValueError(f"l={l} exceeds limit {MAX_BLOCK_BITS}")
    if not isinstance(seed, bytes) or len(seed) != 32:
        raise ValueError("matrix seed must be 32 bytes")

    stream = _prf_bytes(seed, (k * l + 7) // 8)
    bits = np.unpackbits(
        np.frombuffer(stream, dtype=np.uint8), count=k * l, bitorder="little"
    ).reshape(k, l)
    w = (l + 63) // 64
    row_bytes = np.packbits(bits, axis=1, bitorder="little")
    row_bytes = np.pad(row_bytes, ((0, 0), (0, w * 8 - row_bytes.shape[1])))
    rows = row_bytes.view("<u8").astype(np.uint64)

    digest = hashlib.sha256(rows.astype("<u8").tobytes()).hexdigest()
    return BinaryMatrix(k=k, l=l, rows=rows, seed=seed, digest=digest)


@dataclass
class ExtractedStream:
    """Extractor output with block accounting.

    length of bits = blocks_processed * k; the discarded residual is the
    input tail shorter than one l-bit block (never zero-padded, padding
    would bias the parities).
    """

    bits: BitString
    blocks_processed: int
    residual_bits_discarded: int


def frame_to_bits(frame: Frame, usable: np.ndarray | None = None) -> BitString:
    """Serialize a frame's codes to a raw bit stream.

    Unmasked pixels are visited in row-major order; each contributes
    bit_depth bits, least significant first (the low bits carry most of
    the shot noise).

    Codes are packed by shifts, a group of g codes at a time: 8/gcd(b, 8)
    codes of b bits fill a whole number of bytes, and a group is as many
    of those as fit one 64-bit word, or one of them (72 to 120 bits, two
    words) for odd b > 7.  Code t of a group goes to bit t*b of the
    group's little-endian words; a code that straddles two words is
    split between them.

    Args:
        frame: source frame.
        usable: optional (height, width) bool array; True pixels
            contribute, the rest are skipped.  None means all pixels
            contribute.

    Returns:
        BitString of n_unmasked * bit_depth bits.
    """
    codes = frame.codes
    if usable is not None:
        if usable.shape != codes.shape:
            height, width = usable.shape
            raise ValueError(
                f"mask geometry {width}x{height} does not match "
                f"frame {frame.width}x{frame.height}"
            )
        codes = codes[usable]
    b, flat = frame.bit_depth, codes.reshape(-1)
    g = 8 // math.gcd(b, 8)
    g *= max(1, 64 // (g * b))
    n_groups = (flat.size + g - 1) // g
    words = np.zeros((n_groups, (g * b + 63) // 64), dtype="<u8")
    code = np.empty(n_groups, dtype=np.uint64)
    for t in range(g):
        # Code t of each group; a last group cut short lacks it, and its
        # missing codes stay zero bits.
        src = flat[t::g]
        c = code[: src.size]
        c[...] = src
        w, shift = divmod(t * b, 64)
        if shift + b > 64:
            words[: src.size, w + 1] |= c >> (64 - shift)
        c <<= shift
        words[: src.size, w] |= c
    group_bytes = words.view(np.uint8)[:, : g * b // 8]
    n_bits = flat.size * b
    return BitString(group_bytes.reshape(-1)[: (n_bits + 7) // 8], n_bits)


def concat_streams(streams) -> BitString:
    """Join per-frame raw bit streams, in order, into one extractor input."""
    return BitString.concat(list(streams))


def _block_bytes(
    packed: np.ndarray, start: int, count: int, l: int, lo: int, hi: int
) -> np.ndarray:
    """Byte positions lo .. hi-1 of blocks start .. start+count-1, as (count, hi-lo) bytes.

    Byte p of a block holds its bits 8p .. 8p+7, LSB first.  When l is
    not a multiple of 8 the last byte also carries the bits that follow
    the block; the byte tables give those zero weight.
    """
    n_pos = (l + 7) // 8
    # Blocks r, r+8, r+16, ... begin l bytes apart at one bit shift, so
    # each such group is a reshape of the stream bytes.  The copy is
    # zero-padded so that every row of l bytes is whole.
    byte0 = start * l // 8
    span = np.zeros(l * ((count + 7) // 8 + 2) + n_pos, dtype=np.uint8)
    avail = packed[byte0 : byte0 + span.size]
    span[: avail.size] = avail
    out = np.empty((count, hi - lo), dtype=np.uint8)
    for r in range(min(8, count)):
        first, shift = divmod((start + r) * l, 8)
        n_rows = len(range(r, count, 8))
        base = first - byte0 + lo
        rows = span[base : base + n_rows * l].reshape(n_rows, l)
        out[r::8] = rows[:, : hi - lo] >> shift
        if shift:
            out[r::8] |= rows[:, 1 : hi - lo + 1] << (8 - shift)
    return out


def extract(
    stream: BitString,
    matrix: BinaryMatrix,
    *,
    n_workers: int = 1,
) -> ExtractedStream:
    """Run the matrix extractor over a raw bit stream.

    The stream is cut into consecutive l-bit blocks; block m yields
    output bits m*k .. m*k+k-1 with bit j = parity(row_j AND block).
    A trailing partial block is discarded (and counted), never padded.

    Blocks are processed in chunks of _CHUNK_BLOCKS on the calling
    thread.  n_workers > 1 hands the chunks to a thread pool instead;
    the chunk grid is fixed, so output is bit-identical for any worker
    count, but the lookups hold the interpreter lock, so the extra
    threads cost CPU and save no wall time.

    Args:
        stream: raw bits.
        matrix: extraction matrix.
        n_workers: threads to run the chunks on, default 1 (no pool).

    Returns:
        ExtractedStream of blocks_processed * k bits.
    """
    l, k = matrix.l, matrix.k
    n_blocks = stream.n_bits // l
    residual = stream.n_bits - n_blocks * l
    if n_blocks == 0:
        return ExtractedStream(
            bits=BitString.zeros(0), blocks_processed=0, residual_bits_discarded=residual
        )

    packed = stream.packed
    acc = np.zeros((n_blocks, (k + 63) // 64), dtype="<u8")
    chunks = [
        slice(lo, min(lo + _CHUNK_BLOCKS, n_blocks))
        for lo in range(0, n_blocks, _CHUNK_BLOCKS)
    ]

    def xor_tile(rows: slice, lo: int, tables: np.ndarray) -> None:
        block_bytes = _block_bytes(
            packed, rows.start, rows.stop - rows.start, l, lo, lo + tables.shape[0]
        )
        chunk_acc = acc[rows]
        # One reused lookup buffer instead of a fresh array per position;
        # mode="clip" (byte values are always in range) lets take write
        # into it unbuffered.
        looked_up = np.empty_like(chunk_acc)
        for p in range(tables.shape[0]):
            np.take(tables[p], block_bytes[:, p], axis=0, out=looked_up, mode="clip")
            chunk_acc ^= looked_up

    def pack_chunk(rows: slice) -> np.ndarray:
        # Block m's output bits are the first k bits of its accumulator row.
        bits = np.unpackbits(
            acc[rows].view(np.uint8), axis=1, count=k, bitorder="little"
        )
        return np.packbits(bits.reshape(-1), bitorder="little")

    with (
        ThreadPoolExecutor(n_workers) if n_workers > 1 else contextlib.nullcontext()
    ) as pool:
        run = map if pool is None else pool.map
        for lo, tables in matrix._table_tiles():
            list(run(lambda rows: xor_tile(rows, lo, tables), chunks))
        parts = list(run(pack_chunk, chunks))

    # Every chunk but the last covers _CHUNK_BLOCKS*k bits, a multiple
    # of 8, so packed parts concatenate without bit shifting.
    out = BitString(np.concatenate(parts), n_blocks * k)
    return ExtractedStream(
        bits=out, blocks_processed=n_blocks, residual_bits_discarded=residual
    )


def extract_frames(
    frames, sensor: SensorConfig, matrix: BinaryMatrix, usable: np.ndarray | None, out
) -> tuple[dict, str | None]:
    """Extract a frame stack into the binary file out, reading each frame once.

    Raw bits wait only until _BATCH_CHUNKS * _CHUNK_BLOCKS whole blocks
    are buffered; each such batch is extracted on this thread and written
    MSB-first.  A batch is a multiple of 8 blocks, so it starts on a byte
    of the buffer and its output is whole bytes; blocks lie on one grid
    from the first raw bit, so out gets one extract() of the whole
    stream.  The last, shorter batch takes the tail, whose partial block
    is discarded.

    Returns (record, refusal): the `extract --json` record up to "out",
    with certify's fields and refusal.  Raises ValueError for a first
    frame of another bit depth than the sensor's, before any extraction;
    for a mixed stack, before the odd frame is serialized; for one too
    short for a whole block; then as certify does.
    """
    l, k = matrix.l, matrix.k
    # Whole chunks, on extract()'s chunk grid.
    batch_bytes = _BATCH_CHUNKS * _CHUNK_BLOCKS * l // 8
    blocks, pending = [], []

    def extract_batch(stream: BitString) -> int:
        result = extract(stream, matrix)
        export_stream(result.bits, out)
        blocks.append(result.blocks_processed)
        return result.residual_bits_discarded

    stats = PixelStats()
    for frame in frames:
        if not stats.n_frames and frame.bit_depth != sensor.bit_depth:
            raise ValueError(
                f"the stack's codes are {frame.bit_depth}-bit, the sensor's {sensor.bit_depth}-bit"
            )
        # A later frame of another depth or shape fails here, unserialized.
        stats.add(frame)
        pending.append(frame_to_bits(frame, usable))
        pending_bits = sum(part.n_bits for part in pending)
        if pending_bits >= 8 * batch_bytes:
            buffered = concat_streams(pending)
            cut = pending_bits // (8 * batch_bytes) * batch_bytes
            for lo in range(0, cut, batch_bytes):
                batch = buffered.packed[lo : lo + batch_bytes]
                extract_batch(BitString(batch, 8 * batch_bytes))
            pending[:] = [BitString(buffered.packed[cut:], pending_bits - 8 * cut)]
    residual = extract_batch(concat_streams(pending))
    n_blocks = sum(blocks)
    if n_blocks == 0:
        raise ValueError(f"the stack's {residual} raw bits hold no whole block of l={l}")
    fields, refusal = certify(stats, usable, sensor, l, k, n_blocks)
    return {
        "command": "extract",
        "frames": stats.n_frames,
        "raw_bits": n_blocks * l + residual,
        "l": l,
        "k": k,
        "blocks_processed": n_blocks,
        "residual_bits_discarded": residual,
        "output_bits": n_blocks * k,
        "output_bytes": (n_blocks * k + 7) // 8,
        "padding_bits": -n_blocks * k % 8,
        **fields,
        "matrix_digest": matrix.digest,
        "matrix_seed": matrix.seed.hex(),
    }, refusal
