"""Packed bit sequences.

Bit streams in this package routinely reach hundreds of megabits, so they
are stored packed, eight bits per byte.  Internally the packing order is
little-endian within each byte (bit i of the stream lives in byte i // 8
at bit position i % 8).  That choice makes a packed stream directly
viewable as little-endian machine words, which the extractor relies on.

Exported byte streams use the opposite convention, MSB of each byte is
the earliest bit; see :meth:`BitString.msb_chunks`.  Converting between
the two mirrors the bit order of every byte.  That runs on 64-bit words,
by three mask-shift-or swaps (adjacent bits, bit pairs, nibbles) that
never cross a byte; the last few bytes, less than a word, are
zero-padded into one more word and swapped with the rest.  The test
battery reads MSB-first bytes as they are: `camrng test` converts
nothing, and a BitString handed to the battery is converted once, by
msb_chunks.  export_stream writes those chunks to an open file.
"""

from __future__ import annotations

import numpy as np

# Bytes per piece of MSB-first output: 256 KiB, so exporting a long
# stream never holds a second full-size copy of it, and a piece and its
# one temporary stay in cache through all three swaps.
_MSB_CHUNK_BYTES = 1 << 18

# (shift, mask) of each swap: the mask selects the low half of every
# 2-, 4- and 8-bit group in turn, so no swap moves a bit out of its byte.
_SWAPS = (
    (1, np.uint64(0x5555_5555_5555_5555)),
    (2, np.uint64(0x3333_3333_3333_3333)),
    (4, np.uint64(0x0F0F_0F0F_0F0F_0F0F)),
)


def _reverse_bits(data: np.ndarray) -> np.ndarray:
    """A new uint8 array holding each byte of data with its bit order mirrored.

    data may be any contiguous uint8 slice, aligned or not: it is copied
    into the (aligned) result first and swapped there.  The result is a
    view of whole words, the last one zero-padded; the padding is cut
    off on return.
    """
    words = np.empty(-(-data.size // 8), np.uint64)
    words[-1:] = 0
    words.view(np.uint8)[: data.size] = data
    tmp = np.empty_like(words)
    for shift, mask in _SWAPS:
        np.right_shift(words, shift, out=tmp)
        tmp &= mask
        words &= mask
        words <<= shift
        words |= tmp
    return words.view(np.uint8)[: data.size]


class BitString:
    """An immutable sequence of bits, stored packed.

    Nothing writes to packed after construction, neither this class nor
    its callers, nor to the array it was built from, which packed may
    share.

    Attributes:
        packed: uint8 array, ceil(n_bits / 8) long, little-endian bit order.
            Bits past n_bits in the final byte are always zero.
        n_bits: number of valid bits.
    """

    __slots__ = ("packed", "n_bits")

    def __init__(self, packed: np.ndarray, n_bits: int):
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        if n_bits < 0:
            raise ValueError(f"n_bits must be nonnegative, got {n_bits}")
        if packed.ndim != 1 or packed.size != (n_bits + 7) // 8:
            raise ValueError(
                f"packed length {packed.size} inconsistent with {n_bits} bits"
            )
        tail = n_bits % 8
        if tail and packed.size and packed[-1] >> tail:
            # Zero the unused high bits of the final byte so equality and
            # popcounts never see stale data; copy first, since the array
            # may be the caller's.
            packed = packed.copy()
            packed[-1] &= (1 << tail) - 1
        self.packed = packed
        self.n_bits = int(n_bits)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bits01(cls, bits) -> "BitString":
        """Pack an array of 0/1 values."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            bits = bits.ravel()
        if bits.size and bits.max() > 1:
            raise ValueError("bit array may only contain 0 and 1")
        return cls(np.packbits(bits, bitorder="little"), bits.size)

    @classmethod
    def zeros(cls, n_bits: int) -> "BitString":
        return cls(np.zeros((n_bits + 7) // 8, dtype=np.uint8), n_bits)

    @classmethod
    def concat(cls, parts: "list[BitString]") -> "BitString":
        """Concatenate bit strings, preserving order.

        Each part's packed bytes are shifted to its bit offset and ORed
        in; bits past a part's end are zero, so neighbours never clash.
        """
        n_bits = sum(p.n_bits for p in parts)
        # One spare byte takes the shifted-out high bits of the last part.
        out = np.zeros((n_bits + 7) // 8 + 1, dtype=np.uint8)
        pos = 0
        for p in parts:
            byte, shift = divmod(pos, 8)
            end = byte + p.packed.size
            if shift:
                out[byte:end] |= p.packed << shift
                out[byte + 1 : end + 1] |= p.packed >> (8 - shift)
            else:
                out[byte:end] |= p.packed
            pos += p.n_bits
        return cls(out[:-1], n_bits)

    # ------------------------------------------------------------------
    # Views and exports
    # ------------------------------------------------------------------

    def msb_chunks(self):
        """Yield the MSB-first bytes, last one zero-padded low, 256 KiB at a time.

        Each piece is a uint8 array, which any binary file's write() takes.
        """
        for lo in range(0, self.packed.size, _MSB_CHUNK_BYTES):
            yield _reverse_bits(self.packed[lo : lo + _MSB_CHUNK_BYTES])

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.n_bits == other.n_bits and np.array_equal(
            self.packed, other.packed
        )

    def __repr__(self) -> str:
        return f"BitString(n_bits={self.n_bits})"


def export_stream(bits: BitString, fh) -> None:
    """Write bits to the binary file fh, MSB of each byte = earliest bit.

    The final byte is zero-padded on the low side when the bit count is
    not a multiple of 8.  fh may be any binary file-like object, e.g.
    sys.stdout.buffer for piping into an external battery.
    """
    for part in bits.msb_chunks():
        fh.write(part)
