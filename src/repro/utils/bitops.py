"""Bit-level helpers used throughout the circuit and error-model code.

All helpers operate on plain Python integers interpreted as fixed-width
unsigned values unless stated otherwise.  Bit index 0 is the least
significant bit (LSB-first ordering), which matches how circuit buses are
built in :mod:`repro.circuits`.

Lane words
----------

The batched simulation backends pack one Monte-Carlo *lane* (vector index)
per bit: bit ``k`` of a lane word holds a net's 0/1 value in lane ``k``.
Two interchangeable physical representations are supported, with the
conversions between them living here so every backend shares one layout:

* an arbitrary-precision Python integer (the ``bigint`` backend), converted
  to/from boolean arrays with :func:`word_to_lane_bits` /
  :func:`lane_bits_to_word`;
* a little-endian ``uint64[ceil(lanes / 64)]`` NumPy array (the ``ndarray``
  backend), converted from a lane word with :func:`word_to_lane_array` and
  expanded to/from boolean arrays with :func:`lane_array_to_bits` /
  :func:`bits_to_lane_array`.  The array
  variants accept any number of leading axes, so a whole level of nets (or
  a whole output bus) converts in one call.
"""

from __future__ import annotations

import numpy as np

#: All-ones machine word: the lane mask of a full 64-lane uint64 word.
UINT64_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def lane_word_count(lanes: int) -> int:
    """Number of uint64 words needed to hold ``lanes`` packed lanes."""
    if lanes < 0:
        raise ValueError(f"lanes must be non-negative, got {lanes}")
    return (lanes + 63) // 64


def max_unsigned(width: int) -> int:
    """Return the largest unsigned value representable in ``width`` bits."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def int_to_bits(value: int, width: int) -> list[int]:
    """Decompose ``value`` into ``width`` bits, LSB first.

    Raises:
        ValueError: if ``value`` does not fit in ``width`` unsigned bits.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if value > max_unsigned(width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def bits_to_int(bits: list[int]) -> int:
    """Recompose an LSB-first bit list into an unsigned integer."""
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= bit << i
    return value


def bit_flip(value: int, bit: int) -> int:
    """Return ``value`` with bit position ``bit`` inverted."""
    if bit < 0:
        raise ValueError(f"bit index must be non-negative, got {bit}")
    return value ^ (1 << bit)


def bit_slice(value: int, low: int, high: int) -> int:
    """Extract bits ``[low, high)`` of ``value`` (LSB-first, half-open)."""
    if not 0 <= low <= high:
        raise ValueError(f"invalid slice [{low}, {high})")
    return (value >> low) & max_unsigned(high - low)


def mask_lsbs(value: int, count: int) -> int:
    """Zero the ``count`` least significant bits of ``value``."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return value & ~max_unsigned(count)


def mask_msbs(value: int, count: int, width: int) -> int:
    """Zero the ``count`` most significant bits of a ``width``-bit value."""
    if count < 0 or count > width:
        raise ValueError(f"count {count} out of range for width {width}")
    return value & max_unsigned(width - count)


def hamming_distance(a: int, b: int) -> int:
    """Number of bit positions where ``a`` and ``b`` differ."""
    return count_set_bits(a ^ b)


def count_set_bits(value: int) -> int:
    """Population count of a non-negative integer."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return value.bit_count()


# --------------------------------------------------------------- lane words
def word_to_lane_bits(word: int, lanes: int) -> np.ndarray:
    """Expand a lane word into a boolean NumPy array of shape ``(lanes,)``."""
    raw = word.to_bytes((lanes + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:lanes].astype(bool)


def lane_bits_to_word(bits: np.ndarray) -> int:
    """Pack a boolean array back into a lane word (inverse of the above)."""
    packed = np.packbits(np.asarray(bits).astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def word_to_lane_array(word: int, lanes: int) -> np.ndarray:
    """Convert a bigint lane word into a packed ``uint64`` lane array.

    The result has shape ``(lane_word_count(lanes),)``; machine word ``w``
    holds lanes ``[64 * w, 64 * (w + 1))`` little-endian, so lane ``k`` is
    bit ``k % 64`` of word ``k // 64``.
    """
    words = lane_word_count(lanes)
    raw = word.to_bytes(words * 8, "little")
    return np.frombuffer(raw, dtype=np.uint64).copy()


def lane_array_to_bits(array: np.ndarray, lanes: int) -> np.ndarray:
    """Expand packed ``uint64`` lane arrays into boolean arrays.

    ``array`` has shape ``(..., lane_word_count(lanes))``; the result has
    shape ``(..., lanes)``.  Works on any number of leading axes, so one
    call expands a whole level of nets.
    """
    array = np.ascontiguousarray(array, dtype=np.uint64)
    bits = np.unpackbits(
        array.view(np.uint8).reshape(array.shape[:-1] + (array.shape[-1] * 8,)),
        axis=-1,
        bitorder="little",
    )
    return bits[..., :lanes].astype(bool)


def bits_to_lane_array(bits: np.ndarray) -> np.ndarray:
    """Pack boolean arrays ``(..., lanes)`` into ``(..., words)`` uint64 arrays.

    Dead tail lanes of the last machine word are zero-filled (the inverse of
    :func:`lane_array_to_bits` for any leading shape).
    """
    bits = np.asarray(bits)
    lanes = bits.shape[-1]
    words = lane_word_count(lanes)
    packed = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (words * 8,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view(np.uint64).reshape(bits.shape[:-1] + (words,))


def to_twos_complement(value: int, width: int) -> int:
    """Encode a signed integer into its ``width``-bit two's-complement form."""
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"value {value} does not fit in signed {width} bits")
    return value & max_unsigned(width)


def sign_extend(value: int, width: int) -> int:
    """Decode a ``width``-bit two's-complement pattern into a signed integer."""
    if value < 0 or value > max_unsigned(width):
        raise ValueError(f"value {value} is not a {width}-bit pattern")
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)
