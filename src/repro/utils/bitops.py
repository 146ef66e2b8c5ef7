"""Lane-word helpers shared by the batched simulation backends.

Bit index 0 is the least significant bit (LSB-first ordering), which
matches how circuit buses are built in :mod:`repro.circuits`.

Lane words
----------

The batched simulation backends pack one Monte-Carlo *lane* (vector index)
per bit: a net's lane word is a little-endian ``uint64[ceil(lanes / 64)]``
NumPy row, lane ``k`` being bit ``k % 64`` of machine word ``k // 64``.
:func:`word_to_lane_array` converts a Python-int lane word (bit ``k`` =
lane ``k``) into that layout, and :func:`lane_array_to_bits` /
:func:`bits_to_lane_array` expand rows to/from boolean arrays.  The array
helpers accept any number of leading axes, so a whole level of nets (or a
whole output bus) converts in one call.
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


def word_to_lane_array(word: int, lanes: int) -> np.ndarray:
    """Convert a Python-int lane word into a packed ``uint64`` lane array.

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
