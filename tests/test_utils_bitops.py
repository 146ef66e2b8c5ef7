"""Unit tests for the lane-word helpers of repro.utils.bitops."""

import numpy as np
import pytest

from repro.utils import bitops

#: Lane counts straddling every machine-word boundary condition.
EDGE_LANE_COUNTS = (0, 1, 63, 64, 65)


def _int_word(bits):
    """Test oracle: the Python-int lane word (bit ``k`` = lane ``k``) of bools."""
    return sum(1 << int(lane) for lane in np.flatnonzero(bits))


class TestLaneWordConversions:
    """Round trips of the lane-word <-> ndarray conversions at word edges."""

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_word_bits_round_trip(self, lanes):
        rng = np.random.default_rng(lanes)
        bits = rng.integers(0, 2, size=lanes).astype(bool)
        packed = bitops.bits_to_lane_array(bits)
        word = int.from_bytes(packed.astype("<u8").tobytes(), "little")
        assert word >> max(lanes, 1) == 0  # no stray bits past the last lane
        assert word == _int_word(bits)
        recovered = bitops.lane_array_to_bits(bitops.word_to_lane_array(word, lanes), lanes)
        assert recovered.shape == (lanes,)
        assert (recovered == bits).all()

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_word_array_round_trip(self, lanes):
        rng = np.random.default_rng(100 + lanes)
        word = _int_word(rng.integers(0, 2, size=lanes).astype(bool))
        array = bitops.word_to_lane_array(word, lanes)
        assert array.dtype == np.uint64
        assert array.shape == (bitops.lane_word_count(lanes),)
        bits = bitops.lane_array_to_bits(array, lanes)
        assert _int_word(bits) == word

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_array_bits_round_trip(self, lanes):
        rng = np.random.default_rng(200 + lanes)
        bits = rng.integers(0, 2, size=(3, lanes)).astype(bool)
        packed = bitops.bits_to_lane_array(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (3, bitops.lane_word_count(lanes))
        assert (bitops.lane_array_to_bits(packed, lanes) == bits).all()

    def test_all_ones_at_word_boundaries(self):
        for lanes in (1, 63, 64, 65):
            word = (1 << lanes) - 1
            array = bitops.word_to_lane_array(word, lanes)
            assert bitops.lane_array_to_bits(array, lanes).all()

    def test_dead_tail_lanes_are_discarded(self):
        # lane_array_to_bits must drop garbage past the last live lane.
        array = np.array([np.uint64(0xFFFFFFFFFFFFFFFF)])
        bits = bitops.lane_array_to_bits(array, 3)
        assert bits.shape == (3,)
        assert bits.all()

    def test_word_count(self):
        assert [bitops.lane_word_count(n) for n in EDGE_LANE_COUNTS] == [0, 1, 1, 1, 2]
        with pytest.raises(ValueError):
            bitops.lane_word_count(-1)


class TestLaneBitOrder:
    """Lane ``k`` is bit ``k`` of a lane word and bit ``k % 64`` of word ``k // 64``."""

    def test_word_to_lane_array_is_lsb_first(self):
        array = bitops.word_to_lane_array(0b1011, 4)
        assert bitops.lane_array_to_bits(array, 4).tolist() == [True, True, False, True]

    def test_bits_to_lane_array_is_lsb_first(self):
        packed = bitops.bits_to_lane_array(np.array([1, 1, 0, 1], dtype=bool))
        assert packed.tolist() == [0b1011]

    @pytest.mark.parametrize("lane", (0, 1, 63, 64, 65, 127, 128, 129))
    def test_one_hot_lane_lands_in_its_machine_word(self, lane):
        lanes = 130
        expected = np.zeros(bitops.lane_word_count(lanes), dtype=np.uint64)
        expected[lane // 64] = np.uint64(1 << (lane % 64))
        assert (bitops.word_to_lane_array(1 << lane, lanes) == expected).all()
        one_hot = np.zeros(lanes, dtype=bool)
        one_hot[lane] = True
        assert (bitops.bits_to_lane_array(one_hot) == expected).all()


class TestPackedLaneArithmetic:
    """Packed words obey the lane-wise logic and popcounts the backends use."""

    @pytest.mark.parametrize(
        "op", (np.bitwise_and, np.bitwise_or, np.bitwise_xor), ids=("and", "or", "xor")
    )
    def test_bitwise_ops_commute_with_packing(self, op):
        rng = np.random.default_rng(300)
        for lanes in (1, 63, 64, 65, 130):
            a = rng.integers(0, 2, size=(4, lanes)).astype(bool)
            b = rng.integers(0, 2, size=(4, lanes)).astype(bool)
            packed = op(bitops.bits_to_lane_array(a), bitops.bits_to_lane_array(b))
            assert (packed == bitops.bits_to_lane_array(op(a, b))).all()

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_popcount_counts_live_lanes(self, lanes):
        # Dead tail lanes are zero-filled, so a popcount needs no lane mask.
        rng = np.random.default_rng(400 + lanes)
        bits = rng.integers(0, 2, size=(3, lanes)).astype(bool)
        bits[0] = True
        packed = bitops.bits_to_lane_array(bits)
        assert (np.bitwise_count(packed).sum(axis=-1) == bits.sum(axis=-1)).all()

    def test_inverting_against_the_all_ones_mask(self):
        lanes = 70
        bits = np.random.default_rng(500).integers(0, 2, size=lanes).astype(bool)
        inverted = bitops.UINT64_MASK ^ bitops.bits_to_lane_array(bits)
        # The inversion sets the dead tail lanes; unpacking must drop them.
        assert int(inverted[-1]) >> (lanes % 64) == (1 << (64 - lanes % 64)) - 1
        assert (bitops.lane_array_to_bits(inverted, lanes) == ~bits).all()

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_int_word_and_ndarray_layouts_agree(self, lanes):
        bits = np.random.default_rng(600 + lanes).integers(0, 2, size=lanes).astype(bool)
        word = _int_word(bits)
        assert (
            bitops.word_to_lane_array(word, lanes) == bitops.bits_to_lane_array(bits)
        ).all()


class TestLeadingAxes:
    def test_column_views_unpack_like_contiguous_copies(self):
        # Two packed batches side by side, read back through column views.
        lanes = 100
        words = bitops.lane_word_count(lanes)
        rng = np.random.default_rng(700)
        prev = rng.integers(0, 2, size=(5, lanes)).astype(bool)
        curr = rng.integers(0, 2, size=(5, lanes)).astype(bool)
        both = np.concatenate(
            [bitops.bits_to_lane_array(prev), bitops.bits_to_lane_array(curr)], axis=1
        )
        assert not both[:, words:].flags.c_contiguous
        assert (bitops.lane_array_to_bits(both[:, :words], lanes) == prev).all()
        assert (bitops.lane_array_to_bits(both[:, words:], lanes) == curr).all()

    def test_two_leading_axes_round_trip(self):
        lanes = 65
        bits = np.random.default_rng(800).integers(0, 2, size=(2, 3, lanes)).astype(bool)
        packed = bitops.bits_to_lane_array(bits)
        assert packed.shape == (2, 3, 2)
        assert (bitops.lane_array_to_bits(packed, lanes) == bits).all()
        for index in np.ndindex(2, 3):
            assert (packed[index] == bitops.bits_to_lane_array(bits[index])).all()
