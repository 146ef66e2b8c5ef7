"""Unit tests for repro.utils.bitops."""

import numpy as np
import pytest

from repro.utils import bitops

#: Lane counts straddling every machine-word boundary condition.
EDGE_LANE_COUNTS = (0, 1, 63, 64, 65)


class TestIntBitsRoundTrip:
    def test_int_to_bits_lsb_first(self):
        assert bitops.int_to_bits(0b1011, 4) == [1, 1, 0, 1]

    def test_bits_to_int(self):
        assert bitops.bits_to_int([1, 1, 0, 1]) == 0b1011

    def test_round_trip(self):
        for value in (0, 1, 37, 255):
            assert bitops.bits_to_int(bitops.int_to_bits(value, 8)) == value

    def test_value_too_large_raises(self):
        with pytest.raises(ValueError):
            bitops.int_to_bits(16, 4)

    def test_negative_value_raises(self):
        with pytest.raises(ValueError):
            bitops.int_to_bits(-1, 4)

    def test_invalid_bit_raises(self):
        with pytest.raises(ValueError):
            bitops.bits_to_int([0, 2])


class TestMaxUnsigned:
    def test_values(self):
        assert bitops.max_unsigned(0) == 0
        assert bitops.max_unsigned(1) == 1
        assert bitops.max_unsigned(8) == 255
        assert bitops.max_unsigned(22) == 4194303

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            bitops.max_unsigned(-1)


class TestBitFlip:
    def test_flip_sets_and_clears(self):
        assert bitops.bit_flip(0b0000, 2) == 0b0100
        assert bitops.bit_flip(0b0100, 2) == 0b0000

    def test_flip_msb_of_product(self):
        assert bitops.bit_flip(0, 15) == 1 << 15

    def test_negative_bit_raises(self):
        with pytest.raises(ValueError):
            bitops.bit_flip(1, -1)


class TestSlicesAndMasks:
    def test_bit_slice(self):
        assert bitops.bit_slice(0b110110, 1, 4) == 0b011

    def test_bit_slice_invalid(self):
        with pytest.raises(ValueError):
            bitops.bit_slice(3, 4, 2)

    def test_mask_lsbs(self):
        assert bitops.mask_lsbs(0b11111111, 3) == 0b11111000

    def test_mask_msbs(self):
        assert bitops.mask_msbs(0b11111111, 3, 8) == 0b00011111

    def test_mask_msbs_out_of_range(self):
        with pytest.raises(ValueError):
            bitops.mask_msbs(1, 9, 8)


class TestHammingAndPopcount:
    def test_hamming_distance(self):
        assert bitops.hamming_distance(0b1010, 0b0110) == 2
        assert bitops.hamming_distance(7, 7) == 0

    def test_count_set_bits(self):
        assert bitops.count_set_bits(0) == 0
        assert bitops.count_set_bits(0b1011) == 3

    def test_count_negative_raises(self):
        with pytest.raises(ValueError):
            bitops.count_set_bits(-3)


class TestLaneWordConversions:
    """Round trips of the lane-word <-> ndarray conversions at word edges."""

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_word_bits_round_trip(self, lanes):
        rng = np.random.default_rng(lanes)
        bits = rng.integers(0, 2, size=lanes).astype(bool)
        word = bitops.lane_bits_to_word(bits)
        assert word >> max(lanes, 1) == 0  # no stray bits past the last lane
        recovered = bitops.word_to_lane_bits(word, lanes)
        assert recovered.shape == (lanes,)
        assert (recovered == bits).all()

    @pytest.mark.parametrize("lanes", EDGE_LANE_COUNTS)
    def test_word_array_round_trip(self, lanes):
        rng = np.random.default_rng(100 + lanes)
        word = int(bitops.lane_bits_to_word(rng.integers(0, 2, size=lanes).astype(bool)))
        array = bitops.word_to_lane_array(word, lanes)
        assert array.dtype == np.uint64
        assert array.shape == (bitops.lane_word_count(lanes),)
        bits = bitops.lane_array_to_bits(array, lanes)
        assert bitops.lane_bits_to_word(bits) == word

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
            assert bitops.word_to_lane_bits(word, lanes).all()
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

    def test_count_set_bits_matches_int_bit_count(self):
        for value in (0, 1, (1 << 63) | 1, (1 << 200) - 1):
            assert bitops.count_set_bits(value) == value.bit_count()


class TestTwosComplement:
    def test_encode_decode(self):
        for value in (-128, -1, 0, 1, 127):
            encoded = bitops.to_twos_complement(value, 8)
            assert 0 <= encoded <= 255
            assert bitops.sign_extend(encoded, 8) == value

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            bitops.to_twos_complement(128, 8)

    def test_sign_extend_rejects_wide_patterns(self):
        with pytest.raises(ValueError):
            bitops.sign_extend(256, 8)
