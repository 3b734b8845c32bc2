"""Tests for data representation and computer-arithmetic helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.digital import arithmetic as ar


class TestTwosComplement:

    def test_range(self):
        assert ar.twos_complement_range(8) == (-128, 127)


class TestOverflow:
    def test_positive_overflow(self):
        result, overflow = ar.add_with_overflow(90, 70, 8)
        assert overflow and result == -96

    def test_negative_overflow(self):
        result, overflow = ar.add_with_overflow(-100, -100, 8)
        assert overflow and result == 56

    def test_no_overflow(self):
        result, overflow = ar.add_with_overflow(50, 20, 8)
        assert not overflow and result == 70

    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_wrap_consistent_with_mod(self, a, b):
        result, _ = ar.add_with_overflow(a, b, 8)
        assert (result - (a + b)) % 256 == 0
        assert -128 <= result <= 127


class TestFixedAndFloat:

    def test_float_fields_one(self):
        assert ar.float_fields(1.0) == (0, 127, 0)

    def test_float_fields_minus_six_point_five(self):
        sign, exponent, mantissa = ar.float_fields(-6.5)
        assert sign == 1 and exponent == 129
        # 6.5 = 1.625 * 2^2; fraction 0.625 -> mantissa 0.625 * 2^23
        assert mantissa == int(0.625 * (1 << 23))

    def test_float_zero(self):
        assert ar.float_fields(0.0) == (0, 0, 0)

    def test_float_specials_raise(self):
        with pytest.raises(ValueError):
            ar.float_fields(float("inf"))


class TestCodes:

    def test_hamming_encode_length(self):
        assert len(ar.hamming_encode("1011")) == 7

    def test_hamming_clean_syndrome_zero(self):
        code = ar.hamming_encode("1011")
        assert ar.hamming_syndrome(code) == 0

    @given(st.text(alphabet="01", min_size=4, max_size=4),
           st.integers(0, 6))
    def test_hamming_corrects_any_single_flip(self, data, position):
        code = ar.hamming_encode(data)
        corrupted = list(code)
        corrupted[position] = "1" if corrupted[position] == "0" else "0"
        fixed, found = ar.hamming_correct("".join(corrupted))
        assert fixed == code
        assert found == position + 1


class TestMemory:
    def test_address_bits(self):
        assert ar.memory_address_bits(65536) == 16
        assert ar.memory_address_bits(1) == 0
        assert ar.memory_address_bits(3) == 2

    def test_chip_count(self):
        assert ar.memory_chip_count(64 * 1024, 16, 16 * 1024, 8) == 8

    def test_chip_count_exact_fit(self):
        assert ar.memory_chip_count(1024, 8, 1024, 8) == 1

    def test_chip_count_validates(self):
        with pytest.raises(ValueError):
            ar.memory_chip_count(0, 8, 1024, 8)
