"""Tests for the cache model: geometry and AMAT."""

import pytest

from repro.arch.cache import CacheGeometry, amat


class TestGeometry:
    def test_field_widths(self):
        g = CacheGeometry(32 * 1024, 64, 4)
        assert g.offset_bits == 6
        assert g.num_sets == 128
        assert g.index_bits == 7
        assert g.tag_bits == 32 - 7 - 6

    def test_direct_mapped(self):
        g = CacheGeometry(1024, 32, 1)
        assert g.num_sets == 32

    def test_fully_associative_has_no_index(self):
        g = CacheGeometry(1024, 32, 32)
        assert g.index_bits == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(1000, 32, 2)

    def test_block_bigger_than_cache_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(32, 64, 1)

    def test_decompose_reassembles(self):
        g = CacheGeometry(16 * 1024, 32, 2)
        address = 0xDEADBEEF
        tag, index, offset = g.decompose(address)
        rebuilt = (tag << (g.index_bits + g.offset_bits)) \
            | (index << g.offset_bits) | offset
        assert rebuilt == address & 0xFFFFFFFF or rebuilt == address

    def test_field_layout_covers_address(self):
        g = CacheGeometry(32 * 1024, 64, 4)
        layout = g.field_layout()
        total = sum(hi - lo + 1 for _, hi, lo in layout)
        assert total == 32


class TestAmat:
    def test_amat(self):
        assert amat(1.0, 0.05, 100.0) == pytest.approx(6.0)

    def test_amat_validation(self):
        with pytest.raises(ValueError):
            amat(1.0, 1.5, 100.0)
