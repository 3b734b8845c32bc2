"""Tests for virtual memory: geometry, page-table size, EAT."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.vm import (
    VmGeometry,
    effective_access_time,
    page_table_size_bytes,
)


class TestGeometry:
    def test_field_widths(self):
        g = VmGeometry(32, 30, 4096)
        assert g.offset_bits == 12
        assert g.vpn_bits == 20
        assert g.ppn_bits == 18

    def test_two_level_split(self):
        g = VmGeometry(32, 30, 4096, levels=2)
        assert g.bits_per_level == 10
        assert g.entries_per_table == 1024

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            VmGeometry(32, 30, 4096, levels=3)

    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(ValueError):
            VmGeometry(32, 30, 5000)

    def test_split_vpn(self):
        g = VmGeometry(32, 30, 4096, levels=2)
        vaddr = (0x3FF << 22) | (0x001 << 12) | 0xABC
        assert g.split_vpn(vaddr) == [0x3FF, 0x001]
        assert g.offset(vaddr) == 0xABC

    def test_pte_bytes_rounds_to_power_of_two(self):
        g = VmGeometry(32, 30, 4096)
        assert g.pte_bytes(metadata_bits=12) == 4

    def test_flat_table_size(self):
        g = VmGeometry(32, 30, 4096)
        assert page_table_size_bytes(g, metadata_bits=12) == 4 * 2 ** 20


class TestEat:
    def test_formula(self):
        value = effective_access_time(0.98, 1.0, 100.0, levels=2)
        expected = 0.98 * 101.0 + 0.02 * 301.0
        assert value == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_access_time(1.5, 1.0, 100.0)

    @given(st.floats(0.0, 1.0))
    def test_monotone_in_hit_rate(self, rate):
        low = effective_access_time(rate, 1.0, 100.0)
        high = effective_access_time(min(1.0, rate + 0.1), 1.0, 100.0)
        assert high <= low + 1e-9
