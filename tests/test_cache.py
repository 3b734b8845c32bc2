"""Tests for the cache model: geometry, simulation, AMAT."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.cache import (
    Cache,
    CacheGeometry,
    amat,
)


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


class TestSimulation:
    def test_first_access_misses(self):
        cache = Cache(CacheGeometry(1024, 32, 2))
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.miss_rate == pytest.approx(0.5)

    def test_block_granularity(self):
        cache = Cache(CacheGeometry(1024, 32, 2))
        cache.access(0)
        assert cache.access(31) is True  # same block
        assert cache.access(32) is False  # next block

    def test_lru_eviction(self):
        # direct-mapped-like: 2 ways, hammer 3 conflicting blocks
        g = CacheGeometry(64, 32, 2)  # one set, two ways
        cache = Cache(g)
        a, b, c = 0, 1024, 2048
        cache.access(a)
        cache.access(b)
        cache.access(a)       # a is now most-recent
        cache.access(c)       # evicts b (LRU)
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_fifo_differs_from_lru(self):
        g = CacheGeometry(64, 32, 2)
        fifo = Cache(g, policy="FIFO")
        a, b, c = 0, 1024, 2048
        fifo.access(a)
        fifo.access(b)
        fifo.access(a)        # does not refresh FIFO age
        fifo.access(c)        # evicts a (oldest)
        assert fifo.access(a) is False

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheGeometry(64, 32, 2), policy="RANDOM")

    def test_miss_rate_requires_accesses(self):
        cache = Cache(CacheGeometry(64, 32, 2))
        with pytest.raises(ValueError):
            cache.miss_rate

    @given(st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(CacheGeometry(4096, 64, 4))
        cache.run(addresses)
        assert cache.hits + cache.misses == len(addresses)

    @given(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=100))
    def test_repeating_a_trace_only_improves(self, addresses):
        first = Cache(CacheGeometry(4096, 64, 4))
        first.run(addresses)
        second = Cache(CacheGeometry(4096, 64, 4))
        second.run(addresses)
        second.run(addresses)
        assert second.hit_rate >= first.hit_rate - 1e-12


class TestAmat:
    def test_amat(self):
        assert amat(1.0, 0.05, 100.0) == pytest.approx(6.0)

    def test_amat_validation(self):
        with pytest.raises(ValueError):
            amat(1.0, 1.5, 100.0)
