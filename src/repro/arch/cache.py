"""Set-associative cache model: address decomposition and hit/miss simulation.

Provides the address-breakdown arithmetic (tag / index / offset widths) that
exam questions drill, plus a trace-driven simulator with LRU/FIFO
replacement and AMAT (average memory access time) arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Tuple


def _log2_exact(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class CacheGeometry:
    """Size parameters of a set-associative cache."""

    capacity_bytes: int
    block_bytes: int
    associativity: int
    address_bits: int = 32

    def __post_init__(self) -> None:
        _log2_exact(self.capacity_bytes, "capacity")
        _log2_exact(self.block_bytes, "block size")
        _log2_exact(self.associativity, "associativity")
        if self.block_bytes > self.capacity_bytes:
            raise ValueError("block larger than cache")
        if self.associativity * self.block_bytes > self.capacity_bytes:
            raise ValueError("associativity too high for capacity")

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.associativity

    @property
    def offset_bits(self) -> int:
        return _log2_exact(self.block_bytes, "block size")

    @property
    def index_bits(self) -> int:
        return _log2_exact(self.num_sets, "set count")

    @property
    def tag_bits(self) -> int:
        return self.address_bits - self.index_bits - self.offset_bits

    def decompose(self, address: int) -> Tuple[int, int, int]:
        """(tag, index, offset) of a byte address."""
        offset = address & (self.block_bytes - 1)
        index = (address >> self.offset_bits) & (self.num_sets - 1)
        tag = address >> (self.offset_bits + self.index_bits)
        return tag, index, offset

    def field_layout(self) -> List[Tuple[str, int, int]]:
        """(name, hi bit, lo bit) triples for figure rendering."""
        hi = self.address_bits - 1
        layout = [("TAG", hi, hi - self.tag_bits + 1)]
        hi -= self.tag_bits
        if self.index_bits:
            layout.append(("INDEX", hi, hi - self.index_bits + 1))
            hi -= self.index_bits
        layout.append(("OFFSET", hi, 0))
        return layout


class Cache:
    """Trace-driven set-associative cache with LRU or FIFO replacement."""

    def __init__(self, geometry: CacheGeometry, policy: str = "LRU"):
        policy = policy.upper()
        if policy not in ("LRU", "FIFO"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.geometry = geometry
        self.policy = policy
        # each set: OrderedDict tag -> None, least-recent first
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access a byte address; returns ``True`` on hit."""
        tag, index, _ = self.geometry.decompose(address)
        ways = self._sets[index]
        if tag in ways:
            self.hits += 1
            if self.policy == "LRU":
                ways.move_to_end(tag)
            return True
        self.misses += 1
        if len(ways) >= self.geometry.associativity:
            ways.popitem(last=False)  # evict least-recent / oldest
        ways[tag] = None
        return False

    def run(self, addresses: Sequence[int]) -> List[bool]:
        return [self.access(a) for a in addresses]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            raise ValueError("no accesses yet")
        return self.misses / self.accesses

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate


def amat(hit_time: float, miss_rate: float, miss_penalty: float) -> float:
    """Average memory access time = hit time + miss rate * penalty."""
    if not 0.0 <= miss_rate <= 1.0:
        raise ValueError("miss rate must be a probability")
    if hit_time < 0 or miss_penalty < 0:
        raise ValueError("times must be non-negative")
    return hit_time + miss_rate * miss_penalty
