"""Virtual memory: multi-level page-table geometry and size, and the
effective access time of a TLB-fronted page walk."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class VmGeometry:
    """Address-space parameters of a paged machine."""

    virtual_bits: int
    physical_bits: int
    page_bytes: int
    levels: int = 1

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page size must be a power of two")
        if self.levels < 1:
            raise ValueError("need at least one level")
        if self.vpn_bits % self.levels:
            raise ValueError("VPN bits must divide evenly across levels")

    @property
    def offset_bits(self) -> int:
        return self.page_bytes.bit_length() - 1

    @property
    def vpn_bits(self) -> int:
        return self.virtual_bits - self.offset_bits

    @property
    def ppn_bits(self) -> int:
        return self.physical_bits - self.offset_bits

    @property
    def bits_per_level(self) -> int:
        return self.vpn_bits // self.levels

    @property
    def entries_per_table(self) -> int:
        return 1 << self.bits_per_level

    def pte_bytes(self, metadata_bits: int = 0) -> int:
        """Bytes per page-table entry, rounded up to a power of two."""
        bits = self.ppn_bits + metadata_bits
        size = 1
        while size * 8 < bits:
            size *= 2
        return size

    def split_vpn(self, vaddr: int) -> List[int]:
        """Per-level VPN fields, outermost first."""
        vpn = vaddr >> self.offset_bits
        fields: List[int] = []
        for level in range(self.levels):
            shift = self.bits_per_level * (self.levels - 1 - level)
            fields.append((vpn >> shift) & (self.entries_per_table - 1))
        return fields

    def offset(self, vaddr: int) -> int:
        return vaddr & (self.page_bytes - 1)


def page_table_size_bytes(geometry: VmGeometry,
                          metadata_bits: int = 0) -> int:
    """Size of one flat (single-level) page table covering the space."""
    entries = 1 << geometry.vpn_bits
    return entries * geometry.pte_bytes(metadata_bits)


def effective_access_time(tlb_hit_rate: float, tlb_time: float,
                          memory_time: float, levels: int = 1) -> float:
    """EAT = hit: tlb + mem; miss: tlb + levels*mem (walk) + mem."""
    if not 0 <= tlb_hit_rate <= 1:
        raise ValueError("hit rate must be a probability")
    hit_cost = tlb_time + memory_time
    miss_cost = tlb_time + levels * memory_time + memory_time
    return tlb_hit_rate * hit_cost + (1 - tlb_hit_rate) * miss_cost
