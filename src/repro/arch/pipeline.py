"""In-order pipeline timing model with forwarding/bypass configuration.

Models the classic 5-stage RISC pipeline (IF ID EX MEM WB) at the level
graduate exam questions reason about: data-hazard stalls as a function of
which bypass paths exist, load-use delays, control-flow bubbles, and the
resulting CPI over an instruction trace.  The bypass-path configuration is
explicit so questions like the paper's Architecture example — "how does the
bolded bypass path from the load unit to the ALU affect CPI and frequency?"
— are answered by running the same trace under two configurations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

STAGES = ("IF", "ID", "EX", "MEM", "WB")


class Op(enum.Enum):
    """Instruction classes the timing model distinguishes."""

    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"


@dataclass(frozen=True)
class Instr:
    """One instruction: destination register and source registers."""

    op: Op
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.op is Op.LOAD and self.dst is None:
            raise ValueError("load needs a destination")


def alu(dst: str, *srcs: str, label: str = "") -> Instr:
    """An ALU instruction writing ``dst`` from ``srcs``."""
    return Instr(Op.ALU, dst, tuple(srcs), label or f"ALU {dst}")


def load(dst: str, addr_reg: str = "sp", label: str = "") -> Instr:
    """A load into ``dst`` addressed via ``addr_reg``."""
    return Instr(Op.LOAD, dst, (addr_reg,), label or f"LD {dst}")


def store(src: str, addr_reg: str = "sp", label: str = "") -> Instr:
    """A store of ``src`` addressed via ``addr_reg``."""
    return Instr(Op.STORE, None, (src, addr_reg), label or f"ST {src}")


def branch(*srcs: str, label: str = "BR") -> Instr:
    """A conditional branch reading ``srcs``."""
    return Instr(Op.BRANCH, None, tuple(srcs), label)


@dataclass(frozen=True)
class BypassConfig:
    """Which forwarding paths exist.

    * ``ex_to_ex``: ALU result forwarded to the next instruction's EX.
    * ``mem_to_ex``: MEM-stage value (incl. load data) forwarded to EX.
    * ``wb_to_id``: register write visible to ID in the same cycle
      (write-before-read register file), standard in the 5-stage design.
    """

    ex_to_ex: bool = True
    mem_to_ex: bool = True
    wb_to_id: bool = True

    @classmethod
    def full(cls) -> "BypassConfig":
        return cls(True, True, True)

    @classmethod
    def none(cls) -> "BypassConfig":
        return cls(False, False, True)


@dataclass
class PipelineResult:
    """Outcome of a timing simulation."""

    cycles: int
    instructions: int
    stall_cycles: int
    issue_cycle: List[int]  # cycle in which each instruction entered EX

    @property
    def cpi(self) -> float:
        if self.instructions == 0:
            raise ValueError("empty trace")
        return self.cycles / self.instructions


class Pipeline:
    """Scalar in-order 5-stage pipeline with configurable bypassing."""

    def __init__(self, bypass: BypassConfig = BypassConfig.full(),
                 branch_penalty: int = 1):
        self.bypass = bypass
        if branch_penalty < 0:
            raise ValueError("branch penalty must be non-negative")
        self.branch_penalty = branch_penalty

    def _operand_ready_distance(self, producer: Instr) -> int:
        """Minimum instruction distance so the consumer needs no stall.

        Distance 1 means back-to-back works.  With full bypassing an ALU
        result is usable at distance 1 and a load at distance 2 (classic
        load-use bubble); without EX/MEM forwarding the value is only
        available through the register file (distance 3 with
        write-before-read).
        """
        if producer.op is Op.LOAD:
            if self.bypass.mem_to_ex:
                return 2
            return 3 if self.bypass.wb_to_id else 4
        if producer.op in (Op.ALU,):
            if self.bypass.ex_to_ex:
                return 1
            if self.bypass.mem_to_ex:
                return 2
            return 3 if self.bypass.wb_to_id else 4
        return 1

    def run(self, trace: Sequence[Instr],
            taken_branches: int = 0) -> PipelineResult:
        """Timing-simulate ``trace``; returns cycle counts and CPI.

        ``cycles`` counts from the first instruction's EX issue through the
        last WB, the convention under which an ideal pipeline has CPI -> 1.
        """
        if not trace:
            raise ValueError("empty trace")
        issue: List[int] = []
        last_writer: Dict[str, int] = {}
        cycle = 0
        stalls = 0
        for index, instr in enumerate(trace):
            earliest = cycle + 1 if index else 1
            for src in instr.srcs:
                if src in last_writer:
                    producer_index = last_writer[src]
                    producer = trace[producer_index]
                    distance = self._operand_ready_distance(producer)
                    ready = issue[producer_index] + distance
                    earliest = max(earliest, ready)
            stalls += earliest - (cycle + 1 if index else 1)
            issue.append(earliest)
            cycle = earliest
            if instr.dst is not None:
                last_writer[instr.dst] = index
        total = issue[-1] + (len(STAGES) - STAGES.index("EX") - 1)
        total += taken_branches * self.branch_penalty
        return PipelineResult(
            cycles=total,
            instructions=len(trace),
            stall_cycles=stalls,
            issue_cycle=issue,
        )

    def cpi(self, trace: Sequence[Instr], taken_branches: int = 0) -> float:
        return self.run(trace, taken_branches).cpi


def load_use_stall_cycles(bypass: BypassConfig) -> int:
    """Bubbles between a load and an immediately dependent ALU op."""
    pipeline = Pipeline(bypass)
    trace = [load("r1"), alu("r2", "r1")]
    result = pipeline.run(trace)
    return result.issue_cycle[1] - result.issue_cycle[0] - 1


def speedup(cpi_before: float, cpi_after: float,
            freq_before: float = 1.0, freq_after: float = 1.0) -> float:
    """Iron-law speedup: (CPI_b / CPI_a) * (f_a / f_b) for a fixed program."""
    if min(cpi_before, cpi_after, freq_before, freq_after) <= 0:
        raise ValueError("all quantities must be positive")
    return (cpi_before / cpi_after) * (freq_after / freq_before)
