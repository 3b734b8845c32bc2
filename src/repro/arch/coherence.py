"""MESI cache-coherence protocol: per-line state machine and bus traffic.

A faithful snooping MESI model at the granularity coherence exam questions
use: processors issue reads/writes to one line, the protocol tracks each
cache's state, and counts bus transactions (BusRd, BusRdX, BusUpgr) and
writebacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple


class State(enum.Enum):
    """The four MESI line states."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass(frozen=True)
class Access:
    cpu: int
    write: bool

    @classmethod
    def read(cls, cpu: int) -> "Access":
        return cls(cpu, False)

    @classmethod
    def write_(cls, cpu: int) -> "Access":
        return cls(cpu, True)


@dataclass
class BusEvent:
    kind: str          # BusRd | BusRdX | BusUpgr
    cpu: int
    flush: bool = False  # another cache supplied / wrote back the data


class MesiSystem:
    """N caches snooping one bus, tracking a single cache line."""

    def __init__(self, n_cpus: int):
        if n_cpus < 1:
            raise ValueError("need at least one CPU")
        self.states: List[State] = [State.INVALID] * n_cpus
        self.events: List[BusEvent] = []
        self.writebacks = 0

    def _others_with_copy(self, cpu: int) -> List[int]:
        return [
            i for i, s in enumerate(self.states)
            if i != cpu and s is not State.INVALID
        ]

    def access(self, access: Access) -> State:
        """Apply one access; returns the requester's resulting state."""
        cpu = access.cpu
        state = self.states[cpu]
        if access.write:
            if state is State.MODIFIED:
                pass  # silent hit
            elif state is State.EXCLUSIVE:
                self.states[cpu] = State.MODIFIED  # silent upgrade
            elif state is State.SHARED:
                self.events.append(BusEvent("BusUpgr", cpu))
                self._invalidate_others(cpu)
                self.states[cpu] = State.MODIFIED
            else:  # INVALID
                flush = self._snoop_flush(cpu)
                self.events.append(BusEvent("BusRdX", cpu, flush))
                self._invalidate_others(cpu)
                self.states[cpu] = State.MODIFIED
        else:
            if state is not State.INVALID:
                pass  # read hit in M/E/S
            else:
                flush = self._snoop_flush(cpu)
                others = self._others_with_copy(cpu)
                self.events.append(BusEvent("BusRd", cpu, flush))
                if others:
                    for i in others:
                        if self.states[i] in (State.MODIFIED, State.EXCLUSIVE):
                            self.states[i] = State.SHARED
                    self.states[cpu] = State.SHARED
                else:
                    self.states[cpu] = State.EXCLUSIVE
        return self.states[cpu]

    def _snoop_flush(self, cpu: int) -> bool:
        """A Modified copy elsewhere must be flushed before we proceed."""
        for i, state in enumerate(self.states):
            if i != cpu and state is State.MODIFIED:
                self.writebacks += 1
                return True
        return False

    def _invalidate_others(self, cpu: int) -> None:
        for i in range(len(self.states)):
            if i != cpu:
                self.states[i] = State.INVALID

    def run(self, accesses: Sequence[Access]) -> List[State]:
        """Apply a sequence of accesses; returns requester states per step."""
        return [self.access(a) for a in accesses]

    @property
    def bus_transactions(self) -> int:
        return len(self.events)

    def state_of(self, cpu: int) -> State:
        return self.states[cpu]

    def state_trace(self, accesses: Sequence[Access]) -> List[Tuple[State, ...]]:
        """All caches' states after each access (for table rendering)."""
        trace: List[Tuple[State, ...]] = []
        for access in accesses:
            self.access(access)
            trace.append(tuple(self.states))
        return trace
