"""Sequential logic: flip-flops, excitation tables and finite state machines.

Provides the characteristic and excitation behaviour of the four classic
flip-flops, a synchronous :class:`StateMachine` simulator, and the
derivation used by ChipVQA's Digital example — computing the next-state
function ``Q+`` of a latch/FF from its state table (e.g. the SR latch's
``Q+ = S + R'Q``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.digital.expr import Expr
from repro.digital.kmap import minimized_expr


def jk_ff_next(j: int, k: int, q: int) -> int:
    """JK flip-flop characteristic: Q+ = JQ' + K'Q."""
    return (j & (1 - q)) | ((1 - k) & q)


def sr_ff_next(s: int, r: int, q: int) -> Optional[int]:
    """SR latch characteristic: Q+ = S + R'Q; ``None`` for S=R=1 (invalid)."""
    if s and r:
        return None
    return s | ((1 - r) & q)


#: Excitation tables: (Q, Q+) -> required inputs ('X' = don't care).
JK_EXCITATION: Dict[Tuple[int, int], Tuple[str, str]] = {
    (0, 0): ("0", "X"),
    (0, 1): ("1", "X"),
    (1, 0): ("X", "1"),
    (1, 1): ("X", "0"),
}

SR_EXCITATION: Dict[Tuple[int, int], Tuple[str, str]] = {
    (0, 0): ("0", "X"),
    (0, 1): ("1", "0"),
    (1, 0): ("0", "1"),
    (1, 1): ("X", "0"),
}

D_EXCITATION: Dict[Tuple[int, int], str] = {
    (0, 0): "0", (0, 1): "1", (1, 0): "0", (1, 1): "1",
}

T_EXCITATION: Dict[Tuple[int, int], str] = {
    (0, 0): "0", (0, 1): "1", (1, 0): "1", (1, 1): "0",
}


def next_state_expression(
    input_names: Sequence[str],
    state_name: str,
    table: Dict[Tuple[int, ...], Optional[int]],
) -> Expr:
    """Minimal SOP for Q+ from a (inputs..., Q) -> Q+ state table.

    Entries mapped to ``None`` are don't-cares (e.g. the forbidden S=R=1
    input of an SR latch).  Variable order in the result is
    ``input_names + [state_name]``.
    """
    names = list(input_names) + [state_name]
    n = len(names)
    minterms: List[int] = []
    dont_cares: List[int] = []
    for key, next_q in table.items():
        if len(key) != n:
            raise ValueError(f"table key {key} does not match {names}")
        index = 0
        for bit in key:
            index = (index << 1) | int(bit)
        if next_q is None:
            dont_cares.append(index)
        elif next_q:
            minterms.append(index)
    return minimized_expr(names, minterms, dont_cares)


def sr_latch_table() -> Dict[Tuple[int, int, int], Optional[int]]:
    """The (S, R, Q) -> Q+ table with S=R=1 as don't-care."""
    table: Dict[Tuple[int, int, int], Optional[int]] = {}
    for s in (0, 1):
        for r in (0, 1):
            for q in (0, 1):
                table[(s, r, q)] = sr_ff_next(s, r, q)
    return table


@dataclass(frozen=True)
class Transition:
    state: str
    symbol: str
    next_state: str
    output: str = ""


class StateMachine:
    """A deterministic synchronous FSM (Moore or Mealy by convention)."""

    def __init__(
        self,
        states: Sequence[str],
        inputs: Sequence[str],
        transitions: Sequence[Transition],
        initial: str,
        moore_outputs: Optional[Dict[str, str]] = None,
    ):
        self.states = tuple(states)
        self.inputs = tuple(inputs)
        self.initial = initial
        self.moore_outputs = dict(moore_outputs or {})
        if initial not in self.states:
            raise ValueError(f"initial state {initial!r} not in states")
        self._table: Dict[Tuple[str, str], Transition] = {}
        for transition in transitions:
            if transition.state not in self.states:
                raise ValueError(f"unknown state {transition.state!r}")
            if transition.next_state not in self.states:
                raise ValueError(f"unknown state {transition.next_state!r}")
            if transition.symbol not in self.inputs:
                raise ValueError(f"unknown input {transition.symbol!r}")
            key = (transition.state, transition.symbol)
            if key in self._table:
                raise ValueError(f"duplicate transition for {key}")
            self._table[key] = transition

    def step(self, state: str, symbol: str) -> Transition:
        try:
            return self._table[(state, symbol)]
        except KeyError:
            raise ValueError(
                f"no transition from {state!r} on {symbol!r}"
            ) from None

    def run(self, symbols: Sequence[str]) -> Tuple[List[str], List[str]]:
        """Simulate from the initial state; returns (state trace, outputs).

        The state trace includes the initial state, so it is one longer than
        the input sequence.  Outputs are Mealy outputs if transitions carry
        one, otherwise Moore outputs of the *destination* state.
        """
        state = self.initial
        trace = [state]
        outputs: List[str] = []
        for symbol in symbols:
            transition = self.step(state, symbol)
            state = transition.next_state
            trace.append(state)
            if transition.output:
                outputs.append(transition.output)
            else:
                outputs.append(self.moore_outputs.get(state, ""))
        return trace, outputs

    def state_table_rows(self) -> List[List[str]]:
        """Rows for rendering: state, then next-state per input symbol."""
        rows = []
        for state in self.states:
            row = [state]
            for symbol in self.inputs:
                transition = self._table.get((state, symbol))
                row.append(transition.next_state if transition else "-")
            rows.append(row)
        return rows

    def min_flipflops(self) -> int:
        """Minimum flip-flops for a binary state encoding."""
        count = len(self.states)
        bits = 0
        while (1 << bits) < count:
            bits += 1
        return bits


def sequence_detector(pattern: str, overlapping: bool = True) -> StateMachine:
    """A Mealy sequence detector for a binary ``pattern``.

    States track the longest matched prefix; output ``1`` on the transition
    that completes the pattern.  Classic exam construction used by several
    Digital questions.
    """
    if not pattern or any(c not in "01" for c in pattern):
        raise ValueError("pattern must be a non-empty binary string")
    n = len(pattern)
    states = [f"S{i}" for i in range(n)]
    transitions: List[Transition] = []
    for i in range(n):
        prefix = pattern[:i]
        for symbol in "01":
            candidate = prefix + symbol
            if candidate == pattern:
                if overlapping:
                    next_len = _longest_border(pattern, candidate)
                else:
                    next_len = 0
                transitions.append(
                    Transition(states[i], symbol, states[next_len], "1")
                )
            else:
                next_len = _longest_border(pattern, candidate)
                transitions.append(
                    Transition(states[i], symbol, states[next_len], "0")
                )
    return StateMachine(states, ("0", "1"), transitions, states[0])


def _longest_border(pattern: str, text: str) -> int:
    """Longest ``k`` such that ``pattern[:k]`` is a suffix of ``text``.

    When ``text == pattern`` only *proper* prefixes count (the KMP failure
    value used for overlapping detection).
    """
    upper = min(len(text), len(pattern))
    if text == pattern:
        upper = len(pattern) - 1
    for length in range(upper, 0, -1):
        if text.endswith(pattern[:length]):
            return length
    return 0


def ring_counter_states(width: int) -> List[int]:
    """One full period of a one-hot ring counter."""
    return [1 << i for i in range(width)]


def johnson_counter_states(width: int) -> List[int]:
    """One full period (2*width states) of a Johnson (twisted-ring) counter."""
    states = []
    value = 0
    for _ in range(2 * width):
        states.append(value)
        msb_complement = 1 - ((value >> (width - 1)) & 1)
        value = ((value << 1) | msb_complement) & ((1 << width) - 1)
    return states
