"""Gate-level combinational netlists and their simulation.

A :class:`Netlist` is a DAG of named gates over named primary inputs.
Supports evaluation, full truth-table extraction, conversion to a boolean
:mod:`~repro.digital.expr` AST, and simple topology queries (levels, fan-in)
used by question generators and the critical-path timing questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.digital.expr import And, Expr, Not, Or, Var, Xor

_GATE_FUNCS: Dict[str, Callable[[Sequence[bool]], bool]] = {
    "AND": lambda ins: all(ins),
    "OR": lambda ins: any(ins),
    "NOT": lambda ins: not ins[0],
    "BUF": lambda ins: ins[0],
    "NAND": lambda ins: not all(ins),
    "NOR": lambda ins: not any(ins),
    "XOR": lambda ins: sum(ins) % 2 == 1,
    "XNOR": lambda ins: sum(ins) % 2 == 0,
}

#: Typical relative gate delays (arbitrary units) for critical-path questions.
GATE_DELAYS = {
    "NOT": 1.0, "BUF": 1.0,
    "NAND": 1.0, "NOR": 1.2,
    "AND": 1.4, "OR": 1.6,
    "XOR": 2.0, "XNOR": 2.0,
}


@dataclass(frozen=True)
class Gate:
    name: str
    gate_type: str
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        gate_type = self.gate_type.upper()
        if gate_type not in _GATE_FUNCS:
            raise ValueError(f"unknown gate type {self.gate_type!r}")
        if gate_type in ("NOT", "BUF") and len(self.inputs) != 1:
            raise ValueError(f"{gate_type} takes exactly one input")
        if gate_type not in ("NOT", "BUF") and len(self.inputs) < 2:
            raise ValueError(f"{gate_type} needs at least two inputs")
        object.__setattr__(self, "gate_type", gate_type)


class Netlist:
    """A combinational gate network over primary inputs."""

    def __init__(self, primary_inputs: Sequence[str]):
        if len(set(primary_inputs)) != len(primary_inputs):
            raise ValueError("duplicate primary input names")
        self.primary_inputs: Tuple[str, ...] = tuple(primary_inputs)
        self._gates: Dict[str, Gate] = {}
        self._order: List[str] = []

    def add_gate(self, name: str, gate_type: str, inputs: Sequence[str]) -> "Netlist":
        """Add a gate; inputs must already be defined (DAG by construction)."""
        if name in self._gates or name in self.primary_inputs:
            raise ValueError(f"duplicate signal name {name!r}")
        for signal in inputs:
            if signal not in self._gates and signal not in self.primary_inputs:
                raise ValueError(f"gate {name!r} references unknown {signal!r}")
        self._gates[name] = Gate(name, gate_type, tuple(inputs))
        self._order.append(name)
        return self

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates[name] for name in self._order)

    def evaluate(self, assignment: Dict[str, bool]) -> Dict[str, bool]:
        """Signal values for every net under ``assignment`` of the inputs."""
        values: Dict[str, bool] = {}
        for name in self.primary_inputs:
            if name not in assignment:
                raise ValueError(f"missing input {name!r}")
            values[name] = bool(assignment[name])
        for name in self._order:
            gate = self._gates[name]
            ins = [values[s] for s in gate.inputs]
            values[name] = _GATE_FUNCS[gate.gate_type](ins)
        return values

    def output(self, name: str, assignment: Dict[str, bool]) -> bool:
        return self.evaluate(assignment)[name]

    def truth_table(self, output: str) -> List[Tuple[Tuple[int, ...], int]]:
        """Rows of ``((input bits...), output bit)`` in counting order."""
        rows = []
        n = len(self.primary_inputs)
        for value in range(2 ** n):
            bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
            assignment = {
                name: bool(bit)
                for name, bit in zip(self.primary_inputs, bits)
            }
            rows.append((bits, int(self.output(output, assignment))))
        return rows

    def minterms(self, output: str) -> List[int]:
        return [
            index
            for index, (_, out) in enumerate(self.truth_table(output))
            if out
        ]

    def to_expr(self, output: str) -> Expr:
        """The boolean AST computed by net ``output``."""
        cache: Dict[str, Expr] = {name: Var(name) for name in self.primary_inputs}

        def build(name: str) -> Expr:
            if name in cache:
                return cache[name]
            gate = self._gates[name]
            operands = tuple(build(s) for s in gate.inputs)
            expr: Expr
            if gate.gate_type == "NOT":
                expr = Not(operands[0])
            elif gate.gate_type == "BUF":
                expr = operands[0]
            elif gate.gate_type == "AND":
                expr = And(operands)
            elif gate.gate_type == "OR":
                expr = Or(operands)
            elif gate.gate_type == "NAND":
                expr = Not(And(operands))
            elif gate.gate_type == "NOR":
                expr = Not(Or(operands))
            elif gate.gate_type == "XOR":
                expr = operands[0]
                for operand in operands[1:]:
                    expr = Xor(expr, operand)
            elif gate.gate_type == "XNOR":
                expr = operands[0]
                for operand in operands[1:]:
                    expr = Xor(expr, operand)
                expr = Not(expr)
            else:  # pragma: no cover - constructor forbids
                raise AssertionError(gate.gate_type)
            cache[name] = expr
            return expr

        return build(output)

    # -- topology / timing ---------------------------------------------------

    def level(self, name: str) -> int:
        """Logic depth of a net (primary inputs are level 0)."""
        if name in self.primary_inputs:
            return 0
        gate = self._gates[name]
        return 1 + max(self.level(s) for s in gate.inputs)

    def arrival_time(self, name: str) -> float:
        """Worst-case arrival at a net using :data:`GATE_DELAYS`."""
        if name in self.primary_inputs:
            return 0.0
        gate = self._gates[name]
        return GATE_DELAYS[gate.gate_type] + max(
            self.arrival_time(s) for s in gate.inputs
        )

    def critical_path(self, output: str) -> List[str]:
        """Signal names along the slowest path into ``output``."""
        if output in self.primary_inputs:
            return [output]
        gate = self._gates[output]
        slowest = max(gate.inputs, key=self.arrival_time)
        return self.critical_path(slowest) + [output]

    def gate_count(self) -> int:
        return len(self._gates)


def half_adder() -> Netlist:
    """Half adder: sum = A^B, carry = AB (the paper's Fig. 3 MMMU sample)."""
    netlist = Netlist(["A", "B"])
    netlist.add_gate("SUM", "XOR", ["A", "B"])
    netlist.add_gate("CARRY", "AND", ["A", "B"])
    return netlist


def full_adder() -> Netlist:
    """Full adder from two half adders plus an OR."""
    netlist = Netlist(["A", "B", "CIN"])
    netlist.add_gate("S1", "XOR", ["A", "B"])
    netlist.add_gate("C1", "AND", ["A", "B"])
    netlist.add_gate("SUM", "XOR", ["S1", "CIN"])
    netlist.add_gate("C2", "AND", ["S1", "CIN"])
    netlist.add_gate("COUT", "OR", ["C1", "C2"])
    return netlist


def mux2() -> Netlist:
    """2:1 multiplexer: OUT = S'A + SB."""
    netlist = Netlist(["S", "A", "B"])
    netlist.add_gate("SN", "NOT", ["S"])
    netlist.add_gate("T0", "AND", ["SN", "A"])
    netlist.add_gate("T1", "AND", ["S", "B"])
    netlist.add_gate("OUT", "OR", ["T0", "T1"])
    return netlist


def decoder2to4() -> Netlist:
    """2-to-4 decoder with active-high outputs Y0..Y3."""
    netlist = Netlist(["A1", "A0"])
    netlist.add_gate("N1", "NOT", ["A1"])
    netlist.add_gate("N0", "NOT", ["A0"])
    netlist.add_gate("Y0", "AND", ["N1", "N0"])
    netlist.add_gate("Y1", "AND", ["N1", "A0"])
    netlist.add_gate("Y2", "AND", ["A1", "N0"])
    netlist.add_gate("Y3", "AND", ["A1", "A0"])
    return netlist


def ripple_carry_adder(width: int) -> Netlist:
    """A ``width``-bit ripple-carry adder built from full-adder slices."""
    if width < 1:
        raise ValueError("width must be >= 1")
    inputs = [f"A{i}" for i in range(width)]
    inputs += [f"B{i}" for i in range(width)]
    inputs.append("CIN")
    netlist = Netlist(inputs)
    carry = "CIN"
    for i in range(width):
        netlist.add_gate(f"P{i}", "XOR", [f"A{i}", f"B{i}"])
        netlist.add_gate(f"G{i}", "AND", [f"A{i}", f"B{i}"])
        netlist.add_gate(f"S{i}", "XOR", [f"P{i}", carry])
        netlist.add_gate(f"PC{i}", "AND", [f"P{i}", carry])
        netlist.add_gate(f"C{i + 1}", "OR", [f"G{i}", f"PC{i}"])
        carry = f"C{i + 1}"
    return netlist


def adder_output_value(netlist: Netlist, width: int, a: int, b: int,
                       cin: int = 0) -> int:
    """Drive a ripple-carry adder with integers and read back the sum."""
    assignment: Dict[str, bool] = {"CIN": bool(cin)}
    for i in range(width):
        assignment[f"A{i}"] = bool((a >> i) & 1)
        assignment[f"B{i}"] = bool((b >> i) & 1)
    values = netlist.evaluate(assignment)
    total = 0
    for i in range(width):
        total |= int(values[f"S{i}"]) << i
    total |= int(values[f"C{width}"]) << width
    return total
