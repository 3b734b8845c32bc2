"""Linear circuit netlists and a Modified Nodal Analysis (MNA) solver.

Supports the element set needed by the Analog Design questions: resistors,
independent voltage/current sources, and voltage-controlled current sources
(the small-signal ``gm`` element).  DC operating points of linear(ised)
circuits are solved exactly with numpy; the solver is also the engine behind
equivalent-resistance and divider questions.

Node ``0`` (alias ``"gnd"``) is ground.  Nodes are arbitrary hashable names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

Node = Union[int, str]

GROUND_ALIASES = {0, "0", "gnd", "GND", "ground"}


@dataclass(frozen=True)
class Resistor:
    name: str
    a: Node
    b: Node
    ohms: float

    def __post_init__(self) -> None:
        if self.ohms <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")


@dataclass(frozen=True)
class VoltageSource:
    name: str
    plus: Node
    minus: Node
    volts: float


@dataclass(frozen=True)
class CurrentSource:
    """Current flows *out of* ``plus`` through the circuit into ``minus``."""

    name: str
    plus: Node
    minus: Node
    amps: float


@dataclass(frozen=True)
class VCCS:
    """Voltage-controlled current source: i(out_plus->out_minus) = gm * v(cp, cm)."""

    name: str
    out_plus: Node
    out_minus: Node
    ctrl_plus: Node
    ctrl_minus: Node
    gm: float


Element = Union[Resistor, VoltageSource, CurrentSource, VCCS]


class Circuit:
    """A linear circuit solvable by MNA."""

    def __init__(self) -> None:
        self._elements: List[Element] = []
        self._names: set = set()

    def _register(self, element: Element) -> None:
        if element.name in self._names:
            raise ValueError(f"duplicate element name {element.name!r}")
        self._names.add(element.name)
        self._elements.append(element)

    def resistor(self, name: str, a: Node, b: Node, ohms: float) -> "Circuit":
        self._register(Resistor(name, a, b, ohms))
        return self

    def vsource(self, name: str, plus: Node, minus: Node, volts: float) -> "Circuit":
        self._register(VoltageSource(name, plus, minus, volts))
        return self

    def isource(self, name: str, plus: Node, minus: Node, amps: float) -> "Circuit":
        self._register(CurrentSource(name, plus, minus, amps))
        return self

    def vccs(self, name: str, out_plus: Node, out_minus: Node,
             ctrl_plus: Node, ctrl_minus: Node, gm: float) -> "Circuit":
        self._register(VCCS(name, out_plus, out_minus, ctrl_plus,
                            ctrl_minus, gm))
        return self

    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(self._elements)

    # -- solving -------------------------------------------------------------

    def _node_index(self) -> Dict[Node, int]:
        nodes: Dict[Node, int] = {}
        for element in self._elements:
            if isinstance(element, VCCS):
                terminals = (element.out_plus, element.out_minus,
                             element.ctrl_plus, element.ctrl_minus)
            elif isinstance(element, Resistor):
                terminals = (element.a, element.b)
            else:
                terminals = (element.plus, element.minus)
            for node in terminals:
                if node in GROUND_ALIASES:
                    continue
                if node not in nodes:
                    nodes[node] = len(nodes)
        return nodes

    def solve(self) -> "Solution":
        """Solve the MNA system; raises on singular (floating) circuits."""
        nodes = self._node_index()
        vsources = [e for e in self._elements if isinstance(e, VoltageSource)]
        n, m = len(nodes), len(vsources)
        if n + m == 0:
            raise ValueError("empty circuit")
        matrix = np.zeros((n + m, n + m))
        rhs = np.zeros(n + m)

        def idx(node: Node) -> Optional[int]:
            if node in GROUND_ALIASES:
                return None
            return nodes[node]

        for element in self._elements:
            if isinstance(element, Resistor):
                g = 1.0 / element.ohms
                ia, ib = idx(element.a), idx(element.b)
                if ia is not None:
                    matrix[ia, ia] += g
                if ib is not None:
                    matrix[ib, ib] += g
                if ia is not None and ib is not None:
                    matrix[ia, ib] -= g
                    matrix[ib, ia] -= g
            elif isinstance(element, CurrentSource):
                ip, im = idx(element.plus), idx(element.minus)
                if ip is not None:
                    rhs[ip] -= element.amps
                if im is not None:
                    rhs[im] += element.amps
            elif isinstance(element, VCCS):
                op, om = idx(element.out_plus), idx(element.out_minus)
                cp, cm = idx(element.ctrl_plus), idx(element.ctrl_minus)
                for out_i, sign_out in ((op, 1.0), (om, -1.0)):
                    if out_i is None:
                        continue
                    if cp is not None:
                        matrix[out_i, cp] += sign_out * element.gm
                    if cm is not None:
                        matrix[out_i, cm] -= sign_out * element.gm
        for k, source in enumerate(vsources):
            row = n + k
            ip, im = idx(source.plus), idx(source.minus)
            if ip is not None:
                matrix[ip, row] += 1.0
                matrix[row, ip] += 1.0
            if im is not None:
                matrix[im, row] -= 1.0
                matrix[row, im] -= 1.0
            rhs[row] = source.volts
        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"singular circuit: {exc}") from exc
        voltages = {node: float(solution[i]) for node, i in nodes.items()}
        currents = {
            source.name: float(solution[n + k])
            for k, source in enumerate(vsources)
        }
        return Solution(self, voltages, currents)


@dataclass
class Solution:
    """Node voltages and voltage-source branch currents of a solved circuit."""

    circuit: Circuit
    _voltages: Dict[Node, float]
    _source_currents: Dict[str, float]

    def voltage(self, node: Node) -> float:
        if node in GROUND_ALIASES:
            return 0.0
        return self._voltages[node]

    def voltage_across(self, a: Node, b: Node) -> float:
        return self.voltage(a) - self.voltage(b)

    def source_current(self, name: str) -> float:
        """Current through a voltage source (positive: into the + terminal)."""
        return self._source_currents[name]

    def resistor_current(self, name: str) -> float:
        """Current through resistor ``name``, from node ``a`` to ``b``."""
        for element in self.circuit.elements:
            if isinstance(element, Resistor) and element.name == name:
                return self.voltage_across(element.a, element.b) / element.ohms
        raise KeyError(f"no resistor named {name!r}")

    def power_dissipated(self, name: str) -> float:
        """Power in watts dissipated by resistor ``name``."""
        current = self.resistor_current(name)
        for element in self.circuit.elements:
            if isinstance(element, Resistor) and element.name == name:
                return current * current * element.ohms
        raise KeyError(f"no resistor named {name!r}")


# -- convenience analyses ------------------------------------------------------

def series(*ohms: float) -> float:
    """Series resistance."""
    if not ohms:
        raise ValueError("series of nothing")
    return float(sum(ohms))


def parallel(*ohms: float) -> float:
    """Parallel resistance."""
    if not ohms:
        raise ValueError("parallel of nothing")
    if any(r <= 0 for r in ohms):
        raise ValueError("resistances must be positive")
    return 1.0 / sum(1.0 / r for r in ohms)


def equivalent_resistance(circuit: Circuit, a: Node, b: Node) -> float:
    """Resistance seen between two nodes, measured with a 1 A test source.

    Independent sources inside the circuit must already be zeroed by the
    caller (voltage sources as 0 V, current sources omitted) — this is the
    standard small-signal / Thevenin measurement setup.
    """
    probe = Circuit()
    for element in circuit.elements:
        probe._register(element)
    probe.isource("__probe__", b, a, 1.0)
    # pin node ``b`` as the reference so the system is non-singular even
    # when the network under test never touches ground
    if b not in GROUND_ALIASES:
        probe.vsource("__ref__", b, 0, 0.0)
    solution = probe.solve()
    return solution.voltage_across(a, b)


def voltage_divider(vs: float, r_top: float, r_bottom: float) -> float:
    """Output of an unloaded resistive divider."""
    return vs * r_bottom / (r_top + r_bottom)
