"""A structural-Verilog subset: parse to / emit from gate netlists.

The paper situates ChipVQA next to VerilogEval; questions about gate
networks are naturally exchanged as structural Verilog.  This module
supports the gate-primitive subset::

    module top (input a, input b, output f);
      wire n1;
      nand g1 (n1, a, b);
      not  g2 (f, n1);
    endmodule

Primitive instances follow Verilog-1995 semantics: first terminal is the
output, the rest are inputs.  :func:`parse_verilog` builds a
:class:`~repro.digital.gates.Netlist`; :func:`emit_verilog` is its inverse
(round-trips modulo whitespace).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.digital.gates import Netlist

PRIMITIVES = {"and", "or", "not", "buf", "nand", "nor", "xor", "xnor"}


class VerilogError(ValueError):
    """Raised for source the subset parser cannot handle."""


_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_MODULE_RE = re.compile(
    r"module\s+(?P<name>\w+)\s*\((?P<ports>.*?)\)\s*;(?P<body>.*?)endmodule",
    re.DOTALL)
_INSTANCE_RE = re.compile(
    r"(?P<prim>\w+)\s+(?P<inst>\w+)\s*\((?P<conns>[^)]*)\)\s*;")


@dataclass(frozen=True)
class VerilogModule:
    """A parsed module: its netlist plus port directions."""

    name: str
    netlist: Netlist
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


def _split_ports(ports_text: str) -> Tuple[List[str], List[str]]:
    inputs: List[str] = []
    outputs: List[str] = []
    direction = None
    for token in re.split(r"[,\s]+", ports_text.strip()):
        if not token:
            continue
        if token in ("input", "output"):
            direction = token
        elif token == "wire":
            continue
        elif direction == "input":
            inputs.append(token)
        elif direction == "output":
            outputs.append(token)
        else:
            raise VerilogError(
                f"port {token!r} lacks a direction (ANSI style required)")
    return inputs, outputs


def parse_verilog(source: str) -> VerilogModule:
    """Parse one structural module into a netlist."""
    source = _COMMENT_RE.sub(" ", source)
    match = _MODULE_RE.search(source)
    if not match:
        raise VerilogError("no module ... endmodule found")
    name = match.group("name")
    inputs, outputs = _split_ports(match.group("ports"))
    if not inputs:
        raise VerilogError("module has no inputs")
    if not outputs:
        raise VerilogError("module has no outputs")
    body = match.group("body")

    declared_wires: List[str] = []
    for wire_match in re.finditer(r"\bwire\s+([^;]+);", body):
        declared_wires.extend(
            w for w in re.split(r"[,\s]+", wire_match.group(1)) if w)
    body = re.sub(r"\bwire\s+[^;]+;", " ", body)

    instances: List[Tuple[str, str, List[str]]] = []
    consumed = 0
    for inst_match in _INSTANCE_RE.finditer(body):
        prim = inst_match.group("prim").lower()
        if prim not in PRIMITIVES:
            raise VerilogError(
                f"unsupported primitive {inst_match.group('prim')!r} "
                f"(structural gate subset only)")
        conns = [c.strip() for c in inst_match.group("conns").split(",")]
        if len(conns) < 2 or not all(conns):
            raise VerilogError(
                f"instance {inst_match.group('inst')!r} needs an output "
                f"and at least one input")
        instances.append((prim, inst_match.group("inst"), conns))
        consumed += 1
    leftovers = _INSTANCE_RE.sub(" ", body).strip()
    if leftovers:
        raise VerilogError(f"unparsed text in module body: {leftovers!r}")
    if not instances:
        raise VerilogError("module instantiates no gates")

    # topological insertion: gates whose inputs are all known go first
    netlist = Netlist(inputs)
    pending = list(instances)
    known = set(inputs)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for prim, inst, conns in pending:
            out, ins = conns[0], conns[1:]
            if all(i in known for i in ins):
                netlist.add_gate(out, prim.upper(), ins)
                known.add(out)
                progress = True
            else:
                remaining.append((prim, inst, conns))
        pending = remaining
    if pending:
        missing = sorted(
            {i for _, _, conns in pending for i in conns[1:]} - known)
        raise VerilogError(
            f"combinational loop or undriven nets: {missing}")
    for out in outputs:
        if out not in known:
            raise VerilogError(f"output {out!r} is never driven")
    return VerilogModule(name=name, netlist=netlist,
                         inputs=tuple(inputs), outputs=tuple(outputs))


def emit_verilog(netlist: Netlist, outputs: Sequence[str],
                 name: str = "top") -> str:
    """Structural Verilog for a netlist (inverse of :func:`parse_verilog`)."""
    outputs = list(outputs)
    signal_names = {g.name for g in netlist.gates}
    for out in outputs:
        if out not in signal_names:
            raise VerilogError(f"output {out!r} is not a gate in the netlist")
    ports = ", ".join(
        [f"input {p}" for p in netlist.primary_inputs]
        + [f"output {o}" for o in outputs])
    lines = [f"module {name} ({ports});"]
    wires = [g.name for g in netlist.gates if g.name not in outputs]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for index, gate in enumerate(netlist.gates):
        conns = ", ".join([gate.name, *gate.inputs])
        lines.append(f"  {gate.gate_type.lower()} g{index} ({conns});")
    lines.append("endmodule")
    return "\n".join(lines)


def roundtrip_equivalent(source: str, output: str) -> bool:
    """Parse, re-emit, re-parse: same boolean function at ``output``?"""
    from repro.digital.expr import equivalent

    first = parse_verilog(source)
    emitted = emit_verilog(first.netlist, first.outputs, first.name)
    second = parse_verilog(emitted)
    return equivalent(first.netlist.to_expr(output),
                      second.netlist.to_expr(output))
