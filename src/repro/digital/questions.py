"""The 35 Digital Design multiple-choice questions of the benchmark.

Every gold answer here is *computed* by the digital substrate (netlist
simulation, Quine-McCluskey minimisation, FSM simulation, arithmetic
helpers), never transcribed, and each generator asserts that its distractors
are genuinely wrong — e.g. boolean distractors are checked to be
non-equivalent to the gold expression, mirroring the paper's requirement
that answer options be "syntactically and even semantically similar ...
logically plausible" yet uniquely resolvable.

Visual-type budget for this category (see DESIGN.md): 16 schematics,
8 tables, 6 diagrams (+1 secondary diagram), 4 mixed, 1 "equations".
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.core.question import (
    AnswerKind,
    Category,
    Question,
    VisualContent,
    VisualType,
    make_mc_question,
)
from repro.digital import arithmetic, sequential
from repro.digital.expr import equivalent_text
from repro.digital.gates import (
    GATE_DELAYS,
    Netlist,
    adder_output_value,
    decoder2to4,
    full_adder,
    half_adder,
    mux2,
    ripple_carry_adder,
)
from repro.digital.kmap import kmap_grid, minimized_expr, sop_text
from repro.digital.sequential import (
    StateMachine,
    next_state_expression,
    sequence_detector,
    sr_latch_table,
)
from repro.visual.diagram import block_diagram_scene, flow_chart_scene
from repro.visual.resolution import infer_legibility_scale
from repro.visual.scene import translate
from repro.visual.schematic import logic_network_scene
from repro.visual.table import (
    equation_scene,
    kmap_scene,
    state_table_scene,
    table_scene,
    truth_table_scene,
)
from repro.visual.waveform import waveform_scene


def _visual(visual_type: VisualType, description: str, scene) -> VisualContent:
    return VisualContent(
        visual_type=visual_type,
        description=description,
        render_spec=("scene", scene),
        legibility_scale=infer_legibility_scale(scene),
    )


def _check_boolean_choices(choices: Sequence[str], correct: int) -> None:
    """Assert the gold is unique among boolean-expression options."""
    gold = choices[correct]
    for index, option in enumerate(choices):
        if index != correct and equivalent_text(option, gold):
            raise AssertionError(
                f"distractor {option!r} is equivalent to gold {gold!r}"
            )


def _mc(
    number: int,
    prompt: str,
    visual: VisualContent,
    choices: Sequence[str],
    correct: int,
    *,
    difficulty: float,
    topics: Sequence[str],
    answer_kind: AnswerKind = AnswerKind.CHOICE,
    aliases: Sequence[str] = (),
    extra_visuals: Sequence[VisualContent] = (),
) -> Question:
    question = make_mc_question(
        qid=f"dig-{number:02d}",
        category=Category.DIGITAL,
        prompt=prompt,
        visual=visual,
        choices=choices,
        correct=correct,
        difficulty=difficulty,
        topics=topics,
        answer_kind=answer_kind,
        aliases=aliases,
    )
    if extra_visuals:
        question = dataclasses.replace(
            question, extra_visuals=tuple(extra_visuals)
        )
    return question


# ---------------------------------------------------------------------------
# individual question builders
# ---------------------------------------------------------------------------

def _q_half_adder() -> Question:
    netlist = half_adder()
    rows = [bits + (out_sum, out_carry) for (bits, out_sum), (_, out_carry)
            in zip(netlist.truth_table("SUM"), netlist.truth_table("CARRY"))]
    table = truth_table_scene(["A", "B"], ["S", "C"], rows)
    circuit = logic_network_scene(
        [("XOR", "G1", ["A", "B"]), ("AND", "G2", ["A", "B"])], "S,C")
    # a "mixed" visual: truth table + circuit sketch side by side
    scene = table + translate(circuit, 230, 120)
    visual = _visual(
        VisualType.MIXED,
        "Truth table and gate-level circuit for 1-digit binary addition",
        scene,
    )
    return _mc(
        1,
        "The figure shows the truth table and calculation circuit diagram "
        "for the addition of 1-digit integers. What is the simple circuit "
        "that the diagram represents usually called?",
        visual,
        ["Half adder", "Full adder", "Ripple-carry adder", "Comparator"],
        0,
        difficulty=0.1,
        topics=("logic design", "adders"),
        answer_kind=AnswerKind.TEXT,
        aliases=("half-adder", "a half adder"),
    )


def _q_full_adder_cout() -> Question:
    netlist = full_adder()
    gold = "AB + CIN(A ^ B)"
    assert netlist.minterms("COUT") == [3, 5, 6, 7]
    choices = [
        "AB + CIN(A ^ B)",
        "A ^ B ^ CIN",
        "AB + A'CIN",
        "(A + B)CIN'",
    ]
    _check_boolean_choices(choices, 0)
    scene = logic_network_scene(
        [("XOR", "S1", ["A", "B"]), ("AND", "C1", ["A", "B"]),
         ("XOR", "SUM", ["S1", "CIN"]), ("AND", "C2", ["S1", "CIN"]),
         ("OR", "COUT", ["C1", "C2"])],
        "COUT",
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "Full adder built from two half adders", scene)
    return _mc(
        2,
        "For the full-adder circuit shown, which expression gives the "
        "carry-out COUT in terms of the inputs A, B and CIN?",
        visual,
        choices,
        0,
        difficulty=0.35,
        topics=("logic design", "adders"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_mux_function() -> Question:
    netlist = mux2()
    gold_expr = minimized_expr(["S", "A", "B"], netlist.minterms("OUT"))
    gold = sop_text(gold_expr)
    choices = [gold, "SA + S'B", "S(A + B)", "S'A'B + SAB"]
    _check_boolean_choices(choices, 0)
    scene = logic_network_scene(
        [("NOT", "N", ["S"]), ("AND", "T0", ["N", "A"]),
         ("AND", "T1", ["S", "B"]), ("OR", "OUT", ["T0", "T1"])],
        "OUT",
    )
    visual = _visual(VisualType.SCHEMATIC, "Gate-level 2-to-1 multiplexer",
                     scene)
    return _mc(
        3,
        "Derive the output function OUT of the gate network shown, where S "
        "is the select input and A, B are data inputs.",
        visual,
        choices,
        0,
        difficulty=0.3,
        topics=("logic design", "multiplexers"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_decoder_output() -> Question:
    netlist = decoder2to4()
    values = netlist.evaluate({"A1": True, "A0": False})
    active = [name for name in ("Y0", "Y1", "Y2", "Y3") if values[name]]
    assert active == ["Y2"]
    scene = logic_network_scene(
        [("NOT", "N1", ["A1"]), ("NOT", "N0", ["A0"]),
         ("AND", "Y0", ["N1", "N0"]), ("AND", "Y1", ["N1", "A0"]),
         ("AND", "Y2", ["A1", "N0"]), ("AND", "Y3", ["A1", "A0"])],
        "Y",
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "2-to-4 line decoder with active-high outputs", scene)
    return _mc(
        4,
        "The 2-to-4 decoder shown has address inputs A1 (MSB) and A0. "
        "Which output is asserted when A1=1 and A0=0?",
        visual,
        ["Y2", "Y1", "Y3", "Y0"],
        0,
        difficulty=0.18,
        topics=("logic design", "decoders"),
        answer_kind=AnswerKind.TEXT,
    )


def _q_network_eval() -> Question:
    netlist = Netlist(["A", "B", "C"])
    netlist.add_gate("N1", "NAND", ["A", "B"])
    netlist.add_gate("N2", "NOR", ["B", "C"])
    netlist.add_gate("F", "XOR", ["N1", "N2"])
    value = netlist.output("F", {"A": True, "B": False, "C": True})
    assert value is True
    scene = logic_network_scene(
        [("NAND", "N1", ["A", "B"]), ("NOR", "N2", ["B", "C"]),
         ("XOR", "F", ["N1", "N2"])],
        "F",
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "Three-gate network with NAND, NOR and XOR", scene)
    return _mc(
        5,
        "In the logic network shown, determine the value of the output F "
        "when A=1, B=0 and C=1.",
        visual,
        ["F = 1", "F = 0", "F is undefined", "F oscillates"],
        0,
        difficulty=0.25,
        topics=("circuit analysis",),
        answer_kind=AnswerKind.TEXT,
        aliases=("1", "one", "high", "logic 1"),
    )


def _q_network_expr() -> Question:
    netlist = Netlist(["A", "B", "C"])
    netlist.add_gate("N1", "AND", ["A", "B"])
    netlist.add_gate("N2", "NOT", ["C"])
    netlist.add_gate("F", "OR", ["N1", "N2"])
    gold_expr = minimized_expr(["A", "B", "C"], netlist.minterms("F"))
    gold = sop_text(gold_expr)
    choices = [gold, "AB + C", "A + BC'", "(A + B)C'"]
    _check_boolean_choices(choices, 0)
    scene = logic_network_scene(
        [("AND", "N1", ["A", "B"]), ("NOT", "N2", ["C"]),
         ("OR", "F", ["N1", "N2"])],
        "F",
    )
    visual = _visual(VisualType.SCHEMATIC, "AND-OR network with one inverter",
                     scene)
    return _mc(
        6,
        "Write the minimal sum-of-products expression for the output F of "
        "the circuit shown.",
        visual,
        choices,
        0,
        difficulty=0.3,
        topics=("functional derivation",),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_nand_only() -> Question:
    # AND = NAND followed by NAND-as-inverter: 2 gates.
    scene = logic_network_scene(
        [("NAND", "G1", ["A", "B"]), ("NAND", "G2", ["G1", "G1"])],
        "F",
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "Two-gate NAND-only realisation of a function", scene)
    return _mc(
        7,
        "Using only 2-input NAND gates, what is the minimum number of gates "
        "required to implement the AND function F = AB, as illustrated?",
        visual,
        ["2", "1", "3", "4"],
        0,
        difficulty=0.3,
        topics=("logic design", "universal gates"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_critical_path() -> Question:
    netlist = Netlist(["A", "B", "C", "D"])
    netlist.add_gate("G1", "AND", ["A", "B"])
    netlist.add_gate("G2", "OR", ["C", "D"])
    netlist.add_gate("G3", "XOR", ["G1", "G2"])
    netlist.add_gate("F", "NAND", ["G3", "D"])
    delay = netlist.arrival_time("F")
    expected = GATE_DELAYS["OR"] + GATE_DELAYS["XOR"] + GATE_DELAYS["NAND"]
    assert abs(delay - expected) < 1e-9
    scene = logic_network_scene(
        [("AND", "G1", ["A", "B"]), ("OR", "G2", ["C", "D"]),
         ("XOR", "G3", ["G1", "G2"]), ("NAND", "F", ["G3", "D"])],
        "F",
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "Four-gate network with annotated unit delays", scene)
    gold = f"{expected:.1f}"
    return _mc(
        8,
        "Assume gate delays of 1.4 for AND, 1.6 for OR, 2.0 for XOR and "
        "1.0 for NAND (arbitrary units). What is the worst-case "
        "input-to-output delay of the circuit shown?",
        visual,
        [gold, "4.4", "3.0", "6.0"],
        0,
        difficulty=0.55,
        topics=("timing", "critical path"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_parity_tree() -> Question:
    netlist = Netlist(["A", "B", "C", "D"])
    netlist.add_gate("X1", "XOR", ["A", "B"])
    netlist.add_gate("X2", "XOR", ["C", "D"])
    netlist.add_gate("P", "XOR", ["X1", "X2"])
    value = netlist.output(
        "P", {"A": True, "B": True, "C": True, "D": False})
    assert value is True
    scene = logic_network_scene(
        [("XOR", "X1", ["A", "B"]), ("XOR", "X2", ["C", "D"]),
         ("XOR", "P", ["X1", "X2"])],
        "P",
    )
    visual = _visual(VisualType.SCHEMATIC, "XOR tree computing parity", scene)
    return _mc(
        9,
        "The XOR tree shown computes the parity P of inputs A, B, C, D. "
        "What is P for the input pattern A=1, B=1, C=1, D=0?",
        visual,
        ["P = 1", "P = 0", "P = A", "Cannot be determined"],
        0,
        difficulty=0.25,
        topics=("circuit analysis", "parity"),
        answer_kind=AnswerKind.TEXT,
        aliases=("1", "one", "odd parity"),
    )


def _q_demorgan() -> Question:
    gold = "A' + B'"
    choices = [gold, "A'B'", "(A + B)'", "A + B"]
    _check_boolean_choices(choices, 0)
    scene = logic_network_scene([("NAND", "G", ["A", "B"])], "F")
    visual = _visual(VisualType.SCHEMATIC, "Single NAND gate", scene)
    return _mc(
        10,
        "By De Morgan's theorem, the NAND gate shown is logically "
        "equivalent to which expression?",
        visual,
        choices,
        0,
        difficulty=0.2,
        topics=("boolean algebra",),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_ripple_delay() -> Question:
    width = 4
    netlist = ripple_carry_adder(width)
    levels = netlist.level(f"C{width}")
    assert levels == 2 * width + 1  # initial XOR level + 2 levels per slice
    scene = block_diagram_scene(
        [(f"fa{i}", f"FA{i}") for i in range(width)],
        [(f"fa{i}", f"fa{i + 1}") for i in range(width - 1)],
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "4-bit ripple-carry adder as chained full adders", scene)
    return _mc(
        11,
        "In the 4-bit ripple-carry adder shown, each slice computes a "
        "propagate signal (one XOR level) and passes carry through an AND "
        "and an OR gate. Counting the initial propagate level, how many "
        "gate levels does the carry-out C4 traverse in the worst case?",
        visual,
        [str(levels), str(2 * width), str(width), str(3 * width)],
        0,
        difficulty=0.5,
        topics=("adders", "timing"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_adder_value() -> Question:
    width = 4
    netlist = ripple_carry_adder(width)
    total = adder_output_value(netlist, width, 0b1011, 0b0110)
    assert total == 0b1011 + 0b0110
    scene = block_diagram_scene(
        [("a", "A=1011"), ("b", "B=0110"), ("add", "4B ADD"), ("s", "S")],
        [("a", "add"), ("b", "add"), ("add", "s")],
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "4-bit adder with binary operands annotated", scene)
    return _mc(
        12,
        "The 4-bit adder shown receives A=1011 and B=0110 with carry-in 0. "
        "What is the 5-bit result (carry-out followed by sum)?",
        visual,
        [format(total, "05b"), "01111", "11011", "10011"],
        0,
        difficulty=0.35,
        topics=("adders", "arithmetic"),
        answer_kind=AnswerKind.TEXT,
        aliases=(str(total), "17"),
    )


def _q_comparator() -> Question:
    # A > B for 1-bit: A B'. Build and minimise from the truth table.
    gold_expr = minimized_expr(["A", "B"], [2])  # A=1, B=0
    gold = sop_text(gold_expr)
    choices = [gold, "A'B", "A ^ B", "AB"]
    _check_boolean_choices(choices, 0)
    scene = logic_network_scene(
        [("NOT", "NB", ["B"]), ("AND", "GT", ["A", "NB"])], "GT")
    visual = _visual(VisualType.SCHEMATIC, "1-bit magnitude comparator",
                     scene)
    return _mc(
        13,
        "For the 1-bit comparator shown, which expression asserts the "
        "output GT exactly when A > B?",
        visual,
        choices,
        0,
        difficulty=0.3,
        topics=("comparators", "functional derivation"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_mux4_select() -> Question:
    # 4:1 mux, select = 2 -> input D2 appears at the output.
    scene = block_diagram_scene(
        [("d0", "D0"), ("d1", "D1"), ("d2", "D2"), ("d3", "D3"),
         ("mux", "MUX 4:1"), ("out", "Y")],
        [("d0", "mux"), ("d1", "mux"), ("d2", "mux"), ("d3", "mux"),
         ("mux", "out")],
        columns=5,
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "4-to-1 multiplexer with select lines S1 S0", scene)
    return _mc(
        14,
        "The 4-to-1 multiplexer shown has select inputs S1 (MSB) and S0. "
        "Which data input is routed to the output Y when S1=1 and S0=0?",
        visual,
        ["D2", "D1", "D3", "D0"],
        0,
        difficulty=0.2,
        topics=("multiplexers",),
        answer_kind=AnswerKind.TEXT,
    )


def _q_ring_oscillator() -> Question:
    stages, tp = 5, 2.0
    period = 2 * stages * tp
    scene = logic_network_scene(
        [("NOT", f"I{i}", [f"I{i - 1}" if i else "I4"]) for i in range(5)],
        "OSC",
    )
    visual = _visual(VisualType.SCHEMATIC, "Five-inverter ring oscillator",
                     scene)
    return _mc(
        15,
        "A ring oscillator is formed from 5 identical inverters, each with "
        "propagation delay 2 ns, as shown. What is the oscillation period?",
        visual,
        [f"{period:.0f} ns", "10 ns", "5 ns", "40 ns"],
        0,
        difficulty=0.45,
        topics=("timing", "oscillators"),
        answer_kind=AnswerKind.NUMERIC,
        aliases=(f"{period:.0f}",),
    )


def _q_logic_levels() -> Question:
    netlist = Netlist(["A", "B", "C", "D"])
    netlist.add_gate("L1A", "AND", ["A", "B"])
    netlist.add_gate("L1B", "OR", ["C", "D"])
    netlist.add_gate("L2", "NAND", ["L1A", "L1B"])
    netlist.add_gate("F", "NOT", ["L2"])
    levels = netlist.level("F")
    assert levels == 3
    scene = logic_network_scene(
        [("AND", "L1A", ["A", "B"]), ("OR", "L1B", ["C", "D"]),
         ("NAND", "L2", ["L1A", "L1B"]), ("NOT", "F", ["L2"])],
        "F",
    )
    visual = _visual(VisualType.SCHEMATIC, "Multi-level gate network", scene)
    return _mc(
        16,
        "How many logic levels (maximum number of gates on any "
        "input-to-output path) does the network shown have?",
        visual,
        [str(levels), "2", "4", "5"],
        0,
        difficulty=0.3,
        topics=("logic design",),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_nor_latch() -> Question:
    value = sequential.sr_ff_next(1, 0, 0)
    assert value == 1
    scene = logic_network_scene(
        [("NOR", "Q", ["R", "QB"]), ("NOR", "QB", ["S", "Q"])], "Q")
    visual = _visual(VisualType.SCHEMATIC, "Cross-coupled NOR SR latch",
                     scene)
    return _mc(
        17,
        "The cross-coupled NOR latch shown is driven with S=1, R=0 while "
        "Q was previously 0. What does Q become?",
        visual,
        ["Q = 1", "Q = 0", "Q holds its previous value", "Q is metastable"],
        0,
        difficulty=0.35,
        topics=("latches", "sequential logic"),
        answer_kind=AnswerKind.TEXT,
        aliases=("1", "set", "high"),
    )


def _q_sr_next_state() -> Question:
    expr = next_state_expression(["S", "R"], "Q", sr_latch_table())
    gold = f"Q+ = {sop_text(expr)}"
    choices = [gold, "Q+ = S'Q + SR", "Q+ = SR' + S'R'Q'", "Q+ = S'Q + R'"]
    _check_boolean_choices([c.split("=", 1)[1] for c in choices], 0)
    grid = kmap_grid(["S", "R", "Q"], [1, 4, 5], [6, 7])
    scene = (state_table_scene(
        ["S", "R", "Q", "Q+"],
        [["0", "0", "0", "0"], ["0", "0", "1", "1"],
         ["0", "1", "0", "0"], ["0", "1", "1", "0"],
         ["1", "0", "0", "1"], ["1", "0", "1", "1"],
         ["1", "1", "0", "X"], ["1", "1", "1", "X"]],
        title="SR LATCH STATE TABLE")
        + translate(kmap_scene(["S", "R", "Q"], grid, title="Q+ MAP"),
                    280, 0))
    visual = _visual(
        VisualType.TABLE,
        "State table and excitation map of an SR latch", scene)
    return _mc(
        18,
        "Derive the function for Q given the state table and excitation "
        "maps as shown in the figures (X entries are don't-cares).",
        visual,
        choices,
        0,
        difficulty=0.6,
        topics=("sequential logic", "functional derivation"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_jk_characteristic() -> Question:
    minterms = []
    for index in range(8):
        j, k, q = (index >> 2) & 1, (index >> 1) & 1, index & 1
        if sequential.jk_ff_next(j, k, q):
            minterms.append(index)
    expr = minimized_expr(["J", "K", "Q"], minterms)
    gold = f"Q+ = {sop_text(expr)}"
    choices = [gold, "Q+ = JQ + K'Q'", "Q+ = J + K'Q'", "Q+ = JK' + Q"]
    _check_boolean_choices([c.split("=", 1)[1] for c in choices], 0)
    scene = state_table_scene(
        ["J", "K", "Q", "Q+"],
        [[str((i >> 2) & 1), str((i >> 1) & 1), str(i & 1),
          str(sequential.jk_ff_next((i >> 2) & 1, (i >> 1) & 1, i & 1))]
         for i in range(8)],
        title="JK FLIP FLOP")
    visual = _visual(VisualType.TABLE, "JK flip-flop state table", scene)
    return _mc(
        19,
        "From the JK flip-flop state table shown, derive the "
        "characteristic equation for the next state Q+.",
        visual,
        choices,
        0,
        difficulty=0.5,
        topics=("sequential logic", "flip-flops"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_kmap3() -> Question:
    names = ["A", "B", "C"]
    minterms = [1, 3, 5, 7]  # f = C
    expr = minimized_expr(names, minterms)
    gold = sop_text(expr)
    assert gold == "C"
    # the gold text "C" is itself a letter: place it at option position C
    # so letter- and text-interpretations of a bare "C" response agree
    choices = ["B'C", "AB'C", gold, "A + C"]
    _check_boolean_choices(choices, 2)
    scene = kmap_scene(names, kmap_grid(names, minterms), title="F MAP")
    visual = _visual(VisualType.TABLE, "Three-variable Karnaugh map", scene)
    return _mc(
        20,
        "Find the minimal sum-of-products expression for the function F "
        "mapped in the Karnaugh map shown.",
        visual,
        choices,
        2,
        difficulty=0.35,
        topics=("kmap", "minimisation"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_kmap4_dc() -> Question:
    names = ["A", "B", "C", "D"]
    minterms = [0, 2, 5, 7, 8, 10]
    dont_cares = [13, 15]
    expr = minimized_expr(names, minterms, dont_cares)
    gold = sop_text(expr)
    choices = [gold, "B'D' + A'BD", "A'D' + BD", "B'D' + A'D"]
    _check_boolean_choices(choices, 0)
    scene = kmap_scene(names, kmap_grid(names, minterms, dont_cares),
                       title="F MAP WITH DONT CARES")
    visual = _visual(VisualType.TABLE,
                     "Four-variable Karnaugh map with don't-cares", scene)
    return _mc(
        21,
        "Using the don't-care entries (X) to advantage, find the minimal "
        "sum-of-products form of the function in the Karnaugh map shown.",
        visual,
        choices,
        0,
        difficulty=0.65,
        topics=("kmap", "minimisation", "dont cares"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_identify_gate() -> Question:
    rows = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    scene = truth_table_scene(["A", "B"], ["F"],
                              [(a, b, f) for a, b, f in rows])
    visual = _visual(VisualType.TABLE, "Two-input truth table", scene)
    return _mc(
        22,
        "Which gate is this?",
        visual,
        ["XNOR", "XOR", "NAND", "NOR"],
        0,
        difficulty=0.15,
        topics=("logic design",),
        answer_kind=AnswerKind.TEXT,
        aliases=("exclusive-nor", "equivalence gate"),
    )


def _q_min_flipflops() -> Question:
    machine = StateMachine(
        states=[f"S{i}" for i in range(6)],
        inputs=("0", "1"),
        transitions=[
            sequential.Transition(f"S{i}", symbol, f"S{(i + 1) % 6}")
            for i in range(6) for symbol in ("0", "1")
        ],
        initial="S0",
    )
    bits = machine.min_flipflops()
    assert bits == 3
    scene = state_table_scene(
        ["STATE", "X=0", "X=1"], machine.state_table_rows(),
        title="SIX STATE MACHINE")
    visual = _visual(VisualType.TABLE, "State table with six states", scene)
    return _mc(
        23,
        "The state table shown describes a synchronous machine with six "
        "states. What is the minimum number of flip-flops required for a "
        "binary state encoding?",
        visual,
        [str(bits), "2", "6", "4"],
        0,
        difficulty=0.3,
        topics=("sequential logic", "state encoding"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_kmap3_b() -> Question:
    names = ["X", "Y", "Z"]
    minterms = [0, 1, 4, 5, 6]
    expr = minimized_expr(names, minterms)
    gold = sop_text(expr)
    choices = [gold, "Y' + XZ", "X'Y' + XY", "Y'Z' + XZ'"]
    _check_boolean_choices(choices, 0)
    scene = kmap_scene(names, kmap_grid(names, minterms), title="G MAP")
    visual = _visual(VisualType.TABLE, "Three-variable Karnaugh map", scene)
    return _mc(
        24,
        "Minimise the function G shown in the Karnaugh map into "
        "sum-of-products form.",
        visual,
        choices,
        0,
        difficulty=0.45,
        topics=("kmap", "minimisation"),
        answer_kind=AnswerKind.BOOLEAN_EXPR,
    )


def _q_t_ff_sequence() -> Question:
    # Q trace 0 -> 1 -> 1 -> 0 requires T = 1, 0, 1.
    trace = [0, 1, 1, 0]
    t_inputs = [sequential.T_EXCITATION[(trace[i], trace[i + 1])]
                for i in range(3)]
    gold = "".join(t_inputs)
    assert gold == "101"
    scene = state_table_scene(
        ["CLK", "Q"], [[str(i), str(q)] for i, q in enumerate(trace)],
        title="DESIRED Q SEQUENCE")
    visual = _visual(VisualType.TABLE,
                     "Required flip-flop output per clock edge", scene)
    return _mc(
        25,
        "A T flip-flop must produce the output sequence Q = 0, 1, 1, 0 on "
        "successive clock edges as tabulated. What input sequence T must "
        "be applied over the three transitions?",
        visual,
        [gold, "010", "110", "011"],
        0,
        difficulty=0.5,
        topics=("flip-flops", "excitation"),
        answer_kind=AnswerKind.TEXT,
        aliases=("1,0,1", "1 0 1"),
    )


def _q_detector_states() -> Question:
    machine = sequence_detector("101")
    count = len(machine.states)
    assert count == 3
    scene = flow_chart_scene([f"S{i}" for i in range(count)], loop_back=0)
    visual = _visual(VisualType.DIAGRAM,
                     "State diagram of a Mealy sequence detector", scene)
    return _mc(
        26,
        "A minimal Mealy machine detects the overlapping pattern 101 on a "
        "serial input, as sketched. How many states does it need?",
        visual,
        [str(count), "4", "2", "5"],
        0,
        difficulty=0.5,
        topics=("fsm", "sequence detector"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_fsm_run() -> Question:
    machine = sequence_detector("110")
    trace, outputs = machine.run(list("110110"))
    detections = outputs.count("1")
    assert detections == 2
    scene = flow_chart_scene(list(machine.states), loop_back=0)
    visual = _visual(VisualType.DIAGRAM,
                     "State diagram of a 110 sequence detector", scene)
    return _mc(
        27,
        "The Mealy detector shown outputs 1 each time the pattern 110 "
        "completes (overlaps allowed). How many 1s does it emit for the "
        "input stream 110110?",
        visual,
        [str(detections), "1", "3", "0"],
        0,
        difficulty=0.45,
        topics=("fsm",),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_shift_register() -> Question:
    # 4-bit right shift register, serial-in 1,0,1 applied to 0000.
    state = [0, 0, 0, 0]
    for bit in (1, 0, 1):
        state = [bit] + state[:-1]
    gold = "".join(str(b) for b in state)
    assert gold == "1010"
    scene = block_diagram_scene(
        [("d0", "FF0"), ("d1", "FF1"), ("d2", "FF2"), ("d3", "FF3")],
        [("d0", "d1"), ("d1", "d2"), ("d2", "d3")],
    )
    wave = waveform_scene([("SIN", [1, 0, 1]), ("CLK", [0, 1, 0, 1, 0, 1])])
    extra = _visual(VisualType.DIAGRAM,
                    "Serial input and clock timing for the shift register",
                    wave)
    visual = _visual(VisualType.DIAGRAM,
                     "4-bit serial-in shift register", scene)
    return _mc(
        28,
        "The 4-bit shift register shown starts at 0000 and shifts right "
        "(FF0 receives the serial input). After the three serial bits "
        "1, 0, 1 shown in the timing diagram are clocked in, what is the "
        "register content FF0..FF3?",
        visual,
        [gold, "0101", "1011", "0010"],
        0,
        difficulty=0.4,
        topics=("registers", "sequential logic"),
        answer_kind=AnswerKind.TEXT,
        extra_visuals=[extra],
    )


def _q_johnson() -> Question:
    width = 4
    states = sequential.johnson_counter_states(width)
    period = len(states)
    assert period == 8
    scene = block_diagram_scene(
        [(f"f{i}", f"FF{i}") for i in range(width)],
        [(f"f{i}", f"f{i + 1}") for i in range(width - 1)] + [("f3", "f0")],
    )
    visual = _visual(VisualType.DIAGRAM, "Four-stage Johnson counter", scene)
    return _mc(
        29,
        "The twisted-ring (Johnson) counter shown feeds the complement of "
        "the last stage back to the first. With 4 flip-flops, how many "
        "distinct states does it cycle through?",
        visual,
        [str(period), "4", "16", "15"],
        0,
        difficulty=0.45,
        topics=("counters",),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_ring_counter() -> Question:
    width = 5
    states = sequential.ring_counter_states(width)
    assert len(states) == 5
    scene = block_diagram_scene(
        [(f"f{i}", f"FF{i}") for i in range(width)],
        [(f"f{i}", f"f{i + 1}") for i in range(width - 1)] + [("f4", "f0")],
        columns=5,
    )
    visual = _visual(VisualType.DIAGRAM, "Five-stage one-hot ring counter",
                     scene)
    return _mc(
        30,
        "A one-hot ring counter with 5 flip-flops is shown. How many "
        "states make up its counting sequence?",
        visual,
        [str(len(states)), "10", "32", "25"],
        0,
        difficulty=0.3,
        topics=("counters",),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_address_bits() -> Question:
    bits = arithmetic.memory_address_bits(64 * 1024)
    assert bits == 16
    scene = block_diagram_scene(
        [("addr", "ADDR"), ("mem", "64K X 8"), ("data", "DATA")],
        [("addr", "mem"), ("mem", "data")],
    )
    visual = _visual(VisualType.DIAGRAM, "64K x 8 memory block", scene)
    return _mc(
        31,
        "How many address lines are required for the 64K x 8 memory shown?",
        visual,
        [str(bits), "8", "64", "17"],
        0,
        difficulty=0.25,
        topics=("memory",),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_memory_expansion() -> Question:
    chips = arithmetic.memory_chip_count(64 * 1024, 16, 16 * 1024, 8)
    assert chips == 8
    scene = (table_scene([["ITEM", "SIZE"],
                          ["TARGET", "64K X 16"],
                          ["CHIP", "16K X 8"]],
                         origin=(60, 60))
             + block_diagram_scene(
                 [("c0", "CHIP"), ("c1", "CHIP"), ("c2", "CHIP"),
                  ("c3", "...")],
                 [],
             ))
    visual = _visual(VisualType.MIXED,
                     "Memory expansion target and available chips", scene)
    return _mc(
        32,
        "A 64K x 16 memory must be assembled from 16K x 8 chips as "
        "tabulated. How many chips are required?",
        visual,
        [str(chips), "4", "16", "2"],
        0,
        difficulty=0.4,
        topics=("memory", "storage design"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_hamming() -> Question:
    code = arithmetic.hamming_encode("1011")
    corrupted = list(code)
    corrupted[4] = "1" if corrupted[4] == "0" else "0"  # flip position 5
    corrupted_word = "".join(corrupted)
    _, position = arithmetic.hamming_correct(corrupted_word)
    assert position == 5
    scene = (table_scene([["POS"] + [str(i + 1) for i in range(len(code))],
                          ["BIT"] + list(corrupted_word)],
                         col_width=34, origin=(40, 70))
             + equation_scene(["P1 P2 D1 P4 D2 D3 D4"], numbered=False))
    visual = _visual(VisualType.MIXED,
                     "Received Hamming(7,4) code word and bit positions",
                     scene)
    return _mc(
        33,
        "The received Hamming(7,4) code word shown contains a single bit "
        "error. Using even parity, at which bit position (1-indexed) is "
        "the error?",
        visual,
        [str(position), "3", "6", "1"],
        0,
        difficulty=0.85,
        topics=("error correction", "data representation"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_float_fields() -> Question:
    sign, exponent, _ = arithmetic.float_fields(-6.5)
    assert (sign, exponent) == (1, 129)
    scene = (equation_scene(["V = -6.5", "V = (-1)^S 2^(E-127) (1+F)"])
             + table_scene([["S", "E", "F"], ["1", "?", "101..."]],
                           origin=(60, 180)))
    visual = _visual(VisualType.MIXED,
                     "IEEE-754 single-precision field layout", scene)
    return _mc(
        34,
        "When -6.5 is encoded in IEEE-754 single precision as laid out in "
        "the figure, what is the value of the biased exponent field E "
        "(in decimal)?",
        visual,
        [str(exponent), "2", "127", "130"],
        0,
        difficulty=0.6,
        topics=("data representation", "floating point"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_overflow() -> Question:
    result, overflow = arithmetic.add_with_overflow(90, 70, 8)
    assert overflow and result == -96
    scene = equation_scene(
        ["1) 90 + 70 IN 8-BIT 2'S COMPLEMENT",
         "2) 01011010 + 01000110", "3) RESULT = ?"],
        numbered=False)
    visual = _visual(VisualType.EQUATIONS,
                     "Two's-complement addition worked in equations", scene)
    return _mc(
        35,
        "The equations shown add 90 and 70 in 8-bit two's-complement "
        "arithmetic. What does the hardware produce?",
        visual,
        [f"{result} with signed overflow", "160 with no overflow",
         "-96 with no overflow", "96 with signed overflow"],
        0,
        difficulty=0.55,
        topics=("arithmetic", "overflow"),
        answer_kind=AnswerKind.TEXT,
        aliases=("-96 with overflow", "overflow, result -96"),
    )


_BUILDERS = [
    _q_half_adder, _q_full_adder_cout, _q_mux_function, _q_decoder_output,
    _q_network_eval, _q_network_expr, _q_nand_only, _q_critical_path,
    _q_parity_tree, _q_demorgan, _q_ripple_delay, _q_adder_value,
    _q_comparator, _q_mux4_select, _q_ring_oscillator, _q_logic_levels,
    _q_nor_latch, _q_sr_next_state, _q_jk_characteristic, _q_kmap3,
    _q_kmap4_dc, _q_identify_gate, _q_min_flipflops, _q_kmap3_b,
    _q_t_ff_sequence, _q_detector_states, _q_fsm_run, _q_shift_register,
    _q_johnson, _q_ring_counter, _q_address_bits, _q_memory_expansion,
    _q_hamming, _q_float_fields, _q_overflow,
]


#: Worked solutions, interpolating the computed gold as ``{gold}``.
_EXPLANATIONS = {
    "dig-01": "One sum and one carry output over two inputs with S = A^B "
              "and C = AB is the definition of a half adder; the gold is "
              "{gold}.",
    "dig-02": "Carry-out asserts when both inputs are 1 (AB) or when "
              "exactly one is 1 and carry-in is 1 (CIN(A^B)), giving "
              "{gold}; simulation confirms minterms 3, 5, 6, 7.",
    "dig-03": "With S = 0 the upper AND passes A; with S = 1 the lower "
              "AND passes B, so OUT = {gold} after two-level minimisation.",
    "dig-04": "A1=1, A0=0 encodes address 2, and a one-hot decoder "
              "asserts exactly output {gold}.",
    "dig-05": "N1 = NAND(1, 0) = 1 and N2 = NOR(0, 1) = 0, so "
              "F = 1 XOR 0 = 1.",
    "dig-06": "The OR combines AB with C', so F = {gold}; the "
              "Quine-McCluskey cover of minterms 0, 2, 4, 6, 7 is already "
              "minimal.",
    "dig-07": "A NAND gives (AB)'; feeding it into a second NAND wired as "
              "an inverter restores AB, so {gold} gates suffice and one "
              "cannot work (a single NAND is not AND).",
    "dig-08": "The slowest path is C/D through the OR (1.6), the XOR "
              "(2.0) and the NAND (1.0): 1.6 + 2.0 + 1.0 = {gold}.",
    "dig-09": "Three ones among A, B, C, D make odd parity, so the XOR "
              "tree outputs 1.",
    "dig-10": "De Morgan: (AB)' = {gold} — a NAND is an OR of the "
              "complemented inputs.",
    "dig-11": "Propagate signals cost one XOR level, then each of the 4 "
              "slices adds an AND and an OR to the carry chain: "
              "1 + 2x4 = {gold} levels.",
    "dig-12": "1011 (11) plus 0110 (6) is 17 = 10001 in five bits; the "
              "gate-level adder produces exactly that carry and sum.",
    "dig-13": "A > B for single bits only when A = 1 and B = 0, i.e. "
              "GT = {gold}.",
    "dig-14": "S1S0 = 10 selects input index 2, so {gold} reaches Y.",
    "dig-15": "A ring oscillator's period is twice the loop delay: "
              "2 x 5 x 2 ns = {gold}.",
    "dig-16": "The longest path passes AND/OR (level 1), NAND (level 2) "
              "and NOT (level 3): {gold} levels.",
    "dig-17": "S = 1 drives QB low, which with R = 0 lets Q rise: the "
              "latch sets, Q = 1.",
    "dig-18": "Minimising the map with X entries as don't-cares groups "
              "minterms 4, 5 (+6, 7) into S and 1, 5 into R'Q: "
              "Q+ = S + R'Q.",
    "dig-19": "Grouping the table's ones gives JQ' (set when clear) plus "
              "K'Q (hold when set): the JK characteristic equation.",
    "dig-20": "All four ones sit where C = 1 regardless of A and B, so "
              "F = C.",
    "dig-21": "Using X at 13 and 15 extends the BD group: F = B'D' + BD "
              "covers minterms 0, 2, 8, 10 and 5, 7.",
    "dig-22": "Output is 1 exactly when the inputs match (00 and 11): "
              "that truth table is the XNOR.",
    "dig-23": "Six states need ceil(log2 6) = {gold} flip-flops; two give "
              "only four codes.",
    "dig-24": "Y' covers minterms 0, 1, 4, 5 and XZ' adds 6: "
              "G = {gold}.",
    "dig-25": "A T flip-flop toggles when T = 1: transitions 0->1, 1->1, "
              "1->0 need T = 1, 0, 1.",
    "dig-26": "A minimal detector needs one state per matched prefix "
              "length 0..2, so {gold} states suffice for pattern 101.",
    "dig-27": "110110 completes the pattern at positions 3 and 6, so the "
              "detector emits two 1s.",
    "dig-28": "Shifting in 1, 0, 1 (MSB first into FF0) leaves "
              "FF0..FF3 = 1010 after three clocks.",
    "dig-29": "A Johnson counter walks through 2n distinct states: "
              "2 x 4 = {gold}.",
    "dig-30": "A one-hot ring counter has exactly one state per stage: "
              "{gold} states.",
    "dig-31": "64K = 2^16 locations need {gold} address lines.",
    "dig-32": "Words: 64K/16K = 4 banks; width: 16/8 = 2 chips per bank; "
              "4 x 2 = {gold} chips.",
    "dig-33": "Recomputing even parity over positions 1, 2 and 4 flags "
              "subsets {1,4}, giving syndrome 1 + 4 = {gold}.",
    "dig-34": "6.5 = 1.625 x 2^2, so E = 127 + 2 = {gold}; the sign bit "
              "handles the minus.",
    "dig-35": "90 + 70 = 160 exceeds the +127 limit of 8 bits; the sum "
              "wraps to -96 with signed overflow.",
}


def generate_digital_questions() -> List[Question]:
    """All 35 Digital Design questions, in stable order."""
    questions = [builder() for builder in _BUILDERS]
    if len(questions) != 35:
        raise AssertionError(f"expected 35 digital questions, got {len(questions)}")
    questions = [
        dataclasses.replace(
            q, explanation=_EXPLANATIONS[q.qid].replace("{gold}",
                                                        q.gold_text))
        for q in questions
    ]
    return questions

