"""The 23 Physical Design questions of the benchmark (7 MC + 16 SA).

Topic coverage follows Section III-B4 of the paper: clock trees, routing
(including the Steiner routing-cost example the paper quotes), placement
and legalisation, floorplanning, timing analysis and useful skew, DRC and
power-grid design.  All golds are computed by the physical substrate.

Visual budget (DESIGN.md): 8 layouts, 6 diagrams, 5 schematics, 2 tables,
2 mixed.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analog.netlist import Circuit
from repro.core.question import (
    AnswerKind,
    AnswerSpec,
    Category,
    Question,
    VisualContent,
    VisualType,
    make_mc_question,
    make_sa_question,
)
from repro.physical import cts, drc, floorplan, placement, steiner
from repro.physical.geometry import Point, Rect, hpwl
from repro.physical.maze import RoutingGrid, bends
from repro.physical.sta import TimingGraph, chain_graph
from repro.visual.diagram import (
    block_diagram_scene,
    flow_chart_scene,
    graph_scene,
    tree_scene,
)
from repro.visual.layout import floorplan_scene, layout_scene, standard_cell_scene
from repro.visual.resolution import infer_legibility_scale
from repro.visual.scene import translate
from repro.visual.schematic import logic_network_scene, resistor_network_scene
from repro.visual.table import table_scene


def _visual(visual_type: VisualType, description: str, scene) -> VisualContent:
    return VisualContent(
        visual_type=visual_type,
        description=description,
        render_spec=("scene", scene),
        legibility_scale=infer_legibility_scale(scene),
    )


def _mc(number: int, prompt: str, visual: VisualContent,
        choices: Sequence[str], correct: int, *, difficulty: float,
        topics: Sequence[str], answer_kind: AnswerKind = AnswerKind.CHOICE,
        aliases: Sequence[str] = (), unit: str = "") -> Question:
    return make_mc_question(
        qid=f"phy-{number:02d}", category=Category.PHYSICAL,
        prompt=prompt, visual=visual, choices=choices, correct=correct,
        difficulty=difficulty, topics=topics, answer_kind=answer_kind,
        aliases=aliases, unit=unit)


def _sa(number: int, prompt: str, visual: VisualContent, answer: AnswerSpec,
        *, difficulty: float, topics: Sequence[str]) -> Question:
    return make_sa_question(
        qid=f"phy-{number:02d}", category=Category.PHYSICAL,
        prompt=prompt, visual=visual, answer=answer,
        difficulty=difficulty, topics=topics)


# ---------------------------------------------------------------------------

_NET_POINTS = [Point(1, 1), Point(5, 1), Point(5, 5), Point(9, 5)]


def _q_topology_cost() -> Question:
    """The paper's example: routing costs of two topologies."""
    points = _NET_POINTS
    topo_a = steiner.star_topology(points, root=1)
    topo_b = steiner.chain_topology(points)
    cost_a, cost_b, winner = steiner.compare_topologies(points, topo_a, topo_b)
    assert winner in ("A", "B")
    labels = ["P0", "P1", "P2", "P3"]
    coords = [(p.x, p.y, label) for p, label in zip(points, labels)]
    scene = (tree_scene(coords, topo_a, scale=24, origin=(50, 330))
             + translate(tree_scene(coords, topo_b, scale=24,
                                    origin=(50, 330)), 250, 0))
    visual = _visual(
        VisualType.LAYOUT,
        "Two candidate routing trees over the same four pins with "
        "annotated coordinates", scene)
    answer = AnswerSpec(
        kind=AnswerKind.TEXT,
        text=f"Topology {winner}",
        aliases=(winner, f"topology {winner.lower()}",
                 f"the {'star' if winner == 'A' else 'chain'} topology",
                 f"{winner} with cost {int(cost_a if winner == 'A' else cost_b)}"),
    )
    return _sa(
        1,
        "The routing points' coordinates are shown. Can you calculate the "
        "routing costs (total rectilinear wirelength) for the 2 diagrams "
        "and determine which routing topology has lower cost? Topology A "
        "is the star on the left, topology B the chain on the right.",
        visual, answer, difficulty=0.65,
        topics=("routing", "steiner trees"))


def _q_rmst_cost() -> Question:
    points = [Point(0, 0), Point(4, 0), Point(4, 3), Point(8, 6)]
    cost = steiner.rmst_cost(points)
    coords = [(p.x, p.y, f"P{i}") for i, p in enumerate(points)]
    scene = tree_scene(coords, steiner.rmst(points), scale=30)
    visual = _visual(VisualType.LAYOUT,
                     "Minimum spanning tree over four routing pins", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{cost:.0f}",
                        aliases=(f"{cost:.0f} units", f"{cost:.1f}"),
                        unit="units")
    return _sa(
        2,
        "Compute the total rectilinear wirelength of the minimum spanning "
        "tree connecting the four pins shown (coordinates annotated).",
        visual, answer, difficulty=0.55,
        topics=("routing", "spanning trees"))


def _q_hpwl() -> Question:
    points = [Point(2, 1), Point(7, 4), Point(4, 8)]
    value = hpwl(points)
    coords = [(p.x, p.y, f"P{i}") for i, p in enumerate(points)]
    scene = tree_scene(coords, [], scale=30)
    visual = _visual(VisualType.LAYOUT,
                     "Three pins of a net with annotated coordinates", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.0f}",
                        aliases=(f"{value:.0f} units",), unit="units")
    return _sa(
        3,
        "What is the half-perimeter wirelength (HPWL) estimate of the "
        "three-pin net shown?",
        visual, answer, difficulty=0.4,
        topics=("routing", "hpwl", "placement"))


_GRID = RoutingGrid(7, 9, obstacles=[(3, c) for c in range(2, 7)])


def _q_maze_length() -> Question:
    source, target = (1, 4), (5, 4)
    length = _GRID.route_length(source, target)
    assert length is not None
    nodes = [f"{r}{c}" for r in range(3) for c in range(3)]
    scene = graph_scene(nodes, [], layout="grid", node_radius=10)
    scene += [{"op": "fill_rect", "xy": [80, 150], "size": [220, 20],
               "ink": 60},
              {"op": "text", "xy": [90, 154], "s": "BLOCKAGE"}]
    visual = _visual(VisualType.DIAGRAM,
                     "Routing grid with a horizontal blockage between "
                     "source and target", scene)
    gold = str(length)
    return _mc(
        4,
        "On the routing grid shown, a blockage spans columns 2-6 of row 3. "
        "The source is at (row 1, col 4) and the target at (row 5, col 4). "
        "What is the shortest maze-route length in grid edges?",
        visual,
        [gold, "4", "6", "12"],
        0,
        difficulty=0.65,
        topics=("routing", "maze routing"),
        answer_kind=AnswerKind.NUMERIC,
        unit="edges",
    )


def _q_maze_bends() -> Question:
    source, target = (1, 4), (5, 4)
    path = _GRID.route(source, target)
    assert path is not None
    n_bends = bends(path)
    scene = flow_chart_scene(["EXPAND WAVE", "REACH TARGET", "BACKTRACE"],
                             loop_back=None)
    visual = _visual(VisualType.DIAGRAM,
                     "Lee maze-routing phases for the blocked net", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(n_bends),
                        aliases=(f"{n_bends} bends",))
    return _sa(
        5,
        "For the same blocked net, the Lee backtrace prefers straight "
        "continuation. How many bends does the resulting detour route "
        "contain?",
        visual, answer, difficulty=0.7,
        topics=("routing", "maze routing"))


def _q_skew() -> Question:
    sinks = [cts.ClockSink("FF1", Point(0, 0), 1.2),
             cts.ClockSink("FF2", Point(4, 0), 1.5),
             cts.ClockSink("FF3", Point(2, 3), 0.9)]
    value = cts.skew(sinks)
    scene = block_diagram_scene(
        [("src", "CLK SRC"), ("f1", "FF1 1.2NS"), ("f2", "FF2 1.5NS"),
         ("f3", "FF3 0.9NS")],
        [("src", "f1"), ("src", "f2"), ("src", "f3")])
    visual = _visual(VisualType.DIAGRAM,
                     "Clock tree with annotated sink insertion delays",
                     scene)
    gold = f"{value:.1f} ns"
    return _mc(
        6,
        "The clock tree shown delivers the clock with insertion delays of "
        "1.2 ns, 1.5 ns and 0.9 ns at its three flip-flops. What is the "
        "global clock skew?",
        visual,
        [gold, "1.5 ns", "0.3 ns", "1.2 ns"],
        0,
        difficulty=0.4,
        topics=("clock tree", "skew"),
        answer_kind=AnswerKind.NUMERIC,
        unit="ns",
        aliases=(f"{value:.1f}", f"{value * 1000:.0f} ps"),
    )


def _q_htree_levels() -> Question:
    levels = cts.h_tree_levels(64)
    scene = flow_chart_scene([f"LEVEL {i + 1}" for i in range(3)],
                             loop_back=None)
    visual = _visual(VisualType.DIAGRAM,
                     "Recursive H-tree distribution over a square die",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(levels),
                        aliases=(f"{levels} levels",))
    return _sa(
        7,
        "A balanced H-tree quadruples its sink count at every level, as "
        "sketched. How many levels are needed to reach 64 clock sinks?",
        visual, answer, difficulty=0.5,
        topics=("clock tree", "h-tree"))


def _q_useful_skew() -> Question:
    gain = cts.useful_skew_gain([8.0, 5.0, 5.0])
    scene = block_diagram_scene(
        [("r1", "REG"), ("c1", "LOGIC 8NS"), ("r2", "REG"),
         ("c2", "LOGIC 5NS"), ("r3", "REG"), ("c3", "LOGIC 5NS"),
         ("r4", "REG")],
        [("r1", "c1"), ("c1", "r2"), ("r2", "c2"), ("c2", "r3"),
         ("r3", "c3"), ("c3", "r4")])
    visual = _visual(VisualType.DIAGRAM,
                     "Register pipeline with unbalanced stage delays",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{gain:.0f}",
                        aliases=(f"{gain:.1f} ns", f"{gain:.0f} ns"),
                        unit="ns")
    return _sa(
        8,
        "The pipeline shown has stage delays 8 ns, 5 ns and 5 ns. With "
        "unconstrained useful skew (cycle borrowing), the period can "
        "approach the average stage delay. How many nanoseconds of period "
        "does that recover versus the worst stage?",
        visual, answer, difficulty=0.75,
        topics=("useful skew", "timing"))


def _q_elmore() -> Question:
    delay = cts.elmore_delay([100.0, 100.0], [0.01, 0.02])  # R ohm, C pF->? keep units
    # 100*0.01 + 200*0.02 = 1 + 4 = 5 (ns with R kohm / C pF scaling)
    scene = resistor_network_scene([("R1", "100"), ("C1", "10F"),
                                    ("R2", "100"), ("C2", "20F")],
                                   source_label="DRV")
    visual = _visual(VisualType.SCHEMATIC,
                     "Two-segment RC interconnect ladder", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{delay:.0f}",
                        aliases=(f"{delay:.1f}", f"{delay:.0f} ns"),
                        unit="ns")
    return _sa(
        9,
        "Using the Elmore model, compute the delay of the two-segment RC "
        "wire shown: R1 = R2 = 100 Ohm with node capacitances C1 = 10 pF "
        "and C2 = 20 pF (answer in nanoseconds: sum of upstream R times "
        "node C).",
        visual, answer, difficulty=0.6,
        topics=("interconnect", "elmore delay"))


def _q_setup_slack() -> Question:
    slack = cts.setup_slack(clock_period=10.0, data_arrival=8.5,
                            setup_time=0.5, capture_skew=0.0)
    scene = table_scene([
        ["QUANTITY", "VALUE"],
        ["CLOCK PERIOD", "10.0 NS"],
        ["DATA ARRIVAL", "8.5 NS"],
        ["SETUP TIME", "0.5 NS"],
        ["SKEW", "0.0 NS"],
    ])
    visual = _visual(VisualType.TABLE, "Timing quantities for a setup check",
                     scene)
    gold = f"{slack:.1f} ns"
    return _mc(
        10,
        "From the timing report tabulated, what is the setup slack of "
        "this path?",
        visual,
        [gold, "1.5 ns", "-1.0 ns", "2.0 ns"],
        0,
        difficulty=0.45,
        topics=("timing", "setup"),
        answer_kind=AnswerKind.NUMERIC,
        unit="ns",
        aliases=(f"{slack:.1f}", f"+{slack:.1f} ns"),
    )


def _q_min_period() -> Question:
    graph = TimingGraph()
    graph.arc("FF1/Q", "u1", 1.0).arc("u1", "u2", 2.0).arc("u2", "FF2/D", 1.5)
    graph.arc("FF1/Q", "u3", 0.5).arc("u3", "FF2/D", 1.0)
    period = graph.min_clock_period(setup_time=0.5, clk_to_q=0.5)
    scene = table_scene([
        ["ARC", "DELAY"],
        ["FF1/Q - U1", "1.0"],
        ["U1 - U2", "2.0"],
        ["U2 - FF2/D", "1.5"],
        ["FF1/Q - U3", "0.5"],
        ["U3 - FF2/D", "1.0"],
        ["CLK-Q / SETUP", "0.5 / 0.5"],
    ])
    visual = _visual(VisualType.TABLE, "Timing-arc delay table", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{period:.1f}",
                        aliases=(f"{period:.1f} ns", f"{period:.2f}"),
                        unit="ns")
    return _sa(
        11,
        "Using the arc delays tabulated (plus 0.5 ns clock-to-Q and 0.5 "
        "ns setup), what is the minimum clock period of the "
        "register-to-register path set?",
        visual, answer, difficulty=0.6,
        topics=("timing", "sta"))


def _q_critical_path() -> Question:
    graph = TimingGraph()
    graph.arc("IN", "g1", 1.0).arc("g1", "g2", 3.0).arc("g2", "OUT", 1.0)
    graph.arc("IN", "g3", 2.0).arc("g3", "OUT", 2.0)
    path, delay = graph.critical_path()
    assert path == ["IN", "g1", "g2", "OUT"] and delay == 5.0
    scene = logic_network_scene(
        [("AND", "G1", ["IN"]), ("OR", "G2", ["G1"]),
         ("XOR", "G3", ["IN"])], "OUT")
    visual = _visual(VisualType.SCHEMATIC,
                     "Two reconvergent paths with annotated gate delays",
                     scene)
    return _mc(
        12,
        "Two paths lead from IN to OUT in the network shown: through G1 "
        "and G2 (1 + 3 + 1 ns) or through G3 (2 + 2 ns). Which is the "
        "critical path and what is its delay?",
        visual,
        ["Through G1-G2, 5 ns", "Through G3, 4 ns",
         "Through G1-G2, 4 ns", "Both are critical at 5 ns"],
        0,
        difficulty=0.5,
        topics=("timing", "critical path"),
        answer_kind=AnswerKind.TEXT,
        aliases=("g1-g2 path, 5 ns", "the 5 ns path through G1 and G2"),
    )


def _q_utilization() -> Question:
    value = placement.utilization([40.0, 60.0, 80.0, 20.0], 400.0) * 100.0
    scene = standard_cell_scene([2.0, 3.0, 4.0, 1.0], row_count=2)
    visual = _visual(VisualType.LAYOUT,
                     "Placed standard-cell rows inside the core area",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.0f}%",
                        aliases=(f"{value:.0f} percent", f"{value / 100:.2f}"))
    return _sa(
        13,
        "The core shown offers 400 um^2 of placeable area and holds cells "
        "totalling 200 um^2. What is the placement utilisation, in "
        "percent?",
        visual, answer, difficulty=0.35,
        topics=("placement", "utilisation"))


def _q_rows() -> Question:
    rows = placement.rows_required(total_cell_width=300.0, row_width=50.0,
                                   utilization_cap=0.8)
    scene = standard_cell_scene([1.5, 2.5, 2.0], row_count=3)
    visual = _visual(VisualType.LAYOUT, "Standard-cell row structure", scene)
    return _mc(
        14,
        "Cells totalling 300 um of width must be placed into 50 um rows "
        "capped at 80% utilisation, as in the row structure shown. How "
        "many rows are required?",
        visual,
        [str(rows), "6", "7", "10"],
        0,
        difficulty=0.5,
        topics=("placement", "rows"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_legalize() -> Question:
    cells = [placement.Cell("a", 2.0, Point(1.0, 0.0)),
             placement.Cell("b", 2.0, Point(1.5, 0.0)),
             placement.Cell("c", 2.0, Point(2.0, 0.0))]
    placed = placement.legalize(cells, row_ys=[0.0], row_width=10.0,
                                row_height=1.0)
    assert not placement.has_overlaps(placed)
    total = placement.total_displacement(placed)
    scene = standard_cell_scene([2.0, 2.0, 2.0], row_count=1)
    visual = _visual(VisualType.LAYOUT,
                     "Three overlapping cells before row legalisation",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{total:.1f}",
                        aliases=(f"{total:.1f} um", f"{total:.2f}"),
                        unit="um")
    return _sa(
        15,
        "Three 2 um cells want positions x = 1.0, 1.5 and 2.0 in the same "
        "row, as shown overlapping. A Tetris legaliser processes them in "
        "x order, pushing each to the first free location at or right of "
        "its target. What total displacement (sum over cells) results?",
        visual, answer, difficulty=0.75,
        topics=("placement", "legalisation"))


_BLOCKS = {
    "A": floorplan.Block("A", 4.0, 3.0),
    "B": floorplan.Block("B", 4.0, 2.0),
    "C": floorplan.Block("C", 2.0, 4.0),
}
_EXPR = ["A", "B", "H", "C", "V"]


def _q_floorplan_area() -> Question:
    area = floorplan.chip_area(_EXPR, _BLOCKS)
    scene = (floorplan_scene([("A", 0, 2, 4, 3), ("B", 0, 0, 4, 2),
                              ("C", 4, 0, 2, 4)], chip=(6.0, 5.0))
             + translate(table_scene([["BLOCK", "W X H"],
                                      ["A", "4 X 3"], ["B", "4 X 2"],
                                      ["C", "2 X 4"]],
                                     col_width=56, row_height=22,
                                     origin=(40, 40)), 280, 0))
    visual = _visual(VisualType.MIXED,
                     "Slicing floorplan AB H C V with block dimensions",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{area:.0f}",
                        aliases=(f"{area:.0f} um^2", f"{area:.1f}"),
                        unit="um^2")
    return _sa(
        16,
        "Pack the slicing floorplan described by the Polish expression "
        "A B H C V using the block dimensions tabulated (H stacks "
        "vertically, V abuts horizontally). What chip area results?",
        visual, answer, difficulty=0.7,
        topics=("floorplanning", "slicing trees"))


def _q_dead_space() -> Question:
    percent = floorplan.dead_space_percent(_EXPR, _BLOCKS)
    gold = f"{percent:.1f}%"
    scene = (floorplan_scene([("A", 0, 2, 4, 3), ("B", 0, 0, 4, 2),
                              ("C", 4, 0, 2, 4)], chip=(6.0, 5.0))
             + translate(table_scene([["AREA", "VALUE"],
                                      ["BLOCKS", "28"],
                                      ["CHIP", "30"]],
                                     col_width=56, row_height=22,
                                     origin=(40, 40)), 280, 0))
    visual = _visual(VisualType.MIXED,
                     "Packed floorplan with area summary", scene)
    return _mc(
        17,
        "For the packed slicing floorplan shown (blocks 4x3, 4x2 and 2x4 "
        "in expression A B H C V), what percentage of the chip area is "
        "dead space?",
        visual,
        [gold, "10.0%", "16.7%", "25.0%"],
        0,
        difficulty=0.65,
        topics=("floorplanning", "whitespace"),
        answer_kind=AnswerKind.NUMERIC,
        aliases=(f"{percent:.0f}%", f"{percent:.2f}%"),
    )


def _q_drc_spacing() -> Question:
    shapes = [Rect(0, 0, 2, 10), Rect(2.5, 0, 2, 10), Rect(5.5, 0, 2, 10),
              Rect(8.5, 0, 0.5, 10)]
    rules = drc.RuleSet(min_width=1.0, min_spacing=1.0)
    violations = drc.check_layer(shapes, rules)
    count = len(violations)
    scene = layout_scene({"metal1": [(r.x, r.y, r.w, r.h) for r in shapes]},
                         scale=26,
                         labels=[(0, 10.6, "M1 WIDTH 1 SPACE 1")])
    visual = _visual(VisualType.LAYOUT,
                     "Metal-1 shapes with one narrow wire and one tight gap",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(count),
                        aliases=(f"{count} violations",))
    return _sa(
        18,
        "The metal-1 layer shown requires 1 um minimum width and 1 um "
        "minimum spacing. Wires are 2, 2, 2 and 0.5 um wide at x = 0, "
        "2.5, 5.5 and 8.5. How many DRC violations (width plus spacing) "
        "are present?",
        visual, answer, difficulty=0.7,
        topics=("drc",))


def _q_drc_width() -> Question:
    shapes = [Rect(0, 0, 0.8, 6)]
    rules = drc.RuleSet(min_width=1.0, min_spacing=1.0)
    violations = drc.check_width(shapes, rules)
    assert len(violations) == 1
    value = violations[0].value
    scene = layout_scene({"metal1": [(0, 0, 0.8, 6)]}, scale=40,
                         labels=[(1.2, 3, "W=0.8"), (1.2, 5, "MIN W=1.0")])
    visual = _visual(VisualType.LAYOUT,
                     "A single metal wire narrower than the width rule",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.1f}",
                        aliases=(f"{value:.1f} um", "0.80"), unit="um")
    return _sa(
        19,
        "The wire shown violates the 1.0 um minimum-width rule. What is "
        "its actual drawn width in microns?",
        visual, answer, difficulty=0.3,
        topics=("drc",))


def _q_flow_order() -> Question:
    steps = ["SYNTHESIS", "FLOORPLAN", "PLACEMENT", "CTS", "ROUTING",
             "SIGNOFF"]
    scene = flow_chart_scene(steps)
    visual = _visual(VisualType.DIAGRAM,
                     "Physical design implementation flow", scene)
    return _mc(
        20,
        "In the standard physical design flow shown, which step "
        "immediately follows placement?",
        visual,
        ["Clock tree synthesis", "Routing", "Floorplanning", "Signoff"],
        0,
        difficulty=0.12,
        topics=("flow", "methodology"),
        answer_kind=AnswerKind.TEXT,
        aliases=("CTS", "clock tree synthesis (CTS)"),
    )


def _q_buffers() -> Question:
    count = cts.buffers_needed(total_cap_ff=480.0, drive_cap_ff=50.0)
    scene = logic_network_scene(
        [("BUF", "B1", ["CLK"]), ("BUF", "B2", ["CLK"])], "NET")
    visual = _visual(VisualType.SCHEMATIC,
                     "Clock buffers driving a distributed load", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(count),
                        aliases=(f"{count} buffers",))
    return _sa(
        21,
        "A clock net presents 480 fF of load; each buffer of the type "
        "shown can drive at most 50 fF within the slew target. How many "
        "buffers are needed?",
        visual, answer, difficulty=0.45,
        topics=("clock tree", "buffering"))


def _q_hold() -> Question:
    slack = cts.hold_slack(data_arrival=0.3, hold_time=0.1,
                           capture_skew=0.4)
    scene = logic_network_scene([("BUF", "B1", ["FF1"])], "FF2")
    visual = _visual(VisualType.SCHEMATIC,
                     "Short register-to-register path with skewed capture "
                     "clock", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{slack:.1f}",
                        aliases=(f"{slack:.1f} ns", f"{slack:.2f}"),
                        unit="ns")
    return _sa(
        22,
        "On the path shown, data arrives at the capture flop 0.3 ns after "
        "the launch edge, the capture clock is skewed 0.4 ns late, and "
        "the flop needs 0.1 ns of hold. What is the hold slack (negative "
        "means violation)?",
        visual, answer, difficulty=0.85,
        topics=("timing", "hold"))


def _q_ir_drop() -> Question:
    circuit = Circuit()
    circuit.vsource("vdd", "p0", 0, 1.0)
    circuit.resistor("rg1", "p0", "p1", 0.05)
    circuit.resistor("rg2", "p1", "p2", 0.05)
    circuit.isource("i1", "p1", 0, 1.0)   # 1 A tap
    circuit.isource("i2", "p2", 0, 2.0)   # 2 A tap
    solution = circuit.solve()
    drop_mv = (1.0 - solution.voltage("p2")) * 1000.0
    scene = resistor_network_scene([("RG1", "50M"), ("I1", "1A"),
                                    ("RG2", "50M"), ("I2", "2A")],
                                   source_label="VDD")
    visual = _visual(VisualType.SCHEMATIC,
                     "Power-grid rail modelled as a resistive ladder with "
                     "current taps", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{drop_mv:.0f}",
                        aliases=(f"{drop_mv:.0f} mV", f"{drop_mv / 1000:.2f} V"),
                        unit="mV")
    return _sa(
        23,
        "The VDD rail shown is a ladder of two 50 mOhm segments; the "
        "cells tap 1 A at the first node and 2 A at the far end. What is "
        "the worst-case IR drop at the far end, in millivolts?",
        visual, answer, difficulty=0.7,
        topics=("power grid", "ir drop"))


_BUILDERS = [
    _q_topology_cost, _q_rmst_cost, _q_hpwl, _q_maze_length, _q_maze_bends,
    _q_skew, _q_htree_levels, _q_useful_skew, _q_elmore, _q_setup_slack,
    _q_min_period, _q_critical_path, _q_utilization, _q_rows, _q_legalize,
    _q_floorplan_area, _q_dead_space, _q_drc_spacing, _q_drc_width,
    _q_flow_order, _q_buffers, _q_hold, _q_ir_drop,
]


#: Worked solutions, interpolating the computed gold as ``{gold}``.
_EXPLANATIONS = {
    "phy-01": "Star from P1: 4 + 4 + 8 = 16 units; chain P0-P1-P2-P3: "
              "4 + 4 + 4 = 12 units, so {gold} is cheaper.",
    "phy-02": "Prim's tree connects P0-P1 (4), P1-P2 (3), P2-P3 (7): "
              "{gold} units.",
    "phy-03": "Bounding box spans x 2..7 and y 1..8: HPWL = 5 + 7 "
              "= {gold}.",
    "phy-04": "The direct 4-edge path is blocked; the wave must round "
              "the blockage end, adding a 6-edge detour: {gold} edges.",
    "phy-05": "The straight-preferring backtrace needs one jog out, one "
              "across and one back: {gold} bends.",
    "phy-06": "Skew = max - min insertion delay = 1.5 - 0.9 = {gold}.",
    "phy-07": "Each H-tree level quadruples the sinks: 4^3 = 64, so "
              "{gold} levels.",
    "phy-08": "Perfect skewing approaches the average stage delay "
              "(8+5+5)/3 = 6 ns versus the worst 8 ns: {gold} ns "
              "recovered.",
    "phy-09": "Elmore: R1(C1+C2) + R2 C2 = 100x30p + 100x20p = 3 + 2 "
              "= {gold} ns.",
    "phy-10": "Slack = T - arrival - setup = 10 - 8.5 - 0.5 = {gold}.",
    "phy-11": "Longest arc path is 1.0 + 2.0 + 1.5 = 4.5 ns; adding "
              "clk-to-Q and setup gives {gold} ns.",
    "phy-12": "1 + 3 + 1 = 5 ns beats 2 + 2 = 4 ns, so the G1-G2 path "
              "is critical at 5 ns.",
    "phy-13": "200 um^2 of cells in 400 um^2 of core is {gold} "
              "utilisation.",
    "phy-14": "ceil(300 / (50 x 0.8)) = {gold} rows.",
    "phy-15": "Cells pack at x = 1.0, 3.0, 5.0; displacements 0 + 1.5 + "
              "3.0 = {gold} um.",
    "phy-16": "A over B stacks to 4 x 5; abutting C (2 x 4) gives "
              "6 x 5 = {gold}.",
    "phy-17": "Blocks cover 28 of the 30-unit bounding box: 2/30 "
              "= {gold} dead space.",
    "phy-18": "The 0.5 um wire violates width and sits 0.5 um from its "
              "neighbour, violating spacing: {gold} violations.",
    "phy-19": "The drawn width is {gold} um against the 1.0 um rule.",
    "phy-20": "Placement fixes cell locations; the clock network is then "
              "synthesised before signal routing: {gold}.",
    "phy-21": "Each buffer drives 50 fF, so the 480 fF net needs "
              "ceil(480 / 50) = {gold} buffers.",
    "phy-22": "Hold slack = arrival - skew - hold = 0.3 - 0.4 - 0.1 "
              "= {gold} ns: a violation.",
    "phy-23": "All 3 A cross RG1 (150 mV) and 2 A continue across RG2 "
              "(100 mV): {gold} mV at the far end.",
}


def generate_physical_questions() -> List[Question]:
    """All 23 Physical Design questions, in stable order."""
    import dataclasses

    questions = [builder() for builder in _BUILDERS]
    if len(questions) != 23:
        raise AssertionError(
            f"expected 23 physical questions, got {len(questions)}")
    questions = [
        dataclasses.replace(
            q, explanation=_EXPLANATIONS[q.qid].replace("{gold}",
                                                        q.gold_text))
        for q in questions
    ]
    return questions

