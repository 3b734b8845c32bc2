"""The 20 Architecture questions of the benchmark (8 MC + 12 short-answer).

Coverage mirrors Section III-B3 of the paper: memory encoding, branch
prediction, critical-path latency, coherence, virtual-memory translation,
pipelining (including the bolded-bypass-path example from the paper's
introduction of this category), vector processors, out-of-order machines
and network topology.  All golds are computed by the architecture substrate.

Visual budget (DESIGN.md): 10 diagrams (+1 secondary diagram), 4 tables,
3 mixed, 2 neural-nets, 1 figure.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from repro.arch import branch as branch_mod
from repro.arch import coherence, ooo, topology, vector, vm
from repro.arch.cache import CacheGeometry, amat
from repro.arch.coherence import Access, MesiSystem
from repro.arch.pipeline import (
    BypassConfig,
    Pipeline,
    alu,
    load,
    load_use_stall_cycles,
    store,
)
from repro.arch.vector import VectorOp
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
from repro.visual.diagram import block_diagram_scene, graph_scene, pipeline_scene
from repro.visual.resolution import infer_legibility_scale
from repro.visual.scene import translate
from repro.visual.table import cache_table_scene, equation_scene, table_scene


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
        aliases: Sequence[str] = (), unit: str = "",
        extra_visuals: Sequence[VisualContent] = ()) -> Question:
    question = make_mc_question(
        qid=f"arc-{number:02d}", category=Category.ARCHITECTURE,
        prompt=prompt, visual=visual, choices=choices, correct=correct,
        difficulty=difficulty, topics=topics, answer_kind=answer_kind,
        aliases=aliases, unit=unit)
    if extra_visuals:
        question = dataclasses.replace(
            question, extra_visuals=tuple(extra_visuals))
    return question


def _sa(number: int, prompt: str, visual: VisualContent, answer: AnswerSpec,
        *, difficulty: float, topics: Sequence[str]) -> Question:
    return make_sa_question(
        qid=f"arc-{number:02d}", category=Category.ARCHITECTURE,
        prompt=prompt, visual=visual, answer=answer,
        difficulty=difficulty, topics=topics)


# ---------------------------------------------------------------------------

def _q_bypass_cpi() -> Question:
    """The paper's example: a bolded load-to-ALU bypass path."""
    trace = [load("r1"), alu("r2", "r1"), alu("r3", "r2"), store("r3"),
             load("r4"), alu("r5", "r4"), alu("r6", "r5", "r3"), store("r6")]
    without = Pipeline(BypassConfig(ex_to_ex=True, mem_to_ex=False))
    with_path = Pipeline(BypassConfig(ex_to_ex=True, mem_to_ex=True))
    saved = without.run(trace).cycles - with_path.run(trace).cycles
    assert saved > 0
    scene = pipeline_scene(["IF", "ID", "EX", "MEM", "WB"], bypass=(3, 2))
    visual = _visual(
        VisualType.DIAGRAM,
        "Five-stage pipeline with a bolded bypass from the load unit "
        "(MEM) back to the ALU input (EX)", scene)
    prompt = (
        "The figure shows a classic five-stage in-order pipeline (fetch, "
        "decode, execute, memory, writeback) for a scalar RISC machine. "
        "The machine already forwards ALU results from the end of execute "
        "back to the ALU input, so back-to-back dependent ALU operations "
        "never stall. The bolded path in the drawing is an additional "
        "bypass routing the load unit output, available at the end of the "
        "memory stage, directly to the ALU input of the instruction "
        "entering execute. Without the bolded path, a loaded value "
        "reaches a dependent instruction only through the register file, "
        "which is written in writeback and read in decode (write before "
        "read, so a same-cycle reader sees the new value). Consider the "
        "sequence where each load feeds a dependent ALU operation: LW r1; "
        "ADD r2, r1; ADD r3, r2; SW r3; LW r4; ADD r5, r4; ADD r6, r5, "
        "r3; SW r6. Assume perfect caches, no control hazards, and "
        "single-issue operation. Note that adding the bolded bypass also "
        "lengthens the execute critical path by one forwarding "
        "multiplexer, trading frequency for fewer stalls; ignore the "
        "frequency effect here. How many total "
        "clock cycles of stall does the bolded bypass path remove from "
        "this eight-instruction sequence?")
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(saved),
                        aliases=(f"{saved} cycles", f"{saved} stalls"),
                        unit="cycles")
    return _sa(1, prompt, visual, answer, difficulty=0.75,
               topics=("pipelining", "bypassing", "cpi"))


def _q_pipeline_cpi() -> Question:
    trace = [load("r1"), alu("r2", "r1"), alu("r3", "r2"), alu("r4", "r3")]
    cpi = Pipeline(BypassConfig.full()).run(trace).cpi
    gold = f"{cpi:.2f}"
    scene = pipeline_scene(["IF", "ID", "EX", "MEM", "WB"])
    visual = _visual(VisualType.DIAGRAM, "Five-stage pipeline datapath",
                     scene)
    return _mc(
        2,
        "On the fully bypassed five-stage pipeline shown, the sequence "
        "LW r1; ADD r2,r1; ADD r3,r2; ADD r4,r3 executes with one "
        "load-use bubble. Counting cycles from the first EX to the last "
        "WB, what CPI does the four-instruction sequence achieve?",
        visual,
        [gold, "1.00", "2.50", f"{cpi + 1:.2f}"],
        0,
        difficulty=0.65,
        topics=("pipelining", "cpi"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_load_use() -> Question:
    stalls = load_use_stall_cycles(BypassConfig(ex_to_ex=True,
                                                mem_to_ex=False))
    scene = pipeline_scene(["IF", "ID", "EX", "MEM", "WB"])
    visual = _visual(VisualType.DIAGRAM,
                     "Pipeline without a MEM-to-EX forwarding path", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(stalls),
                        aliases=(f"{stalls} bubbles", f"{stalls} cycles"),
                        unit="cycles")
    return _sa(
        3,
        "The pipeline shown forwards ALU results but has no path from the "
        "memory stage to the ALU; loaded values reach consumers only "
        "through the write-before-read register file. How many stall "
        "cycles separate a load from an immediately dependent ALU "
        "instruction?",
        visual, answer, difficulty=0.6,
        topics=("pipelining", "hazards"))


def _q_cache_index_bits() -> Question:
    geometry = CacheGeometry(32 * 1024, 64, 4)
    scene = cache_table_scene(32, [
        (name, str(hi), str(lo)) for name, hi, lo in geometry.field_layout()])
    visual = _visual(VisualType.TABLE,
                     "32-bit address split into tag, index and offset",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC,
                        text=str(geometry.index_bits),
                        aliases=(f"{geometry.index_bits} bits",),
                        unit="bits")
    return _sa(
        4,
        "A 32 KiB, 4-way set-associative cache with 64-byte blocks decodes "
        "the 32-bit address as shown. How many index bits does it use?",
        visual, answer, difficulty=0.5,
        topics=("caches", "memory encoding"))


def _q_cache_tag_bits() -> Question:
    geometry = CacheGeometry(16 * 1024, 32, 2)
    gold = str(geometry.tag_bits)
    scene = cache_table_scene(32, [
        (name, str(hi), str(lo)) for name, hi, lo in geometry.field_layout()])
    visual = _visual(VisualType.TABLE, "Cache address field breakdown", scene)
    return _mc(
        5,
        "For the 16 KiB two-way cache with 32-byte lines whose address "
        "breakdown is shown (32-bit addresses), how wide is the tag field?",
        visual,
        [gold, "14", "8", "22"],
        0,
        difficulty=0.55,
        topics=("caches", "memory encoding"),
        answer_kind=AnswerKind.NUMERIC,
        unit="bits",
    )


def _q_amat() -> Question:
    value = amat(hit_time=1.0, miss_rate=0.05, miss_penalty=100.0)
    scene = block_diagram_scene(
        [("cpu", "CPU"), ("l1", "L1 1CYC"), ("mem", "MEM 100CYC")],
        [("cpu", "l1"), ("l1", "mem")])
    visual = _visual(VisualType.DIAGRAM,
                     "CPU, L1 cache and memory with annotated latencies",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.0f}",
                        aliases=(f"{value:.1f}", f"{value:.0f} cycles"),
                        unit="cycles")
    return _sa(
        6,
        "The hierarchy shown has a 1-cycle L1 hit time, a 5% miss rate "
        "and a 100-cycle miss penalty. Compute the average memory access "
        "time in cycles.",
        visual, answer, difficulty=0.35,
        topics=("caches", "amat"))


def _q_mesi_state() -> Question:
    system = MesiSystem(2)
    system.run([Access.read(0), Access.write_(1), Access.read(0)])
    final = system.state_of(1)
    assert final is coherence.State.SHARED
    rows = [["STEP", "P0", "P1"]]
    replay = MesiSystem(2)
    for step, states in enumerate(replay.state_trace(
            [Access.read(0), Access.write_(1), Access.read(0)])):
        rows.append([str(step + 1)] + [s.value for s in states])
    scene = table_scene(rows)
    visual = _visual(VisualType.TABLE,
                     "MESI state of both caches after each access", scene)
    return _mc(
        7,
        "Two caches snoop a MESI bus. P0 reads the line, P1 writes it, "
        "then P0 reads it again, as traced in the table. What state does "
        "P1's copy end in?",
        visual,
        ["Shared", "Modified", "Invalid", "Exclusive"],
        0,
        difficulty=0.6,
        topics=("coherence", "mesi"),
        answer_kind=AnswerKind.TEXT,
        aliases=("S", "shared state"),
    )


def _q_mesi_bus() -> Question:
    accesses = [Access.read(0), Access.read(1), Access.write_(0),
                Access.write_(1), Access.read(0)]
    system = MesiSystem(2)
    system.run(accesses)
    count = system.bus_transactions
    scene = block_diagram_scene(
        [("p0", "P0+L1"), ("p1", "P1+L1"), ("bus", "SNOOP BUS"),
         ("mem", "MEMORY")],
        [("p0", "bus"), ("p1", "bus"), ("bus", "mem")])
    visual = _visual(VisualType.DIAGRAM,
                     "Two processors snooping a shared bus", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(count),
                        aliases=(f"{count} transactions",))
    return _sa(
        8,
        "On the two-processor MESI system shown, the access sequence is: "
        "P0 reads, P1 reads, P0 writes, P1 writes, P0 reads (same line). "
        "How many bus transactions (BusRd, BusRdX or BusUpgr) occur?",
        visual, answer, difficulty=0.7,
        topics=("coherence", "mesi"))


def _q_predictor_accuracy() -> Question:
    outcomes = branch_mod.loop_branch_outcomes(iterations=5, trips=2)
    predictor = branch_mod.TwoBitPredictor(initial=1)
    correct, _ = branch_mod.run_predictor(predictor, outcomes)
    percent = 100.0 * correct / len(outcomes)
    gold = f"{percent:.0f}%"
    scene = block_diagram_scene(
        [("pc", "PC"), ("bht", "2-BIT BHT"), ("pred", "T/NT")],
        [("pc", "bht"), ("bht", "pred")])
    visual = _visual(VisualType.DIAGRAM,
                     "Two-bit saturating-counter branch predictor", scene)
    return _mc(
        9,
        "A loop branch runs 5 iterations (taken 4 times, then not taken) "
        "for 2 consecutive loop executions. The 2-bit counter shown "
        "starts weakly not-taken (01). What prediction accuracy results "
        "over the 10 branches?",
        visual,
        [gold, "90%", "50%", "80%"],
        0,
        difficulty=0.7,
        topics=("branch prediction",),
        answer_kind=AnswerKind.NUMERIC,
        aliases=(f"{correct}/10",),
    )


def _q_mispredict_cpi() -> Question:
    value = branch_mod.mispredict_penalty_cpi(1.0, 0.2, 0.1, 15)
    scene = block_diagram_scene(
        [("fe", "FETCH"), ("pred", "PRED"), ("ex", "EXEC 15CYC FLUSH")],
        [("fe", "pred"), ("pred", "ex"), ("ex", "fe")])
    visual = _visual(VisualType.DIAGRAM,
                     "Front end with a 15-cycle mispredict flush loop",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.1f}",
                        aliases=(f"{value:.2f}",))
    return _sa(
        10,
        "A machine with base CPI 1.0 runs code where 20% of instructions "
        "are branches; 10% of branches mispredict, each costing the "
        "15-cycle flush shown. What is the effective CPI?",
        visual, answer, difficulty=0.55,
        topics=("branch prediction", "cpi"))


def _q_page_table() -> Question:
    geometry = vm.VmGeometry(virtual_bits=32, physical_bits=30,
                             page_bytes=4096, levels=1)
    size_mb = vm.page_table_size_bytes(geometry, metadata_bits=12) / 2 ** 20
    scene = table_scene([
        ["PARAM", "VALUE"],
        ["VADDR", "32 BITS"],
        ["PADDR", "30 BITS"],
        ["PAGE", "4 KIB"],
        ["PTE", "4 BYTES"],
    ])
    visual = _visual(VisualType.TABLE, "Virtual-memory parameters", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{size_mb:.0f} MiB",
                        aliases=(f"{size_mb:.0f} MB", "4194304 bytes"),
                        unit="MiB")
    return _sa(
        11,
        "Using the parameters tabulated (32-bit virtual addresses, 4 KiB "
        "pages, 4-byte PTEs), how large is a flat single-level page table "
        "covering the whole address space?",
        visual, answer, difficulty=0.55,
        topics=("virtual memory",))


def _q_tlb_eat() -> Question:
    value = vm.effective_access_time(tlb_hit_rate=0.98, tlb_time=1.0,
                                     memory_time=100.0, levels=2)
    scene = block_diagram_scene(
        [("cpu", "CPU"), ("tlb", "TLB 1CYC"), ("walk", "2-LVL WALK"),
         ("mem", "MEM 100CYC")],
        [("cpu", "tlb"), ("tlb", "walk"), ("walk", "mem")])
    visual = _visual(VisualType.DIAGRAM,
                     "TLB backed by a two-level page walk", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.0f}",
                        aliases=(f"{value:.1f} cycles", f"{value:.1f}"),
                        unit="cycles")
    return _sa(
        12,
        "The MMU shown hits its TLB 98% of the time (1 cycle); a miss "
        "walks a two-level page table at 100 cycles per level before the "
        "100-cycle data access. What is the effective memory access time, "
        "rounded to the nearest cycle?",
        visual, answer, difficulty=0.65,
        topics=("virtual memory", "tlb"))


def _q_mesh_diameter() -> Question:
    mesh_d = topology.mesh_diameter(4, 4)
    torus_d = topology.torus_diameter(4, 4)
    assert (mesh_d, torus_d) == (6, 4)
    mesh_graph = topology.mesh2d(3, 3)
    nodes = [f"{r}{c}" for r in range(3) for c in range(3)]
    edges = [(f"{a[0]}{a[1]}", f"{b[0]}{b[1]}")
             for a, b in mesh_graph.edges()]
    scene = graph_scene(nodes, edges, layout="grid", node_radius=13)
    torus_scene = graph_scene(
        nodes,
        edges + [(f"{r}0", f"{r}2") for r in range(3)]
        + [(f"0{c}", f"2{c}") for c in range(3)],
        layout="grid", node_radius=13)
    extra = _visual(VisualType.DIAGRAM,
                    "The same mesh with wrap-around torus links",
                    torus_scene)
    visual = _visual(VisualType.DIAGRAM, "A 2D mesh network-on-chip", scene)
    return _mc(
        13,
        "Scaling the mesh shown to 4x4 (and the torus variant in the "
        "second figure likewise), what are the network diameters of the "
        "mesh and torus respectively?",
        visual,
        [f"{mesh_d} and {torus_d}", "6 and 6", "8 and 4", "4 and 2"],
        0,
        difficulty=0.6,
        topics=("noc", "topology"),
        answer_kind=AnswerKind.TEXT,
        aliases=("mesh 6, torus 4",),
        extra_visuals=[extra],
    )


def _q_hypercube_bisection() -> Question:
    graph = topology.hypercube(4)
    width = topology.bisection_width(graph)
    assert width == 8
    nodes = [format(i, "04b") for i in range(16)]
    edges = [("".join(str(b) for b in u), "".join(str(b) for b in v))
             for u, v in graph.edges()]
    scene = graph_scene([n for n in nodes], edges, layout="circle",
                        node_radius=12)
    visual = _visual(VisualType.DIAGRAM, "A 4-dimensional hypercube", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(width),
                        aliases=(f"{width} links",))
    return _sa(
        14,
        "What is the bisection width (minimum links cut when splitting "
        "the nodes into two equal halves) of the 16-node hypercube shown?",
        visual, answer, difficulty=0.7,
        topics=("noc", "topology"))


def _q_hazards() -> Question:
    trace = [load("r1"), alu("r2", "r1", "r3"), alu("r3", "r4"),
             alu("r2", "r5")]
    counts = ooo.hazard_counts(trace)
    removed = counts["WAR"] + counts["WAW"]
    assert removed == 2 and counts["RAW"] == 1
    scene = equation_scene([
        "I1: LW R1",
        "I2: ADD R2 = R1 + R3",
        "I3: SUB R3 = R4",
        "I4: OR R2 = R5",
    ])
    visual = _visual(VisualType.FIGURE,
                     "Four-instruction code fragment with register reuse",
                     scene)
    return _mc(
        15,
        "Register renaming is applied to the code fragment shown. How "
        "many false dependences (WAR plus WAW hazards) does renaming "
        "eliminate?",
        visual,
        [str(removed), "1", "3", "4"],
        0,
        difficulty=0.7,
        topics=("out-of-order", "hazards"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_chimes() -> Question:
    ops = [VectorOp("LV", "loadstore", "v1"),
           VectorOp("MULVS", "multiply", "v2", ("v1",)),
           VectorOp("LV2", "loadstore", "v3"),
           VectorOp("ADDVV", "add", "v4", ("v2", "v3")),
           VectorOp("SV", "loadstore", "v5", ("v4",))]
    n_chimes = vector.chimes(ops, allow_chaining=True)
    assert n_chimes == 3  # the textbook DAXPY convoy count
    scene = (table_scene([["OP", "UNIT"]] + [[op.name, op.unit.upper()]
                                             for op in ops])
             + translate(block_diagram_scene(
                 [("ld", "LOAD"), ("mul", "MUL"), ("add", "ADD"),
                  ("st", "STORE")], []), 240, 40))
    visual = _visual(VisualType.MIXED,
                     "Vector code listing and functional units", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(n_chimes),
                        aliases=(f"{n_chimes} chimes", f"{n_chimes} convoys"))
    return _sa(
        16,
        "The vector sequence tabulated (DAXPY-style) runs on a machine "
        "with one load/store unit, one multiplier and one adder, with "
        "chaining. Into how many convoys (chimes) does it partition?",
        visual, answer, difficulty=0.85,
        topics=("vector", "chimes"))


def _q_strip_mine() -> Question:
    iterations = vector.strip_mine_iterations(1000, 64)
    scene = (equation_scene(["FOR I = 0 TO 999", "  C[I]=A[I]+B[I]"])
             + translate(block_diagram_scene(
                 [("vl", "MVL=64"), ("loop", "STRIP LOOP")],
                 [("vl", "loop")]), 220, 60))
    visual = _visual(VisualType.MIXED,
                     "A 1000-element loop strip-mined to MVL 64", scene)
    return _mc(
        17,
        "The loop shown processes 1000 elements on a vector machine with "
        "maximum vector length 64. How many strip-mined vector "
        "iterations are required?",
        visual,
        [str(iterations), "15", "64", "17"],
        0,
        difficulty=0.4,
        topics=("vector", "strip mining"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_amdahl() -> Question:
    value = vector.amdahl_speedup(0.8, 16.0)
    scene = (equation_scene(["S = 1 / ((1-F) + F/K)"])
             + translate(block_diagram_scene(
                 [("ser", "20% SERIAL"), ("par", "80% X16")],
                 [("ser", "par")]), 0, 120))
    visual = _visual(VisualType.MIXED,
                     "Amdahl's-law formula with the workload split", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{value:.0f}",
                        aliases=(f"{value:.1f}", f"{value:.2f}x"))
    return _sa(
        18,
        "Using the relation shown, what overall speedup results when 80% "
        "of a workload is accelerated 16x and the rest is unchanged? "
        "Round to the nearest integer.",
        visual, answer, difficulty=0.5,
        topics=("amdahl", "parallelism"))


def _q_mlp_macs() -> Question:
    macs = 4 * 8 + 8 * 2
    layers = [("i", "IN 4"), ("h", "HID 8"), ("o", "OUT 2")]
    scene = block_diagram_scene(layers, [("i", "h"), ("h", "o")])
    visual = _visual(VisualType.NEURAL_NETS,
                     "A two-layer perceptron: 4 inputs, 8 hidden, 2 outputs",
                     scene)
    return _mc(
        19,
        "The fully connected network shown has 4 inputs, one hidden "
        "layer of 8 neurons and 2 outputs. Ignoring biases, how many "
        "multiply-accumulate operations does one inference require?",
        visual,
        [str(macs), "64", "14", "96"],
        0,
        difficulty=0.45,
        topics=("accelerators", "neural networks"),
        answer_kind=AnswerKind.NUMERIC,
    )


def _q_roofline() -> Question:
    attainable = vector.roofline_gflops(peak_gflops=100.0,
                                        bandwidth_gbs=50.0, intensity=0.5)
    scene = block_diagram_scene(
        [("dram", "DRAM 50GB/S"), ("pe", "PE 100GF"), ("nn", "CONV LAYER")],
        [("dram", "pe"), ("pe", "nn")])
    visual = _visual(VisualType.NEURAL_NETS,
                     "Accelerator roofline parameters for a conv layer",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{attainable:.0f}",
                        aliases=(f"{attainable:.0f} GFLOP/s",
                                 f"{attainable:.1f}"),
                        unit="GFLOP/s")
    return _sa(
        20,
        "An accelerator peaks at 100 GFLOP/s with 50 GB/s of memory "
        "bandwidth, as sketched. A layer with arithmetic intensity 0.5 "
        "FLOP/byte is memory bound. What performance (GFLOP/s) does the "
        "roofline model predict?",
        visual, answer, difficulty=0.6,
        topics=("accelerators", "roofline"))


_BUILDERS = [
    _q_bypass_cpi, _q_pipeline_cpi, _q_load_use, _q_cache_index_bits,
    _q_cache_tag_bits, _q_amat, _q_mesi_state, _q_mesi_bus,
    _q_predictor_accuracy, _q_mispredict_cpi, _q_page_table, _q_tlb_eat,
    _q_mesh_diameter, _q_hypercube_bisection, _q_hazards, _q_chimes,
    _q_strip_mine, _q_amdahl, _q_mlp_macs, _q_roofline,
]


#: Worked solutions, interpolating the computed gold as ``{gold}``.
_EXPLANATIONS = {
    "arc-01": "Each of the two load-use pairs stalls 2 cycles without the "
              "bypass (value via the register file) but only 1 with it "
              "(load data forwarded from MEM), saving 1 cycle per pair: "
              "{gold} cycles total.",
    "arc-02": "The load-use pair inserts one bubble, so 4 instructions "
              "take 7 cycles from first EX to last WB: CPI = {gold}.",
    "arc-03": "Load data arrives at WB (write-before-read), three stages "
              "after issue; the dependent ALU op waits {gold} cycles.",
    "arc-04": "32 KiB / (64 B x 4 ways) = 128 sets, so {gold} index "
              "bits.",
    "arc-05": "Offset 5 bits (32 B), index 8 bits (256 sets), leaving "
              "32 - 13 = {gold} tag bits.",
    "arc-06": "AMAT = 1 + 0.05 x 100 = {gold} cycles.",
    "arc-07": "P1's write made it Modified; P0's re-read forces a flush "
              "and both copies end Shared.",
    "arc-08": "BusRd, BusRd, BusUpgr (S->M), BusRdX (I->M), BusRd: "
              "{gold} transactions.",
    "arc-09": "Starting at 01, the counter mispredicts the first taken, "
              "each loop exit, and the first re-entry: 7 of 10 correct "
              "= {gold}.",
    "arc-10": "CPI = 1.0 + 0.2 x 0.1 x 15 = {gold}.",
    "arc-11": "2^20 pages x 4-byte PTEs = {gold}.",
    "arc-12": "EAT = 0.98 x 101 + 0.02 x (1 + 200 + 100) = {gold} "
              "cycles.",
    "arc-13": "A k x k mesh spans 2(k-1) hops corner to corner; wraparound "
              "halves each axis: {gold}.",
    "arc-14": "Cutting a d-cube in half severs the 2^(d-1) dimension-d "
              "links: {gold} for d = 4.",
    "arc-15": "I3 writes r3 that I2 reads (WAR) and I4 rewrites r2 (WAW); "
              "renaming removes both, leaving only the true r1 "
              "dependence.",
    "arc-16": "The single load/store unit forces three convoys: "
              "{LV, MULVS}, {LV2, ADDVV}, {SV} — {gold} chimes.",
    "arc-17": "ceil(1000/64) = {gold} strip-mined iterations.",
    "arc-18": "Amdahl: 1/((1-0.8) + 0.8/16) = 1/0.25 = {gold}.",
    "arc-19": "4 x 8 + 8 x 2 = {gold} multiply-accumulates per "
              "inference.",
    "arc-20": "At 0.5 FLOP/byte the bandwidth roof binds: 50 GB/s x 0.5 "
              "= {gold} GFLOP/s.",
}


def generate_architecture_questions() -> List[Question]:
    """All 20 Architecture questions, in stable order."""
    questions = [builder() for builder in _BUILDERS]
    if len(questions) != 20:
        raise AssertionError(
            f"expected 20 architecture questions, got {len(questions)}")
    questions = [
        dataclasses.replace(
            q, explanation=_EXPLANATIONS[q.qid].replace("{gold}",
                                                        q.gold_text))
        for q in questions
    ]
    return questions

