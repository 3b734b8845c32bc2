"""The 20 Manufacturing questions of the benchmark (5 MC + 15 SA).

Coverage mirrors Section III-B5 of the paper: lithography (including the
RET-identification sample from Fig. 3), solid-state physics, deposition and
etch (including the worked 5:1-BOE over-etch example), wafer defects,
doping and yield.  All golds come from the manufacturing substrate.

Visual budget (DESIGN.md): 8 layouts, 3 structures, 3 figures, 3 diagrams,
2 mixed, 1 flow.
"""

from __future__ import annotations

from typing import List, Sequence

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
from repro.manufacturing import defects, diffusion, etch, lithography, yieldmodel
from repro.manufacturing.etch import BOE_5_TO_1, RIE_OXIDE
from repro.manufacturing.lithography import MaskFeatures, Ret, identify_ret
from repro.visual.diagram import block_diagram_scene, flow_chart_scene
from repro.visual.layout import cross_section_scene, layout_scene, mask_pattern_scene
from repro.visual.resolution import infer_legibility_scale
from repro.visual.scene import translate
from repro.visual.table import equation_scene, table_scene


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
        qid=f"mfg-{number:02d}", category=Category.MANUFACTURING,
        prompt=prompt, visual=visual, choices=choices, correct=correct,
        difficulty=difficulty, topics=topics, answer_kind=answer_kind,
        aliases=aliases, unit=unit)


def _sa(number: int, prompt: str, visual: VisualContent, answer: AnswerSpec,
        *, difficulty: float, topics: Sequence[str]) -> Question:
    return make_sa_question(
        qid=f"mfg-{number:02d}", category=Category.MANUFACTURING,
        prompt=prompt, visual=visual, answer=answer,
        difficulty=difficulty, topics=topics)


# ---------------------------------------------------------------------------

def _q_ret_identify() -> Question:
    ret = identify_ret(MaskFeatures(has_isolated_scatter_bars=True))
    assert ret is Ret.SRAF
    scene = mask_pattern_scene(
        features=[(2, 2, 1.5, 6)],
        assist_features=[(0.8, 2, 0.3, 6), (4.4, 2, 0.3, 6)])
    visual = _visual(
        VisualType.FIGURE,
        "A main mask feature flanked by narrow non-printing bars", scene)
    return _mc(
        1,
        "What is the lithography resolution enhancement technique "
        "depicted in the figure?",
        visual,
        ["Sub-resolution assist features (SRAF)",
         "Optical proximity correction serifs",
         "Alternating phase shift mask",
         "Off-axis illumination"],
        0,
        difficulty=0.6,
        topics=("lithography", "ret"),
        answer_kind=AnswerKind.TEXT,
        aliases=("SRAF", "scatter bars", "assist features"),
    )


def _q_boe_over_etch() -> Question:
    """The paper's worked example, solved by the etch model."""
    thickness_nm = 500.0
    minutes = etch.etch_time_minutes(thickness_nm, BOE_5_TO_1,
                                     over_etch_fraction=0.10)
    scene = cross_section_scene(
        stack=[("silicon", 2.0), ("oxide", 1.0), ("resist", 0.8)],
        resist_openings=[(3.5, 3.0)],
        labels=True)
    visual = _visual(
        VisualType.LAYOUT,
        "Si/SiO2 substrate with patterned photoresist and a 500 nm oxide "
        "film", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{minutes:.1f}",
                        aliases=(f"{minutes:.1f} min",
                                 f"{minutes:.2f} minutes",
                                 f"{minutes * 60:.0f} seconds"),
                        unit="minutes")
    return _sa(
        2,
        "Assume 5:1 BOE (Buffered HF) etches SiO2 isotropically at 100 "
        "nm/min, RIE etches SiO2 at 200 nm/min and has a SiO2:Si "
        "selectivity of 15:1. Assume a Si/SiO2 substrate with patterned "
        "photoresist as shown in the figure, with a 500 nm oxide film. "
        "For the structure above, how long should this wafer be placed in "
        "5:1 BOE etchant to record a 10% over-etch?",
        visual, answer, difficulty=0.7,
        topics=("etch", "over-etch"))


def _q_rie_substrate_loss() -> Question:
    over_minutes = etch.etch_time_minutes(500.0, RIE_OXIDE, 0.10) \
        - etch.etch_time_minutes(500.0, RIE_OXIDE, 0.0)
    loss = etch.substrate_loss_nm(over_minutes, RIE_OXIDE)
    scene = cross_section_scene(
        stack=[("silicon", 2.0), ("oxide", 1.0), ("resist", 0.8)],
        resist_openings=[(3.5, 3.0)])
    visual = _visual(VisualType.STRUCTURE,
                     "Oxide opening etched by RIE down to silicon", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{loss:.2f}",
                        aliases=(f"{loss:.2f} nm", f"{loss:.1f} nm",
                                 f"about {loss:.1f} nanometers"),
                        unit="nm")
    return _sa(
        3,
        "The same 500 nm oxide is instead cleared by RIE (200 nm/min, "
        "SiO2:Si selectivity 15:1) with a 10% over-etch. How many "
        "nanometers of silicon are lost during the over-etch portion?",
        visual, answer, difficulty=0.75,
        topics=("etch", "selectivity"))


def _q_undercut() -> Question:
    minutes = etch.etch_time_minutes(300.0, BOE_5_TO_1)
    width = etch.opening_width_after_etch(1000.0, minutes, BOE_5_TO_1)
    scene = cross_section_scene(
        stack=[("silicon", 2.0), ("oxide", 0.6), ("resist", 0.8)],
        resist_openings=[(4.0, 2.0)])
    visual = _visual(VisualType.STRUCTURE,
                     "Isotropic wet etch undercutting the resist mask",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{width:.0f}",
                        aliases=(f"{width:.0f} nm", "1.6 um"),
                        unit="nm")
    return _sa(
        4,
        "A 1000 nm resist opening is used to wet-etch through 300 nm of "
        "oxide in 5:1 BOE (isotropic, 100 nm/min) with no over-etch. "
        "Including undercut on both sides, how wide is the oxide opening "
        "at the top, in nm?",
        visual, answer, difficulty=0.65,
        topics=("etch", "undercut"))


def _q_rayleigh() -> Question:
    resolution = lithography.rayleigh_resolution(0.35, 193.0, 1.35)
    scene = layout_scene({"metal1": [(0, 0, 0.5, 4), (1.0, 0, 0.5, 4),
                                     (2.0, 0, 0.5, 4)]},
                         scale=50,
                         labels=[(0, 4.6, "DENSE LINES HALF PITCH R")])
    visual = _visual(VisualType.LAYOUT,
                     "Dense line/space pattern at the resolution limit",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{resolution:.0f}",
                        aliases=(f"{resolution:.0f} nm", f"{resolution:.1f}"),
                        unit="nm")
    return _sa(
        5,
        "An immersion scanner exposes the dense pattern shown at "
        "wavelength 193 nm with NA = 1.35 and k1 = 0.35. What minimum "
        "half-pitch does the Rayleigh criterion predict, in nm?",
        visual, answer, difficulty=0.55,
        topics=("lithography", "resolution"))


def _q_dof() -> Question:
    dof = lithography.depth_of_focus(0.5, 193.0, 0.9)
    scene = layout_scene({"resist": [(0, 0, 6, 1.2)]},
                         scale=40,
                         labels=[(0, 2.0, "FOCUS WINDOW")])
    visual = _visual(VisualType.LAYOUT,
                     "Resist film within the focus window of the exposure",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{dof:.0f}",
                        aliases=(f"{dof:.0f} nm", f"{dof:.1f}"),
                        unit="nm")
    return _sa(
        6,
        "With lambda = 193 nm, NA = 0.9 and k2 = 0.5, what depth of focus "
        "does the Rayleigh DOF relation give for the exposure shown?",
        visual, answer, difficulty=0.55,
        topics=("lithography", "dof"))


def _q_double_patterning() -> Question:
    needs = lithography.requires_double_patterning(20.0, 193.0, 1.35)
    assert needs is True
    scene = mask_pattern_scene(
        features=[(0.5, 1, 0.8, 6), (2.2, 1, 0.8, 6)],
        phase_regions=[(4.0, 1, 0.8, 6), (5.7, 1, 0.8, 6)])
    visual = _visual(VisualType.FIGURE,
                     "A dense pattern split across two mask colourings",
                     scene)
    k1 = lithography.k1_from_pitch(20.0, 193.0, 1.35)
    return _mc(
        7,
        "A 20 nm half-pitch must be printed with a 193 nm, NA 1.35 "
        "immersion scanner. The implied k1 is about 0.14, and the pattern "
        "is split across two masks as shown. Why?",
        visual,
        ["k1 falls below the 0.25 single-exposure limit, so double "
         "patterning is required",
         "The resist is too thick for a single exposure",
         "Two masks halve the exposure dose",
         "The scanner cannot align a single mask"],
        0,
        difficulty=0.7,
        topics=("lithography", "double patterning"),
        answer_kind=AnswerKind.TEXT,
        aliases=("double patterning needed", "k1 < 0.25"),
    )


def _q_meef() -> Question:
    meef = lithography.mask_error_enhancement_factor(
        cd_wafer_delta=3.0, cd_mask_delta=4.0, magnification=4.0)
    scene = layout_scene({"metal1": [(0, 0, 1.0, 5)],
                          "poly": [(2.5, 0, 1.1, 5)]},
                         scale=40,
                         labels=[(0, 5.6, "MASK CD VS WAFER CD")])
    visual = _visual(VisualType.LAYOUT,
                     "Mask CD error translating to wafer CD error", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{meef:.0f}",
                        aliases=(f"MEEF = {meef:.0f}", f"{meef:.1f}"))
    return _sa(
        8,
        "A 4 nm change in mask CD (at 4x magnification, i.e. 1 nm at "
        "wafer scale) produces a 3 nm change in printed CD, as sketched. "
        "What is the mask error enhancement factor (MEEF)?",
        visual, answer, difficulty=0.7,
        topics=("lithography", "meef"))


def _q_deal_grove() -> Question:
    thickness = diffusion.deal_grove_thickness_um(0.165, 0.0117, 4.0)
    scene = block_diagram_scene(
        [("furnace", "FURNACE 1000C"), ("wafer", "SI WAFER"),
         ("oxide", "SIO2 GROWTH")],
        [("furnace", "wafer"), ("wafer", "oxide")])
    visual = _visual(VisualType.DIAGRAM,
                     "Thermal oxidation furnace schedule", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{thickness:.2f}",
                        aliases=(f"{thickness:.2f} um",
                                 f"{thickness * 1000:.0f} nm"),
                        unit="um")
    return _sa(
        9,
        "Dry oxidation at 1000 C follows the Deal-Grove model with A = "
        "0.165 um and B = 0.0117 um^2/hr, starting from bare silicon. How "
        "thick is the oxide after the 4-hour cycle shown, in microns?",
        visual, answer, difficulty=0.75,
        topics=("oxidation", "deal-grove"))


def _q_silicon_consumed() -> Question:
    consumed = diffusion.oxide_silicon_consumed_um(0.5)
    scene = cross_section_scene(
        stack=[("silicon", 1.6), ("oxide", 1.0)],
        resist_openings=[])
    visual = _visual(VisualType.STRUCTURE,
                     "Grown oxide with the original silicon surface marked",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{consumed:.2f}",
                        aliases=(f"{consumed:.2f} um", "220 nm"),
                        unit="um")
    return _sa(
        10,
        "Growing the 0.5 um thermal oxide shown consumes silicon beneath "
        "the original surface. Using the standard 44% ratio, how much "
        "silicon is consumed, in microns?",
        visual, answer, difficulty=0.5,
        topics=("oxidation",))


def _q_junction_depth() -> Question:
    depth_um = diffusion.junction_depth_gaussian(
        dose_cm2=1e14, d_cm2_s=1e-13, time_s=3600.0,
        background_cm3=1e16) * 1e4
    scene = layout_scene({"diffusion": [(1, 0, 4, 1.2)],
                          "silicon": [(0, -1.5, 6, 1.5)]},
                         scale=40,
                         labels=[(0, 2.0, "GAUSSIAN DRIVE-IN PROFILE")])
    visual = _visual(VisualType.LAYOUT,
                     "Dopant well after drive-in with junction marked",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{depth_um:.2f}",
                        aliases=(f"{depth_um:.2f} um", f"{depth_um:.1f} um"),
                        unit="um", rel_tol=0.05)
    return _sa(
        11,
        "A boron drive-in (dose 1e14 cm^-2, D = 1e-13 cm^2/s, 1 hour) "
        "forms the Gaussian profile sketched over a 1e16 cm^-3 n-type "
        "background. At what depth (microns) is the metallurgical "
        "junction?",
        visual, answer, difficulty=0.9,
        topics=("doping", "diffusion"))


def _q_diffusion_length() -> Question:
    length = diffusion.diffusion_length_um(1e-12, 1800.0)
    scene = (block_diagram_scene(
        [("pre", "PREDEP 950C"), ("drive", "DRIVE-IN 1100C")],
        [("pre", "drive")])
        + translate(equation_scene(["L = 2 SQRT(D T)"]), 0, 200))
    visual = _visual(VisualType.DIAGRAM,
                     "Two-step doping schedule with the length relation",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{length:.2f}",
                        aliases=(f"{length:.2f} um", f"{length:.3f}"),
                        unit="um", rel_tol=0.05)
    return _sa(
        12,
        "For the drive-in step shown (D = 1e-12 cm^2/s for 30 minutes), "
        "what characteristic diffusion length 2 sqrt(Dt) results, in "
        "microns?",
        visual, answer, difficulty=0.65,
        topics=("diffusion",))


def _q_sheet_resistance() -> Question:
    r_wire = diffusion.wire_resistance(0.1, length_um=500.0, width_um=0.5)
    scene = (layout_scene({"metal1": [(0, 0, 8, 0.4)]}, scale=40,
                          labels=[(0, 1.2, "L=500UM W=0.5UM")])
             + translate(table_scene([["PARAM", "VALUE"],
                                      ["RSHEET", "0.1 OHM/SQ"]],
                                     origin=(40, 40)), 270, 0))
    visual = _visual(VisualType.MIXED,
                     "Long metal wire with its sheet-resistance table",
                     scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{r_wire:.0f}",
                        aliases=(f"{r_wire:.0f} Ohm", f"{r_wire:.1f}"),
                        unit="Ohm")
    return _sa(
        13,
        "The interconnect shown is 500 um long and 0.5 um wide on a "
        "layer with 0.1 Ohm/sq sheet resistance. What is its end-to-end "
        "resistance?",
        visual, answer, difficulty=0.5,
        topics=("interconnect", "sheet resistance"))


def _q_poisson_yield() -> Question:
    value = yieldmodel.poisson_yield(0.5, 1.0) * 100.0
    gold = f"{value:.0f}%"
    scene = layout_scene({"metal1": [(x, y, 0.9, 0.9)
                                     for x in range(0, 6, 1)
                                     for y in range(0, 5, 1)]},
                         scale=30,
                         labels=[(0, 5.6, "WAFER MAP D=0.5 A=1CM2")])
    visual = _visual(VisualType.LAYOUT,
                     "Die grid on a wafer with defect density annotated",
                     scene)
    return _mc(
        14,
        "Dies of 1 cm^2 are printed on a wafer with defect density 0.5 "
        "defects/cm^2, as annotated. What yield does the Poisson model "
        "predict?",
        visual,
        [gold, "50%", "78%", "37%"],
        0,
        difficulty=0.6,
        topics=("yield",),
        answer_kind=AnswerKind.NUMERIC,
        aliases=(f"{value / 100:.2f}", f"{value:.1f}%"),
    )


def _q_dies_per_wafer() -> Question:
    count = yieldmodel.dies_per_wafer(300.0, 10.0, 10.0)
    scene = layout_scene({"metal1": [(x, y, 0.9, 0.9)
                                     for x in range(0, 7)
                                     for y in range(0, 6)]},
                         scale=28,
                         labels=[(0, 6.6, "300MM WAFER 10X10MM DIE")])
    visual = _visual(VisualType.LAYOUT,
                     "Die grid across a 300 mm wafer", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=str(count),
                        aliases=(f"{count} dies", f"about {count}"),
                        rel_tol=0.03)
    return _sa(
        15,
        "Using the edge-corrected formula N = pi r^2 / A - pi d / "
        "sqrt(2A), how many gross 10 mm x 10 mm dies fit on the 300 mm "
        "wafer shown?",
        visual, answer, difficulty=0.65,
        topics=("yield", "wafer arithmetic"))


def _q_die_cost() -> Question:
    cost = yieldmodel.cost_per_good_die(
        wafer_cost=5000.0, wafer_diameter_mm=300.0, die_w_mm=10.0,
        die_h_mm=10.0, defect_density_cm2=0.5)
    scene = (table_scene([["ITEM", "VALUE"],
                          ["WAFER COST", "5000"],
                          ["DIE", "10X10MM"],
                          ["D0", "0.5/CM2"]])
             + translate(block_diagram_scene(
                 [("fab", "FAB"), ("test", "TEST"), ("good", "GOOD DIES")],
                 [("fab", "test"), ("test", "good")]), 250, 60))
    visual = _visual(VisualType.MIXED,
                     "Cost inputs and the fab-to-good-die pipeline", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{cost:.0f}",
                        aliases=(f"${cost:.0f}", f"{cost:.2f}"),
                        rel_tol=0.05)
    return _sa(
        16,
        "A 300 mm wafer costs $5000 and yields 10 mm x 10 mm dies at 0.5 "
        "defects/cm^2 (Poisson), per the table. What is the cost per good "
        "die, in dollars?",
        visual, answer, difficulty=0.75,
        topics=("yield", "cost"))


def _q_wafer_map() -> Question:
    signature = defects.WaferMapSignature(
        linear_fit_r2=0.96, edge_fraction=0.2, cluster_factor=1.1)
    classified = defects.classify_map(signature)
    assert classified is defects.DefectClass.SCRATCH
    scene = [{"op": "circle", "center": [256, 190], "radius": 150},
             {"op": "polyline", "points": [[150, 120], [340, 260]],
              "thickness": 3},
             {"op": "text", "xy": [180, 330], "s": "DEFECT MAP"}]
    visual = _visual(VisualType.FIGURE,
                     "Wafer map with defects along a straight line", scene)
    return _mc(
        17,
        "The wafer defect map shown has its defects concentrated along a "
        "straight line (linear fit R^2 = 0.96). What defect mechanism "
        "does this signature indicate?",
        visual,
        ["A mechanical scratch", "Random particle fallout",
         "Edge-bead removal residue", "Resist clustering"],
        0,
        difficulty=0.5,
        topics=("defects", "wafer maps"),
        answer_kind=AnswerKind.TEXT,
        aliases=("scratch", "handling scratch"),
    )


def _q_cluster_factor() -> Question:
    counts = [0, 0, 1, 0, 9, 8, 0, 1, 0, 1]
    factor = defects.cluster_factor(counts)
    scene = block_diagram_scene(
        [("insp", "INSPECTION"), ("cnt", "PER-DIE COUNTS"),
         ("stat", "VAR/MEAN")],
        [("insp", "cnt"), ("cnt", "stat")])
    visual = _visual(VisualType.DIAGRAM,
                     "Defect-count statistics pipeline", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{factor:.1f}",
                        aliases=(f"{factor:.2f}",), rel_tol=0.05)
    return _sa(
        18,
        "Per-die defect counts from the inspection shown are 0, 0, 1, 0, "
        "9, 8, 0, 1, 0, 1. Compute the variance-to-mean ratio (cluster "
        "factor); values well above 1 indicate clustering.",
        visual, answer, difficulty=0.7,
        topics=("defects", "statistics"))


def _q_critical_area() -> Question:
    area = defects.critical_area_wires(
        defect_diameter_um=2.0, wire_width_um=1.0, wire_space_um=1.0,
        layout_area_um2=10000.0)
    probability = defects.failure_probability(
        defect_density_cm2=1.0, critical_area_cm2=area * 1e-8)
    scene = layout_scene({"metal1": [(0, y, 9, 0.5)
                                     for y in range(0, 5)]},
                         scale=36,
                         labels=[(0, 5.4, "W=1 S=1 PARTICLE D=2")])
    visual = _visual(VisualType.LAYOUT,
                     "Parallel wires with a bridging particle", scene)
    answer = AnswerSpec(kind=AnswerKind.NUMERIC, text=f"{area:.0f}",
                        aliases=(f"{area:.0f} um^2", f"{area:.1f}"),
                        unit="um^2")
    assert 0.0 < probability < 1.0
    return _sa(
        19,
        "The wiring pattern shown has 1 um lines and 1 um spaces over "
        "10000 um^2. For conducting particles of 2 um diameter, what is "
        "the critical area for shorts, in um^2 (fraction (d - s)/pitch "
        "of the area)?",
        visual, answer, difficulty=0.88,
        topics=("defects", "critical area"))


def _q_process_flow() -> Question:
    steps = ["CLEAN", "DEPOSIT", "LITHO", "ETCH", "STRIP", "INSPECT"]
    scene = flow_chart_scene(steps, loop_back=0)
    visual = _visual(VisualType.FLOW,
                     "One patterning loop of the wafer process flow", scene)
    return _mc(
        20,
        "In the patterning loop shown, which step immediately follows "
        "lithography?",
        visual,
        ["Etch", "Deposition", "Resist strip", "Inspection"],
        0,
        difficulty=0.1,
        topics=("process flow",),
        answer_kind=AnswerKind.TEXT,
        aliases=("etching", "the etch step"),
    )


_BUILDERS = [
    _q_ret_identify, _q_boe_over_etch, _q_rie_substrate_loss, _q_undercut,
    _q_rayleigh, _q_dof, _q_double_patterning, _q_meef, _q_deal_grove,
    _q_silicon_consumed, _q_junction_depth, _q_diffusion_length,
    _q_sheet_resistance, _q_poisson_yield, _q_dies_per_wafer, _q_die_cost,
    _q_wafer_map, _q_cluster_factor, _q_critical_area, _q_process_flow,
]


#: Worked solutions, interpolating the computed gold as ``{gold}``.
_EXPLANATIONS = {
    "mfg-01": "Narrow bars beside the main feature that are too small to "
              "print themselves are sub-resolution assist features "
              "(scatter bars).",
    "mfg-02": "Clearing 500 nm at 100 nm/min takes 5 minutes; a 10% "
              "over-etch adds 0.5 min, so {gold} minutes.",
    "mfg-03": "The 10% over-etch runs 0.25 min; silicon etches at "
              "200/15 nm/min, so 13.3 x 0.25 = {gold} nm.",
    "mfg-04": "Three minutes of isotropic etch undercuts 300 nm per "
              "side: 1000 + 2 x 300 = {gold} nm.",
    "mfg-05": "R = k1 lambda / NA = 0.35 x 193 / 1.35 = {gold} nm.",
    "mfg-06": "DOF = k2 lambda / NA^2 = 0.5 x 193 / 0.81 = {gold} nm.",
    "mfg-07": "k1 = HP x NA / lambda = 20 x 1.35 / 193 = 0.14 < 0.25, "
              "below the single-exposure limit, so the pattern must be "
              "split.",
    "mfg-08": "MEEF = (dCD_wafer / dCD_mask) x M = (3/4) x 4 = {gold}.",
    "mfg-09": "Solving x^2 + 0.165x = 0.0117 x 4 gives x = {gold} um.",
    "mfg-10": "Thermal oxide consumes 44% of its thickness in silicon: "
              "0.44 x 0.5 = {gold} um.",
    "mfg-11": "The Gaussian peak is Q/sqrt(pi D t); setting N(x) = 1e16 "
              "and solving x = sqrt(4Dt ln(Npeak/NB)) gives {gold} um.",
    "mfg-12": "L = 2 sqrt(D t) = 2 sqrt(1e-12 x 1800) cm = {gold} um.",
    "mfg-13": "500 um / 0.5 um = 1000 squares at 0.1 Ohm/sq = {gold} "
              "Ohm.",
    "mfg-14": "Poisson yield e^(-DA) = e^-0.5 = {gold}.",
    "mfg-15": "pi r^2/A - pi d/sqrt(2A) = 706.9 - 66.6 = {gold} gross "
              "dies.",
    "mfg-16": "640 gross dies x e^-0.5 yield = 388 good; "
              "$5000/388 = {gold} dollars.",
    "mfg-17": "Defects collinear with R^2 = 0.96 trace a tool or handler "
              "contact path: a scratch.",
    "mfg-18": "Mean count is 2.0 and variance 10.8, so var/mean = {gold} "
              "— strongly clustered.",
    "mfg-19": "Fraction (d - s)/pitch = (2-1)/2 = 0.5 of the area is "
              "critical: 0.5 x 10000 = {gold} um^2.",
    "mfg-20": "Lithography defines the pattern that the etch step then "
              "transfers into the film: {gold} follows.",
}


def generate_manufacturing_questions() -> List[Question]:
    """All 20 Manufacturing questions, in stable order."""
    import dataclasses

    questions = [builder() for builder in _BUILDERS]
    if len(questions) != 20:
        raise AssertionError(
            f"expected 20 manufacturing questions, got {len(questions)}")
    questions = [
        dataclasses.replace(
            q, explanation=_EXPLANATIONS[q.qid].replace("{gold}",
                                                        q.gold_text))
        for q in questions
    ]
    return questions

