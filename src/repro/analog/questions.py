"""The 44 Analog Design multiple-choice questions of the benchmark.

Mirrors the paper's Analog collection (Section III-B2): amplifier- and
transistor-level schematics, Bode plots and symbolic transfer functions,
covering DC operating points, small-signal gain, equivalent resistance,
closed-loop feedback, poles/zeros/unity-gain frequency, phase margin,
voltage range and compensation.  Every gold value is computed by the
analog substrate (MNA solver or the vetted closed forms), never typed in.

Visual-type budget (DESIGN.md): 32 schematics, 4 curves, 2 diagrams,
4 mixed, 1 table, 1 equation.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.analog import dataconv, feedback, smallsignal
from repro.analog.feedback import LoopAnalysis, Topology
from repro.analog.netlist import (
    Circuit,
    equivalent_resistance,
    parallel,
    voltage_divider,
)
from repro.analog.smallsignal import MosParams, bias_from_current
from repro.analog.transfer import (
    TransferFunction,
    gbw_from_dc_gain,
    rc_lowpass_corner_hz,
)
from repro.core.question import (
    AnswerKind,
    Category,
    Question,
    VisualContent,
    VisualType,
    make_mc_question,
)
from repro.visual.diagram import block_diagram_scene
from repro.visual.resolution import infer_legibility_scale
from repro.visual.scene import translate
from repro.visual.schematic import (
    bode_plot_scene,
    common_source_scene,
    differential_pair_scene,
    flash_adc_scene,
    opamp_stage_scene,
    resistor_network_scene,
)
from repro.visual.table import equation_scene, table_scene
from repro.visual.waveform import curve_scene, step_response_scene


def _visual(visual_type: VisualType, description: str, scene) -> VisualContent:
    return VisualContent(
        visual_type=visual_type,
        description=description,
        render_spec=("scene", scene),
        legibility_scale=infer_legibility_scale(scene),
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
    answer_kind: AnswerKind = AnswerKind.NUMERIC,
    aliases: Sequence[str] = (),
    unit: str = "",
) -> Question:
    return make_mc_question(
        qid=f"ana-{number:02d}",
        category=Category.ANALOG,
        prompt=prompt,
        visual=visual,
        choices=choices,
        correct=correct,
        difficulty=difficulty,
        topics=topics,
        answer_kind=answer_kind,
        aliases=aliases,
        unit=unit,
    )


def _ladder_circuit() -> Circuit:
    """The Fig. 3 ladder: Vs-R1-n1, R2 shunt, R3 to n2, R4 shunt, RL load."""
    circuit = Circuit()
    circuit.vsource("vs", "n_in", 0, 5.0)
    circuit.resistor("r1", "n_in", "n1", 1000.0)
    circuit.resistor("r2", "n1", 0, 2200.0)
    circuit.resistor("r3", "n1", "n2", 2200.0)
    circuit.resistor("r4", "n2", 0, 1500.0)
    circuit.resistor("rl", "n2", 0, 4700.0)
    return circuit


_LADDER_SCENE = resistor_network_scene(
    [("R1", "1K"), ("R2", "2.2K"), ("R3", "2.2K"), ("R4", "1.5K"),
     ("RL", "4.7K")],
    source_label="5V",
)


def _q_ladder_voltage() -> Question:
    v_rl = _ladder_circuit().solve().voltage("n2")
    gold = f"{v_rl:.2f} V"
    visual = _visual(VisualType.SCHEMATIC,
                     "Resistor ladder with five labelled resistors",
                     _LADDER_SCENE)
    return _mc(
        1,
        "Given VS = 5V, R1 = 1 kOhm, R2 = 2.2 kOhm, R3 = 2.2 kOhm, R4 = "
        "1.5 kOhm, and RL = 4.7 kOhm connected as shown. Determine the "
        "voltage across RL. Answer in unit of V.",
        visual,
        [gold, f"{v_rl * 2:.2f} V", f"{v_rl / 2:.2f} V", "5.00 V"],
        0,
        difficulty=0.5,
        topics=("dc analysis", "resistor networks"),
        unit="V",
        aliases=(f"{v_rl:.2f}", f"{v_rl:.3f} V"),
    )


def _q_ladder_current() -> Question:
    solution = _ladder_circuit().solve()
    i_rl = solution.resistor_current("rl") * 1000.0  # mA
    gold = f"{i_rl:.3f} mA"
    visual = _visual(VisualType.SCHEMATIC,
                     "Resistor ladder with load resistor RL",
                     _LADDER_SCENE)
    return _mc(
        2,
        "For the same ladder network (VS = 5V, R1 = 1 kOhm, R2 = 2.2 kOhm, "
        "R3 = 2.2 kOhm, R4 = 1.5 kOhm, RL = 4.7 kOhm), what current flows "
        "through RL?",
        visual,
        [gold, f"{i_rl * 2:.3f} mA", f"{i_rl / 10:.4f} mA", "1.064 mA"],
        0,
        difficulty=0.55,
        topics=("dc analysis",),
        unit="mA",
        aliases=(f"{i_rl:.3f}",),
    )


def _q_equivalent_resistance() -> Question:
    circuit = Circuit()
    circuit.resistor("r1", "a", "m", 1000.0)
    circuit.resistor("r2", "m", "b", 2000.0)
    circuit.resistor("r3", "a", "b", 6000.0)
    r_eq = equivalent_resistance(circuit, "a", "b")
    expected = parallel(1000.0 + 2000.0, 6000.0)
    assert abs(r_eq - expected) < 1e-6
    gold = f"{r_eq / 1000:.1f} kOhm"
    scene = resistor_network_scene(
        [("R1", "1K"), ("R2", "2K"), ("R3", "6K")], source_label="OHM")
    visual = _visual(VisualType.SCHEMATIC,
                     "Series pair in parallel with a third resistor", scene)
    return _mc(
        3,
        "R1 = 1 kOhm in series with R2 = 2 kOhm, together in parallel with "
        "R3 = 6 kOhm as drawn. What is the equivalent resistance between "
        "the terminals?",
        visual,
        [gold, "9.0 kOhm", "3.0 kOhm", "0.7 kOhm"],
        0,
        difficulty=0.3,
        topics=("resistor networks",),
        unit="kOhm",
        aliases=("2000 Ohm", f"{r_eq:.0f} Ohm", "2k"),
    )


def _q_divider() -> Question:
    v_out = voltage_divider(12.0, 6800.0, 3300.0)
    gold = f"{v_out:.2f} V"
    scene = resistor_network_scene([("R1", "6.8K"), ("R2", "3.3K")],
                                   source_label="12V")
    visual = _visual(VisualType.SCHEMATIC, "Two-resistor voltage divider",
                     scene)
    return _mc(
        4,
        "The divider shown uses R1 = 6.8 kOhm on top and R2 = 3.3 kOhm to "
        "ground from a 12 V supply. What is the unloaded output voltage "
        "across R2?",
        visual,
        [gold, "6.00 V", f"{12 - v_out:.2f} V", "3.30 V"],
        0,
        difficulty=0.15,
        topics=("dc analysis",),
        unit="V",
        aliases=(f"{v_out:.2f}",),
    )


def _q_power() -> Question:
    circuit = Circuit()
    circuit.vsource("vs", "n1", 0, 10.0)
    circuit.resistor("r1", "n1", "n2", 100.0)
    circuit.resistor("r2", "n2", 0, 400.0)
    power_mw = circuit.solve().power_dissipated("r2") * 1000.0
    gold = f"{power_mw:.0f} mW"
    scene = resistor_network_scene([("R1", "100"), ("R2", "400")],
                                   source_label="10V")
    visual = _visual(VisualType.SCHEMATIC,
                     "Series resistors across a 10 V source", scene)
    return _mc(
        5,
        "In the circuit shown a 10 V source drives R1 = 100 Ohm in series "
        "with R2 = 400 Ohm. How much power is dissipated in R2?",
        visual,
        [gold, "200 mW", "64 mW", "400 mW"],
        0,
        difficulty=0.35,
        topics=("power", "dc analysis"),
        unit="mW",
        aliases=(f"{power_mw / 1000:.3f} W",),
    )


def _q_inverting() -> Question:
    gain = feedback.inverting_gain(10e3, 100e3)
    gold = f"{gain:.0f}"
    scene = opamp_stage_scene("inverting", "RIN=10K", "RF=100K")
    visual = _visual(VisualType.SCHEMATIC, "Inverting op-amp stage", scene)
    return _mc(
        6,
        "Assuming an ideal op-amp, what is the voltage gain VOUT/VIN of "
        "the inverting amplifier shown (RIN = 10 kOhm, RF = 100 kOhm)?",
        visual,
        [gold, "10", "-11", "-9"],
        0,
        difficulty=0.3,
        topics=("op-amps", "closed-loop gain"),
        aliases=("-10 V/V", "gain of -10"),
    )


def _q_noninverting() -> Question:
    gain = feedback.noninverting_gain(1e3, 9e3)
    gold = f"{gain:.0f}"
    scene = opamp_stage_scene("noninverting", "RG=1K", "RF=9K")
    visual = _visual(VisualType.SCHEMATIC, "Non-inverting op-amp stage",
                     scene)
    return _mc(
        7,
        "For the non-inverting amplifier shown with RG = 1 kOhm to ground "
        "and RF = 9 kOhm feedback, what is the ideal closed-loop gain?",
        visual,
        [gold, "9", "-10", "90"],
        0,
        difficulty=0.3,
        topics=("op-amps", "closed-loop gain"),
        aliases=("10 V/V",),
    )


def _q_finite_gain() -> Question:
    gain = feedback.inverting_gain(10e3, 100e3, open_loop=1000.0)
    gold = f"{gain:.2f}"
    scene = opamp_stage_scene("inverting", "RIN=10K", "RF=100K")
    visual = _visual(VisualType.SCHEMATIC,
                     "Inverting stage with finite-gain op-amp", scene)
    return _mc(
        8,
        "Repeat the inverting-amplifier analysis (RIN = 10 kOhm, RF = "
        "100 kOhm) for an op-amp with finite open-loop gain A = 1000. "
        "What closed-loop gain results?",
        visual,
        [gold, "-10.00", "-9.50", f"{gain * 1.02:.2f}"],
        0,
        difficulty=0.65,
        topics=("op-amps", "finite gain", "feedback"),
    )


def _q_summing() -> Question:
    v_out = feedback.summing_amp_output(
        [(1.0, 10e3), (2.0, 20e3)], 20e3)
    gold = f"{v_out:.0f} V"
    scene = opamp_stage_scene("inverting", "R1=10K R2=20K", "RF=20K")
    visual = _visual(VisualType.SCHEMATIC, "Two-input inverting summer",
                     scene)
    return _mc(
        9,
        "The inverting summer shown has V1 = 1 V through R1 = 10 kOhm and "
        "V2 = 2 V through R2 = 20 kOhm, with RF = 20 kOhm. Find VOUT.",
        visual,
        [gold, "-3 V", "+4 V", "-2 V"],
        0,
        difficulty=0.45,
        topics=("op-amps", "summing"),
        unit="V",
        aliases=(f"{v_out:.1f}",),
    )


def _q_inamp() -> Question:
    gain = feedback.instrumentation_amp_gain(1e3, 10e3, 10e3, 10e3)
    gold = f"{gain:.0f}"
    scene = opamp_stage_scene("noninverting", "RG=1K", "R1=10K")
    visual = _visual(VisualType.SCHEMATIC,
                     "Three-op-amp instrumentation amplifier", scene)
    return _mc(
        10,
        "A classic three-op-amp instrumentation amplifier has RG = 1 kOhm, "
        "first-stage resistors R1 = 10 kOhm and a unity difference stage "
        "(R3 = R2 = 10 kOhm), as drawn. What is its differential gain?",
        visual,
        [gold, "11", "10", "20"],
        0,
        difficulty=0.6,
        topics=("instrumentation amplifier",),
    )


def _q_cs_gain() -> Question:
    gain = smallsignal.common_source_gain(2e-3, 10e3, ro=50e3)
    mna = smallsignal.common_source_gain_mna(2e-3, 10e3, ro=50e3)
    assert abs(gain - mna) < 1e-6
    gold = f"{gain:.1f}"
    scene = common_source_scene("GM=2M", "RD=10K")
    visual = _visual(VisualType.SCHEMATIC,
                     "Common-source stage with resistive load", scene)
    return _mc(
        11,
        "The common-source stage shown has gm = 2 mS, RD = 10 kOhm and "
        "ro = 50 kOhm. What is the small-signal voltage gain?",
        visual,
        [gold, "-20.0", "-12.5", "20.0"],
        0,
        difficulty=0.5,
        topics=("small-signal", "common source"),
    )


def _q_cs_degenerated() -> Question:
    gain = smallsignal.common_source_degenerated_gain(2e-3, 10e3, 500.0)
    gold = f"{gain:.1f}"
    scene = common_source_scene("GM=2M", "RD=10K", with_degeneration=True,
                                rs_label="RS=500")
    visual = _visual(VisualType.SCHEMATIC,
                     "Common-source stage with source degeneration", scene)
    return _mc(
        12,
        "Adding RS = 500 Ohm source degeneration to the stage shown "
        "(gm = 2 mS, RD = 10 kOhm, neglect ro), what does the gain become?",
        visual,
        [gold, "-20.0", "-5.0", "-40.0"],
        0,
        difficulty=0.55,
        topics=("small-signal", "degeneration"),
    )


def _q_follower() -> Question:
    gain = smallsignal.common_drain_gain(5e-3, 2e3)
    mna = smallsignal.source_follower_gain_mna(5e-3, 2e3)
    assert abs(gain - mna) < 1e-9
    gold = f"{gain:.2f}"
    scene = common_source_scene("GM=5M", "RS=2K")
    visual = _visual(VisualType.SCHEMATIC, "Source follower driving RS",
                     scene)
    return _mc(
        13,
        "The source follower shown has gm = 5 mS loaded by RS = 2 kOhm "
        "(neglect body effect and ro). What is its voltage gain?",
        visual,
        [gold, "1.00", "0.50", "10.00"],
        0,
        difficulty=0.45,
        topics=("small-signal", "source follower"),
    )


def _q_common_gate() -> Question:
    gain = smallsignal.common_gate_gain(4e-3, 5e3)
    gold = f"+{gain:.0f}"
    scene = common_source_scene("GM=4M", "RD=5K")
    visual = _visual(VisualType.SCHEMATIC, "Common-gate stage", scene)
    return _mc(
        14,
        "For the common-gate stage shown with gm = 4 mS and RD = 5 kOhm "
        "driven from an ideal source, what is the voltage gain (sign "
        "included)?",
        visual,
        [gold, "-20", "+4", "+0.95"],
        0,
        difficulty=0.45,
        topics=("small-signal", "common gate"),
        aliases=("20", "20 V/V"),
    )


def _q_cascode_rout() -> Question:
    rout = smallsignal.cascode_output_resistance(2e-3, 50e3, 50e3)
    gold = f"{rout / 1e6:.1f} MOhm"
    scene = common_source_scene("GM2=2M", "RO=50K")
    visual = _visual(VisualType.SCHEMATIC, "Cascoded current-source output",
                     scene)
    return _mc(
        15,
        "The cascode shown stacks M2 (gm = 2 mS, ro = 50 kOhm) on M1 "
        "(ro = 50 kOhm). Estimate the output resistance (including the "
        "additive ro terms).",
        visual,
        [gold, "0.1 MOhm", "50.0 MOhm", "0.5 MOhm"],
        0,
        difficulty=0.65,
        topics=("cascode", "output resistance"),
        unit="MOhm",
        aliases=(f"{rout:.0f} Ohm", f"{rout/1e6:.2f} MOhm"),
    )


def _q_ota_gain() -> Question:
    gain = smallsignal.five_transistor_ota_gain(1e-3, 100e3, 100e3)
    gold = f"{gain:.0f}"
    scene = differential_pair_scene("IBIAS")
    visual = _visual(VisualType.SCHEMATIC,
                     "Five-transistor OTA with current-mirror load", scene)
    return _mc(
        16,
        "A five-transistor OTA has input gm = 1 mS with NMOS and PMOS "
        "output resistances both 100 kOhm, as drawn. What is its DC "
        "voltage gain?",
        visual,
        [gold, "100", "200", "25"],
        0,
        difficulty=0.6,
        topics=("ota", "gain"),
        aliases=("50 V/V",),
    )


def _q_diff_gain() -> Question:
    gain = smallsignal.diff_pair_gain(3e-3, 4e3)
    gold = f"{gain:.0f}"
    scene = differential_pair_scene()
    visual = _visual(VisualType.SCHEMATIC,
                     "Resistively loaded differential pair", scene)
    return _mc(
        17,
        "The differential pair shown has gm = 3 mS per device and load "
        "resistors RD = 4 kOhm. What is the differential small-signal "
        "gain magnitude?",
        visual,
        [gold, "6", "24", "3"],
        0,
        difficulty=0.5,
        topics=("differential pair",),
    )


def _q_cmrr() -> Question:
    cmrr = smallsignal.diff_pair_cmrr(2e-3, 5e3, 100e3)
    cmrr_db = 20.0 * math.log10(cmrr)
    gold = f"{cmrr_db:.0f} dB"
    scene = differential_pair_scene("ISS RTAIL=100K")
    visual = _visual(VisualType.SCHEMATIC,
                     "Differential pair with non-ideal tail source", scene)
    return _mc(
        18,
        "With gm = 2 mS, RD = 5 kOhm and a tail-source output resistance "
        "of 100 kOhm as shown, estimate the CMRR of the pair in dB "
        "(single-ended output approximation CMRR = 2 gm Rtail).",
        visual,
        [gold, "26 dB", "40 dB", "80 dB"],
        0,
        difficulty=0.7,
        topics=("differential pair", "cmrr"),
        unit="dB",
        aliases=(f"{cmrr:.0f}",),
    )


def _q_vov() -> Question:
    params = MosParams(k=2e-3, v_th=0.5)
    op = bias_from_current(params, 1e-3)
    gold = f"{op.v_ov:.0f} V" if op.v_ov == int(op.v_ov) else f"{op.v_ov:.1f} V"
    scene = common_source_scene("K=2MA/V2", "ID=1MA")
    visual = _visual(VisualType.SCHEMATIC,
                     "Biased NMOS with annotated device parameters", scene)
    return _mc(
        19,
        "The NMOS shown conducts ID = 1 mA with k = uCox W/L = 2 mA/V^2 "
        "(square law, saturation). What is its overdrive voltage "
        "VOV = VGS - VTH?",
        visual,
        [gold, "0.5 V", "2.0 V", "0.25 V"],
        0,
        difficulty=0.5,
        topics=("operating point",),
        unit="V",
        aliases=(f"{op.v_ov:.2f} V", f"{op.v_ov:.1f}"),
    )


def _q_gm() -> Question:
    params = MosParams(k=2e-3, v_th=0.5)
    op = bias_from_current(params, 1e-3)
    gold = f"{op.gm * 1000:.0f} mS"
    scene = common_source_scene("ID=1MA", "K=2MA/V2")
    visual = _visual(VisualType.SCHEMATIC, "Biased NMOS device", scene)
    return _mc(
        20,
        "For the same bias (ID = 1 mA, k = 2 mA/V^2), compute the "
        "transconductance gm = 2 ID / VOV of the device shown.",
        visual,
        [gold, "1 mS", "4 mS", "0.5 mS"],
        0,
        difficulty=0.5,
        topics=("operating point", "transconductance"),
        unit="mS",
        aliases=(f"{op.gm:.3f} S",),
    )


def _q_region() -> Question:
    params = MosParams(k=1e-3, v_th=0.6)
    sat = smallsignal.in_saturation(params, v_gs=1.1, v_ds=0.3)
    assert sat is False  # vov = 0.5 > vds = 0.3 -> triode
    scene = common_source_scene("VGS=1.1", "VDS=0.3")
    visual = _visual(VisualType.SCHEMATIC,
                     "NMOS with annotated terminal voltages", scene)
    return _mc(
        21,
        "The NMOS shown has VTH = 0.6 V and is biased at VGS = 1.1 V, "
        "VDS = 0.3 V. In which region does it operate?",
        visual,
        ["Triode (linear)", "Saturation", "Cutoff", "Breakdown"],
        0,
        difficulty=0.4,
        topics=("operating point", "regions"),
        answer_kind=AnswerKind.TEXT,
        aliases=("triode", "linear region", "ohmic"),
    )


def _q_flash_comparators() -> Question:
    count = dataconv.flash_comparator_count(6)
    gold = str(count)
    scene = flash_adc_scene(3)
    visual = _visual(VisualType.SCHEMATIC,
                     "Flash ADC with resistor ladder and comparator bank",
                     scene)
    return _mc(
        22,
        "Scaling the flash ADC architecture shown to 6 bits, how many "
        "comparators are required?",
        visual,
        [gold, "64", "6", "32"],
        0,
        difficulty=0.4,
        topics=("adc", "flash"),
    )


def _q_sar_cycles() -> Question:
    cycles = dataconv.sar_cycles(10)
    scene = block_diagram_scene(
        [("sh", "S/H"), ("cmp", "CMP"), ("sar", "SAR"), ("dac", "DAC")],
        [("sh", "cmp"), ("cmp", "sar"), ("sar", "dac"), ("dac", "cmp")],
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "SAR ADC loop: sample-hold, comparator, SAR logic, DAC",
                     scene)
    return _mc(
        23,
        "The successive-approximation ADC shown resolves one bit per "
        "clock. How many conversion cycles does a 10-bit conversion take?",
        visual,
        [str(cycles), "1024", "5", "20"],
        0,
        difficulty=0.35,
        topics=("adc", "sar"),
    )


def _q_sar_msb() -> Question:
    steps = dataconv.sar_conversion_steps(1.8, 3.2, 8)
    msb_kept = steps[0][2]
    assert msb_kept is True
    scene = flash_adc_scene(2)
    visual = _visual(VisualType.SCHEMATIC,
                     "Converter front-end with VREF = 3.2 V", scene)
    return _mc(
        24,
        "An 8-bit SAR ADC with VREF = 3.2 V samples VIN = 1.8 V. After "
        "the first comparison (DAC at VREF/2 = 1.6 V), what is the MSB?",
        visual,
        ["1", "0", "Depends on the LSB", "Metastable"],
        0,
        difficulty=0.45,
        topics=("adc", "sar"),
        answer_kind=AnswerKind.TEXT,
        aliases=("msb = 1", "kept"),
    )


def _q_pipeline_residue() -> Question:
    residue = dataconv.pipeline_residue(0.7, 1.0, stage_bits=1)
    gold = f"{residue:.1f} V"
    scene = block_diagram_scene(
        [("sh", "S/H"), ("sub", "SUB"), ("g", "X2"), ("out", "RES")],
        [("sh", "sub"), ("sub", "g"), ("g", "out")],
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "1-bit pipeline stage with residue amplifier", scene)
    return _mc(
        25,
        "A 1-bit pipeline ADC stage (VREF = 1 V, residue = 2 VIN - D "
        "VREF) receives VIN = 0.7 V. The comparator trips at 0.5 V. What "
        "residue voltage does the stage pass on?",
        visual,
        [gold, "0.7 V", "1.4 V", "0.2 V"],
        0,
        difficulty=0.6,
        topics=("adc", "pipeline"),
        unit="V",
        aliases=(f"{residue:.2f} V", f"{residue:.1f}"),
    )


def _q_pipeline_gain() -> Question:
    gain = dataconv.pipeline_stage_gain(2)
    scene = block_diagram_scene(
        [("in", "VIN"), ("stage", "2B STAGE"), ("amp", "AMP"),
         ("out", "RES")],
        [("in", "stage"), ("stage", "amp"), ("amp", "out")],
    )
    visual = _visual(VisualType.SCHEMATIC,
                     "2-bit-per-stage pipeline residue amplifier", scene)
    return _mc(
        26,
        "For the 2-bit (non-redundant) pipeline stage shown, what "
        "interstage residue-amplifier gain is required?",
        visual,
        [str(gain), "2", "8", "1"],
        0,
        difficulty=0.5,
        topics=("adc", "pipeline"),
    )


def _q_lsb() -> Question:
    lsb_mv = dataconv.lsb_size(2.048, 10) * 1000.0
    gold = f"{lsb_mv:.0f} mV"
    scene = flash_adc_scene(2)
    visual = _visual(VisualType.SCHEMATIC,
                     "ADC reference ladder defining the LSB", scene)
    return _mc(
        27,
        "A 10-bit converter uses the 2.048 V reference ladder shown. How "
        "large is one LSB?",
        visual,
        [gold, "1 mV", "4 mV", "0.5 mV"],
        0,
        difficulty=0.35,
        topics=("adc", "quantisation"),
        unit="mV",
        aliases=(f"{lsb_mv / 1000:.3f} V",),
    )


def _q_relaxation() -> Question:
    period_us = feedback.relaxation_oscillator_period(10e3, 10e-9, 0.5) * 1e6
    gold = f"{period_us:.1f} us"
    scene = opamp_stage_scene("inverting", "R=10K", "C=10N")
    visual = _visual(VisualType.SCHEMATIC,
                     "Comparator-based RC relaxation oscillator", scene)
    return _mc(
        28,
        "The comparator-based relaxation oscillator shown uses R = 10 "
        "kOhm, C = 10 nF and hysteresis beta = 0.5 (T = 2RC ln((1 + "
        "beta)/(1 - beta))). What is its oscillation period?",
        visual,
        [gold, "100.0 us", "1.0 us", f"{period_us * 2:.1f} us"],
        0,
        difficulty=0.7,
        topics=("oscillators", "comparators"),
        unit="us",
        aliases=(f"{period_us:.0f} us",),
    )


def _q_diode_connected() -> Question:
    r_small = smallsignal.source_follower_rout(4e-3)
    gold = f"{r_small:.0f} Ohm"
    scene = common_source_scene("GM=4M", "DIODE")
    visual = _visual(VisualType.SCHEMATIC,
                     "Diode-connected MOS device (gate tied to drain)",
                     scene)
    return _mc(
        29,
        "What small-signal resistance does the diode-connected device "
        "shown (gm = 4 mS, neglect ro) present?",
        visual,
        [gold, "4000 Ohm", "1000 Ohm", "25 Ohm"],
        0,
        difficulty=0.5,
        topics=("small-signal",),
        unit="Ohm",
        aliases=("1/gm", "250",),
    )


def _q_degenerated_rout() -> Question:
    rout = smallsignal.degenerated_rout(2e-3, 50e3, 1e3)
    gold = f"{rout / 1e3:.0f} kOhm"
    scene = common_source_scene("GM=2M", "RO=50K", with_degeneration=True,
                                rs_label="RS=1K")
    visual = _visual(VisualType.SCHEMATIC,
                     "Current source with source degeneration", scene)
    return _mc(
        30,
        "Looking into the drain of the degenerated device shown (gm = 2 "
        "mS, ro = 50 kOhm, RS = 1 kOhm), what output resistance do you "
        "see (R = ro(1 + gm RS) + RS)?",
        visual,
        [gold, "50 kOhm", "100 kOhm", "201 kOhm"],
        0,
        difficulty=0.65,
        topics=("output resistance",),
        unit="kOhm",
        aliases=(f"{rout:.0f} Ohm",),
    )


def _q_wheatstone() -> Question:
    # Balanced when R1/R2 = R3/Rx -> Rx = R3 R2 / R1.
    rx = 3000.0 * 2000.0 / 1000.0
    gold = f"{rx / 1000:.0f} kOhm"
    scene = resistor_network_scene(
        [("R1", "1K"), ("R2", "2K"), ("R3", "3K"), ("RX", "?")],
        source_label="VB")
    visual = _visual(VisualType.SCHEMATIC, "Wheatstone bridge with unknown RX",
                     scene)
    return _mc(
        31,
        "The Wheatstone bridge shown has R1 = 1 kOhm, R2 = 2 kOhm and R3 "
        "= 3 kOhm. What value of RX balances the bridge (zero detector "
        "current)?",
        visual,
        [gold, "1.5 kOhm", "2 kOhm", "0.67 kOhm"],
        0,
        difficulty=0.5,
        topics=("bridges", "dc analysis"),
        unit="kOhm",
        aliases=("6000 Ohm", "6k"),
    )


def _q_rc_corner() -> Question:
    f_c = rc_lowpass_corner_hz(1e3, 159e-9)
    gold = f"{f_c / 1e3:.1f} kHz"
    scene = resistor_network_scene([("R", "1K"), ("C", "159N")],
                                   source_label="VIN")
    visual = _visual(VisualType.SCHEMATIC, "First-order RC low-pass filter",
                     scene)
    return _mc(
        32,
        "What is the -3 dB corner frequency of the RC low-pass shown "
        "(R = 1 kOhm, C = 159 nF)?",
        visual,
        [gold, "6.3 kHz", "159.0 kHz", "0.159 kHz"],
        0,
        difficulty=0.4,
        topics=("filters", "poles"),
        unit="kHz",
        aliases=(f"{f_c:.0f} Hz", "1 kHz"),
    )


def _q_bode_gbw() -> Question:
    gbw = gbw_from_dc_gain(1e4, 100.0)
    gold = f"{gbw / 1e6:.0f} MHz"
    scene = bode_plot_scene([2.0], [0.0, -20.0], start_db=80.0)
    visual = _visual(VisualType.CURVE,
                     "Single-pole magnitude response, 80 dB DC gain", scene)
    return _mc(
        33,
        "The Bode magnitude plot shown has 80 dB DC gain and a single "
        "pole at 100 Hz. At what frequency does the gain cross unity "
        "(the gain-bandwidth product)?",
        visual,
        [gold, "100 MHz", "0.1 MHz", "10 MHz"],
        0,
        difficulty=0.55,
        topics=("bode", "gbw"),
        unit="MHz",
        aliases=(f"{gbw:.0f} Hz", "1e6 Hz"),
    )


def _q_phase_margin() -> Question:
    tf = TransferFunction.from_poles_zeros(1e3, [1e4, 1e7])
    pm = tf.phase_margin_deg()
    gold = f"{pm:.0f} degrees"
    scene = bode_plot_scene([2.0, 5.0], [0.0, -20.0, -40.0], start_db=60.0)
    visual = _visual(VisualType.CURVE,
                     "Two-pole open-loop magnitude response", scene)
    return _mc(
        34,
        "An open loop with DC gain 1000 has poles at 10 krad/s and 10 "
        "Mrad/s as plotted. Estimate the phase margin in unity feedback.",
        visual,
        [gold, "90 degrees", "20 degrees", "180 degrees"],
        0,
        difficulty=0.85,
        topics=("stability", "phase margin"),
        unit="degrees",
        aliases=(f"{pm:.1f}", f"about {pm:.0f} deg"),
    )


def _q_bode_slope() -> Question:
    scene = bode_plot_scene([2.0, 4.0], [0.0, -20.0, -40.0], start_db=60.0)
    visual = _visual(VisualType.CURVE,
                     "Piecewise Bode asymptote with two corners", scene)
    return _mc(
        35,
        "Between the two pole corners marked on the Bode plot shown, what "
        "is the slope of the magnitude asymptote?",
        visual,
        ["-20 dB/decade", "-40 dB/decade", "0 dB/decade", "-6 dB/decade"],
        0,
        difficulty=0.4,
        topics=("bode",),
        answer_kind=AnswerKind.TEXT,
        aliases=("-20 db per decade", "-6 dB/octave"),
    )


def _q_step_response() -> Question:
    scene = step_response_scene(1.0, overshoot_percent=30.0)
    visual = _visual(VisualType.CURVE,
                     "Step response with visible overshoot and ringing",
                     scene)
    return _mc(
        36,
        "The closed-loop step response shown overshoots its final value "
        "and rings before settling. Which description of the system is "
        "most consistent with this behaviour?",
        visual,
        ["Underdamped with phase margin well below 60 degrees",
         "Overdamped with a single real pole",
         "Critically damped",
         "Unstable (growing oscillation)"],
        0,
        difficulty=0.5,
        topics=("stability", "transient"),
        answer_kind=AnswerKind.TEXT,
        aliases=("underdamped",),
    )


def _q_topology() -> Question:
    scene = block_diagram_scene(
        [("src", "VIN"), ("amp", "A"), ("load", "VOUT"), ("fb", "BETA")],
        [("src", "amp"), ("amp", "load"), ("load", "fb"), ("fb", "src")],
    )
    visual = _visual(VisualType.DIAGRAM,
                     "Feedback network sensing output voltage, mixing in "
                     "series at the input", scene)
    return _mc(
        37,
        "The feedback amplifier shown senses the output voltage and feeds "
        "a voltage back in series with the input. Which topology is this, "
        "and what does it do to the input impedance?",
        visual,
        ["Series-shunt; input impedance increases",
         "Shunt-series; input impedance increases",
         "Series-series; input impedance decreases",
         "Shunt-shunt; input impedance increases"],
        0,
        difficulty=0.6,
        topics=("feedback", "topologies"),
        answer_kind=AnswerKind.TEXT,
        aliases=("series-shunt", "voltage-voltage feedback"),
    )


def _q_loop_gain() -> Question:
    loop = LoopAnalysis(open_loop_gain=1000.0, feedback_factor=0.1)
    gold = f"{loop.closed_loop_gain:.2f}"
    scene = block_diagram_scene(
        [("sum", "+/-"), ("amp", "A=1000"), ("out", "VOUT"),
         ("beta", "B=0.1")],
        [("sum", "amp"), ("amp", "out"), ("out", "beta"), ("beta", "sum")],
    )
    visual = _visual(VisualType.DIAGRAM,
                     "Negative-feedback loop with labelled A and beta",
                     scene)
    return _mc(
        38,
        "For the loop shown with forward gain A = 1000 and feedback "
        "factor beta = 0.1, compute the closed-loop gain A/(1 + A beta).",
        visual,
        [gold, "10.00", "100.00", "9.00"],
        0,
        difficulty=0.5,
        topics=("feedback", "loop gain"),
    )


def _q_bandwidth_extension() -> Question:
    loop = LoopAnalysis(open_loop_gain=100.0, feedback_factor=0.1)
    bw = loop.bandwidth_extension(10e3) / 1e3
    gold = f"{bw:.0f} kHz"
    scene = (opamp_stage_scene("noninverting", "RG=1K", "RF=9K")
             + translate(bode_plot_scene([2.0], [0.0, -20.0], start_db=40.0),
                         0, 40))
    visual = _visual(VisualType.MIXED,
                     "Closed-loop amplifier and its open-loop Bode plot",
                     scene)
    return _mc(
        39,
        "A single-pole amplifier with open-loop gain 100 and 10 kHz "
        "bandwidth is placed in the feedback configuration shown (beta = "
        "0.1). What closed-loop bandwidth results?",
        visual,
        [gold, "10 kHz", "1000 kHz", "55 kHz"],
        0,
        difficulty=0.6,
        topics=("feedback", "bandwidth"),
        unit="kHz",
        aliases=(f"{bw * 1000:.0f} Hz",),
    )


def _q_gain_error() -> Question:
    loop = LoopAnalysis(open_loop_gain=1000.0, feedback_factor=0.01)
    error = loop.gain_error_percent()
    gold = f"{error:.1f}%"
    scene = (block_diagram_scene(
        [("sum", "+/-"), ("amp", "A=1000"), ("beta", "B=0.01")],
        [("sum", "amp"), ("amp", "beta"), ("beta", "sum")])
        + translate(equation_scene(["ERR = 1/(1+AB)"]), 0, 230))
    visual = _visual(VisualType.MIXED,
                     "Feedback loop and its gain-error formula", scene)
    return _mc(
        40,
        "The loop shown targets an ideal gain of 1/beta = 100 but has "
        "only A = 1000 of forward gain. By what percentage does the "
        "closed-loop gain fall short of ideal?",
        visual,
        [gold, "1.0%", "0.1%", "50.0%"],
        0,
        difficulty=0.7,
        topics=("feedback", "gain error"),
        aliases=(f"{error:.2f}%", "about 9 percent"),
    )


def _q_sqnr() -> Question:
    sqnr = dataconv.ideal_sqnr_db(12)
    gold = f"{sqnr:.2f} dB"
    scene = (flash_adc_scene(2)
             + translate(equation_scene(["SNR = 6.02N + 1.76 DB"]), 0, 60))
    visual = _visual(VisualType.MIXED,
                     "ADC with the quantisation-SNR formula annotated",
                     scene)
    return _mc(
        41,
        "Using the quantisation-noise relation annotated in the figure, "
        "what is the ideal SNR of a 12-bit ADC driven by a full-scale "
        "sine wave?",
        visual,
        [gold, "72.00 dB", "96.32 dB", "61.96 dB"],
        0,
        difficulty=0.45,
        topics=("adc", "sqnr"),
        unit="dB",
        aliases=("74 dB", f"{sqnr:.1f}",),
    )


def _q_pole_count() -> Question:
    tf = TransferFunction.from_poles_zeros(10.0, [1e3, 1e5], zeros=[1e4])
    poles = len(tf.poles())
    zeros = len(tf.zeros())
    assert (poles, zeros) == (2, 1)
    scene = (equation_scene(["H(S) = 10(1+S/1E4)",
                             "OVER (1+S/1E3)(1+S/1E5)"])
             + translate(bode_plot_scene([2.0, 4.0, 5.0],
                                         [0.0, -20.0, 0.0, -20.0],
                                         start_db=20.0), 0, 110))
    visual = _visual(VisualType.MIXED,
                     "Symbolic transfer function with its Bode sketch",
                     scene)
    return _mc(
        42,
        "How many poles and how many finite zeros does the transfer "
        "function shown have?",
        visual,
        ["2 poles, 1 zero", "1 pole, 2 zeros", "2 poles, 0 zeros",
         "3 poles, 1 zero"],
        0,
        difficulty=0.4,
        topics=("transfer functions",),
        answer_kind=AnswerKind.TEXT,
        aliases=("two poles and one zero",),
    )


def _q_dnl() -> Question:
    levels = [0.0, 1.0, 2.5, 3.0, 4.0]
    dnl = dataconv.dnl_from_levels(levels)
    worst = max(abs(d) for d in dnl)
    gold = f"{worst:.1f} LSB"
    scene = table_scene(
        [["CODE", "LEVEL (V)"]] + [[str(i), f"{v:.1f}"]
                                   for i, v in enumerate(levels)])
    visual = _visual(VisualType.TABLE, "Measured converter transition levels",
                     scene)
    return _mc(
        43,
        "The table shows measured transition levels of a converter whose "
        "ideal step is 1 V. What is the worst-case |DNL| in LSB?",
        visual,
        [gold, "0.1 LSB", "1.0 LSB", "0.25 LSB"],
        0,
        difficulty=0.65,
        topics=("adc", "dnl"),
        unit="LSB",
        aliases=(f"{worst:.2f}",),
    )


def _q_symbolic_dc_gain() -> Question:
    tf = TransferFunction.from_poles_zeros(100.0, [1e3])
    gain_db = tf.dc_gain_db()
    gold = f"{gain_db:.0f} dB"
    scene = equation_scene(["H(S) = 100 / (1 + S/1000)"])
    visual = _visual(VisualType.EQUATION, "First-order transfer function",
                     scene)
    return _mc(
        44,
        "What is the DC gain, in dB, of the transfer function shown?",
        visual,
        [gold, "100 dB", "20 dB", "60 dB"],
        0,
        difficulty=0.35,
        topics=("transfer functions", "bode"),
        unit="dB",
        aliases=("100 V/V", f"{gain_db:.1f} dB"),
    )


_BUILDERS = [
    _q_ladder_voltage, _q_ladder_current, _q_equivalent_resistance,
    _q_divider, _q_power, _q_inverting, _q_noninverting, _q_finite_gain,
    _q_summing, _q_inamp, _q_cs_gain, _q_cs_degenerated, _q_follower,
    _q_common_gate, _q_cascode_rout, _q_ota_gain, _q_diff_gain, _q_cmrr,
    _q_vov, _q_gm, _q_region, _q_flash_comparators, _q_sar_cycles,
    _q_sar_msb, _q_pipeline_residue, _q_pipeline_gain, _q_lsb,
    _q_relaxation, _q_diode_connected, _q_degenerated_rout, _q_wheatstone,
    _q_rc_corner, _q_bode_gbw, _q_phase_margin, _q_bode_slope,
    _q_step_response, _q_topology, _q_loop_gain, _q_bandwidth_extension,
    _q_gain_error, _q_sqnr, _q_pole_count, _q_dnl, _q_symbolic_dc_gain,
]


#: Worked solutions, interpolating the computed gold as ``{gold}``.
_EXPLANATIONS = {
    "ana-01": "Fold the ladder: R4||RL = 1.137k, add R3 (3.337k), "
              "parallel with R2 (1.327k); the divider from 5 V through R1 "
              "puts 2.852 V at n1, and the inner divider leaves {gold} "
              "across RL.",
    "ana-02": "With 0.97 V across the 4.7 kOhm load, Ohms law gives "
              "I = V/R = {gold}.",
    "ana-03": "R1 + R2 = 3 kOhm in parallel with 6 kOhm: "
              "(3x6)/(3+6) = {gold}.",
    "ana-04": "Vout = 12 x R2/(R1 + R2) = 12 x 3300/10100 = {gold}.",
    "ana-05": "The series current is 10/500 = 20 mA, so "
              "P = I^2 R2 = 0.02^2 x 400 = {gold}.",
    "ana-06": "Virtual ground fixes the input current at VIN/RIN, all of "
              "which flows through RF: gain = -RF/RIN = {gold}.",
    "ana-07": "Non-inverting gain is 1 + RF/RG = 1 + 9 = {gold}.",
    "ana-08": "Loop gain is A*beta = 1000/11; the ideal -10 shrinks by "
              "1/(1 + 11/1000), giving {gold}.",
    "ana-09": "VOUT = -RF (V1/R1 + V2/R2) = -20k (0.1m + 0.1m) = {gold}.",
    "ana-10": "Gain = (1 + 2R1/RG)(R3/R2) = (1 + 20) x 1 = {gold}.",
    "ana-11": "A = -gm (RD || ro) = -2m x (10k || 50k) = -2m x 8.33k "
              "= {gold}.",
    "ana-12": "Degeneration divides the gain by 1 + gm RS = 2: "
              "-20/2 = {gold}.",
    "ana-13": "A = gm RS / (1 + gm RS) = 10/11 = {gold}.",
    "ana-14": "Common gate is non-inverting with A = gm RD = 4m x 5k "
              "= {gold}.",
    "ana-15": "Rout = gm2 ro2 ro1 + ro2 + ro1 = 2m x 50k x 50k + 100k "
              "= {gold}.",
    "ana-16": "A = gm (ron || rop) = 1m x 50k = {gold}.",
    "ana-17": "Differential gain magnitude is gm RD = 3m x 4k = {gold}.",
    "ana-18": "CMRR = 2 gm Rtail = 2 x 2m x 100k = 400 = 52 dB.",
    "ana-19": "Id = k Vov^2 / 2 gives Vov = sqrt(2Id/k) = sqrt(1) "
              "= {gold}.",
    "ana-20": "gm = 2 Id / Vov = 2 x 1 mA / 1 V = {gold}.",
    "ana-21": "Vov = 1.1 - 0.6 = 0.5 V exceeds VDS = 0.3 V, so the "
              "channel is not pinched off: triode.",
    "ana-22": "A flash converter needs 2^N - 1 comparators: 2^6 - 1 "
              "= {gold}.",
    "ana-23": "SAR resolves one bit per cycle, so 10 bits take {gold} "
              "cycles.",
    "ana-24": "VIN = 1.8 V exceeds the VREF/2 = 1.6 V trial, so the MSB "
              "is kept at 1.",
    "ana-25": "The comparator trips (0.7 > 0.5), so residue = 2 x 0.7 - "
              "1.0 = {gold}.",
    "ana-26": "A B-bit non-redundant stage amplifies its residue by 2^B "
              "= {gold}.",
    "ana-27": "LSB = VREF / 2^N = 2.048 / 1024 = {gold}.",
    "ana-28": "T = 2RC ln((1+b)/(1-b)) = 2 x 10k x 10n x ln 3 = {gold}.",
    "ana-29": "A diode-connected device looks like 1/gm = 1/4 mS "
              "= {gold}.",
    "ana-30": "Rout = ro(1 + gm RS) + RS = 50k x 3 + 1k = {gold}.",
    "ana-31": "Balance requires R1/R2 = R3/RX, so RX = R3 R2 / R1 "
              "= 3k x 2k / 1k = {gold}.",
    "ana-32": "fc = 1/(2 pi RC) = 1/(2 pi x 1k x 159n) = {gold}.",
    "ana-33": "GBW = A0 x fp = 10^4 x 100 Hz = {gold}; a single pole "
              "rolls off at -20 dB/dec until unity.",
    "ana-34": "Unity gain lands near 10 Mrad/s where the second pole "
              "contributes ~45 degrees: PM = 180 - 90 - 45 ~ {gold}.",
    "ana-35": "One pole above its corner contributes -20 dB per decade "
              "until the next corner doubles the slope.",
    "ana-36": "Overshoot and ringing require complex poles, i.e. an "
              "underdamped closed loop with modest phase margin.",
    "ana-37": "Sensing the output voltage is shunt sampling at the "
              "output, series mixing at the input: series-shunt, which "
              "raises input impedance.",
    "ana-38": "A/(1 + A beta) = 1000/101 = {gold}.",
    "ana-39": "Closed-loop bandwidth stretches by 1 + A beta = 11: "
              "10 kHz x 11 = {gold}.",
    "ana-40": "Error = 1/(1 + A beta) = 1/11 = 9.1% short of the ideal "
              "100.",
    "ana-41": "SNR = 6.02 x 12 + 1.76 = {gold}.",
    "ana-42": "The denominator is second order and the numerator first "
              "order: two poles and one finite zero.",
    "ana-43": "The widest step is 1.5 V against a 1 V ideal: "
              "DNL = +0.5 LSB, which is also the worst magnitude.",
    "ana-44": "H(0) = 100, and 20 log10(100) = {gold}.",
}


def generate_analog_questions() -> List[Question]:
    """All 44 Analog Design questions, in stable order."""
    import dataclasses

    questions = [builder() for builder in _BUILDERS]
    if len(questions) != 44:
        raise AssertionError(f"expected 44 analog questions, got {len(questions)}")
    questions = [
        dataclasses.replace(
            q, explanation=_EXPLANATIONS[q.qid].replace("{gold}",
                                                        q.gold_text))
        for q in questions
    ]
    return questions

