"""MOSFET operating points and small-signal stage analysis.

Square-law long-channel MOS model — the model graduate analog courses (and
hence the benchmark questions) assume.  Provides operating-point solving for
simple bias arrangements and the classic single-stage gain/impedance
formulas, each cross-checkable against the MNA solver via
:func:`common_source_gain_mna`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.analog.netlist import Circuit, parallel


@dataclass(frozen=True)
class MosParams:
    """Square-law device parameters: i_d = 0.5 k (v_gs - v_th)^2 (1 + lam v_ds)."""

    k: float           # transconductance parameter, A/V^2 (= mu Cox W/L)
    v_th: float        # threshold voltage, V
    lam: float = 0.0   # channel-length modulation, 1/V

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")


@dataclass(frozen=True)
class OperatingPoint:
    """Bias point of a MOSFET in saturation."""

    i_d: float
    v_gs: float
    v_ov: float
    gm: float
    ro: float  # infinite when lambda == 0

    @property
    def intrinsic_gain(self) -> float:
        return self.gm * self.ro


def in_saturation(params: MosParams, v_gs: float, v_ds: float) -> bool:
    """Saturation check: v_ds >= v_gs - v_th > 0."""
    v_ov = v_gs - params.v_th
    return v_ov > 0 and v_ds >= v_ov


def bias_from_current(params: MosParams, i_d: float) -> OperatingPoint:
    """Operating point of a saturated device carrying ``i_d``."""
    if i_d <= 0:
        raise ValueError("drain current must be positive")
    v_ov = math.sqrt(2.0 * i_d / params.k)
    gm = params.k * v_ov  # = sqrt(2 k Id) = 2 Id / Vov
    ro = float("inf") if params.lam == 0 else 1.0 / (params.lam * i_d)
    return OperatingPoint(i_d=i_d, v_gs=v_ov + params.v_th, v_ov=v_ov,
                          gm=gm, ro=ro)


# -- single-stage gain formulas --------------------------------------------------

def common_source_gain(gm: float, r_load: float,
                       ro: float = float("inf")) -> float:
    """A_v = -gm (R_D || r_o)."""
    r_out = r_load if math.isinf(ro) else parallel(r_load, ro)
    return -gm * r_out


def common_source_degenerated_gain(gm: float, r_load: float,
                                   r_source: float) -> float:
    """A_v = -gm R_D / (1 + gm R_S), neglecting r_o."""
    return -gm * r_load / (1.0 + gm * r_source)


def common_drain_gain(gm: float, r_load: float) -> float:
    """Source-follower gain gm R / (1 + gm R) < 1."""
    return gm * r_load / (1.0 + gm * r_load)


def common_gate_gain(gm: float, r_load: float) -> float:
    """Non-inverting common-gate gain +gm R_D (ideal source drive)."""
    return gm * r_load


def source_follower_rout(gm: float) -> float:
    """Output resistance looking into the source: 1/gm."""
    if gm <= 0:
        raise ValueError("gm must be positive")
    return 1.0 / gm


def degenerated_rout(gm: float, ro: float, r_source: float) -> float:
    """Looking into the drain with source degeneration:
    r_o (1 + gm R_S) + R_S."""
    return ro * (1.0 + gm * r_source) + r_source


def diff_pair_gain(gm: float, r_load: float) -> float:
    """Differential gain of a resistively loaded pair: gm R_D."""
    return gm * r_load


def diff_pair_cmrr(gm: float, r_load: float, r_tail: float) -> float:
    """CMRR = A_dm / A_cm = gm R_D / (R_D / (2 R_tail)) = 2 gm R_tail
    (textbook single-ended approximation)."""
    a_dm = gm * r_load
    a_cm = r_load / (2.0 * r_tail) if r_tail > 0 else float("inf")
    return a_dm / a_cm if a_cm else float("inf")


def cascode_output_resistance(gm2: float, ro2: float, ro1: float) -> float:
    """R_out of a cascode: gm2 ro2 ro1 (+ ro2 + ro1, usually dropped)."""
    return gm2 * ro2 * ro1 + ro2 + ro1


# -- MNA cross-check --------------------------------------------------------------

def common_source_gain_mna(gm: float, r_load: float,
                           ro: Optional[float] = None) -> float:
    """Common-source small-signal gain computed by the MNA engine.

    Builds the small-signal equivalent (VCCS + load, optional r_o) and
    measures v_out for v_in = 1 V.  Used in tests to validate the closed
    forms above against the generic solver.
    """
    circuit = Circuit()
    circuit.vsource("vin", "in", 0, 1.0)
    circuit.vccs("m1", "out", 0, "in", 0, gm)
    circuit.resistor("rd", "out", 0, r_load)
    if ro is not None:
        circuit.resistor("ro", "out", 0, ro)
    return circuit.solve().voltage("out")


def source_follower_gain_mna(gm: float, r_load: float) -> float:
    """Source-follower gain via MNA: VCCS controlled by (in - out)."""
    circuit = Circuit()
    circuit.vsource("vin", "in", 0, 1.0)
    circuit.vccs("m1", 0, "out", "in", "out", gm)
    circuit.resistor("rs", "out", 0, r_load)
    return circuit.solve().voltage("out")


def five_transistor_ota_gain(gm: float, ro_n: float, ro_p: float) -> float:
    """Gain of the 5T OTA: gm (ro_n || ro_p)."""
    return gm * parallel(ro_n, ro_p)
