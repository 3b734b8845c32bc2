"""Dopant diffusion and oxidation: Gaussian profiles, Deal-Grove."""

from __future__ import annotations

import math


def diffusion_length_um(d_cm2_s: float, time_s: float) -> float:
    """Characteristic length 2 sqrt(D t), in microns."""
    if d_cm2_s < 0 or time_s < 0:
        raise ValueError("bad parameters")
    return 2.0 * math.sqrt(d_cm2_s * time_s) * 1e4


def gaussian_profile(dose_cm2: float, d_cm2_s: float, time_s: float,
                     depth_cm: float) -> float:
    """Drive-in (limited source) profile: N(x) = Q/sqrt(pi D t) *
    exp(-x^2 / 4Dt), cm^-3."""
    if dose_cm2 <= 0 or d_cm2_s <= 0 or time_s <= 0:
        raise ValueError("bad parameters")
    dt = d_cm2_s * time_s
    return dose_cm2 / math.sqrt(math.pi * dt) * math.exp(
        -depth_cm * depth_cm / (4.0 * dt))


def junction_depth_gaussian(dose_cm2: float, d_cm2_s: float, time_s: float,
                            background_cm3: float) -> float:
    """Depth (cm) where a Gaussian profile crosses the background doping."""
    peak = gaussian_profile(dose_cm2, d_cm2_s, time_s, 0.0)
    if background_cm3 >= peak:
        raise ValueError("background exceeds surface concentration")
    dt = d_cm2_s * time_s
    return math.sqrt(4.0 * dt * math.log(peak / background_cm3))


def deal_grove_thickness_um(a_um: float, b_um2_hr: float, hours: float,
                            initial_um: float = 0.0) -> float:
    """Oxide grown by the Deal-Grove model: x^2 + A x = B (t + tau)."""
    if hours < 0 or a_um < 0 or b_um2_hr <= 0:
        raise ValueError("bad parameters")
    tau = (initial_um * initial_um + a_um * initial_um) / b_um2_hr
    total = b_um2_hr * (hours + tau)
    return (-a_um + math.sqrt(a_um * a_um + 4.0 * total)) / 2.0


def oxide_silicon_consumed_um(oxide_grown_um: float) -> float:
    """Silicon consumed is ~44% of the grown oxide thickness."""
    if oxide_grown_um < 0:
        raise ValueError("thickness must be non-negative")
    return 0.44 * oxide_grown_um


def squares_in_wire(length_um: float, width_um: float) -> float:
    """Number of squares in a straight wire segment."""
    if length_um < 0 or width_um <= 0:
        raise ValueError("bad dimensions")
    return length_um / width_um


def wire_resistance(sheet_ohm_sq: float, length_um: float,
                    width_um: float) -> float:
    """End-to-end resistance: sheet resistance times squares."""
    return sheet_ohm_sq * squares_in_wire(length_um, width_um)
