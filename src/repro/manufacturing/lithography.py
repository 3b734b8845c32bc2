"""Optical lithography: resolution, depth of focus, RET identification.

Implements the Rayleigh scaling relations and the resolution-enhancement
technique (RET) vocabulary — OPC, sub-resolution assist features, phase
shift masks, off-axis illumination — behind the paper's Manufacturing
sample question ("What is the lithography resolution enhancement technique
depicted in the figure?").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


def rayleigh_resolution(k1: float, wavelength_nm: float, na: float) -> float:
    """Minimum half-pitch: R = k1 * lambda / NA (nm)."""
    if k1 <= 0 or wavelength_nm <= 0 or na <= 0:
        raise ValueError("all parameters must be positive")
    return k1 * wavelength_nm / na


def depth_of_focus(k2: float, wavelength_nm: float, na: float) -> float:
    """DOF = k2 * lambda / NA^2 (nm)."""
    if k2 <= 0 or wavelength_nm <= 0 or na <= 0:
        raise ValueError("all parameters must be positive")
    return k2 * wavelength_nm / (na * na)


def k1_from_pitch(half_pitch_nm: float, wavelength_nm: float,
                  na: float) -> float:
    """The k1 factor implied by printing a given half-pitch."""
    if half_pitch_nm <= 0:
        raise ValueError("half pitch must be positive")
    return half_pitch_nm * na / wavelength_nm


K1_PHYSICAL_LIMIT = 0.25  # single-exposure coherent imaging limit


def requires_double_patterning(half_pitch_nm: float, wavelength_nm: float,
                               na: float) -> bool:
    """True when the implied k1 falls below the single-exposure limit."""
    return k1_from_pitch(half_pitch_nm, wavelength_nm, na) < K1_PHYSICAL_LIMIT


class Ret(enum.Enum):
    """Resolution enhancement techniques."""

    OPC = "optical proximity correction"
    SRAF = "sub-resolution assist features"
    PSM = "phase shift mask"
    OAI = "off-axis illumination"
    DOUBLE_PATTERNING = "double patterning"


@dataclass(frozen=True)
class MaskFeatures:
    """Structural description of a mask figure, for RET identification."""

    has_edge_jogs: bool = False          # serifs / hammerheads on corners
    has_isolated_scatter_bars: bool = False
    has_phase_regions: bool = False
    split_into_two_masks: bool = False


def identify_ret(features: MaskFeatures) -> Ret:
    """Which RET a mask figure depicts, by its structural signature."""
    if features.split_into_two_masks:
        return Ret.DOUBLE_PATTERNING
    if features.has_phase_regions:
        return Ret.PSM
    if features.has_isolated_scatter_bars:
        return Ret.SRAF
    if features.has_edge_jogs:
        return Ret.OPC
    return Ret.OAI


def mask_error_enhancement_factor(cd_wafer_delta: float,
                                  cd_mask_delta: float,
                                  magnification: float = 4.0) -> float:
    """MEEF = (d CD_wafer / d CD_mask) * M."""
    if cd_mask_delta == 0:
        raise ValueError("mask CD delta must be non-zero")
    return (cd_wafer_delta / cd_mask_delta) * magnification
