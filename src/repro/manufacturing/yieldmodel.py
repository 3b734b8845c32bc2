"""Yield models and wafer arithmetic: Poisson / Murphy yield, dies per wafer."""

from __future__ import annotations

import math


def poisson_yield(defect_density_cm2: float, die_area_cm2: float) -> float:
    """Y = exp(-D A)."""
    if defect_density_cm2 < 0 or die_area_cm2 < 0:
        raise ValueError("bad parameters")
    return math.exp(-defect_density_cm2 * die_area_cm2)


def murphy_yield(defect_density_cm2: float, die_area_cm2: float) -> float:
    """Murphy's model: Y = ((1 - e^(-DA)) / DA)^2."""
    if defect_density_cm2 < 0 or die_area_cm2 < 0:
        raise ValueError("bad parameters")
    da = defect_density_cm2 * die_area_cm2
    if da < 1e-8:
        return 1.0  # Taylor limit; avoids catastrophic cancellation
    return ((1.0 - math.exp(-da)) / da) ** 2


def seeds_yield(defect_density_cm2: float, die_area_cm2: float) -> float:
    """Seeds' model: Y = 1 / (1 + DA)."""
    if defect_density_cm2 < 0 or die_area_cm2 < 0:
        raise ValueError("bad parameters")
    return 1.0 / (1.0 + defect_density_cm2 * die_area_cm2)


def dies_per_wafer(wafer_diameter_mm: float, die_w_mm: float,
                   die_h_mm: float) -> int:
    """Gross dies per wafer by the standard edge-corrected formula:
    pi r^2 / A - pi d / sqrt(2 A)."""
    if wafer_diameter_mm <= 0 or die_w_mm <= 0 or die_h_mm <= 0:
        raise ValueError("bad dimensions")
    area = die_w_mm * die_h_mm
    radius = wafer_diameter_mm / 2.0
    gross = (math.pi * radius * radius / area
             - math.pi * wafer_diameter_mm / math.sqrt(2.0 * area))
    return max(0, int(gross))


def good_dies(wafer_diameter_mm: float, die_w_mm: float, die_h_mm: float,
              defect_density_cm2: float, model: str = "poisson") -> int:
    """Expected good dies per wafer under a yield model."""
    gross = dies_per_wafer(wafer_diameter_mm, die_w_mm, die_h_mm)
    area_cm2 = die_w_mm * die_h_mm / 100.0
    models = {
        "poisson": poisson_yield,
        "murphy": murphy_yield,
        "seeds": seeds_yield,
    }
    try:
        yield_fn = models[model.lower()]
    except KeyError:
        raise ValueError(f"unknown yield model {model!r}") from None
    return int(gross * yield_fn(defect_density_cm2, area_cm2))


def cost_per_good_die(wafer_cost: float, wafer_diameter_mm: float,
                      die_w_mm: float, die_h_mm: float,
                      defect_density_cm2: float,
                      model: str = "poisson") -> float:
    """Wafer cost amortised over the expected good dies."""
    good = good_dies(wafer_diameter_mm, die_w_mm, die_h_mm,
                     defect_density_cm2, model)
    if good == 0:
        raise ValueError("no good dies at this defect density")
    return wafer_cost / good
