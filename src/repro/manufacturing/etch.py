"""Etch-process models: rates, selectivity, over-etch timing, undercut.

Implements the arithmetic of the paper's worked Manufacturing example:
"Assume 5:1 BOE etches SiO2 isotropically at 100 nm/min, RIE etches SiO2
at 200 nm/min with SiO2:Si selectivity 15:1 ... how long should this wafer
be placed in 5:1 BOE etchant to record a 10% over-etch?"
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EtchProcess:
    """An etch chemistry acting on a primary film."""

    name: str
    rate_nm_per_min: float          # vertical etch rate of the target film
    selectivity_to_substrate: float = float("inf")  # target : substrate
    isotropic: bool = False

    def __post_init__(self) -> None:
        if self.rate_nm_per_min <= 0:
            raise ValueError("etch rate must be positive")
        if self.selectivity_to_substrate <= 0:
            raise ValueError("selectivity must be positive")


BOE_5_TO_1 = EtchProcess("5:1 BOE", 100.0, isotropic=True)
RIE_OXIDE = EtchProcess("RIE", 200.0, selectivity_to_substrate=15.0)


def etch_time_minutes(thickness_nm: float, process: EtchProcess,
                      over_etch_fraction: float = 0.0) -> float:
    """Time to clear a film with a specified fractional over-etch.

    A 10% over-etch etches for 1.1x the just-clear time — the paper's BOE
    question is ``etch_time_minutes(t_ox, BOE_5_TO_1, 0.10)``.
    """
    if thickness_nm <= 0:
        raise ValueError("thickness must be positive")
    if over_etch_fraction < 0:
        raise ValueError("over-etch must be non-negative")
    return thickness_nm * (1.0 + over_etch_fraction) / process.rate_nm_per_min


def substrate_loss_nm(over_etch_time_min: float,
                      process: EtchProcess) -> float:
    """Substrate removed during over-etch, via the selectivity ratio."""
    if over_etch_time_min < 0:
        raise ValueError("time must be non-negative")
    substrate_rate = process.rate_nm_per_min / process.selectivity_to_substrate
    return substrate_rate * over_etch_time_min


def undercut_nm(etch_time_min: float, process: EtchProcess) -> float:
    """Lateral undercut under the mask: equals depth for isotropic etches,
    zero for perfectly anisotropic ones."""
    if etch_time_min < 0:
        raise ValueError("time must be non-negative")
    if not process.isotropic:
        return 0.0
    return process.rate_nm_per_min * etch_time_min


def opening_width_after_etch(mask_opening_nm: float, etch_time_min: float,
                             process: EtchProcess) -> float:
    """Final top width of an opening: mask opening + 2x undercut."""
    if mask_opening_nm <= 0:
        raise ValueError("opening must be positive")
    return mask_opening_nm + 2.0 * undercut_nm(etch_time_min, process)
