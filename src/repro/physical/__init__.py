"""Physical Design substrate: geometry, Steiner/maze routing, clock trees,
placement legalisation, static timing, floorplanning, DRC, and the 23
Physical Design ChipVQA questions built on them."""

from repro.physical import (
    cts,
    drc,
    floorplan,
    geometry,
    maze,
    placement,
    sta,
    steiner,
)
from repro.physical.questions import generate_physical_questions

__all__ = [
    "cts",
    "drc",
    "floorplan",
    "geometry",
    "maze",
    "placement",
    "sta",
    "steiner",
    "generate_physical_questions",
]
