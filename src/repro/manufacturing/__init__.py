"""Semiconductor manufacturing substrate: lithography, etch, diffusion,
yield and defect models, and the 20 Manufacturing ChipVQA questions built
on them."""

from repro.manufacturing import (
    defects,
    diffusion,
    etch,
    lithography,
    yieldmodel,
)
from repro.manufacturing.questions import generate_manufacturing_questions

__all__ = [
    "defects",
    "diffusion",
    "etch",
    "lithography",
    "yieldmodel",
    "generate_manufacturing_questions",
]
