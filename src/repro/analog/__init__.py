"""Analog Design substrate: MNA circuit solver, small-signal stage analysis,
transfer functions / Bode metrics, feedback theory, data converters, and the
44 Analog ChipVQA questions built on them."""

from repro.analog import (
    dataconv,
    feedback,
    netlist,
    smallsignal,
    transfer,
)
from repro.analog.questions import generate_analog_questions

__all__ = [
    "dataconv",
    "feedback",
    "netlist",
    "smallsignal",
    "transfer",
    "generate_analog_questions",
]
