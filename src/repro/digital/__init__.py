"""Digital Design substrate: boolean algebra, logic networks, sequential
machines, arithmetic and the 35 Digital ChipVQA questions built on them."""

from repro.digital import arithmetic, expr, gates, kmap, sequential, verilog
from repro.digital.questions import generate_digital_questions

__all__ = [
    "arithmetic",
    "expr",
    "gates",
    "kmap",
    "sequential",
    "verilog",
    "generate_digital_questions",
]
