"""Architecture substrate: pipeline timing, caches, coherence, branch
prediction, virtual memory, NoC topologies, vector machines, out-of-order
execution, and the 20 Architecture ChipVQA questions built on them."""

from repro.arch import (
    branch,
    cache,
    coherence,
    ooo,
    pipeline,
    topology,
    vector,
    vm,
)
from repro.arch.questions import generate_architecture_questions

__all__ = [
    "branch",
    "cache",
    "coherence",
    "ooo",
    "pipeline",
    "topology",
    "vector",
    "vm",
    "generate_architecture_questions",
]
