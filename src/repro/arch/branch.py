"""Branch prediction: a 2-bit saturating-counter predictor.

Predictors consume a sequence of branch outcomes (optionally with PCs) and
report accuracy — the quantity exam questions about loop branches and
predictor warm-up ask for.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class TwoBitPredictor:
    """2-bit saturating counter per PC entry.

    Counter values 0-3; predict taken for 2 and 3.  Starts at ``initial``
    (default 1 = weakly not-taken, the usual exam convention).
    """

    def __init__(self, initial: int = 1):
        if not 0 <= initial <= 3:
            raise ValueError("counter must be in 0..3")
        self._table: Dict[int, int] = {}
        self._initial = initial

    def counter(self, pc: int = 0) -> int:
        return self._table.get(pc, self._initial)

    def predict(self, pc: int = 0) -> bool:
        return self.counter(pc) >= 2

    def update(self, pc: int, taken: bool) -> None:
        value = self.counter(pc)
        value = min(3, value + 1) if taken else max(0, value - 1)
        self._table[pc] = value


def run_predictor(predictor, outcomes: Sequence[bool],
                  pc: int = 0) -> Tuple[int, List[bool]]:
    """Feed outcomes for a single branch; returns (correct count, per-step)."""
    correct_flags: List[bool] = []
    for taken in outcomes:
        prediction = predictor.predict(pc)
        correct_flags.append(prediction == taken)
        predictor.update(pc, taken)
    return sum(correct_flags), correct_flags


def loop_branch_outcomes(iterations: int, trips: int = 1) -> List[bool]:
    """Outcome stream of a backward loop branch: taken (n-1) times then
    not-taken, repeated ``trips`` times."""
    if iterations < 1 or trips < 1:
        raise ValueError("iterations and trips must be >= 1")
    single = [True] * (iterations - 1) + [False]
    return single * trips


def accuracy(predictor, outcomes: Sequence[bool], pc: int = 0) -> float:
    """Prediction accuracy of ``predictor`` over an outcome stream."""
    correct, _ = run_predictor(predictor, outcomes, pc)
    return correct / len(outcomes) if outcomes else 0.0


def mispredict_penalty_cpi(base_cpi: float, branch_fraction: float,
                           mispredict_rate: float, penalty: int) -> float:
    """CPI including branch mispredict bubbles."""
    if not 0 <= branch_fraction <= 1 or not 0 <= mispredict_rate <= 1:
        raise ValueError("fractions must be probabilities")
    return base_cpi + branch_fraction * mispredict_rate * penalty
