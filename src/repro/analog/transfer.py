"""Rational transfer functions: poles, zeros, Bode magnitude/phase.

:class:`TransferFunction` represents H(s) = K * prod(s/z_i + 1)... in
coefficient form (numerator / denominator polynomials in s), with helpers to
construct from pole/zero lists, evaluate on the jw axis, and extract the
quantities ChipVQA's analog questions ask about: DC gain, corner
frequencies, unity-gain frequency and phase margin.

Angular frequencies are in rad/s throughout; helpers that speak Hz say so.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TransferFunction:
    """H(s) = num(s) / den(s), coefficients highest power first."""

    num: Tuple[float, ...]
    den: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.num or not self.den:
            raise ValueError("empty polynomial")
        if all(c == 0 for c in self.den):
            raise ValueError("zero denominator")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_poles_zeros(
        cls,
        gain: float,
        poles: Sequence[float],
        zeros: Sequence[float] = (),
    ) -> "TransferFunction":
        """Build H(s) = gain * prod(1 + s/z) / prod(1 + s/p).

        ``poles`` and ``zeros`` are (positive) corner angular frequencies of
        left-half-plane singularities, the convention of Bode asymptote
        analysis.  DC gain equals ``gain``.
        """
        num = np.array([1.0])
        for zero in zeros:
            if zero <= 0:
                raise ValueError("corner frequencies must be positive")
            num = np.polymul(num, np.array([1.0 / zero, 1.0]))
        den = np.array([1.0])
        for pole in poles:
            if pole <= 0:
                raise ValueError("corner frequencies must be positive")
            den = np.polymul(den, np.array([1.0 / pole, 1.0]))
        num = num * gain
        return cls(tuple(float(c) for c in num), tuple(float(c) for c in den))

    @classmethod
    def integrator(cls, unity_gain_w: float) -> "TransferFunction":
        """H(s) = unity_gain_w / s."""
        return cls((unity_gain_w,), (1.0, 0.0))

    # -- evaluation -----------------------------------------------------------

    def at(self, s: complex) -> complex:
        num = _polyval(self.num, s)
        den = _polyval(self.den, s)
        if den == 0:
            raise ZeroDivisionError(f"pole exactly at s={s}")
        return num / den

    def at_jw(self, w: float) -> complex:
        return self.at(complex(0.0, w))

    def magnitude_db(self, w: float) -> float:
        return 20.0 * math.log10(abs(self.at_jw(w)))

    def phase_deg(self, w: float) -> float:
        """Unwrapped phase in degrees, tracked from DC to ``w``."""
        if w <= 0:
            raise ValueError("w must be positive")
        # sweep in log steps from well below the lowest feature to w
        points = np.logspace(math.log10(w) - 9, math.log10(w), 400)
        raw = np.array([cmath.phase(self.at_jw(float(p))) for p in points])
        unwrapped = np.unwrap(raw)
        return float(math.degrees(unwrapped[-1]))

    def dc_gain(self) -> float:
        """H(0); raises if there is a pole at the origin."""
        return abs(self.at(0.0)) if self.den[-1] != 0 else float("inf")

    def dc_gain_db(self) -> float:
        gain = self.dc_gain()
        if gain in (0.0, float("inf")):
            raise ValueError("DC gain not finite")
        return 20.0 * math.log10(gain)

    # -- poles / zeros --------------------------------------------------------

    def poles(self) -> List[complex]:
        return [complex(r) for r in np.roots(self.den)]

    def zeros(self) -> List[complex]:
        if len(self.num) < 2:
            return []
        return [complex(r) for r in np.roots(self.num)]

    def pole_frequencies(self) -> List[float]:
        """Magnitudes of the poles (rad/s), ascending."""
        return sorted(abs(p) for p in self.poles())

    # -- loop metrics ------------------------------------------------------------

    def unity_gain_frequency(self) -> float:
        """The w (rad/s) where |H(jw)| crosses 1, found by bisection."""
        low, high = 1e-3, 1e15
        if abs(self.at_jw(low)) < 1.0:
            raise ValueError("gain below unity at the low end")
        if abs(self.at_jw(high)) > 1.0:
            raise ValueError("gain above unity at the high end")
        for _ in range(200):
            mid = math.sqrt(low * high)
            if abs(self.at_jw(mid)) > 1.0:
                low = mid
            else:
                high = mid
        return math.sqrt(low * high)

    def phase_margin_deg(self) -> float:
        """Phase margin = 180 + phase at the unity-gain frequency."""
        w_u = self.unity_gain_frequency()
        return 180.0 + self.phase_deg(w_u)

    def gain_at_db(self, w: float) -> float:
        return self.magnitude_db(w)

    def cascade(self, other: "TransferFunction") -> "TransferFunction":
        return TransferFunction(
            tuple(np.polymul(self.num, other.num).tolist()),
            tuple(np.polymul(self.den, other.den).tolist()),
        )

    def closed_loop(self, feedback_factor: float) -> "TransferFunction":
        """Negative-feedback closed loop: H / (1 + beta * H)."""
        beta_num = np.polymul(self.num, [feedback_factor])
        den = np.polyadd(
            np.polymul(self.den, [1.0]), beta_num
        )
        return TransferFunction(tuple(self.num), tuple(float(c) for c in den))


def _polyval(coeffs: Sequence[float], s: complex) -> complex:
    result: complex = 0.0
    for c in coeffs:
        result = result * s + c
    return result


# -- textbook formulas used by the question generators -----------------------------

def rc_lowpass_corner_hz(r_ohms: float, c_farads: float) -> float:
    """f_c = 1 / (2 pi R C)."""
    if r_ohms <= 0 or c_farads <= 0:
        raise ValueError("R and C must be positive")
    return 1.0 / (2.0 * math.pi * r_ohms * c_farads)


def gbw_from_dc_gain(dc_gain: float, pole_hz: float) -> float:
    """Gain-bandwidth product of a single-pole amplifier, in Hz."""
    return dc_gain * pole_hz
