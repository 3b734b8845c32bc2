"""Data converters: flash / SAR / pipeline ADC behaviour.

Implements the converter arithmetic the Analog questions exercise —
comparator counts, SAR bit decisions, pipeline residue transfer, LSB size,
quantisation SNR — plus small behavioural models usable in examples.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def lsb_size(v_ref: float, bits: int) -> float:
    """One LSB of an N-bit converter with full scale ``v_ref``."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return v_ref / (2 ** bits)


def flash_comparator_count(bits: int) -> int:
    """A flash ADC needs 2^N - 1 comparators."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return 2 ** bits - 1


def sar_conversion_steps(v_in: float, v_ref: float,
                         bits: int) -> List[Tuple[int, float, bool]]:
    """The SAR binary search: list of (bit index, trial DAC voltage, kept).

    Bit index counts from the MSB (index ``bits - 1``) down to 0.
    """
    if not 0 <= v_in <= v_ref:
        raise ValueError("v_in out of range")
    steps: List[Tuple[int, float, bool]] = []
    code = 0
    for bit in range(bits - 1, -1, -1):
        trial = code | (1 << bit)
        dac = trial * v_ref / (2 ** bits)
        keep = v_in >= dac
        if keep:
            code = trial
        steps.append((bit, dac, keep))
    return steps


def sar_cycles(bits: int) -> int:
    """A SAR ADC resolves one bit per clock: N cycles."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return bits


def pipeline_residue(v_in: float, v_ref: float, stage_bits: int = 1) -> float:
    """Residue of a multiplying-DAC pipeline stage (non-redundant).

    For a 1-bit stage: residue = 2 v_in - d * v_ref with d in {0, 1}
    (comparator at v_ref / 2).  Generalises to ``stage_bits`` by scaling
    2^stage_bits and subtracting the sub-DAC output.
    """
    if not 0 <= v_in <= v_ref:
        raise ValueError("v_in out of range")
    gain = 2 ** stage_bits
    code = min(int(v_in / v_ref * gain), gain - 1)
    return gain * v_in - code * v_ref


def pipeline_stage_gain(stage_bits: int) -> int:
    """Interstage residue amplifier gain: 2^stage_bits."""
    if stage_bits < 1:
        raise ValueError("stage_bits must be >= 1")
    return 2 ** stage_bits


def ideal_sqnr_db(bits: int) -> float:
    """Quantisation-limited SNR of an ideal N-bit ADC: 6.02 N + 1.76 dB."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    return 6.02 * bits + 1.76


def dnl_from_levels(levels: Sequence[float]) -> List[float]:
    """Differential nonlinearity (in LSB) from measured transition levels."""
    if len(levels) < 3:
        raise ValueError("need at least three levels")
    steps = [b - a for a, b in zip(levels, levels[1:])]
    ideal = (levels[-1] - levels[0]) / (len(levels) - 1)
    if ideal <= 0:
        raise ValueError("levels must be increasing")
    return [step / ideal - 1.0 for step in steps]
