"""Answer normalisation: units, numbers, option letters, text canon.

The auto-judge compares a free-form model response against a gold answer;
before comparing, both sides are normalised: numbers are parsed with SI /
engineering unit prefixes, option letters are extracted from phrasings like
"B) ..." or "the answer is (b)", and text is case/punctuation-folded.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Tuple

_SI_PREFIXES = {
    "t": 1e12, "g": 1e9, "meg": 1e6, "m": 1e-3, "k": 1e3,
    "u": 1e-6, "µ": 1e-6, "n": 1e-9, "p": 1e-12, "f": 1e-15,
}

#: Base units (lower-case) recognised after an optional SI prefix.
_BASE_UNITS = {
    "v", "a", "w", "s", "hz", "ohm", "ohms", "f", "b", "bit", "bits",
    "byte", "bytes", "m", "db", "lsb", "cycles", "cycle", "ns", "us",
    "ms", "nm", "um", "mm", "percent", "%", "degrees", "deg", "min",
    "minutes", "seconds", "sec", "mib", "mb", "kib", "kb", "gib", "gb",
}

# time/length units that already embed a prefix; map to (scale, base)
_COMPOUND_UNITS = {
    "ns": (1e-9, "s"), "us": (1e-6, "s"), "ms": (1e-3, "s"),
    "nm": (1e-9, "m"), "um": (1e-6, "m"), "mm": (1e-3, "m"),
    "khz": (1e3, "hz"), "mhz": (1e6, "hz"), "ghz": (1e9, "hz"),
    "kohm": (1e3, "ohm"), "mohm": (1e6, "ohm"),
    "pf": (1e-12, "f"), "nf": (1e-9, "f"), "uf": (1e-6, "f"),
    "mv": (1e-3, "v"), "uv": (1e-6, "v"), "kv": (1e3, "v"),
    "ma": (1e-3, "a"), "ua": (1e-6, "a"), "na": (1e-9, "a"),
    "mw": (1e-3, "w"), "uw": (1e-6, "w"), "kw": (1e3, "w"),
    "kib": (2 ** 10, "b"), "mib": (2 ** 20, "b"), "gib": (2 ** 30, "b"),
    "kb": (1e3, "b"), "mb": (1e6, "b"), "gb": (1e9, "b"),
    "min": (60.0, "s"), "minutes": (60.0, "s"), "minute": (60.0, "s"),
    "sec": (1.0, "s"), "seconds": (1.0, "s"), "second": (1.0, "s"),
    "ms2": (1e-3, "s"),
}

#: :data:`_SI_PREFIXES` longest first, so "meg" is tried before "m";
#: prefixes of equal length keep the table's order.
_PREFIXES_BY_LENGTH = tuple(sorted(_SI_PREFIXES, key=len, reverse=True))

#: Spellings folded onto one base unit.
_BASE_ALIASES = {
    "ohms": "ohm", "bits": "b", "bit": "b", "bytes": "b", "byte": "b",
    "deg": "degrees", "cycles": "cycle",
}

_NUMBER_RE = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

#: The unit token that follows a number.
_UNIT_RE = re.compile(r"([a-zA-Zµ%/^0-9]+)")

_LETTER_PATTERNS = [
    re.compile(r"^\s*\(?([a-dA-D])\)?\s*[).:\-]?\s*$"),
    re.compile(r"^\s*\(?([a-dA-D])\)?\s*[).:\-]\s+\S"),
    re.compile(r"(?:answer|option|choice)\s*:?\s*(?:is\s+)?\(?([a-dA-D])\)?"
               r"(?![\w'])",
               re.IGNORECASE),
]


_LEADIN_RE = re.compile(
    r"^(?:the\s+answer\s+is|the\s+answer:|answer:|answer\s+is|it\s+is|"
    r"it's|this\s+is|result:?|approximately|about|roughly)\s+",
    re.IGNORECASE)


@lru_cache(maxsize=65536)
def normalize_text(text: str) -> str:
    """Case-fold, strip punctuation and collapse whitespace.

    Single quotes are preserved: they are boolean complements in this
    domain (``S'A`` and ``SA`` are different functions).

    Memoised: the judge normalises every response against the gold text
    plus each alias, and large sweeps repeat the same surface forms
    (choice letters, shared aliases, variant-derived golds) millions of
    times — the stage profiler showed this pure function dominating the
    ``eval`` stage's judge share.  The function is deterministic over an
    immutable input, so caching cannot change any verdict.
    """
    lowered = text.strip().lower()
    lowered = re.sub(r"[\"`*_]", "", lowered)
    lowered = re.sub(r"[.,;:!?]+(\s|$)", r"\1", lowered)
    lowered = re.sub(r"\s+", " ", lowered)
    return lowered.strip()


def strip_leadin(text: str) -> str:
    """Remove answer lead-ins ("the answer is ...", "approximately ...")."""
    previous = None
    stripped = text.strip()
    while previous != stripped:
        previous = stripped
        stripped = _LEADIN_RE.sub("", stripped).strip()
    return stripped


def _extends_phrase(char: str) -> bool:
    r"""Whether ``char`` joins onto an adjacent phrase: a word character
    or a dot.  For str patterns this is exactly the regex class
    ``[\w.]``; the empty string (either end of the text) does not."""
    return char.isalnum() or char in ("_", ".")


def contains_phrase(haystack: str, phrase: str) -> bool:
    r"""Whole-phrase containment with digit/dot-aware boundaries.

    Plain substring search wrongly matches "5 ns" inside "2.5 ns"; here
    the phrase must not be adjacent to a word character or a dot/digit on
    either side.  Every occurrence is tried, so "7 bits" is found in
    "0.7 bits or 7 bits".  The verdict is that of the regex
    ``(?<![\w.])<phrase>(?![\w.])``, found with ``str.find`` so that
    no pattern is compiled per phrase.
    """
    if not phrase:
        return False
    size = len(phrase)
    start = haystack.find(phrase)
    while start >= 0:
        if not (_extends_phrase(haystack[start - 1:start])
                or _extends_phrase(haystack[start + size:start + size + 1])):
            return True
        start = haystack.find(phrase, start + 1)
    return False


def extract_option_letter(text: str) -> Optional[str]:
    """The MC option letter a response designates, or ``None``."""
    stripped = text.strip()
    for pattern in _LETTER_PATTERNS:
        match = pattern.search(stripped)
        if match:
            return match.group(1).upper()
    return None


def parse_number_with_unit(text: str) -> Optional[Tuple[float, str]]:
    """Parse a value like ``4.7 kOhm`` or ``-3 dB`` into (SI value, base unit).

    Returns ``None`` if the text contains no number.  The unit may be
    empty.  Percent is kept as its own unit (no /100 folding) so "50%"
    matches "50 percent" but not "0.5".
    """
    cleaned = text.replace(",", "")
    match = _NUMBER_RE.search(cleaned)
    if not match:
        return None
    value = float(match.group(0))
    rest = cleaned[match.end():].strip().lstrip("-").strip()
    unit_match = _UNIT_RE.match(rest)
    unit_raw = unit_match.group(1) if unit_match else ""
    unit = unit_raw.strip().rstrip(".,;")
    lowered = unit.lower()
    if not lowered:
        return value, ""
    if lowered in ("%", "percent"):
        return value, "%"
    if lowered in _COMPOUND_UNITS:
        scale, base = _COMPOUND_UNITS[lowered]
        return value * scale, base
    if lowered in _BASE_UNITS:
        return value, _canonical_base(lowered)
    # try SI prefix + base unit
    for prefix in _PREFIXES_BY_LENGTH:
        if lowered.startswith(prefix):
            base = lowered[len(prefix):]
            if base in _BASE_UNITS and base:
                return value * _SI_PREFIXES[prefix], _canonical_base(base)
    # unknown unit: keep text so the caller can compare verbatim
    return value, lowered


def _canonical_base(unit: str) -> str:
    return _BASE_ALIASES.get(unit, unit)


def numbers_in(text: str) -> list:
    """All numbers appearing in the text."""
    return [float(m) for m in _NUMBER_RE.findall(text.replace(",", ""))]
