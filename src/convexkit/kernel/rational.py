"""Exact rational scalars: parsing and formatting.

All tile dimensions, layout coordinates, and linear-system entries are
`fractions.Fraction` values, so every comparison downstream is exact.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction.

    Decimal strings convert bit-exactly ('9.5' -> 19/2, never a float detour).
    Raises ValueError on anything else, including q == 0.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(s)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Canonical 'p/q' string; integers render without the denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"

