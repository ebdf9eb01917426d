"""Exact rationals: parsing, coercion and formatting.

Everything on the correctness path is a ``fractions.Fraction``; floats only
appear when formatting output.
"""

from fractions import Fraction


def rat(value) -> Fraction:
    """Coerce an int, string like '2/3', or Fraction to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p'.  Rejects zero denominators and float syntax."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/")
            d = int(den)
            if d == 0:
                raise ValueError
            return Fraction(int(num), d)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact rational: {text!r}") from None


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def float_repr(value) -> str:
    """17 significant digits; presentation only."""
    return format(float(value), ".17g")
