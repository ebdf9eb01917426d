"""Exact scalar arithmetic: rationals and dual numbers.

Everything on the correctness path is a ``fractions.Fraction``; floats only
appear when formatting output.  ``Dual`` augments a rational value with a
first derivative.  It is a scalar only: the closed forms of ``models``
evaluated at ``Dual(x0, 1)`` give entries whose two parts are the exact
value and derivative at ``x0``, and the R and K caches split them into a
pair of rational matrices, so no matrix holds a Dual.
"""

from __future__ import annotations

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


def _coerce(other):
    if isinstance(other, (int, Fraction)):
        return Fraction(other)
    return None


class Dual:
    """Rational value plus first derivative: (a, a')·(b, b') = (ab, a'b + ab')."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv=0):
        self.value = Fraction(value)
        self.deriv = Fraction(deriv)

    @staticmethod
    def variable(x0) -> "Dual":
        return Dual(x0, 1)

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.deriv + other.deriv)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Dual(self.value + c, self.deriv)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.deriv)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.deriv - other.deriv)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Dual(self.value - c, self.deriv)

    def __rsub__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Dual(c - self.value, -self.deriv)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.deriv * other.value + self.value * other.deriv)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Dual(self.value * c, self.deriv * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.value == 0:
                raise ZeroDivisionError("dual division by zero value part")
            v = self.value / other.value
            return Dual(v, (self.deriv - v * other.deriv) / other.value)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        if c == 0:
            raise ZeroDivisionError("dual division by zero")
        return Dual(self.value / c, self.deriv / c)

    def __rtruediv__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Dual(c) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("dual powers are nonnegative integers")
        out = Dual(1)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.deriv == other.deriv
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return self.value == c and self.deriv == 0

    def __hash__(self):
        # Dual(v, 0) == v, so it hashes like v
        return hash((self.value, self.deriv) if self.deriv else self.value)

    def __bool__(self):
        return self.value != 0 or self.deriv != 0

    def __repr__(self):
        return f"Dual({self.value}, {self.deriv})"
