"""Exact scalars of the form q*sqrt(r) with q, r rational.

Boosts between linearly-related chains rescale interval pairs by sqrt(m/n)
and rates by its inverse.  Carrying the coefficient and the radicand as
fractions lets a boost and its inverse cancel exactly, so quadratic
invariants (interval scalars, rate products, mass squared) survive
transforms without floating-point drift.  A value degrades to float only
when mixed with floats.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational

HALF = Fraction(1, 2)  # x * HALF is x / 2, but exact for an int x, where int / 2 is a float


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a positive rational, or None if irrational."""
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _operators(exact, inexact):
    """An operator's forward and reverse methods, as Fraction builds its own: `exact`
    on two Surds for a Surd or Rational operand, `inexact` on floats for a float."""

    def forward(a, b):
        if isinstance(b, Surd):
            return exact(a, b)
        if isinstance(b, Rational):
            return exact(a, Surd(b))
        if isinstance(b, float):
            return inexact(float(a), b)
        return NotImplemented

    def reverse(b, a):
        if isinstance(a, Rational):
            return exact(Surd(a), b)
        if isinstance(a, float):
            return inexact(a, float(b))
        return NotImplemented

    forward.__name__, reverse.__name__ = f"__{inexact.__name__}__", f"__r{inexact.__name__}__"
    return forward, reverse


def _comparison(op):
    """A comparison method: exact, by sign and then by square, the larger square being
    further from zero; a non-finite float compares as it would with any finite number,
    and an operand that `_coerce` cannot take is left to its own reflected method."""

    def compare(a, b):
        rhs = a._coerce(b)
        if rhs is None:
            return op(0.0, b) if isinstance(b, float) else NotImplemented  # inf or NaN
        s, t = a._sign(), rhs._sign()
        if s != t:
            return op(s, t)
        return op(a.squared(), rhs.squared()) if s >= 0 else op(rhs.squared(), a.squared())

    compare.__name__ = f"__{op.__name__}__"
    return compare


class Surd:
    """The number ``coeff * sqrt(radicand)`` with rational parts.

    ``radicand`` is positive and equals 1 exactly when the value is rational.
    Instances are immutable; arithmetic with ints and Fractions stays exact,
    arithmetic with floats returns floats.
    """

    __slots__ = ("coeff", "radicand")

    def __init__(self, coeff, radicand=1):
        coeff = Fraction(coeff)
        radicand = Fraction(radicand)
        if radicand <= 0:
            if coeff == 0 and radicand == 0:
                radicand = Fraction(1)
            else:
                raise ValueError("radicand must be positive")
        if coeff == 0:
            radicand = Fraction(1)
        else:
            root = _rational_sqrt(radicand)
            if root is not None:
                coeff *= root
                radicand = Fraction(1)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, name, value):
        raise AttributeError("Surd values are immutable")

    # -- predicates and conversions -------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is irrational")
        return self.coeff

    def squared(self) -> Fraction:
        """Exact square, always rational."""
        return self.coeff * self.coeff * self.radicand

    def __float__(self) -> float:
        # exact coeff / 2**j and radicand / 4**k lie near 1: any value in range converts
        c, r = self.coeff, self.radicand
        j = c.numerator.bit_length() - c.denominator.bit_length()
        k = (r.numerator.bit_length() - r.denominator.bit_length()) // 2
        return math.ldexp(float(c * HALF**j) * math.sqrt(float(r * HALF ** (2 * k))), j + k)

    def __bool__(self) -> bool:
        return self.coeff != 0

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Surd({self.coeff})"
        return f"Surd({self.coeff}, radicand={self.radicand})"

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.coeff)
        if self.coeff == 1:
            return f"sqrt({self.radicand})"
        return f"({self.coeff})*sqrt({self.radicand})"

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "Surd":
        return Surd(-self.coeff, self.radicand)

    def __abs__(self) -> "Surd":
        return Surd(abs(self.coeff), self.radicand)

    def _add(self, other: "Surd") -> "Surd":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.radicand == other.radicand:
            return Surd(self.coeff + other.coeff, self.radicand)
        ratio = _rational_sqrt(self.radicand / other.radicand)
        if ratio is None:
            raise ValueError(
                "cannot add surds with incommensurable radicands "
                f"{self.radicand} and {other.radicand}"
            )
        return Surd(self.coeff * ratio + other.coeff, other.radicand)

    def _mul(self, other: "Surd") -> "Surd":
        return Surd(self.coeff * other.coeff, self.radicand * other.radicand)

    def _inverse(self) -> "Surd":
        if self.coeff == 0:
            raise ZeroDivisionError("division by zero surd")
        # 1/(q*sqrt(r)) == (1/(q*r)) * sqrt(r)
        return Surd(1 / (self.coeff * self.radicand), self.radicand)

    __add__, __radd__ = _operators(_add, operator.add)
    __sub__, __rsub__ = _operators(lambda a, b: a._add(-b), operator.sub)
    __mul__, __rmul__ = _operators(_mul, operator.mul)
    __truediv__, __rtruediv__ = _operators(lambda a, b: a._mul(b._inverse()), operator.truediv)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self._inverse() ** (-exponent)
        half, odd = divmod(exponent, 2)
        coeff = self.coeff**exponent * self.radicand**half
        return Surd(coeff, self.radicand if odd else 1)

    # -- comparison ------------------------------------------------------

    def _sign(self) -> int:
        return (self.coeff > 0) - (self.coeff < 0)

    @staticmethod
    def _coerce(other) -> "Surd | None":
        if isinstance(other, Surd):
            return other
        if isinstance(other, Rational):
            return Surd(other)
        if isinstance(other, float) and math.isfinite(other):
            # exact, as int and Fraction compare with floats, so equal values hash alike
            return Surd(Fraction(other))
        return None

    def __hash__(self):
        if self.is_rational:
            return hash(self.coeff)
        return hash((self._sign(), self.squared(), "surd"))

    __eq__, __lt__, __le__, __gt__, __ge__ = map(
        _comparison, (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
    )


def sqrt_exact(value) -> Surd:
    """Exact square root of a nonnegative rational (or rational-valued Surd)."""
    if isinstance(value, Surd):
        value = value.as_fraction()
    value = Fraction(value)
    if value < 0:
        raise ValueError("square root of a negative value")
    if value == 0:
        return Surd(0)
    return Surd(1, value)


def sqrt_exact_or_float(value):
    """collapse(sqrt_exact(value)) for a Rational or a Surd, math.sqrt(value) otherwise."""
    if isinstance(value, (Rational, Surd)):
        return collapse(sqrt_exact(value))
    return math.sqrt(value)


def collapse(value):
    """Fold a rational-valued Surd back into a plain Fraction; pass others through."""
    if isinstance(value, Surd) and value.is_rational:
        return value.as_fraction()
    return value
