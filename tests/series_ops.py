"""Rational polynomials and truncated power series, used only by the tests.

``exact.blocks_polynomial`` and ``exact.singleton_gf_series`` compute on
packed integers.  ``QPoly`` (a dense polynomial with Fraction
coefficients) and ``ExactSeries`` (a truncated power series whose
coefficients are Fractions or QPolys) are the exact rational route they
replaced, kept with the square root, shift and long division below as
the oracle for them.  Arithmetic is exact, truncation orders are
explicit, and nothing ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class QPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (QPoly((other,))).coeffs
        return NotImplemented

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "QPoly | Scalar") -> "QPoly":
        o = other if isinstance(other, QPoly) else QPoly((other,))
        size = max(len(self.coeffs), len(o.coeffs))
        return QPoly(tuple(self[i] + o[i] for i in range(size)))

    def __sub__(self, other: "QPoly | Scalar") -> "QPoly":
        return self + (-(other if isinstance(other, QPoly) else QPoly((other,))))

    def __mul__(self, other: "QPoly | Scalar") -> "QPoly":
        if isinstance(other, (int, Fraction)):
            return QPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return QPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(tuple(out))


Coefficient = Union[Fraction, QPoly]


def _zero_like(sample: Coefficient) -> Coefficient:
    return QPoly.zero() if isinstance(sample, QPoly) else Fraction(0)


class ExactSeries:
    """Truncated power series; coefficients are Fractions or QPolys.

    ``order`` is the largest exponent carried: arithmetic truncates to the
    smaller operand order, so precision loss is always explicit.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Sequence, order: int | None = None) -> None:
        coeffs = list(coeffs)
        if order is None:
            if not coeffs:
                raise ValueError("empty series needs an explicit order")
            order = len(coeffs) - 1
        if not coeffs:
            raise ValueError("series needs at least one coefficient")
        sample = coeffs[0]
        zero = _zero_like(sample if isinstance(sample, (Fraction, QPoly)) else Fraction(0))
        norm = []
        for c in coeffs[: order + 1]:
            if isinstance(c, (int,)) or (not isinstance(c, (Fraction, QPoly))):
                c = Fraction(c)
            norm.append(c)
        while len(norm) < order + 1:
            norm.append(zero)
        self.coeffs = norm
        self.order = order

    def coefficient(self, k: int):
        if k < 0 or k > self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def _zero(self) -> Coefficient:
        return _zero_like(self.coeffs[0])

    def __mul__(self, other: "ExactSeries") -> "ExactSeries":
        order = min(self.order, other.order)
        out = [self._zero() for _ in range(order + 1)]
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return ExactSeries(out, order)


def series_scale(s: ExactSeries, factor: Scalar) -> ExactSeries:
    factor = Fraction(factor)
    return ExactSeries([c * factor for c in s.coeffs], s.order)


def series_shift_down(s: ExactSeries) -> ExactSeries:
    """Divide by the variable; constant term must vanish."""
    if s.coeffs[0] != 0:
        raise ValueError("cannot divide by the variable: nonzero constant term")
    if s.order == 0:
        raise ValueError("series too short to shift")
    return ExactSeries(s.coeffs[1:], s.order - 1)


def series_divide(num: ExactSeries, den: ExactSeries) -> ExactSeries:
    c0 = den.coeffs[0]
    if c0 != 1:
        # factor out an invertible rational constant
        if isinstance(c0, Fraction) and c0 != 0:
            s = Fraction(1) / c0
        elif isinstance(c0, QPoly) and c0.degree == 0:
            s = Fraction(1) / c0[0]
        else:
            raise ValueError("division requires an invertible constant term")
        return series_divide(series_scale(num, s), series_scale(den, s))
    # long division against a monic-constant denominator; skipping the
    # denominator's zero coefficients keeps sparse divisors linear-time
    order = min(num.order, den.order)
    support = [j for j in range(1, order + 1) if den.coeffs[j]]
    out = [num.coeffs[0]]
    for k in range(1, order + 1):
        acc = num.coeffs[k]
        for j in support:
            if j > k:
                break
            acc = acc - den.coeffs[j] * out[k - j]
        out.append(acc)
    return ExactSeries(out, order)


def series_sqrt(s: ExactSeries) -> ExactSeries:
    """Exact square root for series with constant term 1.

    Coefficients come from the first-order relation R*S' = (1/2)*R'*S
    satisfied by S = sqrt(R), which gives a linear recurrence and
    avoids repeated full-precision multiplications.
    """
    if s.coeffs[0] != 1:
        raise ValueError("series square root requires constant term 1")
    out = [s.coeffs[0]]
    for n in range(s.order):
        acc = s._zero()
        for j in range(1, n + 2):
            r = s.coeffs[j]
            if r:
                factor = Fraction(3 * j - 2 * (n + 1), 2 * (n + 1))
                acc = acc + (r * out[n + 1 - j]) * factor
        out.append(acc)
    return ExactSeries(out, s.order)
