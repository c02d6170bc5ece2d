"""Exact polynomials and truncated power series over the rationals.

QPoly is a dense univariate polynomial with Fraction coefficients (used
for marker variables in counting polynomials); BivPoly its sparse
bivariate sibling.  ExactSeries is a truncated power series whose
coefficients may themselves be Fractions or QPolys; all arithmetic is
exact, truncation orders are explicit, and nothing ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


def _as_fraction(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QPoly:
    """Univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        c = [_as_fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def marker(cls) -> "QPoly":
        """The variable itself."""
        return cls((0, 1))

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

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "QPoly | Scalar") -> "QPoly":
        o = other if isinstance(other, QPoly) else QPoly((other,))
        size = max(len(self.coeffs), len(o.coeffs))
        return QPoly(tuple(self[i] + o[i] for i in range(size)))

    __radd__ = __add__

    def __sub__(self, other: "QPoly | Scalar") -> "QPoly":
        return self + (-(other if isinstance(other, QPoly) else QPoly((other,))))

    def __rsub__(self, other: Scalar) -> "QPoly":
        return QPoly((other,)) - self

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

    __rmul__ = __mul__

    def derivative(self) -> "QPoly":
        return QPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k > 0))

    def eval(self, x: Scalar | float):
        acc: Scalar | float = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"QPoly({[str(c) for c in self.coeffs]})"


class BivPoly:
    """Sparse bivariate polynomial, terms keyed by exponent pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Scalar] | None = None) -> None:
        clean = {}
        for key, value in (terms or {}).items():
            v = _as_fraction(value)
            if v:
                clean[key] = v
        self.terms = clean

    def coeff(self, a: int, b: int) -> Fraction:
        return self.terms.get((a, b), Fraction(0))

    def total(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def substitute_second_one(self) -> QPoly:
        """Set the second variable to 1; returns a polynomial in the first."""
        if not self.terms:
            return QPoly.zero()
        size = max(a for a, _ in self.terms) + 1
        out = [Fraction(0)] * size
        for (a, _), v in self.terms.items():
            out[a] += v
        return QPoly(tuple(out))

    def mixed_derivative_at_one(self) -> Fraction:
        return sum((a * b * v for (a, b), v in self.terms.items()), Fraction(0))

    def eval(self, p: Scalar, q: Scalar) -> Fraction:
        p, q = _as_fraction(p), _as_fraction(q)
        return sum((v * p**a * q**b for (a, b), v in self.terms.items()), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BivPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        shown = {k: str(v) for k, v in sorted(self.terms.items())}
        return f"BivPoly({shown})"


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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExactSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other: "ExactSeries") -> "ExactSeries":
        order = min(self.order, other.order)
        return ExactSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(order + 1)], order
        )

    def __sub__(self, other: "ExactSeries") -> "ExactSeries":
        order = min(self.order, other.order)
        return ExactSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(order + 1)], order
        )

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

    def invert(self) -> "ExactSeries":
        """Reciprocal series; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("inversion requires constant term 1")
        one = self.coeffs[0]
        out = [one]
        for k in range(1, self.order + 1):
            acc = self._zero()
            for j in range(1, k + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out[k - j]
            out.append(-acc)
        return ExactSeries(out, self.order)

    def pow(self, exponent: int) -> "ExactSeries":
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = ExactSeries(
            [self.coeffs[0] * 0 + 1] + [self._zero()] * self.order, self.order
        )
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self) -> str:
        shown = ", ".join(repr(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 5 else ""
        return f"ExactSeries([{shown}{tail}], order={self.order})"
