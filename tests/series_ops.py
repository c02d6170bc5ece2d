"""Series operations used only by the tests.

``exact.singleton_gf_series`` computes on packed integers; the square
root, shift and long division of ``ExactSeries`` below are the route it
replaced, kept as the oracle for it.
"""

from __future__ import annotations

from fractions import Fraction

from noncrossing.series import ExactSeries, QPoly, Scalar


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
