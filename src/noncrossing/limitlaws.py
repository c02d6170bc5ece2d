"""Limit distributions and numeric singularity analysis.

Floating-point evaluators for the four limit laws (Gaussian block
counts, geometric size profile, double-exponential largest block, Theta
width) plus one high-precision solver for the square-root branch points
of the characteristic systems H = H^2 + z (1 + m(H)), m a polynomial,
that drive the coefficient asymptotics: bounded block size
(m = -H^(k+1)) and criterion 8's size-l marked system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from . import exact

TERM_CUTOFF = 1e-15
RESIDUAL_TARGET = 1e-13


def std_normal_cdf(x: float) -> float:
    """Standard Gaussian distribution function, accurate to ~1e-15."""
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def theta_tail(x: float) -> float:
    """Theta-distribution tail: sum_j exp(-j^2 x^2) (4 j^2 x^2 - 2).

    The limit of P(width >= x sqrt(n)/2).  Summed until the term falls
    below 1e-15 in magnitude; defined for x > 0 only.
    """
    if x <= 0:
        raise ValueError("theta tail is defined for x > 0")
    total = 0.0
    j = 1
    while j < 200_000:
        a = (j * x) ** 2
        term = math.exp(-a) * (4.0 * a - 2.0)
        total += term
        if abs(term) < TERM_CUTOFF and a > 1.0:
            break
        j += 1
    # the sum is a tail probability; roundoff can push it a few ulps past 1
    return min(max(total, 0.0), 1.0)


def zeta(s: float, *, pivot: int = 24) -> float:
    """Riemann zeta for real s >= 2 via Euler-Maclaurin summation."""
    if s < 2:
        raise ValueError("need s >= 2")
    total = sum(j ** (-s) for j in range(1, pivot))
    total += 0.5 * pivot ** (-s)
    total += pivot ** (1 - s) / (s - 1)
    # Bernoulli correction terms B2, B4, B6, B8
    bernoulli = (
        (1.0 / 6.0, 2),
        (-1.0 / 30.0, 4),
        (1.0 / 42.0, 6),
        (-1.0 / 30.0, 8),
    )
    for b, order in bernoulli:
        rising = 1.0
        for i in range(order - 1):
            rising *= s + i
        total += b / math.factorial(order) * rising * pivot ** (-(s + order - 1))
    return total


def width_moment(r: int, n: int) -> float:
    """r-th moment of the width law: r(r-1) Gamma(r/2) zeta(r) (sqrt(n)/2)^r."""
    if r < 2:
        raise ValueError("moment order must be >= 2")
    return r * (r - 1) * math.gamma(r / 2.0) * zeta(float(r)) * (math.sqrt(n) / 2.0) ** r


def mean_width_asymptotic(n: int) -> float:
    """Leading mean width: sqrt(pi n)/2 - 3/4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 0.5 * math.sqrt(math.pi * n) - 0.75


def largest_block_cdf_approx(n: int, k: int) -> float:
    """Double-exponential approximation of P[largest block <= k].

    With x = k - floor(log2 n) and alpha = 2^{frac(log2 n)} in [1, 2),
    the value is exp(-alpha 2^{-(x+1)}).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    exponent = n.bit_length() - 1
    alpha = n / (1 << exponent)
    x = k - exponent
    return math.exp(-alpha * 2.0 ** -(x + 1))


@dataclass(frozen=True)
class SingularityReport:
    """Solution of a characteristic system at a square-root branch point."""

    k: int
    z0: float
    y0: float
    gamma: float
    z0_minus_quarter: float
    y0_minus_half: float
    gamma_minus_half: float
    residual_fixed_point: float
    residual_tangency: float

    def __post_init__(self) -> None:
        # k = 1 (trivial family, no branch point) and k = 2 (branch value
        # exactly 1) sit on the box boundary; everything else is interior
        if not (0.0 < self.z0 < 1.0 and 0.0 < self.y0 <= 1.0):
            raise ArithmeticError("singularity outside the unit box")
        if self.gamma < 0.0 or (self.k >= 2 and self.gamma == 0.0):
            raise ArithmeticError("branch coefficient must be positive")
        if max(abs(self.residual_fixed_point), abs(self.residual_tangency)) > RESIDUAL_TARGET:
            raise ArithmeticError("characteristic residuals above tolerance")


def _branch_point(m: dict[int, int | mp.mpf], label: str) -> tuple[mp.mpf, mp.mpf]:
    """Square-root branch point (s, z) of the system H = H^2 + z (1 + m(H)).

    ``m`` maps each power of H to its coefficient.  The branch point is
    where the tangency 1 = 2H + z m'(H) meets the fixed point; eliminating
    z = s(1-s) / (1 + m(s)) leaves g(s) = (2s-1)(1+m(s)) + s(1-s) m'(s) = 0,
    with g'(s) = 2(1+m(s)) + s(1-s) m''(s), which Newton solves from
    s = 1/2 at the working precision.
    """
    s = mp.mpf(1) / 2
    target = mp.mpf(10) ** (-(mp.mp.dps - 8))
    for _ in range(200):
        one_plus_m = 1 + sum(c * s**p for p, c in m.items())
        dm = sum(c * p * s ** (p - 1) for p, c in m.items())
        g = (2 * s - 1) * one_plus_m + s * (1 - s) * dm
        if abs(g) < target:
            break
        d2m = sum(c * p * (p - 1) * s ** (p - 2) for p, c in m.items())
        s -= g / (2 * one_plus_m + s * (1 - s) * d2m)
    else:
        raise ArithmeticError(f"branch solve did not converge for {label}")
    return s, s * (1 - s) / one_plus_m


def solve_characteristic_maxblock(k: int) -> SingularityReport:
    """Branch point of the bounded-block-size series y = z + y^2 - z y^(k+1).

    Solves the system {y = z + y^2 - z y^(k+1), 1 = 2y - (k+1) z y^k}
    with ``_branch_point`` (m(y) = -y^(k+1)) in extended precision
    (mandatory for large k, where the offsets from (1/4, 1/2) underflow
    doubles), and reports gamma for the square-root expansion
    y(z) = y0 - gamma sqrt(1 - z/z0) + ...

    gamma is evaluated as sqrt(2 S(y0) / S''(y0)) with S(y) = 1 + y + ...
    + y^k, which equals the quotient form sqrt(2 z0 P_z / P_yy) wherever
    the latter is determinate (the two characteristic functions differ by
    the factor 1 - y, which cancels from the ratio) and stays finite at
    the boundary roots.

    Edge cases solved exactly: k = 1 counts one partition per size, its
    fixed point is linear and the tangency solution (1/2, 1) carries no
    branch point (gamma = 0); k = 2 is the Motzkin-family branch point
    (1/3, 1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workdps(max(40, 2 * k + 20)):
        if k == 1:
            z, y = mp.mpf(1) / 2, mp.mpf(1)
        elif k == 2:
            z, y = mp.mpf(1) / 3, mp.mpf(1)
        else:
            y, z = _branch_point({k + 1: -1}, f"k={k}")
        res1 = z + y * y - z * y ** (k + 1) - y
        res2 = 2 * y - (k + 1) * z * y**k - 1
        if k == 1:
            gamma = mp.mpf(0)
        else:
            geometric_sum = sum(y**j for j in range(k + 1))
            curvature = sum(j * (j - 1) * y ** (j - 2) for j in range(2, k + 1))
            gamma = mp.sqrt(2 * geometric_sum / curvature)
        return SingularityReport(
            k=k,
            z0=float(z),
            y0=float(y),
            gamma=float(gamma),
            z0_minus_quarter=float(z - mp.mpf(1) / 4),
            y0_minus_half=float(y - mp.mpf(1) / 2),
            gamma_minus_half=float(gamma - mp.mpf(1) / 2),
            residual_fixed_point=float(res1),
            residual_tangency=float(res2),
        )


def singularity_slope_at_one(l: int, *, step: float = 1e-4) -> float:
    """d rho / dq at q = 1 for the size-l marked system.

    rho(q) is the branch point of H = H^2 + z (1 + (q-1)(H^l + H^(l+1))),
    whose slope at q = 1 is -3 2^-(l+3) (the slope of the counting GF,
    whose marker carries H^l - H^(l+1), is -2^-(l+3); see README).  Central
    differences with one Richardson step.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    with mp.workdps(40):
        def rho(q: float) -> mp.mpf:
            c = mp.mpf(q) - 1
            return _branch_point({l: c, l + 1: c}, f"l={l}, q={q}")[1]

        def central(h: float) -> mp.mpf:
            return (rho(1 + h) - rho(1 - h)) / (2 * mp.mpf(h))

        coarse = central(step)
        fine = central(step / 2)
        return float((4 * fine - coarse) / 3)


@dataclass(frozen=True)
class CountFitReport:
    """Fit of bounded-block-count growth against the branch-point prediction."""

    k: int
    n: int
    fitted_rate: float
    fitted_exponent: float
    reference_rate: float
    rate_relative_error: float
    fitted_constant: float
    predicted_constant: float


def _log_big(value: int) -> float:
    """Natural log of a (possibly huge) positive integer."""
    bits = value.bit_length()
    if bits <= 900:
        return math.log(value)
    shift = bits - 53
    return math.log(value >> shift) + shift * math.log(2.0)


def asymptotic_count_check(k: int, n: int) -> CountFitReport:
    """Fit c(m) ~ A m^beta rate^m from exact bounded-block counts.

    Uses coefficient ratios at m = n and m = n/2 to separate the
    exponential rate from the polynomial exponent, then compares the rate
    against 1/z0 from the characteristic system.  The fitted constant is
    reported alongside the standard square-root-singularity prediction
    but is not asserted anywhere.
    """
    if n < 16:
        raise ValueError("need n >= 16 for a stable fit")
    m1, m2 = n, n // 2
    c_m1_next = exact.bounded_block_count(m1 + 1, k)
    c_m1 = exact.bounded_block_count(m1, k)
    c_m2_next = exact.bounded_block_count(m2 + 1, k)
    c_m2 = exact.bounded_block_count(m2, k)
    log_r1 = _log_big(c_m1_next) - _log_big(c_m1)
    log_r2 = _log_big(c_m2_next) - _log_big(c_m2)
    g1 = math.log1p(1.0 / m1)
    g2 = math.log1p(1.0 / m2)
    beta = (log_r1 - log_r2) / (g1 - g2)
    log_rate = log_r1 - beta * g1
    rate = math.exp(log_rate)
    report = solve_characteristic_maxblock(k)
    reference = 1.0 / report.z0
    log_constant = _log_big(c_m1) - beta * math.log(m1) - m1 * log_rate
    predicted = report.gamma / (2.0 * math.sqrt(math.pi) * report.z0)
    return CountFitReport(
        k=k,
        n=n,
        fitted_rate=rate,
        fitted_exponent=beta,
        reference_rate=reference,
        rate_relative_error=abs(rate - reference) / reference,
        fitted_constant=math.exp(log_constant),
        predicted_constant=predicted,
    )
