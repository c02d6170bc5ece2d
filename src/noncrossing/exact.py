"""Exact counting formulas for uniform non-crossing partitions.

Arbitrary-precision rational arithmetic throughout: Catalan numbers,
block-count moments, per-size moments and covariances, the marked
counting polynomials extracted by Lagrange inversion, the closed-form
singleton generating function, and the bounded-block-size series behind
the largest-block law.  Only the asymptotic_* leading-term evaluators
return floats; everything else never rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .series import BivPoly, ExactSeries, QPoly

POLYNOMIAL_GUARD = 200
SERIES_GUARD = 4096


class ConsistencyError(ArithmeticError):
    """Two formulas that must agree exactly did not. Should never fire."""


def _binom(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention off the triangle."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def mean_blocks(n: int) -> Fraction:
    """Expected number of blocks: (n+1)/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(n + 1, 2)


def var_blocks_total(n: int) -> Fraction:
    """Variance of the number of blocks: (n^2-1)/(4(2n-1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction(n * n - 1, 4 * (2 * n - 1))


def mean_blocks_of_size(n: int, l: int) -> Fraction:
    """Expected number of size-l blocks.

    Computes the product form n/2^(l+1) * prod_{j=0..l} (1 + (2-j)/(2n-j))
    and cross-checks it against the equivalent binomial quotient
    binom(2n-l-1, n-1)/Catalan(n); a mismatch raises ConsistencyError.
    """
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    product = Fraction(n, 2 ** (l + 1))
    for j in range(l + 1):
        product *= Fraction(2 * n - j + (2 - j), 2 * n - j)
    binomial_form = Fraction(_binom(2 * n - l - 1, n - 1), catalan(n))
    if product != binomial_form:
        raise ConsistencyError(
            f"product form {product} != binomial form {binomial_form} "
            f"for n={n}, l={l}"
        )
    return product


def second_factorial_moment(n: int, l: int) -> Fraction:
    """E[X(X-1)] for the number of size-l blocks."""
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    return Fraction(n * _binom(2 * n - 2 * l - 2, n - 2), catalan(n))


def var_blocks_of_size(n: int, l: int) -> Fraction:
    """Exact variance via the second factorial moment."""
    mean = mean_blocks_of_size(n, l)
    return second_factorial_moment(n, l) + mean - mean * mean


def cross_moment(n: int, k: int, l: int) -> Fraction:
    """E[X^(k) X^(l)] for counts of two distinct block sizes."""
    if k == l:
        raise ValueError("sizes must differ; use the variance path for k == l")
    if not (1 <= k <= n and 1 <= l <= n):
        raise ValueError("sizes must lie in 1..n")
    return Fraction(n * _binom(2 * n - k - l - 2, n - 2), catalan(n))


def covariance(n: int, k: int, l: int) -> Fraction:
    return cross_moment(n, k, l) - mean_blocks_of_size(n, k) * mean_blocks_of_size(n, l)


def asymptotic_var(l: int, n: int) -> float:
    """Leading term of the size-l count variance: n[2^(l+2)-(l-1)^2-2]/2^(2l+3)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return n * (2 ** (l + 2) - (l - 1) ** 2 - 2) / 2 ** (2 * l + 3)


def asymptotic_cov(k: int, l: int, n: int) -> float:
    """Leading term of the covariance: -n[2+(k-1)(l-1)]/2^(k+l+3)."""
    if k < 1 or l < 1:
        raise ValueError("sizes must be >= 1")
    return -n * (2 + (k - 1) * (l - 1)) / 2 ** (k + l + 3)


def _check_poly_guard(n: int, guard: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > guard:
        raise ValueError(f"n={n} above guard {guard}; raise the guard explicitly")


def _unpack(value: int, bits: int, count: int) -> list[int]:
    """Split a packed integer into its ``count`` base-2^bits digits, lowest first.

    Raises ConsistencyError if anything is left above the top digit, which
    a negative value always has (it shifts down to -1): either means a
    digit did not fit its width.
    """
    if value >> (bits * count):
        raise ConsistencyError("packed polynomial does not fit its digits")
    raw = value.to_bytes((bits * count + 7) // 8, "little")
    mask = (1 << bits) - 1
    digits = []
    for low in range(0, bits * count, bits):
        chunk = int.from_bytes(raw[low >> 3 : (low + bits + 7) >> 3], "little")
        digits.append((chunk >> (low & 7)) & mask)
    return digits


def blocks_polynomial(n: int, l: int, *, guard: int = POLYNOMIAL_GUARD) -> QPoly:
    """Counting polynomial of size-l blocks over NC partitions of [n].

    The q^m coefficient counts partitions with exactly m blocks of size l.
    Lagrange inversion on (1/(1-u) + u^l (q-1))^(n+1) gives
    (n+1) Count(q) = W(q-1), W(x) = sum_j w_j x^j with
    w_j = binom(n+1, j) binom(2n-j(l+1), n-jl), j = 0..n//l.  The Taylor
    shift is taken by Horner on one packed integer, the polynomial
    evaluated at X = 2^B (Kronecker substitution): each step is
    P <- P (X - 1) + w_j.  Every digit of the result is (n+1) Count_m,
    which lies in [0, (n+1) Catalan(n)] = [0, binom(2n, n)], so with
    B = bitlength(binom(2n, n)) + 1 the digits unpack exactly.
    """
    _check_poly_guard(n, guard)
    if not 1 <= l <= max(n, 1):
        raise ValueError("need 1 <= l <= n")
    if n == 0:
        return QPoly.one()
    bits = math.comb(2 * n, n).bit_length() + 1
    packed = 0
    for j in range(n // l, -1, -1):
        weight = math.comb(n + 1, j) * _binom(2 * n - j * (l + 1), n - j * l)
        packed = (packed << bits) - packed + weight
    coeffs = []
    for value in _unpack(packed, bits, n // l + 1):
        q, r = divmod(value, n + 1)
        if r:
            raise ConsistencyError("counting polynomial is not integral")
        coeffs.append(q)
    return QPoly(coeffs)


def joint_polynomial(
    n: int, k: int, l: int, *, guard: int = POLYNOMIAL_GUARD
) -> BivPoly:
    """Joint counting polynomial of size-k and size-l block counts.

    Coefficient of p^a q^b counts NC partitions of [n] with a blocks of
    size k and b blocks of size l.  Same Lagrange extraction with a
    three-term bracket.
    """
    _check_poly_guard(n, guard)
    if k == l:
        raise ValueError("marked sizes must differ")
    if not (1 <= k and 1 <= l):
        raise ValueError("sizes must be >= 1")
    terms: dict[tuple[int, int], int] = {}
    for a in range(n // k + 1):
        for b in range((n - a * k) // l + 1):
            m = n - a * k - b * l
            weight = (
                math.comb(n + 1, a)
                * math.comb(n + 1 - a, b)
                * _binom(m + n - a - b, m)
            )
            if not weight:
                continue
            for i in range(a + 1):
                wa = weight * math.comb(a, i) * (-1 if (a - i) % 2 else 1)
                for j in range(b + 1):
                    w = wa * math.comb(b, j) * (-1 if (b - j) % 2 else 1)
                    terms[i, j] = terms.get((i, j), 0) + w
    out: dict[tuple[int, int], Fraction] = {}
    for key, value in terms.items():
        q, r = divmod(value, n + 1)
        if r:
            raise ConsistencyError("joint counting polynomial is not integral")
        out[key] = Fraction(q)
    return BivPoly(out)


def singleton_gf_series(order: int, *, guard: int = POLYNOMIAL_GUARD) -> ExactSeries:
    """Closed-form generating function of singleton counts, as a series.

    Expands (1 + (1-q)z - sqrt(R)) / (2z(1+(1-q)z)),
    R = 1 - 2(1+q)z + (q^2+2q-3)z^2, over Z[q]; the z^n coefficient must
    equal blocks_polynomial(n, 1), which criterion 9 and the tests enforce
    coefficient by coefficient.  Each polynomial in q is one packed
    integer at X = 2^B, B = 2 order + 16, since every count is at most
    Catalan(order) < 4^order.  sqrt(R) = sum s_k z^k comes from
    R S' = R' S / 2, which with R's two nonzero terms r1, r2 reads
    2(k+1) s_{k+1} = (1-2k) r1 s_k + 2(2-k) r2 s_{k-1}; the quotient by
    1 + (1-q)z is taken by forward substitution.  Every division must be
    exact, or ConsistencyError is raised.
    """
    _check_poly_guard(order, guard)
    bits = 2 * order + 16
    r1 = -2 - (2 << bits)
    r2 = -3 + (2 << bits) + (1 << 2 * bits)
    root = [1, r1 // 2]
    for k in range(1, order + 1):
        q, r = divmod(
            (1 - 2 * k) * r1 * root[k] + 2 * (2 - k) * r2 * root[k - 1], 2 * (k + 1)
        )
        if r:
            raise ConsistencyError("square-root coefficient is not integral")
        root.append(q)
    # 2 F(z) (1 + (1-q)z) = (1 + (1-q)z - sqrt(R)) / z; the z^0 term is 2
    one_minus_q = 1 - (1 << bits)
    coeffs = []
    twice = 0
    for k in range(order + 1):
        twice = (2 if k == 0 else -root[k + 1]) - one_minus_q * twice
        halves = []
        for value in _unpack(twice, bits, k + 1):
            half, odd = divmod(value, 2)
            if odd:
                raise ConsistencyError("singleton series coefficient is not integral")
            halves.append(half)
        coeffs.append(QPoly(halves))
    return ExactSeries(coeffs, order)


def max_block_series(k: int, n_max: int, *, guard: int = SERIES_GUARD) -> ExactSeries:
    """Series y(z) counting NC partitions with all blocks of size <= k.

    y = z * (1 + y + ... + y^k) solved degree by degree; the coefficient
    of z^(n+1) counts the partitions of [n] whose blocks all have size at
    most k.  Intended for moderate orders; single large coefficients are
    cheaper through bounded_block_count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_poly_guard(n_max, guard)
    y = [0] * (n_max + 1)
    if n_max >= 1:
        y[1] = 1
    # powers[j][d] = coefficient of z^d in y^j, filled degree by degree
    powers: list[list[int]] = [[0] * (n_max + 1) for _ in range(k + 1)]
    powers[0][0] = 1
    if k >= 1:
        powers[1] = y
    for n in range(2, n_max + 1):
        d = n - 1
        for j in range(2, k + 1):
            total = 0
            upper = d - (j - 1)
            prev = powers[j - 1]
            for i in range(1, upper + 1):
                if y[i] and prev[d - i]:
                    total += y[i] * prev[d - i]
            powers[j][d] = total
        y[n] = sum(powers[j][d] for j in range(1, k + 1))
    return ExactSeries([Fraction(v) for v in y], n_max)


def bounded_block_counts(n: int, ks: Iterable[int]) -> dict[int, int]:
    """Count NC partitions of [n] with all blocks of size <= k, for each k.

    Lagrange inversion gives sum_{j<=J} (-1)^j t_j / (n+1), J = n // (k+1),
    t_j = binom(n+1, j) binom(a_j, n), a_j = 2n - j(k+1).  Each k is summed
    on its own from its cheap last term back to t_0, each term from the one
    before by an exact integer division, never a big-by-big product:
    t_{j-1} = t_j j perm(a_{j-1}, k+1) / ((n+2-j) perm(a_{j-1}-n, k+1)).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ks = sorted(set(ks))
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")
    out = {}
    for k in ks:
        last = n // (k + 1)
        a = 2 * n - last * (k + 1)
        term = math.comb(n + 1, last) * math.comb(a, n)
        total = -term if last % 2 else term
        for j in range(last, 0, -1):
            a += k + 1
            term = term * (j * math.perm(a, k + 1)) // (
                (n + 2 - j) * math.perm(a - n, k + 1)
            )
            total += term if j % 2 else -term
        q, r = divmod(total, n + 1)
        if r:
            raise ConsistencyError("bounded-block count is not integral")
        out[k] = q
    return out


def bounded_block_count(n: int, k: int) -> int:
    """Count NC partitions of [n] with all blocks of size <= k."""
    return bounded_block_counts(n, [k])[k]


def largest_block_cdf_exact(
    n: int, k: int, *, guard: int = SERIES_GUARD
) -> Fraction:
    """P[largest block <= k] for a uniform NC partition of [n], exactly."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > guard:
        raise ValueError(f"n={n} above guard {guard}; raise the guard explicitly")
    return Fraction(bounded_block_count(n, k), catalan(n))


def lagrange_coefficient(phi: ExactSeries, n: int) -> Fraction:
    """n-th coefficient of the inverse of z = u/phi(u): (1/n)[u^(n-1)] phi^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if phi.coefficient(0) == 0:
        raise ValueError("phi must have a nonzero constant term")
    if phi.order < n - 1:
        raise ValueError("phi is truncated below order n-1")
    truncated = ExactSeries(phi.coeffs[:n], n - 1)
    powered = truncated.pow(n)
    return Fraction(powered.coefficient(n - 1)) / n
