"""Exact counting formulas for uniform non-crossing partitions.

Counts are plain Python integers: Catalan numbers, the marked counting
polynomials extracted by Lagrange inversion (a tuple of ints, or a dict
of ints for two marked sizes), the singleton generating function (a list
of int tuples) and the bounded-block-size counts behind the largest-block
law.  Moments and probabilities are ratios of such counts, returned as
``Fraction``s; every block-count moment comes from one mixed
factorial-moment formula.  Only the asymptotic_* leading-term evaluators
return floats; everything else never rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

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


def factorial_moment(n: int, marks: Mapping[int, int]) -> Fraction:
    """Mixed factorial moment E[prod_l (X_l)_{a_l}] of the size-l block counts.

    ``marks`` maps each size l to its order a_l; (x)_a is the falling
    factorial.  Lagrange inversion on (1/(1-u) + sum_l u^l (q_l - 1))^(n+1)
    gives, with A = sum a_l and W = sum a_l l,
    (n+1)_A binom(2n-A-W, n-A) / ((n+1) Catalan(n)), and
    (n+1) Catalan(n) = binom(2n, n).
    """
    if any(not 1 <= l <= n for l in marks):
        # one mark words it as mean_blocks_of_size does, several as covariance
        raise ValueError(
            "need 1 <= l <= n" if len(marks) == 1 else "sizes must lie in 1..n"
        )
    if any(a < 0 for a in marks.values()):
        raise ValueError("orders must be >= 0")
    order = sum(marks.values())
    weight = sum(a * l for l, a in marks.items())
    return Fraction(
        math.perm(n + 1, order) * _binom(2 * n - order - weight, n - order),
        math.comb(2 * n, n),
    )


def mean_blocks_of_size(n: int, l: int) -> Fraction:
    """Expected number of size-l blocks.

    Computes the product form n/2^(l+1) * prod_{j=0..l} (1 + (2-j)/(2n-j))
    and cross-checks it against factorial_moment(n, {l: 1}), the binomial
    quotient binom(2n-l-1, n-1)/Catalan(n); a mismatch raises
    ConsistencyError.
    """
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    product = Fraction(n, 2 ** (l + 1))
    for j in range(l + 1):
        product *= Fraction(2 * n - j + (2 - j), 2 * n - j)
    binomial_form = factorial_moment(n, {l: 1})
    if product != binomial_form:
        raise ConsistencyError(
            f"product form {product} != binomial form {binomial_form} "
            f"for n={n}, l={l}"
        )
    return product


def var_blocks_of_size(n: int, l: int) -> Fraction:
    """Exact variance via the second factorial moment."""
    mean = mean_blocks_of_size(n, l)
    return factorial_moment(n, {l: 2}) + mean - mean * mean


def covariance(n: int, k: int, l: int) -> Fraction:
    """Covariance of the size-k and size-l block counts, k != l."""
    if k == l:
        raise ValueError("sizes must differ; use the variance path for k == l")
    cross = factorial_moment(n, {k: 1, l: 1})
    return cross - mean_blocks_of_size(n, k) * mean_blocks_of_size(n, l)


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


def blocks_polynomial(
    n: int, l: int, *, guard: int = POLYNOMIAL_GUARD
) -> tuple[int, ...]:
    """Counting polynomial of size-l blocks over NC partitions of [n].

    Entry m of the returned tuple (the q^m coefficient) counts partitions
    with exactly m blocks of size l, for m = 0..n//l; the last entry is
    never 0 (n//l blocks of size l and one block of the rest).
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
        return (1,)
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
    return tuple(coeffs)


def joint_polynomial(
    n: int, k: int, l: int, *, guard: int = POLYNOMIAL_GUARD
) -> dict[tuple[int, int], int]:
    """Joint counting polynomial of size-k and size-l block counts.

    Maps (a, b) to the nonzero count of NC partitions of [n] with a blocks
    of size k and b blocks of size l (the p^a q^b coefficient).  Same
    Lagrange extraction with a three-term bracket.
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
    out: dict[tuple[int, int], int] = {}
    for key, value in terms.items():
        q, r = divmod(value, n + 1)
        if r:
            raise ConsistencyError("joint counting polynomial is not integral")
        if q:
            out[key] = q
    return out


def singleton_gf_series(
    order: int, *, guard: int = POLYNOMIAL_GUARD
) -> list[tuple[int, ...]]:
    """Closed-form generating function of singleton counts, as a series.

    Returns the z^0..z^order coefficients; the z^n one is a polynomial in
    q as a tuple of n+1 ints, the last (all singletons) being 1.  Expands
    (1 + (1-q)z - sqrt(R)) / (2z(1+(1-q)z)),
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
        coeffs.append(tuple(halves))
    return coeffs


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
