import math
from collections import Counter
from fractions import Fraction

import pytest

from noncrossing import exact, harness, statistics
from series_ops import (
    ExactSeries,
    QPoly,
    series_divide,
    series_scale,
    series_shift_down,
    series_sqrt,
)
from noncrossing.structures import enumerate_nc


class TestCatalan:
    def test_first_values(self):
        assert [exact.catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            exact.catalan(-1)


class TestBlockCountMoments:
    def test_frozen_values(self):
        assert exact.mean_blocks(3) == 2
        assert exact.var_blocks_total(3) == Fraction(2, 5)
        assert exact.mean_blocks(4) == Fraction(5, 2)
        assert exact.var_blocks_total(4) == Fraction(15, 28)
        assert exact.mean_blocks(1) == 1
        assert exact.var_blocks_total(1) == 0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_against_enumeration(self, n):
        blocks = [statistics.num_blocks(p) for p in enumerate_nc(n)]
        count = len(blocks)
        mean = Fraction(sum(blocks), count)
        var = Fraction(sum(b * b for b in blocks), count) - mean * mean
        assert mean == exact.mean_blocks(n)
        assert var == exact.var_blocks_total(n)


class TestSizeMoments:
    def test_frozen_means(self):
        assert exact.mean_blocks_of_size(3, 1) == Fraction(6, 5)
        assert exact.mean_blocks_of_size(4, 2) == Fraction(5, 7)
        assert exact.mean_blocks_of_size(2, 2) == Fraction(1, 2)

    def test_frozen_second_factorial(self):
        assert exact.factorial_moment(3, {1: 2}) == Fraction(6, 5)
        assert exact.factorial_moment(3, {2: 2}) == 0
        assert exact.factorial_moment(4, {1: 2}) == Fraction(12, 7)

    def test_frozen_cross_and_covariance(self):
        assert exact.factorial_moment(3, {1: 1, 2: 1}) == Fraction(3, 5)
        assert exact.covariance(3, 1, 2) == Fraction(-3, 25)
        assert exact.factorial_moment(4, {1: 1, 3: 1}) == Fraction(2, 7)
        assert exact.factorial_moment(5, {2: 1, 4: 1}) == 0  # k + l > n

    def test_equal_sizes_rejected(self):
        with pytest.raises(ValueError, match="sizes must differ"):
            exact.covariance(5, 2, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_enumeration(self, n):
        hists = [statistics.block_size_histogram(p) for p in enumerate_nc(n)]
        count = len(hists)
        for l in range(1, n + 1):
            mean = Fraction(sum(h[l - 1] for h in hists), count)
            assert mean == exact.mean_blocks_of_size(n, l)
            fact2 = Fraction(sum(h[l - 1] * (h[l - 1] - 1) for h in hists), count)
            assert fact2 == exact.factorial_moment(n, {l: 2})
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                cross = Fraction(sum(h[k - 1] * h[l - 1] for h in hists), count)
                assert cross == exact.factorial_moment(n, {k: 1, l: 1})


def _falling(x, a):
    out = 1
    for i in range(a):
        out *= x - i
    return out


def _comb0(a, b):
    return math.comb(a, b) if 0 <= b <= a else 0


MARK_PATTERNS = [
    {1: 1},
    {2: 2},
    {1: 3},
    {1: 4},
    {1: 1, 2: 1},
    {1: 2, 3: 1},
    {1: 2, 2: 2},
    {1: 1, 2: 1, 3: 1},
]


class TestFactorialMoment:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_against_enumeration(self, n):
        hists = [statistics.block_size_histogram(p) for p in enumerate_nc(n)]
        for marks in MARK_PATTERNS:
            if max(marks) > n:
                continue
            total = 0
            for h in hists:
                term = 1
                for l, a in marks.items():
                    term *= _falling(h[l - 1], a)
                total += term
            assert exact.factorial_moment(n, marks) == Fraction(total, len(hists)), marks

    @pytest.mark.parametrize("n", [100, 2000])
    def test_matches_former_closed_forms(self, n):
        # the removed second_factorial_moment and cross_moment, as oracles
        catalan = exact.catalan(n)
        sizes = (1, 2, 3, 7, n // 2, n - 1, n)
        for l in sizes:
            assert exact.factorial_moment(n, {l: 2}) == \
                Fraction(n * _comb0(2 * n - 2 * l - 2, n - 2), catalan), l
            assert exact.factorial_moment(n, {l: 1}) == exact.mean_blocks_of_size(n, l)
        for k in sizes:
            for l in sizes:
                if k < l:
                    assert exact.factorial_moment(n, {k: 1, l: 1}) == \
                        Fraction(n * _comb0(2 * n - k - l - 2, n - 2), catalan), (k, l)

    def test_empty_and_zero_orders(self):
        assert exact.factorial_moment(5, {}) == 1
        assert exact.factorial_moment(5, {2: 0}) == 1
        assert exact.factorial_moment(5, {1: 2, 3: 0}) == exact.factorial_moment(5, {1: 2})

    def test_rejects_bad_marks(self):
        with pytest.raises(ValueError, match="need 1 <= l <= n"):
            exact.factorial_moment(3, {0: 1})
        with pytest.raises(ValueError, match="need 1 <= l <= n"):
            exact.factorial_moment(3, {4: 2})
        with pytest.raises(ValueError, match="sizes must lie in 1..n"):
            exact.factorial_moment(3, {1: 1, 4: 1})
        with pytest.raises(ValueError, match="orders must be >= 0"):
            exact.factorial_moment(3, {1: -1})
        with pytest.raises(ValueError, match="orders must be >= 0"):
            exact.factorial_moment(3, {1: 2, 2: -1})


class TestAsymptoticForms:
    def test_variance_leading_terms(self):
        assert exact.asymptotic_var(1, 16) == 3.0
        assert exact.asymptotic_var(1, 1) == 3.0 / 16.0

    def test_covariance_leading_terms(self):
        for l in range(2, 6):
            assert exact.asymptotic_cov(1, l, 1024) == -2.0 * 1024 / 2 ** (l + 4)

    def test_covariance_remainder_bounded(self):
        # exact covariance minus its leading term stays O(1) as n doubles
        remainders = [
            abs(float(exact.covariance(n, 1, 2)) - exact.asymptotic_cov(1, 2, n))
            for n in (256, 512, 1024, 2048)
        ]
        assert all(r < 1.0 for r in remainders)
        assert remainders[-1] < remainders[0] * 2  # no growth with n

    def test_variance_remainder_bounded(self):
        remainders = [
            abs(float(exact.var_blocks_of_size(n, 2)) - exact.asymptotic_var(2, n))
            for n in (256, 512, 1024, 2048)
        ]
        assert all(r < 1.0 for r in remainders)


def _double_loop_blocks_polynomial(n, l):
    """Counting polynomial of size-l blocks by expanding each (q-1)^j term.

    The reference for ``exact.blocks_polynomial``: the same Lagrange
    weights, distributed over the powers of q one binomial at a time.
    """
    acc = [0] * (n // l + 1)
    for j in range(n // l + 1):
        weight = math.comb(n + 1, j) * math.comb(2 * n - j * (l + 1), n - j * l)
        for i in range(j + 1):
            acc[i] += weight * math.comb(j, i) * (-1 if (j - i) % 2 else 1)
    assert all(value % (n + 1) == 0 for value in acc)
    return QPoly([value // (n + 1) for value in acc]).coeffs


def _series_singleton_gf(order):
    """Singleton closed form expanded with ``ExactSeries`` over QPoly.

    The reference for ``exact.singleton_gf_series``: series square root,
    shift and long division on rational polynomial coefficients.
    """
    work = order + 1
    one = QPoly.one()
    zero = QPoly.zero()
    radicand = ExactSeries(
        [one, QPoly((-2, -2)), QPoly((-3, 2, 1))] + [zero] * (work - 2), work
    )
    root = series_sqrt(radicand)
    numerator = [one - root.coefficient(0), QPoly((1, -1)) - root.coefficient(1)]
    numerator += [-root.coefficient(i) for i in range(2, work + 1)]
    shifted = series_shift_down(ExactSeries(numerator, work))
    denominator = ExactSeries([one, QPoly((1, -1))] + [zero] * (order - 1), order)
    series = series_scale(series_divide(shifted, denominator), Fraction(1, 2))
    return [c.coeffs for c in series.coeffs]


class TestUnpack:
    def test_round_trip(self):
        for bits in (1, 7, 8, 13, 64, 65):
            digits = [(i * 2654435761) % (1 << bits) for i in range(17)]
            packed = sum(d << (bits * i) for i, d in enumerate(digits))
            assert exact._unpack(packed, bits, len(digits)) == digits
        assert exact._unpack(0, 5, 3) == [0, 0, 0]

    def test_leftover_above_top_digit_rejected(self):
        with pytest.raises(exact.ConsistencyError):
            exact._unpack(1 << 30, 10, 3)
        with pytest.raises(exact.ConsistencyError):
            exact._unpack((5 << 20) + 3, 10, 2)

    def test_negative_rejected(self):
        with pytest.raises(exact.ConsistencyError):
            exact._unpack(-1, 10, 3)
        # q - q^2 at X = 2^10: a negative top digit makes the value negative
        with pytest.raises(exact.ConsistencyError):
            exact._unpack((1 << 10) - (1 << 20), 10, 3)


class TestBlocksPolynomial:
    def test_frozen_small(self):
        assert exact.blocks_polynomial(3, 1) == (1, 3, 0, 1)
        assert exact.blocks_polynomial(3, 3) == (4, 1)
        assert exact.blocks_polynomial(0, 1) == (1,)

    def test_derivative_identity(self):
        for n, l in ((3, 1), (5, 2), (8, 3)):
            poly = exact.blocks_polynomial(n, l)
            assert Fraction(sum(m * c for m, c in enumerate(poly))) / exact.catalan(n) == \
                exact.mean_blocks_of_size(n, l)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_enumeration(self, n):
        hists = [statistics.block_size_histogram(p) for p in enumerate_nc(n)]
        for l in range(1, n + 1):
            tally = Counter(h[l - 1] for h in hists)
            poly = exact.blocks_polynomial(n, l)
            assert sum(poly) == exact.catalan(n)
            assert all(type(c) is int and c >= 0 for c in poly)
            assert poly[-1] != 0
            for power in range(len(poly)):
                assert poly[power] == tally.get(power, 0), (n, l, power)

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            exact.blocks_polynomial(201, 1)
        exact.blocks_polynomial(201, 1, guard=201)

    def test_matches_double_loop(self):
        for n in range(1, 61):
            for l in range(1, n + 1):
                assert exact.blocks_polynomial(n, l) == \
                    _double_loop_blocks_polynomial(n, l), (n, l)

    def test_non_integral_weights_rejected(self, monkeypatch):
        binom = exact._binom
        monkeypatch.setattr(exact, "_binom", lambda a, b: binom(a, b) + 1)
        for n in range(1, 8):
            with pytest.raises(exact.ConsistencyError, match="not integral"):
                exact.blocks_polynomial(n, 1)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_moments_at_scale(self, l):
        n = 2000
        poly = exact.blocks_polynomial(n, l, guard=n)
        total = exact.catalan(n)
        assert sum(poly) == total
        assert Fraction(sum(m * c for m, c in enumerate(poly)), total) == \
            exact.mean_blocks_of_size(n, l)
        assert Fraction(sum(m * (m - 1) * c for m, c in enumerate(poly)), total) == \
            exact.factorial_moment(n, {l: 2})


class TestJointPolynomial:
    def test_frozen_table(self):
        joint = exact.joint_polynomial(3, 1, 2)
        assert joint.get((3, 0), 0) == 1
        assert joint.get((1, 1), 0) == 3
        assert joint.get((0, 0), 0) == 1
        assert sum(joint.values()) == 5
        assert all(type(c) is int and c for c in joint.values())

    def test_marker_erasure(self):
        for n, k, l in ((3, 1, 2), (6, 2, 3), (7, 1, 4)):
            joint = exact.joint_polynomial(n, k, l)
            erased = [0] * (max(a for a, _ in joint) + 1)
            for (a, _), c in joint.items():
                erased[a] += c
            assert tuple(erased) == exact.blocks_polynomial(n, k)
            assert sum(joint.values()) == exact.catalan(n)

    def test_mixed_derivative_is_cross_moment(self):
        for n, k, l in ((3, 1, 2), (6, 2, 3), (8, 1, 3)):
            joint = exact.joint_polynomial(n, k, l)
            mixed = sum(a * b * c for (a, b), c in joint.items())
            assert Fraction(mixed, exact.catalan(n)) == \
                exact.factorial_moment(n, {k: 1, l: 1})

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_enumeration(self, n):
        hists = [statistics.block_size_histogram(p) for p in enumerate_nc(n)]
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                joint = exact.joint_polynomial(n, k, l)
                table = Counter((h[k - 1], h[l - 1]) for h in hists)
                for key, ways in table.items():
                    assert joint.get(key, 0) == ways


class TestSingletonSeries:
    def test_first_coefficients(self):
        s = exact.singleton_gf_series(12)
        assert len(s) == 13
        assert s[0] == (1,)
        assert s[3] == (1, 3, 0, 1)
        for n in range(1, 13):
            assert s[n] == exact.blocks_polynomial(n, 1)

    def test_catalan_specialization(self):
        s = exact.singleton_gf_series(10)
        for n in range(11):
            assert sum(s[n]) == exact.catalan(n)

    @pytest.mark.parametrize("order", [*range(1, 41), 200])
    def test_matches_exact_series_oracle(self, order):
        assert exact.singleton_gf_series(order) == _series_singleton_gf(order)


def _max_block_series(k, n_max):
    """Series y(z) counting NC partitions with all blocks of size <= k.

    The reference for ``exact.bounded_block_count``: y = z (1 + y + ... +
    y^k) solved degree by degree, as a list of ints; the coefficient of
    z^(n+1) counts the partitions of [n] whose blocks all have size at
    most k.
    """
    y = [0] * (n_max + 1)
    if n_max >= 1:
        y[1] = 1
    # powers[j][d] = coefficient of z^d in y^j, filled degree by degree
    powers = [[0] * (n_max + 1) for _ in range(k + 1)]
    powers[0][0] = 1
    powers[1] = y
    for n in range(2, n_max + 1):
        d = n - 1
        for j in range(2, k + 1):
            total = 0
            prev = powers[j - 1]
            for i in range(1, d - j + 2):
                if y[i] and prev[d - i]:
                    total += y[i] * prev[d - i]
            powers[j][d] = total
        y[n] = sum(powers[j][d] for j in range(1, k + 1))
    return y


class TestMaxBlockSeries:
    def test_frozen_bounded_counts(self):
        series = _max_block_series(2, 8)
        assert series[4] == 4
        assert series[5] == 9

    def test_unconstrained_regime(self):
        series = _max_block_series(9, 9)
        for n in range(9):
            assert series[n + 1] == exact.catalan(n)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_series_matches_closed_form(self, k):
        series = _max_block_series(k, 40)
        for n in range(40):
            assert series[n + 1] == exact.bounded_block_count(n, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_matches_enumeration(self, n):
        largest = [statistics.largest_block(p) for p in enumerate_nc(n)]
        for k in range(1, n + 1):
            want = sum(1 for v in largest if v <= k)
            assert exact.bounded_block_count(n, k) == want

    def test_closed_form_matches_direct_comb_sum(self):
        # independent route: alternating sum with math.comb, no sweep
        import math

        def direct(n, k):
            total = 0
            for j in range(n // (k + 1) + 1):
                a = 2 * n - j * (k + 1)
                total += (-1) ** j * math.comb(n + 1, j) * math.comb(a, n)
            assert total % (n + 1) == 0
            return total // (n + 1)

        for n in (17, 40, 173):
            for k in (1, 2, 5, 11):
                assert exact.bounded_block_count(n, k) == direct(n, k)


def _shared_sweep_counts(n, ks):
    """Bounded-block counts for many k from one descending sweep of binom(a, n).

    The reference for ``exact.bounded_block_counts``: a = 2n..n is visited
    once and every k picks up its terms binom(n+1, j) binom(a, n) at
    a = 2n - j(k+1) as the sweep passes.
    """
    ks = sorted(set(ks))
    if n == 0:
        return {k: 1 for k in ks}
    schedule = {}
    for idx, k in enumerate(ks):
        for j in range(n // (k + 1) + 1):
            schedule.setdefault(2 * n - j * (k + 1), []).append(idx)
    sums = [0] * len(ks)
    next_j = [0] * len(ks)
    running_binom = [1] * len(ks)
    value = math.comb(2 * n, n)
    for a in range(2 * n, n - 1, -1):
        for idx in schedule.get(a, ()):
            j = next_j[idx]
            term = running_binom[idx] * value
            sums[idx] += -term if j % 2 else term
            running_binom[idx] = running_binom[idx] * (n + 1 - j) // (j + 1)
            next_j[idx] = j + 1
        if a > n:
            value = value * (a - n) // a
    out = {}
    for idx, k in enumerate(ks):
        assert sums[idx] % (n + 1) == 0
        out[k] = sums[idx] // (n + 1)
    return out


class TestBoundedBlockCounts:
    def test_matches_shared_sweep_every_k_small_n(self):
        for n in range(201):
            ks = range(1, n + 2)
            assert exact.bounded_block_counts(n, ks) == _shared_sweep_counts(n, ks), n

    def test_matches_shared_sweep_large_n(self):
        ks = range(1, 21)
        assert exact.bounded_block_counts(2048, ks) == _shared_sweep_counts(2048, ks)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            exact.bounded_block_counts(-1, [1])
        with pytest.raises(ValueError):
            exact.bounded_block_counts(5, [0, 1])

    @pytest.mark.parametrize("n, zeros", [(1024, 1), (4096, 2), (8192, 3)])
    def test_walked_table_equals_full_table(self, n, zeros):
        # the walk stops at the first k whose CDF rounds to 0.0; the full
        # table rounds every k from exact counts
        k_hi = n.bit_length() - 1 + 30
        total = exact.catalan(n)
        full = {
            k: float(Fraction(c, total))
            for k, c in _shared_sweep_counts(n, range(1, k_hi + 1)).items()
        }
        walked = harness._exact_largest_block_table(n, k_hi)
        assert list(walked.items()) == list(full.items())
        assert sum(1 for v in full.values() if v == 0.0) == zeros


class TestLargestBlockCdf:
    def test_frozen_values(self):
        assert exact.largest_block_cdf_exact(3, 1) == Fraction(1, 5)
        assert exact.largest_block_cdf_exact(4, 2) == Fraction(9, 14)
        assert exact.largest_block_cdf_exact(3, 3) == 1

    @pytest.mark.parametrize("n", [5, 9, 33])
    def test_is_a_cdf(self, n):
        values = [exact.largest_block_cdf_exact(n, k) for k in range(1, n + 1)]
        assert all(0 <= v <= 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1


class TestNegativeCorrelationSweep:
    def test_all_negative_up_to_32(self):
        for n in range(2, 33):
            for k in range(1, n):
                for l in range(k + 1, n - k + 1):
                    assert exact.covariance(n, k, l) < 0, (n, k, l)


class TestInternalConsistency:
    def test_product_vs_binomial_forms_stress(self):
        # the internal cross-check must hold far beyond the enumeration range
        for n in (50, 137, 500):
            for l in (1, 2, 7, n // 2, n):
                exact.mean_blocks_of_size(n, l)
