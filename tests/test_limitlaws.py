import math
from fractions import Fraction

import mpmath as mp
import pytest

from noncrossing import exact, limitlaws


def erf_series(x):
    """Independent Maclaurin evaluation of erf for |x| <= 3."""
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18 and k < 200:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


class TestNormalCdf:
    def test_symmetry_point(self):
        assert limitlaws.std_normal_cdf(0.0) == 0.5

    def test_symmetry_identity_grid(self):
        for x in (-3.0, -1.7, -0.4, 0.9, 2.5):
            assert limitlaws.std_normal_cdf(x) + limitlaws.std_normal_cdf(-x) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_against_independent_series(self):
        for x in (-2.0, -1.0, -0.25, 0.5, 1.0, 1.959964, 2.75):
            independent = 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))
            assert limitlaws.std_normal_cdf(x) == pytest.approx(independent, abs=1e-12)

    def test_upper_quantile(self):
        assert limitlaws.std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            limitlaws.std_normal_cdf(float("nan"))


class TestThetaTail:
    def test_value_at_one(self):
        # direct summation oracle: j <= 10 is far past the cutoff
        direct = sum(
            math.exp(-(j * j)) * (4 * j * j - 2) for j in range(1, 11)
        )
        assert limitlaws.theta_tail(1.0) == pytest.approx(direct, abs=1e-12)
        assert limitlaws.theta_tail(1.0) == pytest.approx(0.99639, abs=5e-5)

    def test_decay_at_six(self):
        assert limitlaws.theta_tail(6.0) < 1e-12

    def test_bounded_and_monotone(self):
        assert 0.0 < limitlaws.theta_tail(0.5) <= 1.0
        assert limitlaws.theta_tail(0.5) >= limitlaws.theta_tail(1.0)
        grid = [0.3 + 0.1 * i for i in range(58)]
        values = [limitlaws.theta_tail(x) for x in grid]
        # near zero the tail saturates to 1 within double resolution, so
        # demand strict decrease only once the drop is resolvable
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        resolvable = [v for x, v in zip(grid, values) if x >= 0.8]
        assert all(a > b for a, b in zip(resolvable, resolvable[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_domain(self):
        with pytest.raises(ValueError):
            limitlaws.theta_tail(0.0)
        with pytest.raises(ValueError):
            limitlaws.theta_tail(-1.0)


class TestWidthMoments:
    def test_zeta_constants(self):
        assert limitlaws.zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert limitlaws.zeta(4.0) == pytest.approx(math.pi**4 / 90, abs=1e-10)
        assert limitlaws.zeta(3.0) == pytest.approx(1.2020569031595942, abs=1e-10)
        assert math.gamma(1.0) == 1.0 and math.gamma(2.0) == 1.0

    def test_second_moment_value(self):
        assert limitlaws.width_moment(2, 4) == pytest.approx(2 * (math.pi**2 / 6), rel=1e-12)
        assert limitlaws.width_moment(2, 10_000) == pytest.approx(
            math.pi**2 / 12 * 10_000, rel=1e-12
        )

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            limitlaws.width_moment(1, 100)

    def test_mean_width(self):
        assert limitlaws.mean_width_asymptotic(10_000) == pytest.approx(87.87, abs=0.01)
        assert limitlaws.mean_width_asymptotic(100) == pytest.approx(8.11, abs=0.01)
        values = [limitlaws.mean_width_asymptotic(n) for n in (10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestLargestBlockApprox:
    def test_power_of_two_values(self):
        assert limitlaws.largest_block_cdf_approx(1024, 10) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )
        assert limitlaws.largest_block_cdf_approx(1024, 20) == pytest.approx(
            math.exp(-(2.0**-11)), rel=1e-12
        )

    def test_monotone_in_k(self):
        for n in (100, 1024, 5000):
            values = [limitlaws.largest_block_cdf_approx(n, k) for k in range(1, 40)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_alpha_in_unit_interval(self):
        for n in (2, 3, 1023, 1025, 4097):
            exponent = n.bit_length() - 1
            alpha = n / (1 << exponent)
            assert 1.0 <= alpha < 2.0


class TestCharacteristicSolver:
    @pytest.mark.parametrize("k", [1, 2, 5, 17, 40, 64])
    def test_residuals_and_box(self, k):
        report = limitlaws.solve_characteristic_maxblock(k)
        assert abs(report.residual_fixed_point) < 1e-13
        assert abs(report.residual_tangency) < 1e-13
        assert 0.0 < report.z0 < 1.0 and 0.0 < report.y0 <= 1.0
        if k >= 3:
            assert report.y0 < 1.0
        if k >= 2:
            assert report.gamma > 0.0

    def test_large_k_expansions(self):
        report = limitlaws.solve_characteristic_maxblock(30)
        assert report.y0_minus_half == pytest.approx(31 / 2**33, rel=0.01)
        assert report.z0_minus_quarter == pytest.approx(2.0**-33, rel=0.01)
        assert report.gamma == pytest.approx(0.5, rel=0.01)

    def test_k2_is_the_motzkin_branch_point(self):
        # blocks of size <= 2 are counted by the Motzkin numbers: branch
        # point (1/3, 1) with gamma = sqrt(3)
        report = limitlaws.solve_characteristic_maxblock(2)
        assert report.z0 == pytest.approx(1 / 3, abs=1e-15)
        assert report.y0 == 1.0
        assert report.gamma == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_k1_degenerate_family(self):
        # a single partition per size: tangency lands on (1/2, 1) with no
        # square-root branch
        report = limitlaws.solve_characteristic_maxblock(1)
        assert report.z0 == 0.5 and report.y0 == 1.0 and report.gamma == 0.0

    @pytest.mark.parametrize("k", [3, 5, 9, 20])
    def test_gamma_matches_quotient_form(self, k):
        report = limitlaws.solve_characteristic_maxblock(k)
        z0, y0 = report.z0, report.y0
        p_z = 1 - y0 ** (k + 1)
        p_yy = 2 - k * (k + 1) * z0 * y0 ** (k - 1)
        assert report.gamma == pytest.approx(math.sqrt(2 * z0 * p_z / p_yy), rel=1e-9)


def marked_rho(l, q, nesting):
    """Branch point rho(q) of H = H^2 + z (1 + (q-1)(H^l + nesting H^(l+1))).

    nesting = +1 is criterion 8's system; nesting = -1 is the size-l
    marked counting GF, whose nesting sits inside the marked block.
    """
    with mp.workdps(40):
        c = mp.mpf(q) - 1
        return float(limitlaws._branch_point({l: c, l + 1: nesting * c}, f"l={l}")[1])


def variability_at_one(l, *, step=1e-5):
    """Variability V[rho(1)/rho(q)] at q = 1, by finite differences.

    V[B] = B''(1) + B'(1) - B'(1)^2 with B(q) = rho(1)/rho(q), evaluated
    on the singularity of the marked counting GF; positive V is the
    second-order condition behind the Gaussian limit for size-l counts.
    (B'(1) here is also the geometric profile rate 2^-(l+1).)
    """
    with mp.workdps(50):
        h = mp.mpf(step)
        quarter = mp.mpf(1) / 4

        def b(q):
            c = mp.mpf(q) - 1
            return quarter / limitlaws._branch_point({l: c, l + 1: -c}, f"l={l}")[1]

        b_up, b_dn = b(1 + float(h)), b(1 - float(h))
        first = (b_up - b_dn) / (2 * h)
        second = (b_up - 2 + b_dn) / (h * h)
        return float(second + first - first * first)


class TestMovingSingularity:
    def test_unmarked_value(self):
        # criterion 8's system and the counting GF both reduce to Catalan at q = 1
        for nesting in (1, -1):
            assert marked_rho(1, 1.0, nesting) == 0.25
            assert marked_rho(3, 1.0, nesting) == 0.25

    def test_moves_down_above_one(self):
        for l in (1, 2, 3):
            assert marked_rho(l, 1.05, 1) < 0.25

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_slope(self, l):
        slope = limitlaws.singularity_slope_at_one(l)
        assert abs(slope - (-3.0 / 2 ** (3 + l))) < 1e-6

    def test_gf_singularity_exact_law_for_singletons(self):
        # the marked counting GF for singletons has singularity 1/(q+3)
        for q in (0.85, 0.95, 1.0, 1.1, 1.2):
            assert marked_rho(1, q, -1) == pytest.approx(1.0 / (q + 3.0), abs=1e-14)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_gf_slope_matches_geometric_rate(self, l):
        h = 1e-5
        slope = (marked_rho(l, 1 + h, -1) - marked_rho(l, 1 - h, -1)) / (2 * h)
        # -rho'(1)/rho(1) equals the per-element mean 2^-(l+1)
        assert -slope / 0.25 == pytest.approx(2.0 ** -(l + 1), rel=1e-4)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_variability_positive(self, l):
        assert variability_at_one(l) > 0.0

    def test_variability_exact_for_singletons(self):
        # B(q) = (q+3)/4 gives V = 1/4 - 1/16 exactly
        assert variability_at_one(1) == pytest.approx(3.0 / 16.0, abs=1e-5)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_variability_matches_closed_form_variance(self, l):
        # the leading variance of the size-l count is n V
        assert variability_at_one(l) == pytest.approx(exact.asymptotic_var(l, 1), abs=1e-6)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_exact_growth_follows_the_counting_gf(self, l):
        # Count_n(q) ~ C n^(-3/2) rho(q)^(-n): the ratio of consecutive
        # exact values, with the n^(-3/2) factor taken out, is 1/rho(q)
        q, n = Fraction(11, 10), 160

        def count(size):
            return sum(c * q**m for m, c in enumerate(exact.blocks_polynomial(size, l)))

        growth = float(count(n) / count(n - 1)) * (n / (n - 1)) ** 1.5
        assert growth == pytest.approx(1.0 / marked_rho(l, 1.1, -1), rel=1e-3)
        # criterion 8's system grows at a different rate
        assert abs(growth * marked_rho(l, 1.1, 1) - 1.0) >= 0.01


class TestCountFit:
    def test_rate_and_exponent(self):
        fit = limitlaws.asymptotic_count_check(5, 400)
        assert fit.rate_relative_error < 1e-3
        assert fit.fitted_exponent == pytest.approx(-1.5, abs=0.05)

    def test_catalan_regime(self):
        fit = limitlaws.asymptotic_count_check(120, 100)
        assert fit.fitted_rate == pytest.approx(4.0, rel=1e-3)
        assert fit.reference_rate == pytest.approx(4.0, rel=1e-6)

    def test_constant_close_to_transfer_prediction(self):
        # the constant is report-only: its estimate absorbs the exponent
        # fit error amplified by log n, so the band is loose -- it still
        # rules out a wrong prefactor shape (factors of pi or n)
        fit = limitlaws.asymptotic_count_check(5, 400)
        assert fit.fitted_constant == pytest.approx(fit.predicted_constant, rel=0.25)

    def test_motzkin_family_constant(self):
        # k = 2 exercises the boundary branch point end to end
        fit = limitlaws.asymptotic_count_check(2, 400)
        assert fit.fitted_rate == pytest.approx(3.0, rel=1e-4)
        assert fit.fitted_constant == pytest.approx(fit.predicted_constant, rel=0.25)
