from fractions import Fraction

import pytest

from series_ops import ExactSeries, QPoly, series_divide, series_shift_down, series_sqrt


class TestQPoly:
    def test_normalization(self):
        assert QPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
        assert not QPoly((0, 0))
        assert QPoly(()).degree == -1

    def test_arithmetic(self):
        q = QPoly((0, 1))
        p = (q + 1) * (q - 1)
        assert p == QPoly((-1, 0, 1))
        assert p - p == QPoly.zero()
        assert q * 2 == QPoly((0, 2))
        assert q * Fraction(1, 2) == QPoly((0, Fraction(1, 2)))

    def test_scalar_equality(self):
        assert QPoly((5,)) == 5
        assert QPoly.one() == 1
        assert QPoly.zero() == 0

    def test_getitem_beyond_degree(self):
        assert QPoly((1,))[10] == 0


class TestExactSeries:
    def test_coefficient_bounds(self):
        s = ExactSeries([Fraction(1), Fraction(2)])
        assert s.coefficient(1) == 2
        with pytest.raises(IndexError):
            s.coefficient(2)

    def test_mul_truncates_to_min_order(self):
        a = ExactSeries([Fraction(1)] * 5)
        b = ExactSeries([Fraction(1)] * 3)
        assert (a * b).order == 2
        assert (a * b).coeffs == [Fraction(1), Fraction(2), Fraction(3)]

    def test_sqrt_squares_back(self):
        # sqrt(1 - 4z) has the shifted Catalan coefficients
        coeffs = [Fraction(1), Fraction(-4)] + [Fraction(0)] * 10
        root = series_sqrt(ExactSeries(coeffs))
        assert root.coeffs[:4] == [Fraction(1), Fraction(-2), Fraction(-2), Fraction(-4)]
        squared = root * root
        assert squared.coeffs == ExactSeries(coeffs).coeffs

    def test_sqrt_random_series_squares_back(self):
        coeffs = [Fraction(1), Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(-5, 7)]
        coeffs += [Fraction(0)] * 6
        s = ExactSeries(coeffs)
        root = series_sqrt(s)
        assert (root * root).coeffs == s.coeffs

    def test_sqrt_requires_unit_constant(self):
        with pytest.raises(ValueError):
            series_sqrt(ExactSeries([Fraction(2), Fraction(1)]))

    def test_invert_and_divide(self):
        one = ExactSeries([Fraction(1)] + [Fraction(0)] * 7)
        # the reciprocal of 1 - z is the geometric series
        one_minus_z = ExactSeries([Fraction(1), Fraction(-1)] + [Fraction(0)] * 6)
        assert series_divide(one, one_minus_z).coeffs == [Fraction(1)] * 8
        ratio = series_divide(one, ExactSeries([Fraction(2), Fraction(-2)] + [Fraction(0)] * 6))
        assert ratio.coeffs == [Fraction(1, 2)] * 8

    def test_divide_round_trip(self):
        a = ExactSeries([Fraction(1), Fraction(5), Fraction(-2), Fraction(7)] + [Fraction(0)] * 4)
        b = ExactSeries([Fraction(1), Fraction(-3), Fraction(2), Fraction(1)] + [Fraction(0)] * 4)
        assert (series_divide(a, b) * b).coeffs == a.coeffs

    def test_shift_down(self):
        s = ExactSeries([Fraction(0), Fraction(4), Fraction(9)])
        assert series_shift_down(s).coeffs == [Fraction(4), Fraction(9)]
        with pytest.raises(ValueError):
            series_shift_down(ExactSeries([Fraction(1)]))

    def test_polynomial_coefficients(self):
        q = QPoly((0, 1))
        s = ExactSeries([QPoly.one(), q, QPoly.zero()])
        sq = s * s
        assert sq.coefficient(1) == q * 2
        assert sq.coefficient(2) == q * q
