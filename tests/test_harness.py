import json
import math
from fractions import Fraction

import numpy as np
import pytest

import goodness_of_fit as gof
from noncrossing import harness, limitlaws, statistics
from noncrossing.sampling import RngState
from noncrossing.structures import enumerate_nc


class TestKsDistance:
    def test_constant_sample_against_normal(self):
        assert harness.ks_distance([0.0], limitlaws.std_normal_cdf) == pytest.approx(0.5)

    def test_quantile_construction(self):
        size = 999
        quantiles = [gof.normal_quantile((i + 1) / (size + 1)) for i in range(size)]
        d = harness.ks_distance(quantiles, limitlaws.std_normal_cdf)
        assert d <= 1.0 / (size + 1) + 1e-9

    def test_genuine_normal_sample(self):
        draws = np.random.Generator(np.random.Philox(key=[1, 0])).standard_normal(100_000)
        assert harness.ks_distance(draws, limitlaws.std_normal_cdf) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            harness.ks_distance([], limitlaws.std_normal_cdf)

    def test_lattice_ties_handled(self):
        # half the mass at -1, half at +1 against the standard normal
        d = harness.ks_distance([-1.0] * 50 + [1.0] * 50, limitlaws.std_normal_cdf)
        expected = 0.5 - limitlaws.std_normal_cdf(-1.0)
        assert d == pytest.approx(expected, abs=1e-12)


class TestChiSquare:
    def test_statistic(self):
        assert gof.chi_square_statistic([5, 5], [5, 5]) == 0.0
        assert gof.chi_square_statistic([6, 4], [5, 5]) == pytest.approx(0.4)

    def test_critical_values(self):
        # classic table entries at the 0.1% level; the cube-root
        # approximation overshoots slightly at tiny df, which only makes
        # the uniformity tests more conservative
        assert gof.chi_square_critical(1, 1e-3) == pytest.approx(10.83, rel=0.04)
        assert gof.chi_square_critical(10, 1e-3) == pytest.approx(29.59, rel=0.01)
        assert gof.chi_square_critical(1, 1e-3) > 10.83

    def test_quantile_inverse(self):
        for p in (0.001, 0.5, 0.975, 0.999):
            x = gof.normal_quantile(p)
            assert limitlaws.std_normal_cdf(x) == pytest.approx(p, abs=1e-9)


class TestSamplingLoop:
    def test_thread_count_does_not_change_results(self):
        kernels = {"blocks": statistics.batch_num_blocks}
        seq = harness.map_sample_statistics(60, 10_000, 3, kernels, threads=1)
        par = harness.map_sample_statistics(60, 10_000, 3, kernels, threads=4)
        assert (seq["blocks"] == par["blocks"]).all()

    def test_sample_count(self):
        out = harness.map_sample_statistics(
            10, 5000, 0, {"w": statistics.batch_width}, threads=2
        )
        assert out["w"].shape == (5000,)


class TestMonteCarloAgainstEnumeration:
    """Sampled statistics must reconcile with exhaustive enumeration."""

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10])
    def test_agreement_within_four_standard_errors(self, n):
        samples = 1_000_000
        kernels = {
            "blocks": statistics.batch_num_blocks,
            "largest": statistics.batch_largest_block,
            "width": statistics.batch_width,
            "singles": lambda s: statistics.batch_count_blocks_of_size(s, 1),
        }
        got = harness.map_sample_statistics(n, samples, 17, kernels, threads=2)
        partitions = list(enumerate_nc(n))
        count = len(partitions)

        def population(values):
            mean = sum(values) / count
            var = sum(v * v for v in values) / count - mean * mean
            return mean, var

        checks = {
            "blocks": population([statistics.num_blocks(p) for p in partitions]),
            "largest": population([statistics.largest_block(p) for p in partitions]),
            "width": population([statistics.width(p) for p in partitions]),
            "singles": population(
                [statistics.block_size_histogram(p)[0] for p in partitions]
            ),
        }
        for name, (mean, var) in checks.items():
            se = math.sqrt(var / samples) if var else 1e-9
            assert abs(float(got[name].mean()) - mean) < 4 * se, name


def run_one(experiment, n, samples, seed, params=None, threads=1, **overrides):
    """One request; ``overrides`` replace entries of the experiment's section."""
    cfg = None
    if overrides:
        section = harness.EXPERIMENTS[experiment].section
        cfg = {**harness.load_tolerances()[section], **overrides}
    [rep] = harness.run_experiments(
        n, samples, seed, [harness.Request(experiment, params or {}, cfg)], threads=threads
    )
    return rep


class TestExperiments:
    """Scaled-down experiment runs; the full-size gates live in the
    acceptance suite."""

    def test_clt_blocks_small(self):
        rep = run_one("clt-blocks", 300, 20_000, 1, threads=2, ks_max=0.06)
        assert rep.passed, rep.to_json()
        assert rep.reference["mean"]["provenance"] == "exact"

    def test_clt_size_small(self):
        rep = run_one("clt-size", 300, 20_000, 1, {"l": 2}, threads=2, ks_max=0.08)
        assert rep.checks["ks_below_threshold"], rep.to_json()

    def test_negative_correlation_small(self):
        rep = run_one("covariance", 200, 40_000, 5, {"k": 1, "l": 2}, threads=2)
        assert rep.passed, rep.to_json()

    def test_largest_block_tv_full_scale(self):
        cfg = harness.load_tolerances()["largest_block_tv"]
        rep = run_one("largest-block", cfg["n"], cfg["samples"], cfg["seed"], threads=2)
        assert rep.checks["total_variation_below_threshold"], rep.to_json()
        assert rep.observed["total_variation_vs_exact"] < cfg["tv_max"]
        assert rep.checks["approximation_within_error_order"]

    def test_width_small(self):
        # finite-size bias of the second moment is O(1/sqrt(n)), roughly
        # 10% at n = 400; the tight tolerance is exercised at full scale
        rep = run_one(
            "width",
            400,
            20_000,
            2,
            threads=2,
            mean_rel_tol=0.05,
            tail_abs_tol=0.03,
            second_moment_rel_tol=0.15,
        )
        assert rep.passed, rep.to_json()

    def test_report_json_round_trip(self):
        rep = run_one("clt-blocks", 64, 4000, 0, ks_max=0.2)
        payload = json.loads(rep.to_json())
        assert payload["schema"] == 1
        assert payload["experiment_id"] == "clt-blocks"
        assert set(payload["checks"]) == set(rep.checks)

    @pytest.mark.xfail(
        strict=True,
        reason="known fault, ROADMAP 11a: the total-variation check is a numpy "
        "bool, which to_json writes as the string 'True' or 'False'",
    )
    def test_report_json_checks_are_booleans(self):
        rep = harness.run_experiments(256, 2000, 0, [harness.Request("largest-block")])[0]
        checks = json.loads(rep.to_json())["checks"]
        assert all(isinstance(value, bool) for value in checks.values()), checks

    def test_reports_are_reproducible(self):
        a = run_one("clt-blocks", 100, 5000, 9, ks_max=0.2)
        b = run_one("clt-blocks", 100, 5000, 9, ks_max=0.2)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "experiment, n, params",
        [
            ("clt-blocks", 1, {}),
            ("clt-size", 10, {"l": 10}),
            ("covariance", 10, {"k": 2, "l": 2}),
            ("largest-block", 3, {}),
            ("width", 15, {}),
        ],
    )
    def test_invalid_input_rejected_before_sampling(self, experiment, n, params, monkeypatch):
        monkeypatch.setattr(harness, "map_sample_statistics", None)
        with pytest.raises(ValueError):
            run_one(experiment, n, 100, 0, params)


class TestRunExperiments:
    CRITERION_3 = [harness.Request("clt-blocks")] + [
        harness.Request("clt-size", {"l": l}) for l in (1, 2, 3)
    ]

    def test_joint_run_matches_single_runs(self):
        joint = harness.run_experiments(300, 6000, 4, self.CRITERION_3, threads=2)
        singles = [
            harness.run_experiments(300, 6000, 4, [request])[0]
            for request in self.CRITERION_3
        ]
        assert [r.to_json() for r in joint] == [r.to_json() for r in singles]

    def test_one_sampling_pass_over_distinct_kernels(self, monkeypatch):
        calls = []
        original = harness.map_sample_statistics

        def counting(n, samples, seed, kernels, threads=1):
            calls.append(sorted(kernels))
            return original(n, samples, seed, kernels, threads)

        monkeypatch.setattr(harness, "map_sample_statistics", counting)
        requests = self.CRITERION_3 + [
            harness.Request("geometric-profile"),
            harness.Request("covariance", {"k": 1, "l": 2}),
        ]
        reports = harness.run_experiments(200, 2000, 0, requests)
        assert len(reports) == len(requests)
        assert calls == [[("blocks",)] + [("size", l) for l in range(1, 5)]]


class TestLargestBlockGap:
    def test_gap_structure(self):
        gap = harness.largest_block_exact_vs_approx(256, 5)
        assert gap["within_bound"]
        center = 8
        assert gap["ks"] == list(range(center - 5, center + 6))


class TestLargestBlockOutsideMass:
    @pytest.mark.parametrize("epsilon", [0.25, 0.5])
    @pytest.mark.parametrize("n", range(4, 11))
    def test_matches_enumeration(self, n, epsilon):
        partitions = list(enumerate_nc(n))
        outside = sum(
            1
            for p in partitions
            if abs(statistics.largest_block(p) / math.log2(n) - 1.0) > epsilon
        )
        assert harness.largest_block_outside_mass(n, epsilon) == Fraction(
            outside, len(partitions)
        )

    def test_value_at_criterion_6b_size(self):
        # the exact mass the README quotes against the 5% budget
        mass = harness.largest_block_outside_mass(2**14, 0.25)
        assert abs(float(mass) - 0.060635) < 1e-6


class TestWidthTailFiniteSize:
    def test_enumerated_tail_converges_to_theta(self):
        # at n = 10 the integer threshold (W >= 2) keeps the exact tail
        # far from the limit value: the gap is 0.245, not yet inside any
        # tight band.  Pin the exact number and check the gap shrinks at
        # moderate n, where sampling is the only available oracle.
        theta = limitlaws.theta_tail(1.0)
        widths = [statistics.width(p) for p in enumerate_nc(10)]
        exact_tail = sum(1 for w in widths if w >= math.sqrt(10) / 2) / len(widths)
        assert exact_tail == pytest.approx(0.751072, abs=1e-6)
        gap_small = abs(exact_tail - theta)
        assert 0.24 < gap_small < 0.25
        rep = run_one("width", 400, 20_000, 2, threads=2)
        gap_moderate = abs(rep.observed["tails"]["1.0"] - theta)
        assert gap_moderate < 0.15 < gap_small


class TestWidthProcess:
    def test_row_count_and_bounds(self):
        rows = harness.export_width_process(200, 3)
        assert len(rows) == 199
        assert all(w >= 0 for _, w in rows)
        assert rows[0][1] <= 1  # only the block containing 1 can span the first gap

    def test_reproducible(self):
        assert harness.export_width_process(50, 4) == harness.export_width_process(50, 4)

    def test_matches_sampled_partition(self):
        from noncrossing.sampling import sample_nc_partition

        rows = harness.export_width_process(64, 8)
        pi = sample_nc_partition(64, RngState(8, 0))
        assert [w for _, w in rows] == statistics.width_profile(pi)
