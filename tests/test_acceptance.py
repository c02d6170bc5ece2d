"""Acceptance gate: one test per verification criterion.

The module runs ``acceptance.run_all`` once, through the same wiring as
``verify-all``: criteria 3-7 judge one declared set of requests,
``acceptance.MONTE_CARLO_REQUESTS``, drawn in one sampling pass per
distinct (n, samples, seed).  Every test asserts that its criterion
passed at the tolerances pinned in ``tolerances.json`` and that its line
equals the one pinned below (``verify-all --threads 2`` prints exactly
these lines).  Print them with ``pytest -s``.

Criterion 6b checks the largest block against the exact law, not against
the declared 5% budget: at n = 2^14 the exact law itself puts 6.06% of the
mass outside the (1 +- 0.25) log2 n window (the exact mass plateaus at
0.1171-0.1314 for n = 2^8..2^11 and 0.0600-0.0608 for n = 2^12..2^15, and
first drops below 5% at n = 2^16, 0.0307).  It asserts that the sampled
fraction outside lies within 3 standard errors of the exact mass, that the
report's total-variation and approximation-gap checks hold, and that the
exact mass falls from n to 16 n for n = 2^4..2^11.  The ``largest-block``
CLI report keeps the budget check and exits 1 at its documented sizes.
See README.
"""

from types import SimpleNamespace

import pytest

from noncrossing import acceptance, harness

THREADS = 2

PINNED_LINES = (
    (
        "[PASS] criterion 1: exact-enumeration reconciliation -- "
        "all formulas match enumeration exactly for n <= 10"
    ),
    (
        "[PASS] criterion 2: bijection round trips and statistic transport -- "
        "all bijections inverse and statistics transported for n <= 10"
    ),
    (
        "[PASS] criterion 3: Gaussian limits for block counts -- "
        "clt-blocks ks=0.0148, clt-size-1 ks=0.0124, clt-size-2 ks=0.0162, clt-size-3 ks=0.0237"
    ),
    (
        "[PASS] criterion 4: geometric block-size profile -- "
        "relative deviations l=1: +0.088%, l=2: +0.061%, l=3: +0.069%, l=4: +0.045%"
    ),
    (
        "[PASS] criterion 5: negative correlation of size counts -- "
        "all exact covariances negative (n <= 64); empirical -30.207 vs exact -31.297 (se 0.440)"
    ),
    (
        "[PASS] criterion 6a: double-exponential approximation gap shrinks -- "
        "max |exact - approx| = 256: 0.01836, 1024: 0.00669, 4096: 0.00234"
    ),
    (
        "[PASS] criterion 6b: largest-block concentration against the exact law -- "
        "fraction outside (1 +- 0.25) log2 n: observed 0.0591, exact 0.0606 (-2.05 σ), "
        "budget 0.05 not met by the exact law at n=16384"
    ),
    (
        "[PASS] criterion 7: width law (Theta distribution) -- "
        "mean 87.64 vs 87.87, tail@1.0 0.9956 vs 0.9964"
    ),
    (
        "[PASS] criterion 8: singularity analysis -- "
        "residuals < 1e-13 for k <= 64; expansions at k=30 within x1.01; "
        "slopes exact to 1e-06; rate error 7.57e-07"
    ),
    (
        "[PASS] criterion 9: singleton generating-function closed form -- "
        "closed form matches counting polynomials exactly up to order 200"
    ),
)


@pytest.fixture(scope="module")
def plan():
    """One ``run_all``, recording every sampling pass it makes."""
    calls = []
    original = harness.map_sample_statistics

    def counting(n, samples, seed, kernels, threads=1):
        calls.append(((n, samples, seed), sorted(kernels)))
        return original(n, samples, seed, kernels, threads)

    lines = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "map_sample_statistics", counting)
        results = acceptance.run_all(threads=THREADS, printer=lines.append)
    for line in lines:
        print(line)
    return SimpleNamespace(results=results, lines=lines, calls=calls)


def _check(plan, index, criterion):
    result, line = plan.results[index], plan.lines[index]
    assert result.criterion == criterion
    assert result.passed, line
    assert line == PINNED_LINES[index]


def test_run_all_samples_each_declared_sample_once(plan):
    assert len(plan.calls) == 4
    declared = {
        (r.cfg["n"], r.cfg["samples"], r.cfg["seed"]) for r in acceptance.MONTE_CARLO_REQUESTS
    }
    assert {sample for sample, _ in plan.calls} == declared
    # criteria 3 and 4 share n = 2000, 10^5 paths, seed 0
    assert dict(plan.calls)[(2000, 100_000, 0)] == [("blocks",)] + [
        ("size", l) for l in range(1, 5)
    ]


def test_criterion_1_exact_reconciliation(plan):
    _check(plan, 0, "1")


def test_criterion_2_bijections(plan):
    _check(plan, 1, "2")


def test_criterion_3_gaussian_limits(plan):
    _check(plan, 2, "3")


def test_criterion_4_geometric_profile(plan):
    _check(plan, 3, "4")


def test_criterion_5_negative_correlation(plan):
    _check(plan, 4, "5")


def test_criterion_6a_largest_block_gap(plan):
    _check(plan, 5, "6a")


def test_criterion_6b_largest_block_concentration(plan):
    _check(plan, 6, "6b")


def test_criterion_7_width_law(plan):
    _check(plan, 7, "7")


def test_criterion_8_singularity_analysis(plan):
    _check(plan, 8, "8")


def test_criterion_9_singleton_closed_form(plan):
    _check(plan, 9, "9")


def test_criterion_8_enforces_the_declared_residual_bound(monkeypatch):
    # the line prints residual_max from tolerances.json; a bound below the
    # solver's residuals must fail the criterion
    tight = {**acceptance._CFG["singularity"], "residual_max": 1e-200}
    monkeypatch.setitem(acceptance._CFG, "singularity", tight)
    result = acceptance.check_singularity()
    assert not result.passed
    assert "residual" in result.detail and "above 1e-200" in result.detail
