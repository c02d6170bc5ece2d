"""End-to-end verification suite: every advertised law, one pass/fail line.

Criteria 1-2 and 9 are exact (zero tolerance).  The Monte Carlo criteria
3-7 judge the reports of ``MONTE_CARLO_REQUESTS``, drawn once per declared
(n, samples, seed) of tolerances.json.  ``run_all`` powers the
``verify-all`` CLI subcommand and the acceptance test module.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import bijections, exact, harness, limitlaws, statistics, structures

_CFG = harness.load_tolerances()

EXACT_RECONCILIATION_MAX_N = 10
BIJECTION_MAX_N = 10
SINGLETON_SERIES_ORDER = 200
# at eps = 1/4 the window's upper edge floor(1.25 log2 n) moves once every
# four doublings, so the exact outside mass plateaus over a factor of 16
CONCENTRATION_DECAY_FACTOR = 16


@dataclass
class CriterionResult:
    criterion: str
    description: str
    passed: bool
    detail: str


def _fail_detail(failures: list[str], ok_note: str) -> tuple[bool, str]:
    if failures:
        return False, "; ".join(failures[:8]) + (" ..." if len(failures) > 8 else "")
    return True, ok_note


# ---------------------------------------------------------------------------
# criterion 1: exact formulas reconcile with exhaustive enumeration


def check_exact_reconciliation(max_n: int = EXACT_RECONCILIATION_MAX_N) -> CriterionResult:
    failures: list[str] = []
    for n in range(max_n + 1):
        partitions = list(structures.enumerate_nc(n))
        count = len(partitions)
        if count != exact.catalan(n):
            failures.append(f"count({n}) = {count} != catalan")
        if sum(1 for _ in structures.enumerate_dyck(n)) != exact.catalan(n):
            failures.append(f"path count({n}) != catalan")
        if n == 0:
            continue
        hists = [statistics.block_size_histogram(p) for p in partitions]
        blocks = [statistics.num_blocks(p) for p in partitions]
        mean = Fraction(sum(blocks), count)
        second = Fraction(sum(b * b for b in blocks), count)
        if mean != exact.mean_blocks(n):
            failures.append(f"mean({n})")
        if second - mean * mean != exact.var_blocks_total(n):
            failures.append(f"variance({n})")
        largest = [statistics.largest_block(p) for p in partitions]
        for k in range(1, n + 1):
            cdf = Fraction(sum(1 for v in largest if v <= k), count)
            if cdf != exact.largest_block_cdf_exact(n, k):
                failures.append(f"largest cdf({n},{k})")
        for l in range(1, n + 1):
            tally = Counter(h[l - 1] for h in hists)
            poly = exact.blocks_polynomial(n, l)
            for power in range(max(tally) + 1):
                if (poly[power] if power < len(poly) else 0) != tally.get(power, 0):
                    failures.append(f"blocks poly({n},{l}) at q^{power}")
                    break
            mean_l = Fraction(sum(h[l - 1] for h in hists), count)
            if mean_l != exact.mean_blocks_of_size(n, l):
                failures.append(f"mean size({n},{l})")
            fact2 = Fraction(sum(h[l - 1] * (h[l - 1] - 1) for h in hists), count)
            if fact2 != exact.factorial_moment(n, {l: 2}):
                failures.append(f"second factorial({n},{l})")
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k == l:
                    continue
                cross = Fraction(sum(h[k - 1] * h[l - 1] for h in hists), count)
                if cross != exact.factorial_moment(n, {k: 1, l: 1}):
                    failures.append(f"cross({n},{k},{l})")
                cov = cross - Fraction(sum(h[k - 1] for h in hists), count) * Fraction(
                    sum(h[l - 1] for h in hists), count
                )
                if cov != exact.covariance(n, k, l):
                    failures.append(f"covariance({n},{k},{l})")
                joint = exact.joint_polynomial(n, k, l)
                table = Counter((h[k - 1], h[l - 1]) for h in hists)
                for key, ways in table.items():
                    if joint.get(key, 0) != ways:
                        failures.append(f"joint({n},{k},{l}) at {key}")
                        break
                if sum(joint.values()) != exact.catalan(n):
                    failures.append(f"joint total({n},{k},{l})")
    passed, detail = _fail_detail(
        failures, f"all formulas match enumeration exactly for n <= {max_n}"
    )
    return CriterionResult("1", "exact-enumeration reconciliation", passed, detail)


# ---------------------------------------------------------------------------
# criterion 2: bijections are inverse and transport statistics


def check_bijections(max_n: int = BIJECTION_MAX_N) -> CriterionResult:
    failures: list[str] = []
    for n in range(max_n + 1):
        for path in structures.enumerate_dyck(n):
            pi = bijections.dyck_to_partition(path)
            if bijections.partition_to_dyck(pi) != path:
                failures.append(f"partition round trip {path.to_text()}")
            tree = bijections.dyck_to_planar_tree(path)
            if bijections.planar_tree_to_dyck(tree) != path:
                failures.append(f"plane tree round trip {path.to_text()}")
            if tree.vertex_count() != n + 1:
                failures.append(f"plane tree size {path.to_text()}")
            btree = bijections.dyck_to_binary_tree(path)
            if n > 0 and bijections.binary_tree_to_dyck(btree) != path:
                failures.append(f"binary tree round trip {path.to_text()}")
            if btree.vertex_count() != 2 * n + 1:
                failures.append(f"binary tree size {path.to_text()}")
            tree_pi = bijections.binary_tree_blocks(btree)
            if n > 0 and tree_pi != pi:
                failures.append(f"binary tree blocks {path.to_text()}")
            doubled = bijections.double(pi)
            if doubled.n_pairs != n or bijections.undouble(doubled) != pi:
                failures.append(f"doubling round trip {path.to_text()}")
            # statistic transport (vacuous at n = 0 where the lone tree
            # vertex counts as a leaf but the empty partition has no blocks)
            if n > 0 and not (
                statistics.dyck_peaks(path)
                == tree.leaf_count()
                == statistics.num_blocks(pi)
            ):
                failures.append(f"peaks/leaves/blocks {path.to_text()}")
            sizes_blocks = sorted(len(b) for b in pi.blocks)
            sizes_runs = sorted(
                len(list(run)) for step, run in itertools.groupby(path.steps) if step < 0
            )
            if sizes_blocks != sizes_runs:
                failures.append(f"size transport (runs) {path.to_text()}")
            if n > 0:
                sizes_tree = sorted(len(b) for b in tree_pi.blocks)
                if sizes_blocks != sizes_tree:
                    failures.append(f"size transport (tree) {path.to_text()}")
            # width transport under doubling
            pairing_path = bijections.pairing_to_dyck(doubled)
            pw = statistics.dyck_height(pairing_path)
            if pw != statistics.pairing_width(doubled):
                failures.append(f"pairing width/height {path.to_text()}")
            w = statistics.width(pi)
            if w != pw // 2 or pw not in (2 * w, 2 * w + 1):
                failures.append(f"width doubling {path.to_text()}")
    passed, detail = _fail_detail(
        failures, f"all bijections inverse and statistics transported for n <= {max_n}"
    )
    return CriterionResult("2", "bijection round trips and statistic transport", passed, detail)


# ---------------------------------------------------------------------------
# criteria 3-7: Monte Carlo laws


# each request's cfg is the tolerances.json section declaring its (n, samples, seed)
_CLT_SIZES = (1, 2, 3)
_NEGATIVE = _CFG["negative_correlation"]
MONTE_CARLO_REQUESTS = (
    harness.Request("clt-blocks", cfg=_CFG["clt_blocks"]),
    *(harness.Request("clt-size", {"l": l}, _CFG["clt_blocks_of_size"]) for l in _CLT_SIZES),
    harness.Request("geometric-profile", cfg=_CFG["geometric_profile"]),
    harness.Request("covariance", {"k": _NEGATIVE["k"], "l": _NEGATIVE["l"]}, _NEGATIVE),
    harness.Request("largest-block", cfg=_CFG["largest_block_concentration"]),
    harness.Request("width", cfg=_CFG["width"]),
)

Reports = Mapping[str, harness.ExperimentReport]


def _declared_reports(requests: Iterable[harness.Request], threads: int) -> Reports:
    """Run requests at the (n, samples, seed) their ``cfg`` declares.

    Requests that declare the same sample share one sampling pass; the
    reports are keyed by experiment id.
    """
    groups: dict[tuple[int, int, int], list[harness.Request]] = {}
    for request in requests:
        cfg = request.cfg
        groups.setdefault((cfg["n"], cfg["samples"], cfg["seed"]), []).append(request)
    reports = {}
    for (n, samples, seed), members in groups.items():
        for report in harness.run_experiments(n, samples, seed, members, threads=threads):
            if report.experiment_id in reports:
                raise ValueError(f"experiment id {report.experiment_id} declared twice")
            reports[report.experiment_id] = report
    return reports


def check_clt(reports: Reports) -> CriterionResult:
    clt = [reports["clt-blocks"]] + [reports[f"clt-size-{l}"] for l in _CLT_SIZES]
    failures = []
    for rep in clt:
        if not rep.checks["ks_below_threshold"]:
            failures.append(
                f"{rep.experiment_id}: ks={rep.observed['ks_distance']:.4f}"
            )
    detail_ok = ", ".join(
        f"{rep.experiment_id} ks={rep.observed['ks_distance']:.4f}" for rep in clt
    )
    passed, detail = _fail_detail(failures, detail_ok)
    return CriterionResult("3", "Gaussian limits for block counts", passed, detail)


def check_geometric_profile(reports: Reports) -> CriterionResult:
    cfg = _CFG["geometric_profile"]
    rep = reports["geometric-profile"]
    failures = [name for name, ok in rep.checks.items() if not ok]
    deviations = ", ".join(
        f"l={l}: {rep.observed[f'mean_per_element_size_{l}'] * 2 ** (l + 1) - 1:+.3%}"
        for l in range(1, cfg["l_max"] + 1)
    )
    passed, detail = _fail_detail(failures, f"relative deviations {deviations}")
    return CriterionResult("4", "geometric block-size profile", passed, detail)


def check_negative_correlation(reports: Reports) -> CriterionResult:
    cfg = _CFG["negative_correlation"]
    failures = []
    for n in range(2, cfg["exact_n_max"] + 1):
        for k in range(1, n):
            for l in range(k + 1, n - k + 1):
                if exact.covariance(n, k, l) >= 0:
                    failures.append(f"exact cov({n},{k},{l}) >= 0")
    rep = reports[f"covariance-{cfg['k']}-{cfg['l']}"]
    failures.extend(name for name, ok in rep.checks.items() if not ok)
    passed, detail = _fail_detail(
        failures,
        f"all exact covariances negative (n <= {cfg['exact_n_max']}); empirical "
        f"{rep.observed['empirical_covariance']:.3f} vs exact "
        f"{rep.reference['covariance']['value']:.3f} (se {rep.observed['standard_error']:.3f})",
    )
    return CriterionResult("5", "negative correlation of size counts", passed, detail)


def check_largest_block_gap() -> CriterionResult:
    cfg = _CFG["largest_block_gap"]
    gaps = [harness.largest_block_exact_vs_approx(n, cfg["window"]) for n in cfg["sizes"]]
    failures = []
    for gap in gaps:
        if not gap["within_bound"]:
            failures.append(
                f"n={gap['n']}: diff {gap['max_abs_diff']:.4f} >= bound {gap['bound']:.4f}"
            )
    diffs = [gap["max_abs_diff"] for gap in gaps]
    if not all(a > b for a, b in zip(diffs, diffs[1:])):
        failures.append(f"gap sequence not decreasing: {['%.4f' % d for d in diffs]}")
    passed, detail = _fail_detail(
        failures,
        "max |exact - approx| = "
        + ", ".join(f"{gap['n']}: {gap['max_abs_diff']:.5f}" for gap in gaps),
    )
    return CriterionResult(
        "6a", "double-exponential approximation gap shrinks", passed, detail
    )


def check_largest_block_concentration(reports: Reports) -> CriterionResult:
    """The largest block concentrates at log2 n, checked against the exact law.

    The declared budget (``outside_max``) is a finite-n reading of a limit
    statement, and the exact law itself misses it at n = 2^14, so it is
    reported, not asserted.  Asserted: the sampled fraction outside the
    window lies within ``sigma_band`` standard errors of the exact mass;
    the report's total-variation and approximation-gap checks hold; and
    the exact mass falls from n to ``CONCENTRATION_DECAY_FACTOR`` * n for
    every n = 2^e with e in ``decay_log2_n``.
    """
    cfg = _CFG["largest_block_concentration"]
    n, epsilon, samples = cfg["n"], cfg["epsilon"], cfg["samples"]
    rep = reports["largest-block"]
    e_lo, e_hi = cfg["decay_log2_n"]
    decay_sizes = [2**e for e in range(e_lo, e_hi + 1)]
    masses = {
        size: harness.largest_block_outside_mass(size, epsilon)
        for size in {n, *decay_sizes, *(CONCENTRATION_DECAY_FACTOR * s for s in decay_sizes)}
    }
    exact_outside = float(masses[n])
    observed = rep.observed["fraction_outside_window"]
    sigmas = (observed - exact_outside) / math.sqrt(
        exact_outside * (1.0 - exact_outside) / samples
    )
    failures = []
    if abs(sigmas) > cfg["sigma_band"]:
        failures.append(f"sampled vs exact outside the {cfg['sigma_band']} σ band")
    failures.extend(
        name
        for name in ("total_variation_below_threshold", "approximation_within_error_order")
        if not rep.checks[name]
    )
    failures.extend(
        f"exact mass not falling from n={size} to n={CONCENTRATION_DECAY_FACTOR * size}"
        for size in decay_sizes
        if not masses[CONCENTRATION_DECAY_FACTOR * size] < masses[size]
    )
    met = "met" if exact_outside < cfg["outside_max"] else "not met"
    detail = (
        f"fraction outside (1 +- {epsilon}) log2 n: observed {observed:.4f}, "
        f"exact {exact_outside:.4f} ({sigmas:+.2f} σ), budget {cfg['outside_max']} "
        f"{met} by the exact law at n={n}"
    )
    if failures:
        detail += "; " + "; ".join(failures)
    return CriterionResult(
        "6b", "largest-block concentration against the exact law", not failures, detail
    )


def check_width(reports: Reports) -> CriterionResult:
    cfg = _CFG["width"]
    rep = reports["width"]
    failures = [name for name, ok in rep.checks.items() if not ok]
    passed, detail = _fail_detail(
        failures,
        f"mean {rep.observed['mean']:.2f} vs {rep.reference['mean']['value']:.2f}, "
        f"tail@{cfg['tail_x']} {rep.observed['tails'][str(cfg['tail_x'])]:.4f} vs "
        f"{rep.reference['tails']['value'][str(cfg['tail_x'])]:.4f}",
    )
    return CriterionResult("7", "width law (Theta distribution)", passed, detail)


# ---------------------------------------------------------------------------
# criterion 8: singularity analysis


def check_singularity() -> CriterionResult:
    cfg = _CFG["singularity"]
    failures = []
    for k in range(1, cfg["k_max"] + 1):
        try:
            solved = limitlaws.solve_characteristic_maxblock(k)
        except ArithmeticError as exc:
            failures.append(f"k={k}: {exc}")
            continue
        residual = max(abs(solved.residual_fixed_point), abs(solved.residual_tangency))
        if residual > cfg["residual_max"]:
            failures.append(f"k={k}: residual {residual:.2e} above {cfg['residual_max']}")
    k_exp = cfg["expansion_k"]
    report = limitlaws.solve_characteristic_maxblock(k_exp)
    factor = cfg["expansion_factor"]
    y_pred = (k_exp + 1) / 2 ** (k_exp + 3)
    z_pred = 0.25 * 2 ** -(k_exp + 1)
    for name, got, pred in (
        ("y0 offset", report.y0_minus_half, y_pred),
        ("z0 offset", report.z0_minus_quarter, z_pred),
        ("gamma", report.gamma, 0.5),
    ):
        ratio = got / pred
        if not (1 / factor <= ratio <= factor):
            failures.append(f"{name} ratio {ratio:.6f} outside factor {factor}")
    for l in cfg["slope_sizes"]:
        slope = limitlaws.singularity_slope_at_one(l)
        target = -3.0 / 2 ** (3 + l)
        if abs(slope - target) > cfg["slope_abs_tol"]:
            failures.append(f"slope(l={l}) = {slope} vs {target}")
    fit = limitlaws.asymptotic_count_check(cfg["growth_k"], cfg["growth_n"])
    if fit.rate_relative_error > cfg["growth_rel_tol"]:
        failures.append(f"growth rate error {fit.rate_relative_error:.2e}")
    passed, detail = _fail_detail(
        failures,
        f"residuals < {cfg['residual_max']} for k <= {cfg['k_max']}; expansions at "
        f"k={k_exp} within x{factor}; slopes exact to {cfg['slope_abs_tol']}; "
        f"rate error {fit.rate_relative_error:.2e}",
    )
    return CriterionResult("8", "singularity analysis", passed, detail)


# ---------------------------------------------------------------------------
# criterion 9: singleton closed form equals the counting polynomials


def check_singleton_closed_form(order: int = SINGLETON_SERIES_ORDER) -> CriterionResult:
    series = exact.singleton_gf_series(order)
    failures = []
    if series[0] != (1,):
        failures.append("constant term != 1")
    for n in range(1, order + 1):
        if series[n] != exact.blocks_polynomial(n, 1):
            failures.append(f"coefficient {n} mismatch")
            break
    passed, detail = _fail_detail(
        failures, f"closed form matches counting polynomials exactly up to order {order}"
    )
    return CriterionResult("9", "singleton generating-function closed form", passed, detail)


# ---------------------------------------------------------------------------


def run_all(
    threads: int = 1, printer: Callable[[str], None] = print
) -> list[CriterionResult]:
    """Run every acceptance criterion, printing one line per criterion."""
    reports = _declared_reports(MONTE_CARLO_REQUESTS, threads)
    checks: list[Callable[[], CriterionResult]] = [
        check_exact_reconciliation,
        check_bijections,
        lambda: check_clt(reports),
        lambda: check_geometric_profile(reports),
        lambda: check_negative_correlation(reports),
        check_largest_block_gap,
        lambda: check_largest_block_concentration(reports),
        lambda: check_width(reports),
        check_singularity,
        check_singleton_closed_form,
    ]
    results = []
    for check in checks:
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        printer(f"[{status}] criterion {result.criterion}: {result.description} -- {result.detail}")
    return results
