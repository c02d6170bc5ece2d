"""Monte Carlo experiment runner and goodness-of-fit machinery.

``EXPERIMENTS`` is the table of laws checked by sampling uniform
non-crossing partitions.  Each entry names its ``tolerances.json``
section, the batch kernels it needs and an evaluation that compares the
sampled statistics against references from the exact module (labeled
"exact") or the limit laws (labeled "asymptotic").  ``run_experiments``
evaluates any number of requests on one sample per (n, samples, seed)
and returns a reproducible ExperimentReport for each.  Declared
tolerances live in ``tolerances.json``, not in code.

Parallelism: sample index i is always drawn from Philox stream
i // SAMPLES_PER_STREAM, so reports are bit-identical for any thread
count; threads only split the work units.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Hashable, Iterable, Mapping

import numpy as np

from . import exact, limitlaws, statistics
from .sampling import SAMPLES_PER_STREAM, RngState, sample_dyck_steps, sample_nc_partition

_CHUNK_ELEMENT_BUDGET = 1 << 23


def load_tolerances() -> dict:
    """Per-experiment parameters and thresholds from the config file."""
    text = resources.files(__package__).joinpath("tolerances.json").read_text()
    return json.loads(text)


_CONFIG = load_tolerances()


@dataclass
class ExperimentReport:
    """Structured, reproducible record of one experiment."""

    experiment_id: str
    parameters: dict
    observed: dict
    reference: dict  # name -> {"value": ..., "provenance": "exact"|"asymptotic"}
    tolerances: dict
    checks: dict  # name -> bool
    passed: bool
    schema: int = 1

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent, default=str)


def _reference(value, provenance: str) -> dict:
    if provenance not in ("exact", "asymptotic"):
        raise ValueError("provenance must be 'exact' or 'asymptotic'")
    return {"value": value, "provenance": provenance}


def ks_distance(samples: Iterable[float], cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov distance between a sample and a reference CDF.

    Uses both one-sided gaps at every sample point, so ties (lattice data)
    are handled correctly.
    """
    arr = samples if isinstance(samples, np.ndarray) else np.asarray(list(samples))
    arr = np.sort(arr.astype(float))
    if arr.size == 0:
        raise ValueError("need at least one sample")
    values, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts)
    ref = np.array([cdf(float(v)) for v in values])
    size = arr.size
    upper = float(np.max(cum / size - ref))
    lower = float(np.max(ref - (cum - counts) / size))
    return max(upper, lower, 0.0)


# ---------------------------------------------------------------------------
# sampling loop


def map_sample_statistics(
    n: int,
    samples: int,
    seed: int,
    kernels: Mapping[Hashable, Callable[[np.ndarray], np.ndarray]],
    threads: int = 1,
) -> dict[Hashable, np.ndarray]:
    """Draw ``samples`` paths and apply every kernel, streaming in chunks.

    Work units of SAMPLES_PER_STREAM samples each use their own Philox
    stream; units are merged in index order, so output does not depend on
    ``threads``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows_cap = max(8, min(256, _CHUNK_ELEMENT_BUDGET // (2 * n + 1)))
    units = []
    start = 0
    while start < samples:
        count = min(SAMPLES_PER_STREAM, samples - start)
        units.append((len(units), count))
        start += count

    def run_unit(unit: tuple[int, int]) -> dict[Hashable, list[np.ndarray]]:
        index, count = unit
        gen = RngState(seed, index).generator()
        parts: dict[Hashable, list[np.ndarray]] = {name: [] for name in kernels}
        remaining = count
        while remaining > 0:
            rows = min(rows_cap, remaining)
            steps = sample_dyck_steps(n, rows, gen)
            for name, kernel in kernels.items():
                parts[name].append(np.asarray(kernel(steps)))
            remaining -= rows
        return parts

    if threads > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_unit, units))
    else:
        results = [run_unit(u) for u in units]
    return {
        name: np.concatenate([chunk for res in results for chunk in res[name]])
        for name in kernels
    }


# ---------------------------------------------------------------------------
# experiments
#
# An experiment turns the arrays of its kernels into a report.  Its kernels
# are named by hashable specs, ``(head, *args)``, so that requests sharing a
# sample share their kernels; ``evaluate`` returns every report field except
# ``passed``, which ``run_experiments`` derives from the checks.

# spec head -> ``statistics`` function, looked up on every call so that
# wrappers installed on the module (such as tracing spans) see each call
_KERNELS = {
    "blocks": "batch_num_blocks",
    "size": "batch_count_blocks_of_size",
    "largest": "batch_largest_block",
    "width": "batch_width",
}


def _kernel(spec: tuple) -> Callable[[np.ndarray], np.ndarray]:
    head, *args = spec
    name = _KERNELS[head]
    return lambda steps: getattr(statistics, name)(steps, *args)


@dataclass(frozen=True)
class Experiment:
    """One law checked by Monte Carlo: its config, kernels and evaluation."""

    section: str  # tolerances.json section holding the default thresholds
    # (n, cfg, **params) -> kernel specs; raises ValueError on invalid input
    kernels: Callable[..., list[tuple]]
    # (n, samples, seed, arrays by spec, cfg, **params) -> report fields
    evaluate: Callable[..., dict]
    params: tuple[str, ...] = ()  # per-request arguments, e.g. ("l",)


@dataclass(frozen=True)
class Request:
    """One experiment to evaluate on a shared sample."""

    experiment: str  # key of EXPERIMENTS
    params: Mapping[str, int] = dataclasses.field(default_factory=dict)
    cfg: Mapping | None = None  # thresholds; None reads the experiment's section


def run_experiments(
    n: int,
    samples: int,
    seed: int,
    requests: Iterable[Request],
    *,
    threads: int = 1,
) -> list[ExperimentReport]:
    """Evaluate every request on one sample of ``samples`` paths.

    The kernels of all requests are applied in a single sampling pass, each
    distinct spec once, so a report is the same whether its request runs
    alone or together with others.
    """
    plans = []
    for request in requests:
        experiment = EXPERIMENTS[request.experiment]
        cfg = _CONFIG[experiment.section] if request.cfg is None else request.cfg
        specs = experiment.kernels(n, cfg, **request.params)
        plans.append((experiment, cfg, request.params, specs))
    kernels = {spec: _kernel(spec) for *_, specs in plans for spec in specs}
    arrays = map_sample_statistics(n, samples, seed, kernels, threads)
    reports = []
    for experiment, cfg, params, _ in plans:
        fields = experiment.evaluate(n, samples, seed, arrays, cfg, **params)
        passed = all(fields["checks"].values())
        reports.append(ExperimentReport(**fields, passed=passed))
    return reports


def _clt_blocks_kernels(n: int, cfg: Mapping) -> list[tuple]:
    if n < 2:
        raise ValueError("n must be >= 2")
    return [("blocks",)]


def _clt_blocks(n: int, samples: int, seed: int, arrays: dict, cfg: Mapping) -> dict:
    """Normalized block count against the standard Gaussian."""
    counts = arrays[("blocks",)]
    mean_ref = float(exact.mean_blocks(n))
    var_ref = float(exact.var_blocks_total(n))
    z = (counts - mean_ref) / math.sqrt(var_ref)
    ks = ks_distance(z, limitlaws.std_normal_cdf)
    sample_mean = float(counts.mean())
    sample_var = float(counts.var(ddof=1))
    mean_band = cfg["mean_sigma_band"] * math.sqrt(var_ref / samples)
    return dict(
        experiment_id="clt-blocks",
        parameters={"n": n, "samples": samples, "seed": seed},
        observed={
            "ks_distance": ks,
            "sample_mean": sample_mean,
            "sample_variance": sample_var,
        },
        reference={
            "mean": _reference(mean_ref, "exact"),
            "variance": _reference(var_ref, "exact"),
        },
        tolerances={
            "ks_max": cfg["ks_max"],
            "mean_band": mean_band,
            "var_rel_tol": cfg["var_rel_tol"],
        },
        checks={
            "ks_below_threshold": ks < cfg["ks_max"],
            "mean_within_band": abs(sample_mean - mean_ref) < mean_band,
            "variance_within_relative_tolerance": abs(sample_var - var_ref)
            < cfg["var_rel_tol"] * var_ref,
        },
    )


def _clt_size_kernels(n: int, cfg: Mapping, l: int) -> list[tuple]:
    if not 1 <= l < n:
        raise ValueError("need 1 <= l < n")
    return [("size", l)]


def _clt_size(
    n: int, samples: int, seed: int, arrays: dict, cfg: Mapping, l: int
) -> dict:
    """Normalized count of size-l blocks against the standard Gaussian."""
    counts = arrays[("size", l)]
    mean_ref = float(exact.mean_blocks_of_size(n, l))
    var_ref = float(exact.var_blocks_of_size(n, l))
    z = (counts - mean_ref) / math.sqrt(var_ref)
    ks = ks_distance(z, limitlaws.std_normal_cdf)
    sample_mean = float(counts.mean())
    geometric = 2.0 ** -(l + 1)
    return dict(
        experiment_id=f"clt-size-{l}",
        parameters={"n": n, "l": l, "samples": samples, "seed": seed},
        observed={
            "ks_distance": ks,
            "sample_mean": sample_mean,
            "sample_mean_per_element": sample_mean / n,
        },
        reference={
            "mean": _reference(mean_ref, "exact"),
            "variance": _reference(var_ref, "exact"),
            "geometric_rate": _reference(geometric, "asymptotic"),
        },
        tolerances={"ks_max": cfg["ks_max"], "mean_rel_tol": cfg["mean_rel_tol"]},
        checks={
            "ks_below_threshold": ks < cfg["ks_max"],
            "mean_per_element_near_geometric": abs(sample_mean / n - geometric)
            < cfg["mean_rel_tol"] * geometric,
        },
    )


def _geometric_profile(
    n: int, samples: int, seed: int, arrays: dict, cfg: Mapping
) -> dict:
    """Mean size-l counts per element against the geometric profile 2^-(l+1)."""
    l_max, rel_tol = cfg["l_max"], cfg["rel_tol"]
    observed = {}
    reference = {}
    checks = {}
    for l in range(1, l_max + 1):
        per_element = float(arrays[("size", l)].mean()) / n
        target = 2.0 ** -(l + 1)
        observed[f"mean_per_element_size_{l}"] = per_element
        reference[f"geometric_size_{l}"] = _reference(target, "asymptotic")
        reference[f"exact_mean_size_{l}"] = _reference(
            float(exact.mean_blocks_of_size(n, l)) / n, "exact"
        )
        checks[f"size_{l}_within_tolerance"] = abs(per_element - target) < rel_tol * target
    return dict(
        experiment_id="geometric-profile",
        parameters={"n": n, "samples": samples, "seed": seed, "l_max": l_max},
        observed=observed,
        reference=reference,
        tolerances={"rel_tol": rel_tol},
        checks=checks,
    )


def _covariance_kernels(n: int, cfg: Mapping, k: int, l: int) -> list[tuple]:
    if k == l:
        raise ValueError("sizes must differ")
    return [("size", k), ("size", l)]


def _covariance(
    n: int, samples: int, seed: int, arrays: dict, cfg: Mapping, k: int, l: int
) -> dict:
    """Empirical covariance of two size counts against the exact value."""
    a = arrays[("size", k)].astype(float)
    b = arrays[("size", l)].astype(float)
    da = a - a.mean()
    db = b - b.mean()
    emp_cov = float(np.dot(da, db) / (samples - 1))
    # plug-in standard error of the sample covariance
    second_moment = float(np.mean((da * db) ** 2))
    se = math.sqrt(max(second_moment - emp_cov**2, 0.0) / samples)
    exact_cov = float(exact.covariance(n, k, l))
    return dict(
        experiment_id=f"covariance-{k}-{l}",
        parameters={"n": n, "k": k, "l": l, "samples": samples, "seed": seed},
        observed={"empirical_covariance": emp_cov, "standard_error": se},
        reference={
            "covariance": _reference(exact_cov, "exact"),
            "leading_term": _reference(exact.asymptotic_cov(k, l, n), "asymptotic"),
        },
        tolerances={"sigma_band": cfg["sigma_band"]},
        checks={
            "exact_covariance_negative": exact_cov < 0,
            "empirical_covariance_negative": emp_cov < 0,
            "empirical_within_band": abs(emp_cov - exact_cov) < cfg["sigma_band"] * se,
        },
    )


def _exact_largest_block_table(n: int, k_hi: int) -> dict[int, float]:
    """Exact CDF values P[largest <= k] for k = 1..k_hi, as floats.

    Walks k down from k_hi and stops at the first value that rounds to 0.0:
    the CDF and rounding are monotone, so every smaller k rounds to 0.0.
    int / int rounds correctly, as float(Fraction(...)) does.
    """
    total = exact.catalan(n)
    table = {}
    for k in range(k_hi, 0, -1):
        table[k] = exact.bounded_block_count(n, k) / total
        if table[k] == 0.0:
            break
    return {k: table.get(k, 0.0) for k in range(1, k_hi + 1)}


def _outside_window(largest, n: int, epsilon: float) -> np.ndarray:
    """The concentration predicate |L / log2 n - 1| > epsilon, elementwise."""
    return np.abs(np.asarray(largest) / math.log2(n) - 1.0) > epsilon


def largest_block_outside_mass(n: int, epsilon: float) -> Fraction:
    """Exact P[|L / log2 n - 1| > epsilon] for the largest block L.

    The integer window [lo, hi] is read off the same float predicate the
    sampled side uses, so both count the same values of L; the mass is
    then P[L <= lo - 1] + P[L > hi] from two bounded-block counts.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    sizes = np.arange(1, n + 1)
    inside = sizes[~_outside_window(sizes, n, epsilon)]
    if inside.size == 0:
        return Fraction(1)
    lo, hi = int(inside[0]), int(inside[-1])
    counts = exact.bounded_block_counts(n, [k for k in (lo - 1, hi) if k >= 1])
    below = counts.get(lo - 1, 0)
    total = exact.catalan(n)
    return Fraction(below + total - counts[hi], total)


def _gap_ks(n: int, window: int) -> list[int]:
    center = n.bit_length() - 1
    return [k for k in range(center - window, center + window + 1) if 1 <= k <= n]


def _approximation_gap(n: int, ks: list[int], table: Mapping[int, float]) -> dict:
    diffs = {
        k: abs(table[k] - limitlaws.largest_block_cdf_approx(n, k)) for k in ks
    }
    bound = 10.0 * math.log(n) ** 2 / n
    worst = max(diffs.values())
    return {
        "n": n,
        "ks": ks,
        "max_abs_diff": worst,
        "bound": bound,
        "within_bound": worst < bound,
        "per_k": diffs,
    }


def largest_block_exact_vs_approx(n: int, window: int) -> dict:
    """Max gap between the exact CDF and its double-exponential form.

    Scans k in floor(log2 n) +- window; the comparison bound
    10 (ln n)^2 / n tracks the approximation's stated error order.
    """
    ks = _gap_ks(n, window)
    return _approximation_gap(n, ks, _exact_largest_block_table(n, max(ks)))


def _largest_block_kernels(n: int, cfg: Mapping) -> list[tuple]:
    if n < 4:
        raise ValueError("n must be >= 4")
    return [("largest",)]


def _largest_block(
    n: int, samples: int, seed: int, arrays: dict, cfg: Mapping
) -> dict:
    """Largest-block law: concentration, exact CDF fit, approximation gap."""
    epsilon, outside_max, tv_max = cfg["epsilon"], cfg["outside_max"], cfg["tv_max"]
    largest = arrays[("largest",)]
    log2n = math.log2(n)
    outside = float(np.mean(_outside_window(largest, n, epsilon)))

    # one exact table serves the total variation (k <= k_hi) and the gap scan
    k_hi = min(n, (n.bit_length() - 1) + 30)
    ks = _gap_ks(n, cfg["window"])
    cdf_exact = _exact_largest_block_table(n, max(k_hi, *ks))
    pmf_exact = {1: cdf_exact[1]}
    for k in range(2, k_hi + 1):
        pmf_exact[k] = cdf_exact[k] - cdf_exact[k - 1]
    tail_exact = 1.0 - cdf_exact[k_hi]
    hist = np.bincount(np.minimum(largest, k_hi + 1), minlength=k_hi + 2)
    tv = 0.5 * sum(
        abs(hist[k] / samples - pmf_exact[k]) for k in range(1, k_hi + 1)
    )
    tv += 0.5 * abs(hist[k_hi + 1] / samples - tail_exact)

    gap = _approximation_gap(n, ks, cdf_exact)
    return dict(
        experiment_id="largest-block",
        parameters={
            "n": n,
            "samples": samples,
            "seed": seed,
            "epsilon": epsilon,
            "window": cfg["window"],
        },
        observed={
            "fraction_outside_window": outside,
            "total_variation_vs_exact": tv,
            "exact_vs_approx_max_diff": gap["max_abs_diff"],
            "mean_largest": float(largest.mean()),
        },
        reference={
            "log2_n": _reference(log2n, "exact"),
            "approx_error_bound": _reference(gap["bound"], "asymptotic"),
        },
        tolerances={
            "outside_max": outside_max,
            "tv_max": tv_max,
            "gap_bound": gap["bound"],
        },
        checks={
            "concentration_outside_below_budget": outside < outside_max,
            "total_variation_below_threshold": tv < tv_max,
            "approximation_within_error_order": gap["within_bound"],
        },
    )


def _width_kernels(n: int, cfg: Mapping) -> list[tuple]:
    if n < 16:
        raise ValueError("n must be >= 16")
    return [("width",)]


def _width(n: int, samples: int, seed: int, arrays: dict, cfg: Mapping) -> dict:
    """Width statistics against the Theta law and its moments."""
    start, stop, step = cfg["grid_start"], cfg["grid_stop"], cfg["grid_step"]
    count = int(round((stop - start) / step)) + 1
    grid = tuple(start + i * step for i in range(count))
    tail_x = cfg["tail_x"]
    widths = arrays[("width",)].astype(float)
    scale = math.sqrt(n) / 2.0
    mean_obs = float(widths.mean())
    m2_obs = float(np.mean(widths**2))
    mean_ref = limitlaws.mean_width_asymptotic(n)
    m2_ref = limitlaws.width_moment(2, n)
    tails_obs = {x: float(np.mean(widths >= x * scale)) for x in grid}
    tails_ref = {x: limitlaws.theta_tail(x) for x in grid}
    return dict(
        experiment_id="width",
        parameters={"n": n, "samples": samples, "seed": seed, "grid": list(grid)},
        observed={
            "mean": mean_obs,
            "second_moment": m2_obs,
            "tails": {str(x): tails_obs[x] for x in grid},
        },
        reference={
            "mean": _reference(mean_ref, "asymptotic"),
            "second_moment": _reference(m2_ref, "asymptotic"),
            "tails": _reference({str(x): tails_ref[x] for x in grid}, "asymptotic"),
        },
        tolerances={
            "mean_rel_tol": cfg["mean_rel_tol"],
            "tail_abs_tol": cfg["tail_abs_tol"],
            "second_moment_rel_tol": cfg["second_moment_rel_tol"],
        },
        checks={
            "mean_within_relative_tolerance": abs(mean_obs - mean_ref)
            < cfg["mean_rel_tol"] * mean_ref,
            "tail_at_reference_point": abs(tails_obs[tail_x] - tails_ref[tail_x])
            < cfg["tail_abs_tol"],
            "second_moment_within_relative_tolerance": abs(m2_obs - m2_ref)
            < cfg["second_moment_rel_tol"] * m2_ref,
        },
    )


EXPERIMENTS: dict[str, Experiment] = {
    "clt-blocks": Experiment("clt_blocks", _clt_blocks_kernels, _clt_blocks),
    "clt-size": Experiment(
        "clt_blocks_of_size", _clt_size_kernels, _clt_size, params=("l",)
    ),
    "geometric-profile": Experiment(
        "geometric_profile",
        lambda n, cfg: [("size", l) for l in range(1, cfg["l_max"] + 1)],
        _geometric_profile,
    ),
    "covariance": Experiment(
        "negative_correlation", _covariance_kernels, _covariance, params=("k", "l")
    ),
    "largest-block": Experiment(
        "largest_block_tv", _largest_block_kernels, _largest_block
    ),
    "width": Experiment("width", _width_kernels, _width),
}


def export_width_process(n: int, seed: int) -> list[tuple[int, int]]:
    """One sampled partition's width profile, as (x, w_x) rows."""
    if n < 2:
        raise ValueError("n must be >= 2")
    pi = sample_nc_partition(n, RngState(seed, 0))
    profile = statistics.width_profile(pi)
    return [(x + 1, w) for x, w in enumerate(profile)]
