"""The pair statistics of ``scripts/bench_pairs.py`` on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "samples_per_s": "higher"}


def run(**metrics):
    return {"result": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def pair(parent, change):
    return {"parent": parent, "change": change}


class TestQuartiles:
    def test_empty(self):
        assert bench_pairs.quartiles([]) == []

    def test_one_element(self):
        assert bench_pairs.quartiles([2.5]) == [2.5, 2.5, 2.5]

    def test_inclusive_quartiles(self):
        assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == [2.0, 3.0, 4.0]
        assert bench_pairs.quartiles([1.0, 2.0]) == [1.25, 1.5, 1.75]


class TestSummarise:
    def test_lower_is_better(self):
        pairs = [
            pair(run(wall_s=3.0), run(wall_s=2.0)),
            pair(run(wall_s=3.0), run(wall_s=2.5)),
            pair(run(wall_s=3.0), run(wall_s=4.0)),
        ]
        s = bench_pairs.summarise(pairs, BETTER)["wall_s"]
        assert s["better"] == "lower"
        assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (2, 1, 3)
        assert s["parent_median"] == 3.0 and s["change_median"] == 2.5
        assert s["change_quartiles"] == [2.25, 3.25]

    def test_higher_is_better(self):
        pairs = [
            pair(run(samples_per_s=100.0), run(samples_per_s=150.0)),
            pair(run(samples_per_s=100.0), run(samples_per_s=90.0)),
            pair(run(samples_per_s=100.0), run(samples_per_s=120.0)),
        ]
        s = bench_pairs.summarise(pairs, BETTER)["samples_per_s"]
        assert (s["change_wins"], s["parent_wins"]) == (2, 1)

    def test_ties_count_for_neither_side(self):
        pairs = [
            pair(run(wall_s=1.0, samples_per_s=8.0), run(wall_s=1.0, samples_per_s=8.0)),
            pair(run(wall_s=2.0, samples_per_s=4.0), run(wall_s=1.0, samples_per_s=8.0)),
        ]
        summary = bench_pairs.summarise(pairs, BETTER)
        for name in BETTER:
            s = summary[name]
            assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (1, 0, 2)

    def test_run_without_metrics_is_skipped(self):
        failed = {"result": {"correct": False, "failed": 1, "metrics": {}}}
        pairs = [
            pair(run(wall_s=3.0), run(wall_s=2.0)),
            pair(failed, run(wall_s=9.0)),
            pair(run(wall_s=9.0), failed),
        ]
        s = bench_pairs.summarise(pairs, BETTER)["wall_s"]
        assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (1, 0, 1)
        assert s["parent_median"] == 3.0 and s["change_median"] == 2.0

    def test_one_pair(self):
        s = bench_pairs.summarise([pair(run(wall_s=3.0), run(wall_s=2.0))], BETTER)["wall_s"]
        assert s["parent_quartiles"] == [3.0, 3.0] and s["change_quartiles"] == [2.0, 2.0]
        assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (1, 0, 1)

    @pytest.mark.parametrize("pairs", [[], [pair(run(), run())]])
    def test_metric_absent_everywhere_is_left_out(self, pairs):
        assert bench_pairs.summarise(pairs, BETTER) == {}
