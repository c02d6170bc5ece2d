"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads mc-width largest-exact --seeds 3 7 61 --pairs 10 \
        --out BENCH.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T`` once
in the parent checkout and once in the change checkout, one after the
other; even pairs run the parent first, odd pairs the change first, so
that a drift in host speed does not favour one side.  Pair i uses seed
``seeds[i % len(seeds)]``.  Each run uses the benchmark code of its own
checkout and the run length ``run_seconds`` of ``BENCHMARK.json``.

The output file holds every result line (with the exit code and the
per-call report digests of the run), and per workload and end-to-end
metric: each side's median and quartiles, the number of pairs the change
won (by the direction ``BENCHMARK.json`` declares; ties count for
neither side), and whether both sides' report digests were equal in
every pair.  ``all_correct`` says whether every run of both sides passed
its output check; ``parent_correct`` and ``change_correct`` count the
passing runs of each side, so that a fault of the parent reads as the
parent's.  ``BENCHMARK.json`` is read from the change checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; returns its result line, exit code and digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    info = {}
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    if len(lines) > 1 and lines[-2].startswith("info "):
        info = json.loads(lines[-2][len("info "):])
    return {
        "returncode": proc.returncode,
        "result": result,
        "digests": [call["digest"] for call in info.get("calls", [])],
        "stderr_tail": proc.stderr.strip().splitlines()[-3:],
    }


def correct(run: dict) -> bool:
    """Whether a run's output check passed with no failed call."""
    return run["result"]["correct"] and run["result"]["failed"] == 0


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["result"]["metrics"].get(name, {}).get("value") for p in pairs]
        change = [p["change"]["result"]["metrics"].get(name, {}).get("value") for p in pairs]
        both = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
        if not both:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        q_parent = quartiles([a for a, _ in both])
        q_change = quartiles([b for _, b in both])
        summary[name] = {
            "better": direction,
            "parent_median": q_parent[1],
            "parent_quartiles": [q_parent[0], q_parent[2]],
            "change_median": q_change[1],
            "change_quartiles": [q_change[0], q_change[2]],
            "change_wins": sum(1 for a, b in both if sign * (b - a) < 0),
            "parent_wins": sum(1 for a, b in both if sign * (b - a) > 0),
            "pairs": len(both),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {"pair": i, "seed": seed, "order": order}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds)
            pairs.append(pair)
            print(
                f"{workload} pair {i} seed {seed}: "
                + ", ".join(
                    f"{side} wall_s "
                    f"{pair[side]['result']['metrics'].get('wall_s', {}).get('value')}"
                    for side in ("parent", "change")
                ),
                file=sys.stderr,
            )
        report["workloads"][workload] = {
            "runs": pairs,
            "summary": summarise(pairs, better),
            "all_correct": all(
                correct(p[side]) for p in pairs for side in ("parent", "change")
            ),
            "parent_correct": sum(correct(p["parent"]) for p in pairs),
            "change_correct": sum(correct(p["change"]) for p in pairs),
            "digests_equal_every_pair": all(
                p["parent"]["digests"] == p["change"]["digests"] for p in pairs
            ),
        }
        # write after every workload so that an interrupted series keeps its runs
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
