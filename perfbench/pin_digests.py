"""Pin the report digests that ``run.py`` checks every run against.

Run from the repository root:

    python3 perfbench/pin_digests.py --seeds 0-9

Runs one pass of every Monte Carlo workload per seed, and one pass of the
exact workload (its reports do not depend on the seed), and writes the
SHA-256 of each report to ``digests.json``.  Pin only from a commit whose
reports are known good: a later change that keeps the RNG stream must
reproduce every pinned report byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    args = parser.parse_args()
    nc = run.import_library()
    table: dict[str, dict[str, list[str]]] = {}
    for workload in run.WORKLOADS.values():
        seeds = args.seeds if workload.monte_carlo else args.seeds[:1]
        for seed in seeds:
            wall, results = run.timed_pass(nc, workload, seed, run.THREADS)
            for call, result in zip(workload.calls, results):
                run.validate(workload, call, result, seed)
                if result.error:
                    raise SystemExit(f"error: {workload.name} seed {seed}: {result.error}")
            _, failed, messages = run.check_kernels(nc, workload, seed)
            if failed:
                raise SystemExit(f"error: {workload.name} seed {seed}: {messages}")
            key = str(seed) if workload.monte_carlo else "any"
            table.setdefault(workload.name, {})[key] = [r.digest for r in results]
            print(f"{workload.name} seed {key}: {wall:.2f} s", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
