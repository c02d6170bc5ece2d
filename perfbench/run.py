"""Benchmark of the noncrossing verification pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload mc-blocks --seed 0 --seconds 10 --trace 0

A workload is a fixed list of calls into the library's documented entry
points.  Monte Carlo workloads pass fixed argv to ``noncrossing.cli.main``
(the CLI the README documents) with the workload seed as ``--seed``; the
exact workload calls ``acceptance.check_*``.  Sizes are chosen so that one
pass takes 2 to 8 seconds and a run holds several.  One pass runs the
calls back to back in this process: a closed loop with one client and at
most two threads.  A warm-up pass, then timed passes, fill ``--seconds``;
at least two passes are timed.

On the machine the benchmark was built on, the speed the host gives
interpreted Python code drifts by a quarter and more over minutes, while
numpy work on two threads stays within a few percent.  On the workloads
whose time is spent in the interpreter and in big-integer arithmetic
(``largest-exact``, ``exact-criteria``), each call therefore runs between
two timings of a fixed pure-Python loop that uses no library code, and
its seconds are rescaled to the speed at which that loop takes
``CAL_NOMINAL_S``.  On the Monte Carlo workloads the same rescaling added
more noise than it removed, so their seconds are wall seconds.

``--trace 0`` prints the end-to-end metrics as the last stdout line:

- ``wall_s``: median over the timed passes of the pass time (time to a
  verdict), rescaled on the calibrated workloads;
- ``samples_per_s``: samples per pass over ``wall_s``; on the exact
  workload the "samples" are the structures criteria 1 and 2 enumerate;
- ``setup_s``: median time from starting a fresh interpreter until the CLI
  is ready (imports, tolerances, argument parser), over several starts;
  never rescaled;
- ``peak_rss_mb``: peak resident memory of this process after the passes.

``--trace 1`` runs the untraced passes, then one pass with spans around
every public library function (``spans.py``), then on Monte Carlo
workloads one untraced pass at one thread, and prints the per-layer
metrics.  The line before the result holds the machine facts, raw and
rescaled pass times, per-call verdicts and report digests.

Output check: every call must return a well-formed report for the
parameters it was given.  At seeds pinned in ``digests.json`` each report
must be byte-identical to its pinned SHA-256; at other seeds, every pass
(traced and one-thread passes too) must produce identical reports.  Rows
re-drawn from stream 0 of the workload seed must give the same value from
each ``batch_*`` kernel the workload uses as the scalar statistic of
``bijections.dyck_to_partition``.  A call that raises or fails the check
counts as failed.  A statistical verdict (a report whose checks fail,
such as criterion 6b's window on ``largest-exact``) is recorded, not
counted as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# fresh interpreters started before the passes and again after them, so that
# the set-up median spans the whole run rather than one moment of it
SETUP_RUNS = 4
THREADS = 2  # nproc on the machine the workloads were sized on
CHECK_ROWS = 4
# the calibration loop and the seconds it is rescaled to (module docstring)
CAL_LOOPS = 1_500_000
CAL_NOMINAL_S = 0.1
# timed passes per run at least, whatever --seconds says
MIN_PASSES = 2
SETUP_SNIPPET = (
    "import noncrossing.cli as cli; cli.build_parser(); print(cli.__file__, flush=True)"
)
# acceptance check function -> criterion id
CRITERIA = {
    "check_exact_reconciliation": "1",
    "check_bijections": "2",
    "check_largest_block_gap": "6a",
    "check_singularity": "8",
    "check_singleton_closed_form": "9",
}
# arguments that differ from the declared defaults: at n <= 10 criterion 2
# takes about 10 s and criterion 1 about 2 s, so both enumerate n <= 9 and a
# run holds several passes
CRITERION_ARGS = {
    "check_exact_reconciliation": {"max_n": 9},
    "check_bijections": {"max_n": 9},
}


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop that calls no library code."""
    start = perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return perf_counter() - start


@dataclasses.dataclass(frozen=True)
class CliCall:
    command: str
    n: int
    k: int | None = None
    l: int | None = None

    @property
    def name(self) -> str:
        return " ".join(self.base_argv())

    def base_argv(self) -> list[str]:
        argv = [self.command, "--n", str(self.n)]
        if self.k is not None:
            argv += ["--k", str(self.k)]
        if self.l is not None:
            argv += ["--l", str(self.l)]
        return argv

    def argv(self, samples: int, seed: int, threads: int) -> list[str]:
        return self.base_argv() + [
            "--samples", str(samples), "--seed", str(seed), "--threads", str(threads)
        ]

    def experiment_id(self) -> str:
        if self.command == "clt-size":
            return f"clt-size-{self.l}"
        if self.command == "covariance":
            return f"covariance-{self.k}-{self.l}"
        return self.command


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple  # CliCall items, or acceptance check function names
    # time rescaled by the calibration loop (module docstring)
    calibrated: bool
    samples: int = 0  # per CLI call; 0 for the exact workload
    # (n, kernel, size) checked against the scalar statistics
    kernel_checks: tuple = ()

    @property
    def monte_carlo(self) -> bool:
        return self.samples > 0


# BENCHMARK.json says why each workload is there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-blocks",
            (
                CliCall("clt-blocks", 2000),
                CliCall("clt-size", 2000, l=1),
                CliCall("clt-size", 2000, l=2),
                CliCall("clt-size", 2000, l=3),
                CliCall("covariance", 1000, k=1, l=2),
            ),
            calibrated=False,
            samples=8192,
            kernel_checks=(
                (2000, "num_blocks", 0),
                (2000, "size", 1),
                (2000, "size", 2),
                (2000, "size", 3),
                (1000, "size", 1),
                (1000, "size", 2),
            ),
        ),
        Workload(
            "mc-width",
            (CliCall("width", 2000),),
            calibrated=False,
            samples=8192,
            kernel_checks=((2000, "width", 0),),
        ),
        Workload(
            "largest-exact",
            (CliCall("largest-block", 8192),),
            calibrated=True,
            samples=1024,
            kernel_checks=((8192, "largest", 0),),
        ),
        Workload(
            "exact-criteria",
            tuple(CRITERIA),
            calibrated=True,
        ),
    )
}


@dataclasses.dataclass
class CallResult:
    name: str
    seconds: float
    text: str
    code: int | None = None  # CLI exit code
    cal_s: tuple[float, float] = (0.0, 0.0)  # calibration loop before, after
    verdict: bool | None = None
    error: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def import_library():
    """Import the package from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "noncrossing" / "__init__.py").is_file():
        raise SystemExit(f"error: no noncrossing package under {SRC}")
    sys.path.insert(0, str(SRC))
    import noncrossing.acceptance
    import noncrossing.cli

    if Path(noncrossing.__file__).resolve().parent != SRC / "noncrossing":
        raise SystemExit(f"error: imported noncrossing from {noncrossing.__file__}")
    return noncrossing


def child_env() -> dict[str, str]:
    """Environment of the set-up interpreters.

    Bytecode is cached under ``.bench_build`` whatever the caller's
    environment says, so every timed start reads compiled modules, as an
    installed package would, and nothing is written under ``src``.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(runs: int, warm: bool) -> list[float]:
    """Seconds from spawning a fresh interpreter to the CLI being ready.

    With ``warm``, one extra start first fills the bytecode cache untimed.
    """
    times = []
    env = child_env()
    expected = (SRC / "noncrossing" / "cli.py").resolve()
    for i in range(runs + warm):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if code != 0 or Path(line.strip()).resolve() != expected:
            raise SystemExit(f"error: set-up interpreter failed (exit {code}, {line!r})")
        if i or not warm:
            times.append(elapsed)
    return times


def run_call(nc, workload: Workload, call, seed: int, threads: int) -> CallResult:
    if isinstance(call, CliCall):
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = nc.cli.main(call.argv(workload.samples, seed, threads))
        except (Exception, SystemExit) as exc:
            return CallResult(call.name, perf_counter() - start, out.getvalue(), error=repr(exc))
        return CallResult(call.name, perf_counter() - start, out.getvalue(), code=code)
    start = perf_counter()
    try:
        result = getattr(nc.acceptance, call)(**CRITERION_ARGS.get(call, {}))
    except Exception as exc:
        return CallResult(call, perf_counter() - start, "", error=repr(exc))
    seconds = perf_counter() - start
    return CallResult(call, seconds, json.dumps(dataclasses.asdict(result), sort_keys=True))


def timed_pass(
    nc, workload: Workload, seed: int, threads: int
) -> tuple[float, list[CallResult]]:
    """One pass; returns its seconds and the calls' results.

    On a calibrated workload the calibration loop runs before and after
    every call, and the call's seconds are multiplied by CAL_NOMINAL_S over
    the mean of the two loop times around it.
    """
    if not workload.calibrated:
        results = [run_call(nc, workload, call, seed, threads) for call in workload.calls]
        return sum(r.seconds for r in results), results
    results = []
    scaled = 0.0
    before = calibration_loop()
    for call in workload.calls:
        result = run_call(nc, workload, call, seed, threads)
        after = calibration_loop()
        scaled += result.seconds * CAL_NOMINAL_S / ((before + after) / 2)
        result.cal_s = (before, after)
        results.append(result)
        before = after
    return scaled, results


def validate(workload: Workload, call, result: CallResult, seed: int) -> None:
    """Fill in the verdict, or an error when the output is malformed."""
    if result.error:
        return
    try:
        report = json.loads(result.text)
        if isinstance(call, CliCall):
            params = report["parameters"]
            checks = report["checks"]
            if report["experiment_id"] != call.experiment_id():
                raise ValueError(f"experiment_id {report['experiment_id']!r}")
            if (params["n"], params["samples"], params["seed"]) != (
                call.n,
                workload.samples,
                seed,
            ):
                raise ValueError(f"parameters {params}")
            if report["passed"] is not all(checks.values()):
                raise ValueError("passed disagrees with checks")
            if result.code != (0 if report["passed"] else 1):
                raise ValueError(f"exit code {result.code} for passed={report['passed']}")
        elif report["criterion"] != CRITERIA[call]:
            raise ValueError(f"criterion {report['criterion']!r}")
        if not isinstance(report["passed"], bool):
            raise ValueError("passed is not a bool")
        result.verdict = report["passed"]
    except (ValueError, KeyError, TypeError) as exc:
        result.error = f"malformed report: {exc}"


def pinned_digests(workload: Workload, seed: int) -> list[str] | None:
    if not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text()).get(workload.name, {})
    return table.get("any" if not workload.monte_carlo else str(seed))


def check_reports(
    workload: Workload, passes: list[list[CallResult]], seed: int
) -> tuple[int, int, list[str], str]:
    """Validate every call of every pass; returns attempted, failed, messages."""
    reference = pinned_digests(workload, seed)
    source = "pinned" if reference else "first pass"
    if reference is None:
        reference = [r.digest for r in passes[0]]
    elif len(reference) != len(workload.calls):
        raise SystemExit(f"error: {DIGESTS.name} does not list every call of {workload.name}")
    attempted = failed = 0
    messages = []
    for index, results in enumerate(passes):
        for call, result, digest in zip(workload.calls, results, reference):
            attempted += 1
            validate(workload, call, result, seed)
            if not result.error and result.digest != digest:
                result.error = f"report digest {result.digest[:12]} != {source} {digest[:12]}"
            if result.error:
                failed += 1
                messages.append(f"pass {index} {result.name}: {result.error}")
    return attempted, failed, messages, source


def check_kernels(nc, workload: Workload, seed: int) -> tuple[int, int, list[str]]:
    """Batch kernels against the scalar statistics on rows from stream 0."""
    st = nc.statistics
    pairs = {
        "num_blocks": (st.batch_num_blocks, lambda pi, _: st.num_blocks(pi)),
        "size": (
            st.batch_count_blocks_of_size,
            lambda pi, l: st.block_size_histogram(pi)[l - 1],
        ),
        "largest": (st.batch_largest_block, lambda pi, _: st.largest_block(pi)),
        "width": (st.batch_width, lambda pi, _: st.width(pi)),
    }
    rows_by_n = {}
    partitions = {}
    failed = 0
    messages = []
    for n, kernel, size in workload.kernel_checks:
        if n not in rows_by_n:
            gen = nc.sampling.RngState(seed, 0).generator()
            rows_by_n[n] = nc.sampling.sample_dyck_steps(n, CHECK_ROWS, gen)
            partitions[n] = [
                nc.bijections.dyck_to_partition(nc.DyckPath(tuple(int(s) for s in row)))
                for row in rows_by_n[n]
            ]
        batch, scalar = pairs[kernel]
        try:
            got = batch(rows_by_n[n], size) if kernel == "size" else batch(rows_by_n[n])
            want = [scalar(pi, size) for pi in partitions[n]]
            ok = [int(v) for v in got] == want
        except Exception as exc:
            ok, want, got = False, repr(exc), None
        if not ok:
            failed += 1
            messages.append(f"kernel {kernel}({size}) at n={n}: batch {got} != scalar {want}")
    return len(workload.kernel_checks), failed, messages


def structures_per_pass(nc) -> int:
    """Structures criteria 1 (partitions and paths) and 2 (paths) enumerate."""
    catalan = nc.exact.catalan
    max_n = CRITERION_ARGS["check_exact_reconciliation"]["max_n"]
    crit1 = 2 * sum(catalan(n) for n in range(max_n + 1))
    max_n = CRITERION_ARGS["check_bijections"]["max_n"]
    crit2 = sum(catalan(n) for n in range(max_n + 1))
    return crit1 + crit2


def machine_facts(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer, workload: Workload, walls: dict[str, float]) -> dict:
    from spans import SAMPLER

    metrics = {
        "sampling.self_s": metric(tracer.layer_self_s("sampling"), "s"),
        "sampling.rows": metric(tracer.get(SAMPLER).rows, "count"),
        "sampling.ns_per_step": metric(tracer.ns_per_step(SAMPLER), "ns"),
        "statistics.self_s": metric(tracer.layer_self_s("statistics"), "s"),
        "statistics.calls": metric(tracer.layer_calls("statistics"), "count"),
    }
    for kernel in (
        "batch_num_blocks",
        "batch_count_blocks_of_size",
        "batch_largest_block",
        "batch_width",
    ):
        metrics[f"statistics.{kernel}.ns_per_step"] = metric(
            tracer.ns_per_step(f"statistics.{kernel}"), "ns"
        )
    bbc = tracer.get("exact.bounded_block_counts")
    speedup = walls["one_thread"] / walls["untraced"] if "one_thread" in walls else 0.0
    metrics.update(
        {
            "harness.self_s": metric(tracer.layer_self_s("harness"), "s"),
            "harness.thread_speedup": metric(speedup, "x"),
            "harness.worker_idle_frac": metric(
                tracer.worker_idle_frac(THREADS), "frac"
            ),
            "exact.self_s": metric(tracer.layer_self_s("exact"), "s"),
            "exact.bounded_block_counts.s": metric(bbc.total_s, "s"),
            "exact.bounded_block_counts.calls": metric(bbc.calls, "count"),
            "structures.self_s": metric(tracer.layer_self_s("structures"), "s"),
            "bijections.self_s": metric(tracer.layer_self_s("bijections"), "s"),
            "limitlaws.self_s": metric(tracer.layer_self_s("limitlaws"), "s"),
        }
    )
    for check, criterion in CRITERIA.items():
        metrics[f"acceptance.criterion_{criterion}_s"] = metric(
            tracer.get(f"acceptance.{check}").total_s, "s"
        )
    metrics["trace.overhead_frac"] = metric(
        walls["traced"] / walls["untraced"] - 1.0, "frac"
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = args.seed

    nc = import_library()
    setup = [] if args.trace else measure_setup(SETUP_RUNS, warm=True)

    # The warm-up pass counts towards --seconds and is checked like the
    # others, but not timed.  A pass is started only while it is expected
    # to end within --seconds.
    start = perf_counter()
    _, warm_up = timed_pass(nc, workload, seed, THREADS)
    passes: list[list[CallResult]] = [warm_up]
    timed: list[float] = []
    raw: list[float] = []
    took = perf_counter() - start
    while len(timed) < MIN_PASSES or perf_counter() - start + took <= args.seconds:
        begin = perf_counter()
        wall, results = timed_pass(nc, workload, seed, THREADS)
        took = perf_counter() - begin
        timed.append(wall)
        raw.append(sum(r.seconds for r in results))
        passes.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += measure_setup(SETUP_RUNS, warm=False)
    walls = {"untraced": statistics.median(timed)}

    tracer = None
    if args.trace:
        from spans import Tracer

        with Tracer() as tracer:
            walls["traced"], results = timed_pass(nc, workload, seed, THREADS)
        passes.append(results)
        if workload.monte_carlo:
            walls["one_thread"], results = timed_pass(nc, workload, seed, 1)
            passes.append(results)

    attempted, failed, messages, digest_source = check_reports(workload, passes, seed)
    k_attempted, k_failed, k_messages = check_kernels(nc, workload, seed)
    attempted += k_attempted
    failed += k_failed
    messages += k_messages

    if args.trace:
        metrics = layer_metrics(tracer, workload, walls)
    else:
        wall_s = walls["untraced"]
        samples = (
            workload.samples * len(workload.calls)
            if workload.monte_carlo
            else structures_per_pass(nc)
        )
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "samples_per_s": metric(samples / wall_s, "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(seed),
        "raw_pass_s": raw,
        "pass_s": timed,
        "calibration_loop_median_s": (
            statistics.median(t for results in passes for r in results for t in r.cal_s)
            if workload.calibrated
            else None
        ),
        "walls_s": walls,
        "setup_samples_s": setup,
        "digest_source": digest_source,
        "calls": [
            {"name": r.name, "seconds": r.seconds, "verdict": r.verdict, "digest": r.digest}
            for r in passes[0]
        ],
        "failures": messages,
    }
    for message in messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
