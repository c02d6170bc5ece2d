"""Command-line interface.

Subcommands map one-to-one onto the library layers: enumeration and
sampling of structures, per-partition statistics, exact formulas,
Monte Carlo experiments, the singularity solver, and the full
verification suite.  Grids print as CSV, reports as JSON; ``--out``
redirects either to a file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import acceptance, bijections, exact, harness, limitlaws, statistics
from .sampling import RngState, sample_nc_partition
from .structures import NCPartition, enumerate_dyck, enumerate_nc


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _fraction_payload(value: Fraction) -> dict:
    return {
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "decimal": float(value),
    }


def _cmd_enumerate(args: argparse.Namespace) -> int:
    lines = []
    if args.structure == "nc":
        lines = [p.to_text() for p in enumerate_nc(args.n)]
    else:
        lines = [p.to_text() for p in enumerate_dyck(args.n)]
    _write(args, "\n".join(lines))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    lines = []
    for i in range(args.samples):
        pi = sample_nc_partition(args.n, RngState(args.seed, i))
        if args.structure == "nc":
            lines.append(pi.to_text())
        else:
            lines.append(bijections.partition_to_dyck(pi).to_text())
    _write(args, "\n".join(lines))
    return 0


def _partition_from_args(args: argparse.Namespace) -> NCPartition:
    if args.partition:
        return NCPartition.from_text(args.partition)
    if args.n is None:
        raise ValueError("stats needs --partition or --n (with --seed)")
    return sample_nc_partition(args.n, RngState(args.seed, 0))


def _cmd_stats(args: argparse.Namespace) -> int:
    pi = _partition_from_args(args)
    hist = statistics.block_size_histogram(pi)
    rows = [
        "metric,value",
        f"n,{pi.n}",
        f"num_blocks,{statistics.num_blocks(pi)}",
        f"largest_block,{statistics.largest_block(pi)}",
        f"width,{statistics.width(pi)}",
    ]
    rows += [f"blocks_of_size_{l + 1},{c}" for l, c in enumerate(hist) if c]
    rows += ["gap,width_at_gap"]
    rows += [f"{x},{w}" for x, w in enumerate(statistics.width_profile(pi), start=1)]
    _write(args, "\n".join(rows))
    return 0


_EXACT_WHAT = (
    "catalan",
    "mean-blocks",
    "var-blocks",
    "mean-size",
    "second-factorial",
    "cross-moment",
    "covariance",
    "largest-cdf",
    "blocks-poly",
)


def _cmd_exact(args: argparse.Namespace) -> int:
    n, k, l = args.n, args.k, args.l
    what = args.what
    if what == "catalan":
        value: Fraction | int = exact.catalan(n)
    elif what == "mean-blocks":
        value = exact.mean_blocks(n)
    elif what == "var-blocks":
        value = exact.var_blocks_total(n)
    elif what == "mean-size":
        value = exact.mean_blocks_of_size(n, l)
    elif what == "second-factorial":
        value = exact.factorial_moment(n, {l: 2})
    elif what == "cross-moment":
        if k == l:
            raise ValueError("sizes must differ; use the variance path for k == l")
        value = exact.factorial_moment(n, {k: 1, l: 1})
    elif what == "covariance":
        value = exact.covariance(n, k, l)
    elif what == "largest-cdf":
        value = exact.largest_block_cdf_exact(n, k, guard=args.guard)
    elif what == "blocks-poly":
        poly = exact.blocks_polynomial(n, l, guard=args.guard)
        if args.format == "json":
            payload = {
                "quantity": what,
                "n": n,
                "l": l,
                "coefficients": [_fraction_payload(Fraction(c)) for c in poly],
            }
            _write(args, json.dumps(payload, indent=2))
        else:
            _write(
                args,
                "power,count\n"
                + "\n".join(f"{i},{c}" for i, c in enumerate(poly)),
            )
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown quantity {what}")
    value = Fraction(value)
    if args.format == "json":
        payload = {"quantity": what, "n": n, "k": k, "l": l}
        payload.update(_fraction_payload(value))
        _write(args, json.dumps(payload, indent=2))
    else:
        _write(args, f"{value} = {float(value)!r}")
    return 0


def _report_out(args: argparse.Namespace, report: harness.ExperimentReport) -> int:
    if args.format == "csv":
        rows = ["key,value"]
        rows += [f"check:{k},{v}" for k, v in report.checks.items()]
        rows += [
            f"observed:{k},{v}"
            for k, v in report.observed.items()
            if not isinstance(v, dict)
        ]
        _write(args, "\n".join(rows))
    else:
        _write(args, report.to_json())
    return 0 if report.passed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = harness.EXPERIMENTS[args.command].params
    request = harness.Request(args.command, {name: getattr(args, name) for name in names})
    [report] = harness.run_experiments(
        args.n, args.samples, args.seed, [request], threads=args.threads
    )
    return _report_out(args, report)


def _cmd_width_process(args: argparse.Namespace) -> int:
    rows = harness.export_width_process(args.n, args.seed)
    _write(args, "x,width_at_gap\n" + "\n".join(f"{x},{w}" for x, w in rows))
    return 0


def _cmd_singularity(args: argparse.Namespace) -> int:
    report = limitlaws.solve_characteristic_maxblock(args.k)
    payload = dataclasses.asdict(report)
    if args.format == "csv":
        _write(args, "key,value\n" + "\n".join(f"{k},{v!r}" for k, v in payload.items()))
    else:
        _write(args, json.dumps(payload, indent=2))
    return 0


def _cmd_verify_all(args: argparse.Namespace) -> int:
    lines: list[str] = []
    results = acceptance.run_all(threads=args.threads, printer=lines.append)
    _write(args, "\n".join(lines))
    return 0 if all(r.passed for r in results) else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncrossing",
        description="Statistics of uniform random non-crossing partitions: "
        "exact formulas, bijections, sampling, and limit-law experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, n_required: bool = True) -> None:
        p.add_argument("--n", type=int, required=n_required, help="ground-set size")
        p.add_argument("--l", type=int, default=1, help="block size marker")
        p.add_argument("--k", type=int, default=2, help="second size / bound")
        p.add_argument("--samples", type=_positive_int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=_positive_int, default=1)
        p.add_argument("--guard", type=int, default=exact.SERIES_GUARD)
        p.add_argument("--out", type=str, default=None, help="write output to a file")
        p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("enumerate", help="list all structures of a given size")
    p.add_argument("structure", choices=("nc", "dyck"))
    common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("sample", help="draw uniform random structures")
    p.add_argument("structure", choices=("nc", "dyck"))
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="statistics of one partition (given or sampled)")
    p.add_argument("--partition", type=str, default=None, help="canonical text form")
    common(p, n_required=False)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("exact", help="exact counting formulas as fractions")
    p.add_argument("what", choices=_EXACT_WHAT)
    common(p)
    p.set_defaults(func=_cmd_exact)

    # each name is a key of harness.EXPERIMENTS
    for name, helptext in (
        ("clt-blocks", "Gaussian check for the block count"),
        ("clt-size", "Gaussian check for size-l block counts"),
        ("covariance", "negative-correlation check"),
        ("largest-block", "largest-block law checks"),
        ("width", "width law checks"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("width-process", help="export one width profile as CSV")
    common(p)
    p.set_defaults(func=_cmd_width_process)

    p = sub.add_parser("singularity", help="characteristic-system branch point")
    common(p, n_required=False)
    p.set_defaults(func=_cmd_singularity)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    common(p, n_required=False)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes structures.ValidationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
