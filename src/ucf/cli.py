"""Command line front end.

Subcommands map onto the library layers: construct (families with a build
trace), analyze (invariants of a family file), bounds (one bound row),
search (exhaustive minimal-weight search), verify (property suites over all
small families), and sweep (construction weights against bounds over a
grid).  Reports are JSON; bounds and sweep default to CSV since they are
row-shaped.  Exit status is 0 for success, 1 for a failed verification or a
broken internal invariant, 2 for bad input or an unusable path.
"""

from __future__ import annotations

import argparse
import csv
import io as stringio
import json
import os
import sys
from functools import lru_cache
from typing import Iterable, Optional

from .bounds import CSV_COLUMNS, BoundsReport
from .constructions import KINDS, MAX_M, build
from .errors import (
    FamilyFormatError,
    InvalidInputError,
    InvariantError,
    UnsupportedScaleError,
)
from .family import SetFamily
from .io import family_json_parts, family_text_parts, load_family
from .io import family_to_dict  # noqa: F401  perfbench/tracing.py wraps ucf.cli.family_to_dict
from .search import (
    SUITES,
    SWEEP_COLUMNS,
    min_weight_search,
    sqrt_regime_pair,
    sweep_constructions,
)

# --m-max of a grid sweep that gives none.
_GRID_M_MAX = 4096


def _emit(parts: Iterable[str], path: Optional[str]) -> None:
    """Write the parts in order, each as it comes, to path or stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _emit_json(data, path: Optional[str]) -> None:
    _emit([json.dumps(data, indent=2) + "\n"], path)


def _emit_csv(header, rows, path: Optional[str]) -> None:
    buf = stringio.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _emit([buf.getvalue()], path)


def cmd_construct(args) -> int:
    family, trace = build(args.kind, args.n, args.m)
    if args.trace:
        if trace is None:
            raise InvalidInputError(f"{args.kind} has no build trace; only intermediate does")
        _emit_json(trace.to_dict(), args.trace)
    parts = family_text_parts if args.format == "text" else family_json_parts
    _emit(parts(family), args.output)
    return 0


def _analyze_report(family: SetFamily, l: int) -> dict:
    profile = family.degree_profile()
    partition = family.separation_partition()
    report = {
        "n": family.n,
        "size": len(family),
        "union_closed": family.is_union_closed(),
        "separating": partition.is_discrete,
        "support": list(family.support()),
        "degrees": list(profile.degrees),
        "weight": profile.weight,
        "size_histogram": {str(k): v for k, v in sorted(family.size_histogram().items())},
        "separation_classes": [list(c) for c in partition.classes],
        "reduction_n": len(partition.classes),
        "l": l,
        "l_fold_weight": family.l_fold_weight(l),
    }
    if l <= family.n:
        report["expected_l_degree"] = str(family.expected_l_degree(l))
        witness = family.frankl_witness(l)
        report["witness"] = {
            "subset": list(witness.subset),
            "count": witness.count,
            "threshold": str(witness.threshold),
            "margin": str(witness.margin),
            "meets_threshold": witness.meets_threshold,
        }
    return report


def cmd_analyze(args) -> int:
    family = load_family(args.family)
    if args.l < 1:
        raise InvalidInputError("need l >= 1")
    _emit_json(_analyze_report(family, args.l), args.output)
    return 0


def cmd_bounds(args) -> int:
    report = BoundsReport.build(args.n, args.m, args.l)
    if args.format == "json":
        _emit_json(report.to_dict(), args.output)
    else:
        _emit_csv(CSV_COLUMNS, [report.csv_row()], args.output)
    return 0


def cmd_search(args) -> int:
    threads = args.threads
    if threads is None:
        raw = os.environ.get("UCF_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise InvalidInputError(f"UCF_THREADS must be an integer, got {raw!r}") from None
    outcome = min_weight_search(args.n, args.m, args.l, threads=threads)
    _emit_json(outcome.to_dict(), args.output)
    return 0


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        kwargs = {}
        if args.max_n is not None:
            kwargs["n_max"] = args.max_n
        reports.append(SUITES[name](**kwargs))
    payload = [r.to_dict() for r in reports]
    _emit_json(payload if len(payload) > 1 else payload[0], args.output)
    if any(not r.passed for r in reports):
        print("verification failed", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    if (args.n_max is None) == (not args.regime):
        raise InvalidInputError("give exactly one of --n-max or --regime")
    if args.regime:
        # 2**r > MAX_M iff r >= MAX_M.bit_length(): refused before sqrt_regime_pair's arithmetic.
        if max(args.regime) >= MAX_M.bit_length():
            raise UnsupportedScaleError(f"sweeps supported up to m = {MAX_M}")
        pairs = [sqrt_regime_pair(r) for r in args.regime]
        m_max = max(m for _, m in pairs) if args.m_max is None else args.m_max
        rows = sweep_constructions(m_max, args.l, pairs=pairs)
    else:
        m_max = _GRID_M_MAX if args.m_max is None else args.m_max
        rows = sweep_constructions(m_max, args.l, n_max=args.n_max)
    if args.format == "json":
        _emit_json([row.__dict__ for row in rows], args.output)
    else:
        _emit_csv(SWEEP_COLUMNS, [row.csv_row() for row in rows], args.output)
    return 0


@lru_cache(maxsize=1)  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucf",
        description="Build, analyze, and stress-test separating union-closed families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", required=True, type=int, help="domain size")
    p.add_argument("--m", type=int, help="family size (intermediate only)")
    p.add_argument("--trace", metavar="PATH", help="write the build trace JSON here")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="report the invariants of a family file")
    p.add_argument("family", help="family file, JSON or text")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="bound values for one (n, m, l) cell")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="exhaustive minimal-weight search")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--threads", type=int, help="worker processes (default $UCF_THREADS or 1)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a verification suite over all small families")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--max-n", type=int, help="largest domain to sweep (suite default otherwise)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="construction weight vs bounds over a grid")
    p.add_argument("--m-max", type=int,
                   help=f"largest m to build (default {_GRID_M_MAX} with --n-max; "
                        "with --regime, the largest regime m)")
    p.add_argument("--n-max", type=int, help="sweep the full satisfiable grid up to here")
    p.add_argument("--regime", type=int, nargs="+", metavar="R",
                   help="instead of a grid, the pairs (ceil(sqrt(R*2**R)), 2**R)")
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidInputError, UnsupportedScaleError, FamilyFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
