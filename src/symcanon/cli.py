"""Command-line entry point.

Commands: classify, rank, canon, orbit, decompose, stabilizer,
verify-paper, stats.  Tensor literals are base-p digits in flatten
order (length 8 or 16), or compact literals `c:` + k+1 digits.

Exit codes: 0 success; 1 verify-paper found a MISMATCH; 2 invalid
arguments, parse or symmetry failure, missing or malformed fixture, or an
unreadable or unwritable file; 3 code-set budget exceeded; 4 the queried
tensor has no symmetric decomposition.

Environment: SYMCANON_BUDGET overrides the default code-set ceiling and
SYMCANON_FIXTURES the fixture directory; explicit flags win.
"""

import argparse
import os
import sys

from . import report as report_mod
from .classify import classify
from .errors import (
    AsymmetricTensorError,
    BudgetExceededError,
    MissingFixtureError,
    UndecomposableError,
)
from .gfp import FieldSpec
from .group_action import group_order, orbit, stabilizer_size
from .rank_strata import (
    DEFAULT_BUDGET,
    decompose,
    symmetric_rank,
    symmetric_rank_strata,
)
from .tensor import (
    SUPPORTED_ORDERS,
    SymTensor,
    format_literal,
    is_symmetric,
    parse_literal,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_UNDECOMPOSABLE = 4

QUERY_COMMANDS = ("rank", "canon", "orbit", "decompose", "stabilizer")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="symcanon",
        description="Classify 2x2x2 and 2x2x2x2 symmetric tensors over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tensor=False, p_required=True):
        p.add_argument("--p", type=int, required=p_required, help="prime modulus")
        p.add_argument("--order", type=int, help="tensor order, 3 or 4")
        p.add_argument("--budget", type=int, default=None,
                       help="code-set ceiling (default %d)" % DEFAULT_BUDGET)
        if tensor:
            p.add_argument("--tensor", required=True, help="tensor literal")

    c = sub.add_parser("classify", help="full orbit classification")
    common(c)
    c.add_argument("--format", default="structured",
                   choices=["structured", "tabular", "markdown", "md", "latex"])
    c.add_argument("--out", help="write the report here instead of stdout")
    c.add_argument("--with-timing", action="store_true",
                   help="include wall time in structured output")

    for name, help_text in [
        ("rank", "symmetric rank of a tensor"),
        ("canon", "canonical form of a tensor"),
        ("orbit", "orbit size of a tensor"),
        ("decompose", "witness vectors summing to a tensor"),
        ("stabilizer", "stabilizer size of a tensor"),
    ]:
        q = sub.add_parser(name, help=help_text)
        common(q, tensor=True)

    v = sub.add_parser("verify-paper", help="diff computed orbits against a stored table")
    common(v, p_required=False)
    v.add_argument("--fixtures", help="fixture directory")
    v.add_argument("--all", action="store_true",
                   help="audit every stored table (ignores --p/--order)")

    s = sub.add_parser("stats", help="stratum counts and percentages")
    common(s)
    return parser


def _budget(args):
    if args.budget is not None:
        return args.budget
    env = os.environ.get("SYMCANON_BUDGET")
    try:
        return int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"SYMCANON_BUDGET must be an integer, got {env!r}") from None


def _order(args, inferred=None):
    k = args.order if args.order is not None else inferred
    if k is None:
        raise ValueError("--order is required (3 or 4)")
    if k not in SUPPORTED_ORDERS:
        raise ValueError(f"order must be one of {SUPPORTED_ORDERS}, got {k}")
    return k


def _query_tensor(args, field):
    X = parse_literal(args.tensor, field, args.order)
    _order(args, inferred=X.order)
    if not is_symmetric(X):
        raise AsymmetricTensorError(
            "tensor literal is not symmetric; queries act on symmetric tensors"
        )
    return SymTensor(field, X.entries)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (BudgetExceededError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UndecomposableError as exc:
        print(f"error: no symmetric decomposition ({exc})", file=sys.stderr)
        return EXIT_UNDECOMPOSABLE
    except (ValueError, OSError) as exc:  # fixture and symmetry errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args):
    if args.command == "classify":
        field = FieldSpec(args.p)
        k = _order(args)
        rep = classify(field, k, budget=_budget(args))
        text = report_mod.emit(rep, args.format, include_timing=args.with_timing)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command in QUERY_COMMANDS:
        return _run_query(args)

    if args.command == "verify-paper":
        return _run_verify(args)

    if args.command == "stats":
        field = FieldSpec(args.p)
        k = _order(args)
        strata = symmetric_rank_strata(field, k, _budget(args))
        space = field.p ** (k + 1)
        counts = strata.stratum_sizes() + [int(strata.undecomposable.size)]
        print(f"p={field.p} k={k} group_order={group_order(field)} "
              f"symmetric_tensors={space}")
        print(f"max_symmetric_rank={strata.max_rank}")
        print("rank,count,percent")
        labels = [*range(len(counts) - 1), "undecomposable"]
        for label, c, pct in zip(labels, counts, report_mod._percentages(counts, space)):
            print(f"{label},{c},{pct:.2f}")
        return EXIT_OK

    raise ValueError(f"unknown command {args.command!r}")


def _run_query(args):
    field = FieldSpec(args.p)
    X = _query_tensor(args, field)

    if args.command == "canon":
        from .group_action import canonical_form

        print(format_literal(canonical_form(X)))
        return EXIT_OK
    if args.command == "orbit":
        print(orbit(X).size)
        return EXIT_OK
    if args.command == "stabilizer":
        print(stabilizer_size(X))
        return EXIT_OK

    strata = symmetric_rank_strata(field, X.order, _budget(args))
    if args.command == "rank":
        r = symmetric_rank(X, strata)
        if r is None:
            raise UndecomposableError(format_literal(X))
        print(r)
        return EXIT_OK

    # decompose re-sums the witness itself and raises on a mismatch
    witness = decompose(X, strata)  # raises UndecomposableError when undefined
    for v in witness.vectors:
        print(f"{v[0]},{v[1]}")
    print(f"re-evaluated sum of {len(witness.vectors)} outer powers: matches input")
    return EXIT_OK


def _run_verify(args):
    budget = _budget(args)
    if args.all:
        pairs = report_mod.list_fixtures(args.fixtures)
        if not pairs:
            raise MissingFixtureError("no stored tables found")
    else:
        if args.p is None:
            raise ValueError("--p is required unless --all is given")
        pairs = [(args.p, _order(args))]
    worst = EXIT_OK
    for p, k in pairs:
        field = FieldSpec(p)
        fixture = report_mod.load_fixture(p, k, args.fixtures)
        rep = classify(field, k, budget=budget)
        discrepancies = report_mod.diff(rep, fixture)
        if not discrepancies:
            print(f"p={p} k={k}: table reproduced exactly")
        for d in discrepancies:
            print(d.line())
            if d.classification == report_mod.MISMATCH:
                worst = EXIT_MISMATCH
    return worst


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
