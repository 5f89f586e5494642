"""Command-line surface.

Verbs: gen, rank, signature, classify, matrix, verify, table1, scan, capacity.
Randomized verbs require an explicit --seed; identical (command, seed) pairs
produce byte-identical output. Exit codes: 0 success, 1 verification failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .classifier import (
    classify,
    classify_to_csv,
    dicke_scan,
    family_label,
    scan_to_csv,
    signature,
    table1_suite,
)
from .linalg import rank_exact, rank_numeric
from .matricizer import (
    QuditPermutation,
    coefficient_matrix,
    optimal_split,
    split_capacity,
)
from .scalars import ASCII_WHITESPACE, format_scalar
from .slocc import run_monotone_trials, run_theorem1_trials
from .states import (
    check_dims,
    gen_dicke3,
    gen_dicke4,
    gen_ghz,
    gen_w,
    load_state,
    state_to_json,
)


def _integer(text: str) -> int:
    """An optional sign and ASCII digits, nothing else; int() alone would
    also take "1_0", non-ASCII digits such as "２" and non-ASCII spaces."""
    body = text.strip(ASCII_WHITESPACE)
    if not re.fullmatch("[+-]?[0-9]+", body):
        raise ValueError(f"malformed integer {text!r}")
    return int(body)


def _parse_dims(text: str):
    return check_dims(_integer(x) for x in text.split(","))


def _write(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        # an argv path may hold surrogate escapes: write their bytes, as stdout does
        with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)


def _resolve_split(state, l_text: str) -> int:
    if l_text == "auto":
        return optimal_split(state.dims)
    return _integer(l_text)


def _cmd_gen(args) -> int:
    if args.kind == "ghz":
        state = gen_ghz(args.n, args.d)
    elif args.kind == "w":
        state = gen_w(args.n)
    elif args.kind == "dicke3":
        state = gen_dicke3(args.n, args.l1, args.l2)
    else:
        state = gen_dicke4(args.n, args.l1, args.l2, args.l3)
    _write(json.dumps(state_to_json(state), indent=1) + "\n", args.out)
    return 0


def _matricize(args):
    """(coefficient matrix, l, sigma) of the --state file at --l and --sigma."""
    state = load_state(args.state)
    l = _resolve_split(state, args.l)
    sigma = QuditPermutation.parse(args.sigma)
    return coefficient_matrix(state, l, sigma), l, sigma


def _cmd_rank(args) -> int:
    cm, l, sigma = _matricize(args)
    if args.numeric:
        method, result = "numeric", rank_numeric(cm.to_matrix())
    else:
        method, result = "exact", rank_exact(cm.support())
    print(f"rank={result.rank} method={method} l={l} sigma={sigma.label()}")
    return 0


def _cmd_signature(args) -> int:
    state = load_state(args.state)
    l = _resolve_split(state, args.l)
    sig = signature(state, l)
    print(f"l={l}")
    print("sigmas=" + ";".join(sig.sigma_set.labels))
    print("ranks=" + ",".join(str(r) for r in sig.ranks))
    print("label=" + family_label(sig))
    return 0


def _cmd_classify(args) -> int:
    states = [load_state(p) for p in args.states]
    l = _resolve_split(states[0], args.l)
    _write(classify_to_csv(classify(states, l, ids=list(args.states))), args.out)
    return 0


def _cmd_matrix(args) -> int:
    cm, l, sigma = _matricize(args)
    m = cm.to_matrix()
    lines = [f"# rows={m.rows} cols={m.cols} split={l} sigma={sigma.label()}"]
    for row in m.data:
        lines.append(",".join(format_scalar(x) for x in row))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_capacity(args) -> int:
    dims = _parse_dims(args.dims)
    n = len(dims)
    for l in range(1, n):
        print(f"P({l})={split_capacity(dims, l)}")
    print(f"optimal_l={optimal_split(dims)}")
    return 0


def _cmd_table1(args) -> int:
    failures = 0
    labels = set()
    for name, state, expected in table1_suite():
        got = family_label(signature(state, 2))
        labels.add(got)
        status = "ok" if got == expected else "FAIL"
        if got != expected:
            failures += 1
        print(f"{name:12s} {got:30s} {status}")
    print(f"families={len(labels)} expected=22 failures={failures}")
    return 0 if failures == 0 and len(labels) == 22 else 1


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    dims = _parse_dims(args.dims) if args.dims else None
    runner = run_theorem1_trials if args.which == "theorem1" else run_monotone_trials
    records = runner(args.trials, seed=args.seed, dims=dims)
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    _write("\n".join(lines) + "\n", args.out)
    passed = sum(1 for r in records if r["result"] == "pass")
    skipped = sum(1 for r in records if r["result"] == "skip")
    failed = len(records) - passed - skipped
    print(
        f"{args.which}: trials={len(records)} pass={passed} "
        f"skip={skipped} fail={failed} seed={args.seed}",
        file=sys.stderr,
    )
    return 0 if failed == 0 else 1


def _cmd_scan(args) -> int:
    pset, rows = dicke_scan(args.levels, args.n)
    _write(scan_to_csv(args.levels, pset, rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sloccrank",
        description="Exact SLOCC classification via coefficient-matrix ranks",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a canonical state as JSON")
    p.add_argument("--kind", required=True, choices=["ghz", "w", "dicke3", "dicke4"])
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--d", type=_integer, default=2, help="local dimension (ghz)")
    p.add_argument("--l1", type=_integer, default=0)
    p.add_argument("--l2", type=_integer, default=0)
    p.add_argument("--l3", type=_integer, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rank", help="rank of one coefficient matrix")
    p.add_argument("--state", required=True)
    p.add_argument("--l", default="auto")
    p.add_argument("--sigma", default="I")
    p.add_argument("--numeric", action="store_true", help="SVD cross-check path")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("signature", help="full rank signature and family label")
    p.add_argument("--state", required=True)
    p.add_argument("--l", default="auto")
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("classify", help="group state files by signature")
    p.add_argument("--states", nargs="+", required=True)
    p.add_argument("--l", default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("matrix", help="dump a coefficient matrix as CSV")
    p.add_argument("--state", required=True)
    p.add_argument("--l", default="auto")
    p.add_argument("--sigma", default="I")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("capacity", help="split capacities and optimal split")
    p.add_argument("--dims", required=True)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("table1", help="reproduce the 2x2x2x4 classification")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="randomized theorem verification")
    p.add_argument("which", choices=["theorem1", "monotone"])
    p.add_argument("--trials", type=_integer, default=200)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--dims", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="Dicke occupation scan (figure CSVs)")
    p.add_argument("--levels", type=_integer, required=True, choices=[3, 4])
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # OSError: a missing, unreadable or directory path (--state, --out);
    # ValueError: bad input, StateFormatError and ZeroStateError included
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
