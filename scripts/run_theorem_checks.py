#!/usr/bin/env python3
"""Run the randomized verification suites.

Checks the matricization identity for locally transformed states and the
rank-nonincrease property, each over seeded random trials. Per-trial JSON
records go to stdout (or --outdir files); a summary goes to stderr.
"""

import argparse
import pathlib
import sys

from sloccrank.cli import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", default="200")
    parser.add_argument("--seed", default="20260823")
    parser.add_argument("--outdir", default=None,
                        help="write JSON-lines records here instead of stdout")
    args = parser.parse_args()
    rc = 0
    for which in ("theorem1", "monotone"):
        argv = ["verify", which, "--trials", args.trials,
                "--seed", args.seed]
        if args.outdir:
            outdir = pathlib.Path(args.outdir)
            outdir.mkdir(parents=True, exist_ok=True)
            argv += ["--out", str(outdir / f"{which}.jsonl")]
        rc |= main(argv)
    sys.exit(rc)
