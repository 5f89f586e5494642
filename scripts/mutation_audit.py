#!/usr/bin/env python3
"""Mutation audit: which hand-made faults in src/ does the tier-1 suite miss?

Each mutant is one textual edit of one module. For each, the working tree is
copied to a temporary directory, the edit is applied there, and the tier-1
suite runs in the copy with -x. A mutant is killed when the suite fails, and
survives when every test passes: then no test can fail the verdict or
shortcut it breaks. The repository itself is never edited.

    python3 scripts/mutation_audit.py

Prints one line per mutant and the survivors. Exit status 0 when every mutant
is killed, 1 when one survives, 2 when a mutant's text is not found once in
its module (the source moved on; update the list). A survivor costs one full
tier-1 run, so the audit takes minutes. Hypothesis draws fresh examples on
every run, so a kill that rests on a hypothesis test alone may vary.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
SKIP = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}

# (name, module under src/sloccrank, text, replacement): the text must occur
# exactly once in the module
MUTANTS = [
    ("verify_theorem1 checks only the site orders of l = 1", "slocc.py",
     "for l in range(1, n) for sigma in permutation_set(n, l)",
     "for l in range(1, 2) for sigma in permutation_set(n, l)"),
    ("check_monotone_nonincrease allows a rank rise of 1", "slocc.py",
     "ok = all(b >= a for b, a in pairs.values())",
     "ok = all(b + 1 >= a for b, a in pairs.values())"),
    ("run_monotone_trials drops the equal-rank check for invertible ops", "slocc.py",
     "ok = ok and all(b == a for b, a in pairs.values())",
     "ok = ok"),
    ("run_theorem1_trials' signature_ok filters on l == -l_opt", "slocc.py",
     "if l == l_opt)",
     "if l == -l_opt)"),
    ("optimal_split breaks ties to the largest l", "matricizer.py",
     "if p > best_p:",
     "if p >= best_p:"),
    ("Bareiss skips the division whenever prev_b == 0", "linalg.py",
     "divide = (prev_a, prev_b) != (1, 0)",
     "divide = prev_b != 0"),
    ("det_exact ignores the row-swap parity", "linalg.py",
     "sign = -1 if swaps % 2 else 1",
     "sign = 1"),
    ("a GF(p) certificate reports the longer side", "linalg.py",
     "return RankResult(side)",
     "return RankResult(max(m.rows, m.cols))"),
    ("the GF(p) pass skips a dependent line", "linalg.py",
     "if not pv:\n            return k",
     "if not pv:\n            continue"),
    ("packed Bareiss returns its steps without checking the remainder", "linalg.py",
     "return None if any(map(any, packed[piv:])) else piv",
     "return piv"),
    ("packed Bareiss sizes its slots for the entries alone", "linalg.py",
     "w = (8 * (k * a) ** k * (isqrt(((k - 1) * a) ** (k - 1)) + 1)).bit_length() + 2",
     "w = e.bit_length() + 2"),
    ("sigma validation accepts c = l", "matricizer.py",
     "if not (1 <= r <= l and l < c <= n):",
     "if not (1 <= r <= l and l <= c <= n):"),
    ("sign flip in _apply_columns' imaginary part", "slocc.py",
     "w + a * y + b * x",
     "w + a * y - b * x"),
    ("sigma_ranks keys a rank by the size of the side holding site 1", "classifier.py",
     "key = frozenset(order[:l] if 1 in order[:l] else order[l:])",
     "key = len(order[:l] if 1 in order[:l] else order[l:])"),
    ("dicke_scan ranks the occupation-class matrix at split l + 1", "classifier.py",
     "symmetric_matrix(n, l, key)",
     "symmetric_matrix(n, l + 1, key)"),
    ("dicke_scan's orbit memo hands a row another multiset's rank", "classifier.py",
     "rows.append(ScanRow(counts, *orbit[key]))",
     "rows.append(ScanRow(counts, *orbit[max(orbit)]))"),
    ("symmetric_matrix puts every ONE in column 0", "matricizer.py",
     "row[col_of[tuple(map(sub, counts, a))]] = ONE",
     "row[0] = ONE"),
    ("support() keeps repeated rows", "matricizer.py",
     "rows = dict.fromkeys(tuple(row) for row in by_row.values())",
     "rows = list(tuple(row) for row in by_row.values())"),
    ("the Dicke generator leaves chosen positions free for later levels", "states.py",
     "tuple(w for w in free if w not in chosen)",
     "free"),
    ("every amplitude gets its own code", "states.py",
     'object.__setattr__(self, "classes", tuple(code_of))\n'
     '        object.__setattr__(self, "codes", tuple(codes))',
     'object.__setattr__(self, "classes", tuple(amps.values()))\n'
     '        object.__setattr__(self, "codes", tuple(range(len(amps))))'),
    ("every amplitude gets code 0", "states.py",
     'object.__setattr__(self, "codes", tuple(codes))',
     'object.__setattr__(self, "codes", (0,) * len(codes))'),
]


def _ignore(directory, names):
    skipped = SKIP | ({"out"} if Path(directory).name == "bench" else set())
    return [name for name in names if name in skipped]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "no output"


def main() -> int:
    package = ROOT / "src" / "sloccrank"
    stale = [name for name, module, text, _ in MUTANTS
             if (package / module).read_text(encoding="utf-8").count(text) != 1]
    if stale:
        print("not found exactly once:", *stale, sep="\n  ")
        return 2
    survivors = []
    for name, module, text, replacement in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = Path(tmp) / "repo"
            shutil.copytree(ROOT, tree, ignore=_ignore)
            target = tree / "src" / "sloccrank" / module
            source = target.read_text(encoding="utf-8")
            target.write_text(source.replace(text, replacement), encoding="utf-8")
            # PYTHONPATH=src of the copy, never the caller's, which may hold
            # the unmutated tree
            env = {**os.environ, "PYTHONPATH": "src"}
            run = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                                 capture_output=True, text=True)
        if run.returncode == 0:
            survivors.append(name)
            print(f"SURVIVED  {name}", flush=True)
        else:
            print(f"killed    {name}: {_first_failure(run.stdout)}", flush=True)
    print(f"\n{len(survivors)} of {len(MUTANTS)} mutants survive tier-1")
    for name in survivors:
        print(f"  {name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
