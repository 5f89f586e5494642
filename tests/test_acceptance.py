"""Acceptance gate: one check per shipped guarantee, one printed line each.

Each test emits `ACCEPTANCE <k> <name>: PASS|FAIL` (shown in the terminal
summary via conftest, outside pytest's capture) and then asserts, so a FAIL
also fails the suite.
"""

import json
import random
import time
from itertools import permutations

import conftest

from sloccrank.classifier import (
    dicke_scan,
    family_label,
    scan_to_csv,
    signature,
    table1_suite,
)
from sloccrank.linalg import rank_exact, rank_numeric
from sloccrank.matricizer import (
    coefficient_matrix,
    optimal_split,
    permutation_set,
    reduced_density,
    split_capacity,
)
from sloccrank.slocc import (
    random_sparse_state,
    run_monotone_trials,
    run_theorem1_trials,
)
from sloccrank.states import gen_dicke3, gen_ghz

from oracles import from_ints, partial_trace, rank_mod_prime, small_dims

SEED = 20260823


def _report(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    line = f"ACCEPTANCE {num} {name}: {status}{suffix}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"acceptance criterion {num} ({name}) failed{suffix}"


def test_c01_reference_table_reproduction():
    start = time.monotonic()
    labels = set()
    failures = []
    for name, state, expected in table1_suite():
        got = family_label(signature(state, 2))
        labels.add(got)
        if got != expected:
            failures.append((name, got, expected))
    elapsed = time.monotonic() - start
    ok = not failures and len(labels) == 22 and elapsed < 5.0
    _report(1, "2x2x2x4 table (24 reps, 22 families)", ok,
            f"families={len(labels)} failures={len(failures)} "
            f"t={elapsed:.2f}s")


def test_c02_ghz_rank_is_local_dimension():
    bad = []
    for n in range(3, 7):
        for d in (2, 3, 4):
            state = gen_ghz(n, d)
            for l in range(1, n):
                for sigma in permutation_set(n, l):
                    r = rank_exact(
                        coefficient_matrix(state, l, sigma).to_matrix()
                    ).rank
                    if r != d:
                        bad.append((n, d, l, sigma.label(), r))
    _report(2, "GHZ rank == d at every (l, sigma)", not bad,
            f"checked n=3..6, d=2..4; mismatches={len(bad)}")


def test_c03_split_capacity():
    dims = (2, 2, 2, 4)
    caps = tuple(split_capacity(dims, l) for l in (1, 2, 3))
    ok = caps == (4, 64, 4) and optimal_split(dims) == 2
    for d in (2, 3, 4):
        for n in range(2, 7):
            if optimal_split((d,) * n) != n // 2:
                ok = False
    _report(3, "split capacity (4,64,4), optimal l = floor(n/2)", ok,
            f"caps={caps}")


def test_c04_permutation_sets():
    ok = permutation_set(4, 2).labels == ("I", "(1,3)", "(1,4)")
    for n in range(2, 7):
        expected = ("I",) + tuple(f"(1,{j})" for j in range(2, n + 1))
        if permutation_set(n, 1).labels != expected:
            ok = False
    _report(4, "canonical permutation sets", ok)


def test_c05_local_transform_matrix_identity():
    start = time.monotonic()
    records = run_theorem1_trials(200, seed=SEED)
    elapsed = time.monotonic() - start
    fails = [r for r in records if r["result"] != "pass"]
    ok = len(records) >= 200 and not fails and elapsed < 60.0
    _report(5, "matricization identity, 200 randomized trials", ok,
            f"trials={len(records)} fails={len(fails)} t={elapsed:.1f}s")


def test_c06_rank_monotone_weak_form():
    records = run_monotone_trials(200, seed=SEED + 1)
    fails = [r for r in records if r["result"] == "fail"]
    skips = [r for r in records if r["result"] == "skip"]
    passes = [r for r in records if r["result"] == "pass"]
    invertible_passes = [r for r in passes if r["invertible"]]
    ok = len(records) >= 200 and not fails and len(invertible_passes) > 0
    _report(6, "rank nonincrease under local ops, 200 trials", ok,
            f"pass={len(passes)} skip={len(skips)} fail={len(fails)}")


def test_c07_reduced_density_consistency():
    rng = random.Random(SEED + 2)
    checked = 0
    ok = True
    while checked < 50:
        dims = small_dims(rng, 4, 3, 81)
        state = random_sparse_state(dims, rng)
        for q in range(1, len(dims) + 1):
            rho = reduced_density(state, [q])
            if rho != partial_trace(state, [q]) or rho != rho.dagger():
                ok = False
            sigma = permutation_set(len(dims), 1).sigmas[q - 1]
            m = coefficient_matrix(state, 1, sigma).to_matrix()
            if rank_exact(rho).rank != rank_exact(m).rank:
                ok = False
        checked += 1
    _report(7, "reduced density == brute-force partial trace", ok,
            f"states={checked}")


def test_c08_exact_numeric_rank_agreement():
    rng = random.Random(SEED + 3)
    mismatches = 0
    for _ in range(100):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        m = from_ints(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        if rank_numeric(m).rank != rank_exact(m).rank:
            mismatches += 1
    _report(8, "exact vs numeric rank on 100 random matrices",
            mismatches == 0, f"mismatches={mismatches}")


def test_c09_dicke_family_structure():
    start = time.monotonic()
    pset, rows = dicke_scan(3, 9)
    by_occ = {row.occupations: row for row in rows}

    # every arrangement of an occupation multiset lands in the same family
    ok = True
    groups = {}
    for row in rows:
        groups.setdefault(tuple(sorted(row.occupations)), set()).add(row.ranks)
    arrangement_groups = 0
    for multiset, rank_tuples in groups.items():
        if len(set(permutations(multiset))) > 1:
            arrangement_groups += 1
        if len(rank_tuples) != 1:
            ok = False

    # balanced occupations strictly dominate the lopsided ones at sigma_0
    r_balanced = by_occ[(3, 3, 3)].ranks[0]
    r_lopsided = by_occ[(7, 1, 1)].ranks[0]
    r_edge = by_occ[(8, 0, 1)].ranks[0]
    if not (r_balanced > r_lopsided and r_balanced > r_edge):
        ok = False

    # dual oracle on the three pinned values
    for occ, expected in (((3, 3), r_balanced), ((1, 1), r_lopsided),
                          ((0, 1), r_edge)):
        m = coefficient_matrix(gen_dicke3(9, *occ), 4).to_matrix()
        if rank_mod_prime(m) != expected or rank_numeric(m).rank != expected:
            ok = False

    # figure CSVs regenerate inside the runtime budget
    csv3 = scan_to_csv(3, pset, rows)
    pset4, rows4 = dicke_scan(4, 8)
    csv4 = scan_to_csv(4, pset4, rows4)
    elapsed = time.monotonic() - start
    if not (csv3 and csv4 and elapsed < 300.0):
        ok = False
    _report(9, "Dicke scans: arrangement merge + dual oracle + CSVs", ok,
            f"rank(3,3,3)={r_balanced} rank(7,1,1)={r_lopsided} "
            f"rank(8,0,1)={r_edge} multisets={arrangement_groups} "
            f"t={elapsed:.1f}s")


def test_c10_seeded_runs_are_byte_identical():
    a = "\n".join(
        json.dumps(r, sort_keys=True) for r in run_theorem1_trials(10, seed=42)
    )
    b = "\n".join(
        json.dumps(r, sort_keys=True) for r in run_theorem1_trials(10, seed=42)
    )
    pset1, rows1 = dicke_scan(3, 6)
    pset2, rows2 = dicke_scan(3, 6)
    csv_a = scan_to_csv(3, pset1, rows1)
    csv_b = scan_to_csv(3, pset2, rows2)
    ok = a.encode() == b.encode() and csv_a.encode() == csv_b.encode()
    _report(10, "byte-identical seeded reruns", ok)
