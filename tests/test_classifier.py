"""Rank signatures, family labels, the reference table, Dicke scans."""

import hashlib
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sloccrank.classifier
from sloccrank.classifier import (
    RankSignature,
    ScanRow,
    classify,
    classify_to_csv,
    dicke_scan,
    family_label,
    scan_to_csv,
    signature,
    table1_suite,
)
from sloccrank.linalg import rank_exact, rank_numeric
from sloccrank.matricizer import (
    CoefficientMatrix,
    coefficient_matrix,
    permutation_set,
    symmetric_matrix,
)
from sloccrank.scalars import ONE, ComplexRational
from sloccrank.slocc import apply_local, random_ilo_set
from sloccrank.states import QuditState, gen_dicke3, gen_dicke4, gen_ghz, gen_w

from oracles import matched_occupation_classes, rank_mod_prime


# -- signatures and labels --------------------------------------------------

def test_signature_ghz4():
    sig = signature(gen_ghz(4, 2), 2)
    assert sig.ranks == (2, 2, 2)
    assert sig.sigma_set.labels == ("I", "(1,3)", "(1,4)")
    assert family_label(sig) == "F{2,2,2}@{I,(1,3),(1,4)}"


def test_signature_product_state():
    dims = (2, 2, 2, 4)
    s = QuditState(dims, {0: ComplexRational(1)})
    assert signature(s, 2).ranks == (1, 1, 1)


def test_signature_auto_split():
    sig = signature(gen_ghz(4, 2))
    assert sig.split == 2


def test_signature_split_is_a_checked_int():
    s = gen_ghz(3, 2)
    assert type(signature(s, 1).split) is int
    for l in (1.0, True, "1"):
        with pytest.raises(TypeError):
            signature(s, l)


def test_signature_w4():
    assert signature(gen_w(4), 2).ranks == (2, 2, 2)


def test_signature_rejects_mismatched_ranks():
    pset = permutation_set(4, 2)
    with pytest.raises(ValueError):
        RankSignature(pset, (1, 2))


@pytest.mark.parametrize("n,l", [(4, 2), (5, 1), (6, 3)])
def test_signature_split_is_its_sigma_sets_split(n, l):
    pset = permutation_set(n, l)
    sig = RankSignature(pset, (1,) * len(pset))
    assert sig.split == pset.l == l
    with pytest.raises(AttributeError):
        sig.split = l + 1


def test_signature_invariant_under_invertible_ops():
    rng = random.Random(77)
    s = gen_w(4)
    for _ in range(5):
        ops = random_ilo_set(s.dims, rng)
        t = apply_local(s, ops)
        assert signature(t, 2).ranks == signature(s, 2).ranks


def test_signature_drops_zero_and_repeated_lines_once_per_sigma(monkeypatch):
    calls = []

    support = CoefficientMatrix.support

    def counting(cm):
        calls.append(cm)
        return support(cm)

    monkeypatch.setattr(CoefficientMatrix, "support", counting)
    sig = signature(gen_w(5), 2)
    assert len(calls) == len(sig.sigma_set)


def test_signature_hashes_no_amplitude_of_a_built_state(monkeypatch):
    # amplitudes are hashed once, when the state is built; support() then
    # compares int codes
    rng = random.Random(3)
    state = QuditState((3,) * 4, {i: ComplexRational(rng.randint(-3, 3), rng.randint(1, 3))
                                  for i in range(81)})
    hashed = []
    hash_value = ComplexRational.__hash__

    def counting(z):
        hashed.append(z)
        return hash_value(z)

    monkeypatch.setattr(ComplexRational, "__hash__", counting)
    assert signature(state).ranks == (9, 9, 9)
    assert hashed == []
    hash(ONE)  # the wrapper is live
    assert len(hashed) == 1


# -- classify ---------------------------------------------------------------

def test_classify_groups_equal_signatures():
    states = [gen_ghz(4, 2), gen_w(4), QuditState((2,) * 4, {0: ComplexRational(1)})]
    groups = classify(states, 2, ids=["ghz", "w", "product"])
    pset = permutation_set(4, 2)
    assert groups == {
        RankSignature(pset, (1, 1, 1)): ["product"],
        RankSignature(pset, (2, 2, 2)): ["ghz", "w"],
    }
    assert [family_label(sig) for sig in groups] == [
        "F{1,1,1}@{I,(1,3),(1,4)}",
        "F{2,2,2}@{I,(1,3),(1,4)}",
    ]


def test_classify_validation():
    with pytest.raises(ValueError):
        classify([gen_ghz(3, 2), gen_ghz(3, 3)], 1, ids=["a", "b"])
    with pytest.raises(ValueError):
        classify([gen_ghz(3, 2)], 1, ids=["a", "b"])
    assert classify([], 1, ids=[]) == {}
    with pytest.raises(TypeError):  # ids is keyword-only and required
        classify([gen_ghz(3, 2), gen_w(3)], 2)


def test_classify_csv_shape():
    groups = classify([gen_ghz(4, 2), gen_w(4)], 2, ids=["g", "w"])
    csv = classify_to_csv(groups)
    lines = csv.strip().splitlines()
    assert lines[1] == "state_id,l,sigma_list,ranks,family_label"
    assert 'g,2,"I;(1,3);(1,4)","2,2,2","F{2,2,2}@{I,(1,3),(1,4)}"' in lines


# -- reference table --------------------------------------------------------

def test_table_has_24_states_and_22_families():
    suite = table1_suite()
    assert len(suite) == 24
    labels = {expected for _, _, expected in suite}
    assert len(labels) == 22


def test_table_signatures_match_their_subscripts():
    for name, state, expected in table1_suite():
        assert family_label(signature(state, 2)) == expected, name


def test_table_shared_families_are_the_rank222_trio():
    suite = table1_suite()
    by_label = {}
    for name, _, expected in suite:
        by_label.setdefault(expected, []).append(name)
    shared = {lab: names for lab, names in by_label.items() if len(names) > 1}
    assert set(shared) == {"F{2,2,2}@{I,(1,3),(1,4)}"}
    assert sorted(shared["F{2,2,2}@{I,(1,3),(1,4)}"]) == [
        "F222a", "F222b_W", "F222c_GHZ"
    ]


def test_table_product_and_maximal_rows():
    suite = {name: (state, expected) for name, state, expected in suite_list()}
    _, expected = suite["F111"]
    assert expected == "F{1,1,1}@{I,(1,3),(1,4)}"
    _, expected = suite["F444"]
    assert expected == "F{4,4,4}@{I,(1,3),(1,4)}"


def suite_list():
    return table1_suite()


# -- Dicke scans ------------------------------------------------------------

def test_dicke_scan_small_matches_generic_signature():
    # the generated state through every sigma of the set, as `signature` ranks it
    for levels, n, gen in ((3, 5, gen_dicke3), (4, 6, gen_dicke4)):
        pset, rows = dicke_scan(levels, n)
        assert pset.labels == permutation_set(n, n // 2).labels
        for row in rows:
            sig = signature(gen(n, *row.occupations[1:]), n // 2)
            assert row.ranks == sig.ranks, row.occupations


def test_dicke_scan_rank_matches_occupation_class_oracle():
    _, rows = dicke_scan(3, 7)
    for row in rows:
        expected = matched_occupation_classes(7, 3, row.occupations[1:])
        assert row.ranks[0] == expected, row.occupations


def test_dicke_scan_pure_zero_occupation_is_product():
    _, rows = dicke_scan(3, 4)
    by_occ = {row.occupations: row for row in rows}
    assert set(by_occ[(4, 0, 0)].ranks) == {1}


def test_dicke_scan_variance_is_exact():
    _, rows = dicke_scan(3, 4)
    by_occ = {row.occupations: row for row in rows}
    assert by_occ[(2, 1, 1)].variance == Fraction(2, 9)
    assert by_occ[(4, 0, 0)].variance == Fraction(
        (Fraction(8, 3) ** 2 + 2 * Fraction(4, 3) ** 2), 3
    )


def test_dicke_scan_d39_pinned_ranks():
    _, rows = dicke_scan(3, 9)
    by_occ = {row.occupations: row for row in rows}
    assert by_occ[(3, 3, 3)].ranks[0] == 12
    assert by_occ[(7, 1, 1)].ranks[0] == 4
    assert by_occ[(8, 0, 1)].ranks[0] == 2


def test_dicke_d39_balanced_rank_confirmed_by_dual_oracle():
    state = gen_dicke3(9, 3, 3)
    m = coefficient_matrix(state, 4).to_matrix()
    assert rank_exact(m).rank == 12
    assert rank_mod_prime(m) == 12
    assert rank_numeric(m).rank == 12


@pytest.mark.parametrize(
    "levels,n,pinned",
    [
        (3, 11, {(4, 4, 3): 16, (9, 1, 1): 4, (10, 0, 1): 2, (1, 5, 5): 11}),
        (4, 9, {(3, 2, 2, 2): 22, (6, 1, 1, 1): 8, (8, 0, 0, 1): 2}),
        # the largest accepted n; pinned values from matched_occupation_classes
        (3, 14, {(5, 5, 4): 24, (12, 1, 1): 4, (13, 0, 1): 2, (1, 7, 6): 14}),
        (4, 12, {(3, 3, 3, 3): 44, (9, 1, 1, 1): 8, (11, 0, 0, 1): 2,
                 (1, 4, 4, 3): 32}),
    ],
)
def test_dicke_scan_largest_accepted_n(levels, n, pinned):
    pset, rows = dicke_scan(levels, n)
    assert len(pset) == len(permutation_set(n, n // 2))
    by_occ = {row.occupations: row.ranks for row in rows}
    for occ, rank in pinned.items():
        assert set(by_occ[occ]) == {rank}, occ
    for row in rows:
        expected = matched_occupation_classes(n, n // 2, row.occupations[1:])
        assert set(row.ranks) == {expected}, row.occupations


@pytest.mark.parametrize("levels,n", [(3, 9), (4, 8), (3, 10)])
def test_dicke_scan_rows_match_their_own_occupation_class_matrix(levels, n):
    # the scan ranks one arrangement per multiset; the kernel checks every
    # arrangement on its own counts, so a wrong orbit premise would show here
    _, rows = dicke_scan(levels, n)
    for row in rows:
        r = rank_exact(symmetric_matrix(n, n // 2, row.occupations)).rank
        assert set(row.ranks) == {r}, row.occupations
        assert row.variance == statistics.pvariance(map(Fraction, row.occupations))


@pytest.mark.parametrize(
    "levels,n,eliminations",
    [(3, 9, 12), (4, 8, 15), (3, 10, 14), (3, 14, 24), (4, 12, 34)],
)
def test_dicke_scan_eliminates_once_per_multiset(monkeypatch, levels, n, eliminations):
    # one elimination per multiset of counts (a partition of n into at most
    # `levels` parts), not one per arrangement
    calls = []

    def counting(m):
        calls.append(m)
        return rank_exact(m)

    monkeypatch.setattr(sloccrank.classifier, "rank_exact", counting)
    _, rows = dicke_scan(levels, n)
    assert len(calls) == len({tuple(sorted(row.occupations)) for row in rows})
    assert len(calls) == eliminations


def test_dicke_scan_rejects_out_of_range():
    with pytest.raises(ValueError):
        dicke_scan(5, 4)
    with pytest.raises(ValueError):
        dicke_scan(3, 15)
    with pytest.raises(ValueError):
        dicke_scan(4, 13)
    with pytest.raises(ValueError):
        dicke_scan(3, 1)


def test_scan_csv_layout():
    pset, rows = dicke_scan(3, 4)
    csv = scan_to_csv(3, pset, rows)
    lines = csv.splitlines()
    assert lines[0].startswith("# columns: l0,l1,l2,variance,rank_sigma0")
    assert lines[1] == "# sigma order: I;(1,3);(1,4)"
    assert lines[2] == (
        "l0,l1,l2,variance,rank_sigma0,rank_sigma1,rank_sigma2,family_label"
    )
    assert len(lines) == 3 + len(rows)
    import csv as csv_mod

    cells = next(csv_mod.reader([lines[3]]))
    assert len(cells) == 8
    assert cells[-1].startswith("F{")


def test_scan_csv_is_pinned():
    # sha256 of `scan --levels 3 --n 6`; pins the occupation order too
    csv = scan_to_csv(3, *dicke_scan(3, 6))
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "d57bbb4ae6e0e333dfaf41045f5453990a0645b15069e38128896395c2ee9d56"
    )


# sha256 of the CSVs that scripts/reproduce_dicke_figures.py writes
_FIGURE_CSV_SHA256 = {
    (3, 9): "3a0c66e9299cef830f26a53a5e78fc6296ca53b7d969e0e664a88ce8e915e819",
    (4, 8): "1d1c4f4397f0c7850ca9746ede635d9b88664e4f1e7d6f82c4cc6f92ecd1c522",
}


@pytest.mark.parametrize("levels,n", sorted(_FIGURE_CSV_SHA256))
def test_figure_scan_csvs_are_pinned(levels, n):
    csv = scan_to_csv(levels, *dicke_scan(levels, n))
    assert hashlib.sha256(csv.encode()).hexdigest() == _FIGURE_CSV_SHA256[levels, n]


# sha256 of the CSVs of the benchmark's other scan and the largest accepted scans
_LARGE_CSV_SHA256 = {
    (3, 10): "a8dec4902e831f620ddafa9ef2b301262e6913a9ad66824f6a365957c5a36b7f",
    (3, 14): "4abc36ac83e402307299e160950f428391eb12eea3dc6c19b8871c18acd1850e",
    (4, 12): "55c52b1f83b1a8eab862a1e6e1ceb9026eb364be0b3bd9c90f847bf0e351c86c",
}


@pytest.mark.parametrize("levels,n", sorted(_LARGE_CSV_SHA256))
def test_large_scan_csvs_are_pinned(levels, n):
    csv = scan_to_csv(levels, *dicke_scan(levels, n))
    assert hashlib.sha256(csv.encode()).hexdigest() == _LARGE_CSV_SHA256[levels, n]


def test_figure_script_writes_the_pinned_csvs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "reproduce_dicke_figures.py"),
         "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    for (levels, n), digest in _FIGURE_CSV_SHA256.items():
        data = (tmp_path / f"dicke{levels}_n{n}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_scan_csv_formats_each_ranks_and_label_pair():
    pset = permutation_set(4, 2)
    same = (2, 2, 2)
    rows = [
        ScanRow((1, 2, 1), Fraction(1, 6), same),
        ScanRow((2, 2, 0), Fraction(4, 3), (1, 2, 3)),
        ScanRow((4, 0, 0), Fraction(8, 3), same),
    ]
    body = scan_to_csv(3, pset, rows).splitlines()[3:]
    assert body == [
        '1,2,1,0.16666666666666666,2,2,2,"F{2,2,2}@{I,(1,3),(1,4)}"',
        '2,2,0,1.3333333333333333,1,2,3,"F{1,2,3}@{I,(1,3),(1,4)}"',
        '4,0,0,2.6666666666666665,2,2,2,"F{2,2,2}@{I,(1,3),(1,4)}"',
    ]


def test_scan_csv_builds_one_label_per_distinct_ranks(monkeypatch):
    pset, rows = dicke_scan(3, 9)
    labelled = []
    label = sloccrank.classifier._label  # family_label's format, which the scan reuses

    def counting(ranks, sigmas):
        labelled.append(ranks)
        return label(ranks, sigmas)

    monkeypatch.setattr(sloccrank.classifier, "_label", counting)
    csv = scan_to_csv(3, pset, rows)
    assert sorted(labelled) == sorted({",".join(map(str, row.ranks)) for row in rows})
    assert len(labelled) < len(rows)
    assert hashlib.sha256(csv.encode()).hexdigest() == _FIGURE_CSV_SHA256[3, 9]


def test_scan_csv_levels4_has_l3_column():
    pset, rows = dicke_scan(4, 4)
    csv = scan_to_csv(4, pset, rows)
    header = csv.splitlines()[2]
    assert header.startswith("l0,l1,l2,l3,variance")
