"""Matricization, permutation sets, reduced densities, split capacity."""

import random
import re
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import sloccrank.matricizer
from sloccrank.linalg import rank_exact
from sloccrank.matricizer import (
    QuditPermutation,
    coefficient_matrix,
    optimal_split,
    permutation_set,
    reduced_density,
    split_capacity,
    symmetric_matrix,
)
from sloccrank.scalars import ComplexRational, ONE, ZERO
from sloccrank.slocc import random_sparse_state
from sloccrank.states import (
    QuditState,
    _symmetric_state,
    flat_index,
    gen_dicke3,
    gen_dicke4,
    gen_ghz,
    gen_w,
    multiindex_of,
    state_from_json,
)

from oracles import (
    distinct_support_by_value,
    from_ints,
    partial_trace,
    rank_mod_prime,
    symmetric_terms,
    transpose,
    value_entries,
)

dims_strategy = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple)


# -- QuditPermutation -------------------------------------------------------

def test_permutation_labels_and_parse():
    assert QuditPermutation(()).label() == "I"
    sigma = QuditPermutation(((1, 3), (2, 4)))
    assert sigma.label() == "(1,3)(2,4)"
    assert QuditPermutation.parse("(1,3)(2,4)") == sigma
    assert QuditPermutation.parse("I").transpositions == ()
    assert QuditPermutation.parse(" (1, 4) ") == QuditPermutation(((1, 4),))


def test_permutation_site_order():
    sigma = QuditPermutation(((1, 3),))
    assert sigma.site_order(4) == (3, 2, 1, 4)
    assert QuditPermutation(((1, 3), (2, 4))).site_order(4) == (3, 4, 1, 2)


def test_permutation_rejects_unsorted_or_repeated():
    with pytest.raises(ValueError):
        QuditPermutation(((2, 3), (1, 4)))
    with pytest.raises(ValueError):
        QuditPermutation(((1, 4), (1, 3)))


def test_permutation_parse_rejects_garbage():
    # full-width and underscored digits, a trailing empty pair, half pairs
    for bad in ("1,3", "(１,３)", "(1_0,3)", "(1,3)()", "(1,3", "(1,3)(2)", "((1,3))"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            QuditPermutation.parse(bad)


# -- permutation sets -------------------------------------------------------

def test_permutation_set_4_2_pinned():
    pset = permutation_set(4, 2)
    assert pset.labels() == ("I", "(1,3)", "(1,4)")


def test_permutation_set_builds_its_labels_once():
    pset = permutation_set(5, 2)
    assert pset.labels() is pset.labels()
    other = permutation_set(5, 2)
    assert pset == other and hash(pset) == hash(other)


def test_permutation_set_l1_family():
    for n in range(2, 7):
        pset = permutation_set(n, 1)
        assert pset.labels() == ("I",) + tuple(
            f"(1,{j})" for j in range(2, n + 1)
        )


def test_permutation_set_5_2_pinned():
    pset = permutation_set(5, 2)
    assert pset.labels() == (
        "I", "(1,3)", "(1,4)", "(1,5)", "(2,3)", "(2,4)", "(2,5)"
    )


def test_permutation_set_canonical_order():
    # ascending k, then lex over row tuples, then column tuples
    pset = permutation_set(6, 3)
    ks = [len(s.transpositions) for s in pset]
    assert ks == sorted(ks)
    assert pset.labels()[0] == "I"
    by_k = {}
    for s in pset:
        by_k.setdefault(len(s.transpositions), []).append(s.transpositions)
    for k, ts in by_k.items():
        assert ts == sorted(ts)


def test_permutation_set_split_bounds():
    with pytest.raises(ValueError):
        permutation_set(4, 0)
    with pytest.raises(ValueError):
        permutation_set(4, 4)
    # a split is an int: 1.5 used to matricize at l = 1
    for l in (1.5, 2.0, True, "2"):
        with pytest.raises(TypeError):
            permutation_set(4, l)
        with pytest.raises(TypeError):
            coefficient_matrix(gen_ghz(4, 2), l)


def test_permutation_set_stays_type_strict_with_a_warm_cache():
    # 2.0 and True hash equal to 2 and 1, so a cached (4, 2) must not answer them
    assert permutation_set(4, 2) is permutation_set(4, 2)
    for n, l in ((4, 2.0), (4, True), (4.0, 2), (True, 1)):
        with pytest.raises(TypeError):
            permutation_set(n, l)


# -- coefficient matrices ---------------------------------------------------

def test_ghz_l1_matrix_structure():
    cm = coefficient_matrix(gen_ghz(3, 2), 1)
    m = cm.to_matrix()
    assert (m.rows, m.cols) == (2, 4)
    one = ComplexRational(1)
    nonzero = {
        (r, c) for r in range(2) for c in range(4) if not m.data[r][c].is_zero()
    }
    assert nonzero == {(0, 0), (1, 3)}
    assert m.data[0][0] == one and m.data[1][3] == one


def test_basis_ket_matrix_is_single_one():
    dims = (2, 2, 2, 4)
    s = QuditState(dims, {flat_index((1, 0, 0, 2), dims): ComplexRational(1)})
    m = coefficient_matrix(s, 2).to_matrix()
    assert (m.rows, m.cols) == (4, 8)
    # rows = (s1,s2) lex, cols = (s3,s4) lex
    assert m.data[2][2] == ComplexRational(1)
    assert sum(1 for row in m.data for x in row if not x.is_zero()) == 1


def test_sigma_routes_sites_to_blocks():
    dims = (2, 2, 2, 4)
    s = QuditState(dims, {flat_index((1, 0, 0, 2), dims): ComplexRational(1)})
    # sigma = (1,4): rows are (s4, s2), cols are (s3, s1)
    m = coefficient_matrix(s, 2, QuditPermutation(((1, 4),)))
    assert m.row_dims == (4, 2)
    assert m.col_dims == (2, 2)
    grid = m.to_matrix()
    assert grid.data[flat_index((2, 0), (4, 2))][flat_index((0, 1), (2, 2))] == (
        ComplexRational(1)
    )


def test_coefficient_matrix_rejects_out_of_block_sigma():
    s = gen_ghz(4, 2)
    with pytest.raises(ValueError):
        coefficient_matrix(s, 2, QuditPermutation(((3, 4),)))
    with pytest.raises(ValueError):
        coefficient_matrix(s, 2, QuditPermutation(((1, 2),)))


@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_matrix_shape_covers_full_space(dims, seed):
    rng = random.Random(seed)
    s = random_sparse_state(dims, rng)
    n = len(dims)
    for l in range(1, n):
        for sigma in permutation_set(n, l):
            m = coefficient_matrix(s, l, sigma)
            assert m.rows * m.cols == prod(dims)
            # an entry holds the code of its value in the state's classes
            assert sum(
                not m.classes[k].is_zero() for _, _, k in m.entries
            ) == len(s.amplitudes)


@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_rank_is_transpose_symmetric_across_split(dims, seed):
    # transposing the matricization (swapping the blocks) preserves rank
    rng = random.Random(seed)
    s = random_sparse_state(dims, rng)
    n = len(dims)
    for l in range(1, n):
        m = coefficient_matrix(s, l).to_matrix()
        assert rank_exact(m).rank == rank_exact(transpose(m)).rank


# few distinct values, some with non-unit denominators, so rows and columns
# repeat and differ only by scale
_VALUES = (
    ComplexRational(1),
    ComplexRational(-1),
    ComplexRational(1, 0, 2),
    ComplexRational(1, 2, 3),
    ComplexRational(0, 1),
)


@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_support_rank_matches_full_matrix_and_mod_prime(dims, seed):
    rng = random.Random(seed)
    D = prod(dims)
    k = rng.randint(1, min(D, 12))
    s = QuditState(dims, {i: rng.choice(_VALUES) for i in rng.sample(range(D), k)})
    n = len(dims)
    for l in range(1, n):
        for sigma in permutation_set(n, l):
            cm = coefficient_matrix(s, l, sigma)
            full = cm.to_matrix()
            rank = rank_exact(cm.support()).rank
            assert rank == rank_exact(full).rank == rank_mod_prime(full)


def test_support_drops_zero_and_repeated_lines():
    # row 1 is zero, rows 0 and 2 are (1, 2, 1) and (1, 0, 1); column 2
    # repeats column 0
    dims = (3, 3)
    amps = {(0, 0): 1, (0, 1): 2, (0, 2): 1, (2, 0): 1, (2, 2): 1}
    s = QuditState(
        dims, {flat_index(k, dims): ComplexRational(v) for k, v in amps.items()}
    )
    cm = coefficient_matrix(s, 1)
    assert cm.support() == from_ints([[1, 2], [1, 0]])
    assert rank_exact(cm.support()).rank == rank_exact(cm.to_matrix()).rank == 2


def _assert_support_is_the_value_keyed_oracle(state):
    n = state.n
    for l in range(1, n):
        for sigma in permutation_set(n, l):
            oracle = distinct_support_by_value(value_entries(state, l, sigma))
            assert coefficient_matrix(state, l, sigma).support() == oracle, (l, sigma)


# value texts for state JSON; each parsed amplitude is an object of its own
_POOL = (("1", "0"), ("-1", "0"), ("1/2", "0"), ("1", "2/3"), ("0", "1"))


@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_support_of_a_sparse_pooled_state_is_the_value_keyed_oracle(dims, seed):
    # 2-3 values over many terms, so rows and columns repeat
    rng = random.Random(seed)
    pool = rng.sample(_POOL, rng.randint(2, 3))
    D = prod(dims)
    amplitudes = []
    for i in rng.sample(range(D), rng.randint(1, min(D, 24))):
        re, im = rng.choice(pool)
        amplitudes.append({"index": list(multiindex_of(i, dims)), "re": re, "im": im})
    state = state_from_json({"dims": list(dims), "amplitudes": amplitudes})
    assert len(state.classes) <= len(pool)
    _assert_support_is_the_value_keyed_oracle(state)


@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_support_of_a_dense_state_is_the_value_keyed_oracle(dims, seed):
    rng = random.Random(seed)
    parts = range(-2, 3)
    state = QuditState(dims, {i: ComplexRational(rng.choice(parts), rng.choice(parts))
                              for i in range(prod(dims))})
    _assert_support_is_the_value_keyed_oracle(state)


@pytest.mark.parametrize(
    "state",
    [gen_ghz(4, 3), gen_ghz(5, 2), gen_w(5), gen_dicke3(6, 2, 1),
     gen_dicke3(5, 1, 1), gen_dicke4(5, 1, 1, 1)],
    ids=repr,
)
def test_support_of_a_symmetric_state_is_the_value_keyed_oracle(state):
    _assert_support_is_the_value_keyed_oracle(state)


# -- symmetric states --------------------------------------------------------

def test_symmetric_matrix_of_one_dicke_class_is_a_permutation():
    m = symmetric_matrix(4, 2, (2, 1, 1))
    # rows (0,1,1), (1,0,1), (1,1,0), (2,0,0); column b = (2,1,1) - a
    assert m == from_ints(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )


@st.composite
def dicke_classes(draw):
    """(levels, n, occupation tuple of all `levels` counts, summing to n)."""
    levels = draw(st.integers(2, 4))
    n = draw(st.integers(2, 7))
    classes = [c for c in product(range(n + 1), repeat=levels) if sum(c) == n]
    return levels, n, draw(st.sampled_from(classes))


@given(dicke_classes())
@settings(max_examples=40, deadline=None)
def test_symmetric_matrix_rank_matches_explicit_superposition(case):
    levels, n, counts = case
    terms = symmetric_terms(levels, n, counts[1:])
    state = QuditState((levels,) * n, dict.fromkeys(terms, ONE))
    for l in range(1, n):
        m = coefficient_matrix(state, l)
        r = rank_exact(symmetric_matrix(n, l, counts)).rank
        assert r == rank_exact(m.support()).rank == rank_mod_prime(m.to_matrix()), l


@pytest.mark.parametrize(
    "levels,n,occupations",
    [(3, 6, (2, 1)), (3, 9, (2, 1)), (4, 8, (2, 1, 1)), (3, 7, (0, 0)),
     (4, 6, (1, 0, 2)), (2, 7, (3,))],
)
def test_dicke_support_is_its_one_class_matrix(levels, n, occupations):
    # rows sharing a digit multiset are equal, and so are such columns; the
    # support keeps one of each, which leaves a permutation matrix of the
    # one-class matrix's side at every split and sigma
    state = _symmetric_state(levels, n, occupations)
    counts = (n - sum(occupations),) + occupations
    for l in range(1, n):
        side = symmetric_matrix(n, l, counts).rows
        for sigma in permutation_set(n, l):
            m = coefficient_matrix(state, l, sigma).support()
            assert (m.rows, m.cols) == (side, side), (l, sigma)
            for row in m.data:
                assert row.count(ONE) == 1 and row.count(ZERO) == side - 1, (l, sigma)


# -- reduced density --------------------------------------------------------

@given(dims_strategy, st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_reduced_density_matches_brute_force(dims, seed):
    rng = random.Random(seed)
    s = random_sparse_state(dims, rng)
    n = len(dims)
    for q in range(1, n + 1):
        rho = reduced_density(s, [q])
        assert rho == partial_trace(s, [q])
        assert rho == rho.dagger()


def test_reduced_density_multisite():
    s = gen_ghz(4, 2)
    rho = reduced_density(s, [1, 3])
    assert rho == partial_trace(s, [1, 3])
    assert rank_exact(rho).rank == 2


def test_local_rank_equals_l1_matrix_rank():
    rng = random.Random(11)
    for _ in range(10):
        dims = (2, 3, 2)
        s = random_sparse_state(dims, rng)
        for q in range(1, 4):
            sigma = (
                QuditPermutation(()) if q == 1 else QuditPermutation(((1, q),))
            )
            m = coefficient_matrix(s, 1, sigma).to_matrix()
            assert rank_exact(reduced_density(s, [q])).rank == rank_exact(m).rank


def test_reduced_density_rejects_bad_subsets():
    s = gen_ghz(3, 2)
    with pytest.raises(ValueError):
        reduced_density(s, [])
    with pytest.raises(ValueError):
        reduced_density(s, [1, 2, 3])
    with pytest.raises(ValueError):
        reduced_density(s, [0])
    with pytest.raises(ValueError):
        reduced_density(s, [1, 1])
    for sites in ([1.5], [True], [1, 2.0]):
        with pytest.raises(TypeError):
            reduced_density(s, sites)


# -- split capacity ---------------------------------------------------------

def test_capacity_2224_pinned():
    dims = (2, 2, 2, 4)
    assert [split_capacity(dims, l) for l in (1, 2, 3)] == [4, 64, 4]
    assert optimal_split(dims) == 2


@pytest.mark.parametrize("d", [2, 3, 4])
def test_capacity_homogeneous_optimal_split(d):
    for n in range(2, 7):
        assert optimal_split((d,) * n) == n // 2


def test_capacity_is_arrangement_independent():
    base = (2, 3, 2, 4)
    for arrangement in [(4, 3, 2, 2), (2, 2, 3, 4), (3, 2, 4, 2)]:
        for l in (1, 2, 3):
            assert split_capacity(arrangement, l) == split_capacity(base, l)


def test_capacity_mirror_symmetry():
    dims = (2, 3, 4, 2, 3)
    n = len(dims)
    for l in range(1, n):
        assert split_capacity(dims, l) == split_capacity(dims, n - l)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_optimal_split_tries_only_the_lower_half(monkeypatch, n):
    # capacity(l) = capacity(n - l) and ties go to the smallest l
    calls = []

    def counting(dims, l):
        calls.append(l)
        return split_capacity(dims, l)

    monkeypatch.setattr(sloccrank.matricizer, "split_capacity", counting)
    dims = (2, 3, 4, 2, 3, 2, 2)[:n]
    every_l = max(range(1, n), key=lambda l: (split_capacity(dims, l), -l))
    assert optimal_split(dims) == every_l
    assert calls == list(range(1, n // 2 + 1))


def test_capacity_two_sites():
    assert split_capacity((3, 5), 1) == 3
    assert optimal_split((3, 5)) == 1
