"""Local operator application, matricization identity, rank monotonicity."""

import hashlib
import json
import random
from itertools import combinations
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import sloccrank.classifier
import sloccrank.matricizer
import sloccrank.slocc
from sloccrank.classifier import signature
from sloccrank.linalg import ExactMatrix, det_exact, rank_exact
from sloccrank.matricizer import (
    CoefficientMatrix,
    QuditPermutation,
    coefficient_matrix,
    optimal_split,
    permutation_set,
)
from sloccrank.scalars import ComplexRational, ONE, ZERO
from sloccrank.slocc import (
    LocalOperatorSet,
    ZeroResultError,
    apply_local,
    check_monotone_nonincrease,
    random_dims,
    random_ilo,
    random_ilo_set,
    random_local_possibly_singular,
    random_possibly_singular_set,
    random_sparse_state,
    rank_table,
    run_monotone_trials,
    run_theorem1_trials,
    verify_theorem1,
)
from sloccrank.states import (
    QuditState,
    flat_index,
    gen_dicke3,
    gen_dicke4,
    gen_ghz,
    gen_w,
    multiindex_of,
    permute_qudits,
)

from oracles import (
    apply_dense,
    from_ints,
    identity_dense,
    identity_matrix,
    identity_ops,
    invert_ops,
    small_dims,
    transpose,
)


def dicts_equal(state, amp_map):
    return state.amplitudes == amp_map


def _image(state, ops):
    """psi = (F_1 x ... x F_n) state, or None when the operators annihilate it."""
    try:
        return apply_local(state, ops)
    except ZeroResultError:
        return None


# -- LocalOperatorSet -------------------------------------------------------

def test_operator_set_validates_sites_and_dims():
    i2, i3 = identity_matrix(2), identity_matrix(3)
    ops = LocalOperatorSet([i2, i3])
    assert list(ops) == [i2, i3] and ops[1] == i2 and ops[2] == i3
    ops.check_dims((2, 3))
    with pytest.raises(ValueError):
        ops.check_dims((3, 2))
    with pytest.raises(ValueError):
        ops.check_dims((2, 3, 2))
    with pytest.raises(ValueError, match="site 2"):
        LocalOperatorSet([i2, from_ints([[1, 2]])])


def test_operator_set_inverses():
    rng = random.Random(3)
    ops = random_ilo_set((2, 3), rng)
    inv = invert_ops(ops)
    for m, im in zip(ops, inv):
        assert m.matmul(im) == identity_matrix(m.rows)


# -- apply_local ------------------------------------------------------------

def test_apply_identity_is_noop():
    s = gen_w(3)
    assert apply_local(s, identity_ops(s.dims)) == s


def test_apply_single_site_example():
    # X on site 2 of |00>: |00> -> |01>
    x = from_ints([[0, 1], [1, 0]])
    i2 = identity_matrix(2)
    s = QuditState((2, 2), {0: ComplexRational(1)})
    out = apply_local(s, LocalOperatorSet([i2, x]))
    assert out.amplitudes.get(flat_index((0, 1), out.dims), ZERO) == ComplexRational(1)
    assert len(out.amplitudes) == 1


def test_apply_superposition_example():
    # F = |0><0| + |0><1| on site 1 maps both |0> and |1> to |0>,
    # so GHZ_2 = |00> + |11> goes to |00> + |01>
    f = from_ints([[1, 1], [0, 0]])
    i2 = identity_matrix(2)
    s = gen_ghz(2, 2)
    out = apply_local(s, LocalOperatorSet([f, i2]))
    assert out.amplitudes.get(flat_index((0, 0), out.dims), ZERO) == ComplexRational(1)
    assert out.amplitudes.get(flat_index((0, 1), out.dims), ZERO) == ComplexRational(1)
    assert len(out.amplitudes) == 2


def test_apply_annihilation_raises():
    zero_op = from_ints([[0, 0], [1, 0]])  # kills |1>
    i2 = identity_matrix(2)
    s = QuditState((2, 2), {flat_index((1, 0), (2, 2)): ComplexRational(1)})
    with pytest.raises(ZeroResultError):
        apply_local(s, LocalOperatorSet([zero_op, i2]))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_apply_matches_dense_kron_oracle(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 3, 3, 27)
    s = random_sparse_state(dims, rng)
    ops = random_possibly_singular_set(dims, rng)
    expected = apply_dense(s, list(ops))
    try:
        out = apply_local(s, ops)
    except ZeroResultError:
        assert expected == {}
        return
    assert dicts_equal(out, expected)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_apply_inverse_restores_state(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 4, 3, 81)
    s = random_sparse_state(dims, rng)
    ops = random_ilo_set(dims, rng)
    assert apply_local(apply_local(s, ops), invert_ops(ops)) == s


# -- matricization identity -------------------------------------------------

def test_identity_holds_for_identity_ops():
    s = gen_ghz(4, 2)
    assert verify_theorem1(s, identity_ops(s.dims), s)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_identity_holds_for_random_invertible_ops(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 4, 3, 81)
    s = random_sparse_state(dims, rng)
    ops = random_ilo_set(dims, rng)
    assert verify_theorem1(s, ops, apply_local(s, ops))


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_identity_holds_for_singular_ops(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 3, 3, 27)
    s = random_sparse_state(dims, rng)
    ops = random_possibly_singular_set(dims, rng)
    assert verify_theorem1(s, ops, _image(s, ops))


def test_identity_holds_when_ops_annihilate_the_state():
    # projecting site 1 onto |0> kills |101>, so psi = 0 and every
    # right-hand side must be the zero matrix
    p0 = from_ints([[1, 0], [0, 0]])
    i2 = identity_matrix(2)
    s = QuditState((2, 2, 2), {flat_index((1, 0, 1), (2, 2, 2)): ComplexRational(1)})
    ops = LocalOperatorSet([p0, i2, i2])
    with pytest.raises(ZeroResultError):
        apply_local(s, ops)
    assert verify_theorem1(s, ops, None)


def test_identity_drops_entries_that_cancel():
    # F = |0><0| + |0><1| on site 1 sends |1x> onto |0x>: |00> - |10> cancels
    # to zero, and |00> - |10> + |01> leaves only |01>
    f = from_ints([[1, 1], [0, 0]])
    i2 = identity_matrix(2)
    ops = LocalOperatorSet([f, i2])
    one, minus = ComplexRational(1), ComplexRational(-1)
    dims = (2, 2)
    killed = QuditState(dims, {0: one, 2: minus})
    with pytest.raises(ZeroResultError):
        apply_local(killed, ops)
    assert verify_theorem1(killed, ops, None) and identity_dense(killed, ops, None)
    partial = QuditState(dims, {0: one, 1: one, 2: minus})
    psi = apply_local(partial, ops)
    assert psi.amplitudes == {1: one}
    assert verify_theorem1(partial, ops, psi) and identity_dense(partial, ops, psi)


def test_identity_detects_a_wrong_psi():
    # psi taken from W instead of GHZ must break the identity
    s = gen_ghz(3, 2)
    ops = random_ilo_set(s.dims, random.Random(4))
    assert not verify_theorem1(s, ops, apply_local(gen_w(3), ops))


def test_identity_reads_none_as_the_zero_vector_as_the_oracle_does():
    # invertible operators never send GHZ to zero; P0 x P1 x I kills both
    # of its terms
    s = gen_ghz(3, 2)
    ops = random_ilo_set(s.dims, random.Random(4))
    assert not verify_theorem1(s, ops, None) and not identity_dense(s, ops, None)
    p0 = from_ints([[1, 0], [0, 0]])
    p1 = from_ints([[0, 0], [0, 1]])
    killer = LocalOperatorSet([p0, p1, identity_matrix(2)])
    assert verify_theorem1(s, killer, None) and identity_dense(s, killer, None)


def _annihilating_ops(state, rng):
    """Random operators whose site-1 factor kills every site-1 digit in use."""
    used = {multiindex_of(i, state.dims)[0] for i in state.amplitudes}
    d = state.dims[0]
    first = ExactMatrix(
        [
            [ZERO if s in used else ComplexRational(rng.randint(-3, 3))
             for s in range(d)]
            for _ in range(d)
        ]
    )
    rest = random_possibly_singular_set(state.dims, rng)
    return LocalOperatorSet([first, *list(rest)[1:]])


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_identity_matches_dense_oracle(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 4, 3, 36)
    s = random_sparse_state(dims, rng)
    ops = random_possibly_singular_set(dims, rng)
    try:
        psi = apply_local(s, ops)
    except ZeroResultError:
        psi = None
    cases = [psi, random_sparse_state(dims, rng)]  # true psi, unrelated state
    if psi is not None:
        # one amplitude doubled: a corrupted psi
        amps = dict(psi.amplitudes)
        i = rng.choice(sorted(amps))
        amps[i] = amps[i] + amps[i]
        cases.append(QuditState(dims, amps))
    for candidate in cases:
        assert verify_theorem1(s, ops, candidate) == identity_dense(s, ops, candidate)
    assert verify_theorem1(s, ops, psi) and identity_dense(s, ops, psi)
    if psi is not None:
        assert not verify_theorem1(s, ops, cases[2])
    # operators that annihilate the state: psi is the zero vector
    killer = _annihilating_ops(s, rng)
    with pytest.raises(ZeroResultError):
        apply_local(s, killer)
    assert verify_theorem1(s, killer, None) and identity_dense(s, killer, None)
    assert verify_theorem1(s, killer, cases[1]) == identity_dense(s, killer, cases[1])
    assert not verify_theorem1(s, killer, cases[1])


def test_identity_check_builds_no_dense_grid(monkeypatch):
    rng = random.Random(5)
    dims = (2, 3, 2, 2)
    s = random_sparse_state(dims, rng)
    ops = random_ilo_set(dims, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense route used")

    monkeypatch.setattr(CoefficientMatrix, "to_matrix", forbidden)
    monkeypatch.setattr(ExactMatrix, "matmul", forbidden)
    monkeypatch.setattr(sloccrank.linalg, "kron_all", forbidden)
    assert verify_theorem1(s, ops, apply_local(s, ops))


def _c05_trials_within(total):
    """(state, ops, psi) of C05's trials whose dims multiply to at most total."""
    trials = sloccrank.slocc._trials(200, 20260823, None, random_ilo_set)
    return [(s, ops, psi) for _, dims, s, ops, psi in trials if prod(dims) <= total]


def test_c05_trials_satisfy_the_dense_identity_oracle():
    # the paper's identity through coefficient_matrix at every (l, sigma),
    # on the harness's own states, operators and psi
    trials = _c05_trials_within(64)
    assert len(trials) == 127
    assert all(identity_dense(s, ops, psi) for s, ops, psi in trials)


def test_dense_identity_oracle_rejects_a_sigma_blind_matricizer(monkeypatch):
    def sigma_blind(state, l, sigma):
        return coefficient_matrix(state, l, QuditPermutation(()))

    monkeypatch.setattr(oracles, "coefficient_matrix", sigma_blind)
    for s, ops, psi in _c05_trials_within(64):
        try:
            accepted = identity_dense(s, ops, psi)
        except ValueError:  # M^I's shape differs from the routed factors'
            accepted = False
        assert not accepted


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=30, deadline=None)
def test_rational_inputs_match_dense_oracles(seed, invert):
    rng = random.Random(seed)
    dims = small_dims(rng, 3, 3, 18)
    s = random_sparse_state(dims, rng)
    s = QuditState(
        dims,
        {i: ComplexRational(v.a, v.b, rng.choice((2, 3, 6)))
         for i, v in s.amplitudes.items()},
    )
    if invert:  # invertible, with the inverses' rational entries
        ops = invert_ops(random_ilo_set(dims, rng))
    else:  # possibly singular, with halved entries
        ops = LocalOperatorSet(
            [ExactMatrix([[f * ComplexRational(1, 0, 2) for f in row] for row in m.data])
             for m in random_possibly_singular_set(dims, rng)]
        )
    expected = apply_dense(s, list(ops))
    try:
        psi = apply_local(s, ops)
    except ZeroResultError:
        psi = None
    assert (psi.amplitudes if psi else {}) == expected
    # every sum has a denominator dividing
    # K = lcm(state denominators) * prod over sites of lcm(entry denominators)
    big = lcm(*(v.d for v in s.amplitudes.values()))
    for m in ops:
        big *= lcm(*(f.d for row in m.data for f in row))
    p = next(q for q in (5, 7, 11, 13, 17, 19, 23) if big % q)
    cases = [psi, random_sparse_state(dims, rng)]
    amps = dict((cases[1] if psi is None else psi).amplitudes)
    i = rng.choice(sorted(amps))
    if psi is not None:  # one amplitude doubled: a corrupted psi
        cases.append(QuditState(dims, {**amps, i: amps[i] + amps[i]}))
    # one amplitude plus 1/p: its denominator does not divide K
    cases.append(QuditState(dims, {**amps, i: amps[i] + ComplexRational(1, 0, p)}))
    for candidate in cases:
        assert verify_theorem1(s, ops, candidate) == identity_dense(s, ops, candidate)
    assert verify_theorem1(s, ops, psi)
    assert not verify_theorem1(s, ops, cases[-1])
    assert not identity_dense(s, ops, cases[-1])


def test_identity_rejects_a_psi_off_the_common_scale():
    # phi = |00>/6 under identity operators: the sums are over scale K = 6,
    # and 1/4 scaled to K by floor division would read 1, as 1/6 does
    s = QuditState((2, 2), {0: ComplexRational(1, 0, 6)})
    ops = identity_ops(s.dims)
    assert verify_theorem1(s, ops, s)
    quarter = QuditState((2, 2), {0: ComplexRational(1, 0, 4)})
    assert not verify_theorem1(s, ops, quarter)
    assert not identity_dense(s, ops, quarter)


def test_identity_and_monotone_reject_a_psi_on_other_dims():
    one = ComplexRational(1)
    phi = QuditState((2, 3), {0: one})
    ops = identity_ops(phi.dims)
    for psi in (QuditState((3, 2), {0: one}), QuditState((2, 3, 2, 2), {0: one})):
        with pytest.raises(ValueError, match="dims"):
            verify_theorem1(phi, ops, psi)
        with pytest.raises(ValueError, match="dims"):
            check_monotone_nonincrease(phi, psi)


def test_apply_and_identity_do_no_scalar_arithmetic(monkeypatch):
    rng = random.Random(8)
    dims = (2, 3, 2, 2)
    s = random_sparse_state(dims, rng)
    ops = random_ilo_set(dims, rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("ComplexRational arithmetic used")

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(ComplexRational, name, forbidden)
    psi = apply_local(s, ops)
    assert verify_theorem1(s, ops, psi)


def test_identity_detects_wrong_routing():
    # a deliberately broken check: compare against factors NOT routed by sigma
    from sloccrank.matricizer import coefficient_matrix

    rng = random.Random(12)
    dims = (2, 2, 2)
    sigma = QuditPermutation(((1, 3),))
    for _ in range(20):
        s = random_sparse_state(dims, rng)
        ops = random_ilo_set(dims, rng)
        psi = apply_local(s, ops)
        m_phi = coefficient_matrix(s, 1, sigma).to_matrix()
        m_psi = coefficient_matrix(psi, 1, sigma).to_matrix()
        unrouted = oracles.product_by_loops(
            oracles.product_by_loops(oracles.kron_by_digits([ops[1]]), m_phi),
            transpose(oracles.kron_by_digits([ops[2], ops[3]])),
        )
        if m_psi != unrouted:
            return  # mis-routing is observable, as it should be
    pytest.fail("unrouted factors never disagreed; test has no power")


# -- monotonicity -----------------------------------------------------------

def test_rank_table_ghz():
    table = rank_table(gen_ghz(4, 3))
    assert set(r for r in table.values()) == {3}
    assert len(table) == 4 + 3 + 3  # l=1: 4 sigmas, l=2: 3, l=3: 3


def test_projector_collapses_ranks():
    # projecting site 1 of GHZ onto |0> leaves the product state |000>
    p0 = from_ints([[1, 0], [0, 0]])
    i2 = identity_matrix(2)
    s = gen_ghz(3, 2)
    ops = LocalOperatorSet([p0, i2, i2])
    ok, pairs = check_monotone_nonincrease(s, apply_local(s, ops))
    assert ok
    assert all(b == 2 and a == 1 for b, a in pairs.values())


def test_monotone_check_fails_a_rank_that_rises():
    # GHZ is no local image of a product state: each of its ranks, 2, is one
    # above the product state's
    product_state = QuditState((2, 2, 2), {0: ONE})
    ok, pairs = check_monotone_nonincrease(product_state, gen_ghz(3, 2))
    assert not ok
    assert set(pairs.values()) == {(1, 2)}


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_monotone_never_increases(seed):
    rng = random.Random(seed)
    dims = small_dims(rng, 4, 3, 81)
    s = random_sparse_state(dims, rng)
    ops = random_possibly_singular_set(dims, rng)
    psi = _image(s, ops)
    if psi is None:
        return
    ok, pairs = check_monotone_nonincrease(s, psi)
    assert ok
    if ops.invertible:
        assert all(b == a for b, a in pairs.values())


# -- random samplers --------------------------------------------------------

def test_random_ilo_always_invertible():
    rng = random.Random(0)
    for _ in range(200):
        m = random_ilo(4, rng=rng)
        assert not det_exact(m).is_zero()


def test_random_singular_has_deficient_rank():
    rng = random.Random(1)
    for _ in range(50):
        m = random_local_possibly_singular(4, force_singular=True, rng=rng)
        assert det_exact(m).is_zero()
        assert rank_exact(m).rank <= 3


def test_random_ilo_seed_reproducible():
    assert random_ilo(3, random.Random(42)) == random_ilo(3, random.Random(42))
    assert random_sparse_state((2, 3), random.Random(7)) == random_sparse_state(
        (2, 3), random.Random(7)
    )


@pytest.mark.parametrize("draw", [random_ilo, random_local_possibly_singular])
@pytest.mark.parametrize("d", [1, 0, -2])
def test_random_local_draws_need_d_at_least_2(draw, d):
    with pytest.raises(ValueError, match="need d >= 2"):
        draw(d, random.Random(0))


def test_random_ilo_gives_up_after_1000_singular_draws():
    class ZeroRng:
        calls = 0

        def randint(self, a, b):
            self.calls += 1
            return 0

    rng = ZeroRng()
    with pytest.raises(RuntimeError, match="1000 attempts"):
        random_ilo(2, rng)
    assert rng.calls == 1000 * 2 * 2 * 2  # two parts per entry, d * d entries


def test_random_dims_respects_caps():
    rng = random.Random(9)
    for _ in range(100):
        dims = random_dims(rng)
        assert 2 <= len(dims) <= 5
        assert all(2 <= d <= 4 for d in dims)
        assert prod(dims) <= 1024


# -- trial harnesses --------------------------------------------------------

def test_theorem1_harness_passes_and_is_deterministic():
    a = run_theorem1_trials(5, seed=123)
    b = run_theorem1_trials(5, seed=123)
    assert a == b
    assert all(r["result"] == "pass" for r in a)


def test_monotone_harness_passes_and_reports_skips():
    records = run_monotone_trials(30, seed=321)
    assert all(r["result"] in ("pass", "skip") for r in records)
    # skip records must carry no rank table
    for r in records:
        if r["result"] == "skip":
            assert "ranks" not in r


def test_theorem1_harness_applies_and_ranks_once_per_need(monkeypatch):
    calls = {"apply_local": 0, "rank_exact": 0, "matricize": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(
        sloccrank.slocc, "apply_local", counting("apply_local", apply_local)
    )
    monkeypatch.setattr(
        sloccrank.classifier, "rank_exact", counting("rank_exact", rank_exact)
    )
    # every coefficient matrix, whoever asks for it, is built here
    monkeypatch.setattr(
        sloccrank.matricizer,
        "_matricize_by_order",
        counting("matricize", sloccrank.matricizer._matricize_by_order),
    )
    records = run_theorem1_trials(200, seed=20260823)
    assert all(r["result"] == "pass" for r in records)
    assert calls["apply_local"] == len(records)
    # phi and psi once per bipartition {S, S^c} of some (l, sigma), which
    # is every bipartition at n <= 4: the rank tables' matrices, no others
    assert [len(_bipartitions(n)) for n in (2, 3, 4)] == [1, 3, 7]
    expected = sum(2 * len(_bipartitions(len(r["dims"]))) for r in records)
    assert calls["rank_exact"] == expected == 2544
    assert calls["matricize"] == expected


def _bipartitions(n):
    """The unordered {S, S^c} over every split l and sigma of its set."""
    orders = [(l, s.site_order(n)) for l in range(1, n) for s in permutation_set(n, l)]
    return {frozenset({frozenset(o[:l]), frozenset(o[l:])}) for l, o in orders}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_table_matches_a_rank_per_sigma(n):
    # one rank per bipartition must equal the full grid's rank at every
    # (l, sigma), also at odd n where the sets at l and n - l differ in size
    if n == 5:
        assert [len(permutation_set(5, l)) for l in (2, 3)] == [7, 10]
    rng = random.Random(f"rank_table/{n}")
    for _ in range(6):
        dims = tuple(rng.randint(2, 3) for _ in range(n))
        state = random_sparse_state(dims, rng)
        table = rank_table(state)
        for l in range(1, n):
            for sigma in permutation_set(n, l):
                m = coefficient_matrix(state, l, sigma).to_matrix()
                assert table[(l, sigma.label())] == rank_exact(m).rank


def test_two_site_signature_ranks_its_one_bipartition_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return rank_exact(m)

    monkeypatch.setattr(sloccrank.classifier, "rank_exact", counting)
    state = QuditState((2, 3), {1: ComplexRational(1), 3: ComplexRational(2)})
    assert signature(state, 1).ranks == (2, 2)  # I and (1,2): one {1} | {2} cut
    assert len(calls) == 1


def test_monotone_harness_applies_once_per_trial(monkeypatch):
    calls = []

    def counting(state, ops):
        calls.append(ops)
        return apply_local(state, ops)

    monkeypatch.setattr(sloccrank.slocc, "apply_local", counting)
    records = run_monotone_trials(6, seed=20260824)
    assert all(r["result"] == "pass" for r in records)
    assert len(calls) == len(records)


def test_monotone_harness_checks_invertibility_once_per_trial(monkeypatch):
    calls = []
    invertible = LocalOperatorSet.invertible.fget

    def counting(ops):
        calls.append(ops)
        return invertible(ops)

    monkeypatch.setattr(LocalOperatorSet, "invertible", property(counting))
    records = run_monotone_trials(6, seed=20260824)
    assert len(calls) == len(records)


def _collapse(state, ops):
    """|0...0> on the state's dims, whatever the operators: rank 1 at every cut."""
    return QuditState(state.dims, {0: ONE})


def test_theorem1_harness_fails_a_psi_that_lowers_the_signature(monkeypatch):
    monkeypatch.setattr(sloccrank.slocc, "apply_local", _collapse)
    records = run_theorem1_trials(10, seed=20260823)
    for r in records:
        l_opt = optimal_split(r["dims"])
        before = [b for key, (b, _) in r["ranks"].items() if key.startswith(f"l={l_opt} ")]
        assert r["signature_ok"] == (max(before) == 1), r["trial"]
        assert r["result"] == "fail"
    assert not all(r["signature_ok"] for r in records)


def test_monotone_harness_fails_invertible_ops_that_lower_a_rank(monkeypatch):
    monkeypatch.setattr(sloccrank.slocc, "apply_local", _collapse)
    # seed 2 draws invertible operators in trials 0, 2 and 6
    records = run_monotone_trials(20, seed=2)
    for r in records:
        lowered = any(b > a for b, a in r["ranks"].values())
        want = "fail" if r["invertible"] and lowered else "pass"
        assert r["result"] == want, r["trial"]
    assert any(r["result"] == "fail" for r in records)


def _sparse_state(seed):
    rng = random.Random(seed)
    return random_sparse_state(small_dims(rng, 5, 3, 243), rng)


# factories, so that a generator fault fails the test instead of its collection
_STRUCTURED = [
    lambda: gen_ghz(3, 2), lambda: gen_ghz(4, 3), lambda: gen_ghz(5, 2),
    lambda: gen_w(3), lambda: gen_w(5),
    lambda: gen_dicke3(4, 1, 1), lambda: gen_dicke3(5, 2, 2),
    lambda: gen_dicke4(4, 1, 1, 1),
    # GHZ on sites 1-3 times |00>: symmetric in two blocks of sites
    lambda: QuditState((2,) * 5, {0: ONE, flat_index((1, 1, 1, 0, 0), (2,) * 5): ONE}),
]


@given(st.one_of(st.integers(0, 10**6).map(_sparse_state),
                 st.sampled_from(_STRUCTURED).map(lambda make: make())),
       st.data())
@settings(max_examples=100, deadline=None)
def test_rank_table_obeys_the_rank_laws_of_an_independent_oracle(state, data):
    # every (l, sigma) of rank_table against a dense rank of its own cut, on
    # the state and on a relabeling of its sites; catches a memo key that
    # merges distinct bipartitions
    n = state.n
    ranks = oracles.all_bipartition_ranks(state)
    sites = frozenset(range(1, n + 1))
    assert all(r == ranks[sites - s] for s, r in ranks.items())  # r(S) = r(S^c)
    for s, r in ranks.items():
        row_dims = [state.dims[q - 1] for q in s]
        assert r <= min(prod(row_dims), prod(state.dims) // prod(row_dims)), s
    for s, t in combinations(ranks, 2):
        if s & t or s | t not in ranks:
            continue
        # disjoint S and T with S u T a proper cut
        union = ranks[s | t]
        assert union <= ranks[s] * ranks[t], (s, t)
        assert ranks[s] <= ranks[t] * union and ranks[t] <= ranks[s] * union, (s, t)
    perm = data.draw(st.permutations(range(1, n + 1)))
    # site q of permute_qudits(state, perm) is the state's site perm[q - 1]
    relabeled = permute_qudits(state, perm)
    for psi, site in ((state, lambda q: q), (relabeled, lambda q: perm[q - 1])):
        table = rank_table(psi)
        for l in range(1, n):
            for sigma in permutation_set(n, l):
                rows = frozenset(map(site, sigma.site_order(n)[:l]))
                assert table[(l, sigma.label())] == ranks[rows], (l, sigma.label())


def _records_sha256(records):
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_harness_records_are_pinned():
    # sha256 of the JSON lines `verify` writes; guards the order of the rng
    # draws (dims, then state, then operators), which rerunning the same
    # code (C10) cannot
    assert _records_sha256(run_theorem1_trials(5, seed=20260823)) == (
        "d2c5e7fa68153b063d6fd8f71fe7e925f8d0401fa72a55793f5d3c719e77b0d3"
    )
    assert _records_sha256(run_monotone_trials(20, seed=20260824)) == (
        "146b0854d55609a41a6b914ff8d40f1aaa609a48b3f4e8475a84b1abfe554dc2"
    )
