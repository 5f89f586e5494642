"""Exact (fraction-free) and numeric rank, determinant; the inverse oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sloccrank.linalg
from sloccrank.linalg import (
    _P,
    _SQRT_M1,
    ExactMatrix,
    _independent_mod_p,
    _packed_bareiss_rank,
    det_exact,
    kron_all,
    rank_exact,
    rank_numeric,
)
from sloccrank.scalars import ComplexRational, ONE, ZERO, gaussian_pairs

from oracles import (
    det_rational,
    from_ints,
    identity_matrix,
    invert_exact,
    kron_by_digits,
    rank_mod_prime,
    transpose,
)


def random_int_matrix(rng, rows, cols, bound=5, complex_entries=True):
    return ExactMatrix(
        [
            [
                ComplexRational(
                    rng.randint(-bound, bound),
                    rng.randint(-bound, bound) if complex_entries else 0,
                )
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_int_matrix(rng, rows, cols, bound=3)


# -- ExactMatrix basics -----------------------------------------------------

def test_matrix_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ExactMatrix([])
    with pytest.raises(ValueError):
        ExactMatrix([[ONE], [ONE, ZERO]])


def test_matmul_and_identity():
    a = from_ints([[1, 2], [3, 4]])
    i2 = identity_matrix(2)
    assert a.matmul(i2) == a
    assert i2.matmul(a) == a
    b = from_ints([[0, 1], [1, 0]])
    assert a.matmul(b) == from_ints([[2, 1], [4, 3]])
    with pytest.raises(ValueError):
        a.matmul(from_ints([[1, 2, 3]]))


def test_kron_matches_block_structure():
    a = from_ints([[1, 2], [3, 4]])
    b = from_ints([[0, 5], [6, 7]])
    k = kron_by_digits([a, b])  # the oracle kron_all is checked against
    assert (k.rows, k.cols) == (4, 4)
    assert k.data[0][1] == ComplexRational(5)
    assert k.data[2][0] == ComplexRational(0)  # 3 * 0
    assert k.data[3][0] == ComplexRational(18)  # 3 * 6


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
       st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_kron_all_matches_the_digit_route(shapes, rnd):
    mats = [random_int_matrix(rnd, r, c) for r, c in shapes]
    assert kron_all(mats) == kron_by_digits(mats)


def test_dagger_conjugates():
    m = ExactMatrix([[ComplexRational(1, 2)]])
    assert m.dagger().data[0][0] == ComplexRational(1, -2)


# -- exact rank: pinned cases ----------------------------------------------

def test_rank_zero_matrix():
    res = rank_exact(from_ints([[0, 0], [0, 0]]))
    assert res.rank == 0


def test_rank_identity():
    assert rank_exact(identity_matrix(5)).rank == 5


def test_rank_duplicate_rows_and_columns():
    m = from_ints(
        [[1, 2, 1], [1, 2, 1], [2, 4, 2], [0, 1, 0]]
    )
    assert rank_exact(m).rank == 2


def test_rank_rational_entries():
    m = ExactMatrix(
        [
            [ComplexRational(Fraction(1, 2)), ComplexRational(Fraction(1, 3))],
            [ComplexRational(Fraction(3, 2)), ComplexRational(1)],
        ]
    )
    assert rank_exact(m).rank == 1  # second row is 3x the first


def test_rank_complex_dependence():
    i = ComplexRational(0, 1)
    m = ExactMatrix([[ONE, i], [i, ComplexRational(-1)]])  # row2 = i * row1
    assert rank_exact(m).rank == 1
    assert rank_numeric(m).rank == 1


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (3, 2)])
def test_rank_numeric_of_a_zero_matrix_is_zero(rows, cols):
    assert rank_numeric(ExactMatrix([[ZERO] * cols for _ in range(rows)])).rank == 0


def test_rank_near_singular_integer_case():
    # Determinant 1 despite large entries: exact path must say full rank
    m = from_ints([[10**6, 10**6 - 1], [10**6 + 1, 10**6]])
    assert rank_exact(m).rank == 2


def test_rank_skips_zero_rows_and_columns():
    m = from_ints([[0, 0, 0], [0, 3, 0], [0, 0, 0], [0, 1, 5]])
    assert rank_exact(m).rank == 2


@st.composite
def matrices_with_zero_and_repeated_lines(draw):
    m = draw(small_matrices())
    grid = [list(row) for row in m.data]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(grid)))
        line = draw(st.sampled_from(["zero", "repeat"]))
        row = [ZERO] * m.cols if line == "zero" else list(draw(st.sampled_from(grid)))
        grid.insert(pos, row)
    if draw(st.booleans()):  # repeat a column too
        c = draw(st.integers(0, m.cols - 1))
        grid = [row + [row[c]] for row in grid]
    return ExactMatrix(grid)


@st.composite
def sparse_matrices(draw, square=False):
    """Permutation matrices, or 0/±1/±i matrices with at least 70 % zeros.

    Their pivots seldom sit on the diagonal: the search skips zero columns
    and swaps rows, and most rows below a pivot hold a zero factor there, so
    their update is the pivot times the row over the previous pivot.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    cells = [[ZERO] * cols for _ in range(rows)]
    if rows == cols and draw(st.booleans()):
        for r, c in enumerate(rng.sample(range(cols), cols)):
            cells[r][c] = ONE
    else:
        units = [ONE, ComplexRational(-1), ComplexRational(0, 1), ComplexRational(0, -1)]
        for pos in rng.sample(range(rows * cols), rng.randint(0, rows * cols * 3 // 10)):
            cells[pos // cols][pos % cols] = rng.choice(units)
    return ExactMatrix(cells)


@st.composite
def dense_matrices(draw):
    """Random matrices, or sums of r <= 3 outer products; sides 3-12.

    Up to half the entries of a factor may be zero, so pivots are not always
    found in column order.
    """
    rng = random.Random(draw(st.integers(0, 10**6)))
    rows, cols = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    holes = draw(st.sampled_from([0.0, 0.0, 0.3, 0.5]))

    def entry():
        if rng.random() < holes:
            return ZERO
        return ComplexRational(
            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3])),
            rng.randint(-4, 4),
        )

    r = draw(st.sampled_from([None, 1, 2, 3]))
    if r is None:
        return ExactMatrix([[entry() for _ in range(cols)] for _ in range(rows)])
    grid = [[ZERO] * cols for _ in range(rows)]
    for _ in range(r):
        u = [entry() for _ in range(rows)]
        v = [entry() for _ in range(cols)]
        for i in range(rows):
            for j in range(cols):
                grid[i][j] = grid[i][j] + u[i] * v[j]
    return ExactMatrix(grid)


@given(
    st.one_of(matrices_with_zero_and_repeated_lines(), sparse_matrices(), dense_matrices())
)
@settings(max_examples=300, deadline=None)
def test_rank_matches_the_oracle_on_sparse_dense_and_repeated_line_matrices(m):
    assert rank_exact(m).rank == rank_mod_prime(m)


# -- the GF(p) pass, the packed Bareiss and the fallback ---------------------

def test_certificate_prime_has_a_square_root_of_minus_one():
    assert _P % 4 == 1 and _P < 2**15
    assert all(_P % k for k in range(2, int(_P**0.5) + 1))
    assert _SQRT_M1 * _SQRT_M1 % _P == _P - 1


@pytest.fixture
def routes(monkeypatch):
    """The routes rank_exact takes, in call order: "pass" (the GF(p) pass),
    "packed" (the budgeted packed Bareiss) and "scalar" (scalar Bareiss)."""
    taken = []
    for route, name in [("pass", "_independent_mod_p"), ("packed", "_packed_bareiss_rank"),
                        ("scalar", "_bareiss_rank")]:
        def counting(*args, _route=route, _run=getattr(sloccrank.linalg, name)):
            taken.append(_route)
            return _run(*args)

        monkeypatch.setattr(sloccrank.linalg, name, counting)
    return taken


def padded_to_5(m):
    """m with an identity block added below and right of it, 5x5 in all, so
    rank_exact runs the GF(p) pass on it; the rank grows by 5 - m.rows."""
    k = 5 - m.rows
    return ExactMatrix(
        [row + [ZERO] * k for row in m.data]
        + [[ZERO] * m.cols + [ONE if j == i else ZERO for j in range(k)] for i in range(k)]
    )


def test_full_rank_that_vanishes_mod_p_falls_back_to_bareiss(routes):
    # s - i maps to s - s = 0 in GF(p): the determinant s - i is lost there,
    # and the first two rows become equal
    s_minus_i = ComplexRational(_SQRT_M1, -1)
    m = ExactMatrix(
        [
            [s_minus_i + ONE, ONE, ZERO, ComplexRational(2)],
            [ONE, ONE, ZERO, ComplexRational(2)],
            [ZERO, ComplexRational(3, 1), ONE, ZERO],
            [ComplexRational(0, 1), ZERO, ComplexRational(5), ONE],
        ]
    )
    m = padded_to_5(m)
    assert _independent_mod_p(m) < 5
    assert rank_exact(m).rank == rank_mod_prime(m) == 5
    assert routes == ["pass", "packed", "scalar"]


def test_denominator_divisible_by_p_falls_back_to_bareiss(routes):
    # one block has determinant 1/p, the other loses it if its row is scaled
    # by p: an image mod p is singular whether 1/p maps to 0 or to p/p
    inv_p = ComplexRational(Fraction(1, _P))
    m = ExactMatrix(
        [
            [inv_p, ONE, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, inv_p, ONE],
            [ZERO, ZERO, ONE, ZERO],
        ]
    )
    m = padded_to_5(m)
    assert _independent_mod_p(m) < 5
    assert rank_exact(m).rank == rank_mod_prime(m) == 5
    assert routes == ["pass", "packed", "scalar"]


def test_certificate_reduces_lines_whose_pivots_are_out_of_column_order(routes):
    # a 3x3 block of rank 2; the first row's pivot is column 1, the second
    # row's column 0, and the third row has a zero under the first pivot. A
    # pass that scaled only x[c:] when cross-multiplying called it full rank.
    # The pass stops at the third row, so a budget of 2 is short of rank 4.
    a, b = ComplexRational(1, -1), ComplexRational(-1, -1)
    m = padded_to_5(ExactMatrix([[ZERO, b, a], [b, a, ZERO], [a, ZERO, a]]))
    assert _independent_mod_p(m) < 5
    assert rank_exact(m).rank == rank_mod_prime(m) == 4
    assert routes == ["pass", "packed", "scalar"]


def test_rank_routes_by_side_and_by_the_pass(routes):
    # up to a side of 4 only scalar Bareiss runs
    assert rank_exact(identity_matrix(4)).rank == 4
    assert rank_exact(from_ints([[1, 2, 3, 4, 5, 6]] * 4)).rank == 1
    assert routes == ["scalar", "scalar"]
    # from a side of 5 a full rank is the pass's alone, on its shorter side
    routes.clear()
    assert rank_exact(identity_matrix(5)).rank == 5
    wide = from_ints([[int(i == j or j == 6) for j in range(7)] for i in range(5)])
    assert rank_exact(wide).rank == rank_exact(transpose(wide)).rank == 5
    assert routes == ["pass"] * 3
    # a rank-2 product: the pass keeps 2 lines and packed Bareiss proves rank 2
    routes.clear()
    rng = random.Random(16)
    m = random_int_matrix(rng, 16, 2).matmul(random_int_matrix(rng, 2, 16))
    assert rank_exact(m).rank == rank_mod_prime(m) == 2
    assert routes == ["pass", "packed"]


@st.composite
def low_rank_products(draw):
    """B*C, B rows x r and C r x cols (sides 5-12, r 1-4), with parts up to
    2**70; up to two rows are scaled by a fraction."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    rows, cols, r = draw(st.integers(5, 12)), draw(st.integers(5, 12)), draw(st.integers(1, 4))
    bound = 2 ** draw(st.sampled_from([2, 20, 70]))
    b = random_int_matrix(rng, rows, r, bound=bound)
    c = random_int_matrix(rng, r, cols, bound=bound)
    grid = b.matmul(c).data
    for i in rng.sample(range(rows), rng.randint(0, 2)):
        f = ComplexRational(Fraction(rng.randint(1, 9), rng.choice([2, 3, 10])), rng.randint(-2, 2))
        grid[i] = [f * x for x in grid[i]]
    return ExactMatrix(grid)


@given(low_rank_products(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_packed_bareiss_gives_the_rank_within_its_budget_and_none_past_it(m, budget):
    rank = rank_mod_prime(m)
    rows = [gaussian_pairs(row)[1] for row in m.data]
    assert _packed_bareiss_rank(rows, budget) == (rank if budget >= rank else None)


def test_packed_bareiss_slots_hold_a_hadamard_tight_minor():
    # (1+i) times the 16x16 Sylvester matrix has determinant 2**40, Hadamard's
    # bound (32 * 1**2)**8 itself; a 17th row, the sum of the first two,
    # keeps the rank at 16
    h = [[1]]
    for _ in range(4):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    h.append([x + y for x, y in zip(h[0], h[1])])
    m = ExactMatrix([[ComplexRational(x, x) for x in row] for row in h])
    rows = [gaussian_pairs(row)[1] for row in m.data]
    assert _packed_bareiss_rank(rows, 16) == rank_mod_prime(m) == 16
    assert _packed_bareiss_rank(rows, 15) is None


def test_rank_exact_deterministic():
    rng = random.Random(5)
    m = random_int_matrix(rng, 7, 7)
    first = rank_exact(m)
    for _ in range(3):
        again = rank_exact(m)
        assert again == first


# -- exact rank: property checks against oracles ---------------------------

@given(small_matrices())
@settings(max_examples=80, deadline=None)
def test_rank_agrees_with_modular_oracle(m):
    assert rank_exact(m).rank == rank_mod_prime(m)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_transpose_and_scaling(m):
    r = rank_exact(m).rank
    assert rank_exact(transpose(m)).rank == r
    f = ComplexRational(Fraction(-3, 7), Fraction(2, 5))
    scaled = ExactMatrix([[f * x for x in m.data[0]]] + m.data[1:])
    assert rank_exact(scaled).rank == r


@given(small_matrices(), small_matrices())
@settings(max_examples=40, deadline=None)
def test_rank_of_product_bounded(a, b):
    if a.cols != b.rows:
        return
    r = rank_exact(a.matmul(b)).rank
    assert r <= min(rank_exact(a).rank, rank_exact(b).rank)


@given(small_matrices())
@settings(max_examples=40, deadline=None)
def test_gram_matrix_has_same_rank(m):
    assert rank_exact(m.matmul(m.dagger())).rank == rank_exact(m).rank


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_numeric_rank_matches_exact_on_small_int_matrices(m):
    assert rank_numeric(m).rank == rank_exact(m).rank


# -- determinant and inverse -----------------------------------------------

def test_det_examples():
    assert det_exact(from_ints([[1, 2], [3, 4]])) == (
        ComplexRational(-2)
    )
    assert det_exact(from_ints([[1, 2], [2, 4]])).is_zero()
    with pytest.raises(ValueError):
        det_exact(from_ints([[1, 2, 3]]))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 4)
    while True:
        m = random_int_matrix(rng, d, d, bound=3)
        if not det_exact(m).is_zero():
            break
    assert m.matmul(invert_exact(m)) == identity_matrix(d)


def test_invert_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        invert_exact(from_ints([[1, 2], [2, 4]]))


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_det_multiplicative(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 3)
    a = random_int_matrix(rng, d, d, bound=3)
    b = random_int_matrix(rng, d, d, bound=3)
    assert det_exact(a.matmul(b)) == det_exact(a) * det_exact(b)


@st.composite
def det_test_matrices(draw):
    """Square matrices with rational entries, a zero first pivot or a singularity."""
    d = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 10**6)))
    grid = [
        [
            ComplexRational(
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6])),
                Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 5])),
            )
            for _ in range(d)
        ]
        for _ in range(d)
    ]
    shape = draw(st.sampled_from(["plain", "zero_pivot", "dependent_row"]))
    if shape == "zero_pivot":
        grid[0][0] = ZERO
    elif shape == "dependent_row" and d > 1:
        f = ComplexRational(Fraction(rng.randint(-3, 3), 2), rng.randint(-2, 2))
        grid[-1] = [f * x for x in grid[0]]
    return ExactMatrix(grid)


@given(st.one_of(det_test_matrices(), sparse_matrices(square=True)))
@settings(max_examples=240, deadline=None)
def test_det_matches_rational_elimination_oracle(m):
    assert det_exact(m) == det_rational(m)
    assert rank_exact(m).rank == rank_mod_prime(m)
