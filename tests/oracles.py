"""Independent oracles used only by the test suite.

Each oracle recomputes a quantity by a route disjoint from the library's
implementation: explicit enumeration, brute-force contraction, modular-prime
elimination, rational Gauss(-Jordan) elimination, dense Kronecker products.
They are deliberately slow and simple. The matrix and operator builders
at the top are what the tests construct their inputs with.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from math import prod

from sloccrank.linalg import ExactMatrix, kron_all
from sloccrank.matricizer import coefficient_matrix, permutation_set
from sloccrank.scalars import ComplexRational, ONE, ZERO
from sloccrank.slocc import LocalOperatorSet
from sloccrank.states import QuditState, flat_index, multiindex_of


def from_ints(grid) -> ExactMatrix:
    return ExactMatrix([[ComplexRational(x) for x in row] for row in grid])


def identity_matrix(d: int) -> ExactMatrix:
    return ExactMatrix([[ONE if i == j else ZERO for j in range(d)] for i in range(d)])


def identity_ops(dims) -> LocalOperatorSet:
    return LocalOperatorSet([identity_matrix(d) for d in dims])


def small_dims(rng: random.Random, max_sites: int, max_dim: int, max_total: int):
    """slocc.random_dims's draw under tighter caps, to keep a dense oracle small."""
    while True:
        n = rng.randint(2, max_sites)
        dims = tuple(rng.randint(2, max_dim) for _ in range(n))
        if prod(dims) <= max_total:
            return dims


def transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([list(col) for col in zip(*m.data)])


def kron_by_digits(mats) -> ExactMatrix:
    """Kronecker product cell by cell: the cell at row digits (i_1, ..., i_k)
    and column digits (j_1, ..., j_k), both enumerated in lex order, is the
    product of mats[t][i_t][j_t]."""
    grid = []
    for rd in product(*[range(m.rows) for m in mats]):
        row = []
        for cd in product(*[range(m.cols) for m in mats]):
            x = ONE
            for m, i, j in zip(mats, rd, cd):
                x = x * m.data[i][j]
            row.append(x)
        grid.append(row)
    return ExactMatrix(grid)


# prime = 3 (mod 4), so x^2 = -1 has no root and GF(p^2) = GF(p)[i]
_P = 1_000_000_007


def lex_position(digits, dims) -> int:
    """Position of a multi-index in the explicitly enumerated lex order."""
    for pos, tup in enumerate(product(*[range(d) for d in dims])):
        if tup == tuple(digits):
            return pos
    raise AssertionError(f"{digits} not found for dims {dims}")


def rank_mod_prime(m: ExactMatrix, p: int = _P) -> int:
    """Rank by Gaussian elimination over GF(p^2)."""
    def to_field(x: ComplexRational):
        inv_d = pow(x.d % p, p - 2, p)
        return (x.a * inv_d % p, x.b * inv_d % p)

    def f_mul(x, y):
        a, b = x
        c, d = y
        return ((a * c - b * d) % p, (a * d + b * c) % p)

    def f_inv(x):
        a, b = x
        n = (a * a + b * b) % p
        ninv = pow(n, p - 2, p)
        return (a * ninv % p, (-b) * ninv % p)

    rows = [[to_field(x) for x in row] for row in m.data]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        sel = None
        for r in range(rank, nrows):
            if rows[r][col] != (0, 0):
                sel = r
                break
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = f_inv(rows[rank][col])
        rows[rank] = [f_mul(inv, x) for x in rows[rank]]
        for r in range(nrows):
            if r == rank or rows[r][col] == (0, 0):
                continue
            f = rows[r][col]
            rows[r] = [
                ((x[0] - f_mul(f, y)[0]) % p, (x[1] - f_mul(f, y)[1]) % p)
                for x, y in zip(rows[r], rows[rank])
            ]
        rank += 1
    return rank


def all_bipartition_ranks(state: QuditState) -> dict:
    """{S: rank of the S | S^c matricization} for every nonempty proper site
    set S, both sides of each cut ranked on their own.

    Each matrix is built entry by entry, a term's row and column found by
    lex_position over its digits on S and on S^c, and ranked over GF(p^2):
    no permutation set, memo or library rank. n <= 5 keeps the 30 dense
    matrices small.
    """
    n, dims = state.n, state.dims
    assert n <= 5, f"dense oracle for n <= 5, got n={n}"
    sites = range(1, n + 1)
    out = {}
    for k in range(1, n):
        for rows in combinations(sites, k):
            cols = [q for q in sites if q not in rows]
            row_dims = [dims[q - 1] for q in rows]
            col_dims = [dims[q - 1] for q in cols]
            grid = [[ZERO] * prod(col_dims) for _ in range(prod(row_dims))]
            for i, a in state.amplitudes.items():
                digits = multiindex_of(i, dims)
                r = lex_position([digits[q - 1] for q in rows], row_dims)
                c = lex_position([digits[q - 1] for q in cols], col_dims)
                grid[r][c] = a
            out[frozenset(rows)] = rank_mod_prime(ExactMatrix(grid))
    return out


def _neg(z: ComplexRational) -> ComplexRational:
    return ComplexRational(-z.a, -z.b, z.d)


def _inv(z: ComplexRational) -> ComplexRational:
    """1/z = d(a - bi)/(a^2 + b^2) for z = (a + bi)/d != 0."""
    return ComplexRational(z.a * z.d, -z.b * z.d, z.a * z.a + z.b * z.b)


def det_rational(m: ExactMatrix) -> ComplexRational:
    """Determinant by Gaussian elimination over the complex rationals."""
    n = m.rows
    a = [list(row) for row in m.data]
    det = ONE
    for col in range(n):
        sel = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                sel = r
                break
        if sel is None:
            return ZERO
        if sel != col:
            a[col], a[sel] = a[sel], a[col]
            det = _neg(det)
        pivot = a[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            f = _neg(a[r][col] * _inv(pivot))
            if f.is_zero():
                continue
            a[r] = [x + f * y for x, y in zip(a[r], a[col])]
    return det


def invert_exact(m: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a square invertible matrix (Gauss-Jordan)."""
    n = m.rows
    a = [list(row) + list(ident_row) for row, ident_row in
         zip(m.data, identity_matrix(n).data)]
    for col in range(n):
        sel = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                sel = r
                break
        if sel is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[sel] = a[sel], a[col]
        inv = _inv(a[col][col])
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            f = _neg(a[r][col])
            a[r] = [x + f * y for x, y in zip(a[r], a[col])]
    return ExactMatrix([row[n:] for row in a])


def invert_ops(ops: LocalOperatorSet) -> LocalOperatorSet:
    """The local operator set of the inverses, site by site."""
    return LocalOperatorSet([invert_exact(m) for m in ops])


def partial_trace(state: QuditState, keep_sites) -> ExactMatrix:
    """Reduced density matrix by direct basis summation over traced sites.

    keep_sites: ordered 1-based site labels forming the rows of the result.
    """
    dims = state.dims
    n = len(dims)
    keep = list(keep_sites)
    traced = [q for q in range(1, n + 1) if q not in keep]
    keep_dims = [dims[q - 1] for q in keep]
    rows = 1
    for d in keep_dims:
        rows *= d
    grid = [[ZERO] * rows for _ in range(rows)]
    keep_space = list(product(*[range(d) for d in keep_dims]))
    traced_space = list(product(*[range(dims[q - 1]) for q in traced]))
    for r, kd in enumerate(keep_space):
        for c, kd2 in enumerate(keep_space):
            acc = ZERO
            for td in traced_space:
                full1 = [0] * n
                full2 = [0] * n
                for q, s in zip(keep, kd):
                    full1[q - 1] = s
                for q, s in zip(keep, kd2):
                    full2[q - 1] = s
                for q, s in zip(traced, td):
                    full1[q - 1] = s
                    full2[q - 1] = s
                a = state.amplitudes.get(flat_index(full1, dims), ZERO)
                b = state.amplitudes.get(flat_index(full2, dims), ZERO)
                if not a.is_zero() and not b.is_zero():
                    acc = acc + a * b.conjugate()
            grid[r][c] = acc
    return ExactMatrix(grid)


def apply_dense(state: QuditState, matrices) -> dict:
    """Apply x-product of local operators by building the full D x D matrix.

    matrices: list of ExactMatrix, one per site in site order.
    Returns the output amplitude map (may be all-zero).
    """
    full = kron_all(matrices)
    D = full.rows
    out = {}
    for t in range(D):
        acc = ZERO
        row = full.data[t]
        for s, a in state.amplitudes.items():
            f = row[s]
            if not f.is_zero():
                acc = acc + f * a
        if not acc.is_zero():
            out[t] = acc
    return out


def identity_dense(state: QuditState, ops: LocalOperatorSet, psi) -> bool:
    """The matricization identity by dense Kronecker products and matmuls.

    At every split l and every sigma of its canonical set, M^sigma(psi) must
    equal (x row-block F) M^sigma(phi) (x column-block F)^T as full grids.
    psi is the transformed state, or None when the operators annihilate the
    state; every right-hand side must then be the zero matrix.
    """
    n = state.n
    for l in range(1, n):
        for sigma in permutation_set(n, l):
            order = sigma.site_order(n)
            row_factors = kron_all([ops[q] for q in order[:l]])
            col_factors = kron_all([ops[q] for q in order[l:]])
            m_phi = coefficient_matrix(state, l, sigma).to_matrix()
            rhs = row_factors.matmul(m_phi).matmul(transpose(col_factors))
            if psi is None:
                lhs = ExactMatrix([[ZERO] * rhs.cols for _ in range(rhs.rows)])
            else:
                lhs = coefficient_matrix(psi, l, sigma).to_matrix()
            if lhs != rhs:
                return False
    return True


def reorder_by_digits(indices, dims, order) -> list:
    """Flat indices after a site reorder, one multi-index at a time.

    New position i holds the original site order[i] (1-based): split each
    index into its digits, reorder them, and join them under the new dims.
    """
    new_dims = [dims[q - 1] for q in order]
    out = []
    for i in indices:
        digits = multiindex_of(i, dims)
        out.append(flat_index([digits[q - 1] for q in order], new_dims))
    return out


def permute_by_digits(state: QuditState, perm) -> QuditState:
    """Site permutation of a state through reorder_by_digits."""
    moved = reorder_by_digits(state.amplitudes, state.dims, perm)
    new_dims = tuple(state.dims[q - 1] for q in perm)
    return QuditState(new_dims, dict(zip(moved, state.amplitudes.values())))


def symmetric_terms(levels: int, n: int, counts) -> set:
    """Enumeration positions of the digit strings with the given occupations.

    counts[k] is the number of digits equal to k + 1; the rest are 0.
    """
    return {
        pos
        for pos, tup in enumerate(product(range(levels), repeat=n))
        if all(tup.count(lv + 1) == c for lv, c in enumerate(counts))
    }


def count_arrangements(n: int, counts) -> int:
    """Number of distinct digit strings with the given level occupations."""
    return len(symmetric_terms(len(counts) + 1, n, counts))


def matched_occupation_classes(n: int, l: int, counts) -> int:
    """Row-occupation classes of a Dicke matricization with a feasible complement.

    Rows of the sigma_0 matricization are identical iff their digit multisets
    agree, and each class pairs with exactly one column class, so this count
    is the exact rank.
    """
    levels = len(counts) + 1
    total = [n - sum(counts)] + list(counts)
    return sum(
        all(occ[lv] <= total[lv] for lv in range(levels))
        for occ in _row_occupations(levels, l)
    )


@lru_cache(maxsize=None)
def _row_occupations(levels: int, l: int) -> frozenset:
    """Distinct level counts of the digit strings of length l, enumerated."""
    return frozenset(
        tuple(tup.count(lv) for lv in range(levels))
        for tup in product(range(levels), repeat=l)
    )


def value_entries(state: QuditState, l: int, sigma) -> list:
    """(row, col, value) of each amplitude of the l | n-l matricization at
    sigma, in row-major order: each index's digits are reordered by sigma's
    site order and split after the l-th, one multi-index at a time."""
    order = sigma.site_order(state.n)
    new_dims = [state.dims[q - 1] for q in order]
    out = []
    for i, a in state.amplitudes.items():
        digits = multiindex_of(i, state.dims)
        moved = [digits[q - 1] for q in order]
        out.append((flat_index(moved[:l], new_dims[:l]),
                    flat_index(moved[l:], new_dims[l:]), a))
    return sorted(out, key=lambda e: e[:2])


def distinct_support_by_value(entries) -> ExactMatrix:
    """Distinct nonzero rows x distinct nonzero columns, lines compared by
    their values: (row, col, value) triples in row-major order in, the
    block of first occurrences in index order out."""
    by_row = {}
    for r, c, v in entries:
        by_row.setdefault(r, []).append((c, v))
    rows = dict.fromkeys(tuple(row) for row in by_row.values())
    by_col = {}  # column -> [(kept row position, value)]
    for pos, row in enumerate(rows):
        for c, v in row:
            by_col.setdefault(c, []).append((pos, v))
    cols = dict.fromkeys(tuple(by_col[c]) for c in sorted(by_col))
    grid = [[ZERO] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for pos, v in col:
            grid[pos][j] = v
    return ExactMatrix(grid)
