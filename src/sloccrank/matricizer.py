"""Coefficient matrices, the qudit-permutation set, and split selection.

A split l puts the first l (permuted) sites on the rows of the matricization
and the remaining n-l sites on the columns, both blocks in lexicographic
order. Permutations are products of disjoint row<->column transpositions
(r_i, c_i) with ascending r_i on the row side and ascending c_i on the column
side, paired by sorted order.

Known quirk, implemented as specified: for odd n and l = (n-1)/2 the k-cap
l - (n mod 2) excludes the full-replacement permutation even though the row
and column pools would allow it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import prod
from operator import itemgetter, sub
from typing import List, Sequence, Tuple

from .linalg import ExactMatrix, distinct_support
from .scalars import ASCII_WHITESPACE, ComplexRational, ONE, ZERO
from .states import QuditState, check_dims, reorder_indices


_TRANSPOSITION = re.compile(r"\(([0-9]+),([0-9]+)\)")
_TRANSPOSITIONS = re.compile(rf"(?:{_TRANSPOSITION.pattern})+")


@dataclass(frozen=True)
class QuditPermutation:
    """Product of disjoint row<->column transpositions; () is the identity."""

    transpositions: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        ts = tuple((r, c) for r, c in self.transpositions)
        if any(type(q) is not int for t in ts for q in t):  # no float, bool or str
            raise TypeError(f"transposition sites must be ints: {ts}")
        object.__setattr__(self, "transpositions", ts)
        rows = [r for r, _ in ts]
        cols = [c for _, c in ts]
        if rows != sorted(set(rows)) or cols != sorted(set(cols)):
            raise ValueError(
                f"transpositions must have strictly ascending rows and columns: {ts}"
            )

    def site_order(self, n: int) -> Tuple[int, ...]:
        """Permuted site sequence: position i holds site site_order[i]."""
        order = list(range(1, n + 1))
        for r, c in self.transpositions:
            if not (1 <= r <= n and 1 <= c <= n):
                raise ValueError(f"transposition ({r},{c}) out of range for n={n}")
            order[r - 1], order[c - 1] = order[c - 1], order[r - 1]
        return tuple(order)

    def label(self) -> str:
        if not self.transpositions:
            return "I"
        return "".join(f"({r},{c})" for r, c in self.transpositions)

    @classmethod
    def parse(cls, text: str) -> "QuditPermutation":
        """Inverse of label(): "I" (or "" or "()"), else "(r,c)(r,c)..." in
        ASCII digits; spaces are ignored."""
        body = text.strip(ASCII_WHITESPACE).replace(" ", "")
        if body in ("I", "", "()"):
            return cls(())
        if not _TRANSPOSITIONS.fullmatch(body):
            raise ValueError(f"cannot parse permutation {text!r}")
        return cls(tuple((int(r), int(c)) for r, c in _TRANSPOSITION.findall(body)))


@dataclass(frozen=True)
class PermutationSet:
    n: int
    l: int
    sigmas: Tuple[QuditPermutation, ...]

    def __len__(self):
        return len(self.sigmas)

    def __iter__(self):
        return iter(self.sigmas)

    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @cached_property
    def _labels(self) -> Tuple[str, ...]:
        # built on first use, once per set; not a field, so == and hash ignore it
        return tuple(s.label() for s in self.sigmas)


def _check_split(n: int, l: int) -> None:
    if type(n) is not int or type(l) is not int:  # no float, bool or str
        raise TypeError(f"split needs int n and l, got n={n!r}, l={l!r}")
    if not 1 <= l <= n - 1:
        raise ValueError(f"split l={l} out of range [1, {n - 1}]")


def _sigmas_general(n: int, l: int) -> List[QuditPermutation]:
    """Transposition set for l >= 2 (degenerates to {I} for tiny pools)."""
    row_pool = tuple(range(1, l + (n % 2)))
    col_pool = tuple(range(l + 1, n + 1))
    kmax = min(l - (n % 2), len(row_pool), len(col_pool))
    out = [QuditPermutation(())]
    for k in range(1, kmax + 1):
        for rows in combinations(row_pool, k):
            for cols in combinations(col_pool, k):
                out.append(QuditPermutation(tuple(zip(rows, cols))))
    return out


def permutation_set(n: int, l: int) -> PermutationSet:
    """Canonical permutation set: ascending k, then lex on rows, then columns.

    For l = 1 this is the single-site family sigma_k = (1, k+1), k = 0..n-1.
    Built once per (n, l) and shared; checked before the cache, which takes 2.0 as 2.
    """
    _check_split(n, l)
    return _permutation_set(n, l)


@lru_cache(maxsize=64)
def _permutation_set(n: int, l: int) -> PermutationSet:
    if l == 1:
        sigmas = [QuditPermutation(())]
        sigmas += [QuditPermutation(((1, j),)) for j in range(2, n + 1)]
    else:
        sigmas = _sigmas_general(n, l)
    return PermutationSet(n, l, tuple(sigmas))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Matricization of a state for a given split and permutation (sparse)."""

    row_dims: Tuple[int, ...]
    col_dims: Tuple[int, ...]
    entries: Tuple[Tuple[int, int, int], ...]  # (row, col, code)
    classes: Tuple[ComplexRational, ...]  # the state's values, by code

    @property
    def rows(self) -> int:
        return prod(self.row_dims)

    @property
    def cols(self) -> int:
        return prod(self.col_dims)

    def to_matrix(self) -> ExactMatrix:
        cols = self.cols
        grid = [[ZERO] * cols for _ in range(self.rows)]
        for r, c, k in self.entries:
            grid[r][c] = self.classes[k]
        return ExactMatrix(grid)

    def support(self) -> ExactMatrix:
        """The distinct nonzero rows x distinct nonzero columns.

        Same rank as to_matrix(), built from the entries without the zero
        cells of the full grid.
        """
        return ExactMatrix(distinct_support(self.entries, self.classes))


def _matricize_by_order(
    state: QuditState, order: Sequence[int], l: int
) -> CoefficientMatrix:
    """Rows: the first l sites of order; columns: the rest."""
    perm_dims = tuple(state.dims[q - 1] for q in order)
    cols = prod(perm_dims[l:])
    new = reorder_indices(state.amplitudes, state.dims, order)
    moved = sorted(zip(new, state.codes), key=itemgetter(0))
    entries = tuple([(j // cols, j % cols, k) for j, k in moved])
    return CoefficientMatrix(perm_dims[:l], perm_dims[l:], entries, state.classes)


def coefficient_matrix(
    state: QuditState, l: int, sigma: QuditPermutation = QuditPermutation(())
) -> CoefficientMatrix:
    """Coefficient matrix of the state under split l and permutation sigma."""
    n = state.n
    _check_split(n, l)
    for r, c in sigma.transpositions:
        if not (1 <= r <= l and l < c <= n):
            raise ValueError(
                f"transposition ({r},{c}) invalid for n={n}, l={l}: "
                "rows must come from the row block, columns from the column block"
            )
    return _matricize_by_order(state, sigma.site_order(n), l)


def _sub_occupations(bounds: Sequence[int], size: int) -> List[Tuple[int, ...]]:
    """Occupation tuples a <= bounds (entrywise) with sum(a) == size, in lex order."""
    ranges = (range(min(b, size) + 1) for b in bounds)
    return [a for a in product(*ranges) if sum(a) == size]


def symmetric_matrix(n: int, l: int, counts: Tuple[int, ...]) -> ExactMatrix:
    """Merged l | n-l matricization of the Dicke state |D_c>, c = counts.

    |D_c> sums every digit string with level counts c. A row of the full
    matricization depends only on its digits' counts a, a column only on b,
    so the full matrix has the rank of M[a, b] = [a + b = c]: rows are the
    size-l tuples a <= c, columns the size-(n-l) b <= c, lex order. It is a
    permutation matrix, with ONE at row a and column c - a.
    """
    _check_split(n, l)
    rows = _sub_occupations(counts, l)
    col_of = {b: j for j, b in enumerate(_sub_occupations(counts, n - l))}
    grid = [[ZERO] * len(col_of) for _ in rows]
    for row, a in zip(grid, rows):
        row[col_of[tuple(map(sub, counts, a))]] = ONE
    return ExactMatrix(grid)


def reduced_density(state: QuditState, row_qudits: Sequence[int]) -> ExactMatrix:
    """Single/multi-site reduced density matrix M M^dagger (unnormalized)."""
    n = state.n
    sites = list(row_qudits)
    if any(type(q) is not int for q in sites):  # no float or bool
        raise TypeError(f"row qudits must be ints, got {sites}")
    if not sites or len(sites) >= n:
        raise ValueError(
            f"row qudits must be a nonempty proper subset of 1..{n}, got {sites}"
        )
    if len(set(sites)) != len(sites) or any(not 1 <= q <= n for q in sites):
        raise ValueError(f"invalid site subset {sites} for n={n}")
    rest = [q for q in range(1, n + 1) if q not in sites]
    m = _matricize_by_order(state, sites + rest, len(sites)).to_matrix()
    return m.matmul(m.dagger())


# ---------------------------------------------------------------------------
# split capacity and optimal split
# ---------------------------------------------------------------------------

def split_capacity(dims: Sequence[int], l: int) -> int:
    """Family-count capacity of a split.

    Arrangement-independent: dims are sorted descending and the split is
    mirrored to l* = min(l, n-l) (transposing a matricization never changes
    its rank), then the capacity is the product over the l* permutation set
    of min(row product, column product). At l* = 1 the set degenerates to
    {I}, which reproduces the reference values (4, 64, 4) for dims (2,2,2,4).
    """
    dims = check_dims(dims)
    n = len(dims)
    _check_split(n, l)
    l_star = min(l, n - l)
    sorted_dims = tuple(sorted(dims, reverse=True))
    p = 1
    for sigma in _permutation_set(n, l_star) if l_star > 1 else (QuditPermutation(()),):
        perm = tuple(sorted_dims[q - 1] for q in sigma.site_order(n))
        p *= min(prod(perm[:l_star]), prod(perm[l_star:]))
    return p


def optimal_split(dims: Sequence[int]) -> int:
    """The l maximizing split_capacity, ties to the smallest; capacity(l) =
    capacity(n - l), so only l <= n // 2 is tried."""
    dims = check_dims(dims)
    best_l, best_p = 1, split_capacity(dims, 1)
    for l in range(2, len(dims) // 2 + 1):
        p = split_capacity(dims, l)
        if p > best_p:
            best_l, best_p = l, p
    return best_l
