"""Exact matrices over complex rationals and tolerance-free rank.

From a shorter side of 5, the exact rank path maps the matrix to GF(p),
p = 32749, where a + b*i becomes a + b*s with s*s = -1, and counts k, the
lines of that side independent there before the first dependent one: k
equal to the side certifies full rank. Otherwise `scalars.gaussian_pairs`
scales each row to Gaussian-integer pairs, and k steps of one-step
fraction-free (Bareiss) elimination on those rows, packed into big ints,
prove rank k if they leave a zero remainder. Scalar Bareiss on the pairs
decides the rest; `det_exact` runs it too. Zero and duplicate
rows/columns (rank-invariant) are dropped once, before a matricization is
ever densified: `distinct_support` reads sparse (row, col, code) triples, the
code of one of the state's values, and compares lines as tuples of ints;
`CoefficientMatrix.support` hands it a matricization's entries, so a sparse
state reaches elimination without its zero grid ever being built. Floating
point decides nothing: the numeric path is an SVD cross-check only.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from math import isqrt, prod
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ComplexRational, ZERO, gaussian_pairs


class ExactMatrix:
    """Dense matrix of ComplexRational entries."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[ComplexRational]]):
        data = [list(row) for row in data]
        if not data or not data[0]:
            raise ValueError("empty matrix")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = cols
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"

    def dagger(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self.data[r][c].conjugate() for r in range(self.rows)]
                for c in range(self.cols)
            ]
        )

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if a.is_zero():
                    continue
                other_k = other.data[k]
                for j, b in enumerate(other_k):
                    if not b.is_zero():
                        out_i[j] = out_i[j] + a * b
        return ExactMatrix(out)


def kron_all(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    """mats[0] x mats[1] x ..., row (i, k) and column (j, l) of each
    pairwise product holding a[i][j] * b[k][l]."""
    out = mats[0].data
    for m in mats[1:]:
        out = [[a * b for a in row for b in mrow] for row in out for mrow in m.data]
    return ExactMatrix(out)


@dataclass(frozen=True)
class RankResult:
    rank: int


def _bareiss_rank(rows: List[List[Tuple[int, int]]]) -> Tuple[int, int]:
    """Fraction-free elimination over Gaussian integers; first-nonzero pivoting.

    Reduces rows in place and returns (rank, number of row swaps made).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    piv = swaps = 0
    prev_a, prev_b = 1, 0  # previous pivot (Bareiss denominator)
    for col in range(ncols):
        sel = None
        for r in range(piv, nrows):
            a, b = rows[r][col]
            if a or b:
                sel = r
                break
        if sel is None:
            continue
        if sel != piv:
            rows[piv], rows[sel] = rows[sel], rows[piv]
            swaps += 1
        pa, pb = rows[piv][col]
        pn = prev_a * prev_a + prev_b * prev_b
        prow = rows[piv]
        for r in range(piv + 1, nrows):
            row = rows[r]
            fa, fb = row[col]
            # columns left of the pivot are already zero below it
            new = []
            for c in range(col + 1, ncols):
                xa, xb = row[c]
                ya, yb = prow[c]
                # pivot*x - factor*y, then exact division by previous pivot
                ta = pa * xa - pb * xb - (fa * ya - fb * yb)
                tb = pa * xb + pb * xa - (fa * yb + fb * ya)
                if prev_b == 0 and prev_a == 1:
                    new.append((ta, tb))
                else:
                    new.append(
                        (
                            (ta * prev_a + tb * prev_b) // pn,
                            (tb * prev_a - ta * prev_b) // pn,
                        )
                    )
            row[col + 1:] = new
        piv += 1
        prev_a, prev_b = pa, pb
        if piv == nrows:
            break
    return piv, swaps


def distinct_support(
    entries: Iterable[Tuple[int, int, int]], classes: Sequence[ComplexRational]
) -> List[List[ComplexRational]]:
    """Distinct nonzero rows x distinct nonzero columns of a sparse matrix.

    entries holds one (row, col, code) triple per nonzero position, in
    row-major order, with value classes[code] (one code per value), so zero
    rows and columns are absent; repeats of an earlier row or column, tuples
    of ints, are dropped too. Neither changes the rank. The first occurrence
    in index order is kept. Returns the kept block as a dense grid.
    """
    by_row: Dict[int, list] = {}
    for r, c, k in entries:
        by_row.setdefault(r, []).append((c, k))
    rows = dict.fromkeys(tuple(row) for row in by_row.values())
    by_col: Dict[int, list] = {}  # column -> [(kept row position, code)]
    for pos, row in enumerate(rows):
        for c, k in row:
            by_col.setdefault(c, []).append((pos, k))
    cols = dict.fromkeys(tuple(by_col[c]) for c in sorted(by_col))
    grid = [[ZERO] * len(cols) for _ in rows]
    for j, col in enumerate(cols):
        for pos, k in col:
            grid[pos][j] = classes[k]
    return grid


# p = 1 (mod 4), so -1 has a square root mod p; p < 2**15 keeps every
# product of two residues a single-digit CPython int
_P, _SQRT_M1 = 32749, 15645
_SLOT = (1 << 64) - 1


def _pack64(x: List[int]) -> int:
    """x[0] + x[1] * 2**64 + ..., for entries in [0, 2**64)."""
    return int.from_bytes(array("Q", x), "little")


def _independent_mod_p(m: ExactMatrix) -> int:
    """k: how many lines of m's shorter side, in order, are independent over
    GF(p) before the first dependent one.

    (a + b*i)/d -> (a + b*s)/d mod p, s*s = -1, is a ring homomorphism from
    Z[i][1/d] to GF(p) when p does not divide d, so lines independent mod p
    are independent over Q(i): the rank is at least k, and k equal to the
    shorter side proves full rank. A denominator divisible by p ends the
    pass. Each kept line is scaled to pivot 1 and is zero left of it and at
    every earlier pivot. A line is reduced against a kept line by one
    multiply-add on residues packed 64 bits per slot; each update adds under
    p*p to a slot, so a slot stays far below 2**64 and nothing carries. A
    line is packed only when it first needs an update.
    """
    p, s = _P, _SQRT_M1
    basis = []  # [pivot column, kept line, its packing or None]
    for k, line in enumerate(zip(*m.data) if m.rows > m.cols else m.data):
        try:
            x = [(v.a + v.b * s) * (1 if v.d == 1 else pow(v.d, -1, p)) % p for v in line]
        except ValueError:  # p divides a denominator
            return k
        packed = None
        for kept in basis:
            c = kept[0]
            f = x[c] if packed is None else (packed >> 64 * c & _SLOT) % p
            if f:
                if packed is None:
                    packed = _pack64(x)
                if kept[2] is None:
                    kept[2] = _pack64(kept[1])
                packed += (p - f) * kept[2]
        if packed is not None:
            x = [u % p for u in array("Q", packed.to_bytes(8 * len(x), "little"))]
        pv = next(filter(None, x), 0)
        if not pv:
            return k
        inv = pow(pv, -1, p)
        basis.append([x.index(pv), x if inv == 1 else [u * inv % p for u in x], None])
    return len(basis)


def _packed_bareiss_rank(rows: List[List[Tuple[int, int]]], budget: int) -> Optional[int]:
    """The rank of Gaussian-integer rows if it is at most budget, else None.

    One-step Bareiss as in `_bareiss_rank`, for at most budget steps, on
    copies of the rows each packed as two ints, the real and the imaginary
    parts, in balanced signed slots of w bits: one big-int multiply-add
    updates a whole row, and a whole row is multiplied by the previous
    pivot's conjugate and divided exactly by its norm. After j steps an
    entry is a (j + 1)-minor, so with E the largest |part| and Hadamard's
    bound H_j = (2j * E**2)**(j/2) on a j-minor, every pivot and factor is
    at most H_k (k = budget) and every value formed in a step at most
    8 * H_k**2 * H_(k-1). w is two bits past that bound, so no slot ever
    reaches half its width and no value is misread. Columns left of the
    pivot column are zero in every row not yet a pivot, so a slot is read
    by shift and mask.
    """
    e = max(map(abs, chain.from_iterable(chain.from_iterable(rows))))
    k, a = max(budget, 1), 2 * e * e
    w = (8 * (k * a) ** k * (isqrt(((k - 1) * a) ** (k - 1)) + 1)).bit_length() + 2
    mask, half = (1 << w) - 1, 1 << (w - 1)
    packed = []
    for row in rows:
        xr = xi = 0
        for re, im in reversed(row):
            xr, xi = (xr << w) + re, (xi << w) + im
        packed.append((xr, xi))
    nrows, piv = len(packed), 0
    qa, qb = 1, 0  # previous pivot (Bareiss denominator)
    for col in range(len(rows[0])):
        if piv == budget:
            break
        shift = w * col
        sel = next((r for r in range(piv, nrows)
                    if packed[r][0] >> shift & mask or packed[r][1] >> shift & mask), None)
        if sel is None:
            continue
        packed[piv], packed[sel] = packed[sel], packed[piv]
        yr, yi = packed[piv]
        pa, pb = ((yr >> shift) + half & mask) - half, ((yi >> shift) + half & mask) - half
        pn = qa * qa + qb * qb
        # the first step divides by 1; after the last, rows are only tested for zero
        divide = (qa, qb) != (1, 0) and piv + 1 < budget
        for r in range(piv + 1, nrows):
            xr, xi = packed[r]
            fa, fb = ((xr >> shift) + half & mask) - half, ((xi >> shift) + half & mask) - half
            nr = pa * xr - pb * xi - fa * yr + fb * yi
            ni = pa * xi + pb * xr - fa * yi - fb * yr
            packed[r] = ((nr * qa + ni * qb) // pn, (ni * qa - nr * qb) // pn) if divide else (nr, ni)
        piv += 1
        qa, qb = pa, pb
    return None if any(map(any, packed[piv:])) else piv


def rank_exact(m: ExactMatrix) -> RankResult:
    """Exact rank over the complex rationals; deterministic for equal input.

    From a shorter side of 5, the GF(p) pass finds k lines independent: k
    equal to that side certifies full rank, and otherwise k steps of packed
    Bareiss prove rank k when they leave a zero remainder. Any other case
    is scalar Bareiss's.
    """
    side = min(m.rows, m.cols)
    # up to a side of 4 (the identity-check matrices, classify_dense's 4x4
    # cuts) scalar Bareiss costs less than the pass and packed rows do
    k = _independent_mod_p(m) if side > 4 else None
    if k == side:
        return RankResult(side)
    rows = [gaussian_pairs(row)[1] for row in m.data]
    if k is not None and (rank := _packed_bareiss_rank(rows, k)) is not None:
        return RankResult(rank)
    return RankResult(_bareiss_rank(rows)[0])


SVD_SAFETY = 100.0  # threshold factor of the numeric cross-check


def rank_numeric(m: ExactMatrix) -> RankResult:
    """Floating rank: singular values above smax * max(shape) * eps * SVD_SAFETY."""
    import numpy as np  # here, so the exact program's import does not pay for numpy
    try:
        arr = np.array([[complex(x) for x in row] for row in m.data], dtype=complex)
    except OverflowError as exc:
        raise ValueError(f"entries too large for float conversion: {exc}") from exc
    s = np.linalg.svd(arr, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return RankResult(0)
    thresh = s[0] * max(m.rows, m.cols) * np.finfo(float).eps * SVD_SAFETY
    return RankResult(int(np.sum(s > thresh)))


def det_exact(m: ExactMatrix) -> ComplexRational:
    """Exact determinant (square matrices) via the Bareiss kernel.

    The last one-step Bareiss pivot of the row-scaled, row-permuted matrix is
    its determinant; each row swap flips the sign, and the row scales divide.
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    scales, rows = zip(*map(gaussian_pairs, m.data))
    grid = list(rows)
    rank, swaps = _bareiss_rank(grid)
    if rank < m.rows:
        return ZERO
    sign = -1 if swaps % 2 else 1
    a, b = grid[-1][-1]
    return ComplexRational(sign * a, sign * b, prod(scales))
