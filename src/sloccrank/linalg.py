"""Exact matrices over complex rationals and tolerance-free rank.

The exact rank path first maps the matrix to GF(p), p = 32749, where a + b*i
becomes a + b*s with s*s = -1; a rank there equal to min(rows, cols)
certifies full rank. Otherwise `scalars.gaussian_pairs` scales each row to
Gaussian-integer pairs, and one-step fraction-free (Bareiss) elimination on
those decides; `det_exact` runs the same kernel. Zero and duplicate
rows/columns (rank-invariant) are dropped once, before a matricization is
ever densified: `distinct_support` reads sparse (row, col, code) triples, the
code of one of the state's values, and compares lines as tuples of ints;
`CoefficientMatrix.support` hands it a matricization's entries, so a sparse
state reaches elimination without its zero grid ever being built. Floating
point decides nothing: the numeric path is an SVD cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Dict, Iterable, List, Sequence, Tuple

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


def _full_rank_mod_p(m: ExactMatrix) -> bool:
    """True if the image of m over GF(p) has full rank min(rows, cols).

    (a + b*i)/d -> (a + b*s)/d mod p, s*s = -1, is a ring homomorphism from
    Z[i][1/d] to GF(p) when p does not divide d, so a minor nonzero mod p is
    nonzero over Q(i): True proves full rank. False proves nothing, as p may
    divide every maximal minor. The lines of the shorter side are mapped and
    reduced one at a time; each kept line is scaled to pivot 1 and is zero
    left of it and at every earlier pivot. A dependent line ends the pass.
    """
    p, s = _P, _SQRT_M1
    basis = []  # (pivot column c, kept line from c on)
    for line in zip(*m.data) if m.rows > m.cols else m.data:
        try:
            x = [(v.a + v.b * s) * (1 if v.d == 1 else pow(v.d, -1, p)) % p for v in line]
        except ValueError:  # p divides a denominator
            return False
        for c, tail in basis:  # a kept line is zero left of c: update x[c:]
            if f := x[c]:
                x[c:] = [(u - f * w) % p for u, w in zip(x[c:], tail)]
        pv = next(filter(None, x), 0)
        if not pv:
            return False
        c = x.index(pv)  # the first nonzero
        inv = pow(pv, -1, p)
        basis.append((c, x[c:] if inv == 1 else [u * inv % p for u in x[c:]]))
    return True


def rank_exact(m: ExactMatrix) -> RankResult:
    """Exact rank over the complex rationals; deterministic for equal input.

    A full rank over GF(p) certifies itself; any lower rank is Bareiss's.
    """
    # on dense matrices up to a side of 4 (the identity-check ones,
    # classify_dense's 4x4 cuts) Bareiss alone costs about what a certifying
    # pass does, and less than a pass that falls back to it
    if min(m.rows, m.cols) > 4 and _full_rank_mod_p(m):
        return RankResult(min(m.rows, m.cols))
    return RankResult(_bareiss_rank([gaussian_pairs(row)[1] for row in m.data])[0])


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
