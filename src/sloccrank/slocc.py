"""Tensor-factored local operators and randomized theorem verification.

A local operator set F_1 x ... x F_n is one square ExactMatrix per site, in
site order. Everything here is exact: random local operators have
Gaussian-integer entries, so the matricization identity for locally
transformed states and the rank-nonincrease checks are decided with no
tolerance at all. apply_local and verify_theorem1 run one local-operator
kernel on Gaussian-integer pairs under one common scale, so they take
rational inputs too and do no ComplexRational arithmetic; verify_theorem1
builds no coefficient matrix.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .classifier import signature
from .linalg import ExactMatrix, det_exact
from .matricizer import optimal_split, permutation_set
from .scalars import ComplexRational, ZERO, gaussian_pairs
from .states import QuditState, ZeroStateError, reorder_indices, total_dim


class ZeroResultError(ZeroStateError):
    """A (singular) local operator set annihilated the state."""


class LocalOperatorSet:
    """One square local operator F_q per site: the k-th matrix acts on site k."""

    def __init__(self, matrices: Sequence[ExactMatrix]):
        self.matrices = tuple(matrices)
        for site, m in enumerate(self.matrices, 1):
            if m.rows != m.cols:
                raise ValueError(
                    f"operator at site {site} is {m.rows}x{m.cols}, not square"
                )

    def __iter__(self):
        return iter(self.matrices)

    def __len__(self):
        return len(self.matrices)

    def __getitem__(self, site: int) -> ExactMatrix:
        """The operator on site, an int in 1..n; nothing wraps."""
        n = len(self.matrices)
        if type(site) is not int or not 1 <= site <= n:
            raise IndexError(f"site {site!r} is not an int in [1, {n}]")
        return self.matrices[site - 1]

    def check_dims(self, dims: Sequence[int]) -> None:
        if len(self.matrices) != len(dims):
            raise ValueError("operator count does not match number of sites")
        for site, (m, d) in enumerate(zip(self.matrices, dims), 1):
            if m.rows != d:
                raise ValueError(
                    f"operator at site {site} is {m.rows}x{m.rows}, "
                    f"site dimension is {d}"
                )

    @property
    def invertible(self) -> bool:
        return all(not det_exact(m).is_zero() for m in self.matrices)

    @classmethod
    def identity(cls, dims: Sequence[int]) -> "LocalOperatorSet":
        return cls([ExactMatrix.identity(d) for d in dims])


def _integer_form(state: QuditState, ops: LocalOperatorSet) -> Tuple[int, list, list]:
    """K = L * prod den_q, L * phi's pairs in amplitude order and per site q
    the nonzero entries (t, a, b) of each column s of den_q * F_q, with L
    and den_q the lcms of the denominators of phi and F_q."""
    ops.check_dims(state.dims)
    scale, pairs = gaussian_pairs(state.amplitudes.values())
    columns = []
    for m in ops:
        den, flat = gaussian_pairs([f for row in m.data for f in row])
        scale *= den
        columns.append([[(t, a, b) for t, (a, b) in enumerate(flat[s::m.rows]) if a or b]
                        for s in range(m.rows)])
    return scale, pairs, columns


def _apply_columns(
    amps: Dict[int, Tuple[int, int]], dims: Sequence[int], site_columns: Sequence[list]
) -> Dict[int, Tuple[int, int]]:
    """The nonzero entries of (F_1 x ... x F_n) amps, site by site, with
    site_columns[k] the _integer_form columns of the factor on dims[k]."""
    stride = total_dim(dims)
    for d, columns in zip(dims, site_columns):
        stride //= d
        new: Dict[int, Tuple[int, int]] = {}
        for i, (x, y) in amps.items():
            s = i // stride % d
            base = i - s * stride
            for t, a, b in columns[s]:
                j = base + t * stride
                u, w = new.get(j, (0, 0))
                new[j] = (u + a * x - b * y, w + a * y + b * x)
        amps = {j: v for j, v in new.items() if v != (0, 0)}
    return amps


def apply_local(state: QuditState, ops: LocalOperatorSet) -> QuditState:
    """Apply the tensor product of local operators to the state, exactly.

    Sums run over phi and each F_q scaled to Gaussian integers (a, b).
    Raises ZeroResultError if the result is the zero vector (possible when
    some factor is singular).
    """
    scale, pairs, columns = _integer_form(state, ops)
    amps = _apply_columns(dict(zip(state.amplitudes, pairs)), state.dims, columns)
    if not amps:
        raise ZeroResultError(
            "local operator set annihilated the state (singular factors)"
        )
    amplitudes = {j: ComplexRational(x, y, scale) for j, (x, y) in amps.items()}
    return QuditState(state.dims, amplitudes)


def _check_psi_dims(state: QuditState, psi: Optional[QuditState]) -> None:
    if psi is not None and psi.dims != state.dims:
        raise ValueError(f"psi has dims {psi.dims}, the state has dims {state.dims}")


def verify_theorem1(
    state: QuditState, ops: LocalOperatorSet, psi: Optional[QuditState] = None
) -> bool:
    """Exact check of the matricization identity for local transformations.

    With psi = (F_1 x ... x F_n) phi, the coefficient matrix of psi under
    (l, sigma) must equal A M^sigma(phi) B^T, A and B the Kronecker products
    of the row- and column-block factors, each factor travelling with its
    qudit under sigma. Checked at every split l = 1..n-1 and every sigma of
    its canonical set, all against one psi (computed here unless given).
    M^sigma(phi) at every l is a row-major fold of phi with its sites in
    sigma's order and vec(A M B^T) = (A x B) vec(M), so each identity holds
    iff the factors in that order map the reordered phi to psi under the
    same reorder: checked once per distinct site order by apply_local's
    kernel, scaled to K (see _integer_form); a psi whose lcm of denominators
    does not divide K fails. Holds for arbitrary, including singular,
    factors; a zero psi needs every sum to vanish. ValueError if psi is not
    on the state's dims.
    """
    n = state.n
    _check_psi_dims(state, psi)
    scale, phi_pairs, columns = _integer_form(state, ops)
    if psi is None:
        try:
            psi = apply_local(state, ops)
        except ZeroResultError:
            pass
    psi_amps = {} if psi is None else psi.amplitudes
    psi_scale, psi_pairs = gaussian_pairs(psi_amps.values())
    if scale % psi_scale:
        return False
    k = scale // psi_scale
    psi_pairs = [(a * k, b * k) for a, b in psi_pairs]
    orders = dict.fromkeys(
        sigma.site_order(n) for l in range(1, n) for sigma in permutation_set(n, l)
    )
    for order in orders:
        dims = tuple(state.dims[q - 1] for q in order)
        phi = dict(zip(reorder_indices(state.amplitudes, state.dims, order), phi_pairs))
        got = _apply_columns(phi, dims, [columns[q - 1] for q in order])
        if got != dict(zip(reorder_indices(psi_amps, state.dims, order), psi_pairs)):
            return False
    return True


def rank_table(state: QuditState) -> Dict[Tuple[int, str], int]:
    """Exact ranks at every split l and every sigma in its canonical set."""
    out: Dict[Tuple[int, str], int] = {}
    for l in range(1, state.n):
        sig = signature(state, l)
        for label, rank in zip(sig.sigma_set.labels(), sig.ranks):
            out[(l, label)] = rank
    return out


def check_monotone_nonincrease(
    state: QuditState, ops: LocalOperatorSet, psi: Optional[QuditState] = None
) -> Tuple[bool, Dict[Tuple[int, str], Tuple[int, int]]]:
    """True iff no coefficient-matrix rank grows under the local operators.

    Returns (ok, {(l, sigma): (rank_before, rank_after)}). Raises
    ZeroResultError when the operators annihilate the state; callers count
    those trials as skips, not failures. psi, the transformed state, is
    computed here unless the caller already has it; ValueError if psi is
    not on the state's dims.
    """
    _check_psi_dims(state, psi)
    before = rank_table(state)
    after = rank_table(apply_local(state, ops) if psi is None else psi)
    pairs = {key: (before[key], after[key]) for key in before}
    ok = all(b >= a for b, a in pairs.values())
    return ok, pairs


# ---------------------------------------------------------------------------
# random sampling (all deterministic given the seed)
# ---------------------------------------------------------------------------

ENTRY_BOUND = 3  # random entries are a + bi with |a|, |b| <= ENTRY_BOUND
MAX_TERMS = 8  # random sparse states have 1..MAX_TERMS nonzero amplitudes


def _gaussian(rng: random.Random) -> ComplexRational:
    """Random Gaussian integer a + bi, real part drawn first."""
    return ComplexRational(
        rng.randint(-ENTRY_BOUND, ENTRY_BOUND), rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
    )


def _random_matrix(d: int, rng: random.Random) -> ExactMatrix:
    return ExactMatrix([[_gaussian(rng) for _ in range(d)] for _ in range(d)])


def random_ilo(d: int, rng: random.Random) -> ExactMatrix:
    """Random Gaussian-integer matrix resampled until exactly invertible."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    for _ in range(1000):
        m = _random_matrix(d, rng)
        if not det_exact(m).is_zero():
            return m
    raise RuntimeError("could not sample an invertible matrix in 1000 attempts")


def random_local_possibly_singular(
    d: int, rng: random.Random, force_singular: bool = False
) -> ExactMatrix:
    """Unconstrained random matrix, or one with determinant exactly zero.

    Singular matrices are sums of at most d-1 outer products of random
    Gaussian-integer vectors, so their rank deficiency is structural.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if not force_singular:
        return _random_matrix(d, rng)
    terms = rng.randint(1, d - 1)
    grid = [[ZERO] * d for _ in range(d)]
    for _ in range(terms):
        u = [_gaussian(rng) for _ in range(d)]
        v = [_gaussian(rng) for _ in range(d)]
        for i in range(d):
            for j in range(d):
                grid[i][j] = grid[i][j] + u[i] * v[j]
    return ExactMatrix(grid)


def random_ilo_set(dims: Sequence[int], rng: random.Random) -> LocalOperatorSet:
    return LocalOperatorSet([random_ilo(d, rng) for d in dims])


def random_possibly_singular_set(
    dims: Sequence[int], rng: random.Random
) -> LocalOperatorSet:
    # each site draws its force_singular coin before its matrix
    return LocalOperatorSet(
        [random_local_possibly_singular(d, rng, force_singular=rng.random() < 0.5)
         for d in dims]
    )


def random_dims(
    rng: random.Random,
    max_sites: int = 5,
    max_dim: int = 4,
    max_total: int = 1024,
) -> Tuple[int, ...]:
    while True:
        n = rng.randint(2, max_sites)
        dims = tuple(rng.randint(2, max_dim) for _ in range(n))
        if total_dim(dims) <= max_total:
            return dims


def random_sparse_state(dims: Sequence[int], rng: random.Random) -> QuditState:
    D = total_dim(dims)
    k = rng.randint(1, min(MAX_TERMS, D))
    indices = rng.sample(range(D), k)
    amps: Dict[int, ComplexRational] = {}
    for i in indices:
        while (z := _gaussian(rng)).is_zero():
            pass
        amps[i] = z
    return QuditState(dims, amps)


# ---------------------------------------------------------------------------
# trial harnesses (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

def _trials(
    trials: int,
    seed: int,
    dims: Optional[Sequence[int]],
    sample_ops: Callable[[Sequence[int], random.Random], LocalOperatorSet],
) -> Iterator[Tuple[int, Tuple[int, ...], QuditState, LocalOperatorSet]]:
    """(trial, dims, state, ops) per trial, all drawn from one seeded rng."""
    rng = random.Random(seed)
    for t in range(trials):
        trial_dims = tuple(dims) if dims else random_dims(rng)
        state = random_sparse_state(trial_dims, rng)
        yield t, trial_dims, state, sample_ops(trial_dims, rng)


def _rank_record(pairs: Dict[Tuple[int, str], Tuple[int, int]]) -> Dict[str, list]:
    return {f"l={l} sigma={lab}": [b, a] for (l, lab), (b, a) in pairs.items()}


def run_theorem1_trials(
    trials: int, seed: int, dims: Optional[Sequence[int]] = None
) -> List[dict]:
    """Randomized identity + signature-invariance trials for invertible ops."""
    records = []
    for t, trial_dims, state, ops in _trials(trials, seed, dims, random_ilo_set):
        # invertible operators never annihilate the state
        psi = apply_local(state, ops)
        identity_ok = verify_theorem1(state, ops, psi)
        pairs = check_monotone_nonincrease(state, ops, psi)[1]
        # the signature is the rank tuple at the optimal split
        l_opt = optimal_split(trial_dims)
        sig_ok = all(b == a for (l, _), (b, a) in pairs.items() if l == l_opt)
        records.append(
            {
                "trial": t,
                "dims": list(trial_dims),
                "identity_ok": identity_ok,
                "signature_ok": sig_ok,
                "result": "pass" if identity_ok and sig_ok else "fail",
                "ranks": _rank_record(pairs),
            }
        )
    return records


def run_monotone_trials(
    trials: int, seed: int, dims: Optional[Sequence[int]] = None
) -> List[dict]:
    """Randomized rank-nonincrease trials with possibly singular operators."""
    records = []
    for t, trial_dims, state, ops in _trials(
        trials, seed, dims, random_possibly_singular_set
    ):
        invertible = ops.invertible
        rec = {"trial": t, "dims": list(trial_dims), "invertible": invertible}
        records.append(rec)
        try:
            ok, pairs = check_monotone_nonincrease(state, ops)
        except ZeroResultError:
            rec["result"] = "skip"
            continue
        if invertible:
            ok = ok and all(b == a for b, a in pairs.values())
        rec["result"] = "pass" if ok else "fail"
        rec["ranks"] = _rank_record(pairs)
    return records
