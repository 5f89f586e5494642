"""Rank signatures, family labels, the 2x2x2x4 reference table, Dicke scans.

The signature of a state is the tuple of exact coefficient-matrix ranks over
the canonical permutation set at a chosen split; equal signatures define one
family. The invariant is necessary but not sufficient for interconvertibility:
distinct states may share a family (the three F{2,2,2} representatives do).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, List, Sequence, Tuple, Union

from .linalg import rank_exact
from .matricizer import (
    PermutationSet,
    coefficient_matrix,
    optimal_split,
    permutation_set,
    symmetric_matrix,
)
from .scalars import ONE
from .states import QuditState, flat_index


@dataclass(frozen=True)
class RankSignature:
    sigma_set: PermutationSet
    ranks: Tuple[int, ...]

    def __post_init__(self):
        if len(self.ranks) != len(self.sigma_set):
            raise ValueError("one rank per permutation required")

    @property
    def split(self) -> int:
        return self.sigma_set.l


def sigma_ranks(state: QuditState, pset: PermutationSet, memo: dict) -> Tuple[int, ...]:
    """Exact rank at each sigma of pset. A rank depends only on the bipartition
    {S, S^c}, S = sigma's first l sites (M at S^c is M at S transposed), so memo,
    one per state, maps the side holding site 1 to its rank."""
    n, l = pset.n, pset.l
    ranks = []
    for sigma in pset:
        order = sigma.site_order(n)
        key = frozenset(order[:l] if 1 in order[:l] else order[l:])
        if key not in memo:
            memo[key] = rank_exact(coefficient_matrix(state, l, sigma).support()).rank
        ranks.append(memo[key])
    return tuple(ranks)


def signature(state: QuditState, l: Union[int, str] = "auto") -> RankSignature:
    """Exact signature at split l ('auto' = optimal), each bipartition ranked once."""
    if l == "auto":
        l = optimal_split(state.dims)
    pset = permutation_set(state.n, l)
    return RankSignature(pset, sigma_ranks(state, pset, {}))


def family_label(sig: RankSignature) -> str:
    """Canonical label, e.g. F{4,4,3}@{I,(1,3),(1,4)}."""
    return _label(",".join(map(str, sig.ranks)), ",".join(sig.sigma_set.labels))


def _label(ranks: str, sigmas: str) -> str:
    return f"F{{{ranks}}}@{{{sigmas}}}"


def classify(
    states: Sequence[QuditState],
    l: Union[int, str] = "auto",
    *,
    ids: Sequence[str],
) -> Dict[RankSignature, List[str]]:
    """Group states (same dims required) by exact signature equality, in
    family_label order."""
    if not states:
        return {}
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise ValueError("all states must share the same dims")
    if len(ids) != len(states):
        raise ValueError("one id per state required")
    groups: Dict[RankSignature, List[str]] = {}
    for sid, state in zip(ids, states):
        groups.setdefault(signature(state, l), []).append(sid)
    return dict(sorted(groups.items(), key=lambda kv: family_label(kv[0])))


# ---------------------------------------------------------------------------
# the 2x2x2x4 reference classification (24 representatives, 22 families)
# ---------------------------------------------------------------------------

_DIMS_2224 = (2, 2, 2, 4)

# (name, expected rank triple at l=2 over {I,(1,3),(1,4)}, basis kets).
# The two rank-1-containing "pair of Bell pairs" rows are stored with the
# representative that actually attains the triple; see the project notes on
# the source table's swapped rows.
_TABLE1: Tuple[Tuple[str, Tuple[int, int, int], Tuple[Tuple[int, ...], ...]], ...] = (
    ("F444", (4, 4, 4), ((0, 0, 0, 0), (0, 0, 1, 3), (0, 1, 0, 1), (0, 1, 1, 2),
                         (1, 0, 0, 2), (1, 0, 1, 1), (1, 1, 0, 3), (1, 1, 1, 0))),
    ("F443", (4, 4, 3), ((0, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
                         (0, 1, 0, 2), (1, 1, 1, 3))),
    ("F434", (4, 3, 4), ((0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0),
                         (1, 0, 0, 2), (1, 1, 1, 3))),
    ("F344", (3, 4, 4), ((0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0),
                         (0, 0, 1, 2), (1, 1, 1, 3))),
    ("F433", (4, 3, 3), ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 2), (1, 1, 1, 3))),
    ("F343", (3, 4, 3), ((0, 0, 0, 0), (1, 1, 0, 1), (1, 0, 1, 2), (1, 1, 1, 3))),
    ("F334", (3, 3, 4), ((0, 0, 0, 0), (0, 1, 1, 1), (1, 1, 0, 2), (1, 1, 1, 3))),
    ("F442", (4, 4, 2), ((0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 2), (1, 1, 1, 3))),
    ("F424", (4, 2, 4), ((0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 2), (1, 1, 1, 3))),
    ("F244", (2, 4, 4), ((0, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 2), (1, 1, 1, 3))),
    ("F333", (3, 3, 3), ((0, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (1, 1, 1, 3))),
    ("F332", (3, 3, 2), ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 2))),
    ("F323", (3, 2, 3), ((0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 2))),
    ("F233", (2, 3, 3), ((0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 2))),
    ("F222a", (2, 2, 2), ((1, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1))),
    ("F222b_W", (2, 2, 2), ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))),
    ("F222c_GHZ", (2, 2, 2), ((0, 0, 0, 0), (1, 1, 1, 1))),
    ("F441", (4, 4, 1), ((0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1))),
    ("F414", (4, 1, 4), ((0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1))),
    ("F144", (1, 4, 4), ((0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 1, 1, 1))),
    ("F221", (2, 2, 1), ((1, 1, 0, 0), (1, 0, 0, 1))),
    ("F212", (2, 1, 2), ((1, 1, 0, 0), (1, 0, 1, 0))),
    ("F122", (1, 2, 2), ((1, 0, 1, 0), (1, 0, 0, 1))),
    ("F111", (1, 1, 1), ((0, 0, 0, 0),)),
)


def table1_suite() -> List[Tuple[str, QuditState, str]]:
    """The 24 reference representatives with their expected family labels."""
    pset = permutation_set(4, 2)
    out = []
    for name, triple, kets in _TABLE1:
        amps = {flat_index(ket, _DIMS_2224): ONE for ket in kets}
        state = QuditState(_DIMS_2224, amps)
        expected = family_label(RankSignature(pset, triple))
        out.append((name, state, expected))
    return out


# ---------------------------------------------------------------------------
# Dicke-state rank scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    occupations: Tuple[int, ...]  # (l0, l1, l2[, l3])
    variance: Fraction
    ranks: Tuple[int, ...]


_SCAN_LIMITS = {3: 14, 4: 12}


def _occupation_variance(counts: Sequence[int]) -> Fraction:
    """Population variance of the counts, (m * sum c^2 - n^2) / m^2."""
    m, n = len(counts), sum(counts)
    return Fraction(m * sum(c * c for c in counts) - n * n, m * m)


def dicke_scan(levels: int, n: int) -> Tuple[PermutationSet, List[ScanRow]]:
    """Rank signatures of all Dicke occupation tuples at split l = n // 2.

    A Dicke state is invariant under every permutation of sites, so every
    sigma in the set yields the same matrix up to row/column relabeling; the
    rank is computed once and replicated. It is the rank of the merged
    occupation-class matrix (symmetric_matrix), so no state and none of its
    levels**n terms are built. A level relabeling P x ... x P maps |D_c> to
    |D_pi(c)> and permutes that matrix's rows and columns, so one call ranks
    each multiset of counts once, as its sorted tuple, for all its arrangements.
    """
    if type(levels) is not int or type(n) is not int:  # no float, bool or str
        raise TypeError(f"scan needs int levels and n, got levels={levels!r}, n={n!r}")
    if levels not in _SCAN_LIMITS:
        raise ValueError("levels must be 3 or 4")
    limit = _SCAN_LIMITS[levels]
    if not 2 <= n <= limit:
        raise ValueError(
            f"scan at levels={levels} supports 2 <= n <= {limit} "
            f"(exact desk-scale guard); got n={n}"
        )
    l = n // 2
    pset = permutation_set(n, l)
    orbit: Dict[Tuple[int, ...], Tuple[Fraction, Tuple[int, ...]]] = {}
    rows: List[ScanRow] = []
    for occ in _occupation_tuples(levels, n):
        counts = (n - sum(occ),) + occ
        key = tuple(sorted(counts))
        if key not in orbit:
            r = rank_exact(symmetric_matrix(n, l, key)).rank
            orbit[key] = (_occupation_variance(key), (r,) * len(pset))
        rows.append(ScanRow(counts, *orbit[key]))
    return pset, rows


def _occupation_tuples(levels: int, n: int):
    """(l1, ..., l_{levels-1}) with sum < n, in lexicographic order."""
    return (occ for occ in product(range(n), repeat=levels - 1) if sum(occ) < n)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, with each " doubled, only when it
    holds a comma, a quote, CR or LF; otherwise unchanged."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def scan_to_csv(levels: int, pset: PermutationSet, rows: Sequence[ScanRow]) -> str:
    out = io.StringIO()
    occ_cols = [f"l{k}" for k in range(levels)]
    rank_cols = [f"rank_sigma{k}" for k in range(len(pset))]
    header = ",".join(occ_cols + ["variance"] + rank_cols + ["family_label"])
    out.write(f"# columns: {header}\n# sigma order: {';'.join(pset.labels)}\n")
    out.write(header + "\n")
    sigmas = ",".join(pset.labels)
    tails: Dict[Tuple[int, ...], str] = {}  # ranks -> formatted tail, joined once
    for row in rows:
        tail = tails.get(row.ranks)
        if tail is None:
            ranks = ",".join(map(str, row.ranks))
            tail = tails[row.ranks] = f'{ranks},"{_label(ranks, sigmas)}"'
        occ = ",".join(map(str, row.occupations))
        out.write(f"{occ},{float(row.variance)},{tail}\n")
    return out.getvalue()


def classify_to_csv(groups: Dict[RankSignature, List[str]]) -> str:
    out = io.StringIO()
    out.write("# columns: state_id,l,sigma_list,ranks,family_label\n")
    out.write("state_id,l,sigma_list,ranks,family_label\n")
    for sig, sids in groups.items():
        sigma_list = ";".join(sig.sigma_set.labels)
        ranks = ",".join(map(str, sig.ranks))
        label = family_label(sig)
        for sid in sids:
            out.write(f'{_csv_field(sid)},{sig.split},"{sigma_list}","{ranks}","{label}"\n')
    return out.getvalue()
