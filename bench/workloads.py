"""The three workloads: their seeded inputs, one item each, and output checks.

Every item goes through the program's public functions by module attribute
(``classifier.signature``, not a name bound at import time), so the spans
that ``tracer`` installs see it. The checks recompute what they compare
against by routes apart from the program: numpy ranks of matricizations the
benchmark builds itself, and counts of Dicke occupation classes.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
import re
from typing import List, Sequence, Tuple

import numpy as np

from sloccrank import classifier, slocc, states

Dims = Tuple[int, ...]


def _nonzero_gaussian(rng: random.Random, bound: int = 3) -> complex:
    while True:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a or b:
            return complex(a, b)


def _numpy_rank(amps: np.ndarray, dims: Dims, l: int,
                transpositions: Sequence[Tuple[int, int]]) -> int:
    """Rank of the (l, sigma) matricization, built apart from the program.

    ``amps`` is indexed by the digits of ``dims``; sigma swaps the 1-based
    sites of each (row, column) transposition, and the first l sites of the
    resulting order index the rows.
    """
    order = list(range(len(dims)))
    for r, c in transpositions:
        order[r - 1], order[c - 1] = order[c - 1], order[r - 1]
    rows = math.prod(dims[q] for q in order[:l])
    m = amps.transpose(order).reshape(rows, -1)
    return int(np.linalg.matrix_rank(m))


def _label(ranks: Sequence[int], transpositions: Sequence[Sequence[Tuple[int, int]]]) -> str:
    """The documented label format, e.g. F{4,4,3}@{I,(1,3),(1,4)}."""
    sigmas = ["".join(f"({r},{c})" for r, c in ts) or "I" for ts in transpositions]
    return "F{%s}@{%s}" % (",".join(map(str, ranks)), ",".join(sigmas))


def _amplitude_array(state) -> np.ndarray:
    """A program state's amplitudes, indexed by the digits of its dims."""
    amps = np.zeros(state.dims, dtype=complex)
    for flat, z in state.amplitudes.items():
        amps[np.unravel_index(flat, state.dims)] = complex(z.a, z.b) / z.d
    return amps


def _doc(amps: np.ndarray) -> dict:
    """State JSON document of a Gaussian-integer amplitude array."""
    entries = []
    for idx in itertools.product(*[range(d) for d in amps.shape]):
        z = amps[idx]
        if z != 0:
            entries.append({"index": list(idx), "re": str(int(z.real)), "im": str(int(z.imag))})
    return {"dims": list(amps.shape), "amplitudes": entries}


class ClassifyDense:
    """``sloccrank classify`` per file: state JSON -> signature -> family label."""

    # (dims, items per round). The middle group, (4,4,4,4), holds the median
    # item of a round: 24 items are cheaper and 24 dearer than its 18.
    GROUPS: Tuple[Tuple[Dims, int], ...] = (
        ((2, 2, 2, 4), 12),
        ((3, 3, 3, 3), 12),
        ((4, 4, 4, 4), 18),
        ((5, 5, 5, 5), 12),
        ((2,) * 8, 6),
        ((3,) * 6, 6),
    )
    # None: every amplitude random (full rank); r: sum of r product states
    KINDS = (None, 2, 3)
    # a run holds about twenty rounds of millisecond items
    ITEM_TIME = "best"

    def __init__(self, seed: int):
        rng = random.Random(f"classify_dense/{seed}")
        self.inputs = []  # (amplitude array, r or None, document)
        for dims, count in self.GROUPS:
            for j in range(count):
                r = self.KINDS[j % len(self.KINDS)]
                amps = self._product_sum(dims, r, rng) if r else self._dense(dims, rng)
                self.inputs.append((amps, r, _doc(amps)))
        rng.shuffle(self.inputs)
        self.items = [doc for _, _, doc in self.inputs]
        self.warmup_item = _doc(self._dense((3, 3, 3, 3), rng))

    @staticmethod
    def _dense(dims: Dims, rng: random.Random) -> np.ndarray:
        values = [_nonzero_gaussian(rng) for _ in range(math.prod(dims))]
        return np.array(values, dtype=complex).reshape(dims)

    @staticmethod
    def _product_sum(dims: Dims, r: int, rng: random.Random) -> np.ndarray:
        total = np.zeros(dims, dtype=complex)
        for _ in range(r):
            term = np.ones((), dtype=complex)
            for d in dims:
                term = np.multiply.outer(term, [_nonzero_gaussian(rng) for _ in range(d)])
            total += term
        return total

    @staticmethod
    def run(doc: dict):
        sig = classifier.signature(states.state_from_json(doc))
        return sig, classifier.family_label(sig)

    @staticmethod
    def digest(output) -> str:
        return output[1]

    def _check_one(self, amps: np.ndarray, output, where: str) -> List[str]:
        sig, label = output
        ts = [s.transpositions for s in sig.sigma_set.sigmas]
        want = [_numpy_rank(amps, amps.shape, sig.split, t) for t in ts]
        errors = []
        if list(sig.ranks) != want:
            errors.append(f"{where}: ranks {list(sig.ranks)} != numpy {want}")
        if label != _label(sig.ranks, ts):
            errors.append(f"{where}: label {label} does not spell its ranks and sigmas")
        return errors

    def check(self, outputs: Sequence) -> List[str]:
        errors = []
        for k, ((amps, r, _), out) in enumerate(zip(self.inputs, outputs)):
            if out is None:
                continue
            where = f"item {k} dims={amps.shape} r={r}"
            errors += self._check_one(amps, out, where)
            if r is not None and max(out[0].ranks) > r:
                errors.append(f"{where}: rank {max(out[0].ranks)} exceeds {r} product terms")
        return errors

    def check_once(self) -> List[str]:
        """The 24 representatives of the 2x2x2x4 table give its 22 families."""
        errors, labels = [], set()
        for name, state, expected in classifier.table1_suite():
            amps = _amplitude_array(state)
            out = self.run(_doc(amps))
            errors += self._check_one(amps, out, f"table row {name}")
            if out[1] != expected:
                errors.append(f"table row {name}: {out[1]} != {expected}")
            labels.add(out[1])
        if len(labels) != 22:
            errors.append(f"reference table gave {len(labels)} distinct labels, not 22")
        return errors


class DickeScan:
    """One Dicke occupation scan and its CSV, as ``sloccrank scan`` emits it."""

    # (levels, n): the figure scans and the largest scan the program accepts
    SCANS = ((3, 9), (4, 8), (3, 10))
    # A run holds six or seven rounds of 0.5-3.5 s scans. The best of so few
    # rounds of so long an item is an extreme of the host's drift and spread
    # twice as wide over seeds as the mean did.
    ITEM_TIME = "mean"

    def __init__(self, seed: int):
        self.items = list(self.SCANS)
        random.Random(f"dicke_scan/{seed}").shuffle(self.items)
        self.warmup_item = (3, 9)

    @staticmethod
    def run(item):
        levels, n = item
        pset, rows = classifier.dicke_scan(levels, n)
        return len(pset), classifier.scan_to_csv(levels, pset, rows)

    @staticmethod
    def digest(output) -> str:
        return output[1]

    @staticmethod
    def check_once() -> List[str]:
        return []

    @staticmethod
    def expected_rank(counts: Sequence[int], l: int) -> int:
        """Row-occupation classes of the l-site block with a feasible complement."""
        return sum(
            1
            for occ in itertools.product(*[range(min(c, l) + 1) for c in counts])
            if sum(occ) == l
        )

    def check(self, outputs: Sequence) -> List[str]:
        errors = []
        for (levels, n), out in zip(self.items, outputs):
            if out is None:
                continue
            nsigmas, text = out
            where = f"scan levels={levels} n={n}"
            table = [row for row in csv.reader(io.StringIO(text)) if not row[0].startswith("#")]
            header, body = table[0], table[1:]
            rank_cols = [k for k, h in enumerate(header) if h.startswith("rank_sigma")]
            want_rows = math.comb(n + levels - 2, levels - 1)
            if len(body) != want_rows:
                errors.append(f"{where}: {len(body)} rows, expected {want_rows}")
            if len(rank_cols) != nsigmas:
                errors.append(f"{where}: {len(rank_cols)} rank columns for {nsigmas} sigmas")
            for row in body:
                counts = [int(x) for x in row[:levels]]
                ranks = {int(row[k]) for k in rank_cols}
                want = self.expected_rank(counts, n // 2)
                if sum(counts) != n or ranks != {want}:
                    errors.append(f"{where}: occupations {counts} ranks {sorted(ranks)}, expected {want}")
        return errors


class IdentityTrials:
    """``verify theorem1 --trials 1`` on seeded states of fixed dims.

    Each round runs every (dims, term count) stratum below. Trial seeds are
    drawn from the workload seed and kept when the seeded state has the
    stratum's number of terms. Drawing the dims at random, as C05 does, made
    one round cost up to twice another across workload seeds; fixed strata
    keep the mix the same for every seed.
    """

    # (dims, term counts of its trials), from the 1..8 terms that
    # random_sparse_state draws: 2, 3 and 4 sites. The 32 three-site trials
    # hold the median item of a round (16 items are cheaper, 16 dearer).
    # Every trial takes under 40 ms: trials of 5 sites take 0.1-3 s, and
    # items that long did not give the same best time twice on a host whose
    # speed drifts (see README.md).
    ALL_TERMS = tuple(range(1, 9))
    TEMPLATES: Tuple[Tuple[Dims, Tuple[int, ...]], ...] = (
        ((4, 4), ALL_TERMS),
        ((3, 4), ALL_TERMS),
        ((3, 2, 4), ALL_TERMS * 2),
        ((2, 4, 3), ALL_TERMS * 2),
        ((2, 2, 3, 2), ALL_TERMS),
        ((4, 2, 2, 2), ALL_TERMS),
    )
    # a run holds about fifty rounds of millisecond items
    ITEM_TIME = "best"

    def __init__(self, seed: int):
        rng = random.Random(f"identity_trials/{seed}")
        strata = []  # ((trial seed, dims), amplitude array)
        for dims, term_counts in self.TEMPLATES:
            for k in term_counts:
                trial_seed, amps = self._find_seed(dims, k, rng)
                strata.append(((trial_seed, dims), amps))
        rng.shuffle(strata)
        self.items = [item for item, _ in strata]
        self.amps = [amps for _, amps in strata]
        self.warmup_item = (self._find_seed((4, 4), 4, rng)[0], (4, 4))

    @staticmethod
    def _find_seed(dims: Dims, terms: int, rng: random.Random):
        """First drawn trial seed whose seeded state has ``terms`` terms.

        The state is the one ``run_theorem1_trials(1, seed, dims)`` checks:
        with the dims given, it is the first thing drawn from the trial seed.
        """
        while True:
            trial_seed = rng.getrandbits(32)
            state = slocc.random_sparse_state(dims, random.Random(trial_seed))
            if len(state.amplitudes) == terms:
                return trial_seed, _amplitude_array(state)

    @staticmethod
    def run(item):
        trial_seed, dims = item
        return slocc.run_theorem1_trials(1, seed=trial_seed, dims=dims)

    @staticmethod
    def digest(output) -> str:
        return repr(output)

    @staticmethod
    def check_once() -> List[str]:
        return []

    _KEY = re.compile(r"l=(\d+) sigma=(\S+)")

    def check(self, outputs: Sequence) -> List[str]:
        errors = []
        for (trial_seed, dims), amps, records in zip(self.items, self.amps, outputs):
            if records is None:
                continue
            where = f"trial seed={trial_seed} dims={dims}"
            (rec,) = records
            if rec["result"] != "pass" or rec["dims"] != list(dims):
                errors.append(f"{where}: record {rec['result']} dims {rec['dims']}")
            for key, (before, after) in rec["ranks"].items():
                l, sigma = self._KEY.fullmatch(key).groups()
                ts = [tuple(map(int, t)) for t in re.findall(r"\((\d+),(\d+)\)", sigma)]
                want = _numpy_rank(amps, dims, int(l), ts)
                if before != after or before != want:
                    errors.append(f"{where} {key}: ranks {before}->{after}, numpy {want}")
        return errors


WORKLOADS = {
    "classify_dense": ClassifyDense,
    "dicke_scan": DickeScan,
    "identity_trials": IdentityTrials,
}
