"""n-qudit pure states with exact sparse amplitudes.

States live on a dimension vector (d_1, ..., d_n), n >= 2, d_k >= 2, and are
stored as a map from flat basis index to a nonzero ComplexRational amplitude.
Generators are unnormalized (amplitude 1 per term): every quantity computed
downstream is a matrix rank, which is invariant under global scaling, and
integer amplitudes keep the arithmetic exact.

Site labels are 1-based throughout; flat indices are 0-based.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import prod
from types import MappingProxyType
from typing import Collection, Dict, Iterable, List, Mapping, Sequence, Tuple

from .scalars import ASCII_WHITESPACE, ONE, ComplexRational, format_rational, parse_rational

Dims = Tuple[int, ...]
MultiIndex = Tuple[int, ...]


class InvalidIndexError(ValueError):
    """Multi-index digit or flat index out of range for the dims."""


class ZeroStateError(ValueError):
    """The all-zero amplitude vector was produced or requested."""


class StateFormatError(ValueError):
    """State JSON violates the schema."""


def check_dims(dims: Sequence[int]) -> Dims:
    dims = tuple(dims)
    if any(type(d) is not int for d in dims):  # no float, bool or str
        raise TypeError(f"dims must be ints, got {dims}")
    if len(dims) < 2:
        raise ValueError(f"need at least 2 sites, got dims={dims}")
    if any(d < 2 for d in dims):
        raise ValueError(f"every local dimension must be >= 2, got dims={dims}")
    return dims


def flat_index(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Lexicographic (big-endian mixed radix) flat index of a multi-index."""
    i = 0
    for s, d in zip(digits, dims):
        if type(s) is not int:  # no float, bool or str
            raise TypeError(f"multi-index {digits!r} is not an array of integers")
        if not 0 <= s < d:
            raise InvalidIndexError(f"digit {s} out of range for dimension {d}")
        i = i * d + s
    # counted after the digits are read, so a str or float is a TypeError
    if len(digits) != len(dims):
        raise InvalidIndexError(
            f"multi-index length {len(digits)} != number of sites {len(dims)}"
        )
    return i


def _check_flat_index(i: int, D: int) -> None:
    if type(i) is not int or not 0 <= i < D:  # no float, bool or str
        raise InvalidIndexError(f"flat index {i!r} is not an int in [0, {D})")


def multiindex_of(i: int, dims: Sequence[int]) -> MultiIndex:
    """Inverse of flat_index."""
    _check_flat_index(i, prod(dims))
    digits = []
    for d in reversed(dims):
        digits.append(i % d)
        i //= d
    return tuple(reversed(digits))


class QuditState:
    """Immutable sparse n-qudit pure state (unnormalized). classes: the distinct
    amplitudes by first appearance; codes[t]: the position in classes of the t-th
    value of amplitudes, so matricizations compare ints and hash no amplitude."""

    __slots__ = ("dims", "amplitudes", "classes", "codes")

    def __init__(self, dims: Sequence[int], amplitudes: Mapping[int, ComplexRational]):
        dims = check_dims(dims)
        D = prod(dims)
        amps: Dict[int, ComplexRational] = {}
        code_of: Dict[ComplexRational, int] = {}
        codes = []
        for i, a in amplitudes.items():
            _check_flat_index(i, D)
            if type(a) is not ComplexRational:
                raise TypeError(f"amplitude at index {i} is a {type(a).__name__}, "
                                "not a ComplexRational")
            if not a.is_zero():
                amps[i] = a
                codes.append(code_of.setdefault(a, len(code_of)))
        if not amps:
            raise ZeroStateError("state has no nonzero amplitude")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", MappingProxyType(amps))
        object.__setattr__(self, "classes", tuple(code_of))
        object.__setattr__(self, "codes", tuple(codes))

    def __setattr__(self, name, value):
        raise AttributeError("QuditState is immutable")

    @property
    def n(self) -> int:
        return len(self.dims)

    def terms(self) -> Iterable[Tuple[MultiIndex, ComplexRational]]:
        for i in sorted(self.amplitudes):
            yield multiindex_of(i, self.dims), self.amplitudes[i]

    def __eq__(self, other):
        if not isinstance(other, QuditState):
            return NotImplemented
        return self.dims == other.dims and self.amplitudes == other.amplitudes

    def __hash__(self):
        return hash((self.dims, frozenset(self.amplitudes.items())))

    def __repr__(self):
        return f"QuditState(dims={self.dims}, terms={len(self.amplitudes)})"


def reorder_indices(
    indices: Collection[int], dims: Sequence[int], order: Sequence[int]
) -> List[int]:
    """Flat indices under dims -> flat indices after a site reorder.

    New position i holds the original site order[i] (1-based). Each site's
    digit moves from its stride under dims to its stride under the permuted
    dims; sites that stay adjacent and in order move as one mixed-radix
    digit. Pure Python ints, so any total dimension works.
    """
    n = len(dims)
    weight = [0] * n  # stride of each (0-based) site after the reorder
    w = 1
    for q in reversed(order):
        weight[q - 1] = w
        w *= dims[q - 1]
    # (old stride, digit size, new stride), last site first
    radix: List[Tuple[int, int, int]] = []
    old = 1
    for q in range(n - 1, -1, -1):
        if radix and weight[q] == weight[q + 1] * dims[q + 1]:
            o, size, stride = radix[-1]
            radix[-1] = (o, size * dims[q], stride)
        else:
            radix.append((old, dims[q], weight[q]))
        old *= dims[q]
    out = [0] * len(indices)
    for o, size, stride in radix:
        out = [j + i // o % size * stride for j, i in zip(out, indices)]
    return out


def permute_qudits(state: QuditState, perm: Sequence[int]) -> QuditState:
    """Reorder sites: new position i holds the original site perm[i] (1-based).

    Output dims are the permuted dims; the amplitude of a basis state follows
    its digits. Applying the inverse permutation restores the input exactly.
    """
    n = state.n
    perm = tuple(perm)
    if any(type(p) is not int for p in perm):  # no float, bool or str
        raise TypeError(f"perm {perm} must hold int sites")
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm {perm} is not a permutation of 1..{n}")
    amps = state.amplitudes
    new_dims = tuple(state.dims[p - 1] for p in perm)
    moved = reorder_indices(amps, state.dims, perm)
    return QuditState(new_dims, dict(zip(moved, amps.values())))


# ---------------------------------------------------------------------------
# canonical state generators
# ---------------------------------------------------------------------------

def gen_ghz(n: int, d: int) -> QuditState:
    """GHZ state on n qudits of dimension d: sum_j |j...j> (unnormalized)."""
    if type(n) is not int or type(d) is not int:  # no float, bool or str
        raise TypeError(f"GHZ needs int n and d, got n={n!r}, d={d!r}")
    if n < 2 or d < 2:
        raise ValueError(f"GHZ needs n >= 2 and d >= 2, got n={n}, d={d}")
    dims = (d,) * n
    amps = {flat_index((j,) * n, dims): ONE for j in range(d)}
    return QuditState(dims, amps)


def gen_w(n: int) -> QuditState:
    """n-qubit W state: sum over single excitations (unnormalized)."""
    return _symmetric_state(2, n, (1,))


def _symmetric_state(levels: int, n: int, counts: Sequence[int]) -> QuditState:
    """Equal superposition over all arrangements of the given level counts:
    counts[k] sites at level k + 1, the other n - sum(counts) >= 1 at 0."""
    if any(type(c) is not int for c in (n, *counts)):  # no float, bool or str
        raise TypeError(f"n and occupations must be ints, got n={n!r}, {counts!r}")
    if min(counts) < 0 or sum(counts) > n - 1:
        raise ValueError(
            f"need occupations >= 0 summing to at most n-1, got n={n}, {counts}"
        )
    dims = (levels,) * n
    weights = [levels ** (n - 1 - p) for p in range(n)]
    amps: Dict[int, ComplexRational] = {}
    # place level 1, then 2, ... into the free positions; the remainder is 0s
    def place(level: int, free: Tuple[int, ...], index: int) -> None:
        c = counts[level - 1]
        if level == len(counts):
            for ws in combinations([weights[p] for p in free], c):
                amps[index + level * sum(ws)] = ONE
            return
        for positions in combinations(free, c):
            rest = tuple(p for p in free if p not in positions)
            place(level + 1, rest, index + level * sum(weights[p] for p in positions))

    place(1, tuple(range(n)), 0)
    return QuditState(dims, amps)


def gen_dicke3(n: int, l1: int, l2: int) -> QuditState:
    """Three-level Dicke state with l1 ones, l2 twos, n-l1-l2 zeros."""
    return _symmetric_state(3, n, (l1, l2))


def gen_dicke4(n: int, l1: int, l2: int, l3: int) -> QuditState:
    """Four-level Dicke state with occupations (l1, l2, l3) and zeros filling."""
    return _symmetric_state(4, n, (l1, l2, l3))


# ---------------------------------------------------------------------------
# state JSON format
# ---------------------------------------------------------------------------

def state_to_json(state: QuditState) -> dict:
    return {
        "dims": list(state.dims),
        "amplitudes": [
            {
                "index": list(mi),
                "re": format_rational(a.re),
                "im": format_rational(a.im),
            }
            for mi, a in state.terms()
        ],
    }


def _parse_part(value):
    """parse_rational, with int() first for a plain integer literal; int()
    also takes "_", non-ASCII digits and other spaces, which the grammar does not."""
    text = str(value).strip(ASCII_WHITESPACE)
    if text.isascii() and text.isprintable() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    return parse_rational(text)


_ENTRY_FIELDS = frozenset({"index", "re", "im"})


def state_from_json(obj) -> QuditState:
    """Strict parser for the state JSON schema.

    Unknown fields, non-integer dims or digits, duplicate indices, malformed
    rationals, out-of-range digits and the zero state are all rejected with
    distinct messages.
    """
    if not isinstance(obj, dict):
        raise StateFormatError("state document must be a JSON object")
    unknown = set(obj) - {"dims", "amplitudes"}
    if unknown:
        raise StateFormatError(f"unknown fields: {sorted(unknown)}")
    if "dims" not in obj or "amplitudes" not in obj:
        raise StateFormatError("state document needs 'dims' and 'amplitudes'")
    try:
        dims = check_dims(obj["dims"])
    except (TypeError, ValueError) as exc:
        raise StateFormatError(f"bad dims: {exc}") from exc
    if not isinstance(obj["amplitudes"], list):
        raise StateFormatError("'amplitudes' must be an array")
    amps: Dict[int, ComplexRational] = {}
    for pos, entry in enumerate(obj["amplitudes"]):
        if not isinstance(entry, dict):
            raise StateFormatError(f"amplitude #{pos} must be an object")
        if not _ENTRY_FIELDS.issuperset(entry):
            raise StateFormatError(
                f"amplitude #{pos}: unknown fields {sorted(set(entry) - _ENTRY_FIELDS)}"
            )
        if "index" not in entry:
            raise StateFormatError(f"amplitude #{pos}: missing 'index'")
        try:
            i = flat_index(entry["index"], dims)
        except (InvalidIndexError, TypeError) as exc:
            raise StateFormatError(f"amplitude #{pos}: {exc}") from exc
        if i in amps:
            raise StateFormatError(
                f"amplitude #{pos}: duplicate index {list(entry['index'])}"
            )
        try:
            re = _parse_part(entry.get("re", "0"))
            im = _parse_part(entry.get("im", "0"))
        except ValueError as exc:
            raise StateFormatError(f"amplitude #{pos}: {exc}") from exc
        amps[i] = ComplexRational(re, im)
    # QuditState drops zero amplitudes and rejects the zero state
    return QuditState(dims, amps)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key that appears twice raises StateFormatError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise StateFormatError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_state(path) -> QuditState:
    """The state in a JSON file; a format or zero-state error names the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        except StateFormatError as exc:  # a repeated key
            raise StateFormatError(f"{path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # bad syntax, bytes that are not UTF-8, an integer longer than
            # int()'s digit limit, or arrays nested deeper than the decoder goes
            raise StateFormatError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return state_from_json(obj)
    except (StateFormatError, ZeroStateError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
