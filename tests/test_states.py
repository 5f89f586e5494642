"""State construction, indexing, permutation, generators and JSON I/O."""

import json
import re
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from sloccrank.scalars import ASCII_WHITESPACE, ComplexRational, ZERO, parse_rational
from sloccrank.states import (
    InvalidIndexError,
    QuditState,
    StateFormatError,
    ZeroStateError,
    _parse_amplitude,
    check_dims,
    flat_index,
    gen_dicke3,
    gen_dicke4,
    gen_ghz,
    gen_w,
    load_state,
    multiindex_of,
    permute_qudits,
    reorder_indices,
    state_from_json,
    state_to_json,
)

from oracles import (
    count_arrangements,
    lex_position,
    permute_by_digits,
    reorder_by_digits,
    symmetric_terms,
)

dims_strategy = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple)


@st.composite
def dims_and_index(draw):
    dims = draw(dims_strategy)
    digits = tuple(draw(st.integers(0, d - 1)) for d in dims)
    return dims, digits


# -- indexing ---------------------------------------------------------------

def test_flat_index_pinned_example():
    assert flat_index((1, 0, 0, 2), (2, 2, 2, 4)) == 18


def test_flat_index_matches_enumeration():
    for dims in [(2, 3), (2, 2, 2, 4), (3, 2, 4)]:
        for digits in product(*[range(d) for d in dims]):
            assert flat_index(digits, dims) == lex_position(digits, dims)


@given(dims_and_index())
def test_index_round_trip(case):
    dims, digits = case
    assert multiindex_of(flat_index(digits, dims), dims) == digits


@given(dims_strategy, st.integers(0, 500))
def test_flat_round_trip(dims, i):
    i = i % prod(dims)
    assert flat_index(multiindex_of(i, dims), dims) == i


def test_index_errors():
    with pytest.raises(InvalidIndexError):
        flat_index((2, 0), (2, 2))
    with pytest.raises(InvalidIndexError):
        flat_index((0, 0, 0), (2, 2))
    with pytest.raises(InvalidIndexError):
        multiindex_of(4, (2, 2))
    with pytest.raises(InvalidIndexError):
        multiindex_of(-1, (2, 2))


def test_check_dims_rejections():
    with pytest.raises(ValueError):
        check_dims([3])
    with pytest.raises(ValueError):
        check_dims([2, 1])


# -- QuditState -------------------------------------------------------------

def test_state_drops_zero_amplitudes_and_rejects_zero_state():
    s = QuditState((2, 2), {0: ComplexRational(1), 3: ComplexRational(0)})
    assert set(s.amplitudes) == {0}
    with pytest.raises(ZeroStateError):
        QuditState((2, 2), {0: ComplexRational(0)})
    with pytest.raises(InvalidIndexError):
        QuditState((2, 2), {4: ComplexRational(1)})


def test_state_rejects_mistyped_indices_and_amplitudes():
    one = ComplexRational(1)
    # a float or bool key used to be truncated, so {1.5, True} collapsed to {1}
    for key in (1.5, True, 2.0, "1"):
        with pytest.raises(InvalidIndexError):
            QuditState((2, 2), {key: one})
    for amp in (0.5, 1j, True, "1"):
        with pytest.raises(TypeError, match="index 3"):
            QuditState((2, 2), {0: one, 3: amp})
    # an int or Fraction is not converted: amplitudes are ComplexRationals
    for amp in (2, Fraction(1, 3)):
        with pytest.raises(TypeError, match="index 0"):
            QuditState((2, 2), {0: amp, 3: one})


def test_state_is_immutable():
    s = gen_ghz(2, 2)
    with pytest.raises(AttributeError):
        s.dims = (3, 3)


def test_state_amplitudes_are_read_only():
    s = gen_ghz(2, 2)
    with pytest.raises(TypeError):
        s.amplitudes[1] = ComplexRational(0)
    with pytest.raises(TypeError):
        del s.amplitudes[0]
    amps = {0: ComplexRational(1)}
    t = QuditState((2, 2), amps)
    amps[1] = ComplexRational(1)  # the caller's map is copied, not kept
    assert s == gen_ghz(2, 2) and hash(s) == hash(gen_ghz(2, 2))
    assert set(t.amplitudes) == {0}


# -- permutations -----------------------------------------------------------

def test_permute_moves_dims_and_digits():
    # |01> on dims (2,3) -> swap -> |10> on dims (3,2)
    s = QuditState((2, 3), {flat_index((0, 1), (2, 3)): ComplexRational(1)})
    p = permute_qudits(s, (2, 1))
    assert p.dims == (3, 2)
    assert p.amplitudes.get(flat_index((1, 0), p.dims), ZERO) == ComplexRational(1)


@given(dims_strategy, st.randoms(use_true_random=False))
def test_permute_then_inverse_is_identity(dims, rnd):
    n = len(dims)
    amps = {0: ComplexRational(1), prod(dims) - 1: ComplexRational(2, 1)}
    s = QuditState(dims, amps)
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    inverse = [perm.index(q) + 1 for q in range(1, n + 1)]
    t = permute_qudits(permute_qudits(s, perm), inverse)
    assert t == s


@given(dims_strategy, st.randoms(use_true_random=False))
def test_reorder_indices_matches_digit_route(dims, rnd):
    order = list(range(1, len(dims) + 1))
    rnd.shuffle(order)
    indices = rnd.sample(range(prod(dims)), min(20, prod(dims)))
    assert reorder_indices(indices, dims, order) == reorder_by_digits(
        indices, dims, order
    )


@given(dims_strategy, st.randoms(use_true_random=False))
def test_permute_matches_digit_route(dims, rnd):
    order = list(range(1, len(dims) + 1))
    rnd.shuffle(order)
    D = prod(dims)
    amps = {
        i: ComplexRational(rnd.randint(1, 3), rnd.randint(-2, 2), rnd.randint(1, 4))
        for i in rnd.sample(range(D), min(6, D))
    }
    s = QuditState(dims, amps)
    assert permute_qudits(s, order) == permute_by_digits(s, order)


def test_reorder_indices_beyond_int64():
    # 70 qubits and a qutrit: flat indices far above 2**63
    dims = (2,) * 70 + (3,)
    order = [71] + list(range(70, 0, -1))
    D = prod(dims)
    assert D > 2**64
    indices = [0, 1, D // 3, D - 2, D - 1]
    assert reorder_indices(indices, dims, order) == reorder_by_digits(
        indices, dims, order
    )


def test_permute_rejects_non_permutation():
    with pytest.raises(ValueError):
        permute_qudits(gen_ghz(3, 2), (1, 1, 2))


# -- generators -------------------------------------------------------------

def test_ghz_terms():
    s = gen_ghz(3, 4)
    assert s.dims == (4, 4, 4)
    assert sorted(s.amplitudes) == [flat_index((j,) * 3, s.dims) for j in range(4)]
    assert all(a == ComplexRational(1) for a in s.amplitudes.values())


@pytest.mark.parametrize("n,d", [(1, 2), (0, 3), (3, 1), (2, 0)])
def test_ghz_needs_two_sites_of_two_levels(n, d):
    with pytest.raises(ValueError, match="GHZ needs n >= 2 and d >= 2"):
        gen_ghz(n, d)


def test_w_terms():
    s = gen_w(4)
    kets = {mi for mi, _ in s.terms()}
    assert kets == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


@pytest.mark.parametrize("n,l1,l2", [(4, 1, 1), (5, 2, 1), (6, 2, 3), (3, 0, 0)])
def test_dicke3_term_count_is_multinomial(n, l1, l2):
    s = gen_dicke3(n, l1, l2)
    l0 = n - l1 - l2
    expected = factorial(n) // (factorial(l0) * factorial(l1) * factorial(l2))
    assert len(s.amplitudes) == expected
    assert len(s.amplitudes) == count_arrangements(n, (l1, l2))


def test_dicke3_terms_explicit():
    s = gen_dicke3(3, 1, 1)
    kets = {mi for mi, _ in s.terms()}
    assert kets == {
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    }


@pytest.mark.parametrize("n,counts", [(4, (1, 1, 1)), (5, (2, 1, 1))])
def test_dicke4_term_count(n, counts):
    s = gen_dicke4(n, *counts)
    assert len(s.amplitudes) == count_arrangements(n, counts)


@pytest.mark.parametrize("levels", [3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dicke_terms_match_enumeration(levels, n):
    gen = gen_dicke3 if levels == 3 else gen_dicke4
    for counts in product(range(n), repeat=levels - 1):
        if sum(counts) > n - 1:
            continue
        s = gen(n, *counts)
        assert set(s.amplitudes) == symmetric_terms(levels, n, counts), counts
        assert all(a == ComplexRational(1) for a in s.amplitudes.values())


def test_dicke_site_permutation_invariance():
    s = gen_dicke3(5, 2, 1)
    assert permute_qudits(s, (3, 1, 5, 2, 4)) == s


def test_dicke_generators_are_fully_symmetric():
    # the swap (1, 2) and the n-cycle generate S_n
    for levels, gen in ((3, gen_dicke3), (4, gen_dicke4)):
        for n in range(2, 7):
            swap = (2, 1) + tuple(range(3, n + 1))
            cycle = tuple(range(2, n + 1)) + (1,)
            for counts in product(range(n), repeat=levels - 1):
                if sum(counts) > n - 1:
                    continue
                s = gen(n, *counts)
                for g in (swap, cycle):
                    assert permute_by_digits(s, g) == s, (n, counts, g)
    # the check can fail: |010> is fixed by the swap (1, 3) only
    ket = QuditState((3, 3, 3), {flat_index((0, 1, 0), (3, 3, 3)): ComplexRational(1)})
    assert permute_by_digits(ket, (2, 1, 3)) != ket
    assert permute_by_digits(ket, (2, 3, 1)) != ket


def test_dicke_occupation_bounds():
    with pytest.raises(ValueError):
        gen_dicke3(3, 2, 1)  # l1+l2 > n-1
    with pytest.raises(ValueError):
        gen_dicke4(4, 2, 1, 1)
    with pytest.raises(ValueError):
        gen_dicke3(3, -1, 0)


def test_dicke3_level_relabel_symmetry():
    # exchanging levels 1 and 2 in every ket maps D(l1,l2) onto D(l2,l1)
    a = gen_dicke3(4, 1, 2)
    b = gen_dicke3(4, 2, 1)
    relabel = {0: 0, 1: 2, 2: 1}
    mapped = {
        flat_index(tuple(relabel[x] for x in mi), a.dims): amp
        for mi, amp in a.terms()
    }
    assert QuditState(a.dims, mapped) == b


# -- JSON I/O ---------------------------------------------------------------

def test_json_round_trip(tmp_path):
    s = QuditState(
        (2, 3),
        {
            0: ComplexRational(1, -2, 3),
            5: ComplexRational(0, 1),
        },
    )
    assert state_from_json(state_to_json(s)) == s
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_json(s), indent=1))
    assert load_state(path) == s


def test_json_schema_rejections():
    base = {
        "dims": [2, 2],
        "amplitudes": [{"index": [0, 0], "re": "1", "im": "0"}],
    }
    assert state_from_json(base).amplitudes == {0: ComplexRational(1)}

    bad = dict(base, extra=1)
    with pytest.raises(StateFormatError, match="unknown fields"):
        state_from_json(bad)

    bad = dict(base, amplitudes=base["amplitudes"] * 2)
    with pytest.raises(StateFormatError, match="duplicate"):
        state_from_json(bad)

    bad = dict(base, amplitudes=[{"index": [0, 2], "re": "1", "im": "0"}])
    with pytest.raises(StateFormatError, match="out of range"):
        state_from_json(bad)

    bad = dict(base, amplitudes=[{"index": [0, 0], "re": "0.5", "im": "0"}])
    with pytest.raises(StateFormatError, match="malformed rational"):
        state_from_json(bad)

    bad = dict(base, amplitudes=[{"index": [0, 0], "re": "1", "im": "0", "x": 1}])
    with pytest.raises(StateFormatError, match="unknown fields"):
        state_from_json(bad)

    with pytest.raises(ZeroStateError):
        state_from_json(
            dict(base, amplitudes=[{"index": [0, 0], "re": "0", "im": "0"}])
        )

    with pytest.raises(StateFormatError, match="bad dims"):
        state_from_json({"dims": [2], "amplitudes": []})

    for index in ([0.0, 1], [True, False]):
        bad = dict(base, amplitudes=[{"index": index, "re": "1", "im": "0"}])
        with pytest.raises(StateFormatError, match="array of integers"):
            state_from_json(bad)

    for dims in ([2.5, 2], [True, 2]):
        with pytest.raises(StateFormatError, match="bad dims"):
            state_from_json(dict(base, dims=dims))

    with pytest.raises(StateFormatError):
        state_from_json([1, 2])


@pytest.mark.parametrize("part", [
    "1_000", "1_0/3", "١٢", "٣/4", "３", "1/0", "+-1",
    # surrounding space is ASCII only: not U+3000, U+00A0, U+2002, \v or \f
    "\u30005", "\xa0-1/2", "1/2\u2002", "\u3000", "\x0b5", "5\x0c",
])
def test_json_rejects_parts_outside_the_ascii_grammar(part):
    for key in ("re", "im"):
        doc = {"dims": [2, 2], "amplitudes": [{"index": [0, 0], key: part}]}
        with pytest.raises(StateFormatError, match="malformed rational"):
            state_from_json(doc)


# -- fuzz: every mis-typed document is a StateFormatError -------------------

_PART = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # the documented p and p/q
_NON_LIST = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NON_INT = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_BAD_PART = st.one_of(
    st.none(), st.booleans(), st.floats(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.sampled_from(["1/0", "1_0", "1_0/3", "١٢", "３", "1.5", "1e3", "0x1", "1/", "1+2i"]),
    st.text(max_size=6).filter(lambda t: not _PART.fullmatch(t.strip(ASCII_WHITESPACE))),
)
_PARTS = st.one_of(st.sampled_from(["0", "1", "-2", "+3", "1/3", " 4 "]), st.integers(-3, 3))


@st.composite
def _documents(draw):
    """A well-formed state document ("re" and "im" each optional)."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    digits = st.tuples(*(st.integers(0, d - 1) for d in dims))
    amplitudes = []
    for index in draw(st.lists(digits, min_size=1, max_size=3, unique=True)):
        entry = {"index": list(index)}
        for key in draw(st.sets(st.sampled_from(["re", "im"]))):
            entry[key] = draw(_PARTS)
        amplitudes.append(entry)
    return {"dims": dims, "amplitudes": amplitudes}


def _spoiled(items, bad):
    """items with one element replaced by, or one more element, from bad."""
    return st.tuples(st.integers(0, len(items)), st.integers(0, 1), bad).map(
        lambda t: items[:t[0]] + [t[2]] + items[t[0] + t[1]:]
    )


@st.composite
def _mistyped_documents(draw):
    """A well-formed document with one defect."""
    doc = draw(_documents())
    entry = draw(st.sampled_from(doc["amplitudes"]))
    kind = draw(st.sampled_from(
        ["dims", "amplitudes", "index", "part", "unknown", "missing", "duplicate"]
    ))
    if kind == "dims":
        doc["dims"] = draw(st.one_of(
            _NON_LIST,
            st.just(doc["dims"][:1]),
            _spoiled(doc["dims"], st.one_of(_NON_INT, st.integers(max_value=1))),
        ))
    elif kind == "amplitudes":
        doc["amplitudes"] = draw(st.one_of(_NON_LIST, _spoiled(doc["amplitudes"], _NON_INT)))
    elif kind == "index":
        index = entry["index"]
        k = draw(st.integers(0, len(index) - 1))
        out_of_range = st.one_of(
            st.integers(max_value=-1), st.integers(doc["dims"][k], doc["dims"][k] + 5)
        )
        entry["index"] = draw(st.one_of(
            _NON_LIST,
            st.just(index[1:]),
            st.just(index + [0]),
            st.one_of(_NON_INT, out_of_range).map(lambda x: index[:k] + [x] + index[k + 1:]),
        ))
    elif kind == "part":
        entry[draw(st.sampled_from(["re", "im"]))] = draw(_BAD_PART)
    elif kind == "unknown":
        target, known = draw(st.sampled_from(
            [(doc, {"dims", "amplitudes"}), (entry, {"index", "re", "im"})]
        ))
        target[draw(st.text(max_size=5).filter(lambda key: key not in known))] = 0
    elif kind == "missing":
        target, key = draw(st.sampled_from(
            [(doc, "dims"), (doc, "amplitudes"), (entry, "index")]
        ))
        del target[key]
    else:
        doc["amplitudes"].append(dict(entry))
    return doc


@given(_documents())
@settings(max_examples=100, deadline=None)
def test_well_formed_documents_parse_or_are_the_zero_state(doc):
    try:
        state = state_from_json(doc)
    except ZeroStateError:
        state = None
    all_zero = all(
        e.get(k, "0") in ("0", 0) for e in doc["amplitudes"] for k in ("re", "im")
    )
    assert (state is None) == all_zero


@given(_mistyped_documents())
@settings(max_examples=400, deadline=None)
def test_mistyped_documents_raise_state_format_error(doc):
    with pytest.raises(StateFormatError):
        state_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize(
    "text",
    ["1_000", "+3", " 3 ", "\t-2\r\n", "-0", "0x1", "3.0", "1e3", "0b1", "00", "", "-", "١٢",
     "３", "\u30003", "3\xa0", "\x0b3", "3\x1f"],
)
def test_integer_literal_parse_agrees_with_parse_rational(text):
    # state_from_json tries int() on plain ASCII literals before
    # parse_rational; both routes must agree
    def outcome(parse):
        try:
            return parse(text.strip(ASCII_WHITESPACE))
        except ValueError:
            return "rejected"

    pair = outcome(parse_rational)
    value = pair if pair == "rejected" else ComplexRational(pair[0], pair[1], pair[1])
    assert outcome(lambda t: _parse_amplitude({"re": t, "im": "1"})) == value
    doc = {"dims": [2, 2], "amplitudes": [{"index": [0, 0], "re": text, "im": "1"}]}
    if value == "rejected":
        with pytest.raises(StateFormatError, match="malformed rational"):
            state_from_json(doc)
    else:
        assert state_from_json(doc).amplitudes == {0: value}


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StateFormatError, match="invalid JSON"):
        load_state(path)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"dims": [2, 2], "dims": [3, 3], "amplitudes": [{"index": [0, 0]}]}', "dims"),
        ('{"dims": [2, 2], "amplitudes": [{"index": [1, 1], "re": "1", "re": "7"}]}', "re"),
        ('{"dims": [2, 2], "amplitudes": [{"index": [0, 0], "index": [1, 1], "re": 1}]}',
         "index"),
    ],
    ids=["dims", "re", "index"],
)
def test_load_rejects_a_repeated_key(tmp_path, text, key):
    # json keeps the last of two equal keys; a state file may not hold both
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(StateFormatError, match=f"repeated key '{key}'"):
        load_state(path)


def test_json_is_sorted_and_stable():
    s = gen_w(3)
    doc1 = json.dumps(state_to_json(s))
    doc2 = json.dumps(state_to_json(s))
    assert doc1 == doc2
    indices = [e["index"] for e in state_to_json(s)["amplitudes"]]
    assert indices == sorted(indices)
