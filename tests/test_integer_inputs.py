"""One integer rule: an integer input is an int, checked where it is read.

A bool, float or str that stands where the library expects an int raises,
even when it equals an int (2.0, True, "2"): nothing is truncated, rounded
or wrapped, so the system classified is the one asked for. Dims, digits,
sites and splits raise TypeError; a flat index raises InvalidIndexError, as
an out-of-range one does; a local-operator site raises IndexError.
"""

import pytest

from sloccrank.classifier import dicke_scan
from sloccrank.matricizer import (
    QuditPermutation,
    coefficient_matrix,
    optimal_split,
    reduced_density,
    split_capacity,
)
from sloccrank.scalars import ONE
from sloccrank.states import (
    InvalidIndexError,
    QuditState,
    check_dims,
    flat_index,
    gen_dicke3,
    gen_dicke4,
    gen_ghz,
    gen_w,
    multiindex_of,
    permute_qudits,
)

from oracles import identity_ops

OPS = identity_ops((2, 3))

# (entry point, call with x where an int belongs, documented exception)
ENTRY_POINTS = [
    ("check_dims", lambda x: check_dims((x, 2)), TypeError),
    ("QuditState dims", lambda x: QuditState((x, 2), {0: ONE}), TypeError),
    ("flat_index", lambda x: flat_index((x, 0), (3, 3)), TypeError),
    ("multiindex_of", lambda x: multiindex_of(x, (3, 3)), InvalidIndexError),
    ("permute_qudits", lambda x: permute_qudits(gen_w(3), (x, 1, 3)), TypeError),
    ("QuditPermutation", lambda x: QuditPermutation(((x, 3),)), TypeError),
    ("split_capacity dims", lambda x: split_capacity((x, 2, 2), 1), TypeError),
    ("split_capacity l", lambda x: split_capacity((2, 2, 2), x), TypeError),
    ("optimal_split dims", lambda x: optimal_split((x, 2, 2)), TypeError),
    ("coefficient_matrix l", lambda x: coefficient_matrix(gen_ghz(3, 3), x), TypeError),
    ("reduced_density", lambda x: reduced_density(gen_ghz(3, 3), [x]), TypeError),
    ("ops[site]", lambda x: OPS[x], IndexError),
    ("gen_ghz n", lambda x: gen_ghz(x, 2), TypeError),
    ("gen_ghz d", lambda x: gen_ghz(3, x), TypeError),
    ("gen_w", lambda x: gen_w(x), TypeError),
    ("gen_dicke3 n", lambda x: gen_dicke3(x, 1, 0), TypeError),
    ("gen_dicke3 l1", lambda x: gen_dicke3(4, x, 0), TypeError),
    ("gen_dicke4 l1", lambda x: gen_dicke4(5, x, 0, 0), TypeError),
    ("dicke_scan levels", lambda x: dicke_scan(x, 2), TypeError),
    ("dicke_scan n", lambda x: dicke_scan(3, x), TypeError),
]
# the int an entry point accepts where the calls above put x, when 2 is out
# of its range
ACCEPTED = {"dicke_scan levels": 3}


@pytest.mark.parametrize("value", [2.0, 2.5, True, "2"], ids=repr)
@pytest.mark.parametrize(
    "call, error", [e[1:] for e in ENTRY_POINTS], ids=[e[0] for e in ENTRY_POINTS]
)
def test_a_non_int_raises_instead_of_being_read_as_one(call, error, value):
    with pytest.raises(error):
        call(value)


def test_the_same_calls_accept_the_int():
    # the failures above are about the type, not the value 2
    for name, call, _ in ENTRY_POINTS:
        call(ACCEPTED.get(name, 2))


@pytest.mark.parametrize("site", [0, -1, 3])
def test_local_operator_sites_do_not_wrap(site):
    ops = identity_ops((2, 3))
    with pytest.raises(IndexError, match=r"not an int in \[1, 2\]"):
        ops[site]
    assert (ops[1].rows, ops[2].rows) == (2, 3)
