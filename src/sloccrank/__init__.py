"""Exact SLOCC classification of n-qudit pure states via coefficient-matrix ranks."""

from .scalars import ComplexRational, format_scalar
from .states import (
    QuditState,
    InvalidIndexError,
    StateFormatError,
    ZeroStateError,
    flat_index,
    multiindex_of,
    permute_qudits,
    gen_ghz,
    gen_w,
    gen_dicke3,
    gen_dicke4,
    load_state,
    state_from_json,
    state_to_json,
)
from .linalg import ExactMatrix, RankResult, rank_exact, rank_numeric
from .matricizer import (
    CoefficientMatrix,
    PermutationSet,
    QuditPermutation,
    coefficient_matrix,
    optimal_split,
    permutation_set,
    reduced_density,
    split_capacity,
)
from .slocc import (
    LocalOperatorSet,
    ZeroResultError,
    apply_local,
    check_monotone_nonincrease,
    random_ilo,
    random_local_possibly_singular,
    verify_theorem1,
)
from .classifier import (
    RankSignature,
    classify,
    dicke_scan,
    family_label,
    signature,
    table1_suite,
)

__version__ = "0.1.0"
