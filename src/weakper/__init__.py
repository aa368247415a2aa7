"""Weakly-periodic decompositions of companion matrices over finite fields.

A matrix is weakly periodic when it splits as P + N with P potent and N
square-zero.  Potent here means a squarefree minimal polynomial, which
gives P^k = P for some k >= 2 but is stricter than that: the swap matrix
over GF(2) has P^3 = P and is not potent in this sense.  This package
constructs such splittings for companion matrices by exact arithmetic,
brute-forces small cases for cross-checking, and verifies the supporting
identities (trace sets, root-of-unity sums, certificate lemmas) by
enumeration.
"""

from .companion import (
    CompanionForm,
    Witness,
    companion_of,
    enumerate_companions,
    potent_companion_with_trace,
    potent_trace_set,
    trace_matched_decomposition,
)
from .errors import (
    InputError,
    LimitError,
    TraceNotRealizable,
    WeakperError,
)
from .gf import (
    FieldSpec,
    build_field,
    embed,
    parse_field,
    roots_of_unity,
    subfield_lattice,
)
from .mat import (
    Mat,
    char_poly,
    cycle_permutation_matrix,
    det,
    is_potent,
    is_potent_iterative,
    is_square_zero,
    min_poly,
    potency_exponent,
)
from .poly import Poly, factor, gcd, is_squarefree, parse_poly, pow_mod, roots_in_extensions
from .rosets import (
    ContainmentReport,
    SRWitness,
    WeightPattern,
    containment_report,
    divisor_count,
    gcd_divisibility,
    pattern_spectra,
    prime_shift_certificate,
    unity_sum_set,
    weight_patterns,
)
from .search import (
    CompanionRecord,
    ConjectureScan,
    TOOL_VERSION,
    VerifyReport,
    brute_commuting_decompose,
    brute_decompose,
    conjecture_scan,
    count_decompositions,
    fixed_point_certificate,
    load_report,
    reverify_report,
    root_of_unity_certificate,
    verify_field,
)

__version__ = TOOL_VERSION

__all__ = [
    "CompanionForm",
    "CompanionRecord",
    "ConjectureScan",
    "ContainmentReport",
    "FieldSpec",
    "InputError",
    "LimitError",
    "Mat",
    "Poly",
    "SRWitness",
    "TOOL_VERSION",
    "TraceNotRealizable",
    "VerifyReport",
    "WeakperError",
    "WeightPattern",
    "Witness",
    "brute_commuting_decompose",
    "brute_decompose",
    "count_decompositions",
    "build_field",
    "char_poly",
    "companion_of",
    "conjecture_scan",
    "containment_report",
    "cycle_permutation_matrix",
    "det",
    "divisor_count",
    "embed",
    "enumerate_companions",
    "factor",
    "fixed_point_certificate",
    "gcd",
    "gcd_divisibility",
    "is_potent",
    "is_potent_iterative",
    "is_square_zero",
    "is_squarefree",
    "load_report",
    "min_poly",
    "parse_field",
    "parse_poly",
    "pattern_spectra",
    "potency_exponent",
    "potent_companion_with_trace",
    "potent_trace_set",
    "pow_mod",
    "prime_shift_certificate",
    "reverify_report",
    "root_of_unity_certificate",
    "roots_in_extensions",
    "roots_of_unity",
    "subfield_lattice",
    "trace_matched_decomposition",
    "unity_sum_set",
    "verify_field",
    "weight_patterns",
]
