"""Twisted Alexander polynomials of knots for regular representations of
finite groups, with exact verification of the congruence formulas relating
them to the classical Alexander polynomial."""

__version__ = "0.1.0"

from .algebra import (
    CoefficientDomain,
    INTEGERS,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    determinant,
    equal_up_to_unit,
    prime_field,
    product_over_roots_of_unity,
    rational_normalize,
    reduce_mod,
)
from .groups import (
    FiniteGroup,
    MatrixRep,
    regular_representation,
    trivial_group,
)
from .homsearch import Homomorphism, find_meridional_surjections
from .knots import (
    KnotPresentation,
    PDCode,
    bundled_table,
    fox_derivative,
    load_knot_table,
    simplify_presentation,
    wirtinger_from_pd,
)
from .theorems import (
    TheoremCase,
    make_case,
    rhs,
    sweep_nonvanishing,
    verify_congruence,
)
from .twisted import (
    TwistedAlexanderResult,
    alexander_polynomial,
    wada_invariant,
)

__all__ = [
    "CoefficientDomain",
    "FiniteGroup",
    "Homomorphism",
    "INTEGERS",
    "KnotPresentation",
    "LaurentPolynomial",
    "MatrixRep",
    "PDCode",
    "PolyMatrix",
    "RationalFunction",
    "TheoremCase",
    "TwistedAlexanderResult",
    "alexander_polynomial",
    "bundled_table",
    "determinant",
    "equal_up_to_unit",
    "find_meridional_surjections",
    "fox_derivative",
    "load_knot_table",
    "make_case",
    "prime_field",
    "product_over_roots_of_unity",
    "rational_normalize",
    "reduce_mod",
    "regular_representation",
    "rhs",
    "simplify_presentation",
    "sweep_nonvanishing",
    "trivial_group",
    "verify_congruence",
    "wada_invariant",
    "wirtinger_from_pd",
    "__version__",
]
