"""Value semantics of the package's immutable value classes: field order,
defaults, equality and hashing over the fields, immutability, and the
checks their constructors make."""

import copy
import pickle

import pytest

from talex import theorems
from talex.algebra import (
    INTEGERS,
    CoefficientDomain,
    DomainMismatchError,
    FrozenValue,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    prime_field,
)
from talex.groups import ConjugacyClass, MatrixRep, cyclic
from talex.homsearch import Homomorphism
from talex.knots import (
    KnotPresentation,
    PDCode,
    PDValidationError,
    alexander_minor,
)
from talex.theorems import NonvanishingRecord, TheoremCase, VerdictRecord
from talex.twisted import TwistedAlexanderResult

C2 = cyclic(2)
TREFOIL_PD = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


def f():
    return LaurentPolynomial.make(INTEGERS, -1, [1, -2, 1])


def r():
    return RationalFunction(f(), LaurentPolynomial.make(INTEGERS, 0, [1, 1]))


# each class with its fields in order and a builder of one instance; two
# calls of a builder give equal values that are not the same objects
VALUES = {
    CoefficientDomain: (("p",), lambda: CoefficientDomain(5)),
    LaurentPolynomial: (("domain", "min_exp", "coeffs"), f),
    RationalFunction: (("numerator", "denominator"), r),
    PolyMatrix: (("domain", "rows", "cols", "cells"),
                 lambda: PolyMatrix(INTEGERS, 1, 2, ((-1, (1, -2, 1)),
                                                     (0, (1, -2, 1))))),
    ConjugacyClass: (("representative", "members", "generates"),
                     lambda: ConjugacyClass(1, frozenset({1}), True)),
    MatrixRep: (("group", "perms", "exponents", "cyclotomic", "root"),
                lambda: MatrixRep(C2, ((0, 1), (1, 0)))),
    Homomorphism: (("group", "images"), lambda: Homomorphism(C2, (1, 1))),
    PDCode: (("crossings",), lambda: PDCode(TREFOIL_PD)),
    KnotPresentation: (("generators", "relators"),
                       lambda: KnotPresentation(2, ((1, 2, 1, -2, -1, -2),))),
    TheoremCase: (("name", "parameters", "modulus"),
                  lambda: TheoremCase("dihedral", (3, 1), 3)),
    VerdictRecord: (("knot", "group", "parameters", "surjections_found",
                     "verdicts", "lhs", "rhs", "modulus", "elapsed_ms"),
                    lambda: VerdictRecord("3_1", "D3", (3, 1), 1, (True,),
                                          (r(),), r(), 3, 1.5)),
    NonvanishingRecord: (("knot", "group", "surjections_found",
                          "classes_computed", "all_nonzero", "modulus",
                          "elapsed_ms"),
                         lambda: NonvanishingRecord("3_1", "D3", 1, 1, True,
                                                    3, 1.5)),
    TwistedAlexanderResult: (("numerator", "denominator",
                              "dropped_generator", "normalized"),
                             lambda: TwistedAlexanderResult(f(), f(), 2,
                                                            r())),
    theorems._Case: (("parameters", "group", "modulus"),
                     lambda: theorems._Case({"n": None}, cyclic, None)),
}
CLASSES = list(VALUES)
HASHABLE = [c for c in CLASSES if c is not theorems._Case]  # a dict field


def twin(value):
    """An instance of another class with the same field names and values."""
    cls = type("Twin", (FrozenValue,), {"__slots__": type(value).__slots__})
    other = object.__new__(cls)
    other._fill(*value._fields())
    return other


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_in_order(cls):
    fields, build = VALUES[cls]
    value = build()
    assert cls.__slots__ == fields
    assert value._fields() == tuple(getattr(value, n) for n in fields)


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_equal_fields_are_equal_and_hash_alike(cls):
    a, b = VALUES[cls][1](), VALUES[cls][1]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(a._fields())
    assert len({a, b}) == 1


def test_case_rows_compare_by_fields():
    build = VALUES[theorems._Case][1]
    assert build() == build()
    assert build() != theorems._Case({"n": None}, cyclic, 2)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_other_class_with_same_fields_is_unequal(cls):
    value = VALUES[cls][1]()
    other = twin(value)
    assert other._fields() == value._fields()
    assert value != other and other != value
    assert value != value._fields()


def test_unequal_fields_are_unequal():
    assert CoefficientDomain(5) != CoefficientDomain(7)
    assert f() != f().shift(1)
    assert LaurentPolynomial.make(INTEGERS, -1, [1, 1]) != \
        LaurentPolynomial.make(prime_field(5), -1, [1, 1])
    assert r() != RationalFunction(f(), f())
    assert KnotPresentation(1, ()) != KnotPresentation(2, ((1, -2),))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    value = VALUES[cls][1]()
    before = value._fields()
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value._fields() == before


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    value = VALUES[cls][1]()
    assert copy.copy(value) == value
    if cls not in (MatrixRep, Homomorphism):  # groups compare by identity
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_defaults():
    assert CoefficientDomain().p is None and CoefficientDomain() == INTEGERS
    rep = MatrixRep(C2, ((0, 1), (1, 0)))
    assert rep.exponents is None and rep.cyclotomic == 1 and rep.root is None


def test_repr():
    assert repr(INTEGERS) == "ZZ" and repr(prime_field(7)) == "GF(7)"
    assert repr(KnotPresentation(1, ())) == \
        "KnotPresentation(generators=1, relators=())"
    assert repr(LaurentPolynomial.make(prime_field(3), 0, [1])) == \
        "LaurentPolynomial(domain=GF(3), min_exp=0, coeffs=(1,))"


@pytest.mark.parametrize("build,error", [
    (lambda: CoefficientDomain(4), ValueError),
    (lambda: CoefficientDomain(1), ValueError),
    (lambda: RationalFunction(f(), LaurentPolynomial.zero()),
     ZeroDivisionError),
    (lambda: RationalFunction(f(), LaurentPolynomial.one(prime_field(3))),
     DomainMismatchError),
    (lambda: PolyMatrix(INTEGERS, 2, 2, ((0, (1,)),) * 3), ValueError),
    (lambda: PolyMatrix(INTEGERS, -1, 0, ()), ValueError),
    (lambda: PolyMatrix.from_rows(
        [[f(), LaurentPolynomial.one(prime_field(3))]]), DomainMismatchError),
    (lambda: PDCode(()), PDValidationError),
    (lambda: PDCode(((1, 2, 1),)), PDValidationError),
    (lambda: PDCode(TREFOIL_PD[:2] + ((5, 2, 6, 7),)), PDValidationError),
    (lambda: KnotPresentation(2, ((1, 3, -1, -3),)), ValueError),
    (lambda: KnotPresentation(2, ((1, 0, -1),)), ValueError),
    (lambda: KnotPresentation(2, ((1, 1, -2),)), ValueError),
    (lambda: TheoremCase("nosuch", (), None), ValueError),
    (lambda: TheoremCase("dihedral", (3, 1), 9), ValueError),
], ids=["domain-composite", "domain-one", "zero-denominator",
        "mixed-quotient", "entry-count", "negative-rows", "mixed-entries",
        "pd-empty", "pd-triple", "pd-labels", "letter-range", "letter-zero",
        "unbalanced", "unknown-case", "case-modulus"])
def test_constructor_rejects(build, error):
    with pytest.raises(error):
        build()


def test_equal_presentation_is_a_cache_hit():
    relators = ((1, 2, 1, -2, -1, -2),)
    a = KnotPresentation(2, relators)
    b = KnotPresentation(2, tuple(tuple(list(r)) for r in relators))
    assert a == b and a is not b and a.relators is not b.relators
    first = alexander_minor(a, prime_field(11))
    hits = alexander_minor.cache_info().hits
    assert alexander_minor(b, CoefficientDomain(11)) is first
    assert alexander_minor.cache_info().hits == hits + 1
