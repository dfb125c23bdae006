"""The congruence engine, the congruence checker, and the nonvanishing
sweep over the order-< 24 catalog.

Every supported case is one reduction.  Let f: pi_1(K) -> G be onto, G' the
commutator subgroup, k = |G : G'|, and p a prime such that G' is a p-group
(any p, or none, when G' = 1).  Then

    Delta_{reg G o f}  =  (prod_{j=1..k} Delta_K(a^j t) / (a^j t - 1))^|G'|

up to units in F_p(t) (in Q(t) when G' = 1), with a = e^(2 pi i / k).
The right side is the paper's cyclic theorem for G/G' raised to |G'|.

Sketch of the proof:

* f followed by G -> G/G' lands in an abelian group, so it factors
  through H_1(K) = ZZ.  Hence G/G' is cyclic and the meridian maps to a
  generator, and the composite is the regular representation of C_k on
  the abelianization, whose Wada invariant is the paper's cyclic theorem:
  the orbit quotient above.
* Over F_p, the regular module F_p[G] and the inflation of
  F_p[G/G']^{|G'|} have equal Brauer characters.  On a p-regular g both
  are |G| at g = 1 and 0 elsewhere, because the inflation's value
  |G'| |G/G'| at g in G' only arises at g = 1, the one p-regular element
  of the p-group G'.  So the two modules have the same composition
  factors, and each is block upper triangular over those factors.
* Wada's invariant is multiplicative over block-triangular
  representations and invariant up to units, and every diagonal factor's
  denominator is nonzero (Wada, Topology 33 (1994)).  When G' = 1 the
  two modules coincide and no reduction is needed.

The rows of ``_CASES`` give each case's parameters, group and modulus;
their (k, |G'|) are:

    cyclic C_n                  (n, 1)
    dihedral D_q, q = p^n       (2, q)
    D_q x C_m, m odd            (2m, q)
    metacyclic G(m, p | k)      (m, p)
    dicyclic Dic_q              (4, q)
    A4                          (3, 4)
    D3 x| C3 (proved p = 3)     (2, 9)
    conjecture D_p x| C_p       (2, p^2)

The d3c3 case is the conjecture's p = 3 instance, which the paper proves:
both build their group with groups.dp_semidirect_cp(3).

``rhs`` checks both conditions on the group it is given rather than
assuming them.  ``verify_congruence`` still computes the left side on G
itself.  Complex roots of unity never appear: both orbit products are
cycle norms prod_z a(z*t) (algebra.cycle_norm), computed over ZZ from
power sums by Newton's identities and reduced mod p afterwards, so
everything stays exact.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from functools import lru_cache

from .algebra import (
    INTEGERS,
    CoefficientDomain,
    FrozenValue,
    LaurentPolynomial,
    RationalFunction,
    _is_prime,
    cycle_norm,
    product_over_roots_of_unity,
    rational_normalize,
)
from .groups import (
    FiniteGroup,
    alternating4,
    cyclic,
    d3_semidirect_c3,
    dicyclic,
    dihedral,
    direct_product,
    dp_semidirect_cp,
    metacyclic,
)
from .homsearch import DEFAULT_BUDGET, find_meridional_surjections
from .knots import KnotPresentation
from .twisted import alexander_polynomial, invariants


class _Case(FrozenValue):
    __slots__ = ("parameters", "group", "modulus")

    def __init__(self, parameters: dict[str, int | None],
                 group: Callable[..., FiniteGroup], modulus: str | int | None):
        self._fill(parameters, group, modulus)


def _dihedral_times_cyclic(p: int, n: int, m: int) -> FiniteGroup:
    if m % 2 == 0:
        raise ValueError(
            f"dihedral x cyclic case needs m odd, got {m}: D_q x C_m "
            "then has the non-cyclic abelianization C2 x C_m, so no knot "
            "group surjects onto it")
    return direct_product(dihedral(p ** n), cyclic(m))


# one row per case: its parameters in order with their defaults (None for a
# required one), its group built from them, and the modulus its congruence
# lives at: a parameter's name, a fixed prime, or None for the exact cyclic
# identity.  The group builders look the constructors up when called, so
# rebinding a module-level name reaches every case
_CASES = {
    "cyclic": _Case({"n": None}, lambda n: cyclic(n), None),
    "dihedral": _Case({"p": None, "n": 1}, lambda p, n: dihedral(p ** n), "p"),
    "dihedral_times_cyclic": _Case({"p": None, "n": 1, "m": None},
                                   _dihedral_times_cyclic, "p"),
    "metacyclic": _Case({"m": None, "p": None, "k": None},
                        lambda m, p, k: metacyclic(m, p, k), "p"),
    "dicyclic": _Case({"p": None, "n": 1}, lambda p, n: dicyclic(p ** n), "p"),
    "a4": _Case({}, lambda: alternating4(), 2),
    "d3c3": _Case({}, lambda: d3_semidirect_c3(), 3),
    "conjecture": _Case({"p": None}, lambda p: dp_semidirect_cp(p), "p"),
}
CASE_NAMES = tuple(_CASES)


class TheoremCase(FrozenValue):
    """A congruence formula instance: case name, integer parameters in the
    order of the case's ``_CASES`` row, and the modulus the congruence
    lives at (None for the exact cyclic case)."""

    __slots__ = ("name", "parameters", "modulus")

    def __init__(self, name: str, parameters: tuple[int, ...],
                 modulus: int | None):
        if name not in CASE_NAMES:
            raise ValueError(f"unknown case {name!r}")
        if modulus is not None and not _is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        self._fill(name, parameters, modulus)

    def __str__(self):
        params = ",".join(str(x) for x in self.parameters)
        mod = f" mod {self.modulus}" if self.modulus is not None else ""
        return f"{self.name}({params}){mod}"


def _odd_prime(p: int | None, what: str) -> int:
    if p is None or not _is_prime(p) or p == 2:
        raise ValueError(f"{what} requires an odd prime, got {p}")
    return p


def make_case(name: str, *, modulus: int | None = None,
              **params: int | None) -> TheoremCase:
    """Build and validate the case ``name`` from its ``_CASES`` row.

    A parameter left out or None takes the row's default.  The case must
    take every parameter given; p must be an odd prime, the others at
    least 1.  Only the cyclic case, exact and so true at every prime,
    takes a modulus other than its own.  The group is built here, so
    its constructor's checks (metacyclic's k, an odd m) fail here too.
    """
    if name not in _CASES:
        raise ValueError(f"unknown case {name!r}")
    row = _CASES[name]
    what = name.replace("_times_", " x ") + " case"
    given = {key: v for key, v in params.items() if v is not None}
    extra = [key for key in given if key not in row.parameters]
    if extra:
        raise ValueError(
            f"{what} takes no parameter {', '.join(extra)} (it takes: "
            f"{', '.join(row.parameters) or 'none'})")
    values = {**row.parameters, **given}
    if "p" in values:
        _odd_prime(values["p"], what)
    if any(v is None or v < 1 for v in values.values()):
        raise ValueError(f"{what} needs " + " and ".join(
            f"{key} >= 1" for key in values if key != "p"))
    own = values.get(row.modulus, row.modulus)  # "p" names a parameter
    case = TheoremCase(name, tuple(values.values()),
                       own if modulus is None else modulus)
    if own is not None and case.modulus != own:
        raise ValueError(
            f"modulus {modulus} conflicts with the {name} case, whose "
            f"congruence lives mod {own}")
    group_for_case(case)
    return case


@lru_cache(maxsize=64)
def group_for_case(case: TheoremCase) -> FiniteGroup:
    """The case's group, built once per case: a verify run over many knots
    builds it, and the tables FiniteGroup caches, a single time."""
    return _CASES[case.name].group(*case.parameters)


def _check_is_alexander(delta: LaurentPolynomial):
    if delta.domain.p is not None:
        raise ValueError("the Alexander polynomial must be exact over ZZ")
    if abs(sum(delta.coeffs)) != 1:
        raise ValueError("not a knot Alexander polynomial: Delta(1) != +-1")


def _cyclic_orbit_quotient(delta: LaurentPolynomial, n: int
                           ) -> RationalFunction:
    """prod_{j=1..n} Delta(a^j t) / (a^j t - 1) as an exact rational
    function; the denominator orbit product is the cycle norm of t - 1,
    (-1)^(n+1) * (t^n - 1)."""
    num = product_over_roots_of_unity(delta, n)
    den = cycle_norm(LaurentPolynomial.make(INTEGERS, 0, [-1, 1]), n)
    return RationalFunction(num, den)


def _order_modulo(group: FiniteGroup, normal: frozenset[int], g: int) -> int:
    """The order of the coset g N in G/N."""
    j, x = 1, g
    while x not in normal:
        x = group.mul(x, g)
        j += 1
    return j


def rhs(group: FiniteGroup, modulus: int | None,
        delta: LaurentPolynomial) -> RationalFunction:
    """The congruence's right-hand side for the regular representation of
    ``group``: with k = |G : G'|, the cyclic orbit quotient of order k
    raised to |G'|, reduced mod ``modulus`` when given, normalized.

    Raises ValueError unless G/G' is cyclic and G' is a p-group for
    p = ``modulus`` (a trivial G' needs no modulus); the module docstring
    proves the formula under exactly these conditions.
    """
    _check_is_alexander(delta)
    derived = group.commutator_subgroup()
    size = len(derived)
    k = group.order // size
    if all(_order_modulo(group, derived, g) != k for g in group.elements()):
        raise ValueError(f"{group.name}/{group.name}' is not cyclic")
    # size divides modulus**size exactly when size is a power of the prime
    if size > 1 and (modulus is None or pow(modulus, size, size)):
        raise ValueError(
            f"the commutator subgroup of {group.name} has order {size}, "
            f"which is not a power of the modulus {modulus}")
    out = _cyclic_orbit_quotient(delta, k)
    if modulus is not None:
        out = out.reduce_mod(modulus)
    return rational_normalize(out ** size)


class VerdictRecord(FrozenValue):
    """Per-(knot, case) outcome of a congruence check."""

    __slots__ = ("knot", "group", "parameters", "surjections_found",
                 "verdicts", "lhs", "rhs", "modulus", "elapsed_ms")

    def __init__(self, knot: str, group: str, parameters: tuple[int, ...],
                 surjections_found: int, verdicts: tuple[bool, ...],
                 lhs: tuple[RationalFunction, ...],
                 rhs: RationalFunction | None, modulus: int | None,
                 elapsed_ms: float):
        self._fill(knot, group, parameters, surjections_found, verdicts,
                   lhs, rhs, modulus, elapsed_ms)

    @property
    def all_verified(self) -> bool:
        return all(self.verdicts)

    @property
    def vacuous(self) -> bool:
        return self.surjections_found == 0

    def to_json(self) -> dict:
        """The record as JSON values.  Surjections of one automorphism
        class share one left-side object, and their "lhs" entries share
        one dict, so the CLI writer encodes it once."""
        distinct = {id(x): x for x in self.lhs}
        lhs_json = {key: x.to_json() for key, x in distinct.items()}
        return {
            "knot": self.knot,
            "group": self.group,
            "parameters": list(self.parameters),
            "surjections_found": self.surjections_found,
            "verdicts": list(self.verdicts),
            "lhs": [lhs_json[id(x)] for x in self.lhs],
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
            "modulus": self.modulus,
            "elapsed_ms": self.elapsed_ms,
        }


def verify_congruence(pres: KnotPresentation, knot_name: str,
                      case: TheoremCase,
                      budget: int = DEFAULT_BUDGET) -> VerdictRecord:
    """Check the case's formula against every surjection up to conjugacy.

    The left side runs through the full twisted pipeline (mod p, or the
    exact invariant for the cyclic case), one value per surjection from
    ``twisted.invariants``.  The right side is rhs() on the classical
    Alexander polynomial.  Both sides are rational_normalize outputs over
    one domain, which coincide exactly when the values agree up to a
    unit, so each verdict is ``==``.  No surjections is a vacuous
    verdict, not a failure.
    """
    start = time.perf_counter()
    group = group_for_case(case)
    surjections = find_meridional_surjections(
        pres, group, up_to_conjugacy=True, budget=budget)
    delta = alexander_polynomial(pres)
    rhs_value = rhs(group, case.modulus, delta)
    lhs = tuple(res.normalized for res in invariants(
        pres, group, surjections, CoefficientDomain(case.modulus)))
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerdictRecord(
        knot=knot_name, group=group.name, parameters=case.parameters,
        surjections_found=len(surjections),
        verdicts=tuple(x == rhs_value for x in lhs), lhs=lhs,
        rhs=rhs_value, modulus=case.modulus, elapsed_ms=elapsed)


# -- the order-< 24 catalog and the nonvanishing sweep ---------------------


def catalog_under_24() -> list[tuple[str, FiniteGroup, int | None]]:
    """The 35 groups of order < 24 that are normally generated by one
    element, each with the modulus at which its formula lives (None means
    the exact cyclic identity)."""
    cases = (
        [make_case("cyclic", n=n) for n in range(1, 24)]
        + [make_case("dihedral", p=p, n=n)
           for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1))]
        + [make_case("dihedral_times_cyclic", p=3, m=3),
           make_case("metacyclic", m=4, p=5, k=2),
           make_case("metacyclic", m=3, p=7, k=2),
           make_case("dicyclic", p=3), make_case("dicyclic", p=5),
           make_case("a4"), make_case("d3c3")])
    return [(g.name, g, case.modulus)
            for case, g in zip(cases, map(group_for_case, cases))]


class NonvanishingRecord(FrozenValue):
    __slots__ = ("knot", "group", "surjections_found", "classes_computed",
                 "all_nonzero", "modulus", "elapsed_ms")

    def __init__(self, knot: str, group: str, surjections_found: int,
                 classes_computed: int, all_nonzero: bool,
                 modulus: int | None, elapsed_ms: float):
        self._fill(knot, group, surjections_found, classes_computed,
                   all_nonzero, modulus, elapsed_ms)


def sweep_nonvanishing(table: dict[str, KnotPresentation],
                       budget: int = DEFAULT_BUDGET
                       ) -> list[NonvanishingRecord]:
    """For every catalog group and bundled knot, check that each computed
    twisted invariant is nonzero (mod the theorem's p where one applies,
    exact otherwise).

    ``twisted.invariants`` evaluates one invariant per automorphism class
    of surjections and hands every member that result object, so
    ``classes_computed``, the number of distinct results, counts the Wada
    evaluations.
    """
    out = []
    for group_name, group, modulus in catalog_under_24():
        domain = CoefficientDomain(modulus)
        for knot_name in sorted(table):
            start = time.perf_counter()
            pres = table[knot_name]
            homs = find_meridional_surjections(
                pres, group, up_to_conjugacy=True, budget=budget)
            results = invariants(pres, group, homs, domain)
            out.append(NonvanishingRecord(
                knot=knot_name, group=group_name,
                surjections_found=len(homs),
                classes_computed=len({id(res) for res in results}),
                all_nonzero=not any(res.is_zero for res in results),
                modulus=modulus,
                elapsed_ms=(time.perf_counter() - start) * 1000.0))
    return out
