"""The congruence engine, the congruence checker, and the binomial and
conjugating-matrix identities used in the paper's proofs.

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

The cases that ``make_case`` builds, with (k, |G'|) and the modulus:

    cyclic C_n                  (n, 1)      none, or any prime
    dihedral D_q, q = p^n       (2, q)      p
    D_q x C_m, m odd            (2m, q)     p
    metacyclic G(m, p | k)      (m, p)      p
    dicyclic Dic_q              (4, q)      p
    A4                          (3, 4)      2
    D3 x| C3                    (2, 9)      3
    conjecture D_p x| C_p       (2, p^2)    p

``rhs`` checks both conditions on the group it is given rather than
assuming them.  ``verify_congruence`` still computes the left side on G
itself.  Complex roots of unity never appear: the orbit product is the
resultant-based ``product_over_roots_of_unity`` over ZZ, reduced mod p
afterwards, so everything stays exact.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .algebra import (
    INTEGERS,
    CoefficientDomain,
    LaurentPolynomial,
    RationalFunction,
    _is_prime,
    equal_up_to_unit,
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
    regular_representation,
)
from .homsearch import DEFAULT_BUDGET, find_meridional_surjections
from .knots import KnotPresentation
from .twisted import alexander_polynomial, invariants

# case name -> group from the case's parameters; the constructors are looked
# up when called, so rebinding a module-level name reaches every case
_CASE_GROUPS = {
    "cyclic": lambda n: cyclic(n),
    "dihedral": lambda p, n: dihedral(p ** n),
    "dihedral_times_cyclic":
        lambda p, n, m: direct_product(dihedral(p ** n), cyclic(m)),
    "metacyclic": lambda m, p, k: metacyclic(m, p, k),
    "dicyclic": lambda p, n: dicyclic(p ** n),
    "a4": lambda: alternating4(),
    "d3c3": lambda: d3_semidirect_c3(),
    "conjecture": lambda p: dp_semidirect_cp(p),
}
CASE_NAMES = tuple(_CASE_GROUPS)


@dataclass(frozen=True)
class TheoremCase:
    """A congruence formula instance: case name, integer parameters, and
    the modulus the congruence lives at (None for the exact cyclic case).

    parameters: cyclic (n,); dihedral and dicyclic (p, n) with q = p^n;
    dihedral_times_cyclic (p, n, m); metacyclic (m, p, k);
    a4 and d3c3 (); conjecture (p,).
    """

    name: str
    parameters: tuple[int, ...]
    modulus: int | None

    def __post_init__(self):
        if self.name not in CASE_NAMES:
            raise ValueError(f"unknown case {self.name!r}")
        if self.modulus is not None and not _is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")

    def __str__(self):
        params = ",".join(str(x) for x in self.parameters)
        mod = f" mod {self.modulus}" if self.modulus is not None else ""
        return f"{self.name}({params}){mod}"


def _odd_prime(p: int, what: str) -> int:
    if not _is_prime(p) or p == 2:
        raise ValueError(f"{what} requires an odd prime, got {p}")
    return p


def make_case(name: str, *, n: int | None = None, p: int | None = None,
              m: int | None = None, k: int | None = None,
              modulus: int | None = None) -> TheoremCase:
    """Build and validate a TheoremCase; the default modulus is inferred
    from the case (dihedral q = p^n implies mod p, and so on)."""
    if name == "cyclic":
        if n is None or n < 1:
            raise ValueError("cyclic case needs n >= 1")
        return TheoremCase("cyclic", (n,), modulus)
    if name == "dihedral":
        _odd_prime(p, "dihedral case")
        n = 1 if n is None else n
        if n < 1:
            raise ValueError("dihedral case needs n >= 1")
        return TheoremCase("dihedral", (p, n), modulus or p)
    if name == "dihedral_times_cyclic":
        _odd_prime(p, "dihedral x cyclic case")
        n = 1 if n is None else n
        if n < 1 or m is None or m < 1:
            raise ValueError("dihedral x cyclic case needs n >= 1 and m >= 1")
        if m % 2 == 0:
            raise ValueError(
                f"dihedral x cyclic case needs m odd, got {m}: D_q x C_m "
                "then has the non-cyclic abelianization C2 x C_m, so no knot "
                "group surjects onto it")
        return TheoremCase("dihedral_times_cyclic", (p, n, m), modulus or p)
    if name == "metacyclic":
        _odd_prime(p, "metacyclic case")
        if m is None or k is None:
            raise ValueError("metacyclic case needs m and k")
        metacyclic(m, p, k)  # full precondition validation
        return TheoremCase("metacyclic", (m, p, k), modulus or p)
    if name == "dicyclic":
        _odd_prime(p, "dicyclic case")
        n = 1 if n is None else n
        if n < 1:
            raise ValueError("dicyclic case needs n >= 1")
        return TheoremCase("dicyclic", (p, n), modulus or p)
    if name == "a4":
        return TheoremCase("a4", (), modulus or 2)
    if name == "d3c3":
        return TheoremCase("d3c3", (), modulus or 3)
    if name == "conjecture":
        _odd_prime(p, "conjecture case")
        return TheoremCase("conjecture", (p,), modulus or p)
    raise ValueError(f"unknown case {name!r}")


def group_for_case(case: TheoremCase) -> FiniteGroup:
    return _CASE_GROUPS[case.name](*case.parameters)


def _check_is_alexander(delta: LaurentPolynomial):
    if delta.domain.p is not None:
        raise ValueError("the Alexander polynomial must be exact over ZZ")
    if delta.is_zero or abs(delta.evaluate(1)) != 1:
        raise ValueError("not a knot Alexander polynomial: Delta(1) != +-1")


def _cyclic_orbit_quotient(delta: LaurentPolynomial, n: int
                           ) -> RationalFunction:
    """prod_{j=1..n} Delta(a^j t) / (a^j t - 1) as an exact rational
    function; the denominator orbit product is +-(t^n - 1)."""
    num = product_over_roots_of_unity(delta, n)
    den = LaurentPolynomial.make(INTEGERS, 0, [-1] + [0] * (n - 1) + [1])
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


@dataclass(frozen=True)
class VerdictRecord:
    """Per-(knot, case) outcome of a congruence check."""

    knot: str
    group: str
    parameters: tuple[int, ...]
    surjections_found: int
    verdicts: tuple[bool, ...]
    lhs: tuple[RationalFunction, ...]
    rhs: RationalFunction | None
    modulus: int | None
    elapsed_ms: float

    @property
    def all_verified(self) -> bool:
        return all(self.verdicts)

    @property
    def vacuous(self) -> bool:
        return self.surjections_found == 0

    def to_json(self) -> dict:
        return {
            "knot": self.knot,
            "group": self.group,
            "parameters": list(self.parameters),
            "surjections_found": self.surjections_found,
            "verdicts": list(self.verdicts),
            "lhs": [x.to_json() for x in self.lhs],
            "rhs": self.rhs.to_json() if self.rhs is not None else None,
            "modulus": self.modulus,
            "elapsed_ms": self.elapsed_ms,
        }


def verify_congruence(pres: KnotPresentation, knot_name: str,
                      case: TheoremCase,
                      budget: int = DEFAULT_BUDGET) -> VerdictRecord:
    """Check the case's formula against every surjection up to conjugacy.

    The left side runs through the full twisted pipeline (mod p, or the
    exact invariant for the cyclic case), evaluated once per automorphism
    class of surjections; every member records its class's value and
    verdict.  The right side is rhs() on the classical Alexander
    polynomial.  No surjections is a vacuous verdict, not a failure.
    """
    start = time.perf_counter()
    group = group_for_case(case)
    rep = regular_representation(group)
    surjections = find_meridional_surjections(
        pres, group, up_to_conjugacy=True, budget=budget)
    delta = alexander_polynomial(pres)
    rhs_value = rhs(group, case.modulus, delta)
    outcome = {}  # image tuple -> (lhs, verdict) of its class
    for cls, res in invariants(pres, surjections, rep,
                               CoefficientDomain(case.modulus)):
        pair = (res.normalized, equal_up_to_unit(res.normalized, rhs_value))
        outcome.update((f.images, pair) for f in cls)
    pairs = [outcome[f.images] for f in surjections]
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerdictRecord(
        knot=knot_name, group=group.name, parameters=case.parameters,
        surjections_found=len(surjections),
        verdicts=tuple(v for _, v in pairs), lhs=tuple(x for x, _ in pairs),
        rhs=rhs_value, modulus=case.modulus, elapsed_ms=elapsed)


# -- the order-< 24 catalog and the nonvanishing sweep ---------------------


def catalog_under_24() -> list[tuple[str, FiniteGroup, int | None]]:
    """The 35 groups of order < 24 that are normally generated by one
    element, each with the modulus at which its formula lives (None means
    the exact cyclic identity)."""
    entries: list[tuple[str, FiniteGroup, int | None]] = []
    for n in range(1, 24):
        entries.append((f"C{n}", cyclic(n), None))
    for q, p in ((3, 3), (5, 5), (7, 7), (9, 3), (11, 11)):
        entries.append((f"D{q}", dihedral(q), p))
    entries.append(("D3xC3", direct_product(dihedral(3), cyclic(3)), 3))
    entries.append(("G(4,5|2)", metacyclic(4, 5, 2), 5))
    entries.append(("G(3,7|2)", metacyclic(3, 7, 2), 7))
    entries.append(("Dic3", dicyclic(3), 3))
    entries.append(("Dic5", dicyclic(5), 5))
    entries.append(("A4", alternating4(), 2))
    entries.append(("D3sC3", d3_semidirect_c3(), 3))
    return entries


@dataclass(frozen=True)
class NonvanishingRecord:
    knot: str
    group: str
    surjections_found: int
    classes_computed: int
    all_nonzero: bool
    modulus: int | None
    elapsed_ms: float


def sweep_nonvanishing(table: dict[str, KnotPresentation],
                       budget: int = DEFAULT_BUDGET,
                       progress=None) -> list[NonvanishingRecord]:
    """For every catalog group and bundled knot, check that each computed
    twisted invariant is nonzero (mod the theorem's p where one applies,
    exact otherwise).

    ``twisted.invariants`` computes one invariant per automorphism class
    of surjections (the members share it by the conjugate-representation
    lemma), so ``classes_computed`` counts the Wada evaluations.
    """
    out = []
    for group_name, group, modulus in catalog_under_24():
        rep = regular_representation(group)
        domain = CoefficientDomain(modulus)
        for knot_name in sorted(table):
            start = time.perf_counter()
            pres = table[knot_name]
            homs = find_meridional_surjections(
                pres, group, up_to_conjugacy=True, budget=budget)
            results = [res for _, res in
                       invariants(pres, homs, rep, domain)]
            rec = NonvanishingRecord(
                knot=knot_name, group=group_name,
                surjections_found=len(homs), classes_computed=len(results),
                all_nonzero=not any(res.is_zero for res in results),
                modulus=modulus,
                elapsed_ms=(time.perf_counter() - start) * 1000.0)
            if progress is not None:
                progress(rec)
            out.append(rec)
    return out


# -- binomial identities and conjugating matrices from the proofs ----------


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n (falling factorial over k!), k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def a_matrix(p: int, n: int) -> list[list[int]]:
    """The q x q binomial matrix (i, j) -> C(i-1, j-1) mod p, q = p^n."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be at least 1")
    q = p ** n
    return [[binomial(i, j) % p for j in range(q)] for i in range(q)]


def tau_a(p: int, n: int) -> list[list[int]]:
    """Upper triangular with alternating 1, -1 bands: (i, j) -> (-1)^(j-i)
    for i <= j, 0 below; all diagonal entries 1."""
    _odd_prime(p, "tau(a)")
    q = p ** n
    return [[(1 if (j - i) % 2 == 0 else p - 1) if i <= j else 0
             for j in range(q)] for i in range(q)]


def tau_b(p: int, n: int) -> list[list[int]]:
    """(i, j) -> (-1)^(j-1) C(j-1, i-1) mod p; upper triangular with
    alternating +-1 diagonal."""
    _odd_prime(p, "tau(b)")
    q = p ** n
    return [[(-1) ** j * binomial(j, i) % p for j in range(q)]
            for i in range(q)]


def dihedral_perm_a(q: int) -> list[list[int]]:
    """The q-cycle permutation matrix of the rotation in the embedding
    D_q -> S_q: ones on the subdiagonal and in the top-right corner."""
    mat = [[0] * q for _ in range(q)]
    mat[0][q - 1] = 1
    for i in range(1, q):
        mat[i][i - 1] = 1
    return mat


def dihedral_perm_b(q: int) -> list[list[int]]:
    """The antidiagonal reflection matrix."""
    mat = [[0] * q for _ in range(q)]
    for i in range(q):
        mat[i][q - 1 - i] = 1
    return mat


def metacyclic_perm_b(p: int, k: int) -> list[list[int]]:
    """Permutation image of b for G(m, p | k) acting on C_p: the (i, j)
    entry is 1 exactly when j = k*i - 1 mod p (1-based as in the proof)."""
    mat = [[0] * p for _ in range(p)]
    for i in range(1, p + 1):
        j = (k * i - 2) % p + 1
        mat[i - 1][j - 1] = 1
    return mat


def mat_mul_mod(a, b, p):
    n, m, kk = len(a), len(b[0]), len(b)
    return [[sum(a[i][x] * b[x][j] for x in range(kk)) % p
             for j in range(m)] for i in range(n)]


def mat_inv_mod(a, p):
    """Gauss-Jordan inverse of a square matrix over F_p."""
    n = len(a)
    aug = [[x % p for x in row] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise ArithmeticError("matrix is singular mod p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def check_lucas(p: int, limit: int) -> bool:
    """C(m, n) mod p equals the digit-wise product of base-p binomials,
    for all 0 <= n <= m <= limit."""
    for m in range(limit + 1):
        for n in range(m + 1):
            lhs = math.comb(m, n) % p
            rhs_v, mm, nn = 1, m, n
            while mm or nn:
                rhs_v = rhs_v * math.comb(mm % p, nn % p) % p
                mm //= p
                nn //= p
            if lhs != rhs_v:
                return False
    return True


def check_pascal(limit: int) -> bool:
    return all(math.comb(m, n) == math.comb(m - 1, n) + math.comb(m - 1, n - 1)
               for m in range(1, limit + 1) for n in range(1, limit + 1))


def check_vandermonde(limit: int) -> bool:
    """C(m+n, r) = sum_k C(m, k) C(n, r-k) for all m, n <= limit and every
    r: each Pascal row is packed into one big integer wide enough that row
    convolution is integer multiplication, so the check is a product."""
    width = 2 * limit + 8  # C(2*limit, limit) < 2^(2*limit)
    packed = []
    for m in range(2 * limit + 1):
        v = 0
        for k in range(m, -1, -1):
            v = (v << width) + math.comb(m, k)
        packed.append(v)
    return all(packed[m] * packed[n] == packed[m + n]
               for m in range(limit + 1) for n in range(limit + 1))


def check_euler_finite_difference(n_limit: int, a_values=(1, 2, 3)) -> bool:
    """The alternating binomial sum annihilates polynomials of degree
    r < n and picks out (-1)^n n! a_n at degree n; checked on monomials
    x^r and on the paper's special case f(k) = C(ak - 2, r)."""
    kmax = n_limit
    powers = [[k ** r for r in range(n_limit + 1)] for k in range(kmax + 1)]
    shifted = {a: [[binomial(a * k - 2, r) for r in range(n_limit + 1)]
                   for k in range(kmax + 1)] for a in a_values}
    for n in range(n_limit + 1):
        signed = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
        for r in range(n + 1):
            s = sum(c * powers[k][r] for k, c in enumerate(signed))
            expect = 0 if r < n else (-1) ** n * math.factorial(n)
            if s != expect:
                return False
        for a in a_values:
            tab = shifted[a]
            for r in range(n + 1):
                s = sum(c * tab[k][r] for k, c in enumerate(signed))
                expect = 0 if r < n else (-1) ** n * a ** n
                if s != expect:
                    return False
    return True


def check_dihedral_lemma(p: int, n: int) -> bool:
    """The three binomial claims behind the dihedral theorem, over their
    full stated ranges for q = p^n."""
    q = p ** n
    for k in range(q):
        if math.comb(q - 1, k) % p != (-1) ** k % p:
            return False
    for m in range(1, q + 1):
        for j in range(1, q + 1):
            s = sum((-1) ** (j - k) * math.comb(m, k - 1)
                    for k in range(1, j + 1))
            if s != binomial(m - 1, j - 1):
                return False
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lhs = (-1) ** (j - 1) * binomial(i + j - 2, j - 1) % p
            if lhs != binomial(q - i, j - 1) % p:
                return False
    return True


def check_metacyclic_lemma(p: int) -> bool:
    """The three claims behind the metacyclic theorem: the convolution
    identity, the explicit inverse of A_p, and the sign-flip symmetry."""
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            s = sum(binomial(i - 1, k - 1) * binomial(p - j, p - k)
                    for k in range(j, i + 1))
            if s != binomial((p - j) + (i - 1), p - 1):
                return False
    a = a_matrix(p, 1)
    m = [[binomial(p - j, p - i) % p for j in range(1, p + 1)]
         for i in range(1, p + 1)]
    ident = [[1 if i == j else 0 for j in range(p)] for i in range(p)]
    if mat_mul_mod(a, m, p) != ident or mat_mul_mod(m, a, p) != ident:
        return False
    for i in range(1, p + 1):
        for s in range(1, p + 1):
            if binomial(p - s, p - i) % p != \
                    (-1) ** (i + s) * binomial(i - 1, s - 1) % p:
                return False
    return True


def check_dihedral_conjugation(p: int, n: int) -> bool:
    """A_{p,n}^-1 rho(a) A_{p,n} = tau(a) and likewise for b, exactly
    mod p, with rho the permutation images from the proof."""
    q = p ** n
    a = a_matrix(p, n)
    ainv = mat_inv_mod(a, p)
    lhs_a = mat_mul_mod(mat_mul_mod(ainv, dihedral_perm_a(q), p), a, p)
    lhs_b = mat_mul_mod(mat_mul_mod(ainv, dihedral_perm_b(q), p), a, p)
    return lhs_a == tau_a(p, n) and lhs_b == tau_b(p, n)


def check_metacyclic_triangularization(m: int, p: int, k: int) -> bool:
    """A_p^-1 rho(b) A_p is upper triangular with diagonal
    (1, k, k^2, ..., k^(p-1)) mod p."""
    metacyclic(m, p, k)  # validate the parameters
    a = a_matrix(p, 1)
    ainv = mat_inv_mod(a, p)
    t = mat_mul_mod(mat_mul_mod(ainv, metacyclic_perm_b(p, k), p), a, p)
    for i in range(p):
        for j in range(i):
            if t[i][j] % p:
                return False
        if t[i][i] % p != pow(k, i, p):
            return False
    return True
