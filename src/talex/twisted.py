"""Wada's twisted Alexander invariant from a presentation, a surjection
onto a finite group, and a permutation representation.

For a deficiency-one meridional presentation with generators x_1..x_m and
relators r_1..r_{m-1}, a surjection f onto G, and a representation rho of
G, the invariant is the quotient of two determinants: the big one of the
(m-1) x (m-1) block matrix of Fox derivatives pushed through rho.f tensor
the abelianization phi, and the small one of (rho.f tensor phi)(x_j - 1)
for a dropped generator x_j.  The quotient, up to units c*t^k, does not
depend on j (Wada, Topology 33, 1994); this module drops x_m unless the
caller names another generator.

Every representation is by permutation matrices (see groups.MatrixRep),
so the small determinant is det(t*P - I) for the permutation matrix P of
f(x_j), which is the product over the cycles of P of (-1)^(len+1) *
(t^len - 1).  This module computes it in that closed form, from the
cycles of P; the determinant of the evaluated x_j - 1 is only the test
oracle.  It never vanishes, over the integers or over any F_p; for the
regular representation and f(x_j) of order k it is +-(t^k - 1)^(|G|/k).

For the regular representation, surjections f and sigma.f that differ by
an automorphism sigma of G give invariants that agree exactly, unreduced
numerator and denominator included (see
homsearch.regular_equivalence_classes), so ``invariants`` evaluates one
member per automorphism class.

Block rows are ordered by (relator, representation row) and block columns
by (kept generator ascending, representation column).

When the target group is abelian, all blocks lie in one commutative
matrix algebra, so the big determinant equals det(Phi(D)) where D is the
determinant of the small (m-1) x (m-1) matrix of group-algebra symbols
and Phi blows a symbol up to its matrix.  This cuts the expensive
elimination from size (m-1)*|G| down to |G| and is bit-identical to the
generic route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    INTEGERS,
    CoefficientDomain,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    determinant,
    rational_normalize,
)
from .groups import MatrixRep, trivial_group, trivial_representation
from .homsearch import (
    Homomorphism,
    evaluate_word,
    regular_equivalence_classes,
)
from .knots import (
    GroupRingElement,
    KnotPresentation,
    abelian_exponent,
    fox_derivative,
)


@dataclass(frozen=True)
class TwistedAlexanderResult:
    """Both determinants, the dropped generator (1-based) and the
    normalized quotient."""

    numerator: LaurentPolynomial
    denominator: LaurentPolynomial
    dropped_generator: int
    normalized: RationalFunction
    domain: CoefficientDomain

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def to_json(self) -> dict:
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
            "droppedGenerator": self.dropped_generator,
            "normalized": self.normalized.to_json(),
        }


def evaluate_rep_phi(element: GroupRingElement, f: Homomorphism,
                     rep: MatrixRep, domain: CoefficientDomain) -> PolyMatrix:
    """(rho.f tensor phi) extended linearly: each group ring term c*w adds
    c * t^phi(w) at the cells (perm[j], j) of rho(f(w)), O(dim) per term."""
    if rep.group is not f.group:
        raise ValueError("representation and homomorphism target differ")
    dim = rep.dimension
    terms: list[dict[int, int]] = [{} for _ in range(dim * dim)]
    for word, c in element.items():
        perm = rep.perms[evaluate_word(f.group, f.images, word)]
        e = abelian_exponent(word)
        for j, i in enumerate(perm):
            cell = terms[i * dim + j]
            cell[e] = cell.get(e, 0) + c
    entries = tuple(LaurentPolynomial.from_coeff_map(domain, cell)
                    for cell in terms)
    return PolyMatrix(dim, dim, entries)


def permutation_denominator(perm, domain: CoefficientDomain
                            ) -> LaurentPolynomial:
    """det(t*P - I) for the permutation matrix P of the column map perm:
    the product over the cycles of P of (-1)^(len+1) * (t^len - 1)."""
    out = LaurentPolynomial.one(domain)
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            sign = (-1) ** (length + 1)
            out = out * LaurentPolynomial.make(
                domain, 0, [-sign] + [0] * (length - 1) + [sign])
    return out


def _abelian_fast_path(pres, f, rep, domain, kept):
    """Numerator determinant via group-algebra symbols.

    Representations of an abelian group have pairwise commuting images, so
    all Fox blocks live in one commutative matrix algebra; the block
    determinant then equals the image of the symbol determinant computed
    in the group algebra itself.  The expensive elimination shrinks from
    size (m-1)*dim to dim.
    """
    from itertools import combinations

    group = f.group
    m1 = len(kept)
    zero = LaurentPolynomial.zero(domain)

    def symbol(element: GroupRingElement) -> dict[int, LaurentPolynomial]:
        acc: dict[int, dict[int, int]] = {}
        for word, c in element.items():
            g = evaluate_word(group, f.images, word)
            e = abelian_exponent(word)
            cell = acc.setdefault(g, {})
            cell[e] = cell.get(e, 0) + c
        out = {}
        for g, cell in acc.items():
            poly = LaurentPolynomial.from_coeff_map(domain, cell)
            if not poly.is_zero:
                out[g] = poly
        return out

    blocks = [[symbol(fox_derivative(r, j)) for j in kept]
              for r in pres.relators]

    def sym_mul(a, b):
        out: dict[int, LaurentPolynomial] = {}
        for g, pg in a.items():
            for h, ph in b.items():
                k = group.mul(g, h)
                prod = pg * ph
                out[k] = out[k] + prod if k in out else prod
        return {k: v for k, v in out.items() if not v.is_zero}

    def sym_addsub(a, b, negate):
        out = dict(a)
        for g, p in b.items():
            q = out.get(g, zero) + (-p if negate else p)
            if q.is_zero:
                out.pop(g, None)
            else:
                out[g] = q
        return out

    # division-free cofactor DP: minors[S] is the determinant of the
    # submatrix on rows 0..|S|-1 and column set S
    minors: dict[int, dict[int, LaurentPolynomial]] = {
        0: {group.identity: LaurentPolynomial.one(domain)}}
    for size in range(1, m1 + 1):
        level: dict[int, dict[int, LaurentPolynomial]] = {}
        for cols in combinations(range(m1), size):
            subset = 0
            for c in cols:
                subset |= 1 << c
            acc: dict[int, LaurentPolynomial] = {}
            for pos, c in enumerate(cols):
                entry = blocks[size - 1][c]
                if not entry:
                    continue
                term = sym_mul(entry, minors[subset & ~(1 << c)])
                acc = sym_addsub(acc, term, (size - 1 + pos) % 2 == 1)
            level[subset] = acc
        minors = level
    d = minors[(1 << m1) - 1]

    # apply the representation to the symbol determinant
    dim = rep.dimension
    rows = [[zero] * dim for _ in range(dim)]
    for g, poly in d.items():
        for j, i in enumerate(rep.perms[g]):
            rows[i][j] = rows[i][j] + poly
    return determinant(PolyMatrix.from_rows(rows))


def wada_invariant(pres: KnotPresentation, f: Homomorphism, rep: MatrixRep,
                   domain: CoefficientDomain = INTEGERS,
                   dropped_generator: int | None = None
                   ) -> TwistedAlexanderResult:
    """The twisted invariant for an m-generator, (m-1)-relator meridional
    presentation, over the integers or F_p as the domain says; numerator
    and denominator are returned unreduced along with the normalized
    quotient.

    x_m is dropped unless dropped_generator (1-based) names another
    generator, which changes the result only by a unit.  The denominator
    det(t*rho(f(x_j)) - I) is +-prod over the cycles of rho(f(x_j)) of
    (t^len - 1), computed in that form; it is nonzero over every domain,
    so any choice is valid.
    """
    m = pres.generators
    if len(pres.relators) != m - 1:
        raise ValueError(
            f"need deficiency one: {m} generators, {len(pres.relators)} "
            "relators")
    if not pres.meridional:
        raise ValueError("twisted invariants need a meridional presentation")
    dropped = m if dropped_generator is None else dropped_generator
    if not 1 <= dropped <= m:
        raise ValueError(f"dropped generator {dropped} out of range")
    den = permutation_denominator(rep.perms[f.images[dropped - 1]], domain)

    kept = [j for j in range(1, m + 1) if j != dropped]
    if m == 1:
        num = LaurentPolynomial.one(domain)
    elif m >= 3 and rep.dimension >= 2 and f.group.is_abelian():
        num = _abelian_fast_path(pres, f, rep, domain, kept)
    else:
        dim = rep.dimension
        blocks = [[evaluate_rep_phi(fox_derivative(r, j), f, rep, domain)
                   for j in kept] for r in pres.relators]
        size = (m - 1) * dim
        rows = []
        for bi in range(m - 1):
            for i in range(dim):
                row = []
                for bj in range(m - 1):
                    block = blocks[bi][bj]
                    row.extend(block.entry(i, jj) for jj in range(dim))
                rows.append(row)
        assert len(rows) == size
        num = determinant(PolyMatrix.from_rows(rows))

    normalized = rational_normalize(RationalFunction(num, den))
    return TwistedAlexanderResult(num, den, dropped, normalized, domain)


def invariants(pres: KnotPresentation, homs: list[Homomorphism],
               rep: MatrixRep, domain: CoefficientDomain = INTEGERS):
    """Yield (class, result) for each automorphism class of ``homs``, in
    the order of ``regular_equivalence_classes``: ``wada_invariant`` runs
    once, on the class's first member, and every member shares the
    result exactly.  ``rep`` must be the regular representation of the
    target group, the one whose invariants the classes share.
    """
    if rep.perms != rep.group.cayley:
        raise ValueError("automorphism classes share invariants only for "
                         "the regular representation")
    for cls in regular_equivalence_classes(homs):
        yield cls, wada_invariant(pres, cls[0], rep, domain)


def alexander_polynomial(pres: KnotPresentation) -> LaurentPolynomial:
    """The classical Alexander polynomial: (t - 1) times the invariant of
    the one-dimensional trivial representation, normalized to min_exp 0
    with positive lowest coefficient."""
    g = trivial_group()
    f = Homomorphism(g, tuple(g.identity for _ in range(pres.generators)))
    res = wada_invariant(pres, f, trivial_representation(g), INTEGERS)
    t_minus_1 = LaurentPolynomial.make(INTEGERS, 0, (-1, 1))
    val = rational_normalize(RationalFunction(
        res.numerator * t_minus_1, res.denominator))
    if val.denominator != LaurentPolynomial.one(INTEGERS):
        raise ArithmeticError(
            "Alexander polynomial did not come out polynomial; "
            "is this a knot presentation?")
    return val.numerator
