"""Wada's twisted Alexander invariant from a presentation, a surjection
onto a finite group, and a permutation representation.

For a deficiency-one meridional presentation with generators x_1..x_m and
relators r_1..r_{m-1}, a surjection f onto G, and a representation rho of
G, the invariant is the quotient of two determinants: the big one of
Phi(J), the Fox Jacobian J = (dr_i/dx_k) without the column of a dropped
generator x_j (knots.fox_jacobian), pushed entry by entry through
Phi = rho.f tensor the abelianization phi, and the small one of
Phi(x_j - 1).  The quotient, up to units c*t^k, does not depend on j
(Wada, Topology 33, 1994); this module drops x_m unless the caller names
another generator.  The numerator is computed as the product over the
factors of rho (below) of det Phi_factor(J) to the factor's multiplicity.

Every representation given to wada_invariant is by permutation matrices
(see groups.MatrixRep).
For a Laurent polynomial a and a permutation matrix P, det(a(t*P)) is a
product over the cycles of P: P is permutation-similar to a block
diagonal of cyclic shifts C_len, and a(t*C_len) has the eigenvalues
a(z*t) for the len-th roots of unity z, so its determinant is the cycle
norm prod_z a(z*t) of algebra.cycle_norm.  permutation_norm computes it
that way, without a matrix; the identity is one of integer polynomials,
so it holds bit for bit over the integers and, by reduction, over every
F_p.  The small determinant is det(t*P - I), the norm of a = t - 1 over
the permutation matrix P of f(x_j): the product over the cycles of
(-1)^(len+1) * (t^len - 1).  It never vanishes, over the integers or over
any F_p; for the regular representation and f(x_j) of order k it is
+-(t^k - 1)^(|G|/k).

For the regular representation, surjections f and sigma.f that differ by
an automorphism sigma of G give invariants that agree exactly, unreduced
numerator and denominator included; homsearch.regular_equivalence_classes
keys each class by a Cayley graph and proves that the key decides it.
``invariants`` is the one place that uses this: it builds the regular
representation itself, evaluates one member per automorphism class, and
hands every surjection its class's result.

evaluate_rep_phi maps all of J to one matrix in one pass: its rows are
ordered by (relator, representation row) and its columns by (kept
generator ascending, representation column).

The numerator is multiplicative over a splitting of the representation, and
the regular representation splits along any abelian subgroup H = <a> x <b>.
Right multiplication by H commutes with every left multiplication, so Q[G]
is a right Q[H]-module, free on the left-coset representatives g_i of H.
Q[H] is commutative and semisimple, so by Wedderburn it is the product of
one field Q(chi) = Q(zeta_d) per Galois orbit O of characters chi of H of
order d, with h acting by chi(h).  So rho_reg is conjugate over Q to the
direct sum of the induced representations rho_O = Q[G] tensor_{Q[H]}
Q(chi), of dimension phi(d)*[G:H].  rho_O has the integer basis g_i tensor
zeta_d^j, j < phi(d), on which g, with g*g_i = g_s(i) * h, acts by the
block-monomial matrix whose block (s(i), i) is multiplication by chi(h) =
zeta_d^e, x^e modulo Phi_d (groups.FiniteGroup.regular_factors).
Conjugating the block matrix by I_{m-1} tensor the change of basis, and
then ordering rows and columns by factor with one permutation on both
sides, makes it block diagonal with one block per O; neither step changes
the determinant.  So over Q(t) the block determinant of rho_reg is the
product over O of the block determinants of the rho_O.  For n in the
normalizer of H, g tensor w -> g*n^-1 tensor w maps the rho_O of chi . c_n,
c_n(h) = n*h*n^-1, onto that of chi, so the factors of O and O . c_n are
conjugate and their block determinants agree: regular_factors keeps one
factor per orbit of the normalizer on the O, and the numerator raises its
determinant to the orbit's size.  All these determinants are integer
Laurent polynomials, so each identity holds in ZZ[t^+-1] and, since a
determinant commutes with reduction of its entries, over every F_p, p | |H|
included: the numerator stays bit-identical.  Elimination then runs on
(m-1)*phi(d)*[G:H] rows per factor, over F_p[t] or ZZ[t].  Any other
representation is its own single factor (groups.MatrixRep.factors).

Over F_p a factor splits further when d > 2 and d | p - 1, which is
linear algebra over F_p, not a congruence (for d <= 2, phi(d) = 1 and its
blocks are 1 x 1 already).  F_p^* is cyclic of order p - 1,
so it holds an r of order d, and Phi_d = prod_k (x - r^k) over the k < d
prime to d, with distinct roots.  By the Chinese remainder theorem F_p[x]/
Phi_d is isomorphic to the product of the F_p[x]/(x - r^k) = F_p, with x
acting on the k-th by r^k; the isomorphism commutes with multiplication
by x, hence with the action of H.  So the reduced lattice of rho_O,
ZZ[G] tensor_{ZZ[H]} ZZ[zeta_d] tensor F_p, is the direct sum over k of
the Ind_H^G F_p(chi^k), F_p(chi^k) being F_p with h = a^u b^v acting by
r^(k*e(h)): rho_O reduced mod p is conjugate over F_p to the block
diagonal of these monomial representations with 1 x 1 blocks
(groups.MatrixRep with a root).  The change of basis is a matrix over F_p,
constant in t, so conjugating the block matrix by I_{m-1} tensor it
leaves the block determinant over F_p[t^+-1] exactly equal, not only up
to a unit; so is ordering rows and columns by character.  The chi^k run
over the Galois orbit O, and g tensor w -> g*n^-1 tensor w maps
Ind_H^G F_p(chi . c_n) onto Ind_H^G F_p(chi) for n in N_G(H), as above:
regular_factors(p=p) keeps one factor per orbit of N_G(H) alone on the
characters of order d and raises it to the orbit's size.  The numerator
over F_p is therefore the reduction of the integer one, bit for bit, and
each such factor eliminates (m-1)*[G:H] rows instead of
(m-1)*phi(d)*[G:H].  When p | d, or d does not divide p - 1, Phi_d has
no phi(d) distinct roots in F_p and the factor is kept whole; in
particular a factor whose order p divides is never split, and the
left side of a congruence gets no reduction by a p-subgroup.

Some permutation representations sigma, whole or a factor, give one
matrix P to every generator, sigma(f(x_i)) = P for all i: the whole one
when every generator maps to one element g (every surjection onto an
abelian group, meridians being conjugate), and G acting on the cosets of
a normal subgroup with an abelian quotient, where the conjugate meridians
have one image.  Then sigma(f(w)) = P^k for every word w, k its exponent
sum, so a term c*w of a Fox derivative becomes c*(t*P)^k, each Fox block
is a Laurent polynomial in the one matrix t*P, and the block matrix is
D(t*P) for the (m-1) x (m-1) matrix D(t) of abelianized Fox derivatives;
its blocks commute.  For commuting blocks the block determinant is
det(d(t*P)), where d = det D is the Alexander minor of
knots.alexander_minor (Kovacs, Silver and Williams, Amer. Math. Monthly
106, 1999).  The identity holds over any commutative coefficient ring, and
det(d(t*P)) is the permutation norm of d over P, so no elimination runs.
wada_invariant applies this rule to the whole representation first, so a
surjection onto an abelian group takes one norm, and otherwise to each
factor of its split: for A4 split along V4, the factor of A4 acting on
A4/V4 = C3 sends every meridian to one 3-cycle, and for Dic5 split along
C10, the one of Dic5 acting on Dic5/C10 = C2 sends every meridian to the
transposition.  Each such factor's determinant is the generic route's bit
for bit, over the integers and every F_p, so the numerator is too.  Only
permutation factors (cyclotomic 1) take this route: a cyclotomic or
F_p-character factor would need a norm over Q(zeta_d) instead.
"""

from __future__ import annotations

from collections import Counter

from .algebra import (
    INTEGERS,
    ZERO_CELL,
    CoefficientDomain,
    FrozenValue,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    coefficient_cell,
    cycle_norm,
    cyclotomic_residues,
    determinant,
    rational_normalize,
)
from .groups import FiniteGroup, MatrixRep, regular_representation
from .homsearch import (
    Homomorphism,
    evaluate_word,
    regular_equivalence_classes,
)
from .knots import (
    FreeWord,
    GroupRingElement,
    KnotPresentation,
    abelian_exponent,
    alexander_minor,
    fox_jacobian,
)


class TwistedAlexanderResult(FrozenValue):
    """Both determinants, the dropped generator (1-based) and the
    normalized quotient."""

    __slots__ = ("numerator", "denominator", "dropped_generator",
                 "normalized")

    def __init__(self, numerator: LaurentPolynomial,
                 denominator: LaurentPolynomial, dropped_generator: int,
                 normalized: RationalFunction):
        self._fill(numerator, denominator, dropped_generator, normalized)

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


class FoxImage(FrozenValue):
    """A square matrix of integral group ring elements of the free group,
    pushed through f x phi: entries[a][b] lists each term c*w of entry
    (a, b) as (f(w), phi(w), c), the terms of one (f(w), phi(w)) merged.
    Each distinct word is evaluated once here, however many
    representations the matrix is then mapped through."""

    __slots__ = ("homomorphism", "entries")

    def __init__(self, matrix: list[list[GroupRingElement]],
                 f: Homomorphism):
        if any(len(row) != len(matrix) for row in matrix):
            raise ValueError("evaluate_rep_phi needs a square matrix")
        group, images = f.group, f.images
        evaluated: dict[FreeWord, tuple[int, int]] = {}
        entries = []
        for row in matrix:
            entries.append([])
            for element in row:
                terms: dict[tuple[int, int], int] = {}
                for word, c in element.items():
                    key = evaluated.get(word)
                    if key is None:
                        key = evaluated[word] = (
                            evaluate_word(group, images, word),
                            abelian_exponent(word))
                    terms[key] = terms.get(key, 0) + c
                entries[-1].append(tuple(
                    (g, e, c) for (g, e), c in terms.items() if c))
        self._fill(f, tuple(map(tuple, entries)))


def evaluate_rep_phi(matrix: list[list[GroupRingElement]] | FoxImage,
                     f: Homomorphism, rep: MatrixRep,
                     domain: CoefficientDomain) -> PolyMatrix:
    """(rho.f tensor phi) extended linearly and applied to every entry of a
    square n x n matrix of group ring elements, as one (n*dim) x (n*dim)
    matrix: entry (a, b) becomes the dim x dim block in rows a*dim.. and
    columns b*dim.., so rows are ordered by (row of the input, row of the
    representation) and columns likewise.  The matrix may also be given as
    its FoxImage under f, which wada_invariant builds once for all the
    factors of a representation.  For any block-monomial representation
    each group ring term c*w adds c * t^phi(w) times the block of x^e mod
    Phi_d at block (perm[j], j) of rho(f(w)), for every block column j
    with its exponent e, or the scalar r^e mod p when rep has the root
    (r, p).  A permutation representation has 1 x 1 blocks (Phi_1 =
    x - 1), so a term costs O(dim) there.  The cells are written reduced
    into the domain, with no polynomial built per entry.  The presentation
    checks are knots.fox_jacobian's; this function only checks that the
    matrix is square, that a FoxImage is f's, and that a factor over F_p is
    evaluated over its own field."""
    image = matrix if isinstance(matrix, FoxImage) else FoxImage(matrix, f)
    if image.homomorphism != f:
        raise ValueError("a FoxImage of another homomorphism")
    dim, d = rep.dimension, rep.cyclotomic
    if rep.root is None:
        residues = cyclotomic_residues(d)
    else:
        r, p = rep.root
        if p != domain.p:
            raise ValueError(f"a factor over F_{p} evaluated over {domain}")
        residues = tuple((pow(r, e, p),) for e in range(d))
    size, width = len(residues[0]), len(image.entries) * dim
    nonzero: dict[int, tuple[tuple[int, int], ...]] = {}
    terms: dict[int, dict[int, int]] = {}
    for a, row in enumerate(image.entries):
        for b, element in enumerate(row):
            origin = a * dim * width + b * dim
            for g, e, c in element:
                entries = nonzero.get(g)
                if entries is None:  # (row * width + column, value) of rho(g)
                    perm = rep.perms[g]
                    exps = rep.exponents[g] if rep.exponents \
                        else (0,) * len(perm)
                    entries = nonzero[g] = tuple(
                        ((i * size + r) * width + j * size + jj, v)
                        for j, (i, x) in enumerate(zip(perm, exps))
                        for jj in range(size)
                        for r, v in enumerate(residues[(x + jj) % d]) if v)
                for offset, v in entries:
                    cell = terms.get(origin + offset)
                    if cell is None:
                        cell = terms[origin + offset] = {}
                    cell[e] = cell.get(e, 0) + c * v
    cells = [ZERO_CELL] * (width * width)
    for key, cell in terms.items():
        cells[key] = coefficient_cell(cell, domain.p)
    return PolyMatrix.of_cells(domain, width, width, tuple(cells))


def _common_map(rep: MatrixRep, f: Homomorphism):
    """The column map of rep at every f.images[i] when rep is a
    permutation representation and these maps all agree, else None."""
    if rep.cyclotomic != 1:
        return None
    perm = rep.perms[f.images[0]]
    return perm if all(rep.perms[g] == perm for g in f.images) else None


def permutation_norm(a: LaurentPolynomial, perm) -> LaurentPolynomial:
    """det(a(t*P)) for the permutation matrix P of the column map perm: the
    product over the cycles of P of algebra.cycle_norm(a, len), computed
    once per distinct cycle length and raised to its multiplicity."""
    lengths: Counter[int] = Counter()
    seen = [False] * len(perm)
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths[length] += 1
    out = LaurentPolynomial.one(a.domain)
    for length, count in lengths.items():
        out = out * cycle_norm(a, length) ** count
    return out


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
    det(t*rho(f(x_j)) - I) is the permutation norm of t - 1 over
    rho(f(x_j)); it is nonzero over every domain, so any choice is valid.
    The numerator is a product of factor determinants.  When rep, a
    permutation representation, gives every f(x_i) one column map, as when
    f sends every generator to one element, it is its own single factor;
    otherwise the factors are the pairs (factor, multiplicity) of
    rep.factors(domain.p): for the regular representation one factor per
    normalizer orbit of Galois orbits of characters of the splitting
    subgroup H, and rep itself for any other.  A permutation factor that
    gives every f(x_i) one column map contributes the permutation norm of
    the Alexander minor over that map (the Kovacs-Silver-Williams identity
    of the module docstring); every other factor contributes
    determinant(evaluate_rep_phi(J, f, factor, domain)) for the Fox
    Jacobian J = knots.fox_jacobian(pres, dropped), pushed through f once
    (FoxImage) for all such factors.  Each is raised to its multiplicity.
    Over Q the regular representation is conjugate to the direct sum of its
    factors with repetition, so its block matrix is conjugate to the block
    diagonal of theirs; both sides of the determinant identity are integer
    polynomials, so it holds exactly over the integers and every F_p.
    Over F_p, a factor of order d > 2 with d | p - 1 is replaced by its
    F_p-characters, one monomial factor with 1 x 1 blocks per normalizer
    orbit, conjugate over F_p by a change of basis constant in t, so the
    numerator is again exactly the same (proofs in the module docstring).

    The presentation and the dropped generator are checked by
    knots.fox_jacobian, which the norm reaches through alexander_minor,
    before the denominator reads f(x_dropped); this function checks only
    the representation.
    """
    if rep.group is not f.group:
        raise ValueError("representation and homomorphism target differ")
    if rep.cyclotomic != 1:
        raise ValueError("wada_invariant needs a permutation representation")
    dropped = pres.generators if dropped_generator is None \
        else dropped_generator
    factors = ((rep, 1),) if _common_map(rep, f) is not None \
        else rep.factors(domain.p)
    num = image = None
    for factor, multiplicity in factors:
        perm = _common_map(factor, f)
        if perm is not None:
            part = permutation_norm(alexander_minor(pres, domain, dropped),
                                    perm)
        else:
            if image is None:
                image = FoxImage(fox_jacobian(pres, dropped), f)
            part = determinant(evaluate_rep_phi(image, f, factor, domain))
        part = part ** multiplicity
        num = part if num is None else num * part
    den = permutation_norm(LaurentPolynomial.make(domain, 0, [-1, 1]),
                           rep.perms[f.images[dropped - 1]])

    normalized = rational_normalize(RationalFunction(num, den))
    return TwistedAlexanderResult(num, den, dropped, normalized)


def invariants(pres: KnotPresentation, group: FiniteGroup,
               homs: list[Homomorphism],
               domain: CoefficientDomain = INTEGERS
               ) -> list[TwistedAlexanderResult]:
    """The invariant of the regular representation of ``group`` composed
    with each surjection in ``homs``, in the order of ``homs``.

    ``wada_invariant`` runs once per automorphism class of
    ``regular_equivalence_classes`` (one Cayley-graph key per surjection),
    on the class's first member, and every member gets that result
    object: the members' invariants agree exactly.  So the number of
    distinct results is the number of Wada evaluations.
    """
    rep = regular_representation(group)
    result_of = {}
    for cls in regular_equivalence_classes(homs):
        res = wada_invariant(pres, cls[0], rep, domain)
        result_of.update((f.images, res) for f in cls)
    return [result_of[f.images] for f in homs]


def alexander_polynomial(pres: KnotPresentation) -> LaurentPolynomial:
    """The classical Alexander polynomial: the Alexander minor over the
    integers (knots.alexander_minor), normalized to min_exp 0 with
    positive lowest coefficient."""
    return rational_normalize(
        RationalFunction.of(alexander_minor(pres))).numerator
