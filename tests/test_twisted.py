import math
import random

import pytest
from sympy import Matrix, Poly, cyclotomic_poly, symbols, totient

from conftest import bundled_pd_codes, connected_sum, dense_rep_phi, poly
from paper_lemmas import direct_sum_rep, trivial_representation
from talex.algebra import (
    INTEGERS,
    CoefficientDomain,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    cyclotomic_residues,
    determinant,
    equal_up_to_unit,
    prime_field,
    rational_normalize,
    reduce_mod,
)
from talex.groups import (
    MatrixRep,
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
from talex.homsearch import (
    Homomorphism,
    find_meridional_surjections,
    regular_equivalence_classes,
)
from talex.knots import (
    KnotPresentation,
    alexander_minor,
    fox_derivative,
    fox_jacobian,
    wirtinger_from_pd,
)
from talex.theorems import catalog_under_24
from talex.twisted import (
    FoxImage,
    alexander_polynomial,
    evaluate_rep_phi,
    invariants,
    permutation_norm,
    wada_invariant,
)

KNOTS = ("3_1", "4_1", "5_2", "6_1", "7_4", "8_18")


def generator_minus_one(j: int):
    """x_j - 1 in the group ring, whose evaluated determinant is the
    oracle for the closed-form denominator."""
    return {(j,): 1, (): -1}


def block_rows(pres, f, rep, domain, dropped):
    """The rows of Wada's block matrix: the Fox Jacobian evaluated at
    rho.f tensor phi, without the column block of x_dropped."""
    m, dim = pres.generators, rep.dimension
    rows = []
    for r in pres.relators:
        blocks = [evaluate_rep_phi([[fox_derivative(r, j)]], f, rep, domain)
                  for j in range(1, m + 1) if j != dropped]
        for i in range(dim):
            rows.append([b.entry(i, jj) for b in blocks for jj in range(dim)])
    return rows


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    assert a.cols == b.rows
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = LaurentPolynomial.zero(a.domain)
            for k in range(a.cols):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return PolyMatrix.from_rows(rows)


class TestEvaluateRepPhi:
    def test_identity_element(self):
        g = dihedral(3)
        rep = regular_representation(g)
        f = Homomorphism(g, (g.label("b"),))
        m = evaluate_rep_phi([[{(): 1}]], f, rep, INTEGERS)
        for i in range(6):
            for j in range(6):
                expected = LaurentPolynomial.one() if i == j else \
                    LaurentPolynomial.zero()
                assert m.entry(i, j) == expected

    def test_single_meridian(self):
        g = cyclic(3)
        rep = regular_representation(g)
        f = Homomorphism(g, (1,))
        m = evaluate_rep_phi([[{(1,): 1}]], f, rep, INTEGERS)
        for i in range(3):
            for j in range(3):
                coeff = int(rep.perms[1][j] == i)
                assert m.entry(i, j) == LaurentPolynomial.make(
                    INTEGERS, 1, (coeff,))

    @pytest.mark.parametrize("g,x", [
        (dihedral(3), 3), (cyclic(4), 1), (dicyclic(3), 6)],
        ids=("D3-reflection", "C4-generator", "Dic3-b"))
    def test_meridian_minus_one_determinant(self, g, x):
        # cycle structure oracle: left multiplication by an element of
        # order k splits into |G|/k cycles, so det = +-(t^k - 1)^(|G|/k)
        rep = regular_representation(g)
        f = Homomorphism(g, (x,))
        m = evaluate_rep_phi([[{(1,): 1, (): -1}]], f, rep, INTEGERS)
        det = determinant(m)
        k = g.element_order(x)
        cyc = LaurentPolynomial.make(INTEGERS, 0, [-1] + [0] * (k - 1) + [1])
        expected = cyc ** (g.order // k)
        assert det in (expected, -expected)

    @pytest.mark.parametrize("g", [
        dihedral(3), alternating4(), dicyclic(3),
        direct_product(cyclic(2), cyclic(2))], ids=lambda g: g.name)
    @pytest.mark.parametrize("domain", [INTEGERS, prime_field(3)],
                             ids=repr)
    def test_matches_dense_oracle(self, g, domain):
        # Fox derivatives of the raw Wirtinger relators; the generator
        # images need not satisfy the relators for a term-wise evaluation
        pd = bundled_pd_codes()
        rep = regular_representation(g)
        for name in ("3_1", "5_2"):
            pres = wirtinger_from_pd(pd[name])
            m = pres.generators
            f = Homomorphism(g, tuple((5 * i + 1) % g.order
                                      for i in range(m)))
            for r in pres.relators:
                for j in range(1, m + 1):
                    d = fox_derivative(r, j)
                    assert evaluate_rep_phi([[d]], f, rep, domain) == \
                        dense_rep_phi(d, f, rep, domain), (name, r, j)

    def test_ragged_matrix_rejected(self):
        g = cyclic(3)
        f = Homomorphism(g, (1, 1))
        rep = regular_representation(g)
        x = {(1,): 1}
        for matrix in ([[x, x], [x]], [[x], [x, x]], [[x, x]], [[x], [x]]):
            with pytest.raises(ValueError, match="square"):
                evaluate_rep_phi(matrix, f, rep, INTEGERS)

    def test_empty_matrix_keeps_its_domain(self):
        # a 0 x 0 matrix has no entry to read a domain from; its
        # determinant is still the one of the domain it was evaluated over
        g = dihedral(3)
        f, rep = Homomorphism(g, (3,)), regular_representation(g)
        for domain in (INTEGERS, prime_field(5)):
            m = evaluate_rep_phi([], f, rep, domain)
            assert (m.rows, m.cols, m.domain) == (0, 0, domain)
            assert determinant(m) == LaurentPolynomial.one(domain)
            assert determinant(m).domain == domain

    def test_fox_image_is_evaluated_like_its_matrix(self, trefoil):
        # the image under f x phi, built once, maps through every factor
        # as the matrix itself does, and only under its own f
        g = dihedral(3)
        f, other = find_meridional_surjections(trefoil, g)[:2]
        jacobian, domain = fox_jacobian(trefoil), prime_field(3)
        image = FoxImage(jacobian, f)
        for factor, _ in regular_representation(g).factors(3):
            assert evaluate_rep_phi(image, f, factor, domain) == \
                evaluate_rep_phi(jacobian, f, factor, domain)
        with pytest.raises(ValueError, match="another homomorphism"):
            evaluate_rep_phi(image, other, factor, domain)

    def test_group_mismatch(self, trefoil):
        # both routes refuse a representation of another group: the
        # equal-image one (every meridian onto one element of C5) and the
        # block-matrix one (a surjection onto D3)
        rep = regular_representation(cyclic(7))
        equal_image = Homomorphism(cyclic(5), (1, 1, 1))
        onto_d3 = find_meridional_surjections(trefoil, dihedral(3))[0]
        for f in (equal_image, onto_d3):
            with pytest.raises(ValueError, match="differ"):
                wada_invariant(trefoil, f, rep)


class TestWadaInvariant:
    def test_unknot_with_c2(self):
        pres = KnotPresentation(1, ())
        g = cyclic(2)
        f = Homomorphism(g, (1,))
        res = wada_invariant(pres, f, regular_representation(g))
        assert res.numerator == LaurentPolynomial.one()
        assert res.denominator in (poly([-1, 0, 1]), poly([1, 0, -1]))

    def test_trivial_rep_gives_alexander_over_t_minus_1(self, trefoil):
        from talex.groups import trivial_group
        g = trivial_group()
        f = Homomorphism(g, (0, 0, 0))
        res = wada_invariant(trefoil, f, trivial_representation(g))
        expected = RationalFunction(poly([1, -1, 1]), poly([-1, 1]))
        assert equal_up_to_unit(res.normalized, expected)

    def test_regular_d9_composite_matches_worked_example(self, trefoil):
        # The only homomorphisms G(3_1) -> D_9 land in the D_3 subgroup
        # <a^3, b> (no surjection exists); composing the D_3 surjection
        # with that inclusion reproduces the known order-18 value.
        d3, d9 = dihedral(3), dihedral(9)
        f3 = find_meridional_surjections(trefoil, d3,
                                         up_to_conjugacy=True)[0]

        def embed(x):
            return 3 * x if x < 3 else 9 + 3 * (x - 3)

        fhat = Homomorphism(d9, tuple(embed(x) for x in f3.images))
        res = wada_invariant(trefoil, fhat, regular_representation(d9))
        tp1, tm1 = poly([1, 1]), poly([-1, 1])
        f6, fc3 = poly([1, -1, 1]), poly([1, 1, 1])
        num = (tp1 ** 6) * (f6 ** 6) * (tm1 ** 6) * (fc3 ** 6)
        den = (tp1 ** 3) * (f6 ** 3) * (tm1 ** 3) * (fc3 ** 3)
        assert equal_up_to_unit(res.normalized, RationalFunction(num, den))
        # and mod 3 the same data collapses to (t+1)^9 (t-1)^9
        res3 = wada_invariant(trefoil, fhat, regular_representation(d9),
                              prime_field(3))
        F3 = prime_field(3)
        expected3 = RationalFunction.of(
            (poly([1, 1], domain=F3) ** 9) * (poly([-1, 1], domain=F3) ** 9))
        assert equal_up_to_unit(res3.normalized, expected3)

    def test_denominator_is_cyclotomic_power(self, table):
        for g in (cyclic(4), dihedral(3), dicyclic(3)):
            rep = regular_representation(g)
            for name in ("3_1", "4_1"):
                pres = table[name]
                for f in find_meridional_surjections(
                        pres, g, up_to_conjugacy=True):
                    res = wada_invariant(pres, f, rep)
                    k = g.element_order(f.images[-1])
                    cyc = LaurentPolynomial.make(
                        INTEGERS, 0, [-1] + [0] * (k - 1) + [1])
                    expected = cyc ** (g.order // k)
                    assert res.denominator in (expected, -expected)

    def test_wrong_deficiency_rejected(self):
        pres = KnotPresentation(3, ((1, -2),))
        g = cyclic(2)
        f = Homomorphism(g, (1, 1, 1))
        with pytest.raises(ValueError, match="deficiency"):
            wada_invariant(pres, f, regular_representation(g))

    def test_cyclotomic_factor_rejected(self, trefoil):
        # a factor of order d > 1 has blocks on ZZ[x]/Phi_d, whose
        # denominator the permutation norm would get wrong
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g)[0]
        factor = next(r for r, _ in g.regular_factors() if r.cyclotomic > 1)
        with pytest.raises(ValueError, match="permutation representation"):
            wada_invariant(trefoil, f, factor)

    def test_non_meridional_presentation_rejected(self, trefoil):
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g)[0]
        pres = KnotPresentation(trefoil.generators, trefoil.relators,
                                meridional=False)
        with pytest.raises(ValueError, match="meridional"):
            wada_invariant(pres, f, regular_representation(g))

    @pytest.mark.parametrize("dropped", [0, 4, -1])
    def test_dropped_generator_out_of_range_rejected(self, trefoil,
                                                     dropped):
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g)[0]
        with pytest.raises(ValueError, match="out of range"):
            wada_invariant(trefoil, f, regular_representation(g),
                           dropped_generator=dropped)

    def test_equal_image_route_matches_generic_assembly(self, table):
        # every homomorphism below sends all generators to one element, so
        # wada_invariant evaluates the Alexander minor at t*rho(g); the
        # oracle assembles and eliminates the full block matrix instead
        def block_numerator(pres, f, rep, domain, dropped):
            rows = block_rows(pres, f, rep, domain, dropped)
            if not rows:
                return LaurentPolynomial.one(domain)
            return determinant(PolyMatrix.from_rows(rows))

        def check(pres, f, domain=INTEGERS):
            rep = regular_representation(f.group)
            for dropped in range(1, pres.generators + 1):
                res = wada_invariant(pres, f, rep, domain,
                                     dropped_generator=dropped)
                assert res.numerator == block_numerator(
                    pres, f, rep, domain, dropped), (f, domain, dropped)

        pd = bundled_pd_codes()
        for name, n in (("4_1", 6), ("5_2", 4)):
            pres = wirtinger_from_pd(pd[name])
            check(pres, find_meridional_surjections(
                pres, cyclic(n), up_to_conjugacy=True)[0])
        knot = table["8_18"]
        for n in range(2, 8):
            for domain in (INTEGERS, prime_field(5)):
                check(knot, Homomorphism(cyclic(n), (1,) * 3), domain)
        # not surjective, into groups that are not abelian
        for g in (dihedral(3), alternating4()):
            for x in range(g.order):
                for pres in (table["3_1"], knot):
                    check(pres, Homomorphism(g, (x,) * pres.generators))
        for domain in (INTEGERS, prime_field(5)):
            check(KnotPresentation(1, ()), Homomorphism(dihedral(3), (3,)),
                  domain)

    def test_dropped_generator_independence(self, table):
        for name, group in (("3_1", dihedral(3)), ("4_1", cyclic(5)),
                            ("5_2", dicyclic(3)), ("7_4", alternating4()),
                            ("6_1", dihedral(3)), ("8_18", cyclic(3))):
            pres = table[name]
            rep = regular_representation(group)
            surj = find_meridional_surjections(pres, group,
                                               up_to_conjugacy=True)
            if not surj:
                continue
            f = surj[0]
            use_mod = (pres.generators - 1) * group.order > 40
            domain = prime_field(5) if use_mod else INTEGERS
            results = [wada_invariant(pres, f, rep, domain,
                                      dropped_generator=j).normalized
                       for j in range(1, pres.generators + 1)]
            for other in results[1:]:
                assert equal_up_to_unit(results[0], other), (name, group.name)

    def test_direct_sum_multiplicativity(self, trefoil):
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g, up_to_conjugacy=True)[0]
        r1 = regular_representation(g)
        r2 = trivial_representation(g)
        both = direct_sum_rep(r1, r2)
        a = wada_invariant(trefoil, f, r1).normalized
        b = wada_invariant(trefoil, f, r2).normalized
        c = wada_invariant(trefoil, f, both).normalized
        assert equal_up_to_unit(c, a * b)

    def test_row_identity(self, trefoil):
        # sum_j M(dr/dx_j) M(x_j - 1) = M(r) - I = 0 for each relator
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g, up_to_conjugacy=True)[0]
        rep = regular_representation(g)
        dim = rep.dimension
        zero = LaurentPolynomial.zero()
        for r in trefoil.relators:
            acc = PolyMatrix(dim, dim, tuple([zero] * (dim * dim)))
            for j in range(1, trefoil.generators + 1):
                dm = evaluate_rep_phi([[fox_derivative(r, j)]], f, rep,
                                      INTEGERS)
                xm = evaluate_rep_phi([[{(j,): 1, (): -1}]], f, rep,
                                      INTEGERS)
                prod = mat_mul(dm, xm)
                acc = PolyMatrix(dim, dim, tuple(
                    a + b for a, b in zip(acc.entries, prod.entries)))
            assert all(e.is_zero for e in acc.entries)


class TestFoxJacobian:
    def test_alexander_minor_is_the_trivial_representation_matrix(
            self, table):
        # abelianizing the Jacobian is evaluating it at the trivial
        # representation of the trivial group, for every dropped column
        from talex.groups import trivial_group
        g = trivial_group()
        knots = {k: table[k] for k in KNOTS}
        knots["4_1#4_1"] = connected_sum(table["4_1"], table["4_1"])
        knots["8_18#8_18"] = connected_sum(table["8_18"], table["8_18"])
        for name, pres in knots.items():
            f = Homomorphism(g, (0,) * pres.generators)
            for domain in (INTEGERS, prime_field(2), prime_field(5)):
                for j in range(1, pres.generators + 1):
                    oracle = determinant(evaluate_rep_phi(
                        fox_jacobian(pres, j), f, trivial_representation(g),
                        domain))
                    assert alexander_minor(pres, domain, j) == oracle, \
                        (name, domain, j)

    @pytest.mark.parametrize("knot,g,p", [
        ("8_18", alternating4(), 2), ("5_2", dp_semidirect_cp(7), 7)],
        ids=["A4-8_18#8_18", "D7sC7-5_2#5_2"])
    def test_one_pass_matches_the_block_assembly(self, table, knot, g, p):
        # the one-pass matrix of each factor against block_rows, which
        # evaluates one Fox derivative at a time and copies its entries
        pres = connected_sum(table[knot], table[knot])
        domain, rep = prime_field(p), regular_representation(g)
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        assert len(set(f.images)) > 1
        jacobian = fox_jacobian(pres)
        factors = rep.factors(p)
        for factor, _ in factors:
            assert evaluate_rep_phi(jacobian, f, factor, domain) == \
                PolyMatrix.from_rows(block_rows(
                    pres, f, factor, domain, pres.generators))
        num = wada_invariant(pres, f, rep, domain).numerator
        assert not num.is_zero
        assert num == split_numerator(pres, f, factors, domain)


class TestAlexanderPolynomial:
    def test_trefoil(self, trefoil):
        assert alexander_polynomial(trefoil) == poly([1, -1, 1])

    def test_unknot(self):
        assert alexander_polynomial(KnotPresentation(1, ())) == \
            LaurentPolynomial.one()

    def test_61_values(self, table):
        delta = alexander_polynomial(table["6_1"])
        assert abs(delta.evaluate(1)) == 1
        assert delta.evaluate(2) % 7 == 0


class TestTwistedMod:
    def test_trivial_rep_reduces(self, table):
        from talex.groups import trivial_group
        g = trivial_group()
        for name in ("3_1", "5_2"):
            pres = table[name]
            f = Homomorphism(g, tuple([0] * pres.generators))
            exact = wada_invariant(pres, f, trivial_representation(g))
            for p in (3, 7):
                modded = wada_invariant(pres, f, trivial_representation(g),
                                        prime_field(p))
                assert equal_up_to_unit(
                    modded.normalized,
                    rational_normalize(exact.normalized.reduce_mod(p)))

    def test_matches_reduction_of_exact(self, trefoil):
        g = dihedral(3)
        rep = regular_representation(g)
        f = find_meridional_surjections(trefoil, g, up_to_conjugacy=True)[0]
        exact = wada_invariant(trefoil, f, rep)
        for p in (3, 5, 7):
            den = reduce_mod(exact.denominator, p)
            if den.is_zero:
                continue
            modded = wada_invariant(trefoil, f, rep, prime_field(p))
            reduced = RationalFunction(reduce_mod(exact.numerator, p), den)
            assert equal_up_to_unit(modded.normalized,
                                    rational_normalize(reduced))

    def test_packed_fp_matches_integer_route(self, table):
        # the block matrices of the mod-p benchmark cases: the packed F_p
        # determinant against the packed ZZ one of the lifted matrix
        for name, group, p in (("8_18", alternating4(), 2),
                               ("6_1", metacyclic(3, 7, 2), 7),
                               ("4_1", dicyclic(5), 5)):
            pres, domain = table[name], prime_field(p)
            rep = regular_representation(group)
            f = find_meridional_surjections(pres, group,
                                            up_to_conjugacy=True)[0]
            rows = block_rows(pres, f, rep, domain, pres.generators)
            lifted = [[LaurentPolynomial(INTEGERS, e.min_exp, e.coeffs)
                       for e in row] for row in rows]
            got = determinant(PolyMatrix.from_rows(rows))
            assert not got.is_zero
            assert got == reduce_mod(
                determinant(PolyMatrix.from_rows(lifted)), p), name
            assert got == wada_invariant(pres, f, rep, domain).numerator

    @pytest.mark.parametrize("knot,group,p", [
        ("6_1", metacyclic(3, 7, 2), 100019),
        ("4_1", dicyclic(5), 1000037)], ids=["G(3,7|2)-6_1", "Dic5-4_1"])
    def test_large_prime_numerators_reduce_the_integer_ones(
            self, table, knot, group, p):
        # primes too large for 32-bit slots, where the F_p kernel widens
        # them; no character order of either split divides p - 1, so the
        # F_p factors are the integer ones
        pres = table[knot]
        homs = find_meridional_surjections(pres, group, up_to_conjugacy=True)
        exact = invariants(pres, group, homs)
        modded = invariants(pres, group, homs, prime_field(p))
        assert homs
        assert [r.numerator for r in modded] \
            == [reduce_mod(r.numerator, p) for r in exact]

    def test_conjugate_surjections_agree(self, trefoil):
        g = dihedral(3)
        rep = regular_representation(g)
        surj = find_meridional_surjections(trefoil, g)
        results = {wada_invariant(trefoil, f, rep, prime_field(3)).normalized
                   for f in surj}
        assert len(results) == 1

    def test_regular_denominators_never_vanish(self, trefoil):
        # det(t*P - I) is the product over the cycles of P of
        # (-1)^(len+1) (t^len - 1), nonzero over every domain.  The closed
        # form is checked against the determinant of the evaluated x - 1
        # for every element as the image, on the regular representation
        # and on regular + trivial (a fixed point beside the regular
        # cycles), and wada_invariant must return it for both dropped
        # generators of every surjection of the trefoil.
        for g in (dihedral(3), alternating4(), dicyclic(3),
                  direct_product(cyclic(2), cyclic(2)), cyclic(12)):
            regular = regular_representation(g)
            reps = (regular,
                    direct_sum_rep(regular, trivial_representation(g)))
            surjections = find_meridional_surjections(trefoil, g,
                                                      up_to_conjugacy=True)
            for domain in (INTEGERS, prime_field(2), prime_field(3)):
                for rep in reps:
                    for x in g.elements():
                        oracle = determinant(evaluate_rep_phi(
                            [[generator_minus_one(1)]], Homomorphism(g, (x,)),
                            rep, domain))
                        assert not oracle.is_zero
                        assert permutation_norm(
                            poly([-1, 1], domain=domain),
                            rep.perms[x]) == oracle, (g.name, x)
                for f in surjections:
                    for j in range(1, trefoil.generators + 1):
                        res = wada_invariant(trefoil, f, regular, domain,
                                             dropped_generator=j)
                        assert res.denominator == determinant(
                            evaluate_rep_phi([[generator_minus_one(j)]], f,
                                             regular, domain))


    def test_permutation_norm_matches_block_determinant(self, table):
        # det(a(t*P)) against the determinant of the evaluated matrix, for
        # a the Alexander minors and random Laurent polynomials, and P the
        # image of every element under regular + trivial: cycles of the
        # element's order beside a fixed point, so two cycle lengths
        rng = random.Random(2718)
        polys = [alexander_minor(table[k]) for k in ("5_2", "8_18")] + [
            LaurentPolynomial.make(
                INTEGERS, rng.randrange(-3, 2),
                [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 6))]
                + [rng.choice((2, -3, 1))])
            for _ in range(4)]
        for g in (cyclic(6), dihedral(3), alternating4()):
            rep = direct_sum_rep(regular_representation(g),
                                 trivial_representation(g))
            for domain in (INTEGERS, prime_field(2), prime_field(5)):
                for a in polys:
                    a = LaurentPolynomial.make(domain, a.min_exp, a.coeffs)
                    power = {(1,) * k if k >= 0 else (-1,) * -k: c
                             for k, c in enumerate(a.coeffs, a.min_exp)}
                    for x in g.elements():
                        oracle = determinant(evaluate_rep_phi(
                            [[power]], Homomorphism(g, (x,)), rep, domain))
                        assert permutation_norm(a, rep.perms[x]) == oracle, \
                            (g.name, x, domain, a)


# (group, knot, modulus) whose surjections fall into fewer automorphism
# classes than there are surjections up to conjugacy
AUDIT_CASES = [
    (alternating4(), "8_18", 2),
    (dicyclic(5), "4_1", 5),
    (metacyclic(3, 7, 2), "6_1", 7),
    (d3_semidirect_c3(), "8_18", 3),
] + [(cyclic(n), knot, None) for n in (7, 12) for knot in KNOTS]


class TestInvariants:
    @pytest.mark.parametrize(
        "g,knot,p", AUDIT_CASES,
        ids=[f"{g.name}-{k}-{p}" for g, k, p in AUDIT_CASES])
    def test_members_share_class_result(self, table, g, knot, p):
        # one result per surjection, in order; the members of a class
        # share one object, so distinct objects count the Wada runs
        pres = table[knot]
        domain = CoefficientDomain(p)
        homs = find_meridional_surjections(pres, g, up_to_conjugacy=True)
        results = invariants(pres, g, homs, domain)
        assert len(results) == len(homs)
        classes = regular_equivalence_classes(homs)
        position = {f.images: i for i, f in enumerate(homs)}
        for cls in classes:
            first = results[position[cls[0].images]]
            assert all(results[position[f.images]] is first for f in cls)
        assert len({id(res) for res in results}) == len(classes) < len(homs)
        # audit: evaluate every member directly; the unreduced numerator
        # and denominator and the dropped generator must equal its
        # result, not only up to a unit
        rep = regular_representation(g)
        for f, res in zip(homs, results):
            own = wada_invariant(pres, f, rep, domain)
            assert own.numerator == res.numerator, f.images
            assert own.denominator == res.denominator, f.images
            assert own.dropped_generator == res.dropped_generator


def split_numerator(pres, f, factors, domain):
    """The product of the factors' block determinants, each raised to its
    multiplicity, x_m dropped."""
    num = LaurentPolynomial.one(domain)
    for factor, multiplicity in factors:
        num = num * determinant(PolyMatrix.from_rows(block_rows(
            pres, f, factor, domain, pres.generators))) ** multiplicity
    return num


def abelian_pairs(g):
    """One (a, b) per conjugacy class of subgroups <a> x <b> of g: a and b
    commute and <a> & <b> = {e}; b = e gives the cyclic subgroups and a =
    b = e the trivial one."""
    pairs, seen = [], set()
    for a in g.elements():
        powers_a = g.subgroup_generated((a,))
        for b in g.elements():
            if g.mul(a, b) != g.mul(b, a) or len(
                    powers_a & g.subgroup_generated((b,))) != 1:
                continue
            sub = g.subgroup_generated((a, b))
            if sub not in seen:
                seen.update(frozenset(g.conjugate(y, x) for y in sub)
                            for x in g.elements())
                pairs.append((a, b))
    return pairs


def galois_orbit_factors(g, a, b):
    """Oracle for FiniteGroup.regular_factors without the normalizer merge:
    one factor Ind_H^G Q(chi) per Galois orbit of characters chi of H =
    <a> x <b>, each built element by element from its coset
    decomposition."""
    ha, hb = g.element_order(a), g.element_order(b)
    big = math.lcm(ha, hb)
    coords = {g.mul(g.power(a, u), g.power(b, v)): (u, v)
              for u in range(ha) for v in range(hb)}
    reps = []
    for x in g.elements():
        if all(g.mul(g.inv(r), x) not in coords for r in reps):
            reps.append(x)

    def decompose(y):  # y = reps[i] * a^u b^v
        i = next(i for i, r in enumerate(reps)
                 if g.mul(g.inv(r), y) in coords)
        return (i,) + coords[g.mul(g.inv(reps[i]), y)]

    factors, seen = [], set()
    for al in range(0, big, big // ha):
        for be in range(0, big, big // hb):
            if (al, be) in seen:
                continue
            seen |= {(k * al % big, k * be % big) for k in range(big)
                     if math.gcd(k, big) == 1}
            d = big // math.gcd(big, al, be)
            cols = [[decompose(g.mul(x, r)) for r in reps]
                    for x in g.elements()]
            factors.append(MatrixRep(
                g, int(totient(d)) * len(reps),
                tuple(tuple(i for i, _, _ in col) for col in cols),
                tuple(tuple((al * u + be * v) * d // big % d
                            for _, u, v in col) for col in cols), d))
    return factors


class TestCyclotomicSplit:
    @pytest.mark.parametrize("p", [2, 3])
    def test_numerator_is_the_block_determinant_mod_p(self, table, p):
        # every catalog group and bundled knot that reaches the generic
        # route, one surjection per automorphism class: the product of the
        # factor determinants against the full |G|-block matrix
        domain, checked = prime_field(p), 0
        for name, g, _ in catalog_under_24():
            rep = regular_representation(g)
            for knot in KNOTS:
                pres = table[knot]
                homs = find_meridional_surjections(pres, g,
                                                   up_to_conjugacy=True)
                for cls in regular_equivalence_classes(homs):
                    f = cls[0]
                    if len(set(f.images)) == 1:
                        continue
                    oracle = determinant(PolyMatrix.from_rows(block_rows(
                        pres, f, rep, domain, pres.generators)))
                    assert wada_invariant(pres, f, rep, domain).numerator \
                        == oracle, (name, knot)
                    checked += 1
        assert checked == 41

    def test_numerator_is_the_block_determinant_over_integers(self, table):
        for g in (dihedral(3), dihedral(5), dicyclic(3), alternating4()):
            rep = regular_representation(g)
            for knot in KNOTS:
                pres = table[knot]
                homs = find_meridional_surjections(pres, g,
                                                   up_to_conjugacy=True)
                for cls in regular_equivalence_classes(homs):
                    f = cls[0]
                    oracle = determinant(PolyMatrix.from_rows(block_rows(
                        pres, f, rep, INTEGERS, pres.generators)))
                    assert wada_invariant(pres, f, rep).numerator == oracle, \
                        (g.name, knot, f.images)

    def test_numerator_on_a_connected_sum(self, table):
        # 4_1 # 4_1 onto D5sC5 mod 5: the 100 x 100 block matrix against
        # the split along C5 x C5, a 2 x 2 trivial factor and six 8 x 8
        # ones, one per Galois orbit of nontrivial characters
        pres = connected_sum(table["4_1"], table["4_1"])
        g, domain = dp_semidirect_cp(5), prime_field(5)
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        rep = regular_representation(g)
        assert [(r.dimension, r.cyclotomic, k) for r, k in rep.factors()] \
            == [(2, 1, 1)] + [(8, 5, 1)] * 6
        oracle = determinant(PolyMatrix.from_rows(
            block_rows(pres, f, rep, domain, pres.generators)))
        assert not oracle.is_zero
        assert wada_invariant(pres, f, rep, domain).numerator == oracle

    def test_numerator_of_d7sc7_against_the_cyclic_split(self, table):
        # 5_2 # 5_2 onto D7sC7 mod 7: the split along C7 x C7 (nine
        # determinants of at most 24 rows) against the best cyclic split,
        # along an involution (two determinants of 98 rows)
        pres = connected_sum(table["5_2"], table["5_2"])
        g, domain = dp_semidirect_cp(7), prime_field(7)
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        rep = regular_representation(g)
        assert [(r.dimension, k) for r, k in rep.factors()] \
            == [(2, 1)] + [(12, 1)] * 8
        cyclic_split = g.regular_factors((g.label("c"),))
        assert [(r.dimension, k) for r, k in cyclic_split] == [(49, 1)] * 2
        oracle = split_numerator(pres, f, cyclic_split, domain)
        assert not oracle.is_zero
        assert wada_invariant(pres, f, rep, domain).numerator == oracle

    @pytest.mark.parametrize("g,knot,domain,subgroups", [
        (alternating4(), "8_18", prime_field(2), 4),  # 1, C2, C3, V4
        (dicyclic(5), "7_4", prime_field(5), 5),  # 1, C2, C4, C5, C10
        (metacyclic(3, 7, 2), "6_1", prime_field(7), 3),  # 1, C3, C7
        (dihedral(3), "3_1", INTEGERS, 3),  # 1, C2, C3
        # 1, C2, three classes of C3, C6 and C3 x C3
        (direct_product(dihedral(3), cyclic(3)), "3_1", INTEGERS, 7),
    ], ids=["A4-8_18-2", "Dic5-7_4-5", "G(3,7|2)-6_1-7", "D3-3_1-ZZ",
            "D3xC3-3_1-ZZ"])
    def test_choice_of_element_does_not_matter(self, table, g, knot,
                                               domain, subgroups):
        # every <a> x <b> up to conjugacy, cyclic and trivial ones included:
        # the factors are representations with the right blocks, their
        # dimensions with multiplicity add up to |G|, and the numerator is
        # the full |G|-block determinant
        pres = table[knot]
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        expected = determinant(PolyMatrix.from_rows(block_rows(
            pres, f, regular_representation(g), domain, pres.generators)))
        x = symbols("x")
        pairs = abelian_pairs(g)
        assert len(pairs) == subgroups
        for a, b in pairs:
            factors = g.regular_factors((a, b))
            assert sum(r.dimension * k for r, k in factors) == g.order
            index = g.order // (g.element_order(a) * g.element_order(b))
            assert all(r.dimension == totient(r.cyclotomic) * index
                       for r, _ in factors)
            assert [r.cyclotomic for r, _ in factors] \
                == sorted(r.cyclotomic for r, _ in factors)
            for factor, _ in factors:
                factor.validate()
                d, perms, exps = factor.cyclotomic, factor.perms, \
                    factor.exponents
                # the blocks: x^e mod Phi_d is the e-th power of the
                # companion matrix of sympy's Phi_d
                companion = Matrix.zeros(totient(d))
                phi = Poly(cyclotomic_poly(d, x), x).all_coeffs()[::-1]
                for i in range(1, totient(d)):
                    companion[i, i - 1] = 1
                for i in range(totient(d)):
                    companion[i, totient(d) - 1] = -phi[i]
                residues = cyclotomic_residues(d)
                for e in range(d):
                    assert Matrix(residues[e]) == (companion ** e)[:, 0]
                # rho(gh) = rho(g) rho(h) on all pairs: block column j of
                # the product is x^(e_h(j) + e_g(s_h(j))) in block row
                # s_g(s_h(j)), and x^d = 1 on ZZ[x]/Phi_d
                for u in g.elements():
                    for v in g.elements():
                        uv = g.mul(u, v)
                        assert perms[uv] == tuple(perms[u][i]
                                                  for i in perms[v])
                        assert all(
                            (exps[uv][j] - exps[v][j] - exps[u][i]) % d == 0
                            for j, i in enumerate(perms[v]))
            assert split_numerator(pres, f, factors, domain) == expected, \
                (a, b)

    @pytest.mark.parametrize("g,knot,pair,merged,unmerged", [
        (alternating4(), "8_18",  # V4, from two commuting involutions
         lambda g: (g.label("b"), g.conjugate(g.label("b"), g.label("a"))),
         [(3, 1), (3, 3)], 4),
        (direct_product(dihedral(3), cyclic(3)), "3_1",  # C3 x C3
         lambda g: (g.label("a"), g.label("a'")),
         [(2, 1), (4, 1), (4, 1), (4, 2)], 5),
    ], ids=["A4-8_18", "D3xC3-3_1"])
    @pytest.mark.parametrize("domain", [INTEGERS, prime_field(2)],
                             ids=["ZZ", "F2"])
    def test_normalizer_merge(self, table, g, knot, pair, merged, unmerged,
                              domain):
        # the merged split, one determinant per normalizer orbit raised to
        # its size, against one determinant per Galois orbit, built by the
        # oracle; the automatic choice is this split
        a, b = pair(g)
        factors = g.regular_factors((a, b))
        assert [(r.dimension, k) for r, k in factors] == merged
        assert [(r.dimension, k) for r, k in g.regular_factors()] == merged
        oracle = galois_orbit_factors(g, a, b)
        assert len(oracle) == unmerged
        assert sorted((r.dimension, r.cyclotomic) for r in oracle) == sorted(
            (r.dimension, r.cyclotomic) for r, k in factors for _ in range(k))
        pres = table[knot]
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        assert len(set(f.images)) > 1
        num = split_numerator(pres, f, factors, domain)
        assert not num.is_zero
        assert num == split_numerator(pres, f, [(r, 1) for r in oracle],
                                      domain)
        assert wada_invariant(pres, f, regular_representation(g),
                              domain).numerator == num


# every catalog group of order < 24, and D5sC5, with the primes p <= 13 at
# which some factor of its regular representation splits into characters
# with values in F_p (a d > 2 with d | p - 1)
SPLIT_PRIMES = {
    "C3": (7, 13), "C4": (5, 13), "C5": (11,), "C6": (7, 13),
    "C8": (5, 13), "C9": (7, 13), "C10": (11,), "C12": (5, 7, 13),
    "C15": (7, 11, 13), "C16": (5, 13), "C18": (7, 13), "C20": (5, 11, 13),
    "C21": (7, 13), "D3xC3": (7, 13), "G(4,5|2)": (5, 13),
    "G(3,7|2)": (7, 13), "Dic3": (7, 13), "Dic5": (11,), "D3sC3": (7, 13),
    "D5sC5": (11,),
}
SPLIT_GROUPS = [g for _, g, _ in catalog_under_24()] + [dp_semidirect_cp(5)]
SPLIT_CASES = [(g, p) for g in SPLIT_GROUPS
               for p in SPLIT_PRIMES.get(g.name, ())]


@pytest.fixture(scope="module")
def split_knots(table):
    """The bundled knots and 4_1 # 4_1, the one that maps onto D5sC5."""
    return {**{k: table[k] for k in KNOTS},
            "4_1#4_1": connected_sum(table["4_1"], table["4_1"])}


class TestCharacterSplit:
    def test_split_primes(self):
        # the table above is exactly where a split happens
        found = {}
        for g in SPLIT_GROUPS:
            for p in (2, 3, 5, 7, 11, 13):
                if g.regular_factors(p=p) != g.regular_factors():
                    found[g.name] = found.get(g.name, ()) + (p,)
        assert found == SPLIT_PRIMES

    @pytest.mark.parametrize("g,p", SPLIT_CASES,
                             ids=[f"{g.name}-{p}" for g, p in SPLIT_CASES])
    def test_numerator_is_bit_identical(self, split_knots, g, p):
        # every surjection up to conjugacy: the product over the F_p
        # factors, and wada_invariant over F_p, against the product over
        # the unsplit factors evaluated over F_p and the reduction of the
        # integer numerator; the last two are computed once per
        # automorphism class, whose members' numerators agree exactly
        # (TestInvariants audits that)
        domain, rep, checked = prime_field(p), regular_representation(g), 0
        split, unsplit = g.regular_factors(p=p), g.regular_factors()
        assert split != unsplit
        for knot, pres in split_knots.items():
            homs = find_meridional_surjections(pres, g, up_to_conjugacy=True)
            for cls in regular_equivalence_classes(homs):
                oracle = split_numerator(pres, cls[0], unsplit, domain)
                assert oracle == reduce_mod(
                    wada_invariant(pres, cls[0], rep).numerator, p), knot
                for f in cls:
                    assert split_numerator(pres, f, split, domain) == oracle \
                        == wada_invariant(pres, f, rep, domain).numerator, \
                        (knot, f.images)
                    checked += 1
        assert checked

    def test_split_factor_needs_its_field(self, table):
        # a factor with the root (2, 7) has entries in F_7 only
        g = metacyclic(3, 7, 2)
        chi = g.regular_factors(p=7)[1][0]
        f = find_meridional_surjections(table["6_1"], g,
                                        up_to_conjugacy=True)[0]
        word = {(1,): 1}
        assert evaluate_rep_phi([[word]], f, chi, prime_field(7)).rows == 7
        for domain in (INTEGERS, prime_field(13)):
            with pytest.raises(ValueError, match="F_7"):
                evaluate_rep_phi([[word]], f, chi, domain)


FACTOR_CASES = [(g, p) for _, g, p in catalog_under_24()] \
    + [(dp_semidirect_cp(5), 5)]


@pytest.fixture(scope="module")
def norm_knots(table):
    """(knot, presentation, classes): the bundled knots and 4_1 # 4_1,
    which maps onto D5sC5, on every automorphism class, and 8_18 # 8_18 on
    its first class, since it has up to 130 classes."""
    return [(k, table[k], None) for k in KNOTS] + [
        ("4_1#4_1", connected_sum(table["4_1"], table["4_1"]), None),
        ("8_18#8_18", connected_sum(table["8_18"], table["8_18"]), 1)]


class TestFactorNorms:
    @pytest.mark.parametrize("g,p", FACTOR_CASES,
                             ids=[g.name for g, _ in FACTOR_CASES])
    def test_norms_and_product_match_the_eliminations(self, norm_knots, g,
                                                      p):
        # over ZZ and the case's F_p: a permutation factor whose images
        # coincide must give the norm of the Alexander minor over that
        # map, against the elimination of its block matrix; wada_invariant
        # on the unsplit regular representation must give the product of
        # the factors' eliminations when every factor has at most 20 rows
        # (the integer eliminations of larger ones take seconds)
        rep, classes, checked = regular_representation(g), 0, 0
        for domain in dict.fromkeys((INTEGERS, CoefficientDomain(p))):
            for knot, pres, limit in norm_knots:
                jacobian = fox_jacobian(pres)
                minor = alexander_minor(pres, domain, pres.generators)
                homs = find_meridional_surjections(pres, g,
                                                   up_to_conjugacy=True)
                for cls in regular_equivalence_classes(homs)[:limit]:
                    f, product = cls[0], LaurentPolynomial.one(domain)
                    normed = 0
                    for factor, multiplicity in rep.factors(domain.p):
                        maps = {factor.perms[x] for x in f.images}
                        normable = factor.cyclotomic == 1 and len(maps) == 1
                        if not normable and \
                                len(jacobian) * factor.dimension > 20:
                            product = None
                            continue
                        oracle = determinant(evaluate_rep_phi(
                            jacobian, f, factor, domain))
                        if normable:
                            assert permutation_norm(minor, maps.pop()) \
                                == oracle, (knot, domain, f.images)
                            normed += 1
                        if product is not None:
                            product = product * oracle ** multiplicity
                    if product is not None:
                        assert product == wada_invariant(
                            pres, f, rep, domain).numerator, \
                            (knot, domain, f.images)
                    classes += 1
                    checked += bool(normed or product is not None)
        # the dihedral and metacyclic groups split along a subgroup whose
        # cosets the meridians permute in several ways, so none of their
        # factors is normed, but each of their classes checks the product
        assert checked == classes

    def test_a4_on_8_18_mod_2_runs_five_determinants(self, table,
                                                     monkeypatch):
        # the factor of A4 on A4/V4 = C3 sends every meridian to one
        # 3-cycle, so of its two factors only the 6-row one of the
        # nontrivial characters of V4 is eliminated, once per class
        import talex.twisted
        pres, g, domain = table["8_18"], alternating4(), prime_field(2)
        homs = find_meridional_surjections(pres, g, up_to_conjugacy=True)
        calls = []

        def spy(m):
            calls.append((m.domain, m.rows))
            return determinant(m)

        monkeypatch.setattr(talex.twisted, "determinant", spy)
        invariants(pres, g, homs, domain)
        assert len(regular_equivalence_classes(homs)) == 5
        assert calls == [(domain, 6)] * 5

    def test_each_word_is_evaluated_once_per_surjection(self, table,
                                                        monkeypatch):
        # Dic5 mod 5 on 7_4 eliminates three factors; each distinct word
        # of the Fox Jacobian is evaluated once for all of them
        import talex.twisted
        pres, g = table["7_4"], dicyclic(5)
        f = find_meridional_surjections(pres, g, up_to_conjugacy=True)[0]
        jacobian = fox_jacobian(pres)
        words = {w for row in jacobian for element in row for w in element}
        real, evaluated = talex.twisted.evaluate_word, []

        def spy(group, images, word):
            evaluated.append(word)
            return real(group, images, word)

        monkeypatch.setattr(talex.twisted, "evaluate_word", spy)
        wada_invariant(pres, f, regular_representation(g), prime_field(5))
        assert sorted(evaluated) == sorted(words)
