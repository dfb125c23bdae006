"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline).

Two assertions are known-unattainable and marked strict xfail: the worked
order-18 example needs a surjection of the trefoil group onto D_9, and
none exists - the double branched cover of 3_1 has first homology Z/3,
so no homomorphic image of the knot group can contain a 9-element
rotation subgroup (confirmed here by exhaustive enumeration of all 18^3
generator assignments).  Companion tests verify the intended values
through honest routes: the worked value is the invariant of the D_3
surjection composed with the inclusion D_3 -> D_9, and the q = 9
congruence itself is checked on 6_1, whose group genuinely surjects
onto D_9.
"""

import random
import time

import pytest

from conftest import dense_rep_phi, poly
from paper_lemmas import (
    a_matrix,
    brute_force_surjections,
    check_dihedral_conjugation,
    check_dihedral_lemma,
    check_euler_finite_difference,
    check_lucas,
    check_metacyclic_lemma,
    check_pascal,
    check_vandermonde,
    determinant_cofactor,
    direct_sum_rep,
    ring_add,
    substitute_scale,
    tau_a,
    tau_b,
    trivial_representation,
)
from talex.algebra import (
    INTEGERS,
    LaurentPolynomial,
    PolyMatrix,
    RationalFunction,
    determinant,
    equal_up_to_unit,
    prime_field,
    product_over_roots_of_unity,
    rational_normalize,
)
from talex.groups import (
    alternating4,
    cyclic,
    dicyclic,
    dihedral,
    regular_representation,
)
from talex.homsearch import (
    Homomorphism,
    find_meridional_surjections,
)
from talex.knots import fox_derivative, free_reduce
from talex.theorems import make_case, sweep_nonvanishing, verify_congruence
from talex.twisted import alexander_polynomial, wada_invariant

GOLDEN_D9_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="no surjection G(3_1) -> D_9 exists: H_1 of the trefoil's "
           "double branched cover is Z/3, so no image contains the "
           "9-element rotation subgroup; verified by exhaustive "
           "enumeration of all 18^3 assignments")


def report(criterion: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] {criterion}{suffix}")
    return ok


def golden_exact_value():
    tp1, tm1 = poly([1, 1]), poly([-1, 1])
    f6, f3 = poly([1, -1, 1]), poly([1, 1, 1])
    return RationalFunction.of((tp1 ** 3) * (f6 ** 3) * (tm1 ** 3)
                               * (f3 ** 3))


def golden_mod3_value():
    F3 = prime_field(3)
    return RationalFunction.of(
        (poly([1, 1], domain=F3) ** 9) * (poly([-1, 1], domain=F3) ** 9))


class TestCriterion1Golden:
    @GOLDEN_D9_XFAIL
    def test_golden_example_as_stated(self, trefoil):
        start = time.perf_counter()
        d9 = dihedral(9)
        surjections = find_meridional_surjections(trefoil, d9,
                                                  up_to_conjugacy=True)
        ok = bool(surjections)
        if surjections:
            rep = regular_representation(d9)
            exact = wada_invariant(trefoil, surjections[0], rep)
            ok = ok and equal_up_to_unit(exact.normalized,
                                         golden_exact_value())
            mod3 = wada_invariant(trefoil, surjections[0], rep,
                                  prime_field(3))
            ok = ok and equal_up_to_unit(mod3.normalized, golden_mod3_value())
        elapsed = time.perf_counter() - start
        report("criterion 1: golden order-18 example via compute",
               ok, f"{elapsed:.1f} s")
        assert ok
        assert elapsed < 30

    def test_golden_values_via_honest_routes(self, trefoil, table):
        # (a) the worked value is the invariant of the D_3 surjection
        # composed with the inclusion into D_9
        start = time.perf_counter()
        d3, d9 = dihedral(3), dihedral(9)
        f3 = find_meridional_surjections(trefoil, d3,
                                         up_to_conjugacy=True)[0]
        fhat = Homomorphism(
            d9, tuple(3 * x if x < 3 else 9 + 3 * (x - 3)
                      for x in f3.images))
        rep = regular_representation(d9)
        exact = wada_invariant(trefoil, fhat, rep)
        ok = equal_up_to_unit(exact.normalized, golden_exact_value())
        mod3 = wada_invariant(trefoil, fhat, rep, prime_field(3))
        ok = ok and equal_up_to_unit(mod3.normalized, golden_mod3_value())
        # (b) the q = 9 congruence holds where a surjection really exists
        rec = verify_congruence(table["6_1"], "6_1",
                                make_case("dihedral", p=3, n=2))
        ok = ok and rec.surjections_found > 0 and rec.all_verified
        elapsed = time.perf_counter() - start
        report("criterion 1 (companion): worked values via the D3 "
               "composite and via 6_1", ok, f"{elapsed:.1f} s")
        assert ok
        assert elapsed < 30


class TestCriterion2CyclicExactness:
    def test_cyclic_exactness(self, table):
        start = time.perf_counter()
        ok = True
        for name in sorted(table):
            pres = table[name]
            delta = alexander_polynomial(pres)
            for n in range(1, 7):
                g = cyclic(n)
                rep = regular_representation(g)
                rhs_val = RationalFunction(
                    product_over_roots_of_unity(delta, n),
                    product_over_roots_of_unity(poly([-1, 1]), n))
                for f in find_meridional_surjections(
                        pres, g, up_to_conjugacy=True):
                    res = wada_invariant(pres, f, rep, INTEGERS)
                    if not equal_up_to_unit(res.normalized, rhs_val):
                        ok = False
        elapsed = time.perf_counter() - start
        report("criterion 2: exact cyclic identity, all knots, n = 1..6",
               ok, f"{elapsed:.1f} s")
        assert ok
        assert elapsed < 60


class TestCriterion3Dihedral:
    def test_congruences_where_search_succeeds(self, table):
        start = time.perf_counter()
        pairs = [("3_1", 3, 1), ("3_1", 3, 2), ("6_1", 3, 1), ("7_4", 3, 1)]
        ok = True
        found_any = False
        for name, p, n in pairs:
            rec = verify_congruence(table[name], name,
                                    make_case("dihedral", p=p, n=n))
            if rec.surjections_found:
                found_any = True
                ok = ok and rec.all_verified
        ok = ok and found_any
        elapsed = time.perf_counter() - start
        report("criterion 3: dihedral congruences on the stated pairs",
               ok, f"{elapsed:.1f} s")
        assert ok
        assert elapsed < 120

    @GOLDEN_D9_XFAIL
    def test_search_succeeds_for_trefoil_d9(self, trefoil):
        surjections = find_meridional_surjections(trefoil, dihedral(9),
                                                  up_to_conjugacy=True)
        ok = report("criterion 3: the (3_1, q=9) search succeeds",
                    bool(surjections))
        assert ok


class TestCriterion4MetacyclicDicyclic:
    def test_sweep(self, table):
        start = time.perf_counter()
        cases = [make_case("metacyclic", m=3, p=7, k=2),
                 make_case("metacyclic", m=4, p=5, k=2),
                 make_case("dicyclic", p=3),
                 make_case("dicyclic", p=5)]
        ok = True
        total_found = 0
        for case in cases:
            for name in sorted(table):
                rec = verify_congruence(table[name], name, case)
                total_found += rec.surjections_found
                ok = ok and rec.all_verified
        ok = ok and total_found > 0  # non-vacuous, e.g. 6_1 onto G(3,7|2)
        elapsed = time.perf_counter() - start
        report("criterion 4: metacyclic and dicyclic sweeps",
               ok, f"{total_found} surjections, {elapsed:.1f} s")
        assert ok
        assert elapsed < 300


class TestCriterion5Nonvanishing:
    def test_order_under_24_sweep(self, table):
        start = time.perf_counter()
        records = sweep_nonvanishing(table)
        ok = all(r.all_nonzero for r in records)
        computed = sum(r.classes_computed for r in records)
        elapsed = time.perf_counter() - start
        report("criterion 5: order-<24 nonvanishing sweep", ok,
               f"{len(records)} pairs, {computed} invariants, "
               f"{elapsed:.0f} s")
        assert ok
        assert elapsed < 600


class TestCriterion6SmallNonabelian:
    def test_a4_and_d3c3_sweeps(self, table):
        start = time.perf_counter()
        ok = True
        found = 0
        for case in (make_case("a4"), make_case("d3c3")):
            for name in sorted(table):
                rec = verify_congruence(table[name], name, case)
                found += rec.surjections_found
                ok = ok and rec.all_verified
        elapsed = time.perf_counter() - start
        report("criterion 6: A4 (mod 2) and D3xC3 semidirect (mod 3)",
               ok, f"{found} surjections, {elapsed:.0f} s")
        assert ok


class TestCriterion7Identities:
    def test_identity_suites(self):
        start = time.perf_counter()
        ok = True
        for p in (2, 3, 5, 7):
            ok = ok and check_lucas(p, 3 * p * p)
        limit = 3 * 7 * 7
        ok = ok and check_pascal(limit)
        ok = ok and check_vandermonde(limit)
        ok = ok and check_euler_finite_difference(limit)
        for p, n in ((3, 1), (3, 2), (5, 1), (7, 1)):
            ok = ok and check_dihedral_lemma(p, n)
            ok = ok and check_dihedral_conjugation(p, n)
        for p in (3, 5, 7):
            ok = ok and check_metacyclic_lemma(p)
        # the worked q = 9 matrices, entry for entry
        from test_theorems import A_32, TAU_A_32, TAU_B_32
        ok = ok and a_matrix(3, 2) == A_32
        ok = ok and tau_a(3, 2) == TAU_A_32 and tau_b(3, 2) == TAU_B_32
        elapsed = time.perf_counter() - start
        report("criterion 7: binomial identity and conjugation suites",
               ok, f"{elapsed:.1f} s")
        assert ok
        assert elapsed < 60


def _ring_mul_letter(elem, letter):
    out = {}
    for w, c in elem.items():
        key = free_reduce(w + (letter,))
        out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


def _meridian_twisted_invariant(pres, f, rep, p, scale):
    """Wada's quotient over F_p for rho.f tensor (x -> scale * t) on every
    meridian, assembled from the dense oracle dense_rep_phi and dropping
    x_m; the scalar twist should substitute t -> scale*t."""
    domain = prime_field(p)
    m, dim = pres.generators, rep.dimension
    rows = []
    for r in pres.relators:
        blocks = [dense_rep_phi(fox_derivative(r, j), f, rep, domain, scale)
                  for j in range(1, m)]
        rows.extend([b.entry(i, jj) for b in blocks for jj in range(dim)]
                    for i in range(dim))
    den = dense_rep_phi({(m,): 1, (): -1}, f, rep, domain, scale)
    return rational_normalize(RationalFunction(
        determinant(PolyMatrix.from_rows(rows)), determinant(den)))


class TestCriterion8Properties:
    def test_fox_fundamental_identity_1000(self):
        start = time.perf_counter()
        rng = random.Random(12345)
        ok = True
        for _ in range(1000):
            w = free_reduce(tuple(
                rng.choice([1, -1, 2, -2, 3, -3, 4, -4])
                for _ in range(rng.randrange(0, 14))))
            total = {}
            for j in range(1, 5):
                d = fox_derivative(w, j)
                total = ring_add(total, _ring_mul_letter(d, j))
                total = ring_add(total, {k: -c for k, c in d.items()})
            if total != ring_add({w: 1}, {(): -1}):
                ok = False
        report("criterion 8a: Fox fundamental identity, 1000 random words",
               ok, f"{time.perf_counter() - start:.1f} s")
        assert ok

    def test_dropped_generator_invariance(self, table):
        start = time.perf_counter()
        groups = [cyclic(6), dihedral(3), dihedral(5), dicyclic(3),
                  alternating4()]
        ok = True
        checked = 0
        for name in sorted(table):
            pres = table[name]
            for g in groups:
                surj = find_meridional_surjections(pres, g,
                                                   up_to_conjugacy=True)
                if not surj:
                    continue
                f = surj[0]
                rep = regular_representation(g)
                use_mod = (pres.generators - 1) * g.order > 40
                domain = prime_field(5) if use_mod else INTEGERS
                values = [wada_invariant(pres, f, rep, domain,
                                         dropped_generator=j).normalized
                          for j in range(1, pres.generators + 1)]
                checked += 1
                ok = ok and all(equal_up_to_unit(values[0], v)
                                for v in values[1:])
        report("criterion 8b: dropped-generator invariance (order <= 12)",
               ok, f"{checked} (knot, group) pairs, "
                   f"{time.perf_counter() - start:.0f} s")
        assert ok

    def test_direct_sum_and_scalar_twist(self, trefoil):
        g = dihedral(3)
        f = find_meridional_surjections(trefoil, g, up_to_conjugacy=True)[0]
        r1, r2 = regular_representation(g), trivial_representation(g)
        both = direct_sum_rep(r1, r2)
        ok = equal_up_to_unit(
            wada_invariant(trefoil, f, both).normalized,
            wada_invariant(trefoil, f, r1).normalized
            * wada_invariant(trefoil, f, r2).normalized)
        # 2 has order 4 mod 5, so t -> 2t moves 4t^6 + 1; a scale of order
        # dividing 6 would fix this polynomial in t^6 and prove nothing
        plain = wada_invariant(trefoil, f, r1, prime_field(5)).normalized
        twisted = _meridian_twisted_invariant(trefoil, f, r1, 5, 2)
        ok = ok and not equal_up_to_unit(twisted, plain)
        ok = ok and equal_up_to_unit(twisted, RationalFunction(
            substitute_scale(plain.numerator, 2),
            substitute_scale(plain.denominator, 2)))
        report("criterion 8c: direct-sum multiplicativity and scalar twist",
               ok)
        assert ok

    def test_determinant_cofactor_500(self):
        start = time.perf_counter()
        rng = random.Random(777)
        domains = [INTEGERS, prime_field(3), prime_field(5)]
        ok = True
        for trial in range(500):
            domain = domains[trial % 3]
            n = rng.randrange(1, 5)
            rows = []
            for _ in range(n):
                row = []
                for _ in range(n):
                    deg = rng.randrange(0, 3)
                    row.append(LaurentPolynomial.make(
                        domain, rng.randrange(-2, 3),
                        [rng.randrange(-4, 5) for _ in range(deg + 1)]))
                rows.append(row)
            m = PolyMatrix.from_rows(rows)
            if determinant(m) != determinant_cofactor(m):
                ok = False
        report("criterion 8d: determinant vs cofactor, 500 matrices",
               ok, f"{time.perf_counter() - start:.1f} s")
        assert ok

    def test_homsearch_vs_bruteforce(self, table):
        start = time.perf_counter()
        groups = [cyclic(5), cyclic(12), dihedral(3), dihedral(5),
                  dicyclic(3), alternating4()]
        ok = True
        for name in sorted(table):
            pres = table[name]
            for g in groups:
                fast = find_meridional_surjections(pres, g)
                if fast != brute_force_surjections(pres, g):
                    ok = False
        report("criterion 8e: homsearch equals brute force (order <= 12)",
               ok, f"{time.perf_counter() - start:.0f} s")
        assert ok


class TestCriterion9ConjectureHarness:
    def test_p3_reproduces_d3c3(self, table):
        start = time.perf_counter()
        ok = True
        for name in sorted(table):
            a = verify_congruence(table[name], name, make_case("d3c3"))
            b = verify_congruence(table[name], name,
                                  make_case("conjecture", p=3))
            ok = ok and a.surjections_found == b.surjections_found
            ok = ok and a.verdicts == b.verdicts
            norms = sorted(str(rational_normalize(x)) for x in a.lhs)
            ok = ok and norms == sorted(str(rational_normalize(x))
                                        for x in b.lhs)
        report("criterion 9a: conjecture case at p = 3 reproduces the "
               "proven order-18 result",
               ok, f"{time.perf_counter() - start:.0f} s")
        assert ok

    def test_p5_harness_completes(self, table):
        start = time.perf_counter()
        case = make_case("conjecture", p=5)
        outcomes = []
        for name in ("3_1", "4_1", "7_4"):
            rec = verify_congruence(table[name], name, case)
            if rec.vacuous:
                outcomes.append(f"{name}: no surjection")
            else:
                verdict = "holds" if rec.all_verified else \
                    "COUNTEREXAMPLE CANDIDATE"
                outcomes.append(
                    f"{name}: {rec.surjections_found} surjection(s), "
                    f"conjecture {verdict}")
        elapsed = time.perf_counter() - start
        report("criterion 9b: conjecture harness at p = 5 (order 50)",
               True, "; ".join(outcomes) + f"; {elapsed:.0f} s")
        assert elapsed < 1800
