import itertools

import pytest

from conftest import poly
from paper_lemmas import (
    a_matrix,
    binomial,
    check_dihedral_conjugation,
    check_dihedral_lemma,
    check_euler_finite_difference,
    check_lucas,
    check_metacyclic_lemma,
    check_metacyclic_triangularization,
    check_pascal,
    check_vandermonde,
    substitute_scale,
    tau_a,
    tau_b,
)
from talex.algebra import (
    INTEGERS,
    LaurentPolynomial,
    RationalFunction,
    coefficient_cell,
    equal_up_to_unit,
    prime_field,
    product_over_roots_of_unity,
    rational_normalize,
    reduce_mod,
)
from talex.groups import alternating4, cyclic, dihedral, direct_product
from talex.theorems import (
    _CASES,
    CASE_NAMES,
    TheoremCase,
    catalog_under_24,
    group_for_case,
    make_case,
    rhs,
    verify_congruence,
)
from talex.twisted import alexander_polynomial

# the worked 9 x 9 matrices for q = 3^2
A_32 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 1, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 1, 0, 0, 0, 0],
    [1, 2, 1, 1, 2, 1, 0, 0, 0],
    [1, 0, 0, 2, 0, 0, 1, 0, 0],
    [1, 1, 0, 2, 2, 0, 1, 1, 0],
    [1, 2, 1, 2, 1, 2, 1, 2, 1],
]
TAU_A_32 = [
    [1, 2, 1, 2, 1, 2, 1, 2, 1],
    [0, 1, 2, 1, 2, 1, 2, 1, 2],
    [0, 0, 1, 2, 1, 2, 1, 2, 1],
    [0, 0, 0, 1, 2, 1, 2, 1, 2],
    [0, 0, 0, 0, 1, 2, 1, 2, 1],
    [0, 0, 0, 0, 0, 1, 2, 1, 2],
    [0, 0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 2],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]
TAU_B_32 = [
    [1, 2, 1, 2, 1, 2, 1, 2, 1],
    [0, 2, 2, 0, 1, 1, 0, 2, 2],
    [0, 0, 1, 0, 0, 2, 0, 0, 1],
    [0, 0, 0, 2, 1, 2, 2, 1, 2],
    [0, 0, 0, 0, 1, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 2, 0, 0, 2],
    [0, 0, 0, 0, 0, 0, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 0, 2, 2],
    [0, 0, 0, 0, 0, 0, 0, 0, 1],
]


# -- the paper's closed forms, one per group family, as test oracles -------


def _roots_of_unity_mod_p(m: int, p: int) -> list[int]:
    """All k in 1..p-1 with k^m = 1 mod p, ascending; requires m | p-1."""
    if (p - 1) % m != 0:
        raise ValueError(f"m = {m} does not divide p - 1 = {p - 1}")
    return [k for k in range(1, p) if pow(k, m, p) == 1]


def _orbit(delta, n):
    """The cyclic theorem's display prod_{j=1..n} Delta(a^j t)/(a^j t - 1)
    over ZZ, a = e^(2 pi i / n)."""
    return RationalFunction(product_over_roots_of_unity(delta, n),
                            poly([-1] + [0] * (n - 1) + [1]))


def _scaled(dp, c):
    """Delta(c t) / (c t - 1) over the prime field of dp."""
    return RationalFunction(substitute_scale(dp, c),
                            poly([-1, c], domain=dp.domain))


def _half(delta, p):
    """Delta(t) Delta(-t) / ((t - 1)(t + 1)) mod p."""
    dp = reduce_mod(delta, p)
    return _scaled(dp, 1) * _scaled(dp, -1)


def _quarter(delta, p):
    """Delta(t) Delta(-t) Delta(it) Delta(-it) / (t^4 - 1) mod p, without
    roots of unity: Delta(t) Delta(-t) = E(t^2) is even, and the other
    pair is E(-t^2)."""
    even = delta * substitute_scale(delta, -1)
    other = LaurentPolynomial(INTEGERS, *coefficient_cell({
        e: c * (-1) ** (e // 2 % 2)
        for e, c in enumerate(even.coeffs, start=even.min_exp)}, None))
    return RationalFunction(even * other,
                            poly([-1, 0, 0, 0, 1])).reduce_mod(p)


def _metacyclic_theorem(delta, m, p):
    """The metacyclic theorem's display: the order-m orbit product times
    (Delta(k_j t) / (k_j t - 1))^(p-1) over the m-th roots k_j in F_p."""
    dp = reduce_mod(delta, p)
    out = _orbit(delta, m).reduce_mod(p)
    for kj in _roots_of_unity_mod_p(m, p):
        out = out * _scaled(dp, kj) ** (p - 1)
    return out


def _metacyclic_regrouped(delta, m, p):
    """The worked example's regrouping of the same display: (Delta(t) /
    (t - 1))^p, the nontrivial k_j to p - 1, and the orbit product with
    its trivial root divided back out."""
    dp = reduce_mod(delta, p)
    out = _scaled(dp, 1) ** p
    for kj in _roots_of_unity_mod_p(m, p)[1:]:
        out = out * _scaled(dp, kj) ** (p - 1)
    return out * _orbit(delta, m).reduce_mod(p) / _scaled(dp, 1)


def paper_display(case: TheoremCase, delta) -> RationalFunction:
    """The paper's right-hand side for the case, family by family."""
    name, params, p = case.name, case.parameters, case.modulus
    if name == "cyclic":
        out = _orbit(delta, params[0])
        return out if p is None else out.reduce_mod(p)
    if name == "dihedral":
        return _half(delta, p) ** (params[0] ** params[1])
    if name in ("d3c3", "conjecture"):
        return _half(delta, p) ** (p * p)
    if name == "dihedral_times_cyclic":
        q, m = params[0] ** params[1], params[2]
        orbit = _orbit(delta, m)
        flipped = RationalFunction(substitute_scale(orbit.numerator, -1),
                                   substitute_scale(orbit.denominator, -1))
        return (orbit * flipped).reduce_mod(p) ** q
    if name == "dicyclic":
        return _quarter(delta, p) ** (params[0] ** params[1])
    if name == "a4":
        return _orbit(delta, 3).reduce_mod(2) ** 4
    if name == "metacyclic":
        return _metacyclic_theorem(delta, params[0], params[1])
    raise AssertionError(name)


# (name, kwargs, parameters, modulus, group name, order); dihedral,
# dicyclic and D_q x C_m default to n = 1
CASE_TABLE = [
    ("cyclic", {"n": 5}, (5,), None, "C5", 5),
    ("cyclic", {"n": 1}, (1,), None, "C1", 1),
    ("dihedral", {"p": 3}, (3, 1), 3, "D3", 6),
    ("dihedral", {"p": 3, "n": 2}, (3, 2), 3, "D9", 18),
    ("dihedral_times_cyclic", {"p": 3, "m": 3}, (3, 1, 3), 3, "D3xC3", 18),
    ("dihedral_times_cyclic", {"p": 5, "n": 1, "m": 1}, (5, 1, 1), 5,
     "D5xC1", 10),
    ("metacyclic", {"m": 3, "p": 7, "k": 2}, (3, 7, 2), 7, "G(3,7|2)", 21),
    ("metacyclic", {"m": 4, "p": 5, "k": 2}, (4, 5, 2), 5, "G(4,5|2)", 20),
    ("dicyclic", {"p": 5}, (5, 1), 5, "Dic5", 20),
    ("dicyclic", {"p": 3, "n": 2}, (3, 2), 3, "Dic9", 36),
    ("a4", {}, (), 2, "A4", 12),
    ("d3c3", {}, (), 3, "D3sC3", 18),
    ("conjecture", {"p": 5}, (5,), 5, "D5sC5", 50),
]

ORACLE_CASES = (
    [make_case("cyclic", n=n) for n in range(1, 20)]
    + [make_case("cyclic", n=n, modulus=5) for n in range(1, 20)]
    + [make_case("dihedral", p=p, n=n)
       for p, n in ((3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (11, 1))]
    + [make_case("dihedral_times_cyclic", p=p, m=m)
       for p in (3, 5) for m in (1, 3, 5)]
    + [make_case("metacyclic", m=m, p=p, k=k)
       for m, p, k in ((3, 7, 2), (4, 5, 2), (2, 5, 4), (3, 13, 3))]
    + [make_case("dicyclic", p=p, n=n)
       for p, n in ((3, 1), (5, 1), (3, 2), (7, 1))]
    + [make_case("a4"), make_case("d3c3")]
    + [make_case("conjecture", p=p) for p in (3, 5, 7)])


class TestCases:
    def test_case_str_and_validation(self):
        case = make_case("dihedral", p=3, n=2)
        assert case.modulus == 3 and case.parameters == (3, 2)
        with pytest.raises(ValueError, match="odd prime"):
            make_case("dihedral", p=2)
        with pytest.raises(ValueError, match="odd prime"):
            make_case("conjecture", p=4)
        with pytest.raises(ValueError):
            make_case("metacyclic", m=3, p=7, k=3)
        with pytest.raises(ValueError, match="unknown case"):
            TheoremCase("nope", (), None)
        with pytest.raises(ValueError, match="unknown case"):
            make_case("nope")

    @pytest.mark.parametrize("name", [
        "dihedral", "dicyclic", "dihedral_times_cyclic", "metacyclic",
        "conjecture"])
    def test_missing_p_rejected(self, name):
        with pytest.raises(ValueError, match="odd prime"):
            make_case(name)

    def test_group_for_case(self):
        assert group_for_case(make_case("dihedral", p=3, n=2)).order == 18
        assert group_for_case(make_case("a4")).order == 12
        assert group_for_case(make_case("conjecture", p=5)).order == 50
        assert group_for_case(
            make_case("dihedral_times_cyclic", p=3, n=1, m=3)).order == 18

    def test_dihedral_times_even_cyclic_rejected(self):
        # D_3 x C_2 abelianizes to C2 x C2, so no knot group maps onto it
        with pytest.raises(ValueError, match="D3xC2 is not normally "
                           "generated by one element"):
            make_case("dihedral_times_cyclic", p=3, m=2)

    @pytest.mark.parametrize("name,kwargs,parameters,modulus,group,order",
                             CASE_TABLE, ids=str)
    def test_case_table(self, name, kwargs, parameters, modulus, group,
                        order):
        case = make_case(name, **kwargs)
        assert (case.parameters, case.modulus) == (parameters, modulus)
        g = group_for_case(case)
        assert (g.name, g.order) == (group, order)
        # the parameters round-trip through the names of the case's row
        assert make_case(name, **dict(zip(_CASES[name].parameters,
                                          parameters))) == case

    @pytest.mark.parametrize("name,kwargs", [
        ("a4", {"p": 5}),
        ("d3c3", {"m": 3}),
        ("cyclic", {"n": 3, "p": 7}),
        ("conjecture", {"p": 3, "n": 2}),
        ("dicyclic", {"p": 3, "k": 2}),
    ])
    def test_parameter_the_case_does_not_take_rejected(self, name, kwargs):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_case(name, **kwargs)

    def test_parameters_given_as_none_take_the_defaults(self):
        assert make_case("dihedral", p=3, n=None, m=None, k=None) \
            == make_case("dihedral", p=3)

    @pytest.mark.parametrize("name,kwargs,modulus", [
        ("a4", {}, 3),
        ("d3c3", {}, 2),
        ("dihedral", {"p": 3}, 5),
        ("conjecture", {"p": 5}, 3),
    ])
    def test_foreign_modulus_rejected_at_construction(self, name, kwargs,
                                                      modulus):
        with pytest.raises(ValueError, match="conflicts"):
            make_case(name, modulus=modulus, **kwargs)

    def test_own_modulus_and_any_prime_for_cyclic_accepted(self):
        assert make_case("a4", modulus=2) == make_case("a4")
        assert make_case("dihedral", p=5, modulus=5).modulus == 5
        assert make_case("cyclic", n=3, modulus=7).modulus == 7
        with pytest.raises(ValueError, match="not prime"):
            make_case("cyclic", n=3, modulus=4)


class TestRootsOfUnityModP:
    def test_cube_roots_mod_seven(self):
        assert _roots_of_unity_mod_p(3, 7) == [1, 2, 4]

    def test_square_roots_mod_five(self):
        assert _roots_of_unity_mod_p(2, 5) == [1, 4]

    def test_trivial(self):
        assert _roots_of_unity_mod_p(1, 7) == [1]

    def test_requires_divisibility(self):
        with pytest.raises(ValueError, match="divide"):
            _roots_of_unity_mod_p(3, 5)


def _rhs(case, delta):
    return rhs(group_for_case(case), case.modulus, delta)


class TestRhs:
    @pytest.mark.parametrize("case", ORACLE_CASES, ids=str)
    def test_engine_matches_paper_display(self, table, case):
        group = group_for_case(case)
        for name in sorted(table):
            delta = alexander_polynomial(table[name])
            expected = rational_normalize(paper_display(case, delta))
            got = rhs(group, case.modulus, delta)
            assert got.to_json() == expected.to_json(), name
            assert str(got) == str(expected), name

    def test_cyclic_order_one(self):
        delta = poly([1, -1, 1])
        out = _rhs(make_case("cyclic", n=1), delta)
        assert equal_up_to_unit(
            out, RationalFunction(delta, poly([-1, 1])))

    def test_dihedral_worked_example(self):
        # ((t+1)^2 (t-1)^2 / ((t+1)(t-1)))^9 in normal form mod 3
        delta = poly([1, -1, 1])
        out = _rhs(make_case("dihedral", p=3, n=2), delta)
        F3 = prime_field(3)
        inner = RationalFunction(
            (poly([1, 1], domain=F3) * poly([-1, 1], domain=F3)) ** 2,
            poly([1, 1], domain=F3) * poly([-1, 1], domain=F3))
        assert equal_up_to_unit(out, inner ** 9)

    def test_metacyclic_forms_agree(self, table):
        for name in ("3_1", "6_1", "8_18"):
            delta = alexander_polynomial(table[name])
            for m, p, k in ((3, 7, 2), (4, 5, 2), (2, 5, 4)):
                engine = _rhs(make_case("metacyclic", m=m, p=p, k=k), delta)
                assert equal_up_to_unit(_metacyclic_theorem(delta, m, p),
                                        _metacyclic_regrouped(delta, m, p))
                assert equal_up_to_unit(engine,
                                        _metacyclic_regrouped(delta, m, p)), \
                    (name, m, p, k)

    def test_metacyclic_uses_integer_root_scalings(self, table):
        # the (3, 7 | 2) right side is built from Delta(t), Delta(2t),
        # Delta(4t) and the cubic orbit product
        delta = alexander_polynomial(table["6_1"])
        case = make_case("metacyclic", m=3, p=7, k=2)
        F7 = prime_field(7)
        dp = reduce_mod(delta, 7)
        tm1 = poly([-1, 1], domain=F7)
        manual = RationalFunction.of(poly([1], domain=F7))
        for kj in (1, 2, 4):
            manual = manual * RationalFunction(
                substitute_scale(dp, kj), substitute_scale(tm1, kj)) ** 6
        orbit = RationalFunction(
            reduce_mod(product_over_roots_of_unity(delta, 3), 7),
            reduce_mod(product_over_roots_of_unity(poly([-1, 1]), 3), 7))
        manual = manual * orbit
        assert equal_up_to_unit(_rhs(case, delta), manual)

    def test_dicyclic_is_integral_before_reduction(self):
        delta = poly([1, -1, 1])
        quarter_num = product_over_roots_of_unity(delta, 4)
        assert quarter_num.domain == INTEGERS
        out = _rhs(make_case("dicyclic", p=3), delta)
        assert not out.numerator.is_zero

    def test_d3c3_and_conjecture_match_at_three(self, table):
        delta = alexander_polynomial(table["8_18"])
        a = _rhs(make_case("d3c3"), delta)
        b = _rhs(make_case("conjecture", p=3), delta)
        assert equal_up_to_unit(a, b)

    @pytest.mark.parametrize("case", [
        make_case("cyclic", n=3), make_case("dihedral", p=3),
        make_case("a4"), make_case("cyclic", n=2, modulus=5)], ids=str)
    def test_symmetrized_alexander_polynomial(self, case):
        # t^-1 - 1 + t is the trefoil's t^2 - t + 1 up to a unit
        assert _rhs(case, poly([1, -1, 1], -1)).to_json() \
            == _rhs(case, poly([1, -1, 1])).to_json()

    def test_rejects_non_alexander_input(self):
        with pytest.raises(ValueError, match="Delta"):
            _rhs(make_case("a4"), poly([2, 1]))  # Delta(1) = 3

    def test_rejects_alexander_polynomial_over_f_p(self):
        with pytest.raises(ValueError, match="exact over ZZ"):
            _rhs(make_case("a4"), poly([1, -1, 1], domain=prime_field(2)))

    def test_cyclic_with_modulus(self):
        delta = poly([1, -3, 1])
        out = _rhs(make_case("cyclic", n=2, modulus=5), delta)
        assert out.domain.p == 5

    def test_rejects_non_cyclic_abelianization(self):
        group = direct_product(dihedral(3), cyclic(2))
        with pytest.raises(ValueError, match="not normally generated by one "
                           "element"):
            rhs(group, 3, poly([1, -1, 1]))

    def test_rejects_commutator_subgroup_not_a_p_group(self):
        # A4' = V4 is a 2-group: it passes mod 2 only
        delta = poly([1, -1, 1])
        with pytest.raises(ValueError, match="power of the modulus"):
            rhs(alternating4(), 3, delta)
        with pytest.raises(ValueError, match="power of the modulus"):
            rhs(alternating4(), None, delta)
        assert rhs(alternating4(), 2, delta).domain.p == 2

    def test_catalog_satisfies_engine_conditions(self, trefoil):
        delta = alexander_polynomial(trefoil)
        for name, group, modulus in catalog_under_24():
            assert rhs(group, modulus, delta).domain.p == modulus, name


# parameter values for every _CASES row: odd primes for p, and small values
# that cover even and odd m and both valid and invalid metacyclic k
ONE_RULE_GRID = {"p": (3, 5), "n": (1, 2), "m": (1, 2, 3, 4), "k": (2, 3, 4)}


class TestOneRule:
    """Normal generation by one element is the only rule for which groups
    a knot group maps onto, in make_case and rhs alike."""

    @pytest.mark.parametrize("name", CASE_NAMES)
    def test_make_case_accepts_exactly_the_knot_quotients(self, name):
        row = _CASES[name]
        for values in itertools.product(
                *(ONE_RULE_GRID[key] for key in row.parameters)):
            kwargs = dict(zip(row.parameters, values))
            modulus = kwargs.get(row.modulus, row.modulus)
            try:
                group = group_for_case(TheoremCase(name, values, modulus))
            except ValueError:  # the constructor rejects the parameters
                with pytest.raises(ValueError):
                    make_case(name, **kwargs)
                continue
            if group.is_normally_generated_by_one() is None:
                with pytest.raises(ValueError,
                                   match="not normally generated"):
                    make_case(name, **kwargs)
            else:
                assert make_case(name, **kwargs).parameters == values

    @pytest.mark.parametrize("group", [
        direct_product(cyclic(2), cyclic(2)),
        direct_product(dihedral(3), cyclic(2))], ids=lambda g: g.name)
    def test_rhs_rejects_what_no_knot_group_maps_onto(self, group):
        with pytest.raises(ValueError, match=(
                f"^{group.name} is not normally generated by one element; "
                "no knot group surjects onto it$")):
            rhs(group, 3, poly([1, -1, 1]))


class TestVerify:
    def test_trefoil_dihedral_q3(self, trefoil):
        rec = verify_congruence(trefoil, "3_1", make_case("dihedral", p=3))
        assert rec.surjections_found == 1
        assert rec.all_verified and not rec.vacuous

    def test_trefoil_dihedral_q9_is_vacuous(self, trefoil):
        # no surjection G(3_1) -> D_9 exists (see the decisions ledger)
        rec = verify_congruence(trefoil, "3_1",
                                make_case("dihedral", p=3, n=2))
        assert rec.vacuous

    def test_61_dihedral_q9(self, table):
        rec = verify_congruence(table["6_1"], "6_1",
                                make_case("dihedral", p=3, n=2))
        assert rec.surjections_found == 3
        assert rec.all_verified

    def test_figure_eight_dihedral_q3_no_surjection(self, figure_eight):
        rec = verify_congruence(figure_eight, "4_1",
                                make_case("dihedral", p=3))
        assert rec.vacuous and rec.verdicts == ()

    @pytest.mark.parametrize("name", ["3_1", "4_1", "5_2", "6_1", "7_4",
                                      "8_18"])
    def test_cyclic_exact_order_two(self, table, name):
        rec = verify_congruence(table[name], name, make_case("cyclic", n=2))
        assert rec.all_verified and not rec.vacuous
        assert rec.modulus is None

    def test_record_json_schema(self, trefoil):
        rec = verify_congruence(trefoil, "3_1", make_case("dihedral", p=3))
        obj = rec.to_json()
        assert set(obj) == {"knot", "group", "parameters",
                            "surjections_found", "verdicts", "lhs", "rhs",
                            "modulus", "elapsed_ms"}
        assert obj["verdicts"] == [True]
        assert obj["modulus"] == 3


class TestMatrices:
    def test_a_matrix_worked_example(self):
        assert a_matrix(3, 2) == A_32

    def test_a_matrix_first_row(self):
        for p, n in ((3, 1), (5, 1)):
            assert a_matrix(p, n)[0] == [1] + [0] * (p ** n - 1)

    def test_a_matrix_last_row_alternates(self):
        assert a_matrix(3, 2)[-1] == [1, 2, 1, 2, 1, 2, 1, 2, 1]

    def test_tau_matrices_worked_example(self):
        assert tau_a(3, 2) == TAU_A_32
        assert tau_b(3, 2) == TAU_B_32

    def test_tau_a_diagonal_ones(self):
        for p, n in ((3, 2), (5, 1), (7, 1)):
            m = tau_a(p, n)
            assert all(m[i][i] == 1 for i in range(p ** n))
            assert all(m[i][j] == 0 for i in range(p ** n)
                       for j in range(i))

    def test_tau_b_alternating_diagonal(self):
        m = tau_b(3, 2)
        assert [m[i][i] for i in range(9)] == [1, 2, 1, 2, 1, 2, 1, 2, 1]


class TestIdentityOracles:
    def test_binomial_generalized(self):
        assert binomial(-2, 3) == -4  # (-2)(-3)(-4)/6
        assert binomial(5, 2) == 10
        assert binomial(3, 7) == 0
        assert binomial(4, -1) == 0

    def test_lucas_example(self):
        # C(10, 4) = 210 = 0 mod 3 matches digitwise C(1,0) C(0,1) C(1,1)
        assert 210 % 3 == 0
        assert check_lucas(3, 12)

    def test_suites_small(self):
        assert check_pascal(25)
        assert check_vandermonde(20)
        assert check_euler_finite_difference(12)
        assert check_dihedral_lemma(3, 1)
        assert check_metacyclic_lemma(3)

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1)])
    def test_conjugation_identities(self, p, n):
        assert check_dihedral_conjugation(p, n)

    @pytest.mark.parametrize("m,p,k", [(3, 7, 2), (2, 5, 4)])
    def test_metacyclic_triangularization(self, m, p, k):
        assert check_metacyclic_triangularization(m, p, k)


def _own_modulus(case: TheoremCase) -> int | None:
    """The modulus make_case gives the case when none is passed."""
    names = _CASES[case.name].parameters
    return make_case(case.name, **dict(zip(names, case.parameters))).modulus


class TestCatalog:
    def test_thirty_five_groups_under_24(self):
        entries = catalog_under_24()
        assert len(entries) == 35
        for name, group, modulus in entries:
            assert group.order < 24
            assert group.is_normally_generated_by_one() is not None
            if modulus is not None:
                assert group.order % modulus == 0

    def test_names_order_and_moduli(self):
        assert [(name, modulus) for name, _, modulus in catalog_under_24()] \
            == [(f"C{n}", None) for n in range(1, 24)] + [
                ("D3", 3), ("D5", 5), ("D7", 7), ("D9", 3), ("D11", 11),
                ("D3xC3", 3), ("G(4,5|2)", 5), ("G(3,7|2)", 7),
                ("Dic3", 3), ("Dic5", 5), ("A4", 2), ("D3sC3", 3)]

    @pytest.mark.parametrize("group,modulus", [
        *((g, m) for _, g, m in catalog_under_24()),
        *((group_for_case(c), _own_modulus(c)) for c in ORACLE_CASES),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_modulus_matches_commutator_subgroup(self, group, modulus):
        # the modulus column: none exactly when G' = 1, and otherwise a
        # prime of which |G'| is a power, the condition rhs proves under
        size = len(group.commutator_subgroup())
        assert (modulus is None) == (size == 1)
        if modulus is not None:
            while size % modulus == 0:
                size //= modulus
            assert size == 1
