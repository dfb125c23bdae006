import itertools
import json
import random
import time

import pytest
from sympy import totient

from conftest import fuzz_json, fuzz_object
from paper_lemmas import (
    alternating4_as_even_permutations,
    d3_semidirect_c3_in_s9,
    direct_sum_rep,
    trivial_representation,
)
from talex.algebra import LaurentPolynomial, PolyMatrix, determinant
from talex.groups import (
    FiniteGroup,
    GroupValidationError,
    MatrixRep,
    alternating4,
    cyclic,
    d3_semidirect_c3,
    dicyclic,
    dihedral,
    direct_product,
    dp_semidirect_cp,
    _least_root,
    _order_dividing,
    group_from_cayley_json,
    metacyclic,
    regular_representation,
)
from talex.theorems import catalog_under_24


def class_of(g: FiniteGroup, x: int):
    """The conjugacy class of g that contains x."""
    return next(c for c in g.conjugacy_classes() if x in c.members)


def isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Exhaustive isomorphism search with order-profile pruning; oracle
    for small groups only."""
    if g.order != h.order:
        return False
    by_order_g = {}
    for x in g.elements():
        by_order_g.setdefault(g.element_order(x), []).append(x)
    by_order_h = {}
    for x in h.elements():
        by_order_h.setdefault(h.element_order(x), []).append(x)
    if {k: len(v) for k, v in by_order_g.items()} != \
            {k: len(v) for k, v in by_order_h.items()}:
        return False

    elems = sorted(g.elements(), key=g.element_order, reverse=True)

    def extend(mapping):
        if len(mapping) == g.order:
            return True
        x = next(e for e in elems if e not in mapping)
        for y in by_order_h[g.element_order(x)]:
            if y in mapping.values():
                continue
            new = dict(mapping)
            new[x] = y
            ok = True
            for a in list(new):
                for b in list(new):
                    c = g.mul(a, b)
                    if c in new:
                        if new[c] != h.mul(new[a], new[b]):
                            ok = False
                            break
                else:
                    continue
                break
            if ok and extend(new):
                return True
        return False

    return extend({g.identity: h.identity})


class TestCatalog:
    def test_cyclic_trivial(self):
        g = cyclic(1)
        assert g.order == 1 and g.identity == 0

    def test_cyclic_two(self):
        g = cyclic(2)
        assert g.order == 2 and g.inv(1) == 1

    def test_cyclic_six_splits(self):
        assert isomorphic(cyclic(6), direct_product(cyclic(2), cyclic(3)))

    def test_dihedral_three(self):
        g = dihedral(3)
        assert g.order == 6
        assert len(g.conjugacy_classes()) == 3
        assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 2, 3]

    def test_dihedral_nine(self):
        g = dihedral(9)
        assert g.order == 18
        assert g.element_order(g.label("a")) == 9
        assert g.element_order(g.label("b")) == 2

    def test_even_dihedral_not_normally_generated(self):
        assert dihedral(4).is_normally_generated_by_one() is None

    def test_dihedral_normally_generated_by_reflection(self):
        g = dihedral(3)
        assert g.is_normally_generated_by_one() == g.label("b")

    def test_relations_hold(self):
        for n in (3, 5, 9):
            g = dihedral(n)
            a, b = g.label("a"), g.label("b")
            assert g.power(a, n) == g.identity
            assert g.power(b, 2) == g.identity
            assert g.mul(g.mul(b, a), b) == g.inv(a)

    def test_dicyclic_two_is_quaternion(self):
        g = dicyclic(2)
        census = {}
        for x in g.elements():
            census[g.element_order(x)] = census.get(g.element_order(x), 0) + 1
        assert census == {1: 1, 2: 1, 4: 6}

    def test_dicyclic_three(self):
        g = dicyclic(3)
        a, b = g.label("a"), g.label("b")
        assert g.order == 12
        assert g.element_order(b) == 4
        assert g.power(b, 2) == g.power(a, 3)
        assert g.mul(g.mul(b, a), g.inv(b)) == g.inv(a)
        assert len(g.conjugacy_classes()) == 6

    def test_dicyclic_quotient_by_center_is_dihedral(self):
        g = dicyclic(3)
        b2 = g.power(g.label("b"), 2)
        center = {g.identity, b2}
        cosets = []
        seen = set()
        for x in g.elements():
            cs = frozenset(g.mul(x, z) for z in center)
            if cs not in seen:
                seen.add(cs)
                cosets.append(cs)
        index = {cs: i for i, cs in enumerate(cosets)}
        table = [[index[frozenset(g.mul(g.mul(next(iter(c1)), next(iter(c2))),
                                        z) for z in center)]
                  for c2 in cosets] for c1 in cosets]
        quotient = FiniteGroup(table, name="Dic3/center")
        assert isomorphic(quotient, dihedral(3))

    def test_metacyclic_matches_dihedral(self):
        assert isomorphic(metacyclic(2, 3, 2), dihedral(3))

    def test_metacyclic_structure(self):
        g = metacyclic(3, 7, 2)
        assert g.order == 21
        assert len(g.conjugacy_classes()) == 5
        assert g.element_order(g.label("a")) == 7
        a, b = g.label("a"), g.label("b")
        assert g.mul(g.mul(b, a), g.inv(b)) == g.power(a, 2)

    def test_metacyclic_rejects_non_root(self):
        # 3 has multiplicative order 6 mod 7, so 3^3 = 6 != 1
        with pytest.raises(ValueError, match="root of unity"):
            metacyclic(3, 7, 3)
        with pytest.raises(ValueError, match="root of unity"):
            metacyclic(3, 7, 5)

    def test_metacyclic_rejects_smaller_order_root(self):
        with pytest.raises(ValueError, match="order 1"):
            metacyclic(3, 7, 1)
        with pytest.raises(ValueError, match="order 2"):
            metacyclic(4, 5, 4)

    def test_metacyclic_rejects_bad_prime(self):
        with pytest.raises(ValueError, match="odd prime"):
            metacyclic(3, 9, 2)
        with pytest.raises(ValueError, match="congruent"):
            metacyclic(3, 5, 2)

    def test_alternating4(self):
        g = alternating4()
        assert g.order == 12
        assert sorted(len(c) for c in g.conjugacy_classes()) == [1, 3, 4, 4]
        a, b = g.label("a"), g.label("b")
        assert g.power(a, 3) == g.identity
        assert g.power(b, 2) == g.identity
        assert g.power(g.mul(a, b), 3) == g.identity

    def test_alternating4_normal_generators(self):
        g = alternating4()
        a, b = g.label("a"), g.label("b")
        assert class_of(g, a).generates
        assert class_of(g, g.power(a, 2)).generates
        assert not class_of(g, b).generates
        assert len(g.subgroup_generated(class_of(g, b).members)) != g.order
        assert len(g.subgroup_generated(class_of(g, b).members)) == 4

    def test_d3_semidirect_c3(self):
        g = d3_semidirect_c3()
        assert g.order == 18
        assert len(g.conjugacy_classes()) == 6
        a, b, c = g.label("a"), g.label("b"), g.label("c")
        assert g.mul(a, b) == g.mul(b, a)
        assert g.mul(c, g.mul(a, c)) == g.inv(a)
        assert g.mul(c, g.mul(b, c)) == g.inv(b)
        assert class_of(g, c).generates
        assert len(g.subgroup_generated(class_of(g, c).members)) == g.order

    def test_dp_semidirect_cp_matches_s9_realization(self):
        s9 = d3_semidirect_c3_in_s9()
        assert s9.order == 18
        assert isomorphic(dp_semidirect_cp(3), s9)
        assert dp_semidirect_cp(5).order == 50

    def test_alternating4_matches_even_permutations(self):
        even = alternating4_as_even_permutations()
        assert even.order == 12
        assert isomorphic(alternating4(), even)

    def test_direct_products(self):
        g = direct_product(dihedral(3), cyclic(3))
        assert g.order == 18
        assert isomorphic(direct_product(dihedral(3), cyclic(1)), dihedral(3))
        assert direct_product(dihedral(3), cyclic(2)) \
            .is_normally_generated_by_one() is None
        assert direct_product(cyclic(2), cyclic(2)) \
            .is_normally_generated_by_one() is None

    def test_commutator_subgroup_is_built_once(self, monkeypatch):
        g = dihedral(5)
        first = g.commutator_subgroup()
        monkeypatch.setattr(FiniteGroup, "subgroup_generated",
                            lambda *args: pytest.fail("rebuilt G'"))
        assert g.commutator_subgroup() is first and len(first) == 5

    def test_cyclic_normally_generated_by_generator(self):
        for n in (1, 2, 5, 8):
            g = cyclic(n)
            w = g.is_normally_generated_by_one()
            assert w is not None
            assert len(g.subgroup_generated([w])) == n


def _label_word(g: FiniteGroup, exponents) -> int:
    """The product of the label powers g.label(x)^k, over the labels in
    name order paired with the exponents."""
    x = g.identity
    for name, k in zip(sorted(g.labels), exponents):
        x = g.mul(x, g.power(g.label(name), k))
    return x


# (group, orders, index): the label word a^i b^j ... with 0 <= i < orders[0],
# 0 <= j < orders[1], ... sits at index(i, j, ...)
LABEL_CONVENTIONS = [
    *[(cyclic(n), (n,), lambda i: i) for n in (1, 2, 7)],
    *[(dihedral(n), (n, 2), lambda i, e, n=n: i + n * e) for n in (2, 3, 9)],
    *[(dicyclic(n), (2 * n, 2), lambda i, e, n=n: i + 2 * n * e)
      for n in (2, 3, 5)],
    *[(metacyclic(m, p, k), (p, m), lambda i, j, p=p: i + p * j)
      for m, p, k in ((3, 7, 2), (2, 5, 4), (4, 13, 5))],
    *[(dp_semidirect_cp(p), (p, p, 2),
       lambda i, j, e, p=p: i * p + j + p * p * e) for p in (3, 5, 7)],
]


class TestIndexConventions:
    """Each family's element sits at the index the groups module docstring
    gives for it; the products are built from the labels, not read from
    the table's layout."""

    @pytest.mark.parametrize("g,orders,index", [
        pytest.param(*case, id=case[0].name) for case in LABEL_CONVENTIONS])
    def test_label_words(self, g, orders, index):
        for exponents in itertools.product(*map(range, orders)):
            assert _label_word(g, exponents) == index(*exponents)

    def test_alternating4(self):
        g = alternating4()
        a, b = g.label("a"), g.label("b")
        aba = g.mul(g.mul(a, b), g.inv(a))
        for u, w, j in itertools.product(range(2), range(2), range(3)):
            x = g.mul(g.mul(g.power(aba, u), g.power(b, w)), g.power(a, j))
            assert x == 2 * u + w + 4 * j

    def test_direct_product(self):
        g, h = dihedral(3), cyclic(4)
        gh = direct_product(g, h)
        for x, y in itertools.product(g.elements(), h.elements()):
            left, right = x * 4 + h.identity, g.identity * 4 + y
            assert gh.mul(left, right) == x * 4 + y


ALL_SMALL = [
    cyclic(1), cyclic(2), cyclic(6), cyclic(12), dihedral(3), dihedral(4),
    dihedral(9), dicyclic(2), dicyclic(3), metacyclic(3, 7, 2),
    alternating4(), d3_semidirect_c3(), direct_product(cyclic(2), cyclic(2)),
    direct_product(dihedral(3), cyclic(3)),
]


class TestStructure:
    @pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: g.name)
    def test_classes_partition_and_are_stable(self, g):
        classes = g.conjugacy_classes()
        union = set()
        for c in classes:
            assert c.representative == min(c.members)
            assert not (union & c.members)
            union |= c.members
            for x in c.members:
                for by in g.elements():
                    assert g.conjugate(x, by) in c.members
        assert union == set(g.elements())

    @pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: g.name)
    def test_normal_generation_matches_bruteforce(self, g):
        # oracle: saturate the conjugacy class under the full product table
        def closes(x):
            members = {g.conjugate(x, by) for by in g.elements()}
            size = 0
            current = set(members) | {g.identity}
            while size != len(current):
                size = len(current)
                current |= {g.mul(u, v) for u in current for v in current}
            return len(current) == g.order

        expected = next((x for x in g.elements()
                         if x != g.identity or g.order == 1
                         if closes(x)), None)
        assert g.is_normally_generated_by_one() == expected
        for cls in g.conjugacy_classes():
            assert cls.generates == closes(cls.representative), cls

    @pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: g.name)
    def test_element_order_divides_group_order(self, g):
        for x in g.elements():
            k = g.element_order(x)
            assert g.order % k == 0
            assert g.power(x, k) == g.identity

    def test_element_orders(self):
        assert cyclic(5).element_order(cyclic(5).identity) == 1
        dic3 = dicyclic(3)
        assert dic3.element_order(dic3.label("b")) == 4
        m = metacyclic(3, 7, 2)
        assert m.element_order(m.label("a")) == 7

    def test_inner_automorphisms_are_one_per_center_coset(self):
        for g in catalog_and_large():
            elements = list(g.elements())
            center = [z for z in elements
                      if all(g.mul(z, x) == g.mul(x, z) for x in elements)]
            inner = g.inner_automorphisms()
            assert len(inner) == len(set(inner)), g.name
            assert len(inner) * len(center) == g.order, g.name
            assert set(inner) == {
                tuple(g.conjugate(x, by) for x in elements)
                for by in elements}, g.name
            if len(center) == g.order:
                assert inner == (tuple(elements),), g.name


def catalog_and_large() -> list[FiniteGroup]:
    """The order-< 24 catalog and the three largest benchmark groups."""
    groups = [g for _, g, _ in catalog_under_24()]
    return groups + [dihedral(25), dihedral(27), dp_semidirect_cp(5)]


class TestValidation:
    def test_rejects_non_latin_square(self):
        with pytest.raises(GroupValidationError, match="permutation"):
            FiniteGroup([[0, 0], [1, 1]])

    def test_rejects_non_associative(self):
        # a Latin square quasigroup that is not a group
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(GroupValidationError, match="associativity"):
            FiniteGroup(table)

    def test_rejects_non_associative_loop_above_order_64(self):
        # Z_66 with the intercalate in rows 1, 34 and columns 1, 34
        # swapped: still a Latin square with identity 0, no longer a group
        n = 66
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        table[1][1], table[1][34] = table[1][34], table[1][1]
        table[34][1], table[34][34] = table[34][34], table[34][1]
        with pytest.raises(GroupValidationError, match="associativity"):
            FiniteGroup(table)

    def test_light_test_skips_identity(self):
        # a two-sided identity associates trivially, so it is never tested
        for g in catalog_and_large():
            gens = g._greedy_generators()
            assert g.identity not in gens, g.name
            assert g.subgroup_generated(gens) == set(g.elements()), g.name
        assert dihedral(25)._greedy_generators() == [1, 25]
        assert dp_semidirect_cp(5)._greedy_generators() == [1, 5, 25]

    def test_inverses_are_two_sided(self):
        for g in catalog_and_large():
            for x in g.elements():
                assert g.mul(x, g.inv(x)) == g.identity, (g.name, x)
                assert g.mul(g.inv(x), x) == g.identity, (g.name, x)

    def test_cayley_json_roundtrip(self):
        g = dihedral(3)
        h = group_from_cayley_json(json.loads(json.dumps(g.to_json())))
        assert h.cayley == g.cayley
        assert h.labels == g.labels

    def test_cayley_json_bad_identity(self):
        obj = cyclic(3).to_json()
        obj["identity"] = 1
        with pytest.raises(GroupValidationError, match="identity"):
            group_from_cayley_json(obj)

    def test_cayley_json_wrong_order(self):
        obj = cyclic(3).to_json()
        obj["order"] = 4
        with pytest.raises(GroupValidationError, match="order"):
            group_from_cayley_json(obj)

    @pytest.mark.parametrize("field,value", [
        ("labels", {"a": 1.5}), ("labels", {"a": True}),
        ("table", [[False, True], [True, False]]),
        ("table", [[0, 1.0], [1, 0]]), ("table", [["0", "1"], ["1", "0"]]),
    ], ids=["label-float", "label-bool", "table-bool", "table-float",
            "table-str"])
    def test_cayley_json_rejects_non_integers(self, field, value):
        obj = cyclic(2).to_json()
        obj[field] = value
        with pytest.raises(GroupValidationError, match="not an integer"):
            group_from_cayley_json(obj)

    def test_random_objects_load_or_raise_the_validation_error(self):
        # objects with random subsets of the fields, plausible or not:
        # every one loads or raises GroupValidationError, never a bare
        # KeyError or another error of the loader
        def table(rng):
            n = rng.randint(0, 3)
            rows = [[(i + j) % n for j in range(n)] for i in range(n)]
            return rows if rng.random() < 0.7 else [
                [rng.randint(-1, n) for _ in range(rng.randint(0, n + 1))]
                for _ in range(n)]

        fields = {
            "order": lambda rng: rng.randint(1, 3),
            "table": table,
            "labels": lambda rng: {"a": rng.randint(-1, 3)},
            "name": lambda rng: "G",
            "identity": lambda rng: rng.randint(-1, 2),
        }
        rng, loaded = random.Random(27), 0
        for _ in range(5000):
            obj = fuzz_object(rng, fields) if rng.random() < 0.9 \
                else fuzz_json(rng)
            try:
                group_from_cayley_json(json.loads(json.dumps(obj)))
                loaded += 1
            except GroupValidationError:
                pass
        assert loaded > 0


class TestRepresentations:
    def test_trivial_group_regular(self):
        rep = regular_representation(cyclic(1))
        assert rep.dimension == 1 and rep.perms == ((0,),)

    def test_c2_swap(self):
        # the image of the generator is the matrix ((0, 1), (1, 0))
        rep = regular_representation(cyclic(2))
        assert rep.perms == ((0, 1), (1, 0))

    def test_d9_dimension(self):
        assert regular_representation(dihedral(9)).dimension == 18

    @pytest.mark.parametrize("g", ALL_SMALL, ids=lambda g: g.name)
    def test_regular_rep_validates(self, g):
        rep = regular_representation(g)
        rep.validate()

    def test_trivial_representation(self):
        rep = trivial_representation(dihedral(3))
        rep.validate()
        assert rep.dimension == 1

    def test_direct_sum_of_regular_and_trivial_validates(self):
        g = dihedral(3)
        rep = direct_sum_rep(regular_representation(g),
                             trivial_representation(g))
        rep.validate()
        assert rep.dimension == 7
        assert all(p[6] == 6 for p in rep.perms)

    @pytest.mark.parametrize(
        "g", [cyclic(4), dihedral(3), dicyclic(3), alternating4()],
        ids=lambda g: g.name)
    def test_cycle_structure_of_regular_images(self, g):
        # det(t * rho(g) - I) = +-(t^k - 1)^(|G|/k) for g of order k
        rep = regular_representation(g)
        t = LaurentPolynomial.one().shift(1)
        one = LaurentPolynomial.one()
        zero = LaurentPolynomial.zero()
        for x in g.elements():
            k = g.element_order(x)
            perm = rep.perms[x]
            rows = [[(t if perm[j] == i else zero) - (one if i == j else zero)
                     for j in range(g.order)] for i in range(g.order)]
            det = determinant(PolyMatrix.from_rows(rows))
            cyc = LaurentPolynomial.make(
                LaurentPolynomial.one().domain, 0, [-1] + [0] * (k - 1) + [1])
            expected = cyc ** (g.order // k)
            assert det in (expected, -expected)

    def test_validate_rejects_broken_rep(self):
        # the image of 1 sends both points to 0: not a bijection
        bad = MatrixRep(cyclic(2), ((0, 1), (0, 0)))
        with pytest.raises(GroupValidationError, match="bijection"):
            bad.validate()

    def test_validate_rejects_law_violation(self):
        # bijections throughout, but rho(2) = rho(1) != rho(1)^2
        cycle = (1, 2, 0)
        bad = MatrixRep(cyclic(3), ((0, 1, 2), cycle, cycle))
        with pytest.raises(GroupValidationError, match="homomorphism"):
            bad.validate()

    def test_validate_rejects_a_wrong_block_exponent(self):
        # the sign factor of D3 split along the involution 3: each element
        # acts on the three cosets by a permutation and signs (-1)^e
        [(trivial, k), (sign, l)] = dihedral(3).regular_factors((3,))
        assert (trivial.dimension, sign.dimension, k, l) == (3, 3, 1, 1)
        sign.validate()
        exps = list(sign.exponents)
        exps[1] = (exps[1][0] + 1,) + exps[1][1:]
        bad = MatrixRep(sign.group, sign.perms, tuple(exps), 2)
        with pytest.raises(GroupValidationError, match="homomorphism"):
            bad.validate()

    def test_ties_go_to_the_cyclic_split(self):
        # C6 relabelled so that a^2, a^3 come first and e last: <a^2> x
        # <a^3> = <a> does the same work as the cyclic split along a (now
        # 3), and precedes it, but the cyclic split wins the tie
        index = {2: 0, 3: 1, 4: 2, 1: 3, 5: 4, 0: 5}
        table = [[0] * 6 for _ in range(6)]
        for x, y in itertools.product(range(6), repeat=2):
            table[index[x]][index[y]] = index[(x + y) % 6]
        g = FiniteGroup(table)
        assert g.regular_factors() == g.regular_factors((3,)) \
            != g.regular_factors((0, 1))

    @pytest.mark.parametrize("pair", [(1, 2), (1, 3), (3, 3), (1, 0, 0)],
                             ids=["a-a2", "a-b", "b-b", "three"])
    def test_split_needs_a_direct_product(self, pair):
        # <a> and <a^2> meet, a and b do not commute, <b> meets itself, and
        # the split takes at most two generators
        with pytest.raises(ValueError, match="direct product"):
            dihedral(3).regular_factors(pair)

    def test_validate_rejects_wrong_identity_and_count(self):
        g = cyclic(2)
        with pytest.raises(GroupValidationError, match="identity"):
            MatrixRep(g, ((1, 0), (1, 0))).validate()
        with pytest.raises(GroupValidationError, match="one image"):
            MatrixRep(g, ((0, 1),)).validate()


SPLIT_GROUPS = [g for _, g, _ in catalog_under_24()] + [dp_semidirect_cp(5)]
PRIMES = (2, 3, 5, 7, 11, 13)


def factor_list(factors):
    return [(r.dimension, r.cyclotomic, k) for r, k in factors]


class TestCharacterSplit:
    def test_metacyclic_mod_7(self):
        # along C3 = <b>: Phi_3 = (x - 2)(x - 4) over F_7, and C3 is its own
        # normalizer, so the two characters of order 3 stay apart
        g = metacyclic(3, 7, 2)
        assert factor_list(g.regular_factors()) == [(7, 1, 1), (14, 3, 1)]
        split = g.regular_factors(p=7)
        assert factor_list(split) == [(7, 1, 1), (7, 3, 1), (7, 3, 1)]
        assert [r.root for r, _ in split] == [None, (2, 7), (2, 7)]
        assert [r.exponents[g.label("b")] for r, _ in split[1:]] \
            == [(1,) * 7, (2,) * 7]

    def test_dicyclic_mod_7_merges_inverse_characters(self):
        # along C6 = <a>: b a b^-1 = a^-1, so chi and chi^-1 = chi . c_b
        # give conjugate factors, one of multiplicity 2 per order 3 and 6
        g = dicyclic(3)
        assert factor_list(g.regular_factors()) \
            == [(2, 1, 1), (2, 2, 1), (4, 3, 1), (4, 6, 1)]
        split = g.regular_factors(p=7)
        assert factor_list(split) \
            == [(2, 1, 1), (2, 2, 1), (2, 3, 2), (2, 6, 2)]
        assert [r.root for r, _ in split] == [None, None, (2, 7), (3, 7)]

    @pytest.mark.parametrize("g,p", [(alternating4(), 2), (dicyclic(5), 5),
                                     (dp_semidirect_cp(5), 5)],
                             ids=["A4-2", "Dic5-5", "D5sC5-5"])
    def test_no_split_when_p_divides_the_orders(self, g, p):
        # every character order d is 1, 2 or a multiple of p: the F_p
        # factors are the integer ones, so a p-group reduction never
        # reaches the left side of a congruence
        assert g.regular_factors(p=p) == g.regular_factors()
        assert all(r.root is None for r, _ in g.regular_factors(p=p))

    @pytest.mark.parametrize("g", SPLIT_GROUPS, ids=lambda g: g.name)
    def test_every_split_adds_up_and_validates(self, g):
        # H does not depend on p: every factor over every F_p has the
        # integer factors' column maps on the cosets of H; a split factor
        # has a 1 x 1 block per coset, any other phi(d) x phi(d) ones
        cosets = g.regular_factors()[0][0].perms
        for p in (None,) + PRIMES:
            factors = g.regular_factors(p=p)
            assert g.regular_factors(p=p) is factors  # cached per p
            assert sum(r.dimension * k for r, k in factors) == g.order
            for r, _ in factors:
                assert r.perms == cosets
                size = 1 if r.root else totient(r.cyclotomic)
                assert r.dimension == size * len(cosets[0])
                r.validate()

    def test_validate_rejects_a_wrong_root_or_exponent(self):
        g = metacyclic(3, 7, 2)
        chi = g.regular_factors(p=7)[1][0]
        chi.validate()
        # 6 and 3 have orders 2 and 6 mod 7, 2 has order 4 mod 5, and 9
        # is not prime
        for root in ((6, 7), (3, 7), (2, 5), (2, 9)):
            bad = MatrixRep(g, chi.perms, chi.exponents, 3, root)
            with pytest.raises(GroupValidationError, match="order"):
                bad.validate()
        exps = list(chi.exponents)
        exps[1] = (exps[1][0] + 1,) + exps[1][1:]
        bad = MatrixRep(g, chi.perms, tuple(exps), 3, chi.root)
        with pytest.raises(GroupValidationError, match="homomorphism"):
            bad.validate()
        # every column map has as many blocks as the identity's
        perms = chi.perms[:1] + tuple(p + p[:1] for p in chi.perms[1:])
        bad = MatrixRep(g, perms, chi.exponents, 3, chi.root)
        with pytest.raises(GroupValidationError, match="bijection"):
            bad.validate()


def order_up_to(r: int, n: int, p: int) -> int:
    """The order of r mod p by walking r, r^2, ..., r^n, or 0 when no
    power up to the n-th is 1: the oracle for the order helpers."""
    x, e = r % p, 1
    while x != 1 and e < n:
        x, e = x * r % p, e + 1
    return e if x == 1 else 0


class TestRootsOfUnityModP:
    @pytest.mark.parametrize("p", [2, 3, 7, 13, 29])
    def test_order_dividing_matches_the_walk(self, p):
        for k in range(-p, 2 * p):
            order = order_up_to(k, p, p)
            for n in range(1, 2 * p):
                want = order if order and n % order == 0 else 0
                assert _order_dividing(k, n, p) == want, (k, n, p)

    @pytest.mark.parametrize("d,p", [
        (3, 7), (6, 7), (4, 13), (6, 13), (12, 13), (5, 11), (10, 11),
        (9, 19), (18, 19), (7, 29), (28, 29), (4, 1000037), (3, 100003)])
    def test_least_root_is_the_least_element_of_order_d(self, d, p):
        least = next(r for r in range(2, p) if order_up_to(r, d, p) == d)
        assert _least_root(d, p) == least

    def test_root_search_does_not_walk_the_field(self):
        # the least element of order 3 mod 100003 is 7120; the split must
        # not look for it by computing the order of 2, 3, ..., 7120
        g = metacyclic(3, 7, 2)
        start = time.perf_counter()
        split = g.regular_factors(p=100003)
        assert time.perf_counter() - start < 0.5
        assert [r.root for r, _ in split] \
            == [None, (7120, 100003), (7120, 100003)]
        for r, _ in split:
            r.validate()
