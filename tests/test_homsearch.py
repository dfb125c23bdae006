import itertools
import random

import pytest

from conftest import connected_sum
from paper_lemmas import (
    brute_force_surjections,
    conjugation_orbit_minima,
    extends_to_automorphism_all_pairs,
    satisfies_relators,
)
from talex.groups import (
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
from talex.homsearch import (
    BudgetExceededError,
    Homomorphism,
    conjugates,
    evaluate_word,
    find_meridional_surjections,
    regular_equivalence_classes,
)
from talex.theorems import catalog_under_24


class TestEvaluateWord:
    def test_empty_word(self):
        g = dihedral(3)
        assert evaluate_word(g, (1, 2, 3), ()) == g.identity

    def test_cancelling_word(self):
        g = dihedral(3)
        for x in g.elements():
            assert evaluate_word(g, (x,), (1, -1)) == g.identity

    def test_order_three_cube(self):
        g = cyclic(3)
        assert evaluate_word(g, (1,), (1, 1, 1)) == g.identity


class TestImageSubgroup:
    def test_identity_only(self):
        g = dihedral(3)
        assert g.subgroup_generated((g.identity,)) == {g.identity}

    def test_generator_spans_cyclic(self):
        g = cyclic(6)
        assert g.subgroup_generated((1,)) == set(range(6))

    def test_reflection_gives_order_two(self):
        g = dihedral(3)
        assert len(g.subgroup_generated((g.label("b"),))) == 2


class TestSearch:
    def test_trefoil_onto_d3(self, trefoil):
        surj = find_meridional_surjections(trefoil, dihedral(3))
        assert len(surj) == 6
        refl = set(range(3, 6))
        for h in surj:
            assert set(h.images) <= refl

    def test_trefoil_onto_d3_up_to_conjugacy(self, trefoil):
        surj = find_meridional_surjections(trefoil, dihedral(3),
                                           up_to_conjugacy=True)
        assert len(surj) == 1

    def test_figure_eight_has_no_d3_quotient(self, figure_eight):
        assert find_meridional_surjections(figure_eight, dihedral(3)) == []

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_knot_surjects_onto_cyclic(self, table, n):
        import math

        for pres in table.values():
            surj = find_meridional_surjections(pres, cyclic(n))
            # all meridians share the image, which is a generator
            assert len(surj) == sum(1 for k in range(1, n + 1)
                                    if math.gcd(k, n) == 1)
            for h in surj:
                assert len(set(h.images)) == 1

    def test_no_surjection_onto_non_normally_generated(self, table):
        klein = direct_product(cyclic(2), cyclic(2))
        for pres in table.values():
            assert find_meridional_surjections(pres, klein) == []

    def test_returned_homs_satisfy_invariants(self, table):
        for g in (dihedral(3), dicyclic(3), alternating4()):
            for pres in table.values():
                for h in find_meridional_surjections(pres, g):
                    assert satisfies_relators(pres, g, h.images)
                    assert g.subgroup_generated(h.images) == set(g.elements())

    def test_deterministic_order(self, trefoil):
        g = dicyclic(3)
        first = find_meridional_surjections(trefoil, g)
        second = find_meridional_surjections(trefoil, g)
        assert first == second
        assert [h.images for h in first] == sorted(h.images for h in first)

    def test_budget_exceeded(self, table):
        with pytest.raises(BudgetExceededError):
            find_meridional_surjections(table["8_18"], dihedral(3), budget=10)

    @pytest.mark.parametrize("group", [
        cyclic(5), cyclic(12), dihedral(3), dihedral(5), dicyclic(3),
        alternating4()], ids=lambda g: g.name)
    def test_matches_brute_force(self, table, group):
        for name in ("3_1", "4_1", "5_2", "7_4"):
            pres = table[name]
            fast = find_meridional_surjections(pres, group)
            brute = brute_force_surjections(pres, group)
            assert fast == brute, (name, group.name)

    def test_matches_brute_force_large_knots(self, table):
        # spot-check the bigger presentations against the oracle too
        for name, group in (("6_1", dihedral(3)), ("8_18", cyclic(6)),
                            ("8_18", alternating4())):
            pres = table[name]
            assert find_meridional_surjections(pres, group) == \
                brute_force_surjections(pres, group)

    @pytest.mark.parametrize("group", [
        cyclic(5), cyclic(12), dihedral(3), dihedral(5), dicyclic(3),
        dicyclic(5), alternating4(), metacyclic(3, 7, 2),
        d3_semidirect_c3()], ids=lambda g: g.name)
    def test_orbit_minima_match_oracle(self, table, group):
        for name in ("3_1", "4_1", "5_2", "6_1", "7_4", "8_18"):
            pres = table[name]
            assert find_meridional_surjections(
                pres, group, up_to_conjugacy=True) == \
                conjugation_orbit_minima(brute_force_surjections(pres, group))

    def test_orbit_minima_on_a_connected_sum(self, table):
        pres = connected_sum(table["3_1"], table["3_1"])
        g = d3_semidirect_c3()
        minima = find_meridional_surjections(pres, g, up_to_conjugacy=True)
        assert len(minima) == 24
        assert minima == conjugation_orbit_minima(
            brute_force_surjections(pres, g))

    def test_one_surjectivity_check_per_orbit(self, table, monkeypatch):
        # 3_1 # 3_1 -> D3sC3: subgroup_generated runs once per conjugation
        # orbit of relator solutions in a generating class, not per leaf
        pres = connected_sum(table["3_1"], table["3_1"])
        g = d3_semidirect_c3()
        orbits = {min(conjugates(g, images))
                  for cls in g.conjugacy_classes() if cls.generates
                  for images in itertools.product(
                      sorted(cls.members), repeat=pres.generators)
                  if satisfies_relators(pres, g, images)}
        calls = []
        real = FiniteGroup.subgroup_generated

        def counted(self, gens):
            calls.append(tuple(gens))
            return real(self, gens)

        monkeypatch.setattr(FiniteGroup, "subgroup_generated", counted)
        minima = find_meridional_surjections(pres, g, up_to_conjugacy=True)
        assert sorted(calls) == sorted(orbits)
        assert len(orbits) > len(minima) == 24

    @pytest.mark.parametrize("n", range(2, 20))
    def test_central_class_needs_no_closure(self, table, monkeypatch, n):
        # C_n has only classes {r}; where <r> = C_n, every leaf is
        # (r, ..., r), so the search finds the oracle's surjections
        # without closing a single subgroup
        group = cyclic(n)
        expected = {name: brute_force_surjections(pres, group)
                    for name, pres in table.items()}
        group.conjugacy_classes()  # the generates flags close subgroups
        calls = []
        real = FiniteGroup.subgroup_generated

        def counted(self, gens):
            calls.append(tuple(gens))
            return real(self, gens)

        monkeypatch.setattr(FiniteGroup, "subgroup_generated", counted)
        for name, pres in table.items():
            assert find_meridional_surjections(pres, group) == \
                expected[name], name
            assert find_meridional_surjections(
                pres, group, up_to_conjugacy=True) == expected[name], name
        assert calls == []

    def test_central_generating_class_only_in_cyclic_groups(self):
        # <r> = G for a central r makes G cyclic, so on every non-abelian
        # group the search still closes a subgroup per orbit minimum
        for name, group, _ in catalog_under_24():
            for cls in group.conjugacy_classes():
                if cls.generates and len(cls) == 1:
                    assert group.element_order(cls.representative) == \
                        group.order, name

    @pytest.mark.parametrize("group", [
        dihedral(25), dihedral(27), dp_semidirect_cp(5)],
        ids=lambda g: g.name)
    def test_one_x1_per_class(self, table, group):
        # x_1 is fixed to its class's least element, so exhausting these
        # two-generator trees takes 1 + |C| <= |G| nodes, not |C| + |C|^2
        for name in ("5_2", "6_1"):
            for up_to_conjugacy in (False, True):
                assert find_meridional_surjections(
                    table[name], group, up_to_conjugacy=up_to_conjugacy,
                    budget=group.order) == []


def same_class(group, src, dst) -> bool:
    """Whether regular_equivalence_classes puts src and dst together."""
    homs = [Homomorphism(group, tuple(src)), Homomorphism(group, tuple(dst))]
    return len(regular_equivalence_classes(homs)) == 1


def oracle_classes(homs):
    """The automorphism classes built pairwise with the all-pairs oracle:
    each surjection joins the first class whose first member it extends."""
    classes = []
    for h in homs:
        for cls in classes:
            if extends_to_automorphism_all_pairs(h.group, cls[0].images,
                                                 h.images):
                cls.append(h)
                break
        else:
            classes.append([h])
    return classes


class TestGroupFactsOnce:
    @pytest.mark.parametrize("knot, make_group", [
        ("8_18", lambda: cyclic(19)), ("8_18", alternating4),
        ("5_2", lambda: dihedral(25))], ids=["C19", "A4", "D25"])
    def test_second_search_conjugates_nothing(self, table, monkeypatch,
                                              knot, make_group):
        # classes, whether they generate, and conjugation are group facts:
        # the first search computes them and the second only reads them
        calls = []
        conjugate = FiniteGroup.conjugate

        def counted(self, g, by):
            calls.append((g, by))
            return conjugate(self, g, by)

        monkeypatch.setattr(FiniteGroup, "conjugate", counted)
        group = make_group()
        first = find_meridional_surjections(table[knot], group)
        del calls[:]
        assert find_meridional_surjections(table[knot], group) == first
        assert calls == []


class TestRegularEquivalence:
    def test_automorphism_extension_on_conjugates(self, trefoil):
        g = dihedral(3)
        surj = find_meridional_surjections(trefoil, g)
        base = surj[0]
        for other in surj[1:]:
            assert same_class(g, base.images, other.images)

    def test_rejects_non_automorphism(self):
        g = cyclic(4)
        # 1 -> 2 does not extend (2 has order 2)
        assert not same_class(g, (1,), (2,))

    def test_matches_all_pairs_oracle(self, table):
        # the Cayley-graph keys of [src, dst] agree exactly when the
        # oracle's walk, checked on all |G|^2 pairs, is an automorphism
        pairs = []
        for name in ("3_1", "4_1", "8_18"):
            for g in (dihedral(3), alternating4(), dicyclic(3),
                      d3_semidirect_c3()):
                homs = find_meridional_surjections(table[name], g)
                pairs += [(g, src.images, dst.images)
                          for src in find_meridional_surjections(
                              table[name], g, up_to_conjugacy=True)
                          for dst in homs]
        rng = random.Random(7)
        for g in (cyclic(12), metacyclic(3, 7, 2)):
            sources = [src for src in itertools.product(range(g.order),
                                                        repeat=2)
                       if len(g.subgroup_generated(src)) == g.order]
            for _ in range(2000):
                src = rng.choice(sources)
                dst = tuple(rng.randrange(g.order) for _ in src)
                pairs.append((g, src, dst))
        outcomes = [same_class(*pair) for pair in pairs]
        assert outcomes == [extends_to_automorphism_all_pairs(*pair)
                            for pair in pairs]
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("knot, group, count", [
        ("8_18", alternating4(), 5), ("8_18", d3_semidirect_c3(), 1),
        ("6_1", metacyclic(3, 7, 2), None), ("3_1", dicyclic(3), None)],
        ids=lambda v: getattr(v, "name", v))
    def test_partition_of_every_surjection(self, table, knot, group, count):
        homs = find_meridional_surjections(table[knot], group)
        classes = regular_equivalence_classes(homs)
        assert classes == oracle_classes(homs)
        if count is not None:
            assert len(classes) == count

    def test_cyclic_surjections_collapse(self, table):
        g = cyclic(23)
        surj = find_meridional_surjections(table["3_1"], g,
                                           up_to_conjugacy=True)
        assert len(surj) == 22
        classes = regular_equivalence_classes(surj)
        assert len(classes) == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equal_images_on_cyclic_groups(self, m):
        # images all equal to one g are keyed by m and the order of g, with
        # no Cayley-graph walk: against the all-pairs oracle on every pair
        # of such tuples whose source generates
        for g in (cyclic(1), cyclic(2), cyclic(12), cyclic(19)):
            for x, y in itertools.product(g.elements(), repeat=2):
                src, dst = (x,) * m, (y,) * m
                if len(g.subgroup_generated(src)) == g.order:
                    assert same_class(g, src, dst) == \
                        extends_to_automorphism_all_pairs(g, src, dst)
        g = cyclic(5)
        assert len(regular_equivalence_classes(
            [Homomorphism(g, (1,) * m), Homomorphism(g, (1,) * (m + 1))])) == 2

    def test_metacyclic_collapse(self, table):
        g = metacyclic(3, 7, 2)
        surj = find_meridional_surjections(table["6_1"], g,
                                           up_to_conjugacy=True)
        assert len(surj) > 0
        classes = regular_equivalence_classes(surj)
        assert sum(len(c) for c in classes) == len(surj)


class TestHomomorphism:
    def test_image_of_word(self):
        g = dihedral(3)
        h = Homomorphism(g, (g.label("b"), g.label("b")))
        assert evaluate_word(g, h.images, (1, 2)) == g.identity
        assert evaluate_word(g, h.images, (1, -2)) == g.identity
        assert evaluate_word(g, h.images, (1,)) == g.label("b")
