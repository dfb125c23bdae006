"""Tietze simplification of knot presentations, checked against the raw
Wirtinger presentation as the oracle."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_pd_codes
from paper_lemmas import simplify_presentation_counter
from talex.algebra import CoefficientDomain
from talex.groups import (
    alternating4,
    cyclic,
    dicyclic,
    dihedral,
    metacyclic,
    regular_representation,
)
from talex.homsearch import find_meridional_surjections
from talex.knots import (
    KnotPresentation,
    abelian_exponent,
    alexander_minor,
    invert_word,
    load_knot_table,
    simplify_presentation,
    wirtinger_from_pd,
)
from talex.twisted import alexander_polynomial, wada_invariant


PD_CODES = bundled_pd_codes()
EXPECTED_GENERATORS = {"3_1": 2, "4_1": 2, "5_2": 2, "6_1": 2, "8_18": 3}

# each group with the prime its invariant is compared mod (None: exact)
GROUPS = [(cyclic(3), None), (dihedral(3), 3), (dihedral(5), 5),
          (alternating4(), 2), (dicyclic(3), 3), (metacyclic(3, 7, 2), 7)]


@pytest.fixture(scope="module", params=sorted(PD_CODES))
def raw_and_simplified(request):
    raw = wirtinger_from_pd(PD_CODES[request.param])
    return request.param, raw, simplify_presentation(raw)


def _invariants(pres, group, p) -> Counter:
    rep = regular_representation(group)
    domain = CoefficientDomain(p)
    return Counter(wada_invariant(pres, f, rep, domain).normalized
                   for f in find_meridional_surjections(
                       pres, group, up_to_conjugacy=True))


class TestAgainstRawPresentation:
    def test_bundled_pd_codes_cover_expected_knots(self):
        assert set(PD_CODES) == set(EXPECTED_GENERATORS)

    def test_shape(self, raw_and_simplified):
        name, raw, simp = raw_and_simplified
        assert simp.meridional
        assert len(simp.relators) == simp.generators - 1
        assert all(abelian_exponent(r) == 0 for r in simp.relators)
        assert abs(sum(alexander_minor(simp).coeffs)) == 1
        if name == "8_18":
            assert simp.generators <= 3
        else:
            assert simp.generators == EXPECTED_GENERATORS[name]
        assert simp.generators < raw.generators

    def test_fixpoint(self, raw_and_simplified):
        _, _, simp = raw_and_simplified
        assert simplify_presentation(simp) == simp

    def test_table_holds_simplified(self, raw_and_simplified, table):
        name, _, simp = raw_and_simplified
        assert table[name] == simp

    def test_alexander_polynomial(self, raw_and_simplified):
        _, raw, simp = raw_and_simplified
        assert alexander_polynomial(simp) == alexander_polynomial(raw)

    @pytest.mark.parametrize("group", [g for g, _ in GROUPS],
                             ids=lambda g: g.name)
    def test_surjection_counts(self, raw_and_simplified, group):
        _, raw, simp = raw_and_simplified
        for up_to_conjugacy in (False, True):
            assert len(find_meridional_surjections(
                simp, group, up_to_conjugacy=up_to_conjugacy)) == len(
                find_meridional_surjections(
                    raw, group, up_to_conjugacy=up_to_conjugacy))

    @pytest.mark.parametrize("group,p", GROUPS,
                             ids=[g.name for g, _ in GROUPS])
    def test_wada_invariants(self, raw_and_simplified, group, p):
        _, raw, simp = raw_and_simplified
        assert _invariants(simp, group, p) == _invariants(raw, group, p)


class TestElimination:
    def test_solves_either_sign_of_occurrence(self):
        # x3 x1 x3^-1 x2^-1 = 1 (through x2^-1) and x2 x3 x1^-1 x3^-1 = 1
        # (through x2) both give x2 = x3 x1 x3^-1, the cheapest choice;
        # substituted into x1 x2 x1^-1 x3^-1 and renumbered (x3 -> x2)
        # that leaves the braid relator x1 x2 x1 = x2 x1 x2
        trefoil = KnotPresentation(2, ((1, 2, 1, -2, -1, -2),))
        for first in ((3, 1, -3, -2), (2, 3, -1, -3)):
            pres = KnotPresentation(3, (first, (1, 2, -1, -3)))
            assert simplify_presentation(pres) == trefoil

    def test_inverse_occurrence_inside_relator(self):
        # x3 x2 x1^-1 x2^-1 = 1 gives x1 = x2^-1 x3 x2 (not its conjugate
        # x3); substituted into x3 x1 x3^-1 x2^-1 and renumbered
        pres = KnotPresentation(3, ((3, 2, -1, -2), (3, 1, -3, -2)))
        assert simplify_presentation(pres) == KnotPresentation(
            2, ((2, -1, 2, 1, -2, -1),))

    def test_cyclic_reduction_exposes_single_occurrence(self):
        # x3 appears three times, once after cancelling x3 ... x3^-1
        pres = KnotPresentation(3, ((3, 3, -1, 2, 1, -2, -1, -3),))
        assert simplify_presentation(pres) == KnotPresentation(2, ())

    def test_direct_entries_are_simplified_at_load(self, tmp_path):
        path = tmp_path / "direct.json"
        path.write_text(json.dumps({"knots": [
            {"name": "trefoil3", "generators": 3,
             "relators": [[3, 1, -3, -2], [1, 2, -1, -3]]}]}))
        pres = load_knot_table(str(path))["trefoil3"]
        assert pres == KnotPresentation(2, ((1, 2, 1, -2, -1, -2),))
        assert alexander_polynomial(pres).coeffs == (1, -1, 1)


@st.composite
def meridional_presentations(draw):
    """m generators and m - 1 relators u x_i u^-1 x_k^-1, each saying that
    a conjugate of one meridian is another; u is any short word."""
    m = draw(st.integers(1, 6))
    letters = st.integers(-m, m).filter(lambda x: x != 0)
    relators = []
    for _ in range(m - 1):
        u = tuple(draw(st.lists(letters, max_size=4)))
        i, k = draw(st.integers(1, m)), draw(st.integers(1, m))
        relators.append(u + (i,) + invert_word(u) + (-k,))
    return KnotPresentation(m, tuple(relators))


class TestAgainstCounterOracle:
    """The dict-counting elimination picks the same (relator, generator)
    pair at every step as the Counter version in paper_lemmas."""

    def test_bundled_pd_codes(self):
        for pd in PD_CODES.values():
            raw = wirtinger_from_pd(pd)
            assert simplify_presentation(raw) == \
                simplify_presentation_counter(raw)

    @pytest.mark.parametrize("pres", [
        # cost 0 for x_4 in the second relator and for x_1, x_2 in the
        # third: the shorter relator goes first
        KnotPresentation(4, ((3, 1, -3, -2), (-1, 2, 1, -4), (2, -1))),
        # x_2 costs 2 in both relators: the earlier relator goes first
        KnotPresentation(3, ((1, 2, -1, -3), (-3, 1, 3, -2))),
        # x_1 and x_3 cost 0 in the second relator: the lower index goes
        # first
        KnotPresentation(3, ((2, 1, -2, -3), (3, -1))),
    ], ids=["shorter-relator", "earlier-relator", "lower-generator"])
    def test_tie_breaks(self, pres):
        assert simplify_presentation(pres) == \
            simplify_presentation_counter(pres)

    @given(meridional_presentations())
    @settings(max_examples=300, deadline=None)
    def test_random_meridional_presentations(self, pres):
        assert simplify_presentation(pres) == \
            simplify_presentation_counter(pres)
