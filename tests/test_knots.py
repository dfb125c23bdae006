import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bundled_pd_codes, poly
from paper_lemmas import ring_add, ring_word_mul
from talex.algebra import (
    INTEGERS,
    LaurentPolynomial,
    PolyMatrix,
    determinant,
    equal_up_to_unit,
    prime_field,
    RationalFunction,
    reduce_mod,
)
from talex.knots import (
    KnotPresentation,
    KnotTableError,
    PDCode,
    PDValidationError,
    abelian_exponent,
    alexander_minor,
    fox_derivative,
    fox_jacobian,
    free_reduce,
    invert_word,
    load_knot_table,
    wirtinger_from_pd,
)
from talex.twisted import alexander_polynomial

words = st.lists(
    st.integers(-4, 4).filter(lambda x: x != 0), max_size=12).map(tuple)

TREFOIL_PD = [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]


class TestFreeWords:
    def test_inverse_pair(self):
        assert free_reduce((1, -1)) == ()

    def test_nested_cancellation(self):
        assert free_reduce((1, 2, -2, -1)) == ()

    def test_middle_cancellation(self):
        assert free_reduce((1, 2, -2, 3)) == (1, 3)

    def test_rejects_zero_letter(self):
        with pytest.raises(ValueError):
            free_reduce((1, 0))

    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_nonincreasing(self, w):
        r = free_reduce(w)
        assert free_reduce(r) == r
        assert len(r) <= len(w)

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_word_times_inverse_reduces_away(self, w):
        assert free_reduce(w + invert_word(w)) == ()

    def test_abelian_exponent(self):
        assert abelian_exponent((1, 2, -1)) == 1
        assert abelian_exponent((1, 3, -2, -3)) == 0
        assert abelian_exponent(()) == 0


def ring_mul_letter(elem, letter):
    """Right multiplication of a group ring element by one letter."""
    out = {}
    for w, c in elem.items():
        key = free_reduce(w + (letter,))
        out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


class TestFoxDerivative:
    def test_generator_axiom(self):
        assert fox_derivative((1,), 1) == {(): 1}

    def test_inverse_axiom(self):
        assert fox_derivative((-1,), 1) == {(-1,): -1}

    def test_other_generator(self):
        assert fox_derivative((2,), 1) == {}

    def test_conjugate_by_hand(self):
        # product rule by hand: d(x1 x2 x1^-1)/dx1 = 1 - x1 x2 x1^-1
        assert fox_derivative((1, 2, -1), 1) == {(): 1, (1, 2, -1): -1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fox_derivative((1,), 0)

    @given(words, words)
    @settings(max_examples=150, deadline=None)
    def test_product_rule(self, u, v):
        for j in range(1, 5):
            du = fox_derivative(u, j)
            dv = fox_derivative(v, j)
            lhs = fox_derivative(free_reduce(u + v), j)
            rhs = ring_add(du, ring_word_mul(free_reduce(u), dv))
            assert lhs == rhs

    @given(words)
    @settings(max_examples=200, deadline=None)
    def test_fundamental_identity(self, w):
        # sum_j dw/dx_j (x_j - 1) = w - 1 in the free group ring
        w = free_reduce(w)
        total = {}
        for j in range(1, 5):
            d = fox_derivative(w, j)
            total = ring_add(total, ring_mul_letter(d, j))
            total = ring_add(total, {k: -c for k, c in d.items()})
        expected = ring_add({w: 1}, {(): -1})
        assert total == expected

    def test_fundamental_identity_on_bundled_relators(self, table):
        for pres in table.values():
            m = pres.generators
            for r in pres.relators:
                total = {}
                for j in range(1, m + 1):
                    d = fox_derivative(r, j)
                    total = ring_add(total, ring_mul_letter(d, j))
                    total = ring_add(total, {k: -c for k, c in d.items()})
                assert total == ring_add({r: 1}, {(): -1})


class TestPDCode:
    def test_trefoil_parses(self):
        pd = PDCode.parse(TREFOIL_PD)
        assert len(pd) == 3

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(PDValidationError, match="twice"):
            PDCode.parse([[1, 2, 2, 2], [3, 4, 1, 3]])

    def test_rejects_gap_in_labels(self):
        with pytest.raises(PDValidationError, match="cover"):
            PDCode.parse([[1, 4, 2, 7], [3, 7, 4, 1]])

    def test_rejects_non_quadruple(self):
        with pytest.raises(PDValidationError, match="4-tuple"):
            PDCode.parse([[1, 2, 2]])

    def test_rejects_empty(self):
        with pytest.raises(PDValidationError):
            PDCode.parse([])


class TestWirtinger:
    def test_trefoil_presentation(self):
        pres = wirtinger_from_pd(PDCode.parse(TREFOIL_PD))
        assert pres.generators == 3
        assert len(pres.relators) == 2
        assert pres.meridional
        assert alexander_polynomial(pres) == poly([1, -1, 1])

    def test_one_crossing_unknot(self):
        pres = wirtinger_from_pd(PDCode.parse([[1, 2, 2, 1]]))
        assert pres.generators == 1
        assert pres.relators == ()
        assert alexander_polynomial(pres) == LaurentPolynomial.one()

    def test_figure_eight(self, figure_eight):
        got = alexander_polynomial(figure_eight)
        assert equal_up_to_unit(RationalFunction.of(got),
                                RationalFunction.of(poly([1, -3, 1])))

    def test_alexander_quandle_matrix_oracle(self, table):
        # independent route, no Fox calculus: the Alexander-quandle
        # relation at a crossing (out = t*in + (1-t)*over, with in/out
        # swapped according to the crossing handedness) gives an n x n
        # presentation matrix over ZZ[t] whose (n-1)-minor is Delta
        for name, raw in (("3_1", TREFOIL_PD),
                          ("4_1", [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4],
                                   [2, 7, 3, 8]])):
            pd = PDCode.parse(raw)
            pres = wirtinger_from_pd(pd)
            # relators have the shape (e*o, a, -e*o, -c)
            t = LaurentPolynomial.t_power(1)
            one = LaurentPolynomial.one()
            rows = []
            for rel in pres.relators:
                e_o, a, _, neg_c = rel
                o, a, c = abs(e_o), abs(a), abs(neg_c)
                sign = 1 if e_o > 0 else -1
                row = [LaurentPolynomial.zero()] * pres.generators
                # x_c = x_o^e x_a x_o^-e abelianizes to
                # c = t^±1-twisted combination; both signs give rows
                # equivalent to t*a + (1-t)*o - c up to units
                if sign > 0:
                    row[a - 1] = row[a - 1] + t
                    row[o - 1] = row[o - 1] + one - t
                    row[c - 1] = row[c - 1] - one
                else:
                    row[a - 1] = row[a - 1] + one
                    row[o - 1] = row[o - 1] + t - one
                    row[c - 1] = row[c - 1] - t
                rows.append(row[:pres.generators - 1])
            det = determinant(PolyMatrix.from_rows(rows))
            delta = alexander_polynomial(pres)
            assert equal_up_to_unit(RationalFunction.of(det),
                                    RationalFunction.of(delta)), name

    def test_relators_are_balanced(self, table):
        for pres in table.values():
            for r in pres.relators:
                assert abelian_exponent(r) == 0

    def test_rejects_inconsistent_under_strand(self):
        with pytest.raises(PDValidationError, match="under-strand"):
            wirtinger_from_pd(PDCode.parse([[2, 4, 1, 5], [3, 6, 4, 1],
                                            [5, 1 + 1, 6, 3]]))


class TestPresentations:
    def test_meridional_requires_balanced_relators(self):
        with pytest.raises(ValueError, match="unbalanced"):
            KnotPresentation(2, ((1, 1, -2),))

    def test_letter_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            KnotPresentation(2, ((1, 3, -1, -3),))


class TestAlexanderMinor:
    @pytest.mark.parametrize("name,simplified", [
        pytest.param(name, True, id=name)
        for name in ("3_1", "4_1", "5_2", "6_1", "7_4", "8_18")
    ] + [pytest.param(name, False, id=f"{name}-wirtinger")
         for name in sorted(bundled_pd_codes())])
    def test_reduction_and_dropped_column(self, table, name, simplified):
        # the F_p minor is the reduction of the integer one, and every
        # dropped column gives the same minor up to a unit; on the
        # simplified table entries and on the raw Wirtinger presentations
        pres = table[name] if simplified else \
            wirtinger_from_pd(bundled_pd_codes()[name])
        drops = range(1, pres.generators + 1)
        exact = [alexander_minor(pres, dropped=j) for j in drops]
        assert abs(sum(exact[0].coeffs)) == 1
        for p in (None, 2, 3, 5, 7):
            if p is None:
                minors = exact
            else:
                minors = [alexander_minor(pres, prime_field(p), j)
                          for j in drops]
                assert minors == [reduce_mod(d, p) for d in exact], p
            for d in minors[1:]:
                assert equal_up_to_unit(RationalFunction.of(minors[0]),
                                        RationalFunction.of(d)), (p, d)

    def test_no_relators(self):
        unknot = KnotPresentation(1, ())
        assert alexander_minor(unknot) == LaurentPolynomial.one()
        assert alexander_minor(unknot, prime_field(3)) == \
            LaurentPolynomial.one(prime_field(3))

    @pytest.mark.parametrize("pres,dropped,message", [
        (KnotPresentation(3, ((1, -2),)), None, "deficiency one"),
        (KnotPresentation(2, ((1, 1, -2, -2),), meridional=False), None,
         "meridional"),
        (KnotPresentation(2, ((1, 2, 1, -2, -1, -2),)), 3, "out of range"),
    ], ids=["deficiency", "not-meridional", "dropped-range"])
    def test_rejects(self, pres, dropped, message):
        with pytest.raises(ValueError, match=message):
            alexander_minor(pres, INTEGERS, dropped)


class TestFoxJacobian:
    def test_rows_and_columns(self, table):
        # one row per relator, the column of x_dropped left out
        pres = table["8_18"]
        m = pres.generators
        for dropped in range(1, m + 1):
            kept = [j for j in range(1, m + 1) if j != dropped]
            assert fox_jacobian(pres, dropped) == [
                [fox_derivative(r, j) for j in kept] for r in pres.relators]
        assert fox_jacobian(pres) == fox_jacobian(pres, m)
        assert fox_jacobian(KnotPresentation(1, ())) == []

    @pytest.mark.parametrize("pres,dropped,message", [
        (KnotPresentation(2, ((1, 1, -2, -2),), meridional=False), None,
         "meridional"),
        (KnotPresentation(3, ((1, -2),)), None, "deficiency one"),
        (KnotPresentation(2, ((1, 2, 1, -2, -1, -2),)), 0, "out of range"),
        (KnotPresentation(2, ((1, 2, 1, -2, -1, -2),)), 3, "out of range"),
    ], ids=["not-meridional", "deficiency", "dropped-0", "dropped-m+1"])
    def test_rejects(self, pres, dropped, message):
        with pytest.raises(ValueError, match=message):
            fox_jacobian(pres, dropped)


class TestKnotTable:
    def test_bundled_contents(self, table):
        assert set(table) == {"3_1", "4_1", "5_2", "6_1", "7_4", "8_18"}
        assert alexander_polynomial(table["3_1"]) == poly([1, -1, 1])

    def test_bundled_delta_values(self, table):
        expected = {
            "3_1": [1, -1, 1],
            "4_1": [1, -3, 1],
            "5_2": [2, -3, 2],
            "6_1": [2, -5, 2],
            "7_4": [4, -7, 4],
            "8_18": [1, -5, 10, -13, 10, -5, 1],
        }
        for name, coeffs in expected.items():
            got = alexander_polynomial(table[name])
            assert list(got.coeffs) in (coeffs, coeffs[::-1]), name

    def test_delta_at_one_is_unit(self, table):
        for name, pres in table.items():
            assert abs(alexander_polynomial(pres).evaluate(1)) == 1, name

    def test_61_vanishes_at_two_mod_seven(self, table):
        delta = alexander_polynomial(table["6_1"])
        assert delta.evaluate(2) % 7 == 0

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"knots": []}')
        assert load_knot_table(str(path)) == {}

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(KnotTableError, match="valid JSON"):
            load_knot_table(str(path))

    def test_missing_name(self, tmp_path):
        path = tmp_path / "anon.json"
        path.write_text(json.dumps({"knots": [{"pd": TREFOIL_PD}]}))
        with pytest.raises(KnotTableError, match="no name"):
            load_knot_table(str(path))

    def test_entry_without_data(self, tmp_path):
        path = tmp_path / "nodata.json"
        path.write_text(json.dumps({"knots": [{"name": "x"}]}))
        with pytest.raises(KnotTableError, match="pd code or relators"):
            load_knot_table(str(path))

    def test_invalid_pd_reported_with_entry(self, tmp_path):
        path = tmp_path / "badpd.json"
        path.write_text(json.dumps(
            {"knots": [{"name": "broken", "pd": [[1, 2, 3, 4]]}]}))
        with pytest.raises(KnotTableError, match="broken"):
            load_knot_table(str(path))

    def test_non_knot_presentation_rejected(self, tmp_path):
        # relator x1 x2^-1 twice gives first homology Z + Z/0...: this
        # presentation fails the determinant-at-1 unit check
        path = tmp_path / "notknot.json"
        path.write_text(json.dumps({"knots": [
            {"name": "fake", "generators": 3,
             "relators": [[1, -2, 1, -2], [2, -3]]}]}))
        with pytest.raises(KnotTableError, match="not a unit"):
            load_knot_table(str(path))

    def test_direct_presentation_entry(self, tmp_path):
        path = tmp_path / "direct.json"
        path.write_text(json.dumps({"knots": [
            {"name": "trefoil2gen", "generators": 2,
             "relators": [[1, 2, 1, -2, -1, -2]]}]}))
        loaded = load_knot_table(str(path))
        assert alexander_polynomial(loaded["trefoil2gen"]) == poly([1, -1, 1])

    def test_file_object_source(self, table, tmp_path):
        import io
        src = io.StringIO(json.dumps(
            {"knots": [{"name": "3_1", "pd": TREFOIL_PD}]}))
        got = load_knot_table(src)
        assert got["3_1"] == table["3_1"]


def knot_table_text(**pd_codes) -> str:
    return json.dumps({"knots": [{"name": name, "pd": pd}
                                 for name, pd in pd_codes.items()]})


FIGURE_EIGHT_PD = [[4, 2, 5, 1], [8, 6, 1, 5], [6, 3, 7, 4], [2, 7, 3, 8]]


class TestKnotTableCache:
    # load_knot_table reads its source on every call and parses each
    # distinct text once
    def test_rewritten_file_is_reread(self, table, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(knot_table_text(k=TREFOIL_PD))
        assert load_knot_table(str(path)) == {"k": table["3_1"]}
        path.write_text(knot_table_text(k=FIGURE_EIGHT_PD, j=TREFOIL_PD))
        assert load_knot_table(str(path)) == {"k": table["4_1"],
                                              "j": table["3_1"]}

    def test_each_call_returns_a_fresh_dict(self, table, tmp_path):
        path = tmp_path / "mutated.json"
        path.write_text(knot_table_text(k=TREFOIL_PD))
        first = load_knot_table(str(path))
        first["k"] = table["4_1"]
        first["extra"] = table["5_2"]
        second = load_knot_table(str(path))
        assert second == {"k": table["3_1"]} and second is not first

    def test_equal_texts_share_presentations(self, tmp_path):
        import io
        text = knot_table_text(k=TREFOIL_PD)
        path = tmp_path / "shared.json"
        path.write_text(text)
        assert load_knot_table(io.StringIO(text))["k"] is \
            load_knot_table(str(path))["k"]

    @pytest.mark.parametrize("text,match", [
        ("{", "valid JSON"),
        (json.dumps({"knots": [{"name": "k", "pd": TREFOIL_PD},
                               {"name": "k", "pd": FIGURE_EIGHT_PD}]}),
         "entry 1: duplicate knot name 'k'"),
    ], ids=["malformed", "duplicate-name"])
    def test_bad_text_raises_on_every_call(self, tmp_path, text, match):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for _ in range(3):
            with pytest.raises(KnotTableError, match=match):
                load_knot_table(str(path))
