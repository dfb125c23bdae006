import argparse
import json
import os

import pytest

from talex import __version__, cli, knots, theorems
from talex.algebra import (
    LaurentPolynomial,
    RationalFunction,
    equal_up_to_unit,
    prime_field,
    rational_normalize,
)
from talex.cli import main, parse_group_spec
from talex.groups import FiniteGroup, cyclic


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestAlexander:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "alexander", "--knot", "3_1")
        assert code == 0
        assert out.strip() == "3_1: t^2 - t + 1"

    def test_json_machine_form(self, capsys):
        code, report, _ = run_json(capsys, "alexander", "--knot", "3_1")
        assert code == 0
        assert report["command"] == "alexander"
        assert report["results"][0]["polynomial"] == {
            "minExponent": 0, "coefficients": [1, -1, 1]}

    def test_unknown_knot(self, capsys):
        code, _, err = run(capsys, "alexander", "--knot", "9_99")
        assert code == 3
        assert "unknown knot" in err

    def test_all_knots(self, capsys):
        code, report, _ = run_json(capsys, "alexander", "--all-knots")
        assert code == 0
        assert [r["knot"] for r in report["results"]] == \
            ["3_1", "4_1", "5_2", "6_1", "7_4", "8_18"]

    def test_empty_knot_list(self, capsys):
        # no --knot and no --all-knots is bad input, not an empty success
        code, out, err = run(capsys, "alexander", "--format", "json")
        assert code == 3 and out == ""
        assert err.startswith("error: no knot selected")


class TestCompute:
    def test_c2_regular(self, capsys):
        code, report, _ = run_json(capsys, "compute", "--knot", "3_1",
                                   "--group", "C2")
        assert code == 0
        inv = report["results"][0]["invariants"][0]
        num = LaurentPolynomial.from_json(inv["normalized"]["numerator"])
        den = LaurentPolynomial.from_json(inv["normalized"]["denominator"])
        # Delta(t) Delta(-t) / ((t-1)(t+1)) up to unit
        expect = RationalFunction(
            LaurentPolynomial.make(num.domain, 0, (1, 0, 1, 0, 1)),
            LaurentPolynomial.make(num.domain, 0, (-1, 0, 1)))
        assert equal_up_to_unit(RationalFunction(num, den), expect)

    def test_no_surjection_exit_code(self, capsys):
        code, _, _ = run(capsys, "compute", "--knot", "4_1", "--group", "D3")
        assert code == 2

    def test_d9_trefoil_has_no_surjection(self, capsys):
        # no surjection G(3_1) -> D_9 exists (H_1 of the double branched
        # cover is Z/3); the CLI reports the empty search faithfully
        code, out, _ = run(capsys, "compute", "--knot", "3_1",
                           "--group", "D9")
        assert code == 2
        assert "no surjection" in out

    def test_mod_flag(self, capsys):
        code, report, _ = run_json(capsys, "compute", "--knot", "3_1",
                                   "--group", "D3", "--mod", "3",
                                   "--up-to-conjugacy")
        assert code == 0
        [res] = report["results"]
        assert res["modulus"] == 3 and res["surjections_found"] == 1

    def test_bad_group_spec(self, capsys):
        code, _, err = run(capsys, "compute", "--knot", "3_1",
                           "--group", "Q8")
        assert code == 3 and "unrecognized group spec" in err

    def test_invalid_group_parameters(self, capsys):
        for spec in ("C0", "D1", "Dic1", "G(3,8|2)", "D4sC4"):
            code, _, err = run(capsys, "compute", "--knot", "3_1",
                               "--group", spec)
            assert code == 3 and err.startswith("error:"), spec

    def test_metacyclic_with_m_zero(self, capsys):
        code, out, err = run(capsys, "compute", "--knot", "3_1",
                             "--group", "G(0,7|2)")
        assert (code, out) == (3, "")
        assert err == "error: m must be positive\n"

    def test_even_dihedral_hint(self, capsys):
        code, _, err = run(capsys, "compute", "--knot", "3_1",
                           "--group", "D4")
        assert code == 3
        assert "not normally generated" in err

    def test_even_dicyclic_hint(self, capsys):
        code, _, err = run(capsys, "compute", "--knot", "3_1",
                           "--group", "Dic4")
        assert code == 3
        assert "not normally generated" in err

    def test_budget_exceeded(self, capsys):
        code, _, _ = run(capsys, "compute", "--knot", "8_18",
                         "--group", "D3", "--budget", "10")
        assert code == 4

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = run(capsys, "compute", "--knot", "3_1",
                           "--group", "C2", "--mod", "6")
        assert code == 3 and "not prime" in err

    def test_semidirect_spec_with_two_primes_rejected(self, capsys):
        code, out, err = run(capsys, "compute", "--knot", "3_1",
                             "--group", "D3sC5")
        assert code == 3 and out == "" and "DpsCp" in err

    def test_modulus_beyond_the_primality_proof_rejected(self, capsys):
        # a 25-digit prime above the range where Miller-Rabin on the
        # bases 2..41 is a proof
        code, out, err = run(capsys, "compute", "--knot", "3_1",
                             "--group", "C2", "--mod",
                             "4000000000000000000000027")
        assert code == 3 and out == "" and "too large" in err

    def test_large_prime_modulus(self, capsys):
        code, report, _ = run_json(capsys, "compute", "--knot", "3_1",
                                   "--group", "D3", "--mod",
                                   str(2 ** 61 - 1), "--up-to-conjugacy")
        assert code == 0
        [res] = report["results"]
        assert res["modulus"] == 2 ** 61 - 1
        assert res["surjections_found"] == 1

    def test_cayley_file_group(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps(cyclic(5).to_json()))
        code, report, _ = run_json(capsys, "compute", "--knot", "3_1",
                                   "--group", f"cayley:{path}")
        assert code == 0
        assert report["results"][0]["surjections_found"] == 4


class TestVerify:
    def test_dihedral_all_true(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--case", "dihedral",
                                   "--p", "3", "--n", "1", "--knot", "3_1")
        assert code == 0
        [rec] = report["results"]
        assert rec["verdicts"] == [True]
        assert set(rec) >= {"knot", "group", "parameters",
                            "surjections_found", "verdicts", "lhs", "rhs",
                            "modulus", "elapsed_ms"}

    def test_cyclic_all_knots(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--case", "cyclic",
                                   "--n", "3", "--all-knots")
        assert code == 0
        assert len(report["results"]) == 6
        for rec in report["results"]:
            assert all(rec["verdicts"])

    def test_builds_the_case_group_once(self, capsys, monkeypatch):
        # one C7 for the six knots, so its conjugation table is read once
        built = []
        real_init = FiniteGroup.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        theorems.group_for_case.cache_clear()
        monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
        code, report, _ = run_json(capsys, "verify", "--case", "cyclic",
                                   "--n", "7", "--all-knots")
        assert code == 0 and len(report["results"]) == 6
        assert len(built) == 1

    def test_parses_the_table_and_builds_the_parser_once(self, capsys,
                                                          monkeypatch):
        # three runs in one process: the bundled table is read three
        # times, but its six knots are simplified during the first load
        # only, and one parser serves all three command lines
        simplified, parsers = [], []
        real_simplify = knots.simplify_presentation
        real_init = cli._Parser.__init__

        def counting_simplify(pres):
            simplified.append(pres)
            return real_simplify(pres)

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "talex":
                parsers.append(self)
            real_init(self, *args, **kwargs)

        knots._parse_knot_table.cache_clear()
        cli.build_parser.cache_clear()
        monkeypatch.setattr(knots, "simplify_presentation", counting_simplify)
        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(3):
            code, report, _ = run_json(capsys, "verify", "--case", "cyclic",
                                       "--n", "5", "--all-knots")
            assert code == 0 and len(report["results"]) == 6
        assert len(simplified) == 6
        assert len(parsers) == 1

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "dihedral", "--p",
                           "4", "--knot", "3_1")
        assert code == 3 and "odd prime" in err

    @pytest.mark.parametrize("argv", [
        ("--case", "dihedral"),
        ("--case", "dicyclic"),
        ("--case", "conjecture", "--experimental"),
        ("--case", "dihedral_times_cyclic", "--m", "3"),
        ("--case", "metacyclic", "--m", "3", "--k", "2"),
    ], ids=["dihedral", "dicyclic", "conjecture", "dihedral_times_cyclic",
            "metacyclic"])
    def test_missing_p_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--knot", "3_1")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "odd prime" in err

    def test_dihedral_times_even_cyclic_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--case",
                           "dihedral_times_cyclic", "--p", "3", "--m", "2",
                           "--knot", "3_1")
        assert code == 3 and "m odd" in err

    def test_no_knot_selected(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "a4")
        assert code == 3 and out == ""
        assert err.startswith("error: no knot selected")

    def test_cyclic_order_below_one_exits_3(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "cyclic", "--n",
                             "0", "--knot", "3_1")
        assert code == 3 and out == "" and "needs n >= 1" in err

    def test_missing_case(self, capsys):
        code, _, err = run(capsys, "verify", "--knot", "3_1")
        assert code == 3 and "needs --case" in err

    def test_mod_override_conflicts(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "dihedral", "--p",
                           "3", "--mod", "5", "--knot", "3_1")
        assert code == 3 and "conflicts" in err

    def test_mod_override_on_cyclic_allowed(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--case", "cyclic",
                                   "--n", "2", "--mod", "5",
                                   "--knot", "3_1")
        assert code == 0
        assert report["results"][0]["modulus"] == 5

    @pytest.mark.parametrize("argv", [
        ("--case", "a4", "--p", "5"),
        ("--case", "cyclic", "--n", "3", "--p", "7"),
        ("--case", "conjecture", "--p", "3", "--n", "2", "--experimental"),
    ], ids=["a4-p", "cyclic-p", "conjecture-n"])
    def test_parameter_the_case_does_not_take_exits_3(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--knot", "8_18")
        assert code == 3 and out == ""
        assert err.startswith("error:") and "takes no parameter" in err

    def test_case_flags_are_the_case_parameters(self):
        # each parameter of a _CASES row has an integer flag of its own
        # name, and verify has no other integer flag but --budget and --mod
        [sub] = [a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        flags = {(tuple(a.option_strings), a.dest)
                 for a in sub.choices["verify"]._actions if a.type is int}
        names = {key for row in theorems._CASES.values()
                 for key in row.parameters}
        assert flags - {(("--budget",), "budget"), (("--mod",), "mod")} \
            == {((f"--{key}",), key) for key in names}

    def test_conjecture_needs_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--case", "conjecture",
                           "--p", "3", "--knot", "3_1")
        assert code == 3 and "experimental" in err

    def test_conjecture_with_flag(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--case", "conjecture",
                                   "--p", "3", "--knot", "3_1",
                                   "--experimental")
        assert code == 0
        assert report["results"][0]["surjections_found"] == 0

    def test_conjecture_mismatch_exits_1(self, capsys, monkeypatch):
        # the conjecture case is proved, so a mismatch is an error as in
        # every other case; (t + 1) is not a unit, so no lhs can match
        real_rhs = theorems.rhs
        t_plus_1 = RationalFunction.of(
            LaurentPolynomial.make(prime_field(3), 0, (1, 1)))
        monkeypatch.setattr(theorems, "rhs",
                            lambda *args: real_rhs(*args) * t_plus_1)
        code, report, _ = run_json(capsys, "verify", "--case", "conjecture",
                                   "--p", "3", "--experimental",
                                   "--knot", "8_18")
        assert code == 1
        [rec] = report["results"]
        assert rec["surjections_found"] == 24
        assert not any(rec["verdicts"])

    def test_json_roundtrip_normal_forms(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--case", "dihedral",
                                   "--p", "3", "--knot", "6_1")
        assert code == 0
        [rec] = report["results"]
        dom = prime_field(rec["modulus"])
        rhs_rf = RationalFunction.from_json(rec["rhs"], dom)
        assert rational_normalize(rhs_rf) == rhs_rf
        for entry in rec["lhs"]:
            lhs_rf = RationalFunction.from_json(entry, dom)
            assert rational_normalize(lhs_rf) == lhs_rf
            assert equal_up_to_unit(lhs_rf, rhs_rf)


class TestSurjections:
    def test_counts_both_ways(self, capsys):
        code, out, _ = run(capsys, "surjections", "--knot", "3_1",
                           "--group", "D3")
        assert code == 0
        assert "6 surjections (1 up to conjugacy)" in out

    def test_text_and_json_agree(self, capsys):
        _, out, _ = run(capsys, "surjections", "--knot", "3_1",
                        "--group", "D3")
        code, report, _ = run_json(capsys, "surjections", "--knot", "3_1",
                                   "--group", "D3")
        assert code == 0
        [rec] = report["results"]
        assert f"{rec['count']} surjections" in out
        assert f"({rec['count_up_to_conjugacy']} up to conjugacy)" in out
        assert rec["count"] == 6 and rec["count_up_to_conjugacy"] == 1

    @pytest.mark.parametrize("spec", ["A4", "D3sC3", "Dic5", "G(3,7|2)"])
    def test_count_is_orbits_times_orbit_size(self, capsys, spec):
        # a surjection's centralizer is the center Z(G), so every
        # conjugation orbit has |G| / |Z(G)| members
        g = parse_group_spec(spec)
        center = [z for z in g.elements()
                  if all(g.mul(z, x) == g.mul(x, z) for x in g.elements())]
        code, report, _ = run_json(capsys, "surjections", "--all-knots",
                                   "--group", spec)
        assert code in (0, 2)
        assert any(r["count"] for r in report["results"])
        for r in report["results"]:
            assert r["count"] * len(center) == \
                r["count_up_to_conjugacy"] * g.order

    def test_klein_four_rejected_with_hint(self, capsys):
        code, _, err = run(capsys, "surjections", "--knot", "3_1",
                           "--group", "C2xC2")
        assert code == 2
        assert "not normally generated by one element" in err

    def test_no_surjection_exit(self, capsys):
        code, _, _ = run(capsys, "surjections", "--knot", "4_1",
                         "--group", "D3")
        assert code == 2

    def test_empty_knot_list(self, capsys):
        code, out, err = run(capsys, "surjections", "--group", "D3")
        assert code == 3 and out == ""
        assert err.startswith("error: no knot selected")

    def test_invalid_factor_rejected(self, capsys):
        # C0 fails inside a direct product; still bad input, exit 3
        code, _, err = run(capsys, "surjections", "--group", "C0xC3",
                           "--knot", "3_1")
        assert code == 3
        assert err.startswith("error:") and "positive" in err

    def test_one_search_per_knot(self, capsys, monkeypatch):
        import talex.cli

        calls = []
        search = talex.cli.find_meridional_surjections

        def counting(pres, group, **kwargs):
            calls.append(pres)
            return search(pres, group, **kwargs)

        monkeypatch.setattr(talex.cli, "find_meridional_surjections",
                            counting)
        code, report, _ = run_json(capsys, "surjections", "--knot", "3_1",
                                   "--knot", "6_1", "--group", "D3")
        assert code == 0
        assert len(calls) == 2
        assert [(r["count"], r["count_up_to_conjugacy"])
                for r in report["results"]] == [(6, 1), (6, 1)]


class TestGroupsList:
    def test_lists_catalog(self, capsys):
        code, report, _ = run_json(capsys, "groups", "list")
        assert code == 0
        assert len(report["results"]) == 35
        specs = {r["spec"] for r in report["results"]}
        assert {"C1", "C23", "D9", "Dic5", "G(3,7|2)", "A4",
                "D3sC3", "D3xC3"} <= specs

    def test_text_mentions_orders(self, capsys):
        code, out, _ = run(capsys, "groups", "list")
        assert code == 0
        assert "D9" in out and "order  18" in out


class TestTableSources:
    def test_table_flag(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({"knots": [
            {"name": "tiny", "pd": [[1, 4, 2, 5], [3, 6, 4, 1],
                                    [5, 2, 6, 3]]}]}))
        code, report, _ = run_json(capsys, "alexander", "--all-knots",
                                   "--table", str(path))
        assert code == 0
        assert [r["knot"] for r in report["results"]] == ["tiny"]

    def test_env_override(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps({"knots": [
            {"name": "only", "pd": [[1, 4, 2, 5], [3, 6, 4, 1],
                                    [5, 2, 6, 3]]}]}))
        monkeypatch.setenv("TALEX_TABLE", str(path))
        code, report, _ = run_json(capsys, "alexander", "--all-knots")
        assert code == 0
        assert [r["knot"] for r in report["results"]] == ["only"]

    def test_bad_table_path(self, capsys):
        code, _, err = run(capsys, "alexander", "--knot", "3_1",
                           "--table", "/nonexistent/table.json")
        assert code == 3 and "cannot load knot table" in err

    @pytest.mark.parametrize("content,argv", [
        ([], ("compute", "--knot", "3_1", "--group", "cayley:{}")),
        ({"order": 2, "table": 5},
         ("compute", "--knot", "3_1", "--group", "cayley:{}")),
        ({"order": 1, "table": [[0]], "labels": 5},
         ("compute", "--knot", "3_1", "--group", "cayley:{}")),
        ({"order": 1, "table": [[0]], "labels": ["a"]},
         ("surjections", "--group", "cayley:{}", "--knot", "3_1")),
        ({"order": 1, "table": [[0]], "name": 5},
         ("surjections", "--group", "cayley:{}", "--knot", "3_1")),
        ({"knots": 5}, ("alexander", "--table", "{}", "--all-knots")),
        ({"knots": ["x"]}, ("alexander", "--table", "{}", "--all-knots")),
        ({"knots": [{"name": "a", "pd": 5}]},
         ("alexander", "--table", "{}", "--all-knots")),
        ({"knots": [{"name": ["a"], "pd": [[1, 4, 2, 5]]}]},
         ("alexander", "--table", "{}", "--all-knots")),
        ({"knots": [{"name": "k", "pd": [[1, 4, 2, 5], [3, 6, 4, 1],
                                         [5, 2, 6, 3]]},
                    {"name": "k", "pd": [[4, 2, 5, 1], [8, 6, 1, 5],
                                         [6, 3, 7, 4], [2, 7, 3, 8]]}]},
         ("alexander", "--table", "{}", "--all-knots")),
    ], ids=["cayley-list", "cayley-int-table", "cayley-int-labels",
            "cayley-list-labels", "cayley-int-name", "knots-int",
            "knots-str-entry", "knots-int-pd", "knots-list-name",
            "knots-duplicate-name"])
    def test_malformed_file_is_bad_input(self, capsys, tmp_path, content,
                                         argv):
        # a file of the wrong shape is bad input (exit 3), not a mismatch
        # (exit 1) with a traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == 3 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("entry,bad", [
        ({"generators": 2.5, "relators": [[1, 2, 1, -2, -1, -2]]}, "2.5"),
        ({"generators": True, "relators": [[1, 2, 1, -2, -1, -2]]}, "True"),
        ({"generators": "2", "relators": [[1, 2, 1, -2, -1, -2]]}, "'2'"),
        ({"generators": 2, "relators": [[1, 2, 1, -2, -1, -2.0]]}, "-2.0"),
        ({"generators": 2, "relators": [[1, 2, True, -2, -1, -2]]}, "True"),
        ({"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3.0]]}, "3.0"),
        ({"pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, "3"]]}, "'3'"),
    ], ids=["generators-float", "generators-bool", "generators-str",
            "letter-float", "letter-bool", "pd-float", "pd-str"])
    def test_non_integer_knot_value_is_bad_input(self, capsys, tmp_path,
                                                 entry, bad):
        # each of these used to be coerced by int() and load as a trefoil
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"knots": [{"name": "k", **entry}]}))
        code, out, err = run(capsys, "alexander", "--table", str(path),
                             "--all-knots")
        assert code == 3 and out == ""
        assert "entry k: " in err and f"{bad} is not an integer" in err

    @pytest.mark.parametrize("content,bad", [
        ({"order": 2, "table": [[0, 1], [1, 0]], "labels": {"a": 1.5}},
         "label 1.5"),
        ({"order": 2, "table": [[False, True], [True, False]]},
         "table entry False"),
        ({"order": 2, "table": [[0, 1.0], [1, 0]]}, "table entry 1.0"),
    ], ids=["label-float", "table-bool", "table-float"])
    def test_non_integer_cayley_value_is_bad_input(self, capsys, tmp_path,
                                                   content, bad):
        # set equality with range(order) used to accept each of these
        path = tmp_path / "g.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "compute", "--knot", "3_1",
                             "--group", f"cayley:{path}")
        assert code == 3 and out == ""
        assert f"{bad} is not an integer" in err


    @pytest.mark.parametrize("content,message", [
        ({"order": 0, "table": []}, "empty Cayley table"),
        ({"order": 2, "table": [[0, 1], [1]]}, "row 1 has wrong length"),
        ({"order": 2, "table": [[0, 1], [0, 1]]},
         "column 0 is not a permutation"),
        ({"order": 2, "table": [[0, 1], [1, 0]], "labels": {"a": 2}},
         "label 'a' out of range"),
        ({"order": 1}, "Cayley table has no 'table'"),
        ({"table": [[0]]}, "Cayley table has no 'order'"),
    ], ids=["empty", "short-row", "column", "label-range", "no-table",
            "no-order"])
    def test_cayley_table_failing_an_axiom_is_bad_input(
            self, capsys, tmp_path, content, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "compute", "--knot", "3_1",
                             "--group", f"cayley:{path}")
        assert (code, out) == (3, "")
        assert err == f"error: cannot load Cayley table {str(path)!r}: " \
            f"{message}\n"

    @pytest.mark.parametrize("entry,message", [
        ({"pd": [[1, 4, 2, 6], [3, 5, 4, 1], [5, 2, 6, 3]]},
         "crossing 0: over-edges 4,6 are not consecutive"),
        ({"generators": 3, "relators": [[1, 2, -1, -3]]},
         "expected deficiency one (3 generators, 1 relators)"),
        ({"relators": [[1, 2, 1, -2, -1, -2]]},
         "has relators but no 'generators'"),
    ], ids=["pd-over-edges", "deficiency", "no-generators"])
    def test_table_entry_failing_a_check_is_bad_input(
            self, capsys, tmp_path, entry, message):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"knots": [{"name": "k", **entry}]}))
        code, out, err = run(capsys, "alexander", "--table", str(path),
                             "--all-knots")
        assert (code, out) == (3, "")
        assert "entry k: " + message in err


class TestUsageErrors:
    # exit 2 means "no surjection exists", so argparse's own exit 2 for a
    # usage error would be misread; usage errors are bad input
    @pytest.mark.parametrize("argv", [
        ("alexander", "--knot", "3_1", "--bogus"),
        ("verify", "--case", "nosuch", "--knot", "3_1"),
        ("compute", "--knot", "3_1"),
        ("alexander", "--knot", "3_1", "--mod", "5"),
        ("verify", "--case", "cyclic", "--n", "2", "--knot", "3_1",
         "--up-to-conjugacy"),
        ("surjections", "--group", "D3", "--knot", "3_1", "--mod", "3"),
    ], ids=["unknown-flag", "invalid-case", "missing-group",
            "alexander-mod", "verify-up-to-conjugacy", "surjections-mod"])
    def test_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("error: talex")

    @pytest.mark.parametrize("budget", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ("compute", "--knot", "3_1", "--group", "D3"),
        ("verify", "--case", "cyclic", "--n", "2", "--knot", "3_1"),
        ("surjections", "--knot", "3_1", "--group", "D3"),
    ], ids=["compute", "verify", "surjections"])
    def test_budget_below_one_exits_3(self, capsys, argv, budget):
        # a budget of no nodes is an invalid parameter, not a search that
        # ran out of budget (exit 4)
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 3 and out == ""
        assert err.startswith("error: talex") and "--budget" in err

    @pytest.mark.parametrize("argv", [
        ("compute", "--group", "D3"),
        ("verify", "--case", "dihedral", "--p", "3"),
        ("surjections", "--group", "D3"),
    ], ids=["compute", "verify", "surjections"])
    def test_budget_exceeded_reported_per_knot(self, capsys, argv):
        # each command catches the search's budget error knot by knot
        code, report, _ = run_json(capsys, *argv, "--knot", "3_1",
                                   "--knot", "8_18", "--budget", "1")
        assert code == 4
        assert [r["knot"] for r in report["results"]] == ["3_1", "8_18"]
        assert all("error" in r for r in report["results"])

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


def fresh_parse(argv) -> dict:
    """vars(args) from a parser built anew, the reused parser's oracle."""
    return vars(cli.build_parser.__wrapped__().parse_args(argv))


def parser_command_lines(monkeypatch) -> list[list[str]]:
    """Every benchmark command line as the benchmark runs it, and one line
    per subcommand with each of its options."""
    monkeypatch.syspath_prepend(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench"))
    from workloads import WORKLOADS

    return [argv + ["--format", "json"]
            for lines in WORKLOADS.values() for argv in lines] + [
        ["alexander", "--knot", "3_1", "--knot", "4_1", "--table", "t.json"],
        ["compute", "--group", "D3", "--knot", "3_1", "--mod", "3",
         "--up-to-conjugacy", "--budget", "100", "--format", "json"],
        ["verify", "--case", "metacyclic", "--m", "3", "--p", "7", "--k",
         "2", "--n", "4", "--all-knots", "--mod", "7", "--experimental"],
        ["surjections", "--group", "A4", "--knot", "8_18",
         "--up-to-conjugacy", "--budget", "9"],
        ["groups", "list", "--format", "json"],
    ]


class TestParserReuse:
    # main reuses one parser for the life of the process; every parse must
    # give the namespace a parser built for that command line alone gives
    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_matches_a_fresh_parser(self, monkeypatch, order):
        lines = parser_command_lines(monkeypatch)
        if order == "reverse":
            lines.reverse()
        parser = cli.build_parser()
        for argv in lines:
            assert vars(parser.parse_args(argv)) == fresh_parse(argv), argv
        assert cli.build_parser() is parser

    def test_repeated_knots_do_not_accumulate(self, capsys):
        parser = cli.build_parser()
        first = ["alexander", "--knot", "A", "--knot", "B"]
        assert parser.parse_args(first).knot == ["A", "B"]
        assert parser.parse_args(["alexander", "--knot", "C"]).knot == ["C"]
        run(capsys, "alexander", "--knot", "3_1", "--knot", "4_1")
        code, out, _ = run(capsys, "alexander", "--knot", "5_2")
        assert code == 0 and out == "5_2: 2*t^2 - 3*t + 2\n"

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run(capsys, "verify", "--case", "cyclic", "--bogus")
        assert code == 3 and out == "" and "--bogus" in err
        argv = ["alexander", "--knot", "3_1"]
        assert vars(cli.build_parser().parse_args(argv)) == fresh_parse(argv)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "3_1: t^2 - t + 1\n"

    def test_version_twice(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--version"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == __version__ + "\n"


# one list and one dict, each placed at two depths of one value
_SHARED = [1, [], {"k": None}]
_NESTED = {"a": _SHARED, "b": {"c": [_SHARED, {"d": _SHARED}]}}


class TestJsonWriter:
    """_emit's writer prints json.dumps(envelope, indent=2) byte for byte:
    every envelope the commands print is checked against that oracle."""

    @pytest.fixture
    def envelopes(self, monkeypatch):
        seen = []
        writer = cli._indented_json

        def checked(value):
            text = writer(value)
            assert text == json.dumps(value, indent=2)
            seen.append(value)
            return text

        monkeypatch.setattr(cli, "_indented_json", checked)
        return seen

    @pytest.mark.parametrize("argv,code", [
        (("alexander", "--all-knots"), 0),
        (("compute", "--knot", "3_1", "--knot", "4_1", "--group", "D3"), 2),
        (("compute", "--all-knots", "--group", "A4", "--mod", "2"), 2),
        (("compute", "--knot", "3_1", "--group", "C6", "--mod", "3",
          "--up-to-conjugacy"), 0),
        (("compute", "--knot", "3_1", "--knot", "8_18", "--group", "D3",
          "--budget", "1"), 4),
        (("verify", "--case", "cyclic", "--n", "5", "--all-knots"), 0),
        (("verify", "--case", "cyclic", "--n", "4", "--all-knots",
          "--mod", "3"), 0),
        (("verify", "--case", "dihedral", "--p", "3", "--n", "1",
          "--knot", "3_1", "--knot", "4_1"), 0),
        (("verify", "--case", "dihedral", "--p", "3", "--knot", "3_1",
          "--knot", "8_18", "--budget", "1"), 4),
        (("surjections", "--group", "D5", "--all-knots"), 2),
        (("surjections", "--group", "D3", "--knot", "3_1",
          "--up-to-conjugacy"), 0),
        (("groups", "list"), 0),
    ], ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
    def test_every_subcommand(self, capsys, envelopes, argv, code):
        got, out, _ = run(capsys, *argv, "--format", "json")
        assert got == code and len(envelopes) == 1
        assert out == json.dumps(envelopes[0], indent=2) + "\n"

    def test_cayley_spec_with_quotes_and_non_ascii(self, capsys, envelopes,
                                                   tmp_path):
        path = tmp_path / 'gr\u00fcppe "\\ C5".json'
        path.write_text(json.dumps(cyclic(5).to_json()))
        code, out, _ = run(capsys, "compute", "--knot", "3_1", "--group",
                           f"cayley:{path}", "--format", "json")
        assert code == 0 and len(envelopes) == 1
        assert envelopes[0]["config"]["group"] == f"cayley:{path}"

    def test_class_members_share_one_dict(self, capsys, envelopes):
        # the four surjections x -> 1..4 of 3_1 onto C5 are one
        # automorphism class, so their results are one object
        run(capsys, "compute", "--knot", "3_1", "--group", "C5",
            "--format", "json")
        run(capsys, "verify", "--case", "cyclic", "--n", "5",
            "--knot", "3_1", "--format", "json")
        records = envelopes[0]["results"][0]["invariants"]
        lhs = envelopes[1]["results"][0]["lhs"]
        assert len(records) == len(lhs) == 4
        assert all(r["normalized"] is records[0]["normalized"]
                   for r in records)
        assert all(x is lhs[0] for x in lhs)

    @pytest.mark.parametrize("value", [
        {}, [], (), [[]], {"a": {}}, {"a": [{}, [[], {}]], "b": [[[]]]},
        (1, (2, 3), [()]), {"t": ()},
        [1, True, 0, False, None], [True, 2], [[1, 2], [False, 2]],
        None, True, 7, -3, 2.5, "",
        [0.1, -0.0, 1e16, 1e-7, 3.0, float("inf"), float("-inf"),
         float("nan")],
        ['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t",
         "caf\u00e9 \u2603 \U0001f600", "cayley:/tmp/gr\u00fcppe.json"],
        {"\u00e9\"\\": [1, {"": ""}]},
        _NESTED, [_NESTED, _NESTED["b"], _SHARED],
    ])
    def test_hand_made_values(self, value):
        assert cli._indented_json(value) == json.dumps(value, indent=2)
