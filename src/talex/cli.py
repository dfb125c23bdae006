"""Command line interface.

Commands: alexander, compute, verify, surjections, groups list.
Exit codes are a stable contract for CI use:

    0  success / everything verified (or vacuously true)
    1  congruence mismatch
    2  no surjection exists: the search found none, or the group is not
       normally generated by one element, so no knot group maps onto it
    3  bad input (unknown knot, malformed group spec, invalid parameters,
       a usage error such as an unknown option)
    4  search budget exceeded

The knot table defaults to the bundled one; override with --table or the
TALEX_TABLE environment variable.  main reads the table on every call, but
one process builds the argument parser once and parses each distinct table
text once (knots.load_knot_table), so a caller that runs many command
lines in one process pays that set-up on the first only.

With --format json every command prints one envelope, {"version",
"command", "config", "results"}, as the bytes of json.dumps(envelope,
indent=2).  _emit's writer, _indented_json, produces those bytes itself:
the standard encoder runs in pure Python whenever it indents, and the
envelopes repeat values, such as one invariant shared by every surjection
of an automorphism class, that the writer encodes once.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import CoefficientDomain, to_text
from .groups import (
    FiniteGroup,
    GroupValidationError,
    alternating4,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    dp_semidirect_cp,
    group_from_cayley_json,
    metacyclic,
)
from .homsearch import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    conjugates,
    find_meridional_surjections,
)
from .knots import KnotTableError, bundled_table_path, load_knot_table
from .theorems import (
    CASE_NAMES,
    catalog_under_24,
    make_case,
    require_normal_generator,
    verify_congruence,
)
from .twisted import alexander_polynomial, invariants

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_NO_SURJECTION = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input, not argparse's exit 2, which the exit
    code contract reserves for "no surjection exists".  Subparsers are
    built with the parent's class, so this covers every subcommand."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def parse_group_spec(spec: str) -> FiniteGroup:
    """Compact group specifiers: C5, D9, Dic3, G(3,7|2), A4, D3xC3 (direct
    product), DpsCp for an odd prime p (D_p x| C_p, e.g. D3sC3),
    cayley:<path>.  A spec names a group whether or not a knot group maps
    onto it: D4 and C2xC2 parse, and the commands report no surjection."""
    if spec.startswith("cayley:"):
        path = spec[len("cayley:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return group_from_cayley_json(json.load(fh))
        except (OSError, json.JSONDecodeError, GroupValidationError) as exc:
            raise CliError(f"cannot load Cayley table {path!r}: {exc}")
    for pattern, build in _CATALOG:
        m = re.fullmatch(pattern, spec)
        if m:
            try:
                return build(*m.groups())
            except ValueError as exc:  # a constructor rejected the parameters
                raise CliError(str(exc))
    raise CliError(
        f"unrecognized group spec {spec!r} (expected C5, D9, Dic3, "
        "G(3,7|2), A4, D3xC3, DpsCp for an odd prime p such as D3sC3, or "
        "cayley:<path>)")


# one row per catalog spec: its pattern, matched in order against the whole
# spec, and the group built from the pattern's groups.  The rows look the
# constructors up when called, so rebinding a module-level name reaches them
_CATALOG = (
    (r"A4", lambda: alternating4()),
    (r"C(\d+)", lambda n: cyclic(int(n))),
    (r"D(\d+)sC\1", lambda p: dp_semidirect_cp(int(p))),
    (r"D(\d+)", lambda n: dihedral(int(n))),
    (r"Dic(\d+)", lambda n: dicyclic(int(n))),
    (r"G\((\d+),(\d+)\|(\d+)\)",
     lambda m, p, k: metacyclic(int(m), int(p), int(k))),
    (r"([^x]*)x(.*)", lambda left, right: direct_product(
        parse_group_spec(left), parse_group_spec(right))),
)


def _load_table(args) -> dict:
    path = args.table or os.environ.get("TALEX_TABLE") or bundled_table_path()
    try:
        return load_knot_table(path)
    except (OSError, KnotTableError) as exc:
        raise CliError(f"cannot load knot table: {exc}")


def _select_knots(args, table) -> list[str]:
    if args.all_knots:
        return sorted(table)
    names = args.knot or []
    if not names:
        raise CliError("no knot selected: pass --knot NAME or --all-knots")
    for name in names:
        if name not in table:
            raise CliError(f"unknown knot {name!r} (table has: "
                           f"{', '.join(sorted(table))})")
    return names


def _indented_json(value) -> str:
    """json.dumps(value, indent=2), byte for byte, for the values to_json
    builds: dicts with str keys, lists, tuples, str, int, float, bool and
    None.  Each list and dict is encoded once per depth, since its
    indentation depends on the depth, and reused wherever the same object
    recurs; a list of plain ints is one join."""
    memo: dict[tuple[int, int], str] = {}

    def encode(x, depth: int) -> str:
        if type(x) is str:
            return encode_basestring_ascii(x)
        if type(x) is int:
            return int.__repr__(x)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if not isinstance(x, (list, tuple, dict)):
            return json.dumps(x)  # floats, as the standard encoder writes them
        key = (id(x), depth)
        text = memo.get(key)
        if text is None:
            inner = "\n" + "  " * (depth + 1)
            if isinstance(x, dict):
                items = [encode_basestring_ascii(k) + ": "
                         + encode(v, depth + 1) for k, v in x.items()]
                brackets = "{}"
            elif set(map(type, x)) == {int}:
                items = map(int.__repr__, x)
                brackets = "[]"
            else:
                items = [encode(v, depth + 1) for v in x]
                brackets = "[]"
            text = (brackets[0] + inner + ("," + inner).join(items)
                    + "\n" + "  " * depth + brackets[1]) if x else brackets
            memo[key] = text
        return text

    return encode(value, 0)


def _emit(args, command, config, results, text_lines) -> None:
    if args.format == "json":
        envelope = {"version": __version__, "command": command,
                    "config": config, "results": results}
        print(_indented_json(envelope))
    else:
        for line in text_lines:
            print(line)


def _each_knot(args, command: str, config: dict, ident: dict, tag: str,
               run) -> int:
    """Run a command over the knots config["knots"] and emit its envelope.

    ``run(name)`` returns the knot's JSON record, its text lines and its
    exit code.  A knot whose search exceeds the budget gets the record
    {"knot", **ident, "error"}, the line "<name><tag>: <error>" and exit
    4, and later knots still run.  The command exits with the worst code
    of its knots.
    """
    results, lines, worst = [], [], EXIT_OK
    for name in config["knots"]:
        try:
            record, text, code = run(name)
        except BudgetExceededError as exc:
            record = {"knot": name, **ident, "error": str(exc)}
            text, code = [f"{name}{tag}: {exc}"], EXIT_BUDGET
        results.append(record)
        lines += text
        worst = max(worst, code)
    _emit(args, command, config, results, lines)
    return worst


def cmd_alexander(args) -> int:
    table = _load_table(args)

    def run(name):
        poly = alexander_polynomial(table[name])
        return ({"knot": name, "polynomial": poly.to_json()},
                [f"{name}: {to_text(poly)}"], EXIT_OK)

    return _each_knot(args, "alexander",
                      {"knots": _select_knots(args, table)}, {}, "", run)


def _coefficient_domain(mod) -> CoefficientDomain:
    try:
        return CoefficientDomain(mod)
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_compute(args) -> int:
    table = _load_table(args)
    names = _select_knots(args, table)
    group = parse_group_spec(args.group)
    mod = args.mod
    domain = _coefficient_domain(mod)
    ident, tag = {"group": group.name}, f" -> {group.name}"

    def run(name):
        pres = table[name]
        surjections = find_meridional_surjections(
            pres, group, up_to_conjugacy=args.up_to_conjugacy,
            budget=args.budget)
        if not surjections:
            return ({"knot": name, **ident, "surjections_found": 0,
                     "invariants": []},
                    [f"{name}{tag}: no surjection"], EXIT_NO_SURJECTION)
        records, lines, shared = [], [], {}
        for f, res in zip(surjections,
                          invariants(pres, group, surjections, domain)):
            if id(res) not in shared:  # one result per automorphism class
                shared[id(res)] = res.to_json()
            records.append({"images": list(f.images), **shared[id(res)]})
            lines.append(f"{name}{tag}" + (f" mod {mod}" if mod else "")
                         + f" via {list(f.images)}: {res.normalized}")
        return ({"knot": name, **ident, "modulus": mod,
                 "surjections_found": len(surjections),
                 "invariants": records}, lines, EXIT_OK)

    return _each_knot(
        args, "compute",
        {"knots": names, "group": args.group, "modulus": mod,
         "upToConjugacy": args.up_to_conjugacy, "budget": args.budget},
        ident, tag, run)


def _case_from_args(args):
    if args.case is None:
        raise CliError("verify needs --case")
    if args.case == "conjecture" and not args.experimental:
        raise CliError(
            "the conjecture case is experimental; pass --experimental")
    try:
        return make_case(args.case, modulus=args.mod, n=args.n, p=args.p,
                         m=args.m, k=args.k)
    except ValueError as exc:
        raise CliError(str(exc))


def cmd_verify(args) -> int:
    table = _load_table(args)
    names = _select_knots(args, table)
    case = _case_from_args(args)
    tag = f" {case}"

    def run(name):
        rec = verify_congruence(table[name], name, case, budget=args.budget)
        if rec.vacuous:
            line = f"{name}{tag}: no surjection (vacuous)"
        else:
            status = "all verified" if rec.all_verified else "MISMATCH"
            line = (f"{name}{tag}: {rec.surjections_found} surjection(s), "
                    f"{status} ({rec.elapsed_ms:.0f} ms)")
        return (rec.to_json(), [line],
                EXIT_OK if rec.all_verified else EXIT_MISMATCH)

    return _each_knot(
        args, "verify",
        {"knots": names, "case": case.name,
         "parameters": list(case.parameters), "modulus": case.modulus,
         "budget": args.budget},
        {}, tag, run)


def cmd_surjections(args) -> int:
    table = _load_table(args)
    names = _select_knots(args, table)
    group = parse_group_spec(args.group)
    try:
        require_normal_generator(group)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_NO_SURJECTION)
    ident, tag = {"group": group.name}, f" -> {group.name}"

    def run(name):
        reps = find_meridional_surjections(
            table[name], group, up_to_conjugacy=True, budget=args.budget)
        orbits = [conjugates(group, h.images) for h in reps]
        count = sum(map(len, orbits))
        listed = ([h.images for h in reps] if args.up_to_conjugacy
                  else sorted(set().union(*orbits)))
        return ({"knot": name, **ident, "count": count,
                 "count_up_to_conjugacy": len(reps),
                 "surjections": [list(images) for images in listed]},
                [f"{name}{tag}: {count} surjections "
                 f"({len(reps)} up to conjugacy)"],
                EXIT_OK if reps else EXIT_NO_SURJECTION)

    return _each_knot(
        args, "surjections",
        {"knots": names, "group": args.group,
         "upToConjugacy": args.up_to_conjugacy, "budget": args.budget},
        ident, tag, run)


def cmd_groups_list(args) -> int:
    results, lines = [], []
    for name, group, modulus in catalog_under_24():
        results.append({"spec": name, "order": group.order,
                        "modulus": modulus})
        mod = f"mod {modulus}" if modulus else "exact"
        lines.append(f"{name:10s} order {group.order:3d}  congruence {mod}")
    _emit(args, "groups list", {}, results, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The talex parser, built on first use and shared by every main call:
    parse_args keeps no state on the parser, and --knot appends to a fresh
    list since its default is None."""
    parser = _Parser(
        prog="talex",
        description="Twisted Alexander polynomials for regular "
                    "representations of finite groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each command gets only the options it reads
    def common(p, budget=False, conjugacy=False, mod=False, group=False,
               case=False):
        p.add_argument("--knot", action="append",
                       help="knot name from the table (repeatable)")
        p.add_argument("--all-knots", action="store_true",
                       help="run over every knot in the table")
        p.add_argument("--table", help="knot table path (default: bundled; "
                                       "TALEX_TABLE overrides)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="search node budget (at least 1)")
        if conjugacy:
            p.add_argument("--up-to-conjugacy", action="store_true",
                           help="one representative per conjugation orbit")
        if mod:
            p.add_argument("--mod", type=int, default=None,
                           help="prime modulus for the computation")
        if group:
            p.add_argument("--group", required=True,
                           help="group spec, e.g. C5, D9, Dic3, G(3,7|2), "
                                "A4, D3xC3, DpsCp (p an odd prime, e.g. "
                                "D5sC5), cayley:<path>")
        if case:
            p.add_argument("--case", choices=CASE_NAMES)
            p.add_argument("--p", type=int, dest="p")
            p.add_argument("--n", type=int, dest="n")
            p.add_argument("--m", type=int, dest="m")
            p.add_argument("--k", type=int, dest="k")
            p.add_argument("--experimental", action="store_true",
                           help="enable the experimental conjecture case")

    p_alex = sub.add_parser("alexander",
                            help="classical Alexander polynomials")
    common(p_alex)
    p_alex.set_defaults(func=cmd_alexander)

    p_compute = sub.add_parser("compute",
                               help="twisted invariants for each surjection")
    common(p_compute, budget=True, conjugacy=True, mod=True, group=True)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="check a congruence formula")
    common(p_verify, budget=True, mod=True, case=True)
    p_verify.set_defaults(func=cmd_verify)

    p_surj = sub.add_parser("surjections",
                            help="list surjections onto a finite group")
    common(p_surj, budget=True, conjugacy=True, group=True)
    p_surj.set_defaults(func=cmd_surjections)

    p_groups = sub.add_parser("groups", help="group catalog utilities")
    gsub = p_groups.add_subparsers(dest="groups_command", required=True)
    p_list = gsub.add_parser("list", help="list the order-<24 catalog")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.set_defaults(func=cmd_groups_list)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "budget", 1) < 1:
            parser.error(f"--budget must be at least 1, got {args.budget}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
