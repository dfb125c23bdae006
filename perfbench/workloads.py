"""The benchmark's workloads and the result fields it checks.

Each workload is a fixed list of ``talex`` command lines; the seed only
permutes their order.  Every invocation gets ``--format json`` appended.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import random

WORKLOADS: dict[str, list[list[str]]] = {
    "verify-modp": [
        ["verify", "--case", "a4", "--knot", "8_18"],
        ["verify", "--case", "metacyclic", "--m", "3", "--p", "7",
         "--k", "2", "--knot", "6_1"],
        ["verify", "--case", "dicyclic", "--p", "5",
         "--knot", "4_1", "--knot", "7_4"],
    ],
    "verify-exact": [
        ["verify", "--case", "cyclic", "--n", str(n), "--all-knots"]
        for n in range(2, 20)
    ],
    "search-vacuous": [
        ["verify", "--case", "conjecture", "--p", "5", "--experimental",
         "--knot", "5_2", "--knot", "6_1"],
        ["surjections", "--group", "D25", "--knot", "5_2", "--knot", "6_1"],
        ["surjections", "--group", "D27", "--knot", "5_2", "--knot", "6_1"],
    ],
}


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines in the order the seed picks."""
    order = [list(argv) for argv in WORKLOADS[workload]]
    random.Random(seed).shuffle(order)
    return order


def key(argv: list[str]) -> str:
    return " ".join(argv)


def _multiset(values) -> list:
    """Distinct values with their multiplicities, in a fixed order."""
    counts: dict[str, int] = {}
    for v in values:
        text = json.dumps(v, sort_keys=True)
        counts[text] = counts.get(text, 0) + 1
    return [[json.loads(text), n] for text, n in sorted(counts.items())]


def checked_fields(argv: list[str], code: int, stdout: str) -> dict:
    """The parts of an invocation's outcome that do not depend on the
    presentation: exit code and, per knot, the normalised values and
    counts.  Per-surjection lists are compared as multisets because their
    order follows the image tuples; image tuples and timings are left out.
    """
    out: dict = {"exit": code}
    if not stdout.strip():
        return out
    results = json.loads(stdout)["results"]
    if argv[0] == "verify":
        out["results"] = [
            {"knot": r["knot"],
             "surjections_found": r.get("surjections_found"),
             "verdicts": sorted(r.get("verdicts", [])),
             "lhs": _multiset(r.get("lhs", [])),
             "rhs": r.get("rhs")}
            for r in results]
    else:
        out["results"] = [
            {"knot": r["knot"], "count": r.get("count"),
             "count_up_to_conjugacy": r.get("count_up_to_conjugacy")}
            for r in results]
    return out
