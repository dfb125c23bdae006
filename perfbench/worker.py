"""One workload run in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED [--trace]
    python3 perfbench/worker.py record

``setup`` times ``import talex.cli`` plus one bundled knot-table load.
``run`` does the same set-up, then calls ``talex.cli.main`` in-process for
each of the workload's command lines, times the whole list, and checks
every outcome against ``expected.json``; with ``--trace`` it also records
per-layer spans.  Each prints one JSON object.  ``record`` rewrites
``expected.json`` from the current program; do that only for a change
that is meant to alter results, and say why.

Only ``sys``, ``os`` and ``time`` are loaded before set-up is timed, so the
set-up time includes every import the program itself needs.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")


def set_up():
    start = time.perf_counter()
    import talex.cli
    from talex.knots import bundled_table
    bundled_table()
    return talex.cli, time.perf_counter() - start


def call(cli, argv: list[str]):
    """Run one command line; a raised exception is an exit code of None."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--format", "json"])
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def environment() -> dict:
    import importlib.util
    import platform

    import numpy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "omp_threads": os.environ.get("OMP_NUM_THREADS"),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def layer_metrics(tracer, wall: float, knots: int) -> dict[str, float]:
    """Per-layer self times and counts, and the counters derived from the
    surjection lists the searches returned."""
    from talex.homsearch import regular_equivalence_classes
    from spans import SEARCH, VERIFY, WADA

    layers = tracer.layers()
    empty = {"s": 0.0, "calls": 0, "notes": []}
    out: dict[str, float] = {}
    for route in ("modp", "zz"):
        rec = layers.get(f"algebra.det.{route}", empty)
        sizes = [n for _, n in rec["notes"]]
        out[f"algebra.det.{route}.s"] = rec["s"]
        out[f"algebra.det.{route}.calls"] = rec["calls"]
        out[f"algebra.det.{route}.n_max"] = max(sizes, default=0)
        out[f"algebra.det.{route}.n3"] = sum(n ** 3 for n in sizes)

    search = layers.get(SEARCH, empty)
    out["homsearch.search.s"] = search["s"]
    out["homsearch.search.calls"] = search["calls"]
    out["homsearch.search.per_knot"] = search["calls"] / knots
    out["homsearch.surjections"] = sum(len(homs) for _, homs in
                                       search["notes"])

    wada = layers.get(WADA, empty)
    classes = sum(len(regular_equivalence_classes(homs))
                  for parent, homs in search["notes"] if parent == VERIFY)
    out["twisted.wada.s"] = wada["s"]
    out["twisted.wada.calls"] = wada["calls"]
    out["twisted.wada.per_class"] = wada["calls"] / classes if classes else 0.0

    for layer in ("twisted.evalrep", "knots.fox", "algebra.normalize"):
        rec = layers.get(layer, empty)
        out[f"{layer}.s"] = rec["s"]
        out[f"{layer}.calls"] = rec["calls"]
    for layer in ("algebra.rootsprod", "theorems.rhs", "twisted.alexander",
                  "groups.build", "knots.load", "theorems.verify", "cli"):
        out[f"{layer}.s"] = layers.get(layer, empty)["s"]

    regrep = layers.get("groups.regrep", empty)
    out["groups.regrep.s"] = regrep["s"]
    out["groups.regrep.entries"] = sum(n for _, n in regrep["notes"])

    out["trace.coverage"] = sum(rec["s"] for rec in layers.values()) / wall
    return out


def missing_layers(tracer, workload: str) -> list[str]:
    from spans import EXPECTED_WORK

    seen = {span[0] for span in tracer.spans}
    return sorted(layer for layer, workloads in EXPECTED_WORK.items()
                  if workload in workloads and layer not in seen)


def run(workload: str, seed: int, traced: bool) -> dict:
    cli, setup_s = set_up()

    import json
    import resource

    from workloads import checked_fields, invocations, key

    plan = invocations(workload, seed)
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    outcomes = []
    start = time.perf_counter()
    for argv in plan:
        outcomes.append(call(cli, argv))
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    failures, knots = [], 0
    for argv, (code, stdout, stderr) in zip(plan, outcomes):
        try:
            got = checked_fields(argv, code, stdout)
        except (ValueError, KeyError) as exc:
            got = {"exit": code, "unreadable": str(exc)}
        knots += len(got.get("results", ()))
        if got != expected.get(key(argv)):
            failures.append({"invocation": key(argv), "exit": code,
                             "stderr": stderr[-2000:]})

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "attempted": len(plan),
        "failed": len(failures),
        "failures": failures,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, wall, max(knots, 1))
        result["missing_layers"] = missing_layers(tracer, workload)
    return result


def record() -> None:
    """Write the current program's outcomes as the expected results."""
    cli, _ = set_up()

    import json

    from workloads import WORKLOADS, checked_fields, key

    expected = {}
    for plan in WORKLOADS.values():
        for argv in plan:
            code, stdout, _ = call(cli, argv)
            expected[key(argv)] = checked_fields(argv, code, stdout)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(expected.items())]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        _, setup_s = set_up()
        result = {"setup_s": setup_s}
    elif argv[:1] == ["run"] and len(argv) in (3, 4):
        result = run(argv[1], int(argv[2]), argv[3:] == ["--trace"])
    elif argv == ["record"]:
        record()
        return 0
    else:
        print(__doc__, file=sys.stderr)
        return 2
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
