"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and uses ``src/`` directly; there
is nothing to build.  Every workload run is a fresh single-threaded
interpreter (``worker.py``) that calls ``talex.cli.main`` in-process, so the
runs are closed-loop: the next command starts when the last one returns.

With ``--trace 0`` it repeats the workload for about S seconds, timing
set-up in a few more fresh interpreters before each repetition, and
reports medians of the end-to-end metrics.  With ``--trace 1`` it
alternates an untraced and a traced run of the workload and reports the
per-layer metrics of the traced runs, with the tracing overhead and
coverage.  Every run checks the
program's outcomes against ``expected.json``.  The metric names and units
are those in BENCHMARK.json.  The last line of standard output is the
result object; the line before it records the environment and the share
of invocations that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3  # per workload run, so that they spread over the run
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    return env


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next workload run")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(step, seconds: float, deadline: float) -> list:
    """Call step() at least once, and again while another call of the
    mean length still fits in ``seconds``."""
    out, start = [], time.monotonic()
    while True:
        out.append(step())
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > min(seconds, deadline - start):
            return out


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = []

    def step():
        setups.extend(worker(["setup"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES))
        run = worker(["run", workload, str(seed)], deadline)
        setups.append(run["setup_s"])
        return run

    worker(["setup"], deadline)  # warm the bytecode cache; not counted
    runs = repeat(step, seconds, deadline)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "passed_frac": 1.0 - failed / attempted,
    }
    return runs, metrics


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    def pair():
        plain = worker(["run", workload, str(seed)], deadline)
        traced = worker(["run", workload, str(seed), "--trace"], deadline)
        if traced["missing_layers"]:
            raise BenchError(
                f"no spans on {workload} for layers that should do work: "
                f"{', '.join(traced['missing_layers'])}; was a traced "
                "function renamed?")
        return plain, traced

    pairs = repeat(pair, seconds, deadline)
    runs = [r for p in pairs for r in p]
    traced = [t["layers"] for _, t in pairs]
    metrics = {name: statistics.median(layers[name] for layers in traced)
               for name in traced[0]}
    metrics["trace.overhead"] = (
        statistics.median(t["wall_s"] for _, t in pairs)
        / statistics.median(p["wall_s"] for p, _ in pairs) - 1.0)
    return runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "talex", "cli.py")):
        print(f"no talex sources under {ROOT}/src; run from the root of a "
              "talex checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    measure = per_layer if args.trace else end_to_end
    try:
        runs, metrics = measure(args.workload, args.seed, args.seconds,
                                deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} differ from "
              f"those declared in BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 1

    failures = [f for r in runs for f in r["failures"]]
    for f in failures:
        print(f"failed: {f['invocation']} (exit {f['exit']})\n{f['stderr']}",
              file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    print(json.dumps({"env": runs[0]["env"], "runs": len(runs),
                      "failed_frac": len(failures) / attempted}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
