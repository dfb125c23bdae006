"""The benchmark's traced runs pass on the current program.

``perfbench/worker.py run W SEED --trace`` runs a workload's command lines
in a fresh interpreter, compares every outcome with
``perfbench/expected.json`` and reports the traced layers that recorded no
span.  A renamed traced function, a layer that no longer does its work, or
a changed CLI result therefore fails here as well as in the benchmark.
On the verify workloads the Wada layer must run once per automorphism
class of surjections.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload",
                         ["search-vacuous", "verify-modp", "verify-exact"])
def test_traced_workload_passes(workload):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "worker.py"), "run",
         workload, "1", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["failures"]
    assert result["missing_layers"] == []
    if workload.startswith("verify-"):
        # one Wada evaluation per automorphism class of surjections
        assert result["layers"]["twisted.wada.per_class"] == 1.0
