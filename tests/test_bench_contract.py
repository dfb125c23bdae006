"""The benchmark's traced runs pass on the current program.

``perfbench/worker.py run W SEED --trace`` runs a workload's command lines
in a fresh interpreter, compares every outcome with
``perfbench/expected.json`` and reports the traced layers that recorded no
span.  A renamed traced function, a layer that no longer does its work, or
a changed CLI result therefore fails here as well as in the benchmark.
On the verify workloads the Wada layer must run once per automorphism
class of surjections, every F_p determinant of verify-modp must run the
packed F_p kernel once, with no early return, and have at most 8 rows
(one factor of the regular representation's split along an abelian
subgroup, not its whole block matrix, with every factor whose characters
take values in F_p split into those characters), the 17 of them
eliminating sum n^3 = 5202 rows cubed: a permutation factor that sends
every meridian to one permutation takes the permutation norm of the
Alexander minor instead, which removes the five 6-row determinants of
A4 on 8_18 and two 2-row ones of Dic5.  verify-exact must compute no
determinant larger than an Alexander minor:
its numerators and orbit products are cycle norms, not eliminations.  Each
verify-exact check normalises three rational functions, the invariant, the
right-hand side and the Alexander polynomial, and compares the normal
forms without normalising them again.
"""

import json
import os
import subprocess
import sys

import pytest

from talex import algebra, knots
from talex.cli import main

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


def test_verify_modp_stays_on_the_fp_kernel(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    calls = []  # [modulus, kernel runs, rows] per determinant call
    kernel, real_determinant = algebra._det_packed_modp, algebra.determinant

    def counting_kernel(rows, n, p):
        calls[-1][1] += 1
        return kernel(rows, n, p)

    def recording_determinant(m):
        calls.append([m.domain.p, 0, m.rows])
        return real_determinant(m)

    monkeypatch.setattr(algebra, "_det_packed_modp", counting_kernel)
    for name, module in list(sys.modules.items()):
        if name.startswith("talex") and \
                getattr(module, "determinant", None) is real_determinant:
            monkeypatch.setattr(module, "determinant", recording_determinant)
    for argv in WORKLOADS["verify-modp"]:
        assert main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    runs = [n for p, n, _ in calls if p is not None]
    assert len(runs) >= 9
    assert runs == [1] * len(runs)
    # the regular representation is split along an abelian subgroup, so no
    # elimination sees the full 24-row block matrix of A4 on 8_18; A4
    # splits along V4 into 3 + 3^3 (one factor per normalizer orbit of
    # characters).  The 3 is A4 acting on A4/V4 = C3, and Dic5's trivial
    # character of C10 gives Dic5 acting on Dic5/C10 = C2: both send every
    # meridian to one permutation and take the Alexander-minor norm, so A4
    # runs five 6-row determinants, one per class; G(3,7|2) mod 7 on 6_1
    # splits its 14-row factor of order 3 into two 7-row ones, since
    # Phi_3 = (x - 2)(x - 4) over F_7
    rows = [n for p, _, n in calls if p is not None]
    assert max(rows) <= 8
    assert (len(rows), sum(n ** 3 for n in rows)) == (17, 5202)


def test_verify_exact_runs_only_alexander_minors(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    sizes = []
    real_determinant = algebra.determinant

    def recording_determinant(m):
        sizes.append(m.rows)
        return real_determinant(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("talex") and \
                getattr(module, "determinant", None) is real_determinant:
            monkeypatch.setattr(module, "determinant", recording_determinant)
    knots.alexander_minor.cache_clear()  # so that the minors run again
    for argv in WORKLOADS["verify-exact"]:
        assert main(argv + ["--format", "json"]) == 0, argv
    capsys.readouterr()
    # an Alexander minor of an m-generator presentation has m - 1 rows
    largest = max(p.generators for p in knots.bundled_table().values()) - 1
    assert sizes
    assert max(sizes) <= largest


def test_verify_exact_normalizes_three_times_per_check(monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    calls = []
    real_normalize = algebra.rational_normalize

    def counting_normalize(r):
        calls.append(r)
        return real_normalize(r)

    for name, module in list(sys.modules.items()):
        if name.startswith("talex") and getattr(
                module, "rational_normalize", None) is real_normalize:
            monkeypatch.setattr(module, "rational_normalize",
                                counting_normalize)
    checks = 0
    for argv in WORKLOADS["verify-exact"]:
        assert main(argv + ["--format", "json"]) == 0, argv
        report = json.loads(capsys.readouterr().out)
        checks += len(report["results"])
    # the surjections onto C_n form one automorphism class, so each
    # (knot, n) check runs one Wada evaluation
    assert len(calls) == 3 * checks == 324
