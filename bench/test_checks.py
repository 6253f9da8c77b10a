"""The benchmark's checks reject wrong outputs, and its metric names
match BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import json
import os
import sys

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from liesublat import catalog_build  # noqa: E402
from liesublat.harness import AlgebraAnalysis, HarnessConfig, SuiteReport  # noqa: E402
from liesublat.lattice import SubalgebraLattice  # noqa: E402
from spans import Tracer  # noqa: E402


def _lattice(name, **params):
    alg = catalog_build(name, **params)
    lat = SubalgebraLattice.build(alg)
    return alg, lat, [s.rows for s in lat.nodes]


def test_lattice_check_rejects_a_dropped_node():
    alg, lat, rows = _lattice("sl2", p=3)
    rng = lambda: np.random.default_rng(0)  # noqa: E731
    assert oracle.check_lattice("sl2(3)", alg.tensor, alg.p, rows, rng()) == []
    for k in (1, 2):
        drop = int(np.nonzero(lat.dims == k)[0][0])
        fewer = rows[:drop] + rows[drop + 1:]
        assert oracle.check_lattice("sl2(3)", alg.tensor, alg.p, fewer, rng())


def test_abelian_counts_are_gaussian_binomials():
    alg, _, rows = _lattice("abelian", dim=3, p=3)
    rng = np.random.default_rng(0)
    assert oracle.check_lattice("abelian(3,3)", alg.tensor, alg.p, rows, rng) == []
    assert oracle.closed_plane_count(alg.tensor, alg.p) == oracle.gaussian_binomial(3, 2, 3)


def test_join_meet_check_rejects_a_wrong_answer():
    alg, lat, rows = _lattice("heisenberg", p=3)
    a, b = 1, 2
    right = (a, b, lat.join(a, b), lat.meet(a, b))
    assert oracle.check_join_meet("h", alg.tensor, alg.p, rows, [right]) == []
    wrong = (a, b, lat.top_id, lat.zero_id)
    assert lat.join(a, b) != lat.top_id
    assert len(oracle.check_join_meet("h", alg.tensor, alg.p, rows, [wrong])) == 1


def test_verdict_check_rejects_a_flipped_entry():
    an = AlgebraAnalysis(catalog_build("heisenberg", p=3), HarnessConfig())
    cols = {"modular": an.modular, "sm": an.sm, "quasi_ideal": an.quasi, "ideal": an.ideal}
    assert oracle.is_solvable(an.algebra.tensor, an.algebra.p)
    assert oracle.check_verdicts(an.name, cols, solvable=True) == []
    for col in cols:
        flipped = dict(cols)
        flipped[col] = cols[col].copy()
        # an ideal flag on a node that is no quasi-ideal; any other column
        # losing the top node breaks modular = sm = quasi-ideal
        u = int(np.nonzero(~an.quasi)[0][0]) if col == "ideal" else an.lat.top_id
        flipped[col][u] = not flipped[col][u]
        assert oracle.check_verdicts(an.name, flipped, solvable=True), col


def test_claim_check_wants_pass_except_the_known_false_psl3_claim():
    def verdict(suite, claim, status):
        v = workloads.Verdict()
        report = SuiteReport(suite, {}, [{"claim": claim, "status": status, "details": {}}], {})
        workloads._check_claims(v, report)
        return v.failed

    assert not verdict("witt", "x", "pass")
    assert not verdict("witt", "x", "reported")
    assert verdict("witt", "x", "fail")
    assert not verdict("psl3", "triple-maximal-subalgebras-all-two-dim", "fail")
    assert verdict("psl3", "triple-maximal-subalgebras-all-two-dim", "pass")
    assert verdict("psl3", "no-maximal-sm", "fail")


def test_change_basis_keeps_the_lattice_shape():
    alg = catalog_build("heisenberg", p=3)
    other = workloads.change_basis(alg, np.random.default_rng(5))
    assert not np.array_equal(other.tensor, alg.tensor)
    assert SubalgebraLattice.build(other).counts_by_dim() == SubalgebraLattice.build(alg).counts_by_dim()


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layer = run._layer_metrics(Tracer(), [1.0], 1.0, 0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in layer.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
