"""Tests of the benchmark itself: every output check passes on a real
output and fails on a perturbed one, the tracer's arithmetic, and the
metric names against BENCHMARK.json.

Run with `PYTHONPATH=src python3 -m pytest -q bench`.
"""
import json
import types
from pathlib import Path

import numpy as np
import pytest

from cornerflow import build_kernel_table, corner_height
from cornerflow.grid import GridFunction

import checks
import run
import tracer
import workloads


@pytest.fixture(scope="module")
def table():
    return build_kernel_table()


@pytest.fixture()
def small_grid(monkeypatch):
    monkeypatch.setattr(workloads, "INTERVALS", 512)


def _bump(xs, height):
    return height * np.exp(-np.asarray(xs) ** 2)


def test_solve_checks(table, small_grid):
    wl = workloads.Solve(table, seed=0)
    wl.ops = [(0.2, 0.05), (0.05, 0.2), (0.15, -0.15)]
    outs = [wl.run(op) for op in wl.ops]
    gaps = wl.check(outs)
    assert {name for name, _, _ in gaps} == {"converged", "reflection",
                                             "linear"}
    assert all(gap <= gate for _, gap, gate in gaps)
    psi_ab, psi_ba, line = (p.psi for p in outs)
    assert checks.reflection_gap(psi_ab.ys, psi_ba.ys
                                 + _bump(psi_ba.xs, 1e-9)) > checks.REFLECTION_GATE
    # a pair that is not each other's mirror image
    assert checks.reflection_gap(psi_ab.ys, psi_ab.ys) > checks.REFLECTION_GATE
    assert checks.linear_gap(line.ys + _bump(line.xs, 1e-9),
                             0.15) > checks.LINEAR_GATE


def test_reconstruct_checks(table):
    wl = workloads.ReconstructLate(table, seed=0)
    wl.ops = wl.ops[:2]
    outs = [wl.run(t) for t in wl.ops]
    gaps = wl.check(outs)
    assert {name for name, _, _ in gaps} == {"slope", "self-similarity"}
    assert all(gap <= gate for _, gap, gate in gaps)
    (t1, t2), (U1, U2) = wl.ops, (s.U for s in outs)
    psi = wl.profile.psi
    # the linear part alone, without the Duhamel term
    linear = corner_height(*wl.corner, t1, table, U1.xs).ys
    assert checks.slope_gap(U1.xs, linear, t1, psi.xs, psi.ys,
                            *wl.corner) > checks.SLOPE_GATE
    assert checks.self_similarity_gap(U1.xs, U1.ys, U2.ys + _bump(U2.xs, 1e-6),
                                      t2 / t1) > checks.SELF_SIMILARITY_GATE
    # a field reported for the wrong time
    assert checks.self_similarity_gap(U1.xs, U1.ys, U2.ys,
                                      1.01 * t2 / t1) > checks.SELF_SIMILARITY_GATE


def test_oracle_check(table):
    wl = workloads.OracleMarch(table, seed=0)
    xs = wl.cfg.xs
    good = GridFunction(xs, wl.reference + _bump(xs, 0.1 * wl.gate), 0.1,
                        0.1, "linear")
    assert wl.check([good])[0][1] <= wl.gate
    # a march that lost its nonlinear term: corner + S(t)[mollified - corner]
    bad = GridFunction(xs, wl.reference - wl.duhamel, 0.1, 0.1, "linear")
    assert wl.check([bad])[0][1] > wl.gate


def test_tracer_self_time_and_absent():
    mod = types.SimpleNamespace()
    mod.inner = lambda q: sum(range(20000))
    mod.outer = lambda: [mod.inner(np.zeros(3)) for _ in range(3)]
    tr = tracer.Tracer()
    tr.wrap(mod, "inner", "backend.sym_eval",
            lambda a, k: np.size(tracer._arg(a, k, "q", 0)))
    tr.wrap(mod, "outer", "mild.duhamel_integral")
    tr.wrap(mod, "gone", "oracle.banded_solve")
    mod.outer()
    tr.restore()
    assert mod.inner.__name__ == "<lambda>" and not tr._saved
    rows = tr.summary()
    inner, outer = rows["backend.sym_eval"], rows["mild.duhamel_integral"]
    assert inner["calls"] == 3 and inner["count"] == 9
    assert inner["self_s"] == pytest.approx(inner["s"])
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"])
    metrics = tr.layer_metrics(0, n_ops=3)
    assert metrics["backend.sym_eval.points"]["value"] == 3
    assert metrics["oracle.banded_solve_s"]["value"] is None
    assert metrics["oracle.steps"]["value"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
