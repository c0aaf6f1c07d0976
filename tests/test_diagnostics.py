import json

import numpy as np
import pytest

from cornerflow import (GridFunction, ValidationError, corner_function,
                        symmetric_grid)
from cornerflow import diagnostics as dg

EPS_GAP = 0.1 * (np.sqrt(2.0) - 1.0)           # 0.04142135623730952
EPS_SLOPE = 0.2 * np.sqrt(2.0) * (np.sqrt(2.0) - 1.0)


def _parabola(intervals=2048):
    xs = symmetric_grid(4.0, intervals)
    return GridFunction(xs, 0.5 * xs ** 2, 0.0, 0.0, "constant", np.inf)


def test_parabola_residual_anchors():
    # for phi = x^2/2 at the origin: key identity residual -6, profile
    # equation residual -3 (hand computation, k(0) = 1, k''(0) = -3)
    phi = _parabola()
    i0 = int(np.argmin(np.abs(phi.xs)))
    assert dg.key_identity_residual(phi).ys[i0] == pytest.approx(-6.0,
                                                                 abs=5e-7)
    assert dg.profile_equation_residual(phi).ys[i0] == pytest.approx(
        -3.0, abs=5e-7)


def test_backward_link_identity():
    from cornerflow.geometry import ds_of_array, geometry
    phi = _parabola()
    geom = geometry(phi)
    fwd = dg.key_identity_residual(phi).ys
    bwd = dg.backward_identity_residual(phi).ys
    q = phi.xs ** 2 + phi.ys ** 2
    link = bwd - (fwd - ds_of_array(0.5 * q, geom, 2) + 1.0)
    assert dg.interior_sup(link) < 1e-10


def test_q_variant_equals_k2_plus_quarter_d0():
    from cornerflow.geometry import geometry
    phi = _parabola()
    qv, _, _ = dg.q_convexity(phi, variant=True)
    d0, _ = dg.d0_and_d(phi)
    k = geometry(phi).curvature
    assert np.max(np.abs(qv.ys - k ** 2 - 0.25 * d0.ys)) < 1e-12


def test_d_vanishes_on_corner_data():
    xs = symmetric_grid(10.0, 2048)
    cab = corner_function(0.3, 0.7, xs)
    _, d = dg.d0_and_d(cab)
    assert np.max(np.abs(d.ys)) < 1e-10


def test_counterexample_flattened_corner():
    phi, d, fit = dg.counterexample_phi_eps(1.0, 0.1)
    assert fit["gap_expected"] == pytest.approx(EPS_GAP, abs=1e-15)
    assert abs(fit["gap_far"] - fit["gap_expected"]) < 1e-10
    assert abs(fit["d_slope"] - fit["d_slope_expected"]) < 1e-6
    assert fit["d_slope_expected"] == pytest.approx(EPS_SLOPE, abs=1e-15)
    # D grows linearly: max |D| scales with eps
    _, d_small, fit_small = dg.counterexample_phi_eps(1.0, 0.01)
    assert np.max(np.abs(d_small.ys)) < 0.2 * np.max(np.abs(d.ys))
    assert abs(fit_small["gap_far"] - fit_small["gap_expected"]) < 1e-10


def test_counterexample_mollified_variant():
    phi, d, fit = dg.counterexample_phi_eps(1.0, 0.1, mollified=True)
    # the mollified gap differs from the sharp one by the closed-form
    # smoothing excess; the fitted slope still matches 2 sqrt(1+A^2) gap
    assert fit["d_slope"] == pytest.approx(
        2.0 * np.sqrt(2.0) * fit["gap_far"], rel=1e-6)
    assert fit["gap_far"] > fit["gap_expected"]


def test_counterexample_validation():
    with pytest.raises(ValidationError):
        dg.counterexample_phi_eps(0.0, 0.1)
    with pytest.raises(ValidationError):
        dg.counterexample_phi_eps(1.0, -0.5)
    # non-finite inputs are refused before the grid is built
    for A, eps in ((1.0, np.inf), (np.nan, 0.1), (1.0, np.nan)):
        with pytest.raises(ValidationError, match="finite"):
            dg.counterexample_phi_eps(A, eps)


def test_peg_bound_on_random_graphs(rng):
    xs = symmetric_grid(10.0, 2048)
    worst = 0.0
    for _ in range(100):
        c = rng.normal(size=6)
        ys = sum(ci * np.sin((i + 1) * xs / 3.0 + i)
                 for i, ci in enumerate(c))
        g = GridFunction(xs, ys, 0.0, 0.0, "constant", np.inf)
        worst = min(worst, float(np.min(dg.peg_bound_check(g).ys)))
    assert worst >= -1e-10


def test_esp_linear_passes_nonlinear_fails():
    xs = symmetric_grid(10.0, 2048)
    lin = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    _, verdict = dg.esp_check(lin, 0.0, 0.0)
    assert verdict
    # parabola-like graph with phi(0) != 0: margin decays linearly in s
    bent = GridFunction(xs, 1.0 + 0.2 * np.abs(xs), 0.2, 0.2, "linear")
    margin, verdict = dg.esp_check(bent, 0.0, 1.0)
    assert not verdict
    assert margin.meta["right_tail_slope"] < -1e-3


def test_l1_bound_arctan_and_not_applicable():
    xs = symmetric_grid(40.0, 4096)
    at = GridFunction(xs, np.arctan(xs), 0.0, 0.0, "linear")
    res = dg.l1_linear_bound(at, 0.0)
    assert res.applicable and res.bound_holds
    assert res.beta == pytest.approx(2.0 * np.arctan(40.0), abs=1e-6)
    cab = corner_function(0.3, 0.7, symmetric_grid(10.0, 2048))
    res2 = dg.l1_linear_bound(cab, 0.3)
    assert not res2.applicable
    assert "NotApplicable" in repr(res2)


def test_l1_row_threshold_is_the_bound_tolerance():
    # the l1_linear_bound row shows the allowance the bound was judged by,
    # whether the bound applies (a line) or not (a corner)
    xs = symmetric_grid(10.0, 2048)
    for phi, applicable in (
            (GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear"), True),
            (corner_function(0.3, 0.7, xs), False)):
        res = dg.l1_linear_bound(phi, phi.right_far)
        assert res.applicable == applicable
        assert res.tol == 4.0 * phi.h * (abs(phi.right_far) + 1.0)
        if applicable:
            assert res.bound_holds == (res.worst_gap <= res.tol)
        row = next(row for row in dg.run_diagnostics(phi).summary
                   if row["name"] == "l1_linear_bound")
        assert row["threshold"] == res.tol


def test_origin_checks_need_a_node_at_zero():
    # the nearest nodes of linspace(-20, 20, 2048) sit at x = +-h/2; the
    # peg margin of a straight line taken about one of them reads -0.39
    xs = np.linspace(-20.0, 20.0, 2048)
    line = GridFunction(xs, 0.1 * xs, 0.1, 0.1, "linear")
    for call in (lambda: dg.peg_bound_check(line),
                 lambda: dg.l1_linear_bound(line, 0.1),
                 lambda: dg.q_convexity(line), lambda: dg.d0_and_d(line),
                 lambda: dg.esp_check(line, 0.0, 0.0),
                 lambda: dg.run_diagnostics(line)):
        with pytest.raises(ValidationError, match="x = 0"):
            call()
    xs = symmetric_grid(20.0, 2048)
    line = GridFunction(xs, 0.1 * xs, 0.1, 0.1, "linear")
    assert np.min(dg.peg_bound_check(line).ys) >= -1e-10
    assert dg.l1_linear_bound(line, 0.1).bound_holds


def test_compactness_unit_circle_exact():
    rep = dg.compactness_contradiction_demo(dg.circle_curve(1.0))
    assert np.max(np.abs(rep["deficit"] - 0.5)) < 1e-10
    assert rep["certified_not_profile"]


def test_compactness_shifted_circle_and_ellipse():
    rep = dg.compactness_contradiction_demo(dg.circle_curve(2.0, (3.0, 0.0)))
    # Q maxes at the far point (5, 0) where k = 1/2:
    # d2Q = k^2 - k |x| . n / 2 ... closed form gives deficit 5/4
    assert rep["max_point"][0] == pytest.approx(5.0, abs=1e-12)
    assert rep["deficit_at_max"] == pytest.approx(1.25, abs=1e-9)
    repe = dg.compactness_contradiction_demo(dg.ellipse_curve(2.0, 1.0))
    assert repe["deficit_at_max"] == pytest.approx(74.0, abs=1e-6)
    assert repe["certified_not_profile"]


def test_compactness_resolution_independence():
    for n in (512, 1024, 4096):
        rep = dg.compactness_contradiction_demo(dg.circle_curve(1.0, n=n))
        assert np.max(np.abs(rep["deficit"] - 0.5)) < 1e-10


def test_compactness_validation():
    with pytest.raises(ValidationError):
        dg.compactness_contradiction_demo(np.zeros((8, 2)))
    with pytest.raises(ValidationError):
        dg.compactness_contradiction_demo(np.zeros((64, 3)))
    # no verdict for a curve that is not finite, or that has no tangent
    with pytest.raises(ValidationError, match="finite"):
        dg.compactness_contradiction_demo(np.full((64, 2), np.nan))
    with pytest.raises(ValidationError, match="speed"):
        dg.compactness_contradiction_demo(dg.circle_curve(0.0))


def test_x_infty_norm_linear_profile(ktable):
    from cornerflow import CornerData, solve_similarity_profile
    prof = solve_similarity_profile(CornerData(0.1, -0.1), table=ktable)
    val = dg.x_infty_norm(prof)
    # linear data: slope sup is |c|, curvature term vanishes
    assert val == pytest.approx(0.1, abs=1e-8)


def test_x_infty_norm_scan_density_stable(profile_8k):
    v1 = dg.x_infty_norm(profile_8k, density=1)
    v2 = dg.x_infty_norm(profile_8k, density=2)
    assert abs(v2 - v1) / v1 < 0.02
    assert v1 > 0.1  # nonlinear profile exceeds its slope data


@pytest.mark.parametrize("density", (0, -3, np.nan, 1.5, "2"))
def test_x_infty_norm_rejects_bad_density(profile_8k, density):
    with pytest.raises(ValidationError, match="density"):
        dg.x_infty_norm(profile_8k, density=density)


def _smooth_graph(rng):
    xs = symmetric_grid(6.0, 1024)
    c = rng.normal(size=4)
    ys = (c[0] * np.sin(xs) + c[1] * np.cos(0.7 * xs) + c[2] * xs
          + c[3] * np.exp(-xs ** 2))
    return GridFunction(xs, ys, 0.0, 0.0, "linear")


@pytest.mark.parametrize("source", ("phi_8k", "random"))
def test_identity_residuals_equal_their_formulas(source, request, rng):
    # the forward and backward residuals share one body with sign +-1;
    # bit for bit the two formulas written out
    from cornerflow.geometry import ds_of_array, geometry
    phi = (request.getfixturevalue("phi_8k") if source == "phi_8k"
           else _smooth_graph(rng))
    geom = geometry(phi)
    k2, r2 = geom.curvature ** 2, phi.xs ** 2 + phi.ys ** 2
    dk2 = 2.0 * ds_of_array(geom.curvature, geom) ** 2
    fwd = ds_of_array(k2 + 0.25 * r2, geom, 2) - 0.5 - dk2
    bwd = ds_of_array(k2 - 0.25 * r2, geom, 2) + 0.5 - dk2
    assert np.array_equal(dg.key_identity_residual(phi).ys, fwd)
    assert np.array_equal(dg.backward_identity_residual(phi).ys, bwd)


def test_subsample_and_threshold():
    phi = _parabola()
    sub = dg.subsample(phi, 8)
    assert sub.n == (phi.n - 1) // 8 + 1
    assert np.min(np.abs(sub.xs)) == 0.0
    assert dg.subsample(phi, 1) is phi
    assert dg.subsample(phi, 8.0).n == sub.n
    for bad in (2.5, 0, -8, np.nan, "8"):
        with pytest.raises(ValidationError, match="stride"):
            dg.subsample(phi, bad)
    assert dg.refinement_threshold(17.0, 2.0) == pytest.approx(10.0)
    assert dg.refinement_threshold(1.0, 2.0) < 0.0


def test_subsample_keeps_the_origin_off_the_stride():
    # the origin of symmetric_grid(10, 1000) is node 500, not a multiple
    # of 8: the stride runs from node 4, so x = 0 stays in the subsample
    xs = symmetric_grid(10.0, 1000)
    lin = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    sub = dg.subsample(lin, 8)
    assert sub.xs[0] == xs[4] and sub.n == 125 and 0.0 in sub.xs
    assert dg.run_diagnostics(lin, eval_stride=8).all_pass
    # with the origin on the stride nothing moves
    phi = _parabola(1024)
    assert np.array_equal(dg.subsample(phi, 8).xs, phi.xs[::8])


def test_run_diagnostics_absolute_mode():
    xs = symmetric_grid(10.0, 2048)
    lin = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    rep = dg.run_diagnostics(lin)
    assert rep.all_pass
    names = [row["name"] for row in rep.summary]
    assert "esp_zero_corner" in names
    assert not rep.flags["phi0_nonzero"]
    assert not rep.flags["d0_growing"]


def test_run_diagnostics_two_level_mode(phi_8k, phi_16k):
    rep = dg.run_diagnostics(phi_8k, phi_16k, eval_stride=8)
    assert rep.all_pass
    names = [row["name"] for row in rep.summary]
    assert "esp_scan_all_fail" in names
    assert rep.flags["phi0_nonzero"]
    assert rep.flags["d0_growing"]


def test_grid_without_interior_raises_validation_error():
    # 16 nodes pass the grid check but leave nothing inside the margins
    xs = np.linspace(-7.0, 8.0, 16)
    phi = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    for call in (lambda: dg.interior_sup(phi.ys), lambda: dg.q_convexity(phi),
                 lambda: dg.esp_check(phi, 0.0, 0.0),
                 lambda: dg.run_diagnostics(phi)):
        with pytest.raises(ValidationError, match="16 nodes"):
            call()


def test_report_serialization(tmp_path):
    xs = symmetric_grid(10.0, 2048)
    lin = GridFunction(xs, 0.25 * xs, 0.25, 0.25, "linear")
    rep = dg.run_diagnostics(lin)
    jpath = rep.to_json(tmp_path / "report.json")
    with open(jpath) as fh:
        data = json.load(fh)
    assert set(data) == {"checks", "flags"}
    paths = rep.to_csv(tmp_path)
    assert any(str(p).endswith("summary.csv") for p in paths)
    with open(tmp_path / "summary.csv") as fh:
        header = fh.readline().strip()
    assert header == "name,sup_residual,threshold,pass"
