"""Acceptance battery: sixteen numbered end-to-end criteria.

Each test prints one PASS/FAIL line (through the capture plug, so the
lines always reach the terminal) and then asserts. Tolerances are the
contract; anything tighter that happens to hold is not promised.
"""
import time

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import gamma

import cornerflow as cf
from cornerflow import diagnostics as dg


def announce(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name:<26} "
              f"{'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_kernel_anchor(capsys):
    t0 = time.perf_counter()
    table = cf.build_kernel_table()
    elapsed = time.perf_counter() - t0
    g0 = float(table.eval_g(0, np.array([0.0]))[0])
    g0_err = abs(g0 - float(gamma(1.25) / np.pi))
    mass_err = abs(2.0 * simpson(table.g_ell[0], dx=table.h) - 1.0)
    ok = g0_err < 1e-8 and mass_err < 1e-8 and elapsed < 1.0
    announce(capsys, 1, "kernel-anchor", ok,
             f"g0_err={g0_err:.2e} mass_err={mass_err:.2e} "
             f"time={elapsed:.1f}s")


def test_criterion_02_regularizing_exponents(ktable, capsys):
    t0 = time.perf_counter()
    ts = np.geomspace(1e-2, 1e2, 13)
    expos = {}
    for ell in (1, 2):
        _, expo = cf.regularizing_constants(ktable, ell, ts)
        expos[ell] = expo
    elapsed = time.perf_counter() - t0
    ok = (abs(expos[1] + 0.25) <= 0.02 and abs(expos[2] + 0.50) <= 0.02
          and elapsed < 30.0)
    announce(capsys, 2, "regularizing-exponents", ok,
             f"ell1={expos[1]:+.4f} ell2={expos[2]:+.4f} "
             f"time={elapsed:.1f}s")


def test_criterion_03_linear_invariance(ktable, capsys):
    prof = cf.solve_similarity_profile(cf.CornerData(0.1, -0.1),
                                       table=ktable)
    psi_err = float(np.max(np.abs(prof.psi.ys - 0.1)))
    u_err = 0.0
    for t in (0.1, 1.0, 10.0):
        sol = cf.reconstruct_U(prof, t, ktable)
        u_err = max(u_err, float(np.max(np.abs(sol.U.ys - 0.1 * sol.U.xs))))
    ok = psi_err < 1e-10 and u_err < 1e-9
    announce(capsys, 3, "linear-invariance", ok,
             f"psi_err={psi_err:.2e} U_err={u_err:.2e}")


def test_criterion_04_nonlinear_existence(ktable, capsys):
    t0 = time.perf_counter()
    prof = cf.solve_similarity_profile(cf.CornerData(0.1, 0.1),
                                       table=ktable, tol=1e-10)
    phi = cf.reconstruct_U(prof, 1.0, ktable).phi
    elapsed = time.perf_counter() - t0
    phi0 = float(phi.ys[np.argmin(np.abs(phi.xs))])
    ok = (prof.converged and prof.iterations <= 50 and abs(phi0) > 1e-3
          and elapsed < 300.0)
    announce(capsys, 4, "nonlinear-existence", ok,
             f"iters={prof.iterations} phi0={phi0:.6f} "
             f"time={elapsed:.1f}s")


def _stride8(phi):
    return dg.subsample(phi, 8)


def test_criterion_05_profile_equation_refines(phi_8k, phi_16k, capsys):
    sup_c = dg.interior_sup(dg.profile_equation_residual(_stride8(phi_8k)).ys)
    sup_f = dg.interior_sup(dg.profile_equation_residual(_stride8(phi_16k)).ys)
    factor = sup_c / sup_f
    ok = factor >= 2.5
    announce(capsys, 5, "profile-equation-refines", ok,
             f"sup {sup_c:.2e} -> {sup_f:.2e} factor={factor:.2f}")


def test_criterion_06_key_identity_refines(phi_8k, phi_16k, capsys):
    sup_c = dg.interior_sup(dg.key_identity_residual(_stride8(phi_8k)).ys)
    sup_f = dg.interior_sup(dg.key_identity_residual(_stride8(phi_16k)).ys)
    factor = sup_c / sup_f
    ok = factor >= 2.5
    announce(capsys, 6, "key-identity-refines", ok,
             f"sup {sup_c:.2e} -> {sup_f:.2e} factor={factor:.2f}")


def test_criterion_07_q_convexity(phi_8k, phi_16k, capsys):
    from cornerflow.geometry import ds_of_array, geometry

    def identity_sup(p):
        g = geometry(p)
        d2 = dg.q_convexity(p)[1].ys
        return dg.interior_sup(d2 - 2.0 * ds_of_array(g.curvature, g) ** 2)

    pc, pf = _stride8(phi_8k), _stride8(phi_16k)
    sup_c, sup_f = identity_sup(pc), identity_sup(pf)
    thr = dg.refinement_threshold(sup_c, sup_f)
    min_d2q = dg.q_convexity(pf)[2]
    ok = sup_f <= thr and min_d2q >= -thr
    announce(capsys, 7, "q-convexity", ok,
             f"residual={sup_f:.2e} thr={thr:.2e} min_d2Q={min_d2q:.2e}")


def test_criterion_08_self_similarity(profile_8k, ktable, capsys):
    res = {s: cf.self_similarity_residual(profile_8k, s, 1.0, ktable)
           for s in (0.5, 2.0)}
    ok = max(res.values()) < 1e-4
    announce(capsys, 8, "self-similarity", ok,
             f"sigma=1/2: {res[0.5]:.2e}  sigma=2: {res[2.0]:.2e}")


def test_criterion_09_constant_uniqueness(profile_8k, ktable, capsys):
    sol = cf.reconstruct_U(profile_8k, 1.0, ktable)
    got = cf.constant_shift_residual(sol, 0.1, ktable)
    ok = abs(got - 0.1) <= 1e-5
    announce(capsys, 9, "constant-uniqueness", ok,
             f"shift 0.1 came back as {got:.7f}")


def test_criterion_10_initial_trace(profile_8k, ktable, capsys):
    ratios = []
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        sol = cf.reconstruct_U(profile_8k, t, ktable)
        cab = cf.corner_function(0.1, 0.1, sol.U.xs)
        ratios.append(cf.inner_sup(sol.U.ys - cab.ys) / t ** 0.25)
    spread = max(ratios) / min(ratios) - 1.0
    ok = spread < 0.2
    announce(capsys, 10, "initial-trace", ok,
             f"ratios [{min(ratios):.4f}, {max(ratios):.4f}] "
             f"spread={100 * spread:.1f}%")


def test_criterion_11_oracle_agreement(oracle_8k, capsys):
    out, elapsed = oracle_8k
    ok = out["sup_diff"] <= 5e-3 and elapsed < 600.0
    announce(capsys, 11, "oracle-agreement", ok,
             f"sup_diff={out['sup_diff']:.2e} "
             f"(moll {out['moll_width']:.3f}) time={elapsed:.0f}s")


def test_criterion_12_d0_dichotomy(phi_8k, ktable, corner_ab, capsys):
    xs = cf.symmetric_grid(80.0, 16384)
    prof = cf.solve_similarity_profile(corner_ab, table=ktable, xs=xs)
    phi_wide = cf.reconstruct_U(prof, 1.0, ktable).phi
    growth = {}
    for tag, phi in (("L40", phi_8k), ("L80", phi_wide)):
        d0, _ = dg.d0_and_d(phi)
        iz = int(np.argmin(np.abs(phi.xs)))
        growth[tag] = (float(np.max(d0.ys[iz:])),
                       float(np.max(d0.ys[:iz + 1])))
    factors = [growth["L80"][i] / growth["L40"][i]
               if growth["L40"][i] > 0 else 0.0 for i in (0, 1)]
    cab = cf.corner_function(0.1, 0.1, cf.symmetric_grid(40.0, 8192))
    _, d_corner = dg.d0_and_d(cab)
    d_err = float(np.max(np.abs(d_corner.ys)))
    # machine zero relative to the r^2 ~ 1.6e3 operands of r^2 - s^2
    d_tol = 1e-12 * (1.0 + float(np.max(cab.xs ** 2)))
    ok = max(factors) >= 1.5 and d_err < d_tol
    announce(capsys, 12, "d0-dichotomy", ok,
             f"running-max factor={max(factors):.3f} (need 1.5) "
             f"D[corner]={d_err:.1e} (rel {d_err / (1.0 + float(np.max(cab.xs ** 2))):.1e})")


def test_criterion_13_counterexample(capsys):
    _, _, fit = dg.counterexample_phi_eps(1.0, 0.1)
    gap_err = abs(fit["gap_far"] - fit["gap_expected"])
    slope_err = abs(fit["d_slope"] - fit["d_slope_expected"])
    ok = gap_err < 1e-10 and slope_err < 1e-6
    announce(capsys, 13, "flattened-counterexample", ok,
             f"gap_err={gap_err:.1e} slope_err={slope_err:.1e}")


def test_criterion_14_peg_property(capsys):
    rng = np.random.default_rng(20240817)
    xs = cf.symmetric_grid(10.0, 2048)
    worst = 0.0
    for _ in range(100):
        c = rng.normal(size=6)
        ys = sum(ci * np.sin((i + 1) * xs / 3.0 + i)
                 for i, ci in enumerate(c))
        g = cf.GridFunction(xs, ys, 0.0, 0.0, "constant", np.inf)
        worst = min(worst, float(np.min(dg.peg_bound_check(g).ys)))
    ok = worst >= -1e-10
    announce(capsys, 14, "peg-property", ok,
             f"worst margin over 100 graphs = {worst:.1e}")


def test_criterion_15_compactness(capsys):
    rep = dg.compactness_contradiction_demo(dg.circle_curve(1.0))
    lo = float(np.min(rep["deficit"]))
    ok = lo >= 0.5 - 1e-10 and rep["certified_not_profile"]
    announce(capsys, 15, "compactness-demo", ok,
             f"min deficit={lo:.12f} certified={rep['certified_not_profile']}")


def test_criterion_16_oracle_nonlinear(oracle_8k, capsys):
    # criterion 11's bound is 35x the whole Duhamel term, so it passes
    # with the nonlinearity dropped; once the mollification is evolved
    # linearly the march must match to a hundredth of that term
    out, _ = oracle_8k
    thr = 1e-2 * out["duhamel_sup"]
    ok = out["sup_diff_linear"] <= thr
    announce(capsys, 16, "oracle-nonlinear", ok,
             f"sup_diff={out['sup_diff_linear']:.2e} thr={thr:.2e} "
             f"(duhamel {out['duhamel_sup']:.2e})")
