import json
import math
import tracemalloc
from collections import namedtuple
from functools import reduce
from math import gamma

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import roots_jacobi

from cornerflow import _backend, _slowpath, kernel, mild
from cornerflow import (ConfigError, CornerData, MarchConfig, ValidationError,
                        alpha_coefficient, build_kernel_table,
                        constant_shift_residual, corner_height,
                        duhamel_integral, inner_sup, load_profile,
                        reconstruct_U, save_profile,
                        self_similarity_residual, solve_similarity_profile,
                        symmetric_grid)
from cornerflow.errors import NoConvergence, PicardDivergence, StaleProfile
from cornerflow.kernel import _PARITY

PHI0_FROZEN = 0.0779566288  # A = B = 0.1 reference, grid-converged level


def test_corner_data_validation():
    for bad in ((np.nan, 0.1), (0.1, np.inf), ("0.1", 0.1), (0.1, None)):
        with pytest.raises(ValidationError, match="corner slopes"):
            CornerData(*bad)
    c = CornerData(0.2, -0.1)
    assert c.size == 0.2 and c.within_cap()
    assert not CornerData(0.5, 0.0).within_cap()


def test_slope_cap_enforced(ktable):
    with pytest.raises(ConfigError):
        solve_similarity_profile(CornerData(0.5, 0.5), table=ktable)
    with pytest.raises(ValidationError):
        solve_similarity_profile(CornerData(0.1, 0.1))


def test_alpha_coefficient_small_and_bounded():
    v = np.linspace(-10.0, 10.0, 1001)
    a = alpha_coefficient(v)
    assert np.all(a >= 0.0) and np.all(a < 1.0)
    assert alpha_coefficient(np.zeros(1))[0] == 0.0
    exact = 1.0 - 1.0 / (1.0 + v ** 2) ** 2
    assert np.max(np.abs(a - exact)) < 1e-15


def test_linear_data_shortcut(ktable, monkeypatch):
    # A = -B: the evolved step is A exactly and its density is 0 exactly,
    # so the solve takes no Duhamel apply and psi is A to the bit
    monkeypatch.setattr(mild._DuhamelOperator, "__call__", _no_nodes)
    for A in (0.058, -0.2, 0.0, 0.1):
        prof = solve_similarity_profile(CornerData(A, -A), table=ktable,
                                        xs=symmetric_grid(20.0, 1024))
        assert prof.iterations == 1 and prof.residual_history == [0.0]
        assert np.all(prof.psi.ys == A)


def test_picard_monotone_after_two(profile_8k):
    hist = profile_8k.residual_history
    assert profile_8k.converged
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))


def test_profile_phi0_frozen(phi_8k):
    i0 = int(np.argmin(np.abs(phi_8k.xs)))
    assert phi_8k.ys[i0] == pytest.approx(PHI0_FROZEN, abs=5e-9)


def test_profile_symmetry_a_equals_b(profile_8k, phi_8k):
    # psi odd, phi - phi(0) even for symmetric corners
    psi = profile_8k.psi.ys
    assert np.max(np.abs(psi + psi[::-1])) < 1e-9
    i0 = int(np.argmin(np.abs(phi_8k.xs)))
    dev = phi_8k.ys - phi_8k.ys[i0]
    assert np.max(np.abs(dev - dev[::-1])) < 1e-9


def test_decay_constants_exponents(profile_8k):
    for ell in (1, 2):
        c, expo = profile_8k.decay_constants[ell]
        assert expo == pytest.approx(-ell / 4.0, abs=0.02)
        assert c > 0.0
    _, expo0 = profile_8k.decay_constants[0]
    assert abs(expo0) < 0.02


def _masked_decay_fit(psi_ys, psi1, psi2, xs):
    # the fit of mild._decay_fit as one masked maximum per table and t
    ts = np.geomspace(0.01, 100.0, 9)
    fits = {}
    for ell, tab in enumerate((psi_ys, psi1, psi2)):
        sups = [t ** (-ell / 4.0)
                * np.max(np.abs(tab[np.abs(xs) <= xs[-1] * t ** -0.25]))
                for t in ts]
        slope, intercept = np.polyfit(np.log(ts),
                                      np.log(np.maximum(sups, 1e-300)), 1)
        fits[ell] = (float(np.exp(intercept)), float(slope))
    return fits


def test_decay_fit_matches_masked_maxima(profile_8k, rng):
    # one running maximum over |xs| in order takes the same sets as the
    # masks, so the fits are bit-identical, also on a lopsided grid
    psi = profile_8k.psi
    cases = [(psi.ys, profile_8k.psi1, profile_8k.psi2, psi.xs)]
    xs = np.linspace(-13.7, 20.0, 2049)
    cases.append((*rng.standard_normal((3, xs.size)), xs))
    for case in cases:
        assert mild._decay_fit(*case) == _masked_decay_fit(*case)


def _tau_nodes(t, ell, count):
    # the rule of mild._duhamel_nodes at `count` Gauss-Legendre points
    x, w = np.polynomial.legendre.leggauss(count)
    T = t ** 0.25
    tau = 0.5 * T * (x + 1.0)
    lam = (T ** 4 - tau ** 4) ** 0.25
    return tau, lam, 0.5 * T * w * 4.0 * tau * lam ** (-(ell + 1))


def _s_jacobi_nodes(t, ell, count):
    # Gauss-Jacobi in s against the weight s^{-1/2} (1 - s/t)^{-ell/4}: a
    # second substitution, kept only as a reference for the tau rule
    x, w = roots_jacobi(count, -ell / 4.0, -0.5)
    s = 0.5 * t * (x + 1.0)
    lam = (t - s) ** 0.25
    pref = (0.5 * t) ** 0.5 * 2.0 ** (ell / 4.0) * t ** (-ell / 4.0)
    return s ** 0.25, lam, pref * w / lam


def _density(profile, table):
    """The nonlinear density of a profile on its grid, as duhamel_integral
    forms it."""
    psi = profile.psi
    psi1, psi2 = mild._profile_derivatives(psi.ys, psi.xs, psi.h,
                                           psi.right_far, -psi.left_far,
                                           table)
    return mild._nonlinear_density(psi.ys, psi1, psi2)


def test_quadrature_self_consistency(profile_8k, ktable):
    # halving the nodes and switching the substitution must agree
    n_tab, xs = _density(profile_8k, ktable), profile_8k.psi.xs
    fine = duhamel_integral(profile_8k.psi, 1.0, 2, ktable)
    base = mild._duhamel_sum(n_tab, xs, xs, 2, ktable,
                             _tau_nodes(1.0, 2, 32))
    assert np.max(np.abs(base - fine.ys)) < 1e-8
    jac = mild._duhamel_sum(n_tab, xs, xs, 2, ktable,
                            _s_jacobi_nodes(1.0, 2, 96))
    assert np.max(np.abs(fine.ys - jac)) < 1e-6
    # at the cap corner, the largest density, the 64 nodes stay within
    # 1e-6 of the Duhamel sup of twice as many, early, at 1 and late
    cap = solve_similarity_profile(CornerData(0.29, 0.29), table=ktable,
                                   xs=symmetric_grid(20.0, 2048))
    n_tab, xs = _density(cap, ktable), cap.psi.xs
    for t in (1e-2, 1.0, 1e4):
        for ell in (1, 2):
            got = duhamel_integral(cap.psi, t, ell, ktable).ys
            ref = mild._duhamel_sum(n_tab, xs, xs, ell, ktable,
                                    _tau_nodes(t, ell, 128))
            assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_duhamel_validation(profile_8k, ktable):
    with pytest.raises(ValidationError):
        duhamel_integral(profile_8k.psi, -1.0, 2, ktable)
    with pytest.raises(ValidationError):
        duhamel_integral(profile_8k.psi, 1.0, 5, ktable)
    # a non-finite t is refused before any work, naming t
    for t in (np.nan, np.inf, "1"):
        with pytest.raises(ValidationError, match="t must be"):
            duhamel_integral(profile_8k.psi, t, 1, ktable)


@pytest.fixture(scope="module")
def coarse_profile(ktable):
    return solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                    xs=symmetric_grid(20.0, 256))


# calls of (profile, table) with an argument the code cannot use: a
# derivative order that is no whole number, or an object of the wrong type
UNUSABLE = {
    "duhamel order 1.5": lambda p, tab: duhamel_integral(p.psi, 1.0, 1.5, tab),
    "duhamel order '1'": lambda p, tab: duhamel_integral(p.psi, 1.0, "1", tab),
    "duhamel order 3": lambda p, tab: duhamel_integral(p.psi, 1.0, 3, tab),
    "semigroup order 1.5": lambda p, tab: kernel.apply_semigroup(
        p.psi, 1.0, 1.5, tab),
    "semigroup order None": lambda p, tab: kernel.apply_semigroup(
        p.psi, 1.0, None, tab),
    "step order 0.5": lambda p, tab: kernel.apply_to_step(
        0.1, 0.1, 1.0, 0.5, tab, p.psi.xs),
    "eval_g order 2.5": lambda p, tab: tab.eval_g(2.5, p.psi.xs),
    "solve table 'x'": lambda p, tab: solve_similarity_profile(
        CornerData(0.1, 0.1), table="x"),
    "solve corner tuple": lambda p, tab: solve_similarity_profile(
        (0.1, 0.1), table=tab),
    "duhamel table None": lambda p, tab: duhamel_integral(p.psi, 1.0, 1,
                                                          None),
    "duhamel psi array": lambda p, tab: duhamel_integral(p.psi.ys, 1.0, 1,
                                                         tab),
    "reconstruct table 'x'": lambda p, tab: reconstruct_U(p, 1.0, "x"),
    "reconstruct profile 'x'": lambda p, tab: reconstruct_U("x", 1.0, tab),
    "corner_height table 'x'": lambda p, tab: corner_height(
        0.1, 0.1, 1.0, "x", p.psi.xs),
    "self-similarity profile 'x'": lambda p, tab: self_similarity_residual(
        "x", 1.0, 1.0, tab),
    "constant shift solution 'x'": lambda p, tab: constant_shift_residual(
        "x", 0.1, tab),
}


@pytest.mark.parametrize("call", UNUSABLE.values(), ids=UNUSABLE.keys())
def test_unusable_arguments_raise_validation_error(coarse_profile, ktable,
                                                   call):
    with pytest.raises(ValidationError):
        call(coarse_profile, ktable)


def test_whole_float_orders_act_as_ints(coarse_profile, ktable):
    # a derivative order given as an integral float is that order
    psi = coarse_profile.psi
    for ell in (0, 1, 2):
        assert np.array_equal(duhamel_integral(psi, 10.0, float(ell),
                                               ktable).ys,
                              duhamel_integral(psi, 10.0, ell, ktable).ys)
    for ell in (1, 3):
        assert np.array_equal(
            kernel.apply_semigroup(psi, 2.0, float(ell), ktable).ys,
            kernel.apply_semigroup(psi, 2.0, ell, ktable).ys)
        assert np.array_equal(
            kernel.apply_to_step(0.1, 0.2, 2.0, float(ell), ktable,
                                 psi.xs).ys,
            kernel.apply_to_step(0.1, 0.2, 2.0, ell, ktable, psi.xs).ys)


def test_reconstruct_slope_consistency(profile_8k, ktable):
    for t in (0.1, 1.0, 10.0):
        sol = reconstruct_U(profile_8k, t, ktable)
        assert sol.slope_consistency < 1e-6
        assert (sol.phi is not None) == (t == 1.0)


def test_slope_consistency_over_eight_decades(profile_8k, profile_16k,
                                              ktable):
    # the gap is the 4th-order error of a grid that resolves the length
    # scale t^(1/4): it grows like h^4 / t, tenfold a decade down in t and
    # sixteenfold a doubling of h
    asym = solve_similarity_profile(CornerData(0.2, 0.03), table=ktable)
    for prof in (profile_8k, asym):
        for t in 10.0 ** np.arange(-4, 5):
            assert reconstruct_U(prof, t, ktable).slope_consistency <= 1e-6
    coarse = reconstruct_U(profile_8k, 1e-4, ktable).slope_consistency
    fine = reconstruct_U(profile_16k, 1e-4, ktable).slope_consistency
    assert fine <= coarse / 10.0


# march-like grids: half the width, coarser or finer than the profile
# grid, and one whose spacing does not divide the profile spacing
FOREIGN_GRIDS = ((20.0, 4096), (20.0, 512), (13.7, 3000))


@pytest.mark.parametrize("t", (0.05, 0.5, 1.0))
def test_duhamel_on_foreign_grid(profile_8k, ktable, t):
    # the density lives on the profile grid whatever grid the output is
    # asked on, so a foreign grid must see the own-grid field
    own = duhamel_integral(profile_8k.psi, t, 1, ktable)
    for half_width, intervals in FOREIGN_GRIDS:
        xs = np.linspace(-half_width, half_width, intervals + 1)
        got = duhamel_integral(profile_8k.psi, t, 1, ktable, xs=xs)
        assert np.max(np.abs(got.ys - own.interp(xs))) <= 1e-10
    # the reconstruction adds the closed-form evolved corner on top
    xs = np.linspace(-13.7, 13.7, 3001)
    sol = reconstruct_U(profile_8k, t, ktable, xs=xs)
    base = corner_height(0.1, 0.1, t, ktable, xs)
    assert np.max(np.abs(sol.U.ys - base.ys - own.interp(xs))) <= 1e-10


@pytest.mark.parametrize("intervals", (128, 256))
def test_refined_nodes_match_own_grid(profile_8k, ktable, intervals):
    # on a coarse grid the nodes near tau = t^(1/4) have a kernel narrower
    # than 3h; they run on the grid refined r-fold and must still see the
    # own-grid field
    xs = symmetric_grid(20.0, intervals)
    h = mild._spacing(xs)
    for t in (1e-2, 1e-3):
        for ell in (0, 1, 2):
            lam = mild._duhamel_nodes(t, ell)[1]
            assert np.min(lam) < 3.0 * h
            own = duhamel_integral(profile_8k.psi, t, ell, ktable)
            got = duhamel_integral(profile_8k.psi, t, ell, ktable, xs=xs)
            assert (np.max(np.abs(got.ys - own.interp(xs)))
                    <= 1e-9 * np.max(np.abs(own.ys)))


def _no_nodes(*args, **kwargs):
    raise AssertionError("a Duhamel node ran before the check")


BAD_GRIDS = (np.linspace(20.0, -20.0, 513),
             np.linspace(-20.0, 20.0, 513) ** 3 / 400.0,
             np.linspace(-20.0, 20.0, 9),
             np.where(np.arange(513) == 7, np.nan, np.linspace(-20, 20, 513)),
             np.linspace(-20.0, 20.0, 512).reshape(2, 256),
             ["-1", "a"] * 8)


@pytest.mark.parametrize("xs, match", zip(BAD_GRIDS, (
    "increasing", "uniformly", "too short", "finite", "1-D", "numbers")),
    ids=("decreasing", "non-uniform", "short", "nan", "2-d", "strings"))
def test_output_grid_checked_before_any_node(profile_8k, ktable, monkeypatch,
                                             xs, match):
    monkeypatch.setattr(mild, "_duhamel_sum", _no_nodes)
    monkeypatch.setattr(mild, "_evolved_step", _no_nodes)
    with pytest.raises(ValidationError, match=match):
        duhamel_integral(profile_8k.psi, 1.0, 1, ktable, xs=xs)
    with pytest.raises(ValidationError, match=match):
        reconstruct_U(profile_8k, 1.0, ktable, xs=xs)
    # the solve grid too, before the evolved step or the interpolation
    # taps can warn on a reversed or NaN grid
    with pytest.raises(ValidationError, match=match):
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable, xs=xs)


@pytest.mark.parametrize("xs", (np.linspace(5.0, 10.0, 513),
                                np.linspace(0.5, 40.0, 1025)),
                         ids=("5-to-10", "0.5-to-40"))
def test_solve_grid_must_straddle_zero(ktable, monkeypatch, xs):
    # the profile joins -B and A across 0: a grid on one side is refused,
    # naming it, before the evolved step or any node
    monkeypatch.setattr(mild, "_picard_plan", _no_nodes)
    monkeypatch.setattr(mild, "_evolved_step", _no_nodes)
    with pytest.raises(ValidationError, match=r"solve grid \[.*\] must "
                                              r"straddle 0"):
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable, xs=xs)
    # the step's tail bound takes such a grid without a warning: no edge
    # distance, so the envelope's top
    step = kernel.apply_to_step(0.1, 0.1, 1.0, 0, ktable, xs)
    assert step.tail_tol == 0.2 * ktable.g_env * 8.0


def test_output_grid_may_be_a_list(profile_8k, ktable):
    xs = np.linspace(-20.0, 20.0, 513)
    for call in (lambda x: reconstruct_U(profile_8k, 1.0, ktable, xs=x).U,
                 lambda x: duhamel_integral(profile_8k.psi, 1.0, 1, ktable,
                                            xs=x),
                 lambda x: solve_similarity_profile(
                     CornerData(0.2, 0.03), table=ktable, xs=x).psi):
        assert np.array_equal(call(list(xs)).ys, call(xs).ys)


@pytest.fixture(scope="module")
def skew_density(ktable):
    """Nonlinear density of an asymmetric corner on a 2048-interval grid."""
    prof = solve_similarity_profile(CornerData(0.2, 0.03), table=ktable,
                                    xs=symmetric_grid(20.0, 2048))
    return (mild._nonlinear_density(prof.psi.ys, prof.psi1, prof.psi2),
            prof.psi.xs)


def _one_node(n_tab, n_xs, xs, mu, lam, ell, table):
    # the convolution of one node, as a Duhamel sum of that node alone
    return mild._duhamel_sum(n_tab, n_xs, xs, ell, table, ([mu], [lam], [1.0]))


@pytest.fixture()
def sampled_route(monkeypatch):
    """Every block takes its kernel spectra from the sampled lags, as the
    references built from sampled lags do: the tests that use it check the
    windows, blocks and assembly, and test_block_routes_agree the route."""
    monkeypatch.setattr(mild, "_images_clear", lambda *args: False)


def _dense_skew(n_tab, n_xs, xs, mu, lam, ell, table):
    # the dense source sum of a node at every output point
    return mu * mild._spacing(n_xs) * _slowpath.skew_sum(
        table.g_ell[ell], table.h, _PARITY[ell], xs, mu, n_xs, n_tab,
        1.0 / lam)


def _spread_bound(n_tab, n_xs, xs, mu, lam, ell, table):
    # 4-point Lagrange remainder: sup|f^(4)| h^4 / 24 times |prod(u - k)|,
    # which is at most 15/16 on the end cells; here f = g_ell((x - .)/lam)
    # and sup|g_ell^(4)| <= Gamma((ell + 5) / 4) / (4 pi) from the symbol
    # exp(-k^4). The kernel table's own interpolation adds the table.h term.
    g4 = gamma((ell + 5) / 4.0) / (4.0 * np.pi)
    mass = mu * mild._spacing(n_xs) * np.abs(n_tab).sum()
    return (15.0 / 16.0 / 24.0 * g4 * mass
            * ((mild._spacing(xs) / lam) ** 4 + 3.0 * table.h ** 4))


# the own grid, a foreign one, and a narrow window that leaves the outer
# sources of the largest mu outside it
SPREAD_GRIDS = ((-20.0, 20.0, 2048), (-13.7, 13.7, 3000),
                (-0.4, 0.25, 256))


@pytest.fixture(scope="module")
def coarse_skew_density(ktable):
    """skew_density's corner solved on a quarter of its intervals."""
    prof = solve_similarity_profile(CornerData(0.2, 0.03), table=ktable,
                                    xs=symmetric_grid(20.0, 512))
    return (mild._nonlinear_density(prof.psi.ys, prof.psi1, prof.psi2),
            prof.psi.xs)


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_spread_branch_matches_dense_sum(coarse_skew_density, ktable, ell):
    # mu < 3h <= lam: the sources are spread onto the output grid and
    # FFT-convolved; the dense sum is the reference. The grids are
    # SPREAD_GRIDS at a quarter of the intervals, which keeps the dense
    # sum cheap; the error still reads up to 0.09 of the bound, and
    # 2-tap hat weights in place of the 4 Lagrange taps miss it by 1e4.
    n_tab, n_xs = coarse_skew_density
    for left, right, intervals in ((-20.0, 20.0, 512), (-13.7, 13.7, 750),
                                   (-0.4, 0.25, 64)):
        xs = np.linspace(left, right, intervals + 1)
        h = mild._spacing(xs)
        for mu, lam in ((0.3 * h, 3.0 * h), (h, 12.0 * h),
                        (2.9 * h, 150.0 * h)):
            got = _one_node(n_tab, n_xs, xs, mu, lam, ell, ktable)
            ref = _dense_skew(n_tab, n_xs, xs, mu, lam, ell, ktable)
            bound = _spread_bound(n_tab, n_xs, xs, mu, lam, ell, ktable)
            assert np.max(np.abs(got - ref)) <= bound


def test_spread_and_fft_branches_meet(skew_density, ktable):
    # at mu = 3h the spread sources give way to the resampled density
    n_tab, n_xs = skew_density
    h = mild._spacing(n_xs)
    for ell in (0, 1, 2):
        lo, hi = (_one_node(n_tab, n_xs, n_xs, 3.0 * h * (1.0 + s), 1.0, ell,
                            ktable)
                  for s in (-1e-9, 1e-9))
        assert np.max(np.abs(hi - lo)) <= 1e-5 * np.max(np.abs(hi))


def _symbol_lags(ell, m, scale):
    # g_ell(d scale) for d = -m .. m, from the symbol (ik)^ell exp(-k^4) by
    # one inverse FFT whose period puts every alias past |eta| = 80
    M = next_fast_len(m + 1 + int(np.ceil(80.0 / scale)), real=True)
    k = 2.0 * np.pi / (M * scale) * np.arange(M // 2 + 1)
    g = irfft((1j * k) ** ell * np.exp(-k ** 4), M) / scale
    return np.concatenate([g[M - m:], g[:m + 1]])


def _full_length_node(n_tab, n_xs, xs, mu, lam, ell, table, closed=False):
    # the FFT-branch node as one direct linear convolution of all ne padded
    # sources with all 2m + 1 kernel lags (ne + 2m outputs), sliced to xs:
    # the table's lags within the kernel reach, as a block of sampled lags
    # takes them, or, closed, the kernel from its symbol on every lag of
    # the padded grid, as a closed-form block takes it
    h, nh, n = mild._spacing(xs), mild._spacing(n_xs), xs.size
    reach = int(np.ceil(table.eta_max * lam / h))
    pl = min(reach, max(0, int(np.ceil((xs[0] - mu * n_xs[0]) / h))))
    pr = min(reach, max(0, int(np.ceil((mu * n_xs[-1] - xs[-1]) / h))))
    ne = pl + n + pr
    m = ne - 1 if closed else min(ne - 1, reach)
    xe = np.concatenate([xs[0] - h * np.arange(pl, 0, -1), xs,
                         xs[-1] + h * np.arange(1, pr + 1)])
    if mu >= 3.0 * h:
        src = _slowpath.cubic_eval(n_tab, n_xs[0], nh, xe / mu, 0.0, 0.0)
    else:
        # the transpose of cubic_eval on the padded grid
        t = (mu * n_xs - xe[0]) / h
        keep = (t >= 0.0) & (t <= ne - 1.0)
        j = np.clip(np.floor(t[keep]).astype(np.int64), 1, ne - 3)
        src = np.zeros(ne)
        for r, wr in enumerate(_slowpath.lagrange_weights(t[keep] - j)):
            np.add.at(src, j - 1 + r, wr * (mu * nh / h) * n_tab[keep])
    if closed:
        ker = _symbol_lags(ell, m, h / lam)
    else:
        ker = _slowpath.sym_eval(table.g_ell[ell], table.h, _PARITY[ell],
                                 np.arange(-m, m + 1) * (h / lam))
    return h * np.convolve(src, ker)[m + pl:m + pl + n]


def _planned_node_cases():
    # (xs, mu, lam) of planned nodes on SPREAD_GRIDS. A node with H = mu nh
    # >= h and lam >= 3H takes the source-grid path
    # (test_source_grid_nodes_match_dense_sum), so mu > 1 is planned here
    # only with lam < 3H, and mu = 0.45 on the foreign grid
    planned = (((1.5, 0.08), (0.5, 5.0)), ((0.45, 5.0),), ())
    for (left, right, intervals), extra in zip(SPREAD_GRIDS, planned):
        xs = np.linspace(left, right, intervals + 1)
        h = mild._spacing(xs)
        # mu and lam of a few h, where no source reaches the first
        # outputs; mu > 1, padded on both sides; lam far above h
        for mu, lam in ((0.3 * h, 3.0 * h), (3.1 * h, 3.0 * h),
                        (2.9 * h, 150.0 * h), (20.0 * h, 150.0 * h),
                        *extra):
            yield xs, mu, lam


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_fft_branch_matches_full_length_convolution(skew_density, ktable,
                                                    ell, sampled_route):
    # the planned path convolves only the sources that reach xs, with only
    # the kernel lags that join them to xs, at the shortest wrap-free
    # length: any wrap-around or lost lag shows against the uncut
    # convolution
    n_tab, n_xs = skew_density
    left_out = 0
    for xs, mu, lam in _planned_node_cases():
        assert not mild._on_source_grid(n_xs, xs, mu, lam)
        left_out += mu * n_xs[0] - xs[0] > ktable.eta_max * lam
        got = _one_node(n_tab, n_xs, xs, mu, lam, ell, ktable)
        ref = _full_length_node(n_tab, n_xs, xs, mu, lam, ell, ktable)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert left_out >= 4
    # an output grid that no source reaches gets zeros, spread or resampled
    xs = np.linspace(100.0, 110.0, 257)
    for mu in (0.05, 1.0):
        assert not np.any(_one_node(n_tab, n_xs, xs, mu, 0.5, ell, ktable))
        assert not np.any(_full_length_node(n_tab, n_xs, xs, mu, 0.5, ell,
                                            ktable))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_fft_branch_on_its_route_matches_full_length_convolution(
        skew_density, ktable, monkeypatch, ell):
    # the nodes of test_fft_branch_matches_full_length_convolution, each on
    # the route its block takes, against the full-length convolution with
    # that route's kernel, to the same bound: the narrowest kernels take
    # the closed form (4e-13 off the table's lags at ell = 2, 1.2e-14 off
    # the symbol's), the widest the sampled lags
    n_tab, n_xs = skew_density
    routes, taken = _record_node_routes(monkeypatch), set()
    for xs, mu, lam in _planned_node_cases():
        routes.clear()
        got = _one_node(n_tab, n_xs, xs, mu, lam, ell, ktable)
        (closed,) = routes.values()
        taken.add(closed)
        ref = _full_length_node(n_tab, n_xs, xs, mu, lam, ell, ktable,
                                closed)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert taken == {False, True}


# SPREAD_GRIDS, then an output grid wider than mu n_xs for every mu, whose
# source grid Y starts below the first source, each with its (mu, lam);
# (1.5, 1) on the own grid and (0.5, 5) on the foreign one have
# h <= H < 2h
SOURCE_GRID_CASES = (
    ((-20.0, 20.0, 2048), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0), (1.5, 1.0))),
    ((-13.7, 13.7, 3000), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0), (1.5, 1.0),
                           (0.5, 5.0))),
    ((-0.4, 0.25, 256), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0), (1.5, 1.0),
                         (0.5, 5.0))),
    ((-120.0, 120.0, 12000), ((2.5, 1.0), (5.0, 4.0))))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_source_grid_nodes_match_dense_sum(skew_density, ktable, ell):
    # H = mu nh >= h and lam >= 3H: the node is convolved on its source
    # grid, with the density as sampled, and taken to xs by 6-point
    # interpolation. The dense sum is exact up to the kernel table, so the
    # gap is the interpolation's; resampling the density onto xs instead
    # misses 1e-10 by up to 300-fold. The dense sum runs on every 16th
    # output
    n_tab, n_xs = skew_density
    for (left, right, intervals), cases in SOURCE_GRID_CASES:
        xs = np.linspace(left, right, intervals + 1)
        for mu, lam in cases:
            H = mu * mild._spacing(n_xs)
            assert H >= mild._spacing(xs) and lam >= 3.0 * H
            assert mild._on_source_grid(n_xs, xs, mu, lam)
            got = _one_node(n_tab, n_xs, xs, mu, lam, ell, ktable)[::16]
            ref = _dense_skew(n_tab, n_xs, xs[::16], mu, lam, ell, ktable)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the wide grid's Y reaches past both ends of the sources for mu <= 5
    assert xs[0] / 5.0 < n_xs[0] and xs[-1] / 5.0 > n_xs[-1]


@pytest.fixture(scope="module")
def bench_profile(ktable):
    """The (0.1, 0.1) profile on a 2048-interval grid of half-width 20."""
    return solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                    xs=symmetric_grid(20.0, 2048))


def test_late_reconstruction_takes_few_lagrange_taps(bench_profile, ktable,
                                                     monkeypatch):
    # at t = 1e4 on a 2048-interval grid of half-width 20, 51 of the 64
    # nodes sit on their source grids and take no interpolation taps;
    # only the 13 others go through a node plan, and the block pass makes
    # the taps of each once
    plans, tapped = [], []
    plan_nodes, block_taps = mild._plan_nodes, mild._block_taps

    def counted_plan(*args):
        on_grid, planned = plan_nodes(*args)
        plans.extend(planned.mu.tolist())
        return on_grid, planned

    def counted_taps(block, *args):
        tapped.extend(block.mu.tolist())
        return block_taps(block, *args)

    monkeypatch.setattr(mild, "_plan_nodes", counted_plan)
    monkeypatch.setattr(mild, "_block_taps", counted_taps)
    reconstruct_U(bench_profile, 1e4, ktable)
    assert len(plans) == 13 and len(tapped) == 13


def test_t10_duhamel_term_matches_dense_sum(bench_profile, ktable):
    # at t = 10 on the 2048-interval grid, 29 of the 64 nodes have
    # h <= H < 2h and sit on their source grids, which convolve the density
    # as sampled. Node plans, which upsample it by 4-point interpolation,
    # put the term 8.7e-9 of its sup off the dense source sum. The dense
    # sum runs on every 32nd output
    psi = bench_profile.psi
    xs = psi.xs
    nodes = mild._duhamel_nodes(10.0, 1)
    assert sum(mild._on_source_grid(xs, xs, mu, lam)
               for mu, lam, _ in zip(*nodes)) == 29
    n_tab = _density(bench_profile, ktable)
    got = duhamel_integral(psi, 10.0, 1, ktable).ys[::32]
    ref = sum(w * _dense_skew(n_tab, xs, xs[::32], mu, lam, 1, ktable)
              for mu, lam, w in zip(*nodes))
    assert np.max(np.abs(got - ref)) <= 2e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("grid", ((20.0, 2048), (mild.DEFAULT_HALF_WIDTH,
                                                mild.DEFAULT_INTERVALS)))
def test_no_picard_node_sits_on_its_source_grid(grid):
    # a Picard solve's operator takes every node's plan: on its own grid a
    # node reaches the source-grid path only at mu >= 1, and at t = 1 every
    # Gauss node has mu < 1
    xs = symmetric_grid(*grid)
    mus, lams, _ = mild._duhamel_nodes(1.0, 2)
    assert mus.max() < 1.0
    assert not any(mild._on_source_grid(xs, xs, mu, lam)
                   for mu, lam in zip(mus, lams))


@pytest.mark.parametrize("t", (10.0, 1e4))
def test_rescaled_convolution_is_the_sum_of_its_node(skew_density, ktable, t):
    # the name bench/tracer.py wraps gives, for each node on its source
    # grid, the Duhamel sum of that node alone, bit for bit
    n_tab, n_xs = skew_density
    nodes = [(mu, lam) for mu, lam, _ in zip(*mild._duhamel_nodes(t, 1))
             if mild._on_source_grid(n_xs, n_xs, mu, lam)]
    assert len(nodes) >= 29
    for mu, lam in nodes:
        got = mild._rescaled_convolution(n_tab, n_xs, n_xs, mu, lam, 1,
                                         ktable)
        assert got.any()
        assert np.array_equal(got, _one_node(n_tab, n_xs, n_xs, mu, lam, 1,
                                             ktable))


def _parent_wrap_free_length(a, k, lags, lo, hi):
    # the shortest wrap-free length of one node, as first written
    need = max(k, lags, hi - lo, k + lags - 1 - a - lo)
    if a + lo > 0:
        need = max(need, hi + a)
    return need


def _parent_layout(block):
    # (N, kept outputs, r) of a block, rebuilt from all of its nodes: a
    # planned block keeps the union of its nodes' outputs, each node with
    # its own window; a source-grid block convolves the union of its
    # nodes' windows, each node with its own outputs
    node = block[0][1]
    if isinstance(node, _SourceNode):
        lower = min(node.span.lower for _, node in block)
        upper = max(node.span.upper for _, node in block)
        need = max(_parent_wrap_free_length(
            node.a - lower, upper - lower, node.lags[1] - node.lags[0] + 1,
            0, node.nout) for _, node in block)
        return next_fast_len(need, real=True), None, 1
    r = node.r
    out0 = min(node.out0 for _, node in block)
    end = max(node.out0 + node.nout for _, node in block)
    lo, hi = r * out0, r * (end - 1) + 1
    need = max(_parent_wrap_free_length(node.a, node.k,
                                        node.lags[1] - node.lags[0] + 1,
                                        lo, hi) for _, node in block)
    return next_fast_len(need, real=True), slice(out0, end), r


def _parent_blocks(items):
    # the count rule from the nodes alone: a block closes before a node of
    # another r or once it holds BLOCK nodes
    block = []
    for item in items:
        node = item[1]
        if node is None:
            continue
        if block and (node.span.r != block[0][1].span.r
                      or len(block) == mild.BLOCK):
            yield block
            block = []
        block.append(item)
    if block:
        yield block


@pytest.mark.parametrize("t", (1e-2, 10.0, 1e4))
@pytest.mark.parametrize("grid", ((20.0, 2048), (mild.DEFAULT_HALF_WIDTH,
                                                mild.DEFAULT_INTERVALS)))
def test_carried_spans_give_the_rebuilt_layouts(ktable, grid, t):
    # a block carries the join of its nodes' spans as it grows; it must
    # form the blocks of the count rule and the layouts that rebuilding
    # each block from its nodes gives, for the planned and the source-grid
    # nodes of a one-shot sum
    xs = symmetric_grid(*grid)
    quad = mild._duhamel_nodes(t, 1)
    on_grid = mild._on_source_grid(xs, xs, *quad[:2])
    refs = _reference_nodes(xs, xs, quad, ktable, on_grid)
    assert bool(refs[0]) == (t > 1.0)
    for nodes, items in zip(mild._plan_nodes(xs, xs, quad, ktable, on_grid),
                            refs):
        got = [(block, mild._block_layout(span)) for block, span
               in mild._node_blocks(nodes)]
        ref = list(_parent_blocks(items))
        assert [block.w.size for block, _ in got] == [len(b) for b in ref]
        for (block, layout), parent in zip(got, ref):
            N, keep, r = _parent_layout(parent)
            assert _rows(block) == [_flat(*item) for item in parent]
            assert layout[0] == N and layout[2] == r
            assert keep is None or layout[1] == keep


def _count_blocks(monkeypatch):
    """[(spans, sym_eval points, ...)] of every block kernel sampling from
    now on: the spans (d_lo, d_hi, scale) of its nodes, then the size of
    each table evaluation it made."""
    blocks, inside = [], []
    lags, sym = mild._block_kernel_lags, _backend.sym_eval

    def counted_lags(table, ell, spans):
        blocks.append([list(spans)])
        inside.append(True)
        try:
            return lags(table, ell, spans)
        finally:
            inside.pop()

    def counted_sym(tab, h, parity, q):
        if inside:
            blocks[-1].append(np.size(q))
        return sym(tab, h, parity, q)

    monkeypatch.setattr(mild, "_block_kernel_lags", counted_lags)
    monkeypatch.setattr(_backend, "sym_eval", counted_sym)
    return blocks


def test_early_reconstruction_samples_each_lag_magnitude_once(ktable,
                                                             monkeypatch):
    # a block of sampled lags samples the kernel in one table evaluation,
    # on its nodes' |lags| only: at most max(|d_lo|, |d_hi|) + 1 points a
    # node for its d_hi - d_lo + 1 lags, which run nearly symmetric about
    # 0, so about half as many. At t = 1e-2 every block takes its spectra
    # in closed form and samples none; at t = 0.1 the block of the widest
    # kernels, 16 nodes, takes sampled lags (`mild._images_clear`)
    prof = solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                    xs=symmetric_grid(20.0, 2048))
    blocks = _count_blocks(monkeypatch)
    reconstruct_U(prof, 1e-2, ktable)
    assert blocks == []
    reconstruct_U(prof, 0.1, ktable)
    assert len(blocks) == 1
    for spans, *points in blocks:
        assert len(spans) > 1 and len(points) == 1
        assert points[0] <= sum(max(-d_lo, d_hi) + 1
                                for d_lo, d_hi, _ in spans)
    spans = [span for block in blocks for span in block[0]]
    total = sum(d_hi - d_lo + 1 for d_lo, d_hi, _ in spans)
    assert sum(points for _, points in blocks) < 0.51 * total


@pytest.mark.parametrize("t", (1e-2, 1e4))
@pytest.mark.parametrize("grid", ((20.0, 2048), (mild.DEFAULT_HALF_WIDTH,
                                                mild.DEFAULT_INTERVALS)))
def test_one_shot_blocks_hold_the_count_rule(ktable, monkeypatch, grid, t):
    # every block holds at most BLOCK nodes of one r, every block of
    # sampled lags samples its kernel in one table evaluation and every
    # closed-form block in none. On both grids some planned block holds
    # more than one node: a bound on a block's bytes made each planned
    # node of the default grid a block by itself. Source-grid nodes
    # (t = 1e4) go in blocks of up to BLOCK too
    xs = symmetric_grid(*grid)
    n_tab = np.exp(-0.25 * xs * xs)
    seen, spectra = [], mild._kernel_spectra

    def recorded(block, ell, table, N, *args):
        out = spectra(block, ell, table, N, *args)
        # the sampled lags fill every bin, the closed form fewer
        seen.append((block.w.size, set(block.r.tolist()), type(block),
                     out.shape[1] == N // 2 + 1))
        return out

    monkeypatch.setattr(mild, "_kernel_spectra", recorded)
    blocks = _count_blocks(monkeypatch)
    mild._duhamel_sum(n_tab, xs, xs, 2, ktable, mild._duhamel_nodes(t, 2))
    assert len(seen) > 1
    assert all(n <= mild.BLOCK and len(r) == 1 for n, r, *_ in seen)
    assert [len(spans) for spans, *_ in blocks] == [n for n, *_, sampled
                                                    in seen if sampled]
    assert all(len(points) == 1 for _, *points in blocks)
    kinds = [kind for _, _, kind, _ in seen]
    assert (mild._SourceNodes in kinds) == (t > 1.0)
    assert max(n for n, _, kind, _ in seen if kind is mild._NodePlans) > 1
    if t > 1.0:
        assert max(n for n, _, kind, _ in seen
                   if kind is mild._SourceNodes) == mild.BLOCK


def _rolled_spectrum(ker, shift, h, nfft):
    # h rfft of the zero-padded lags, rotated by np.roll
    buf = np.zeros(nfft)
    buf[:ker.size] = ker
    return rfft(np.roll(buf, -shift)) * h


def test_kernel_spectra_match_rolled_lags(ktable, rng):
    # rotations a + lo before 0, at 0, inside the lags, at their end, past
    # them and past the FFT length, in one block: each row of sampled lags,
    # all of them in one batched rfft, is its node's spectrum alone, scaled
    # by its own h, bit for bit
    span = (-18, 18, 0.3)
    ker = kernel._kernel_lags(ktable, 1, *span)
    for nfft in (37, 40, 96):
        shifts = (-50, -5, 0, 1, 12, 36, 37, 50, nfft - 1, nfft + 7)
        hs = rng.uniform(0.1, 0.3, len(shifts))
        empty = [None] * len(mild._NodePlans._fields)
        block = mild._NodePlans._make(empty)._replace(
            w=np.ones(hs.size), d_lo=np.full(hs.size, span[0]),
            d_hi=np.full(hs.size, span[1]), scale=np.full(hs.size, span[2]),
            a=np.array(shifts) - 3, h=hs)
        got = mild._sampled_spectra(block, 1, ktable, nfft, 3)
        for row, h, shift in zip(got, hs, shifts):
            assert np.array_equal(row, _rolled_spectrum(ker, shift, h, nfft))


def _record_node_routes(monkeypatch):
    """The dict that maps each node's lags (d_lo, d_hi, h / lam) to its
    block's route (True for the closed form) from now on."""
    routes, clear = {}, mild._images_clear

    def recorded(block, *args):
        route = clear(block, *args)
        routes.update((lags, route) for lags in zip(
            block.d_lo.tolist(), block.d_hi.tolist(), block.scale.tolist()))
        return route

    monkeypatch.setattr(mild, "_images_clear", recorded)
    return routes


def _record_routes(monkeypatch):
    """The list that every block's route (True for the closed form) is
    appended to from now on."""
    routes, clear = [], mild._images_clear

    def recorded(*args):
        routes.append(clear(*args))
        return routes[-1]

    monkeypatch.setattr(mild, "_images_clear", recorded)
    return routes


def test_block_routes_follow_the_images(ktable, monkeypatch):
    # the closed form is taken where the block's FFT length holds every
    # node's kernel reach: on the bench grid, where every block of the
    # early reconstructions does, and at t = 1e4, where the source-grid
    # blocks of wide kernels do not
    routes = _record_routes(monkeypatch)
    xs = symmetric_grid(20.0, 2048)
    n_tab = np.exp(-0.25 * xs * xs)
    for t in (1e-2, 1e4):
        del routes[:]
        mild._duhamel_sum(n_tab, xs, xs, 1, ktable, mild._duhamel_nodes(t, 1))
        if t < 1.0:
            assert len(routes) == 4 and all(routes)
        else:
            assert len(routes) == 5 and sum(routes) <= 1


def test_narrow_table_keeps_the_sampled_lags(skew_density, ktable,
                                             monkeypatch):
    # a table of eta_max = 15 < kernel.ENVELOPE_REACH cuts the kernel off
    # where its envelope reads 1.6e-4 g_env, which the closed form would
    # not: its
    # blocks all take the sampled lags, one-shot and held, with one
    # cut-off for every node, where the default table's blocks take both
    # routes
    n_tab, n_xs = skew_density
    narrow = build_kernel_table(15.0, 2048)
    assert narrow.eta_max < kernel.ENVELOPE_REACH <= ktable.eta_max
    routes = _record_routes(monkeypatch)
    for table in (narrow, ktable):
        del routes[:]
        for t in (1e-2, 1.0, 1e4):
            mild._duhamel_sum(n_tab, n_xs, n_xs, 1, table,
                              mild._duhamel_nodes(t, 1))
        mild._DuhamelOperator(n_xs, 2, table, mild._duhamel_nodes(1.0, 2))
        assert set(routes) == ({False} if table is narrow else {False, True})


def _wrapped_spectrum(node, ell, table, N, lo):
    # h rfft of the kernel sampled on every lag of its reach, |d| <= R,
    # each lag d added at index d - c mod N, c = a + lo + d_lo
    R = int(np.ceil(table.eta_max / node.scale))
    buf = np.zeros(N)
    np.add.at(buf, (np.arange(-R, R + 1) - (node.a + lo + node.d_lo)) % N,
              kernel._kernel_lags(table, ell, -R, R, node.scale))
    return node.h * rfft(buf)


def test_symbol_spectra_match_sampled_lags(skew_density, ktable,
                                           monkeypatch):
    # each closed-form row is the kernel's symbol on the bins where it has
    # not underflowed: the rfft of the rotated lags of the node's whole
    # reach, sampled from the table, to 1e-12 of the row's max on every
    # bin, past the row's bins too. The rows come from planned blocks
    # (refined at t = 1e-3), a source-grid block (t = 1e4) and the held
    # operator (t = 1)
    n_tab, n_xs = skew_density
    rows, symbol = [], mild._symbol_spectra

    def recorded(block, ell, N, lo):
        out = symbol(block, ell, N, lo)
        # the callers scale the rows in place
        rows.extend((node, ell, N, lo, row) for node, row
                    in zip(_rows(block), out.copy()))
        return out

    monkeypatch.setattr(mild, "_symbol_spectra", recorded)
    for t, ell in ((1e-3, 1), (1e4, 2), (1e-2, 0)):
        mild._duhamel_sum(n_tab, n_xs, n_xs, ell, ktable,
                          mild._duhamel_nodes(t, ell))
    mild._DuhamelOperator(n_xs, 2, ktable, mild._duhamel_nodes(1.0, 2))
    kinds = {type(node) for node, *_ in rows}
    assert kinds == {mild._NodePlans, mild._SourceNodes}
    assert any(node.r > 1 for node, *_ in rows)
    for node, ell, N, lo, row in rows:
        ref = _wrapped_spectrum(node, ell, ktable, N, lo)
        assert row.size < ref.size
        got = np.zeros_like(ref)
        got[:row.size] = row
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# (output grid, t) of test_block_routes_agree: early t, where every block
# takes the closed form; t = 1 and late t, where the blocks of the widest
# kernels sample (on the foreign grid every block at t = 1e4, 1 of 5
# closed at t = 1)
ROUTE_CASES = ((symmetric_grid(20.0, 2048), 1e-4),
               (symmetric_grid(20.0, 2048), 1e-2),
               (symmetric_grid(20.0, 2048), 1.0),
               (symmetric_grid(20.0, 2048), 1e4),
               (np.linspace(-13.7, 13.7, 3001), 1e-2),
               (np.linspace(-13.7, 13.7, 3001), 1.0),
               (np.linspace(-13.7, 13.7, 3001), 1e4))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_block_routes_agree(skew_density, ktable, monkeypatch, ell):
    # the Duhamel term with each block on its own route is within 1e-12 of
    # its sup of the term with every block on the sampled lags, on the own
    # grid and a foreign one, each of which takes both routes; so is the
    # held operator's sum
    n_tab, n_xs = skew_density
    routes = _record_routes(monkeypatch)
    got, taken = [], set()
    for xs, t in ROUTE_CASES:
        got.append(mild._duhamel_sum(n_tab, n_xs, xs, ell, ktable,
                                     mild._duhamel_nodes(t, ell)))
        assert all(routes) or t >= 1.0
        taken.update((xs.size, route) for route in routes)
        del routes[:]
    assert taken == {(n, route) for n in (2049, 3001)
                     for route in (False, True)}
    quad = mild._duhamel_nodes(1.0, ell)
    held = mild._DuhamelOperator(n_xs, ell, ktable, quad)(n_tab)
    assert any(routes) and not all(routes)
    monkeypatch.setattr(mild, "_images_clear", lambda *args: False)
    for (xs, t), out in zip(ROUTE_CASES, got):
        ref = mild._duhamel_sum(n_tab, n_xs, xs, ell, ktable,
                                mild._duhamel_nodes(t, ell))
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = mild._DuhamelOperator(n_xs, ell, ktable, quad)(n_tab)
    assert np.max(np.abs(held - ref)) <= 1e-12 * np.max(np.abs(ref))


# The per-node reference of the planner (`mild._plan_nodes`): each node
# planned by itself in scalar arithmetic, its window ends found point by
# point from a guess. Kept here, as _node_taps is kept for the taps, to
# check the array planner, its spans and its blocks bit for bit.

# one planned node, all scalars; see _fft_plan
_NodePlan = namedtuple("_NodePlan", "lo k first count mu pad padded spread "
                                    "lags a h r out0 nout span")
# one node on its source grid; see _source_node
_SourceNode = namedtuple("_SourceNode", "lags a h y0 nout span")


def _grid_point(xs, r):
    # point m of xs refined r-fold as a Python float, as np.linspace gives it
    if r == 1:
        return xs.item
    start, stop, last = float(xs[0]), float(xs[-1]), r * (xs.size - 1)
    step = (stop - start) / last
    return lambda m: stop if m == last else m * step + start


def _cell(t, n):
    # the stencil node j of `_slowpath._cells` at the grid coordinate t
    return min(max(math.floor(t), 1), n - 3)


def _first_past(coord, guess, size, bound, strict):
    # np.searchsorted(coord(0 .. size - 1), bound, "right" if strict else
    # "left") for a nondecreasing coord: from just past guess, step by
    # step, each step checked on a neighbour
    i = int(min(max(guess + 1.0, 0.0), size))

    def past(i):
        c = coord(i)
        return c > bound if strict else c >= bound
    while i > 0 and past(i - 1):
        i -= 1
    while i < size and not past(i):
        i += 1
    return i


def _fft_plan(n_xs, xs, mu, lam, table):
    # the planned node (mu, lam) on xs (`mild._plan_nodes`), or None when
    # no source reaches xs; lags = (d_lo, d_hi, h / lam), spread None for a
    # resampled node, span the node's `mild._Span`
    mu, lam, h = float(mu), float(lam), float(mild._spacing(xs))
    r = 1 if lam >= 3.0 * h else math.ceil(24.0 * h / lam)
    n = r * (xs.size - 1) + 1
    point = _grid_point(xs, r)
    x0, x1 = point(0), point(n - 1)
    if r > 1:
        h = (x1 - x0) / (n - 1)
    nx0, nx1, nh = n_xs.item(0), n_xs.item(-1), float(mild._spacing(n_xs))
    top = n_xs.size
    reach = math.ceil(table.eta_max * lam / h)
    pl = min(reach, max(0, math.ceil((x0 - mu * nx0) / h)))
    pr = min(reach, max(0, math.ceil((mu * nx1 - x1) / h)))
    padded = pl + n + pr
    if mu >= 3.0 * h:
        spread, count, size = None, 0, padded

        def coord(i):
            # padded point i divided by mu, on the profile grid
            m = i - pl
            if m < 0:
                x = x0 - h * -m
            elif m < n:
                x = point(m)
            else:
                x = x1 + h * (m - n + 1)
            return (x / mu - nx0) / nh

        def guess(q):
            return pl + (mu * (nx0 + q * nh) - x0) / h
    else:
        spread, xp, size = mu * nh / h, x0 - pl * h, top

        def coord(j):
            # source j on the padded grid
            return (mu * n_xs.item(j) - xp) / h

        def guess(q):
            return ((xp + q * h) / mu - nx0) / nh
    bound = (top if spread is None else padded) - 1.0
    lo = _first_past(coord, guess(0.0), size, 0.0, False)
    hi = max(lo, _first_past(coord, guess(bound), size, bound, True))
    if hi == lo:
        return None
    if spread is None:
        k, first = hi - lo, lo - pl
    else:
        count = hi - lo
        j0 = _cell(coord(lo), padded)
        k, first = _cell(coord(hi - 1), padded) + 4 - j0, j0 - 1 - pl
    d_lo = max(-reach, -(first + k - 1))
    d_hi = min(reach, n - 1 - first)
    lags = d_hi - d_lo + 1
    a = -(first + d_lo)
    out0, nout = 0, (n - 1) // r + 1
    if r > 1:
        out0 = -(-max(0, -a) // r)
        nout = (min(n, k + lags - 1 - a) - 1) // r + 1 - out0
        if nout < 1:
            return None
    span = mild._Span(r, r * out0, r * (out0 + nout - 1) + 1, max(k, lags),
                      -a, k + lags - 1 - a)
    return _NodePlan(lo, k, first, count, mu, pl, padded, spread,
                     (d_lo, d_hi, h / lam), a, h, r, out0, nout, span)


def _source_node(n_xs, xs, mu, lam, table):
    # the node (mu, lam) on its source grid (`mild._plan_nodes`), or None
    # when no source reaches xs
    nh = mild._spacing(n_xs)
    H = mu * nh
    lo = int(np.floor((xs[0] / mu - n_xs[0]) / nh)) - 3
    hi = int(np.ceil((xs[-1] / mu - n_xs[0]) / nh)) + 4
    reach = int(np.ceil(table.eta_max / (H / lam)))
    d_lo, d_hi = max(-reach, lo - (n_xs.size - 1)), min(reach, hi - 1)
    if d_lo > d_hi:
        return None
    start, end = lo - d_hi, hi - d_lo
    span = mild._Span(1, max(0, start), min(n_xs.size, end),
                      max(d_hi - d_lo + 1, hi - lo), start, end)
    return _SourceNode((d_lo, d_hi, H / lam), lo - d_lo, H,
                       mu * (n_xs[0] + nh * lo), hi - lo, span)


def _reference_nodes(n_xs, xs, quad, table, on_grid):
    # ([(w, _SourceNode)], [(w, _NodePlan)]) of the nodes that some source
    # reaches, each planned by itself, in the order of quad
    on, planned = [], []
    for (mu, lam, w), here in zip(zip(*quad), np.broadcast_to(
            on_grid, np.shape(quad[0]))):
        if here:
            on.append((w, _source_node(n_xs, xs, mu, lam, table)))
        else:
            planned.append((w, _fft_plan(n_xs, xs, mu, lam, table)))
    return ([item for item in on if item[1] is not None],
            [item for item in planned if item[1] is not None])


def _flat(w, node):
    # a reference node's fields in the order of mild._SourceNodes or
    # mild._NodePlans, a resampled node's spread 0
    if isinstance(node, _SourceNode):
        return (w, *node.lags, node.a, node.h, node.y0, node.nout, *node.span)
    return (w, node.mu, node.lo, node.k, node.first, node.count, node.pad,
            node.padded, node.spread or 0.0, *node.lags, node.a, node.h,
            node.r, node.out0, node.nout, *node.span[1:])


def _rows(nodes):
    # the nodes of a mild._NodePlans or _SourceNodes, a block's too, one
    # record of Python scalars a node
    return [type(nodes)._make(row)
            for row in zip(*(field.tolist() for field in nodes))]


def _block_of(items):
    # the mild._NodePlans of the reference items (w, _NodePlan)
    return mild._NodePlans._make(
        map(np.array, zip(*(_flat(w, node) for w, node in items))))


def _joined(a, b):
    # the span of a block of the nodes of spans a and b, of one r
    return mild._Span(a.r, min(a.lower, b.lower), max(a.upper, b.upper),
                      max(a.fixed, b.fixed), min(a.start, b.start),
                      max(a.end, b.end))


# the output grids of test_plans_match_per_node_reference: the bench grid,
# the foreign grid, whose windows run into the pads, the wide grid, refined
# 16-fold at t = 1e-2, and the march grid
PLAN_CASES = (symmetric_grid(20.0, 2048), np.linspace(-13.7, 13.7, 3001),
              np.linspace(-30.0, 30.0, 1501), symmetric_grid(20.0, 4096))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_plans_match_per_node_reference(skew_density, ktable, ell):
    # the array planner gives, bit for bit, every field and span of the
    # nodes planned one by one in scalar arithmetic, and the blocks and
    # joined spans of the count rule over them: the one-shot sums at t =
    # 1e-4 .. 1e4 on four output grids, and the held operator's nodes on
    # each grid at t = 1. The cases take pads, refined nodes, spread and
    # resampled nodes in one block, and source-grid nodes
    n_tab, n_xs = skew_density
    pads, refined, mixed, sources = 0, set(), 0, 0
    for xs in PLAN_CASES:
        cases = []
        for t in 10.0 ** np.arange(-4, 5):
            quad = mild._duhamel_nodes(t, ell)
            grid = mild._on_source_grid(n_xs, xs, *quad[:2])
            cases.append((mild._plan_nodes(n_xs, xs, quad, ktable, grid),
                          _reference_nodes(n_xs, xs, quad, ktable, grid)))
        quad = mild._duhamel_nodes(1.0, ell)
        cases.append(((None, mild._operator_nodes(xs, ktable, quad)),
                      _reference_nodes(xs, xs, [q[::-1] for q in quad],
                                       ktable, False)))
        for got, ref in cases:
            for nodes, items in zip(got, ref):
                if nodes is None:
                    continue
                assert type(nodes) is (mild._NodePlans if items is ref[1]
                                       else mild._SourceNodes)
                assert _rows(nodes) == [_flat(*item) for item in items]
                blocks = list(mild._node_blocks(nodes))
                parents = list(_parent_blocks(items))
                assert len(blocks) == len(parents)
                for (block, span), parent in zip(blocks, parents):
                    assert _rows(block) == [_flat(*item) for item in parent]
                    assert span == reduce(_joined,
                                          [node.span for _, node in parent])
                    if items is ref[1]:
                        mixed += len(set((block.count > 0).tolist())) > 1
            sources += len(ref[0])
            for _, node in ref[1]:
                refined.add(node.r)
                pads += node.pad > 0 or node.padded > node.pad + node.r * (
                    xs.size - 1) + 1
    assert pads and mixed and sources and max(refined) >= 16


def test_reconstruction_takes_its_solves_step_samples(new_table, monkeypatch):
    # on the table of its solve a reconstruction takes G, g_0 and g_1 on
    # the profile grid from the table's held plan: it evaluates none of
    # them, 3 x 2049 table points fewer than on a fresh table, and U is
    # the same bit for bit
    xs = symmetric_grid(20.0, 2048)
    table = new_table()
    prof = solve_similarity_profile(CornerData(0.1, 0.1), table=table, xs=xs)
    calls, points = [], []
    eval_g, eval_G, sym = (kernel.KernelTable.eval_g,
                           kernel.KernelTable.eval_G, _backend.sym_eval)

    def counted_g(self, ell, eta):
        calls.append(("g", ell, np.array_equal(eta, xs)))
        return eval_g(self, ell, eta)

    def counted_G(self, eta):
        calls.append(("G", None, np.array_equal(eta, xs)))
        return eval_G(self, eta)

    def counted_sym(tab, h, parity, q):
        points.append(np.size(q))
        return sym(tab, h, parity, q)

    monkeypatch.setattr(kernel.KernelTable, "eval_g", counted_g)
    monkeypatch.setattr(kernel.KernelTable, "eval_G", counted_G)
    monkeypatch.setattr(_backend, "sym_eval", counted_sym)
    for t in (1e-2, 10.0):
        seen = []
        for tab in (table, new_table()):
            del calls[:], points[:]
            seen.append((reconstruct_U(prof, t, tab).U.ys,
                         [call[:2] for call in calls if call[2]],
                         sum(points)))
        (warm, held, warm_points), (cold, evaluated, cold_points) = seen
        assert np.array_equal(warm, cold)
        assert held == [] and sorted(evaluated, key=str) == [
            ("G", None), ("g", 0), ("g", 1)]
        assert cold_points - warm_points == 3 * xs.size


# The per-node reference of the block taps (`mild._block_taps`): each
# planned node's window and taps as the node made them alone, from the
# whole padded output grid, the window ends by np.searchsorted. Kept here,
# as _slowpath.skew_sum is kept for the convolutions, to check the block
# pass bit for bit.


def _lagrange_taps(x0, h, n, q):
    """The 4-point Lagrange taps of the increasing points q on x0 + h*i.

    Returns (lo, base, u): the points q[lo:lo + k] are those on the grid
    (x0 <= q <= x0 + (n-1)h), and lagrange_weights(u) is the (4, k) array
    of their weights on the nodes base + 0..3. End cells and rounding are
    those of `cubic_eval`, whose zero fill covers the points outside the
    window.
    """
    t = (np.asarray(q, dtype=float) - x0) / h
    lo = int(np.searchsorted(t, 0.0, side="left"))
    hi = max(lo, int(np.searchsorted(t, n - 1.0, side="right")))
    j, u = _slowpath._cells(t[lo:hi], n)
    return lo, j - 1, u


def test_lagrange_taps_reproduce_cubic_eval():
    # the taps gathered over a table are cubic_eval on the window, end
    # cells included, and cubic_eval's zero fill outside it
    tab = np.sin(np.linspace(0.0, 3.0, 40))
    x0, h = -1.0, 0.1
    q = np.linspace(x0 - 0.55, x0 + 39 * h + 0.3, 301)
    q = np.concatenate([q, [x0, x0 + 39 * h]])
    q.sort()
    lo, base, u = _lagrange_taps(x0, h, tab.size, q)
    w = _slowpath.lagrange_weights(u)
    ref = _slowpath.cubic_eval(tab, x0, h, q, 0.0, 0.0)
    got = np.zeros(q.size)
    got[lo:lo + base.size] = sum(w[r] * tab[base + r] for r in range(4))
    assert np.array_equal(got, ref)
    inside = (q >= x0) & (q <= x0 + 39 * h)
    assert base.size == inside.sum() and inside[lo:lo + base.size].all()
    off = _lagrange_taps(x0, h, tab.size, q + 10.0)
    assert off[1].size == 0 and off[2].shape == (0,)


# a planned node's window and taps, made by the node alone; see _node_taps
_NodeTaps = namedtuple("_NodeTaps", "lo base u k first spread pad padded")


def _node_taps(n_xs, xs, mu, lam, table):
    # the window of the planned node (mu, lam) on xs and its taps (base,
    # u): for mu >= 3h the padded points lo .. lo + k - 1, each resampled
    # from n_tab by its stencil base + 0..3; for mu < 3h the points mu
    # n_xs[lo:lo + base.size], spread onto the k window cells by their
    # stencils, base counted from the window's first cell; first, the
    # window's first point on xs (None if no source reaches xs)
    h = mild._spacing(xs)
    r = 1 if lam >= 3.0 * h else int(np.ceil(24.0 * h / lam))
    if r > 1:
        xs = np.linspace(xs[0], xs[-1], r * (xs.size - 1) + 1)
        h = mild._spacing(xs)
    n = xs.size
    reach = int(np.ceil(table.eta_max * lam / h))
    pl = min(reach, max(0, int(np.ceil((xs[0] - mu * n_xs[0]) / h))))
    pr = min(reach, max(0, int(np.ceil((mu * n_xs[-1] - xs[-1]) / h))))
    if mu >= 3.0 * h:
        pts = np.concatenate([xs[0] - h * np.arange(pl, 0, -1), xs,
                              xs[-1] + h * np.arange(1, pr + 1)]) / mu
        lo, base, u = _lagrange_taps(n_xs[0], mild._spacing(n_xs),
                                     n_xs.size, pts)
        return _NodeTaps(lo, base, u, base.size, lo - pl, None, pl,
                         pl + n + pr)
    spread = mu * mild._spacing(n_xs) / h
    lo, base, u = _lagrange_taps(xs[0] - pl * h, h, pl + n + pr, mu * n_xs)
    if not base.size:
        return _NodeTaps(lo, base, u, 0, None, spread, pl, pl + n + pr)
    return _NodeTaps(lo, base - base[0], u, int(base[-1]) + 4 - int(base[0]),
                     int(base[0]) - pl, spread, pl, pl + n + pr)


def _node_sources(taps, n_tab):
    # a node's k sources on its window: n_tab resampled by its 4 taps,
    # summed in order, or spread by them
    base, w = taps.base, _slowpath.lagrange_weights(taps.u)
    if taps.spread is not None:
        v = taps.spread * n_tab[taps.lo:taps.lo + base.size]
        return np.bincount((base + np.arange(4)[:, None]).ravel(),
                           (w * v).ravel(), minlength=taps.k)
    row = w[0] * n_tab[base]
    for k in (1, 2, 3):
        tap = n_tab[k:][base]
        tap *= w[k]
        row += tap
    return row


def _node_rows(taps):
    # (counts, cols, vals): the CSR rows that take n_tab to a node's
    # window, row by row, each row's columns in increasing order
    cells = (taps.base[:, None] + np.arange(4)).ravel()
    points = np.repeat(np.arange(taps.base.size, dtype=np.int32), 4)
    w = _slowpath.lagrange_weights(taps.u)
    if taps.spread is None:
        # window point p takes n_tab at base[p] + 0..3
        return (np.full(taps.k, 4, dtype=np.int32), cells.astype(np.int32),
                w.T.ravel())
    # n_tab at lo + j goes onto the window cells base[j] + 0..3; listed
    # point by point, a stable sort by cell keeps each cell's points in order
    order = np.argsort(cells, kind="stable")
    return (np.bincount(cells, minlength=taps.k).astype(np.int32),
            taps.lo + points[order], (w.T * taps.spread).ravel()[order])


def _stacked_rows(rows, W):
    # (data, indices, indptr) of the nodes' CSR rows stacked with stride W
    counts = [np.zeros(1, dtype=np.int32)]
    for cnt, _, _ in rows:
        counts += [cnt, np.zeros(W - cnt.size, dtype=np.int32)]
    return (np.concatenate([vals for _, _, vals in rows]),
            np.concatenate([cols for _, cols, _ in rows]),
            np.cumsum(np.concatenate(counts)))


# (output grid, t) of test_block_taps_match_per_node_reference: the bench
# grid from t = 1e-4, refined, to 1e4; the foreign grid, whose windows run
# into the pads; a wide grid, refined 16-fold at t = 1e-2
TAP_CASES = tuple((symmetric_grid(20.0, 2048), t)
                  for t in (1e-4, 1e-2, 0.1, 1.0, 10.0, 1e4)) + (
    (np.linspace(-13.7, 13.7, 3001), 1e-2),
    (np.linspace(-13.7, 13.7, 3001), 1.0),
    (np.linspace(-30.0, 30.0, 1501), 1e-2))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_block_taps_match_per_node_reference(skew_density, ktable,
                                             monkeypatch, ell):
    # every plan's window is the one np.searchsorted finds on the node's
    # whole padded grid, and the block pass makes each node's taps as the
    # node alone made them: the one-shot sum's rfft input and the held
    # operator's CSR are those of the nodes' sources and rows made one by
    # one, bit for bit, resampled and spread nodes in one block
    n_tab, n_xs = skew_density
    seen, block_taps, block_sources = [], mild._block_taps, mild._block_sources

    def recorded_taps(block, *args):
        seen.append([block])
        return block_taps(block, *args)

    def recorded_sources(*args):
        out = block_sources(*args)
        seen[-1].append(out.copy())
        return out

    monkeypatch.setattr(mild, "_block_taps", recorded_taps)
    monkeypatch.setattr(mild, "_block_sources", recorded_sources)
    refined, pads, mixed = set(), 0, 0
    for xs, t in TAP_CASES:
        quad = mild._duhamel_nodes(t, ell)
        lams = {float(mu): lam for mu, lam, _ in zip(*quad)}
        for grid, built in ((n_xs, lambda: mild._duhamel_sum(
                n_tab, n_xs, xs, ell, ktable, quad)), (xs, lambda: mild.
                _DuhamelOperator(xs, ell, ktable, quad))):
            del seen[:]
            op = built()
            for item, held in zip(seen, getattr(op, "blocks", None)
                                  or [None] * len(seen)):
                block = item[0]
                refs = [_node_taps(grid, xs, mu, lams[mu], ktable)
                        for mu in block.mu.tolist()]
                for node, ref in zip(_rows(block), refs):
                    assert (node.lo, node.k, node.first,
                            node.spread if node.count else None, node.pad,
                            node.padded) == (
                        ref.lo, ref.k, ref.first, ref.spread, ref.pad,
                        ref.padded)
                    assert node.count == (0 if ref.spread is None
                                          else ref.base.size)
                    refined.add(node.r)
                    pads += not node.count and (
                        node.first < 0
                        or node.first + node.k > node.r * (xs.size - 1) + 1)
                mixed += len(set((block.count > 0).tolist())) > 1
                if held is None:
                    N = item[1].shape[1]
                    ref = np.zeros((block.w.size, N))
                    for row, wt, taps in zip(ref, block.w, refs):
                        row[:taps.k] = _node_sources(taps, n_tab)
                        row[:taps.k] *= wt
                    assert np.array_equal(item[1], ref)
                else:
                    matrix, W = held[:2]
                    data, cols, indptr = _stacked_rows(
                        [_node_rows(taps) for taps in refs], W)
                    assert np.array_equal(matrix.data, data)
                    assert np.array_equal(matrix.indices, cols)
                    assert np.array_equal(matrix.indptr, indptr)
        # a node that no source reaches has no plan, and no taps
        for mu, lam, _ in zip(*quad):
            if not mild._on_source_grid(n_xs, xs, mu, lam):
                if not _node_taps(n_xs, xs, mu, lam, ktable).k:
                    assert not mild._plan_nodes(n_xs, xs, ([mu], [lam], [1.0]),
                                                ktable, False)[1].w.size
    assert 16 in refined and max(refined) > 16
    assert pads > 0 and mixed > 0


def _node_by_node_sum(n_tab, n_xs, xs, ell, table, quad):
    # the Duhamel sum as it was before blocks: each node by itself, its
    # kernel sampled alone. A source-grid node is one full-length linear
    # convolution on its source grid, interpolated to xs; a planned node's
    # kernel is rotated into a zero buffer of its own FFT length, and
    # takes three FFTs
    out = np.zeros(xs.size)
    nh = mild._spacing(n_xs)
    for mu, lam, w in zip(*quad):
        if mild._on_source_grid(n_xs, xs, mu, lam):
            H = mu * nh
            lo = int(np.floor((xs[0] / mu - n_xs[0]) / nh)) - 3
            hi = int(np.ceil((xs[-1] / mu - n_xs[0]) / nh)) + 4
            conv = kernel._sampled_convolution(n_tab, H / lam, ell, table,
                                               lo, hi)
            out += w * _slowpath.quintic_eval(H * conv,
                                              mu * (n_xs[0] + nh * lo), H, xs)
            continue
        node = _fft_plan(n_xs, xs, mu, lam, table)
        if node is None:
            continue
        src = _node_sources(_node_taps(n_xs, xs, mu, lam, table), n_tab)
        r, out0, nout = node.r, node.out0, node.nout
        nfft = mild._block_layout(node.span)[0]
        khat = _rolled_spectrum(kernel._kernel_lags(table, ell, *node.lags),
                                node.a + r * out0, node.h, nfft)
        conv = irfft(rfft(src, nfft) * khat, nfft)
        part = np.zeros(xs.size)
        part[out0:out0 + nout] = conv[:r * (nout - 1) + 1:r]
        out += w * part
    return out


# (output grid, t): refined blocks at t = 1e-3 on 256 intervals, spread
# nodes early, the foreign grid, and late t, where the middle nodes sit
# on their source grids and one run of r = 1 needs several blocks
BLOCK_CASES = ((symmetric_grid(20.0, 256), 1e-3),
               (np.linspace(-13.7, 13.7, 3001), 0.05),
               (symmetric_grid(20.0, 2048), 1e-2),
               (symmetric_grid(20.0, 2048), 10.0),
               (symmetric_grid(20.0, 2048), 100.0),
               (symmetric_grid(20.0, 2048), 1e4))


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_block_sum_matches_node_by_node(skew_density, ktable, monkeypatch,
                                        ell, method, sampled_route):
    n_tab, n_xs = skew_density
    seen, spectra = [], mild._kernel_spectra

    def recorded(block, *args):
        seen.append((int(block.r[0]), block.w.size, type(block)))
        return spectra(block, *args)

    monkeypatch.setattr(mild, "_kernel_spectra", recorded)
    runs, spread = [], []
    for xs, t in BLOCK_CASES:
        quad = (mild._duhamel_nodes(t, ell) if method == "tau"
                else _s_jacobi_nodes(t, ell, 64))
        del seen[:]
        got = mild._duhamel_sum(n_tab, n_xs, xs, ell, ktable, quad)
        ref = _node_by_node_sum(n_tab, n_xs, xs, ell, ktable, quad)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        runs.append(list(seen))
        spread.append(np.min(quad[0]) < 3.0 * mild._spacing(xs))
    # refined blocks; spread nodes; a run of one r in several blocks; late,
    # the nodes on their source grids in blocks of their own, several a
    # block, and with the tau rule planned nodes beside them
    assert all(r > 1 for r, *_ in runs[0])
    assert spread[0] and spread[2]
    assert any(a[0] == b[0] for a, b in zip(runs[2], runs[2][1:]))
    for run in runs[3:]:
        assert max(n for _, n, kind in run if kind is mild._SourceNodes) > 1
        assert (method != "tau"
                or any(kind is mild._NodePlans for *_, kind in run))


def _assert_node_by_node_assembly(skew_density, table, check_row):
    # the held operator of each case holds the CSR of one assembled node by
    # node, each row of its spectra passes check_row(row, weight, node, N,
    # lo) for the rotation lo of its block, and it applies bit for bit as
    # its blocks assembled by hand
    n_tab, n_xs = skew_density
    for xs, t in ((symmetric_grid(20.0, 256), 1.0),
                  (symmetric_grid(20.0, 1024), 1.0),
                  (symmetric_grid(20.0, 256), 1e-3)):
        dens = np.interp(xs, n_xs, n_tab)
        quad = mild._duhamel_nodes(t, 2)
        op = mild._DuhamelOperator(xs, 2, table, quad)
        nodes = [(wt, _fft_plan(xs, xs, mu, lam, table),
                  _node_taps(xs, xs, mu, lam, table))
                 for mu, lam, wt in reversed(list(zip(*quad)))]
        nodes = [node for node in nodes if node[1] is not None]
        at = 0
        ref = np.zeros(xs.size)
        for matrix, W, N, spectra, keep, r in op.blocks:
            block, at = nodes[at:at + spectra.shape[0]], at + spectra.shape[0]
            assert len({node.r for _, node, _ in block}) == 1
            assert W == max(node.k for _, node, _ in block)
            data, cols, _ = _stacked_rows(
                [_node_rows(taps) for _, _, taps in block], W)
            assert np.array_equal(matrix.data, data)
            assert np.array_equal(matrix.indices, cols)
            for row, (wt, node, _) in zip(spectra, block):
                check_row(row, wt, node, N, r * keep.start)
            fs = rfft((matrix @ dens).reshape(-1, W),
                      N)[:, :spectra.shape[1]] * spectra
            ref[keep] += irfft(fs.sum(axis=0),
                               N)[:r * (keep.stop - keep.start - 1) + 1:r]
        assert at == len(nodes)
        assert np.array_equal(op(dens), ref)


def test_held_operator_matches_node_by_node_assembly(skew_density, ktable,
                                                     sampled_route):
    # the operator built through the block sampler holds the CSR and the
    # spectra of one assembled node by node, each node's kernel sampled
    # and transformed alone, and applies bit for bit alike
    def sampled_alone(row, wt, node, N, lo):
        ker = kernel._kernel_lags(ktable, 2, *node.lags)
        assert np.array_equal(row, wt * _rolled_spectrum(ker, node.a + lo,
                                                         node.h, N))

    _assert_node_by_node_assembly(skew_density, ktable, sampled_alone)


def test_held_operator_on_its_routes_matches_node_by_node_assembly(
        skew_density, ktable):
    # as test_held_operator_matches_node_by_node_assembly, each block on
    # its own route: a sampled row is its node's lags sampled and
    # transformed alone, and a closed-form row its node's symbol taken
    # alone, bit for bit, zero on the block's bins past the node's own
    # cut; the closed-form row is also within 1e-14 of its max of h rfft
    # of the kernel from its symbol on every lag, wrapped at N (1.2e-15
    # read)
    kinds = set()

    def alone(row, wt, node, N, lo):
        kinds.add(row.size < N // 2 + 1)
        if row.size == N // 2 + 1:
            ker = kernel._kernel_lags(ktable, 2, *node.lags)
            assert np.array_equal(row, wt * _rolled_spectrum(
                ker, node.a + lo, node.h, N))
            return
        own = wt * mild._symbol_spectra(_block_of([(wt, node)]), 2, N, lo)[0]
        assert np.array_equal(row[:own.size], own)
        assert not np.any(row[own.size:])
        d_lo, _, scale = node.lags
        R = int(np.ceil(2.0 * ktable.eta_max / scale))
        buf = np.zeros(N)
        np.add.at(buf, (np.arange(-R, R + 1) - (node.a + lo + d_lo)) % N,
                  _symbol_lags(2, R, scale))
        ref = wt * node.h * rfft(buf)
        assert np.max(np.abs(ref[:row.size] - row)) <= 1e-14 * np.max(
            np.abs(ref))
        assert np.max(np.abs(ref[row.size:])) <= 1e-14 * np.max(np.abs(ref))

    _assert_node_by_node_assembly(skew_density, ktable, alone)
    assert kinds == {False, True}


def test_late_duhamel_term_matches_finer_profile(ktable):
    # at t = 1e4 most nodes take the source-grid path; the Duhamel term of
    # U on the 2048-interval grid must agree with that of the profile
    # solved on twice the intervals, to 1e-9 of its sup
    coarse, fine = (solve_similarity_profile(CornerData(0.1, 0.1),
                                             table=ktable,
                                             xs=symmetric_grid(20.0, n))
                    for n in (2048, 4096))
    xs = coarse.psi.xs
    got = duhamel_integral(coarse.psi, 1e4, 1, ktable).ys
    ref = duhamel_integral(fine.psi, 1e4, 1, ktable, xs=xs).ys
    assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_wrap_free_length_is_exact_and_shortest(rng):
    # over all small windows, lags, rotations and kept outputs lo..hi-1:
    # at the length given, the rotated circular convolution holds the
    # linear one's outputs; one shorter, it does not. First the span of a
    # planned node (its own window, a the index of output 0), then that of
    # a source-grid node (`_source_node`: the window J0..J1-1 of the
    # sources, the lags d_lo.., the sources lo - d_hi .. hi - 1 - d_lo
    # reach the kept outputs)
    from scipy.fft import irfft, rfft

    def kept(src, ker, a, lo, hi, N):
        rolled = np.zeros(N)
        rolled[:ker.size] = ker
        rolled = np.roll(rolled, -(a + lo))
        return irfft(rfft(src, N) * rfft(rolled), N)[:hi - lo]

    for a in range(-6, 7):
        for k in range(1, 5):
            for lags in range(1, 5):
                src, ker = rng.standard_normal(k), rng.standard_normal(lags)
                lin = np.convolve(src, ker)
                for lo in range(5):
                    for hi in range(lo + 1, lo + 6):
                        want = [lin[o + a] if 0 <= o + a < lin.size else 0.0
                                for o in range(lo, hi)]
                        N = mild._wrap_free_length(mild._Span(
                            1, lo, hi, max(k, lags), -a, k + lags - 1 - a))
                        got = kept(src, ker, a, lo, hi, N)
                        assert np.max(np.abs(got - want)) <= 1e-12
                        if N - 1 >= max(k, lags, hi - lo):
                            got = kept(src, ker, a, lo, hi, N - 1)
                            assert np.max(np.abs(got - want)) > 1e-12
    for J0 in range(-2, 3):
        for k in range(1, 5):
            for d_lo in (-2, 0, 1):
                for lags in range(1, 5):
                    src = rng.standard_normal(k)
                    ker = rng.standard_normal(lags)
                    # entry p of the linear convolution is output J0 + d_lo + p
                    lin, a = np.convolve(src, ker), -(J0 + d_lo)
                    d_hi = d_lo + lags - 1
                    for lo in range(-1, 3):
                        for hi in range(lo + 1, lo + 5):
                            want = [lin[o + a] if 0 <= o + a < lin.size
                                    else 0.0 for o in range(lo, hi)]
                            N = mild._wrap_free_length(mild._Span(
                                1, J0, J0 + k, max(lags, hi - lo), lo - d_hi,
                                hi - d_lo))
                            got = kept(src, ker, a, lo, hi, N)
                            assert np.max(np.abs(got - want)) <= 1e-12
                            if N - 1 >= max(k, lags, hi - lo):
                                got = kept(src, ker, a, lo, hi, N - 1)
                                assert np.max(np.abs(got - want)) > 1e-12


PLAN_GRID = symmetric_grid(20.0, 1024)


def test_solve_samples_each_fft_kernel_once(new_table, monkeypatch):
    # a node's kernel spectrum depends on the node, not the density: a cold
    # solve takes it as it builds the grid's Duhamel operator, and a second
    # solve on the grid takes none. A block of sampled lags samples them
    # in one table evaluation, each node's lags once, not once per node
    # and iteration; a closed-form block, whose spectra hold fewer than
    # N // 2 + 1 bins, samples none
    blocks = _count_blocks(monkeypatch)
    table = new_table()
    prof = solve_similarity_profile(CornerData(0.2, 0.03), table=table,
                                    xs=PLAN_GRID)
    assert prof.iterations >= 5
    sampled, closed = [], 0
    for _, _, N, spectra, *_ in table._picard_plan.operator.blocks:
        if spectra.shape[1] < N // 2 + 1:
            closed += spectra.shape[0]
        else:
            sampled.append(spectra.shape[0])
    assert [len(spans) for spans, *_ in blocks] == sampled
    assert [len(points) for _, *points in blocks] == [1] * len(sampled)
    assert sum(sampled) + closed == 64 and 0 < closed < 64
    assert max(sampled) == mild.BLOCK
    del blocks[:]
    solve_similarity_profile(CornerData(0.1, 0.1), table=table,
                             xs=PLAN_GRID)
    assert not blocks


def _count_plans(monkeypatch, tapped=None):
    """The list that the mu of every node planned from now on goes on;
    each node whose taps a block pass makes from now on goes on tapped."""
    built, plan_nodes, block_taps = [], mild._plan_nodes, mild._block_taps

    def counted(n_xs, xs, quad, *args):
        built.extend(np.asarray(quad[0]).tolist())
        return plan_nodes(n_xs, xs, quad, *args)

    def counted_taps(block, *args):
        tapped.extend(block.mu.tolist())
        return block_taps(block, *args)

    monkeypatch.setattr(mild, "_plan_nodes", counted)
    if tapped is not None:
        monkeypatch.setattr(mild, "_block_taps", counted_taps)
    return built


def _plans_built(built, corner=(0.1, -0.1), **kwargs):
    """Node plans built by one solve on PLAN_GRID (kwargs override)."""
    before = len(built)
    solve_similarity_profile(CornerData(*corner), **{"xs": PLAN_GRID,
                                                     **kwargs})
    return len(built) - before


def test_solves_on_one_grid_share_the_plan(new_table, monkeypatch):
    # the plan depends on the grid, the nodes and the table, not on the
    # corner: two solves build the 64 node plans, and their taps, once
    tapped = []
    built = _count_plans(monkeypatch, tapped)
    table = new_table()
    assert _plans_built(built, (0.2, 0.03), table=table) == 64
    assert len(tapped) == 64
    assert _plans_built(built, (0.1, 0.1), table=table) == 0
    assert len(tapped) == 64
    # another table builds its own and leaves the first one's in place
    other = new_table()
    assert _plans_built(built, table=other) == 64
    assert _plans_built(built, table=other) == 0
    assert _plans_built(built, table=table) == 0


@pytest.mark.parametrize("change", ({"xs": symmetric_grid(30.0, 1024)},),
                         ids=("half-width",))
def test_plan_rebuilt_for_another_grid_or_rule(new_table, monkeypatch,
                                               change):
    # a grid of the same size but another spacing needs its own plan; the
    # table holds one, so going back builds it again
    built = _count_plans(monkeypatch)
    table = new_table()
    assert _plans_built(built, table=table) == 64
    assert _plans_built(built, table=table, **change) == 64
    assert _plans_built(built, table=table, **change) == 0
    assert _plans_built(built, table=table) == 64


def test_warm_solve_matches_cold(new_table):
    # nothing a solve leaves in the held plan reaches the next solve's
    # numbers: bit for bit the same as on a fresh table
    warm = new_table()
    solve_similarity_profile(CornerData(0.1, 0.1), table=warm, xs=PLAN_GRID)
    for corner in ((0.2, 0.03), (0.29, 0.29)):
        hot, cold = (solve_similarity_profile(CornerData(*corner), table=t,
                                              xs=PLAN_GRID)
                     for t in (warm, new_table()))
        for got, ref in ((hot.psi.ys, cold.psi.ys), (hot.psi1, cold.psi1),
                         (hot.psi2, cold.psi2)):
            assert np.array_equal(got, ref)
        assert hot.iterations == cold.iterations >= 5
        assert hot.residual_history == cold.residual_history


def test_fft_plan_reused_across_densities(skew_density, ktable,
                                          monkeypatch, sampled_route):
    # the held operator keeps only what the grid and the nodes fix: built
    # once, it gives the node-by-node sum for two different densities. At
    # t = 2 mu runs from below 3h (spread sources) past 1 (the density
    # stretched past xs on both sides). The operator lives on one grid, so
    # each grid gets the densities interpolated onto it. It takes every
    # node's plan, so the one-shot sum here does too: at mu >= 1 it would
    # take the source-grid path
    monkeypatch.setattr(mild, "_on_source_grid", lambda *args: False)
    n_tab, n_xs = skew_density
    for left, right, intervals in SPREAD_GRIDS:
        xs = np.linspace(left, right, intervals + 1)
        densities = [np.interp(xs, n_xs, dens)
                     for dens in (n_tab, np.cos(n_xs) * n_tab[::-1])]
        for ell in (0, 1, 2):
            quad = mild._duhamel_nodes(2.0, ell)
            op = mild._DuhamelOperator(xs, ell, ktable, quad)
            for dens in densities:
                ref = mild._duhamel_sum(dens, xs, xs, ell, ktable, quad)
                assert (np.max(np.abs(op(dens) - ref))
                        <= 1e-14 * np.max(np.abs(ref)))


def test_fft_plan_reused_across_densities_on_its_routes(skew_density,
                                                        ktable, monkeypatch):
    # the grids, densities and nodes of test_fft_plan_reused_across_densities,
    # each block on its own route: the held operator, built once, and the
    # one-shot sum against the full-length sum of the nodes on their
    # blocks' routes. On the own grid the narrowest kernels take the
    # closed form, the others the sampled lags
    monkeypatch.setattr(mild, "_on_source_grid", lambda *args: False)
    n_tab, n_xs = skew_density
    routes, taken = _record_node_routes(monkeypatch), set()
    for left, right, intervals in SPREAD_GRIDS:
        xs = np.linspace(left, right, intervals + 1)
        densities = [np.interp(xs, n_xs, dens)
                     for dens in (n_tab, np.cos(n_xs) * n_tab[::-1])]
        for ell in (0, 1, 2):
            _, held = _assert_sums_on_their_routes(
                densities, xs, ell, ktable, mild._duhamel_nodes(2.0, ell),
                routes)
            taken.update(held.values())
    assert taken == {False, True}


def _full_length_sums(dens, xs, ell, table, quad, *route_maps):
    # for each route map, the sum on xs of the planned nodes of quad, each
    # one full-length convolution (`_full_length_node`) on its refined
    # grid with the kernel of its block's route, routes[node.lags]
    sums = np.zeros((len(route_maps), xs.size))
    for mu, lam, w in zip(*quad):
        assert not mild._on_source_grid(xs, xs, mu, lam)
        node = _fft_plan(xs, xs, mu, lam, table)
        if node is None:
            continue
        fine = np.linspace(xs[0], xs[-1], node.r * (xs.size - 1) + 1)
        done = {}
        for out, routes in zip(sums, route_maps):
            closed = routes[node.lags]
            if closed not in done:
                done[closed] = _full_length_node(dens, xs, fine, mu, lam, ell,
                                                 table, closed)[::node.r]
            out += w * done[closed]
    return sums


def _assert_sums_on_their_routes(densities, xs, ell, table, quad, routes):
    # the held operator, built once, and the one-shot sum, each block on
    # its own route, are each within 1e-14 of its sup of the full-length
    # sums of the nodes on the routes their blocks take (7e-16 read): held
    # and one-shot blocks differ, so one node may take two routes, which
    # differ by the table's interpolation. Returns the held operator and
    # its nodes' routes
    routes.clear()
    op = mild._DuhamelOperator(xs, ell, table, quad)
    held = dict(routes)
    for dens in densities:
        routes.clear()
        got = mild._duhamel_sum(dens, xs, xs, ell, table, quad)
        refs = _full_length_sums(dens, xs, ell, table, quad, held, routes)
        for out, ref in zip((op(dens), got), refs):
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
    return op, held


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_duhamel_operator_matches_node_sum(skew_density, ktable, ell,
                                           method, sampled_route):
    # on a coarse grid the nodes of smallest lam run refined (r > 1), in
    # blocks of their own, and those of smallest mu spread their sources;
    # the operator takes any nodes, so the s-Jacobi ones too
    n_tab, n_xs = skew_density
    xs = symmetric_grid(20.0, 256)
    dens = np.interp(xs, n_xs, n_tab)
    quad = (mild._duhamel_nodes(1.0, ell) if method == "tau"
            else _s_jacobi_nodes(1.0, ell, 64))
    op = mild._DuhamelOperator(xs, ell, ktable, quad)
    assert len({r for *_, r in op.blocks} - {1}) >= 2
    assert np.min(quad[0]) < 3.0 * mild._spacing(xs)
    ref = mild._duhamel_sum(dens, xs, xs, ell, ktable, quad)
    assert np.max(np.abs(op(dens) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_duhamel_operator_on_its_routes_matches_node_sum(
        skew_density, ktable, monkeypatch, ell, method):
    # the nodes of test_duhamel_operator_matches_node_sum, each block on
    # its own route, against the full-length sum of the nodes on their
    # blocks' routes; the held blocks take both routes
    n_tab, n_xs = skew_density
    xs = symmetric_grid(20.0, 256)
    quad = (mild._duhamel_nodes(1.0, ell) if method == "tau"
            else _s_jacobi_nodes(1.0, ell, 64))
    op, held = _assert_sums_on_their_routes(
        [np.interp(xs, n_xs, n_tab)], xs, ell, ktable, quad,
        _record_node_routes(monkeypatch))
    assert len({r for *_, r in op.blocks} - {1}) >= 2
    assert set(held.values()) == {False, True}


def test_duhamel_operator_trims_refined_blocks(skew_density, ktable):
    # at t = 1e-3 on a coarse grid every node runs refined and its sources
    # reach only the middle of xs: each block computes only the outputs
    # its nodes reach and still gives the node sum
    n_tab, n_xs = skew_density
    xs = symmetric_grid(20.0, 256)
    dens = np.interp(xs, n_xs, n_tab)
    for ell in (0, 1, 2):
        quad = mild._duhamel_nodes(1e-3, ell)
        op = mild._DuhamelOperator(xs, ell, ktable, quad)
        assert all(r > 1 and 0 < keep.start < keep.stop < xs.size
                   for *_, keep, r in op.blocks)
        ref = mild._duhamel_sum(dens, xs, xs, ell, ktable, quad)
        assert np.max(np.abs(op(dens) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_held_operator_within_memory_budget(ktable):
    # the Duhamel operator a table holds costs at most 1.5 times the node
    # plans it replaced: taps, weights and each kernel spectrum at the
    # node's own FFT length
    quad = mild._duhamel_nodes(1.0, 2)
    op = mild._DuhamelOperator(PLAN_GRID, 2, ktable, quad)
    held = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
               + spectra.nbytes for m, _, _, spectra, *_ in op.blocks)
    plans = 0
    for mu, lam, _ in zip(*quad):
        node = _fft_plan(PLAN_GRID, PLAN_GRID, mu, lam, ktable)
        taps = _node_taps(PLAN_GRID, PLAN_GRID, mu, lam, ktable)
        # the 4 weights a tap, which the plans held
        plans += (taps.base.nbytes + 4 * taps.u.nbytes
                  + 16 * (mild._block_layout(node.span)[0] // 2 + 1))
    assert held <= 1.5 * plans


@pytest.mark.parametrize(("t", "march", "parent"), ((1e-2, False, 1.24),
                                                    (10.0, False, 3.60),
                                                    (1.0, True, 5.92)))
def test_reconstruction_allocations_within_budget(bench_profile, ktable, t,
                                                  march, parent):
    # one reconstruct_U of the bench profile, on its own grid or on the
    # 4096-interval march grid, peaks in Python allocations (tracemalloc)
    # at most 1 MiB above the node-by-node windows' peak (parent, MiB).
    # The block pass read 1.44, 2.89 and 4.94 MiB; in one run a block of
    # 16 spread nodes put t = 1e-2 at 3.9 MiB (`mild.TAP_POINTS`)
    xs = MarchConfig(0.1, 0.1).xs if march else None
    tracemalloc.start()
    try:
        reconstruct_U(bench_profile, t, ktable, xs=xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (parent + 1.0) * 2 ** 20


def test_reconstruct_validation(profile_8k, ktable):
    with pytest.raises(ValidationError):
        reconstruct_U(profile_8k, 0.0, ktable)
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="t must be"):
            reconstruct_U(profile_8k, t, ktable)
    stale = type(profile_8k).__new__(type(profile_8k))
    stale.__dict__.update(profile_8k.__dict__)
    stale.converged = False
    with pytest.raises(StaleProfile):
        reconstruct_U(stale, 1.0, ktable)


def test_no_convergence_path(ktable, monkeypatch):
    monkeypatch.setattr(mild, "MAX_ITER", 2)
    with pytest.raises(NoConvergence, match="MAX_ITER = 2") as err:
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                 xs=symmetric_grid(40.0, 1024))
    assert len(err.value.history) == 2


def test_divergence_guard(ktable, monkeypatch):
    # a Duhamel operator whose output 2^k - 1 on call k doubles the update
    # on each call: the updates read 1, 2, 4, 8, 16, 32, and the fifth
    # growing one in a row, at iteration 6, aborts the solve. g_0 = 1
    # keeps the density nonzero, so that every iteration applies it
    calls = []

    def doubling(n_tab):
        calls.append(None)
        return np.full(n_tab.size, 2.0 ** len(calls) - 1.0)

    monkeypatch.setattr(mild, "_picard_plan", lambda table, xs: (
        mild._PicardPlan(xs, doubling, table.eval_G(xs), np.ones(xs.size),
                         np.zeros(xs.size))))
    with pytest.raises(PicardDivergence, match="5 consecutive") as err:
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                 xs=symmetric_grid(20.0, 256))
    assert len(err.value.history) == 6 == len(calls)
    assert err.value.history == pytest.approx([1, 2, 4, 8, 16, 32])


@pytest.mark.parametrize("kwargs, error, match", (
    ({"tol": np.nan}, ValidationError, "tol"),
    ({"tol": -1.0}, ValidationError, "tol"),
), ids=("tol=nan", "tol=-1"))
def test_solver_rejects_bad_iteration_settings(ktable, kwargs, error, match):
    with pytest.raises(error, match=match):
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                 **kwargs)


def test_self_similarity_validation(profile_8k, ktable, monkeypatch):
    with pytest.raises(ValidationError):
        self_similarity_residual(profile_8k, -1.0, 1.0, ktable)
    assert self_similarity_residual(profile_8k, 1.0, 1.0, ktable) == 0.0
    sol = reconstruct_U(profile_8k, 1.0, ktable)
    # a bad setting is refused by name before any reconstruction
    monkeypatch.setattr(mild, "reconstruct_U", _no_nodes)
    monkeypatch.setattr(mild, "duhamel_integral", _no_nodes)
    for sigma, t, name in (("2", 1.0, "sigma"), (2.0, "1", "t"),
                           (np.nan, 1.0, "sigma"), (2.0, np.inf, "t"),
                           (0.0, 1.0, "sigma"), (1e200, 1e200, "sigma")):
        with pytest.raises(ValidationError, match=f"^{name} "):
            self_similarity_residual(profile_8k, sigma, t, ktable)
    for c in ("0.1", np.nan, None):
        with pytest.raises(ValidationError, match="^c must be"):
            constant_shift_residual(sol, c, ktable)


def test_self_similarity_at_sigma_one_reconstructs_nothing(profile_8k,
                                                           ktable,
                                                           monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reconstruct_U(*args, **kwargs)

    monkeypatch.setattr(mild, "reconstruct_U", counted)
    assert self_similarity_residual(profile_8k, 1.0, 2.0, ktable) == 0.0
    assert calls == []
    self_similarity_residual(profile_8k, 2.0, 1.0, ktable)
    assert len(calls) == 2
    # a profile that did not converge is still refused at sigma = 1
    stale = type(profile_8k).__new__(type(profile_8k))
    stale.__dict__.update(profile_8k.__dict__, converged=False)
    with pytest.raises(StaleProfile):
        self_similarity_residual(stale, 1.0, 1.0, ktable)


def test_constant_shift_comes_back(profile_8k, ktable):
    # away from t = 1 the re-extracted profile lives on x t^{-1/4}, a grid
    # foreign to the output grid
    for t in (0.5, 1.0, 2.0):
        sol = reconstruct_U(profile_8k, t, ktable)
        for c in (0.05, 0.1):
            assert constant_shift_residual(sol, c, ktable) \
                == pytest.approx(c, abs=1e-5)


def test_save_load_roundtrip(profile_8k, ktable, tmp_path):
    p = tmp_path / "profile.csv"
    assert save_profile(profile_8k, p) == [
        str(p), str(tmp_path / "profile.meta.json")]
    back = load_profile(p, ktable)
    assert np.array_equal(back.psi.ys, profile_8k.psi.ys)
    assert back.iterations == profile_8k.iterations
    assert back.corner.A == profile_8k.corner.A
    assert back.decay_constants[1] == pytest.approx(
        profile_8k.decay_constants[1])
    sol = reconstruct_U(back, 1.0, ktable)
    assert sol.slope_consistency < 1e-6


def test_load_profile_ignores_an_old_slope_cap_key(profile_8k, ktable,
                                                  tmp_path):
    # the cap is the solver's constant: a sidecar no longer holds it, and
    # one written while it did still loads
    p = tmp_path / "profile.csv"
    save_profile(profile_8k, p)
    meta_path = tmp_path / "profile.meta.json"
    meta = json.loads(meta_path.read_text())
    assert "slope_cap" not in meta
    meta_path.write_text(json.dumps({**meta, "slope_cap": 0.3}))
    back = load_profile(p, ktable)
    assert np.array_equal(back.psi.ys, profile_8k.psi.ys)
    assert not hasattr(back.corner, "slope_cap")


def test_slope_cap_is_the_solver_constant(ktable):
    assert CornerData(0.2999, -0.2999).within_cap()
    assert not CornerData(0.0, -mild.SLOPE_CAP).within_cap()
    with pytest.raises(ConfigError, match="size 0.3 exceeds slope_cap 0.3;"):
        solve_similarity_profile(CornerData(0.0, -0.3), table=ktable)


def test_load_profile_names_a_sidecar_without_a_key(profile_8k, ktable,
                                                    tmp_path):
    p = tmp_path / "profile.csv"
    save_profile(profile_8k, p)
    meta_path = tmp_path / "profile.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["A"], meta["converged"]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="profile.meta.json.* lacks "
                                              "A, converged$"):
        load_profile(p, ktable)


def test_initial_trace_rate(profile_8k, ktable):
    # |U(.,t) - corner| / t^{1/4} stays bounded as t -> 0
    from cornerflow import corner_function, inner_sup
    ratios = []
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        sol = reconstruct_U(profile_8k, t, ktable)
        cab = corner_function(0.1, 0.1, sol.U.xs)
        ratios.append(inner_sup(sol.U.ys - cab.ys) / t ** 0.25)
    assert max(ratios) / min(ratios) < 1.2


def test_inner_sup_refuses_an_empty_input():
    with pytest.raises(ValidationError, match="empty"):
        inner_sup([])
    assert inner_sup([-2.0]) == 2.0
