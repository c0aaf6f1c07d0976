import json
from math import gamma

import numpy as np
import pytest
from scipy.fft import irfft, rfft
from scipy.special import roots_jacobi

from cornerflow import _backend, _slowpath, kernel, mild
from cornerflow import (ConfigError, CornerData, ValidationError,
                        alpha_coefficient, constant_shift_residual,
                        corner_height, duhamel_integral, inner_sup,
                        load_profile, reconstruct_U, save_profile,
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
    monkeypatch.setattr(mild, "apply_to_step", _no_nodes)
    with pytest.raises(ValidationError, match=match):
        duhamel_integral(profile_8k.psi, 1.0, 1, ktable, xs=xs)
    with pytest.raises(ValidationError, match=match):
        reconstruct_U(profile_8k, 1.0, ktable, xs=xs)
    # the solve grid too, before the evolved step's tail bound or the
    # interpolation taps can warn on a reversed or NaN grid
    with pytest.raises(ValidationError, match=match):
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable, xs=xs)


@pytest.mark.parametrize("xs", (np.linspace(5.0, 10.0, 513),
                                np.linspace(0.5, 40.0, 1025)),
                         ids=("5-to-10", "0.5-to-40"))
def test_solve_grid_must_straddle_zero(ktable, monkeypatch, xs):
    # the profile joins -B and A across 0: a grid on one side is refused,
    # naming it, before the evolved step or any node
    monkeypatch.setattr(mild, "_picard_plan", _no_nodes)
    monkeypatch.setattr(mild, "apply_to_step", _no_nodes)
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


def _full_length_node(n_tab, n_xs, xs, mu, lam, ell, table):
    # the FFT-branch node as one direct linear convolution of all ne padded
    # sources with all 2m + 1 kernel lags (ne + 2m outputs), sliced to xs
    h, nh, n = mild._spacing(xs), mild._spacing(n_xs), xs.size
    reach = int(np.ceil(table.eta_max * lam / h))
    pl = min(reach, max(0, int(np.ceil((xs[0] - mu * n_xs[0]) / h))))
    pr = min(reach, max(0, int(np.ceil((mu * n_xs[-1] - xs[-1]) / h))))
    ne = pl + n + pr
    m = min(ne - 1, reach)
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
    ker = _slowpath.sym_eval(table.g_ell[ell], table.h, _PARITY[ell],
                             np.arange(-m, m + 1) * (h / lam))
    return h * np.convolve(src, ker)[m + pl:m + pl + n]


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_fft_branch_matches_full_length_convolution(skew_density, ktable,
                                                    ell):
    # the planned path convolves only the sources that reach xs, with only
    # the kernel lags that join them to xs, at the shortest wrap-free
    # length: any wrap-around or lost lag shows against the uncut
    # convolution. (1.5, 1) and (0.5, 5) on the finer grids take the
    # source-grid path (test_source_grid_nodes_match_dense_sum)
    n_tab, n_xs = skew_density
    left_out = 0
    planned = (((1.5, 1.0), (0.5, 5.0)), ((0.5, 5.0),), ())
    for (left, right, intervals), extra in zip(SPREAD_GRIDS, planned):
        xs = np.linspace(left, right, intervals + 1)
        h = mild._spacing(xs)
        # mu and lam of a few h, where no source reaches the first
        # outputs; mu > 1, padded on both sides; lam far above h
        for mu, lam in ((0.3 * h, 3.0 * h), (3.1 * h, 3.0 * h),
                        (2.9 * h, 150.0 * h), (20.0 * h, 150.0 * h),
                        *extra):
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


# SPREAD_GRIDS, then an output grid wider than mu n_xs for every mu, whose
# source grid Y starts below the first source, each with its (mu, lam)
SOURCE_GRID_CASES = (
    ((-20.0, 20.0, 2048), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0))),
    ((-13.7, 13.7, 3000), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0), (1.5, 1.0))),
    ((-0.4, 0.25, 256), ((2.5, 1.0), (5.0, 4.0), (10.0, 9.0), (1.5, 1.0),
                         (0.5, 5.0))),
    ((-120.0, 120.0, 12000), ((2.5, 1.0), (5.0, 4.0))))


@pytest.mark.parametrize("ell", (0, 1, 2))
def test_source_grid_nodes_match_dense_sum(skew_density, ktable, ell):
    # H = mu nh >= 2h and lam >= 3H: the node is convolved on its source
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
            assert H >= 2.0 * mild._spacing(xs) and lam >= 3.0 * H
            assert mild._on_source_grid(n_xs, xs, mu, lam)
            got = _one_node(n_tab, n_xs, xs, mu, lam, ell, ktable)[::16]
            ref = _dense_skew(n_tab, n_xs, xs[::16], mu, lam, ell, ktable)
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the wide grid's Y reaches past both ends of the sources for mu <= 5
    assert xs[0] / 5.0 < n_xs[0] and xs[-1] / 5.0 > n_xs[-1]


def test_late_reconstruction_takes_few_lagrange_taps(ktable, monkeypatch):
    # at t = 1e4 on a 2048-interval grid of half-width 20, 45 of the 64
    # nodes sit on their source grids and take no interpolation taps;
    # only the 19 others go through a node plan, each taking its taps once
    prof = solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                    xs=symmetric_grid(20.0, 2048))
    calls, taps = [], mild.lagrange_taps

    def counted(*args):
        calls.append(args)
        return taps(*args)

    monkeypatch.setattr(mild, "lagrange_taps", counted)
    reconstruct_U(prof, 1e4, ktable)
    assert len(calls) == 19


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
    # a block samples the kernel in one table evaluation, on its nodes'
    # |lags| only: at most max(|d_lo|, |d_hi|) + 1 points a node for its
    # d_hi - d_lo + 1 lags, which run nearly symmetric about 0, so about
    # half as many. Every node of the sum is in one block
    prof = solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                    xs=symmetric_grid(20.0, 2048))
    blocks = _count_blocks(monkeypatch)
    reconstruct_U(prof, 1e-2, ktable)
    assert 1 < len(blocks) < 64
    assert sum(len(spans) for spans, *_ in blocks) == 64
    for spans, *points in blocks:
        assert len(points) == 1
        assert points[0] <= sum(max(-d_lo, d_hi) + 1
                                for d_lo, d_hi, _ in spans)
    spans = [span for block in blocks for span in block[0]]
    total = sum(d_hi - d_lo + 1 for d_lo, d_hi, _ in spans)
    assert sum(points for _, points in blocks) < 0.51 * total


@pytest.mark.parametrize("t", (1e-2, 1e4))
@pytest.mark.parametrize("grid", ((20.0, 2048), (mild.DEFAULT_HALF_WIDTH,
                                                mild.DEFAULT_INTERVALS)))
def test_one_shot_blocks_hold_the_byte_bound(ktable, monkeypatch, grid, t):
    # every block's kernel spectra stay within BLOCK_BYTES unless it holds
    # one node, and every block samples its kernel in one table
    # evaluation: on a 2048-interval grid, where a block holds up to 7
    # nodes, and on the default grid, where a node's spectrum takes 67 KiB
    # at t = 1e-2 and up to 189 KiB at 1e4, so that each node is a block
    xs = symmetric_grid(*grid)
    n_tab = np.exp(-0.25 * xs * xs)
    seen, spectra = [], mild._kernel_spectra

    def recorded(block, ell, table, N, lo):
        seen.append((len(block), N))
        return spectra(block, ell, table, N, lo)

    monkeypatch.setattr(mild, "_kernel_spectra", recorded)
    blocks = _count_blocks(monkeypatch)
    mild._duhamel_sum(n_tab, xs, xs, 2, ktable, mild._duhamel_nodes(t, 2))
    assert len(blocks) == len(seen) > 1
    assert [len(spans) for spans, *_ in blocks] == [n for n, _ in seen]
    assert all(len(points) == 1 for _, *points in blocks)
    assert all(n == 1 or n * mild._spectrum_bytes(N) <= mild.BLOCK_BYTES
               for n, N in seen)
    if grid[1] == 2048:
        assert max(n for n, _ in seen) >= 6
    elif t > 1.0:
        assert max(mild._spectrum_bytes(N)
                   for _, N in seen) > mild.BLOCK_BYTES


def _rolled_spectrum(ker, shift, h, nfft):
    # h rfft of the zero-padded lags, rotated by np.roll
    buf = np.zeros(nfft)
    buf[:ker.size] = ker
    return rfft(np.roll(buf, -shift)) * h


def test_kernel_spectra_match_rolled_lags(ktable, monkeypatch, rng):
    # rotations a + lo before 0, at 0, inside the lags, at their end, past
    # them and past the FFT length, in one block: each row is its node's
    # spectrum alone, scaled by its own h, bit for bit, also when the rows
    # go through the FFT three at a time
    span = (-18, 18, 0.3)
    ker = kernel._kernel_lags(ktable, 1, *span)
    for nfft, chunk in ((37, None), (40, None), (96, None), (40, 3)):
        if chunk:
            monkeypatch.setattr(mild, "BLOCK_BYTES",
                                mild._spectrum_bytes(nfft) * chunk)
        shifts = (-50, -5, 0, 1, 12, 36, 37, 50, nfft - 1, nfft + 7)
        hs = rng.uniform(0.1, 0.3, len(shifts))
        empty = [None] * len(mild._NodePlan._fields)
        block = [(1.0, mild._NodePlan._make(empty)._replace(
            lags=span, a=shift - 3, h=h)) for h, shift in zip(hs, shifts)]
        got = mild._kernel_spectra(block, 1, ktable, nfft, 3)
        for row, h, shift in zip(got, hs, shifts):
            assert np.array_equal(row, _rolled_spectrum(ker, shift, h, nfft))


def _node_by_node_sum(n_tab, n_xs, xs, ell, table, quad):
    # the Duhamel sum as it was before blocks: each planned node by itself,
    # its kernel sampled alone and rotated into a zero buffer of its own
    # FFT length, and three FFTs a node
    out = np.zeros(xs.size)
    for mu, lam, w in zip(*quad):
        if mild._on_source_grid(n_xs, xs, mu, lam):
            out += w * mild._rescaled_convolution(n_tab, n_xs, xs, mu, lam,
                                                  ell, table)
            continue
        node = mild._fft_plan(n_xs, xs, mu, lam, ell, table)
        if node is None:
            continue
        base, taps = node.base, _slowpath.lagrange_weights(node.u)
        if node.spread is None:
            src = taps[0] * n_tab[base]
            for k in (1, 2, 3):
                src += taps[k] * n_tab[base + k]
        else:
            v = node.spread * n_tab[node.lo:node.lo + base.size]
            src = np.bincount((base + np.arange(4)[:, None]).ravel(),
                              (taps * v).ravel(), minlength=node.k)
        r, out0, nout, nfft = node.r, node.out0, node.nout, node.nfft
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
               (symmetric_grid(20.0, 2048), 1e4))


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_block_sum_matches_node_by_node(skew_density, ktable, monkeypatch,
                                        ell, method):
    n_tab, n_xs = skew_density
    seen, spectra = [], mild._kernel_spectra

    def recorded(block, *args):
        seen.append((block[0][1].r, len(block)))
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
    # refined blocks; spread nodes; a run of one r in several blocks; the
    # nodes on their source grids outside the blocks
    assert all(r > 1 for r, _ in runs[0])
    assert spread[0] and spread[2]
    assert any(a[0] == b[0] for a, b in zip(runs[2], runs[2][1:]))
    assert sum(n for _, n in runs[3]) < 64


def test_held_operator_matches_node_by_node_assembly(skew_density, ktable):
    # the operator built through the block sampler holds the CSR and the
    # spectra of one assembled node by node, each node's kernel sampled
    # and transformed alone, and applies bit for bit alike
    n_tab, n_xs = skew_density
    for xs, t in ((symmetric_grid(20.0, 256), 1.0),
                  (symmetric_grid(20.0, 1024), 1.0),
                  (symmetric_grid(20.0, 256), 1e-3)):
        dens = np.interp(xs, n_xs, n_tab)
        quad = mild._duhamel_nodes(t, 2)
        op = mild._DuhamelOperator(xs, 2, ktable, quad)
        nodes = [(wt, mild._fft_plan(xs, xs, mu, lam, 2, ktable))
                 for mu, lam, wt in reversed(list(zip(*quad)))]
        nodes = [(wt, node) for wt, node in nodes if node is not None]
        at = 0
        ref = np.zeros(xs.size)
        for matrix, W, N, spectra, keep, r in op.blocks:
            block, at = nodes[at:at + spectra.shape[0]], at + spectra.shape[0]
            assert len({node.r for _, node in block}) == 1
            assert W == max(node.k for _, node in block)
            rows = [mild._window_rows(node) for _, node in block]
            assert np.array_equal(matrix.data, np.concatenate(
                [vals for _, _, vals in rows]))
            assert np.array_equal(matrix.indices, np.concatenate(
                [cols for _, cols, _ in rows]))
            for i, (wt, node) in enumerate(block):
                ker = kernel._kernel_lags(ktable, 2, *node.lags)
                assert np.array_equal(spectra[i], wt * _rolled_spectrum(
                    ker, node.a + r * keep.start, node.h, N))
            fs = rfft((matrix @ dens).reshape(-1, W), N) * spectra
            ref[keep] += irfft(fs.sum(axis=0),
                               N)[:r * (keep.stop - keep.start - 1) + 1:r]
        assert at == len(nodes)
        assert np.array_equal(op(dens), ref)


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
    # linear one's outputs; one shorter, it does not
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
                        N = mild._wrap_free_length(a, k, lags, lo, hi)
                        got = kept(src, ker, a, lo, hi, N)
                        assert np.max(np.abs(got - want)) <= 1e-12
                        if N - 1 >= max(k, lags, hi - lo):
                            got = kept(src, ker, a, lo, hi, N - 1)
                            assert np.max(np.abs(got - want)) > 1e-12


PLAN_GRID = symmetric_grid(20.0, 1024)


def test_solve_samples_each_fft_kernel_once(new_table, monkeypatch):
    # a node's kernel samples depend on the node, not the density: a cold
    # solve takes them as it builds the grid's Duhamel operator, in one
    # table evaluation per chunk of BLOCK_BYTES of each block, each node's
    # lags once, not once per node and iteration; a second solve on the
    # grid takes none
    blocks = _count_blocks(monkeypatch)
    table = new_table()
    prof = solve_similarity_profile(CornerData(0.2, 0.03), table=table,
                                    xs=PLAN_GRID)
    assert prof.iterations >= 5
    chunks = []
    for _, _, N, spectra, *_ in table._picard_plan[1].blocks:
        step = max(1, mild.BLOCK_BYTES // mild._spectrum_bytes(N))
        chunks += [min(step, spectra.shape[0] - i)
                   for i in range(0, spectra.shape[0], step)]
    assert [len(spans) for spans, *_ in blocks] == chunks
    assert [len(points) for _, *points in blocks] == [1] * len(chunks)
    assert sum(chunks) == 64 and len(chunks) < 64
    del blocks[:]
    solve_similarity_profile(CornerData(0.1, 0.1), table=table,
                             xs=PLAN_GRID)
    assert not blocks


def _count_plans(monkeypatch):
    """The list that every node plan built from now on appends to."""
    built, fft_plan = [], mild._fft_plan

    def counted(*args):
        built.append(args)
        return fft_plan(*args)

    monkeypatch.setattr(mild, "_fft_plan", counted)
    return built


def _plans_built(built, corner=(0.1, -0.1), **kwargs):
    """Node plans built by one solve on PLAN_GRID (kwargs override)."""
    before = len(built)
    solve_similarity_profile(CornerData(*corner), **{"xs": PLAN_GRID,
                                                     **kwargs})
    return len(built) - before


def test_solves_on_one_grid_share_the_plan(new_table, monkeypatch):
    # the plan depends on the grid, the nodes and the table, not on the
    # corner: two solves build the 64 node plans once
    built = _count_plans(monkeypatch)
    table = new_table()
    assert _plans_built(built, (0.2, 0.03), table=table) == 64
    assert _plans_built(built, (0.1, 0.1), table=table) == 0
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


def test_fft_plan_reused_across_densities(skew_density, ktable):
    # the held operator keeps only what the grid and the nodes fix: built
    # once, it gives the node-by-node sum for two different densities. At
    # t = 2 mu runs from below 3h (spread sources) past 1 (the density
    # stretched past xs on both sides). The operator lives on one grid, so
    # each grid gets the densities interpolated onto it
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


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_duhamel_operator_matches_node_sum(skew_density, ktable, ell,
                                           method):
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
        node = mild._fft_plan(PLAN_GRID, PLAN_GRID, mu, lam, 2, ktable)
        # the 4 weights a tap, which the plans held
        plans += (node.base.nbytes + 4 * node.u.nbytes
                  + 16 * (node.nfft // 2 + 1))
    assert held <= 1.5 * plans


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
        doubling, np.ones(xs.size), np.zeros(xs.size)))
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
