from math import gamma

import numpy as np
import pytest

from cornerflow import _backend, _slowpath, mild
from cornerflow import (ConfigError, CornerData, ValidationError,
                        alpha_coefficient, constant_shift_residual,
                        corner_height, duhamel_integral, load_profile,
                        reconstruct_U, save_profile,
                        self_similarity_residual, solve_similarity_profile,
                        symmetric_grid)
from cornerflow.errors import NoConvergence, StaleProfile
from cornerflow.kernel import _PARITY

PHI0_FROZEN = 0.0779566288  # A = B = 0.1 reference, grid-converged level


def test_corner_data_validation():
    for bad in ((np.nan, 0.1), (0.1, np.inf), ("0.1", 0.1), (0.1, None)):
        with pytest.raises(ValidationError, match="corner slopes"):
            CornerData(*bad)
    for cap in ("0.3", np.nan, 0.0):
        with pytest.raises(ValidationError, match="slope_cap"):
            CornerData(0.1, 0.1, cap)
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


def test_linear_data_shortcut(ktable):
    prof = solve_similarity_profile(CornerData(0.1, -0.1), table=ktable)
    assert prof.iterations == 1
    assert np.max(np.abs(prof.psi.ys - 0.1)) < 1e-10


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


def test_quadrature_self_consistency(profile_8k, ktable):
    # doubling the nodes and switching the substitution must agree
    base = duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=32)
    fine = duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=64)
    assert np.max(np.abs(base.ys - fine.ys)) < 1e-8
    jac = duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=96,
                           method="s-jacobi")
    assert np.max(np.abs(fine.ys - jac.ys)) < 1e-6


def test_duhamel_validation(profile_8k, ktable):
    with pytest.raises(ValidationError):
        duhamel_integral(profile_8k.psi, -1.0, 2, ktable)
    with pytest.raises(ValidationError):
        duhamel_integral(profile_8k.psi, 1.0, 5, ktable)
    with pytest.raises(ConfigError):
        duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=4)
    with pytest.raises(ConfigError):
        duhamel_integral(profile_8k.psi, 1.0, 2, ktable, method="trap")
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
            lam = mild._quad_nodes(t, ell, 64, "tau")[1]
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
            got = mild._rescaled_convolution(n_tab, n_xs, xs, mu, lam, ell,
                                             ktable)
            ref = _dense_skew(n_tab, n_xs, xs, mu, lam, ell, ktable)
            bound = _spread_bound(n_tab, n_xs, xs, mu, lam, ell, ktable)
            assert np.max(np.abs(got - ref)) <= bound


def test_spread_and_fft_branches_meet(skew_density, ktable):
    # at mu = 3h the spread sources give way to the resampled density
    n_tab, n_xs = skew_density
    h = mild._spacing(n_xs)
    for ell in (0, 1, 2):
        lo, hi = (mild._rescaled_convolution(n_tab, n_xs, n_xs,
                                             3.0 * h * (1.0 + s), 1.0, ell,
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
    # the branch convolves only the sources that reach xs, with only the
    # kernel lags that join them to xs, at the shortest wrap-free length:
    # any wrap-around or lost lag shows against the uncut convolution
    n_tab, n_xs = skew_density
    left_out = 0
    for left, right, intervals in SPREAD_GRIDS:
        xs = np.linspace(left, right, intervals + 1)
        h = mild._spacing(xs)
        # mu and lam of a few h, where no source reaches the first
        # outputs; mu > 1, padded on both sides; lam far above h
        for mu, lam in ((0.3 * h, 3.0 * h), (3.1 * h, 3.0 * h),
                        (2.9 * h, 150.0 * h), (20.0 * h, 150.0 * h),
                        (1.5, 1.0), (0.5, 5.0)):
            left_out += mu * n_xs[0] - xs[0] > ktable.eta_max * lam
            got = mild._rescaled_convolution(n_tab, n_xs, xs, mu, lam, ell,
                                             ktable)
            ref = _full_length_node(n_tab, n_xs, xs, mu, lam, ell, ktable)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert left_out >= 4
    # an output grid that no source reaches gets zeros, spread or resampled
    xs = np.linspace(100.0, 110.0, 257)
    for mu in (0.05, 1.0):
        assert not np.any(mild._rescaled_convolution(n_tab, n_xs, xs, mu,
                                                     0.5, ell, ktable))
        assert not np.any(_full_length_node(n_tab, n_xs, xs, mu, 0.5, ell,
                                            ktable))


PLAN_GRID = symmetric_grid(20.0, 1024)


def test_solve_samples_each_fft_kernel_once(new_table, monkeypatch):
    # a node's kernel samples depend on the node, not the density: a solve
    # takes them once per node, as it builds the grid's Duhamel operator,
    # not once per node and iteration, and a second solve on the grid
    # takes none
    samples, inside = [], []
    plan, sym = mild._fft_plan, _backend.sym_eval

    def counted_plan(*args):
        inside.append(True)
        try:
            return plan(*args)
        finally:
            inside.pop()

    def counted_sym(*args):
        if inside:
            samples.append(args)
        return sym(*args)

    monkeypatch.setattr(mild, "_fft_plan", counted_plan)
    monkeypatch.setattr(_backend, "sym_eval", counted_sym)
    table = new_table()
    prof = solve_similarity_profile(CornerData(0.2, 0.03), table=table,
                                    xs=PLAN_GRID)
    assert prof.iterations >= 5
    assert len(samples) == 64
    del samples[:]
    solve_similarity_profile(CornerData(0.1, 0.1), table=table,
                             xs=PLAN_GRID)
    assert not samples


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
    # a solve refused for its rule leaves the held plan in place
    with pytest.raises(ConfigError, match="unknown quadrature"):
        _plans_built(built, table=table, quad_method="trap")
    assert _plans_built(built, table=table) == 0
    # another table builds its own and leaves the first one's in place
    other = new_table()
    assert _plans_built(built, table=other) == 64
    assert _plans_built(built, table=other) == 0
    assert _plans_built(built, table=table) == 0


@pytest.mark.parametrize("change, count", (
    ({"xs": symmetric_grid(30.0, 1024)}, 64),
    ({"quad_nodes": 32}, 32),
    ({"quad_method": "s-jacobi"}, 64),
), ids=("half-width", "quad_nodes", "quad_method"))
def test_plan_rebuilt_for_another_grid_or_rule(new_table, monkeypatch,
                                               change, count):
    # a grid of the same size but another spacing, or another rule, needs
    # its own plan; the table holds one, so going back builds it again
    built = _count_plans(monkeypatch)
    table = new_table()
    assert _plans_built(built, table=table) == 64
    assert _plans_built(built, table=table, **change) == count
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
    # the held operator keeps only what the grids and the nodes fix: built
    # once, it gives the node-by-node sum for two different densities. At
    # t = 2 mu runs from below 3h (spread sources) past 1 (the density
    # stretched past xs on both sides)
    n_tab, n_xs = skew_density
    densities = (n_tab, np.cos(n_xs) * n_tab[::-1])
    for left, right, intervals in SPREAD_GRIDS:
        xs = np.linspace(left, right, intervals + 1)
        for ell in (0, 1, 2):
            op = mild._DuhamelOperator(n_xs, xs, 2.0, ell, ktable, 64, "tau")
            for dens in densities:
                ref = mild._duhamel_sum(dens, n_xs, xs, 2.0, ell, ktable, 64,
                                        "tau")
                assert (np.max(np.abs(op(dens) - ref))
                        <= 1e-14 * np.max(np.abs(ref)))


@pytest.mark.parametrize("method", ("tau", "s-jacobi"))
@pytest.mark.parametrize("ell", (0, 1, 2))
def test_duhamel_operator_matches_node_sum(skew_density, ktable, ell,
                                           method):
    # on a coarse grid the nodes of smallest lam run refined (r > 1), in
    # blocks of their own, and those of smallest mu spread their sources
    n_tab, n_xs = skew_density
    xs = symmetric_grid(20.0, 256)
    dens = np.interp(xs, n_xs, n_tab)
    op = mild._DuhamelOperator(xs, xs, 1.0, ell, ktable, 64, method)
    assert len({r for *_, r in op.blocks} - {1}) >= 2
    assert np.min(mild._quad_nodes(1.0, ell, 64, method)[0]) < 3.0 * (
        mild._spacing(xs))
    ref = mild._duhamel_sum(dens, xs, xs, 1.0, ell, ktable, 64, method)
    assert np.max(np.abs(op(dens) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_held_operator_within_memory_budget(ktable):
    # the Duhamel operator a table holds costs at most 1.5 times the node
    # plans it replaced: taps, weights and each kernel spectrum at the
    # node's own FFT length
    op = mild._DuhamelOperator(PLAN_GRID, PLAN_GRID, 1.0, 2, ktable, 64,
                               "tau")
    held = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
               + spectra.nbytes for m, _, _, spectra, _ in op.blocks)
    plans = 0
    for mu, lam, _ in zip(*mild._quad_nodes(1.0, 2, 64, "tau")):
        node = mild._fft_plan(PLAN_GRID, PLAN_GRID, mu, lam, 2, ktable)
        plans += node.base.nbytes + node.w.nbytes + 16 * (node.nfft // 2 + 1)
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


def test_no_convergence_path(ktable):
    with pytest.raises(NoConvergence) as err:
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                 max_iter=2,
                                 xs=symmetric_grid(40.0, 1024))
    assert len(err.value.history) == 2


@pytest.mark.parametrize("kwargs, error, match", (
    ({"max_iter": 0}, ValidationError, "max_iter"),
    ({"max_iter": -1}, ValidationError, "max_iter"),
    ({"max_iter": 2.5}, ValidationError, "max_iter"),
    ({"max_iter": np.nan}, ValidationError, "max_iter"),
    ({"quad_nodes": 0}, ConfigError, "at least 8 nodes"),
    ({"quad_nodes": 7}, ConfigError, "at least 8 nodes"),
    ({"quad_nodes": 1, "quad_method": "s-jacobi"}, ConfigError,
     "at least 8 nodes"),
    ({"quad_nodes": 8.5}, ConfigError, "whole number"),
    ({"tol": np.nan}, ValidationError, "tol"),
    ({"tol": -1.0}, ValidationError, "tol"),
), ids=("max_iter=0", "max_iter=-1", "max_iter=2.5", "max_iter=nan",
        "quad_nodes=0", "quad_nodes=7",
        "s-jacobi-1", "quad_nodes=8.5", "tol=nan", "tol=-1"))
def test_solver_rejects_bad_iteration_settings(ktable, kwargs, error, match):
    with pytest.raises(error, match=match):
        solve_similarity_profile(CornerData(0.1, 0.1), table=ktable,
                                 **kwargs)


def test_integral_node_count_accepted(profile_8k, ktable):
    # a whole number of nodes given as a float is a count
    whole = duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=32.0)
    base = duhamel_integral(profile_8k.psi, 1.0, 2, ktable, nodes=32)
    assert np.array_equal(whole.ys, base.ys)


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
    save_profile(profile_8k, p)
    back = load_profile(p, ktable)
    assert np.array_equal(back.psi.ys, profile_8k.psi.ys)
    assert back.iterations == profile_8k.iterations
    assert back.corner.A == profile_8k.corner.A
    assert back.decay_constants[1] == pytest.approx(
        profile_8k.decay_constants[1])
    sol = reconstruct_U(back, 1.0, ktable)
    assert sol.slope_consistency < 1e-6


def test_initial_trace_rate(profile_8k, ktable):
    # |U(.,t) - corner| / t^{1/4} stays bounded as t -> 0
    from cornerflow import corner_function, inner_sup
    ratios = []
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        sol = reconstruct_U(profile_8k, t, ktable)
        cab = corner_function(0.1, 0.1, sol.U.xs)
        ratios.append(inner_sup(sol.U.ys - cab.ys) / t ** 0.25)
    assert max(ratios) / min(ratios) < 1.2
