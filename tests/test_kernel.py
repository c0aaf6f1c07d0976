import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.signal import fftconvolve
from scipy.special import gamma

from cornerflow import _backend, _slowpath, kernel
from cornerflow import (ConfigError, GridFunction, InvalidTime, KernelTable,
                        ValidationError, apply_semigroup, apply_to_step,
                        build_kernel_table, corner_height,
                        regularizing_constants, symmetric_grid)
from cornerflow.errors import UnsupportedFarField
from cornerflow.kernel import _PARITY, ENVELOPE_RATE

G0_EXACT = float(gamma(1.25) / np.pi)  # 0.28851686930823484

# S(1)|x| at x = 0: twice the second antiderivative of g at 0, which is
# -8 g''(0) = (2/pi) int_0^inf k^2 exp(-k^4) dk
M_AT_ZERO = float(2.0 * gamma(0.75) / np.pi)  # 0.7801245021788135
# frozen from an independent high-precision quadrature of the Fourier
# integrals (direct mpmath-style evaluation, not this module's code path)
L1_G1 = 0.7158455096361571
SUP_G2 = 0.09751556277235175
L1_G3 = 0.48837974951004337


def _bump(half_width=40.0, intervals=2048, lo=0.0, hi=0.0):
    xs = symmetric_grid(half_width, intervals)
    ys = np.exp(-0.25 * xs ** 2) + lo + (hi - lo) * 0.5 * (1 + np.tanh(xs))
    return GridFunction(xs, ys, lo, hi, "constant", 1e-6)


# Re (ik)^ell e^{ik eta} = sign * k^ell * weight(k eta)
_FOURIER_WEIGHTS = ((1.0, "cos"), (-1.0, "sin"), (-1.0, "cos"), (1.0, "sin"))


@pytest.mark.parametrize("eta_max, n_nodes", ((40.0, 16384), (15.0, 2048)))
def test_tables_match_quadpack(eta_max, n_nodes):
    # QUADPACK's oscillatory rule on [0, 3.2] (exp(-k^4) < 1e-45 beyond)
    # is independent of the FFT; (15, 2048) has the shortest FFT period,
    # and the last node sits nearest to the first periodic image
    table = build_kernel_table(eta_max, n_nodes)
    fractions = np.array([0.0, 0.03, 0.1, 0.22, 0.4, 0.74, 1.0])
    idx = np.rint(fractions * (n_nodes - 1)).astype(int)
    for ell, (sign, weight) in enumerate(_FOURIER_WEIGHTS):
        for j in idx:
            ref, _ = quad(lambda k: k ** ell * np.exp(-k ** 4) / np.pi,
                          0.0, 3.2, weight=weight, wvar=table.etas[j],
                          epsabs=1e-14, epsrel=0.0)
            assert abs(table.g_ell[ell][j] - sign * ref) < 1e-14


@pytest.mark.parametrize("eta_max, n_nodes", ((40.0, 16384), (15.0, 2048)))
def test_tables_satisfy_the_kernel_ode(eta_max, n_nodes):
    # u = t^{-1/4} g(x t^{-1/4}) solves u_t = -u_xxxx, so g'''' = (eta g)'/4
    # and, both sides decaying, g''' = eta g / 4. A periodic image within
    # reach of the last node breaks it first: an FFT period of 2 eta_max
    # misses it by 1e-4
    table = build_kernel_table(eta_max, n_nodes)
    gap = table.g_ell[3] - table.etas * table.g_ell[0] / 4.0
    assert np.max(np.abs(gap)) <= 1e-15


def test_g0_matches_closed_form(ktable):
    g0 = float(ktable.eval_g(0, np.array([0.0]))[0])
    assert abs(g0 - G0_EXACT) < 1e-12


def test_mass_and_frozen_norms(ktable):
    mass = 2.0 * simpson(ktable.g_ell[0], dx=ktable.h)
    assert abs(mass - 1.0) < 1e-8
    assert ktable.mass == mass  # the table keeps the mass it checked
    # l1 norms ride Simpson over |g| whose kinks at sign changes cost ~1e-7
    assert ktable.l1_norm(1) == pytest.approx(L1_G1, abs=5e-7)
    assert ktable.sup_norm(2) == pytest.approx(SUP_G2, abs=1e-10)
    assert ktable.l1_norm(3) == pytest.approx(L1_G3, abs=5e-6)


def test_parity_of_tables(ktable):
    eta = np.linspace(0.5, 10.0, 64)
    for ell, sign in ((0, 1.0), (1, -1.0), (2, 1.0), (3, -1.0)):
        plus = ktable.eval_g(ell, eta)
        minus = ktable.eval_g(ell, -eta)
        assert np.max(np.abs(minus - sign * plus)) == 0.0


def test_decay_envelope(ktable):
    env = ktable.g_env * np.exp(-ENVELOPE_RATE * ktable.etas ** (4.0 / 3.0))
    assert np.all(np.abs(ktable.g_ell[0]) <= env * (1.0 + 1e-12) + 1e-300)
    assert ktable.g_env < 0.4
    # wide tables: the rounding noise of the far table must not set g_env
    # (it read 2.4e7 at eta_max 60 and 2.2e30 at 100 when it did)
    for eta_max, n_nodes in ((60.0, 16384), (100.0, 20000)):
        wide = build_kernel_table(eta_max, n_nodes)
        assert wide.g_env < 0.4
        assert abs(wide.g_env - ktable.g_env) < 1e-4
    # past eta_max ~ 407 the envelope weight overflows a float
    assert build_kernel_table(450.0, 4096).g_env < 0.4
    # a far tail above the rounding floor 1e-13 g(0) is not noise
    g0 = ktable.g_ell[0].copy()
    g0[ktable.etas > 39.0] = 1e-12
    with pytest.raises(ValidationError, match="envelope"):
        KernelTable(ktable.etas, (g0, *ktable.g_ell[1:]), ktable.G)


def test_table_refuses_non_finite_samples(ktable):
    # nan compares false, so the mass and envelope checks alone let a nan
    # sample through and read mass = g_env = nan
    for k in range(5):
        arrays = [*ktable.g_ell, ktable.G]
        arrays[k] = arrays[k].copy()
        arrays[k][100] = (np.nan, np.inf)[k % 2]
        with pytest.raises(ValidationError, match="finite"):
            KernelTable(ktable.etas, arrays[:4], arrays[4])


def test_table_refuses_foreign_grids(ktable):
    # the table reads h off the first two nodes and evaluates as if every
    # node sat at a multiple of h from 0
    tables = (ktable.g_ell, ktable.G)
    moved = ktable.etas.copy()
    moved[5000] += 0.3 * ktable.h
    with pytest.raises(ValidationError, match="uniformly spaced"):
        KernelTable(moved, *tables)
    with pytest.raises(ValidationError, match="starts at eta = 0"):
        KernelTable(ktable.etas + 1.0, *tables)
    with pytest.raises(ValidationError, match="g0 .. g3"):
        KernelTable(ktable.etas, ktable.g_ell[:3], ktable.G)
    with pytest.raises(ValidationError, match="G must hold"):
        KernelTable(ktable.etas, ktable.g_ell, ktable.G[:-1])


def test_antiderivative_consistency(ktable):
    # G' = g and G(+inf) = 1 tie the tables together
    eta = ktable.etas[200:-200:100]
    dG = (ktable.eval_G(eta + ktable.h) - ktable.eval_G(eta - ktable.h)) \
        / (2.0 * ktable.h)
    g = ktable.eval_g(0, eta)
    assert np.max(np.abs(dG - g)) < 5e-7
    assert float(ktable.eval_G(np.array([ktable.eta_max + 1.0]))[0]) == 1.0
    # S(1)|x| is even, and |x| itself past eta_max
    U = corner_height(1.0, 1.0, 1.0, ktable, symmetric_grid(25.0, 16))
    assert np.array_equal(U.ys, U.ys[::-1])
    far = ktable.eta_max + 2.0
    U = corner_height(1.0, 1.0, 1.0, ktable, symmetric_grid(far, 16))
    assert U.ys[0] == U.ys[-1] == far


def test_csv_roundtrip(ktable, tmp_path):
    p = tmp_path / "kernel.csv"
    assert ktable.to_csv(p) == [str(p)]
    back = KernelTable.from_csv(p)
    eta = np.linspace(-5.0, 5.0, 101)
    for ell in range(4):
        assert np.max(np.abs(back.eval_g(ell, eta)
                             - ktable.eval_g(ell, eta))) < 1e-14
    assert np.max(np.abs(back.eval_G(eta) - ktable.eval_G(eta))) < 1e-14
    xs = symmetric_grid(5.0, 100)
    assert np.max(np.abs(corner_height(0.2, 0.1, 1.0, back, xs).ys
                         - corner_height(0.2, 0.1, 1.0, ktable, xs).ys)) \
        < 1e-14


def test_csv_with_non_finite_values_is_refused(ktable, tmp_path):
    # nan samples would pass the mass and envelope checks (nan compares
    # false), so the reader refuses them, naming the file
    p = tmp_path / "kernel.csv"
    ktable.to_csv(p)
    lines = p.read_text().splitlines()
    lines[100] = ",".join(["nan"] * 6)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match="kernel.csv.* not finite"):
        KernelTable.from_csv(p)


def test_build_validation():
    with pytest.raises(ValidationError):
        build_kernel_table(eta_max=10.0)
    with pytest.raises(ValidationError):
        build_kernel_table(n_nodes=100)
    with pytest.raises(ConfigError):
        build_kernel_table(eta_max=1100.0, n_nodes=2048)
    # non-finite or non-numeric settings and fractional counts are named
    for eta_max in (np.inf, np.nan, "40"):
        with pytest.raises(ValidationError, match="eta_max"):
            build_kernel_table(eta_max)
    for n_nodes in (np.nan, np.inf, 16384.5, "16384"):
        with pytest.raises(ValidationError, match="n_nodes"):
            build_kernel_table(40.0, n_nodes)


def test_semigroup_property(ktable):
    f = _bump()
    one = apply_semigroup(apply_semigroup(f, 0.3, 0, ktable), 0.7, 0, ktable)
    two = apply_semigroup(f, 1.0, 0, ktable)
    assert np.max(np.abs(one.ys - two.ys)) < 1e-7


def test_commutation_with_derivative(ktable):
    f = _bump()
    df = GridFunction(f.xs, -0.5 * f.xs * np.exp(-0.25 * f.xs ** 2), 0.0,
                      0.0, "constant", 1e-6)  # f' in closed form
    lhs = apply_semigroup(f, 0.5, 1, ktable)
    rhs = apply_semigroup(df, 0.5, 0, ktable)
    inner = slice(8, -8)
    assert np.max(np.abs(lhs.ys[inner] - rhs.ys[inner])) < 1e-6


def test_fft_matches_direct(ktable):
    # the evolved far-field step plus the dense trapezoid sum of the
    # decaying remainder against the kernel samples
    f = _bump(20.0, 1024, lo=-0.3, hi=0.2)
    t, xs = 0.7, f.xs
    step = np.where(xs > 0.0, f.right_far,
                    np.where(xs < 0.0, f.left_far,
                             0.5 * (f.left_far + f.right_far)))
    for ell in range(4):
        got = apply_semigroup(f, t, ell, ktable)
        base = apply_to_step(f.right_far, -f.left_far, t, ell, ktable, xs)
        dense = _slowpath.skew_sum(ktable.g_ell[ell], ktable.h, _PARITY[ell],
                                   xs, 1.0, xs, f.ys - step, t ** -0.25)
        ref = base.ys + dense * t ** (-(ell + 1) / 4.0) * f.h
        assert np.max(np.abs(got.ys - ref)) < 1e-9


# length-1 inputs, primes, and full lengths 1024 | 1025 and 1080 | 1081
# on either side of a step of next_fast_len (1024, 1080, 1080, 1125)
@pytest.mark.parametrize("sizes", ((1, 17), (5, 1), (1, 1), (13, 7),
                                   (101, 211), (997, 991), (600, 425),
                                   (600, 426), (540, 541), (540, 542)))
def test_fftconvolve_matches_scipy(rng, sizes):
    a, b = (rng.standard_normal(n) for n in sizes)
    got = kernel._fftconvolve(a, b)
    assert _same_bits(got, fftconvolve(a, b))
    scale = np.convolve(np.abs(a), np.abs(b)).max()
    assert np.max(np.abs(got - np.convolve(a, b))) <= 1e-13 * scale


@pytest.mark.parametrize("ell", range(4))
def test_sampled_convolution_matches_direct_sum(ktable, rng, ell):
    # outputs on, across and beyond the 50 samples, against the direct sum
    # over every sample; at scale 2 the table reaches 20 lags, so the last
    # two windows lie past every sample's reach and must read 0
    f = rng.standard_normal(50)
    bound = 1e-13 * np.abs(f).sum() * ktable.sup_norm(ell)
    for lo, hi in ((0, 50), (-30, 10), (40, 100), (-5, 60), (69, 90),
                   (-100, -80), (70, 90)):
        got = kernel._sampled_convolution(f, 2.0, ell, ktable, lo, hi)
        lags = np.arange(lo, hi)[:, None] - np.arange(50)
        want = ktable.eval_g(ell, 2.0 * lags) @ f
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= bound
    assert not np.any(got) and not np.any(
        kernel._sampled_convolution(f, 2.0, ell, ktable, -100, -80))


def _direct_lags(table, ell, d_lo, d_hi, scale):
    # every lag sampled by itself
    return _slowpath.sym_eval(table.g_ell[ell], table.h, _PARITY[ell],
                              (d_lo + np.arange(d_hi - d_lo + 1)) * scale)


def _same_bits(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("ell", range(4))
def test_kernel_lags_equal_direct_samples(ktable, monkeypatch, ell):
    # symmetric, lopsided either way, entirely positive or negative, the
    # single lag 0 and single lags off it; the last range reaches past the
    # table, where both read 0. One table evaluation, on min|d| .. max|d|.
    points, sym = [], _backend.sym_eval

    def counted(tab, h, parity, q):
        points.append(np.size(q))
        return sym(tab, h, parity, q)

    monkeypatch.setattr(_backend, "sym_eval", counted)
    for d_lo, d_hi in ((-40, 40), (-7, 300), (-300, 12), (5, 90),
                       (-90, -5), (0, 0), (-3, -3), (4, 4), (0, 17),
                       (-17, 0), (-4000, 2500)):
        for scale in (0.37, 2.0, 0.0123):
            got = kernel._kernel_lags(ktable, ell, d_lo, d_hi, scale)
            assert _same_bits(got, _direct_lags(ktable, ell, d_lo, d_hi,
                                                scale))
            near = 0 if d_lo <= 0 <= d_hi else min(abs(d_lo), abs(d_hi))
            assert points == [max(-d_lo, d_hi) - near + 1]
            del points[:]


@given(d_lo=st.integers(-3000, 3000), width=st.integers(0, 3000),
       scale=st.floats(1e-3, 4.0), ell=st.integers(0, 3))
def test_kernel_lags_equal_direct_samples_drawn(ktable, d_lo, width, scale,
                                                ell):
    got = kernel._kernel_lags(ktable, ell, d_lo, d_lo + width, scale)
    assert _same_bits(got, _direct_lags(ktable, ell, d_lo, d_lo + width,
                                        scale))


def test_scaling_identity(ktable):
    f = _bump(60.0, 4096)
    xs = symmetric_grid(20.0, 1024)
    for sigma in (0.5, 2.0):
        fac = sigma ** 0.25
        lhs = apply_semigroup(f, 1.0, 0, ktable).interp(fac * xs)
        scaled = GridFunction(xs, f.interp(fac * xs), f.left_far,
                              f.right_far, "constant", 1e-5)
        rhs = apply_semigroup(scaled, 1.0 / sigma, 0, ktable).ys
        assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_initial_trace_bound(ktable):
    # |exp(-t d^4) u0 - u0| <= 4 c3 t^{1/4} |u0_x|_inf on Lipschitz data,
    # with c3 = int |eta g(eta)| d eta / 4 from the kernel table itself
    c3 = 0.5 * simpson(np.abs(ktable.etas * ktable.g_ell[0]), dx=ktable.h)
    xs = symmetric_grid(40.0, 4096)
    u0 = GridFunction(xs, 0.1 * np.tanh(xs), -0.1, 0.1, "constant", 1e-6)
    sup_slope = 0.1
    for t in (1e-3, 1e-2, 1e-1, 1.0):
        out = apply_semigroup(u0, t, 0, ktable)
        gap = np.max(np.abs(out.ys - u0.ys)[100:-100])
        assert gap <= 4.0 * c3 * t ** 0.25 * sup_slope * (1.0 + 1e-6)


def test_apply_to_step_matches_general_path(ktable):
    xs = symmetric_grid(30.0, 2048)
    ys = np.where(xs > 0.0, 0.2, np.where(xs < 0.0, -0.1, 0.05))
    step = GridFunction(xs, ys, -0.1, 0.2, "constant", np.inf)
    for ell in (0, 1, 2):
        a = apply_to_step(0.2, 0.1, 0.8, ell, ktable, xs)
        b = apply_semigroup(step, 0.8, ell, ktable)
        assert np.max(np.abs(a.ys - b.ys)) < 1e-12


@pytest.mark.parametrize("eta_max, n_nodes",
                         ((40.0, 16384), (20.0, 2048), (15.0, 2048)))
def test_corner_height_at_origin_is_exact(eta_max, n_nodes):
    # the exact value takes in the tail past eta_max, which a second
    # antiderivative summed inside the window misses (by 1.1e-5 at 15)
    table = build_kernel_table(eta_max, n_nodes)
    U = corner_height(1.0, 1.0, 1.0, table, symmetric_grid(1.0, 16))
    assert abs(U.ys[8] - M_AT_ZERO) <= 1e-14


def test_corner_height_from_the_narrowest_table(ktable):
    # inside |xi| <= 15 the (15, 2048) table evolves the benchmark's
    # corners as the default one does, up to its cubic interpolation of
    # g'' next to the origin (3.5e-11); past 15 it holds no kernel, and the
    # heights differ by up to 5.6e-6 (A + B) t^{1/4}
    small = build_kernel_table(15.0, 2048)
    xs = symmetric_grid(20.0, 2048)
    for A, B in ((0.1, 0.1), (0.29, 0.0), (0.2, 0.03)):
        for t in np.geomspace(1e-4, 1e4, 33):
            inside = np.abs(xs) * t ** -0.25 <= small.eta_max
            gap = (corner_height(A, B, t, small, xs).ys
                   - corner_height(A, B, t, ktable, xs).ys)[inside]
            assert np.max(np.abs(gap), initial=0.0) \
                <= 1e-10 * (A + B) * t ** 0.25


def test_corner_height_slope_is_evolved_step(ktable):
    xs = symmetric_grid(30.0, 4096)
    h = xs[1] - xs[0]
    U = corner_height(0.2, 0.1, 1.3, ktable, xs)
    v = apply_to_step(0.2, 0.1, 1.3, 0, ktable, xs)
    dU = np.gradient(U.ys, h)
    assert np.max(np.abs(dU - v.ys)[8:-8]) < 1e-5


def test_step_decay_exponents(ktable):
    ts = np.geomspace(0.01, 100.0, 13)
    for ell in (1, 2):
        c, expo = regularizing_constants(ktable, ell, ts)
        assert expo == pytest.approx(-ell / 4.0, abs=0.02)
        assert c > 0.0
    with pytest.raises(ValidationError):
        regularizing_constants(ktable, 5, ts)
    with pytest.raises(ValidationError):
        regularizing_constants(ktable, 1, np.array([0.5, 1.0, 2.0]))
    # a time that is not positive and finite is a typed error, not a
    # divide-by-zero warning
    for bad in ([0.0, 1.0, 1e4], [-1.0, 1.0, 1e4], [1.0, 10.0, np.inf]):
        with pytest.raises(ValidationError, match="t_range"):
            regularizing_constants(ktable, 1, bad)


@pytest.mark.parametrize("times, match", (
    ([], "non-empty"), (0.1, "non-empty"), ([np.nan], "positive finite"),
    ([np.inf], "positive finite"), ([0.1, np.nan], "positive finite"),
    ([0.1, -1.0], "positive finite"), (["0.1"], "positive finite"),
    ([0.2, 0.1], "strictly increasing"), ([0.1, 0.1], "strictly increasing"),
), ids=("empty", "scalar", "nan", "inf", "then-nan", "then-negative",
        "text", "decreasing", "repeated"))
def test_check_times_refuses(times, match):
    with pytest.raises(InvalidTime, match=match):
        kernel._check_times(times)


def test_check_times_returns_floats():
    got = kernel._check_times(np.array([1, 2]))
    assert got == [1.0, 2.0] and all(type(t) is float for t in got)
    assert kernel._check_times((t for t in (0.5, 3))) == [0.5, 3.0]


def test_time_and_far_field_validation(ktable):
    f = _bump()
    with pytest.raises(InvalidTime):
        apply_semigroup(f, -1.0, 0, ktable)
    with pytest.raises(InvalidTime):
        apply_to_step(0.1, 0.1, 0.0, 0, ktable, f.xs)
    lin = GridFunction(f.xs, f.xs.copy(), 1.0, 1.0, "linear")
    with pytest.raises(UnsupportedFarField):
        apply_semigroup(lin, 1.0, 0, ktable)
    for ell in (-1, 4, 1.5):
        with pytest.raises(ValidationError, match="ell"):
            apply_semigroup(f, 1.0, ell, ktable)
