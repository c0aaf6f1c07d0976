"""Similarity profile of the slope equation via Picard iteration.

The slope field of a corner evolution is self-similar: v(x,t) =
psi(x t^{-1/4}). The profile psi solves, at t = 1, the fixed-point equation

    psi = [step evolved one unit of time] + I2[psi]

where I2 is the Duhamel integral of the quasilinear remainder
alpha(v) v_xx + F(v) hit by d^2/dx^2 of the semigroup. Because the
nonlinearity inherits the similarity scaling, its space-time integral
reduces to a one-dimensional quadrature in tau = s^{1/4} over rescaled
convolutions of a single profile-dependent density n(xi). The s = 0
endpoint carries the genuine s^{-1/2} singularity; the tau substitution
absorbs it, and plain Gauss-Legendre in tau then converges spectrally.
"""
import functools
import json
import numbers
import os

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
# unused here, but bench/tracer.py wraps mild.fftconvolve by that name
from scipy.signal import fftconvolve  # noqa: F401
from scipy.special import roots_jacobi

from . import _backend
from ._slowpath import lagrange_taps
from .errors import (ConfigError, GridMismatch, NoConvergence,
                     PicardDivergence, StaleProfile, ValidationError)
from .grid import GridFunction, _fd, symmetric_grid, whole_number
from .kernel import _PARITY, _check_time, apply_to_step, corner_height

DEFAULT_HALF_WIDTH = 40.0
DEFAULT_INTERVALS = 8192


class CornerData:
    """Corner slopes: right slope A, negated left slope B."""

    def __init__(self, A, B, slope_cap=0.3):
        if not all(isinstance(v, numbers.Real) and np.isfinite(v)
                   for v in (A, B)):
            raise ValidationError(f"corner slopes must be finite numbers, "
                                  f"got A={A!r}, B={B!r}")
        if not (isinstance(slope_cap, numbers.Real) and slope_cap > 0.0):
            raise ValidationError(f"slope_cap must be a positive number, "
                                  f"got {slope_cap!r}")
        self.A = float(A)
        self.B = float(B)
        self.slope_cap = float(slope_cap)

    @property
    def size(self):
        return max(abs(self.A), abs(self.B))

    def within_cap(self):
        return self.size < self.slope_cap

    def __repr__(self):
        return f"CornerData(A={self.A}, B={self.B})"


class SimilarityProfile:
    """Converged slope profile psi plus its solve record."""

    def __init__(self, psi, corner, iterations, residual_history,
                 decay_constants, converged, psi1, psi2):
        self.psi = psi
        self.corner = corner
        self.iterations = iterations
        self.residual_history = list(residual_history)
        self.decay_constants = decay_constants
        self.converged = bool(converged)
        self.psi1 = psi1  # d(psi)/dxi on the grid
        self.psi2 = psi2  # second derivative

    @property
    def final_residual(self):
        return self.residual_history[-1] if self.residual_history else np.inf


class ReconstructedSolution:
    """Height function U(., t) rebuilt from a similarity profile."""

    def __init__(self, U, t, phi, slope_consistency, corner):
        self.U = U
        self.t = float(t)
        self.phi = phi
        self.slope_consistency = float(slope_consistency)
        self.corner = corner


def alpha_coefficient(v):
    """alpha(v) = 1 - 1/(1+v^2)^2 in the cancellation-safe arrangement."""
    v2 = np.asarray(v) ** 2
    return v2 * (2.0 + v2) / (1.0 + v2) ** 2


def nonlinearity(v, v_x, v_xx):
    """alpha(v) v_xx + F(v) with F = 3 v v_x^2 / (1+v^2)^3."""
    for other in (v_x, v_xx):
        if not v.same_grid(other):
            raise GridMismatch("nonlinearity operands on different grids")
    v2 = v.ys ** 2
    ys = (alpha_coefficient(v.ys) * v_xx.ys
          + 3.0 * v.ys * v_x.ys ** 2 / (1.0 + v2) ** 3)
    return GridFunction(v.xs, ys, ys[0], ys[-1], "constant", np.inf)


def _profile_derivatives(psi_ys, xs, h, A, B, table):
    """psi', psi'' via the step/remainder split.

    The evolved step carries the non-decaying part of psi; its derivatives
    are kernel evaluations. Only the decaying remainder is differenced.
    """
    lam = 1.0  # profiles live at t = 1
    step = -B + (A + B) * table.eval_G(xs * lam)
    r = psi_ys - step
    psi1 = (A + B) * table.eval_g(0, xs) + _fd(r, h, 1)
    psi2 = (A + B) * table.eval_g(1, xs) + _fd(r, h, 2)
    return psi1, psi2


def _nonlinear_density(psi_ys, psi1, psi2):
    v2 = psi_ys ** 2
    return (alpha_coefficient(psi_ys) * psi2
            + 3.0 * psi_ys * psi1 ** 2 / (1.0 + v2) ** 3)


def _spacing(xs):
    return (xs[-1] - xs[0]) / (xs.size - 1)


def _coarse_stride(scale, h, n):
    return max(1, min(n // 16, int(scale / (8.0 * h))))


def _fft_plan(n_xs, xs, mu, lam, ell, table):
    """The grid-only part of the FFT branch of `_rescaled_convolution`.

    The sources sit on the output grid xs, padded out to mu * n_xs (or the
    kernel reach, if nearer) on each side; only the window of k padded
    points that some source reaches is convolved. For mu >= 3h the
    sources are the density resampled at the padded points, for mu < 3h
    the density's quadrature weights spread from mu * n_xs; either way the
    4-point Lagrange taps come from `lagrange_taps`, planned here.

    Returns (lo, base, w, k, nfft, khat), or None when no source reaches
    xs. For mu >= 3h the window is the k = base.size padded points that
    fall on the profile grid, with taps (base, w) into n_tab. For mu < 3h
    the points mu n_xs[lo:lo + base.size] fall on the padded grid and
    deposit by the taps (base, w) onto the k-cell window, base counted
    from its first cell. With the sources src on the window, the output
    is irfft(rfft(src, nfft) khat, nfft)[:xs.size]. The kernel
    g_ell(d h / lam) h is sampled only on the K lags d that join a window
    point to an output. With a the index of the first output in the linear
    convolution, nfft >= max(n + max(a, 0), k + K - 1 - a) keeps the
    circular convolution free of wrap-around on the n outputs, and the
    kernel is rotated by a before its FFT. Nothing here depends on the
    density, so one plan serves every density on the same (n_xs, xs,
    table).
    """
    h, n = _spacing(xs), xs.size
    # sources up to a kernel reach outside xs still reach xs: pad the
    # output grid out to mu * n_xs (or that reach) on each side
    reach = int(np.ceil(table.eta_max * lam / h))
    pl = min(reach, max(0, int(np.ceil((xs[0] - mu * n_xs[0]) / h))))
    pr = min(reach, max(0, int(np.ceil((mu * n_xs[-1] - xs[-1]) / h))))
    if mu >= 3.0 * h:
        pts = np.concatenate([xs[0] - h * np.arange(pl, 0, -1), xs,
                              xs[-1] + h * np.arange(1, pr + 1)]) / mu
        lo, base, w = lagrange_taps(n_xs[0], _spacing(n_xs), n_xs.size,
                                    pts)
        k, first = base.size, lo - pl
    else:
        lo, base, w = lagrange_taps(xs[0] - pl * h, h, pl + n + pr,
                                    mu * n_xs)
        if base.size:
            # the grid cells the taps deposit onto, from base[0] on
            k, first = int(base[-1]) + 4 - int(base[0]), int(base[0]) - pl
            base = base - base[0]
    if not base.size:
        return None
    # lags d = output - source index, within the kernel reach
    d_lo = max(-reach, -(first + k - 1))
    d_hi = min(reach, n - 1 - first)
    lags = d_hi - d_lo + 1
    a = -(first + d_lo)
    nfft = next_fast_len(max(n + max(a, 0), k + lags - 1 - a), real=True)
    ker = np.zeros(nfft)
    ker[:lags] = _backend.sym_eval(table.g_ell[ell], table.h, _PARITY[ell],
                                   (d_lo + np.arange(lags)) * (h / lam))
    return lo, base, w, k, nfft, rfft(np.roll(ker, -a)) * h


def _rescaled_convolution(n_tab, n_xs, xs, mu, lam, ell, table, plan=None):
    """C(x) = int g_ell((x-y)/lam) n(y/mu) dy on the output grid xs.

    The density n is sampled as n_tab on the profile grid n_xs; the output
    grid xs is any uniform grid and need not share its origin, spacing or
    size. With thr three output spacings, three regimes keep the cost
    near-linear:

    - lam >= thr: the kernel resolves the output grid, so the sources go
      onto that grid, padded out to the kernel reach, and the window of
      them that reaches xs is FFT-convolved with the kernel samples
      g_ell(d h / lam) on the lags d that join it to xs. When mu >= thr
      the density is resampled there by 4-point Lagrange interpolation.
      When mu < thr (the profile squeezed below the grid) the quadrature
      weights mu nh n_tab[j] are spread from the points mu n_xs[j] by
      the transpose of that interpolation, the spreading step of a
      non-uniform FFT; against the dense source sum its error is
      O((h/lam)^4).
    - lam < thr <= mu: quadrature on the kernel grid, formed coarsely on
      the output grid (the result is smooth on scale mu) and upsampled.
    - both below thr: the dense source sum on every output point.

    The FFT branch runs in two steps. The node plan (`_fft_plan`: the
    interpolation taps, the source window, the FFT length and the kernel
    spectrum) depends only on the grids, the node and the table. The
    density step is a 4-tap gather (resampled) or one `np.bincount`
    (spread) of n_tab, then one forward and one inverse FFT. `plan` is an
    optional dict, keyed by (mu, lam, ell), that keeps the node plans
    between calls on the same (n_xs, xs, table); a Picard solve passes one
    for all its iterations.
    """
    h, nh = _spacing(xs), _spacing(n_xs)
    thr = 3.0 * h
    if lam >= thr:
        if plan is None:
            plan = {}
        key = (mu, lam, ell)
        if key not in plan:
            plan[key] = _fft_plan(n_xs, xs, mu, lam, ell, table)
        node = plan[key]
        if node is None:
            return np.zeros(xs.size)
        lo, base, w, k, nfft, khat = node
        if mu >= thr:
            src = (w[0] * n_tab[base] + w[1] * n_tab[base + 1]
                   + w[2] * n_tab[base + 2] + w[3] * n_tab[base + 3])
        else:
            v = (mu * nh / h) * n_tab[lo:lo + base.size]
            src = np.bincount((base + np.arange(4)[:, None]).ravel(),
                              (w * v).ravel(), minlength=k)
        return irfft(rfft(src, nfft) * khat, nfft)[:xs.size]
    gtab, par = table.g_ell[ell], _PARITY[ell]
    if mu < thr:
        return mu * nh * _backend.skew_sum(gtab, table.h, par, xs, mu, n_xs,
                                           n_tab, 1.0 / lam)
    # lam < thr <= mu: integrate on the kernel grid
    stride = _coarse_stride(mu, h, xs.size)
    xc = xs[::stride]
    ks = max(1, int(round(0.25 / table.h)))
    wk = table.etas[::ks]
    wk = np.concatenate([-wk[:0:-1], wk])
    gk = _backend.sym_eval(gtab, table.h, par, wk)
    pts = (xc[:, None] - lam * wk[None, :]) / mu
    nv = _backend.cubic_eval(n_tab, n_xs[0], nh, pts, 0.0, 0.0)
    cc = lam * (table.h * ks) * (nv @ gk)
    if stride == 1:
        return cc
    return _backend.cubic_eval(cc, xc[0], stride * h, xs, cc[0], cc[-1])


def _duhamel_sum(n_tab, n_xs, xs, t, ell, table, nodes, method, plan=None):
    """Quadrature over the Duhamel nodes; n_tab on n_xs, output on xs.

    `plan` (a dict, see `_rescaled_convolution`) keeps each node's FFT plan
    for the next sum on the same grids and table; without it the plans are
    built and used once.
    """
    out = np.zeros(xs.size)
    for mu, lam, w in zip(*_quad_nodes(t, ell, nodes, method)):
        out += w * _rescaled_convolution(n_tab, n_xs, xs, mu, lam, ell,
                                         table, plan)
    return out


def _check_quad_nodes(nodes):
    """The node count as an int; it must be a whole number of at least 8."""
    count = whole_number(nodes)
    if count is None or count < 8:
        raise ConfigError(f"quadrature needs a whole number of at least 8 "
                          f"nodes, got {nodes!r}")
    return count


@functools.lru_cache(maxsize=16)
def _gauss_legendre(nodes):
    """The Gauss-Legendre rule of `nodes` points on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad_nodes(t, ell, nodes, method):
    """(mu_k, lam_k, weight_k) so that I = sum_k w_k C(mu_k, lam_k; x)."""
    if method == "tau":
        x, w = _gauss_legendre(nodes)
        T = t ** 0.25
        tau = 0.5 * T * (x + 1.0)
        wt = 0.5 * T * w
        lam = (T ** 4 - tau ** 4) ** 0.25
        return tau, lam, wt * 4.0 * tau * lam ** (-(ell + 1))
    if method == "s-jacobi":
        x, w = roots_jacobi(nodes, -ell / 4.0, -0.5)
        s = 0.5 * t * (x + 1.0)
        mu = s ** 0.25
        lam = (t - s) ** 0.25
        pref = (0.5 * t) ** 0.5 * 2.0 ** (ell / 4.0) * t ** (-ell / 4.0)
        return mu, lam, pref * w / lam
    raise ConfigError(f"unknown quadrature method {method!r}")


def duhamel_integral(psi, t, target_deriv, table, nodes=64, method="tau",
                     xs=None):
    """int_0^t d^ell exp(-(t-s) d^4) [alpha(v) v_xx + F(v)] ds on the grid xs.

    v is the self-similar field generated by the profile psi. The density
    alpha(psi) psi'' + F(psi) is formed on the profile grid psi.xs; the
    result lives on xs (default psi.xs), which may be any uniform grid.
    The default quadrature substitutes s = tau^4 and uses Gauss-Legendre in
    tau, which is spectrally accurate; "s-jacobi" integrates in s against
    the weight s^{-1/2} (1-s/t)^{-ell/4} instead.
    """
    _check_time(t)
    if target_deriv not in (0, 1, 2):
        raise ValidationError("target_deriv must be 0, 1 or 2")
    nodes = _check_quad_nodes(nodes)
    if xs is None:
        xs = psi.xs
    A, B = psi.right_far, -psi.left_far
    psi1, psi2 = _profile_derivatives(psi.ys, psi.xs, psi.h, A, B, table)
    n_tab = _nonlinear_density(psi.ys, psi1, psi2)
    out = _duhamel_sum(n_tab, psi.xs, xs, t, target_deriv, table, nodes,
                       method)
    return GridFunction(xs, out, 0.0, 0.0, "constant",
                        max(np.abs(out[[0, -1]]).max() * 4.0, 1e-9))


def _decay_fit(psi_ys, psi1, psi2, xs, table, t_lo=0.01, t_hi=100.0):
    """Fitted (C_ell, exponent) of sup|d^ell v(.,t)| across [t_lo, t_hi]."""
    ts = np.geomspace(t_lo, t_hi, 9)
    tables = {0: psi_ys, 1: psi1, 2: psi2}
    fits = {}
    for ell, tab in tables.items():
        sups = []
        for t in ts:
            xi_edge = xs[-1] * t ** -0.25
            mask = np.abs(xs) <= xi_edge
            sups.append(t ** (-ell / 4.0) * np.max(np.abs(tab[mask])))
        slope, intercept = np.polyfit(np.log(ts), np.log(np.maximum(sups, 1e-300)), 1)
        fits[ell] = (float(np.exp(intercept)), float(slope))
    return fits


def solve_similarity_profile(corner, tol=1e-10, max_iter=50, table=None,
                             xs=None, quad_nodes=64, quad_method="tau"):
    """Picard-iterate the profile equation at t = 1.

    Starts from the evolved step and stops when the sup-norm update drops
    below tol. Five consecutive growing updates abort with
    PicardDivergence; exhausting max_iter raises NoConvergence.
    """
    if table is None:
        raise ValidationError("a KernelTable is required")
    count = whole_number(max_iter)
    if count is None or count < 1:
        raise ValidationError(f"max_iter must be a whole number >= 1, "
                              f"got {max_iter!r}")
    max_iter = count
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise ValidationError(f"tol must be a positive finite number, "
                              f"got {tol!r}")
    quad_nodes = _check_quad_nodes(quad_nodes)
    if not corner.within_cap():
        raise ConfigError(
            f"corner size {corner.size:.3g} exceeds slope_cap "
            f"{corner.slope_cap:.3g}; the contraction argument needs small data")
    if xs is None:
        xs = symmetric_grid(DEFAULT_HALF_WIDTH, DEFAULT_INTERVALS)
    A, B = corner.A, corner.B
    h = _spacing(xs)
    step = apply_to_step(A, B, 1.0, 0, table, xs)
    psi = step.ys.copy()
    plan = {}  # the FFT-branch node plans, shared by every iteration
    history = []
    growing = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        psi1, psi2 = _profile_derivatives(psi, xs, h, A, B, table)
        n_tab = _nonlinear_density(psi, psi1, psi2)
        duh = _duhamel_sum(n_tab, xs, xs, 1.0, 2, table, quad_nodes,
                           quad_method, plan)
        psi_next = step.ys + duh
        update = float(np.max(np.abs(psi_next - psi)))
        history.append(update)
        psi = psi_next
        if update < tol:
            converged = True
            break
        if len(history) >= 2 and update > history[-2]:
            growing += 1
            if growing >= 5:
                raise PicardDivergence(
                    f"updates grew for {growing} consecutive iterations",
                    history)
        else:
            growing = 0
    if not converged:
        raise NoConvergence(
            f"no convergence after {max_iter} iterations "
            f"(last update {history[-1]:.3e})", history)
    psi1, psi2 = _profile_derivatives(psi, xs, h, A, B, table)
    tail_gap = max(abs(psi[0] + B), abs(psi[-1] - A))
    psi_gf = GridFunction(xs, psi, -B, A, "constant",
                          max(4.0 * tail_gap, 1e-9))
    decay = _decay_fit(psi, psi1, psi2, xs, table)
    return SimilarityProfile(psi_gf, corner, iterations, history, decay,
                             converged, psi1, psi2)


def reconstruct_U(profile, t, table, xs=None):
    """Height function U(., t) = evolved corner + first-derivative Duhamel.

    U lives on xs, the profile grid by default; any uniform grid works.
    """
    if not profile.converged:
        raise StaleProfile("profile did not converge; refusing to reconstruct")
    _check_time(t)
    corner = profile.corner
    if xs is None:
        xs = profile.psi.xs
    base = corner_height(corner.A, corner.B, t, table, xs)
    duh = duhamel_integral(profile.psi, t, 1, table, xs=xs)
    U = GridFunction(xs, base.ys + duh.ys, -corner.B, corner.A, "linear")
    ux = _fd(U.ys, U.h, 1)
    target = profile.psi.interp(xs * t ** -0.25)
    lo, hi = xs.size // 10, xs.size - xs.size // 10
    slope_consistency = float(np.max(np.abs(ux - target)[lo:hi]))
    phi = U if abs(t - 1.0) <= 1e-12 else None
    return ReconstructedSolution(U, t, phi, slope_consistency, corner)


def inner_sup(values, frac=0.8):
    """Sup norm over the central `frac` portion of the samples."""
    values = np.asarray(values)
    skip = int(round(values.size * (1.0 - frac) / 2.0))
    return float(np.max(np.abs(values[skip:values.size - skip])))


def self_similarity_residual(profile, sigma, t, table):
    """sup over the inner 80% of |sigma^{-1/4} U(sigma^{1/4} x, sigma t) - U(x,t)|."""
    if sigma <= 0.0 or t <= 0.0:
        raise ValidationError("sigma and t must be positive")
    sol = reconstruct_U(profile, t, table)
    if sigma == 1.0:
        return 0.0
    sol2 = reconstruct_U(profile, sigma * t, table)
    fac = sigma ** -0.25
    rescaled = fac * sol2.U.interp(sol.U.xs / fac)
    return inner_sup(rescaled - sol.U.ys)


def constant_shift_residual(solution, c, table, nodes=64):
    """Recompute the height equation's right side from U + c.

    Shifting U by a constant leaves every x-derivative, hence the whole
    right-hand side, unchanged; the defect must come back as |c| up to the
    solver's own residual. The slope field is re-extracted from the shifted
    heights rather than reused, so the check exercises the full pipeline.
    """
    U, t, corner = solution.U, solution.t, solution.corner
    shifted = U.shift_values(c)
    lam = t ** -0.25
    w = _fd(shifted.ys, shifted.h, 1)
    xi = shifted.xs * lam
    psi_w = _backend.cubic_eval(w, xi[0], shifted.h * lam, xi, -corner.B,
                                corner.A)
    psi_gf = GridFunction(xi, psi_w, -corner.B, corner.A, "constant",
                          max(1e-6, 4.0 * max(abs(psi_w[0] + corner.B),
                                              abs(psi_w[-1] - corner.A))))
    base = corner_height(corner.A, corner.B, t, table, shifted.xs)
    duh = duhamel_integral(psi_gf, t, 1, table, nodes=nodes, xs=shifted.xs)
    rhs = base.ys + duh.ys
    return inner_sup(shifted.ys - rhs)


def save_profile(profile, csv_path):
    """CSV `xi,psi` plus a JSON sidecar with the solve record."""
    csv_path = os.fspath(csv_path)
    arr = np.column_stack([profile.psi.xs, profile.psi.ys])
    np.savetxt(csv_path, arr, delimiter=",", header="xi,psi", comments="",
               fmt="%.17g")
    root, _ = os.path.splitext(csv_path)
    meta = {
        "A": profile.corner.A,
        "B": profile.corner.B,
        "slope_cap": profile.corner.slope_cap,
        "iterations": profile.iterations,
        "residual_history": profile.residual_history,
        "decay_constants": {str(k): v for k, v in
                            profile.decay_constants.items()},
        "converged": profile.converged,
        "far_tail_tol": profile.psi.tail_tol,
    }
    with open(root + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1)


def load_profile(csv_path, table):
    csv_path = os.fspath(csv_path)
    arr = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    root, _ = os.path.splitext(csv_path)
    with open(root + ".meta.json") as fh:
        meta = json.load(fh)
    corner = CornerData(meta["A"], meta["B"], meta.get("slope_cap", 0.3))
    xs, ys = arr[:, 0], arr[:, 1]
    psi = GridFunction(xs, ys, -corner.B, corner.A, "constant",
                       meta.get("far_tail_tol", 1e-3))
    h = psi.h
    psi1, psi2 = _profile_derivatives(ys, xs, h, corner.A, corner.B, table)
    decay = {int(k): tuple(v) for k, v in meta["decay_constants"].items()}
    return SimilarityProfile(psi, corner, meta["iterations"],
                             meta["residual_history"], decay,
                             meta["converged"], psi1, psi2)
