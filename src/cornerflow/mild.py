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
absorbs it. The rule is 64-point Gauss-Legendre in tau, and it was
measured converged only inside SLOPE_CAP: there a 192-node rule graded
toward s = t moves psi by at most 6e-10 (half-width 40, 2048 intervals).
Past the cap the factor exp(-k^4 (t - s)) varies near s = t faster than
the rule resolves, and the rule is the largest error of a solve.
"""
import numbers
from collections import namedtuple

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.sparse import csr_matrix

from ._slowpath import _cells, lagrange_weights, quintic_eval
from .errors import (ConfigError, NoConvergence, PicardDivergence,
                     StaleProfile, ValidationError)
from .grid import (GridFunction, _check_instance, _fd, _inner, _read_csv,
                   _spacing, _write_csv, symmetric_grid, uniform_grid)
from .kernel import (ENVELOPE_REACH, _block_kernel_lags,
                     _check_order, _check_table, _check_time, _kernel_symbols,
                     corner_height)
# unused here, but bench/tracer.py wraps mild.fftconvolve by that name
from .kernel import _fftconvolve as fftconvolve  # noqa: F401

# the default solve grid, also of `cornerflow solve` and `diagnose`
DEFAULT_HALF_WIDTH = 40.0
DEFAULT_INTERVALS = 8192
# Picard runs only below SLOPE_CAP, the small-data hypothesis of its
# contraction (Koch & Lamm 2012); there it needs at most 11 iterations
SLOPE_CAP = 0.3
MAX_ITER = 50
# the 64-point Gauss-Legendre rule on [-1, 1] of the Duhamel quadrature in
# tau (`_duhamel_nodes`), read-only
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_GL_X.flags.writeable = _GL_W.flags.writeable = False
# nodes per block of the Duhamel sum, the one block rule of both
# evaluators: a block holds at most BLOCK consecutive nodes of one
# refinement r, held (`_DuhamelOperator`) or one-shot (`_duhamel_sum`). It
# bounds a block's temporaries. Against a bound of 128 KiB on a block's
# rfft rows, which made every planned node of the default grid a block
# by itself, a one-shot reconstruction there peaks at up to 11.1 MiB of
# Python allocations (was 1.7) and takes 13.8 ms (was 22.7) at t = 1e-2
# and 22.8 ms (was 36.4) at t = 10 (2 cores, medians of 7 interleaved
# runs)
BLOCK = 16
# window and spread points a run of a block's taps (`_block_taps`) takes
# at most, unless one node has more: it bounds the temporaries of the
# pass. On the 2048-interval grid of half-width 20 a one-shot
# reconstruction at t = 1e-2 peaks at 1.44 MiB of Python allocations
# (1.24 MiB a node at a time), 2.28 MiB at 32768 points a run and 3.9 MiB
# with a block of 16 spread nodes of 2049 points in one run; 8192 points
# a run gave up a third of the runs' gain in speed
TAP_POINTS = 16384


class CornerData:
    """Corner slopes: right slope A, negated left slope B."""

    def __init__(self, A, B):
        if not all(isinstance(v, numbers.Real) and np.isfinite(v)
                   for v in (A, B)):
            raise ValidationError(f"corner slopes must be finite numbers, "
                                  f"got A={A!r}, B={B!r}")
        self.A = float(A)
        self.B = float(B)

    @property
    def size(self):
        return max(abs(self.A), abs(self.B))

    def within_cap(self):
        return self.size < SLOPE_CAP

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


def _evolved_step(A, B, G):
    """The step -B (x<0) -> A (x>0) evolved to t = 1, -B + (A + B) G, from
    the samples G of the kernel's antiderivative (`_step_samples`)."""
    return -B + (A + B) * G


def _step_samples(table, xs):
    """(G, g_0, g_1) on xs: the kernel samples of the evolved step and of
    its first two derivatives at t = 1.

    They are those the table's Picard plan holds (`_picard_plan`) when it
    is on the grid xs exactly, else evaluated and held nowhere; the same
    samples either way, bit for bit.
    """
    held = table._picard_plan
    if held is not None and np.array_equal(held.xs, xs):
        return held.G, held.g0, held.g1
    return table.eval_G(xs), table.eval_g(0, xs), table.eval_g(1, xs)


def _profile_derivatives(psi_ys, xs, h, A, B, table):
    """psi', psi'' via the step/remainder split.

    The evolved step carries the non-decaying part of psi; its derivatives
    are kernel evaluations. Only the decaying remainder is differenced.
    Profiles live at t = 1, where the step is `_evolved_step`. On the grid
    of the table's Picard plan, as in a reconstruction on its solve's
    table, the kernel samples come from the plan (`_step_samples`): on the
    2048-interval grid of half-width 20 that takes the derivatives from
    285 us to 46 us (medians of 7 interleaved rounds, 2 cores).
    """
    G, g0, g1 = _step_samples(table, xs)
    return _split_derivatives(psi_ys, h, A + B, _evolved_step(A, B, G), g0,
                              g1)


def _split_derivatives(psi_ys, h, jump, step, g0, g1):
    """psi', psi'' from the evolved step and its derivatives g0, g1 at t = 1.

    `jump` is A + B; only the remainder psi - step is differenced.
    """
    r = psi_ys - step
    psi1 = jump * g0 + _fd(r, h, 1)
    psi2 = jump * g1 + _fd(r, h, 2)
    return psi1, psi2


def _nonlinear_density(psi_ys, psi1, psi2):
    """alpha(psi) psi'' + F(psi) with F = 3 psi psi'^2 / (1+psi^2)^3."""
    v2 = psi_ys ** 2
    return (alpha_coefficient(psi_ys) * psi2
            + 3.0 * psi_ys * psi1 ** 2 / (1.0 + v2) ** 3)


# the planned nodes of a Duhamel sum, or of one block of them: one array
# entry a node, in the order of the sum (`_plan_nodes`). count and spread
# are 0 for a resampled node
_NodePlans = namedtuple("_NodePlans", "w mu lo k first count pad padded "
                                      "spread d_lo d_hi scale a h r out0 "
                                      "nout lower upper fixed start end")
# the nodes of a sum on their source grids, or of one block of them
_SourceNodes = namedtuple("_SourceNodes", "w d_lo d_hi scale a h y0 nout r "
                                          "lower upper fixed start end")
# what sets the FFT length of a block of nodes; see `_wrap_free_length`
_Span = namedtuple("_Span", "r lower upper fixed start end")
# the four taps of a 4-point stencil, nodes base + 0..3
_TAPS = np.arange(4)
# the points a window search looks at, around its guess (`_first_past`)
_AROUND = np.arange(-1, 2)


def _on_source_grid(n_xs, xs, mu, lam):
    """Whether the nodes (mu, lam) are convolved on their source grids:
    H = mu nh >= h and the kernel resolved there, lam >= 3H
    (`_rescaled_convolution`)."""
    H = mu * _spacing(n_xs)
    return (H >= _spacing(xs)) & (lam >= 3.0 * H)


def _take(nodes, which):
    """The nodes (`_NodePlans` or `_SourceNodes`) that the index or mask
    `which` picks, every field alike."""
    return nodes._make(field[which] for field in nodes)


def _plan_nodes(n_xs, xs, quad, table, on_grid):
    """(source-grid nodes, planned nodes) of the Duhamel sum over the
    nodes quad = (mu, lam, w), the density sampled on n_xs and the output
    on xs: the grid-only part of every node, as arrays, one entry a node
    (`_SourceNodes`, `_NodePlans`), each field taken for all the nodes at
    once. on_grid (a mask, or one bool for all) sends nodes to their
    source grids. A node that no source reaches is dropped; the others
    keep the order of quad. The one planner of both evaluators: the
    one-shot sum and the held operator read slices of its arrays, a block
    at a time (`_node_blocks`), and make the taps of the windows then
    (`_block_taps`).

    On its source grid Y = mu (n_xs[0] + nh j), of spacing h = H = mu nh,
    a node's outputs are the nodes lo .. hi - 1 of Y that cover xs with 3
    to spare on each side: nout of them, from y0 = Y_lo. Output i takes
    H sum_j g_ell((i - j) H / lam) n_tab[j] over the lags d = i - j = d_lo
    .. d_hi within the kernel reach, scale = H / lam. A block of such nodes
    convolves the window n_tab[lower:upper] of its span, which holds the
    sources of every node; there output lo sits at index a - lower of the
    linear convolution, a = lo - d_lo.

    Every other node is planned on xs, refined r-fold when lam < 3h, with
    spacing h and n points (`_grid_points`). The sources are padded out to
    mu * n_xs (or the kernel reach, if nearer) on each side: the padded
    grid has `padded` points, `pad` of them before xs. Only the window of
    k padded points that some source reaches is convolved: the points
    first .. first + k - 1 of xs, counted from xs[0] and running into the
    pads. For mu >= 3h (count 0) the window is the padded points lo = pad
    + first .. lo + k - 1, those that fall on the profile grid once
    divided by mu; each takes n_tab by its 4-point Lagrange stencil there.
    For mu < 3h the count points mu n_xs[lo:lo + count] fall on the padded
    grid and deposit spread times their density by their stencils there
    onto the window, the k cells from the first stencil's first node on.

    The window ends are those np.searchsorted finds on the points' grid
    coordinates, which rise with the index, found by arithmetic for both
    ends of all the nodes at once: the inverse of the grid map gives a
    guess, and the points around it settle the end (`_first_past`). Each
    coordinate is the one the block's taps compute, so no node builds its
    padded grid. On the 2048-interval grid of half-width 20 the plans
    and blocks of the 64 nodes of a sum at t = 1e-2 to 0.1 take 0.26 ms,
    where planning node by node took 0.69 ms, and 0.28 ms against 0.51 ms
    at t = 10 to 1e4 (medians of 7 interleaved rounds, 2 cores).

    The kernel g_ell(d h / lam) is needed only on the lags d = d_lo .. d_hi
    that join a window point to an output, scale = h / lam: one
    `_block_kernel_lags` call samples them for a whole block of nodes. a
    is the index of output 0 in the linear convolution of the window with
    the lags.

    The node gives the nout outputs xs[out0:out0 + nout]; the others are
    zero. Unrefined, they are all of xs; refined, they are the outputs of
    xs that some source reaches, which at small t are a few per cent of
    them. With the sources src on the window and lo = r out0, they are
    irfft(rfft(src, N) khat, N)[:r (nout - 1) + 1:r] for any N at least
    the wrap-free length of the node's span (lower, upper, fixed, start,
    end; `_wrap_free_length`), where khat is h rfft of the lags rotated by
    a + lo at length N (`_kernel_spectra`): a block of nodes chooses the
    FFT length from the join of their spans (`_node_blocks`,
    `_block_layout`).
    """
    mu, lam, w = (np.asarray(q, dtype=float) for q in quad)
    on_grid = np.zeros(mu.shape, dtype=bool) | on_grid
    nx0, nh, top = n_xs[0], _spacing(n_xs), n_xs.size
    x0, x1 = xs[0], xs[-1]

    # the nodes on their source grids
    mu_s, lam_s = mu[on_grid], lam[on_grid]
    H = mu_s * nh
    lo = np.floor((x0 / mu_s - nx0) / nh).astype(np.int64) - 3
    hi = np.ceil((x1 / mu_s - nx0) / nh).astype(np.int64) + 4
    reach = np.ceil(table.eta_max / (H / lam_s)).astype(np.int64)
    d_lo = np.maximum(-reach, lo - (top - 1))
    d_hi = np.minimum(reach, hi - 1)
    # the sources lo - d_hi .. hi - 1 - d_lo reach the outputs
    start, end = lo - d_hi, hi - d_lo
    on = _SourceNodes(
        w[on_grid], d_lo, d_hi, H / lam_s, lo - d_lo, H,
        mu_s * (nx0 + nh * lo), hi - lo, np.ones_like(lo),
        np.maximum(start, 0), np.minimum(end, top),
        np.maximum(d_hi - d_lo + 1, hi - lo), start, end)
    if not np.all(d_lo <= d_hi):
        on = _take(on, d_lo <= d_hi)

    # the planned nodes, on xs refined r-fold
    mu, lam, w = mu[~on_grid], lam[~on_grid], w[~on_grid]
    h = _spacing(xs)
    r = np.where(lam >= 3.0 * h, 1,
                 np.ceil(24.0 * h / lam)).astype(np.int64)
    n = r * (xs.size - 1) + 1
    h = (x1 - x0) / (n - 1)
    # sources up to a kernel reach outside xs still reach xs: pad the
    # output grid out to mu * n_xs (or that reach) on each side
    reach = np.ceil(table.eta_max * lam / h).astype(np.int64)
    pad = np.minimum(reach, np.maximum(0, np.ceil(
        (x0 - mu * nx0) / h))).astype(np.int64)
    padded = pad + n + np.minimum(reach, np.maximum(0, np.ceil(
        (mu * n_xs[-1] - x1) / h))).astype(np.int64)
    spread = mu < 3.0 * h
    xp = x0 - pad * h
    # node fields as columns, against the points of a search
    cols = [v[:, None] for v in (pad, n - 1, h, mu, xp, r == 1, spread)]

    def coord(i):
        # the grid coordinate of point i (last axis) of each node: a
        # resampled node's padded point i divided by mu, on the profile
        # grid, the points of xs refined as `_grid_points` gives them (m h
        # + x0 before the last, in the pads before xs too); a spread node's
        # source i on its padded grid
        pad, last, h, mu, xp, whole, spread = cols
        m = i - pad
        inside = m < last
        x = np.where(inside, m * h + x0, x1 + h * (m - last))
        x = np.where(whole & inside & (m >= 0), xs.take(m, mode="clip"), x)
        return np.where(spread, (mu * n_xs.take(i, mode="clip") - xp) / h,
                        (x / mu - nx0) / nh)

    # the window: the points whose coordinates lie on the grid they fall
    # on, 0 <= coord <= bound; a search for each end of each node
    bound = np.array([np.zeros(mu.size), np.where(spread, padded - 1.0,
                                                  top - 1.0)])
    guess = np.where(spread, ((xp + bound * h) / mu - nx0) / nh,
                     pad + (mu * (nx0 + bound * nh) - x0) / h)
    (lo, hi), (at_lo, _), (_, before_hi) = _first_past(
        coord, guess, np.where(spread, top, padded), bound,
        np.array([[False], [True]]))
    hi = np.maximum(lo, hi)
    # a spread window: the grid cells the taps deposit onto, from the first
    # stencil's first node on
    ends = _cells(np.array([at_lo, before_hi]), padded)[0]
    k = np.where(spread, ends[1] + 4 - ends[0], hi - lo)
    first = np.where(spread, ends[0] - 1, lo) - pad
    count = np.where(spread, hi - lo, 0)
    # lags d = output - source index, within the kernel reach
    d_lo = np.maximum(-reach, -(first + k - 1))
    d_hi = np.minimum(reach, n - 1 - first)
    lags = d_hi - d_lo + 1
    a = -(first + d_lo)
    # refined, the node keeps the outputs of xs among the outputs -a .. k
    # + lags - 2 - a of its linear convolution
    out0 = np.where(r > 1, -(-np.maximum(0, -a) // r), 0)
    nout = np.where(r > 1, (np.minimum(n, k + lags - 1 - a) - 1) // r + 1
                    - out0, xs.size)
    # the node keeps the outputs r out0 .. r (out0 + nout - 1) of the
    # refined xs; its linear convolution holds the outputs -a .. end - 1
    planned = _NodePlans(
        w, mu, lo, k, first, count, pad, padded,
        np.where(spread, mu * nh / h, 0.0), d_lo, d_hi, h / lam, a, h, r,
        out0, nout, r * out0, r * (out0 + nout - 1) + 1,
        np.maximum(k, lags), -a, k + lags - 1 - a)
    keep = (hi > lo) & (nout >= 1)
    return on, planned if keep.all() else _take(planned, keep)


def _grid_points(xs, r, m):
    """The points m (an integer array) of xs refined r-fold, each as
    np.linspace(xs[0], xs[-1], r (xs.size - 1) + 1) gives it."""
    if r == 1:
        return xs[m]
    last = r * (xs.size - 1)
    out = m * ((xs[-1] - xs[0]) / last)
    out += xs[0]
    out[m == last] = xs[-1]
    return out


def _first_past(coord, guess, size, bound, strict):
    """np.searchsorted(coord(0 .. size - 1), bound, "right" if strict else
    "left") for each search of a nondecreasing coord, with no grid made:
    the first i with coord(i) > bound (>= bound if not strict), or size.
    Returns (i, coord(i), coord(i - 1)), each point clipped to the grid.

    guess, size and bound are arrays of one shape, an entry a search, and
    strict broadcasts against them; coord(i) gives the coordinates of the
    points i of the searches, one search a row of the last axis. Each
    search looks just past guess, the index at which its grid map puts
    bound: the points just before and after it settle it when the first
    is not past and the last is, and else it moves two points that way
    and looks again. All the searches look at once, so they take one or
    two passes over a few points each.
    """
    i = np.minimum(np.maximum(guess + 1.0, 0.0), size).astype(np.int64)
    size = size[..., None]
    # c >= bound is c > the float just below bound
    bound = np.where(strict, bound, np.nextafter(bound, -np.inf))[..., None]
    while True:
        at = i[..., None] + _AROUND
        c = coord(np.minimum(np.maximum(at, 0), size - 1))
        # before point 0 nothing is past, from point size on all is
        past = (c > bound) | (at >= size)
        past &= at >= 0
        back, on = past[..., 0], ~past[..., 2]
        if not (back.any() or on.any()):
            # the first past is point i or i + 1
            here = past[..., 1]
            return (i + ~here, np.where(here, c[..., 1], c[..., 2]),
                    np.where(here, c[..., 0], c[..., 1]))
        i += 2 * on - 2 * back


def _wrap_free_length(span):
    """The shortest FFT length at which a block's circular convolutions
    give its kept outputs unwrapped.

    A node convolves k window points with `lags` kernel lags. In a block of
    planned nodes the nodes share the kept outputs lower .. upper - 1, and
    each has its own window, whose linear convolution holds the outputs
    start .. end - 1. With the kernel rotated so that output `lower` sits
    at index 0, the circular convolution of length N is exact on the kept
    outputs when N holds both factors (fixed = max(k, lags)) and the kept
    outputs, when the entries from `lower` on do not wrap (N >= end -
    lower), and when those before it, wrapped round to the end, stay past
    the kept outputs (N >= upper - start). A block of source-grid nodes
    is the transpose (`_plan_nodes`): the nodes share the window of
    sources lower .. upper - 1 and each keeps its own outputs, which the
    sources start .. end - 1 reach; the same bounds hold, with fixed =
    max(lags, kept outputs). A block's span joins its nodes' ones
    (`_node_blocks`), so its length is the largest of its nodes' lengths
    with the shared range joined.
    """
    return max(span.fixed, span.upper - span.lower, span.end - span.lower,
               span.upper - span.start)


def _rescaled_convolution(n_tab, n_xs, xs, mu, lam, ell, table):
    """C(x) = int g_ell((x-y)/lam) n(y/mu) dy on xs, convolved on the
    node's source grid: a source-grid block of this node alone.

    The density n is sampled as n_tab on the profile grid n_xs; xs is any
    uniform grid of spacing h. The sources mu n_xs[j] lie on the source
    grid Y = mu (n_xs[0] + nh j), of spacing H = mu nh. `_duhamel_sum`
    sends the nodes with H >= h whose kernel is resolved on Y (lam >= 3H,
    `_on_source_grid`) to its source-grid blocks (`_add_source_block`):
    the trapezoid rule on the density's own samples (no upsampling) on
    the nodes of Y that cover xs with 3 to spare on each side, and a
    6-point Lagrange evaluator (`quintic_eval`) takes the smooth result
    from Y to xs. Against the dense source sum it is within 2e-11 of the
    node's sup at (mu, lam) = (2.5, 1), (5, 4) and (10, 9) on a
    2048-interval density, where a node plan, which upsamples the density
    up to H/h-fold by 4-point interpolation, is off by up to 3.4e-8. Why
    h: with both paths in blocks, moving the switch from H >= 2h down to
    H >= h made `reconstruct_U` 11% faster at t = 10 and 2-7% at t = 100
    to 1e4 on a 2048-interval grid of half-width 20, and 11% at t = 1 on
    a 4096-interval output grid (medians of 25 interleaved rounds); at
    t = 10 it took the Duhamel term from 8.6e-9 to 6.7e-10 of its sup off
    the dense source sum. Why 6 points: with 4-point interpolation from Y
    the late Duhamel term sat 1.2e-8 to 1.6e-8 of its sup from that of a
    profile solved on twice the intervals, against 4e-10 with 6 points.

    `_duhamel_sum` does not call it; bench/tracer.py wraps this name. It
    is, bit for bit, the `_duhamel_sum` of this node alone at weight 1.
    """
    out = np.zeros(xs.size)
    nodes = _plan_nodes(n_xs, xs, ([mu], [lam], [1.0]), table, True)[0]
    for block, span in _node_blocks(nodes):
        _add_source_block(out, block, span, n_tab, xs, ell, table)
    return out


def _duhamel_sum(n_tab, n_xs, xs, ell, table, quad):
    """Sum over the nodes quad = (mu, lam, w); n_tab on n_xs, output on xs.

    A one-shot sum: each node's convolution C(x) = int g_ell((x-y)/lam)
    n(y/mu) dy takes one of two paths, and the sum keeps no plan.
    `duhamel_integral` (hence `reconstruct_U`) sums this way; a Picard
    solve, which sums on one grid many times, applies the
    `_DuhamelOperator` its table holds instead. One planner plans every
    node of the sum as arrays (`_plan_nodes`), and the blocks read slices
    of them (`_node_blocks`).

    A node on its source grid (`_on_source_grid`) is convolved there and
    interpolated to xs (`_rescaled_convolution`). Such nodes share their
    sources, the density as sampled, so they go in blocks of up to BLOCK
    consecutive nodes: one rfft of the block's density window, one
    batched irfft of its products with the nodes' kernel spectra, and a
    `quintic_eval` a node (`_add_source_block`).

    Every other node, its sources off the nodes of xs, takes its plan on
    xs: the sources go onto xs, padded out to the kernel reach, and the
    window of them that reaches xs is FFT-convolved with the kernel
    samples g_ell(d h / lam). When mu >= 3h the density is resampled by
    4-point Lagrange interpolation; when mu < 3h the quadrature weights mu
    nh n_tab[j] are spread from the points mu n_xs[j] by the transposed
    interpolation, the spreading step of a non-uniform FFT (Greengard &
    Lee 2004), with error O((h/lam)^4) against the dense source sum. When
    lam < 3h the kernel is not resolved on xs, so the node runs on xs
    refined r-fold, r = ceil(24 h / lam), keeps every r-th output, and
    computes only the refined outputs that some source reaches. Why 24:
    against the own-grid Duhamel terms (t = 1e-2 and 1e-3, 128 and 256
    cells on [-20, 20]) the worst gap over the Duhamel sup reads 3e-5 at
    r = ceil(3h / lam), 6e-7 at 6h, 3e-9 at 12h and 1e-10 at 24h, below
    the 8e-10 of the dense source sum. The spread nodes set this; the
    resampled ones need only r >= ceil(3h / lam).

    The planned nodes go in blocks of up to BLOCK consecutive nodes of
    one r (`_node_blocks`), as in the held operator. A block makes the
    taps of its nodes' windows in one pass a run of nodes (`_block_taps`,
    at most TAP_POINTS points a run), and scatters the resampled or
    spread sources straight into the rows of its rfft input
    (`_block_sources`). One batched rfft of it, the weighted node sum in
    Fourier space and one irfft that keeps every r-th output give the
    block's share (`_add_block`). The plans' windows and the sources are
    bit for bit those of nodes planned and resampled one by one; on the
    2048-interval grid of half-width 20 the sum at the four
    reconstruct-early times (t = 1e-2 to 0.1) took 4.8 ms against 6.1 ms
    node by node (2 cores, medians of 16 interleaved rounds).

    Each block, of either kind, takes its kernel spectra by one of two
    routes (`_kernel_spectra`). Where its FFT length holds every node's
    whole kernel reach (`_images_clear`), they are the kernel's symbol in
    closed form on the bins where it has not underflowed, and the
    products and the node sum run over those bins alone; else one
    `_block_kernel_lags` call samples the lags of the whole block and one
    batched rfft transforms them. On the 2048-interval grid of half-width
    20 every block takes the closed form at t = 1e-4 to 4.6e-2 (4 of 4 at
    t = 1e-2), 3 of 4 at t = 0.1, 2 of 4 at t = 1, and 0 or 1 of 5 from
    t = 10 to 1e4; the Duhamel terms of the two routes agree to 3.4e-13
    of their sup there (t = 1e-4 to 1e4, ell = 0 to 2). With the sampled
    lags the block sum matches the node-by-node sum to rounding.
    """
    out = np.zeros(xs.size)
    quad = [np.asarray(q, dtype=float) for q in quad]
    on_grid, planned = _plan_nodes(n_xs, xs, quad, table,
                                   _on_source_grid(n_xs, xs, *quad[:2]))
    for block, span in _node_blocks(on_grid):
        _add_source_block(out, block, span, n_tab, xs, ell, table)
    for block, span in _node_blocks(planned):
        N, keep, r = _block_layout(span)
        spectra = _kernel_spectra(block, ell, table, N, r * keep.start,
                                  _planned_extents(block, span))
        src = _block_sources(block, n_tab, n_xs, xs, N)
        _add_block(out, rfft(src), spectra, N, keep, r)
    return out


def _add_source_block(out, block, span, n_tab, xs, ell, table):
    """out += each node's weight times its convolution, taken from its
    source grid to xs, for a block of source-grid nodes (`_SourceNodes`)
    of this span.

    The nodes share the density window n_tab[span.lower:span.upper], so
    one rfft of it at the block's length N, times the kernel spectra of
    the nodes (`_kernel_spectra`, H in place of h) on the spectra's bins,
    and one batched irfft give each node's outputs on its own source grid,
    from index 0. Each row goes to xs by `quintic_eval`.
    """
    N = _block_layout(span)[0]
    spectra = _kernel_spectra(block, ell, table, N, -span.lower,
                              (span.upper - span.lower, block.nout))
    spectra *= rfft(n_tab[span.lower:span.upper], N)[:spectra.shape[1]]
    for wt, nout, y0, h, row in zip(block.w, block.nout.tolist(), block.y0,
                                    block.h, irfft(spectra, N)):
        out += wt * quintic_eval(row[:nout], y0, h, xs)


def _node_blocks(nodes):
    """The nodes (`_NodePlans` or `_SourceNodes`) in blocks of up to BLOCK
    consecutive nodes of one refinement r: (block, span) a block, the
    block the slice of its nodes and span the join of their spans
    (`_Span`), taken by reductions over the blocks."""
    r = nodes.r
    if not r.size:
        return
    at = np.arange(r.size)
    # a block opens where r changes and then every BLOCK nodes
    run = np.maximum.accumulate(np.where(np.diff(r, prepend=0) != 0, at, 0))
    starts = np.flatnonzero((at - run) % BLOCK == 0)
    spans = zip(r[starts].tolist(), *(
        join.reduceat(field, starts).tolist() for join, field in (
            (np.minimum, nodes.lower), (np.maximum, nodes.upper),
            (np.maximum, nodes.fixed), (np.minimum, nodes.start),
            (np.maximum, nodes.end))))
    for first, stop, span in zip(starts.tolist(), [*starts[1:].tolist(),
                                                   r.size], spans):
        yield _take(nodes, slice(first, stop)), _Span(*span)


def _block_layout(span):
    """(N, kept outputs, r) of a block of this span: N is the shortest
    fast length that gives all its outputs unwrapped, and the kept
    outputs of a planned block, the union of its nodes' ones, are those
    of xs. A source-grid block takes N alone."""
    r = span.r
    N = next_fast_len(_wrap_free_length(span), real=True)
    return N, slice(span.lower // r, (span.upper - 1) // r + 1), r


def _kernel_spectra(block, ell, table, N, lo, extents):
    """The kernel spectra of a block of nodes at FFT length N: row i is h_i
    times the DFT of node i's lags rotated by a_i + lo.

    extents = (sources, outputs) of the nodes, arrays or one count for
    all: row i convolves sources_i points, from index 0, into outputs_i
    points, from index 0, and its index j holds the lag c + j mod N, c =
    a + lo + d_lo. Where N holds every node's whole kernel reach
    (`_images_clear`) the rows are the kernel's symbol in closed form on
    the bins where it has not underflowed (`_symbol_spectra`), else the
    rfft of the sampled lags on all N // 2 + 1 bins (`_sampled_spectra`).
    Either way a product with the rows' sources runs over the rows' bins
    alone (`_add_block`, `_add_source_block`): the bins past them are 0.
    """
    if _images_clear(block, table, N, lo, extents):
        return _symbol_spectra(block, ell, N, lo)
    return _sampled_spectra(block, ell, table, N, lo)


def _images_clear(block, table, N, lo, extents):
    """Whether at length N every periodic image of a node's lags lies past
    its kernel reach, for every node of the block.

    A node's sources reach its outputs through the lags c - sources + 1 ..
    c + outputs - 1 (`_kernel_spectra`). Their images d + jN, j != 0, lie
    past R = ceil(eta_max lam / h) lags, the reach of the sampled rows,
    when N >= R + 1 + max(d_max, -d_min). Then the circular convolution
    of the rows of `_symbol_spectra`, which sum the kernel over every lag,
    gives each output the kernel's lags to its sources alone, as the
    sampled rows do, up to the kernel past eta_max. That is under the
    tables' rounding floor when eta_max >= ENVELOPE_REACH; a narrower
    table cuts the kernel off where it is not, so its blocks all keep
    the sampled lags, with one cut-off for every node.
    """
    if table.eta_max < ENVELOPE_REACH:
        return False
    sources, outputs = extents
    c = block.a + lo + block.d_lo
    return bool(np.all(N >= np.ceil(table.eta_max / block.scale)
                       + np.maximum(c + outputs, sources - c)))


def _planned_extents(block, span):
    """The (sources, outputs) of the planned nodes of a block of this span
    (`_kernel_spectra`): each node's k window points, and the block's kept
    outputs, every refined output from the first kept one to the last."""
    return block.k, span.upper - span.lower


def _symbol_spectra(block, ell, N, lo):
    """The (nodes, P) closed-form rows of `_kernel_spectra` for a block
    whose length N holds every node's kernel reach (`_images_clear`).

    By Poisson summation h sum_d g_ell(d h / lam) exp(-2 pi i p d / N) is
    lam (i kappa)^ell exp(-kappa^4), kappa = 2 pi p lam / (N h), up to the
    aliases at kappa + 2 pi j lam / h, j != 0, which vanish (lam >= 3h);
    the rotation by c = a + lo + d_lo multiplies bin p by exp(2 pi i p c /
    N). The rows hold the P bins below the underflow cut of their widest
    symbol (`kernel._kernel_symbols`); the phase is taken of p c mod N, so
    that it stays exact however far the rotation runs. When the rows hold
    more than 2N phases, the N phases exp(2 pi i m / N) are taken once and
    gathered at m = p c mod N, each entry the same expression on the same
    integer, bit for bit: the complex exponential is the largest cost of
    the rows, and the table, made anew for each block, took a block's
    rows from 350 to 240 us (16 rows of 575 bins at N = 2160), where
    rows of 100 bins read the same either way.
    """
    scale = block.scale[:, None]
    c = block.a + lo + block.d_lo
    sym = _kernel_symbols(2.0 * np.pi / N * np.arange(N // 2 + 1), (ell,),
                          1.0 / scale)[0]
    turns = np.arange(sym.shape[1]) * c[:, None] % N
    lam = block.h[:, None] / scale
    if turns.size > 2 * N:
        # the phases of all N turns, once, then gathered
        return lam * sym * np.exp(2j * np.pi / N * np.arange(N))[turns]
    return lam * sym * np.exp(2j * np.pi / N * turns)


def _sampled_spectra(block, ell, table, N, lo):
    """The rows of `_kernel_spectra` from the sampled lags: h_i rfft of
    node i's lags rotated by a_i + lo at length N.

    Lag p goes to index (p - a - lo) mod N of a zero row: the lags from
    (a + lo) mod N on open it, the lags before that close it. One
    `_block_kernel_lags` call samples the lags of the whole block, of up
    to BLOCK nodes, and one batched rfft transforms its rows, each
    spectrum that of its row alone, bit for bit.
    """
    kers = _block_kernel_lags(table, ell, list(zip(
        block.d_lo.tolist(), block.d_hi.tolist(), block.scale.tolist())))
    rows = np.zeros((block.w.size, N))
    for row, s, ker in zip(rows, ((block.a + lo) % N).tolist(), kers):
        k = ker.size
        head = min(s, k)
        row[N - s:N - s + head] = ker[:head]
        row[:k - head] = ker[head:]
    spectra = rfft(rows)
    spectra *= block.h[:, None]
    return spectra


def _tap_runs(nodes):
    """The slices of a block's planned nodes in runs of consecutive nodes
    of one kind, resampled or spread, of at most TAP_POINTS window or
    spread points each, or of one node."""
    spread = (nodes.count > 0).tolist()
    sizes = np.where(nodes.count > 0, nodes.count, nodes.k).tolist()
    start = points = 0
    for i, size in enumerate(sizes):
        if i > start and (points + size > TAP_POINTS
                          or spread[i] != spread[start]):
            yield slice(start, i)
            start, points = i, 0
        points += size
    if sizes:
        yield slice(start, len(sizes))


def _block_taps(block, n_xs, xs, stride):
    """The 4-point taps of the windows of a block of planned nodes
    (`_NodePlans`) on xs, made run by run (`_tap_runs`), each run in one
    pass.

    Node i's window takes the cells i stride .. i stride + k - 1 of the
    block's rows of length stride, C order. Each window point of a
    resampled node and each spread point of a spread node gets its grid
    coordinate as its plan computed it, every point of a refined block
    from the block's one refined grid (`_grid_points`); one `_cells` and
    one `lagrange_weights` call then give the stencils and weights of all
    the points of a run.

    Yields (resampled, spread) a run, the taps of its kind and None
    (`_resampled_taps`, `_spread_taps`). A caller drops a run's taps
    before it asks for the next: no two runs' are held at once.
    """
    for run in _tap_runs(block):
        if block.count[run.start]:
            yield None, _spread_taps(block, run, n_xs, xs, stride)
        else:
            yield _resampled_taps(block, run, n_xs, xs, stride), None


def _resampled_taps(nodes, run, n_xs, xs, stride):
    """(at, base, w) of the resampled nodes[run] of a block
    (`_block_taps`): the cell of each window point, the first node of its
    stencil on n_tab and the (4, points) weights of the stencil's nodes.

    Window point m of a node is point m of xs, refined, or before it or
    past it on the padded grid, divided by mu, on the profile grid.
    """
    r, h = int(nodes.r[run.start]), nodes.h[run.start]
    n = r * (xs.size - 1) + 1
    k, first = nodes.k[run], nodes.first[run]
    m = np.arange(k.sum()) + np.repeat(first - (np.cumsum(k) - k), k)
    # only a window's ends show whether it runs into the pads
    before, past = first.min() < 0, (first + k).max() > n
    x = _grid_points(xs, r, np.clip(m, 0, n - 1) if before or past else m)
    if before:
        before = m < 0
        x[before] = xs[0] - h * -m[before]
    if past:
        past = m >= n
        x[past] = xs[-1] + h * (m[past] - n + 1)
    x /= np.repeat(nodes.mu[run], k)
    x -= n_xs[0]
    x /= _spacing(n_xs)
    j, u = _cells(x, n_xs.size)
    del x
    m += np.repeat(np.arange(run.start, run.stop) * stride - first, k)
    j -= 1
    return m, j, lagrange_weights(u)


def _spread_taps(nodes, run, n_xs, xs, stride):
    """(cell, src, factor, w) of the spread nodes[run] of a block
    (`_block_taps`), their points in a (points, nodes) layout: a node's
    points mu n_xs[src] go down its column, padded with copies of its
    last point up to the longest column.

    cell is the cell of the first node of each point's stencil on the
    padded grid (nodes * stride for a pad), src its index in n_tab,
    factor each node's `spread` and w the (4, points, nodes) weights. Side
    by side, the nodes' deposits onto their disjoint cells interleave
    (`_block_sources`).
    """
    h, count, pad = nodes.h[run.start], nodes.count[run], nodes.pad[run]
    down = np.arange(count.max())[:, None]
    src = nodes.lo[run] + np.minimum(down, count - 1)
    y = nodes.mu[run] * n_xs[src]
    y -= xs[0] - pad * h
    y /= h
    cell, u = _cells(y, nodes.padded[run])
    del y
    # a stencil's first node, from its window's first cell
    cell += (np.arange(run.start, run.stop) * stride - pad - 1
             - nodes.first[run])
    cell[down >= count] = nodes.w.size * stride
    return cell, src, nodes.spread[run], lagrange_weights(u)


def _block_sources(block, n_tab, n_xs, xs, N):
    """The (nodes, N) rfft input of a block of planned nodes: each node's
    sources (`_block_taps`) times its weight, zero past its window.

    n_tab is resampled by the taps, the four terms summed in order, or
    spread by them, each spread node's points deposited onto its cells
    tap by tap, the nodes of a run side by side (np.add.at, in order, as
    np.bincount sums).
    """
    rows = block.w.size * N
    # a pad's deposits go to the cells past the rows
    out = np.zeros(rows + 4)
    for resampled, spread in _block_taps(block, n_xs, xs, N):
        if spread is None:
            _resample_into(out, *resampled, n_tab)
        else:
            _spread_into(out, *spread, n_tab)
        # this run's taps go before the next run's are made
        del resampled, spread
    out = out[:rows].reshape(block.w.size, N)
    out *= block.w[:, None]
    return out


def _resample_into(out, at, base, w, n_tab):
    """out[at] = n_tab resampled by the taps (base, w), the four terms
    summed in order."""
    # n_tab[i:][base] is n_tab[base + i]
    vals = w[0] * n_tab[base]
    for i in (1, 2, 3):
        tap = n_tab[i:][base]
        tap *= w[i]
        vals += tap
    out[at] = vals


def _spread_into(out, cell, src, factor, w, n_tab):
    """out += the spread points' densities deposited by their taps, tap
    by tap, the (points, nodes) layout raveled: the nodes interleave, and
    each cell sums its points in order. w is overwritten."""
    v = n_tab[src]
    v *= factor
    w *= v
    for tap in range(4):
        np.add.at(out, (cell + tap).ravel(), w[tap].ravel())


def _block_rows(block, xs, W):
    """(data, indices, indptr) of the CSR matrix that takes n_tab to the
    sources of a block of planned nodes on xs (`_block_taps`), its rows
    the cells of the block's rows of length W, C order.

    A resampled window point's row takes n_tab at base + 0..3, in that
    order; a spread window cell's row takes n_tab at the points that
    deposit onto it, in order, each with its weight times spread: listed
    tap 3 first, each tap's points in order, they come by point once
    stably sorted by cell, since a stencil's first node rises with the
    point. A run's rows follow the last run's.
    """
    rows = block.w.size * W
    counts = np.zeros(rows, dtype=np.int64)
    data, indices = [], []
    for resampled, spread in _block_taps(block, xs, xs, W):
        if spread is None:
            at, base, w = resampled
            counts[at] = 4
            indices.append((base.astype(np.int32)[:, None]
                            + _TAPS.astype(np.int32)).ravel())
            data.append(w.T.ravel())
            del at, base
        else:
            cell, src, factor, w = spread
            real = cell < rows
            cell = (cell + _TAPS[::-1, None, None])[:, real].ravel()
            counts += np.bincount(cell, minlength=rows)
            order = np.argsort(cell, kind="stable")
            indices.append(np.tile(src[real].astype(np.int32), 4)[order])
            data.append((w[::-1] * factor)[:, real].ravel()[order])
            del cell, src, real, order
        # this run's taps go before the next run's are made
        del resampled, spread, w
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return np.concatenate(data), np.concatenate(indices), indptr


def _add_block(out, fs, spectra, N, keep, r):
    """out[keep] += every r-th output of the block's node sum, from the
    rffts fs of its nodes' sources at length N (overwritten): the products
    with the spectra and their sum run over the spectra's bins, the bins
    past them are 0."""
    fs = fs[:, :spectra.shape[1]]
    fs *= spectra
    out[keep] += irfft(fs.sum(axis=0),
                       N)[:r * (keep.stop - keep.start - 1) + 1:r]


class _DuhamelOperator:
    """The Duhamel sum on one grid xs as a linear map of n_tab, held.

    Built once from the node plans (`_plan_nodes`, the planner of the
    one-shot sum) of one (xs, ell, table) and the nodes quad = (mu, lam,
    w), with n_tab sampled on xs itself; calling it on n_tab gives the sum
    on xs. Every node takes its plan on xs: on its own grid a node reaches
    the source-grid path of `_duhamel_sum` only at mu >= 1 (H >= h), and
    every node of a Picard solve at t = 1 has mu < 1. The nodes go in
    blocks of up to BLOCK consecutive nodes of one refinement r
    (`_node_blocks`), the layout of the one-shot sum. A block's CSR
    matrix takes n_tab to the source windows of its nodes, stacked with
    stride W (the block's longest window) and zero beyond each window; its
    rows are the 4-tap resample of a mu >= 3h node or the transposed
    spread of a mu < 3h one, made from the taps of the one-shot sum's
    block pass (`_block_taps`, `_block_rows`), bit for bit the rows of
    nodes tapped one by one. Its kernel spectra are those of the one-shot
    sum (`_kernel_spectra`) times the quadrature weights, held: in closed
    form on the P bins below the symbol's underflow where the block's
    length N holds its nodes' kernel reach, else sampled, one kernel
    sampling and one batched rfft a block, bit for bit those of nodes
    sampled and transformed one by one. A call takes one batched rfft per
    block at its length N, the product with the spectra summed over the
    nodes in Fourier space on the spectra's bins, and one irfft that keeps
    every r-th output of the outputs its nodes give (all of xs when r =
    1). With the sampled lags the result matches the node-by-node sum to
    rounding. Of the four blocks at t = 1, the two of the narrowest
    kernels take the closed form on the 2048-interval grid of half-width
    20, whose spectra then hold 0.76 MiB (1.57 MiB all sampled), and all
    four on the default grid (0.18 MiB, against 5.1 MiB).
    """

    def __init__(self, xs, ell, table, quad):
        self.n = xs.size
        blocks = _node_blocks(_operator_nodes(xs, table, quad))
        # (CSR matrix, W, N, spectra, kept outputs, r) of each block
        self.blocks = [_operator_block(block, span, xs, ell, table)
                       for block, span in blocks]

    def __call__(self, n_tab):
        out = np.zeros(self.n)
        for matrix, W, N, spectra, keep, r in self.blocks:
            _add_block(out, rfft((matrix @ n_tab).reshape(-1, W), N),
                       spectra, N, keep, r)
        return out


def _operator_nodes(xs, table, quad):
    """The planned nodes (`_NodePlans`) of the held operator on xs: every
    node of quad that some source reaches, planned on xs.

    The plans are grid-only: a block's taps are made as its CSR matrix is
    (`_operator_block`), and dropped.
    """
    # the widest windows first: the build's temporaries peak while little
    # of the operator is held yet
    return _plan_nodes(xs, xs, [np.asarray(q)[::-1] for q in quad], table,
                       False)[1]


def _operator_block(block, span, xs, ell, table):
    """(CSR matrix, W, N, spectra, kept outputs, r) of a block of planned
    nodes and its span: the matrix from the block's taps (`_block_taps`,
    `_block_rows`), W its longest window."""
    W = int(block.k.max())
    N, keep, r = _block_layout(span)
    matrix = csr_matrix(_block_rows(block, xs, W),
                        shape=(block.w.size * W, xs.size))
    spectra = _kernel_spectra(block, ell, table, N, r * keep.start,
                              _planned_extents(block, span))
    # the quadrature weights go onto the spectra, the node sum of a call
    # then needs none
    spectra *= block.w[:, None]
    return matrix, W, N, spectra, keep, r


# what a Picard solve on the grid xs takes from its table; see
# `_picard_plan`
_PicardPlan = namedtuple("_PicardPlan", "xs operator G g0 g1")


def _picard_plan(table, xs):
    """The `_PicardPlan` of a Picard solve on xs: the grid, its Duhamel
    operator and G(xs), g_0(xs), g_1(xs).

    What a solve at t = 1 and ell = 2 takes from the table depends only on
    the profile grid xs: the `_DuhamelOperator` that applies its Duhamel
    sum, and the kernel samples of the evolved step and of
    `_split_derivatives`. The table holds one such plan, keyed by the
    exact grid; a solve on the same grid reuses it and one on any other
    replaces it. `_step_samples` also reads the samples from it, for a
    reconstruction on the solve's grid. Nothing else releases it: the plan
    lives as long as the table, also when the table solves only once. It
    holds 5.0 MiB on a 2048-interval grid and 16.3 MiB on the default
    grid; the grid and the three samples take 0.06 and 0.25 MiB of that.
    """
    held = table._picard_plan
    if held is None or not np.array_equal(held.xs, xs):
        held = table._picard_plan = _PicardPlan(
            xs.copy(), _DuhamelOperator(xs, 2, table, _duhamel_nodes(1.0, 2)),
            *_step_samples(table, xs))
    return held


def _duhamel_nodes(t, ell):
    """(mu_k, lam_k, weight_k) so that I = sum_k w_k C(mu_k, lam_k; x).

    The 64-point Gauss-Legendre rule in tau = s^{1/4} on [0, t^{1/4}],
    with mu = tau and lam = (t - s)^{1/4}.
    """
    T = t ** 0.25
    tau = 0.5 * T * (_GL_X + 1.0)
    wt = 0.5 * T * _GL_W
    lam = (T ** 4 - tau ** 4) ** 0.25
    return tau, lam, wt * 4.0 * tau * lam ** (-(ell + 1))


def duhamel_integral(psi, t, target_deriv, table, xs=None):
    """int_0^t d^ell exp(-(t-s) d^4) [alpha(v) v_xx + F(v)] ds on the grid xs.

    v is the self-similar field generated by the profile psi. The density
    alpha(psi) psi'' + F(psi) is formed on the profile grid psi.xs; the
    result lives on xs (default psi.xs), which may be any uniform grid.
    The quadrature (`_duhamel_nodes`) substitutes s = tau^4 and uses
    64-point Gauss-Legendre in tau: on a 2048-interval grid of half-width
    20 it is within 2e-7 of a 128-point rule, relative to the Duhamel
    sup, for ell = 1 and 2, corners up to (0.29, 0.29) and t from 1e-2 to
    1e4; past SLOPE_CAP it is the largest error (module docstring). Each
    node is the trapezoid sum over the density's samples up to the
    interpolation of `_duhamel_sum`; from t = 10 on that grid 29 to 51 of
    the 64 nodes take the source-grid path, which convolves the samples
    as they are. For the (0.1, 0.1) profile there, the term is within
    8.7e-9 (t = 1e-2), 8.6e-9 (t = 0.1), 6.7e-10 (t = 10) and 1.8e-11
    (t = 1e4) of the sup from the dense source sum, and within 8.3e-9,
    8.1e-9, 1.9e-9 and 2.9e-10 of the sup from the term of the profile
    solved on twice the intervals. These figures are the same whether a
    block takes its kernel spectra in closed form or from sampled lags
    (`_kernel_spectra`): the two routes differ by under 6e-13 of the sup.
    The density's kernel samples on psi.xs (`_profile_derivatives`) come
    from the table's Picard plan when it is on psi.xs, as after the solve
    of psi on that table, and are evaluated, bit for bit alike, otherwise.
    """
    _check_time(t)
    target_deriv = _check_order(target_deriv, range(3), "target_deriv")
    _check_table(table)
    _check_instance(psi, GridFunction, "psi")
    xs = psi.xs if xs is None else uniform_grid(xs)[0]
    A, B = psi.right_far, -psi.left_far
    psi1, psi2 = _profile_derivatives(psi.ys, psi.xs, psi.h, A, B, table)
    n_tab = _nonlinear_density(psi.ys, psi1, psi2)
    out = _duhamel_sum(n_tab, psi.xs, xs, target_deriv, table,
                       _duhamel_nodes(t, target_deriv))
    return GridFunction(xs, out, 0.0, 0.0, "constant",
                        max(np.abs(out[[0, -1]]).max() * 4.0, 1e-9))


def _decay_fit(psi_ys, psi1, psi2, xs):
    """Fitted (C_ell, exponent) of sup|d^ell v(., t)| over 0.01 <= t <= 100.

    At each t the sup runs over |xs| <= xs[-1] t^{-1/4}: the first
    `searchsorted` samples in order of |xs|, so one running maximum per
    table gives every sup.
    """
    ts = np.geomspace(0.01, 100.0, 9)
    order = np.argsort(np.abs(xs), kind="stable")
    counts = np.searchsorted(np.abs(xs)[order],
                             [xs[-1] * t ** -0.25 for t in ts], side="right")
    fits = {}
    for ell, tab in enumerate((psi_ys, psi1, psi2)):
        # a sup over no sample is 0
        running = np.concatenate(
            [[0.0], np.maximum.accumulate(np.abs(tab[order]))])
        sups = [t ** (-ell / 4.0) * running[c] for t, c in zip(ts, counts)]
        slope, intercept = np.polyfit(np.log(ts), np.log(np.maximum(sups, 1e-300)), 1)
        fits[ell] = (float(np.exp(intercept)), float(slope))
    return fits


def solve_similarity_profile(corner, tol=1e-10, table=None, xs=None):
    """Picard-iterate the profile equation at t = 1.

    Starts from the evolved step and stops when the sup-norm update drops
    below tol. A corner of size SLOPE_CAP or more is refused with
    ConfigError. Five consecutive growing updates abort with
    PicardDivergence; MAX_ITER iterations without convergence raise
    NoConvergence. xs is any uniform grid with xs[0] < 0 < xs[-1]
    (default: DEFAULT_HALF_WIDTH, DEFAULT_INTERVALS), checked before any
    work.

    The table keeps the grid plan of its last solve (`_picard_plan`): the
    Duhamel operator of the grid, which applies the sum over the
    quadrature nodes as one sparse resample per block of nodes, batched
    FFTs and the node sum in Fourier space, and the kernel samples G, g_0
    and g_1 on xs, which `reconstruct_U` and `duhamel_integral` of a
    profile on xs also read. A solve on the same grid reuses them, with
    results bit-identical to a solve on a fresh table; a solve on another
    grid replaces them. They stay with the table until then (16.3 MiB on
    the default grid), so a caller that solves once and keeps the table
    keeps them too. Linear data (A = -B) have the density 0 exactly, so
    their solve applies no Duhamel sum and returns psi = A, bit for bit,
    at iteration 1.
    """
    _check_instance(corner, CornerData, "corner")
    _check_table(table)
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < np.inf):
        raise ValidationError(f"tol must be a positive finite number, "
                              f"got {tol!r}")
    if xs is None:
        xs = symmetric_grid(DEFAULT_HALF_WIDTH, DEFAULT_INTERVALS)
    xs, h = uniform_grid(xs)
    if not xs[0] < 0.0 < xs[-1]:
        raise ValidationError(f"the solve grid [{xs[0]:g}, {xs[-1]:g}] must "
                              f"straddle 0: the profile joins the far "
                              f"slopes -B and A on either side of it")
    if not corner.within_cap():
        raise ConfigError(
            f"corner size {corner.size:.3g} exceeds slope_cap "
            f"{SLOPE_CAP:.3g}; the contraction argument needs small data")
    A, B = corner.A, corner.B
    plan = _picard_plan(table, xs)
    step = _evolved_step(A, B, plan.G)
    psi = step.copy()
    duhamel, g0, g1 = plan.operator, plan.g0, plan.g1
    history = []
    growing = 0
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        psi1, psi2 = _split_derivatives(psi, h, A + B, step, g0, g1)
        n_tab = _nonlinear_density(psi, psi1, psi2)
        # linear data (A = -B) have the density 0 exactly, and D(0) = 0
        psi_next = step + duhamel(n_tab) if n_tab.any() else step.copy()
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
            f"no convergence within the iteration limit MAX_ITER = "
            f"{MAX_ITER} (last update {history[-1]:.3e})", history)
    psi1, psi2 = _split_derivatives(psi, h, A + B, step, g0, g1)
    tail_gap = max(abs(psi[0] + B), abs(psi[-1] - A))
    psi_gf = GridFunction(xs, psi, -B, A, "constant",
                          max(4.0 * tail_gap, 1e-9))
    decay = _decay_fit(psi, psi1, psi2, xs)
    return SimilarityProfile(psi_gf, corner, iterations, history, decay,
                             converged, psi1, psi2)


def reconstruct_U(profile, t, table, xs=None):
    """Height function U(., t) = evolved corner + first-derivative Duhamel.

    U lives on xs, the profile grid by default; any uniform grid works.
    """
    _check_instance(profile, SimilarityProfile, "profile")
    _check_table(table)
    if not profile.converged:
        raise StaleProfile("profile did not converge; refusing to reconstruct")
    _check_time(t)
    corner = profile.corner
    xs = profile.psi.xs if xs is None else uniform_grid(xs)[0]
    base = corner_height(corner.A, corner.B, t, table, xs)
    duh = duhamel_integral(profile.psi, t, 1, table, xs=xs)
    U = GridFunction(xs, base.ys + duh.ys, -corner.B, corner.A, "linear")
    ux = _fd(U.ys, U.h, 1)
    slope_consistency = inner_sup(ux - profile.psi.interp(xs * t ** -0.25))
    phi = U if abs(t - 1.0) <= 1e-12 else None
    return ReconstructedSolution(U, t, phi, slope_consistency, corner)


def inner_sup(values):
    """Sup norm over the central 80% of the samples (`grid._inner`)."""
    inner = _inner(values)
    if not inner.size:
        raise ValidationError("inner_sup needs at least one value, got an "
                              "empty array")
    return float(np.max(np.abs(inner)))


def self_similarity_residual(profile, sigma, t, table):
    """sup over the inner 80% of |sigma^{-1/4} U(sigma^{1/4} x, sigma t) - U(x,t)|."""
    _check_time(t)
    _check_time(sigma, "sigma")
    _check_time(sigma * t, "sigma * t")
    _check_instance(profile, SimilarityProfile, "profile")
    _check_table(table)
    if sigma == 1.0 and profile.converged:  # reconstruct_U refuses the rest
        return 0.0
    return _self_similarity_gap(reconstruct_U(profile, t, table),
                                reconstruct_U(profile, sigma * t, table),
                                sigma)


def _self_similarity_gap(sol, sol2, sigma):
    """The residual of `self_similarity_residual` from U at t and sigma t."""
    fac = sigma ** -0.25
    rescaled = fac * sol2.U.interp(sol.U.xs / fac)
    return inner_sup(rescaled - sol.U.ys)


def constant_shift_residual(solution, c, table):
    """Recompute the height equation's right side from U + c.

    Shifting U by a constant leaves every x-derivative, hence the whole
    right-hand side, unchanged; the defect must come back as |c| up to the
    solver's own residual. The slope field is re-extracted from the shifted
    heights rather than reused, so the check exercises the full pipeline.
    """
    if not (isinstance(c, numbers.Real) and np.isfinite(c)):
        raise ValidationError(f"c must be a finite number, got {c!r}")
    _check_instance(solution, ReconstructedSolution, "solution")
    _check_table(table)
    U, t, corner = solution.U, solution.t, solution.corner
    shifted = U.shift_values(c)
    # psi(xi) = U_x(xi t^{1/4}), sampled on the nodes xs t^{-1/4}
    psi_w = _fd(shifted.ys, shifted.h, 1)
    psi_gf = GridFunction(shifted.xs * t ** -0.25, psi_w, -corner.B,
                          corner.A, "constant",
                          max(1e-6, 4.0 * max(abs(psi_w[0] + corner.B),
                                              abs(psi_w[-1] - corner.A))))
    base = corner_height(corner.A, corner.B, t, table, shifted.xs)
    duh = duhamel_integral(psi_gf, t, 1, table, xs=shifted.xs)
    rhs = base.ys + duh.ys
    return inner_sup(shifted.ys - rhs)


def save_profile(profile, csv_path):
    """CSV `xi,psi` plus a .meta.json sidecar with the solve record;
    returns both paths."""
    _check_instance(profile, SimilarityProfile, "profile")
    meta = {
        "A": profile.corner.A,
        "B": profile.corner.B,
        "iterations": profile.iterations,
        "residual_history": profile.residual_history,
        "decay_constants": {str(k): v for k, v in
                            profile.decay_constants.items()},
        "converged": profile.converged,
        "far_tail_tol": profile.psi.tail_tol,
    }
    return _write_csv(csv_path, "xi,psi", profile.psi.xs, profile.psi.ys,
                      meta=meta, suffix=".meta.json")


def load_profile(csv_path, table):
    """The profile `save_profile` wrote to csv_path and its sidecar."""
    (xs, ys), meta = _read_csv(
        csv_path, 2, ("A", "B", "iterations", "residual_history",
                      "decay_constants", "converged"), ".meta.json")
    _check_table(table)
    # an older sidecar's "slope_cap" key is ignored
    corner = CornerData(meta["A"], meta["B"])
    psi = GridFunction(xs, ys, -corner.B, corner.A, "constant",
                       meta.get("far_tail_tol", 1e-3))
    psi1, psi2 = _profile_derivatives(ys, xs, psi.h, corner.A, corner.B,
                                      table)
    decay = {int(k): tuple(v) for k, v in meta["decay_constants"].items()}
    return SimilarityProfile(psi, corner, meta["iterations"],
                             meta["residual_history"], decay,
                             meta["converged"], psi1, psi2)
