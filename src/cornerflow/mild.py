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

from ._slowpath import lagrange_taps, lagrange_weights, quintic_eval
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


def _evolved_step(A, B, table, xs):
    """The step -B (x<0) -> A (x>0) evolved to t = 1: -B + (A + B) G(xs)."""
    return -B + (A + B) * table.eval_G(xs)


def _profile_derivatives(psi_ys, xs, h, A, B, table):
    """psi', psi'' via the step/remainder split.

    The evolved step carries the non-decaying part of psi; its derivatives
    are kernel evaluations. Only the decaying remainder is differenced.
    Profiles live at t = 1, where the step is `_evolved_step`.
    """
    return _split_derivatives(psi_ys, h, A + B, _evolved_step(A, B, table, xs),
                              table.eval_g(0, xs), table.eval_g(1, xs))


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


# the grid-only part of one planned node of `_duhamel_sum`; see `_fft_plan`
_NodePlan = namedtuple("_NodePlan",
                       "lo base u k span lags a h spread r out0 nout")
# what sets the FFT length of a block of nodes; see `_wrap_free_length`
_Span = namedtuple("_Span", "r lower upper fixed start end")


def _fft_plan(n_xs, xs, mu, lam, ell, table):
    """The grid-only part of one planned node of `_duhamel_sum`.

    On xs, refined r-fold when lam < 3h, with spacing h and n points, the
    sources are padded out to mu * n_xs (or the kernel reach, if nearer)
    on each side, and only the window of k padded points that some source
    reaches is convolved. Returns a `_NodePlan`, or None when no source
    reaches xs. For mu >= 3h spread is None and the window is the
    k = base.size padded points that fall on the profile grid, with
    4-point Lagrange taps (base, u) into n_tab: the stencils base + 0..3
    and the weights lagrange_weights(u) on them, evaluated as the node's
    sources are made (`_window_sources`, `_window_rows`). For mu < 3h the
    points mu n_xs[lo:lo + base.size] fall on the padded grid and deposit
    spread times their density by the taps (base, u) onto the k-cell
    window, base counted from its first cell. The kernel g_ell(d h / lam) is needed only on the lags
    d = d_lo .. d_hi that join a window point to an output; lags =
    (d_lo, d_hi, h / lam) are the arguments of `_block_kernel_lags`, which
    samples them for a whole block of nodes. a is the index of output 0
    in the linear convolution of the window with the lags.

    The node gives the nout outputs xs[out0:out0 + nout]; the others are
    zero. Unrefined, they are all of xs; refined, they are the outputs of
    xs that some source reaches, which at small t are a few per cent of
    them. With the sources src on the window and lo = r out0, they are
    irfft(rfft(src, N) khat, N)[:r (nout - 1) + 1:r] for any N at least
    the wrap-free length of the node's span, where khat is h rfft of the
    lags rotated by a + lo at length N (`_kernel_spectra`): the block of
    nodes chooses the FFT length from the join of their spans
    (`_wrap_free_length`, `_block_layout`).
    """
    h = _spacing(xs)
    r = 1 if lam >= 3.0 * h else int(np.ceil(24.0 * h / lam))
    if r > 1:
        xs = np.linspace(xs[0], xs[-1], r * (xs.size - 1) + 1)
        h = _spacing(xs)
    n = xs.size
    # sources up to a kernel reach outside xs still reach xs: pad the
    # output grid out to mu * n_xs (or that reach) on each side
    reach = int(np.ceil(table.eta_max * lam / h))
    pl = min(reach, max(0, int(np.ceil((xs[0] - mu * n_xs[0]) / h))))
    pr = min(reach, max(0, int(np.ceil((mu * n_xs[-1] - xs[-1]) / h))))
    spread = None
    if mu >= 3.0 * h:
        pts = np.concatenate([xs[0] - h * np.arange(pl, 0, -1), xs,
                              xs[-1] + h * np.arange(1, pr + 1)]) / mu
        lo, base, u = lagrange_taps(n_xs[0], _spacing(n_xs), n_xs.size,
                                    pts)
        k, first = base.size, lo - pl
    else:
        spread = mu * _spacing(n_xs) / h
        lo, base, u = lagrange_taps(xs[0] - pl * h, h, pl + n + pr,
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
    out0, nout = 0, (n - 1) // r + 1
    if r > 1:
        # the linear convolution holds outputs -a .. k + lags - 2 - a; keep
        # the outputs of xs among them
        out0 = -(-max(0, -a) // r)
        nout = (min(n, k + lags - 1 - a) - 1) // r + 1 - out0
        if nout < 1:
            return None
    # the node keeps the outputs r out0 .. r (out0 + nout - 1) of the
    # refined xs; its linear convolution holds the outputs -a .. past - 1
    span = _Span(r, r * out0, r * (out0 + nout - 1) + 1, max(k, lags), -a,
                 k + lags - 1 - a)
    return _NodePlan(lo, base, u, k, span, (d_lo, d_hi, h / lam), a, h,
                     spread, r, out0, nout)


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
    is the transpose (`_source_node`): the nodes share the window of
    sources lower .. upper - 1 and each keeps its own outputs, which the
    sources start .. end - 1 reach; the same bounds hold, with fixed =
    max(lags, kept outputs). A block's span joins its nodes' ones
    (`_joined`), so its length is the largest of its nodes' lengths with
    the shared range joined.
    """
    return max(span.fixed, span.upper - span.lower, span.end - span.lower,
               span.upper - span.start)


def _joined(a, b):
    """The span of a block of the nodes of spans a and b, of one r."""
    return _Span(a.r, min(a.lower, b.lower), max(a.upper, b.upper),
                 max(a.fixed, b.fixed), min(a.start, b.start),
                 max(a.end, b.end))


def _on_source_grid(n_xs, xs, mu, lam):
    """Whether a node is convolved on its source grid: H = mu nh >= h and
    the kernel resolved there, lam >= 3H (`_rescaled_convolution`)."""
    H = mu * _spacing(n_xs)
    return H >= _spacing(xs) and lam >= 3.0 * H


# one node of `_duhamel_sum` on its source grid; see `_source_node`
_SourceNode = namedtuple("_SourceNode", "lags a h y0 nout span")


def _source_node(n_xs, xs, mu, lam, table):
    """The grid-only part of one node on its source grid, or None when no
    source reaches xs.

    The node's outputs are the nodes lo .. hi - 1 of its source grid Y =
    mu (n_xs[0] + nh j), of spacing h = H = mu nh, that cover xs with 3
    to spare on each side: nout of them, from y0 = Y_lo. Output i takes
    H sum_j g_ell((i - j) H / lam) n_tab[j] over the lags d = i - j = d_lo
    .. d_hi within the kernel reach, lags = (d_lo, d_hi, H / lam), as in
    `_fft_plan`. A block of such nodes convolves the window n_tab[lower:
    upper] of its span, which holds the sources of every node; there
    output lo sits at index a - lower of the linear convolution, a = lo -
    d_lo.
    """
    nh = _spacing(n_xs)
    H = mu * nh
    lo = int(np.floor((xs[0] / mu - n_xs[0]) / nh)) - 3
    hi = int(np.ceil((xs[-1] / mu - n_xs[0]) / nh)) + 4
    reach = int(np.ceil(table.eta_max / (H / lam)))
    d_lo, d_hi = max(-reach, lo - (n_xs.size - 1)), min(reach, hi - 1)
    if d_lo > d_hi:
        return None
    # the sources lo - d_hi .. hi - 1 - d_lo reach the outputs
    start, end = lo - d_hi, hi - d_lo
    span = _Span(1, max(0, start), min(n_xs.size, end),
                 max(d_hi - d_lo + 1, hi - lo), start, end)
    return _SourceNode((d_lo, d_hi, H / lam), lo - d_lo, H,
                       mu * (n_xs[0] + nh * lo), hi - lo, span)


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
    node = _source_node(n_xs, xs, mu, lam, table)
    if node is not None:
        _add_source_block(out, [(1.0, node)], node.span, n_tab, xs, ell,
                          table)
    return out


def _duhamel_sum(n_tab, n_xs, xs, ell, table, quad):
    """Sum over the nodes quad = (mu, lam, w); n_tab on n_xs, output on xs.

    A one-shot sum: each node's convolution C(x) = int g_ell((x-y)/lam)
    n(y/mu) dy takes one of two paths, and the sum keeps no plan.
    `duhamel_integral` (hence `reconstruct_U`) sums this way; a Picard
    solve, which sums on one grid many times, applies the
    `_DuhamelOperator` its table holds instead.

    A node on its source grid (`_on_source_grid`, `_source_node`) is
    convolved there and interpolated to xs (`_rescaled_convolution`).
    Such nodes share their sources, the density as sampled, so they go in
    blocks of up to BLOCK consecutive nodes (`_node_blocks`): one rfft of
    the block's density window, one batched irfft of its products with
    the nodes' kernel spectra, and a `quintic_eval` a node
    (`_add_source_block`).

    Every other node, its sources off the nodes of xs, takes its plan on
    xs (`_fft_plan`): the sources go onto xs, padded out to the kernel
    reach, and the window of them that reaches xs is FFT-convolved with
    the kernel samples g_ell(d h / lam). When mu >= 3h the density is
    resampled by 4-point Lagrange interpolation; when mu < 3h the
    quadrature weights mu nh n_tab[j] are spread from the points mu n_xs[j]
    by the transposed interpolation, the spreading step of a non-uniform
    FFT (Greengard & Lee 2004), with error O((h/lam)^4) against the dense
    source sum. When lam < 3h the kernel is not resolved on xs, so the
    node runs on xs refined r-fold, r = ceil(24 h / lam), keeps every r-th
    output, and computes only the refined outputs that some source
    reaches. Why 24: against the own-grid Duhamel terms (t = 1e-2 and
    1e-3, 128 and 256 cells on [-20, 20]) the worst gap over the Duhamel
    sup reads 3e-5 at r = ceil(3h / lam), 6e-7 at 6h, 3e-9 at 12h and
    1e-10 at 24h, below the 8e-10 of the dense source sum. The spread
    nodes set this; the resampled ones need only r >= ceil(3h / lam).

    The planned nodes go in blocks of up to BLOCK consecutive nodes of
    one r (`_node_blocks`), as in the held operator. The resampled or
    spread sources of a block's nodes fill the rows of one array, each
    node's tap weights made and dropped in turn, and one batched rfft of
    it, the weighted node sum in Fourier space and one irfft that keeps
    every r-th output give the block's share (`_add_block`).

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
    on_grid, planned = [], []
    for mu, lam, w in zip(*quad):
        if _on_source_grid(n_xs, xs, mu, lam):
            on_grid.append((w, _source_node(n_xs, xs, mu, lam, table)))
        else:
            planned.append((mu, lam, w))
    for block, span in _node_blocks(on_grid):
        _add_source_block(out, block, span, n_tab, xs, ell, table)
    plans = ((w, _fft_plan(n_xs, xs, mu, lam, ell, table))
             for mu, lam, w in planned)
    for block, span in _node_blocks(plans):
        N, keep, r = _block_layout(span)
        spectra = _kernel_spectra(block, ell, table, N, r * keep.start,
                                  _planned_extents(block, span))
        src = np.zeros((len(block), N))
        # each node's quadrature weight goes onto its k sources
        for row, (wt, node) in zip(src, block):
            _window_sources(row[:node.k], node, n_tab)
            row[:node.k] *= wt
        _add_block(out, rfft(src), spectra, N, keep, r)
    return out


def _add_source_block(out, block, span, n_tab, xs, ell, table):
    """out += each node's weight times its convolution, taken from its
    source grid to xs, for a block of (weight, `_SourceNode`) of this span.

    The nodes share the density window n_tab[span.lower:span.upper], so
    one rfft of it at the block's length N, times the kernel spectra of
    the nodes (`_kernel_spectra`, H in place of h) on the spectra's bins,
    and one batched irfft give each node's outputs on its own source grid,
    from index 0. Each row goes to xs by `quintic_eval`.
    """
    N = _block_layout(span)[0]
    window = span.upper - span.lower
    spectra = _kernel_spectra(block, ell, table, N, -span.lower,
                              [(window, node.nout) for _, node in block])
    spectra *= rfft(n_tab[span.lower:span.upper], N)[:spectra.shape[1]]
    for (wt, node), row in zip(block, irfft(spectra, N)):
        out += wt * quintic_eval(row[:node.nout], node.y0, node.h, xs)


def _node_blocks(items):
    """The items (weight, node, ...) in blocks of up to BLOCK consecutive
    nodes of one refinement r, each block with the join of its nodes'
    spans (`_Span`); items whose node is None are dropped."""
    block, span = [], None
    for item in items:
        node = item[1]
        if node is None:
            continue
        if block:
            if node.span.r == span.r and len(block) < BLOCK:
                block.append(item)
                span = _joined(span, node.span)
                continue
            yield block, span
        block, span = [item], node.span
    if block:
        yield block, span


def _block_layout(span):
    """(N, kept outputs, r) of a block of this span: N is the shortest
    fast length that gives all its outputs unwrapped, and the kept
    outputs of a planned block, the union of its nodes' ones, are those
    of xs. A source-grid block takes N alone."""
    r = span.r
    N = next_fast_len(_wrap_free_length(span), real=True)
    return N, slice(span.lower // r, (span.upper - 1) // r + 1), r


def _kernel_spectra(block, ell, table, N, lo, extents):
    """The kernel spectra of a block of (weight, node, ...) at FFT length N:
    row i is h_i times the DFT of node i's lags rotated by a_i + lo.

    extents lists each node's (sources, outputs): its row convolves
    sources points, from index 0, into outputs points, from index 0, and
    its index j holds the lag c + j mod N, c = a + lo + d_lo. Where N holds
    every node's whole kernel reach (`_images_clear`) the rows are the
    kernel's symbol in closed form on the bins where it has not
    underflowed (`_symbol_spectra`), else the rfft of the sampled lags on
    all N // 2 + 1 bins (`_sampled_spectra`). Either way a product with
    the rows' sources runs over the rows' bins alone (`_add_block`,
    `_add_source_block`): the bins past them are 0.
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
    for (_, node, *_), (sources, outputs) in zip(block, extents):
        d_lo, _, scale = node.lags
        c = node.a + lo + d_lo
        if N < np.ceil(table.eta_max / scale) + max(c + outputs,
                                                    sources - c):
            return False
    return True


def _planned_extents(block, span):
    """The (sources, outputs) of each planned node of a block of this span
    (`_kernel_spectra`): its k window points and the block's kept outputs,
    every refined output from the first kept one to the last."""
    return [(node.k, span.upper - span.lower) for _, node, *_ in block]


def _symbol_spectra(block, ell, N, lo):
    """The (nodes, P) closed-form rows of `_kernel_spectra` for a block
    whose length N holds every node's kernel reach (`_images_clear`).

    By Poisson summation h sum_d g_ell(d h / lam) exp(-2 pi i p d / N) is
    lam (i kappa)^ell exp(-kappa^4), kappa = 2 pi p lam / (N h), up to the
    aliases at kappa + 2 pi j lam / h, j != 0, which vanish (lam >= 3h);
    the rotation by c = a + lo + d_lo multiplies bin p by exp(2 pi i p c /
    N). The rows hold the P bins below the underflow cut of their widest
    symbol (`kernel._kernel_symbols`); the phase is taken of p c mod N, so
    that it stays exact however far the rotation runs.
    """
    scale = np.array([node.lags[2] for _, node, *_ in block])[:, None]
    c = np.array([node.a + lo + node.lags[0] for _, node, *_ in block])
    sym = _kernel_symbols(2.0 * np.pi / N * np.arange(N // 2 + 1), (ell,),
                          1.0 / scale)[0]
    turns = np.arange(sym.shape[1]) * c[:, None] % N
    lam = np.array([node.h for _, node, *_ in block])[:, None] / scale
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
    kers = _block_kernel_lags(table, ell, [node.lags for _, node, *_ in block])
    rows = np.zeros((len(block), N))
    for row, (_, node, *_), ker in zip(rows, block, kers):
        k, s = ker.size, (node.a + lo) % N
        head = min(s, k)
        row[N - s:N - s + head] = ker[:head]
        row[:k - head] = ker[head:]
    spectra = rfft(rows)
    spectra *= np.array([node.h for _, node, *_ in block])[:, None]
    return spectra


def _window_sources(row, node, n_tab):
    """A node's sources on its window, into row (length node.k): n_tab
    resampled by its 4 taps, summed in order, or spread by them."""
    base, w = node.base, lagrange_weights(node.u)
    if node.spread is None:
        # n_tab[k:][base] is n_tab[base + k]
        np.multiply(w[0], n_tab[base], out=row)
        for k in (1, 2, 3):
            tap = n_tab[k:][base]
            tap *= w[k]
            row += tap
    else:
        v = node.spread * n_tab[node.lo:node.lo + base.size]
        row[:] = np.bincount((base + np.arange(4)[:, None]).ravel(),
                             (w * v).ravel(), minlength=node.k)


def _add_block(out, fs, spectra, N, keep, r):
    """out[keep] += every r-th output of the block's node sum, from the
    rffts fs of its nodes' sources at length N (overwritten): the products
    with the spectra and their sum run over the spectra's bins, the bins
    past them are 0."""
    fs = fs[:, :spectra.shape[1]]
    fs *= spectra
    out[keep] += irfft(fs.sum(axis=0),
                       N)[:r * (keep.stop - keep.start - 1) + 1:r]


def _window_rows(node):
    """(counts, cols, vals): the CSR rows that take n_tab to a node's window.

    Row p of the k window points holds counts[p] entries; cols and vals
    list them row by row, each row's columns in increasing order.
    """
    taps = (node.base[:, None] + np.arange(4)).ravel()
    points = np.repeat(np.arange(node.base.size, dtype=np.int32), 4)
    w = lagrange_weights(node.u)
    if node.spread is None:
        # window point p takes n_tab at base[p] + 0..3
        return (np.full(node.k, 4, dtype=np.int32), taps.astype(np.int32),
                w.T.ravel())
    # n_tab at lo + j goes onto the window cells base[j] + 0..3; listed
    # point by point, a stable sort by cell keeps each cell's points in order
    order = np.argsort(taps, kind="stable")
    return (np.bincount(taps, minlength=node.k).astype(np.int32),
            node.lo + points[order], (w.T * node.spread).ravel()[order])


class _DuhamelOperator:
    """The Duhamel sum on one grid xs as a linear map of n_tab, held.

    Built once from the node plans (`_fft_plan`) of one (xs, ell, table) and
    the nodes quad = (mu, lam, w), with n_tab sampled on xs itself; calling
    it on n_tab gives the sum on xs. Every node takes its plan on xs: on its
    own grid a node reaches the source-grid path of `_duhamel_sum` only at
    mu >= 1 (H >= h), and every node of a Picard solve at t = 1 has mu < 1.
    The nodes go in blocks of up to BLOCK consecutive nodes of one
    refinement r (`_node_blocks`), the layout of the one-shot sum. A
    block's CSR matrix takes n_tab to the source windows of its nodes,
    stacked with stride W (the block's longest window) and zero beyond
    each window; its rows are the 4-tap resample of a mu >= 3h node or
    the transposed spread of a mu < 3h one. Its kernel spectra are those
    of the one-shot sum (`_kernel_spectra`) times the quadrature weights,
    held: in closed form on the P bins below the symbol's underflow where
    the block's length N holds its nodes' kernel reach, else sampled, one
    kernel sampling and one batched rfft a block, bit for bit those of
    nodes sampled and transformed one by one. A call takes one batched
    rfft per block at its length N, the product with the spectra summed
    over the nodes in Fourier space on the spectra's bins, and one irfft
    that keeps every r-th output of the outputs its nodes give (all of xs
    when r = 1). With the sampled lags the result matches the node-by-node
    sum to rounding. Of the four blocks at t = 1,
    the two of the narrowest kernels take the closed form on the
    2048-interval grid of half-width 20, whose spectra then hold 0.76 MiB
    (1.57 MiB all sampled), and all four on the default grid (0.18 MiB,
    against 5.1 MiB).
    """

    def __init__(self, xs, ell, table, quad):
        self.n = xs.size
        blocks = _node_blocks(_operator_nodes(xs, ell, table, quad))
        # (CSR matrix, W, N, spectra, kept outputs, r) of each block
        self.blocks = [_operator_block(block, span, xs.size, ell, table)
                       for block, span in blocks]

    def __call__(self, n_tab):
        out = np.zeros(self.n)
        for matrix, W, N, spectra, keep, r in self.blocks:
            _add_block(out, rfft((matrix @ n_tab).reshape(-1, W), N),
                       spectra, N, keep, r)
        return out


def _operator_nodes(xs, ell, table, quad):
    """(weight, node plan, window rows) of the nodes on xs: the taps go
    into CSR rows at once, and the plan keeps no taps."""
    # the widest windows first: the build's temporaries peak while little
    # of the operator is held yet
    for mu, lam, wt in reversed(list(zip(*quad))):
        node = _fft_plan(xs, xs, mu, lam, ell, table)
        if node is not None:
            yield wt, node._replace(base=None, u=None), _window_rows(node)


def _operator_block(block, span, n_src, ell, table):
    """(CSR matrix, W, N, spectra, kept outputs, r) of a block of (weight,
    node plan, window rows) and its span."""
    W = max(node.k for _, node, _ in block)
    N, keep, r = _block_layout(span)
    counts = [np.zeros(1, dtype=np.int32)]
    for _, _, (cnt, _, _) in block:
        counts += [cnt, np.zeros(W - cnt.size, dtype=np.int32)]
    matrix = csr_matrix(
        (np.concatenate([rows[2] for _, _, rows in block]),
         np.concatenate([rows[1] for _, _, rows in block]),
         np.cumsum(np.concatenate(counts))),
        shape=(len(block) * W, n_src))
    spectra = _kernel_spectra(block, ell, table, N, r * keep.start,
                              _planned_extents(block, span))
    # the quadrature weights go onto the spectra, the node sum of a call
    # then needs none
    spectra *= np.array([wt for wt, _, _ in block])[:, None]
    return matrix, W, N, spectra, keep, r


def _picard_plan(table, xs):
    """(Duhamel operator, g_0(xs), g_1(xs)) of a Picard solve on xs.

    What a solve at t = 1 and ell = 2 takes from the table depends only on
    the profile grid xs: the `_DuhamelOperator` that applies its Duhamel
    sum and the kernel samples of `_split_derivatives`. The table holds one
    such plan, keyed by the exact grid; a solve on the same grid reuses it
    and one on any other replaces it. Nothing else releases it: the plan
    lives as long as the table, also when the table solves only once. The
    operator holds 5.0 MiB on a 2048-interval grid and 16 MiB on the
    default grid.
    """
    held = table._picard_plan
    if held is None or not np.array_equal(held[0], xs):
        held = (xs.copy(),
                _DuhamelOperator(xs, 2, table, _duhamel_nodes(1.0, 2)),
                table.eval_g(0, xs), table.eval_g(1, xs))
        table._picard_plan = held
    return held[1:]


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
    FFTs and the node sum in Fourier space, and the kernel samples on xs.
    A solve on the same grid reuses them, with results bit-identical to a
    solve on a fresh table; a solve on another grid replaces them. They
    stay with the table until then (16 MiB on the default grid), so a
    caller that solves once and keeps the table keeps them too. Linear
    data (A = -B) have the density 0 exactly, so their solve applies no
    Duhamel sum and returns psi = A, bit for bit, at iteration 1.
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
    step = _evolved_step(A, B, table, xs)
    psi = step.copy()
    duhamel, g0, g1 = _picard_plan(table, xs)
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
