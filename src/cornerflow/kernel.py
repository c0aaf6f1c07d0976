"""Biharmonic heat kernel tables and the semigroup exp(-t d^4/dx^4).

The kernel g(eta) = (1/pi) int_0^inf exp(-k^4) cos(k eta) dk and its first
three derivatives g_ell = (1/pi) Re int_0^inf (ik)^ell exp(-k^4) e^{ik eta} dk
are tabulated once on a half-line grid of spacing h; evenness supplies the
other half. The trapezoid rule in k with spacing 2 pi/(m h) is one inverse
real FFT of length m. By Poisson summation its only errors are the periodic
images g(eta + j m h), j != 0, and the symbol cut at the Nyquist frequency
pi/h. With m h > 4 eta_max the nearest image lies at least 3 eta_max >= 45
away, where the envelope g_env exp(-ENVELOPE_RATE |eta|^{4/3}) is below
4e-17 g_env at eta_max = 15 and 2e-61 g_env at 40; with h <= 1/2 the
symbol past pi/h is below exp(-(2 pi)^4) < 1e-600. The symbol underflows
to 0 past k = 746^{1/4}, so only the bins below it are filled.
Every application of the semigroup then reduces to interpolation in the
similarity variable x t^{-1/4}, with far-field steps handled in closed form
through the antiderivative G so that non-decaying inputs never meet the
discrete convolution. The kernel solves g''' = eta g / 4; integrated once
from -inf (by parts, int_{-inf}^eta y g = eta G - int_{-inf}^eta G) this
gives the second antiderivative exactly as eta G - 4 g'', so corners evolve
in closed form from the tables of G and g'' (`corner_height`).
"""
import numbers

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from . import _backend
from .errors import (ConfigError, InvalidTime, UnsupportedFarField,
                     ValidationError)
from .grid import (GridFunction, _check_instance, _cumulative_simpson,
                   _read_csv, _simpson, _write_csv, symmetric_grid,
                   uniform_grid, whole_number)

_PARITY = (0, 1, 0, 1)  # g even, g' odd, g'' even, g''' odd
ENVELOPE_RATE = 3.0 / 2.0 ** (11.0 / 3.0)  # stationary-phase decay exponent
ENVELOPE_FLOOR = 1e-13  # rounding floor of the tables, relative to g(0)
# the |eta| (about 37.8) where the envelope meets ENVELOPE_FLOOR
ENVELOPE_REACH = (-np.log(ENVELOPE_FLOOR) / ENVELOPE_RATE) ** 0.75
# the defaults of build_kernel_table and of `cornerflow kernel`
DEFAULT_ETA_MAX = 40.0
DEFAULT_NODES = 16384


class KernelTable:
    """Five half-line tables: g, g', g'', g''' and the antiderivative G.

    The second antiderivative, eta G - 4 g'' (module docstring), needs no
    table; it gives the closed-form evolution of corner data. g_env is the
    smallest prefactor
    for which |g| <= g_env exp(-ENVELOPE_RATE |eta|^{4/3}) on the core
    nodes, where exp(-ENVELOPE_RATE eta^{4/3}) >= ENVELOPE_FLOOR (eta below
    about 37.8). Past them the envelope through g(0) falls under the
    rounding floor ENVELOPE_FLOOR |g(0)|, the tables hold rounding noise,
    and only |g| <= max(envelope, floor) is required; weighting that noise
    by exp(ENVELOPE_RATE eta^{4/3}) would let it set g_env. mass is the
    integral of g over the window, checked against 1. etas must be a
    uniform grid from 0, and every table must hold one finite sample per
    node; anything else raises ValidationError.
    """

    def __init__(self, etas, g_tables, G):
        etas, _ = uniform_grid(etas)
        if etas[0] != 0.0:
            raise ValidationError(f"a kernel table starts at eta = 0, got "
                                  f"{etas[0]!r}")
        g_tables = tuple(g_tables)
        if len(g_tables) != 4:
            raise ValidationError(f"a kernel table holds g0 .. g3, got "
                                  f"{len(g_tables)} tables")
        # nan samples would pass the mass and envelope checks (nan compares
        # false)
        for name, ys in zip(("g0", "g1", "g2", "g3", "G"), (*g_tables, G)):
            if not (np.shape(ys) == etas.shape and np.all(np.isfinite(ys))):
                raise ValidationError(f"kernel table {name} must hold "
                                      f"{etas.size} finite samples")
        self.etas = etas
        self.eta_max = float(etas[-1])
        self.n_nodes = etas.size
        self.h = float(etas[1] - etas[0])
        self.g_ell = g_tables  # tuple of 4 arrays
        self.G = G
        # the envelope's exponent at every node, for g_env and the check
        rate = ENVELOPE_RATE * etas ** (4.0 / 3.0)
        core = rate < -np.log(ENVELOPE_FLOOR)
        self.g_env = float(np.max(np.abs(g_tables[0][core])
                                  * np.exp(rate[core])))
        self._check(rate)
        # the grid plan of the last Picard solve on this table (see
        # mild._picard_plan); one slot, replaced by a solve on another grid
        self._picard_plan = None

    def _check(self, rate):
        """The mass and envelope checks, rate = ENVELOPE_RATE etas^(4/3)."""
        self.mass = mass = float(2.0 * _simpson(self.g_ell[0], self.h))
        # the window integral misses the tail beyond eta_max; budget it by
        # the envelope bound int_L^inf e^{-c m^{4/3}} dm <= 3/(4c) L^{-1/3}
        # e^{-c L^{4/3}} (negligible at the default eta_max = 40)
        tail = (2.0 * self.g_env * 3.0 / (4.0 * ENVELOPE_RATE)
                * self.eta_max ** (-1.0 / 3.0)
                * np.exp(-ENVELOPE_RATE * self.eta_max ** (4.0 / 3.0)))
        if abs(mass - 1.0) > 1e-8 + 2.0 * tail:
            raise ValidationError(f"kernel mass off by {mass - 1.0:.3e}")
        env = self.g_env * np.exp(-rate)
        floor = ENVELOPE_FLOOR * abs(self.g_ell[0][0])
        if np.any(np.abs(self.g_ell[0]) > np.maximum(env * (1.0 + 1e-12),
                                                     floor)):
            raise ValidationError("kernel envelope violated")

    # -- pointwise evaluation, zero (or asymptote) beyond eta_max --

    def eval_g(self, ell, eta):
        ell = _check_order(ell, range(4), "the derivative order")
        return _backend.sym_eval(self.g_ell[ell], self.h, _PARITY[ell], eta)

    def eval_G(self, x):
        x = np.asarray(x, dtype=float)
        odd = _backend.sym_eval(self.G - 0.5, self.h, 1, x)
        out = 0.5 + odd
        return np.where(np.abs(x) > self.eta_max,
                        np.where(x > 0.0, 1.0, 0.0), out)

    def l1_norm(self, ell):
        """integral of |g_ell| over the line (tables are even/odd)."""
        ell = _check_order(ell, range(4))
        return 2.0 * _simpson(np.abs(self.g_ell[ell]), self.h)

    def sup_norm(self, ell):
        ell = _check_order(ell, range(4))
        return float(np.max(np.abs(self.g_ell[ell])))

    def to_csv(self, path):
        return _write_csv(path, "eta,g0,g1,g2,g3,G", self.etas, *self.g_ell,
                          self.G)

    @classmethod
    def from_csv(cls, path):
        (etas, g0, g1, g2, g3, G), _ = _read_csv(path, 6)
        return cls(etas, (g0, g1, g2, g3), G)


def build_kernel_table(eta_max=DEFAULT_ETA_MAX, n_nodes=DEFAULT_NODES):
    """Tabulate the kernel family by one inverse FFT per derivative order,
    batched.

    The FFT length m is the smallest power of two >= 4 n_nodes, so the
    period m h of the trapezoid rule exceeds 4 eta_max and the nearest
    periodic image of a node lies at least 3 eta_max >= 45 away: below
    4e-17 g_env at eta_max = 15 and 2e-61 g_env at 40 (module docstring).
    """
    if not (isinstance(eta_max, numbers.Real) and 15.0 <= eta_max < np.inf):
        raise ValidationError(f"eta_max must be a finite number >= 15, "
                              f"got {eta_max!r}")
    count = whole_number(n_nodes)
    if count is None or count < 2048:
        raise ValidationError(f"n_nodes must be a whole number >= 2048, "
                              f"got {n_nodes!r}")
    n_nodes = count
    etas = np.linspace(0.0, float(eta_max), n_nodes)
    h = etas[1] - etas[0]
    if h > 0.5:
        raise ConfigError("table spacing eta_max/(n_nodes - 1) must be "
                          "<= 0.5")
    m = 1 << (4 * n_nodes - 1).bit_length()  # smallest power of 2 >= 4 n
    symbols = _kernel_symbols(2.0 * np.pi * np.fft.rfftfreq(m, h), range(4))
    spectra = np.zeros((4, m // 2 + 1), dtype=complex)
    spectra[:, :symbols[0].size] = symbols
    # one batched irfft, bit for bit four single ones. Freeing its 2 MiB
    # block lifts glibc's dynamic mmap and trim thresholds above what a
    # Picard apply allocates and frees per block (about 1.2 MiB on the
    # 2048-interval grid), which 0.5 MiB per-order transforms left to be
    # handed back to the system, and faulted in again, at every apply. The
    # same thresholds keep the warm rounds of late reconstructions free of
    # page faults, so the block pins m: with a shorter m (next_fast_len of
    # (eta_max + 45) / h, 34992 in place of 65536 by default) the default
    # build takes 2.0-2.4 ms in place of 3.8-4.2 ms (2 cores), but such
    # rounds fault about 500 pages each in most processes
    # (test_warm_rounds_take_no_page_faults guards this)
    g_tables = tuple(np.fft.irfft(spectra, n=m)[:, :n_nodes] / h)
    G = 0.5 + _cumulative_simpson(g_tables[0], h)
    return KernelTable(etas, g_tables, G)


# (ik)^ell for ell = 1, 2, 3, multiplied out
_IK_POWERS = (None, lambda k: 1j * k, lambda k: -(k * k),
              lambda k: -1j * (k * k * k))


def _kernel_symbols(k, ells, scale=None):
    """[(ik)^ell exp(-k^4) for ell in ells], the Fourier symbols of the
    g_ell, at the ascending k >= 0, each times scale if given (a column of
    row factors), on the first P of them: those where some row's k is
    below the underflow cut k^4 < 746.

    Past the cut exp(-k^4) underflows to 0, so the bins from P on carry no
    symbol; within the P bins, a row's bins past its own cut read 0 too.
    """
    cut = 746.0 ** 0.25  # exp(-k^4) underflows to 0 from k^4 = 746 on
    k = k[:np.searchsorted(k, cut if scale is None else cut / np.min(scale))]
    k4 = k ** 4
    if scale is not None:
        # a power by 4 costs far more than a product: one per bin
        k, k4 = scale * k, scale ** 4 * k4
    damp = np.exp(-k4)
    return [damp if ell == 0 else _IK_POWERS[ell](k) * damp for ell in ells]


def _check_order(ell, orders, name="ell"):
    """ell as an int; ValidationError unless it is a whole number
    (`grid.whole_number`) in orders."""
    order = whole_number(ell)
    if order not in orders:
        raise ValidationError(f"{name} must be a whole number in "
                              f"{orders[0]}..{orders[-1]}, got {ell!r}")
    return order


def _check_table(table):
    """ValidationError unless table is a KernelTable."""
    _check_instance(table, KernelTable, "table")


def _check_time(t, name="t"):
    """Raise InvalidTime, naming t, unless t is a positive finite number."""
    if not (isinstance(t, numbers.Real) and np.isfinite(t) and t > 0.0):
        raise InvalidTime(f"{name} must be a positive finite number, "
                          f"got {t!r}")


def _check_times(times):
    """times as a list of floats; InvalidTime unless they are a non-empty,
    strictly increasing list of positive finite numbers (`_check_time`)."""
    times = list(times) if np.iterable(times) else []
    if not times:
        raise InvalidTime("times must be a non-empty list")
    for t in times:
        _check_time(t, "every time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidTime(f"times must be strictly increasing, got {times}")
    return [float(t) for t in times]


def apply_to_step(A, B, t, ell, table, xs):
    """Closed-form semigroup action on the step -B (x<0) -> A (x>0)."""
    _check_time(t)
    ell = _check_order(ell, range(5))
    _check_table(table)
    xs = np.asarray(xs, dtype=float)
    lam = t ** -0.25
    if ell == 0:
        ys = -B + (A + B) * table.eval_G(xs * lam)
        return GridFunction(xs, ys, -B, A, "constant",
                            max(1e-6, _step_tail(A, B, t, table, xs)))
    ys = (A + B) * t ** (-ell / 4.0) * table.eval_g(ell - 1, xs * lam)
    return GridFunction(xs, ys, 0.0, 0.0, "constant",
                        max(1e-6, np.abs(ys[[0, -1]]).max() * 4.0))


def _step_tail(A, B, t, table, xs):
    # a grid on one side of 0 has no edge distance: the bound is the
    # envelope's top
    edge = max(0.0, min(-xs[0], xs[-1])) * t ** -0.25
    env = table.g_env * np.exp(-ENVELOPE_RATE * edge ** (4.0 / 3.0))
    return abs(A + B) * env * 8.0


def corner_height(A, B, t, table, xs):
    """Closed-form semigroup action on the corner A x_+ + B x_-.

    By the second antiderivative eta G - 4 g'' (module docstring) this is
    x times the evolved step, less 4 (A + B) t^{1/4} g''(x t^{-1/4}). The
    odd part (A - B) x / 2 passes unchanged; the even part is taken at |x|,
    so that A = B evolves to an exactly even profile.
    """
    _check_time(t)
    _check_table(table)
    xs = np.asarray(xs, dtype=float)
    ax = np.abs(xs)
    xi = ax * t ** -0.25
    ys = (0.5 * (A - B) * xs
          + (A + B) * (ax * (table.eval_G(xi) - 0.5)
                       - 4.0 * t ** 0.25 * table.eval_g(2, xi)))
    return GridFunction(xs, ys, -B, A, "linear")


def _kernel_lags(table, ell, d_lo, d_hi, scale):
    """g_ell(d scale) at the lags d = d_lo .. d_hi (`_block_kernel_lags`
    of the one span)."""
    return _block_kernel_lags(table, ell, [(d_lo, d_hi, scale)])[0]


def _block_kernel_lags(table, ell, spans):
    """[g_ell(d scale) at the lags d = d_lo .. d_hi for each span (d_lo,
    d_hi, scale)], the table sampled once per |d| of each span: one
    `sym_eval` on the spans' min|d| .. max|d| (from 0 when the lags
    straddle 0), concatenated, then gathered span by span by |d|,
    negated at d < 0 for odd ell.

    Bit for bit the samples of the lags themselves: |d| scale is the
    magnitude of d scale, and g_ell(-x) = +-g_ell(x) holds exactly in
    `sym_eval`, which samples each point by itself.
    """
    starts = [max(d_lo, -d_hi, 0) for d_lo, d_hi, _ in spans]
    mags = [(m0 + np.arange(max(-d_lo, d_hi) - m0 + 1)) * scale
            for m0, (d_lo, d_hi, scale) in zip(starts, spans)]
    vals = _backend.sym_eval(table.g_ell[ell], table.h, _PARITY[ell],
                             np.concatenate(mags))
    kers, off = [], 0
    for m0, mag, (d_lo, d_hi, _) in zip(starts, mags, spans):
        # the samples of |d| = m0, m0 + 1, ..., gathered by |d|
        ker = vals[off:off + mag.size][np.abs(np.arange(d_lo, d_hi + 1))
                                       - m0]
        off += mag.size
        if _PARITY[ell] and d_lo < 0:
            np.negative(ker[:-d_lo], out=ker[:-d_lo])
        kers.append(ker)
    return kers


def _fftconvolve(a, b):
    """The full linear convolution of the 1-D real arrays a and b, through
    one real FFT of the next fast length >= a.size + b.size - 1.

    Bit for bit SciPy's `fftconvolve(a, b)`, which also multiplies without
    an FFT where an input has length 1. Kept in the package so that
    importing it does not load SciPy's signal module.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    size = a.size + b.size - 1
    n = next_fast_len(size, real=True)
    return irfft(rfft(a, n) * rfft(b, n), n)[:size]


def _sampled_convolution(f, scale, ell, table, lo, hi):
    """sum_j g_ell((i - j) scale) f_j at the nodes i = lo .. hi-1 of the
    samples' own grid, also beyond them: one FFT convolution
    (`_fftconvolve`) of the samples and kernel lags that reach an output,
    the kernel sampled once per |lag| (`_kernel_lags`); the other outputs
    read 0."""
    out = np.zeros(hi - lo)
    reach = int(np.ceil(table.eta_max / scale))
    d_lo, d_hi = max(-reach, lo - (f.size - 1)), min(reach, hi - 1)
    if d_lo > d_hi:
        return out
    j0, j1 = max(0, lo - d_hi), min(f.size, hi - d_lo)
    ker = _kernel_lags(table, ell, d_lo, d_hi, scale)
    # entry p of the linear convolution is output j0 + d_lo + p
    a, b = max(lo, j0 + d_lo), min(hi, j1 + d_hi)
    out[a - lo:b - lo] = _fftconvolve(f[j0:j1], ker)[a - j0 - d_lo:
                                                     b - j0 - d_lo]
    return out


def apply_semigroup(f, t, ell, table):
    """d^ell/dx^ell exp(-t d^4) f for f with constant far fields.

    The far-field step evolves in closed form; only the decaying remainder
    f - step is convolved numerically (trapezoid sum, `_sampled_convolution`).
    """
    _check_time(t)
    ell = _check_order(ell, range(4))
    _check_table(table)
    if not isinstance(f, GridFunction):
        raise ValidationError("apply_semigroup expects a GridFunction")
    if f.far_kind != "constant":
        raise UnsupportedFarField(
            "only constant far fields evolve here; reconstruct heights "
            "through the mild solver instead")
    xs, h = f.xs, f.h
    # step from left_far to right_far: A = right, B = -left
    base = apply_to_step(f.right_far, -f.left_far, t, ell, table, xs).ys
    step = np.where(xs > 0.0, f.right_far,
                    np.where(xs < 0.0, f.left_far,
                             0.5 * (f.left_far + f.right_far)))
    r = f.ys - step
    pref = t ** (-(ell + 1) / 4.0) * h
    ys = base + _sampled_convolution(r, h * t ** -0.25, ell, table, 0,
                                     xs.size) * pref
    if ell == 0:
        return GridFunction(xs, ys, f.left_far, f.right_far, "constant",
                            max(f.tail_tol, 1e-6))
    return GridFunction(xs, ys, 0.0, 0.0, "constant",
                        max(np.abs(ys[[0, -1]]).max() * 4.0, 1e-6))


def regularizing_constants(table, ell, t_range):
    """Fit sup-norm decay of the semigroup on the unit step.

    Returns (c_ell, exponent) from log-log regression of
    sup |d^ell exp(-t d^4) step| against t; exponent should be -ell/4.
    """
    _check_table(table)
    ell = _check_order(ell, range(4))
    t_range = np.asarray(t_range, dtype=float)
    for t in t_range:
        _check_time(t, "every time in t_range")
    if t_range.size < 3 or t_range.max() / t_range.min() < 1e3 * (1 - 1e-9):
        raise ValidationError("t_range must span at least three decades")
    sups = []
    for t in t_range:
        half = max(40.0, 2.0 * table.eta_max * t ** 0.25)
        xs = symmetric_grid(half, 8192)
        out = apply_to_step(1.0, 0.0, t, ell, table, xs)
        sups.append(np.max(np.abs(out.ys)))
    slope, intercept = np.polyfit(np.log(t_range), np.log(sups), 1)
    return float(np.exp(intercept)), float(slope)
