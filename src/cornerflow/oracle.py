"""Direct time-stepping cross-check for the similarity construction.

A semi-implicit method-of-lines scheme for the graph evolution
u_t = -d/dx[ alpha(u_x) u_xxx + 3 u_x u_xx^2 / (1+u_x^2)^3 ]: the stiff
linear operator -dt d_x^4 is folded into a pentadiagonal solve each step,
the remaining nonlinearity is advanced explicitly. The matrix I + dt D4
is a symmetric positive definite band plus a rank-2 term from the
boundary rows; the band is Cholesky-factored once per step size of the
schedule, and each step back-substitutes and applies the rank-2 term by
the Sherman-Morrison-Woodbury formula. The linearized amplification
factor is below one for any dt because alpha < 1 pointwise, so the step
size is set by accuracy, not stability; a ramp from DT_INIT avoids
transients from rough initial data.

This solver shares nothing with the kernel/Duhamel pipeline beyond the
grid type, which is what makes the agreement check meaningful.
"""
import numbers

import numpy as np

from . import _backend
from ._slowpath import GROWTH_CAP
from .errors import OracleInstability, ValidationError
from .grid import (GridFunction, _check_instance, corner_function,
                   smoothed_abs, symmetric_grid, whole_number)
from .kernel import _check_times, apply_semigroup, corner_height
from .mild import SimilarityProfile, inner_sup, reconstruct_U


DT_INIT = 1e-8  # the first step of every march
RAMP = 1.6  # dt grows by this factor per step, up to dt_max
# the defaults of MarchConfig and of `cornerflow oracle-compare`
DEFAULT_MARCH_HALF_WIDTH = 20.0
DEFAULT_MARCH_INTERVALS = 4096
DEFAULT_DT_MAX = 2e-5


class MarchConfig:
    """Grid, step-size and boundary description for the time marcher.

    Boundary rows extrapolate linearly with slopes -B (left) and A
    (right); corner data are mollified over moll_width = 8h before
    marching, since the scheme assumes four bounded derivatives.
    """

    def __init__(self, A, B, half_width=DEFAULT_MARCH_HALF_WIDTH,
                 intervals=DEFAULT_MARCH_INTERVALS, dt_max=DEFAULT_DT_MAX):
        settings = {"A": A, "B": B, "dt_max": dt_max}
        bad = [key for key, val in settings.items()
               if not (isinstance(val, numbers.Real) and np.isfinite(val))]
        if bad:
            raise ValidationError(f"march settings must be finite numbers: "
                                  f"{', '.join(bad)}")
        count = whole_number(intervals)
        if count is None or count < 512:
            raise ValidationError(f"intervals must be a whole number >= 512, "
                                  f"got {intervals!r}")
        if dt_max < DT_INIT:
            raise ValidationError(f"dt_max = {dt_max!r} is below the first "
                                  f"step {DT_INIT:g}")
        self.A = float(A)
        self.B = float(B)
        self.intervals = count
        self.dt_max = float(dt_max)
        # checks half_width, and that intervals is even
        self.xs = symmetric_grid(half_width, count)
        self.h = float(self.xs[1] - self.xs[0])
        self.moll_width = 8.0 * self.h

    def mollified_corner(self):
        """phi_{A,B} with the kink replaced by its Gaussian mollification."""
        u0 = (0.5 * (self.A + self.B) * smoothed_abs(self.xs, self.moll_width)
              + 0.5 * (self.A - self.B) * self.xs)
        return GridFunction(self.xs, u0, -self.B, self.A, "linear")


def _dt_schedule(cfg, t_total):
    """(dt, nsteps) segments: geometric ramp, then constant dt_max."""
    segments = []
    t = 0.0
    dt = DT_INIT
    while dt < cfg.dt_max and t + dt < t_total:
        segments.append((dt, 1))
        t += dt
        dt = min(dt * RAMP, cfg.dt_max)
    remaining = t_total - t
    if remaining > 1e-15 * max(t_total, 1.0):
        n_full = int(remaining / cfg.dt_max)
        if n_full:
            segments.append((cfg.dt_max, n_full))
        last = remaining - n_full * cfg.dt_max
        if last > 1e-12 * cfg.dt_max:
            segments.append((last, 1))
    return segments


def _march(values, cfg, t_span):
    for dt, nsteps in _dt_schedule(cfg, t_span):
        values, status = _backend.penta_march_u(values, nsteps, dt, cfg.h,
                                                cfg.A, cfg.B, GROWTH_CAP)
        if status != 0:
            raise OracleInstability(
                f"sup-norm grew past {GROWTH_CAP}x or went non-finite "
                f"in one step (dt={dt:.3e}, h={cfg.h:.3e})")
    return values


def time_march(u0, cfg, times):
    """Advance height data to each requested time; returns GridFunctions.

    times must be positive, finite and strictly increasing. The scheme is
    the semi-implicit splitting described in the module docstring, second
    order in space for the nonlinear terms and unconditionally stable in
    the linear part.
    """
    _check_instance(cfg, MarchConfig, "cfg")
    if (not isinstance(u0, GridFunction) or u0.n != cfg.xs.size
            or np.max(np.abs(u0.xs - cfg.xs)) > 1e-9):
        raise ValidationError("initial data must be a GridFunction on the "
                              "config's grid")
    times = _check_times(times)
    out = []
    u = np.array(u0.ys, dtype=float)
    t_prev = 0.0
    for t in times:
        u = _march(u, cfg, t - t_prev)
        out.append(GridFunction(cfg.xs, u, -cfg.B, cfg.A, "linear"))
        t_prev = t
    return out


def mild_gaps(marched, profile, table, cfg, t):
    """Sup-norm gaps between a march snapshot at time t, started from
    cfg.mollified_corner(), and the kernel-built solution, on the inner
    80% of the march grid.

    The march starts from the mollified corner, the mild solution from the
    corner. To leading order their decaying initial difference evolves
    under the linear semigroup S(t) alone, so `sup_diff_linear` compares
    the march with mild + S(t)[mollified - corner]. That gap sits far
    below the Duhamel term U - S(t)[corner] (`duhamel_sup`); unlike
    `sup_diff`, it grows to the size of that term when the nonlinear part
    of the mild solution is wrong or missing.

    Returns a dict with both gaps, the Duhamel size and the mild field.
    """
    _check_instance(marched, GridFunction, "marched")
    _check_instance(cfg, MarchConfig, "cfg")
    sol = reconstruct_U(profile, t, table, xs=cfg.xs)
    cab = corner_function(cfg.A, cfg.B, cfg.xs)
    bump = GridFunction(cfg.xs, cfg.mollified_corner().ys - cab.ys,
                        0.0, 0.0, "constant")
    linear = apply_semigroup(bump, t, 0, table).ys
    duhamel = sol.U.ys - corner_height(cfg.A, cfg.B, t, table, cfg.xs).ys
    diff = marched.ys - sol.U.ys
    return {
        "sup_diff": inner_sup(diff),
        "sup_diff_linear": inner_sup(diff - linear),
        "duhamel_sup": inner_sup(duhamel),
        "mild": sol.U,
    }


def compare_with_mild(profile, table, cfg=None, t_final=1.0):
    """March the mollified corner to t_final and measure it against the
    kernel-built solution; see mild_gaps for the three gaps.

    Returns a dict with both gaps, the Duhamel size, the mollification
    width and the two fields.
    """
    _check_instance(profile, SimilarityProfile, "profile")
    if cfg is None:
        cfg = MarchConfig(profile.corner.A, profile.corner.B)
    _check_instance(cfg, MarchConfig, "cfg")
    marched = time_march(cfg.mollified_corner(), cfg, [t_final])[0]
    out = mild_gaps(marched, profile, table, cfg, t_final)
    out.update(moll_width=cfg.moll_width, t=t_final, marched=marched)
    return out
