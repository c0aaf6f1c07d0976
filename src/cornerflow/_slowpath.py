"""NumPy implementations of the hot numerical kernels.

The package reaches the four primitives (cubic_eval, sym_eval, skew_sum,
penta_march_u) through `_backend`. Everything here is vectorized; skew_sum
bounds its temporaries by evaluating SKEW_CHUNK source nodes at a time, and
penta_march_u factors its band matrix once per step size (LAPACK dgbtrf)
and back-substitutes each step (dgbtrs).
"""
import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import GridMismatch, NumericalFailure

SKEW_CHUNK = 2048  # source nodes per block of skew_sum's pair matrix


def lagrange_weights(u):
    """Weights of the 4-point Lagrange stencil on nodes -1, 0, 1, 2 at u."""
    w0 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w1 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w2 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w3 = (u + 1.0) * u * (u - 1.0) / 6.0
    return w0, w1, w2, w3


def cubic_eval(tab, x0, h, q, fill_left, fill_right):
    """4-point Lagrange interpolation on a uniform table.

    Queries below x0 return fill_left, above x0+(n-1)h return fill_right.
    The end cells reuse the nearest interior 4-point stencil.
    """
    tab = np.asarray(tab, dtype=float)
    q = np.asarray(q, dtype=float)
    n = tab.size
    t = (q - x0) / h
    inside_lo = t >= 0.0
    inside_hi = t <= n - 1.0
    j = np.clip(np.floor(t).astype(np.int64), 1, n - 3)
    u = t - j
    w0, w1, w2, w3 = lagrange_weights(u)
    out = w0 * tab[j - 1] + w1 * tab[j] + w2 * tab[j + 1] + w3 * tab[j + 2]
    out = np.where(inside_lo, out, fill_left)
    out = np.where(inside_hi, out, fill_right)
    return out


def sym_eval(tab, h, parity, q):
    """Evaluate a half-line table (x0 = 0) with even/odd reflection.

    parity 0: K(-u) = K(u); parity 1: K(-u) = -K(u). Zero beyond the table.
    """
    q = np.asarray(q, dtype=float)
    aq = np.abs(q)
    vals = cubic_eval(tab, 0.0, h, aq, 0.0, 0.0)
    if parity:
        vals = np.where(q < 0.0, -vals, vals)
    return vals


def skew_sum(tab, h, parity, a, b, z, w, scale):
    """out[i] = sum_j w[j] * K((a[i] - b*z[j]) * scale).

    K is the symmetric table evaluation of sym_eval. The mild solver uses
    it only where both the profile and the kernel scale fall below three
    output spacings, so neither spreading nor resampling onto the output
    grid applies; apply_semigroup's "direct" method is the other caller.
    The source nodes z and weights w must have the same length.
    """
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if z.size != w.size:
        raise GridMismatch(f"skew_sum: {z.size} source nodes but "
                           f"{w.size} weights")
    out = np.zeros(a.size, dtype=float)
    for j0 in range(0, z.size, SKEW_CHUNK):
        zz = z[j0:j0 + SKEW_CHUNK]
        ww = w[j0:j0 + SKEW_CHUNK]
        arg = (a[:, None] - b * zz[None, :]) * scale
        out += sym_eval(tab, h, parity, arg) @ ww
    return out


def _penta_bands(n, c, diag0, diag_last, sub_first, sup_last):
    """Banded (I + dt*D4) in dgbtrf's layout; boundary rows pre-modified.

    Rows 0-1 are the fill-in space of the LU factors, rows 2-6 hold the
    diagonals +2 .. -2.
    """
    ab = np.zeros((7, n), order="F")
    ab[2, 2:] = c
    ab[3, 1:] = -4.0 * c
    ab[4, :] = 1.0 + 6.0 * c
    ab[5, :-1] = -4.0 * c
    ab[6, :-2] = c
    ab[4, 0] = diag0
    ab[4, -1] = diag_last
    ab[5, 0] = sub_first
    ab[3, -1] = sup_last
    return ab


def solve_banded(lu, piv, rhs):
    """Solve with the dgbtrf factors (lu, piv) of a pentadiagonal matrix.

    rhs is overwritten with the solution, which is returned. Non-finite
    values pass through unchecked; the caller tests the result.
    """
    x, info = dgbtrs(lu, 2, 2, rhs, piv, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"dgbtrs failed (info={info})")
    return x


def _explicit_u(u, h, A, B):
    """dx(alpha(w) w_xx + F(w)) for the height equation, 2nd order.

    Ghost cells extend u linearly with the declared far slopes -B, A.
    """
    n = u.size
    ue = np.empty(n + 4)
    ue[2:-2] = u
    ue[1] = u[0] + h * B
    ue[0] = u[0] + 2.0 * h * B
    ue[-2] = u[-1] + h * A
    ue[-1] = u[-1] + 2.0 * h * A
    w = (ue[2:] - ue[:-2]) / (2.0 * h)
    wxx = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    wx = (w[2:] - w[:-2]) / (2.0 * h)
    wi = w[1:-1]
    w2 = wi * wi
    phi = w2 * (2.0 + w2) / (1.0 + w2) ** 2 * wxx + 3.0 * wi * wx * wx / (1.0 + w2) ** 3
    out = np.empty(n)
    out[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * h)
    out[0] = (phi[1] - phi[0]) / h
    out[-1] = (phi[-1] - phi[-2]) / h
    return out


def penta_march_u(u, nsteps, dt, h, A, B, growth_cap=10.0):
    """Advance the height march nsteps with fixed dt.

    Implicit fourth derivative (pentadiagonal solve, factored once per
    call, so once per step size), explicit nonlinear flux. Returns
    (u, status); status 1 means a step went non-finite or grew the
    sup-norm past growth_cap times its value before the step.
    """
    u = np.array(u, dtype=float)
    c = dt / h ** 4
    ab = _penta_bands(u.size, c, 1.0 + 3.0 * c, 1.0 + 3.0 * c, -3.0 * c, -3.0 * c)
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info != 0:
        raise NumericalFailure(f"dgbtrf failed (info={info}, dt={dt:.3e})")
    rc = np.zeros(u.size)
    rc[0] = 2.0 * h * B * c
    rc[1] = -h * B * c
    rc[-1] = 2.0 * h * A * c
    rc[-2] = -h * A * c
    sup = np.max(np.abs(u))
    for _ in range(nsteps):
        rhs = u + dt * _explicit_u(u, h, A, B) + rc
        u = solve_banded(lu, piv, rhs)
        sup0, sup = sup, np.max(np.abs(u))
        if not np.isfinite(sup) or sup > growth_cap * (sup0 + 1e-300):
            return u, 1
    return u, 0
