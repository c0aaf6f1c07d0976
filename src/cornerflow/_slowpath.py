"""NumPy implementations of the hot numerical kernels.

The package reaches the four primitives (cubic_eval, sym_eval, skew_sum,
penta_march_u) through `_backend`. Everything here is vectorized; skew_sum
bounds its temporaries by evaluating SKEW_CHUNK source nodes at a time.
No code in the package calls skew_sum: the tests use it as their dense
reference, and `_backend` exports it only because the benchmark's tracer
wraps it there, until the benchmark records its own spans.
cubic_eval and the mild solver's block taps share one 4-point Lagrange
stencil: `_cells` gives each point's stencil and its offset in it, and
`lagrange_weights` the weights, which the mild solver makes for all the
points of a block of nodes at once to resample or spread the density by
them. quintic_eval is the 6-point stencil,
with the same end cells, for the smooth convolutions that the mild
solver takes from a coarser grid onto its output grid. The stencils
build their weights and sums in place, from one gather index shifted by
views (tab[k:][j] is node j + k), but keep the operation order of the
plain formulas, so their bits are those of the formulas.
penta_march_u factors its matrix once per step size: I + dt*D4 is a
symmetric positive definite band plus a rank-2 term from the boundary
rows, so the band is Cholesky-factored (LAPACK dpbtrf) and the boundary
term is applied by the Sherman-Morrison-Woodbury formula; each step is
one dpbtrs back-substitution plus that rank-2 update.
"""
import numpy as np
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import GridMismatch, NumericalFailure

SKEW_CHUNK = 2048  # source nodes per block of skew_sum's pair matrix
GROWTH_CAP = 10.0  # a march step that grows sup|u| more than this is unstable


def lagrange_weights(u):
    """Weights of the 4-point Lagrange stencil on nodes -1, 0, 1, 2 at u.

    u is an array of one or more dimensions; row r of the returned
    (4,) + u.shape array is the weight of node r - 1. Each weight is the
    product of its factors taken left to right, -u (u-1) (u-2) / 6 for
    node -1; a negative weight is negated last, which rounds alike since
    negation is exact.
    """
    w = np.empty((4,) + u.shape)
    w0, w1, w2, w3 = w
    # u - 1 and u - 2 wait in w3 and w2, u + 1 in w1, for their rows
    um1 = np.subtract(u, 1.0, out=w3)
    um2 = np.subtract(u, 2.0, out=w2)
    np.multiply(u, um1, out=w0)
    w0 *= um2
    w0 /= 6.0
    np.negative(w0, out=w0)
    up1 = np.add(u, 1.0, out=w1)
    opening = up1 * u  # (u+1) u opens both w2 and w3
    w1 *= um1
    w1 *= um2
    w1 /= 2.0
    w3 *= opening
    w3 /= 6.0
    w2 *= opening
    w2 /= 2.0
    np.negative(w2, out=w2)
    return w


def _cells(t, n):
    """Base node j of the 4-point stencil on j-1..j+2 at grid coordinates
    t, and the offsets t - j, whose `lagrange_weights` are its weights.

    The stencil of a point in an end cell is the nearest interior one. n,
    the count of grid nodes, may be an array that broadcasts against t.
    """
    j = np.floor(t).astype(np.int64)
    np.maximum(j, 1, out=j)
    np.minimum(j, n - 3, out=j)
    return j, t - j


def cubic_eval(tab, x0, h, q, fill_left, fill_right):
    """4-point Lagrange interpolation on a uniform table.

    Queries below x0 return fill_left, above x0+(n-1)h return fill_right.
    The end cells reuse the nearest interior 4-point stencil.
    """
    tab = np.asarray(tab, dtype=float)
    q = np.asarray(q, dtype=float)
    n = tab.size
    t = (q.reshape(-1) - x0) / h
    j, u = _cells(t, n)
    w = lagrange_weights(u)
    j -= 1  # the stencil's first node; tab[k:][j] is node j + k
    out = w[0]
    out *= tab[j]
    for k in (1, 2, 3):
        tap = w[k]
        tap *= tab[k:][j]
        out += tap
    np.copyto(out, fill_left, where=t < 0.0)
    np.copyto(out, fill_right, where=~(t <= n - 1.0))  # NaN included
    return out.reshape(q.shape)


def quintic_eval(tab, x0, h, q):
    """6-point Lagrange interpolation on a uniform table x0 + h*i.

    A point in cell [j, j+1] takes the nodes j-2..j+3; as in `cubic_eval`,
    the stencil of a point in an end cell is the nearest interior one.
    There is no fill: a point off the table takes the end stencil. The
    six terms are summed in node order, each weight a product of its
    factors taken left to right; node j-2's term, whose weight is
    negative, is subtracted with its sign flipped, which rounds alike.
    """
    tab = np.asarray(tab, dtype=float)
    t = (np.asarray(q, dtype=float) - x0) / h
    j = np.floor(t).astype(np.int64)
    np.maximum(j, 2, out=j)
    np.minimum(j, tab.size - 4, out=j)
    u = t - j
    j -= 2  # the stencil's first node; tab[k:][j] is node j + k
    p, m = u + 2.0, u - 3.0  # the factors of the outer nodes
    u1, u_1, u2 = u - 1.0, u + 1.0, u - 2.0
    inner = u_1 * u  # the four inner factors
    inner *= u1
    inner *= u2
    out = p * u  # node j-1: p u u1 u2 m / 24
    out *= u1
    out *= u2
    out *= m
    out /= 24.0
    out *= tab[1:][j]
    term = inner * m  # node j-2: -inner m / 120
    term /= 120.0
    term *= tab[j]
    out -= term
    pu_1 = p * u_1
    np.multiply(pu_1, u1, out=term)  # node j: -p u_1 u1 u2 m / 12
    term *= u2
    term *= m
    term /= 12.0
    term *= tab[2:][j]
    out -= term
    pu_1 *= u  # p u_1 u opens the terms of nodes j+1 and j+2
    np.multiply(pu_1, u2, out=term)  # node j+1: p u_1 u u2 m / 12
    term *= m
    term /= 12.0
    term *= tab[3:][j]
    out += term
    pu_1 *= u1  # node j+2: -p u_1 u u1 m / 24
    pu_1 *= m
    pu_1 /= 24.0
    pu_1 *= tab[4:][j]
    out -= pu_1
    np.multiply(p, inner, out=term)  # node j+3: p inner / 120
    term /= 120.0
    term *= tab[5:][j]
    out += term
    return out


def sym_eval(tab, h, parity, q):
    """Evaluate a half-line table (x0 = 0) with even/odd reflection.

    parity 0: K(-u) = K(u); parity 1: K(-u) = -K(u). Zero beyond the table.
    """
    q = np.asarray(q, dtype=float)
    vals = cubic_eval(tab, 0.0, h, np.abs(q), 0.0, 0.0)
    if parity:
        np.negative(vals, out=vals, where=q < 0.0)
    return vals


def skew_sum(tab, h, parity, a, b, z, w, scale):
    """out[i] = sum_j w[j] * K((a[i] - b*z[j]) * scale).

    K is the symmetric table evaluation of sym_eval. This is the dense
    O(a.size z.size) sum. No package code calls it; the tests use it as
    the reference for the FFT convolutions of the mild solver and of
    apply_semigroup. The source nodes z and weights w must have the same
    length.
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


def _sym_bands(n, c):
    """Upper band, in dpbtrf's layout, of I + c*N^2.

    N is the second difference with Neumann end rows [-1, 1], so N^2 has
    the D4 stencil inside, ends [2, -3, 1] and is symmetric positive
    semidefinite. Row 2 holds the diagonal, rows 1 and 0 the first and
    second superdiagonals.
    """
    ab = np.zeros((3, n))
    ab[0, 2:] = c
    ab[1, 1:] = -4.0 * c
    ab[1, 1] = ab[1, -1] = -3.0 * c
    ab[2, :] = 1.0 + 6.0 * c
    ab[2, 0] = ab[2, -1] = 1.0 + 2.0 * c
    return ab


def _factor_banded(n, c):
    """Factors of I + c*M for solve_banded, M the boundary-closed D4.

    The ghost rows make M = N^2 + e0 (e0 - e1)^T + e_{n-1} (e_{n-1} -
    e_{n-2})^T: a symmetric band plus a rank-2 boundary term. The band is
    Cholesky-factored (dpbtrf), and the rank-2 term is folded into the
    n x 2 correction W = c Z (I + c V^T Z)^{-1} of the Sherman-Morrison-
    Woodbury formula, where Z = (I + c N^2)^{-1} [e0, e_{n-1}] and V holds
    the two difference rows: x = y - W V^T y, with y the band's solution.
    Returns (cholesky band, W^T).
    """
    chol, info = dpbtrf(_sym_bands(n, c), overwrite_ab=1)
    if info != 0:
        raise NumericalFailure(f"dpbtrf failed (info={info}, c={c:.3e})")
    z = np.zeros((n, 2), order="F")
    z[0, 0] = z[-1, 1] = 1.0
    z, info = dpbtrs(chol, z, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"dpbtrs failed (info={info})")
    cap = np.eye(2) + c * np.array([z[0] - z[1], z[-1] - z[-2]])
    det = cap[0, 0] * cap[1, 1] - cap[0, 1] * cap[1, 0]
    if not np.isfinite(det) or det == 0.0:
        raise NumericalFailure(f"singular capacitance matrix of the "
                               f"boundary rows (det={det:.3e}, c={c:.3e})")
    adj = np.array([[cap[1, 1], -cap[0, 1]], [-cap[1, 0], cap[0, 0]]])
    return chol, (c / det) * (adj.T @ z.T)


def solve_banded(factors, rhs):
    """Solve (I + c*M) x = rhs with the _factor_banded factors.

    One Cholesky back-substitution (dpbtrs) and the rank-2 boundary
    correction. rhs is overwritten with the solution, which is returned.
    Non-finite values pass through unchecked; the caller tests the result.
    """
    chol, wt = factors
    x, info = dpbtrs(chol, rhs, overwrite_b=1)
    if info != 0:
        raise NumericalFailure(f"dpbtrs failed (info={info})")
    d0, d1 = x[1] - x[0], x[-2] - x[-1]
    x = daxpy(wt[0], x, a=d0)
    return daxpy(wt[1], x, a=d1)


def _explicit_u(u, h, A, B):
    """dx(alpha(w) w_xx + F(w)) for the height equation, 2nd order.

    Ghost cells extend u linearly with the declared far slopes -B, A.
    With r = 1/(1+w^2), the flux is phi = w^2 (2+w^2) r^2 w_xx +
    3 w w_x^2 r^3; it is formed from undivided differences of w, and the
    powers of 1/h are applied once at the end.
    """
    n = u.size
    ue = np.empty(n + 4)
    ue[2:-2] = u
    ue[1] = u[0] + h * B
    ue[0] = u[0] + 2.0 * h * B
    ue[-2] = u[-1] + h * A
    ue[-1] = u[-1] + 2.0 * h * A
    w = ue[2:] - ue[:-2]
    w /= 2.0 * h
    wi = w[1:-1]
    dw = w[2:] - w[:-2]                 # 2h w_x
    ddw = -2.0 * wi                     # h^2 w_xx
    ddw += w[2:]
    ddw += w[:-2]
    w2 = wi * wi
    r = w2 + 1.0
    np.reciprocal(r, out=r)
    dw *= dw
    dw *= wi
    dw *= r
    dw *= 0.75
    ddw *= w2
    w2 += 2.0
    ddw *= w2
    ddw += dw
    r *= r
    ddw *= r                            # h^2 phi
    out = np.empty(n)
    np.subtract(ddw[2:], ddw[:-2], out=out[1:-1])
    out[0] = 2.0 * (ddw[1] - ddw[0])
    out[-1] = 2.0 * (ddw[-1] - ddw[-2])
    out *= 0.5 / h ** 3
    return out


def penta_march_u(u, nsteps, dt, h, A, B, growth_cap=GROWTH_CAP):
    """Advance the height march nsteps with fixed dt.

    Implicit fourth derivative (pentadiagonal solve, factored once per
    call, so once per step size), explicit nonlinear flux. Returns
    (u, status); status 1 means a step went non-finite or grew the
    sup-norm past growth_cap times its value before the step.
    """
    u = np.array(u, dtype=float)
    c = dt / h ** 4
    factors = _factor_banded(u.size, c)
    rc = np.zeros(u.size)
    rc[0] = 2.0 * h * B * c
    rc[1] = -h * B * c
    rc[-1] = 2.0 * h * A * c
    rc[-2] = -h * A * c
    sup = np.max(np.abs(u))
    for _ in range(nsteps):
        rhs = _explicit_u(u, h, A, B)
        rhs *= dt
        rhs += u
        rhs += rc
        u = solve_banded(factors, rhs)
        sup0, sup = sup, np.max(np.abs(u))
        if not np.isfinite(sup) or sup > growth_cap * (sup0 + 1e-300):
            return u, 1
    return u, 0
