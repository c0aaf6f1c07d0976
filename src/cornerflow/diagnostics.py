"""Identity, convexity, and non-existence checks for profile candidates.

Everything here consumes a graph phi on a grid and asks whether it is
consistent with being a forward self-similar profile: the key convexity
identity, the pointwise profile equation, growth of the distance functional
D0, the linear-bound criteria, and the compact-curve contradiction. All sup
norms are taken over interior nodes; one-sided boundary stencils are never
allowed to decide a verdict.
"""
import numbers

import numpy as np

from . import _backend
from .errors import ValidationError
from .grid import (GridFunction, _check_finite, _check_instance, _fd,
                   _origin, _simpson, _write_json, smoothed_abs, whole_number)
from .geometry import arclength_from_zero, ds_of_array, geometry
from .mild import SimilarityProfile

INTERIOR_MARGIN = 8  # nodes per side dropped from sup norms
# run_diagnostics: the residual tolerance of a single-level run, relative
# to 1 + sup|phi|; esp_check: the tolerance of its margin and end slopes
ABS_TOL = 1e-5
ESP_TOL = 1e-9


def _interior(values):
    """values without the INTERIOR_MARGIN nodes at each end, if any remain."""
    values, m = np.asarray(values), INTERIOR_MARGIN
    if values.size <= 2 * m:
        raise ValidationError(f"{values.size} nodes leave no interior "
                              f"inside the {m}-node margin at each end")
    return values[m:-m]


def interior_sup(values):
    """Sup norm without the INTERIOR_MARGIN nodes at each end."""
    return float(np.max(np.abs(_interior(values))))


def _residual_gf(phi, values):
    # the far values are the end samples: their gap is exactly 0
    return GridFunction(phi.xs, values, values[0], values[-1], "constant",
                        0.0)


def _identity_residual(phi, sign):
    """d_s^2(k^2 + sign |x|^2/4) - sign/2 - 2 (d_s k)^2 for sign = +-1."""
    geom = geometry(phi)
    q = geom.curvature ** 2 + sign * 0.25 * (phi.xs ** 2 + phi.ys ** 2)
    r = (ds_of_array(q, geom, 2) - sign * 0.5
         - 2.0 * ds_of_array(geom.curvature, geom) ** 2)
    return _residual_gf(phi, r)


def key_identity_residual(phi):
    """d_s^2(k^2 + |x|^2/4) - 1/2 - 2 (d_s k)^2; zero on forward profiles."""
    return _identity_residual(phi, 1.0)


def backward_identity_residual(phi):
    """d_s^2(k^2 - |x|^2/4) + 1/2 - 2 (d_s k)^2; the backward-profile analogue."""
    return _identity_residual(phi, -1.0)


def profile_equation_residual(phi):
    """(phi - x phi')/(4v) + d_s^2 k, the pointwise profile equation."""
    geom = geometry(phi)
    r = 0.25 * geom.normal_coord + ds_of_array(geom.curvature, geom, 2)
    return _residual_gf(phi, r)


def q_convexity(phi, variant=False):
    """Assemble Q and its arclength convexity.

    Q = k^2 + (|x|^2 - s^2 + phi(0)^2)/4 by default; with variant=True
    the shifted form k^2 + |x|^2/4 - (s + |phi(0)|)^2/4 is used instead.
    Returns (Q, d2Q, min d2Q over the interior); on a forward profile d2Q
    equals 2 (d_s k)^2 >= 0.
    """
    geom = geometry(phi)
    phi0 = phi.ys[_origin(phi.xs)]
    r2 = phi.xs ** 2 + phi.ys ** 2
    s = geom.arclength
    if variant:
        qv = geom.curvature ** 2 + 0.25 * r2 - 0.25 * (s + abs(phi0)) ** 2
    else:
        qv = geom.curvature ** 2 + 0.25 * (r2 - s ** 2 + phi0 ** 2)
    d2q = ds_of_array(qv, geom, 2)
    return (_residual_gf(phi, qv), _residual_gf(phi, d2q),
            float(np.min(_interior(d2q))))


def d0_and_d(phi):
    """Distance functionals D0 (with the |phi(0)| shift) and D (without).

    D[phi] = phi^2 + x^2 - s^2 vanishes identically on corner data; on a
    genuine nonlinear profile D0 must grow unboundedly along a direction.
    """
    _check_instance(phi, GridFunction, "phi")
    s = arclength_from_zero(phi.xs, phi.ys)
    phi0 = phi.ys[_origin(phi.xs)]
    r2 = phi.xs ** 2 + phi.ys ** 2
    d0 = r2 - (s + abs(phi0)) ** 2
    d = r2 - s ** 2
    return (_residual_gf(phi, d0), _residual_gf(phi, d))


def esp_check(phi, alpha, beta):
    """Margin of the linearity criterion phi(0) phi <= alpha s + beta.

    The on-grid minimum alone cannot certify an inequality that must hold
    on the whole line, so the verdict also requires the margin to be
    non-decaying at both ends: slope >= -ESP_TOL in s at the right end
    and <= +ESP_TOL at the left end. meta carries the pieces.
    """
    _check_instance(phi, GridFunction, "phi")
    _check_finite("alpha", alpha)
    _check_finite("beta", beta)
    s = arclength_from_zero(phi.xs, phi.ys)
    phi0 = phi.ys[_origin(phi.xs)]
    margin = alpha * s + beta - phi0 * phi.ys
    gf = _residual_gf(phi, margin)
    min_margin = float(np.min(_interior(margin)))
    m = max(2, phi.xs.size // 64)
    right_slope = (margin[-1] - margin[-1 - m]) / (s[-1] - s[-1 - m])
    left_slope = (margin[m] - margin[0]) / (s[m] - s[0])
    verdict_grid = min_margin >= -ESP_TOL
    verdict = bool(verdict_grid and right_slope >= -ESP_TOL
                   and left_slope <= ESP_TOL)
    gf.meta.update(verdict_grid=bool(verdict_grid),
                   min_margin=min_margin,
                   right_tail_slope=float(right_slope),
                   left_tail_slope=float(left_slope))
    return gf, verdict


class L1Bound:
    """Outcome of the integrable-slope linear bound check.

    tol is the allowance worst_gap was judged by, 4 h (|a0| + 1).
    """

    def __init__(self, applicable, beta=np.nan, a0=np.nan, bound_holds=None,
                 worst_gap=np.nan, tail_gap=np.nan, tol=np.nan):
        self.applicable = bool(applicable)
        self.beta = float(beta)
        self.a0 = float(a0)
        self.bound_holds = bound_holds
        self.worst_gap = float(worst_gap)
        self.tail_gap = float(tail_gap)
        self.tol = float(tol)

    def __repr__(self):
        if not self.applicable:
            return f"L1Bound(NotApplicable, tail_gap={self.tail_gap:.3e})"
        return (f"L1Bound(beta={self.beta:.6g}, holds={self.bound_holds}, "
                f"worst_gap={self.worst_gap:.3e})")


def l1_linear_bound(phi, a0):
    """beta = int |phi' - a0| and the bound phi(z) <= a0 z + beta.

    Applicable only when |phi' - a0| has decayed below 1e-3 at both
    grid ends; otherwise the slope defect is not integrable at grid
    precision and the result records NotApplicable. x = 0 must be a node.
    """
    _check_instance(phi, GridFunction, "phi")
    _check_finite("a0", a0)
    i0 = _origin(phi.xs)
    dphi = _fd(phi.ys, phi.h, 1)
    w = np.abs(dphi - a0)
    tail_gap = float(max(w[0], w[-1]))
    tol = 4.0 * phi.h * (abs(a0) + 1.0)
    if tail_gap > 1e-3:
        return L1Bound(False, a0=a0, tail_gap=tail_gap, tol=tol)
    beta = float(_simpson(w, phi.h))
    gap = phi.ys - (phi.ys[i0] + a0 * phi.xs + beta)
    worst = float(np.max(gap))
    return L1Bound(True, beta=beta, a0=a0, bound_holds=bool(worst <= tol),
                   worst_gap=worst, tail_gap=tail_gap, tol=tol)


def peg_bound_check(phi):
    """Margin of |x|^2 <= s^2 + phi(0)^2 + 2 phi(0)(phi - phi(0)).

    Algebraically the right side minus |x|^2 is s^2 - x^2 - (phi-phi(0))^2,
    the squared-arclength-beats-chord inequality. The discrete margin uses
    the polyline arclength, for which the chord bound is a finite triangle
    inequality, so it is nonnegative to roundoff on every graph whose grid
    has a node at x = 0.
    """
    _check_instance(phi, GridFunction, "phi")
    xs, ys = phi.xs, phi.ys
    i0 = _origin(xs)
    seg = np.hypot(np.diff(xs), np.diff(ys))
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s = s - s[i0]
    chord2 = xs ** 2 + (ys - ys[i0]) ** 2
    return _residual_gf(phi, s ** 2 - chord2)


def counterexample_phi_eps(A, eps, mollified=False):
    """The flattened corner phi_eps = A max(|y|, eps) and its D functional.

    Exhibits the non-existence mechanism: |x| - s tends to the constant
    eps (sqrt(1+A^2) - 1) instead of decaying, so D grows linearly. Returns
    (phi_eps, D, fit) where fit carries the fitted far slope of D, the far
    gap |x| - s, and their closed-form targets. The grid has spacing
    eps/16 and half-width 40 eps.
    """
    if not (all(isinstance(v, numbers.Real) for v in (A, eps))
            and np.isfinite(A) and A != 0.0 and 0.0 < eps < np.inf):
        raise ValidationError(f"need finite A != 0 and eps > 0, got "
                              f"A={A!r}, eps={eps!r}")
    h = eps / 16.0
    m = 640  # half-width 40 eps
    xs = np.arange(-m, m + 1) * h
    if mollified:
        delta = eps / 4.0
        ys = 0.5 * abs(A) * (smoothed_abs(xs + eps, delta)
                             + smoothed_abs(xs - eps, delta))
    else:
        ys = abs(A) * np.maximum(np.abs(xs), eps)
    if A < 0.0:
        ys = -ys
    phi = GridFunction(xs, ys, -abs(A) * np.sign(A), abs(A) * np.sign(A),
                       "linear")
    s = arclength_from_zero(xs, ys)
    r2 = xs ** 2 + ys ** 2
    d = r2 - s ** 2
    dgf = _residual_gf(phi, d)
    va = np.sqrt(1.0 + A * A)
    sel = xs >= 8.0 * eps
    slope = float(np.polyfit(xs[sel], d[sel], 1)[0])
    gap_far = float(np.sqrt(r2[-1]) - s[-1])
    fit = {
        "d_slope": slope,
        "d_slope_expected": 2.0 * eps * va * (va - 1.0),
        "gap_far": gap_far,
        "gap_expected": eps * (va - 1.0),
    }
    return phi, dgf, fit


def x_infty_norm(profile, density=1):
    """Discrete surrogate of the solution-space norm of the evolution.

    sup_t of the slope sup-norm plus sup over (x0, R) of
    R^{2/7} ||u_xx||_{L^7(B_R(x0) x (R^4/2, R^4))}, all suprema over log
    or coarse scan grids whose density scales with `density` (whole, >= 1).
    """
    _check_instance(profile, SimilarityProfile, "profile")
    d = whole_number(density) or 0
    if d < 1:
        raise ValidationError(f"density must be a whole number >= 1, got "
                              f"{density!r}")
    psi = profile.psi
    psi1 = profile.psi1
    ts = np.geomspace(1e-3, 1e3, 16 * d)
    xs_scan = np.linspace(-20.0, 20.0, 16 * d + 1)
    grad_sup = 0.0
    for t in ts:
        vals = psi.interp(xs_scan * t ** -0.25)
        grad_sup = max(grad_sup, float(np.max(np.abs(vals))))
    radii = np.geomspace(0.25, 8.0, 12 * d)
    centers = np.linspace(-20.0, 20.0, 16 * d + 1)
    hess_term = 0.0
    ntq, nxq = 24 * d, 48 * d
    for R in radii:
        tq = np.linspace(0.5 * R ** 4, R ** 4, ntq)
        for x0 in centers:
            xq = np.linspace(x0 - R, x0 + R, nxq)
            xi = xq[None, :] * tq[:, None] ** -0.25
            vals = _backend.cubic_eval(psi1, psi.xs[0], psi.h, xi, 0.0, 0.0)
            integrand = np.abs(vals) ** 7 * (tq ** -1.75)[:, None]
            val = np.trapezoid(np.trapezoid(integrand, xq, axis=1), tq)
            hess_term = max(hess_term, R ** (2.0 / 7.0) * val ** (1.0 / 7.0))
    return grad_sup + hess_term


def subsample(phi, stride):
    """Every stride-th node, counted from the node nearest x = 0.

    The node at x = 0, where the diagnostics anchor, stays in the
    subsample whatever the stride and the grid's node count. Divided
    differences amplify data noise like h^-4 at the fourth derivative
    level, so residuals of solver output are evaluated at a stencil
    spacing coarse enough for truncation to dominate.
    """
    _check_instance(phi, GridFunction, "phi")
    stride = whole_number(stride) or 0
    if stride < 1:
        raise ValidationError("stride must be a whole number >= 1")
    if stride == 1:
        return phi
    keep = slice(int(np.argmin(np.abs(phi.xs))) % stride, None, stride)
    return GridFunction(phi.xs[keep], phi.ys[keep], phi.left_far,
                        phi.right_far, phi.far_kind, phi.tail_tol)


def refinement_threshold(r_coarse, r_fine):
    """10x the Richardson error estimate of the fine-level residual.

    (r_coarse - r_fine)/(2^4 - 1) estimates the fine-level discretization
    error when the residual converges at the nominal order 4; a
    stagnating residual pair yields a threshold near zero or negative,
    which fails the comparison. r_fine passes it when r_fine <= 0.4
    r_coarse.
    """
    _check_finite("r_coarse", r_coarse)
    _check_finite("r_fine", r_fine)
    return 10.0 * (r_coarse - r_fine) / 15.0


class DiagnosticsReport:
    """Bundle of residual fields plus a per-check summary table."""

    def __init__(self, phi):
        self.phi = phi
        self.fields = {}
        self.summary = []
        self.flags = {}

    def add(self, name, sup_residual, threshold, passed, field=None):
        self.summary.append({
            "name": name,
            "sup_residual": float(sup_residual),
            "threshold": float(threshold),
            "pass": bool(passed),
        })
        if field is not None:
            self.fields[name] = field

    @property
    def all_pass(self):
        return all(row["pass"] for row in self.summary)

    def to_json(self, path):
        return _write_json(path, {"checks": self.summary,
                                  "flags": self.flags})[0]

    def to_csv(self, out_dir):
        """One CSV per stored residual field, plus the summary table."""
        import os
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for name, field in self.fields.items():
            paths += field.to_csv(os.path.join(out_dir, f"{name}.csv"))
        p = os.path.join(out_dir, "summary.csv")
        with open(p, "w") as fh:
            fh.write("name,sup_residual,threshold,pass\n")
            for row in self.summary:
                fh.write(f"{row['name']},{row['sup_residual']:.17g},"
                         f"{row['threshold']:.17g},{int(row['pass'])}\n")
        paths.append(p)
        return paths


def run_diagnostics(phi, phi_fine=None, eval_stride=1):
    """Run the full identity/inequality battery on a graph.

    The three residual rows (key_identity, profile_equation and
    q_convexity_identity) share one rule. With phi_fine, the same object
    recomputed at doubled resolution, a row reports the fine-level sup r_f
    and passes when r_f <= refinement_threshold(r_c, r_f), r_c being the
    coarse-level sup: that is r_f <= r_c / 2.5, a residual that
    extrapolates to zero. Without phi_fine a row reports the sup r and
    passes when r <= ABS_TOL (1 + sup|phi|). The Q row also needs
    min d_s^2 Q >= -threshold. eval_stride coarsens the stencil spacing
    for solver output whose node-level noise would otherwise dominate the
    divided differences.
    """
    _check_instance(phi, GridFunction, "phi")
    rep = DiagnosticsReport(phi)
    pe = subsample(phi, eval_stride)
    pf = subsample(phi_fine, eval_stride) if phi_fine is not None else None
    abs_thr = ABS_TOL * (1.0 + interior_sup(pe.ys))

    def _judged(sup_coarse, sup_fine):
        # (sup, threshold) of a residual row under the rule above
        if sup_fine is None:
            return sup_coarse, abs_thr
        return sup_fine, refinement_threshold(sup_coarse, sup_fine)

    for name, fn in (("key_identity", key_identity_residual),
                     ("profile_equation", profile_equation_residual)):
        field = fn(pe)
        sup, thr = _judged(interior_sup(field.ys),
                           None if pf is None else interior_sup(fn(pf).ys))
        rep.add(name, sup, thr, sup <= thr, field)

    # forward and backward residuals differ by exactly d_s^2(|x|^2/2) - 1
    # when built from shared stencils; verify the algebra discretely
    # (tolerance = float non-linearity of the stencil, eps |q| / h^2)
    geom = geometry(pe)
    r_fwd = rep.fields["key_identity"].ys
    r_bwd = backward_identity_residual(pe).ys
    q_arr = pe.xs ** 2 + pe.ys ** 2
    link = r_bwd - (r_fwd - ds_of_array(0.5 * q_arr, geom, 2) + 1.0)
    link_tol = (64.0 * np.finfo(float).eps
                * float(np.max(geom.curvature ** 2 + q_arr)) / pe.h ** 2
                + 1e-13)
    rep.add("backward_link", interior_sup(link), link_tol,
            interior_sup(link) <= link_tol)

    # variant Q must equal k^2 + D0/4 node for node
    qv = q_convexity(pe, variant=True)[0]
    d0, _ = d0_and_d(pe)
    qalg = qv.ys - (geom.curvature ** 2 + 0.25 * d0.ys)
    qtol = 1e-12 * (1.0 + float(np.max(np.abs(qv.ys))))
    rep.add("q_variant_identity", interior_sup(qalg), qtol,
            interior_sup(qalg) <= qtol)

    def _q_identity(p):
        # on a profile d_s^2 Q equals 2 (d_s k)^2 exactly (the halves
        # cancel); (sup of that residual, d2Q, min d2Q)
        g = geometry(p)
        _, d2q, min_d2q = q_convexity(p)
        return (interior_sup(d2q.ys - 2.0 * ds_of_array(g.curvature, g) ** 2),
                d2q, min_d2q)

    sup_c, d2q0, min_d2q = _q_identity(pe)
    sup_f = None
    if pf is not None:
        sup_f, _, min_d2q = _q_identity(pf)
    sup0, thr0 = _judged(sup_c, sup_f)
    rep.add("q_convexity_identity", sup0, thr0,
            sup0 <= thr0 and min_d2q >= -thr0, d2q0)

    peg = peg_bound_check(phi)
    peg_tol = 1e-10 * (1.0 + float(np.max(phi.xs ** 2 + phi.ys ** 2)))
    rep.add("peg_lower_bound", max(0.0, -float(np.min(peg.ys))), peg_tol,
            float(np.min(peg.ys)) >= -peg_tol, peg)

    phi0 = phi.ys[_origin(phi.xs)]
    nonlinear = bool(abs(phi0) > 1e-3)
    if nonlinear:
        # nonlinear candidate: no (alpha, beta) in the scan may certify
        passes = sum(esp_check(phi, alpha, beta)[1]
                     for alpha in (-1.0, 0.0, 1.0)
                     for beta in (0.0, 1.0, 10.0))
        rep.add("esp_scan_all_fail", passes, 0.5, passes == 0)
    else:
        _, verdict00 = esp_check(phi, 0.0, 0.0)
        rep.add("esp_zero_corner", 0.0 if verdict00 else 1.0, 0.5, verdict00)

    a0 = phi.right_far if phi.far_kind == "linear" else 0.0
    l1 = l1_linear_bound(phi, a0)
    rep.add("l1_linear_bound", l1.worst_gap if l1.applicable else 0.0,
            l1.tol, l1.bound_holds if l1.applicable else True)
    rep.fields["d0"] = d0

    # informational flags: nonlinearity of the profile and per-direction
    # growth of the distance functional (not pass/fail criteria)
    izero = _origin(pe.xs)
    rep.flags = {
        "phi0": float(phi0),
        "phi0_nonzero": nonlinear,
        "l1_applicable": l1.applicable,
        "d0_max_right": float(np.max(np.abs(d0.ys[izero:]))),
        "d0_max_left": float(np.max(np.abs(d0.ys[:izero + 1]))),
    }
    rep.flags["d0_growing"] = bool(
        max(rep.flags["d0_max_right"], rep.flags["d0_max_left"])
        > 100.0 * abs(d0.ys[izero]) + 0.1)
    return rep


def circle_curve(radius, center=(0.0, 0.0), n=512):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + radius * np.cos(th),
                            center[1] + radius * np.sin(th)])


def ellipse_curve(a, b, n=512):
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return np.column_stack([a * np.cos(th), b * np.sin(th)])


def _periodic_d(y, dth):
    """Spectral derivative on a uniform periodic grid.

    Exact for band-limited data (circles), so repeated application does
    not cascade divided-difference roundoff the way stencils do.
    """
    n = y.size
    c = np.fft.rfft(y)
    # closed-curve spectra decay geometrically; modes at roundoff level are
    # noise and would be amplified by k on every application, so drop them
    c[np.abs(c) < 3e-14 * np.max(np.abs(c))] = 0.0
    freq = 2.0j * np.pi * np.fft.rfftfreq(n, d=dth)
    if n % 2 == 0:
        freq[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return np.fft.irfft(c * freq, n)


def compactness_contradiction_demo(points):
    """Evaluate the convexity identity where k^2 + |x|^2/4 peaks on a loop.

    At an interior maximum the arclength second derivative is <= 0, while
    on a forward profile it must equal 1/2 + 2 (d_s k)^2 >= 1/2. The
    returned report carries the per-node deficit rhs - d2Q and the value
    at the maximizer; a positive deficit there certifies the curve is not
    a profile.
    """
    pts = np.asarray(points, dtype=float)
    if (pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 16
            or not np.all(np.isfinite(pts))):
        raise ValidationError("need an (n,2) array of finite closed-curve "
                              "samples")
    x, y = pts[:, 0], pts[:, 1]
    dth = 2.0 * np.pi / pts.shape[0]
    xd, yd = _periodic_d(x, dth), _periodic_d(y, dth)
    xdd, ydd = _periodic_d(xd, dth), _periodic_d(yd, dth)
    v = np.hypot(xd, yd)
    if not np.all(v > 0.0):
        raise ValidationError("the curve's speed vanishes at a sample")
    k = (xd * ydd - yd * xdd) / v ** 3
    q = k ** 2 + 0.25 * (x ** 2 + y ** 2)
    dq = _periodic_d(q, dth) / v
    d2q = _periodic_d(dq, dth) / v
    dk = _periodic_d(k, dth) / v
    rhs = 0.5 + 2.0 * dk ** 2
    deficit = rhs - d2q
    imax = int(np.argmax(q))
    return {
        "q": q,
        "d2q": d2q,
        "rhs": rhs,
        "deficit": deficit,
        "max_index": imax,
        "max_point": (float(x[imax]), float(y[imax])),
        "q_max": float(q[imax]),
        "d2q_at_max": float(d2q[imax]),
        "rhs_at_max": float(rhs[imax]),
        "deficit_at_max": float(deficit[imax]),
        "certified_not_profile": bool(deficit[imax] > 0.0),
    }
