"""Curve geometry of graphs y = phi(x): metric, curvature, arclength.

Arclength integrates the metric from x = 0 outward (so s < 0 left of the
origin) and is computed piecewise between detected slope breaks, which keeps
it exact for piecewise-linear profiles such as corner data.
"""
import numpy as np

from .errors import GridMismatch, NonFiniteGeometry, ValidationError
from .grid import (GridFunction, _check_instance, _cumulative_simpson, _fd,
                   _origin, _spacing, uniform_grid)


class CurveGeometry:
    """Per-node metric v, curvature k, arclength s, normal coordinate x.n."""

    def __init__(self, xs, metric, curvature, arclength, normal_coord):
        xs = np.asarray(xs, dtype=float)
        metric = np.asarray(metric, dtype=float)
        curvature = np.asarray(curvature, dtype=float)
        arclength = np.asarray(arclength, dtype=float)
        normal_coord = np.asarray(normal_coord, dtype=float)
        for name, arr in (("metric", metric), ("curvature", curvature),
                          ("arclength", arclength),
                          ("normal_coord", normal_coord)):
            if arr.shape != xs.shape or not np.all(np.isfinite(arr)):
                raise NonFiniteGeometry(f"{name} non-finite or wrong shape")
        if np.min(metric) < 1.0 - 1e-12:
            raise ValidationError("metric fell below 1")
        if np.min(np.diff(arclength)) <= 0.0:
            raise ValidationError("arclength not strictly increasing")
        h = _spacing(xs)
        if np.any(arclength[xs < -1e-9 * h] >= 0.0):
            raise ValidationError("arclength must be negative left of origin")
        self.xs = xs
        self.metric = metric
        self.curvature = curvature
        self.arclength = arclength
        self.normal_coord = normal_coord
        self.h = float(h)

    @property
    def n(self):
        return self.xs.size


def detect_kinks(ys):
    """Indices where the second difference spikes like a slope break.

    A node is a kink when its second difference dominates both neighbours
    by 8x, carries at least a quarter of the global maximum, and clears the
    floor 1e-12 max(1, max|ys|) (so smooth profiles report none).
    """
    ys = np.asarray(ys, dtype=float)
    d2 = np.abs(ys[:-2] - 2.0 * ys[1:-1] + ys[2:])
    floor = 1e-12 * max(1.0, float(np.max(np.abs(ys), initial=0.0)))
    # the larger neighbour of each d2, 0 past the ends, or the floor
    pad = np.concatenate([[0.0], d2, [0.0]])
    near = np.maximum(np.maximum(pad[:-2], pad[2:]), floor)
    kink = ((d2 > floor) & (d2 >= 0.25 * d2.max(initial=0.0))
            & (d2 >= 8.0 * near))
    return (np.flatnonzero(kink) + 1).tolist()  # d2[i] sits at node i+1


def _segment_slopes(ys, h):
    """First derivative that never differences across the segment ends."""
    n = ys.size
    if n == 2:
        d = np.full(2, (ys[1] - ys[0]) / h)
        return d
    return _fd(ys, h, 1)


def arclength_from_zero(xs, ys):
    """Arclength s(x1) with s(0) = 0, integrated piecewise between kinks.

    Within each smooth segment the slope comes from one-sided stencils that
    stay inside the segment, then the metric is integrated by cumulative
    Simpson. Exact for piecewise-linear ys on a uniform grid with a node at
    x = 0; ys of another shape than xs raise GridMismatch.
    """
    xs, h = uniform_grid(xs)
    ys = np.asarray(ys, dtype=float)
    if ys.shape != xs.shape:
        raise GridMismatch(f"ys of shape {ys.shape} on a grid of {xs.size} "
                           f"nodes")
    n = xs.size
    i0 = _origin(xs)
    bounds = [0] + detect_kinks(ys) + [n - 1]
    bounds = sorted(set(bounds))
    s = np.empty(n)
    s[0] = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = ys[a:b + 1]
        v = np.sqrt(1.0 + _segment_slopes(seg, h) ** 2)
        if seg.size == 2:
            local = np.array([0.0, 0.5 * h * (v[0] + v[1])])
        else:
            local = _cumulative_simpson(v, h)
        s[a:b + 1] = s[a] + local
    return s - s[i0]


def geometry(phi):
    """CurveGeometry of the graph of phi (4th-order derivatives inside)."""
    if not isinstance(phi, GridFunction):
        raise ValidationError("geometry expects a GridFunction")
    h = phi.h
    dphi = _fd(phi.ys, h, 1)
    d2phi = _fd(phi.ys, h, 2)
    if not (np.all(np.isfinite(dphi)) and np.all(np.isfinite(d2phi))):
        raise NonFiniteGeometry("derivatives of phi are not finite")
    v = np.sqrt(1.0 + dphi * dphi)
    k = d2phi / v ** 3
    xn = (phi.ys - phi.xs * dphi) / v
    radius = np.hypot(phi.xs, phi.ys)
    if np.any(np.abs(xn) > radius * (1.0 + 1e-12) + 1e-12):
        raise ValidationError("normal coordinate exceeded |x|")
    s = arclength_from_zero(phi.xs, phi.ys)
    return CurveGeometry(phi.xs, v, k, s, xn)


def ds_of_array(ys, geom, order=1):
    """Arclength derivative d^order/ds^order of the samples ys along geom.

    order 1 is ys'/v, order 2 applies that twice. The finite differences
    are 4th order inside and one-sided at the ends, so the 4 * order nodes
    at each end are less accurate; callers take interior sup norms.
    """
    if order not in (1, 2):
        raise ValidationError(f"order must be 1 or 2, got {order!r}")
    _check_instance(geom, CurveGeometry, "geom")
    ys = np.asarray(ys, dtype=float)
    if ys.shape != geom.xs.shape:
        raise GridMismatch(f"ys of shape {ys.shape} on a geometry of "
                           f"{geom.n} nodes")
    g = _fd(ys, geom.h, 1) / geom.metric
    if order == 2:
        g = _fd(g, geom.h, 1) / geom.metric
    return g
