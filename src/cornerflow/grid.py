"""Uniform-grid sampled functions with declared far-field behaviour.

Every field in the package (heights, slopes, profiles, residuals) lives on
a uniform 1-D grid and carries its asymptotic description: either the values
approach constants (far_kind="constant") or the slopes do ("linear", with
left_far/right_far holding the slopes). Far-field extension is what makes
convolutions against rapidly decaying kernels well defined on a finite grid.
"""
import json
import numbers
import os

import numpy as np

from . import _backend
from .errors import ValidationError

_UNIFORM_RTOL = 1e-9


def _spacing(xs):
    """The spacing of the uniform grid xs, from its end nodes."""
    return (xs[-1] - xs[0]) / (xs.size - 1)


def uniform_grid(xs):
    """(xs, h): xs as a float array, checked to be a uniform grid.

    Any 1-D array-like of at least 16 finite, strictly increasing and
    uniformly spaced nodes passes; anything else raises ValidationError.
    """
    try:
        xs = np.asarray(xs, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("grid nodes must be numbers") from None
    if xs.ndim != 1:
        raise ValidationError(f"a grid must be 1-D, got shape {xs.shape}")
    if xs.size < 16:
        raise ValidationError(f"grid too short: {xs.size} < 16 nodes")
    if not np.all(np.isfinite(xs)):
        raise ValidationError("grid nodes must be finite")
    h = _spacing(xs)
    if h <= 0.0:
        raise ValidationError("xs must be strictly increasing")
    if np.max(np.abs(np.diff(xs) - h)) > _UNIFORM_RTOL * max(1.0, abs(h)):
        raise ValidationError("xs must be uniformly spaced")
    return xs, float(h)


def _origin(xs):
    """Index of the node at x = 0 (within 1e-9 h) of the uniform grid xs."""
    i0 = int(np.argmin(np.abs(xs)))
    if abs(xs[i0]) > 1e-9 * _spacing(xs):
        raise ValidationError("grid must contain x = 0 as a node")
    return i0


def _inner(values):
    """The central 80% of values: round(n (1 - 0.8) / 2) off each end."""
    values = np.asarray(values)
    skip = int(round(values.size * (1.0 - 0.8) / 2.0))
    return values[skip:values.size - skip]


class GridFunction:
    """Samples ys on the uniform grid xs plus far-field metadata.

    far_kind "constant": left_far/right_far are limit values; the first and
    last samples must already sit within tail_tol of them. far_kind "linear":
    left_far/right_far are asymptotic slopes and values may grow.
    """

    def __init__(self, xs, ys, left_far=0.0, right_far=0.0,
                 far_kind="constant", tail_tol=1e-3):
        xs, h = uniform_grid(xs)
        ys = np.asarray(ys, dtype=float)
        if ys.shape != xs.shape:
            raise ValidationError("xs and ys must be 1-D arrays of equal length")
        if not np.all(np.isfinite(ys)):
            raise ValidationError("grid data must be finite")
        if far_kind not in ("constant", "linear"):
            raise ValidationError(f"unknown far_kind {far_kind!r}")
        far = (left_far, right_far, tail_tol)
        if not (all(isinstance(v, numbers.Real) for v in far)
                and np.all(np.isfinite(far[:2])) and tail_tol >= 0.0):
            raise ValidationError(f"far values and tail_tol {far!r} must be "
                                  f"finite numbers, tail_tol >= 0")
        if far_kind == "constant":
            gap = max(abs(ys[0] - left_far), abs(ys[-1] - right_far))
            if gap > tail_tol:
                raise ValidationError(
                    f"end samples miss declared far values by {gap:.3e} "
                    f"(tail_tol {tail_tol:.3e})")
        self.xs = xs
        self.ys = ys
        self.left_far = float(left_far)
        self.right_far = float(right_far)
        self.far_kind = far_kind
        self.tail_tol = float(tail_tol)
        self._h = h
        self.meta = {}

    @property
    def h(self):
        return self._h

    @property
    def n(self):
        return self.xs.size

    def with_values(self, ys, left_far=None, right_far=None):
        """Same grid and far kind, new samples (and optionally far values)."""
        return GridFunction(
            self.xs, ys,
            self.left_far if left_far is None else left_far,
            self.right_far if right_far is None else right_far,
            self.far_kind, self.tail_tol)

    def shift_values(self, c):
        """Add the constant c to the samples (far values follow suit)."""
        if self.far_kind == "constant":
            return self.with_values(self.ys + c, self.left_far + c,
                                    self.right_far + c)
        return self.with_values(self.ys + c)

    def interp(self, x):
        """Cubic interpolation with far-field extension outside the grid."""
        x = np.asarray(x, dtype=float)
        if self.far_kind == "constant":
            inner = _backend.cubic_eval(self.ys, self.xs[0], self._h, x,
                                        self.left_far, self.right_far)
            return inner
        inner = _backend.cubic_eval(self.ys, self.xs[0], self._h, x, 0.0, 0.0)
        left = self.ys[0] + self.left_far * (x - self.xs[0])
        right = self.ys[-1] + self.right_far * (x - self.xs[-1])
        return np.where(x < self.xs[0], left,
                        np.where(x > self.xs[-1], right, inner))

    def to_csv(self, path):
        """Write `x,y` rows and the far-field metadata as a .json sidecar;
        returns both paths."""
        return _write_csv(path, "x,y", self.xs, self.ys, meta={
            "left_far": self.left_far, "right_far": self.right_far,
            "far_kind": self.far_kind, "tail_tol": self.tail_tol})

    @classmethod
    def from_csv(cls, path):
        (xs, ys), meta = _read_csv(path, 2,
                                   ("left_far", "right_far", "far_kind"))
        return cls(xs, ys, meta["left_far"], meta["right_far"],
                   meta["far_kind"], meta.get("tail_tol", 1e-3))


def _write_csv(path, header, *columns, meta=None, suffix=".json"):
    """The columns as CSV rows under the header line, to full precision,
    and meta, if given, as a JSON sidecar: path with its extension
    replaced by suffix. Returns the paths written."""
    path = os.fspath(path)
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")
    if meta is None:
        return [path]
    return [path] + _write_json(os.path.splitext(path)[0] + suffix, meta)


def _write_json(path, obj):
    """obj as JSON with indent 2 and sorted keys; returns [path]."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return [path]


def _read_csv(path, ncols, keys=None, suffix=".json"):
    """(columns, sidecar) of what `_write_csv` wrote to path: the ncols
    columns, and with keys the sidecar's dict, which must hold them (else
    None). A missing or unparsable file, fewer than two rows of ncols
    columns, a value that is not finite, or a missing key raises
    ValidationError naming the file.
    """
    path = name = os.fspath(path)
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if arr.shape[0] < 2 or arr.shape[1] != ncols:
            raise ValidationError(f"{path!r} holds {arr.shape[0]} rows of "
                                  f"{arr.shape[1]} columns, not 2 or more "
                                  f"of {ncols}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{path!r} holds values that are not finite")
        if keys is None:
            return arr.T, None
        name = os.path.splitext(path)[0] + suffix
        with open(name) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read {name!r}: "
                              f"{getattr(exc, 'strerror', None) or exc}"
                              ) from exc
    missing = [key for key in keys
               if not isinstance(meta, dict) or key not in meta]
    if missing:
        raise ValidationError(f"sidecar {name!r} lacks {', '.join(missing)}")
    return arr.T, meta


def _fd(y, h, order):
    """Finite differences: 4th-order central, 2nd-order one-sided ends."""
    n = y.size
    d = np.empty(n)
    if order == 1:
        d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
        d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * h)
        d[1] = (y[2] - y[0]) / (2.0 * h)
        d[-2] = (y[-1] - y[-3]) / (2.0 * h)
        d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * h)
    else:
        d[2:-2] = (-y[:-4] + 16.0 * y[1:-3] - 30.0 * y[2:-2]
                   + 16.0 * y[3:-1] - y[4:]) / (12.0 * h * h)
        d[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / (h * h)
        d[1] = (y[0] - 2.0 * y[1] + y[2]) / (h * h)
        d[-2] = (y[-3] - 2.0 * y[-2] + y[-1]) / (h * h)
        d[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / (h * h)
    return d


def _simpson(y, dx):
    """The integral of the samples y (3 or more) at spacing dx by the
    composite Simpson rule.

    An odd node count is Simpson throughout. An even one takes Simpson up
    to node n - 2 and the last interval from the parabola through the last
    three nodes. Bit for bit SciPy 1.17's `simpson(y, dx=dx)`; kept in the
    package so that importing it does not load SciPy's integrate module.
    """
    y = np.asarray(y, dtype=float)
    stop = y.size - 2 if y.size % 2 else y.size - 3
    total = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2])
    total *= dx / 3.0
    if y.size % 2 == 0:
        # SciPy's weights of the last interval, on the scalars it uses
        d = np.float64(dx)
        alpha = (2 * d ** 2 + 3 * d * d) / (6 * (d + d))
        beta = (d ** 2 + 3.0 * d * d) / (6 * d)
        eta = (1 * d ** 3) / (6 * d * (d + d))
        total += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return total


def _cumulative_simpson(y, dx):
    """The integrals of the samples y (3 or more) at spacing dx from node 0
    to every node, 0 first.

    Interval [i, i + 1] takes the parabola through nodes i, i + 1, i + 2 at
    even i, through i - 1, i, i + 1 at odd i, and the last interval the one
    through the last three nodes. Bit for bit SciPy 1.17's
    `cumulative_simpson(y, dx=dx, initial=0.0)`.
    """
    y = np.asarray(y, dtype=float)
    third = dx / 3
    lo, mid, hi = y[:-2:2], y[1:-1:2], y[2::2]
    parts = np.empty(y.size - 1)
    parts[:-1:2] = third * (5 * lo / 4 + 2 * mid - hi / 4)
    parts[1::2] = third * (5 * hi / 4 + 2 * mid - lo / 4)
    parts[-1] = third * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    out = np.empty(y.size)
    out[0] = 0.0
    np.cumsum(parts, out=out[1:])
    return out


def _check_instance(value, cls, name):
    """ValidationError, naming the argument, unless value is a cls."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got "
                              f"{type(value).__name__}")


def whole_number(value):
    """value as an int if it is an integer or an integral float, else None."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    return None


def symmetric_grid(half_width, intervals):
    """xs on [-half_width, half_width] with `intervals` cells; 0 is a node."""
    if not (isinstance(half_width, numbers.Real)
            and 0.0 < half_width < np.inf):
        raise ValidationError(f"half_width must be a positive finite "
                              f"number, got {half_width!r}")
    count = whole_number(intervals)
    if count is None or count % 2 or count < 16:
        raise ValidationError(f"intervals must be an even whole number "
                              f">= 16, got {intervals!r}")
    return np.linspace(-float(half_width), float(half_width), count + 1)


def corner_function(A, B, xs):
    """The wedge A*x (x>=0) / -B*x (x<0) as a linear-far GridFunction."""
    xs = np.asarray(xs, dtype=float)
    ys = np.where(xs >= 0.0, A * xs, -B * xs)
    return GridFunction(xs, ys, -B, A, "linear")


def smoothed_abs(x, delta):
    """Gaussian mollification of |x| with width delta (exact closed form)."""
    from scipy.special import erf
    if delta <= 0.0:
        return np.abs(x)
    z = x / (np.sqrt(2.0) * delta)
    return x * erf(z) + delta * np.sqrt(2.0 / np.pi) * np.exp(-z * z)
