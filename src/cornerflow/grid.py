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
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    if h <= 0.0:
        raise ValidationError("xs must be strictly increasing")
    if np.max(np.abs(np.diff(xs) - h)) > _UNIFORM_RTOL * max(1.0, abs(h)):
        raise ValidationError("xs must be uniformly spaced")
    return xs, float(h)


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
        """Write `x,y` rows; far-field metadata goes to a .json sidecar."""
        path = os.fspath(path)
        _write_csv(path, "x,y", self.xs, self.ys)
        with open(_sidecar(path), "w") as fh:
            json.dump({"left_far": self.left_far, "right_far": self.right_far,
                       "far_kind": self.far_kind, "tail_tol": self.tail_tol},
                      fh, indent=1)

    @classmethod
    def from_csv(cls, path):
        path = os.fspath(path)
        arr = np.loadtxt(path, delimiter=",", skiprows=1)
        with open(_sidecar(path)) as fh:
            meta = json.load(fh)
        return cls(arr[:, 0], arr[:, 1], meta["left_far"], meta["right_far"],
                   meta["far_kind"], meta.get("tail_tol", 1e-3))


def _sidecar(path):
    root, _ = os.path.splitext(path)
    return root + ".json"


def _write_csv(path, header, *columns):
    """The columns as CSV rows under the header line, to full precision."""
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", fmt="%.17g")


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
