"""Output checks of the benchmark.

Each function measures one gap between an output and either a computation
made apart from the code under test or a property the method must have.
The gates sit next to the figures they were set from (A = B = 0.1 profile
on the benchmark grid, L = 20 with 2048 intervals); each one is far above
the gap of a correct output and far below the gap of an output that lost
its nonlinear part.
"""
import numpy as np
from scipy.interpolate import CubicSpline

# psi_{B,A}(xi) = -psi_{A,B}(-xi): measured <= 9.3e-14, nonlinear part ~1e-3
REFLECTION_GATE = 1e-11
# a corner with A = -B is a line, so psi == A: measured 0
LINEAR_GATE = 1e-10
# U_x against psi(x t^(-1/4)): measured 2.5e-8 (t <= 0.1) and 1.1e-11
# (t >= 10); without the Duhamel term 1.7e-4
SLOPE_GATE = 1e-6
# sigma^(-1/4) U(sigma^(1/4) x, sigma t) = U(x, t): measured 2.2e-10;
# a bump of height 1e-6 on one of the two fields reads 5.6e-7 to 8.7e-7
SELF_SIMILARITY_GATE = 1e-8
# march against mild + S(t)[mollified - corner], as a share of the
# Duhamel term: measured 4.4e-7 against 1.4e-4 at dt_max = 5e-5
ORACLE_SHARE = 1e-2


def inner(values, frac=0.8):
    """The central `frac` of the samples."""
    values = np.asarray(values)
    skip = int(round(values.size * (1.0 - frac) / 2.0))
    return values[skip:values.size - skip]


def reflection_gap(psi_ab, psi_ba):
    """sup |psi_{B,A}(xi) + psi_{A,B}(-xi)| on a grid symmetric about 0."""
    return float(np.max(np.abs(np.asarray(psi_ba) + np.asarray(psi_ab)[::-1])))


def linear_gap(psi, A):
    """sup |psi - A|: the profile of a straight line is its slope."""
    return float(np.max(np.abs(np.asarray(psi) - A)))


def _slope(U, h):
    """Fourth-order central difference, NaN in the two end cells."""
    d = np.full(U.size, np.nan)
    d[2:-2] = (U[:-4] - 8.0 * U[1:-3] + 8.0 * U[3:-1] - U[4:]) / (12.0 * h)
    return d


def slope_gap(xs, U, t, xis, psi, A, B):
    """sup over the inner 80% of |U_x(x, t) - psi(x t^(-1/4))|.

    U_x is differenced here; psi is a spline through the profile samples
    (xis, psi) and takes its far values -B and A beyond them.
    """
    xs, U = np.asarray(xs), np.asarray(U)
    xi = xs * t ** -0.25
    spline = CubicSpline(xis, psi)
    target = np.where(xi < xis[0], -B, np.where(
        xi > xis[-1], A, spline(np.clip(xi, xis[0], xis[-1]))))
    return float(np.max(np.abs(inner(_slope(U, xs[1] - xs[0]) - target))))


def self_similarity_gap(xs, U_t, U_st, sigma):
    """sup over the inner 80% of |sigma^(-1/4) U(y, sigma t) - U(sigma^(-1/4) y, t)|.

    U_t and U_st are U(., t) and U(., sigma t) on the grid xs; U(., t) is
    read between its samples through a cubic spline.
    """
    fac = sigma ** -0.25
    xs = np.asarray(xs)
    back = CubicSpline(xs, U_t)(xs * fac)
    return float(np.max(np.abs(inner(fac * np.asarray(U_st) - back))))


def oracle_gap(marched, reference):
    """sup over the inner 80% of |marched - reference|."""
    return float(np.max(np.abs(inner(np.asarray(marched) - reference))))
