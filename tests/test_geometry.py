import numpy as np
import pytest

from cornerflow import (GridFunction, ValidationError, corner_function,
                        geometry, symmetric_grid)
from cornerflow.errors import GridMismatch, NonFiniteGeometry
from cornerflow.geometry import (arclength_from_zero, detect_kinks,
                                 ds_of_array)


def _gauss(half_width=4.0, intervals=512):
    xs = symmetric_grid(half_width, intervals)
    return GridFunction(xs, np.exp(-xs ** 2), 0.0, 0.0, "constant", np.inf)


def test_geometry_of_parabola():
    xs = symmetric_grid(2.0, 1024)
    phi = GridFunction(xs, 0.5 * xs ** 2, 0.0, 0.0, "constant", np.inf)
    geom = geometry(phi)
    v_exact = np.sqrt(1.0 + xs ** 2)
    k_exact = (1.0 + xs ** 2) ** -1.5
    s_exact = 0.5 * (xs * v_exact + np.arcsinh(xs))
    assert np.max(np.abs(geom.metric - v_exact)) < 1e-10
    assert np.max(np.abs(geom.curvature[4:-4] - k_exact[4:-4])) < 1e-9
    assert np.max(np.abs(geom.arclength - s_exact)) < 1e-10
    # normal coordinate (phi - x phi')/v = -x^2/(2v)
    assert np.max(np.abs(geom.normal_coord + 0.5 * xs ** 2 / v_exact)) < 1e-9


def test_arclength_signed_and_zero_at_origin():
    phi = _gauss()
    s = arclength_from_zero(phi.xs, phi.ys)
    i0 = np.argmin(np.abs(phi.xs))
    assert s[i0] == 0.0
    assert np.all(s[:i0] < 0.0) and np.all(s[i0 + 1:] > 0.0)
    assert np.all(np.diff(s) > 0.0)


def test_arclength_exact_on_corner_data():
    xs = symmetric_grid(5.0, 640)
    cab = corner_function(0.3, 0.7, xs)
    s = arclength_from_zero(cab.xs, cab.ys)
    right = xs >= 0.0
    assert np.max(np.abs(s[right] - xs[right] * np.hypot(1.0, 0.3))) < 1e-12
    left = xs <= 0.0
    assert np.max(np.abs(s[left] - xs[left] * np.hypot(1.0, 0.7))) < 1e-12


def test_arclength_requires_zero_node():
    xs = np.linspace(0.25, 4.25, 33)
    with pytest.raises(ValidationError):
        arclength_from_zero(xs, np.zeros(33))


def test_arclength_checks_its_grid():
    # 17 nodes spaced 0.5 left of 0 and 0.25 right of it, with a node at 0
    xs = np.concatenate([np.arange(-4.0, 0.0, 0.5), np.arange(0.0, 2.1, 0.25)])
    assert xs.size == 17 and 0.0 in xs
    with pytest.raises(ValidationError, match="uniformly spaced"):
        arclength_from_zero(xs, 0.5 * np.abs(xs))
    xs = symmetric_grid(4.0, 32)
    with pytest.raises(GridMismatch, match="32,"):
        arclength_from_zero(xs, np.zeros(32))


def test_detect_kinks():
    xs = symmetric_grid(5.0, 640)
    cab = corner_function(0.3, 0.7, xs)
    kinks = detect_kinks(cab.ys)
    assert kinks == [int(np.argmin(np.abs(xs)))]
    assert detect_kinks(np.exp(-xs ** 2)) == []


def _loop_kinks(ys):
    # the node-by-node rule of detect_kinks, the reference of its masks
    d2 = np.abs(ys[:-2] - 2.0 * ys[1:-1] + ys[2:])
    if d2.size == 0 or not np.any(d2 > 0.0):
        return []
    gmax = d2.max()
    floor = 1e-12 * max(1.0, float(np.max(np.abs(ys))))
    kinks = []
    for i in range(d2.size):
        left = d2[i - 1] if i > 0 else 0.0
        right = d2[i + 1] if i + 1 < d2.size else 0.0
        if (d2[i] > floor and d2[i] >= 0.25 * gmax
                and d2[i] >= 8.0 * max(left, right, floor)):
            kinks.append(i + 1)
    return kinks


def test_detect_kinks_matches_node_loop(rng):
    # short arrays with a few spikes, steps and flat runs, so that kinks at
    # the ends, adjacent spikes and ties with the neighbours all occur; a
    # lone spike under 8 floors is none
    cases = [np.zeros(0), np.zeros(1), np.zeros(2), np.zeros(3),
             np.array([0.0, 1.0, 0.0]), np.array([0.0, 3e-12, 0.0]),
             np.array([0.0, 0.0, 1.0, 1.0]), np.abs(np.arange(-4.0, 5.0))]
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        ys = rng.choice((0.0, 1.0, -3.0), n) * (rng.random(n) < 0.2)
        ys = np.cumsum(ys) if rng.random() < 0.5 else ys
        cases.append(ys + 1e-13 * rng.standard_normal(n) * rng.integers(2))
    for ys in cases:
        got = detect_kinks(ys)
        assert got == _loop_kinks(ys)
        assert all(type(i) is int for i in got)
    assert any(_loop_kinks(ys) for ys in cases)


def test_ds_derivative_second_of_s_squared_is_two():
    phi = _gauss(4.0, 1024)
    geom = geometry(phi)
    d2 = ds_of_array(geom.arclength ** 2, geom, 2)
    m = 8  # 4 nodes per side per order use one-sided stencils
    assert np.max(np.abs(d2[m:-m] - 2.0)) < 1e-6


def test_ds_derivative_validation():
    phi = _gauss()
    geom = geometry(phi)
    for order in (0, 3, 1.5):
        with pytest.raises(ValidationError, match="order"):
            ds_of_array(phi.ys, geom, order)
    for ys in (_gauss(4.0, 256).ys, phi.ys[None, :]):
        with pytest.raises(GridMismatch):
            ds_of_array(ys, geom, 1)


def test_refinement_order_of_curvature():
    # 3-grid sequence: measured order >= nominal - 0.5 (nominal 4 inside)
    # grids coarse enough that truncation beats the eps/h^2 roundoff floor
    errs = []
    for n in (64, 128, 256):
        xs = symmetric_grid(2.0, n)
        phi = GridFunction(xs, np.sin(xs), 0.0, 0.0, "constant", np.inf)
        geom = geometry(phi)
        k_exact = -np.sin(xs) / (1.0 + np.cos(xs) ** 2) ** 1.5
        errs.append(np.max(np.abs((geom.curvature - k_exact)[8:-8])))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 3.5


def test_graph_identity_lap_of_half_r2():
    # lap_G(|x|^2/2) = 1 + k (x.n) along any graph curve
    phi = _gauss(4.0, 2048)
    geom = geometry(phi)
    q = 0.5 * (phi.xs ** 2 + phi.ys ** 2)
    lhs = ds_of_array(q, geom, 2)
    rhs = 1.0 + geom.curvature * geom.normal_coord
    assert np.max(np.abs((lhs - rhs)[8:-8])) < 1e-6


def test_pei_residuals_graph_small():
    # first-variation identities along a graph curve, with tangent
    # tau = ds x and normal n = (-tau_2, tau_1):
    # (i) |tau| = 1, (ii) div_G(a n) = -a k for a in {1, |x|^2},
    # (iii) grad_G(|x|^2/2) = x - n (x.n)
    phi = _gauss(4.0, 2048)
    geom = geometry(phi)
    xs, ys, k, xn = phi.xs, phi.ys, geom.curvature, geom.normal_coord
    inner = slice(8, -8)
    t1 = ds_of_array(xs, geom)
    t2 = ds_of_array(ys, geom)
    n1, n2 = -t2, t1
    assert np.max(np.abs(t1 * t1 + t2 * t2 - 1.0)[inner]) < 1e-5
    for a in (np.ones_like(xs), xs * xs + ys * ys):
        div = t1 * ds_of_array(a * n1, geom) + t2 * ds_of_array(a * n2, geom)
        assert np.max(np.abs(div + a * k)[inner]) < 1e-5
    dq = ds_of_array(0.5 * (xs * xs + ys * ys), geom)
    assert np.max(np.abs(dq * t1 - (xs - n1 * xn))[inner]) < 1e-5
    assert np.max(np.abs(dq * t2 - (ys - n2 * xn))[inner]) < 1e-5


def test_geometry_rejects_nonfinite():
    xs = symmetric_grid(2.0, 32)
    ys = np.zeros(33)
    phi = GridFunction(xs, ys, 0.0, 0.0, "constant", np.inf)
    phi.ys = ys.copy()
    phi.ys[5] = np.inf  # bypass constructor check to hit the geometry guard
    with pytest.raises(NonFiniteGeometry):
        geometry(phi)
