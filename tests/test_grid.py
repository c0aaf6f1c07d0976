import numpy as np
import pytest

from cornerflow import GridFunction, ValidationError, corner_function, \
    smoothed_abs, symmetric_grid
from cornerflow.grid import _fd


def test_symmetric_grid_contains_zero():
    xs = symmetric_grid(5.0, 64)
    assert xs.size == 65
    assert np.min(np.abs(xs)) == 0.0
    assert xs[0] == -5.0 and xs[-1] == 5.0


def test_symmetric_grid_rejects_odd_or_tiny():
    with pytest.raises(ValidationError):
        symmetric_grid(5.0, 33)
    with pytest.raises(ValidationError):
        symmetric_grid(5.0, 8)


@pytest.mark.parametrize("half_width, intervals, match", (
    (np.nan, 100, "half_width"), (np.inf, 100, "half_width"),
    (-5.0, 100, "half_width"), (0.0, 100, "half_width"),
    ("5", 100, "half_width"), (20.0, 2048.5, "intervals"),
    (20.0, np.nan, "intervals"), (20.0, "64", "intervals"),
))
def test_symmetric_grid_rejects_bad_settings(half_width, intervals, match):
    with pytest.raises(ValidationError, match=match):
        symmetric_grid(half_width, intervals)


def test_symmetric_grid_takes_integral_float_count():
    # a whole number of intervals given as a float is a count
    assert np.array_equal(symmetric_grid(20.0, 2048.0),
                          symmetric_grid(20.0, 2048))


def test_gridfunction_validation():
    xs = np.linspace(0.0, 1.0, 32)
    with pytest.raises(ValidationError):
        GridFunction(xs, np.ones(31))
    with pytest.raises(ValidationError):
        GridFunction(xs[:8], np.ones(8))
    bad = xs.copy()
    bad[5] += 0.01
    with pytest.raises(ValidationError):
        GridFunction(bad, np.ones(32))
    ys = np.ones(32)
    ys[3] = np.nan
    with pytest.raises(ValidationError):
        GridFunction(xs, ys)
    with pytest.raises(ValidationError):
        GridFunction(xs[::-1], np.ones(32))
    with pytest.raises(ValidationError):
        GridFunction(xs, np.ones(32), far_kind="quadratic")


def test_constant_far_field_must_match_samples():
    xs = np.linspace(-1.0, 1.0, 32)
    ys = np.full(32, 2.0)
    GridFunction(xs, ys, 2.0, 2.0, "constant", 1e-3)
    with pytest.raises(ValidationError):
        GridFunction(xs, ys, 0.0, 0.0, "constant", 1e-3)
    # linear far kind puts no constraint on end samples
    GridFunction(xs, 100.0 * xs, 100.0, 100.0, "linear")


def test_interp_matches_samples_and_far_fields():
    xs = symmetric_grid(4.0, 256)
    f = GridFunction(xs, np.tanh(xs), -1.0, 1.0, "constant", 1e-3)
    assert np.max(np.abs(f.interp(xs) - f.ys)) < 1e-12
    assert f.interp(np.array([50.0]))[0] == 1.0
    assert f.interp(np.array([-50.0]))[0] == -1.0
    # cubic accuracy between nodes: error shrinks like h^4 on refinement
    mid = xs[:-1] + 0.5 * f.h
    err_c = np.max(np.abs(f.interp(mid) - np.tanh(mid)))
    xs2 = symmetric_grid(4.0, 512)
    f2 = GridFunction(xs2, np.tanh(xs2), -1.0, 1.0, "constant", 1e-3)
    mid2 = xs2[:-1] + 0.5 * f2.h
    err_f = np.max(np.abs(f2.interp(mid2) - np.tanh(mid2)))
    assert err_c < 2e-7
    assert err_f < err_c / 10.0


def test_interp_linear_far_field_extends_slopes():
    xs = symmetric_grid(4.0, 64)
    f = corner_function(0.5, 0.25, xs)
    assert abs(f.interp(np.array([10.0]))[0] - 5.0) < 1e-12
    assert abs(f.interp(np.array([-10.0]))[0] - 2.5) < 1e-12


def test_fd_orders_on_polynomial():
    xs = symmetric_grid(1.0, 128)
    h = xs[1] - xs[0]
    y = xs ** 4
    d1 = _fd(y, h, 1)
    d2 = _fd(y, h, 2)
    # quartic is exact for the 4th-order interior stencils
    assert np.max(np.abs(d1[2:-2] - 4.0 * xs[2:-2] ** 3)) < 1e-10
    assert np.max(np.abs(d2[2:-2] - 12.0 * xs[2:-2] ** 2)) < 1e-9


def test_shift_values_moves_far_constants():
    xs = symmetric_grid(2.0, 32)
    f = GridFunction(xs, np.zeros(33), 0.0, 0.0, "constant", 1e-3)
    g = f.shift_values(1.5)
    assert g.left_far == 1.5 and g.ys[0] == 1.5


def test_with_values_keeps_the_grid():
    xs = symmetric_grid(2.0, 32)
    f = GridFunction(xs, np.zeros(33), 0.0, 0.0, "constant", np.inf)
    g = f.with_values(np.ones(33), left_far=1.0, right_far=1.0)
    assert np.array_equal(g.xs, f.xs) and np.array_equal(g.ys, np.ones(33))
    assert g.left_far == g.right_far == 1.0 and g.tail_tol == np.inf


def test_csv_roundtrip(tmp_path):
    xs = symmetric_grid(3.0, 64)
    f = GridFunction(xs, np.sin(xs), np.sin(-3.0), np.sin(3.0), "constant",
                     np.inf)
    p = tmp_path / "f.csv"
    f.to_csv(p)
    g = GridFunction.from_csv(p)
    assert np.array_equal(f.ys, g.ys)
    assert g.far_kind == "constant" and g.tail_tol == np.inf


def test_corner_function_shape():
    xs = symmetric_grid(2.0, 64)
    f = corner_function(0.3, 0.7, xs)
    assert f.ys[xs == 1.0][0] == pytest.approx(0.3)
    assert f.ys[xs == -1.0][0] == pytest.approx(0.7)
    assert f.left_far == -0.7 and f.right_far == 0.3


def test_smoothed_abs_limits():
    x = np.linspace(-5.0, 5.0, 201)
    s = smoothed_abs(x, 0.1)
    # even, above |x|, and converging to |x| away from the corner
    assert np.max(np.abs(s - s[::-1])) < 5e-15
    assert np.all(s >= np.abs(x) - 1e-15)
    far = np.abs(x) > 1.0
    assert np.max(np.abs(s[far] - np.abs(x[far]))) < 1e-15
    assert smoothed_abs(np.array([0.0]), 0.1)[0] == pytest.approx(
        0.1 * np.sqrt(2.0 / np.pi))
    assert np.array_equal(smoothed_abs(x, 0.0), np.abs(x))
