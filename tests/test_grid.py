import json
import sys

import numpy as np
import pytest

from cornerflow import GridFunction, KernelTable, MarchConfig, \
    ValidationError, corner_function, diagnostics, ds_of_array, inner_sup, \
    load_profile, oracle, regularizing_constants, save_profile, \
    smoothed_abs, symmetric_grid
from cornerflow.grid import _cumulative_simpson, _fd, _simpson


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


@pytest.mark.parametrize("read", (
    GridFunction.from_csv, KernelTable.from_csv,
    lambda path: load_profile(path, None),
), ids=("grid-function", "kernel-table", "profile"))
@pytest.mark.parametrize("text", (None, "x,y\n0.5,1.5\n"),
                         ids=("missing", "one-row"))
def test_csv_readers_name_the_file(tmp_path, read, text):
    # every reader refuses a missing file and a file of one row with a
    # ValidationError that names it, before it looks at a sidecar
    p = tmp_path / "short.csv"
    if text is not None:
        p.write_text(text)
    with pytest.raises(ValidationError, match="short.csv"):
        read(p)


@pytest.mark.parametrize("meta, match", (
    ({"left_far": 0.0, "right_far": 0.0}, "lacks far_kind$"),
    ([0.0], "lacks left_far, right_far, far_kind$"),
    ({"left_far": "x", "right_far": 0.0, "far_kind": "linear"},
     "far values"),
    ({"left_far": 0.0, "right_far": 0.0, "far_kind": "constant",
      "tail_tol": None}, "far values"),
), ids=("no-far-kind", "not-an-object", "text-far-value", "null-tail-tol"))
def test_from_csv_refuses_a_bad_sidecar(tmp_path, meta, match):
    xs = symmetric_grid(3.0, 64)
    p = tmp_path / "f.csv"
    GridFunction(xs, 0.0 * xs, 0.0, 0.0, "constant").to_csv(p)
    (tmp_path / "f.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=match):
        GridFunction.from_csv(p)


def test_to_csv_returns_both_paths(tmp_path):
    xs = symmetric_grid(3.0, 64)
    p = tmp_path / "f.csv"
    assert GridFunction(xs, 0.0 * xs).to_csv(p) == [str(p),
                                                    str(tmp_path / "f.json")]


def test_csv_reader_counts_columns(tmp_path):
    xs = symmetric_grid(3.0, 64)
    p = tmp_path / "f.csv"
    GridFunction(xs, 0.0 * xs).to_csv(p)
    with pytest.raises(ValidationError, match="f.csv.* 65 rows of 2 "
                                              "columns, not 2 or more of 6"):
        KernelTable.from_csv(p)


@pytest.mark.parametrize("far", (
    (np.nan, 0.0, 1e-3), (0.0, np.inf, 1e-3), (0.0, 0.0, np.nan),
    (0.0, 0.0, -1.0), ("0", 0.0, 1e-3),
))
def test_grid_function_rejects_bad_far_values(far):
    xs = symmetric_grid(3.0, 64)
    with pytest.raises(ValidationError, match="far values"):
        GridFunction(xs, 0.0 * xs, far[0], far[1], "linear", far[2])


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


def _assert_simpson_pair_is_scipys(ys, dx):
    from scipy.integrate import cumulative_simpson, simpson
    assert _simpson(ys, dx) == simpson(ys, dx=dx)
    assert np.array_equal(_cumulative_simpson(ys, dx),
                          cumulative_simpson(ys, dx=dx, initial=0.0))


@pytest.mark.parametrize("n", (3, 4, 5, 6, 2049, 16384))
def test_simpson_pair_is_scipys_bit_for_bit(rng, n):
    # odd node counts are Simpson throughout; even ones end on SciPy's own
    # weights for the last interval
    for dx in (1.0, 0.1, 40.0 / 16383):
        _assert_simpson_pair_is_scipys(rng.standard_normal(n), dx)


def test_simpson_pair_is_scipys_on_the_package_inputs(ktable, monkeypatch):
    for ys in (ktable.g_ell[0], 1.0 - ktable.G,
               *(np.abs(g) for g in ktable.g_ell)):
        _assert_simpson_pair_is_scipys(ys, ktable.h)
    # the package exports a function named geometry over the module's name
    geometry = sys.modules["cornerflow.geometry"]
    seen = []

    def record(integrate):
        def wrapped(ys, dx):
            seen.append((np.array(ys), dx))
            return integrate(ys, dx)
        return wrapped

    monkeypatch.setattr(geometry, "_cumulative_simpson",
                        record(_cumulative_simpson))
    monkeypatch.setattr(diagnostics, "_simpson", record(_simpson))
    # corner segments of odd and even node counts, and smooth slopes
    for xs in (symmetric_grid(5.0, 640), np.linspace(-5.0, 7.01, 1202)):
        cab = corner_function(0.3, 0.7, xs)
        geometry.arclength_from_zero(cab.xs, cab.ys)
    for xs in (symmetric_grid(40.0, 4096), np.linspace(-40.0, 40.02, 4002)):
        at = GridFunction(xs, np.arctan(xs), 0.0, 0.0, "linear")
        geometry.arclength_from_zero(at.xs, at.ys)
        assert diagnostics.l1_linear_bound(at, 0.0).applicable
    assert {ys.size % 2 for ys, _ in seen} == {0, 1} and len(seen) == 8
    for ys, dx in seen:
        _assert_simpson_pair_is_scipys(ys, dx)


# (argument name, call of (table, profile, saved profile path)) that hands
# an entry point an object of the wrong type in that argument
WRONG_TYPES = {
    "load_profile": ("table", lambda tab, prof, path: load_profile(path,
                                                                   None)),
    "save_profile": ("profile", lambda tab, prof, path: save_profile(
        None, path)),
    "regularizing_constants": ("table", lambda tab, prof, path:
                               regularizing_constants(
                                   None, 1, np.geomspace(1e-2, 10.0, 4))),
    "time_march": ("cfg", lambda tab, prof, path: oracle.time_march(
        corner_function(0.1, 0.1, symmetric_grid(10.0, 64)), None, [1.0])),
    "compare_with_mild": ("profile", lambda tab, prof, path:
                          oracle.compare_with_mild(None, tab)),
    "mild_gaps": ("marched", lambda tab, prof, path: oracle.mild_gaps(
        None, prof, tab, MarchConfig(0.1, 0.1), 1.0)),
    "mild_gaps cfg": ("cfg", lambda tab, prof, path: oracle.mild_gaps(
        corner_function(0.1, 0.1, symmetric_grid(10.0, 64)), prof, tab,
        None, 1.0)),
    "compare_with_mild cfg": ("cfg", lambda tab, prof, path:
                              oracle.compare_with_mild(prof, tab, cfg="x")),
    "x_infty_norm": ("profile", lambda tab, prof, path:
                     diagnostics.x_infty_norm(None)),
    "run_diagnostics": ("phi", lambda tab, prof, path:
                        diagnostics.run_diagnostics(np.zeros(5))),
    "l1_linear_bound": ("phi", lambda tab, prof, path:
                        diagnostics.l1_linear_bound(None, 0.1)),
    "esp_check": ("phi", lambda tab, prof, path:
                  diagnostics.esp_check(None, 1.0, 0.0)),
    "peg_bound_check": ("phi", lambda tab, prof, path:
                        diagnostics.peg_bound_check(None)),
    "d0_and_d": ("phi", lambda tab, prof, path: diagnostics.d0_and_d(None)),
    # stride 1 would hand the object back unchecked
    "subsample": ("phi", lambda tab, prof, path:
                  diagnostics.subsample(None, 1)),
    "ds_of_array": ("geom", lambda tab, prof, path: ds_of_array(
        np.zeros(17), None)),
    "esp_check alpha": ("alpha", lambda tab, prof, path:
                        diagnostics.esp_check(prof.psi, "x", 0.0)),
    "esp_check beta": ("beta", lambda tab, prof, path:
                       diagnostics.esp_check(prof.psi, 0.0, None)),
    "l1_linear_bound a0": ("a0", lambda tab, prof, path:
                           diagnostics.l1_linear_bound(prof.psi, "x")),
    "refinement_threshold": ("r_coarse", lambda tab, prof, path:
                             diagnostics.refinement_threshold("a", 1.0)),
    "refinement_threshold r_fine": ("r_fine", lambda tab, prof, path:
                                    diagnostics.refinement_threshold(
                                        1.0, np.nan)),
    "inner_sup": ("values", lambda tab, prof, path: inner_sup(None)),
    "KernelTable": ("g_tables", lambda tab, prof, path: KernelTable(
        tab.etas, None, tab.G)),
}


@pytest.mark.parametrize("entry", WRONG_TYPES)
def test_wrong_object_type_is_a_typed_error(ktable, profile_8k, tmp_path,
                                            entry):
    # an object of the wrong type raises ValidationError naming its
    # argument, where an attribute lookup would raise a bare AttributeError
    path = save_profile(profile_8k, tmp_path / "profile.csv")[0]
    name, call = WRONG_TYPES[entry]
    with pytest.raises(ValidationError, match=f"^{name} must be a "):
        call(ktable, profile_8k, path)
