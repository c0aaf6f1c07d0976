import numpy as np
import pytest
from scipy.linalg import solve_banded

from cornerflow import (GridFunction, MarchConfig, ValidationError,
                        compare_with_mild, corner_function, smoothed_abs,
                        time_march)
from cornerflow import _slowpath, oracle
from cornerflow.errors import OracleInstability


def _cfg(**kw):
    kw.setdefault("half_width", 10.0)
    kw.setdefault("intervals", 512)
    kw.setdefault("dt_max", 1e-4)
    return MarchConfig(kw.pop("A", 0.1), kw.pop("B", 0.1), **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, intervals=256)
    # dt_max below the first step of the ramp, or not positive
    for bad in (0.5 * oracle.DT_INIT, 0.0, -1e-5):
        with pytest.raises(ValidationError, match="dt_max"):
            MarchConfig(0.1, 0.1, dt_max=bad)
    assert MarchConfig(0.1, 0.1, dt_max=oracle.DT_INIT).dt_max == 1e-8
    # non-finite settings: an inf dt_max would stop the march short
    for key in ("A", "B", "half_width", "dt_max"):
        for bad in (np.inf, np.nan):
            kw = {"A": 0.1, "B": 0.1, key: bad}
            with pytest.raises(ValidationError, match=key):
                MarchConfig(kw.pop("A"), kw.pop("B"), **kw)
    # non-numeric settings are typed errors that name the setting
    for key, bad in (("dt_max", "2e-5"), ("A", "0.1"), ("half_width", None)):
        kw = {"A": 0.1, "B": 0.1, key: bad}
        with pytest.raises(ValidationError, match=key):
            MarchConfig(kw.pop("A"), kw.pop("B"), **kw)
    # intervals is a count: non-finite, fractional or textual values are
    # typed errors, integral floats and numpy integers are counts
    for bad in (np.nan, np.inf, "4096", 4096.5):
        with pytest.raises(ValidationError, match="intervals"):
            MarchConfig(0.1, 0.1, intervals=bad)
    for good in (4096.0, np.int64(4096), np.float64(4096.0)):
        assert MarchConfig(0.1, 0.1, intervals=good).intervals == 4096


def test_mollified_corner_gap():
    cfg = _cfg()
    u0 = cfg.mollified_corner()
    cab = corner_function(0.1, 0.1, cfg.xs)
    gap = np.max(np.abs(u0.ys - cab.ys))
    # closed-form peak of the Gaussian smoothing at the kink
    assert gap == pytest.approx(
        0.1 * cfg.moll_width * np.sqrt(2.0 / np.pi), rel=1e-12)


def test_march_preserves_linear_data():
    cfg = _cfg(A=0.1, B=-0.1)
    u0 = GridFunction(cfg.xs, 0.1 * cfg.xs, 0.1, 0.1, "linear")
    out = time_march(u0, cfg, [0.05, 0.1])
    for snap in out:
        assert np.max(np.abs(snap.ys - 0.1 * cfg.xs)) < 1e-9


def test_small_sine_decays_at_linear_rate():
    # u = -(amp/k) cos(kx) has slope amp sin(kx); both decay by exp(-k^4 t)
    cfg = _cfg(A=0.0, B=0.0, half_width=20.0, intervals=2048, dt_max=5e-5)
    k = 4.0 * np.pi / 20.0
    amp = 0.01
    u0 = GridFunction(cfg.xs, -(amp / k) * np.cos(k * cfg.xs), 0.0, 0.0,
                      "linear")
    out = time_march(u0, cfg, [1.0])[0]
    n = cfg.xs.size
    measured = np.max(np.abs(out.ys[n // 4: -n // 4]))
    expected = (amp / k) * np.exp(-k ** 4)
    assert measured / expected == pytest.approx(1.0, abs=5e-3)


def test_sup_norm_overshoot_is_linear_ringing():
    # the slope of a corner is a step, which rings under the fourth-order
    # kernel: the evolved sup is (2 max G - 1) = 1.10442x the initial sup,
    # and small data stays pinned there (regression band 1.09..1.11)
    cfg = _cfg(half_width=20.0, intervals=2048)
    u0 = cfg.mollified_corner()
    out = time_march(u0, cfg, [0.5])[0]
    slope0 = np.gradient(u0.ys, cfg.h)[8:-8]
    slope = np.gradient(out.ys, cfg.h)[8:-8]
    factor = np.max(np.abs(slope)) / np.max(np.abs(slope0))
    assert 1.09 <= factor <= 1.11


def test_space_self_convergence_order():
    # smooth data, fixed small dt: interior error order ~2 between grids
    errs = []
    grids = (512, 1024, 2048)
    def march(n):
        # the corner (0.1, 0.1) mollified over width 1
        cfg = MarchConfig(0.1, 0.1, half_width=10.0, intervals=n,
                          dt_max=2e-5)
        u0 = GridFunction(cfg.xs, 0.1 * smoothed_abs(cfg.xs, 1.0), -0.1, 0.1,
                          "linear")
        return time_march(u0, cfg, [0.02])[0]

    ref = march(4096)
    for n in grids:
        out = march(n)
        stride = 4096 // n
        errs.append(np.max(np.abs(out.ys - ref.ys[::stride])[8:-8]))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8


def test_times_and_grid_validation():
    cfg = _cfg()
    u0 = cfg.mollified_corner()
    with pytest.raises(ValidationError):
        time_march(u0, cfg, [])
    with pytest.raises(ValidationError):
        time_march(u0, cfg, [0.2, 0.1])
    with pytest.raises(ValidationError):
        time_march(u0, cfg, [-1.0])
    other = MarchConfig(0.1, 0.1, half_width=12.0, intervals=512,
                        dt_max=1e-4)
    with pytest.raises(ValidationError):
        time_march(u0, other, [0.1])
    # bare samples are not initial data
    with pytest.raises(ValidationError, match="GridFunction"):
        time_march(np.zeros(cfg.xs.size), cfg, [0.1])


@pytest.mark.parametrize("times", ([np.nan], [np.inf], [0.1, np.nan]),
                         ids=("nan", "inf", "then-nan"))
def test_march_refuses_non_finite_times(times):
    # such a time would return the initial data or the state after the
    # ramp, labelled with the time that was asked for
    cfg = _cfg()
    with pytest.raises(ValidationError, match="positive finite"):
        time_march(cfg.mollified_corner(), cfg, times)


def test_growth_cap_trips():
    # data inconsistent with the declared far slopes: the boundary terms
    # pump the sup norm up from zero, which the per-step cap must catch
    cfg = _cfg(A=0.3, B=0.3)
    u0 = GridFunction(cfg.xs, np.zeros(cfg.xs.size), -0.3, 0.3, "linear")
    with pytest.raises(OracleInstability):
        time_march(u0, cfg, [0.1])


def test_nonfinite_step_is_typed():
    # the explicit flux of huge data overflows to inf/nan; the step's
    # finite check must turn that into OracleInstability
    cfg = _cfg()
    u0 = GridFunction(cfg.xs, 1e160 * np.cos(cfg.xs), -0.1, 0.1, "linear")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OracleInstability):
            time_march(u0, cfg, [0.1])
        u, status = _slowpath.penta_march_u(u0.ys, 3, 1e-8, cfg.h, 0.1, 0.1)
    assert status == 1 and not np.all(np.isfinite(u))


def _reference_march(u, nsteps, dt, h, A, B, growth_cap):
    """The march with I + dt*D4 handed to scipy's solve_banded (a pivoted
    banded LU) on every step.

    Returns (u, status, steps taken); the factored march must match it.
    """
    u = np.array(u, dtype=float)
    n = u.size
    c = dt / h ** 4
    ab = np.zeros((5, n))
    ab[0, 2:] = c
    ab[1, 1:] = -4.0 * c
    ab[2, :] = 1.0 + 6.0 * c
    ab[3, :-1] = -4.0 * c
    ab[4, :-2] = c
    ab[2, 0] = ab[2, -1] = 1.0 + 3.0 * c
    ab[3, 0] = ab[1, -1] = -3.0 * c
    rc = np.zeros(n)
    rc[0], rc[1] = 2.0 * h * B * c, -h * B * c
    rc[-1], rc[-2] = 2.0 * h * A * c, -h * A * c
    for step in range(1, nsteps + 1):
        sup0 = np.max(np.abs(u)) + 1e-300
        rhs = u + dt * _slowpath._explicit_u(u, h, A, B) + rc
        u = solve_banded((2, 2), ab, rhs)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > growth_cap * sup0:
            return u, 1, step
    return u, 0, nsteps


def _close(out, ref):
    # the Cholesky-plus-rank-2 solve rounds differently from the LU
    return np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_factored_march_matches_per_step_solve():
    # asymmetric corner, so the two boundary rows carry different data
    cfg = _cfg(A=0.2, B=0.03)
    u0 = cfg.mollified_corner().ys
    for dt, nsteps in ((oracle.DT_INIT * oracle.RAMP ** 20, 1),
                       (cfg.dt_max, 200)):
        ref, ref_status, _ = _reference_march(u0, nsteps, dt, cfg.h, cfg.A,
                                              cfg.B, oracle.GROWTH_CAP)
        out, status = _slowpath.penta_march_u(u0, nsteps, dt, cfg.h, cfg.A,
                                              cfg.B, oracle.GROWTH_CAP)
        assert status == ref_status == 0
        assert _close(out, ref)
    # the test_growth_cap_trips data trips at the same step in both
    trip = _cfg(A=0.3, B=0.3)
    zeros = np.zeros(trip.xs.size)
    ref, ref_status, ref_step = _reference_march(zeros, 200, trip.dt_max,
                                                 trip.h, 0.3, 0.3, 1.5)
    out, status = _slowpath.penta_march_u(zeros, 200, trip.dt_max, trip.h,
                                          0.3, 0.3, 1.5)
    # matching fields after the trip mean the same step tripped
    assert (ref_status, ref_step) == (1, 1)
    assert status == 1 and _close(out, ref)
    # a bump decays until the boundary pumping overtakes it, so the cap
    # trips mid-march, against the sup carried over from the step before
    bump = 0.1 * np.exp(-trip.xs ** 2 / 0.5)
    ref, ref_status, ref_step = _reference_march(bump, 200, trip.dt_max,
                                                 trip.h, 0.3, 0.3, 1.01)
    out, status = _slowpath.penta_march_u(bump, 200, trip.dt_max, trip.h,
                                          0.3, 0.3, 1.01)
    assert ref_status == 1 and 1 < ref_step < 200
    assert status == 1 and _close(out, ref)


def test_compare_with_mild_smoke(profile_8k, ktable):
    cfg = MarchConfig(0.1, 0.1, half_width=20.0, intervals=1024,
                      dt_max=2e-4)
    out = compare_with_mild(profile_8k, ktable, cfg=cfg, t_final=0.5)
    # coarse grid and fat dt still agree to mollification accuracy
    assert out["sup_diff"] < 5e-3
    assert out["moll_width"] == cfg.moll_width
    assert out["marched"].n == out["mild"].n
