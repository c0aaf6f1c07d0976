import numpy as np
import pytest

from cornerflow import (GridFunction, MarchConfig, ValidationError,
                        compare_with_mild, corner_function, time_march)
from cornerflow.errors import OracleInstability


def _cfg(**kw):
    kw.setdefault("half_width", 10.0)
    kw.setdefault("intervals", 512)
    kw.setdefault("dt_max", 1e-4)
    return MarchConfig(kw.pop("A", 0.1), kw.pop("B", 0.1), **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, intervals=256)
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, dt_init=1e-3, dt_max=1e-5)
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, ramp=0.9)
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, growth_cap=0.5)
    with pytest.raises(ValidationError):
        MarchConfig(0.1, 0.1, intervals=512, half_width=10.0,
                    moll_width=1e-4)


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
    ref_cfg = MarchConfig(0.1, 0.1, half_width=10.0, intervals=4096,
                          dt_max=2e-5, moll_width=1.0)
    ref = time_march(ref_cfg.mollified_corner(), ref_cfg, [0.02])[0]
    for n in grids:
        cfg = MarchConfig(0.1, 0.1, half_width=10.0, intervals=n,
                          dt_max=2e-5, moll_width=1.0)
        out = time_march(cfg.mollified_corner(), cfg, [0.02])[0]
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


def test_growth_cap_trips():
    # data inconsistent with the declared far slopes: the boundary terms
    # pump the sup norm up from zero, which the per-step cap must catch
    cfg = _cfg(A=0.3, B=0.3, growth_cap=1.5)
    u0 = GridFunction(cfg.xs, np.zeros(cfg.xs.size), -0.3, 0.3, "linear")
    with pytest.raises(OracleInstability):
        time_march(u0, cfg, [0.1])


def test_compare_with_mild_smoke(profile_8k, ktable):
    cfg = MarchConfig(0.1, 0.1, half_width=20.0, intervals=1024,
                      dt_max=2e-4)
    out = compare_with_mild(profile_8k, ktable, cfg=cfg, t_final=0.5)
    # coarse grid and fat dt still agree to mollification accuracy
    assert out["sup_diff"] < 5e-3
    assert out["moll_width"] == cfg.moll_width
    assert out["marched"].n == out["mild"].n
