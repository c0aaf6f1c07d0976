import subprocess
import sys

import numpy as np
import pytest

from cornerflow import _backend, _slowpath
from cornerflow.errors import GridMismatch

fastpath = pytest.importorskip("cornerflow._fastpath",
                               reason="compiled extension not built")


@pytest.fixture()
def tab(rng):
    return np.cumsum(rng.normal(size=4096)) * 0.01


def test_cubic_eval_parity(tab, rng):
    q = rng.uniform(-5.0, 45.0, 20000)
    a = _slowpath.cubic_eval(tab, 0.0, 0.01, q, -1.0, 2.0)
    b = fastpath.cubic_eval(tab, 0.0, 0.01, q, -1.0, 2.0)
    assert np.max(np.abs(a - b)) < 1e-12


def test_cubic_eval_preserves_shape(tab):
    q = np.linspace(0.0, 1.0, 24).reshape(4, 6)
    a = _slowpath.cubic_eval(tab, 0.0, 0.01, q, 0.0, 0.0)
    b = fastpath.cubic_eval(tab, 0.0, 0.01, q, 0.0, 0.0)
    assert a.shape == q.shape and b.shape == q.shape
    assert np.max(np.abs(a - b)) < 1e-12


def test_sym_eval_parity(tab, rng):
    q = rng.uniform(-45.0, 45.0, 20000)
    for parity in (0, 1):
        a = _slowpath.sym_eval(tab, 0.01, parity, q)
        b = fastpath.sym_eval(tab, 0.01, parity, q)
        assert np.max(np.abs(a - b)) < 1e-12


def test_skew_sum_parity(tab, rng):
    a_pts = np.linspace(-20.0, 20.0, 257)
    z = np.linspace(-10.0, 10.0, 129)
    w = rng.normal(size=129)
    for parity in (0, 1):
        s = _slowpath.skew_sum(tab, 0.01, parity, a_pts, 0.7, z, w, 1.3)
        f = fastpath.skew_sum(tab, 0.01, parity, a_pts, 0.7, z, w, 1.3)
        assert np.max(np.abs(s - f)) < 1e-11 * np.max(np.abs(s) + 1.0)


def test_skew_sum_size_guard(tab):
    # the numpy twin is checked in test_slowpath.py
    z = np.linspace(-10.0, 10.0, 129)
    with pytest.raises(GridMismatch):
        fastpath.skew_sum(tab, 0.01, 0, z, 0.7, z, np.ones(64), 1.3)


def test_march_parity(rng):
    n = 513
    h = 20.0 / (n - 1)
    u0 = 0.1 * np.abs(np.linspace(-10.0, 10.0, n)) + 0.01 * rng.normal(size=n)
    su, ss = _slowpath.penta_march_u(u0, 50, 1e-7, h, 0.1, 0.1, 10.0)
    fu, fs = fastpath.penta_march_u(u0, 50, 1e-7, h, 0.1, 0.1, 10.0)
    assert ss == fs == 0
    assert np.max(np.abs(su - fu)) < 1e-12


def test_backend_env_selection():
    code = ("import cornerflow._backend as b; print(b.name)")
    for want in ("slow", "fast"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"CORNERFLOW_BACKEND": want, "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == want


def test_active_backend_exposes_all_primitives():
    for name in ("cubic_eval", "sym_eval", "skew_sum", "penta_march_u"):
        assert hasattr(_backend, name)
