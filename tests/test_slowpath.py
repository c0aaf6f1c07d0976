"""Contracts of the numpy kernels and of `_backend`, their import point."""
import numpy as np
import pytest

from cornerflow import _backend, _slowpath
from cornerflow.errors import GridMismatch, NumericalFailure


def test_backend_reexports_the_numpy_kernels():
    # bench/run.py reports _backend.name; bench/tracer.py wraps the four
    # primitives on _backend and _slowpath's solve_banded and _explicit_u
    assert isinstance(_backend.name, str) and _backend.name
    for name in ("cubic_eval", "sym_eval", "skew_sum", "penta_march_u"):
        assert getattr(_backend, name) is getattr(_slowpath, name)
    assert callable(_slowpath.solve_banded)
    assert callable(_slowpath._explicit_u)


def test_skew_sum_rejects_size_mismatch():
    tab = np.linspace(1.0, 0.0, 64)
    z = np.linspace(-1.0, 1.0, 33)
    with pytest.raises(GridMismatch):
        _slowpath.skew_sum(tab, 0.1, 0, z, 0.5, z, np.ones(17), 1.0)
    out = _slowpath.skew_sum(tab, 0.1, 0, z, 0.5, z, np.ones(33), 1.0)
    assert out.shape == z.shape


def test_march_steps_go_through_the_module_globals(monkeypatch):
    # bench/tracer.py times oracle.banded_solve and oracle.explicit_flux by
    # wrapping these two names; a march that bypassed them would read 0
    calls = {"solve_banded": 0, "_explicit_u": 0}
    for name in calls:
        orig = getattr(_slowpath, name)

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(_slowpath, name, counted)
    xs = np.linspace(-10.0, 10.0, 513)
    u, status = _slowpath.penta_march_u(0.1 * np.abs(xs), 7, 1e-4,
                                        xs[1] - xs[0], 0.1, 0.1)
    assert status == 0
    assert calls == {"solve_banded": 7, "_explicit_u": 7}


def test_singular_band_matrix_raises(monkeypatch):
    # a nonzero dgbtrf info is an error, never a silently wrong march
    monkeypatch.setattr(_slowpath, "_penta_bands",
                        lambda n, *args: np.zeros((7, n), order="F"))
    with pytest.raises(NumericalFailure, match="dgbtrf"):
        _slowpath.penta_march_u(np.zeros(64), 1, 1e-4, 0.1, 0.0, 0.0)
