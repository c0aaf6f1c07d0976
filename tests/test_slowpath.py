"""Contracts of the numpy kernels and of `_backend`, their import point."""
import numpy as np
import pytest

from cornerflow import _backend, _slowpath
from cornerflow.errors import GridMismatch


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
