"""Contracts of the numpy kernels and of `_backend`, their import point."""
import numpy as np
import pytest

from cornerflow import MarchConfig, _backend, _slowpath
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
    # wrapping solve_banded and _explicit_u; a march that bypassed them
    # would read 0. The band is Cholesky-factored once per call, i.e. once
    # per step size of the schedule, never once per step.
    calls = {"solve_banded": 0, "_explicit_u": 0, "dpbtrf": 0}
    for name in calls:
        orig = getattr(_slowpath, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(_slowpath, name, counted)
    xs = np.linspace(-10.0, 10.0, 513)
    u, status = _slowpath.penta_march_u(0.1 * np.abs(xs), 7, 1e-4,
                                        xs[1] - xs[0], 0.1, 0.1)
    assert status == 0
    assert calls == {"solve_banded": 7, "_explicit_u": 7, "dpbtrf": 1}
    u, status = _slowpath.penta_march_u(u, 3, 2e-4, xs[1] - xs[0], 0.1, 0.1)
    assert status == 0
    assert calls == {"solve_banded": 10, "_explicit_u": 10, "dpbtrf": 2}


def test_singular_band_matrix_raises(monkeypatch):
    # a nonzero dpbtrf info is an error, never a silently wrong march
    monkeypatch.setattr(_slowpath, "_sym_bands",
                        lambda n, c: np.zeros((3, n)))
    with pytest.raises(NumericalFailure, match="dpbtrf"):
        _slowpath.penta_march_u(np.zeros(64), 1, 1e-4, 0.1, 0.0, 0.0)


@pytest.mark.parametrize("bad", ["nan", "singular"])
def test_bad_capacitance_matrix_raises(monkeypatch, bad):
    # the 2 x 2 system of the rank-2 boundary term is solved in closed
    # form; a singular or non-finite one is a typed error, not LinAlgError
    n, dt, h = 64, 1e-4, 0.1
    c = dt / h ** 4

    def fake(ab, z, **kwargs):
        # stands in for the solve of Z = (I + c N^2)^{-1} [e0, e_{n-1}]
        if bad == "nan":
            return np.full_like(z, np.nan), 0
        z = np.zeros_like(z)
        z[1, 0] = 1.0 / c  # zeroes the first row of I + c V^T Z
        return z, 0

    monkeypatch.setattr(_slowpath, "dpbtrs", fake)
    with pytest.raises(NumericalFailure, match="capacitance"):
        _slowpath.penta_march_u(np.zeros(n), 1, dt, h, 0.0, 0.0)


def _dense_d4(n):
    """Boundary-closed D4 as a dense matrix, straight from its stencil.

    The ghost nodes u_{-j} = u_0 + j h B and u_{n-1+j} = u_{n-1} + j h A
    contribute their linear part, the end value, to the end column; the
    affine part is the march's separate boundary vector.
    """
    m = np.zeros((n, n))
    rows = np.arange(n)
    for offset, coef in zip(range(-2, 3), (1.0, -4.0, 6.0, -4.0, 1.0)):
        np.add.at(m, (rows, np.clip(rows + offset, 0, n - 1)), coef)
    return m


def test_solve_banded_solves_the_boundary_closed_system():
    # normwise backward error of (I + c M) x = b. Without the rank-2
    # boundary correction, the symmetric band alone leaves 3e-5 to 1e-2.
    n = 4097
    m = _dense_d4(n)
    rng = np.random.default_rng(7)
    for c in (1.0, 300.0, 5500.0, 5e5):
        b = rng.standard_normal(n)
        x = _slowpath.solve_banded(_slowpath._factor_banded(n, c), b.copy())
        resid = x + c * (m @ x) - b
        norm_a = 1.0 + 16.0 * c  # max row sum of |I + c M|, interior rows
        err = np.max(np.abs(resid)) / (norm_a * np.max(np.abs(x)))
        assert err <= 1e-12, (c, err)


def _explicit_u_reference(u, h, A, B):
    """The flux as first written: every difference scaled where it is formed."""
    n = u.size
    ue = np.empty(n + 4)
    ue[2:-2] = u
    ue[1] = u[0] + h * B
    ue[0] = u[0] + 2.0 * h * B
    ue[-2] = u[-1] + h * A
    ue[-1] = u[-1] + 2.0 * h * A
    w = (ue[2:] - ue[:-2]) / (2.0 * h)
    wxx = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    wx = (w[2:] - w[:-2]) / (2.0 * h)
    wi = w[1:-1]
    w2 = wi * wi
    phi = (w2 * (2.0 + w2) / (1.0 + w2) ** 2 * wxx
           + 3.0 * wi * wx * wx / (1.0 + w2) ** 3)
    out = np.empty(n)
    out[1:-1] = (phi[2:] - phi[:-2]) / (2.0 * h)
    out[0] = (phi[1] - phi[0]) / h
    out[-1] = (phi[-1] - phi[-2]) / h
    return out


def test_explicit_flux_matches_the_reference_formula():
    cfg = MarchConfig(0.2, 0.03)
    xs, h = cfg.xs, cfg.h
    cases = [(cfg.mollified_corner().ys, 0.2, 0.03),
             # rough data, ghosts from its own end slopes 0.7 cos(7x)
             (0.1 * np.sin(7.0 * xs), 0.7 * np.cos(7.0 * xs[-1]),
              -0.7 * np.cos(7.0 * xs[0]))]
    for u, A, B in cases:
        ref = _explicit_u_reference(u, h, A, B)
        out = _slowpath._explicit_u(u, h, A, B)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


# the stencils as plain expressions, each weight and sum left to right;
# the kernels build them in place and must give the same bits


def _weights_reference(u):
    return (-u * (u - 1.0) * (u - 2.0) / 6.0,
            (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
            -(u + 1.0) * u * (u - 2.0) / 2.0,
            (u + 1.0) * u * (u - 1.0) / 6.0)


def _cubic_reference(tab, x0, h, q, fill_left, fill_right):
    t = (np.asarray(q, dtype=float) - x0) / h
    j = np.clip(np.floor(t).astype(np.int64), 1, tab.size - 3)
    w0, w1, w2, w3 = _weights_reference(t - j)
    out = w0 * tab[j - 1] + w1 * tab[j] + w2 * tab[j + 1] + w3 * tab[j + 2]
    out = np.where(t >= 0.0, out, fill_left)
    return np.where(t <= tab.size - 1.0, out, fill_right)


def _quintic_reference(tab, x0, h, q):
    t = (np.asarray(q, dtype=float) - x0) / h
    j = np.clip(np.floor(t).astype(np.int64), 2, tab.size - 4)
    u = t - j
    p, m = u + 2.0, u - 3.0
    u1, u_1, u2 = u - 1.0, u + 1.0, u - 2.0
    inner = u_1 * u * u1 * u2
    return (-inner * m / 120.0 * tab[j - 2]
            + p * u * u1 * u2 * m / 24.0 * tab[j - 1]
            - p * u_1 * u1 * u2 * m / 12.0 * tab[j]
            + p * u_1 * u * u2 * m / 12.0 * tab[j + 1]
            - p * u_1 * u * u1 * m / 24.0 * tab[j + 2]
            + p * inner / 120.0 * tab[j + 3])


def _sym_reference(tab, h, parity, q):
    vals = _cubic_reference(tab, 0.0, h, np.abs(q), 0.0, 0.0)
    return np.where(q < 0.0, -vals, vals) if parity else vals


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.fixture()
def stencil_case(rng):
    """(table, x0, h, queries): random points over and past the table, its
    nodes, the end cells and both ends exactly."""
    tab = rng.standard_normal(60)
    x0, h = -1.3, 0.07
    nodes = x0 + h * np.arange(60)
    q = np.concatenate([rng.uniform(x0 - 0.5, x0 + 60 * h + 0.5, 4000),
                        nodes, x0 + h * rng.uniform(0.0, 1.0, 50),
                        x0 + h * rng.uniform(58.0, 59.0, 50),
                        [x0, nodes[-1], x0 - 1e-300, 0.0, -0.0]])
    return tab, x0, h, q


def test_lagrange_weights_match_reference(rng):
    # interior cells (0 <= u < 1), the end cells (-1 <= u < 0, 1 <= u <= 2)
    # and the nodes themselves, signed zeros included
    u = np.concatenate([rng.uniform(-1.0, 2.0, 5000),
                        [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0]])
    got = _slowpath.lagrange_weights(u)
    assert got.shape == (4, u.size)
    for g, want in zip(got, _weights_reference(u)):
        assert _same_bits(g, want)


def test_cubic_eval_matches_reference(stencil_case):
    tab, x0, h, q = stencil_case
    for fills in ((0.0, 0.0), (-0.3, 2.5)):
        assert _same_bits(_slowpath.cubic_eval(tab, x0, h, q, *fills),
                          _cubic_reference(tab, x0, h, q, *fills))
    # a scalar query gives a 0-d array, inside, below and above the table
    for x in (x0 + 7.3 * h, x0 - 1.0, x0 + 70 * h):
        got = _slowpath.cubic_eval(tab, x0, h, x, -0.3, 2.5)
        assert _same_bits(got, _cubic_reference(tab, x0, h, x, -0.3, 2.5))


def test_quintic_eval_matches_reference(stencil_case):
    # points off the table take the end stencils, as on it
    tab, x0, h, q = stencil_case
    assert _same_bits(_slowpath.quintic_eval(tab, x0, h, q),
                      _quintic_reference(tab, x0, h, q))


def test_sym_eval_matches_reference(stencil_case):
    tab, _, h, q = stencil_case
    q = np.concatenate([q, -q])
    for parity in (0, 1):
        assert _same_bits(_slowpath.sym_eval(tab, h, parity, q),
                          _sym_reference(tab, h, parity, q))
