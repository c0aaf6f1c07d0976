# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled twins of the _slowpath kernels.

Same contracts, same math; loops instead of temporaries. The pentadiagonal
march prefactors the banded matrix once (LAPACK gbtrf) and reuses it every
step, which the SciPy fallback cannot do.
"""
import numpy as np

cimport numpy as cnp
from libc.math cimport floor, fabs, isfinite
from scipy.linalg.cython_lapack cimport dgbtrf, dgbtrs

from .errors import GridMismatch

cnp.import_array()

NAME = "fast"


cdef inline double _cubic_at(const double* tab, Py_ssize_t n, double x0,
                             double h, double q, double fill_left,
                             double fill_right) noexcept nogil:
    cdef double t = (q - x0) / h
    cdef Py_ssize_t j
    cdef double u, f0, f1, f2, f3, w0, w1, w2, w3
    if t < 0.0:
        return fill_left
    if t > n - 1.0:
        return fill_right
    j = <Py_ssize_t>floor(t)
    if j < 1:
        j = 1
    elif j > n - 3:
        j = n - 3
    u = t - j
    f0 = tab[j - 1]; f1 = tab[j]; f2 = tab[j + 1]; f3 = tab[j + 2]
    w0 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w1 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w2 = -(u + 1.0) * u * (u - 2.0) / 2.0
    w3 = (u + 1.0) * u * (u - 1.0) / 6.0
    return w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3


cdef inline double _sym_at(const double* tab, Py_ssize_t n, double h,
                           int parity, double q) noexcept nogil:
    cdef double v
    if q < 0.0:
        v = _cubic_at(tab, n, 0.0, h, -q, 0.0, 0.0)
        return -v if parity else v
    return _cubic_at(tab, n, 0.0, h, q, 0.0, 0.0)


def cubic_eval(tab, x0, h, q, fill_left, fill_right):
    cdef cnp.ndarray[double, ndim=1] tarr = np.ascontiguousarray(tab, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    shape = qa.shape
    cdef cnp.ndarray[double, ndim=1] qf = np.ascontiguousarray(qa.ravel())
    cdef cnp.ndarray[double, ndim=1] out = np.empty(qf.size, dtype=np.float64)
    cdef Py_ssize_t i, m = qf.size, n = tarr.size
    cdef double cx0 = x0, ch = h, fl = fill_left, fr = fill_right
    cdef const double* tp = &tarr[0]
    with nogil:
        for i in range(m):
            out[i] = _cubic_at(tp, n, cx0, ch, qf[i], fl, fr)
    return out.reshape(shape)


def sym_eval(tab, h, parity, q):
    cdef cnp.ndarray[double, ndim=1] tarr = np.ascontiguousarray(tab, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    shape = qa.shape
    cdef cnp.ndarray[double, ndim=1] qf = np.ascontiguousarray(qa.ravel())
    cdef cnp.ndarray[double, ndim=1] out = np.empty(qf.size, dtype=np.float64)
    cdef Py_ssize_t i, m = qf.size, n = tarr.size
    cdef double ch = h
    cdef int par = parity
    cdef const double* tp = &tarr[0]
    with nogil:
        for i in range(m):
            out[i] = _sym_at(tp, n, ch, par, qf[i])
    return out.reshape(shape)


def skew_sum(tab, h, parity, a, b, z, w, scale, chunk=0):
    cdef cnp.ndarray[double, ndim=1] tarr = np.ascontiguousarray(tab, dtype=np.float64)
    cdef cnp.ndarray[double, ndim=1] aa = np.ascontiguousarray(a, dtype=np.float64)
    cdef cnp.ndarray[double, ndim=1] za = np.ascontiguousarray(z, dtype=np.float64)
    cdef cnp.ndarray[double, ndim=1] wa = np.ascontiguousarray(w, dtype=np.float64)
    cdef cnp.ndarray[double, ndim=1] out = np.zeros(aa.size, dtype=np.float64)
    cdef Py_ssize_t i, j, m = aa.size, nz = za.size, n = tarr.size
    cdef double ch = h, cb = b, cs = scale, acc, ai
    cdef int par = parity
    cdef const double* tp = &tarr[0]
    if za.size != wa.size:
        # the loop below reads wa[j] for every j < za.size
        raise GridMismatch(f"skew_sum: {za.size} source nodes but "
                           f"{wa.size} weights")
    with nogil:
        for i in range(m):
            acc = 0.0
            ai = aa[i]
            for j in range(nz):
                acc += wa[j] * _sym_at(tp, n, ch, par, (ai - cb * za[j]) * cs)
            out[i] = acc
    return out


cdef int _band_factor(double* ab, int* ipiv, Py_ssize_t n,
                      double c, double diag0, double diag_last,
                      double sub_first, double sup_last) noexcept nogil:
    """Fill LAPACK band storage (F-order, ldab=7) for I + dt*D4 and factor."""
    cdef Py_ssize_t j
    cdef int nn = <int>n, kl = 2, ku = 2, ldab = 7, info = 0
    for j in range(n):
        ab[7 * j + 0] = 0.0
        ab[7 * j + 1] = 0.0
        ab[7 * j + 2] = c if j >= 2 else 0.0
        ab[7 * j + 3] = -4.0 * c if j >= 1 else 0.0
        ab[7 * j + 4] = 1.0 + 6.0 * c
        ab[7 * j + 5] = -4.0 * c if j <= n - 2 else 0.0
        ab[7 * j + 6] = c if j <= n - 3 else 0.0
    ab[7 * 0 + 4] = diag0
    ab[7 * (n - 1) + 4] = diag_last
    ab[7 * 0 + 5] = sub_first
    ab[7 * (n - 1) + 3] = sup_last
    dgbtrf(&nn, &nn, &kl, &ku, ab, &ldab, ipiv, &info)
    return info


cdef void _band_solve(double* ab, int* ipiv, double* rhs,
                      Py_ssize_t n) noexcept nogil:
    cdef char trans = b'N'
    cdef int nn = <int>n, kl = 2, ku = 2, nrhs = 1, ldab = 7, info = 0
    dgbtrs(&trans, &nn, &kl, &ku, &nrhs, ab, &ldab, ipiv, rhs, &nn, &info)


cdef void _explicit_u(const double* u, double* out, Py_ssize_t n, double h,
                      double A, double B, double* w, double* phi) noexcept nogil:
    """Same stencils as _slowpath._explicit_u; w, phi are n+2 scratch."""
    cdef Py_ssize_t i
    cdef double um2, um1, up1, up2, wxx, wx, wi, w2, inv2h = 0.5 / h
    cdef double invh2 = 1.0 / (h * h)
    # slope w at nodes -1..n (ghosts linear with slopes -B, A)
    for i in range(n + 2):
        if i == 0:
            um1 = u[0] + 2.0 * h * B
            up1 = u[0]
        elif i == 1:
            um1 = u[0] + h * B
            up1 = u[1]
        elif i == n:
            um1 = u[n - 2]
            up1 = u[n - 1] + h * A
        elif i == n + 1:
            um1 = u[n - 1]
            up1 = u[n - 1] + 2.0 * h * A
        else:
            um1 = u[i - 2]
            up1 = u[i]
        w[i] = (up1 - um1) * inv2h
    for i in range(n):
        wi = w[i + 1]
        wxx = (w[i + 2] - 2.0 * wi + w[i]) * invh2
        wx = (w[i + 2] - w[i]) * inv2h
        w2 = wi * wi
        phi[i] = w2 * (2.0 + w2) / ((1.0 + w2) * (1.0 + w2)) * wxx \
            + 3.0 * wi * wx * wx / ((1.0 + w2) * (1.0 + w2) * (1.0 + w2))
    out[0] = (phi[1] - phi[0]) / h
    for i in range(1, n - 1):
        out[i] = (phi[i + 1] - phi[i - 1]) * inv2h
    out[n - 1] = (phi[n - 1] - phi[n - 2]) / h


def penta_march_u(u, nsteps, dt, h, A, B, growth_cap=10.0):
    cdef cnp.ndarray[double, ndim=1] uu = np.array(u, dtype=np.float64)
    cdef Py_ssize_t n = uu.size, i, step
    cdef double c = dt / h ** 4, cdt = dt, ch = h, cA = A, cB = B
    cdef double cap = growth_cap, sup0, sup1
    cdef cnp.ndarray[double, ndim=2, mode='fortran'] ab = np.zeros((7, n), order='F')
    cdef cnp.ndarray[int, ndim=1] ipiv = np.zeros(n, dtype=np.intc)
    cdef cnp.ndarray[double, ndim=1] rhs = np.empty(n)
    cdef cnp.ndarray[double, ndim=1] ex = np.empty(n)
    cdef cnp.ndarray[double, ndim=1] wbuf = np.empty(n + 2)
    cdef cnp.ndarray[double, ndim=1] pbuf = np.empty(n + 2)
    cdef int info, bad = 0
    cdef long ns = nsteps
    cdef double* ab_p = &ab[0, 0]
    cdef int* ipiv_p = &ipiv[0]
    info = _band_factor(ab_p, ipiv_p, n, c, 1.0 + 3.0 * c, 1.0 + 3.0 * c,
                        -3.0 * c, -3.0 * c)
    if info != 0:
        raise RuntimeError("banded factorization failed (info=%d)" % info)
    with nogil:
        for step in range(ns):
            sup0 = 1e-300
            for i in range(n):
                if fabs(uu[i]) > sup0:
                    sup0 = fabs(uu[i])
            _explicit_u(&uu[0], &ex[0], n, ch, cA, cB, &wbuf[0], &pbuf[0])
            for i in range(n):
                rhs[i] = uu[i] + cdt * ex[i]
            rhs[0] += 2.0 * ch * cB * c
            rhs[1] += -ch * cB * c
            rhs[n - 1] += 2.0 * ch * cA * c
            rhs[n - 2] += -ch * cA * c
            _band_solve(ab_p, ipiv_p, &rhs[0], n)
            sup1 = 0.0
            for i in range(n):
                uu[i] = rhs[i]
                if not isfinite(uu[i]):
                    bad = 1
                if fabs(uu[i]) > sup1:
                    sup1 = fabs(uu[i])
            if bad or sup1 > cap * sup0:
                bad = 1
                break
    return np.asarray(uu), (1 if bad else 0)
