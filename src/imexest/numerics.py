"""Small numerical kernels shared by the solver and the estimator:
Lagrange bases on arbitrary distinct nodes, the one Gauss-Legendre rule
on [0, 1], shifted Legendre modes for L2 projection onto low-degree
polynomials, ``lu_factor``, the one factorisation, and
``one_blas_thread``, the BLAS threading policy of a pipeline run.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from contextlib import contextmanager

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import splu

# The 5-point Gauss-Legendre rule on [0, 1]: the one interval rule of the
# reconstruction, the adjoint, the estimate and the reference QoI.  It is
# exact through polynomial degree 9, well past any product of the
# degree <= 3 pieces that show up there.
_POINTS, _WEIGHTS = np.polynomial.legendre.leggauss(5)
GAUSS_NODES = 0.5 * (_POINTS + 1.0)
GAUSS_WEIGHTS = 0.5 * _WEIGHTS
GAUSS_NODES.flags.writeable = GAUSS_WEIGHTS.flags.writeable = False


class LagrangeBasis:
    """Lagrange basis on distinct (not necessarily sorted) nodes.

    Evaluation uses the plain product formula; with the handful of nodes
    used here (degree <= 4) that is exact at the nodes themselves, so the
    delta property holds without rounding.
    """

    def __init__(self, nodes) -> None:
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes must be a non-empty 1-d array")
        diffs = np.abs(nodes[:, None] - nodes[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() == 0.0:
            i, j = np.unravel_index(np.argmin(diffs), diffs.shape)
            raise ValueError(f"coincident interpolation nodes {i} and {j}")
        self.nodes = nodes
        self.n = nodes.size

    def eval_matrix(self, ts) -> np.ndarray:
        """Values of all basis functions at ts; shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.ones((ts.size, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if j != i:
                    out[:, i] *= (ts - self.nodes[j]) / (self.nodes[i] - self.nodes[j])
        return out

    def deriv_matrix(self, ts) -> np.ndarray:
        """Derivatives of all basis functions at ts; shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, self.n))
        for i in range(self.n):
            for k in range(self.n):
                if k == i:
                    continue
                term = np.full(ts.size, 1.0 / (self.nodes[i] - self.nodes[k]))
                for j in range(self.n):
                    if j != i and j != k:
                        term *= (ts - self.nodes[j]) / (self.nodes[i] - self.nodes[j])
                out[:, i] += term
        return out


def legendre_shifted(degree: int, taus) -> np.ndarray:
    """Orthonormal-on-[0,1] shifted Legendre values, shape (degree+1, len(taus))."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    out = np.empty((degree + 1, taus.size))
    x = 2.0 * taus - 1.0
    for j in range(degree + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[j] = np.sqrt(2 * j + 1) * np.polynomial.legendre.legval(x, cj)
    return out


def galerkin_deriv_matrix(degree: int) -> np.ndarray:
    """E[a, j] = integral over [0, 1] of l_j' v_a, exact: l_j the Lagrange
    basis on degree+1 equispaced nodes, v_a the orthonormal shifted
    Legendre modes below that degree; shape (degree, degree+1)."""
    basis = LagrangeBasis(np.linspace(0.0, 1.0, degree + 1))
    return legendre_shifted(degree - 1, GAUSS_NODES) @ (
        GAUSS_WEIGHTS[:, None] * basis.deriv_matrix(GAUSS_NODES))


def lu_factor(matrix, *, singular: Exception):
    """Factor a square matrix once; returns its solve b -> matrix^-1 b, b a
    vector or a matrix.  A sparse matrix goes to SuperLU, any other to
    LAPACK, which factors a Fortran-order float array in place.  An exact
    zero pivot raises ``singular``, never a warning."""
    if sparse.issparse(matrix):
        try:
            return splu(matrix.tocsc()).solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise singular from exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        fac = linalg.lu_factor(matrix, overwrite_a=True, check_finite=False)
    if np.any(fac[0].diagonal() == 0.0):
        raise singular
    return functools.partial(linalg.lu_solve, fac, check_finite=False)


# the thread-count calls of an OpenBLAS build: numpy's and scipy's wheels
# prefix them with scipy_, and an ILP64 build appends 64_
_THREAD_CALLS = tuple((f"{prefix}openblas_get_num_threads{suffix}",
                       f"{prefix}openblas_set_num_threads{suffix}")
                      for prefix in ("scipy_", "") for suffix in ("64_", ""))


@functools.cache
def openblas_pools() -> tuple:
    """The (get, set) thread-count calls of every OpenBLAS this process has
    loaded, found by file name in /proc/self/maps; empty where there is no
    such file or no OpenBLAS.

    Looked up once, on the first call.  Importing imexest has loaded numpy
    and scipy by then, and with them every BLAS the pipeline calls.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_CALLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                pools.append((get, put))
                break
    return tuple(pools)


@contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS pool at one thread, restoring each
    pool's thread count on exit, also when an exception leaves the block.

    The pipeline makes long runs of dense LAPACK calls of order at most
    240 with Python in between.  At that size a second thread gains
    little, and after each threaded call OpenBLAS busy-waits on the other
    cores, about as much CPU time again as the work itself.
    """
    pools = openblas_pools()
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, saved):
            put(count)
