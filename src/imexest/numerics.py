"""Small numerical kernels shared by the solver and the estimator:
Lagrange bases on arbitrary distinct nodes, the one Gauss-Legendre rule
on [0, 1], shifted Legendre modes for L2 projection onto low-degree
polynomials, the one place an operator's form becomes a system's
(``identity_like``, ``kron`` and ``BlockForm`` give CSC where their
operator or stated pattern is sparse, by ``sparse.issparse`` alone, and
dense arrays otherwise; ``BlockForm`` builds its CSCs' structure once and
refills only their data), ``lu_factor``, the one factorisation, and
``one_blas_thread``, the BLAS threading policy of a pipeline run.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs
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


def as_dense(op) -> np.ndarray:
    """An operator as a dense array (the array itself when it is dense)."""
    return op.toarray() if sparse.issparse(op) else op


def identity_like(op, n: int):
    """The n x n identity in op's form."""
    return sparse.eye_array(n, format="csc") if sparse.issparse(op) else np.eye(n)


def kron(a, op):
    """The Kronecker product a (x) op in op's form."""
    return sparse.kron(a, op, format="csc") if sparse.issparse(op) else np.kron(a, op)


def on_pattern(values, pattern) -> sparse.csr_array:
    """The CSR matrix with values (nnz,) at the CSR pattern's entries."""
    return sparse.csr_array((values, pattern.indices, pattern.indptr),
                            shape=pattern.shape)


class BlockForm:
    """How an adjoint interval's r x (r + 1) blocks, each the transpose of
    an m x m matrix, become its (r m) x (r m) system, the first r block
    columns, and the (r m) x m matrix of its known last column, in the
    form of ``like``, an m x m matrix.

    A sparse ``like`` is nonzero wherever the matrices may be: each block
    is read as its values at like's transposed entries and the diagonal.
    ``values`` gathers them from a matrix and ``scatter`` places values
    stated at like's own entries.  The system and the known matrix are
    CSCs whose indices are built here, once; each ``system`` call refills
    their data, so both are valid until the next call (SuperLU copies the
    system into its factors).  Any other ``like``, for which ``dense`` is
    true, keeps the dense transposes in one Fortran-order array, new on
    each call, whose first r m columns are the system, which
    ``lu_factor`` factors in place.
    """

    def __init__(self, m: int, r: int, like):
        self.m, self.r = m, r
        self.dense = not sparse.issparse(like)
        if self.dense:
            diag = np.arange(m)
            self.diagonal = (diag, diag)
            return
        # like's entry (i, j) is a block's entry (j, i)
        cols, rows = sparse.csr_array(like).nonzero()
        keys = np.unique(np.concatenate([rows * m + cols, np.arange(m) * (m + 1)]))
        self.rows, self.cols = np.divmod(keys, m)
        # values[..., slots] are like's entries, in CSR order
        self.slots = np.searchsorted(keys, rows * m + cols)
        # values[..., diagonal] are the diagonal entries, in row order
        self.diagonal = (np.flatnonzero(self.rows == self.cols),)
        # value (a, j, z) sits at row a m + rows[z] and column j m + cols[z];
        # CSC stores them by column, then by row, so the system's come first
        a, j = np.divmod(np.arange(r * (r + 1)), r + 1)
        all_rows = (a[:, None] * m + self.rows).ravel()
        all_cols = (j[:, None] * m + self.cols).ravel()
        self.order = np.lexsort((all_rows, all_cols))
        n = r * m
        full = sparse.csc_array(
            (np.zeros(self.order.size), all_rows[self.order].astype(np.int32),
             np.searchsorted(all_cols[self.order], np.arange(n + m + 1)).astype(np.int32)),
            shape=(n, n + m))
        self.csc, self.known = full[:, :n], full[:, n:]
        self.split = self.csc.nnz

    def values(self, mat) -> np.ndarray:
        """The transpose of the m x m matrix mat, in this form."""
        if self.dense:
            return as_dense(mat).T.copy()
        return mat[self.cols, self.rows]

    def scatter(self, vals) -> np.ndarray:
        """Values (..., nnz) at a sparse like's entries, in CSR order, in
        this form; zero on a diagonal entry like does not hold."""
        if vals.shape[-1] != self.slots.size:
            raise ValueError(f"{vals.shape[-1]} values for a pattern of "
                             f"{self.slots.size} entries")
        out = np.zeros(vals.shape[:-1] + self.rows.shape)
        out[..., self.slots] = vals
        return out

    def system(self, blocks):
        """The system whose block (a, j) has the values blocks[a, j], and
        the known matrix whose block a has blocks[a, r]."""
        if not self.dense:
            vals = blocks.reshape(-1)[self.order]
            self.csc.data[:] = vals[:self.split]
            self.known.data[:] = vals[self.split:]
            return self.csc, self.known
        # Fortran order, so LAPACK factors the system in place instead of a copy
        n, r, m = self.r * self.m, self.r, self.m
        big = np.empty((n, n + m), order="F")
        big.T.reshape(r + 1, m, r, m)[...] = blocks.transpose(1, 3, 0, 2)
        return big[:, :n], big[:, n:]


def lu_factor(matrix, *, singular: Exception):
    """Factor a square matrix once; returns its solve b -> matrix^-1 b, b a
    vector or a matrix.  A sparse matrix goes to SuperLU, any other to
    LAPACK's getrf and getrs, called directly, which factor a
    Fortran-order float array in place.  An exact zero pivot raises
    ``singular``, never a warning."""
    if sparse.issparse(matrix):
        try:
            return splu(matrix.tocsc()).solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise singular from exc
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (matrix,))
    lu, piv, info = getrf(matrix, overwrite_a=True)
    if info > 0:  # U[info - 1, info - 1] is exactly zero
        raise singular
    return lambda b: getrs(lu, piv, b)[0]


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
    A pool already at one thread, as inside another such block, is left
    alone.

    The pipeline makes long runs of dense LAPACK calls with Python in
    between, on the shipped tables of order at most 120.  At that size a
    second thread gains little, and after each threaded call OpenBLAS
    busy-waits on the other cores, about as much CPU time again as the
    work itself.
    """
    saved = []
    for get, put in openblas_pools():
        if (count := get()) != 1:
            saved.append((put, count))
            put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)
