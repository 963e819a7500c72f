"""Small numerical kernels shared by the solver and the estimator:
Lagrange bases on arbitrary distinct nodes, the one Gauss-Legendre rule
on [0, 1], shifted Legendre modes for L2 projection onto low-degree
polynomials, and the one place a system is laid out: every system on a
problem's Jacobian pattern is a LAPACK ``Band`` in the problem's one
``node_order`` (reverse Cuthill-McKee on the pattern symmetrised), its
slots numbered by ``band_layout``, through ``StageForm`` (the forward's
Newton matrices and Radau IIA's stage system) or ``BlockForm`` (the
adjoint's systems); a problem without a pattern gets dense systems.
``lu_factor`` is the one factorisation (a band to gbtrf, a dense array
to getrf), and ``one_blas_thread`` the BLAS threading policy of a run.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np
# scipy.linalg first: it loads scipy's OpenBLAS, whose worker thread spins
# for OpenBLAS's thread timeout, 2**28 cycles (about 0.1 s), once started.
# Loaded first, that spin ends while the rest of the package imports, not
# inside the first verb's work, where it read as +0.02 s of CPU per process.
from scipy.linalg import get_lapack_funcs
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

# The 5-point Gauss-Legendre rule on [0, 1]: the one interval rule of the
# reconstruction, the adjoint, the estimate and the reference QoI.  It is
# exact through polynomial degree 9, well past any product of the
# degree <= 3 pieces that show up there.
_POINTS, _WEIGHTS = np.polynomial.legendre.leggauss(5)
GAUSS_NODES = 0.5 * (_POINTS + 1.0)
GAUSS_WEIGHTS = 0.5 * _WEIGHTS
GAUSS_NODES.flags.writeable = GAUSS_WEIGHTS.flags.writeable = False

# Floats in one (intervals, points, m) array of a block of intervals, the
# unit in which the adjoint reads its load and the estimate its values:
# 2**15 floats is 256 KiB, which stays in a core's cache.
BLOCK_FLOATS = 2 ** 15


def block_spans(n_intervals: int, points: int, m: int) -> list[slice]:
    """Slices of max(1, BLOCK_FLOATS // (points * m)) consecutive intervals:
    a block's (intervals, points, m) array fits BLOCK_FLOATS, or holds one interval."""
    size = max(1, BLOCK_FLOATS // (points * m))
    return [slice(start, start + size) for start in range(0, n_intervals, size)]


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


def node_order(pattern) -> np.ndarray:
    """The order of a square sparse pattern's nodes in every band on it:
    reverse Cuthill-McKee on the pattern symmetrised, with its diagonal.
    A periodic ring of three entries a row gets half-width 2."""
    nonzero = sparse.csr_array(pattern) != 0
    graph = nonzero + nonzero.T + sparse.eye_array(nonzero.shape[0], dtype=bool)
    return reverse_cuthill_mckee(graph.tocsr(), symmetric_mode=True)


def band_layout(rows, cols, order) -> tuple[int, int, np.ndarray]:
    """The half-widths kl and ku of the entries (rows, cols) of a square
    system whose unknowns are ordered by ``order``, and each entry's flat
    index into the Fortran-order storage of that ``Band``."""
    position = np.empty(order.size, dtype=np.intp)
    position[order] = np.arange(order.size)
    rows, cols = position[rows], position[cols]
    kl, ku = int((rows - cols).max()), int((cols - rows).max())
    return kl, ku, cols * (2 * kl + ku + 1) + kl + ku + rows - cols


class Band(NamedTuple):
    """A square system in LAPACK's band storage, in an ordering of its
    unknowns: row and column i of the ordered matrix are row and column
    ``order[i]`` of the system, and its entry (i, j) sits at
    ``ab[kl + ku + i - j, j]``.  The first kl rows of the Fortran-order
    ``ab`` are zero, room for ``gbtrf``'s fill-in."""

    ab: np.ndarray     # (2 kl + ku + 1, n)
    kl: int
    ku: int
    order: np.ndarray  # (n,)

    @classmethod
    def of(cls, flat, kl: int, ku: int, order) -> "Band":
        """The band whose Fortran-order storage is the 1-d array flat, a
        view of it, with its slots as ``band_layout`` numbers them."""
        return cls(flat.reshape(order.size, 2 * kl + ku + 1).T, kl, ku, order)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order.size, self.order.size)


class StageForm:
    """The systems I - k C (x) J of an implicit stage, C an (r, r)
    coefficient matrix and J an m x m Jacobian, in the form lu_factor
    takes: with no pattern, J dense and np.eye(r m) - k np.kron(C, J); on
    a CSR pattern with sorted indices, J its values there in CSR order and
    a ``Band`` ordered by ``nodes``, each node's r unknowns together,
    whose layout is made here, once.  ``values`` reads an operator as J."""

    def __init__(self, coeffs, pattern, nodes):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.dense = pattern is None
        if self.dense:
            return
        r, m = len(self.coeffs), pattern.shape[0]
        self.rows, self.cols = pattern.nonzero()
        # C's entry (a, b) times J's entry (i, j) sits at row a m + i and
        # column b m + j
        a, b = np.divmod(np.arange(r * r), r)
        rows = (m * a[:, None] + self.rows).ravel()
        cols = (m * b[:, None] + self.cols).ravel()
        diagonal = np.arange(r * m)
        self.order = (nodes[:, None] + m * np.arange(r)).ravel()
        self.kl, self.ku, slots = band_layout(np.append(rows, diagonal),
                                              np.append(cols, diagonal), self.order)
        self.slots, self.ones = slots[:rows.size], slots[rows.size:]
        self.size = r * m * (2 * self.kl + self.ku + 1)

    def values(self, op):
        """The m x m operator op, dense or sparse, as this form's J."""
        return op if self.dense else op[self.rows, self.cols]

    def system(self, k: float, jac):
        """I - k C (x) J, J given as ``values`` gives it."""
        if self.dense:
            return np.eye(len(self.coeffs) * len(jac)) - k * np.kron(self.coeffs, jac)
        ab = np.zeros(self.size)
        ab[self.ones] = 1.0
        ab[self.slots] -= k * (self.coeffs.reshape(-1, 1) * jac).ravel()
        return Band.of(ab, self.kl, self.ku, self.order)


class BlockForm:
    """How an adjoint interval's r x (r + 1) blocks, each the transpose of
    an m x m matrix, become its (r m) x (r m) system, the first r block
    columns, and the (r m) x m matrix of its known last column, in the
    form of ``like``, an m x m matrix.

    A sparse ``like`` is nonzero wherever the matrices may be: each block
    is read as its values at like's transposed entries and the diagonal.
    ``values`` gathers them from a matrix and ``scatter`` places values
    stated at like's own entries.  The system's unknowns are ordered by
    ``nodes``, the ``node_order`` of like, each node's r unknowns
    together, which makes it a narrow band (a periodic ring included).
    ``gather`` takes a block of intervals' band storages and known values
    from their block values, one precomputed index each, and ``band``
    wraps one storage as a ``Band``.  The known matrix is a
    CSC whose indices are built here too; a caller refills its data, as
    ``system`` does on each call, so it is valid until the next refill.
    Any other ``like`` (a dense array, or None), for which ``dense`` is
    true and ``nodes`` is not read, keeps the dense transposes in one
    Fortran-order array, new on each call, whose first r m columns are
    the system, which ``lu_factor`` factors in place.
    """

    def __init__(self, m: int, r: int, like, nodes):
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
        # value (a, j, z) sits at row a m + rows[z] and column j m + cols[z]
        a, j = np.divmod(np.arange(r * (r + 1)), r + 1)
        all_rows = (a[:, None] * m + self.rows).ravel()
        all_cols = (j[:, None] * m + self.cols).ravel()
        n = r * m
        in_system = all_cols < n
        # every block holds the same pattern, so keep each node's r
        # unknowns together (Burgers' ring: half-width 3 r - 1; reverse
        # Cuthill-McKee on the r m unknowns themselves gave 4 r)
        self.order = (nodes[:, None] + m * np.arange(r)).ravel()
        self.kl, self.ku, slots = band_layout(all_rows[in_system], all_cols[in_system],
                                              self.order)
        self.height = 2 * self.kl + self.ku + 1
        # ab's flat slot s holds value band_gather[s] of a block's values
        # with one zero appended, the zero where no entry sits
        self.band_gather = np.full(n * self.height, all_rows.size)
        self.band_gather[slots] = np.flatnonzero(in_system)
        # the known matrix's values, by column and then by row
        known = np.flatnonzero(~in_system)
        by_column = np.lexsort((all_rows[known], all_cols[known]))
        self.known_values = known[by_column]
        self.known = sparse.csc_array(
            (np.zeros(known.size), all_rows[self.known_values].astype(np.int32),
             np.searchsorted(all_cols[self.known_values] - n,
                             np.arange(m + 1)).astype(np.int32)),
            shape=(n, m))

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

    def gather(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        """The (B, r m height) flat band storages and (B, nnz) known matrix
        values of the B systems whose block (a, j) has the values
        blocks[i, a, j], in a sparse form."""
        vals = blocks.reshape(len(blocks), -1)
        padded = np.concatenate([vals, np.zeros((len(vals), 1))], axis=1)
        return (np.take(padded, self.band_gather, axis=1),
                np.take(vals, self.known_values, axis=1))

    def band(self, flat) -> Band:
        """The system whose flat band storage is ``flat``, a view of it."""
        return Band.of(flat, self.kl, self.ku, self.order)

    def system(self, blocks):
        """The system whose block (a, j) has the values blocks[a, j], and
        the known matrix whose block a has blocks[a, r]."""
        n, r, m = self.r * self.m, self.r, self.m
        if not self.dense:
            ab, known = self.gather(blocks[None])
            self.known.data[:] = known[0]
            return self.band(ab[0]), self.known
        # Fortran order, so LAPACK factors the system in place instead of a copy
        big = np.empty((n, n + m), order="F")
        big.T.reshape(r + 1, m, r, m)[...] = blocks.transpose(1, 3, 0, 2)
        return big[:, :n], big[:, n:]


def lu_factor(matrix, *, singular: Callable[[], Exception]):
    """Factor a square matrix once; returns its solve b -> matrix^-1 b, b a
    vector or a matrix.  A ``Band`` goes to LAPACK's gbtrf and gbtrs, and
    its solve gathers b into the band's ordering and scatters the result
    back; a dense array to LAPACK's getrf and getrs.  Both factor a
    Fortran-order float array in place.  An exact zero pivot raises the
    exception ``singular()`` builds, never a warning; it is built only
    then."""
    if isinstance(matrix, Band):
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (matrix.ab,))
        kl, ku, order = matrix.kl, matrix.ku, matrix.order
        lu, piv, info = gbtrf(matrix.ab, kl, ku, overwrite_ab=True)
        if info > 0:  # U[info - 1, info - 1] is exactly zero
            raise singular()

        def solve(b):
            x = np.empty_like(b, dtype=float)
            x[order] = gbtrs(lu, kl, ku, b[order], piv, overwrite_b=True)[0]
            return x
        return solve
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (matrix,))
    lu, piv, info = getrf(matrix, overwrite_a=True)
    if info > 0:  # U[info - 1, info - 1] is exactly zero
        raise singular()
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
