"""Tests for the shared polynomial, quadrature, factorisation and BLAS
threading kernels."""

import inspect

import numpy as np
import pytest
from scipy import linalg, sparse

from imexest import adjoint, numerics, reference, solver
from imexest.numerics import (GAUSS_NODES, GAUSS_WEIGHTS, Band, BlockForm,
                              LagrangeBasis, as_dense, identity_like, kron,
                              legendre_shifted, lu_factor, one_blas_thread,
                              openblas_pools)
from imexest.problems import burgers, mhd_alfven
from oracles import band_matrix, dense_blocks, l2_project, poly_eval


def test_lagrange_delta_property_exact():
    nodes = np.array([0.0, 0.5])
    basis = LagrangeBasis(nodes)
    vals = basis.eval_matrix(nodes)
    for i in range(2):
        for j in range(2):
            assert vals[j, i] == (1.0 if i == j else 0.0)


def test_lagrange_quadratic_hand_value():
    # quadratic basis on (0, 1/2, 1): l_1(3/4) = (3/4)(3/4 - 1)/((1/2)(1/2 - 1))
    basis = LagrangeBasis([0.0, 0.5, 1.0])
    assert basis.eval_matrix([0.75])[0, 1] == pytest.approx(0.75, abs=1e-14)


def test_lagrange_partition_of_unity_random_points():
    rng = np.random.default_rng(3)
    for nodes in ([0.0, 0.5], [0.0, 0.5, 1.0], [0.1, 0.4, 0.7, 1.3]):
        basis = LagrangeBasis(nodes)
        ts = rng.uniform(-1.0, 2.0, size=100)
        sums = basis.eval_matrix(ts).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_lagrange_derivative_matches_finite_difference():
    basis = LagrangeBasis([0.0, 0.3, 1.0])
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.05, 0.95, size=20):
        fd = (basis.eval_matrix([t + 1e-7]) - basis.eval_matrix([t - 1e-7])) / 2e-7
        np.testing.assert_allclose(basis.deriv_matrix([t]), fd, atol=1e-6, rtol=0)


def test_lagrange_rejects_duplicate_nodes():
    with pytest.raises(ValueError, match="coincident"):
        LagrangeBasis([0.5, 0.5])


def test_gauss_rule_weights_positive_sum_two():
    # the one interval rule's weights are positive; mapped back to [-1, 1]
    # they sum to the interval length 2, on [0, 1] to 1
    assert np.all(GAUSS_WEIGHTS > 0)
    assert (2.0 * GAUSS_WEIGHTS).sum() == pytest.approx(2.0, abs=1e-14)
    assert GAUSS_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)


def test_gauss_rule_polynomial_exactness():
    # the one interval rule is exact on [0, 1] through degree 9
    for k in range(10):
        assert GAUSS_WEIGHTS @ GAUSS_NODES**k == pytest.approx(1.0 / (k + 1), abs=1e-15)


def test_gauss_rule_mapped_interval():
    # leggauss(5) mapped to [0, 1], bit for bit
    pts, wts = np.polynomial.legendre.leggauss(5)
    assert np.array_equal(GAUSS_NODES, 0.0 + 0.5 * (pts + 1.0))
    assert np.array_equal(GAUSS_WEIGHTS, 0.5 * wts)


def test_gauss_rule_odd_monomial_cancels():
    # symmetric about 1/2, so odd powers of 2t - 1 integrate to zero
    assert GAUSS_WEIGHTS @ (2.0 * GAUSS_NODES - 1.0)**9 == pytest.approx(0.0, abs=1e-15)


def test_gauss_rule_frozen():
    # every layer reads the same two arrays, so none may write to them
    for arr in (GAUSS_NODES, GAUSS_WEIGHTS):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.5


def test_l2_project_constant_mean():
    coeffs = l2_project(lambda t: t, 0.0, 1.0, 0)
    assert coeffs == pytest.approx([0.5], abs=1e-14)


def test_l2_project_reproduces_subspace():
    coeffs = l2_project(lambda t: 2.0 - 3.0 * t, 0.0, 1.0, 1)
    assert coeffs == pytest.approx([2.0, -3.0], abs=1e-12)


def test_l2_project_t_squared_onto_linear():
    # normal equations by hand give t - 1/6 on [0, 1]
    coeffs = l2_project(lambda t: t * t, 0.0, 1.0, 1)
    assert coeffs == pytest.approx([-1.0 / 6.0, 1.0], abs=1e-12)


def test_l2_project_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c = rng.standard_normal(4)

        def fn(t, c=c):
            return np.sin(3 * t) + poly_eval(c, t)

        first = l2_project(fn, 0.2, 1.7, 2)
        second = l2_project(lambda t: poly_eval(first, t), 0.2, 1.7, 2)
        assert np.max(np.abs(second - first)) < 1e-12


def test_l2_project_argument_validation():
    with pytest.raises(ValueError):
        l2_project(lambda t: t, 0.0, 1.0, -1)
    with pytest.raises(ValueError):
        l2_project(lambda t: t, 1.0, 1.0, 0)


def test_legendre_shifted_orthonormal():
    # dot products under the 5-point rule on [0, 1]
    vals = legendre_shifted(3, GAUSS_NODES)
    gram = (vals * GAUSS_WEIGHTS) @ vals.T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-13


# -- operator forms and the one factorisation -----------------------------------

class Singular(Exception):
    pass


def never():
    raise AssertionError("a regular matrix built its singular error")


ROUTES = {"dense": np.array, "csr": sparse.csr_array, "csc": sparse.csc_array}


@pytest.mark.parametrize("route", ROUTES)
def test_systems_take_their_operators_form(route):
    # a CSR or CSC operator gives CSC systems, a dense one ndarrays, with
    # the same values either way
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((4, 4))
    mat[1, 2] = mat[3, 0] = 0.0
    coeffs = rng.standard_normal((2, 3))
    op = ROUTES[route](mat)
    assert type(as_dense(op)) is np.ndarray and np.array_equal(as_dense(op), mat)
    for got, want in ((identity_like(op, 5), np.eye(5)),
                      (kron(coeffs, op), np.kron(coeffs, mat))):
        if route == "dense":
            assert type(got) is np.ndarray
        else:
            assert isinstance(got, sparse.csc_array)
        assert np.array_equal(as_dense(got), want)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("rhs_shape", [(6,), (6, 3)], ids=["vector", "matrix"])
def test_lu_factor_solves_like_numpy_on_every_route(route, rhs_shape):
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    mat[0, 3] = mat[4, 1] = 0.0  # entries the sparse routes do not store
    rhs = rng.standard_normal(rhs_shape)
    want = np.linalg.solve(mat, rhs)
    # a regular matrix never builds the caller's error
    got = lu_factor(ROUTES[route](mat.copy()), singular=never)(rhs)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_factor_solves_bit_for_bit_like_scipy_linalg(order):
    # the dense route calls LAPACK's getrf and getrs itself, to the bit
    # what scipy.linalg.lu_factor and lu_solve compute
    rng = np.random.default_rng(5)
    mat = np.array(rng.standard_normal((40, 40)), order=order)
    for rhs in (rng.standard_normal(40), rng.standard_normal((40, 3))):
        want = linalg.lu_solve(linalg.lu_factor(mat), rhs)
        solve = lu_factor(mat.copy(order="K"), singular=Singular)
        assert np.array_equal(solve(rhs), want)


def test_lu_factor_overwrites_a_fortran_array_in_place():
    # the adjoint's local systems reach 1194^2 on the Alfven wave: factoring
    # them in place saves a copy of each
    mat = np.asfortranarray(np.array([[4.0, 1.0], [2.0, 3.0]]))
    solve = lu_factor(mat, singular=Singular)
    assert not np.array_equal(mat, [[4.0, 1.0], [2.0, 3.0]])
    np.testing.assert_allclose(solve(np.array([5.0, 5.0])), [1.0, 1.0])


def natural_band(mat, kl, ku) -> Band:
    """The square matrix mat, zero outside its kl sub- and ku
    superdiagonals, as a Band in its own ordering."""
    n = mat.shape[0]
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    for i, j in zip(*np.nonzero(mat)):
        ab[kl + ku + i - j, j] = mat[i, j]
    return Band(ab, kl, ku, np.arange(n))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    sparse.csc_array((3, 3)),
    sparse.csr_array(np.diag([1.0, 0.0, 2.0])),
    # the second pivot is exactly zero after partial pivoting
    natural_band(np.array([[1.0, 2.0], [2.0, 4.0]]), 1, 1),
    natural_band(np.zeros((3, 3)), 1, 0),
], ids=["dense", "csc-all-zero", "csr-zero-diagonal", "band-zero-pivot", "band-all-zero"])
def test_lu_factor_raises_the_callers_error_for_a_singular_matrix(matrix):
    # the error is built by the caller's callable, once, at the zero pivot
    built = []

    def error():
        built.append(Singular("singular on interval 3"))
        return built[-1]

    with pytest.raises(Singular) as info:
        lu_factor(matrix, singular=error)
    assert built == [info.value]


def test_block_form_of_a_pattern_is_its_dense_form_in_band():
    # r x (r + 1) blocks, each the transpose of a matrix on a stated sparse
    # pattern, give a band system and a CSC known matrix with the values of
    # the dense form's Fortran-order array, and read only the transposed
    # pattern and the diagonal
    rng = np.random.default_rng(8)
    m, r = 5, 3
    pattern = rng.random((m, m)) < 0.3
    sparse_form = BlockForm(m, r, sparse.csr_array(pattern))
    dense_form = BlockForm(m, r, pattern)  # the same pattern, dense
    blocks = rng.standard_normal((r, r + 1, sparse_form.rows.size))
    full_blocks = dense_blocks(sparse_form, blocks)
    allowed = pattern.T | np.eye(m, dtype=bool)
    assert np.array_equal(full_blocks != 0.0,
                          np.broadcast_to(allowed, (r, r + 1, m, m)))
    got, got_known = sparse_form.system(blocks)
    want, want_known = dense_form.system(full_blocks)
    # the band is LAPACK's: Fortran order, with kl zero rows for gbtrf's fill
    assert isinstance(got, Band) and got.shape == (r * m, r * m)
    assert got.ab.shape == (2 * got.kl + got.ku + 1, r * m) and got.ab.flags.f_contiguous
    assert not got.ab[:got.kl].any()
    assert np.array_equal(np.sort(got.order), np.arange(r * m))
    assert isinstance(got_known, sparse.csc_array) and got_known.has_sorted_indices
    assert got_known.shape == (r * m, m)
    # the dense system and known matrix are one Fortran-order array
    assert type(want) is np.ndarray and want.flags.f_contiguous
    assert want_known.base is want.base and want_known.shape == (r * m, m)
    full = np.block([[full_blocks[a, j] for j in range(r + 1)] for a in range(r)])
    assert np.array_equal(want, full[:, :r * m])
    assert np.array_equal(want_known, full[:, r * m:])
    assert np.array_equal(band_matrix(got), want)
    assert np.array_equal(got_known.toarray(), want_known)
    # the diagonal index reads the diagonal of every block
    for form, values in ((sparse_form, blocks), (dense_form, full_blocks)):
        assert np.array_equal(values[(Ellipsis, *form.diagonal)],
                              np.diagonal(full_blocks, axis1=2, axis2=3))
    # a second call makes a new band in the same ordering, leaving the first
    # as it was, and refills the known matrix in place
    again, again_known = sparse_form.system(2.0 * blocks)
    assert not np.shares_memory(again.ab, got.ab) and again.order is got.order
    assert np.array_equal(band_matrix(got), want)
    assert np.array_equal(band_matrix(again), 2.0 * want)
    assert again_known is got_known
    assert np.array_equal(again_known.toarray(), 2.0 * want_known)


def block_operators():
    """Burgers' Jacobian pattern and the Alfven wave's summed operator, the
    sparse likes of the adjoint's block forms."""
    mhd = mhd_alfven(h=0.05)
    return {"burgers": burgers(0.05, 0.025).jac_pattern, "mhd": mhd.f_op + mhd.g_op}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", ["burgers", "mhd"])
def test_band_is_the_dense_system_in_its_ordering(name, r):
    # the band holds, value for value, the dense form's system with its
    # rows and columns in the band's ordering, and nothing outside the band
    like = block_operators()[name]
    m = like.shape[0]
    form = BlockForm(m, r, like)
    rng = np.random.default_rng(r)
    blocks = rng.standard_normal((r, r + 1, form.rows.size))
    band, _ = form.system(blocks)
    want, _ = BlockForm(m, r, as_dense(like)).system(dense_blocks(form, blocks))
    ordered = want[np.ix_(band.order, band.order)]
    i, j = np.nonzero(ordered)
    assert (i - j).max() == band.kl and (j - i).max() == band.ku
    assert np.array_equal(band.ab[band.kl + band.ku + i - j, j], ordered[i, j])
    assert np.count_nonzero(band.ab) == i.size


@pytest.mark.parametrize("r", [2, 3])
def test_burgers_band_width_does_not_grow_with_the_ring(r):
    # reverse Cuthill-McKee unrolls Burgers' periodic ring: the half-widths
    # are those of a node's two neighbours on either side, each with its r
    # unknowns, the same at m = 80 and m = 320, where the ring's wrap put
    # entries m - 1 off the diagonal
    widths = set()
    for h in (0.025, 1.0 / 160.0):
        pattern = burgers(0.05, h).jac_pattern
        form = BlockForm(pattern.shape[0], r, pattern)
        widths.add((form.kl, form.ku))
    assert len(widths) == 1
    kl, ku = widths.pop()
    assert kl == ku <= 3 * r - 1
def test_block_form_scatters_values_stated_at_its_pattern():
    # values at a CSR pattern's entries, in CSR order, become the blocks of
    # the matrices' transposes; a diagonal the pattern lacks reads zero
    rng = np.random.default_rng(5)
    m = 4
    pattern = sparse.csr_array(np.eye(m, k=1) + np.eye(m, k=-3))
    form = BlockForm(m, 2, pattern)
    mats = rng.standard_normal((3, m, m)) * (pattern.toarray() != 0.0)
    rows = np.repeat(np.arange(m), np.diff(pattern.indptr))
    stated = mats[:, rows, pattern.indices]
    np.testing.assert_array_equal(dense_blocks(form, form.scatter(stated)),
                                  mats.transpose(0, 2, 1))
    np.testing.assert_array_equal(form.scatter(stated),
                                  np.stack([form.values(mat) for mat in mats]))
    with pytest.raises(ValueError, match="^5 values for a pattern of 4 entries$"):
        form.scatter(np.ones((3, 5)))


@pytest.mark.parametrize("route", ["dense", "csr"])
def test_block_form_of_an_operator_is_its_kronecker_system(route):
    # the adjoint's constant-operator system: blocks c[a, j] op^T - D[a, j] I
    # in the operator's own form are kron(c, op^T) - kron(D, I), value for
    # value, the system its first r m columns (a band for a sparse operator)
    # and the known matrix the rest
    rng = np.random.default_rng(11)
    m, r = 6, 3
    mat = rng.standard_normal((m, m)) * (rng.random((m, m)) < 0.4)
    c, dmat = rng.standard_normal((r, r + 1)), rng.standard_normal((r, r + 1))
    op = ROUTES[route](mat)
    form = BlockForm(m, r, op)
    blocks = np.multiply.outer(c, form.values(op))
    blocks[(Ellipsis, *form.diagonal)] -= dmat[:, :, None]
    if route == "dense":
        want = np.kron(c, mat.T) - np.kron(dmat, np.eye(m))
    else:
        want = (sparse.kron(c, op.T) - sparse.kron(dmat, sparse.eye_array(m))).toarray()
    got, known = form.system(blocks)
    assert isinstance(got, Band) == sparse.issparse(known) == (route == "csr")
    assert np.array_equal(band_matrix(got) if route == "csr" else got, want[:, :r * m])
    assert np.array_equal(as_dense(known), want[:, r * m:])


def test_every_factorisation_goes_through_numerics():
    # perfbench's tracer and test_adjoint count factorisations by rebinding
    # imexest.solver.lu_factor and imexest.adjoint.lu_factor
    assert solver.lu_factor is numerics.lu_factor
    assert adjoint.lu_factor is numerics.lu_factor
    assert reference.lu_factor is numerics.lu_factor
    # and numerics alone turns an operator's form into a system's: the
    # solver and the adjoint bind nothing of scipy.sparse
    for module in (solver, adjoint):
        assert sparse_bindings(module) == [], module.__name__


def sparse_bindings(module):
    """The names module binds to scipy.sparse, its submodules or anything
    defined there."""
    def origin(value):
        return value.__name__ if inspect.ismodule(value) else getattr(
            value, "__module__", None)
    return [name for name, value in vars(module).items()
            if str(origin(value)).startswith("scipy.sparse")]


# -- BLAS threads ---------------------------------------------------------------

def fake_pool(count):
    """A (get, set) pair over one thread count, and the list of counts it
    has held, the current one last."""
    counts = [count]
    return (lambda: counts[-1], counts.append), counts


def thread_counts(pools):
    return [get() for get, _ in pools]


def test_one_blas_thread_limits_every_loaded_openblas():
    pools = openblas_pools()
    before = thread_counts(pools)
    assert all(count >= 1 for count in before)
    with one_blas_thread():
        assert thread_counts(pools) == [1] * len(pools)
    assert thread_counts(pools) == before


def test_one_blas_thread_restores_the_counts_after_an_exception(monkeypatch):
    real = openblas_pools()
    before = thread_counts(real)
    pool, counts = fake_pool(3)
    monkeypatch.setattr(numerics, "openblas_pools", lambda: real + (pool,))
    with pytest.raises(RuntimeError, match="inside"):
        with one_blas_thread():
            assert thread_counts(real + (pool,)) == [1] * (len(real) + 1)
            raise RuntimeError("inside")
    assert thread_counts(real) == before
    assert counts == [3, 1, 3]


def test_a_nested_one_blas_thread_leaves_the_pools_to_the_outer_block(monkeypatch):
    real = openblas_pools()
    pool, counts = fake_pool(3)
    monkeypatch.setattr(numerics, "openblas_pools", lambda: real + (pool,))
    with one_blas_thread():
        with one_blas_thread():
            assert thread_counts(real + (pool,)) == [1] * (len(real) + 1)
        assert thread_counts(real + (pool,)) == [1] * (len(real) + 1)
    assert counts == [3, 1, 3]


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    real = openblas_pools()
    before = thread_counts(real)
    monkeypatch.setattr(numerics, "openblas_pools", lambda: ())
    with one_blas_thread():
        assert thread_counts(real) == before
    assert thread_counts(real) == before
