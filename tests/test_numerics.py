"""Tests for the shared polynomial, quadrature, factorisation and BLAS
threading kernels."""

import numpy as np
import pytest
from scipy import sparse

from imexest import adjoint, numerics, reference, solver
from imexest.numerics import (GAUSS_NODES, GAUSS_WEIGHTS, LagrangeBasis,
                              legendre_shifted, lu_factor, one_blas_thread,
                              openblas_pools)
from oracles import l2_project, poly_eval


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


# -- the one factorisation ------------------------------------------------------

class Singular(Exception):
    pass


ROUTES = {"dense": np.array, "csr": sparse.csr_array, "csc": sparse.csc_array}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("rhs_shape", [(6,), (6, 3)], ids=["vector", "matrix"])
def test_lu_factor_solves_like_numpy_on_every_route(route, rhs_shape):
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    mat[0, 3] = mat[4, 1] = 0.0  # entries the sparse routes do not store
    rhs = rng.standard_normal(rhs_shape)
    want = np.linalg.solve(mat, rhs)
    got = lu_factor(ROUTES[route](mat.copy()), singular=Singular())(rhs)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_lu_factor_overwrites_a_fortran_array_in_place():
    # the adjoint's local systems reach 1194^2 on the Alfven wave: factoring
    # them in place saves a copy of each
    mat = np.asfortranarray(np.array([[4.0, 1.0], [2.0, 3.0]]))
    solve = lu_factor(mat, singular=Singular())
    assert not np.array_equal(mat, [[4.0, 1.0], [2.0, 3.0]])
    np.testing.assert_allclose(solve(np.array([5.0, 5.0])), [1.0, 1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    sparse.csc_array((3, 3)),
    sparse.csr_array(np.diag([1.0, 0.0, 2.0])),
], ids=["dense", "csc-all-zero", "csr-zero-diagonal"])
def test_lu_factor_raises_the_callers_error_for_a_singular_matrix(matrix):
    error = Singular("singular on interval 3")
    with pytest.raises(Singular) as info:
        lu_factor(matrix, singular=error)
    assert info.value is error


def test_every_factorisation_goes_through_numerics():
    # perfbench's tracer and test_adjoint count factorisations by rebinding
    # imexest.solver.lu_factor and imexest.adjoint.lu_factor
    assert solver.lu_factor is numerics.lu_factor
    assert adjoint.lu_factor is numerics.lu_factor
    assert reference.lu_factor is numerics.lu_factor


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


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    real = openblas_pools()
    before = thread_counts(real)
    monkeypatch.setattr(numerics, "openblas_pools", lambda: ())
    with one_blas_thread():
        assert thread_counts(real) == before
    assert thread_counts(real) == before
