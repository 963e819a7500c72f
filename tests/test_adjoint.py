"""Tests for the backward Galerkin adjoint solve."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from imexest import adjoint, solver
from imexest.adjoint import (
    DEFAULT_REFINE,
    AdjointSolveError,
    refine_grid,
    solve_adjoint,
)
from imexest.numerics import GAUSS_NODES, GAUSS_WEIGHTS, legendre_shifted
from imexest.problems import (
    QoiSpec,
    SplitOdeProblem,
    as_dense,
    burgers,
    linear_advection_diffusion,
    mhd_alfven,
    qoi_integral_v,
    split_linear_system,
    split_scalar_linear,
)
from imexest.reconstruct import build_cg
from imexest.solver import TimeGrid, solve_forward
from imexest.tableaus import builtin


def reconstruct_case(problem, name="mid122", t_end=1.0, n=40, t_start=0.0):
    pair = builtin(name)
    grid = TimeGrid.uniform(t_end, n, t_start)
    fwd = solve_forward(problem, pair, grid)
    return build_cg(pair, fwd)


def test_refine_grid_counts_and_endpoints():
    grid = TimeGrid.uniform(1.0, 5)
    fine = refine_grid(grid, 4)
    assert fine.n_intervals == 20
    assert fine.nodes[0] == 0.0 and fine.nodes[-1] == 1.0
    # original nodes survive refinement
    for t in grid.nodes:
        assert np.abs(fine.nodes - t).min() < 1e-15
    assert refine_grid(grid, 1) is grid
    with pytest.raises(ValueError):
        refine_grid(grid, 0)


def _never(*_args):
    raise AssertionError("a constant operator needs no state")


def test_linearized_operator_constant_for_linear_problems():
    # H is the constant f_op + g_op: the sweep evaluates neither the
    # Jacobians nor the reconstruction, on uniform and non-uniform grids
    f_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g_mat = np.array([[-2.0, 0.0], [0.0, -2.0]])
    prob = split_linear_system(f_mat, g_mat, [1.0, 0.0])
    assert np.array_equal(as_dense(prob.f_op + prob.g_op), f_mat + g_mat)
    bare = dataclasses.replace(prob, jac_f=_never, jac_g=_never)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0, 0.5]))
    pair = builtin("ssp332")
    for grid in (TimeGrid.uniform(1.0, 10), TimeGrid([0.0, 0.1, 0.35, 0.5, 1.0])):
        recon = build_cg(pair, solve_forward(prob, pair, grid))
        want = solve_adjoint(prob, recon, qoi).poly.coeffs
        recon.at = _never
        assert np.array_equal(solve_adjoint(bare, recon, qoi).poly.coeffs, want)


def test_linearized_operator_tracks_the_reconstruction():
    # the states H is evaluated at, interval by interval from the end, are
    # the reconstruction at the Gauss points of each refined interval
    prob = burgers(0.05, 1.0 / 10.0)
    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=10)
    for refine in (1, 3):
        seen = []
        spy = dataclasses.replace(
            prob, jac_f=lambda y: seen.append(y.copy()) or prob.jac_f(y))
        solve_adjoint(spy, recon, QoiSpec(kind="final-time", psi=prob.y0),
                      refine=refine)
        fine = refine_grid(recon.grid, refine)
        assert len(seen) == fine.n_intervals * GAUSS_NODES.size
        states = iter(seen)
        for n in range(fine.n_intervals - 1, -1, -1):
            for t in fine.nodes[n] + fine.steps[n] * GAUSS_NODES:
                y, at_t = next(states), recon.evaluate(t)
                np.testing.assert_allclose(
                    prob.jac_f(y) + prob.jac_g(y),
                    prob.jac_f(at_t) + prob.jac_g(at_t), rtol=0, atol=1e-14)


def test_operator_at_zero_state_is_diffusion_only():
    prob = burgers(0.05, 1.0 / 10.0)
    zero = np.zeros(prob.dim)
    np.testing.assert_allclose(
        prob.jac_f(zero) + prob.jac_g(zero), prob.jac_g(zero), atol=1e-14
    )


def test_terminal_condition_imposed_exactly():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    recon = reconstruct_case(prob)
    psi = np.array([2.5])
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))
    assert np.array_equal(adj.poly.coeffs[-1, -1], psi)
    assert adj.poly.grid.n_intervals == recon.grid.n_intervals * DEFAULT_REFINE


def test_zero_operator_keeps_terminal_value():
    zero = np.zeros((2, 2))
    prob = split_linear_system(zero, zero, [1.0, -1.0], name="zero")
    recon = reconstruct_case(prob, n=8)
    psi = np.array([0.3, -0.7])
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))
    for t in (0.0, 0.37, 1.0):
        np.testing.assert_allclose(adj.poly.evaluate(t), psi, atol=1e-13)


def test_scalar_adjoint_matches_exponential():
    # -phi' = lam phi, phi(T) = psi has phi(t) = exp(lam (T - t)) psi
    lam = -1.0
    prob = split_scalar_linear(0.0, lam, 1.0)
    recon = reconstruct_case(prob, n=40)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.array([1.0])))
    for t in recon.grid.nodes:
        want = np.exp(lam * (1.0 - t))
        assert adj.poly.evaluate(t)[0] == pytest.approx(want, rel=1e-6)


def test_time_integrated_zero_density_gives_zero_adjoint():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    recon = reconstruct_case(prob, n=10)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.zeros(1))
    adj = solve_adjoint(prob, recon, qoi)
    assert adj.max_abs() == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(adj.poly.coeffs[-1, -1], 0.0)


def test_time_integrated_constant_density_closed_form():
    # -phi' = lam phi + 1, phi(T) = 0 has phi(t) = (exp(lam (T-t)) - 1)/lam
    lam = -1.0
    prob = split_scalar_linear(0.0, lam, 1.0)
    recon = reconstruct_case(prob, n=40)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))
    adj = solve_adjoint(prob, recon, qoi)
    for t in (0.0, 0.25, 0.6, 1.0):
        want = (np.exp(lam * (1.0 - t)) - 1.0) / lam
        assert adj.poly.evaluate(t)[0] == pytest.approx(want, abs=1e-6)


def test_adjoint_galerkin_residual_per_interval():
    # <-phi' - H^T phi, v> vanishes on each adjoint interval for every
    # test polynomial
    prob = burgers(0.05, 1.0 / 10.0)
    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=10)
    psi = np.zeros(prob.dim)
    psi[: prob.dim // 2 + 1] = 1.0
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))

    grid = adj.poly.grid
    _taus, _wts, vals, derivs = adj.poly.gauss_table(1)
    tests = legendre_shifted(recon.degree, GAUSS_NODES)
    scale = 1.0 + adj.max_abs()
    for n in range(grid.n_intervals):
        k_n = grid.steps[n]
        t_gauss = grid.nodes[n] + k_n * GAUSS_NODES
        ys = [recon.evaluate(t) for t in t_gauss]
        hp = np.stack([(prob.jac_f(y) + prob.jac_g(y)).T @ vals[n, j]
                       for j, y in enumerate(ys)])
        integrand = -derivs[n] - hp
        res = k_n * np.einsum("ak,k,km->am", tests, GAUSS_WEIGHTS, integrand)
        assert np.abs(res).max() < 1e-10 * scale


def test_duality_identity_linear_system():
    # for linear autonomous problems (y(T), psi) = (y0, phi(0)) up to
    # the adjoint discretization error
    f_mat = np.array([[0.0, 2.0], [-2.0, 0.0]])
    g_mat = np.array([[-1.0, 0.0], [0.0, -3.0]])
    prob = split_linear_system(f_mat, g_mat, [1.0, 0.5])
    recon = reconstruct_case(prob, n=40)
    psi = np.array([1.0, -0.5])
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))
    lhs = float(np.dot(prob.analytic(1.0), psi))
    rhs = float(np.dot(prob.y0, adj.poly.evaluate(0.0)))
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_backward_sweep_tail_is_local():
    # the adjoint on a truncated window [s, T] coincides with the tail of
    # the full-window adjoint (the sweep only ever looks rightward)
    prob = split_linear_system(
        [[0.0, 1.0], [-1.0, 0.0]], [[-0.5, 0.0], [0.0, -0.5]], [1.0, 0.0]
    )
    psi = np.array([1.0, 1.0])
    qoi = QoiSpec(kind="final-time", psi=psi)
    full = solve_adjoint(prob, reconstruct_case(prob, n=20), qoi)
    tail = solve_adjoint(
        prob, reconstruct_case(prob, n=10, t_start=0.5), qoi
    )
    for t in (0.5, 0.6, 0.85, 1.0):
        np.testing.assert_allclose(
            tail.poly.evaluate(t), full.poly.evaluate(t), atol=1e-12
        )


def test_adjoint_failure_reports_interval():
    nan_mat = np.full((1, 1), np.nan)
    prob = SplitOdeProblem(
        name="nan-jacobian",
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -y,
        jac_f=lambda y: nan_mat,
        jac_g=lambda y: np.array([[-1.0]]),
        y0=np.array([1.0]),
    )
    pair = builtin("mid122")
    fwd = solve_forward(
        split_scalar_linear(0.0, -1.0, 1.0), pair, TimeGrid.uniform(1.0, 4)
    )
    recon = build_cg(pair, fwd)
    with pytest.raises(AdjointSolveError, match="adjoint solve failed"):
        solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(1)))


def test_adjoint_failure_on_a_constant_nan_operator():
    # a linear problem takes the propagator path; the NaN surfaces at the
    # interval the backward sweep reaches first
    nan_mat = np.full((1, 1), np.nan)
    prob = SplitOdeProblem(
        name="nan-operator",
        y0=np.array([1.0]),
        f_op=nan_mat,
        g_op=np.array([[-1.0]]),
    )
    pair = builtin("mid122")
    fwd = solve_forward(
        split_scalar_linear(0.0, -1.0, 1.0), pair, TimeGrid.uniform(1.0, 4)
    )
    recon = build_cg(pair, fwd)
    for qoi in (QoiSpec(kind="final-time", psi=np.ones(1)),
                QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))):
        with pytest.raises(AdjointSolveError,
                           match="non-finite adjoint values") as info:
            solve_adjoint(prob, recon, qoi)
        assert info.value.interval == 4 * DEFAULT_REFINE - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("prob", [split_scalar_linear(-0.4, -0.6, 1.0),
                                  burgers(0.05, 0.1), mhd_alfven(h=0.05)],
                         ids=["propagator", "per-interval", "sparse-propagator"])
def test_zero_pivot_is_reported_once_without_a_warning(prob, monkeypatch):
    # scipy warns about the zero pivot; the solve reports it as an error
    # naming the interval the backward sweep factors first
    recon = reconstruct_case(prob, n=4)
    lu_factor = adjoint.lu_factor
    # the system with every entry zero, dense or sparse like the system
    monkeypatch.setattr(adjoint, "lu_factor",
                        lambda a, **kw: lu_factor(a * 0.0, **kw))
    psi = np.ones(prob.dim)
    with pytest.raises(AdjointSolveError, match="singular local system") as info:
        solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))
    assert info.value.interval == 4 * DEFAULT_REFINE - 1


def recording(lu_factor, seen):
    """lu_factor, appending to seen whether each matrix it factors is sparse."""
    def wrapper(a, **kw):
        seen.append(sparse.issparse(a))
        return lu_factor(a, **kw)
    return wrapper


@pytest.mark.parametrize("build, sparse_route", [
    (lambda: mhd_alfven(h=0.05), True),
    (lambda: linear_advection_diffusion(0.1, 1.0 / 20.0), False),
    (lambda: burgers(0.05, 0.1), False)], ids=["mhd", "advdiff", "burgers"])
def test_operator_structure_picks_the_factorisation_route(build, sparse_route,
                                                          monkeypatch):
    # a CSR operator is factored sparse, forward and backward, and a dense
    # one dense; a nonlinear half has no operator and stays dense
    routes = {solver: [], adjoint: []}
    for module, seen in routes.items():
        monkeypatch.setattr(module, "lu_factor", recording(module.lu_factor, seen))
    prob = build()
    recon = reconstruct_case(prob, t_end=0.2, n=4)
    solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(prob.dim)))
    for seen in routes.values():
        assert seen and set(seen) == {sparse_route}


def random_linear_system(m=5, seed=4):
    rng = np.random.default_rng(seed)
    f_mat = 0.5 * rng.standard_normal((m, m))
    g_mat = -np.diag(rng.uniform(0.5, 2.0, m)) + 0.1 * rng.standard_normal((m, m))
    return split_linear_system(f_mat, g_mat, rng.standard_normal(m))


def oracle_qois(prob):
    """A final-time QoI and a time-varying density on the state."""
    if prob.name.startswith("mhd-alfven"):
        psi = qoi_integral_v(prob.metadata["interior_per_field"],
                             prob.metadata["h"]).psi
    else:
        psi = np.linspace(1.0, -1.0, prob.dim)
    return [QoiSpec(kind="final-time", psi=psi),
            QoiSpec(kind="time-integrated",
                    psi_tilde=lambda t: psi * np.cos(3.0 * t) + t)]


@pytest.mark.parametrize("scheme", ["mid122", "ssp343"], ids=["r2", "r3"])
@pytest.mark.parametrize("build", [lambda: mhd_alfven(h=0.05), random_linear_system],
                         ids=["mhd", "random-linear"])
def test_propagator_matches_the_per_interval_sweep(build, scheme, monkeypatch):
    # without its operators, the same constant Jacobian is factored and
    # solved interval by interval
    prob = build()
    recon = reconstruct_case(prob, scheme, t_end=0.1, n=8)
    per_interval = dataclasses.replace(prob, f_op=None, g_op=None)
    factors = []
    lu_factor = adjoint.lu_factor
    monkeypatch.setattr(adjoint, "lu_factor",
                        lambda a, **kw: factors.append(a.shape) or lu_factor(a, **kw))
    for qoi in oracle_qois(prob):
        factors.clear()
        fast = solve_adjoint(prob, recon, qoi)
        assert len(factors) == 1
        slow = solve_adjoint(per_interval, recon, qoi)
        assert len(factors) == 1 + 8 * DEFAULT_REFINE
        assert fast.poly.coeffs.shape == slow.poly.coeffs.shape
        scale = slow.max_abs()
        assert scale > 0.0
        assert np.abs(fast.poly.coeffs - slow.poly.coeffs).max() <= 1e-13 * scale


def test_refined_adjoint_grid_nests_forward_grid():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    recon = reconstruct_case(prob, n=10)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(1)))
    assert adj.poly.grid.n_intervals == 10 * DEFAULT_REFINE
    # every forward node is a node of the refined grid, kept exactly
    assert np.array_equal(adj.poly.grid.nodes[::DEFAULT_REFINE], recon.grid.nodes)
