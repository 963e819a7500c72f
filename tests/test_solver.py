"""Tests for the IMEX time stepper."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from imexest.problems import (
    SplitOdeProblem,
    as_dense,
    burgers,
    grid_cells,
    linear_advection_diffusion,
    mhd_alfven,
    split_linear_system,
    split_scalar_bernoulli,
    split_scalar_linear,
)
from imexest.solver import (
    NewtonConfig,
    SolverError,
    TimeGrid,
    solve_forward,
    step,
)
from imexest.tableaus import ButcherTableau, ImexPair, builtin, validate


def zero_problem(m=3):
    zero = np.zeros((m, m))
    return split_linear_system(zero, zero, np.arange(1.0, m + 1.0), name="zero")


def test_time_grid_uniform():
    grid = TimeGrid.uniform(2.0, 4)
    np.testing.assert_allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.n_intervals == 4
    assert grid.t_end == 2.0
    np.testing.assert_allclose(grid.steps, 0.5)


def test_time_grid_from_step():
    grid = TimeGrid.uniform(1.0, grid_cells(0.0, 1.0, 0.25, "step"))
    assert grid.n_intervals == 4
    with pytest.raises(ValueError, match="divide"):
        grid_cells(0.0, 1.0, 0.3, "step")


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(nodes=np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(nodes=np.array([0.0]))
    with pytest.raises(ValueError, match="need at least one interval"):
        TimeGrid.uniform(1.0, 0)


@pytest.mark.parametrize("nodes", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf],
                                   [-np.inf, 0.0, 1.0]],
                         ids=["nan", "inf-end", "inf-start"])
def test_time_grid_rejects_non_finite_nodes(nodes):
    # a NaN compares false against zero, so the increasing check passes it
    with pytest.raises(ValueError, match="grid nodes must be finite"):
        TimeGrid(nodes=np.array(nodes))


def test_time_grid_locate():
    grid = TimeGrid.uniform(1.0, 4)
    assert grid.locate(0.1) == 0
    assert grid.locate(0.25) == 1
    assert grid.locate(1.0) == 3
    assert grid.locate(-5.0) == 0
    assert grid.locate(5.0) == 3


def test_midpoint_scalar_amplification_factor():
    # f = 0, g = lam*y under Mid(1,2,2) gives the trapezoidal-type factor
    # (1 + k lam / 2) / (1 - k lam / 2)
    lam, k = -3.0, 0.1
    prob = split_scalar_linear(0.0, lam, 1.0)
    pair = builtin("mid122")
    y1, rec = step(prob, pair, 0.0, k, prob.y0)
    expected = (1.0 + 0.5 * k * lam) / (1.0 - 0.5 * k * lam)
    assert y1[0] == pytest.approx(expected, abs=1e-14)
    assert rec.newton_iters[0] == 0
    np.testing.assert_allclose(rec.times, [0.0, 0.5 * k])


def test_power_of_single_step_factor():
    lam, k, n = -3.0, 0.1, 20
    prob = split_scalar_linear(0.0, lam, 1.0)
    fwd = solve_forward(prob, builtin("mid122"), TimeGrid.uniform(n * k, n))
    factor = (1.0 + 0.5 * k * lam) / (1.0 - 0.5 * k * lam)
    assert fwd.nodal[-1, 0] == pytest.approx(factor**n, rel=1e-12)


def test_pure_explicit_path_matches_explicit_rk():
    # g = 0: the update must reduce to the explicit tableau alone
    prob = split_scalar_linear(-1.5, 0.0, 2.0)
    pair = builtin("ssp332")
    k = 0.05
    y1, rec = step(prob, pair, 0.0, k, prob.y0)
    assert np.all(rec.newton_iters >= 0)

    # hand-rolled explicit RK with (c, A, w) -- here f(t, y) = -1.5 y
    a, w = pair.explicit.coeffs, pair.explicit.weights
    nu = pair.n_stages
    kvals = np.zeros(nu)
    for i in range(nu):
        yi = prob.y0[0] + k * np.dot(a[i, :i], kvals[:i])
        kvals[i] = -1.5 * yi
    expected = prob.y0[0] + k * np.dot(w, kvals)
    assert y1[0] == pytest.approx(expected, abs=1e-13)


def test_zero_field_keeps_state():
    prob = zero_problem()
    pair = builtin("ssp343")
    y1, rec = step(prob, pair, 0.0, 0.3, prob.y0)
    np.testing.assert_allclose(y1, prob.y0)
    np.testing.assert_allclose(rec.values, np.tile(prob.y0, (pair.n_stages, 1)))


def test_explicit_stages_skip_newton():
    prob = split_scalar_linear(0.0, -2.0, 1.0)
    for name in ("mid122", "ssp332", "ssp343"):
        pair = builtin(name)
        _, rec = step(prob, pair, 0.0, 0.1, prob.y0)
        diag = np.diag(pair.implicit.coeffs)
        assert np.all(rec.newton_iters[diag == 0.0] == 0)


def test_newton_single_iteration_on_linear_g():
    # Newton on a linear stage equation converges in one update
    prob = linear_advection_diffusion(0.1, 1.0 / 20.0)
    _, rec = step(prob, builtin("ssp332"), 0.0, 0.05, prob.y0)
    diag = np.diag(builtin("ssp332").implicit.coeffs)
    assert np.all(rec.newton_iters[diag != 0.0] == 1)


def test_newton_handles_nonlinear_g():
    prob = SplitOdeProblem(
        name="cubic-implicit",
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -(y**3),
        jac_f=lambda y: np.zeros((1, 1)),
        jac_g=lambda y: np.array([[-3.0 * y[0] ** 2]]),
        y0=np.array([1.0]),
    )
    y1, rec = step(prob, builtin("mid122"), 0.0, 0.2, prob.y0)
    # stage solves x = y0 - k/2 x^3; check the residual directly
    x = rec.values[1, 0]
    assert x - 1.0 + 0.1 * x**3 == pytest.approx(0.0, abs=1e-12)
    assert rec.newton_iters[1] >= 2


def test_newton_failure_reports_interval_and_stage():
    prob = SplitOdeProblem(
        name="stiff-cubic",
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -(y**3),
        jac_f=lambda y: np.zeros((1, 1)),
        jac_g=lambda y: np.array([[-3.0 * y[0] ** 2]]),
        y0=np.array([1.0]),
    )
    tight = NewtonConfig(abs_tol=1e-16, rel_tol=0.0, max_iters=1)
    with pytest.raises(SolverError, match="Newton did not converge") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2), tight)
    assert "interval" in str(err.value)
    assert err.value.interval == 0


def test_newton_config_rejects_no_iterations():
    with pytest.raises(ValueError, match="max_iters"):
        NewtonConfig(max_iters=0)


def test_newton_evaluates_the_forcing_once_per_stage():
    calls = []

    def boundary_data(t):
        calls.append(t)
        return [np.sin(t)]

    # the forcing (0, sin t): a zero f pickup and a unit g pickup
    prob = SplitOdeProblem(
        name="forced-cubic",
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -(y**3),
        jac_f=lambda y: np.zeros((1, 1)),
        jac_g=lambda y: np.array([[-3.0 * y[0] ** 2]]),
        y0=np.array([1.0]),
        pickups=(np.zeros((1, 1)), np.eye(1)),
        boundary_data=boundary_data,
    )
    pair = builtin("ssp343")
    _, rec = step(prob, pair, 0.0, 0.5, prob.y0)
    implicit = np.count_nonzero(np.diag(pair.implicit.coeffs))
    assert rec.newton_iters.max() >= 2
    assert implicit > 0
    # one call per stage, shared by its Newton solve and its halves
    assert len(calls) == pair.n_stages


def test_blowup_completes_until_overflow():
    # unstable run: growth is fine, only a non-finite value aborts
    prob = split_scalar_linear(8.0, 0.0, 1.0)
    fwd = solve_forward(prob, builtin("mid122"), TimeGrid.uniform(10.0, 100))
    assert np.isfinite(fwd.nodal).all()
    assert fwd.nodal[-1, 0] > 1e30


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_is_reported_as_a_non_finite_state_without_a_warning():
    prob = split_scalar_linear(1e308, -0.6, 1.0)
    with pytest.raises(SolverError,
                       match="non-finite state on interval 0, stage 1"):
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 20))


@pytest.mark.filterwarnings("error")
def test_singular_newton_matrix_is_reported_without_a_warning():
    # Mid(1,2,2) has b_ii = 1/2, so lam_g = 4 at k = 0.5 makes
    # I - k b_ii J_g exactly zero
    prob = split_scalar_linear(0.0, 4.0, 1.0)
    with pytest.raises(SolverError,
                       match="singular Newton matrix on interval 0, stage 1"):
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2))


@pytest.mark.filterwarnings("error")
def test_singular_sparse_newton_matrix_is_reported_without_a_warning():
    # as above, with a CSR g_op: I - k b_ii g_op is factored sparse, and
    # its first row and column are exactly zero
    g_op = sparse.csr_array(np.diag([4.0, -1.0]))
    prob = SplitOdeProblem(name="sparse-singular", y0=np.ones(2),
                           f_op=sparse.csr_array((2, 2)), g_op=g_op)
    with pytest.raises(SolverError,
                       match="singular Newton matrix on interval 0, stage 1") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2))
    assert (err.value.interval, err.value.stage) == (0, 1)


def test_sparse_operators_match_their_dense_form():
    # the Alfven problem's CSR operators, and the same problem rebuilt
    # from dense copies of them, give the same forward solution
    prob = mhd_alfven(h=0.05)
    dense = dataclasses.replace(
        prob, f_op=as_dense(prob.f_op), g_op=as_dense(prob.g_op),
        pickups=tuple(map(as_dense, prob.pickups)),
        eval_f=None, eval_g=None, jac_f=None, jac_g=None)
    assert sparse.issparse(prob.g_op) and not sparse.issparse(dense.g_op)
    for name in ("mid122", "ssp343"):
        grid = TimeGrid.uniform(0.1, 8)
        got = solve_forward(prob, builtin(name), grid).nodal
        want = solve_forward(dense, builtin(name), grid).nodal
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_pair_with_an_implicit_abscissa_beyond_the_step_runs():
    # the implicit half evaluates its second stage at t_n + 1.5 k: a
    # consistent pair, so validate has nothing to report
    mid = builtin("mid122")
    pair = ImexPair(
        name="late-stage", order=1, explicit=mid.explicit,
        implicit=ButcherTableau(abscissae=[0.5, 1.5],
                                coeffs=[[0.5, 0.0], [0.5, 1.0]],
                                weights=[0.0, 1.0]))
    assert validate(pair) == []
    grid = TimeGrid.uniform(1.0, 20)
    fwd = solve_forward(split_scalar_linear(-0.4, -0.6, 1.0), pair, grid)
    assert fwd.stages[0].times[1] > grid.nodes[1]
    assert abs(fwd.final_state[0] - np.exp(-1.0)) < 0.05


def test_non_finite_state_raises():
    prob = SplitOdeProblem(
        name="hard-blowup",
        eval_f=lambda y: y * y * 1e150,
        eval_g=lambda y: np.zeros(1),
        jac_f=lambda y: np.array([[2e150 * y[0]]]),
        jac_g=lambda y: np.zeros((1, 1)),
        y0=np.array([1e200]),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite"):
            solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2))


def test_solve_forward_keeps_every_stage_record():
    prob = burgers(0.05, 1.0 / 10.0)
    grid = TimeGrid.uniform(0.5, 10)
    fwd = solve_forward(prob, builtin("ssp343"), grid)
    assert len(fwd.stages) == 10
    assert fwd.nodal.shape == (11, prob.dim)
    np.testing.assert_allclose(fwd.nodal[0], prob.y0)
    np.testing.assert_array_equal(fwd.final_state, fwd.nodal[-1])
    assert np.shares_memory(fwd.final_state, fwd.nodal)


def test_one_step_solve_equals_step():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    pair = builtin("ssp332")
    grid = TimeGrid.uniform(0.1, 1)
    fwd = solve_forward(prob, pair, grid)
    y1, _ = step(prob, pair, 0.0, 0.1, prob.y0)
    np.testing.assert_allclose(fwd.nodal[1], y1)


def test_update_formula_uses_recorded_stage_values():
    # Y_{n+1} - Y_n = k (w . f_vals + w~ . g_vals), stage values recorded
    prob = burgers(0.05, 1.0 / 10.0)
    pair = builtin("ssp332")
    grid = TimeGrid.uniform(0.4, 4)
    fwd = solve_forward(prob, pair, grid)
    w_ex, w_im = pair.explicit.weights, pair.implicit.weights
    for n, rec in enumerate(fwd.stages):
        inc = grid.steps[n] * (w_ex @ rec.f_vals + w_im @ rec.g_vals)
        np.testing.assert_allclose(fwd.nodal[n + 1] - fwd.nodal[n], inc, atol=1e-13)


def test_invalid_pair_rejected_by_solver():
    from imexest.tableaus import ButcherTableau, ImexPair

    base = builtin("mid122")
    bad = ImexPair(
        name="dup",
        order=2,
        explicit=base.explicit,
        implicit=ButcherTableau(
            abscissae=np.array([0.5, 0.5]),
            coeffs=np.array([[0.5, 0.0], [0.0, 0.5]]),
            weights=np.array([0.0, 1.0]),
        ),
    )
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="invalid tableau"):
        solve_forward(prob, bad, TimeGrid.uniform(1.0, 2))


def test_nodal_accuracy_orders():
    # observed convergence order at T matches the design order of each pair
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    for name, order in (("mid122", 2.0), ("ssp332", 2.0), ("ssp343", 3.0)):
        errs = []
        for n in (10, 20, 40, 80):
            fwd = solve_forward(prob, builtin(name), TimeGrid.uniform(1.0, n))
            errs.append(abs(fwd.nodal[-1, 0] - prob.analytic(1.0)[0]))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert abs(rates[-1] - order) < 0.15, (name, rates)


def test_stage_times_follow_implicit_abscissae():
    prob = split_scalar_linear(-1.0, -1.0, 1.0)
    pair = builtin("ssp343")
    grid = TimeGrid.uniform(0.2, 2)
    fwd = solve_forward(prob, pair, grid)
    for n, rec in enumerate(fwd.stages):
        t_n = grid.nodes[n]
        k_n = grid.steps[n]
        np.testing.assert_allclose(rec.times, t_n + k_n * pair.implicit.abscissae)
