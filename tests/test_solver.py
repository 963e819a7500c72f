"""Tests for the IMEX time stepper."""

import numpy as np
import pytest
from scipy import sparse

from imexest import solver
from imexest.problems import (
    SplitOdeProblem,
    burgers,
    grid_cells,
    linear_advection_diffusion,
    mhd_alfven,
    split_linear_system,
    split_scalar_bernoulli,
    split_scalar_linear,
)
from imexest.numerics import Band, lu_factor
from imexest.solver import (
    NewtonConfig,
    SolverError,
    TimeGrid,
    newton_solves,
    solve_forward,
    step,
)
from imexest.tableaus import ButcherTableau, ImexPair, builtin, validate
from oracles import (band_matrix, check_jacobians, dense_form, dense_jacobian,
                     stage_states, stage_times)


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


@pytest.mark.parametrize("scheme", ["mid122", "ssp332", "ssp343"])
def test_time_grid_local_times_are_the_stage_times(scheme):
    # on a graded grid, at a pair's implicit abscissae, to the bit
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(1.3 ** np.arange(6) / 7.0)]))
    pair = builtin(scheme)
    times = grid.local_times(pair.implicit.abscissae)
    assert times.shape == (grid.n_intervals, pair.n_stages)
    assert np.array_equal(times, stage_times(grid, pair))


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
    # the implicit stage is the midpoint value, and g is read there
    states = stage_states(pair, prob.y0, k, rec)
    np.testing.assert_allclose(states[:, 0], [1.0, 0.5 * (1.0 + y1[0])], atol=1e-14)
    np.testing.assert_allclose(rec.g_vals, lam * states, atol=1e-14)


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
    assert not rec.f_vals.any() and not rec.g_vals.any()
    np.testing.assert_array_equal(stage_states(pair, prob.y0, 0.3, rec),
                                  np.tile(prob.y0, (pair.n_stages, 1)))


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


def cubic(name, **forcing):
    """y' = -y^3, integrated implicitly; each half states its Jacobian at
    the full 1 x 1 pattern."""
    return SplitOdeProblem(
        name=name,
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -(y**3),
        jac_f=lambda ys: np.zeros_like(ys),
        jac_g=lambda ys: -3.0 * ys**2,
        y0=np.array([1.0]),
        **forcing,
    )


def test_nonlinear_g_jacobian_matches_finite_differences():
    prob = cubic("cubic-implicit")
    assert np.array_equal(prob.jac_pattern.toarray(), [[True]])
    assert check_jacobians(prob, n_samples=20, seed=3) < 1e-8


def test_newton_handles_nonlinear_g():
    prob = cubic("cubic-implicit")
    pair = builtin("mid122")
    y1, rec = step(prob, pair, 0.0, 0.2, prob.y0)
    # stage solves x = y0 - k/2 x^3: g is read at the stage state, and the
    # stage equation holds there to Newton's tolerance
    x = stage_states(pair, prob.y0, 0.2, rec)[1, 0]
    tol = 2e-12  # NewtonConfig's abs_tol + rel_tol |x|, with |x| < 1
    assert rec.g_vals[1, 0] == pytest.approx(-(x**3), abs=3.0 * tol)
    assert x - 1.0 + 0.1 * x**3 == pytest.approx(0.0, abs=2.0 * tol)
    assert rec.newton_iters[1] >= 2


@pytest.mark.parametrize("scheme", ["mid122", "ssp332", "ssp343"])
def test_a_one_iteration_implicit_stage_evaluates_g_twice(scheme):
    # once at the stage's known part, once at the Newton update, where the
    # converged residual's g is the stage's g; an explicit stage reads g once
    prob = linear_advection_diffusion(0.1, 1.0 / 20.0)
    pair = builtin(scheme)
    calls = []
    eval_g = prob.eval_g
    prob.eval_g = lambda y: calls.append(y.copy()) or eval_g(y)
    _, rec = step(prob, pair, 0.0, 0.05, prob.y0)
    implicit = np.diag(pair.implicit.coeffs) != 0.0
    assert np.all(rec.newton_iters[implicit] == 1)
    assert len(calls) == 2 * np.count_nonzero(implicit) + np.count_nonzero(~implicit)


def recorded_states(prob):
    """Wrap prob.eval_f to record every state it is called at; a stage's
    f is read exactly once, at its state."""
    states = []
    eval_f = prob.eval_f
    prob.eval_f = lambda y: states.append(y.copy()) or eval_f(y)
    return states


@pytest.mark.parametrize("forced, scheme", [
    (True, "ssp343"), (False, "ssp343"), (True, "mid122"), (False, "mid122")],
    ids=["forced-mhd", "unforced-cubic", "forced-mhd-mid122", "unforced-cubic-mid122"])
def test_stage_values_are_the_halves_at_the_stage_states(forced, scheme):
    # Mid(1,2,2)'s first stage is explicit, SSP3(4,3,3) has none: both
    # kinds of stage read f and g at the stage state and the stage time
    prob = mhd_alfven(h=0.1) if forced else cubic("cubic-implicit")
    pair = builtin(scheme)
    grid = TimeGrid.uniform(0.05, 5)
    eval_f, eval_g = prob.eval_f, prob.eval_g
    states = recorded_states(prob)
    fwd = solve_forward(prob, pair, grid)
    assert len(states) == grid.n_intervals * pair.n_stages
    times = stage_times(grid, pair).ravel()
    force = prob.forcing(times) if forced else [[None] * times.size] * 2
    f_vals = np.concatenate([rec.f_vals for rec in fwd.stages])
    g_vals = np.concatenate([rec.g_vals for rec in fwd.stages])
    for x, force_f, force_g, f, g in zip(states, *force, f_vals, g_vals):
        want_f, want_g = eval_f(x), eval_g(x)
        if forced:
            want_f, want_g = want_f + force_f, want_g + force_g
        assert np.array_equal(f, want_f) and np.array_equal(g, want_g)
        assert np.array_equal(np.signbit(g), np.signbit(want_g))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_newton_residual_names_its_interval_and_stage(bad):
    prob = SplitOdeProblem(name="forced-decay", y0=np.ones(1), f_op=-np.eye(1),
                           g_op=-np.eye(1), pickups=(np.eye(1), np.eye(1)),
                           boundary_data=lambda t: np.zeros(np.shape(t) + (1,)))
    pair = builtin("ssp332")
    force_f, force_g = np.zeros((3, 1)), np.zeros((3, 1))
    force_g[1] = bad
    with pytest.raises(SolverError, match="^non-finite state on interval 7, stage 1, ") as exc:
        step(prob, pair, 0.0, 0.1, prob.y0, interval=7, force=(force_f, force_g))
    assert (exc.value.interval, exc.value.stage) == (7, 1)


def test_newton_failure_reports_interval_and_stage():
    prob = cubic("stiff-cubic")
    tight = NewtonConfig(abs_tol=1e-16, rel_tol=0.0, max_iters=1)
    with pytest.raises(SolverError, match="Newton did not converge") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2), tight)
    assert "on interval 0, stage 1" in str(err.value)
    assert (err.value.interval, err.value.stage) == (0, 1)


def test_newton_config_rejects_no_iterations():
    with pytest.raises(ValueError, match="max_iters"):
        NewtonConfig(max_iters=0)


def test_forward_solve_reads_the_forcing_once():
    calls = []

    def boundary_data(t):
        calls.append(np.array(t, copy=True))
        return np.sin(t)[..., None]

    # the forcing (0, sin t): a zero f pickup and a unit g pickup
    prob = cubic("forced-cubic", pickups=(np.zeros((1, 1)), np.eye(1)),
                 boundary_data=boundary_data)
    pair = builtin("ssp343")
    grid = TimeGrid(np.array([0.0, 0.5, 0.8, 1.5]))
    fwd = solve_forward(prob, pair, grid)
    assert np.count_nonzero(np.diag(pair.implicit.coeffs)) > 0
    assert max(rec.newton_iters.max() for rec in fwd.stages) >= 2
    # one read for every Newton iteration and both halves of every stage,
    # at exactly the stage times t_n + k_n d
    (times,) = calls
    want = stage_times(grid, pair)
    assert np.array_equal(times, want.ravel())
    # each stage's g is read at its state and its own time's forcing, to
    # Newton's tolerance
    for n, rec in enumerate(fwd.stages):
        states = stage_states(pair, fwd.nodal[n], grid.steps[n], rec)
        np.testing.assert_allclose(rec.g_vals, -(states**3) + np.sin(want[n])[:, None],
                                   rtol=0.0, atol=1e-11)


def test_a_step_takes_the_forcing_exactly_when_the_problem_is_forced():
    forced = cubic("forced-cubic", pickups=(np.zeros((1, 1)), np.eye(1)),
                   boundary_data=lambda t: np.sin(t)[..., None])
    pair = builtin("mid122")
    force = forced.forcing(0.2 * pair.implicit.abscissae)
    y1, _ = step(forced, pair, 0.0, 0.2, forced.y0, force=force)
    assert np.isfinite(y1).all()
    for prob, given in ((forced, None), (cubic("cubic-implicit"), force)):
        with pytest.raises(ValueError, match="forcing exactly when"):
            step(prob, pair, 0.0, 0.2, prob.y0, force=given)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_explicit_stage_whose_g_overflows_names_itself():
    # Mid(1,2,2)'s first stage is explicit: y0 is finite and g(y0) = 1e309
    # overflows there, so the error names stage 0 at t = 0, not the next
    # stage that reads it
    prob = split_scalar_linear(-1.0, 1e308, 10.0)
    with pytest.raises(SolverError,
                       match="^non-finite state on interval 0, stage 0, t=0$") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 20))
    assert (err.value.interval, err.value.stage) == (0, 0)


@pytest.mark.filterwarnings("error")
def test_singular_newton_matrix_is_reported_without_a_warning():
    # Mid(1,2,2) has b_ii = 1/2, so lam_g = 4 at k = 0.5 makes
    # I - k b_ii J_g exactly zero
    prob = split_scalar_linear(0.0, 4.0, 1.0)
    with pytest.raises(SolverError,
                       match="singular Newton matrix on interval 0, stage 1"):
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2))


@pytest.mark.filterwarnings("error")
def test_singular_sparse_newton_matrix_is_reported_without_a_warning(monkeypatch):
    # as above, with a CSR g_op: I - k b_ii g_op is a band on the
    # operators' pattern, and its first pivot is exactly zero
    g_op = sparse.csr_array(np.diag([4.0, -1.0]))
    prob = SplitOdeProblem(name="sparse-singular", y0=np.ones(2),
                           f_op=sparse.csr_array((2, 2)), g_op=g_op)
    matrices = factored_matrices(monkeypatch)
    with pytest.raises(SolverError,
                       match="singular Newton matrix on interval 0, stage 1") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid.uniform(1.0, 2))
    assert (err.value.interval, err.value.stage) == (0, 1)
    (band,) = matrices
    assert isinstance(band, Band)


@pytest.mark.filterwarnings("error")
def test_singular_band_newton_matrix_names_its_interval_and_stage():
    # g(y) = 4 y stated by its Jacobian, not as an operator, so its Newton
    # matrix is a band; Mid(1,2,2)'s b_ii = 1/2 at the second step's
    # k = 0.5 makes it exactly zero
    prob = SplitOdeProblem(name="band-singular", y0=np.ones(1), f_op=np.zeros((1, 1)),
                           eval_g=lambda y: 4.0 * y,
                           jac_g=lambda ys: np.full((len(ys), 1), 4.0))
    with pytest.raises(SolverError,
                       match="^singular Newton matrix on interval 1, stage 1$") as err:
        solve_forward(prob, builtin("mid122"), TimeGrid(np.array([0.0, 0.1, 0.6])))
    assert (err.value.interval, err.value.stage) == (1, 1)


def factored_matrices(monkeypatch):
    """The matrices solver.lu_factor is handed from here on, each copied
    before it is factored in place."""
    matrices = []
    real = solver.lu_factor

    def record(matrix, **kw):
        matrices.append(matrix._replace(ab=matrix.ab.copy(order="F"))
                        if isinstance(matrix, Band) else matrix.copy())
        return real(matrix, **kw)
    monkeypatch.setattr(solver, "lu_factor", record)
    return matrices


def assert_band_solves_the_dense_system(band, dense, seed=0):
    """The band holds the dense matrix, entry for entry, and its solve
    matches numpy's of the dense matrix to 1e-12 relative."""
    assert isinstance(band, Band)
    assert np.array_equal(band_matrix(band), dense)
    b = np.random.default_rng(seed).standard_normal(dense.shape[0])
    got = lu_factor(band, singular=ZeroDivisionError)(b)
    want = np.linalg.solve(dense, b)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("h", [0.025, 1.0 / 160.0], ids=["m80", "m320"])
def test_burgers_newton_matrix_is_a_band_of_half_width_two(h, monkeypatch):
    # I - c g_op on Burgers' ring, in the node order its adjoint bands
    # share, is a band of half-width 2 at any m
    prob = burgers(0.05, h)
    c = 0.05
    matrices = factored_matrices(monkeypatch)
    newton_solves(prob)(c, prob.y0, 0, 0)
    (band,) = matrices
    assert (band.kl, band.ku) == (2, 2) and np.array_equal(band.order, prob.node_order)
    assert_band_solves_the_dense_system(band, np.eye(prob.dim) - c * prob.g_op)


def test_nonlinear_g_newton_band_on_a_non_symmetric_pattern(monkeypatch):
    # g_i = -y_i^3 + y_{i-1}^2, and g_0 also reads y_{m-1}: a pattern that
    # is not symmetric, so a transposed band would hold the wrong matrix;
    # the band is I - c J_g at the state x, J_g read from jac_g each time
    m = 9
    rows = np.concatenate([np.arange(m), np.arange(1, m), [0]])
    cols = np.concatenate([np.arange(m), np.arange(m - 1), [m - 1]])
    pattern = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(m, m))
    pr, pc = pattern.nonzero()

    def eval_g(y):
        g = -y ** 3
        g[..., 1:] += y[..., :-1] ** 2
        g[..., 0] += 0.5 * y[..., -1]
        return g

    def jac_g(ys):
        dense = np.zeros((len(ys), m, m))
        dense[:, np.arange(m), np.arange(m)] = -3.0 * ys ** 2
        dense[:, np.arange(1, m), np.arange(m - 1)] = 2.0 * ys[:, :-1]
        dense[:, 0, m - 1] = 0.5
        return dense[:, pr, pc]

    prob = SplitOdeProblem(name="upwind-cubic", y0=np.linspace(0.5, 1.5, m),
                           f_op=np.zeros((m, m)), eval_g=eval_g, jac_g=jac_g,
                           jac_pattern=pattern)
    assert check_jacobians(prob) < 1e-8
    matrices = factored_matrices(monkeypatch)
    solves = newton_solves(prob)
    for seed, c in enumerate((0.1, 0.3)):
        x = np.random.default_rng(seed).standard_normal(m)
        want = np.eye(m) - c * dense_jacobian(prob, "g", x)
        assert not np.array_equal(want, want.T)
        solves(c, x, 0, 0)
        assert_band_solves_the_dense_system(matrices[-1], want, seed)


def test_newton_solves_factors_a_linear_problem_once_per_c(monkeypatch):
    # one LU per distinct c = k_n b_ii of an implicit stage, over steps
    # that differ by design and at roundoff, however often c recurs
    prob = linear_advection_diffusion(0.1, 1.0 / 20.0)
    pair = builtin("ssp343")
    grid = TimeGrid(np.concatenate([np.linspace(0.0, 0.3, 7), [0.4, 0.5]]))
    matrices = factored_matrices(monkeypatch)
    fwd = solve_forward(prob, pair, grid)
    diag = np.diag(pair.implicit.coeffs)
    cs = {k * b for k in grid.steps for b in diag if b != 0.0}
    implicit_stages = grid.n_intervals * np.count_nonzero(diag)
    assert len(matrices) == len(cs) < implicit_stages
    assert sum(int(rec.newton_iters.sum()) for rec in fwd.stages) == implicit_stages


def test_newton_solves_factors_a_nonlinear_problem_on_every_call(monkeypatch):
    prob = cubic("cubic-implicit")
    matrices = factored_matrices(monkeypatch)
    solves = newton_solves(prob)
    for _ in range(3):
        solves(0.1, prob.y0, 0, 1)
    assert len(matrices) == 3
    fwd = solve_forward(prob, builtin("ssp343"), TimeGrid.uniform(1.0, 4))
    assert len(matrices) == 3 + sum(int(rec.newton_iters.sum()) for rec in fwd.stages)


def test_an_explicit_stage_factors_nothing(monkeypatch):
    # Mid(1,2,2)'s first stage is explicit: no Newton iteration and no
    # factorisation, on a problem that factors at every iteration
    prob = cubic("cubic-implicit")
    solves, stages = newton_solves(prob), []

    def recorded(c, x, interval, stage):
        stages.append(stage)
        return solves(c, x, interval, stage)
    matrices = factored_matrices(monkeypatch)
    _, rec = step(prob, builtin("mid122"), 0.0, 0.2, prob.y0, solves=recorded)
    assert rec.newton_iters[0] == 0 and rec.newton_iters[1] >= 2
    assert stages == [1] * rec.newton_iters[1]
    assert len(matrices) == rec.newton_iters[1]


def test_sparse_operators_match_their_dense_form():
    # the Alfven problem's CSR operators, and the same problem rebuilt
    # from dense copies of them, give the same forward solution
    prob = mhd_alfven(h=0.05)
    dense = dense_form(prob)
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
    assert stage_times(grid, pair)[0, 1] > grid.nodes[1]
    assert abs(fwd.final_state[0] - np.exp(-1.0)) < 0.05


def test_non_finite_state_raises():
    prob = SplitOdeProblem(
        name="hard-blowup",
        eval_f=lambda y: y * y * 1e150,
        eval_g=lambda y: np.zeros(1),
        jac_f=lambda ys: 2e150 * ys,
        jac_g=lambda ys: np.zeros_like(ys),
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
    # the forcing is read at every stage's time, one interval after another
    calls = []
    prob = cubic("forced-cubic", pickups=(np.eye(1), np.eye(1)),
                 boundary_data=lambda t: calls.append(t) or np.cos(t)[..., None])
    pair = builtin("ssp343")
    grid = TimeGrid.uniform(0.2, 2)
    solve_forward(prob, pair, grid)
    (times,) = calls
    for n, row in enumerate(times.reshape(grid.n_intervals, pair.n_stages)):
        t_n = grid.nodes[n]
        k_n = grid.steps[n]
        np.testing.assert_allclose(row, t_n + k_n * pair.implicit.abscissae)
