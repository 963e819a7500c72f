"""Tests for the reference QoI computation."""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from imexest import numerics, reference
from imexest.adjoint import solve_adjoint
from imexest.cli import RunConfig, table_config
from imexest.numerics import Band, BlockForm
from imexest.problems import (
    QoiSpec,
    burgers,
    mhd_alfven,
    qoi_integral_v,
    split_linear_system,
    split_scalar_linear,
)
from imexest.reference import (
    MODES,
    RADAU_C,
    RADAU_START_STEPS,
    RTOL_FLOOR,
    ReferenceConfig,
    ReferenceError,
    dop853,
    exact_solution,
    radau_iia,
    reference_states,
    true_qoi,
)
from imexest.reconstruct import build_cg
from imexest.solver import TimeGrid, solve_forward
from oracles import band_matrix


GRID = TimeGrid.uniform(1.0, 10)


def test_scalar_analytic_reference():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    got = true_qoi(prob, GRID, qoi)
    assert got == pytest.approx(np.exp(-1.0), abs=1e-11)


def test_matrix_exponential_reference():
    f_mat = [[0.0, 2.0], [-2.0, 0.0]]
    g_mat = [[-1.0, 0.0], [0.0, -3.0]]
    prob = split_linear_system(f_mat, g_mat, [1.0, 0.5])
    psi = np.array([1.0, -0.5])
    qoi = QoiSpec(kind="final-time", psi=psi)
    from scipy.linalg import expm

    want = float(psi @ expm(np.array(f_mat) + np.array(g_mat)) @ prob.y0)
    assert true_qoi(prob, GRID, qoi) == pytest.approx(want, abs=1e-10)


def test_numeric_route_agrees_with_analytic():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    analytic = true_qoi(prob, GRID, qoi, ReferenceConfig(mode="analytic"))
    numeric = true_qoi(prob, GRID, qoi, ReferenceConfig(mode="high-order-numeric"))
    assert numeric == pytest.approx(analytic, abs=1e-8)


def test_auto_prefers_attached_exact_solution():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    prob.analytic = lambda t: np.array([42.0])
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    assert true_qoi(prob, GRID, qoi) == pytest.approx(42.0)


def test_analytic_mode_requires_exact_solution():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    prob.analytic = None
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    with pytest.raises(ReferenceError, match="mode 'analytic' needs an analytic "
                                             "or sampled exact solution"):
        true_qoi(prob, GRID, qoi, ReferenceConfig(mode="analytic"))
    # auto silently falls back to the numeric route instead
    assert true_qoi(prob, GRID, qoi) == pytest.approx(np.exp(-1.0), abs=1e-8)


def _exact(t):
    return np.array([1.0])


def _pde(t):
    return np.array([2.0])


@pytest.mark.parametrize("mode, solutions, want", [
    ("auto", (_exact, _pde), _exact),
    ("auto", (None, _pde), None),
    ("auto", (None, None), None),
    ("analytic", (_exact, _pde), _exact),
    ("analytic", (None, _pde), _pde),
    ("analytic", (None, None), ReferenceError),
    ("high-order-numeric", (_exact, _pde), None),
    ("high-order-numeric", (None, _pde), None),
    ("high-order-numeric", (None, None), None),
])
def test_exact_solution_picks_the_route(mode, solutions, want):
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    prob.analytic, prob.pde_solution = solutions
    if want is ReferenceError:
        with pytest.raises(ReferenceError, match="has neither"):
            exact_solution(prob, mode, 0.0)
    else:
        assert exact_solution(prob, mode, 0.0) is want


def test_an_exact_solution_serves_only_a_trajectory_from_t0():
    # y0 held at t = 0.5: an exact solution from t = 0 reads e^-1.5 at
    # t = 1.5, where the trajectory the forward solves reads e^-1
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    grid = TimeGrid(np.linspace(0.5, 1.5, 11))
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    numeric = true_qoi(prob, grid, qoi, ReferenceConfig(mode="high-order-numeric"))
    assert numeric == pytest.approx(np.exp(-1.0), abs=1e-9)
    assert abs(true_qoi(prob, grid, qoi) - numeric) <= 1e-9
    assert exact_solution(prob, "auto", 0.5) is None
    states = reference_states(prob, grid.nodes)
    np.testing.assert_allclose(states[:, 0], np.exp(0.5 - grid.nodes), rtol=1e-9)
    analytic = ReferenceConfig(mode="analytic")
    for reference in (lambda: true_qoi(prob, grid, qoi, analytic),
                      lambda: reference_states(prob, grid.nodes, analytic)):
        with pytest.raises(ReferenceError, match="starts at t=0.5$"):
            reference()


def test_time_integrated_reference_analytic():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))
    got = true_qoi(prob, GRID, qoi)
    assert got == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)


def test_time_integrated_reference_numeric():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))
    got = true_qoi(prob, GRID, qoi, ReferenceConfig(mode="high-order-numeric"))
    assert got == pytest.approx(1.0 - np.exp(-1.0), abs=1e-8)


def test_alfven_analytic_mode_samples_the_pde_solution():
    prob = mhd_alfven(h=0.05)
    mh = prob.metadata["interior_per_field"]
    qoi = qoi_integral_v(mh, prob.metadata["h"])
    grid = TimeGrid.uniform(0.1, 4)
    got = true_qoi(prob, grid, qoi, ReferenceConfig(mode="analytic"))
    want = float(np.dot(prob.pde_solution(0.1), qoi.psi))
    assert got == pytest.approx(want, abs=1e-14)


def test_verify_accepts_converged_reference():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    cfg = ReferenceConfig(mode="high-order-numeric", verify=True)
    assert true_qoi(prob, GRID, qoi, cfg) == pytest.approx(np.exp(-1.0), abs=1e-8)


def test_verify_rejects_unreachable_target():
    # when the IMEX value already sits on top of the truth, no numeric
    # tolerance can make the halving drift negligible by comparison
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    cfg = ReferenceConfig(
        mode="high-order-numeric", rtol=1e-3, atol=1e-6, verify=True
    )
    with pytest.raises(ReferenceError, match="not converged"):
        true_qoi(prob, GRID, qoi, cfg, imex_qoi=float(np.exp(-1.0)))


@pytest.mark.parametrize("rtol, want", [
    (1e-3, [1e-3, 1e-5, 1e-7, 1e-9]),
    (1e-12, [1e-12, RTOL_FLOOR]),
    (RTOL_FLOOR, [RTOL_FLOOR]),
], ids=["three-comparisons", "stops-at-the-floor", "nothing-finer"])
def test_dop853_verify_tightens_a_hundredfold_down_to_the_floor(
        monkeypatch, rtol, want):
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    tolerances = []
    real_dop853 = reference._dop853

    def recorded(fun, t_span, z0, rtol, atol, config):
        tolerances.append(rtol)
        return real_dop853(fun, t_span, z0, rtol, atol, config)

    monkeypatch.setattr(reference, "_dop853", recorded)
    cfg = ReferenceConfig(mode="high-order-numeric", rtol=rtol, verify=True)
    # the IMEX value on top of the truth leaves every drift too large
    with pytest.raises(ReferenceError, match="not converged"):
        true_qoi(prob, GRID, qoi, cfg, imex_qoi=float(np.exp(-1.0)))
    assert tolerances == pytest.approx(want, rel=1e-12)


def test_step_cap_guards_runaway_integrations():
    f_mat = [[0.0, 20.0], [-20.0, 0.0]]
    prob = split_linear_system(f_mat, np.zeros((2, 2)), [1.0, 0.0])
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0, 0.0]))
    cfg = ReferenceConfig(mode="high-order-numeric", step_cap=3)
    with pytest.raises(ReferenceError, match="cap"):
        true_qoi(prob, GRID, qoi, cfg)


def test_reference_config_validates_mode():
    assert set(MODES) == {"auto", "analytic", "high-order-numeric"}
    with pytest.raises(ValueError, match="mode"):
        ReferenceConfig(mode="exact")


def test_reference_config_takes_verify_only_as_a_bool():
    # a config's verify fails its type check first; the library's own
    # check keeps a string from switching verification on
    with pytest.raises(ValueError, match="reference verify must be true or "
                                         "false, got 'yes'"):
        ReferenceConfig(verify="yes")


def test_reference_config_rejects_an_rtol_below_the_floor():
    # no route integrates finer than RTOL_FLOOR: DOP853 would raise a finer
    # rtol to about 2.2e-14 with a warning, and verify stops at the floor
    assert ReferenceConfig(rtol=RTOL_FLOOR).rtol == RTOL_FLOOR
    with pytest.raises(ValueError, match="reference rtol must be >= 1e-13, "
                                         "got 1e-16"):
        ReferenceConfig(rtol=1e-16)


# -- the DOP853 right-hand side ------------------------------------------------

NUMERIC = ReferenceConfig(mode="high-order-numeric")
MHD_GRID = TimeGrid.uniform(0.1, 4)


def mhd_qois(prob):
    """The integral-v final-time QoI and a constant-density time integral."""
    psi = qoi_integral_v(prob.metadata["interior_per_field"], prob.metadata["h"]).psi
    return [QoiSpec(kind="final-time", psi=psi),
            QoiSpec(kind="time-integrated", psi_tilde=lambda t: psi)]


def rhs_oracle_qoi(prob, qoi, cfg):
    """The numeric reference QoI integrated with problem.rhs."""
    if qoi.kind == "final-time":
        fun, z0 = (lambda t, y: prob.rhs(y, t)), prob.y0
    else:
        def fun(t, z):
            return np.append(prob.rhs(z[:-1], t), np.dot(z[:-1], qoi.psi_tilde(t)))
        z0 = np.append(prob.y0, 0.0)
    sol = solve_ivp(fun, (0.0, MHD_GRID.t_end), z0, method="DOP853",
                    rtol=cfg.rtol, atol=cfg.atol, max_step=cfg.max_step)
    z_end = sol.y[:, -1]
    return float(z_end @ qoi.psi) if qoi.kind == "final-time" else float(z_end[-1])


@pytest.mark.parametrize("v_mode", ["v-split", "v-implicit"])
def test_numeric_reference_of_a_linear_problem_evaluates_no_halves(v_mode):
    prob = mhd_alfven(h=0.05, v_mode=v_mode)
    calls = {"eval_f": 0, "eval_g": 0}
    for name in calls:
        fn = getattr(prob, name)

        def counted(y, fn=fn, name=name):
            calls[name] += 1
            return fn(y)
        setattr(prob, name, counted)
    for qoi in mhd_qois(prob):
        true_qoi(prob, MHD_GRID, qoi, NUMERIC)
    assert calls == {"eval_f": 0, "eval_g": 0}


@pytest.mark.parametrize("kind", ["final-time", "time-integrated"])
def test_numeric_reference_matches_an_rhs_oracle(kind):
    prob = mhd_alfven(h=0.05)
    qoi = {q.kind: q for q in mhd_qois(prob)}[kind]
    want = rhs_oracle_qoi(prob, qoi, NUMERIC)
    assert true_qoi(prob, MHD_GRID, qoi, NUMERIC) == pytest.approx(want, rel=1e-12)


def test_step_cap_bounds_attempted_steps(monkeypatch):
    # the forced linear problem takes the Radau IIA route, which checks the
    # cap as each step starts and reads the boundary data for a block of
    # steps as its first step starts: cap 3 starts no fourth step and reads
    # one block of times, not the whole solve
    prob = mhd_alfven(h=0.05)
    reads = []
    data = prob.boundary_data

    def counted(t):
        reads.append(np.size(t))
        return data(t)

    prob.boundary_data = counted
    # each step solves its stage system once
    taken = []
    real_lu = reference.lu_factor

    def counted_lu(*args, **kwargs):
        solve = real_lu(*args, **kwargs)

        def counted_solve(b):
            taken.append(len(taken) + 1)
            return solve(b)
        return counted_solve

    monkeypatch.setattr(reference, "lu_factor", counted_lu)
    cfg = ReferenceConfig(mode="high-order-numeric", step_cap=3)
    with pytest.raises(ReferenceError, match="cap 3"):
        true_qoi(prob, MHD_GRID, mhd_qois(prob)[0], cfg)
    assert taken == [1, 2, 3]
    assert reads == [3 * RADAU_START_STEPS]


def test_step_cap_equal_to_the_step_count_passes():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    sol = solve_ivp(lambda t, y: prob.rhs(y, t), (0.0, GRID.t_end), prob.y0,
                    method="DOP853", rtol=NUMERIC.rtol, atol=NUMERIC.atol)
    steps = sol.t.size - 1  # 5 with scipy 1.17
    assert steps >= 2
    want = float(sol.y[0, -1])
    cfg = ReferenceConfig(mode="high-order-numeric", step_cap=steps)
    assert true_qoi(prob, GRID, qoi, cfg) == want
    with pytest.raises(ReferenceError, match="cap"):
        true_qoi(prob, GRID, qoi, replace(cfg, step_cap=steps - 1))


def test_numeric_reference_of_a_forced_linear_problem_reads_forcing_per_block(solves):
    # Radau IIA reads the boundary data through problem.forcing alone: one
    # call a block of at most RADAU_START_STEPS steps, at its stage times
    prob = mhd_alfven(h=0.05)
    forcing_reads, data_reads = [], []
    forcing, data = prob.forcing, prob.boundary_data

    def counted_forcing(t):
        forcing_reads.append(np.size(t))
        return forcing(t)

    def counted_data(t):
        data_reads.append(np.size(t))
        return data(t)

    prob.forcing, prob.boundary_data = counted_forcing, counted_data
    for qoi in mhd_qois(prob):
        true_qoi(prob, MHD_GRID, qoi, NUMERIC)
    blocks = [3 * min(RADAU_START_STEPS, sol.t.size - 1 - start)
              for sol in solves for start in range(0, sol.t.size - 1, RADAU_START_STEPS)]
    assert len(solves) >= 4 and forcing_reads == blocks
    assert data_reads == forcing_reads


@pytest.fixture
def solves(monkeypatch):
    """Every solution reference.solve_ivp returns, in call order."""
    sols = []
    real = reference.solve_ivp

    def recorded(*args, **kwargs):
        sol = real(*args, **kwargs)
        sols.append(sol)
        return sol

    monkeypatch.setattr(reference, "solve_ivp", recorded)
    return sols


def test_dense_step_cap_counts_rejected_steps(solves):
    # reference_states' solve, stepping onto nodes, makes 12 calls per
    # attempt and 2 to start, as the QoI route does, and the cap bounds
    # the attempts exactly
    prob = mhd_alfven(h=0.05)
    cfg = ReferenceConfig(mode="high-order-numeric", rtol=1e-4)
    reference_states(prob, MHD_GRID.nodes, cfg)
    (sol,) = solves
    accepted = sol.t.size - 1
    attempts, rest = divmod(sol.nfev - 2, DOP853.n_stages)
    assert rest == 0 and attempts > accepted  # 85 attempts for 40 accepted
    reference_states(prob, MHD_GRID.nodes, replace(cfg, step_cap=attempts))
    with pytest.raises(ReferenceError, match=f"cap {attempts - 1}"):
        reference_states(prob, MHD_GRID.nodes, replace(cfg, step_cap=attempts - 1))


def test_dense_reference_reads_the_boundary_data_through_forcing_alone():
    # DOP853 integrates problem.rhs, so a forced problem's boundary data
    # has one reader, problem.forcing, on reference_states' route too
    prob = mhd_alfven(h=0.05)
    forcing, data = prob.forcing, prob.boundary_data
    inside, reads = False, []

    def counted_forcing(t):
        nonlocal inside
        inside = True
        try:
            return forcing(t)
        finally:
            inside = False

    def counted_data(t):
        reads.append(inside)
        return data(t)

    prob.forcing, prob.boundary_data = counted_forcing, counted_data
    states = reference_states(prob, np.linspace(0.0, 0.01, 3))
    assert states.shape == (3, prob.dim) and np.isfinite(states).all()
    assert len(reads) > 0 and all(reads)


# -- the Radau IIA route of a forced linear problem ----------------------------

TABLE14_QOI = 0.4862600621828902  # DOP853 at rtol 1e-10 and 1e-13 agree on it


def table14_ode(v_mode="v-split"):
    """Table 14's ODE and integral-v QoI on [0, 0.1]."""
    prob = mhd_alfven(v_mode=v_mode)
    return prob, qoi_integral_v(prob.metadata["interior_per_field"], prob.metadata["h"])


@pytest.mark.parametrize("v_mode", ["v-split", "v-implicit"])
def test_radau_reference_reproduces_table_14(v_mode):
    prob, qoi = table14_ode(v_mode)
    got = true_qoi(prob, TimeGrid.uniform(0.1, 100), qoi)
    assert got == pytest.approx(TABLE14_QOI, rel=2e-13, abs=0.0)


@pytest.mark.parametrize("kind", ["final-time", "time-integrated"])
def test_radau_reference_goes_through_solve_ivp(monkeypatch, solves, kind):
    prob = mhd_alfven(h=0.05)
    calls, factorisations = [], []
    real_lu = reference.lu_factor

    def counted_lu(*args, **kwargs):
        factorisations.append(args[0].shape)
        return real_lu(*args, **kwargs)

    monkeypatch.setattr(reference, "lu_factor", counted_lu)
    forcing = prob.forcing

    def counted(t):
        calls.append(t)
        return forcing(t)

    prob.forcing = counted
    qoi = {q.kind: q for q in mhd_qois(prob)}[kind]
    true_qoi(prob, MHD_GRID, qoi, NUMERIC)
    # one forcing call a block of at most RADAU_START_STEPS steps
    assert len(solves) >= 2
    assert len(calls) == sum(-(-(sol.t.size - 1) // RADAU_START_STEPS) for sol in solves)
    per_step = 3 if kind == "final-time" else 6  # stage forcing, then integrand
    for sol in solves:
        assert sol.nfev == per_step * (sol.t.size - 1) > 0
    assert len(factorisations) == len(solves)  # one LU per solve


def radau_steps(solves) -> int:
    return sum(sol.t.size - 1 for sol in solves)


def test_radau_step_cap_equal_to_the_step_count_passes(solves):
    prob = mhd_alfven(h=0.05)
    qoi = mhd_qois(prob)[0]
    want = true_qoi(prob, MHD_GRID, qoi, NUMERIC)
    steps = radau_steps(solves)
    assert true_qoi(prob, MHD_GRID, qoi, replace(NUMERIC, step_cap=steps)) == want
    with pytest.raises(ReferenceError, match=f"cap {steps - 1}"):
        true_qoi(prob, MHD_GRID, qoi, replace(NUMERIC, step_cap=steps - 1))


def test_radau_max_step_bounds_the_step(solves):
    prob = mhd_alfven(h=0.05)
    true_qoi(prob, MHD_GRID, mhd_qois(prob)[0], replace(NUMERIC, max_step=3e-4))
    assert solves[0].t.size - 1 == 334  # the fewest equal steps within 3e-4
    for sol in solves:
        assert np.diff(sol.t).max() <= 3e-4


def test_radau_doubling_stops_at_the_rtol_floor(solves):
    prob, qoi = table14_ode()
    cfg = ReferenceConfig(rtol=RTOL_FLOOR, atol=1e-16)
    got = true_qoi(prob, TimeGrid.uniform(0.1, 100), qoi, cfg)
    assert got == pytest.approx(TABLE14_QOI, rel=2e-13, abs=0.0)
    assert radau_steps(solves) <= 10_000 < cfg.step_cap


def test_radau_verify_compares_one_more_doubling_level(solves):
    # below rtol 1e-10 halved tolerances keep the same stopping rule, so
    # verify checks against the next level instead of repeating the levels
    prob = mhd_alfven(h=0.05)
    qoi = mhd_qois(prob)[0]
    plain = true_qoi(prob, MHD_GRID, qoi, NUMERIC)
    first = [sol.t.size - 1 for sol in solves]
    solves.clear()
    got = true_qoi(prob, MHD_GRID, qoi, replace(NUMERIC, verify=True))
    assert [sol.t.size - 1 for sol in solves] == first + [2 * first[-1]]
    assert got == float(solves[-1].y[:, -1] @ qoi.psi)
    assert got == pytest.approx(plain, rel=1e-12)


def test_radau_verify_rejects_a_disagreeing_finer_level(monkeypatch):
    prob = mhd_alfven(h=0.05)
    qoi = mhd_qois(prob)[0]
    levels = []
    real = reference.solve_ivp

    def shifted(*args, **kwargs):
        # every level past the 400 steps that agree moves the QoI by 1e-3 * n
        sol = real(*args, **kwargs)
        steps = sol.t.size - 1
        levels.append(steps)
        if steps > 400:
            sol.y[:, -1] += 1e-3 * steps * qoi.psi
        return sol

    monkeypatch.setattr(reference, "solve_ivp", shifted)
    # three comparisons move on to finer levels, never repeating one, and
    # ask for no level past the third
    want = [100, 200, 400, 800, 1600, 3200]
    with pytest.raises(ReferenceError, match="not converged"):
        true_qoi(prob, MHD_GRID, qoi,
                 replace(NUMERIC, verify=True, step_cap=sum(want)))
    assert levels == want


def stage_systems(jac, pattern=None, nodes=None):
    """Radau IIA's stage systems k -> I - k A (x) jac, dense, or on a
    pattern in an order of its nodes: 3 x 3 blocks of a ``BlockForm``."""
    form = BlockForm(jac.shape[0], 3, pattern, nodes)
    identity, values = form.identity(), form.values(jac)
    return lambda k: form.system(identity - k * np.multiply.outer(reference.RADAU_A, values))


def test_radau_solver_converges_at_order_five():
    # y' = -y + t, y(0) = 1 has y(1) = 2 / e; halving the step divides
    # the error by about 2^5
    system = stage_systems(np.array([[-1.0]]))
    errors = []
    for n in (4, 8):
        sol = reference.solve_ivp(radau_iia, (0.0, 1.0), np.array([1.0]), system=system,
                                  forcing=lambda times: times[:, None], rate=None,
                                  n_steps=n, start_step=lambda: None)
        assert sol.t.size == n + 1 and sol.t[-1] == 1.0
        assert sol.nfev == 3 * n
        errors.append(abs(sol.y[0, -1] - 2.0 * np.exp(-1.0)))
    assert 2.0 ** 4.5 < errors[0] / errors[1] < 2.0 ** 5.5


@pytest.mark.parametrize("h", [0.05, 1 / 200], ids=["m38", "m398"])
def test_radau_stage_system_is_a_band_on_a_sparse_operator(h):
    # each node's 3 stage unknowns together: the Alfven operator gives
    # half-widths 14 at any m, table 14's m = 398 included; the band holds
    # I - k A (x) jac to the bit, and a dense operator keeps that dense
    # system
    prob = mhd_alfven(h=h)
    jac, k = prob.f_op + prob.g_op, 1e-3
    want = np.eye(3 * prob.dim) - k * np.kron(reference.RADAU_A, jac.toarray())
    band = stage_systems(jac, prob.jac_pattern, prob.node_order)(k)
    assert isinstance(band, Band) and (band.kl, band.ku) == (14, 14)
    assert np.array_equal(band_matrix(band), want)
    dense = stage_systems(jac.toarray())(k)
    assert type(dense) is np.ndarray and np.array_equal(dense, want)


def test_radau_on_a_band_solves_as_on_the_dense_system():
    prob = mhd_alfven(h=0.05)
    jac = prob.f_op + prob.g_op

    def forcing(times):
        force_f, force_g = prob.forcing(times)
        return force_f + force_g

    band, dense = (reference.solve_ivp(radau_iia, (0.0, 0.01), prob.y0, system=system,
                                       forcing=forcing, rate=None, n_steps=20,
                                       start_step=lambda: None).y
                   for system in (stage_systems(jac, prob.jac_pattern, prob.node_order),
                                  stage_systems(jac.toarray())))
    scale = np.abs(dense).max()
    assert scale > 0.0
    assert np.abs(band - dense).max() <= 1e-13 * scale


def test_a_table_14_row_orders_its_nodes_once(monkeypatch, solves):
    # reverse Cuthill-McKee runs once per problem: the forward's Newton
    # bands, the adjoint's local bands and Radau IIA's stage band all take
    # the problem's node order; and each lays out its band once, the
    # reference once over its three doubling levels
    orderings, layouts = [], []
    rcm, layout = numerics.reverse_cuthill_mckee, numerics.band_layout
    monkeypatch.setattr(numerics, "reverse_cuthill_mckee",
                        lambda *args, **kw: orderings.append(1) or rcm(*args, **kw))
    monkeypatch.setattr(numerics, "band_layout",
                        lambda *args: layouts.append(args[0].size) or layout(*args))
    cfg = RunConfig.from_dict(table_config(14, "ssp343"))
    fwd = solve_forward(cfg.ode, cfg.pair, cfg.time_grid, cfg.newton)
    solve_adjoint(cfg.ode, build_cg(cfg.pair, fwd), cfg.qoi_spec, cfg.refine)
    true_qoi(cfg.ode, cfg.time_grid, cfg.qoi_spec, cfg.reference)
    assert [sol.t.size - 1 for sol in solves] == [100, 200, 400]
    assert len(orderings) == 1
    assert len(layouts) == 3


def test_radau_solver_frees_its_factors_with_the_last_step(monkeypatch):
    # the LU and the forcing block live through every step and die with the
    # solve, with no reference cycle left for the garbage collector, or the
    # doubling levels would keep their factors alive together
    factors, blocks, alive = [], [], []
    real_lu = reference.lu_factor

    def recorded_lu(*args, **kwargs):
        solve = real_lu(*args, **kwargs)
        factors.append(weakref.ref(solve))
        return solve

    def forcing(times):
        rows = np.zeros((times.size, 1))
        blocks.append(weakref.ref(rows))
        return rows

    def start_step():
        alive.append(factors[0]() is not None
                     and all(block() is not None for block in blocks))

    monkeypatch.setattr(reference, "lu_factor", recorded_lu)
    gc.disable()
    try:
        sol = reference.solve_ivp(radau_iia, (0.0, 1.0), np.array([1.0]),
                                  system=stage_systems(np.array([[-1.0]])),
                                  forcing=forcing, rate=None, n_steps=2,
                                  start_step=start_step)
        assert alive == [True, True] and len(blocks) == 1
        assert factors[0]() is None and blocks[0]() is None
    finally:
        gc.enable()
    assert sol.t.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("kind", ["final-time", "time-integrated"])
def test_radau_reads_the_forcing_per_block_of_steps(monkeypatch, kind):
    # 250 steps are three blocks: two of RADAU_START_STEPS steps and one of
    # 50, each read in one call, and the rows are the stage forcing
    # fun(t, 0)[:m] that one step at a time would read, to the bit
    prob = mhd_alfven(h=0.05)
    qoi = {q.kind: q for q in mhd_qois(prob)}[kind]
    reads, sols = [], []

    real = reference.solve_ivp

    def recorded(*args, forcing, **kwargs):
        def read(times):
            rows = forcing(times)
            reads.append((times.copy(), rows))
            return rows

        sols.append(real(*args, forcing=read, **kwargs))
        return sols[-1]

    monkeypatch.setattr(reference, "solve_ivp", recorded)
    true_qoi(prob, MHD_GRID, qoi, replace(NUMERIC, max_step=MHD_GRID.t_end / 249.5))
    sol, n = sols[0], 250
    assert sol.t.size - 1 == n
    assert sol.nfev == (3 if kind == "final-time" else 6) * n
    block = reads[:3]
    assert [times.size for times, _ in block] == [3 * RADAU_START_STEPS] * 2 + [150]
    k = MHD_GRID.t_end / n
    want = np.concatenate([t + RADAU_C * k for t in sol.t[:-1]])
    got = np.concatenate([times for times, _ in block])
    assert np.array_equal(got, want)
    zero = np.zeros(prob.dim)
    assert np.array_equal(np.concatenate([rows for _, rows in block]),
                          np.stack([prob.rhs(zero, t) for t in want]))


# -- the DOP853 loop against scipy.integrate's ----------------------------------

def bits(a) -> np.ndarray:
    """The float64 bits of a, for comparisons that tell -0.0 from 0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name, ours", [
    ("A", reference.DOP853_A[:12]),
    ("B", reference.DOP853_B),
    ("C", reference.DOP853_C),
    ("E3", reference.DOP853_E3),
    ("E5", reference.DOP853_E5),
])
def test_dop853_tables_are_scipys_to_the_bit(name, ours):
    theirs = getattr(DOP853, name)
    assert ours.shape == theirs.shape
    assert np.array_equal(bits(ours), bits(theirs))


def scipy_solve(fun, t_span, z0, rtol, atol, max_step, **_):
    return solve_ivp(fun, t_span, z0, method="DOP853", rtol=rtol, atol=atol,
                     max_step=max_step)


def assert_same_solve(ours, theirs):
    assert ours.nfev == theirs.nfev
    assert np.array_equal(bits(ours.t), bits(theirs.t))
    assert np.array_equal(bits(ours.y), bits(theirs.y))


@pytest.mark.parametrize("table, nfev, steps", [(10, 782, 48), (11, 1646, 98)])
def test_dop853_reproduces_scipy_on_the_burgers_references(monkeypatch, table,
                                                           nfev, steps):
    calls = []
    real = reference.solve_ivp

    def recorded(method, t_span, z0, **options):
        calls.append((method, t_span, z0, options, real(method, t_span, z0, **options)))
        return calls[-1][-1]

    monkeypatch.setattr(reference, "solve_ivp", recorded)
    cfg = RunConfig.from_dict(table_config(table, "mid122"))
    true_qoi(cfg.ode, cfg.time_grid, cfg.qoi_spec, cfg.reference)
    ((method, t_span, z0, options, ours),) = calls
    assert method is dop853 and len(t_span) == 2
    assert (ours.nfev, ours.t.size - 1) == (nfev, steps)  # with scipy 1.17
    assert_same_solve(ours, scipy_solve(options.pop("fun"), t_span, z0, **options))


def test_dop853_steps_onto_every_node_of_the_alfven_converge_reference(solves):
    # the reference states `imexest converge` reads on the Alfven wave: the
    # steps before the first inner node are scipy's, every node is a step's
    # end, and the states there are the solve's
    prob = mhd_alfven(h=0.05)
    cfg = ReferenceConfig()
    nodes = TimeGrid.uniform(0.01, 40).nodes
    states = reference_states(prob, nodes, cfg)
    (ours,) = solves
    theirs = scipy_solve(lambda t, y: prob.rhs(y, t), (0.0, 0.01), prob.y0, cfg.rtol,
                         cfg.atol, cfg.max_step)
    before = theirs.t[theirs.t < nodes[1]]
    assert before.size > 3
    assert np.array_equal(bits(ours.t[:before.size]), bits(before))
    assert np.array_equal(bits(ours.y[:, :before.size]), bits(theirs.y[:, :before.size]))
    at = np.searchsorted(ours.t, nodes)
    assert np.array_equal(bits(ours.t[at]), bits(nodes))
    assert np.array_equal(bits(states), bits(ours.y[:, at].T))


def test_node_stepping_reference_of_burgers_is_within_its_tolerances():
    # table 10's Burgers problem at the 161 nodes of a 4-level converge
    # sweep from k = 0.05, at the default rtol of 1e-10: DOP853's dense
    # output, outside its error control, is off by 6.5e-8 there
    prob = burgers(0.05, 0.025)
    nodes = TimeGrid.uniform(1.0, 160).nodes
    want = solve_ivp(lambda t, y: prob.rhs(y, t), (0.0, 1.0), prob.y0, method="DOP853",
                     rtol=1e-13, atol=1e-15, t_eval=nodes).y.T
    assert np.abs(reference_states(prob, nodes) - want).max() <= 1e-9


def test_dop853_fails_where_scipy_does_at_a_blow_up():
    # z' = z^2, z(0) = 1 blows up at t = 1: the step falls below ten float
    # spacings after the same calls as scipy's
    calls = 0

    def fun(t, z):
        nonlocal calls
        calls += 1
        return z ** 2

    theirs = scipy_solve(fun, (0.0, 2.0), np.array([1.0]), 1e-10, 1e-12, np.inf)
    assert theirs.status == -1 and 1.0 < theirs.t[-1] < 1.0 + 1e-10
    calls = 0
    with pytest.raises(ReferenceError, match="reference integration failed: "
                                             "Required step size is less than "
                                             "spacing between numbers"):
        reference._dop853(fun, (0.0, 2.0), np.array([1.0]), 1e-10, 1e-12, NUMERIC)
    assert calls == theirs.nfev  # 6,410 with scipy 1.17


@pytest.mark.parametrize("max_step", [0.03, 0.3])
def test_dop853_reproduces_scipy_under_a_max_step(max_step):
    # a time-integrated QoI's augmented system, stepped within max_step
    prob = split_scalar_linear(-0.4, -0.6, 1.0)

    def fun(t, z):
        return np.append(prob.rhs(z[:-1], t), z[0] * np.cos(t))

    z0 = np.append(prob.y0, 0.0)
    cfg = replace(NUMERIC, max_step=max_step)
    ours = reference._dop853(fun, (0.0, 1.0), z0, cfg.rtol, cfg.atol, cfg)
    assert_same_solve(ours, scipy_solve(fun, (0.0, 1.0), z0, cfg.rtol, cfg.atol,
                                        max_step))
