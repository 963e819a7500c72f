"""Tests for the backward Galerkin adjoint solve."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from imexest import adjoint, numerics, solver
from imexest.adjoint import (
    DEFAULT_REFINE,
    AdjointSolveError,
    refine_grid,
    solve_adjoint,
)
from imexest.numerics import GAUSS_NODES, GAUSS_WEIGHTS, Band, legendre_shifted
from imexest.problems import (
    QoiSpec,
    SplitOdeProblem,
    _stencil,
    as_dense,
    burgers,
    linear_advection_diffusion,
    mhd_alfven,
    qoi_integral_v,
    split_linear_system,
    split_scalar_linear,
)
from imexest.reconstruct import build_cg, sub_gauss_nodes
from imexest.solver import TimeGrid, solve_forward
from imexest.tableaus import builtin
from oracles import (adjoint_per_interval, band_matrix, burgers_jacobian, dense_form,
                     dense_jacobian, evaluate, without_operators, working_memory)


def reconstruct_case(problem, name="mid122", t_end=1.0, n=40, t_start=0.0):
    pair = builtin(name)
    grid = TimeGrid(np.linspace(t_start, t_end, n + 1))
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


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_refine_grid_splits_each_interval_as_linspace_does(factor):
    # on a graded grid, the refined nodes are each interval's linspace
    # without its right end, to the bit, and then the last node
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(1.3 ** np.arange(7) / 10.0)]))
    want = np.concatenate(
        [np.linspace(a, b, factor + 1)[:-1] for a, b in zip(grid.nodes, grid.nodes[1:])]
        + [grid.nodes[-1:]])
    assert np.array_equal(refine_grid(grid, factor).nodes, want)


def _never(*_args):
    raise AssertionError("an operator half needs neither a Jacobian nor the state")


def test_linearized_operator_constant_for_linear_problems():
    # H is the constant f_op + g_op: the halves state no Jacobian, and the
    # sweep never reads the reconstruction, on uniform and non-uniform grids
    f_mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    g_mat = np.array([[-2.0, 0.0], [0.0, -2.0]])
    prob = split_linear_system(f_mat, g_mat, [1.0, 0.0])
    assert np.array_equal(as_dense(prob.f_op + prob.g_op), f_mat + g_mat)
    assert prob.jac_f is None and prob.jac_g is None
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0, 0.5]))
    pair = builtin("ssp332")
    for grid in (TimeGrid.uniform(1.0, 10), TimeGrid([0.0, 0.1, 0.35, 0.5, 1.0])):
        recon = build_cg(pair, solve_forward(prob, pair, grid))
        want = solve_adjoint(prob, recon, qoi).poly.coeffs
        recon.at = _never
        assert np.array_equal(solve_adjoint(prob, recon, qoi).poly.coeffs, want)


def test_burgers_adjoint_reads_its_diffusion_operator_not_jac_g():
    # the linear g half enters H through g_op, read once per solve; a
    # Jacobian handed to that half is never called
    prob = burgers(0.05, 1.0 / 10.0)
    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=10)
    qoi = QoiSpec(kind="final-time", psi=prob.y0)
    want = solve_adjoint(prob, recon, qoi).poly.coeffs
    bare = dataclasses.replace(prob, jac_g=_never)
    assert np.array_equal(solve_adjoint(bare, recon, qoi).poly.coeffs, want)


def test_linearized_operator_tracks_the_reconstruction():
    # H's Jacobian is stated in one call per solve, on the reconstruction at
    # the Gauss points of every refined interval, in time order
    prob = burgers(0.05, 1.0 / 10.0)
    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=10)
    for refine in (1, 3):
        seen = []
        spy = dataclasses.replace(
            prob, jac_f=lambda ys: seen.append(ys.copy()) or prob.jac_f(ys))
        solve_adjoint(spy, recon, QoiSpec(kind="final-time", psi=prob.y0),
                      refine=refine)
        want = recon.at(sub_gauss_nodes(refine)).reshape(-1, prob.dim)
        assert len(seen) == 1 and np.array_equal(seen[0], want)
        # which is the reconstruction at each refined interval's Gauss times
        fine = refine_grid(recon.grid, refine)
        times = (fine.nodes[:-1, None] + fine.steps[:, None] * GAUSS_NODES).ravel()
        assert len(want) == len(times) == fine.n_intervals * GAUSS_NODES.size
        for y, t in zip(want, times):
            np.testing.assert_allclose(y, evaluate(recon, t), rtol=0, atol=1e-14)


def test_operator_at_zero_state_is_diffusion_only():
    prob = burgers(0.05, 1.0 / 10.0)
    np.testing.assert_allclose(prob.jac_f(np.zeros((1, prob.dim))), 0.0, atol=1e-14)
    assert prob.jac_g is None and prob.g_op is not None


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
        np.testing.assert_allclose(evaluate(adj.poly, t), psi, atol=1e-13)


def test_scalar_adjoint_matches_exponential():
    # -phi' = lam phi, phi(T) = psi has phi(t) = exp(lam (T - t)) psi
    lam = -1.0
    prob = split_scalar_linear(0.0, lam, 1.0)
    recon = reconstruct_case(prob, n=40)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.array([1.0])))
    for t in recon.grid.nodes:
        want = np.exp(lam * (1.0 - t))
        assert evaluate(adj.poly, t)[0] == pytest.approx(want, rel=1e-6)


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
        assert evaluate(adj.poly, t)[0] == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("build, factorisations", [
    (lambda: split_linear_system([[0.0, 1.0], [-1.0, 0.0]], -np.eye(2), [1.0, 0.0]),
     lambda n_int: 1),
    (lambda: burgers(0.05, 0.1), lambda n_int: n_int)],
    ids=["dense-constant", "per-interval"])
def test_time_integrated_load_reads_psi_tilde_once_per_gauss_time(
        build, factorisations, monkeypatch):
    # both sweeps take one load, read at every refined Gauss time once
    prob = build()
    seen, times = [], []
    monkeypatch.setattr(adjoint, "lu_factor", recording(adjoint.lu_factor, seen))
    density = np.linspace(1.0, -1.0, prob.dim)

    def psi_tilde(t):
        times.append(t)
        return density * np.cos(3.0 * t) + t

    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=5)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="time-integrated", psi_tilde=psi_tilde))
    grid = adj.poly.grid
    assert len(seen) == factorisations(grid.n_intervals) > 0
    want = grid.nodes[:-1, None] + grid.steps[:, None] * GAUSS_NODES
    assert len(times) == grid.n_intervals * GAUSS_NODES.size
    assert np.array_equal(times, want.ravel())


def test_adjoint_galerkin_residual_per_interval():
    # <-phi' - H^T phi, v> vanishes on each adjoint interval for every
    # test polynomial
    prob = burgers(0.05, 1.0 / 10.0)
    recon = reconstruct_case(prob, "ssp332", t_end=0.5, n=10)
    psi = np.zeros(prob.dim)
    psi[: prob.dim // 2 + 1] = 1.0
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))

    grid = adj.poly.grid
    _taus, _wts, read = adj.poly.gauss_table(1)
    vals, derivs = read(slice(None))
    tests = legendre_shifted(recon.degree, GAUSS_NODES)
    scale = 1.0 + adj.max_abs()
    for n in range(grid.n_intervals):
        k_n = grid.steps[n]
        t_gauss = grid.nodes[n] + k_n * GAUSS_NODES
        ys = [evaluate(recon, t) for t in t_gauss]
        hp = np.stack([(dense_jacobian(prob, "f", y) + dense_jacobian(prob, "g", y)).T
                       @ vals[n, j] for j, y in enumerate(ys)])
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
    rhs = float(np.dot(prob.y0, evaluate(adj.poly, 0.0)))
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
            evaluate(tail.poly, t), evaluate(full.poly, t), atol=1e-12
        )


def test_adjoint_failure_reports_interval():
    # a NaN Jacobian at every state fails on the interval the backward
    # sweep reaches first
    prob = SplitOdeProblem(
        name="nan-jacobian",
        eval_f=lambda y: np.zeros(1),
        eval_g=lambda y: -y,
        jac_f=lambda ys: np.full(ys.shape, np.nan),
        jac_g=lambda ys: -np.ones_like(ys),
        y0=np.array([1.0]),
    )
    pair = builtin("mid122")
    fwd = solve_forward(
        split_scalar_linear(0.0, -1.0, 1.0), pair, TimeGrid.uniform(1.0, 4)
    )
    recon = build_cg(pair, fwd)
    with pytest.raises(AdjointSolveError, match="adjoint solve failed") as info:
        solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(1)))
    assert info.value.interval == 4 * DEFAULT_REFINE - 1


def test_adjoint_failure_on_a_constant_nan_operator():
    # a dense linear problem applies its one solve before the sweep; the
    # NaN surfaces at the interval the backward sweep reaches first
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
def test_sparse_sweep_failure_reports_the_interval_it_reaches_first():
    # the Alfven problem's CSR operator is factored once and swept interval
    # by interval: a NaN in the operator fails on the first interval, and a
    # density that is NaN before t = 0.002 on the last interval it reaches
    prob = mhd_alfven(h=0.05)
    recon = reconstruct_case(prob, "ssp332", t_end=0.004, n=4)
    psi = oracle_qois(prob)[0].psi
    nan_op = prob.f_op.copy()
    nan_op.data[0] = np.nan
    with pytest.raises(AdjointSolveError, match="adjoint solve failed") as info:
        solve_adjoint(dataclasses.replace(prob, f_op=nan_op), recon,
                      QoiSpec(kind="final-time", psi=psi))
    assert info.value.interval == 4 * DEFAULT_REFINE - 1
    qoi = QoiSpec(kind="time-integrated",
                  psi_tilde=lambda t: psi * (np.nan if t < 0.002 else 1.0))
    with pytest.raises(AdjointSolveError, match="non-finite adjoint values") as info:
        solve_adjoint(prob, recon, qoi)
    assert info.value.interval == 2 * DEFAULT_REFINE - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("prob", [split_scalar_linear(-0.4, -0.6, 1.0),
                                  burgers(0.05, 0.1), mhd_alfven(h=0.05)],
                         ids=["dense-constant", "per-interval", "sparse-sweep"])
def test_zero_pivot_is_reported_once_without_a_warning(prob, monkeypatch):
    # LAPACK's getrf and gbtrf report the zero pivot; the solve reports it
    # as an error naming the interval the backward sweep factors first
    recon = reconstruct_case(prob, n=4)
    lu_factor = adjoint.lu_factor
    # the system with every entry zero, dense or a band like the system
    monkeypatch.setattr(adjoint, "lu_factor",
                        lambda a, **kw: lu_factor(zeroed(a), **kw))
    psi = np.ones(prob.dim)
    with pytest.raises(AdjointSolveError, match="singular local system") as info:
        solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi))
    assert info.value.interval == 4 * DEFAULT_REFINE - 1


@pytest.mark.filterwarnings("error")
def test_a_fault_swept_before_a_singular_system_is_reported_first(monkeypatch):
    # the density is NaN on the last intervals, which the sweep reaches
    # before interval 6, the tenth system it factors, here zeroed
    prob = burgers(0.05, 0.1)
    recon = reconstruct_case(prob, n=4)
    lu_factor, factored = adjoint.lu_factor, []

    def tenth_zeroed(a, **kw):
        factored.append(route(a))
        return lu_factor(zeroed(a) if len(factored) == 10 else a, **kw)

    monkeypatch.setattr(adjoint, "lu_factor", tenth_zeroed)
    psi = np.ones(prob.dim)
    nan_late = QoiSpec(kind="time-integrated",
                       psi_tilde=lambda t: psi * (np.nan if t > 0.9 else 1.0))
    with pytest.raises(AdjointSolveError, match="non-finite adjoint values") as info:
        solve_adjoint(prob, recon, nan_late)
    assert info.value.interval == 4 * DEFAULT_REFINE - 1
    assert factored == ["band"] * 10
    # with every swept value finite the singular system is the fault
    factored.clear()
    finite = QoiSpec(kind="time-integrated", psi_tilde=lambda t: psi)
    with pytest.raises(AdjointSolveError, match="singular local system") as info:
        solve_adjoint(prob, recon, finite)
    assert info.value.interval == 6


def zeroed(a):
    """The system a with every entry zero, in a's own form."""
    return a._replace(ab=a.ab * 0.0) if isinstance(a, Band) else a * 0.0


def route(a) -> str:
    """The route lu_factor takes for the system a."""
    return "band" if isinstance(a, Band) else "dense"


def recording(lu_factor, seen):
    """lu_factor, appending to seen the route of each system it factors."""
    def wrapper(a, **kw):
        seen.append(route(a))
        return lu_factor(a, **kw)
    return wrapper


@pytest.mark.parametrize("build, forward_route, adjoint_route", [
    (lambda: mhd_alfven(h=0.05), "band", "band"),
    (lambda: linear_advection_diffusion(0.1, 1.0 / 20.0), "dense", "dense"),
    (lambda: burgers(0.05, 0.1), "band", "band")], ids=["mhd", "advdiff", "burgers"])
def test_operator_structure_picks_the_factorisation_route(
        build, forward_route, adjoint_route, monkeypatch):
    # a CSR operator's Newton matrices and adjoint systems are bands on
    # the pattern of its operators, and a dense operator is factored
    # dense; Burgers' both follow the Jacobian pattern it states, as bands
    routes = {solver: [], adjoint: []}
    for module, seen in routes.items():
        monkeypatch.setattr(module, "lu_factor", recording(module.lu_factor, seen))
    prob = build()
    recon = reconstruct_case(prob, t_end=0.2, n=4)
    solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(prob.dim)))
    for module, want in ((solver, forward_route), (adjoint, adjoint_route)):
        assert routes[module] and set(routes[module]) == {want}


@pytest.mark.parametrize("scheme", ["mid122", "ssp332", "ssp343"])
def test_jacobian_pattern_matches_the_dense_systems(scheme):
    # Burgers' adjoint systems on its stated Jacobian pattern, and the same
    # problem stating the oracle's dense Jacobian on the full pattern, give
    # the same adjoint
    prob = burgers(0.05, 0.1)
    d1 = _stencil(prob.dim, 0.1, 1, periodic=True)
    dense = dataclasses.replace(
        prob, jac_pattern=None,
        jac_f=lambda ys: np.stack([burgers_jacobian(d1, y).ravel() for y in ys]))
    assert dense.jac_pattern.nnz == prob.dim ** 2
    recon = reconstruct_case(prob, scheme, t_end=0.5, n=10)
    for qoi in oracle_qois(prob):
        got, want = (solve_adjoint(p, recon, qoi).poly.coeffs for p in (prob, dense))
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_each_interval_factors_its_own_band(monkeypatch):
    # every interval's band is its own storage, in the one ordering of the
    # solve, though bands may be rows of one block array: no two overlap,
    # and each band's solve still solves its system, densely read when it
    # was factored, and equals that of a band built from a copy, after
    # later intervals have built and factored theirs
    prob = burgers(0.05, 0.025)
    recon = reconstruct_case(prob, "ssp332", n=4)
    lu_factor = adjoint.lu_factor
    rng = np.random.default_rng(6)
    systems, checks = [], []

    def spy(a, **kw):
        mat = band_matrix(a)
        fresh = a._replace(ab=a.ab.copy(order="F"))
        solve, b = lu_factor(a, **kw), rng.standard_normal(a.shape[0])
        systems.append(a)
        checks.append((solve, b, mat, lu_factor(fresh, **kw)(b)))
        return solve

    monkeypatch.setattr(adjoint, "lu_factor", spy)
    solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(prob.dim)))
    assert len(checks) == 4 * DEFAULT_REFINE
    # 16 intervals of r = 3 at m = 80 take more than one block
    assert len({id(a.ab.base) for a in systems}) < len(systems)
    for i, a in enumerate(systems):
        assert not any(np.shares_memory(a.ab, b.ab) for b in systems[i + 1:])
    assert all(a.order is systems[0].order for a in systems)
    for solve, b, mat, want in checks:
        x = solve(b)
        assert np.array_equal(x, want)
        np.testing.assert_allclose(mat @ x, b, rtol=0.0, atol=1e-12 * np.abs(b).max())


@pytest.mark.parametrize("scheme", ["mid122", "ssp343"], ids=["r2", "r3"])
def test_block_sweep_matches_the_per_interval_sweep(scheme):
    # Burgers' systems formed a block of intervals at a time give the
    # adjoint the interval-by-interval sweep gives, to the bit; 28 refined
    # intervals fill neither r = 2's blocks of 12 nor r = 3's of 5 at m = 80
    prob = burgers(0.05, 0.025)
    recon = reconstruct_case(prob, scheme, t_end=0.07, n=7)
    for qoi in oracle_qois(prob):
        got = solve_adjoint(prob, recon, qoi).poly.coeffs
        want = adjoint_per_interval(prob, recon, qoi, DEFAULT_REFINE)
        assert np.abs(want).max() > 0.0
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", ["mid122", "ssp343"], ids=["r2", "r3"])
def test_jacobian_read_a_block_at_a_time_is_the_same_at_any_block_size(
        scheme, monkeypatch):
    # H is read at the Gauss points of one block of refined intervals at a
    # time, one jac call a block: 1 interval a block, 7 (so a block starts
    # inside a forward interval) and the whole grid give the same adjoint,
    # to the bit
    prob = burgers(0.05, 0.025)
    recon = reconstruct_case(prob, scheme, t_end=0.07, n=7)
    r, n_int = recon.degree + 1, 7 * DEFAULT_REFINE
    form = numerics.BlockForm(prob.dim, r, prob.jac_pattern, prob.node_order)
    # the floats of one interval's largest block array
    floats = max(r * prob.dim * form.height, r * (r + 1) * form.rows.size + 1)
    jac_f, rows = prob.jac_f, []

    def counted(states):
        rows.append(len(states))
        return jac_f(states)

    prob = dataclasses.replace(prob, jac_f=counted)
    for qoi in oracle_qois(prob):
        coeffs = []
        for intervals in (1, 7, n_int):
            monkeypatch.setattr(numerics, "BLOCK_FLOATS", intervals * floats)
            rows.clear()
            coeffs.append(solve_adjoint(prob, recon, qoi).poly.coeffs)
            # the last block first
            want = [n_int % intervals or intervals] + [intervals] * (
                -(-n_int // intervals) - 1)
            assert rows == [GAUSS_NODES.size * size for size in want]
        assert np.abs(coeffs[0]).max() > 0.0
        assert all(np.array_equal(c, coeffs[0]) for c in coeffs[1:])


def test_varying_jacobian_working_memory_does_not_grow_with_the_grid():
    # the Jacobian is read a block of refined intervals at a time, so the
    # traced peak less the returned solution stays about 0.9 MB at 25 and
    # 400 intervals; reading it at every Gauss point of the grid before the
    # sweep took 3.0 and 35.1 MB
    prob = burgers(0.05, 0.025)
    qoi = QoiSpec(kind="final-time", psi=np.ones(prob.dim))
    for scheme in ("ssp332", "ssp343"):
        work = working_memory(
            lambda t_end, n: reconstruct_case(prob, scheme, t_end=t_end, n=n),
            lambda recon: solve_adjoint(prob, recon, qoi),
            lambda adj: adj.poly.coeffs.nbytes + adj.poly.grid.nodes.nbytes)
        assert max(work) < 2 ** 20, (scheme, work)


@pytest.mark.filterwarnings("error")
def test_a_singular_system_inside_a_block_names_its_interval(monkeypatch):
    # 28 refined mid122 intervals at m = 80 sweep as blocks 24-27, 12-23
    # and 0-11; the tenth band factored, interval 18, is zeroed
    prob = burgers(0.05, 0.025)
    recon = reconstruct_case(prob, t_end=0.07, n=7)
    lu_factor, factored = adjoint.lu_factor, []

    def tenth_zeroed(a, **kw):
        factored.append(route(a))
        return lu_factor(zeroed(a) if len(factored) == 10 else a, **kw)

    monkeypatch.setattr(adjoint, "lu_factor", tenth_zeroed)
    with pytest.raises(AdjointSolveError,
                       match="^adjoint solve failed on interval 18: singular local system$"
                       ) as info:
        solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(prob.dim)))
    assert info.value.interval == 18
    assert factored == ["band"] * 10


@pytest.mark.parametrize("scheme", ["mid122", "ssp332", "ssp343"])
def test_sparse_operators_match_their_dense_form(scheme):
    # the Alfven problem's CSR operators, and the same problem rebuilt
    # from dense copies of them, give the same adjoint: one sparse local
    # system solved per interval, and one dense one whose solve of its
    # known matrix and loads comes before the sweep
    prob = mhd_alfven(h=0.05)
    dense = dense_form(prob)
    assert sparse.issparse(prob.f_op + prob.g_op)
    assert not sparse.issparse(dense.f_op + dense.g_op)
    recons = [reconstruct_case(p, scheme, t_end=0.1, n=8) for p in (prob, dense)]
    for qoi in oracle_qois(prob):
        got, want = (solve_adjoint(p, recon, qoi).poly.coeffs
                     for p, recon in zip((prob, dense), recons))
        scale = np.abs(want).max()
        assert scale > 0.0
        assert np.abs(got - want).max() <= 1e-13 * scale


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


def assert_presolved_matches_the_sweep(prob, presolved, swept, sweep_factors,
                                       scheme, monkeypatch):
    """The presolved form's adjoint, one dense factorisation, equals the
    swept form's, factored sweep_factors times, for both QoI kinds."""
    recon = reconstruct_case(prob, scheme, t_end=0.1, n=8)
    seen = []
    monkeypatch.setattr(adjoint, "lu_factor", recording(adjoint.lu_factor, seen))
    for qoi in oracle_qois(prob):
        seen.clear()
        before = solve_adjoint(presolved(prob), recon, qoi)
        assert seen == ["dense"]
        seen.clear()
        sweep = solve_adjoint(swept(prob), recon, qoi)
        assert len(seen) == sweep_factors
        assert before.poly.coeffs.shape == sweep.poly.coeffs.shape
        scale = sweep.max_abs()
        assert scale > 0.0
        assert np.abs(before.poly.coeffs - sweep.poly.coeffs).max() <= 1e-13 * scale


@pytest.mark.parametrize("scheme", ["mid122", "ssp343"], ids=["mhd-r2", "mhd-r3"])
def test_dense_form_solved_before_the_sweep_matches_the_factored_sweep(
        scheme, monkeypatch):
    # the Alfven problem sweeps its CSR operator, factored once; its dense
    # form applies its one solve before the sweep
    assert_presolved_matches_the_sweep(mhd_alfven(h=0.05), dense_form, lambda p: p,
                                       1, scheme, monkeypatch)


@pytest.mark.parametrize("scheme", ["mid122", "ssp343"],
                         ids=["random-linear-r2", "random-linear-r3"])
def test_propagator_matches_the_per_interval_sweep(scheme, monkeypatch):
    # the constant operator's one solve gives the propagator before the
    # sweep; without its operators, the same constant Jacobian is factored
    # and solved interval by interval
    assert_presolved_matches_the_sweep(random_linear_system(), lambda p: p,
                                       without_operators, 8 * DEFAULT_REFINE,
                                       scheme, monkeypatch)


def test_sparse_sweep_working_memory_does_not_grow_with_the_grid(monkeypatch):
    # a constant operator is factored once per solve, and the sweep keeps
    # one interval's values besides the returned solution, in a sparse form
    # and in a dense one: the dense form's separate propagator recurrence,
    # with its (N, r, m) zero loads and batched interior products, grew the
    # traced peak by 1.93 MB from 25 to 400 intervals on advection-diffusion
    seen = []
    monkeypatch.setattr(adjoint, "lu_factor", recording(adjoint.lu_factor, seen))
    for prob, scheme, want in ((mhd_alfven(h=0.05), "ssp332", ["band"]),
                               (linear_advection_diffusion(0.1, 1.0 / 40.0),
                                "ssp343", ["dense"])):
        qoi = oracle_qois(prob)[0]
        seen.clear()
        work = working_memory(
            lambda t_end, n: reconstruct_case(prob, scheme, t_end=t_end, n=n),
            lambda recon: solve_adjoint(prob, recon, qoi),
            lambda adj: adj.poly.coeffs.nbytes + adj.poly.grid.nodes.nbytes)
        assert seen == want * 2  # one solve per grid size
        assert work[1] - work[0] < 2 ** 16, (prob.name, work)


def test_time_integrated_load_is_read_a_block_of_intervals_at_a_time():
    # psi_tilde is read and projected a block of intervals at a time, so
    # the traced peak, less the returned solution and the (N, r, m) load,
    # stays one block's reads: 218 KB at 400 intervals here, where reading
    # every Gauss time of the grid before projecting took 4,621 KB
    prob = mhd_alfven(h=0.05)
    psi = oracle_qois(prob)[0].psi
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: psi * np.cos(3.0 * t) + t)
    # the (N, r, m) load has the size of the coefficients' first r nodes
    work = working_memory(
        lambda t_end, n: reconstruct_case(prob, "ssp332", t_end=t_end, n=n),
        lambda recon: solve_adjoint(prob, recon, qoi),
        lambda adj: (adj.poly.coeffs.nbytes + adj.poly.grid.nodes.nbytes
                     + adj.poly.coeffs[:, 1:].nbytes))
    assert max(work) < 2 ** 19, work


@pytest.mark.parametrize("build", [lambda: mhd_alfven(h=0.05),
                                   lambda: burgers(0.05, 0.1)], ids=["mhd", "burgers"])
def test_time_integrated_load_is_the_same_at_any_block_size(build, monkeypatch):
    # one interval a block, 7 (which does not divide the 40 refined
    # intervals) and the whole grid give the same adjoint, to the bit
    prob = build()
    psi = oracle_qois(prob)[0].psi
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: psi * np.cos(3.0 * t) + t)
    recon = reconstruct_case(prob, "ssp343", t_end=0.01, n=10)
    slab = GAUSS_NODES.size * prob.dim  # psi_tilde values of one interval
    coeffs = []
    for intervals in (1, 7, 10 * DEFAULT_REFINE):
        monkeypatch.setattr(numerics, "BLOCK_FLOATS", intervals * slab)
        coeffs.append(solve_adjoint(prob, recon, qoi).poly.coeffs)
    assert all(np.array_equal(c, coeffs[0]) for c in coeffs[1:])


def test_refined_adjoint_grid_nests_forward_grid():
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    recon = reconstruct_case(prob, n=10)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=np.ones(1)))
    assert adj.poly.grid.n_intervals == 10 * DEFAULT_REFINE
    # every forward node is a node of the refined grid, kept exactly
    assert np.array_equal(adj.poly.grid.nodes[::DEFAULT_REFINE], recon.grid.nodes)
