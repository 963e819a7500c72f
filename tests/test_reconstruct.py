"""Tests for the continuous reconstruction and the stage quadratures."""

from dataclasses import replace

import numpy as np
import pytest

from imexest.problems import (
    SplitOdeProblem,
    burgers,
    linear_advection_diffusion,
    split_scalar_bernoulli,
    split_scalar_linear,
)
from imexest.reconstruct import PiecewisePolynomial, build_cg
from imexest.solver import TimeGrid, solve_forward
from imexest.tableaus import builtin
from oracles import evaluate, stage_times


def quad_f(forward, pair, n, weight_fn=None):
    """k_n * sum_i w_i f(stage_i) weight_fn(t_i): the explicit-half quadrature."""
    return _stage_quadrature(forward, pair, pair.explicit.weights,
                             forward.stages[n].f_vals, n, weight_fn)


def quad_g(forward, pair, n, weight_fn=None):
    """k_n * sum_i wtilde_i g(stage_i) weight_fn(t_i): the implicit-half quadrature."""
    return _stage_quadrature(forward, pair, pair.implicit.weights,
                             forward.stages[n].g_vals, n, weight_fn)


def _stage_quadrature(forward, pair, w, vals, n, weight_fn):
    k_n = forward.grid.steps[n]
    if weight_fn is None:
        return k_n * (w @ vals)
    wt = np.array([weight_fn(t) for t in stage_times(forward.grid, pair)[n]])
    return k_n * ((w * wt) @ vals)


def forward_case(name, problem, t_end=0.5, n=10):
    pair = builtin(name)
    fwd = solve_forward(problem, pair, TimeGrid.uniform(t_end, n))
    return pair, fwd


def test_linear_reconstruction_midpoint_average():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    pair, fwd = forward_case("mid122", prob)
    recon = build_cg(pair, fwd)
    grid = fwd.grid
    for n in range(grid.n_intervals):
        t_half = 0.5 * (grid.nodes[n] + grid.nodes[n + 1])
        want = 0.5 * (fwd.nodal[n] + fwd.nodal[n + 1])
        np.testing.assert_allclose(evaluate(recon, t_half), want, atol=1e-14)


def test_nodal_equivalence_all_schemes():
    # the reconstruction interpolates the stepper values at every node
    cases = [
        ("mid122", 1, linear_advection_diffusion(0.1, 1.0 / 20.0)),
        ("ssp332", 1, burgers(0.05, 1.0 / 20.0)),
        ("ssp343", 2, burgers(0.05, 1.0 / 20.0)),
    ]
    for name, q, prob in cases:
        pair, fwd = forward_case(name, prob)
        recon = build_cg(pair, fwd)
        assert recon.degree == q
        for n, t in enumerate(fwd.grid.nodes):
            defect = np.abs(evaluate(recon, t) - fwd.nodal[n]).max()
            bound = 1e-11 * (1.0 + np.abs(fwd.nodal[n]).max())
            assert defect <= bound, (name, n)


def test_reconstruction_is_continuous():
    prob = burgers(0.05, 1.0 / 20.0)
    pair, fwd = forward_case("ssp343", prob)
    recon = build_cg(pair, fwd)
    assert recon.continuity_defect() < 1e-12


def test_quadratic_reconstruction_satisfies_variational_equations():
    # residual of <Ydot, v> = <f, v>_Qf + <g, v>_Qg for v = 1 and v = t
    prob = burgers(0.05, 1.0 / 20.0)
    pair, fwd = forward_case("ssp343", prob)
    recon = build_cg(pair, fwd)
    taus, wts, _vals, derivs = recon.gauss_table(1)

    grid = fwd.grid
    for n in range(grid.n_intervals):
        t_n, k_n = grid.nodes[n], grid.steps[n]
        for v in (lambda t: 1.0, lambda t: t):
            dvals = derivs[n]
            vvals = np.array([v(t_n + k_n * tau) for tau in taus])
            lhs = k_n * ((wts * vvals) @ dvals)
            rhs = quad_f(fwd, pair, n, v) + quad_g(fwd, pair, n, v)
            assert np.abs(lhs - rhs).max() < 1e-11


def test_quadrature_pair_reproduces_update():
    prob = burgers(0.05, 1.0 / 20.0)
    for name in ("mid122", "ssp332", "ssp343"):
        pair, fwd = forward_case(name, prob)
        for n in range(fwd.grid.n_intervals):
            inc = quad_f(fwd, pair, n) + quad_g(fwd, pair, n)
            want = fwd.nodal[n + 1] - fwd.nodal[n]
            np.testing.assert_allclose(inc, want, atol=1e-13)


def test_quadrature_constant_integrand():
    prob = SplitOdeProblem(
        name="constant-f",
        eval_f=lambda y: np.array([2.0]),
        eval_g=lambda y: np.zeros(1),
        jac_f=lambda ys: np.zeros_like(ys),
        jac_g=lambda ys: np.zeros_like(ys),
        y0=np.array([0.0]),
    )
    pair, fwd = forward_case("ssp332", prob, t_end=0.4, n=4)
    k = fwd.grid.steps[0]
    assert quad_f(fwd, pair, 0)[0] == pytest.approx(2.0 * k, abs=1e-15)
    assert quad_g(fwd, pair, 0)[0] == pytest.approx(0.0, abs=1e-15)


def test_quadrature_zero_weight_function():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    pair, fwd = forward_case("ssp332", prob)
    assert quad_f(fwd, pair, 0, lambda t: 0.0)[0] == 0.0
    assert quad_g(fwd, pair, 0, lambda t: 0.0)[0] == 0.0


def test_build_cg_validates_degree():
    # the degree is one below the scheme order and must be 1 or 2
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    pair, fwd = forward_case("mid122", prob)
    for order in (1, 4):
        with pytest.raises(ValueError,
                           match=f"degree must be 1 or 2, got {order - 1}"):
            build_cg(replace(pair, order=order), fwd)


def test_derivative_matches_finite_difference():
    # the Gauss table's values and derivatives on two subintervals per
    # interval, against the evaluator and its central differences
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    pair, fwd = forward_case("ssp343", prob)
    recon = build_cg(pair, fwd)
    taus, wts, vals, derivs = recon.gauss_table(2)
    assert taus.shape == wts.shape == (10,) and wts.sum() == pytest.approx(1.0)
    assert vals.shape == derivs.shape == (fwd.grid.n_intervals, 10, 1)
    eps = 1e-6
    for n in range(fwd.grid.n_intervals):
        for j, t in enumerate(fwd.grid.nodes[n] + fwd.grid.steps[n] * taus):
            assert np.abs(vals[n, j] - evaluate(recon, t)).max() < 1e-14
            fd = (evaluate(recon, t + eps) - evaluate(recon, t - eps)) / (2 * eps)
            assert np.abs(derivs[n, j] - fd).max() < 1e-7


def test_reconstruction_error_second_order():
    # max-norm error of the degree-1 reconstruction on a scalar linear
    # problem decays at second order
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    pair = builtin("mid122")
    errs = []
    for n in (10, 20, 40, 80):
        fwd = solve_forward(prob, pair, TimeGrid.uniform(1.0, n))
        recon = build_cg(pair, fwd)
        ts = np.linspace(0.0, 1.0, 257)
        vals = np.array([evaluate(recon, t)[0] for t in ts])
        errs.append(np.abs(vals - np.exp(-ts)).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert abs(rates[-1] - 2.0) < 0.1, rates


def test_piecewise_polynomial_shape_checks():
    grid = TimeGrid.uniform(1.0, 2)
    with pytest.raises(ValueError, match="shape"):
        PiecewisePolynomial(grid=grid, degree=1, coeffs=np.zeros((3, 2, 1)))
    with pytest.raises(ValueError, match="degree"):
        PiecewisePolynomial(grid=grid, degree=0, coeffs=np.zeros((2, 1, 1)))
