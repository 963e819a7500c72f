"""Tests for the adjoint-weighted error estimate and its decompositions."""

import numpy as np
import pytest

from imexest import estimate
from imexest.adjoint import solve_adjoint
from imexest.estimate import (
    ErrorBreakdown,
    component_split,
    effectivity,
    error_breakdown,
    error_breakdown_timedep,
    residual_weighted_estimate,
)
from imexest.problems import (
    QoiSpec,
    burgers,
    linear_advection_diffusion,
    mhd_alfven,
    qoi_integral_v,
    qoi_mean_left_half,
    split_linear_system,
    split_scalar_linear,
)
from imexest.reconstruct import build_cg
from imexest.solver import TimeGrid, solve_forward
from imexest.tableaus import builtin
from oracles import assemble_per_interval, evaluate, working_memory


def pipeline(problem, qoi, scheme="mid122", t_end=1.0, n=40, refine=4):
    pair = builtin(scheme)
    fwd = solve_forward(problem, pair, TimeGrid.uniform(t_end, n))
    recon = build_cg(pair, fwd)
    adj = solve_adjoint(problem, recon, qoi, refine=refine)
    return pair, fwd, recon, adj


def breakdown_for(problem, qoi, **kw):
    pair, fwd, recon, adj = pipeline(problem, qoi, **kw)
    if qoi.kind == "final-time":
        bd = error_breakdown(problem, pair, fwd, recon, adj)
    else:
        bd = error_breakdown_timedep(problem, pair, fwd, recon, adj)
    return bd, (pair, fwd, recon, adj)


def test_zero_field_gives_zero_estimate():
    zero = np.zeros((2, 2))
    prob = split_linear_system(zero, zero, [1.0, -2.0], name="zero")
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0, 1.0]))
    bd, _ = breakdown_for(prob, qoi, n=8)
    assert bd.e1 == bd.e2 == bd.e3 == 0.0
    np.testing.assert_allclose(bd.per_interval, 0.0)
    np.testing.assert_allclose(bd.galerkin_raw, 0.0, atol=1e-15)


def test_scalar_split_estimate_matches_true_error():
    # scalar ydot = (lam_f + lam_g) y with known exponential: the estimate
    # reproduces the actual QoI error almost exactly
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    bd, (_, fwd, _, _) = breakdown_for(prob, qoi, n=40)
    true_err = float(prob.analytic(1.0)[0] - fwd.final_state[0])
    assert abs(bd.estimate_total - true_err) < 1e-3 * abs(true_err)


def test_breakdown_internal_consistency():
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim, scale=1.0 / prob.dim)
    bd, _ = breakdown_for(prob, qoi, scheme="ssp332", t_end=0.5, n=10)
    assert isinstance(bd, ErrorBreakdown)
    # totals match their per-interval sums and the density sums
    score = np.abs(bd.per_interval).sum()
    np.testing.assert_allclose(
        [bd.e1, bd.e2, bd.e3], bd.per_interval.sum(axis=0), atol=1e-13 * (1 + score)
    )
    np.testing.assert_allclose(
        bd.per_interval, bd.term_density.sum(axis=2), atol=1e-13 * (1 + score)
    )
    assert bd.estimate_total == bd.e1 + bd.e2 + bd.e3
    assert bd.per_interval.shape == (10, 3)
    assert bd.term_density.shape == (10, 3, prob.dim)


def test_kind_mismatch_rejected():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    pair, fwd, recon, adj = pipeline(prob, qoi, n=8)
    with pytest.raises(ValueError, match="time-integrated"):
        error_breakdown_timedep(prob, pair, fwd, recon, adj)
    qoi_t = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))
    pair, fwd, recon, adj = pipeline(prob, qoi_t, n=8)
    with pytest.raises(ValueError, match="final-time"):
        error_breakdown(prob, pair, fwd, recon, adj)


def test_time_integrated_zero_density_gives_zero():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.zeros(1))
    bd, _ = breakdown_for(prob, qoi, n=8)
    assert bd.estimate_total == 0.0


def test_time_integrated_constant_density_closed_form():
    # psi_tilde = 1: the QoI error is the integral of (y - Y), computable
    # directly from the exact solution and the reconstruction
    prob = split_scalar_linear(0.0, -1.0, 1.0)
    qoi = QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.ones(1))
    bd, (_, fwd, recon, _) = breakdown_for(prob, qoi, n=80)
    x, w = np.polynomial.legendre.leggauss(10)
    truth = 0.0
    for n in range(fwd.grid.n_intervals):
        a, b = fwd.grid.nodes[n], fwd.grid.nodes[n + 1]
        pts, wts = a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w
        vals = np.array([np.exp(-t) - evaluate(recon, t)[0] for t in pts])
        truth += float(wts @ vals)
    assert abs(bd.estimate_total - truth) < 1e-3 * abs(truth)


def test_narrow_bump_density_approaches_final_time_estimate():
    # a unit-mass box density concentrated at T converges to the
    # final-time estimate as the box narrows
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    psi = np.array([1.0])
    final_bd, _ = breakdown_for(prob, QoiSpec(kind="final-time", psi=psi), n=40)

    def box_density(width):
        def psi_tilde(t):
            return psi / width if t >= 1.0 - width else np.zeros(1)

        return QoiSpec(kind="time-integrated", psi_tilde=psi_tilde)

    gaps = []
    for width in (0.4, 0.2, 0.1):
        bd, _ = breakdown_for(prob, box_density(width), n=40)
        gaps.append(abs(bd.estimate_total - final_bd.estimate_total))
    assert gaps[0] > gaps[1] > gaps[2]


def test_component_split_single_block_identity():
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim)
    bd, _ = breakdown_for(prob, qoi, scheme="ssp332", t_end=0.5, n=10)
    split = component_split(bd, {"all": np.ones(prob.dim, dtype=bool)})
    np.testing.assert_allclose(split["all"], [bd.e1, bd.e2, bd.e3], atol=1e-15)


def test_component_split_blocks_sum_to_totals():
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim)
    bd, _ = breakdown_for(prob, qoi, scheme="ssp332", t_end=0.5, n=10)
    left = np.arange(prob.dim) < prob.dim // 2
    split = component_split(bd, {"left": left, "right": ~left})
    sums = np.array(split["left"]) + np.array(split["right"])
    scale = 1.0 + np.abs([bd.e1, bd.e2, bd.e3]).max()
    np.testing.assert_allclose(
        sums, [bd.e1, bd.e2, bd.e3], atol=1e-12 * scale
    )


def test_component_mask_validation():
    prob = split_linear_system(np.diag([-0.4, -0.5, -0.6]), -0.1 * np.eye(3),
                               [1.0, 0.5, -0.5])
    qoi = QoiSpec(kind="final-time", psi=np.ones(3))
    bd, _ = breakdown_for(prob, qoi, n=4)
    first = np.array([True, True, False])
    with pytest.raises(ValueError, match="partition"):
        component_split(bd, {"a": first, "b": np.array([False, True, True])})
    with pytest.raises(ValueError, match="partition"):
        component_split(bd, {"a": first})
    # index arrays are not masks
    with pytest.raises(ValueError, match="'b' is not a boolean mask"):
        component_split(bd, {"a": first, "b": np.array([2])})
    split = component_split(bd, {"a": first, "b": ~first, "empty": np.zeros(3, bool)})
    assert split["empty"] == (0.0, 0.0, 0.0)


def test_component_split_dimension_mismatch():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    bd, _ = breakdown_for(prob, qoi, n=8)
    with pytest.raises(ValueError, match="dimension"):
        component_split(bd, {"a": np.ones(2, dtype=bool)})


def test_effectivity_ratio_and_edge_cases():
    assert effectivity(7.89e-09, 6.92e-09) == pytest.approx(1.1402, abs=1e-3)
    assert effectivity(1.0e-08, 0.0) is None
    assert effectivity(0.0, 3.0e-07) == 0.0


def test_orthogonality_residual_small_on_consistent_run():
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim, scale=1.0 / prob.dim)
    bd, (pair, fwd, recon, adj) = breakdown_for(
        prob, qoi, scheme="ssp343", t_end=0.5, n=10
    )
    assert bd.galerkin_raw.max() < 1e-10 * (1.0 + adj.max_abs())


def test_orthogonality_residual_detects_perturbed_reconstruction():
    # the variational equations define the reconstruction, so any rebuild
    # passes the check; warping the polynomial itself must trip it
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim, scale=1.0 / prob.dim)
    pair, fwd, recon, adj = pipeline(prob, qoi, scheme="ssp332", t_end=0.5, n=10)
    clean = error_breakdown(prob, pair, fwd, recon, adj).galerkin_raw.max()
    recon.coeffs[5, -1] += 1e-3
    res = error_breakdown(prob, pair, fwd, recon, adj).galerkin_raw.max()
    assert res > 1e-8
    assert res > 100.0 * clean


def test_residual_weighted_estimate_matches_breakdown():
    # testing against phi itself instead of its projection only moves the
    # total by the orthogonality defect
    prob = burgers(0.05, 1.0 / 20.0)
    qoi = qoi_mean_left_half(prob.dim, scale=1.0 / prob.dim)
    bd, (pair, fwd, recon, adj) = breakdown_for(
        prob, qoi, scheme="ssp332", t_end=0.5, n=10
    )
    direct = residual_weighted_estimate(prob, recon, adj)
    slack = bd.galerkin_raw.sum() + 1e-12 * (1.0 + abs(direct))
    assert abs(direct - bd.estimate_total) <= slack + 1e-14


def test_adjoint_must_refine_forward_grid():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    pair, fwd, recon, _ = pipeline(prob, qoi, n=8)
    # adjoint solved on an unrelated (coarser) reconstruction grid
    _, _, recon5, adj5 = pipeline(prob, qoi, n=5)
    with pytest.raises(ValueError, match="refinement"):
        error_breakdown(prob, pair, fwd, recon, adj5)
    # 3 adjoint intervals, unrefined, do not split 2 forward intervals,
    # for the breakdown and the direct residual-weighted estimate alike
    refused = "^adjoint grid is not a refinement of the forward grid$"
    pair, fwd, recon, _ = pipeline(prob, qoi, n=2, refine=1)
    adj3 = pipeline(prob, qoi, n=3, refine=1)[3]
    with pytest.raises(ValueError, match=refused):
        error_breakdown(prob, pair, fwd, recon, adj3)
    with pytest.raises(ValueError, match=refused):
        residual_weighted_estimate(prob, recon, adj3)


def test_adjoint_must_be_solved_on_the_reconstruction_grid():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    qoi = QoiSpec(kind="final-time", psi=np.array([1.0]))
    pair, fwd, recon, adj = pipeline(prob, qoi, t_end=1.0, n=10)
    # as many intervals on [0, 2]: a count that splits, on other nodes
    adj_long = pipeline(prob, qoi, t_end=2.0, n=10)[3]
    refused = "^adjoint grid is not a refinement of the forward grid$"
    with pytest.raises(ValueError, match=refused):
        error_breakdown(prob, pair, fwd, recon, adj_long)
    with pytest.raises(ValueError, match=refused):
        residual_weighted_estimate(prob, recon, adj_long)
    # a forward solution on another grid than the reconstruction's
    fwd_long = pipeline(prob, qoi, t_end=2.0, n=10)[1]
    with pytest.raises(ValueError, match="different grids"):
        error_breakdown(prob, pair, fwd_long, recon, adj)


def oracle_cases():
    """(id, problem, qoi, scheme, t_end, intervals, refine): a dense linear,
    a nonlinear, and a CSR forced problem."""
    adv = linear_advection_diffusion(0.1, 1.0 / 20.0)
    bur = burgers(0.05, 1.0 / 20.0)
    mhd = mhd_alfven(h=0.05)
    return [
        ("advection-diffusion", adv, qoi_mean_left_half(adv.dim), "ssp343", 1.0, 13, 4),
        ("burgers", bur, qoi_mean_left_half(bur.dim, 1.0 / bur.dim), "ssp332", 0.5, 13, 2),
        ("mhd", mhd, qoi_integral_v(mhd.metadata["interior_per_field"], 0.05),
         "mid122", 0.01, 13, 3),
    ]


@pytest.mark.parametrize("case", oracle_cases(), ids=lambda case: case[0])
def test_block_assembly_equals_the_per_interval_oracle(case, monkeypatch):
    _, prob, qoi, scheme, t_end, n, refine = case
    pair, fwd, recon, adj = pipeline(prob, qoi, scheme=scheme, t_end=t_end, n=n,
                                     refine=refine)
    want = assemble_per_interval(prob, pair, fwd, recon, adj)
    slab = 5 * refine * prob.dim  # floats of one interval's (points, m) slab
    # one interval a block, 4 (which does not divide 13), the whole grid
    for intervals in (1, 4, n):
        monkeypatch.setattr(estimate, "BLOCK_FLOATS", intervals * slab)
        got = error_breakdown(prob, pair, fwd, recon, adj)
        for name in ("per_interval", "term_density", "galerkin_scaled", "galerkin_raw"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (intervals, name)
        assert (got.e1, got.e2, got.e3) == (want.e1, want.e2, want.e3)


def test_breakdown_working_memory_does_not_grow_with_the_grid():
    # the breakdown's traced peak, less its outputs, stays a fixed number
    # of blocks: every (intervals, points, m) array is one block's, and
    # the inputs were made before tracing started.  The whole-grid tables
    # of Y, Ydot and phi made it 18 blocks at 100 intervals and 43 at 400,
    # and keeping the previous block while reading the next 15; it is 9.3
    # at 400 intervals here.
    prob = mhd_alfven(h=0.05)
    qoi = qoi_integral_v(prob.metadata["interior_per_field"], 0.05)
    block = estimate.BLOCK_FLOATS * 8  # bytes
    # 100 intervals of 20 points hold more than two blocks
    assert 100 * 20 * prob.dim > 2 * estimate.BLOCK_FLOATS
    work = working_memory(
        lambda t_end, n: pipeline(prob, qoi, scheme="ssp332", t_end=t_end, n=n),
        lambda inputs: error_breakdown(prob, *inputs),
        lambda bd: sum(arr.nbytes for arr in (
            bd.term_density, bd.per_interval, bd.galerkin_scaled, bd.galerkin_raw)),
        sizes=(25, 100, 400))
    assert max(work) < 11 * block, [w / block for w in work]
    # the (N, points) Gauss times alone grow with N: 48 KB from 100 to 400
    assert work[2] - work[1] < block, [w / block for w in work]


@pytest.mark.parametrize("kind", ["final-time", "time-integrated"])
def test_breakdown_reads_the_boundary_data_once_at_its_gauss_times(kind):
    prob = mhd_alfven(h=0.05)
    psi = qoi_integral_v(prob.metadata["interior_per_field"], prob.metadata["h"]).psi
    qoi = (QoiSpec(kind=kind, psi=psi) if kind == "final-time"
           else QoiSpec(kind=kind, psi_tilde=lambda t: psi))
    refine = 2
    pair, fwd, recon, adj = pipeline(prob, qoi, scheme="ssp332", t_end=0.01,
                                     n=10, refine=refine)
    calls = []
    data = prob.boundary_data

    def counted(t):
        calls.append(np.array(t, copy=True))
        return data(t)

    prob.boundary_data = counted
    breakdown = error_breakdown if kind == "final-time" else error_breakdown_timedep
    bd = breakdown(prob, pair, fwd, recon, adj)
    assert np.isfinite(bd.estimate_total)
    # every Gauss point of every adjoint subinterval, interval by interval
    taus = recon.gauss_table(refine)[0]
    grid = recon.grid
    (times,) = calls
    assert np.array_equal(times, np.concatenate(
        [t_n + k_n * taus for t_n, k_n in zip(grid.nodes, grid.steps)]))
