"""Backward-in-time adjoint solves.

The adjoint problem is linearized around the reconstructed discrete
solution: H(t) is the Jacobian of f + g at Y(t).  It is solved with a
continuous Galerkin method one degree higher than the forward
reconstruction (trial degree q+1, test space P^q), marching backward
interval by interval from phi(T) = psi (final-time QoI) or phi(T) = 0
with the QoI density as a source (time-integrated QoI).  Every interval
integral uses the one Gauss rule of ``numerics``.  H(t) is the linear
halves' operators, summed once per solve, plus the nonlinear halves'
Jacobians at the reconstruction's sub-Gauss nodes
(``reconstruct.sub_gauss_nodes``): one call per half and solve, whose
values at the problem's Jacobian pattern serve every interval.  Every
local system is assembled by one body through ``numerics.BlockForm``,
in the summed operator's form when H is constant (both halves linear)
and as CSC on the Jacobian pattern otherwise.  A constant H in a dense
form becomes one propagator; every other sweep solves once per interval,
and a sparse constant H (MHD) is factored once for all of them.

The sweep runs on a uniform refinement of the forward grid (factor
``refine``, default 4).  The error representation holds for the exact
adjoint, so the estimate sharpens as the adjoint error shrinks; the
refinement keeps the estimate sharp even on coarse forward grids where
a single-interval cG(q+1) adjoint would visibly pollute effectivities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (GAUSS_NODES, GAUSS_WEIGHTS, BlockForm, LagrangeBasis,
                       galerkin_deriv_matrix, legendre_shifted, lu_factor)
from .problems import QoiSpec, SplitOdeProblem
from .reconstruct import PiecewisePolynomial, sub_gauss_nodes
from .solver import TimeGrid

UNIFORM_TOL = 1e-12
DEFAULT_REFINE = 4


class AdjointSolveError(RuntimeError):
    def __init__(self, interval: int, detail: str):
        self.interval = interval
        super().__init__(f"adjoint solve failed on interval {interval}: {detail}")


def refine_grid(grid: TimeGrid, factor: int) -> TimeGrid:
    """Split every interval into ``factor`` equal parts (endpoints kept)."""
    if factor < 1:
        raise ValueError("refinement factor must be >= 1")
    if factor == 1:
        return grid
    # each interval's np.linspace(t_n, t_n+1, factor + 1)[:-1], to the bit
    nodes = grid.nodes[:-1, None] + np.arange(factor) * (grid.steps / factor)[:, None]
    return TimeGrid(np.append(nodes, grid.nodes[-1]))


@dataclass
class AdjointSolution:
    """Adjoint trajectory on a refinement of the forward grid."""

    poly: PiecewisePolynomial
    qoi: QoiSpec

    def max_abs(self) -> float:
        return float(np.abs(self.poly.coeffs).max())


def solve_adjoint(problem: SplitOdeProblem, reconstruction: PiecewisePolynomial,
                  qoi: QoiSpec, refine: int = DEFAULT_REFINE) -> AdjointSolution:
    """Backward cG(q+1) adjoint solve around the reconstruction.

    A constant operator on a uniform grid has one local system for every
    interval, factored once.  In a dense form that solve turns into a
    propagator, and the sweep is an m x m recurrence for the left end
    values plus one matmul per interior node over all intervals.  In a
    sparse form the sweep solves it once per interval.  Otherwise each
    interval factors and solves its own system in that same sweep.
    """
    q = reconstruction.degree
    r = q + 1
    m = reconstruction.dim
    grid = refine_grid(reconstruction.grid, refine)
    n_int = grid.n_intervals
    steps = grid.steps

    gp, gw = GAUSS_NODES, GAUSS_WEIGHTS
    # H = the linear halves' operators, summed, plus the nonlinear halves'
    # Jacobians; its constant part is read once, in the systems' form
    halves = ((problem.f_op, problem.jac_f), (problem.g_op, problem.jac_g))
    ops = [op for op, _ in halves if op is not None]
    jacs = [jac for op, jac in halves if op is None]
    summed = sum(ops[1:], ops[0]) if ops else None
    form = BlockForm(m, r, summed if problem.linear else problem.jac_pattern)
    op_values = form.values(summed) if ops else 0.0
    if not problem.linear:
        # H^T's values at the reconstruction's Gauss points, from one call
        # per nonlinear half; one row per refined interval
        states = reconstruction.at(sub_gauss_nodes(refine)).reshape(-1, m)
        values = [jac(states) for jac in jacs]
        hts = form.scatter(sum(values[1:], values[0])).reshape(n_int, gp.size, -1)
        hts += op_values
    basis = LagrangeBasis(np.linspace(0.0, 1.0, r + 1))
    tests = legendre_shifted(q, gp)                 # (r, 5)
    dmat = galerkin_deriv_matrix(r)                 # (r, r+1)
    lvals = basis.eval_matrix(gp)                   # (5, r+1)
    # W[a, j, k] = gw_k * v_a(tau_k) * l_j(tau_k): on interval n, block
    # (a, j) is -dmat[a, j] I - k_n sum_k W[a, j, k] H(t_k)^T
    wgt = np.einsum("ak,jk->ajk", tests, lvals.T * gw)

    def local_system(n):
        """The solve of interval n's system in its r unknown nodes, and the
        (r m, m) matrix acting on its known right end value."""
        k_wgt = steps[n] * wgt
        if problem.linear:
            blocks = np.multiply.outer(-k_wgt.sum(axis=2), op_values)
        else:
            blocks = (-k_wgt.reshape(r * (r + 1), gp.size) @ hts[n]).reshape(
                r, r + 1, -1)
        blocks[(Ellipsis, *form.diagonal)] -= dmat[:, :, None]
        system, known = form.system(blocks)
        singular = AdjointSolveError(n, "singular local system")
        return lu_factor(system, singular=singular), known

    if qoi.kind == "final-time":
        phi_right = qoi.psi.astype(float).copy()
        load = None
    else:
        phi_right = np.zeros(m)
        # the density's (r, m) load on every interval, from one read of
        # psi_tilde at each refined Gauss time
        dens = np.stack([qoi.psi_tilde(t) for t in grid.local_times(gp).ravel()])
        load = steps[:, None, None] * (
            tests @ (gw[:, None] * dens.reshape(n_int, gp.size, m)))

    coeffs = np.empty((n_int, r + 1, m))
    uniform = bool(np.all(np.abs(steps - steps[0]) <= UNIFORM_TOL * steps[0]))
    constant = problem.linear and uniform
    if constant:
        solve, known = local_system(n_int - 1)
    if constant and form.dense:
        # node values of an interval: prop[j] @ (its right end value) + loads[n, j]
        prop = solve(-known).reshape(r, m, m)
        loads = np.zeros((n_int, r, m))
        if load is not None:
            loads = solve(load.reshape(n_int, r * m).T).T.reshape(n_int, r, m)
        # a non-finite value is reported by the check below, not warned about
        with np.errstate(all="ignore"):
            for n in range(n_int - 1, -1, -1):
                coeffs[n, r] = phi_right
                phi_right = prop[0] @ phi_right + loads[n, 0]
                coeffs[n, 0] = phi_right
            for j in range(1, r):
                coeffs[:, j] = coeffs[:, r] @ prop[j].T + loads[:, j]
        finite = np.isfinite(coeffs[:, :r]).all(axis=(1, 2))
        if not finite.all():
            # the interval the backward sweep reaches first
            n_bad = int(np.flatnonzero(~finite)[-1])
            raise AdjointSolveError(n_bad, "non-finite adjoint values")
    else:
        for n in range(n_int - 1, -1, -1):
            if not constant:
                solve, known = local_system(n)
            rhs = -(known @ phi_right)
            if load is not None:
                rhs += load[n].reshape(r * m)
            sol = solve(rhs)
            if not np.all(np.isfinite(sol)):
                raise AdjointSolveError(n, "non-finite adjoint values")
            coeffs[n, :r] = sol.reshape(r, m)
            coeffs[n, r] = phi_right
            phi_right = coeffs[n, 0]

    poly = PiecewisePolynomial(grid=grid, degree=r, coeffs=coeffs)
    return AdjointSolution(poly=poly, qoi=qoi)
