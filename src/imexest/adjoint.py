"""Backward-in-time adjoint solves.

The adjoint problem is linearized around the reconstructed discrete
solution: H(t) = jac_f(Y(t)) + jac_g(Y(t)).  It is solved with a
continuous Galerkin method one degree higher than the forward
reconstruction (trial degree q+1, test space P^q), marching backward
interval by interval from phi(T) = psi (final-time QoI) or phi(T) = 0
with the QoI density as a source (time-integrated QoI).  Every interval
integral uses the one Gauss rule of ``numerics``.  H is needed only at
its points, where the reconstruction is read at the sub-Gauss nodes
(``reconstruct.sub_gauss_nodes``); with both halves linear H is the
constant f_op + g_op.

The sweep runs on a uniform refinement of the forward grid (factor
``refine``, default 4).  The error representation holds for the exact
adjoint, so the estimate sharpens as the adjoint error shrinks; the
refinement keeps the estimate sharp even on coarse forward grids where
a single-interval cG(q+1) adjoint would visibly pollute effectivities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .numerics import (GAUSS_NODES, GAUSS_WEIGHTS, LagrangeBasis,
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
    pieces = [
        np.linspace(grid.nodes[n], grid.nodes[n + 1], factor + 1)[:-1]
        for n in range(grid.n_intervals)
    ]
    pieces.append(grid.nodes[-1:])
    return TimeGrid(np.concatenate(pieces))


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
    interval: one factorisation turns it into a propagator, and the sweep
    is an m x m recurrence for the left end values plus one matmul per
    interior node over all intervals.  Otherwise each interval factors
    and solves its own system.
    """
    q = reconstruction.degree
    r = q + 1
    m = reconstruction.dim
    grid = refine_grid(reconstruction.grid, refine)
    n_int = grid.n_intervals
    steps = grid.steps

    gp, gw = GAUSS_NODES, GAUSS_WEIGHTS
    constant = problem.f_op + problem.g_op if problem.linear else None
    if constant is None:
        # the reconstruction at the Gauss points, one row per refined interval
        y_gauss = reconstruction.at(sub_gauss_nodes(refine)).reshape(
            n_int, gp.size, m)
    basis = LagrangeBasis(np.linspace(0.0, 1.0, r + 1))
    tests = legendre_shifted(q, gp)                 # (r, 5)
    dmat = galerkin_deriv_matrix(r)                 # (r, r+1)
    lvals = basis.eval_matrix(gp)                   # (5, r+1)

    def local_system(n):
        """The solve of interval n's system in its r unknown nodes, and the
        (r, m, m) blocks acting on its known right end value."""
        k_n = steps[n]
        # W[a, j, k] = k_n * gw_k * v_a(tau_k) * l_j(tau_k)
        wgt = k_n * np.einsum("ak,jk->ajk", tests, lvals.T * gw)
        singular = AdjointSolveError(n, "singular local system")
        if sparse.issparse(constant):
            # the same blocks as below, kept in the operator's sparse form:
            # the unknown nodes' columns are factored, the known one's dense
            big, known = (
                sparse.kron(-wgt.sum(axis=2)[:, cols], constant.T, format="csc")
                - sparse.kron(dmat[:, cols], sparse.eye_array(m), format="csc")
                for cols in (slice(None, r), slice(r, None)))
            return (lu_factor(big, singular=singular),
                    known.toarray().reshape(r, m, m))
        # blocks[a, j] = -dmat[a, j] I - sum_k W[a, j, k] H(t_k)^T, built in
        # place: each (r, r + 1, m, m) temporary is 0.6 MB at Burgers' m = 80
        if constant is not None:
            blocks = -wgt.sum(axis=2)[:, :, None, None] * constant.T
        else:
            # H at the Gauss points: jac_f + jac_g at the reconstruction
            blocks = np.einsum("ajk,kxy->ajxy", -wgt, np.stack([
                (problem.jac_f(y) + problem.jac_g(y)).T for y in y_gauss[n]]))
        diag = np.arange(m)
        blocks[:, :, diag, diag] -= dmat[:, :, None]
        # Fortran order, so LAPACK factors it in place instead of a copy
        big = np.empty((r * m, r * m), order="F")
        big.T.reshape(r, m, r, m)[...] = blocks[:, :r].transpose(1, 3, 0, 2)
        return lu_factor(big, singular=singular), blocks[:, r].copy()

    def source(n):
        """(r, m) load of a time-integrated QoI's density on interval n."""
        k_n = steps[n]
        src = np.stack([qoi.psi_tilde(grid.nodes[n] + k_n * tau) for tau in gp])
        return k_n * (tests @ (gw[:, None] * src))

    if qoi.kind == "final-time":
        phi_right = qoi.psi.astype(float).copy()
    else:
        phi_right = np.zeros(m)

    coeffs = np.empty((n_int, r + 1, m))
    uniform = bool(np.all(np.abs(steps - steps[0]) <= UNIFORM_TOL * steps[0]))
    if constant is not None and uniform:
        solve, known = local_system(n_int - 1)
        # node values of an interval: prop[j] @ (its right end value) + loads[n, j]
        prop = solve(-known.reshape(r * m, m)).reshape(r, m, m)
        loads = np.zeros((n_int, r, m))
        if qoi.kind == "time-integrated":
            rhs = np.stack([source(n) for n in range(n_int)]).reshape(n_int, r * m)
            loads = solve(rhs.T).T.reshape(n_int, r, m)
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
            solve, known = local_system(n)
            rhs = -(known @ phi_right)
            if qoi.kind == "time-integrated":
                rhs += source(n)
            sol = solve(rhs.reshape(r * m))
            if not np.all(np.isfinite(sol)):
                raise AdjointSolveError(n, "non-finite adjoint values")
            coeffs[n, :r] = sol.reshape(r, m)
            coeffs[n, r] = phi_right
            phi_right = coeffs[n, 0]

    poly = PiecewisePolynomial(grid=grid, degree=r, coeffs=coeffs)
    return AdjointSolution(poly=poly, qoi=qoi)
