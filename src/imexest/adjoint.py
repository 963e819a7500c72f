"""Backward-in-time adjoint solves.

The adjoint problem is linearized around the reconstructed discrete
solution: H(t) = jac_f(Y(t)) + jac_g(Y(t)).  It is solved with a
continuous Galerkin method one degree higher than the forward
reconstruction (trial degree q+1, test space P^q), marching backward
interval by interval from phi(T) = psi (final-time QoI) or phi(T) = 0
with the QoI density as a source (time-integrated QoI).  Every interval
integral uses the one Gauss rule of ``numerics``.  H is needed only at
its points, where the reconstruction's Gauss table supplies Y; with both
halves linear H is the constant f_op + g_op.

The sweep runs on a uniform refinement of the forward grid (factor
``refine``, default 4).  The error representation holds for the exact
adjoint, so the estimate sharpens as the adjoint error shrinks; the
refinement keeps the estimate sharp even on coarse forward grids where
a single-interval cG(q+1) adjoint would visibly pollute effectivities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

from .numerics import (GAUSS_NODES, GAUSS_WEIGHTS, LagrangeBasis,
                       galerkin_deriv_matrix, legendre_shifted)
from .problems import QoiSpec, SplitOdeProblem, as_dense
from .reconstruct import PiecewisePolynomial
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
    n_gauss = gp.size
    constant = as_dense(problem.f_op + problem.g_op) if problem.linear else None
    if constant is None:
        # the reconstruction at the Gauss points of every refined interval
        y_gauss = reconstruction.gauss_table(refine)[2]
    basis = LagrangeBasis(np.linspace(0.0, 1.0, r + 1))
    tests = legendre_shifted(q, gp)                 # (r, 5)
    dmat = galerkin_deriv_matrix(r)                 # (r, r+1)
    lvals = basis.eval_matrix(gp)                   # (5, r+1)

    def operators(n):
        """H at the Gauss points of interval n: the constant, or jac_f + jac_g
        at the reconstruction."""
        if constant is not None:
            return [constant] * n_gauss
        rows = (n % refine) * n_gauss
        return [problem.jac_f(y) + problem.jac_g(y)
                for y in y_gauss[n // refine, rows:rows + n_gauss]]

    def local_system(n):
        """LU of interval n's system in its r unknown nodes, and the (r, m, m)
        blocks acting on its known right end value."""
        k_n = steps[n]
        # W[a, j, k] = k_n * gw_k * v_a(tau_k) * l_j(tau_k)
        wgt = k_n * np.einsum("ak,jk->ajk", tests, lvals.T * gw)
        # blocks[a, j] = -dmat[a, j] I - sum_k W[a, j, k] H(t_k)^T, built in
        # place: at m = 398 each (r, r + 1, m, m) temporary is 15 MB
        blocks = np.einsum("ajk,kxy->ajxy", -wgt,
                           np.stack([h.T for h in operators(n)]))
        diag = np.arange(m)
        blocks[:, :, diag, diag] -= dmat[:, :, None]
        # Fortran order, so LAPACK factors it in place instead of a copy
        big = np.empty((r * m, r * m), order="F")
        big.T.reshape(r, m, r, m)[...] = blocks[:, :r].transpose(1, 3, 0, 2)
        # a zero pivot is reported below with its interval, not warned about
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            try:
                fac = lu_factor(big, overwrite_a=True, check_finite=False)
            except ValueError as exc:
                raise AdjointSolveError(n, str(exc)) from exc
        if np.any(fac[0].diagonal() == 0.0):
            raise AdjointSolveError(n, "singular local system")
        return fac, blocks[:, r].copy()

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
        fac, known = local_system(n_int - 1)
        # node values of an interval: prop[j] @ (its right end value) + loads[n, j]
        prop = lu_solve(fac, -known.reshape(r * m, m),
                        check_finite=False).reshape(r, m, m)
        loads = np.zeros((n_int, r, m))
        if qoi.kind == "time-integrated":
            rhs = np.stack([source(n) for n in range(n_int)]).reshape(n_int, r * m)
            loads = lu_solve(fac, rhs.T, check_finite=False).T.reshape(n_int, r, m)
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
            fac, known = local_system(n)
            rhs = -(known @ phi_right)
            if qoi.kind == "time-integrated":
                rhs += source(n)
            sol = lu_solve(fac, rhs.reshape(r * m), check_finite=False)
            if not np.all(np.isfinite(sol)):
                raise AdjointSolveError(n, "non-finite adjoint values")
            coeffs[n, :r] = sol.reshape(r, m)
            coeffs[n, r] = phi_right
            phi_right = coeffs[n, 0]

    poly = PiecewisePolynomial(grid=grid, degree=r, coeffs=coeffs)
    return AdjointSolution(poly=poly, qoi=qoi)
