"""Backward-in-time adjoint solves.

The adjoint problem is linearized around the reconstructed discrete
solution: H(t) = jac_f(Y(t)) + jac_g(Y(t)).  It is solved with a
continuous Galerkin method one degree higher than the forward
reconstruction (trial degree q+1, test space P^q), marching backward
interval by interval from phi(T) = psi (final-time QoI) or phi(T) = 0
with the QoI density as a source (time-integrated QoI).

The sweep runs on a uniform refinement of the forward grid (factor
``refine``, default 4).  The error representation holds for the exact
adjoint, so the estimate sharpens as the adjoint error shrinks; the
refinement keeps the estimate sharp even on coarse forward grids where
a single-interval cG(q+1) adjoint would visibly pollute effectivities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .numerics import DEFAULT_INNER_RULE, LagrangeBasis, legendre_shifted
from .problems import QoiSpec, SplitOdeProblem
from .reconstruct import PiecewisePolynomial
from .solver import TimeGrid

UNIFORM_TOL = 1e-12
DEFAULT_REFINE = 4


class AdjointSolveError(RuntimeError):
    def __init__(self, interval: int, detail: str):
        self.interval = interval
        super().__init__(f"adjoint solve failed on interval {interval}: {detail}")


@dataclass
class LinearizedOperator:
    """H(t) = jac_f(Y(t)) + jac_g(Y(t)) around the reconstruction Y."""

    problem: SplitOdeProblem
    reconstruction: PiecewisePolynomial

    def __post_init__(self):
        self._constant = None
        if self.problem.linear:
            y = self.problem.y0
            self._constant = self.problem.jac_f(y) + self.problem.jac_g(y)

    @property
    def is_constant(self) -> bool:
        return self._constant is not None

    def eval(self, t: float) -> np.ndarray:
        if self._constant is not None:
            return self._constant
        y = self.reconstruction.evaluate(t)
        return self.problem.jac_f(y) + self.problem.jac_g(y)


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
    forward_grid: TimeGrid
    refine: int

    def evaluate(self, t: float) -> np.ndarray:
        return self.poly.evaluate(t)

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
    forward_grid = reconstruction.grid
    q = reconstruction.degree
    r = q + 1
    m = reconstruction.dim
    grid = refine_grid(forward_grid, refine)
    n_int = grid.n_intervals
    steps = grid.steps

    op = LinearizedOperator(problem, reconstruction)
    basis = LagrangeBasis(np.linspace(0.0, 1.0, r + 1))
    gp, gw = DEFAULT_INNER_RULE.mapped(0.0, 1.0)
    tests = legendre_shifted(q, gp)                 # (r, 5)
    dmat = tests @ (gw[:, None] * basis.deriv_matrix(gp))  # (r, r+1), exact
    lvals = basis.eval_matrix(gp)                   # (5, r+1)

    def local_system(n):
        """LU of interval n's system in its r unknown nodes, and the (r, m, m)
        blocks acting on its known right end value."""
        k_n = steps[n]
        t_gauss = grid.nodes[n] + k_n * gp
        # W[a, j, k] = k_n * gw_k * v_a(tau_k) * l_j(tau_k)
        wgt = k_n * np.einsum("ak,jk->ajk", tests, lvals.T * gw)
        # blocks[a, j] = -dmat[a, j] I - sum_k W[a, j, k] H(t_k)^T, built in
        # place: at m = 398 each (r, r + 1, m, m) temporary is 15 MB
        blocks = np.einsum("ajk,kxy->ajxy", -wgt,
                           np.stack([op.eval(t).T for t in t_gauss]))
        diag = np.arange(m)
        blocks[:, :, diag, diag] -= dmat[:, :, None]
        # Fortran order, so LAPACK factors it in place instead of a copy
        big = np.empty((r * m, r * m), order="F")
        big.T.reshape(r, m, r, m)[...] = blocks[:, :r].transpose(1, 3, 0, 2)
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
    if op.is_constant and uniform:
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
    return AdjointSolution(poly=poly, qoi=qoi, forward_grid=forward_grid,
                           refine=refine)
