"""Continuous piecewise-polynomial reconstructions of the IMEX solution.

One object is built from a forward solve:

* ``build_cg`` produces the degree-q continuous reconstruction, q one
  below the scheme order, whose nodal values coincide with the IMEX
  values: on each interval the left value is fixed by continuity and
  the remaining q coefficients solve
  the variational equations ``<Ydot, v> = <f, v>_Qf + <g, v>_Qg`` for v
  in P^{q-1}, where the two quadratures sit at the implicit abscissae
  with the explicit/implicit weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (GAUSS_NODES, GAUSS_WEIGHTS, LagrangeBasis,
                       galerkin_deriv_matrix, legendre_shifted)
from .solver import ForwardSolution
from .tableaus import ImexPair


def sub_gauss_nodes(factor: int) -> np.ndarray:
    """The Gauss points of each of ``factor`` equal subintervals of [0, 1],
    in order: shape (5*factor,)."""
    return ((np.arange(factor)[:, None] + GAUSS_NODES) / factor).reshape(-1)


@dataclass
class PiecewisePolynomial:
    """Piecewise polynomial stored as nodal values on equispaced local nodes.

    coeffs[n, j] is the value at local coordinate tau = j/degree of
    interval n (tau = (t - t_n)/k_n), so coeffs[n, 0] / coeffs[n, -1]
    are the left/right interval endpoint values.
    """

    grid: object
    degree: int
    coeffs: np.ndarray        # (N, degree+1, m)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        n, width, _m = self.coeffs.shape
        if n != self.grid.n_intervals or width != self.degree + 1:
            raise ValueError("coefficient array shape does not match grid/degree")
        self.basis = LagrangeBasis(np.linspace(0.0, 1.0, self.degree + 1))

    @property
    def dim(self) -> int:
        return self.coeffs.shape[2]

    def at(self, taus, factor: int = 1) -> np.ndarray:
        """Values at local coordinates taus in [0, 1] of every run of
        ``factor`` consecutive intervals, each run read as one interval:
        shape (N // factor, len(taus), m).  A point on a boundary between
        two intervals of a run is read from the later one."""
        scaled = np.asarray(taus, dtype=float) * factor
        # clipped at both ends: a stage abscissa summed from a tableau row
        # can land a rounding error outside [0, 1]
        sub = np.clip(np.floor(scaled).astype(int), 0, factor - 1)
        runs = self.coeffs.reshape(-1, factor, *self.coeffs.shape[1:])
        out = np.empty((runs.shape[0], sub.size, self.dim))
        for s in np.unique(sub):
            pick = sub == s
            out[:, pick] = self.basis.eval_matrix(scaled[pick] - s) @ runs[:, s]
        return out

    def gauss_table(self, factor: int):
        """The Gauss rule on each of ``factor`` equal subintervals of every
        interval: local points and weights (5*factor,), then the values and
        time derivatives there, each of shape (N, 5*factor, m)."""
        taus = sub_gauss_nodes(factor)
        wts = np.tile(GAUSS_WEIGHTS, factor) / factor
        values = self.at(taus)
        derivs = self.basis.deriv_matrix(taus) @ self.coeffs
        derivs /= self.grid.steps[:, None, None]
        return taus, wts, values, derivs

    def continuity_defect(self) -> float:
        """Max mismatch between interval right values and next left values."""
        if self.coeffs.shape[0] == 1:
            return 0.0
        return float(np.abs(self.coeffs[:-1, -1] - self.coeffs[1:, 0]).max())


def build_cg(pair: ImexPair, forward: ForwardSolution) -> PiecewisePolynomial:
    """Continuous reconstruction matching the IMEX nodal values.

    The degree is q = pair.order - 1, the one for which the nodal
    equivalence holds; the variational system is assembled for q in {1, 2}.
    """
    q = pair.order - 1
    if q not in (1, 2):
        raise ValueError(f"reconstruction degree must be 1 or 2, got {q} "
                         f"(scheme order {pair.order})")
    # tests: orthonormal shifted Legendre through degree q-1
    test_d = legendre_shifted(q - 1, pair.implicit.abscissae)  # (q, nu)
    emat = galerkin_deriv_matrix(q)                   # (q, q+1)
    f_vals = np.stack([rec.f_vals for rec in forward.stages])  # (N, nu, m)
    g_vals = np.stack([rec.g_vals for rec in forward.stages])
    combo = (pair.explicit.weights[:, None] * f_vals
             + pair.implicit.weights[:, None] * g_vals)
    left = forward.nodal[:-1]
    rhs = (forward.grid.steps[:, None, None] * (test_d @ combo)
           - emat[:, 0, None] * left[:, None])
    coeffs = np.empty((left.shape[0], q + 1, left.shape[1]))
    coeffs[:, 0] = left
    # one constant (q x q) matrix, solved against every interval's rhs
    coeffs[:, 1:] = np.linalg.solve(emat[:, 1:], rhs)
    return PiecewisePolynomial(grid=forward.grid, degree=q, coeffs=coeffs)
