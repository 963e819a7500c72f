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

from .numerics import DEFAULT_INNER_RULE, LagrangeBasis, legendre_shifted
from .solver import ForwardSolution
from .tableaus import ImexPair


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

    def eval_on_interval(self, n: int, taus) -> np.ndarray:
        """Values at local coordinates; shape (len(taus), m)."""
        return self.basis.eval_matrix(taus) @ self.coeffs[n]

    def deriv_on_interval(self, n: int, taus) -> np.ndarray:
        """Time derivative at local coordinates; shape (len(taus), m)."""
        k_n = self.grid.steps[n]
        return (self.basis.deriv_matrix(taus) @ self.coeffs[n]) / k_n

    def _locate(self, t: float) -> tuple[int, float]:
        n = self.grid.locate(t)
        k_n = self.grid.steps[n]
        return n, (t - self.grid.nodes[n]) / k_n

    def evaluate(self, t: float) -> np.ndarray:
        n, tau = self._locate(t)
        return self.eval_on_interval(n, [tau])[0]

    def derivative(self, t: float) -> np.ndarray:
        n, tau = self._locate(t)
        return self.deriv_on_interval(n, [tau])[0]

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
    grid = forward.grid
    n_int = grid.n_intervals
    m = forward.nodal.shape[1]
    basis = LagrangeBasis(np.linspace(0.0, 1.0, q + 1))
    gp, gw = DEFAULT_INNER_RULE.mapped(0.0, 1.0)

    # tests: orthonormal shifted Legendre through degree q-1
    test_g = legendre_shifted(q - 1, gp)              # (q, 5)
    test_d = legendre_shifted(q - 1, pair.implicit.abscissae)  # (q, nu)
    dmat = basis.deriv_matrix(gp)                     # (5, q+1)
    # E[a, j] = integral of l_j'(tau) v_a(tau) dtau, exact
    emat = test_g @ (gw[:, None] * dmat)              # (q, q+1)

    w_ex = pair.explicit.weights
    w_im = pair.implicit.weights

    coeffs = np.empty((n_int, q + 1, m))
    lhs = emat[:, 1:]
    for n in range(n_int):
        rec = forward.stages[n]
        k_n = grid.steps[n]
        combo = w_ex[:, None] * rec.f_vals + w_im[:, None] * rec.g_vals
        rhs = k_n * (test_d @ combo) - np.outer(emat[:, 0], forward.nodal[n])
        coeffs[n, 0] = forward.nodal[n]
        coeffs[n, 1:] = np.linalg.solve(lhs, rhs)
    return PiecewisePolynomial(grid=grid, degree=q, coeffs=coeffs)
