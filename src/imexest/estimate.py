"""Adjoint-weighted a posteriori estimate of the QoI error, split into

  e1: discretization error (residual weighted by phi minus its L2
      projection onto local polynomials one degree below the
      reconstruction),
  e2: quadrature error of the explicit half (continuous inner product
      minus the explicit-weight stage quadrature),
  e3: the same for the implicit half.

All continuous inner products use the one Gauss rule of ``numerics`` on
every adjoint subinterval, so they stay exact when the adjoint grid is a
refinement of the forward grid: the reconstruction and its derivative
come from its Gauss table, phi from ``PiecewisePolynomial.at`` at the
same points and at the stage abscissae.
The quadrature sums reuse the recorded stage f and g values, so e2/e3
vanish to roundoff exactly when the stage quadrature integrates the
weighted term exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import AdjointSolution
from .numerics import legendre_shifted
from .problems import SplitOdeProblem
from .reconstruct import PiecewisePolynomial
from .solver import ForwardSolution
from .tableaus import ImexPair


@dataclass
class ErrorBreakdown:
    """Estimate components and their per-interval / per-state densities."""

    e1: float
    e2: float
    e3: float
    per_interval: np.ndarray     # (N, 3)
    term_density: np.ndarray     # (N, 3, m)
    galerkin_scaled: np.ndarray  # (N,) scaled orthogonality residuals
    galerkin_raw: np.ndarray     # (N,) absolute orthogonality residuals

    @property
    def estimate_total(self) -> float:
        return self.e1 + self.e2 + self.e3


def effectivity(estimate_total: float, true_error: float) -> Optional[float]:
    """Estimate over truth; None when the true error is exactly zero."""
    if true_error == 0.0:
        return None
    return estimate_total / true_error


def _subinterval_factor(forward_intervals: int, adjoint: AdjointSolution) -> int:
    n_adj = adjoint.poly.grid.n_intervals
    if n_adj % forward_intervals != 0:
        raise ValueError("adjoint grid is not a refinement of the forward grid")
    return n_adj // forward_intervals


def _assemble(problem: SplitOdeProblem, pair: ImexPair, forward: ForwardSolution,
              recon: PiecewisePolynomial, adjoint: AdjointSolution) -> ErrorBreakdown:
    grid = recon.grid
    factor = _subinterval_factor(grid.n_intervals, adjoint)
    taus, wts, y_tab, ydot_tab = recon.gauss_table(factor)
    d = pair.implicit.abscissae
    w_ex = pair.explicit.weights
    w_im = pair.implicit.weights
    n_int = grid.n_intervals
    steps = grid.steps
    m = recon.dim

    leg_t = legendre_shifted(recon.degree - 1, taus)     # (q, 5*factor)
    leg_d = legendre_shifted(recon.degree - 1, d)        # (q, nu)
    # phi at the same points, and at the stage abscissae
    phi_tab = adjoint.poly.at(taus, factor)
    phi_d_tab = adjoint.poly.at(d, factor)
    times = grid.local_times(taus)
    # a forced problem's boundary data at every Gauss time, read at once;
    # the pickups are applied per interval, which keeps the (N, 5*factor,
    # m) forcing from ever being formed
    data = None if problem.pickups is None else (
        np.asarray(problem.boundary_data(times.ravel())).reshape(*times.shape, -1))

    density = np.empty((n_int, 3, m))
    galerkin = np.empty(n_int)
    galerkin_abs = np.empty(n_int)

    for n in range(n_int):
        k_n = steps[n]
        y_all, ydot_all = y_tab[n], ydot_tab[n]
        phi_all, phi_d = phi_tab[n], phi_d_tab[n]
        stage = forward.stages[n]
        # L2 projection of phi onto P^{q-1} via orthonormal Legendre modes
        modes = leg_t @ (wts[:, None] * phi_all)
        pphi_all = leg_t.T @ modes
        pphi_d = leg_d.T @ modes

        f_all, g_all = problem.halves(
            y_all, times[n], None if data is None else problem.forcing_from(data[n]))

        delta_t = phi_all - pphi_all
        delta_d = phi_d - pphi_d
        density[n, 0] = k_n * (
            wts @ (-ydot_all * delta_t)
            + w_ex @ (stage.f_vals * delta_d)
            + w_im @ (stage.g_vals * delta_d)
        )
        density[n, 1] = k_n * (wts @ (f_all * phi_all) - w_ex @ (stage.f_vals * phi_d))
        density[n, 2] = k_n * (wts @ (g_all * phi_all) - w_im @ (stage.g_vals * phi_d))

        # Orthogonality residual of the reconstruction against pi phi,
        # scaled by the size of its three constituent terms so that it is
        # meaningful even when the forward solution has blown up.
        t1 = k_n * float(np.sum((wts[:, None] * ydot_all) * pphi_all))
        t2 = k_n * float(np.sum((w_ex[:, None] * stage.f_vals) * pphi_d))
        t3 = k_n * float(np.sum((w_im[:, None] * stage.g_vals) * pphi_d))
        galerkin_abs[n] = abs(t1 - t2 - t3)
        galerkin[n] = galerkin_abs[n] / (1.0 + abs(t1) + abs(t2) + abs(t3))

    per_interval = density.sum(axis=2)
    totals = per_interval.sum(axis=0)
    return ErrorBreakdown(
        e1=float(totals[0]), e2=float(totals[1]), e3=float(totals[2]),
        per_interval=per_interval, term_density=density,
        galerkin_scaled=galerkin, galerkin_raw=galerkin_abs,
    )


def error_breakdown(problem: SplitOdeProblem, pair: ImexPair,
                    forward: ForwardSolution, recon: PiecewisePolynomial,
                    adjoint: AdjointSolution) -> ErrorBreakdown:
    """Breakdown for a final-time QoI (y(T), psi)."""
    if adjoint.qoi.kind != "final-time":
        raise ValueError("error_breakdown needs a final-time adjoint; "
                         "use error_breakdown_timedep for integrated QoIs")
    return _assemble(problem, pair, forward, recon, adjoint)


def error_breakdown_timedep(problem: SplitOdeProblem, pair: ImexPair,
                            forward: ForwardSolution, recon: PiecewisePolynomial,
                            adjoint: AdjointSolution) -> ErrorBreakdown:
    """Breakdown for a time-integrated QoI int (y, psi_tilde) dt."""
    if adjoint.qoi.kind != "time-integrated":
        raise ValueError("error_breakdown_timedep needs a time-integrated adjoint")
    return _assemble(problem, pair, forward, recon, adjoint)


def component_split(breakdown: ErrorBreakdown,
                    masks: dict[str, np.ndarray]) -> dict[str, tuple[float, float, float]]:
    """Restrict each estimate term to the blocks of a state partition, given
    as boolean masks by block name; block sums reproduce the totals."""
    m = breakdown.term_density.shape[2]
    cover = np.zeros(m, dtype=int)
    out = {}
    for name, mask in masks.items():
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (m,):
            raise ValueError(f"block {name!r} is not a boolean mask of the "
                             f"state dimension {m}")
        cover += mask
        sums = breakdown.term_density[:, :, mask].sum(axis=(0, 2))
        out[name] = (float(sums[0]), float(sums[1]), float(sums[2]))
    if not np.all(cover == 1):
        raise ValueError("blocks must partition the state indices")
    return out


def residual_weighted_estimate(problem: SplitOdeProblem,
                               recon: PiecewisePolynomial,
                               adjoint: AdjointSolution) -> float:
    """Direct evaluation of sum_n <f(Y) + g(Y) - Ydot, phi>: equals
    e1 + e2 + e3 up to the (roundoff-size) orthogonality residual."""
    grid = recon.grid
    factor = _subinterval_factor(grid.n_intervals, adjoint)
    taus, wts, y_tab, ydot_tab = recon.gauss_table(factor)
    phi_tab = adjoint.poly.at(taus, factor)
    times = grid.local_times(taus)
    total = 0.0
    for n, k_n in enumerate(grid.steps):
        resid = problem.rhs(y_tab[n], times[n]) - ydot_tab[n]
        total += k_n * float(np.sum((wts[:, None] * resid) * phi_tab[n]))
    return total
