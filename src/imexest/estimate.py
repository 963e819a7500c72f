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
come from its Gauss table, phi from ``PiecewisePolynomial.reader`` at the
same points and at the stage abscissae.
The quadrature sums reuse the recorded stage f and g values, so e2/e3
vanish to roundoff exactly when the stage quadrature integrates the
weighted term exactly.

The grid is walked a block of consecutive intervals at a time, and each
block reads its own Y, Ydot, phi at both point sets and stage f and g
values, so the working memory is a fixed number of blocks at any N.
Each block's projections, density rows and Galerkin residuals are one
broadcast product, with one ``problem.halves`` call a block, which reads
a forced problem's forcing at the block's Gauss times alone.  A block
holds max(1, BLOCK_FLOATS // (points * m)) intervals, so each of its
(intervals, points, m) arrays stays within 256 KiB: a whole
advection-diffusion grid of m = 20-40 is one or two blocks, while MHD
(m = 398, 20 points) takes 4 intervals a block, as larger blocks there
ran slower and grew the peak memory.  Every product is made slab by
slab, so a block's values are bit for bit those of one interval alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .adjoint import AdjointSolution
from .numerics import legendre_shifted
from .problems import SplitOdeProblem
from .reconstruct import PiecewisePolynomial
from .solver import ForwardSolution
from .tableaus import ImexPair

# Floats in one (intervals, points, m) array of a block: 2**15 floats is
# 256 KiB, which stays in a core's cache.
BLOCK_FLOATS = 2 ** 15


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


def _subinterval_factor(recon: PiecewisePolynomial, adjoint: AdjointSolution) -> int:
    """How many adjoint subintervals split each reconstruction interval;
    a ValueError unless the adjoint grid is the reconstruction grid with
    every interval split into that many parts, its nodes kept to the bit
    (as ``refine_grid`` keeps them)."""
    n_adj, n_int = adjoint.poly.grid.n_intervals, recon.grid.n_intervals
    factor = n_adj // n_int
    if n_adj % n_int or not np.array_equal(adjoint.poly.grid.nodes[::factor],
                                           recon.grid.nodes):
        raise ValueError("adjoint grid is not a refinement of the forward grid")
    return factor


class _Block(NamedTuple):
    """A run of consecutive intervals at the Gauss points of their adjoint
    subintervals: each array is (intervals, points, m) but ``steps``."""

    span: slice
    steps: np.ndarray  # (intervals,)
    ydot: np.ndarray   # the reconstruction's time derivative
    phi: np.ndarray    # the adjoint
    f: np.ndarray      # f(Y, t) and g(Y, t) of the reconstruction Y
    g: np.ndarray


def _gauss_blocks(problem: SplitOdeProblem, recon: PiecewisePolynomial,
                  adjoint: AdjointSolution, factor: int):
    """The Gauss rule on each of ``factor`` subintervals of every interval:
    its local points and weights, and an iterator over blocks of at most
    BLOCK_FLOATS // (points * m) intervals (at least one), each read from
    the reconstruction and the adjoint on its own, with one
    ``problem.halves`` call for all of its points."""
    taus, wts, read_recon = recon.gauss_table(factor)
    read_phi = adjoint.poly.reader(taus, factor)
    times, steps = recon.grid.local_times(taus), recon.grid.steps
    n_int, points = times.shape
    size = max(1, BLOCK_FLOATS // (points * recon.dim))

    def blocks():
        for start in range(0, n_int, size):
            span = slice(start, start + size)
            y, ydot = read_recon(span)
            f, g = problem.halves(y, times[span])
            yield _Block(span, steps[span], ydot, read_phi(span), f, g)

    return taus, wts, blocks()


def _row_sums(arr: np.ndarray) -> np.ndarray:
    """The sum of each (points, m) slab of a block, summed as one array."""
    return arr.reshape(arr.shape[0], -1).sum(axis=1)


def _assemble(problem: SplitOdeProblem, pair: ImexPair, forward: ForwardSolution,
              recon: PiecewisePolynomial, adjoint: AdjointSolution) -> ErrorBreakdown:
    if not np.array_equal(forward.grid.nodes, recon.grid.nodes):
        raise ValueError("the forward solution and the reconstruction are on "
                         "different grids")
    factor = _subinterval_factor(recon, adjoint)
    taus, wts, blocks = _gauss_blocks(problem, recon, adjoint, factor)
    d = pair.implicit.abscissae
    w_ex = pair.explicit.weights
    w_im = pair.implicit.weights
    n_int = recon.grid.n_intervals
    m = recon.dim

    leg_t = legendre_shifted(recon.degree - 1, taus)     # (q, 5*factor)
    leg_d = legendre_shifted(recon.degree - 1, d)        # (q, nu)
    read_phi_d = adjoint.poly.reader(d, factor)          # phi at the stages

    density = np.empty((n_int, 3, m))
    galerkin = np.empty(n_int)
    galerkin_abs = np.empty(n_int)

    for blk in blocks:
        span, k_n = blk.span, blk.steps[:, None]
        phi, phi_d = blk.phi, read_phi_d(span)
        f_vals = np.stack([rec.f_vals for rec in forward.stages[span]])
        g_vals = np.stack([rec.g_vals for rec in forward.stages[span]])
        # L2 projection of phi onto P^{q-1} via orthonormal Legendre modes
        modes = leg_t @ (wts[:, None] * phi)
        pphi = leg_t.T @ modes
        pphi_d = leg_d.T @ modes

        delta_t = phi - pphi
        delta_d = phi_d - pphi_d
        density[span, 0] = k_n * (
            wts @ (-blk.ydot * delta_t)
            + w_ex @ (f_vals * delta_d)
            + w_im @ (g_vals * delta_d)
        )
        density[span, 1] = k_n * (wts @ (blk.f * phi) - w_ex @ (f_vals * phi_d))
        density[span, 2] = k_n * (wts @ (blk.g * phi) - w_im @ (g_vals * phi_d))

        # Orthogonality residual of the reconstruction against pi phi,
        # scaled by the size of its three constituent terms so that it is
        # meaningful even when the forward solution has blown up.
        t1 = blk.steps * _row_sums((wts[:, None] * blk.ydot) * pphi)
        t2 = blk.steps * _row_sums((w_ex[:, None] * f_vals) * pphi_d)
        t3 = blk.steps * _row_sums((w_im[:, None] * g_vals) * pphi_d)
        galerkin_abs[span] = np.abs(t1 - t2 - t3)
        galerkin[span] = galerkin_abs[span] / (1.0 + np.abs(t1) + np.abs(t2) + np.abs(t3))

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
    _taus, wts, blocks = _gauss_blocks(problem, recon, adjoint,
                                       _subinterval_factor(recon, adjoint))
    total = 0.0
    for blk in blocks:
        resid = blk.f + blk.g - blk.ydot
        for term in (blk.steps * _row_sums((wts[:, None] * resid) * blk.phi)).tolist():
            total += term
    return total
