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
(``reconstruct.sub_gauss_nodes``).  Every local system is assembled
through ``numerics.BlockForm`` on the problem's Jacobian pattern, as a
LAPACK band in the problem's ``node_order``, which its forward Newton
bands share, or densely for a problem without a pattern.  A varying H's systems are formed a
block of refined intervals at a time, the blocks ``numerics.block_spans``
sets: Y at the block's Gauss points, one Jacobian call per nonlinear
half and block, and its values at the pattern serve that block alone.
One backward sweep serves every form.  A constant H is factored once;
in a dense form that solve is applied once, before the sweep, to the
known matrix and to every load.  A time-integrated QoI's load is read a
block of intervals at a time, in forward order.

The sweep runs on a uniform refinement of the forward grid (factor
``refine``, default 4).  The error representation holds for the exact
adjoint, so the estimate sharpens as the adjoint error shrinks; the
refinement keeps the estimate sharp even on coarse forward grids where
a single-interval cG(q+1) adjoint would visibly pollute effectivities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import (GAUSS_NODES, GAUSS_WEIGHTS, BlockForm, LagrangeBasis,
                       block_spans, galerkin_deriv_matrix, legendre_shifted,
                       lu_factor)
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

    One sweep, from the last interval to the first, solves each
    interval's node values from its right end value and its load.  A
    constant operator on a uniform grid has one local system, factored
    once; a dense form applies that solve to the known matrix and the
    loads before the sweep, which then only multiplies.  Otherwise each
    interval factors its own system in the sweep.  The fault the sweep
    reached first fails: a non-finite value on the highest such interval,
    checked as the sweep ends, else a singular system as it is factored.
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
    form = BlockForm(m, r, problem.jac_pattern, problem.node_order)
    op_values = form.values(summed) if ops else 0.0
    basis = LagrangeBasis(np.linspace(0.0, 1.0, r + 1))
    tests = legendre_shifted(q, gp)                 # (r, 5)
    dmat = galerkin_deriv_matrix(r)                 # (r, r+1)
    lvals = basis.eval_matrix(gp)                   # (5, r+1)
    # W[a, j, k] = gw_k * v_a(tau_k) * l_j(tau_k): on interval n, block
    # (a, j) is -dmat[a, j] I - k_n sum_k W[a, j, k] H(t_k)^T
    wgt = np.einsum("ak,jk->ajk", tests, lvals.T * gw)

    def local_system(n):
        """The solve of a linear problem's interval n system in its r
        unknown nodes, and the (r m, m) matrix acting on its known right
        end value."""
        k_wgt = steps[n] * wgt
        blocks = np.multiply.outer(-k_wgt.sum(axis=2), op_values)
        blocks[(Ellipsis, *form.diagonal)] -= dmat[:, :, None]
        system, known = form.system(blocks)
        return lu_factor(system, singular=lambda: AdjointSolveError(
            n, "singular local system")), known

    def varying_systems():
        """Each interval's solve and known matrix, the last interval's
        first, on a sparse form: a block of intervals at a time, its
        arrays within BLOCK_FLOATS, and one gather each for the band
        storages and the known values."""
        neg_wgt = -wgt.reshape(r * (r + 1), gp.size)
        floats = max(r * m * form.height, r * (r + 1) * form.rows.size + 1)
        # Y at each forward interval's refine * 5 sub-Gauss points
        read = reconstruction.reader(sub_gauss_nodes(refine))

        def block_values(span):
            """The (B, r, r + 1, nnz) block values of the B intervals span
            selects: H^T at their Gauss points, from one jac call per
            nonlinear half, in one product, -D on the blocks' diagonals."""
            block = range(n_int)[span]
            # Y on the forward intervals the block meets, one row per Gauss
            # point; the block's rows start inside the first of them
            states = read(slice(block.start // refine, (block.stop - 1) // refine + 1))
            start = (block.start % refine) * gp.size
            states = states.reshape(-1, m)[start:start + len(block) * gp.size]
            values = [jac(states) for jac in jacs]
            hts = form.scatter(sum(values[1:], values[0])).reshape(len(block), gp.size, -1)
            hts += op_values
            blocks = ((steps[span, None, None] * neg_wgt) @ hts).reshape(
                -1, r, r + 1, form.rows.size)
            blocks[(Ellipsis, *form.diagonal)] -= dmat[:, :, None]
            return blocks

        for span in reversed(block_spans(n_int, 1, floats)):
            # the block's Jacobian values die before its gather
            abs_, knowns = form.gather(block_values(span))
            for i in range(len(abs_) - 1, -1, -1):
                solve = lu_factor(form.band(abs_[i]), singular=lambda: AdjointSolveError(
                    span.start + i, "singular local system"))
                form.known.data[:] = knowns[i]
                yield solve, form.known

    if qoi.kind == "final-time":
        phi_right = qoi.psi.astype(float).copy()
        load = None
    else:
        phi_right = np.zeros(m)
        # the density's (r, m) load on every interval, from one read of
        # psi_tilde at each refined Gauss time, in forward order, a block
        # of intervals at a time
        times = grid.local_times(gp)
        load = np.empty((n_int, r, m))
        for span in block_spans(n_int, gp.size, m):
            dens = np.stack([qoi.psi_tilde(t) for t in times[span].ravel()])
            load[span] = steps[span, None, None] * (
                tests @ (gw[:, None] * dens.reshape(-1, gp.size, m)))

    coeffs = np.zeros((n_int, r + 1, m))  # finite where the sweep never reaches
    uniform = bool(np.all(np.abs(steps - steps[0]) <= UNIFORM_TOL * steps[0]))
    if not problem.linear:
        systems = varying_systems()
    elif uniform:
        solve, known = local_system(n_int - 1)
        if form.dense:
            # one solve, before the sweep, of the known matrix (minus the
            # propagator after it) and of every load; the sweep only multiplies
            known = solve(known)
            if load is not None:
                load = solve(load.reshape(n_int, r * m).T).T
            solve = np.asarray  # the identity
        systems = itertools.repeat((solve, known))
    else:
        systems = map(local_system, range(n_int - 1, -1, -1))
    # a non-finite value is reported by the one check below, not warned
    # about, and ahead of a singular system the sweep reached after it
    with np.errstate(all="ignore"):
        try:
            for n, (solve, known) in zip(range(n_int - 1, -1, -1), systems):
                rhs = -(known @ phi_right)
                if load is not None:
                    rhs += load[n].reshape(r * m)
                coeffs[n, :r] = solve(rhs).reshape(r, m)
                coeffs[n, r] = phi_right
                phi_right = coeffs[n, 0]
        finally:
            # each interval's max and min carry a NaN and reach +-inf, with
            # no (N, r, m) temporary
            nodes = coeffs[:, :r]
            finite = np.isfinite(nodes.max(axis=(1, 2))) & np.isfinite(nodes.min(axis=(1, 2)))
            if not finite.all():
                # the interval the backward sweep reaches first
                n_bad = int(np.flatnonzero(~finite)[-1])
                raise AdjointSolveError(n_bad, "non-finite adjoint values")

    poly = PiecewisePolynomial(grid=grid, degree=r, coeffs=coeffs)
    return AdjointSolution(poly=poly, qoi=qoi)
