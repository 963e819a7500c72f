"""Forward time stepping for split systems with an IMEX pair.

Stage i solves

    X = Y_n + k_n * sum_{j<i} A[i,j] f_j + k_n * sum_{j<=i} B[i,j] g_j

where only the B[i,i] g(X) term is implicit.  Every stage runs Newton's
method on that equation; a zero implicit diagonal entry makes the stage
explicit, and its residual is zero at the first check.  All
right-hand-side evaluations, including the explicit half, are pinned to
the implicit abscissae times t_n + k_n d_i, which is what the shared
quadrature of the error estimator assumes.

Newton's matrix is I - c J_g with c = k_n B[i,i], laid out by
``numerics.StageForm``: a LAPACK band on the problem's Jacobian
pattern, in the node order the adjoint's and the reference's bands
share, or a dense array for a problem without a pattern.
``newton_solves`` alone factors it: a linear problem's once per c, any
other's on every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import StageForm, lu_factor
from .problems import SplitOdeProblem
from .tableaus import ImexPair, validate


class SolverError(RuntimeError):
    """A stage that failed: a non-finite state, Newton non-convergence or
    a singular Newton matrix, with the interval and stage it happened on."""

    def __init__(self, what: str, interval: int, stage: int, detail: str = ""):
        self.interval = interval
        self.stage = stage
        super().__init__(f"{what} on interval {interval}, stage {stage}{detail}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes t_0 < ... < t_N."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def n_intervals(self) -> int:
        return self.nodes.size - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def t_end(self) -> float:
        return float(self.nodes[-1])

    def local_times(self, taus) -> np.ndarray:
        """The (N, len(taus)) times t_n + k_n tau at local points taus of
        every interval."""
        return self.nodes[:-1, None] + self.steps[:, None] * taus

    @classmethod
    def uniform(cls, t_end: float, n_intervals: int) -> "TimeGrid":
        """n_intervals equal intervals of [0, t_end]."""
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        return cls(np.linspace(0.0, t_end, n_intervals + 1))


@dataclass
class NewtonConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_iters: int = 25

    def __post_init__(self):
        for name, ok, bound in (("abs_tol", self.abs_tol >= 0, ">= 0"),
                                ("rel_tol", self.rel_tol >= 0, ">= 0"),
                                ("max_iters", self.max_iters >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"newton {name} must be {bound}, "
                                 f"got {getattr(self, name)!r}")


@dataclass
class StageRecord:
    """Per-interval stage data that later layers read: the f and g values
    at the stages, which the reconstruction and the estimate weigh, and
    the Newton iterations each stage took."""

    f_vals: np.ndarray       # (n_stages, m)
    g_vals: np.ndarray       # (n_stages, m)
    newton_iters: np.ndarray  # (n_stages,) ints, 0 for explicit stages


@dataclass
class ForwardSolution:
    grid: TimeGrid
    nodal: np.ndarray              # (N+1, m)
    stages: list[StageRecord] = field(default_factory=list)

    @property
    def final_state(self) -> np.ndarray:
        return self.nodal[-1]


def newton_solves(problem: SplitOdeProblem):
    """solves(c, x, interval, stage): the solve of the Newton matrix
    I - c J_g(x), laid out by ``numerics.StageForm`` with C = [[1]] on the
    problem's pattern, J_g being g_op, read once, here, or jac_g's values
    at x.  A linear problem's is factored once per c and kept, any other's
    on every call; a zero pivot raises the stage's SolverError."""
    form = StageForm(np.ones((1, 1)), problem.jac_pattern, problem.node_order)
    jac = None if problem.g_op is None else form.values(problem.g_op)
    kept = {}

    def solves(c, x, interval, stage):
        solve = kept.get(c) or lu_factor(
            form.system(c, problem.jac_g(x[None])[0] if jac is None else jac),
            singular=lambda: SolverError("singular Newton matrix", interval, stage))
        if problem.linear:
            kept[c] = solve
        return solve
    return solves


def _newton_stage(problem, t_i, c, known, force_g, newton, solves, interval,
                  stage):
    """Solve X = known + c g(X, t_i), c = k_n bii, by Newton's method;
    returns X, g(X, t_i) as the converged residual read it, and the
    iterations.  An explicit stage (c = 0) has residual 0 at the first
    check.  An unforced problem's force_g is None."""
    x = known
    iters = 0
    while True:
        g = problem.eval_g(x)
        if force_g is not None:
            g = g + force_g
        r = x - c * g - known
        # max propagates NaN and inf: a finite norm is a finite residual,
        # and so a finite x
        rnorm = float(np.abs(r).max())
        if not math.isfinite(rnorm):
            raise SolverError("non-finite state", interval, stage, f", t={t_i:.6g}")
        # rel_tol >= 0, so |x| can only matter past abs_tol
        if rnorm <= newton.abs_tol or (
                rnorm <= newton.abs_tol + newton.rel_tol * float(np.abs(x).max())):
            return x, g, iters
        if iters >= newton.max_iters:
            raise SolverError("Newton did not converge", interval, stage,
                              f": residual {rnorm:.3e} after {iters} iterations")
        x = x + solves(c, x, interval, stage)(-r)
        iters += 1


def step(problem: SplitOdeProblem, pair: ImexPair, t_n: float, k_n: float,
         y_n: np.ndarray, newton: NewtonConfig | None = None,
         interval: int = 0, force=None, solves=None):
    """One IMEX step from (t_n, y_n); returns (y_next, StageRecord).

    A forced problem's step takes ``force``, the (force_f, force_g) pair
    of (n_stages, m) forcing rows at the stage times t_n + k_n d, read
    beforehand; an unforced one takes none.  ``solves`` is the problem's
    ``newton_solves``, made here when not handed in."""
    if (force is None) != (problem.pickups is None):
        raise ValueError("a step takes its stages' forcing exactly when the "
                         "problem is forced")
    newton = newton or NewtonConfig()
    solves = solves or newton_solves(problem)
    a_ex, w_ex = pair.explicit.coeffs, pair.explicit.weights
    b_im, w_im = pair.implicit.coeffs, pair.implicit.weights
    nu = pair.n_stages
    m = y_n.size

    times = t_n + k_n * pair.implicit.abscissae
    f_vals = np.empty((nu, m))
    g_vals = np.empty((nu, m))
    iters = np.zeros(nu, dtype=int)

    for i in range(nu):
        known = y_n.copy()
        if i > 0:
            known += k_n * (a_ex[i, :i] @ f_vals[:i])
            known += k_n * (b_im[i, :i] @ g_vals[:i])
        # Newton returns g at the state it accepted, whose finite residual
        # makes the state finite too: only f is left
        x, g_vals[i], iters[i] = _newton_stage(
            problem, times[i], k_n * b_im[i, i], known,
            None if force is None else force[1][i], newton, solves, interval, i)
        f_vals[i] = problem.eval_f(x)
        if force is not None:
            f_vals[i] += force[0][i]

    y_next = y_n + k_n * (w_ex @ f_vals + w_im @ g_vals)
    if not np.all(np.isfinite(y_next)):
        raise SolverError("non-finite state", interval, nu - 1,
                          f", t={t_n + k_n:.6g}")
    return y_next, StageRecord(f_vals=f_vals, g_vals=g_vals, newton_iters=iters)


def solve_forward(problem: SplitOdeProblem, pair: ImexPair, grid: TimeGrid,
                  newton: NewtonConfig | None = None) -> ForwardSolution:
    """March the IMEX pair over the whole grid.

    A forced problem's forcing is read once, at every stage time of the
    grid: the forcing does not depend on the state, and the grid and the
    tableau fix its times before the first step."""
    issues = validate(pair)
    if issues:
        raise ValueError("invalid tableau pair: " + "; ".join(issues))
    newton = newton or NewtonConfig()
    nodes, steps = grid.nodes, grid.steps
    n_int, m = grid.n_intervals, problem.dim
    nodal = np.empty((n_int + 1, m))
    nodal[0] = problem.y0
    stages: list[StageRecord] = []
    solves = newton_solves(problem)
    forces = [None] * n_int
    if problem.pickups is not None:
        # step's times, t_n + k_n d, in the same float arithmetic
        times = grid.local_times(pair.implicit.abscissae)
        forces = list(zip(*problem.forcing(times)))
    # an overflow is reported by step's own non-finite checks, not warned about
    with np.errstate(all="ignore"):
        for n in range(n_int):
            y_next, record = step(problem, pair, nodes[n], steps[n], nodal[n],
                                  newton, interval=n, force=forces[n],
                                  solves=solves)
            nodal[n + 1] = y_next
            stages.append(record)
    return ForwardSolution(grid=grid, nodal=nodal, stages=stages)
