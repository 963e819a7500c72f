"""Forward time stepping for split systems with an IMEX pair.

Stage i solves

    X = Y_n + k_n * sum_{j<i} A[i,j] f_j + k_n * sum_{j<=i} B[i,j] g_j

where only the B[i,i] g(X) term is implicit; a zero implicit diagonal
entry makes the stage explicit.  All right-hand-side evaluations,
including the explicit half, are pinned to the implicit abscissae times
t_n + k_n d_i, which is what the shared quadrature of the error
estimator assumes.

An implicit stage runs Newton's method on I - k_n B[i,i] J_g, laid out
by ``numerics.StageForm``: a LAPACK band on the problem's Jacobian
pattern, in the node order the adjoint's and the reference's bands
share, or a dense array for a problem without a pattern.  A linear
problem's is factored once per step size and stage coefficient, any
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


def newton_matrix(problem: SplitOdeProblem):
    """The Newton matrix (c, x) -> I - c J_g(x) of a problem at a state x,
    in the form lu_factor takes: ``numerics.StageForm`` with C = [[1]] on
    the problem's pattern, where J_g is g_op, read once, here, or jac_g's
    values at x."""
    form = StageForm(np.ones((1, 1)), problem.jac_pattern, problem.node_order)
    if problem.g_op is None:
        return lambda c, x: form.system(c, problem.jac_g(x[None])[0])
    jac = form.values(problem.g_op)
    return lambda c, x: form.system(c, jac)


def _newton_stage(problem, t_i, c, known, force_g, newton, matrix, solve,
                  interval, stage):
    """Solve X = known + c g(X, t_i), c = k_n bii, by Newton's method;
    returns X, g(X, t_i) as the converged residual read it, the
    iterations and the solve of the last Newton matrix factored, or the
    solve handed in.  A linear problem factors matrix(c, x) on the first
    iteration that needs it, unless it hands in that solve; any other
    problem on every iteration.  An unforced problem's force_g is None."""
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
            return x, g, iters, solve
        if iters >= newton.max_iters:
            raise SolverError("Newton did not converge", interval, stage,
                              f": residual {rnorm:.3e} after {iters} iterations")
        if solve is None or not problem.linear:
            solve = lu_factor(matrix(c, x), singular=lambda: SolverError(
                "singular Newton matrix", interval, stage))
        x = x + solve(-r)
        iters += 1


def step(problem: SplitOdeProblem, pair: ImexPair, t_n: float, k_n: float,
         y_n: np.ndarray, newton: NewtonConfig | None = None,
         interval: int = 0, lu_cache: dict | None = None, force=None,
         matrix=None):
    """One IMEX step from (t_n, y_n); returns (y_next, StageRecord).

    A forced problem's step takes ``force``, the (force_f, force_g) pair
    of (n_stages, m) forcing rows at the stage times t_n + k_n d, read
    beforehand; an unforced one takes none.  ``matrix`` is the problem's
    ``newton_matrix``, built here when not handed in; a linear problem's
    ``lu_cache`` keeps its solves by (k_n, b_ii)."""
    if (force is None) != (problem.pickups is None):
        raise ValueError("a step takes its stages' forcing exactly when the "
                         "problem is forced")
    newton = newton or NewtonConfig()
    matrix = matrix or newton_matrix(problem)
    a_ex, w_ex = pair.explicit.coeffs, pair.explicit.weights
    b_im, w_im = pair.implicit.coeffs, pair.implicit.weights
    d = pair.implicit.abscissae
    nu = pair.n_stages
    m = y_n.size

    times = t_n + k_n * d
    f_vals = np.empty((nu, m))
    g_vals = np.empty((nu, m))
    iters = np.zeros(nu, dtype=int)

    for i in range(nu):
        known = y_n.copy()
        if i > 0:
            known += k_n * (a_ex[i, :i] @ f_vals[:i])
            known += k_n * (b_im[i, :i] @ g_vals[:i])
        bii = b_im[i, i]
        t_i = times[i]
        force_i = None if force is None else (force[0][i], force[1][i])
        if bii == 0.0:
            if not np.all(np.isfinite(known)):
                raise SolverError("non-finite state", interval, i, f", t={t_i:.6g}")
            f_vals[i], g_vals[i] = problem.halves(known, t_i, force_i)
        else:
            # Newton returns g at the state it accepted, whose finite
            # residual makes the state finite too: only f is left
            key = (k_n, bii)
            x, g_vals[i], iters[i], solve = _newton_stage(
                problem, t_i, k_n * bii, known,
                None if force_i is None else force_i[1], newton, matrix,
                None if lu_cache is None else lu_cache.get(key), interval, i)
            if lu_cache is not None and solve is not None:
                lu_cache[key] = solve
            f_vals[i] = problem.eval_f(x)
            if force_i is not None:
                f_vals[i] += force_i[0]

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
    lu_cache: dict | None = {} if problem.linear else None
    matrix = newton_matrix(problem)
    forces = [None] * n_int
    if problem.pickups is not None:
        # step's times, t_n + k_n d, in the same float arithmetic
        times = grid.local_times(pair.implicit.abscissae)
        forces = list(zip(*problem.forcing(times)))
    # an overflow is reported by step's own non-finite checks, not warned about
    with np.errstate(all="ignore"):
        for n in range(n_int):
            y_next, record = step(problem, pair, nodes[n], steps[n], nodal[n],
                                  newton, interval=n, lu_cache=lu_cache,
                                  force=forces[n], matrix=matrix)
            nodal[n + 1] = y_next
            stages.append(record)
    return ForwardSolution(grid=grid, nodal=nodal, stages=stages)
