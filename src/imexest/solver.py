"""Forward time stepping for split systems with an IMEX pair.

Stage i solves

    X = Y_n + k_n * sum_{j<i} A[i,j] f_j + k_n * sum_{j<=i} B[i,j] g_j

where only the B[i,i] g(X) term is implicit; a zero implicit diagonal
entry makes the stage explicit.  All right-hand-side evaluations,
including the explicit half, are pinned to the implicit abscissae times
t_n + k_n d_i, which is what the shared quadrature of the error
estimator assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .numerics import lu_factor
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

    @classmethod
    def uniform(cls, t_end: float, n_intervals: int, t_start: float = 0.0) -> "TimeGrid":
        if n_intervals < 1:
            raise ValueError("need at least one interval")
        return cls(np.linspace(t_start, t_end, n_intervals + 1))

    def locate(self, t: float) -> int:
        """Index n with t in [t_n, t_n+1]; clamps to the end intervals."""
        n = int(np.searchsorted(self.nodes, t, side="right")) - 1
        return min(max(n, 0), self.n_intervals - 1)


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
    """Per-interval stage data: values, their times, and cached f/g values."""

    values: np.ndarray       # (n_stages, m)
    times: np.ndarray        # (n_stages,) implicit-abscissae times
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


def _newton_stage(problem, t_i, k_n, bii, known, force_g, newton, interval,
                  stage, lu_cache):
    x = known.copy()
    iters = 0
    while True:
        r = x - k_n * bii * (problem.eval_g(x) + force_g) - known
        if not np.all(np.isfinite(r)):
            raise SolverError("non-finite state", interval, stage, f", t={t_i:.6g}")
        rnorm = float(np.abs(r).max())
        xnorm = float(np.abs(x).max())
        if rnorm <= newton.abs_tol + newton.rel_tol * xnorm:
            return x, iters
        if iters >= newton.max_iters:
            raise SolverError("Newton did not converge", interval, stage,
                              f": residual {rnorm:.3e} after {iters} iterations")
        key = (k_n, bii)
        if lu_cache is not None and key in lu_cache:
            solve = lu_cache[key]
        else:
            # a linear g half gives its operator, in its own form: a CSR
            # g_op makes a sparse Newton matrix, factored by SuperLU
            jac = problem.jac_g(x) if problem.g_op is None else problem.g_op
            eye = (sparse.eye_array(x.size, format="csc") if sparse.issparse(jac)
                   else np.eye(x.size))
            solve = lu_factor(eye - k_n * bii * jac, singular=SolverError(
                "singular Newton matrix", interval, stage))
            if lu_cache is not None:
                lu_cache[key] = solve
        x = x + solve(-r)
        iters += 1


def step(problem: SplitOdeProblem, pair: ImexPair, t_n: float, k_n: float,
         y_n: np.ndarray, newton: NewtonConfig | None = None,
         interval: int = 0, lu_cache: dict | None = None):
    """One IMEX step from (t_n, y_n); returns (y_next, StageRecord)."""
    newton = newton or NewtonConfig()
    a_ex, w_ex = pair.explicit.coeffs, pair.explicit.weights
    b_im, w_im = pair.implicit.coeffs, pair.implicit.weights
    d = pair.implicit.abscissae
    nu = pair.n_stages
    m = y_n.size

    values = np.empty((nu, m))
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
        # the forcing does not depend on the state: one evaluation per stage
        force = None if problem.pickups is None else problem.forcing(t_i)
        if bii == 0.0:
            x = known
        else:
            x, iters[i] = _newton_stage(problem, t_i, k_n, bii, known,
                                        0.0 if force is None else force[1],
                                        newton, interval, i, lu_cache)
        if not np.all(np.isfinite(x)):
            raise SolverError("non-finite state", interval, i, f", t={t_i:.6g}")
        values[i] = x
        f_vals[i], g_vals[i] = problem.halves(x, t_i, force)

    y_next = y_n + k_n * (w_ex @ f_vals + w_im @ g_vals)
    if not np.all(np.isfinite(y_next)):
        raise SolverError("non-finite state", interval, nu - 1,
                          f", t={t_n + k_n:.6g}")
    record = StageRecord(values=values, times=times, f_vals=f_vals,
                         g_vals=g_vals, newton_iters=iters)
    return y_next, record


def solve_forward(problem: SplitOdeProblem, pair: ImexPair, grid: TimeGrid,
                  newton: NewtonConfig | None = None) -> ForwardSolution:
    """March the IMEX pair over the whole grid."""
    issues = validate(pair)
    if issues:
        raise ValueError("invalid tableau pair: " + "; ".join(issues))
    newton = newton or NewtonConfig()
    nodes = grid.nodes
    nodal = np.empty((grid.n_intervals + 1, problem.dim))
    nodal[0] = problem.y0
    stages: list[StageRecord] = []
    lu_cache: dict | None = {} if problem.linear else None
    # an overflow is reported by step's own non-finite checks, not warned about
    with np.errstate(all="ignore"):
        for n in range(grid.n_intervals):
            y_next, record = step(problem, pair, nodes[n], nodes[n + 1] - nodes[n],
                                  nodal[n], newton, interval=n, lu_cache=lu_cache)
            nodal[n + 1] = y_next
            stages.append(record)
    return ForwardSolution(grid=grid, nodal=nodal, stages=stages)
