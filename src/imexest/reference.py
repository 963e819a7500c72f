"""Reference ("true") QoI values used to judge the estimator.

Two routes: the problem's exact solution when one is attached, or a
high-order adaptive integration of the same ODE system at tolerances far
below the IMEX error being measured.  The reference always targets the
ODE system itself, so effectivities are not polluted by spatial
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.sparse import csr_matrix

from .numerics import DEFAULT_INNER_RULE
from .problems import QoiSpec, SplitOdeProblem
from .solver import TimeGrid

MODES = ("auto", "analytic", "high-order-numeric")
RTOL_FLOOR = 1e-13


class ReferenceError(RuntimeError):
    pass


@dataclass
class ReferenceConfig:
    mode: str = "auto"
    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = np.inf
    step_cap: int = 10_000_000
    verify: bool = False
    verify_ratio: float = 1e-3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"reference mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.verify, bool):
            raise ValueError(f"reference verify must be true or false, "
                             f"got {self.verify!r}")
        for name, ok, bound in (("rtol", self.rtol > 0, "> 0"),
                                ("atol", self.atol >= 0, ">= 0"),
                                ("max_step", self.max_step > 0, "> 0"),
                                ("step_cap", self.step_cap >= 1, ">= 1"),
                                ("verify_ratio", self.verify_ratio > 0, "> 0")):
            if not ok:
                raise ValueError(f"reference {name} must be {bound}, "
                                 f"got {getattr(self, name)!r}")


def resolve_mode(mode: str, problem: SplitOdeProblem) -> str:
    """The route a reference takes: "auto" becomes "analytic" when the
    problem carries an exact solution and "high-order-numeric" otherwise."""
    if mode == "auto":
        return "analytic" if problem.analytic is not None else "high-order-numeric"
    return mode


def qoi_from_states(states_at, grid: TimeGrid, qoi: QoiSpec) -> float:
    """QoI of the trajectory t -> states_at(t): the final-time functional
    at grid.t_end, or the shared Gauss rule on every grid interval."""
    if qoi.kind == "final-time":
        return float(np.dot(states_at(grid.t_end), qoi.psi))
    total = 0.0
    gp, gw = DEFAULT_INNER_RULE.mapped(0.0, 1.0)
    for n in range(grid.n_intervals):
        k_n = grid.steps[n]
        for tau, w in zip(gp, gw):
            t = grid.nodes[n] + k_n * tau
            total += k_n * w * float(np.dot(states_at(t), qoi.psi_tilde(t)))
    return total


def _analytic_qoi(problem: SplitOdeProblem, grid: TimeGrid, qoi: QoiSpec) -> float:
    states_at = problem.analytic or problem.pde_solution
    if states_at is None:
        raise ReferenceError(
            f"problem {problem.name!r} has no analytic or sampled exact solution"
        )
    return qoi_from_states(states_at, grid, qoi)


def ivp_rhs(problem: SplitOdeProblem):
    """The full right-hand side (t, y) -> f(y, t) + g(y, t) for an ODE solver.

    A linear problem is applied as one sparse operator built once here:
    jac_f + jac_g, augmented by the boundary pickups of a forced problem
    and applied to the state stacked with the boundary data.  Any other
    problem evaluates problem.rhs.
    """
    if not problem.linear:
        return lambda t, y: problem.rhs(y, t)
    jac = problem.jac_f(problem.y0) + problem.jac_g(problem.y0)
    if problem.boundary is None:
        op = csr_matrix(jac)
        return lambda t, y: op @ y
    pick, data = problem.boundary
    op = csr_matrix(np.hstack((jac, pick)))
    return lambda t, y: op @ np.concatenate((y, data(t)))


def _numeric_qoi(problem: SplitOdeProblem, grid: TimeGrid, qoi: QoiSpec,
                 rtol: float, atol: float, max_step: float, step_cap: int) -> float:
    t_span = (float(grid.nodes[0]), grid.t_end)
    rhs = ivp_rhs(problem)
    # DOP853 makes two evaluations to start and n_stages per attempted step
    budget = 2 + DOP853.n_stages * step_cap
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise ReferenceError(f"reference integration attempted more than "
                                 f"{step_cap} steps (cap {step_cap})")
        return rhs(t, y)

    if qoi.kind == "final-time":
        fun = counted
        z0 = problem.y0
    else:
        def fun(t, z):
            y = z[:-1]
            return np.append(counted(t, y), np.dot(y, qoi.psi_tilde(t)))
        z0 = np.append(problem.y0, 0.0)
    sol = solve_ivp(fun, t_span, z0, method="DOP853", rtol=rtol, atol=atol,
                    max_step=max_step, dense_output=False)
    if not sol.success:
        raise ReferenceError(f"reference integration failed: {sol.message}")
    z_end = sol.y[:, -1]
    if qoi.kind == "final-time":
        return float(np.dot(z_end, qoi.psi))
    return float(z_end[-1])


def true_qoi(problem: SplitOdeProblem, grid: TimeGrid, qoi: QoiSpec,
             config: ReferenceConfig | None = None,
             imex_qoi: float | None = None) -> float:
    """Reference QoI value.

    mode="auto" prefers the exact solution when the problem carries one
    and falls back to the high-order numeric route.  With verify=True the
    numeric route is repeated at halved tolerances; if the change is not
    small relative to the IMEX error being measured (imex_qoi must then
    be given), the tolerances are tightened and the solve retried before
    giving up.
    """
    config = config or ReferenceConfig()
    if resolve_mode(config.mode, problem) == "analytic":
        return _analytic_qoi(problem, grid, qoi)

    rtol, atol = config.rtol, config.atol
    for _ in range(3):
        q1 = _numeric_qoi(problem, grid, qoi, rtol, atol, config.max_step,
                          config.step_cap)
        if not config.verify:
            return q1
        q2 = _numeric_qoi(problem, grid, qoi, rtol / 2.0, atol / 2.0,
                          config.max_step, config.step_cap)
        drift = abs(q1 - q2)
        if imex_qoi is None:
            # no external scale: accept when the halving barely moves the value
            if drift <= max(config.rtol * max(1.0, abs(q2)), 10 * config.atol):
                return q2
        else:
            if drift <= config.verify_ratio * abs(q2 - imex_qoi):
                return q2
        if rtol <= RTOL_FLOOR:
            break
        rtol = max(rtol * 1e-2, RTOL_FLOOR)
        atol = atol * 1e-2
    raise ReferenceError(
        "reference not converged: tolerance halving still moves the QoI by "
        f"{drift:.3e}"
    )
