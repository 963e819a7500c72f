"""Reference ("true") QoI values used to judge the estimator.

Two routes: the problem's exact solution when one is attached, or a
high-order adaptive integration of the same ODE system at tolerances far
below the IMEX error being measured.  Mode "auto" targets the ODE system
itself, so its effectivities are not polluted by spatial discretization
error.  Mode "analytic" samples ``problem.analytic`` or, failing that,
``problem.pde_solution``: on a method-of-lines problem such as the
Alfven wave that is the PDE's solution, and the true error it gives
includes the spatial error, which the estimate does not see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.integrate import DOP853, solve_ivp

from .numerics import GAUSS_NODES, GAUSS_WEIGHTS
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


def exact_solution(problem: SplitOdeProblem, mode: str):
    """The exact trajectory t -> state a reference samples in this mode, or
    None for the high-order numeric route.

    "auto" takes ``problem.analytic`` when there is one; "analytic" takes
    it, else ``problem.pde_solution``, and raises ReferenceError with
    neither; "high-order-numeric" never samples.
    """
    if mode == "high-order-numeric":
        return None
    if mode == "auto" or problem.analytic is not None:
        return problem.analytic
    if problem.pde_solution is None:
        raise ReferenceError(
            "mode 'analytic' needs an analytic or sampled exact solution; "
            f"problem {problem.name!r} has neither")
    return problem.pde_solution


def qoi_from_states(states_at, grid: TimeGrid, qoi: QoiSpec) -> float:
    """QoI of the trajectory t -> states_at(t): the final-time functional
    at grid.t_end, or the shared Gauss rule on every grid interval."""
    if qoi.kind == "final-time":
        return float(np.dot(states_at(grid.t_end), qoi.psi))
    total = 0.0
    for n in range(grid.n_intervals):
        k_n = grid.steps[n]
        for tau, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            t = grid.nodes[n] + k_n * tau
            total += k_n * w * float(np.dot(states_at(t), qoi.psi_tilde(t)))
    return total


def reference_operator(problem: SplitOdeProblem) -> sparse.csr_array:
    """A linear problem's full right-hand side as one CSR operator:
    f_op + g_op, with the summed boundary pickups of a forced problem
    appended as columns that act on the boundary data."""
    op = sparse.csr_array(problem.f_op) + sparse.csr_array(problem.g_op)
    if problem.pickups is not None:
        pick_f, pick_g = map(sparse.csr_array, problem.pickups)
        op = sparse.hstack((op, pick_f + pick_g), format="csr")
    return op


def ivp_rhs(problem: SplitOdeProblem):
    """The full right-hand side (t, y) -> f(y, t) + g(y, t) for an ODE solver.

    A linear problem applies its reference_operator, built once here, to
    the state stacked with the boundary data of a forced problem.  Any
    other problem evaluates problem.rhs.
    """
    if not problem.linear:
        return lambda t, y: problem.rhs(y, t)
    op = reference_operator(problem)
    data = problem.boundary_data
    if data is None:
        return lambda t, y: op @ y
    return lambda t, y: op @ np.concatenate((y, data(t)))


def _dop853(fun, t_span: tuple, z0: np.ndarray, rtol: float, atol: float,
            config: ReferenceConfig, dense: bool = False):
    """The DOP853 solution of z' = fun(t, z) from z0 over t_span; a
    ReferenceError once it starts step config.step_cap + 1 or fails."""
    # DOP853 makes two evaluations to start and n_stages per attempted
    # step; a dense solve makes three more per accepted step for its
    # interpolant, so each rejected step leaves a fifth of a step unspent
    budget = 2 + (DOP853.n_stages + 3 * dense) * config.step_cap
    calls = 0

    def counted(t, z):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise ReferenceError(f"reference integration attempted more than "
                                 f"{config.step_cap} steps (cap {config.step_cap})")
        return fun(t, z)

    sol = solve_ivp(counted, t_span, z0, method="DOP853", rtol=rtol,
                    atol=atol, max_step=config.max_step, dense_output=dense)
    if not sol.success:
        raise ReferenceError(f"reference integration failed: {sol.message}")
    return sol


def _numeric_qoi(problem: SplitOdeProblem, grid: TimeGrid, qoi: QoiSpec,
                 rtol: float, atol: float, config: ReferenceConfig) -> float:
    rhs = ivp_rhs(problem)
    if qoi.kind == "final-time":
        fun = rhs
        z0 = problem.y0
    else:
        def fun(t, z):
            y = z[:-1]
            return np.append(rhs(t, y), np.dot(y, qoi.psi_tilde(t)))
        z0 = np.append(problem.y0, 0.0)
    t_span = (float(grid.nodes[0]), grid.t_end)
    z_end = _dop853(fun, t_span, z0, rtol, atol, config).y[:, -1]
    if qoi.kind == "final-time":
        return float(np.dot(z_end, qoi.psi))
    return float(z_end[-1])


def reference_states(problem: SplitOdeProblem, t_end: float,
                     config: ReferenceConfig | None = None):
    """The reference trajectory on [0, t_end] as nodes -> (P, m) states:
    the exact solution config.mode picks, else DOP853's dense output at
    config.rtol, atol, max_step and step_cap (verify and verify_ratio
    judge a QoI and are not read here)."""
    config = config or ReferenceConfig()
    exact = exact_solution(problem, config.mode)
    if exact is not None:
        return lambda nodes: np.stack([exact(t) for t in nodes])
    sol = _dop853(ivp_rhs(problem), (0.0, t_end), problem.y0, config.rtol,
                  config.atol, config, dense=True)
    return lambda nodes: sol.sol(nodes).T


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
    exact = exact_solution(problem, config.mode)
    if exact is not None:
        return qoi_from_states(exact, grid, qoi)

    rtol, atol = config.rtol, config.atol
    for _ in range(3):
        q1 = _numeric_qoi(problem, grid, qoi, rtol, atol, config)
        if not config.verify:
            return q1
        q2 = _numeric_qoi(problem, grid, qoi, rtol / 2.0, atol / 2.0, config)
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
