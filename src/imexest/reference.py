"""Reference ("true") QoI values used to judge the estimator.

Two routes: the problem's exact solution when one is attached, or a
high-order integration of the same ODE system far more accurate than
the IMEX error being measured.  Mode "auto" targets the ODE system
itself, so its effectivities are not polluted by spatial discretization
error.  Mode "analytic" samples ``problem.analytic`` or, failing that,
``problem.pde_solution``: on a method-of-lines problem such as the
Alfven wave that is the PDE's solution, and the true error it gives
includes the spatial error, which the estimate does not see.

The numeric route integrates with ``solve_ivp`` in one of two ways.

* A linear problem with boundary forcing (the Alfven wave) takes the
  fixed-step Radau IIA method of ``RadauIIA`` (Hairer and Wanner,
  *Solving ODEs II*, IV.5 and IV.8): 3 stages, order 5, L-stable and
  stiffly accurate, with one LU per solve (sparse here).  The step is
  k = T / n with n = 100 or, if that step exceeds ``max_step``, the
  smallest n whose step does not.  n doubles until two successive
  solves agree:
  |q_2n - q_n| <= max(rtol / 100, 1e-12) * |q_2n| + atol / 100,
  and q_2n is returned.  The relative part sits a hundredfold below
  rtol but never below 1e-12, ten times the roundoff floor (about 1e-13
  on the Alfven wave, where errors below it no longer fall with k), so
  the doubling stops at any rtol down to RTOL_FLOOR.  The grid is
  uniform: on the Alfven wave, grading the first step geometrically
  towards t = 0, in up to 32 halvings, moved the error by under 10% at
  every n, for final-time and time-integrated QoIs alike.  The stages'
  forcing, the sum of the two halves ``problem.forcing`` gives, is read
  for blocks of at most RADAU_START_STEPS steps in one call each, never
  for a whole level, whose length only ``step_cap`` bounds.
* Any other problem takes scipy's adaptive DOP853 at rtol and atol.

``step_cap`` bounds the steps a numeric QoI attempts: DOP853's attempted
steps, rejected ones included, and every Radau IIA step of every
doubling level, each checked as it starts.  Per ``solve_ivp`` call,
``nfev`` counts 3 per Radau step, one forcing row per stage (6 for a
time-integrated QoI, whose integrand is read at the stage values), or
12 right-hand-side calls per DOP853 attempt plus 2 to start (and 3 per
accepted step for a dense solve's interpolant), and ``t.size - 1``
counts the accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from scipy import sparse
from scipy.integrate import DOP853, OdeSolver, solve_ivp

from .numerics import GAUSS_NODES, GAUSS_WEIGHTS, identity_like, kron, lu_factor
from .problems import QoiSpec, SplitOdeProblem
from .solver import TimeGrid

MODES = ("auto", "analytic", "high-order-numeric")
RTOL_FLOOR = 1e-13
RADAU_START_STEPS = 100

_SQRT6 = math.sqrt(6.0)
RADAU_C = np.array([(4.0 - _SQRT6) / 10.0, (4.0 + _SQRT6) / 10.0, 1.0])
RADAU_A = np.array([
    [(88.0 - 7.0 * _SQRT6) / 360.0, (296.0 - 169.0 * _SQRT6) / 1800.0,
     (-2.0 + 3.0 * _SQRT6) / 225.0],
    [(296.0 + 169.0 * _SQRT6) / 1800.0, (88.0 + 7.0 * _SQRT6) / 360.0,
     (-2.0 - 3.0 * _SQRT6) / 225.0],
    [(16.0 - _SQRT6) / 36.0, (16.0 + _SQRT6) / 36.0, 1.0 / 9.0],
])


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
        for name, ok, bound in (("rtol", self.rtol >= RTOL_FLOOR, f">= {RTOL_FLOOR:g}"),
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


def qoi_from_states(states, grid: TimeGrid, qoi: QoiSpec) -> float:
    """QoI of a trajectory from its states: the state at grid.t_end for a
    final-time QoI, or the (N, 5, m) states at the shared Gauss rule's
    points on every grid interval for a time-integrated one."""
    if qoi.kind == "final-time":
        return float(np.dot(states, qoi.psi))
    total = 0.0
    for k_n, times, row in zip(grid.steps, grid.local_times(GAUSS_NODES), states):
        for t, w, y in zip(times, GAUSS_WEIGHTS, row):
            total += k_n * w * float(np.dot(y, qoi.psi_tilde(t)))
    return total


def reference_operator(problem: SplitOdeProblem) -> sparse.csr_array:
    """A linear problem's full right-hand side as one CSR operator:
    f_op + g_op, with the summed boundary pickups of a forced problem
    appended as columns that act on the boundary data."""
    op = problem.f_op + problem.g_op
    if problem.pickups is not None:
        pick_f, pick_g = problem.pickups
        op = sparse.hstack((op, pick_f + pick_g), format="csr")
    return sparse.csr_array(op)


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


def _over_cap(config: ReferenceConfig) -> ReferenceError:
    return ReferenceError(f"reference integration attempted more than "
                          f"{config.step_cap} steps (cap {config.step_cap})")


def _dop853(fun, t_span: tuple, z0: np.ndarray, rtol: float, atol: float,
            config: ReferenceConfig, dense: bool = False):
    """The DOP853 solution of z' = fun(t, z) from z0 over t_span; a
    ReferenceError once it starts step config.step_cap + 1 or fails."""
    # DOP853 makes two evaluations to start and n_stages per attempted
    # step; a dense solve's interpolant makes more per accepted step,
    # which are handed back to the budget since they attempt no step
    budget = 2 + DOP853.n_stages * config.step_cap
    calls = 0

    def counted(t, z):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise _over_cap(config)
        return fun(t, z)

    class Interpolated(DOP853):
        def _dense_output_impl(self):
            nonlocal calls
            calls -= len(self.C_EXTRA)
            return super()._dense_output_impl()

    sol = solve_ivp(counted, t_span, z0, method=Interpolated, rtol=rtol,
                    atol=atol, max_step=config.max_step, dense_output=dense)
    if not sol.success:
        raise ReferenceError(f"reference integration failed: {sol.message}")
    return sol


class RadauIIA(OdeSolver):
    """Radau IIA with 3 stages (order 5) on n_steps equal steps.

    fun is never called (``_radau_qoi`` passes None): the solver reads
    the system through its parts.  The leading m = jac.shape[0]
    unknowns y = z[:m] obey the affine system y' = jac y + r(t), whose
    forcing rows forcing(times) gives for a (P,) vector of times as
    (P, m).  Any further unknowns are quadratures with rates
    rate(t, y), which depend on t and y alone, never on themselves.

    The stage values Y solve (I - k A (x) jac) Y = 1 (x) z + k (A (x) I) R,
    R the stages' forcing rows, with one LU made here in jac's form
    (``numerics.kron``), and the step ends at Y_3 (stiffly accurate).
    start_step() is called as each step starts; it may raise to stop the
    solve.  The forcing is read for blocks of at most RADAU_START_STEPS
    steps, each block as its first step starts, after start_step().
    ``nfev`` counts 3 per step for the stages' forcing rows, and 3 more
    for the rates when there are quadratures.
    """

    def __init__(self, fun, t0, y0, t_bound, vectorized, jac, forcing,
                 n_steps, start_step, rate=None):
        super().__init__(fun, t0, y0, t_bound, vectorized)
        self.m = jac.shape[0]
        self.t_start, self.n_steps, self.taken = t0, n_steps, 0
        self.k = (t_bound - t0) / n_steps
        self.forcing, self.rate, self.start_step = forcing, rate, start_step
        system = identity_like(jac, 3 * self.m) - self.k * kron(RADAU_A, jac)
        self.lu = lu_factor(system, singular=ReferenceError(
            "singular Radau IIA stage system"))
        self.nlu = 1

    def _step_impl(self):
        self.start_step()
        m, k, z = self.m, self.k, self.y
        at = self.taken % RADAU_START_STEPS
        if at == 0:
            # the block's stage times, as self.t + RADAU_C * k gives them per step
            first = self.taken + np.arange(min(RADAU_START_STEPS,
                                               self.n_steps - self.taken))
            self.block_times = (self.t_start + first * k)[:, None] + RADAU_C * k
            self.block = self.forcing(self.block_times.ravel()).reshape(-1, 3, m)
        times, forcing = self.block_times[at], self.block[at]
        stages = self.lu(np.tile(z[:m], 3)
                         + k * (RADAU_A @ forcing).ravel()).reshape(3, m)
        self.nfev += 3
        if self.n > m:
            rates = np.array([self.rate(t, y) for t, y in zip(times, stages)])
            self.nfev += 3
            self.y = np.concatenate((stages[-1], z[m:] + k * RADAU_A[-1]
                                     @ rates.reshape(3, -1)))
        else:
            self.y = stages[-1]
        self.taken += 1
        if self.taken < self.n_steps:
            self.t = self.t_start + self.taken * k
        else:
            # the solver lives on in a reference cycle until the garbage
            # collector runs; its factors (about 12 MB in SuperLU's
            # workspace for table 14) and forcing block need not
            self.t, self.lu, self.block = self.t_bound, None, None
        return True, None


def _radau_qoi(jac, forcing, rate, t_span: tuple, z0: np.ndarray,
               value, config: ReferenceConfig):
    """value(z(T)) from RadauIIA solves with doubling step counts: the value
    the rule in the module docstring accepts, then the value of each
    further doubling level; a ReferenceError as any step past
    config.step_cap, summed over the solves, starts."""
    steps = 0

    def start_step():
        nonlocal steps
        steps += 1
        if steps > config.step_cap:
            raise _over_cap(config)

    def level(n):
        # RadauIIA reads the system through jac, forcing and rate alone
        sol = solve_ivp(None, t_span, z0, method=RadauIIA, jac=jac,
                        forcing=forcing, rate=rate, n_steps=n,
                        start_step=start_step)
        return value(sol.y[:, -1])

    # a level longer than step_cap stops at the cap whatever its length,
    # so the min only keeps a tiny max_step from overflowing the count
    length = t_span[1] - t_span[0]
    n = max(RADAU_START_STEPS,
            math.ceil(min(length / config.max_step, config.step_cap + 1)))
    coarse, fine = level(n), level(2 * n)
    while abs(fine - coarse) > (max(config.rtol / 100.0, 10.0 * RTOL_FLOOR)
                                * abs(fine) + config.atol / 100.0):
        n *= 2
        coarse, fine = fine, level(2 * n)
    while True:
        yield fine
        n *= 2
        fine = level(2 * n)


def _numeric_qoi(problem: SplitOdeProblem, grid: TimeGrid, qoi: QoiSpec,
                 config: ReferenceConfig):
    """The numeric QoI at config's rtol and atol, then values of finer
    solves, each computed when asked for: Radau IIA at every further
    doubling level, or DOP853 at a hundredth of the previous rtol and
    atol, the rtol never below RTOL_FLOOR, until it reaches RTOL_FLOOR."""
    if qoi.kind == "final-time":
        rate, z0 = None, problem.y0

        def value(z):
            return float(np.dot(z, qoi.psi))
    else:
        def rate(t, y):
            return np.dot(y, qoi.psi_tilde(t))
        z0 = np.append(problem.y0, 0.0)

        def value(z):
            return float(z[-1])
    t_span = (float(grid.nodes[0]), grid.t_end)
    if problem.linear and problem.pickups is not None:
        def forcing(times):
            force_f, force_g = problem.forcing(times)
            return force_f + force_g
        yield from _radau_qoi(problem.f_op + problem.g_op, forcing, rate,
                              t_span, z0, value, config)
        return
    # only DOP853 calls the right-hand side
    fun = rhs = ivp_rhs(problem)
    if rate is not None:
        def fun(t, z):
            y = z[:-1]
            return np.append(rhs(t, y), rate(t, y))
    rtol, atol = config.rtol, config.atol
    yield value(_dop853(fun, t_span, z0, rtol, atol, config).y[:, -1])
    while rtol > RTOL_FLOOR:
        rtol, atol = max(rtol / 100.0, RTOL_FLOOR), atol / 100.0
        yield value(_dop853(fun, t_span, z0, rtol, atol, config).y[:, -1])


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
    and falls back to the high-order numeric route.  With verify=True
    each numeric value is checked against the next, finer one
    _numeric_qoi gives, for at most three comparisons, and the first
    finer value that agrees is returned.  They agree when the change is
    small relative to the IMEX error being measured (imex_qoi), or
    without imex_qoi, relative to the value and the tolerances.
    """
    config = config or ReferenceConfig()
    exact = exact_solution(problem, config.mode)
    if exact is not None:
        if qoi.kind == "final-time":
            return qoi_from_states(exact(grid.t_end), grid, qoi)
        times = grid.local_times(GAUSS_NODES)
        return qoi_from_states([[exact(t) for t in row] for row in times], grid, qoi)

    values = _numeric_qoi(problem, grid, qoi, config)
    q = next(values)
    if not config.verify:
        return q
    drift = None
    # islice asks for no value past the third comparison
    for finer in islice(values, 3):
        drift = abs(finer - q)
        if imex_qoi is None:
            # no external scale: accept when the finer solve barely moves the value
            if drift <= max(config.rtol * max(1.0, abs(finer)), 10 * config.atol):
                return finer
        elif drift <= config.verify_ratio * abs(finer - imex_qoi):
            return finer
        q = finer
    if drift is None:
        raise ReferenceError(f"reference not converged: rtol {config.rtol} "
                             "leaves no finer solve to check against")
    raise ReferenceError(
        "reference not converged: a finer solve still moves the QoI by "
        f"{drift:.3e}"
    )
