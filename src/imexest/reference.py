"""Reference ("true") QoI values used to judge the estimator.

Two routes: the problem's exact solution when one is attached, or a
high-order integration of the same ODE system far more accurate than
the IMEX error being measured.  Mode "auto" targets the ODE system
itself, so its effectivities are not polluted by spatial discretization
error.  Mode "analytic" samples ``problem.analytic`` or, failing that,
``problem.pde_solution``: on a method-of-lines problem such as the
Alfven wave that is the PDE's solution, and the true error it gives
includes the spatial error, which the estimate does not see.

The numeric route runs one of this module's two loops, each through
``solve_ivp``, the one call every numeric solve makes.

* A linear problem with boundary forcing (the Alfven wave) takes
  ``radau_iia``, fixed-step Radau IIA (Hairer and Wanner, *Solving
  ODEs II*, IV.5 and IV.8): 3 stages, order 5, L-stable and stiffly
  accurate, with one LU per solve of its stage system, laid out once per
  reference by ``numerics.StageForm`` (a LAPACK band on the Alfven
  wave's Jacobian pattern, in its node order).  The step is
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
* Any other problem takes ``dop853``, adaptive DOP853 (Hairer, Norsett
  and Wanner, *Solving ODEs I*, II.5) at rtol and atol on
  ``problem.rhs``, so both read boundary data through
  ``problem.forcing``.  It ports scipy 1.17's ``DOP853`` as
  ``solve_ivp`` runs it: the same coefficients, first step, error norm
  and step factors, the same calls in the same order, and the same bits.
  Handed more times than the two ends, as ``reference_states`` hands it
  a grid's nodes, it ends a step on each, so the state there is under
  the error control, which scipy's dense output between steps is not.

Neither loop imports ``scipy.integrate``: that import, with the
``scipy.optimize`` and ``scipy.special`` it loads, took over a third of
a table process's start-up.

``step_cap`` bounds the steps a numeric QoI attempts: DOP853's attempted
steps, rejected ones included, and every Radau IIA step of every
doubling level, each checked as it starts.  Per ``solve_ivp`` call,
``nfev`` counts 3 per Radau step, one forcing row per stage (6 for a
time-integrated QoI, whose integrand is read at the stage values), or
12 right-hand-side calls per DOP853 attempt plus 2 to start, and
``t.size - 1`` counts the accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .numerics import GAUSS_NODES, GAUSS_WEIGHTS, StageForm, lu_factor
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


def _table(shape, entries: dict) -> np.ndarray:
    """Zeros of shape with entries {(row, column): value} set."""
    table = np.zeros(shape)
    for at, value in entries.items():
        table[at] = value
    return table


# DOP853's coefficients (Hairer, Norsett and Wanner, *Solving ODEs I*, II.5,
# and Hairer's Fortran code): 12 stages (rows and nodes 0-11) and the
# order-8 weights (row 12).  Each literal is the shortest that rounds to the
# double of the published 30-digit value; the tests pin every table to
# scipy's.
DOP853_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
DOP853_A = _table((13, 12), {
    (1, 0): 0.05260015195876773,
    (2, 0): 0.0197250569845379, (2, 1): 0.0591751709536137,
    (3, 0): 0.02958758547680685, (3, 2): 0.08876275643042054,
    (4, 0): 0.2413651341592667, (4, 2): -0.8845494793282861, (4, 3): 0.924834003261792,
    (5, 0): 0.037037037037037035, (5, 3): 0.17082860872947386,
    (5, 4): 0.12546768756682242,
    (6, 0): 0.037109375, (6, 3): 0.17025221101954405, (6, 4): 0.06021653898045596,
    (6, 5): -0.017578125,
    (7, 0): 0.03709200011850479, (7, 3): 0.17038392571223998,
    (7, 4): 0.10726203044637328, (7, 5): -0.015319437748624402,
    (7, 6): 0.008273789163814023,
    (8, 0): 0.6241109587160757, (8, 3): -3.3608926294469414, (8, 4): -0.868219346841726,
    (8, 5): 27.59209969944671, (8, 6): 20.154067550477894, (8, 7): -43.48988418106996,
    (9, 0): 0.47766253643826434, (9, 3): -2.4881146199716677,
    (9, 4): -0.590290826836843, (9, 5): 21.230051448181193, (9, 6): 15.279233632882423,
    (9, 7): -33.28821096898486, (9, 8): -0.020331201708508627,
    (10, 0): -0.9371424300859873, (10, 3): 5.186372428844064,
    (10, 4): 1.0914373489967295, (10, 5): -8.149787010746927,
    (10, 6): -18.52006565999696, (10, 7): 22.739487099350505,
    (10, 8): 2.4936055526796523, (10, 9): -3.0467644718982196,
    (11, 0): 2.273310147516538, (11, 3): -10.53449546673725,
    (11, 4): -2.0008720582248625, (11, 5): -17.9589318631188,
    (11, 6): 27.94888452941996, (11, 7): -2.8589982771350235,
    (11, 8): -8.87285693353063, (11, 9): 12.360567175794303,
    (11, 10): 0.6433927460157636,
    (12, 0): 0.054293734116568765, (12, 5): 4.450312892752409,
    (12, 6): 1.8915178993145003, (12, 7): -5.801203960010585,
    (12, 8): 0.3111643669578199, (12, 9): -0.1521609496625161,
    (12, 10): 0.20136540080403034, (12, 11): 0.04471061572777259,
})
DOP853_B = DOP853_A[12]
# the weights of the embedded order-5 and order-3 error estimates, stages 0-12
DOP853_E5 = _table(13, {
    0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
    7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
    10: 0.08192320648511571, 11: -0.022355307863886294,
})
DOP853_E3 = np.append(DOP853_B, 0.0)
DOP853_E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)

# DOP853's step control: the next step is this one times 0.9 err^(-1/8),
# within [_MIN_FACTOR, _MAX_FACTOR], and never grows right after a rejection
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8


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


class Solution(NamedTuple):
    """One solve: the accepted step times t (steps + 1,) and the states y
    (n, steps + 1) at them, from the initial one; and nfev right-hand-side
    calls or forcing rows."""
    t: np.ndarray
    y: np.ndarray
    nfev: int


def solve_ivp(method, t_span, z0: np.ndarray, **options) -> Solution:
    """method(t_span, z0, **options), method ``radau_iia`` or ``dop853``:
    the one call through which every numeric solve of this module runs."""
    return method(t_span, z0, **options)


def _step_counter(config: ReferenceConfig):
    """A start_step() to call as each step starts; it raises ReferenceError
    as step config.step_cap + 1, counted over every call, starts."""
    steps = 0

    def start_step():
        nonlocal steps
        steps += 1
        if steps > config.step_cap:
            raise ReferenceError(f"reference integration attempted more than "
                                 f"{config.step_cap} steps (cap {config.step_cap})")
    return start_step


def radau_iia(t_span: tuple, z0: np.ndarray, *, system, forcing, rate, n_steps: int,
              start_step) -> Solution:
    """Radau IIA with 3 stages (order 5) on n_steps equal steps.

    The leading m unknowns y = z[:m] obey the affine system
    y' = J y + r(t), whose forcing rows forcing(times) gives for a (P,)
    vector of times as (P, m).  Any further unknowns are quadratures with
    rates rate(t, y), which depend on t and y alone, never on themselves;
    rate is None when there are none.

    The stage values Y solve (I - k A (x) J) Y = 1 (x) z + k (A (x) I) R,
    R the stages' forcing rows, with one LU made here of system(k), that
    3 m x 3 m matrix in the form lu_factor takes, and the step ends at
    Y_3 (stiffly accurate).
    start_step() is called as each step starts; it may raise to stop the
    solve.  The forcing is read for blocks of at most RADAU_START_STEPS
    steps, each block as its first step starts, after start_step().
    ``nfev`` counts 3 per step for the stages' forcing rows, and 3 more
    for the rates when there are quadratures.
    """
    t0, t_bound = map(float, t_span)
    k = (t_bound - t0) / n_steps
    matrix = system(k)
    m = matrix.shape[0] // 3
    solve = lu_factor(matrix, singular=lambda: ReferenceError(
        "singular Radau IIA stage system"))
    z, ts, zs, nfev = z0, [t0], [z0], 0
    for step in range(n_steps):
        start_step()
        at = step % RADAU_START_STEPS
        if at == 0:
            # the block's stage times, t_n + RADAU_C * k for each of its steps
            first = step + np.arange(min(RADAU_START_STEPS, n_steps - step))
            block_times = (t0 + first * k)[:, None] + RADAU_C * k
            block = forcing(block_times.ravel()).reshape(-1, 3, m)
        stages = solve(np.tile(z[:m], 3)
                       + k * (RADAU_A @ block[at]).ravel()).reshape(3, m)
        nfev += 3
        if rate is None:
            z = stages[-1]
        else:
            rates = np.array([rate(t, y) for t, y in zip(block_times[at], stages)])
            nfev += 3
            z = np.concatenate((stages[-1], z[m:] + k * RADAU_A[-1]
                                @ rates.reshape(3, -1)))
        ts.append(t0 + (step + 1) * k if step + 1 < n_steps else t_bound)
        zs.append(z)
    return Solution(np.array(ts), np.vstack(zs).T, nfev)


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853_first_step(fun, t0: float, z0, f0, t_bound: float, rtol: float,
                       atol: float, max_step: float) -> float:
    """DOP853's first step, from the sizes of z0, f0 and one more call of
    fun (Hairer, Norsett and Wanner, *Solving ODEs I*, II.4)."""
    length = t_bound - t0
    scale = atol + np.abs(z0) * rtol
    d0, d1 = _rms(z0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, length)
    d2 = _rms((fun(t0 + h0, z0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, length, max_step)


def dop853(t_span, z0: np.ndarray, *, fun, rtol: float, atol: float,
           max_step: float, start_step) -> Solution:
    """The DOP853 solution of z' = fun(t, z) from z0 at rtol, atol and
    max_step over t_span, an increasing sequence of times whose first and
    last bound the solve: a step that would pass the next of them ends on
    it, so every one is an accepted step's time.  Handed (t0, T), this is
    scipy's DOP853 to the bit.

    start_step() is called as each attempted step starts, rejected ones
    included; it may raise to stop the solve.  A step that falls below
    ten spacings of the floats at t raises ReferenceError.
    """
    nfev = 0

    def f(t, z):
        nonlocal nfev
        nfev += 1
        return fun(t, z)

    times = [float(t) for t in t_span]
    t, t_bound, stop = times[0], times[-1], 1
    z = z0
    f_z = f(t, z)
    h_abs = _dop853_first_step(f, t, z, f_z, t_bound, rtol, atol, max_step)
    stages = np.empty((13, z.size))
    ts, zs = [t], [z]
    while t < t_bound:
        while times[stop] <= t:
            stop += 1
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise ReferenceError("reference integration failed: Required step "
                                     "size is less than spacing between numbers.")
            start_step()
            t_new = min(t + h_abs, times[stop])
            h = t_new - t
            h_abs = np.abs(h)
            stages[0] = f_z
            for s in range(1, 12):
                stages[s] = f(t + DOP853_C[s] * h,
                              z + np.dot(stages[:s].T, DOP853_A[s, :s]) * h)
            z_new = z + h * np.dot(stages[:12].T, DOP853_B)
            f_new = f(t + h, z_new)
            stages[12] = f_new
            scale = atol + np.maximum(np.abs(z), np.abs(z_new)) * rtol
            err5 = np.linalg.norm(np.dot(stages.T, DOP853_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(stages.T, DOP853_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * z.size)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0
                          else min(_MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        t, z, f_z = t_new, z_new, f_new
        ts.append(t)
        zs.append(z)
    return Solution(np.array(ts), np.vstack(zs).T, nfev)


def _dop853(fun, t_span, z0: np.ndarray, rtol: float, atol: float,
            config: ReferenceConfig) -> Solution:
    """The DOP853 solution of z' = fun(t, z) from z0 over t_span; a
    ReferenceError once it starts step config.step_cap + 1 or fails."""
    return solve_ivp(dop853, t_span, z0, fun=fun, rtol=rtol, atol=atol,
                     max_step=config.max_step, start_step=_step_counter(config))


def _radau_qoi(problem: SplitOdeProblem, rate, t_span: tuple, z0: np.ndarray,
               value, config: ReferenceConfig):
    """value(z(T)) of a linear forced problem from Radau IIA solves with
    doubling step counts: the value the rule in the module docstring
    accepts, then the value of each further doubling level; a
    ReferenceError as any step past config.step_cap, summed over the
    solves, starts.  The stage system's layout is made once, here, on the
    problem's pattern; each level only fills and factors it."""
    start_step = _step_counter(config)
    form = StageForm(RADAU_A, problem.jac_pattern, problem.node_order)
    jac = form.values(problem.f_op + problem.g_op)

    def forcing(times):
        force_f, force_g = problem.forcing(times)
        return force_f + force_g

    def level(n):
        sol = solve_ivp(radau_iia, t_span, z0, system=lambda k: form.system(k, jac),
                        forcing=forcing, rate=rate, n_steps=n, start_step=start_step)
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
        yield from _radau_qoi(problem, rate, t_span, z0, value, config)
        return
    def fun(t, z):
        if rate is None:
            return problem.rhs(z, t)
        return np.append(problem.rhs(z[:-1], t), rate(t, z[:-1]))
    rtol, atol = config.rtol, config.atol
    yield value(_dop853(fun, t_span, z0, rtol, atol, config).y[:, -1])
    while rtol > RTOL_FLOOR:
        rtol, atol = max(rtol / 100.0, RTOL_FLOOR), atol / 100.0
        yield value(_dop853(fun, t_span, z0, rtol, atol, config).y[:, -1])


def reference_states(problem: SplitOdeProblem, nodes,
                     config: ReferenceConfig | None = None) -> np.ndarray:
    """The (P, m) reference states at nodes, increasing times from y0's
    time 0: the exact solution config.mode picks, sampled there, else one DOP853
    solve at config.rtol, atol, max_step and step_cap whose steps end on
    every node (verify and verify_ratio judge a QoI and are not read
    here)."""
    config = config or ReferenceConfig()
    exact = exact_solution(problem, config.mode)
    if exact is not None:
        return np.stack([exact(t) for t in nodes])
    sol = _dop853(lambda t, y: problem.rhs(y, t), nodes, problem.y0,
                  config.rtol, config.atol, config)
    return sol.y[:, np.searchsorted(sol.t, nodes)].T


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
