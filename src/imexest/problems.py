"""Split ODE systems ydot = f(y, t) + g(y, t) and the benchmark problems.

A problem carries the two right-hand-side halves (f integrated
explicitly, g implicitly), their Jacobians with respect to the state,
an optional time-dependent forcing holding e.g. Dirichlet boundary
pickups, and optionally an exact solution.  The PDE benchmarks use
method-of-lines finite differences on uniform grids, assembled as dense
matrices (the largest system here is a few hundred unknowns).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

Array = np.ndarray
ForcingFn = Callable[[float | Array], tuple[Array, Array]]

QOI_KINDS = ("final-time", "time-integrated")

GRID_TOL = 1e-12


@dataclass
class SplitOdeProblem:
    """Autonomous split system plus optional additive time-dependent forcing.

    eval_f/eval_g take the state only; the full right-hand side halves are
    f(y, t) = eval_f(y) + forcing(t)[0] and likewise for g.  eval_f,
    eval_g and forcing accept one state (m,) with one time, or a (P, m)
    stack of states with a (P,) vector of times, and return the same
    shape.  jac_f/jac_g are state Jacobians at one state (the forcing
    does not depend on the state).

    ``linear`` declares both halves linear in the state: eval_f(y) equals
    jac_f(.) @ y for every state, with one constant jac_f, and likewise
    for g; every state-independent term is carried by ``forcing``.  The
    forward solver's LU cache, the adjoint's constant operator and the
    reference's sparse operator jac_f + jac_g all rely on it.

    ``boundary`` = (pick, data) gives the summed forcing of a linear
    problem as a matrix times a data vector: force_f(t) + force_g(t)
    equals pick @ data(t) at one time.  The reference applies it with
    the operator in one matvec, so a linear problem with a forcing must
    carry it.
    """

    name: str
    dim: int
    eval_f: Callable[[Array], Array]
    eval_g: Callable[[Array], Array]
    jac_f: Callable[[Array], Array]
    jac_g: Callable[[Array], Array]
    y0: Array
    forcing: Optional[ForcingFn] = None
    analytic: Optional[Callable[[float], Array]] = None
    pde_solution: Optional[Callable[[float], Array]] = None
    linear: bool = False
    boundary: Optional[tuple[Array, Callable[[float], Array]]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.shape != (self.dim,):
            raise ValueError(f"y0 shape {self.y0.shape} does not match dim {self.dim}")
        if self.linear and self.forcing is not None and self.boundary is None:
            raise ValueError("a linear problem with a forcing needs boundary = "
                             "(pick, data), the summed forcing as pick @ data(t)")

    def halves(self, y: Array, t) -> tuple[Array, Array]:
        """(f(y, t), g(y, t)) with one forcing evaluation."""
        f, g = self.eval_f(y), self.eval_g(y)
        if self.forcing is not None:
            force_f, force_g = self.forcing(t)
            f, g = f + force_f, g + force_g
        return f, g

    def rhs(self, y: Array, t) -> Array:
        f, g = self.halves(y, t)
        return f + g


@dataclass
class QoiSpec:
    """Quantity of interest: (y(T), psi) or integral of (y(t), psi_tilde(t)) dt."""

    kind: str
    psi: Optional[Array] = None
    psi_tilde: Optional[Callable[[float], Array]] = None

    def __post_init__(self):
        if self.kind not in QOI_KINDS:
            raise ValueError(f"qoi kind must be one of {QOI_KINDS}, got {self.kind!r}")
        if self.kind == "final-time":
            if self.psi is None:
                raise ValueError("final-time qoi needs psi")
            self.psi = np.asarray(self.psi, dtype=float)
        elif self.psi_tilde is None:
            raise ValueError("time-integrated qoi needs psi_tilde")


def _apply(mat: Array) -> Callable[[Array], Array]:
    """y -> mat y, for one vector (m,) or row by row on a (P, m) stack."""
    return lambda y: (mat @ y.T).T


def _matrix_problem(name, f_mat, g_mat, y0, pickups=None, boundary_data=None,
                    pde_solution=None, metadata=None) -> SplitOdeProblem:
    """Linear split system y' = f_mat y + g_mat y, plus, with pickups =
    (pick_f, pick_g), the forcing pick_f @ b(t) and pick_g @ b(t) of the
    boundary data b = boundary_data."""
    y0 = np.asarray(y0, dtype=float)
    f_mat = np.asarray(f_mat, dtype=float)
    g_mat = np.asarray(g_mat, dtype=float)
    for key, mat in (("f_mat", f_mat), ("g_mat", g_mat)):
        if mat.shape != (y0.size, y0.size):
            raise ValueError(f"{key} has shape {mat.shape}; y0 of length "
                             f"{y0.size} needs ({y0.size}, {y0.size})")
    forcing = boundary = None
    if pickups is not None:
        pick_f, pick_g = pickups
        apply_pick_f, apply_pick_g = _apply(pick_f), _apply(pick_g)

        def forcing(t) -> tuple[Array, Array]:
            t = np.asarray(t, dtype=float)
            data = np.array([boundary_data(s) for s in t] if t.ndim
                            else boundary_data(t))
            return apply_pick_f(data), apply_pick_g(data)

        boundary = (pick_f + pick_g, boundary_data)
    return SplitOdeProblem(
        name=name,
        dim=y0.size,
        eval_f=_apply(f_mat),
        eval_g=_apply(g_mat),
        jac_f=lambda y: f_mat,
        jac_g=lambda y: g_mat,
        y0=y0,
        forcing=forcing,
        analytic=None if forcing is not None else (lambda t: expm((f_mat + g_mat) * t) @ y0),
        pde_solution=pde_solution,
        linear=True,
        boundary=boundary,
        metadata=metadata or {},
    )


def split_linear_system(f_mat, g_mat, y0, name: str = "linear-split") -> SplitOdeProblem:
    """Generic linear split system with matrix-exponential exact solution."""
    return _matrix_problem(name, f_mat, g_mat, y0)


def split_scalar_linear(lam_f: float, lam_g: float, y0: float) -> SplitOdeProblem:
    return split_linear_system([[lam_f]], [[lam_g]], [y0], name="scalar-linear-split")


def split_scalar_bernoulli(lam: float, mu: float, y0: float) -> SplitOdeProblem:
    """ydot = mu*y^2 (explicit) + lam*y (implicit), with closed-form solution.

    Substituting w = 1/y turns the equation into w' = -lam*w - mu, so
    y(t) = 1 / ((1/y0 + mu/lam) exp(-lam t) - mu/lam).  Genuinely
    nonlinear, which avoids the accidental cancellations linear test
    problems can show in convergence studies.
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")

    def analytic(t: float) -> Array:
        w = (1.0 / y0 + mu / lam) * np.exp(-lam * t) - mu / lam
        return np.array([1.0 / w])

    return SplitOdeProblem(
        name="scalar-bernoulli-split",
        dim=1,
        eval_f=lambda y: mu * y * y,
        eval_g=lambda y: lam * y,
        jac_f=lambda y: np.array([[2.0 * mu * y[0]]]),
        jac_g=lambda y: np.array([[lam]]),
        y0=np.array([y0]),
        analytic=analytic,
        linear=False,
        metadata={"lam": lam, "mu": mu},
    )


def _stencil(m: int, h: float, order: int, periodic: bool) -> Array:
    """Centered three-point d/dx (order 1) or d^2/dx^2 (order 2) on m points.

    A periodic grid wraps around and gives an (m, m) matrix.  Otherwise
    the matrix is (m, m + 2) over the m interior points plus the two
    boundary points in the first and last columns, whose entries are the
    Dirichlet pickups.
    """
    if order == 1:
        coeffs = (-1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))
    else:
        coeffs = (1.0 / h**2, -2.0 / h**2, 1.0 / h**2)
    width = m if periodic else m + 2
    rows = np.arange(m)
    cols = rows if periodic else rows + 1
    mat = np.zeros((m, width))
    for shift, c in ((1, coeffs[2]), (0, coeffs[1]), (-1, coeffs[0])):
        mat[rows, (cols + shift) % width] += c
    return mat


def grid_cells(lo: float, hi: float, step: float, name: str = "h") -> int:
    """Number of cells of width step on [lo, hi]; the one check that a
    step is positive and divides an interval, in space and in time."""
    if not step > 0.0:
        raise ValueError(f"{name} must be positive, got {step!r}")
    n = (hi - lo) / step
    cells = round(n) if math.isfinite(n) else 0
    if cells < 1 or abs(n - cells) > GRID_TOL * max(1.0, abs(n)):
        raise ValueError(f"{name}={step} does not divide [{lo}, {hi}] evenly")
    return cells


def _grid_points(lo: float, hi: float, h: float) -> Array:
    return lo + h * np.arange(grid_cells(lo, hi, h))


def linear_advection_diffusion(gamma: float, h: float,
                               swap_roles: bool = False) -> SplitOdeProblem:
    """udot + sin(2 pi x) u_x = gamma u_xx on [0,1], periodic, u0 = sin(2 pi x).

    Centered differences on the m = 1/h point grid x_i = i*h.  By default
    the advection term is explicit (f) and diffusion implicit (g);
    swap_roles exchanges them, which makes the diffusion stability limit
    bind on the explicit half.
    """
    domain = (0.0, 1.0)
    x = _grid_points(*domain, h)
    m = x.size
    adv = -np.diag(np.sin(2.0 * np.pi * x)) @ _stencil(m, h, 1, periodic=True)
    diff = gamma * _stencil(m, h, 2, periodic=True)
    f_mat, g_mat = (diff, adv) if swap_roles else (adv, diff)
    name = "linear-advection-diffusion" + ("-swapped" if swap_roles else "")
    prob = _matrix_problem(
        name, f_mat, g_mat, np.sin(2.0 * np.pi * x),
        metadata={
            "benchmark": name, "gamma": gamma, "h": h, "m": m,
            "domain": list(domain), "swap_roles": swap_roles,
        },
    )
    return prob


def burgers(gamma: float, h: float) -> SplitOdeProblem:
    """udot + u u_x = gamma u_xx on [-1,1], periodic, u0 = sin(pi x).

    Advective-form nonlinearity u * (centered u_x), explicit; diffusion
    implicit.
    """
    domain = (-1.0, 1.0)
    x = _grid_points(*domain, h)
    m = x.size
    d1 = _stencil(m, h, 1, periodic=True)
    diff = gamma * _stencil(m, h, 2, periodic=True)
    grad = _apply(d1)

    def eval_f(u: Array) -> Array:
        return -u * grad(u)

    def jac_f(u: Array) -> Array:
        return -(np.diag(d1 @ u) + u[:, None] * d1)

    return SplitOdeProblem(
        name="burgers",
        dim=m,
        eval_f=eval_f,
        eval_g=_apply(diff),
        jac_f=jac_f,
        jac_g=lambda u: diff,
        y0=np.sin(np.pi * x),
        linear=False,
        metadata={"benchmark": "burgers", "gamma": gamma, "h": h, "m": m,
                  "domain": list(domain)},
    )


# ---------------------------------------------------------------------------
# 1D Alfven wave (coupled velocity / magnetic induction system)

MHD_DEFAULTS = {"B0": 10.0, "rho": 1.0, "mu": 1.0, "eta": 1.0, "mu0": 1.0,
                "U": 1.0, "L": 1.0}

MHD_V_MODES = ("v-split", "v-implicit")

_EXP_MAX = math.log(sys.float_info.max)  # math.exp overflows above this


def _alfven_point(zeta: float, t: float, B0: float, rho: float, mu: float,
                  eta: float, mu0: float, U: float) -> tuple[float, float]:
    """Exact (v, B) at one point zeta and one time t; the one implementation
    of the closed form.  Zero at t <= 0 and at a NaN time (rest state)."""
    # isnan first: an ordered comparison with NaN raises the invalid flag,
    # which np.vectorize reports as a RuntimeWarning
    if math.isnan(t) or t <= 0.0:
        return 0.0, 0.0
    d = eta / mu0
    a0 = B0 / math.sqrt(mu0 * rho)
    s = 2.0 * math.sqrt(d * t)
    if s == 0.0:  # d*t underflowed: the t -> 0+ limit, U at the plate only
        return (U if zeta == 0.0 else 0.0), 0.0
    arg_m = (zeta - a0 * t) / s
    arg_p = (zeta + a0 * t) / s
    e_m = math.exp(-a0 * zeta / d)
    e_p = math.exp(a0 * zeta / d)
    erf_m, erf_p = math.erf(arg_m), math.erf(arg_p)
    v = 0.25 * U * (e_m * (1.0 - erf_m) - erf_m) \
        + 0.25 * U * (e_p * (1.0 - erf_p) - erf_p + 2.0)
    b = -0.25 * e_m * (e_p - 1.0) * U * math.sqrt(mu * rho) \
        * (math.erfc(arg_m) + e_p * math.erfc(arg_p))
    return v, b


_alfven_fields = np.vectorize(_alfven_point, otypes=[float, float])


def alfven_analytic(zeta, t, B0=10.0, rho=1.0, mu=1.0, eta=1.0,
                    mu0=1.0, U=1.0) -> tuple[Array, Array]:
    """Exact (v, B) of the viscous/resistive Alfven-wave half-space problem.

    At t <= 0 both fields vanish (the fluid starts at rest); for t > 0
    the impulsively started plate makes the velocity boundary value at
    zeta = 0 exactly U, which is also the t -> 0+ limit of the erf
    expressions.  A vector of times gives (len(t), len(zeta)) fields,
    one row per time.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim:
        t = t[:, None]
    return _alfven_fields(np.asarray(zeta, dtype=float), t,
                          B0, rho, mu, eta, mu0, U)


def mhd_params(v_mode: str, **params) -> dict:
    """The Alfven problem's physics, MHD_DEFAULTS overridden by params.

    Rejects an unknown v_mode or parameter, and physics the closed-form
    boundary data cannot evaluate: it takes square roots of mu0*rho and
    mu*rho, divides by eta/mu0, and exponentiates +-A0*L/(eta/mu0), which
    must stay inside float64.
    """
    if v_mode not in MHD_V_MODES:
        raise ValueError(f"v_mode must be one of {MHD_V_MODES}, got {v_mode!r}")
    unknown = set(params) - set(MHD_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown mhd parameters: {sorted(unknown)}")
    p = {**MHD_DEFAULTS, **params}
    for key in ("rho", "mu0", "eta"):
        if not p[key] > 0.0:
            raise ValueError(f"{key} must be positive, got {p[key]!r}")
    if not p["mu"] >= 0.0:
        raise ValueError(f"mu must be >= 0, got {p['mu']!r}")
    exponent = abs(p["B0"] / math.sqrt(p["mu0"] * p["rho"]) * p["L"]
                   / (p["eta"] / p["mu0"]))
    if not exponent < _EXP_MAX:
        raise ValueError(
            f"B0, rho, mu0, eta and L give |A0*L*mu0/eta| = {exponent:.6g}; "
            f"the exact boundary data takes exp() of it, which needs a finite "
            f"value below {_EXP_MAX:.6g}")
    return p


def mhd_alfven(h: float = 5e-3, v_mode: str = "v-split", **params) -> SplitOdeProblem:
    """Coupled 1D system v_t = (B0/rho) B_z + (mu/rho) v_zz,
    B_t = B0 v_z + (eta/mu0) B_zz on [0, L], Dirichlet data from the
    analytic solution, zero initial condition.

    State layout is [v at interior points, B at interior points].  The
    induction equation is always split with transport explicit and
    magnetic diffusion implicit.  v_mode picks the momentum-equation
    split: "v-split" takes the Lorentz term explicit and viscosity
    implicit; "v-implicit" integrates the whole momentum right-hand side
    implicitly (f_v = 0).
    """
    p = mhd_params(v_mode, **params)
    B0, rho, mu, eta, mu0, U, L = (p[k] for k in ("B0", "rho", "mu", "eta", "mu0", "U", "L"))

    zeta = _grid_points(0.0, L, h)[1:]
    mh = zeta.size
    m = 2 * mh

    # the stencils' first and last columns pick up the Dirichlet data;
    # the forcing is pick_f/pick_g times (v(0), v(L), B(0), B(L))
    d1 = _stencil(mh, h, 1, periodic=False)
    d2 = _stencil(mh, h, 2, periodic=False)
    inner, ends = slice(1, -1), [0, -1]
    sv, sb = slice(0, mh), slice(mh, m)
    ends_v, ends_b = slice(0, 2), slice(2, 4)
    # (rows, state columns, pickup columns, operator, explicit?)
    blocks = ((sb, sv, ends_v, B0 * d1, True),                        # transport
              (sb, sb, ends_b, (eta / mu0) * d2, False),              # magnetic diffusion
              (sv, sv, ends_v, (mu / rho) * d2, False),               # viscosity
              (sv, sb, ends_b, (B0 / rho) * d1, v_mode == "v-split"))  # Lorentz
    f_mat, g_mat = np.zeros((m, m)), np.zeros((m, m))
    pick_f, pick_g = np.zeros((m, 4)), np.zeros((m, 4))
    for rows, cols, pick_cols, op, explicit in blocks:
        mat, pick = (f_mat, pick_f) if explicit else (g_mat, pick_g)
        mat[rows, cols] = op[:, inner]
        pick[rows, pick_cols] = op[:, ends]
    physics = (B0, rho, mu, eta, mu0, U)

    def boundary_data(t: float) -> list:
        """(v(0), v(L), B(0), B(L)) at one time."""
        (v_0, b_0), (v_l, b_l) = (_alfven_point(z, float(t), *physics)
                                  for z in (0.0, L))
        return [v_0, v_l, b_0, b_l]

    def pde_solution(t: float) -> Array:
        v, b = alfven_analytic(zeta, t, B0=B0, rho=rho, mu=mu, eta=eta, mu0=mu0, U=U)
        return np.concatenate([v, b], axis=-1)

    return _matrix_problem(
        f"mhd-alfven-{v_mode}", f_mat, g_mat, np.zeros(m),
        pickups=(pick_f, pick_g), boundary_data=boundary_data,
        pde_solution=pde_solution,
        metadata={"benchmark": "mhd-alfven", "v_mode": v_mode, "h": h, "m": m,
                  "interior_per_field": mh, **p,
                  "alfven_speed": B0 / np.sqrt(mu0 * rho)},
    )


def qoi_mean_left_half(m: int, scale: float = 1.0) -> QoiSpec:
    """psi = (m/2+1 entries of scale, m/2-1 zeros): left-half integral QoI."""
    if m % 2 != 0:
        raise ValueError("state dimension must be even")
    psi = np.zeros(m)
    psi[: m // 2 + 1] = scale
    return QoiSpec(kind="final-time", psi=psi)


def qoi_integral_v(m_v: int, h: float) -> QoiSpec:
    """psi = h on the leading velocity block of a stacked (v, B) state:
    the composite-rectangle discretization of the integral of v."""
    psi = np.zeros(2 * m_v)
    psi[:m_v] = h
    return QoiSpec(kind="final-time", psi=psi)


def component_masks(problem: SplitOdeProblem) -> dict[str, Array]:
    """Index masks for the velocity and induction blocks of an Alfven state."""
    md = problem.metadata
    if md.get("benchmark") != "mhd-alfven":
        raise ValueError("component_masks expects a problem built by mhd_alfven")
    mh = md["interior_per_field"]
    mask_v = np.zeros(problem.dim, dtype=bool)
    mask_v[:mh] = True
    return {"v": mask_v, "B": ~mask_v}
