"""Split ODE systems ydot = f(y, t) + g(y, t) and the benchmark problems.

A problem carries the two right-hand-side halves (f integrated
explicitly, g implicitly), their Jacobians with respect to the state,
an optional time-dependent forcing given as pickup matrices times
boundary data (e.g. Dirichlet values), and optionally an exact solution.
A half that is linear in the state is given by its constant operator,
from which its evaluation and Jacobian follow.  The PDE benchmarks use
method-of-lines finite differences on uniform grids.  Each builder picks
the operator form by structure: the two-field Alfven system is CSR, the
small periodic stencils (at most a few dozen unknowns) stay dense, and
Burgers states its Jacobian's sparsity pattern.  No other module decides
the form: ``numerics`` lays out every system on a problem's one pattern
as a band in its one node order, and a problem without one densely.
A forced problem's forcing has one reader, ``SplitOdeProblem.forcing``,
which each layer hands a batch of times in the shape it holds them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.linalg import expm

from .numerics import as_dense, node_order

Array = np.ndarray
Operator = Array | sparse.csr_array

QOI_KINDS = ("final-time", "time-integrated")

GRID_TOL = 1e-12


@dataclass
class SplitOdeProblem:
    """Autonomous split system plus optional additive time-dependent forcing.

    eval_f/eval_g take the state only; the full right-hand side halves are
    f(y, t) = eval_f(y) + forcing(t)[0] and likewise for g.  halves takes
    one state (m,) with one time, a (P, m) stack of states with a (P,)
    vector of times, or, from the estimate, a (B, P, m) stack with (B, P)
    times, and returns the states' shape; an operator half gives each
    (P, m) slab exactly the rows it gives that slab alone.

    ``f_op``/``g_op`` hold the constant (dim, dim) operator of a half that
    is linear in the state, as a dense array or CSR, and are None for a
    nonlinear half.  A half with an operator is given by it alone:
    eval_f is y -> f_op y, made by every construction, its Jacobian is
    the operator, and every state-independent term is carried by the
    forcing.  A half without one needs eval and jac: jac_f/jac_g take a (P, m) stack of
    states and return the (P, nnz) Jacobian values at jac_pattern's
    entries, in CSR order (the forcing does not depend on the state).
    ``linear`` (both halves carry an operator) makes the forward Newton
    matrix I - k b_ii g_op constant, so it is factored once per step size
    and stage coefficient, and lets the adjoint factor one local system
    for all intervals of a uniform grid.

    ``jac_pattern`` states, once, where the Jacobian of f + g may be
    nonzero at any state: a (dim, dim) array or sparse matrix, nonzero
    there, held as CSR with sorted indices.  A problem that is not linear
    and states none has the full pattern.  A linear one's is made from
    its operators by every construction, a stated one unread: the union
    of their patterns when either is sparse (not the nonzeros of their
    sum, where f and g could cancel), else None.  Construction refuses an
    operator half of a problem that is not linear with a nonzero off its
    pattern, since the adjoint reads every Jacobian at the pattern alone.
    ``node_order`` orders the pattern's nodes for the bands of both
    sweeps and of the reference.

    A forced problem carries ``pickups`` = (pick_f, pick_g), two (dim, d)
    matrices, dense or CSR, and ``boundary_data``, which maps one time to
    the d data values b(t), or a (P,) vector of times to their (P, d)
    rows; its forcing is (pick_f @ b(t), pick_g @ b(t)).  ``forcing`` is
    the one reader of it: each layer hands it a batch of times in the
    shape it holds them.
    """

    name: str
    y0: Array
    f_op: Optional[Operator] = None
    g_op: Optional[Operator] = None
    eval_f: Optional[Callable[[Array], Array]] = None
    eval_g: Optional[Callable[[Array], Array]] = None
    jac_f: Optional[Callable[[Array], Array]] = None
    jac_g: Optional[Callable[[Array], Array]] = None
    jac_pattern: Optional[Operator] = None
    pickups: Optional[tuple[Operator, Operator]] = None
    boundary_data: Optional[Callable[[float | Array], Array]] = None
    analytic: Optional[Callable[[float], Array]] = None
    pde_solution: Optional[Callable[[float], Array]] = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.y0.ndim != 1:
            raise ValueError(f"y0 must be a vector, got shape {self.y0.shape}")
        for half in ("f", "g"):
            op = getattr(self, f"{half}_op")
            if op is not None:
                setattr(self, f"eval_{half}", _apply(op))
            elif getattr(self, f"eval_{half}") is None or getattr(self, f"jac_{half}") is None:
                raise ValueError(f"the {half} half needs {half}_op, or eval_{half} "
                                 f"and jac_{half}")
        if self.linear:
            # made afresh: a dataclasses.replace copy has its own operators
            self.jac_pattern = (sparse.csr_array(self.f_op != 0) + (self.g_op != 0)
                                if sparse.issparse(self.f_op) or sparse.issparse(self.g_op)
                                else None)
        elif self.jac_pattern is None:
            self.jac_pattern = np.ones((self.dim, self.dim), dtype=bool)
        if self.jac_pattern is not None:
            self.jac_pattern = sparse.csr_array(self.jac_pattern, dtype=bool)
            self.jac_pattern.sum_duplicates()  # sorts each row's indices
            self.jac_pattern.eliminate_zeros()
            if self.jac_pattern.shape != (self.dim,) * 2:
                raise ValueError(f"jac_pattern has shape {self.jac_pattern.shape}; "
                                 f"y0 of length {self.dim} needs {(self.dim,) * 2}")
            # the adjoint reads an operator at the pattern alone; a linear
            # problem's pattern holds both operators, and is not densified
            for half, op in (("f", self.f_op), ("g", self.g_op)):
                if (not self.linear and op is not None
                        and np.any(as_dense(op)[self.jac_pattern.toarray() == 0])):
                    raise ValueError(f"{half}_op is nonzero off jac_pattern")
        if (self.pickups is None) != (self.boundary_data is None):
            raise ValueError("a forced problem needs pickups = (pick_f, pick_g) "
                             "and boundary_data together")

    @property
    def dim(self) -> int:
        """The state dimension: the length of y0."""
        return self.y0.size

    @functools.cached_property
    def node_order(self) -> Optional[np.ndarray]:
        """``numerics.node_order`` of jac_pattern, computed on first use,
        or None without a pattern: the order of the unknowns in the
        forward's Newton bands, the adjoint's local bands and Radau IIA's
        stage band."""
        return None if self.jac_pattern is None else node_order(self.jac_pattern)

    @property
    def linear(self) -> bool:
        """Both halves are linear: each carries its constant operator."""
        return self.f_op is not None and self.g_op is not None

    def forcing(self, t) -> tuple[Array, Array]:
        """(pick_f @ b(t), pick_g @ b(t)) of a forced problem at a time or
        an array of times of any shape, each half shaped t.shape + (dim,),
        from one boundary_data call on the raveled times.  CSR pickups
        give each time's row exactly as that time alone gives it; dense
        ones make one product over all the times."""
        times = np.asarray(t, dtype=float)
        data = np.asarray(self.boundary_data(times.ravel()), dtype=float)
        return tuple(_apply(pick)(data).reshape(*times.shape, -1)
                     for pick in self.pickups)

    def halves(self, y: Array, t) -> tuple[Array, Array]:
        """(f(y, t), g(y, t)) with one forcing evaluation."""
        f, g = self.eval_f(y), self.eval_g(y)
        if self.pickups is not None:
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


def _operator(mat) -> Operator:
    """A builder's matrix in the form it was handed: a sparse matrix as it
    is, anything else as a dense float array."""
    return mat if sparse.issparse(mat) else np.asarray(mat, dtype=float)


def finite_array(value, key: str) -> Array:
    """value as a float array; a ValueError naming key when an entry is
    not finite or, like an integer of 309 or more digits, overflows a
    float."""
    try:
        arr = np.asarray(value, dtype=float)
        finite = np.all(np.isfinite(arr))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"{key} must be finite")
    return arr


def _apply(mat: Operator) -> Callable[[Array], Array]:
    """y -> mat y, for one vector (m,), row by row on a (P, m) stack, and
    on each (P, m) slab of a (B, P, m) stack exactly as on that slab alone."""
    def apply(y: Array) -> Array:
        if y.ndim < 3:
            return (mat @ y.T).T
        if sparse.issparse(mat):
            # a sparse row sums its own nonzeros alone, at any stack height
            return (mat @ y.reshape(-1, y.shape[-1]).T).T.reshape(*y.shape[:-1], -1)
        # a dense product's rows depend on its height: one product a slab
        return np.matmul(mat, y.swapaxes(1, 2)).swapaxes(1, 2)
    return apply


def _matrix_problem(name, f_mat, g_mat, y0, pickups=None, boundary_data=None,
                    pde_solution=None, metadata=None) -> SplitOdeProblem:
    """Linear split system y' = f_mat y + g_mat y, plus, with pickups =
    (pick_f, pick_g), the forcing pick_f @ b(t) and pick_g @ b(t) of the
    boundary data b = boundary_data.  Each matrix is applied in the form
    it is handed, dense or CSR."""
    y0 = np.asarray(y0, dtype=float)
    f_op, g_op = _operator(f_mat), _operator(g_mat)
    for key, op in (("f_mat", f_op), ("g_mat", g_op)):
        if op.shape != (y0.size, y0.size):
            raise ValueError(f"{key} has shape {op.shape}; y0 of length "
                             f"{y0.size} needs ({y0.size}, {y0.size})")
    analytic = None
    if pickups is not None:
        pickups = tuple(map(_operator, pickups))
    else:
        full = as_dense(f_op) + as_dense(g_op)

        def analytic(t: float) -> Array:
            return expm(full * t) @ y0

    return SplitOdeProblem(
        name=name,
        y0=y0,
        analytic=analytic,
        pde_solution=pde_solution,
        f_op=f_op,
        g_op=g_op,
        pickups=pickups,
        boundary_data=boundary_data,
        metadata=metadata or {},
    )


def split_linear_system(f_mat, g_mat, y0, name: str = "linear-split") -> SplitOdeProblem:
    """Generic linear split system with matrix-exponential exact solution."""
    for key, value in (("f_mat", f_mat), ("g_mat", g_mat), ("y0", y0)):
        finite_array(value, key)
    return _matrix_problem(name, f_mat, g_mat, y0)


def split_scalar_linear(lam_f: float, lam_g: float, y0: float) -> SplitOdeProblem:
    return split_linear_system([[lam_f]], [[lam_g]], [y0], name="scalar-linear-split")


def split_scalar_bernoulli(lam: float, mu: float, y0: float) -> SplitOdeProblem:
    """ydot = mu*y^2 (explicit) + lam*y (implicit), with closed-form solution.

    Substituting w = 1/y turns the equation into w' = -lam*w - mu, so
    y(t) = 1 / ((1/y0 + mu/lam) exp(-lam t) - mu/lam).  Genuinely
    nonlinear, which avoids the accidental cancellations linear test
    problems can show in convergence studies.  The implicit half is
    linear, the dense g_op [[lam]]; the explicit half's Jacobian has the
    full 1 x 1 pattern.
    """
    if lam == 0.0:
        raise ValueError("lam must be nonzero")

    def analytic(t: float) -> Array:
        w = (1.0 / y0 + mu / lam) * np.exp(-lam * t) - mu / lam
        return np.array([1.0 / w])

    return SplitOdeProblem(
        name="scalar-bernoulli-split",
        y0=np.array([y0]),
        g_op=np.array([[lam]]),
        eval_f=lambda y: mu * y * y,
        jac_f=lambda y: 2.0 * mu * y,
        analytic=analytic,
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
    implicit, and linear: it is the dense g_op.  The Jacobian's pattern
    is the two stencils' and the diagonal: three entries a row, wrapped.
    The advection's Jacobian -(diag(d1 u) + u d1) is stated at that
    pattern alone.
    """
    domain = (-1.0, 1.0)
    x = _grid_points(*domain, h)
    m = x.size
    d1 = _stencil(m, h, 1, periodic=True)
    diff = gamma * _stencil(m, h, 2, periodic=True)
    grad = _apply(d1)
    # d1 u summed over each row's two neighbours alone, as the matvec of
    # one state sums it, for a stack of any height
    stencil_grad = _apply(sparse.csr_array(d1))
    pattern = sparse.csr_array((d1 != 0.0) | (diff != 0.0) | np.eye(m, dtype=bool))
    rows, cols = pattern.nonzero()
    d1_at = d1[rows, cols]
    diagonal = np.flatnonzero(rows == cols)  # one a row, in row order

    def eval_f(u: Array) -> Array:
        return -u * grad(u)

    def jac_f(u: Array) -> Array:
        """-(diag(d1 u) + u d1) at the pattern, a row for each state u."""
        jac = u[:, rows] * d1_at
        jac[:, diagonal] += stencil_grad(u)
        return np.negative(jac, out=jac)

    return SplitOdeProblem(
        name="burgers",
        y0=np.sin(np.pi * x),
        g_op=diff,
        eval_f=eval_f,
        jac_f=jac_f,
        jac_pattern=pattern,
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
    of the closed form.  Zero at t <= 0 and at a NaN time (rest state); for
    t > 0 the plate value v(0) is exactly U, the t -> 0+ limit of the erf form."""
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
_ALFVEN_PHYSICS = ("B0", "rho", "mu", "eta", "mu0", "U")  # _alfven_point's order


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
    implicitly (f_v = 0).  The operators and pickups are CSR: each row
    couples at most six of the state's unknowns.
    """
    p = mhd_params(v_mode, **params)
    B0, rho, mu, eta, mu0, L = (p[k] for k in ("B0", "rho", "mu", "eta", "mu0", "L"))

    zeta = _grid_points(0.0, L, h)[1:]
    mh = zeta.size
    if mh < 1:
        raise ValueError(f"h={h} leaves no interior grid point on [0, {L}]")
    m = 2 * mh

    # the stencils' first and last columns pick up the Dirichlet data;
    # the forcing is pick_f/pick_g times (v(0), v(L), B(0), B(L))
    d1 = _stencil(mh, h, 1, periodic=False)
    d2 = _stencil(mh, h, 2, periodic=False)
    # (row field, column field, stencil, explicit?), field 0 is v and 1 is B
    blocks = ((1, 0, B0 * d1, True),                         # transport
              (1, 1, (eta / mu0) * d2, False),               # magnetic diffusion
              (0, 0, (mu / rho) * d2, False),                # viscosity
              (0, 1, (B0 / rho) * d1, v_mode == "v-split"))  # Lorentz

    def assemble(explicit: bool, cols, width: int) -> sparse.csr_array:
        """One half's (v, B) x (v, B) CSR block matrix of the stencils'
        columns cols, width per field: the interior columns make the
        operator, the two end columns the pickups."""
        grid = [[sparse.csr_array((mh, width))] * 2 for _ in range(2)]
        for row, col, op, expl in blocks:
            if expl == explicit:
                grid[row][col] = sparse.csr_array(op[:, cols])
        return sparse.block_array(grid, format="csr")

    f_mat, pick_f, g_mat, pick_g = (
        assemble(explicit, cols, width) for explicit in (True, False)
        for cols, width in ((slice(1, -1), mh), ([0, -1], 2)))
    physics = tuple(p[k] for k in _ALFVEN_PHYSICS)

    def fields_at(points: Array, t) -> Array:
        """The exact (v, B) at points, concatenated, for each of the times t."""
        v, b = _alfven_fields(points, np.asarray(t, dtype=float)[..., None], *physics)
        return np.concatenate([v, b], axis=-1)

    def boundary_data(t) -> Array:
        """(v(0), v(L), B(0), B(L)) for each of the times t."""
        return fields_at(np.array([0.0, L]), t)

    def pde_solution(t) -> Array:
        return fields_at(zeta, t)

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
        raise ValueError("components needs the mhd-alfven problem, whose v and "
                         "B blocks it splits the estimate onto; "
                         f"got {problem.name!r}")
    mh = md["interior_per_field"]
    mask_v = np.zeros(problem.dim, dtype=bool)
    mask_v[:mh] = True
    return {"v": mask_v, "B": ~mask_v}
