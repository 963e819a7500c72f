"""Independent reference implementations the tests check the package
against: a monomial L2 projection (the estimator projects with Legendre
modes), finite-difference and dense Jacobians (the package states them
at a pattern, for a stack of states), the dense blocks of values a
sparse block form holds and the dense matrix of its band, a
problem's dense form, an interval-by-interval adjoint sweep on a
Jacobian pattern (the package forms a block of intervals at a time), a
point-by-point reader of piecewise polynomials (the package reads them
at local points of every interval at once), the stage times and
states of a forward solve (the package records only f and g there) and
an interval-by-interval assembly of the error breakdown (the package
assembles it a block of intervals at a time).  Also the traced working
memory the scaling tests compare across grid sizes."""

import dataclasses
import tracemalloc

import numpy as np
from scipy import sparse

from imexest.adjoint import refine_grid
from imexest.estimate import ErrorBreakdown
from imexest.numerics import (GAUSS_NODES, GAUSS_WEIGHTS, BlockForm, LagrangeBasis,
                              as_dense, galerkin_deriv_matrix, legendre_shifted,
                              lu_factor)
from imexest.reconstruct import sub_gauss_nodes


def l2_project(fn, a: float, b: float, degree: int) -> np.ndarray:
    """L2-project fn onto polynomials of the given degree over [a, b].

    Returns monomial coefficients (lowest order first) in the variable t.
    Moments of fn are computed with a Gauss rule exact well past the
    polynomial degrees involved; the Gram matrix is exact.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if not b > a:
        raise ValueError("need b > a")
    x, w = np.polynomial.legendre.leggauss(degree + 6)
    pts, wts = a + 0.5 * (b - a) * (x + 1.0), 0.5 * (b - a) * w
    fvals = np.array([fn(t) for t in pts], dtype=float)
    powers = np.arange(degree + 1)
    # exact monomial Gram: integral of t^(j+k) over [a, b]
    jk = powers[:, None] + powers[None, :] + 1
    gram = (b ** jk - a ** jk) / jk
    rhs = np.array([np.dot(wts, fvals * pts ** j) for j in powers])
    return np.linalg.solve(gram, rhs)


def poly_eval(coeffs, ts):
    """Evaluate monomial coefficients (lowest first), as l2_project returns
    them, at ts."""
    return np.polynomial.polynomial.polyval(np.asarray(ts, dtype=float), coeffs)


def fd_jacobian(fn, y, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of fn at y."""
    y = np.asarray(y, dtype=float)
    m = y.size
    out = np.empty((m, m))
    for j in range(m):
        step = eps * max(1.0, abs(y[j]))
        yp, ym = y.copy(), y.copy()
        yp[j] += step
        ym[j] -= step
        out[:, j] = (fn(yp) - fn(ym)) / (2.0 * step)
    return out


def dense_jacobian(problem, half: str, y) -> np.ndarray:
    """A half's Jacobian at one state y, dense: its operator, or the values
    its jac states for y placed at the pattern's entries, row by row."""
    op = getattr(problem, f"{half}_op")
    if op is not None:
        return as_dense(op)
    pattern = problem.jac_pattern
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    out = np.zeros(pattern.shape)
    out[rows, pattern.indices] = getattr(problem, f"jac_{half}")(y[None])[0]
    return out


def check_jacobians(problem, n_samples: int = 5, seed: int = 0,
                    scale: float = 1.0, eps: float = 1e-6) -> float:
    """Max relative defect between stated and finite-difference Jacobians.
    Asserts that each finite-difference Jacobian is exactly zero off a
    stated pattern, where no value can be stated."""
    rng = np.random.default_rng(seed)
    pattern = problem.jac_pattern
    off = None if pattern is None else pattern.toarray() == 0
    worst = 0.0
    for _ in range(n_samples):
        y = problem.y0 + scale * rng.standard_normal(problem.dim)
        for half in ("f", "g"):
            j_exact = dense_jacobian(problem, half, y)
            j_fd = fd_jacobian(getattr(problem, f"eval_{half}"), y, eps)
            assert off is None or not np.any(j_fd[off]), (problem.name, half)
            denom = max(1.0, np.abs(j_exact).max())
            worst = max(worst, np.abs(j_exact - j_fd).max() / denom)
    return worst


def burgers_jacobian(d1, u) -> np.ndarray:
    """Burgers' advection Jacobian at one state u, dense: -(diag(d1 u) + u d1)."""
    return -(np.diag(d1 @ u) + u[:, None] * d1)


def dense_blocks(form, values) -> np.ndarray:
    """The dense (..., m, m) blocks whose values (..., nnz) a sparse
    ``BlockForm`` holds."""
    out = np.zeros(values.shape[:-1] + (form.m, form.m))
    out[..., form.rows, form.cols] = values
    return out


def band_matrix(band) -> np.ndarray:
    """The dense system a ``numerics.Band`` holds, in the system's own
    ordering of its unknowns, read entry by entry inside the band."""
    n = band.order.size
    ordered = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - band.ku), min(n, j + band.kl + 1)):
            ordered[i, j] = band.ab[band.kl + band.ku + i - j, j]
    out = np.empty((n, n))
    out[np.ix_(band.order, band.order)] = ordered
    return out


def dense_form(problem):
    """A linear forced problem rebuilt from dense copies of its operators
    and pickups; it derives no pattern from them, so every system made
    from them is dense."""
    return dataclasses.replace(
        problem, f_op=as_dense(problem.f_op), g_op=as_dense(problem.g_op),
        pickups=tuple(map(as_dense, problem.pickups)))


def without_operators(problem):
    """A linear problem with its operators dropped: each half states its
    operator as a constant Jacobian at the full pattern."""
    def constant(op):
        values = as_dense(op).ravel()
        return lambda ys: np.broadcast_to(values, (len(ys), values.size))
    return dataclasses.replace(problem, f_op=None, g_op=None, jac_pattern=None,
                               jac_f=constant(problem.f_op),
                               jac_g=constant(problem.g_op))


def adjoint_per_interval(problem, reconstruction, qoi, refine: int) -> np.ndarray:
    """The (N, r + 1, m) adjoint coefficients of a problem that is not
    linear, swept as the package did before it formed its systems a block
    of intervals at a time: each interval's blocks of H^T from one
    product, -D subtracted on their diagonals, ``BlockForm.system`` on the
    transposed pattern and one ``lu_factor``.  The Jacobians' values, in
    the pattern's CSR order, are put in its transpose's by scipy's CSC to
    CSR conversion (the package sorts the pattern's entries by column)."""
    gp, gw = GAUSS_NODES, GAUSS_WEIGHTS
    q, m = reconstruction.degree, reconstruction.dim
    r = q + 1
    grid = refine_grid(reconstruction.grid, refine)
    n_int, steps = grid.n_intervals, grid.steps
    pattern = problem.jac_pattern
    form = BlockForm(m, r, pattern.T, problem.node_order, width=r + 1)
    transposed = sparse.csr_array((np.arange(pattern.nnz), pattern.indices, pattern.indptr),
                                  shape=pattern.shape).T.tocsr().data
    halves = ((problem.f_op, problem.jac_f), (problem.g_op, problem.jac_g))
    states = reconstruction.at(sub_gauss_nodes(refine)).reshape(-1, m)
    hts = form.scatter(sum(jac(states) for op, jac in halves if op is None)[:, transposed])
    hts = hts.reshape(n_int, gp.size, -1)
    hts += sum(form.values(op.T) for op, _ in halves if op is not None)
    tests = legendre_shifted(q, gp)
    dmat = galerkin_deriv_matrix(r)
    lvals = LagrangeBasis(np.linspace(0.0, 1.0, r + 1)).eval_matrix(gp)
    wgt = np.einsum("ak,jk->ajk", tests, lvals.T * gw)
    times = grid.local_times(gp)
    coeffs = np.zeros((n_int, r + 1, m))
    phi_right = qoi.psi.astype(float) if qoi.kind == "final-time" else np.zeros(m)
    for n in range(n_int - 1, -1, -1):
        k_wgt = steps[n] * wgt
        blocks = (-k_wgt.reshape(r * (r + 1), gp.size) @ hts[n]).reshape(r, r + 1, -1)
        blocks[(Ellipsis, *form.diagonal)] -= dmat[:, :, None]
        system = form.system(blocks)
        rhs = -(form.known @ phi_right)
        if qoi.kind != "final-time":
            dens = np.stack([qoi.psi_tilde(t) for t in times[n]])
            rhs += (steps[n] * (tests @ (gw[:, None] * dens))).reshape(r * m)
        solve = lu_factor(system, singular=lambda: ZeroDivisionError(n))
        coeffs[n, :r] = solve(rhs).reshape(r, m)
        coeffs[n, r] = phi_right
        phi_right = coeffs[n, 0]
    return coeffs


def evaluate(poly, t: float) -> np.ndarray:
    """A piecewise polynomial's value at one time t, on the interval
    [t_n, t_n+1] that holds it, found by bisection and clamped to the end
    intervals (a shared node is read from the later interval)."""
    nodes = poly.grid.nodes
    n = int(np.searchsorted(nodes, t, side="right")) - 1
    n = min(max(n, 0), poly.grid.n_intervals - 1)
    tau = (t - nodes[n]) / (nodes[n + 1] - nodes[n])
    return (poly.basis.eval_matrix([tau]) @ poly.coeffs[n])[0]


def stage_times(grid, pair) -> np.ndarray:
    """The (N, n_stages) stage times t_n + k_n d of a grid, in the float
    arithmetic the stepper uses."""
    return grid.nodes[:-1, None] + grid.steps[:, None] * pair.implicit.abscissae


def stage_states(pair, y_n, k_n, record) -> np.ndarray:
    """One step's (n_stages, m) stage states, from its recorded f and g
    values and the tableaus: X_i = y_n + k_n (sum_{j<i} A_ij f_j +
    sum_{j<=i} B_ij g_j).  An implicit stage's state is the stepper's to
    within its Newton residual."""
    a = np.tril(pair.explicit.coeffs, -1)
    b = np.tril(pair.implicit.coeffs)
    return y_n + k_n * (a @ record.f_vals + b @ record.g_vals)


def assemble_per_interval(problem, pair, forward, recon, adjoint) -> ErrorBreakdown:
    """The error breakdown assembled one interval at a time, with one
    ``problem.halves`` call and one set of projections per interval."""
    grid = recon.grid
    factor = adjoint.poly.grid.n_intervals // grid.n_intervals
    taus, wts, read = recon.gauss_table(factor)
    d = pair.implicit.abscissae
    w_ex = pair.explicit.weights
    w_im = pair.implicit.weights
    n_int = grid.n_intervals
    steps = grid.steps
    m = recon.dim

    leg_t = legendre_shifted(recon.degree - 1, taus)
    leg_d = legendre_shifted(recon.degree - 1, d)
    phi_tab = adjoint.poly.at(taus, factor)
    phi_d_tab = adjoint.poly.at(d, factor)
    times = grid.local_times(taus)

    density = np.empty((n_int, 3, m))
    galerkin = np.empty(n_int)
    galerkin_abs = np.empty(n_int)

    for n in range(n_int):
        k_n = steps[n]
        (y_all,), (ydot_all,) = read(slice(n, n + 1))
        phi_all, phi_d = phi_tab[n], phi_d_tab[n]
        stage = forward.stages[n]
        modes = leg_t @ (wts[:, None] * phi_all)
        pphi_all = leg_t.T @ modes
        pphi_d = leg_d.T @ modes

        f_all, g_all = problem.halves(y_all, times[n])

        delta_t = phi_all - pphi_all
        delta_d = phi_d - pphi_d
        density[n, 0] = k_n * (
            wts @ (-ydot_all * delta_t)
            + w_ex @ (stage.f_vals * delta_d)
            + w_im @ (stage.g_vals * delta_d)
        )
        density[n, 1] = k_n * (wts @ (f_all * phi_all) - w_ex @ (stage.f_vals * phi_d))
        density[n, 2] = k_n * (wts @ (g_all * phi_all) - w_im @ (stage.g_vals * phi_d))

        t1 = k_n * float(np.sum((wts[:, None] * ydot_all) * pphi_all))
        t2 = k_n * float(np.sum((w_ex[:, None] * stage.f_vals) * pphi_d))
        t3 = k_n * float(np.sum((w_im[:, None] * stage.g_vals) * pphi_d))
        galerkin_abs[n] = abs(t1 - t2 - t3)
        galerkin[n] = galerkin_abs[n] / (1.0 + abs(t1) + abs(t2) + abs(t3))

    per_interval = density.sum(axis=2)
    totals = per_interval.sum(axis=0)
    return ErrorBreakdown(
        e1=float(totals[0]), e2=float(totals[1]), e3=float(totals[2]),
        per_interval=per_interval, term_density=density,
        galerkin_scaled=galerkin, galerkin_raw=galerkin_abs,
    )


def working_memory(setup, run, output_bytes, sizes=(25, 400)):
    """For each n in sizes, the peak bytes tracemalloc traces while
    run(inputs) runs, less output_bytes(its result): inputs =
    setup(n * 1e-3, n), n steps of 1e-3, is built before tracing starts."""
    work = []
    for n in sizes:
        inputs = setup(n * 1e-3, n)
        tracemalloc.start()
        try:
            out = run(inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        work.append(peak - output_bytes(out))
    return work
