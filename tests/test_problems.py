"""Tests for the split ODE systems and the finite-difference benchmarks."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.special import erf, erfc

from imexest import problems
from imexest.problems import (
    MHD_DEFAULTS,
    MHD_V_MODES,
    QoiSpec,
    burgers,
    component_masks,
    linear_advection_diffusion,
    mhd_alfven,
    qoi_integral_v,
    qoi_mean_left_half,
    split_linear_system,
    split_scalar_bernoulli,
    split_scalar_linear,
)
from oracles import burgers_jacobian, check_jacobians, fd_jacobian


def all_benchmarks():
    return [
        linear_advection_diffusion(0.1, 1.0 / 40.0),
        linear_advection_diffusion(0.075, 1.0 / 20.0, swap_roles=True),
        burgers(0.05, 1.0 / 40.0),
        mhd_alfven(h=0.05, v_mode="v-split"),
        mhd_alfven(h=0.05, v_mode="v-implicit"),
        split_scalar_bernoulli(-2.0, 0.5, 1.0),
    ]


def test_jacobians_match_finite_differences():
    for prob in all_benchmarks():
        assert check_jacobians(prob, n_samples=20, seed=1) < 1e-5, prob.name


def test_fd_jacobian_on_quadratic_map():
    defect = fd_jacobian(lambda y: y * y, np.array([1.0, -2.0]))
    np.testing.assert_allclose(defect, np.diag([2.0, -4.0]), atol=1e-7)


def test_eval_outputs_have_problem_dim():
    # an operator half states no Jacobian; a nonlinear half states one row
    # of values at the pattern for each state of a stack
    for prob in all_benchmarks():
        y = prob.y0
        assert prob.eval_f(y).shape == (prob.dim,)
        assert prob.eval_g(y).shape == (prob.dim,)
        for op, jac in ((prob.f_op, prob.jac_f), (prob.g_op, prob.jac_g)):
            if op is not None:
                assert jac is None
            else:
                assert jac(np.stack([y, 2.0 * y])).shape == (2, prob.jac_pattern.nnz)


def test_split_partition_is_conserved_under_swap():
    # swapping the roles of the two halves must leave f + g unchanged
    base = linear_advection_diffusion(0.1, 1.0 / 40.0)
    swapped = linear_advection_diffusion(0.1, 1.0 / 40.0, swap_roles=True)
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = rng.standard_normal(base.dim)
        lhs = base.eval_f(y) + base.eval_g(y)
        rhs = swapped.eval_f(y) + swapped.eval_g(y)
        scale = 1.0 + np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() < 1e-14 * scale


def test_mhd_split_preserves_total_right_hand_side():
    base = mhd_alfven(h=0.05, v_mode="v-split")
    other = mhd_alfven(h=0.05, v_mode="v-implicit")
    rng = np.random.default_rng(6)
    for t in (0.01, 0.07):
        y = rng.standard_normal(base.dim)
        lhs = base.rhs(y, t)
        rhs = other.rhs(y, t)
        scale = 1.0 + np.abs(lhs).max()
        assert np.abs(lhs - rhs).max() < 1e-14 * scale


def test_mhd_split_rejects_non_alfven_problem():
    # only the Alfven state has the (v, B) blocks a split acts on
    for prob in (burgers(0.05, 1.0 / 40.0),
                 linear_advection_diffusion(0.1, 1.0 / 40.0)):
        with pytest.raises(ValueError, match="components needs the mhd-alfven "
                           rf"problem.*got {prob.name!r}"):
            component_masks(prob)


@pytest.mark.parametrize("name, build", [
    ("linear-advection-diffusion", lambda h: linear_advection_diffusion(0.1, h)),
    ("burgers", lambda h: burgers(0.05, h)),
    ("mhd-alfven", lambda h: mhd_alfven(h=h)),
])
def test_grid_benchmarks_reject_a_step_that_does_not_divide_the_domain(name, build):
    lo, hi = {"linear-advection-diffusion": (0.0, 1.0), "burgers": (-1.0, 1.0),
              "mhd-alfven": (0.0, MHD_DEFAULTS["L"])}[name]
    for h in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=f"h must be positive, got {h}"):
            build(h)
    for h in (0.3, 2.5 * (hi - lo)):
        with pytest.raises(ValueError, match="does not divide"):
            build(h)


def test_linear_problems_are_linear_maps():
    prob = linear_advection_diffusion(0.1, 1.0 / 40.0)
    assert prob.linear
    rng = np.random.default_rng(9)
    for _ in range(5):
        y1 = rng.standard_normal(prob.dim)
        y2 = rng.standard_normal(prob.dim)
        a, b = rng.standard_normal(2)
        for ev in (prob.eval_f, prob.eval_g):
            combo = ev(a * y1 + b * y2)
            parts = a * ev(y1) + b * ev(y2)
            scale = 1.0 + np.abs(parts).max()
            assert np.abs(combo - parts).max() < 1e-12 * scale


def test_stencils_annihilate_constants():
    for prob in (
        linear_advection_diffusion(0.1, 1.0 / 40.0),
        burgers(0.05, 1.0 / 40.0),
    ):
        const = np.full(prob.dim, 0.7)
        # derivative stencils see a flat state; scale by the stencil size
        scale = 1.0 / prob.metadata["h"] ** 2
        assert np.abs(prob.eval_f(const)).max() < 1e-12 * scale
        assert np.abs(prob.eval_g(const)).max() < 1e-12 * scale


def test_advection_diffusion_grid_and_initial_condition():
    prob = linear_advection_diffusion(0.1, 1.0 / 40.0)
    assert prob.dim == 40
    # u0 = sin(2 pi x) peaks at the grid point nearest x = 1/4
    assert np.argmax(prob.y0) == 10
    assert prob.y0[10] == pytest.approx(1.0)


def test_advection_vanishes_on_constant_state():
    prob = linear_advection_diffusion(0.1, 1.0 / 40.0)
    np.testing.assert_allclose(prob.eval_f(np.ones(prob.dim)), 0.0, atol=1e-12)


def test_diffusion_stencil_symbol_on_sine():
    # g applied to sin(2 pi x) approximates -gamma (2 pi)^2 sin(2 pi x)
    prob = linear_advection_diffusion(0.1, 1.0 / 40.0)
    got = prob.eval_g(prob.y0)
    want = -0.1 * (2.0 * np.pi) ** 2 * prob.y0
    mask = np.abs(want) > 1e-3
    assert np.abs((got[mask] - want[mask]) / want[mask]).max() < 0.02


def test_swap_roles_exchanges_halves():
    base = linear_advection_diffusion(0.1, 1.0 / 40.0)
    swapped = linear_advection_diffusion(0.1, 1.0 / 40.0, swap_roles=True)
    y = base.y0
    np.testing.assert_allclose(swapped.eval_f(y), base.eval_g(y), atol=1e-14)
    np.testing.assert_allclose(swapped.eval_g(y), base.eval_f(y), atol=1e-14)


def test_non_divisible_mesh_rejected():
    with pytest.raises(ValueError, match="divide"):
        linear_advection_diffusion(0.1, 0.3)


def test_burgers_grid_and_nonlinearity():
    prob = burgers(0.05, 1.0 / 40.0)
    assert prob.dim == 80
    # y0 = sin(pi x) on [-1, 1)
    assert prob.y0[0] == pytest.approx(0.0, abs=1e-14)
    # advection Jacobian vanishes at the zero state: only diffusion remains
    jz = prob.jac_f(np.zeros((1, prob.dim)))
    np.testing.assert_allclose(jz, 0.0, atol=1e-14)
    assert not prob.linear


def test_burgers_jacobian_stays_on_its_stated_pattern():
    # three entries a row, wrapped: the stencils' neighbours and the
    # diagonal; the finite-difference Jacobian at any state is nonzero only
    # there, and jac_f states one value for each entry
    prob = burgers(0.05, 1.0 / 10.0)
    m = prob.dim
    want = np.zeros((m, m), dtype=bool)
    for shift in (-1, 0, 1):
        want[np.arange(m), (np.arange(m) + shift) % m] = True
    assert isinstance(prob.jac_pattern, sparse.csr_array)
    assert np.array_equal(prob.jac_pattern.toarray(), want)
    rng = np.random.default_rng(2)
    ys = rng.standard_normal((5, m))
    assert prob.jac_f(ys).shape == (5, 3 * m)
    for y in ys:
        jac = fd_jacobian(lambda u: prob.eval_f(u) + prob.eval_g(u), y)
        assert not np.any(jac[~want])


def test_burgers_jacobian_is_the_stencil_formula():
    # jac_f states -(diag(d1 u) + u d1) at the pattern, to the value, for
    # every state of a stack: of 6 states, and of as many as an adjoint
    # solve reads, where a dense matmul would round d1 u another way
    prob = burgers(0.05, 1.0 / 10.0)
    d1 = problems._stencil(prob.dim, 0.1, 1, periodic=True)
    rows, cols = prob.jac_pattern.nonzero()
    rng = np.random.default_rng(9)
    for us in (np.vstack([prob.y0, rng.standard_normal((5, prob.dim))]),
               rng.standard_normal((800, prob.dim))):
        want = np.stack([burgers_jacobian(d1, u)[rows, cols] for u in us])
        assert np.array_equal(prob.jac_f(us), want)


@pytest.mark.parametrize("half", ["f", "g"])
def test_an_operator_half_off_its_jacobian_pattern_is_refused(half):
    # the adjoint reads an operator at the stated pattern alone, so an
    # entry off it would be dropped: construction refuses it, naming the half
    op = np.diag([-1.0, -2.0, -3.0])
    op[0, 2] = 1e-300
    halves = {f"{half}_op": op}
    other = "g" if half == "f" else "f"
    halves.update({f"eval_{other}": lambda y: y * y,
                   f"jac_{other}": lambda ys: 2.0 * ys})
    with pytest.raises(ValueError, match=f"^{half}_op is nonzero off jac_pattern$"):
        problems.SplitOdeProblem(name="off-pattern", y0=np.ones(3),
                                 jac_pattern=sparse.eye_array(3), **halves)
    problems.SplitOdeProblem(name="on-pattern", y0=np.ones(3),
                             jac_pattern=op != 0.0, **halves)


def test_a_jacobian_pattern_has_the_state_shape():
    with pytest.raises(ValueError, match=r"jac_pattern has shape \(2, 3\)"):
        problems.SplitOdeProblem(name="bad-pattern", y0=np.ones(2),
                                 eval_f=lambda y: y * y,
                                 jac_f=lambda ys: 2.0 * ys,
                                 g_op=-np.eye(2), jac_pattern=np.ones((2, 3)))


def test_mhd_dimensions_and_metadata():
    prob = mhd_alfven()
    md = prob.metadata
    assert md["benchmark"] == "mhd-alfven"
    assert md["interior_per_field"] == 199
    assert prob.dim == 398
    assert md["alfven_speed"] == pytest.approx(
        MHD_DEFAULTS["B0"] / np.sqrt(MHD_DEFAULTS["mu0"] * MHD_DEFAULTS["rho"])
    )
    assert md["v_mode"] in MHD_V_MODES


def test_mhd_starts_from_rest_with_boundary_forcing():
    prob = mhd_alfven(h=0.05)
    np.testing.assert_allclose(prob.y0, 0.0)
    # the moving-plate boundary value enters through the forcing, so the
    # state accelerates away from zero for t > 0
    assert np.abs(prob.rhs(prob.y0, 0.01)).max() > 0.0


def test_mhd_v_implicit_momentum_rows_are_fully_implicit():
    # only the induction transport stays explicit in this mode: the
    # momentum rows of f, its Jacobian, and its forcing all vanish
    prob = mhd_alfven(h=0.05, v_mode="v-implicit")
    mh = prob.metadata["interior_per_field"]
    rng = np.random.default_rng(2)
    y = rng.standard_normal(prob.dim)
    np.testing.assert_allclose(prob.eval_f(y)[:mh], 0.0, atol=1e-15)
    np.testing.assert_allclose(problems.as_dense(prob.f_op)[:mh, :], 0.0, atol=1e-15)
    force_f, _ = prob.forcing(0.03)
    np.testing.assert_allclose(force_f[:mh], 0.0, atol=1e-15)
    assert np.abs(prob.eval_f(y)[mh:]).max() > 0.0

    split = mhd_alfven(h=0.05, v_mode="v-split")
    assert np.abs(split.eval_f(y)[:mh]).max() > 0.0


def test_mhd_rejects_unknown_mode():
    with pytest.raises(ValueError, match="v_mode"):
        mhd_alfven(h=0.05, v_mode="bogus")


@pytest.mark.parametrize("params, message", [
    ({"eta": 0.001}, "B0, rho, mu0, eta and L"),
    ({"B0": -800.0}, "B0, rho, mu0, eta and L"),
    ({"B0": float("nan")}, "B0, rho, mu0, eta and L"),
    ({"rho": 0.0}, "rho must be positive"),
    ({"mu0": -1.0}, "mu0 must be positive"),
    ({"eta": 0.0}, "eta must be positive"),
    ({"mu": -1.0}, "mu must be >= 0"),
], ids=["eta-overflow", "negative-b0-overflow", "nan-b0", "rho-zero",
        "mu0-negative", "eta-zero", "mu-negative"])
def test_mhd_rejects_physics_the_closed_form_cannot_take(params, message):
    # math.exp would raise a bare OverflowError, math.sqrt a domain error
    with pytest.raises(ValueError, match=message):
        mhd_alfven(h=0.05, **params)


def test_mhd_rejects_an_unknown_physics_parameter():
    # the cli rejects unknown config keys before the builder runs
    with pytest.raises(ValueError, match=r"unknown mhd parameters: \['B1'\]"):
        mhd_alfven(h=0.05, B1=1.0)


def test_alfven_analytic_rest_state_at_nonpositive_time():
    prob = mhd_alfven(h=0.05)
    for t in (0.0, -0.5, np.nan):
        np.testing.assert_allclose(prob.boundary_data(t), 0.0)
        np.testing.assert_allclose(prob.pde_solution(t), 0.0)


def test_alfven_analytic_boundary_values():
    # impulsively started plate: v -> U at zeta = 0 as t -> 0+, and the
    # induced field vanishes at the plate for all times
    prob = mhd_alfven(h=0.05)
    v_0, _, b_0, _ = prob.boundary_data(1e-12)
    assert v_0 == pytest.approx(1.0, abs=1e-9)
    assert b_0 == pytest.approx(0.0, abs=1e-15)
    v_0, _, b_0, _ = prob.boundary_data(0.05)
    assert v_0 == pytest.approx(1.0, abs=1e-12)
    assert b_0 == pytest.approx(0.0, abs=1e-15)


def test_alfven_analytic_decays_into_interior():
    prob = mhd_alfven(h=0.05)
    mh = prob.metadata["interior_per_field"]
    zeta = prob.metadata["h"] * np.arange(1, mh + 1)
    i = np.argmin(np.abs(zeta - 0.9))
    assert zeta[i] == pytest.approx(0.9)
    got = prob.pde_solution(1e-3)
    assert abs(got[i]) < 1e-10
    assert abs(got[mh + i]) < 1e-10


def test_component_masks_partition_the_state():
    prob = mhd_alfven(h=0.05)
    masks = component_masks(prob)
    assert set(masks) == {"v", "B"}
    assert masks["v"].sum() == prob.metadata["interior_per_field"]
    assert np.all(masks["v"] ^ masks["B"])
    with pytest.raises(ValueError):
        component_masks(burgers(0.05, 1.0 / 40.0))


def test_qoi_mean_left_half_patterns():
    np.testing.assert_allclose(qoi_mean_left_half(4).psi, [1.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(qoi_mean_left_half(4, scale=0.0).psi, np.zeros(4))
    psi = qoi_mean_left_half(80).psi
    assert psi[:41].sum() == pytest.approx(41.0)
    assert np.all(psi[41:] == 0.0)
    with pytest.raises(ValueError, match="even"):
        qoi_mean_left_half(5)


def test_qoi_mean_left_half_scale():
    psi = qoi_mean_left_half(40, scale=1.0 / 40.0).psi
    assert psi[0] == pytest.approx(1.0 / 40.0)
    assert psi.sum() == pytest.approx(21.0 / 40.0)


def test_qoi_integral_v_layout():
    qoi = qoi_integral_v(200, 5e-3)
    assert qoi.kind == "final-time"
    assert qoi.psi.size == 400
    np.testing.assert_allclose(qoi.psi[:200], 5e-3)
    np.testing.assert_allclose(qoi.psi[200:], 0.0)


def test_qoi_spec_validation():
    with pytest.raises(ValueError):
        QoiSpec(kind="final-time", psi=None)
    with pytest.raises(ValueError):
        QoiSpec(kind="time-integrated", psi=np.ones(3))
    with pytest.raises(ValueError):
        QoiSpec(kind="bogus", psi=np.ones(3))


def test_scalar_bernoulli_analytic_solves_the_ode():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    np.testing.assert_allclose(prob.analytic(0.0), prob.y0, atol=1e-14)
    for t in (0.1, 0.7, 1.3):
        eps = 1e-6
        dy = (prob.analytic(t + eps) - prob.analytic(t - eps)) / (2 * eps)
        rhs = prob.rhs(prob.analytic(t), t)
        assert dy[0] == pytest.approx(rhs[0], rel=1e-6)
    with pytest.raises(ValueError):
        split_scalar_bernoulli(0.0, 0.5, 1.0)


def test_split_linear_system_matrix_exponential():
    f_mat = [[0.0, 2.0], [-2.0, 0.0]]
    g_mat = [[-1.0, 0.0], [0.0, -3.0]]
    prob = split_linear_system(f_mat, g_mat, [1.0, 0.5])
    from scipy.linalg import expm

    full = np.array(f_mat) + np.array(g_mat)
    for t in (0.3, 1.0):
        np.testing.assert_allclose(
            prob.analytic(t), expm(full * t) @ prob.y0, atol=1e-12
        )


def test_split_scalar_linear_components():
    prob = split_scalar_linear(-0.25, -0.75, 2.0)
    assert prob.analytic(1.0)[0] == pytest.approx(2.0 * np.exp(-1.0), abs=1e-13)
    assert prob.eval_f(np.array([3.0]))[0] == pytest.approx(-0.75)
    assert prob.eval_g(np.array([3.0]))[0] == pytest.approx(-2.25)


# -- the evaluator contract ---------------------------------------------------

def contract_problems():
    return [
        (linear_advection_diffusion(0.1, 1.0 / 40.0), (0.0, 1.0)),
        (linear_advection_diffusion(0.075, 1.0 / 20.0, swap_roles=True), (0.0, 1.0)),
        (burgers(0.05, 1.0 / 40.0), (0.0, 1.0)),
        (mhd_alfven(h=0.05, v_mode="v-split"), (-0.02, 0.1)),
        (mhd_alfven(h=0.05, v_mode="v-implicit"), (-0.02, 0.1)),
        (split_scalar_bernoulli(-2.0, 0.5, 1.0), (0.0, 1.0)),
        (split_scalar_linear(-0.4, -0.6, 1.0), (0.0, 1.0)),
        (split_linear_system([[0.0, 2.0], [-2.0, 0.0]], [[-1.0, 0.0], [0.0, -3.0]],
                             [1.0, 0.5]), (0.0, 1.0)),
    ]


@pytest.mark.parametrize("case", range(8), ids=[
    "advdiff", "advdiff-swapped", "burgers", "mhd-v-split", "mhd-v-implicit",
    "bernoulli", "scalar-linear", "linear-split"])
def test_halves_on_a_stack_match_row_by_row(case):
    prob, (t_lo, t_hi) = contract_problems()[case]
    rng = np.random.default_rng(case)
    ys = rng.standard_normal((7, prob.dim))
    ts = np.linspace(t_lo, t_hi, 7)  # the MHD range starts at rest, t <= 0
    f_all, g_all = prob.halves(ys, ts)
    assert f_all.shape == g_all.shape == ys.shape
    rows = [prob.halves(ys[j], ts[j]) for j in range(ys.shape[0])]
    # relative to the largest entry: a stack may sum a stencil row in another
    # order, which moves cancelled entries by roundoff of their summands
    for got, want in ((f_all, np.stack([f for f, _ in rows])),
                      (g_all, np.stack([g for _, g in rows])),
                      (prob.rhs(ys, ts), f_all + g_all)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("case", range(6), ids=[
    "advdiff", "advdiff-swapped", "mhd-v-split", "mhd-v-implicit",
    "scalar-linear", "linear-split"])
def test_linear_problems_are_their_jacobians_times_the_state(case):
    # the linear contract: both halves are a constant Jacobian times the
    # state and every state-independent term is in the forcing
    probs = [prob for prob, _ in contract_problems() if prob.linear]
    assert len(probs) == 6
    prob = probs[case]
    # an operator half's Jacobian is its operator: it states none
    assert prob.jac_f is None and prob.jac_g is None
    op = problems.as_dense(prob.f_op) + problems.as_dense(prob.g_op)
    rng = np.random.default_rng(case)
    for _ in range(5):
        y = rng.standard_normal(prob.dim)
        got = prob.eval_f(y) + prob.eval_g(y)
        # the split sums a row in two parts: roundoff of the summed magnitudes
        scale = (np.abs(op) @ np.abs(y)).max()
        assert np.abs(got - op @ y).max() <= 1e-14 * scale


def test_one_halves_or_rhs_call_evaluates_the_forcing_once():
    prob = mhd_alfven(h=0.05)
    calls = []
    forcing = prob.forcing

    def counted(t):
        calls.append(t)
        return forcing(t)

    prob.forcing = counted
    y = np.ones(prob.dim)
    prob.halves(y, 0.01)
    assert len(calls) == 1
    prob.rhs(y, 0.01)
    assert len(calls) == 2
    prob.rhs(np.ones((5, prob.dim)), np.linspace(0.0, 0.1, 5))
    assert len(calls) == 3


# Loop-built stencils the vectorised builder replaced, kept as its oracle.

def loop_periodic_d1(m, h):
    d1 = np.zeros((m, m))
    for i in range(m):
        d1[i, (i + 1) % m] += 1.0 / (2.0 * h)
        d1[i, (i - 1) % m] -= 1.0 / (2.0 * h)
    return d1


def loop_periodic_d2(m, h):
    d2 = np.zeros((m, m))
    for i in range(m):
        d2[i, (i + 1) % m] += 1.0 / h**2
        d2[i, i] -= 2.0 / h**2
        d2[i, (i - 1) % m] += 1.0 / h**2
    return d2


def loop_dirichlet_d1(m, h):
    d1 = np.zeros((m, m))
    for i in range(m):
        if i + 1 < m:
            d1[i, i + 1] += 1.0 / (2.0 * h)
        if i - 1 >= 0:
            d1[i, i - 1] -= 1.0 / (2.0 * h)
    left = np.zeros(m)
    left[0] = -1.0 / (2.0 * h)
    right = np.zeros(m)
    right[-1] = 1.0 / (2.0 * h)
    return d1, left, right


def loop_dirichlet_d2(m, h):
    d2 = np.zeros((m, m))
    for i in range(m):
        if i + 1 < m:
            d2[i, i + 1] += 1.0 / h**2
        d2[i, i] -= 2.0 / h**2
        if i - 1 >= 0:
            d2[i, i - 1] += 1.0 / h**2
    left = np.zeros(m)
    left[0] = 1.0 / h**2
    right = np.zeros(m)
    right[-1] = 1.0 / h**2
    return d2, left, right


@pytest.mark.parametrize("m", [1, 2, 3, 20, 40, 80, 199])
def test_stencil_builder_matches_the_loop_builders(m):
    h = 1.0 / (m + 1)
    assert np.array_equal(problems._stencil(m, h, 1, periodic=True), loop_periodic_d1(m, h))
    assert np.array_equal(problems._stencil(m, h, 2, periodic=True), loop_periodic_d2(m, h))
    for order, loop in ((1, loop_dirichlet_d1), (2, loop_dirichlet_d2)):
        full = problems._stencil(m, h, order, periodic=False)
        mat, left, right = loop(m, h)
        assert full.shape == (m, m + 2)
        assert np.array_equal(full[:, 1:-1], mat)
        assert np.array_equal(full[:, 0], left)
        assert np.array_equal(full[:, -1], right)


# The numpy closed form the scalar kernel replaced, kept as its oracle.

def numpy_alfven(zeta, t, B0=10.0, rho=1.0, mu=1.0, eta=1.0, mu0=1.0, U=1.0):
    """(v, B) from the vectorised formula, and for each the summed
    magnitudes of the terms it is built from, the scale of its roundoff.

    erfc(x) at large x is relatively ill-conditioned (2 x^2), and an erfc
    that underflows is accurate only to the smallest normal number; the
    B magnitude carries both.
    """
    zeta = np.asarray(zeta, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim:
        t = t[:, None]
    started = t > 0.0
    t = np.where(started, t, 1.0)
    d = eta / mu0
    a0 = B0 / np.sqrt(mu0 * rho)
    s = 2.0 * np.sqrt(d * t)
    arg_m = (zeta - a0 * t) / s
    arg_p = (zeta + a0 * t) / s
    e_m = np.exp(-a0 * zeta / d)
    e_p = np.exp(a0 * zeta / d)
    v = 0.25 * U * (e_m * (1.0 - erf(arg_m)) - erf(arg_m)) \
        + 0.25 * U * (e_p * (1.0 - erf(arg_p)) - erf(arg_p) + 2.0)
    b = -0.25 * e_m * (e_p - 1.0) * U * np.sqrt(mu * rho) \
        * (erfc(arg_m) + e_p * erfc(arg_p))
    abs_erf_m, abs_erf_p = np.abs(erf(arg_m)), np.abs(erf(arg_p))
    v_mag = 0.25 * abs(U) * (e_m * (1.0 + abs_erf_m) + abs_erf_m
                             + e_p * (1.0 + abs_erf_p) + abs_erf_p + 2.0)
    floor = np.finfo(float).tiny / np.finfo(float).eps
    b_mag = 0.25 * e_m * (e_p + 1.0) * abs(U) * np.sqrt(mu * rho) \
        * (erfc(arg_m) * (1.0 + 2.0 * arg_m**2)
           + e_p * erfc(arg_p) * (1.0 + 2.0 * arg_p**2) + floor * (1.0 + e_p))
    return tuple(np.where(started, x, 0.0) for x in (v, b, v_mag, b_mag))


ALFVEN_PHYSICS = [
    {},
    {"B0": 3.0, "rho": 2.0, "mu": 0.5, "eta": 0.3, "mu0": 1.5, "U": -0.7},
    {"B0": -40.0, "eta": 0.1},
    {"B0": 700.0, "U": 3.0},
]
ALFVEN_PHYSICS_IDS = ["default", "mixed", "negative-b0", "steep"]


def alfven_times(rng):
    """Random times across the start, with the rest and edge cases."""
    return np.concatenate([rng.uniform(-0.05, 0.3, 12),
                           10.0 ** rng.uniform(-300.0, 1.0, 6),
                           [0.0, -0.0, 1e-300, np.nan]])


# math.erf/erfc/exp and scipy/numpy's differ by an ulp or so per term
ALFVEN_ULPS = 4 * np.finfo(float).eps


def alfven_fields(zeta, t, **physics):
    """The scalar kernel mapped over points zeta and each of the times t,
    for the physics over MHD_DEFAULTS."""
    p = {**MHD_DEFAULTS, **physics}
    return problems._alfven_fields(zeta, np.asarray(t, dtype=float)[..., None],
                                   *(p[k] for k in problems._ALFVEN_PHYSICS))


@pytest.mark.parametrize("physics", ALFVEN_PHYSICS, ids=ALFVEN_PHYSICS_IDS)
def test_alfven_analytic_matches_the_numpy_closed_form(physics):
    rng = np.random.default_rng(len(physics))
    zeta = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
    ts = alfven_times(rng)
    cases = [(ts, (ts.size, zeta.size))] + [(t, zeta.shape) for t in ts]
    for t, shape in cases:
        got = alfven_fields(zeta, t, **physics)
        v, b, v_mag, b_mag = numpy_alfven(zeta, t, **physics)
        for new, old, mag in zip(got, (v, b), (v_mag, b_mag)):
            assert new.shape == shape
            assert np.all(np.abs(new - old) <= ALFVEN_ULPS * mag)


def test_mhd_pde_solution_samples_the_analytic_fields():
    prob = mhd_alfven(h=0.05)
    mh = prob.metadata["interior_per_field"]
    zeta = prob.metadata["h"] * np.arange(1, mh + 1)
    v, b, v_mag, b_mag = numpy_alfven(zeta, 0.1)
    got = prob.pde_solution(0.1)
    assert np.all(np.abs(got[:mh] - v) <= ALFVEN_ULPS * v_mag)
    assert np.all(np.abs(got[mh:] - b) <= ALFVEN_ULPS * b_mag)


def bits(arr):
    """An array's float64 bits: equal only to the bit, signs of zero and
    NaNs included."""
    return np.asarray(arr, dtype=float).view(np.int64)


@pytest.mark.parametrize("v_mode", MHD_V_MODES)
@pytest.mark.parametrize("physics", ALFVEN_PHYSICS, ids=ALFVEN_PHYSICS_IDS)
def test_boundary_data_over_a_vector_equals_the_per_time_calls(physics, v_mode):
    prob = mhd_alfven(h=0.1, v_mode=v_mode, **physics)
    md = prob.metadata
    point = [md[key] for key in problems._ALFVEN_PHYSICS]
    # the rest state (t <= 0 and NaN), and 5e-324, where d*t underflows
    # for the mixed and negative-B0 physics (the start-limit branch)
    ts = np.concatenate([alfven_times(np.random.default_rng(5)), [5e-324, -1.0]])
    # one time is the closed form at both ends: (v(0), v(L), B(0), B(L))
    for t in ts:
        (v_0, b_0), (v_l, b_l) = (problems._alfven_point(zeta, float(t), *point)
                                  for zeta in (0.0, md["L"]))
        assert np.array_equal(bits(prob.boundary_data(t)), bits([v_0, v_l, b_0, b_l]))
    # an array of times, of any shape, gives each time's row to the bit,
    # and so does the exact solution at the interior points
    for fn, width in ((prob.boundary_data, 4), (prob.pde_solution, prob.dim)):
        want = np.stack([fn(t) for t in ts])
        for shape in ((ts.size,), (2, ts.size // 2), (0,)):
            got = fn(ts[:np.prod(shape, dtype=int)].reshape(shape))
            assert got.shape == shape + (width,)
            assert np.array_equal(bits(got).reshape(-1, width), bits(want[:got.size // width]))


def test_alfven_fields_take_the_start_limit_where_d_t_underflows():
    # eta/mu0 * 5e-324 rounds to zero: the numpy form divided by zero into
    # erf(+-inf), which gives the t -> 0+ limit; a float division would raise
    zeta = np.array([0.0, 0.5, 1.0])
    for physics in ({"eta": 0.3}, *ALFVEN_PHYSICS[1:3]):
        got = alfven_fields(zeta, 5e-324, **physics)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = numpy_alfven(zeta, 5e-324, **physics)[:2]
        u = physics.get("U", 1.0)
        for new, old, limit in zip(got, want, ([u, 0.0, 0.0], [0.0, 0.0, 0.0])):
            assert np.array_equal(new, old) and np.array_equal(new, limit)


def alfven_dense(md, cols):
    """Dense f and g matrices of the centred stencils' columns cols,
    placed per (v, B) field block: the interior columns give the
    (m, m) operators, the Dirichlet end columns the pickups."""
    mh, h = md["interior_per_field"], md["h"]
    d1, d2 = (problems._stencil(mh, h, order, periodic=False)[:, cols]
              for order in (1, 2))
    w = d1.shape[1]
    sv, sb = slice(0, mh), slice(mh, 2 * mh)
    cv, cb = slice(0, w), slice(w, 2 * w)
    f_mat, g_mat = np.zeros((2 * mh, 2 * w)), np.zeros((2 * mh, 2 * w))
    f_mat[sb, cv] = md["B0"] * d1                       # transport
    g_mat[sb, cb] = md["eta"] / md["mu0"] * d2          # magnetic diffusion
    g_mat[sv, cv] = md["mu"] / md["rho"] * d2           # viscosity
    lorentz = f_mat if md["v_mode"] == "v-split" else g_mat
    lorentz[sv, cb] = md["B0"] / md["rho"] * d1
    return f_mat, g_mat


def pickups(md):
    """(m, 4) f and g pickups of (v(0), v(L), B(0), B(L)), from the
    Dirichlet end columns of the centred stencils."""
    return alfven_dense(md, [0, -1])


@pytest.mark.parametrize("v_mode", MHD_V_MODES)
@pytest.mark.parametrize("physics, length",
                         list(zip(ALFVEN_PHYSICS, (1.0, 2.0, 1.0, 1.0))),
                         ids=ALFVEN_PHYSICS_IDS)
def test_mhd_forcing_is_the_pickups_times_the_exact_boundary_data(physics, length,
                                                                 v_mode):
    prob = mhd_alfven(h=0.1, v_mode=v_mode, L=length, **physics)
    pick_f, pick_g = pickups(prob.metadata)
    rng = np.random.default_rng(len(physics))
    ts = alfven_times(rng)
    for t in [ts] + list(ts):
        v, b, v_mag, b_mag = numpy_alfven([0.0, length], t, **physics)
        data = np.concatenate([v, b], axis=-1)
        data_mag = np.concatenate([v_mag, b_mag], axis=-1)
        for got, pick in zip(prob.forcing(t), (pick_f, pick_g)):
            assert got.shape == np.shape(t) + (prob.dim,)
            bound = ALFVEN_ULPS * (data_mag @ np.abs(pick).T)
            assert np.all(np.abs(got - data @ pick.T) <= bound)


@pytest.mark.parametrize("v_mode", MHD_V_MODES)
def test_stacked_forcing_equals_the_per_time_calls(v_mode):
    # the estimate's (B, P) Gauss times: one boundary_data call on all of
    # them, and each time's forcing exactly as that time alone gives it,
    # since a CSR pickup's rows do not depend on the stack height
    prob = mhd_alfven(h=0.05, v_mode=v_mode)
    ts = alfven_times(np.random.default_rng(7))
    times = ts.reshape(2, -1)
    calls = []
    data = prob.boundary_data

    def counted(t):
        calls.append(np.shape(t))
        return data(t)

    prob.boundary_data = counted
    got = prob.forcing(times)
    assert calls == [(ts.size,)]
    rows = [prob.forcing(row) for row in times]
    ones = [prob.forcing(t) for t in ts]
    for j, half in enumerate(got):
        assert half.shape == times.shape + (prob.dim,)
        assert ones[0][j].shape == (prob.dim,)
        assert np.array_equal(bits(half), bits(np.stack([row[j] for row in rows])))
        assert np.array_equal(bits(half).reshape(ts.size, -1),
                              bits(np.stack([one[j] for one in ones])))


@pytest.mark.parametrize("v_mode", MHD_V_MODES)
def test_mhd_boundary_is_the_summed_forcing(v_mode):
    prob = mhd_alfven(h=0.05, v_mode=v_mode)
    # the pickups are CSR, like the operators
    for got, want in zip(prob.pickups, pickups(prob.metadata)):
        np.testing.assert_array_equal(got.toarray(), want)
    pick = sum(pick.toarray() for pick in prob.pickups)
    for t in alfven_times(np.random.default_rng(11)):
        force_f, force_g = prob.forcing(t)
        values = np.asarray(prob.boundary_data(t))
        # the summed pickups add the two halves' terms in another order
        bound = np.finfo(float).eps * (np.abs(pick) @ np.abs(values))
        assert np.all(np.abs(pick @ values - (force_f + force_g)) <= bound)


def test_linear_problem_with_a_forcing_needs_its_boundary():
    # a forcing is its pickups times the boundary data: either alone fails
    # at construction, with or without the operators
    forced = dict(pickups=(np.zeros((1, 1)), np.ones((1, 1))),
                  boundary_data=lambda t: [1.0])
    fields = dict(name="forced", eval_f=lambda y: 0.0 * y, eval_g=lambda y: -y,
                  jac_f=lambda ys: 0.0 * ys, jac_g=lambda ys: -np.ones_like(ys),
                  y0=np.ones(1))
    ops = dict(f_op=np.zeros((1, 1)), g_op=-np.eye(1))
    for halves in (ops, {}):
        for key in forced:
            with pytest.raises(ValueError, match="pickups .* and boundary_data"):
                problems.SplitOdeProblem(**{key: forced[key]}, **halves, **fields)
    # the same system with both is accepted, linear with its operators
    assert not problems.SplitOdeProblem(**forced, **fields).linear
    prob = problems.SplitOdeProblem(**forced, **ops, **fields)
    assert prob.linear
    force_f, force_g = prob.forcing(0.5)
    assert np.array_equal(force_f, [0.0]) and np.array_equal(force_g, [1.0])


# -- the operator forms --------------------------------------------------------

def test_a_half_is_given_by_its_operator_or_by_eval_and_jac():
    g_op = sparse.csr_array(np.array([[-2.0, 1.0], [0.0, -3.0]]))
    # the f half's Jacobian is 2 diag(y), stated on the full pattern
    prob = problems.SplitOdeProblem(
        name="derived", y0=np.ones(2), g_op=g_op, eval_f=lambda y: y * y,
        jac_f=lambda ys: np.stack([np.diag(2.0 * y).ravel() for y in ys]))
    y = np.array([0.5, -1.5])
    # the g half is its operator alone, and states no Jacobian
    assert prob.jac_g is None
    assert np.array_equal(prob.jac_pattern.toarray(), np.ones((2, 2), dtype=bool))
    for state in (y, np.stack([y, 2.0 * y])):
        got = prob.eval_g(state)
        assert type(got) is np.ndarray
        assert np.array_equal(got, state @ g_op.toarray().T)
    with pytest.raises(ValueError, match="f half needs f_op, or eval_f and jac_f"):
        problems.SplitOdeProblem(name="no-f", y0=np.ones(2), g_op=g_op,
                                 eval_f=lambda y: y * y)


def test_a_replaced_operator_gives_its_half_its_evaluation():
    # a copy made with dataclasses.replace evaluates its own operator, not
    # the one it replaced, so the forward and the adjoint solve one f
    prob = dataclasses.replace(split_scalar_linear(-1.0, -2.0, 1.0), f_op=[[5.0]])
    assert np.array_equal(prob.eval_f(np.array([1.0])), [5.0])
    assert np.array_equal(prob.eval_g(np.array([1.0])), [-2.0])


def test_a_replaced_operator_gives_a_linear_problem_its_pattern():
    # a linear problem derives its pattern from its operators on every
    # construction: a copy with a new entry in g_op carries it, where the
    # copied pattern would refuse the operator as nonzero off it
    prob = mhd_alfven(h=0.05)
    g_op = prob.g_op.tolil()
    g_op[0, prob.dim - 1] = 1.0
    copy = dataclasses.replace(prob, g_op=sparse.csr_array(g_op))
    want = sparse.csr_array(prob.f_op != 0) + (copy.g_op != 0)
    assert (copy.jac_pattern != want).nnz == 0
    assert copy.jac_pattern[0, prob.dim - 1] and not prob.jac_pattern[0, prob.dim - 1]
    assert dataclasses.replace(copy, f_op=prob.f_op.toarray(),
                               g_op=copy.g_op.toarray()).jac_pattern is None


@pytest.mark.parametrize("case", range(8), ids=[
    "advdiff", "advdiff-swapped", "burgers", "mhd-v-split", "mhd-v-implicit",
    "bernoulli", "scalar-linear", "linear-split"])
def test_builders_hand_over_the_operator_form_of_their_structure(case):
    prob, _ = contract_problems()[case]
    forms = {"f_op": type(prob.f_op), "g_op": type(prob.g_op)}
    if prob.metadata.get("benchmark") == "mhd-alfven":
        want = {"f_op": sparse.csr_array, "g_op": sparse.csr_array}
        # the pickups are CSR too
        assert all(isinstance(pick, sparse.csr_array) for pick in prob.pickups)
    elif prob.name in ("burgers", "scalar-bernoulli-split"):
        want = {"f_op": type(None), "g_op": np.ndarray}
    else:
        want = {"f_op": np.ndarray, "g_op": np.ndarray}
    assert forms == want
    assert prob.linear == (prob.f_op is not None)
    with pytest.raises(AttributeError):
        prob.linear = True


@pytest.mark.parametrize("v_mode", MHD_V_MODES)
def test_csr_halves_and_forcing_match_the_dense_product(v_mode):
    prob = mhd_alfven(h=0.05, v_mode=v_mode)
    f_mat, g_mat = alfven_dense(prob.metadata, slice(1, -1))
    pick_f, pick_g = pickups(prob.metadata)
    # the builder's CSR arrays are exactly those of the dense blocks
    for got, dense in zip((prob.f_op, prob.g_op, *prob.pickups),
                          (f_mat, g_mat, pick_f, pick_g)):
        want = sparse.csr_array(dense)
        for part in ("indptr", "indices", "data"):
            got_part, want_part = getattr(got, part), getattr(want, part)
            assert got_part.dtype == want_part.dtype
            assert np.array_equal(got_part, want_part)
    rng = np.random.default_rng(12)
    ys = rng.standard_normal((6, prob.dim))
    ts = np.linspace(0.01, 0.1, 6)
    data = np.array([prob.boundary_data(t) for t in ts])

    def close(got, want):
        assert type(got) is np.ndarray and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    for y, t, b in ((ys[0], ts[0], data[0]), (ys, ts, data)):
        close(prob.eval_f(y), y @ f_mat.T)
        close(prob.eval_g(y), y @ g_mat.T)
        force_f, force_g = prob.forcing(t)
        close(force_f, b @ pick_f.T)
        close(force_g, b @ pick_g.T)


@pytest.mark.parametrize("case", range(6), ids=[
    "advdiff", "advdiff-swapped", "mhd-v-split", "mhd-v-implicit",
    "scalar-linear", "linear-split"])
def test_constant_operators_equal_the_summed_jacobians(case):
    prob = [prob for prob, _ in contract_problems() if prob.linear][case]
    jac = problems.as_dense(prob.f_op) + problems.as_dense(prob.g_op)
    # the adjoint's constant operator
    assert np.array_equal(problems.as_dense(prob.f_op + prob.g_op), jac)
