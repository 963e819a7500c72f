"""Property tests of the estimate on random small linear split systems and
the nonlinear Bernoulli equation over random non-uniform grids, for
final-time and time-varying time-integrated QoIs, every built-in scheme
and random valid IMEX pairs: inputs the shipped benchmarks never use.
Also the estimate's sharpening as the adjoint grid is refined on one
linear system, over a uniform grid and random graded ones, a piecewise
polynomial's span readers against its whole-grid tables, the band
systems of an adjoint block form and of a stage form on random sparse
patterns, and the reference states DOP853 steps onto on random uniform
grids."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from imexest.adjoint import solve_adjoint  # noqa: E402
from imexest.cli import SCHEME_ORDER, run  # noqa: E402
from imexest.estimate import (  # noqa: E402
    component_split, effectivity, error_breakdown, error_breakdown_timedep,
    residual_weighted_estimate)
from imexest.numerics import (  # noqa: E402
    GAUSS_NODES, BlockForm, StageForm, lu_factor, node_order)
from imexest.problems import (  # noqa: E402
    QoiSpec, split_linear_system, split_scalar_bernoulli)
from imexest.reference import (  # noqa: E402
    ReferenceConfig, qoi_from_states, reference_states, true_qoi)
from imexest.reconstruct import PiecewisePolynomial, build_cg  # noqa: E402
from imexest.solver import TimeGrid, solve_forward  # noqa: E402
from imexest.tableaus import ButcherTableau, ImexPair, builtin, validate  # noqa: E402
from oracles import band_matrix, dense_blocks, evaluate  # noqa: E402

ENTRIES = st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)


@st.composite
def random_pairs(draw):
    """A pair in the Ascher-Ruuth-Spiteri / Pareschi-Russo form: A strictly
    lower triangular, B lower triangular with its diagonal in (0.1, 0.5),
    abscissae the row sums, distinct implicit abscissae in [0, 1], positive
    weights summing to 1.  No order condition is imposed."""
    s = draw(st.integers(2, 4))
    a_ex = np.tril(draw(arrays(float, (s, s), elements=st.floats(0.0, 0.5))), -1)
    b_im = np.tril(draw(arrays(float, (s, s), elements=ENTRIES)), -1)
    b_im[np.diag_indices(s)] = draw(arrays(float, s, elements=st.floats(
        0.1, 0.5, exclude_min=True, exclude_max=True)))
    # the first entry of rows 1.. sets that row's sum to a drawn abscissa
    targets = draw(arrays(float, s - 1, elements=st.floats(0.0, 1.0)))
    b_im[1:, 0] += targets - b_im[1:].sum(axis=1)
    d = b_im.sum(axis=1)
    assume(np.diff(np.sort(d)).min() > 1e-3)

    def weights():
        raw = draw(arrays(float, s, elements=st.floats(0.1, 1.0)))
        return raw / raw.sum()

    pair = ImexPair(
        name="random", order=draw(st.sampled_from((2, 3))),
        explicit=ButcherTableau(a_ex.sum(axis=1), a_ex, weights()),
        implicit=ButcherTableau(d, b_im, weights()))
    assert validate(pair) == []
    return pair


@st.composite
def runs(draw):
    """Problem, pair, forward, reconstruction, adjoint and breakdown of one
    random case: a
    linear system of 1 to 3 equations, or the scalar Bernoulli equation,
    whose nonlinear explicit half makes the adjoint take its Jacobian per
    interval; a final-time QoI, or a time-integrated one whose weight
    varies in time."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        prob = split_linear_system(
            draw(arrays(float, (m, m), elements=ENTRIES)),
            draw(arrays(float, (m, m), elements=ENTRIES)),
            draw(arrays(float, m, elements=ENTRIES)))
    else:
        # lam <= -0.5, |mu| <= 0.5 and 0 < y0 <= 1 keep y(t) finite for t > 0
        m = 1
        prob = split_scalar_bernoulli(draw(st.floats(-2.0, -0.5)),
                                      draw(ENTRIES), draw(st.floats(0.2, 1.0)))
    psi = draw(arrays(float, m, elements=ENTRIES))
    if draw(st.booleans()):
        qoi = QoiSpec(kind="final-time", psi=psi)
    else:
        omega = draw(st.floats(0.5, 5.0))
        qoi = QoiSpec(kind="time-integrated",
                      psi_tilde=lambda t: psi * np.cos(omega * t))
    steps = draw(st.lists(st.floats(0.02, 0.2), min_size=1, max_size=8))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    pair = draw(st.sampled_from(("mid122", "ssp332", "ssp343")).map(builtin)
                | random_pairs())
    return pipeline(prob, pair, grid, qoi, refine=draw(st.integers(1, 4)))


def pipeline(prob, pair, grid, qoi, refine):
    """The (problem, pair, forward, reconstruction, adjoint, breakdown)
    tuple that ``runs`` draws."""
    fwd = solve_forward(prob, pair, grid)
    recon = build_cg(pair, fwd)
    adj = solve_adjoint(prob, recon, qoi, refine=refine)
    bd = breakdown(qoi)(prob, pair, fwd, recon, adj)
    return prob, pair, fwd, recon, adj, bd


def breakdown(qoi: QoiSpec):
    return error_breakdown if qoi.kind == "final-time" else error_breakdown_timedep


# a subnormal psi makes every phi subnormal: 1e-12 |phi| is then zero,
# and a table and the point reader can differ by one float spacing, 5e-324
SUBNORMAL_ADJOINT = pipeline(
    split_scalar_bernoulli(-0.7788222146412762, -0.2825119433215395,
                           0.597787320703541),
    builtin("ssp343"), TimeGrid([0.0, 0.19974060031730675, 0.3053653500527479]),
    QoiSpec(kind="final-time", psi=np.array([1.79e-321])), refine=2)


@settings(max_examples=60, deadline=None)
@given(runs())
def test_components_sum_to_the_residual_weighted_estimate(case):
    prob, _pair, fwd, recon, adj, bd = case
    direct = residual_weighted_estimate(prob, recon, adj)
    roundoff = 1e-12 * (1.0 + np.abs(fwd.nodal).max() * (1.0 + adj.max_abs()))
    assert abs(bd.e1 + bd.e2 + bd.e3 - direct) <= bd.galerkin_raw.sum() + roundoff


@settings(max_examples=60, deadline=None)
@given(runs())
def test_reconstruction_matches_the_nodal_values(case):
    _prob, _pair, fwd, recon, _adj, _bd = case
    scale = 1e-12 * (1.0 + np.abs(fwd.nodal).max())
    assert np.abs(recon.coeffs[:, -1] - fwd.nodal[1:]).max() <= scale
    assert recon.continuity_defect() <= scale


@settings(max_examples=60, deadline=None)
@given(runs())
@example(SUBNORMAL_ADJOINT)
def test_tables_at_local_points_match_pointwise_evaluation(case):
    # phi on each forward interval, read as one interval of the refined
    # adjoint grid: at the Gauss points of its subintervals, at the stage
    # abscissae, and at tau = 0, 1/2 and 1, where a point can sit on a
    # subinterval boundary; a random pair's abscissa can be a rounding
    # error below 0, as -1e-17 is
    _prob, pair, _fwd, recon, adj, _bd = case
    grid = recon.grid
    refine = adj.poly.grid.n_intervals // grid.n_intervals
    taus, _wts, read = recon.gauss_table(refine)
    values, _derivs = read(slice(None))
    assert np.array_equal(recon.at(taus), values)
    points = np.concatenate([taus, pair.implicit.abscissae,
                             [0.0, 0.5, 1.0, -1e-17]])
    table = adj.poly.at(points, refine)
    assert table.shape == (grid.n_intervals, points.size, recon.dim)
    # a few float spacings, for an adjoint so small that 1e-12 of it is zero
    scale = max(1e-12 * adj.max_abs(), 4 * np.spacing(adj.max_abs()))
    for n in range(grid.n_intervals):
        want = np.stack([evaluate(adj.poly, grid.nodes[n] + grid.steps[n] * tau)
                         for tau in points])
        assert np.all(np.abs(table[n] - want) <= 1e-12 * np.abs(want) + scale)


@st.composite
def polynomials(draw):
    """A piecewise polynomial of degree 1 to 4 in 1 to 3 states on 1 to 12
    random steps, read in runs of 1 to 4 of them, and a span, which may
    reach past the last run or interval."""
    factor = draw(st.integers(1, 4))
    n = factor * draw(st.integers(1, 3))
    degree, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    steps = draw(arrays(float, n, elements=st.floats(0.01, 1.0)))
    coeffs = draw(arrays(float, (n, degree + 1, m), elements=st.floats(-1e3, 1e3)))
    poly = PiecewisePolynomial(TimeGrid(np.concatenate([[0.0], np.cumsum(steps)])),
                               degree, coeffs)
    start = draw(st.integers(0, n))
    return poly, factor, slice(start, draw(st.integers(start, n + 1)))


def bits(arr: np.ndarray) -> np.ndarray:
    return arr.view(np.int64)


@settings(max_examples=60, deadline=None)
@given(polynomials(),
       arrays(float, st.integers(1, 12), elements=st.floats(-1e-16, 1.0 + 1e-15)))
def test_span_readers_read_the_whole_grid_tables_bit_for_bit(case, taus):
    # a span's values, and the Gauss table's values and time derivatives,
    # are those of the whole grid to the bit; the derivatives are the
    # basis derivatives' product with every interval, over its step
    poly, factor, span = case
    got, want = poly.reader(taus, factor)(span), poly.at(taus, factor)[span]
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))
    gauss, _wts, read = poly.gauss_table(factor)
    values, derivs = read(span)
    slopes = poly.basis.deriv_matrix(gauss) @ poly.coeffs
    slopes /= poly.grid.steps[:, None, None]
    assert np.array_equal(bits(values), bits(poly.at(gauss)[span]))
    assert np.array_equal(bits(derivs), bits(slopes[span]))


@settings(max_examples=60, deadline=None)
@given(runs(), st.data())
def test_component_blocks_sum_to_the_three_terms(case, data):
    # a random partition into up to three blocks, some possibly empty
    bd = case[-1]
    m = bd.term_density.shape[2]
    labels = data.draw(arrays(int, m, elements=st.integers(0, 2)))
    split = component_split(bd, {f"b{j}": labels == j for j in range(3)})
    sums = np.sum([split[name] for name in split], axis=0)
    scale = np.abs(bd.term_density).sum(axis=(0, 2))
    assert np.all(np.abs(sums - [bd.e1, bd.e2, bd.e3]) <= 1e-13 * scale)


@pytest.mark.parametrize("scheme", SCHEME_ORDER)
@pytest.mark.parametrize("qoi", [
    {"kind": "final-time", "psi": [1.0, 0.5]},
    {"kind": "time-integrated", "psi_tilde_const": [1.0, 0.5]},
], ids=["final-time", "time-integrated"])
def test_effectivity_converges_under_adjoint_refinement(qoi, scheme):
    # the error representation is exact for the exact adjoint, so on a linear
    # problem |effectivity - 1| follows the adjoint error: it falls 16x per
    # doubling for the degree-2 adjoint of mid122 and ssp332, 64x for ssp343
    doc = {"scheme": scheme, "qoi": qoi, "grid": {"t_end": 1.0, "k": 0.1},
           "problem": {"name": "linear-split", "f_mat": [[0.0, 2.0], [-2.0, 0.0]],
                       "g_mat": [[-1.0, 0.0], [0.0, -3.0]], "y0": [1.0, 0.5]}}
    devs = [abs(run({**doc, "adjoint": {"refine": refine}}).effectivity - 1.0)
            for refine in (1, 2, 4, 8)]
    for coarse, fine in zip(devs, devs[1:]):
        assert fine * 8.0 <= coarse, devs


# 4 to 12 steps, each 0.7 to 1.4 times the one before
GROWTHS = st.lists(st.floats(0.7, 1.4), min_size=3, max_size=11)


@pytest.mark.parametrize("scheme", SCHEME_ORDER)
@pytest.mark.parametrize("qoi", [
    QoiSpec(kind="final-time", psi=np.array([1.0, 0.5])),
    QoiSpec(kind="time-integrated", psi_tilde=lambda t: np.array([1.0, 0.5])),
], ids=["final-time", "time-integrated"])
@settings(max_examples=15, deadline=None)
@given(growth=GROWTHS)
@example(growth=[1.25] * 9)  # 10 steps growing by 1.25 each
def test_effectivity_converges_under_adjoint_refinement_on_a_graded_grid(
        qoi, scheme, growth):
    # the library pipeline on a random graded grid over [0, 1]: the
    # adjoint's per-interval path, with the same rates as on a uniform grid
    steps = np.cumprod([1.0, *growth])
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps / steps.sum())]))
    prob = split_linear_system([[0.0, 2.0], [-2.0, 0.0]],
                               [[-1.0, 0.0], [0.0, -3.0]], [1.0, 0.5])
    pair = builtin(scheme)
    fwd = solve_forward(prob, pair, grid)
    recon = build_cg(pair, fwd)
    states = fwd.final_state if qoi.kind == "final-time" else recon.at(GAUSS_NODES)
    true_err = true_qoi(prob, grid, qoi) - qoi_from_states(states, grid, qoi)
    devs = []
    for refine in (1, 2, 4, 8):
        adj = solve_adjoint(prob, recon, qoi, refine=refine)
        bd = breakdown(qoi)(prob, pair, fwd, recon, adj)
        devs.append(abs(effectivity(bd.estimate_total, true_err) - 1.0))
    for coarse, fine in zip(devs, devs[1:]):
        assert fine * 8.0 <= coarse, devs


@st.composite
def block_systems(draw):
    """A random m x m pattern (m from 1 to 12), r from 1 to 3, a right-hand
    side of r m rows, a vector or three columns, and two kinds of systems
    on the pattern: a sparse adjoint block form, its blocks' values on it
    in [-1, 1], with 2 r m added to the system's diagonal so that it is
    strictly diagonally dominant; and a stage form, with an (r, r)
    coefficient matrix C and Jacobian values on the pattern in [-1, 1],
    and a step k of size below 1 / (r m), which also makes I - k C (x) J
    strictly diagonally dominant."""
    m = draw(st.integers(1, 12))
    r = draw(st.integers(1, 3))
    pattern = sparse.csr_array(draw(arrays(bool, (m, m))))
    nodes = node_order(pattern)
    form = BlockForm(m, r, pattern, nodes)
    blocks = draw(arrays(float, (r, r + 1, form.rows.size),
                         elements=st.floats(-1.0, 1.0)))
    for a in range(r):
        blocks[(a, a, *form.diagonal)] += 2 * r * m
    shape = draw(st.sampled_from([(r * m,), (r * m, 3)]))
    rhs = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    coeffs = draw(arrays(float, (r, r), elements=st.floats(-1.0, 1.0)))
    jac = draw(arrays(float, pattern.nnz, elements=st.floats(-1.0, 1.0)))
    k = draw(st.floats(-0.99, 0.99)) / (r * m)
    stage = SimpleNamespace(pattern=pattern, nodes=nodes, coeffs=coeffs, jac=jac, k=k)
    return form, blocks, rhs, stage


@settings(max_examples=60, deadline=None)
@given(block_systems())
def test_band_solve_matches_numpy_on_random_patterns(case):
    form, blocks, rhs, _ = case
    dense, _ = BlockForm(form.m, form.r, np.zeros((form.m, form.m)), None).system(
        dense_blocks(form, blocks))
    want = np.linalg.solve(dense, rhs)
    band, _ = form.system(blocks)
    got = lu_factor(band, singular=ZeroDivisionError)(rhs)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(block_systems())
def test_stage_band_is_the_kronecker_system_on_random_patterns(case):
    # the band holds I - k C (x) J entry for entry, the dense stage form
    # gives exactly numpy's bits, and on these diagonally dominant draws a
    # band solve matches numpy's of the dense system
    _, _, rhs, stage = case
    rows, cols = stage.pattern.nonzero()
    mat = np.zeros(stage.pattern.shape)
    mat[rows, cols] = stage.jac
    want = np.eye(rhs.shape[0]) - stage.k * np.kron(stage.coeffs, mat)
    dense = StageForm(stage.coeffs, None, None).system(stage.k, mat)
    assert type(dense) is np.ndarray
    assert np.array_equal(dense.view(np.int64), want.view(np.int64))
    band = StageForm(stage.coeffs, stage.pattern, stage.nodes).system(stage.k, stage.jac)
    assert np.array_equal(band_matrix(band), want)
    off_diagonal = np.abs(want).sum(axis=1) - np.abs(np.diagonal(want))
    assert np.all(np.abs(np.diagonal(want)) > off_diagonal)
    got = lu_factor(band, singular=ZeroDivisionError)(rhs)
    np.testing.assert_allclose(got, np.linalg.solve(want, rhs), rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(-2.0, -0.5), mu=st.floats(-0.5, 0.5),
       y0=st.floats(0.1, 1.0, exclude_min=True, exclude_max=True),
       rtol_exponent=st.floats(-12.0, -4.0), t_end=st.floats(0.1, 3.0),
       n=st.integers(1, 40))
def test_node_stepping_reference_matches_the_closed_form(lam, mu, y0, rtol_exponent,
                                                        t_end, n):
    # w = 1 / y solves w' = -lam w - mu from 1 / y0 > 1 > |mu / lam|, so w
    # grows and never crosses zero: y stays in (0, 1)
    prob = split_scalar_bernoulli(lam, mu, y0)
    nodes = TimeGrid.uniform(t_end, n).nodes
    rtol = 10.0 ** rtol_exponent
    cfg = ReferenceConfig(mode="high-order-numeric", rtol=rtol, atol=1e-2 * rtol)
    got = reference_states(prob, nodes, cfg)
    want = np.stack([prob.analytic(t) for t in nodes])
    assert got.shape == want.shape == (n + 1, 1)
    assert np.abs(got - want).max() <= 10.0 * (cfg.rtol * np.abs(want).max() + cfg.atol)
