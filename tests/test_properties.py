"""Property tests of the estimate on random small linear split systems over
random non-uniform grids, for every built-in scheme and for random valid
IMEX pairs: inputs the shipped benchmarks never use.  Also the estimate's
sharpening as the adjoint grid is refined on one linear system."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from imexest.adjoint import solve_adjoint  # noqa: E402
from imexest.cli import SCHEME_ORDER, run  # noqa: E402
from imexest.estimate import (  # noqa: E402
    component_split, error_breakdown, residual_weighted_estimate)
from imexest.problems import QoiSpec, split_linear_system  # noqa: E402
from imexest.reconstruct import build_cg  # noqa: E402
from imexest.solver import TimeGrid, solve_forward  # noqa: E402
from imexest.tableaus import ButcherTableau, ImexPair, builtin, validate  # noqa: E402

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
def linear_runs(draw):
    """Forward, reconstruction, adjoint and breakdown of one random case."""
    m = draw(st.integers(1, 3))
    f_mat = draw(arrays(float, (m, m), elements=ENTRIES))
    g_mat = draw(arrays(float, (m, m), elements=ENTRIES))
    y0 = draw(arrays(float, m, elements=ENTRIES))
    psi = draw(arrays(float, m, elements=ENTRIES))
    steps = draw(st.lists(st.floats(0.02, 0.2), min_size=1, max_size=8))
    grid = TimeGrid(np.concatenate([[0.0], np.cumsum(steps)]))
    pair = draw(st.sampled_from(("mid122", "ssp332", "ssp343")).map(builtin)
                | random_pairs())
    refine = draw(st.integers(1, 4))

    prob = split_linear_system(f_mat, g_mat, y0)
    fwd = solve_forward(prob, pair, grid)
    recon = build_cg(pair, fwd)
    adj = solve_adjoint(prob, recon, QoiSpec(kind="final-time", psi=psi),
                        refine=refine)
    bd = error_breakdown(prob, pair, fwd, recon, adj)
    return prob, fwd, recon, adj, bd


@settings(max_examples=60, deadline=None)
@given(linear_runs())
def test_components_sum_to_the_residual_weighted_estimate(case):
    prob, fwd, recon, adj, bd = case
    direct = residual_weighted_estimate(prob, recon, adj)
    roundoff = 1e-12 * (1.0 + np.abs(fwd.nodal).max() * (1.0 + adj.max_abs()))
    assert abs(bd.e1 + bd.e2 + bd.e3 - direct) <= bd.galerkin_raw.sum() + roundoff


@settings(max_examples=60, deadline=None)
@given(linear_runs())
def test_reconstruction_matches_the_nodal_values(case):
    _prob, fwd, recon, _adj, _bd = case
    defect = np.abs(recon.coeffs[:, -1] - fwd.nodal[1:]).max()
    assert defect <= 1e-12 * (1.0 + np.abs(fwd.nodal).max())


@settings(max_examples=60, deadline=None)
@given(linear_runs(), st.data())
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
