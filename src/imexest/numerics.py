"""Small numerical kernels shared by the solver and the estimator:
Lagrange bases on arbitrary distinct nodes, Gauss-Legendre rules, and
shifted Legendre modes for L2 projection onto low-degree polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_GAUSS_POINTS = 10


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre rule on the reference interval [-1, 1].

    Attributes
    ----------
    points : ndarray
        Quadrature nodes, strictly increasing, inside (-1, 1).
    weights : ndarray
        Positive weights summing to 2.
    """

    points: np.ndarray
    weights: np.ndarray

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.points + 1.0), half * self.weights


def gauss_rule(n_points: int) -> GaussRule:
    """Gauss-Legendre rule with 1..10 points (exact through degree 2n-1)."""
    if not 1 <= n_points <= MAX_GAUSS_POINTS:
        raise ValueError(
            f"gauss_rule supports 1..{MAX_GAUSS_POINTS} points, got {n_points}"
        )
    pts, wts = np.polynomial.legendre.leggauss(n_points)
    return GaussRule(points=pts, weights=wts)


# Rule used for every "continuous" inner product in the estimator; exact
# through polynomial degree 9, well past any product of the degree <= 3
# pieces that show up there.
DEFAULT_INNER_RULE = gauss_rule(5)


class LagrangeBasis:
    """Lagrange basis on distinct (not necessarily sorted) nodes.

    Evaluation uses the plain product formula; with the handful of nodes
    used here (degree <= 4) that is exact at the nodes themselves, so the
    delta property holds without rounding.
    """

    def __init__(self, nodes) -> None:
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1:
            raise ValueError("nodes must be a non-empty 1-d array")
        diffs = np.abs(nodes[:, None] - nodes[None, :])
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() == 0.0:
            i, j = np.unravel_index(np.argmin(diffs), diffs.shape)
            raise ValueError(f"coincident interpolation nodes {i} and {j}")
        self.nodes = nodes
        self.n = nodes.size

    def eval_matrix(self, ts) -> np.ndarray:
        """Values of all basis functions at ts; shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.ones((ts.size, self.n))
        for i in range(self.n):
            for j in range(self.n):
                if j != i:
                    out[:, i] *= (ts - self.nodes[j]) / (self.nodes[i] - self.nodes[j])
        return out

    def deriv_matrix(self, ts) -> np.ndarray:
        """Derivatives of all basis functions at ts; shape (len(ts), n)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, self.n))
        for i in range(self.n):
            for k in range(self.n):
                if k == i:
                    continue
                term = np.full(ts.size, 1.0 / (self.nodes[i] - self.nodes[k]))
                for j in range(self.n):
                    if j != i and j != k:
                        term *= (ts - self.nodes[j]) / (self.nodes[i] - self.nodes[j])
                out[:, i] += term
        return out


def legendre_shifted(degree: int, taus) -> np.ndarray:
    """Orthonormal-on-[0,1] shifted Legendre values, shape (degree+1, len(taus))."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    out = np.empty((degree + 1, taus.size))
    x = 2.0 * taus - 1.0
    for j in range(degree + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[j] = np.sqrt(2 * j + 1) * np.polynomial.legendre.legval(x, cj)
    return out
