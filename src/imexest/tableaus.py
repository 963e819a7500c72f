"""Paired Butcher tableaus for IMEX Runge-Kutta schemes.

The explicit tableau (abscissae c, strictly lower triangular A, weights w)
advances the non-stiff term; the implicit one (abscissae d, lower
triangular B with nonzero diagonal where a stage is implicit, weights
w-tilde) advances the stiff term.  Both weight vectors double as
quadrature weights at the implicit abscissae d, which is what makes the
nodal finite-element reinterpretation (and hence the error estimate)
work, so the implicit abscissae must be pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# SSP3(3,3,2) diagonal; L-stable choice
GAMMA_332 = 1.0 - 1.0 / np.sqrt(2.0)

# SSP3(4,3,3) constants (Pareschi-Russo family)
ALPHA_433 = 0.24169426078821
BETA_433 = 0.06042356519705
ETA_433 = 0.12915286960590

ABSCISSA_TOL = 1e-12
ROW_SUM_TOL = 1e-13
WEIGHT_SUM_TOL = 1e-13


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """One half of an IMEX pair: abscissae, coefficient matrix, weights."""

    abscissae: np.ndarray
    coeffs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "abscissae", _freeze(self.abscissae))
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))
        object.__setattr__(self, "weights", _freeze(self.weights))
        n = self.abscissae.size
        if self.coeffs.shape != (n, n) or self.weights.shape != (n,):
            raise ValueError(
                f"inconsistent tableau shapes: c{self.abscissae.shape}, "
                f"A{self.coeffs.shape}, w{self.weights.shape}"
            )

    @property
    def n_stages(self) -> int:
        return self.abscissae.size


@dataclass(frozen=True, eq=False)
class ImexPair:
    """Explicit/implicit tableau pair with a name and formal order."""

    name: str
    order: int
    explicit: ButcherTableau
    implicit: ButcherTableau

    @property
    def n_stages(self) -> int:
        return self.explicit.n_stages


def validate(pair: ImexPair) -> list[str]:
    """Return a list of defect messages; empty means the pair is usable."""
    issues: list[str] = []
    ex, im = pair.explicit, pair.implicit
    if ex.n_stages != im.n_stages:
        issues.append(
            f"stage count mismatch: explicit {ex.n_stages} vs implicit {im.n_stages}"
        )
        return issues
    n = ex.n_stages
    if pair.order < 1:
        issues.append(f"order must be a positive integer, got {pair.order}")

    for i in range(n):
        for j in range(i, n):
            if ex.coeffs[i, j] != 0.0:
                issues.append(f"A not strictly lower triangular (row {i}, col {j})")
    for i in range(n):
        for j in range(i + 1, n):
            if im.coeffs[i, j] != 0.0:
                issues.append(f"B not lower triangular (row {i}, col {j})")

    for label, tab in (("explicit", ex), ("implicit", im)):
        defect = np.abs(tab.coeffs.sum(axis=1) - tab.abscissae)
        for i in np.nonzero(defect > ROW_SUM_TOL)[0]:
            issues.append(
                f"{label} row sum mismatch at row {i}: "
                f"sum {tab.coeffs[i].sum():.16g} vs abscissa {tab.abscissae[i]:.16g}"
            )
        s = tab.weights.sum()
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            issues.append(f"{label} weights do not sum to 1 (sum {s:.16g})")

    d = im.abscissae
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i] - d[j]) < ABSCISSA_TOL:
                issues.append(f"duplicate implicit abscissae ({i}, {j})")
    return issues


def _midpoint_122() -> ImexPair:
    explicit = ButcherTableau(
        abscissae=[0.0, 0.5],
        coeffs=[[0.0, 0.0], [0.5, 0.0]],
        weights=[0.0, 1.0],
    )
    implicit = ButcherTableau(
        abscissae=[0.0, 0.5],
        coeffs=[[0.0, 0.0], [0.0, 0.5]],
        weights=[0.0, 1.0],
    )
    return ImexPair(name="Mid(1,2,2)", order=2, explicit=explicit, implicit=implicit)


def _ssp3_332() -> ImexPair:
    g = GAMMA_332
    explicit = ButcherTableau(
        abscissae=[0.0, 1.0, 0.5],
        coeffs=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.0]],
        weights=[1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    )
    implicit = ButcherTableau(
        abscissae=[g, 1.0 - g, 0.5],
        coeffs=[[g, 0.0, 0.0], [1.0 - 2.0 * g, g, 0.0], [0.5 - g, 0.0, g]],
        weights=[1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    )
    return ImexPair(name="SSP3(3,3,2)", order=2, explicit=explicit, implicit=implicit)


def _ssp3_433() -> ImexPair:
    a, b, e = ALPHA_433, BETA_433, ETA_433
    explicit = ButcherTableau(
        abscissae=[0.0, 0.0, 1.0, 0.5],
        coeffs=[
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.25, 0.25, 0.0],
        ],
        weights=[0.0, 1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    )
    implicit = ButcherTableau(
        abscissae=[a, 0.0, 1.0, 0.5],
        coeffs=[
            [a, 0.0, 0.0, 0.0],
            [-a, a, 0.0, 0.0],
            [0.0, 1.0 - a, a, 0.0],
            [b, e, 0.5 - b - e - a, a],
        ],
        weights=[0.0, 1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
    )
    return ImexPair(name="SSP3(4,3,3)", order=3, explicit=explicit, implicit=implicit)


_BUILTIN_FACTORIES = {
    "Mid(1,2,2)": _midpoint_122,
    "SSP3(3,3,2)": _ssp3_332,
    "SSP3(4,3,3)": _ssp3_433,
}

BUILTIN_NAMES = tuple(_BUILTIN_FACTORIES)

_ALIASES = {
    "mid(1,2,2)": "Mid(1,2,2)",
    "mid122": "Mid(1,2,2)",
    "midpoint": "Mid(1,2,2)",
    "midpoint(1,2,2)": "Mid(1,2,2)",
    "ssp3(3,3,2)": "SSP3(3,3,2)",
    "ssp332": "SSP3(3,3,2)",
    "ssp3(4,3,3)": "SSP3(4,3,3)",
    "ssp343": "SSP3(4,3,3)",
    "ssp433": "SSP3(4,3,3)",
}


def builtin(name: str) -> ImexPair:
    """Look up a built-in scheme by name (case-insensitive, spaces ignored)."""
    key = name.strip().lower().replace(" ", "")
    canonical = _ALIASES.get(key)
    if canonical is None:
        raise ValueError(
            f"unknown scheme {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTIN_FACTORIES[canonical]()


def _tableau_to_dict(tab: ButcherTableau, abscissa_key: str, matrix_key: str) -> dict:
    return {
        abscissa_key: tab.abscissae.tolist(),
        matrix_key: tab.coeffs.tolist(),
        "w": tab.weights.tolist(),
    }


def pair_to_dict(pair: ImexPair) -> dict:
    """The pair as a JSON interchange document."""
    return {
        "name": pair.name,
        "order": pair.order,
        "explicit": _tableau_to_dict(pair.explicit, "c", "A"),
        "implicit": _tableau_to_dict(pair.implicit, "d", "B"),
    }
