"""IMEX Runge-Kutta integration of split ODE systems ydot = f(y) + g(y),
with adjoint-weighted a posteriori estimates of the error in a quantity
of interest.  The estimate is split into a discretization part and two
quadrature parts (one for the explicit term, one for the implicit term),
so the contribution of each half of the splitting can be read off
directly.
"""

from .tableaus import ButcherTableau, ImexPair, builtin, validate
from .numerics import LagrangeBasis
from .problems import (
    SplitOdeProblem, QoiSpec, linear_advection_diffusion, burgers,
    mhd_alfven, qoi_mean_left_half, qoi_integral_v,
    split_linear_system, split_scalar_linear, split_scalar_bernoulli,
    component_masks,
)
from .solver import TimeGrid, NewtonConfig, ForwardSolution, solve_forward, step
from .reconstruct import PiecewisePolynomial, build_cg
from .adjoint import AdjointSolution, solve_adjoint
from .estimate import (
    ErrorBreakdown, error_breakdown, error_breakdown_timedep,
    effectivity, component_split, residual_weighted_estimate,
)
from .reference import ReferenceConfig, true_qoi

_CLI_NAMES = ("RunConfig", "ReportRow", "run", "reproduce_table",
              "convergence_study", "table_config", "write_report_csv",
              "CliError")


def __getattr__(name):
    # deferred so `python -m imexest.cli` does not double-import the module
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ButcherTableau", "ImexPair", "builtin", "validate",
    "LagrangeBasis",
    "SplitOdeProblem", "QoiSpec", "linear_advection_diffusion", "burgers",
    "mhd_alfven", "qoi_mean_left_half",
    "qoi_integral_v", "split_linear_system", "split_scalar_linear",
    "split_scalar_bernoulli", "component_masks",
    "TimeGrid", "NewtonConfig", "ForwardSolution", "solve_forward", "step",
    "PiecewisePolynomial", "build_cg",
    "AdjointSolution", "solve_adjoint",
    "ErrorBreakdown", "error_breakdown",
    "error_breakdown_timedep", "effectivity", "component_split",
    "residual_weighted_estimate",
    "ReferenceConfig", "true_qoi",
    "RunConfig", "ReportRow", "run", "reproduce_table", "convergence_study",
    "table_config", "write_report_csv", "CliError",
]

__version__ = "0.1.0"
