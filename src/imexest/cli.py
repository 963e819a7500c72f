"""Experiment front end: single runs from JSON configs, benchmark-table
reproduction, convergence sweeps, and tableau dumps.

A run executes forward solve -> reconstruction -> adjoint -> error
breakdown -> reference, and reports one row per scheme: the estimate
total (computed_error = E1+E2+E3), the effectivity against the
high-accuracy reference, the three components, and optional per-block
component columns.  Reports are CSV with scientific notation at 6
significant digits, each row preceded by a comment echoing the fully
resolved config (defaults included) so runs are reproducible
byte-for-byte.  ``run``, ``reproduce_table`` and ``convergence_study``
each hold every OpenBLAS pool at one thread (``numerics.one_blas_thread``).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import numbers
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .adjoint import DEFAULT_REFINE, solve_adjoint
from .estimate import (component_split, effectivity, error_breakdown,
                       error_breakdown_timedep)
from .numerics import GAUSS_NODES, one_blas_thread
from .problems import (MHD_DEFAULTS, QoiSpec, SplitOdeProblem, burgers,
                       component_masks, finite_array, grid_cells,
                       linear_advection_diffusion,
                       mhd_alfven, qoi_integral_v, qoi_mean_left_half,
                       split_linear_system, split_scalar_bernoulli,
                       split_scalar_linear)
from .reconstruct import build_cg
from .reference import (ReferenceConfig, ReferenceError, exact_solution,
                        qoi_from_states, reference_states, true_qoi)
from .solver import NewtonConfig, TimeGrid, solve_forward
from .tableaus import ImexPair, builtin, pair_to_dict

# read by perfbench/sample.py for its env record; imexest itself ignores it
THREADS_ENV = "IMEXEST_THREADS"
NUM_FMT = "%.5E"  # 6 significant digits, scientific

SCHEME_ORDER = ("mid122", "ssp332", "ssp343")
_SHORT_NAMES = {builtin(s).name: s for s in SCHEME_ORDER}

REPORT_COLUMNS = ("scheme", "computed_error", "effectivity", "E1", "E2", "E3")
COMPONENT_COLUMNS = ("E1_v", "E1_B", "E2_v", "E2_B", "E3_v", "E3_B")


class CliError(RuntimeError):
    """Pipeline failure tagged with the stage it happened in."""

    def __init__(self, stage: str, detail, config: Optional[dict] = None):
        self.stage = stage
        msg = f"[{stage}] {detail}"
        if config is not None:
            msg += f"\nconfig: {canonical_json(config)}"
        super().__init__(msg)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _stage(stage: str, echo: Optional[dict] = None):
    """Any failure in the block leaves it as a CliError labelled with the
    stage, and with the resolved config once there is one; a CliError
    from an inner stage keeps its own label."""
    try:
        yield
    except CliError:
        raise
    except Exception as exc:
        raise CliError(stage, exc, echo) from exc


@contextmanager
def _labelled(where: str):
    """A builder's error in the block leaves it as a ValueError prefixed
    with the config section the builder resolves."""
    try:
        yield
    except (ValueError, TypeError, ReferenceError) as exc:
        raise ValueError(f"{where}: {exc}") from None


class Typed(NamedTuple):
    """Stands in a defaults table for a key without a default value: a
    value given to it must pass test (None: any value), a required key
    must be given non-null, and any other resolves to null."""

    test: Optional[Callable]
    what: str = ""
    required: bool = False


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


REQUIRED = Typed(None, required=True)
STRING = Typed(lambda v: isinstance(v, str), "a string", required=True)
NUMBER = Typed(_is_number, "a number", required=True)
NUMBER_OR_NULL = Typed(lambda v: v is None or _is_number(v), "a number")
INTEGER_OR_NULL = Typed(lambda v: v is None or _is_integer(v), "an integer")
STRING_OR_NULL = Typed(lambda v: v is None or isinstance(v, str),
                       "a string or null")
# the type a default value gives its key: null admits any value, a string
# is checked against its known names by its consumer, and an object marks
# a section, whose own resolution checks its shape
_TYPE_OF_DEFAULT = {bool: Typed(lambda v: isinstance(v, bool), "true or false"),
                    int: Typed(_is_integer, "an integer"),
                    float: Typed(_is_number, "a number")}

# problem name -> (constructor, parameter defaults).  Each constructor is
# looked up in this module when it is called, not captured here, so a
# rebinding of the module name reaches every run.
_PROBLEMS = {
    "linear-advection-diffusion": (
        lambda **p: linear_advection_diffusion(**p),
        {"gamma": NUMBER, "h": NUMBER, "swap_roles": False}),
    "burgers": (lambda **p: burgers(**p), {"gamma": NUMBER, "h": NUMBER}),
    # A0 is the derived wave speed an echo carries, not a parameter
    "mhd-alfven": (lambda **p: mhd_alfven(**p),
                   {"h": 5e-3, "v_mode": "v-split", **MHD_DEFAULTS,
                    "A0": NUMBER_OR_NULL}),
    "scalar-bernoulli": (lambda **p: split_scalar_bernoulli(**p),
                         dict.fromkeys(("lam", "mu", "y0"), NUMBER)),
    "scalar-linear": (lambda **p: split_scalar_linear(**p),
                      dict.fromkeys(("lam_f", "lam_g", "y0"), NUMBER)),
    "linear-split": (lambda **p: split_linear_system(**p),
                     dict.fromkeys(("f_mat", "g_mat", "y0"), REQUIRED)),
}

_QOI_PARAMS = {
    "mean-left-half": {"scale": 1.0},
    "integral-v": {},
    "final-time": {"psi": REQUIRED},
    "time-integrated": {"psi_tilde_const": REQUIRED},
}

_CONFIG_DEFAULTS = {"scheme": STRING, "problem": REQUIRED, "grid": REQUIRED,
                    "qoi": REQUIRED, "newton": {}, "reference": {},
                    "adjoint": {}, "output": {}, "components": False}
_GRID_DEFAULTS = {"t_end": NUMBER, "k": NUMBER_OR_NULL, "n": INTEGER_OR_NULL}
_ADJOINT_DEFAULTS = {"refine": DEFAULT_REFINE}
_OUTPUT_DEFAULTS = {"row_csv": STRING_OR_NULL, "series_dir": STRING_OR_NULL,
                    "series_indices": None, "name": STRING_OR_NULL}


def _resolve_section(given, defaults: dict, where: str) -> dict:
    """Defaults merged under the given keys, a Typed default resolving to
    null.  given must be an object, with every required key non-null and
    no key without a default.  A given number must fit in a float.  A
    given value must have its key's type: the one its Typed default names,
    else that of its default value, and a number must be finite unless
    the default is infinite.  Values are checked, not converted, so the
    echo keeps its bytes."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be an object, got {given!r}")
    missing = [k for k, v in defaults.items()
               if isinstance(v, Typed) and v.required and given.get(k) is None]
    if missing:
        raise ValueError(f"missing keys in {where}: {missing}")
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    for k, v in given.items():
        default = defaults[k]
        typed = (default if isinstance(default, Typed)
                 else _TYPE_OF_DEFAULT.get(type(default)))
        try:
            finite = not _is_number(v) or math.isfinite(v)
        except OverflowError:
            raise ValueError(
                f"{where} {k} is too large for a float, got {v!r}") from None
        # only an infinite default (reference max_step) admits infinity,
        # also as JSON's "inf"
        if (typed is None or typed.test is None
                or default == math.inf and v in (math.inf, "inf")):
            continue
        if not typed.test(v):
            raise ValueError(f"{where} {k} must be {typed.what}, got {v!r}")
        if not finite:
            raise ValueError(f"{where} {k} must be a finite number, got {v!r}")
    return {**{k: None if isinstance(v, Typed) else v
               for k, v in defaults.items()}, **given}


def _resolve_named(doc: dict, section: str, key: str, tables: dict):
    """doc[section]'s key (a problem name or QoI kind), and its other keys
    resolved against that name's defaults, tables[name]."""
    given, where = doc[section], f"config.{section}"
    name = given.get(key) if isinstance(given, dict) else None
    if name is not None and not (isinstance(name, str) and name in tables):
        raise ValueError(f"unknown {section} {key} {name!r}; "
                         f"known: {sorted(tables)}")
    rest = _resolve_section(given, {key: REQUIRED, **tables.get(name, {})},
                            where if name is None else f"{where} ({name})")
    return name, {k: v for k, v in rest.items() if k != key}


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


@dataclass
class RunConfig:
    """A validated run: ``echo``, the fully resolved config document
    (defaults included) that reports print and from_dict accepts back,
    plus the objects the pipeline runs on, each built as soon as its
    section resolves."""

    echo: dict
    pair: ImexPair
    ode: SplitOdeProblem
    time_grid: TimeGrid
    qoi_spec: QoiSpec
    masks: Optional[dict]
    newton: NewtonConfig
    reference: ReferenceConfig
    refine: int
    output: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Validate a config document; an echo is accepted back."""
        doc = _resolve_section(doc, _CONFIG_DEFAULTS, "config")
        echo = {"scheme": doc["scheme"]}
        pair = builtin(echo["scheme"])

        pname, prob = _resolve_named(
            doc, "problem", "name", {n: d for n, (_, d) in _PROBLEMS.items()})
        a0 = prob.pop("A0", None)
        with _labelled(f"config.problem ({pname})"):
            ode = _PROBLEMS[pname][0](**prob)
        echo["problem"] = prob = {**prob, "name": pname}
        if pname == "mhd-alfven":
            # derived wave speed recorded so reports carry it explicitly
            prob["A0"] = ode.metadata["alfven_speed"]
            if a0 is not None and a0 != prob["A0"]:
                raise ValueError(f"config.problem.A0 = {a0} disagrees with "
                                 f"B0/sqrt(mu0*rho) = {prob['A0']}")

        echo["components"] = doc["components"]
        masks = component_masks(ode) if doc["components"] else None

        grid = _resolve_section(doc["grid"], _GRID_DEFAULTS, "config.grid")
        t_end, k, n = float(grid["t_end"]), grid["k"], grid["n"]
        if t_end <= 0:
            raise ValueError("config.grid.t_end must be positive")
        if k is not None:
            n_k = grid_cells(0.0, t_end, float(k), "config.grid: step")
            if n not in (None, n_k):
                raise ValueError(
                    "config.grid takes k or n, not both, unless they agree: "
                    f"k = {k} gives n = {n_k}, not {n}")
            n = n_k
        elif n is None:
            raise ValueError("config.grid needs k or n")
        elif n < 1:
            raise ValueError("config.grid.n must be >= 1")
        echo["grid"] = {"t_end": t_end, "n": int(n), "k": t_end / n}
        time_grid = TimeGrid.uniform(t_end, int(n))

        kind, qoi = _resolve_named(doc, "qoi", "kind", _QOI_PARAMS)
        if kind == "integral-v" and pname != "mhd-alfven":
            raise ValueError("config.qoi: integral-v needs the mhd-alfven "
                             "problem, whose velocity block it integrates; "
                             f"got {pname!r}")
        with _labelled(f"config.qoi ({kind})"):
            qoi_spec = _build_qoi(kind, qoi, ode)
        echo["qoi"] = {**qoi, "kind": kind}

        echo["newton"] = _resolve_section(
            doc["newton"], _field_defaults(NewtonConfig), "config.newton")
        newton = NewtonConfig(**echo["newton"])
        ref = _resolve_section(doc["reference"],
                               _field_defaults(ReferenceConfig),
                               "config.reference")
        reference = ReferenceConfig(
            **{**ref, "max_step": float(ref["max_step"])})
        with _labelled("config.reference"):
            exact_solution(ode, reference.mode, 0.0)  # grids start at 0
        # JSON has no infinity: the echo writes it as the string "inf"
        echo["reference"] = ({**ref, "max_step": "inf"}
                             if reference.max_step == np.inf else ref)
        echo["adjoint"] = _resolve_section(doc["adjoint"], _ADJOINT_DEFAULTS,
                                           "config.adjoint")
        if echo["adjoint"]["refine"] < 1:
            raise ValueError("config.adjoint.refine must be >= 1")
        output = _resolve_section(doc["output"], _OUTPUT_DEFAULTS,
                                  "config.output")
        if output["row_csv"]:
            _check_out_dir(output["row_csv"], "config.output row_csv")
        # series files go into series_dir, made after the run with any
        # directory above it that is missing
        existing = output["series_dir"]
        while existing and not os.path.lexists(existing):
            existing = os.path.dirname(existing) or "."
        if existing and not os.path.isdir(existing):
            raise ValueError(
                f"config.output series_dir: {existing!r} is not a directory")
        name = output["name"] or ""
        if any(sep and sep in name for sep in (os.sep, os.altsep)):
            raise ValueError("config.output name must not contain a path "
                             f"separator, got {name!r}")
        indices = output["series_indices"]
        if indices is not None and not (isinstance(indices, list) and all(
                _is_integer(i) and 0 <= i < ode.dim for i in indices)):
            raise ValueError("config.output series_indices must be a list of "
                             f"integers in [0, {ode.dim}), got {indices!r}")
        return cls(echo=echo, pair=pair, ode=ode, time_grid=time_grid,
                   qoi_spec=qoi_spec, masks=masks, newton=newton,
                   reference=reference, refine=echo["adjoint"]["refine"],
                   output=output)


def _check_out_dir(path: str, where: str) -> None:
    """A report is written after its run: its directory must exist first."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"{where}: {path!r} is a directory")
    if not os.path.isdir(folder):
        raise ValueError(f"{where}: directory {folder!r} does not exist")


def _build_qoi(kind: str, q: dict, problem: SplitOdeProblem) -> QoiSpec:
    if kind == "mean-left-half":
        return qoi_mean_left_half(problem.dim, scale=q["scale"])
    if kind == "integral-v":
        md = problem.metadata
        return qoi_integral_v(md["interior_per_field"], md["h"])
    key = "psi" if kind == "final-time" else "psi_tilde_const"
    psi = finite_array(q[key], key)
    if psi.shape != (problem.dim,):
        raise ValueError(f"{key} must have the state dimension "
                         f"{problem.dim}, got shape {psi.shape}")
    if kind == "final-time":
        return QoiSpec(kind="final-time", psi=psi)
    return QoiSpec(kind="time-integrated", psi_tilde=lambda t: psi)


@dataclass
class ReportRow:
    """One scheme's result: estimate total, effectivity, and components."""

    scheme: str
    computed_error: float
    effectivity: Optional[float]
    e1: float
    e2: float
    e3: float
    components: Optional[dict] = None
    metadata: dict = field(default_factory=dict)

    def csv_values(self, with_components: bool) -> list:
        vals = [self.scheme, NUM_FMT % self.computed_error,
                "NA" if self.effectivity is None else NUM_FMT % self.effectivity,
                NUM_FMT % self.e1, NUM_FMT % self.e2, NUM_FMT % self.e3]
        if with_components:
            comp = self.components or {}
            for col in COMPONENT_COLUMNS:
                term, block = col.split("_")
                idx = int(term[1]) - 1
                triple = comp.get(block)
                vals.append("NA" if triple is None else NUM_FMT % triple[idx])
        return vals


# reference key -> (reference QoI, |reference - IMEX QoI| of the row it
# was solved for, which is the error a verified reference was checked at).
# The key covers the problem, grid, QoI and reference settings, and a
# verified entry is reused only for an error at least as large as the one
# it was verified against.
_REFERENCE_CACHE: dict = {}


def _reference_key(resolved: dict) -> str:
    return canonical_json({k: resolved[k]
                           for k in ("problem", "grid", "qoi", "reference")})


def _load_config(path: str) -> dict:
    """The config document in a file; a file that cannot be opened,
    decoded or parsed, for any reason, fails at the config stage."""
    with _stage("config"), open(path) as fh:
        return json.load(fh)


@one_blas_thread()
def run(config: dict):
    """Execute one configured experiment and produce its report row.

    Failures raise CliError labelled with the pipeline stage and echo the
    resolved config.
    """
    with _stage("config"):
        cfg = RunConfig.from_dict(config)
    problem, pair, grid, qoi = cfg.ode, cfg.pair, cfg.time_grid, cfg.qoi_spec
    with _stage("forward", cfg.echo):
        forward = solve_forward(problem, pair, grid, cfg.newton)
    with _stage("reconstruct", cfg.echo):
        recon = build_cg(pair, forward)
    with _stage("adjoint", cfg.echo):
        adj = solve_adjoint(problem, recon, qoi, refine=cfg.refine)
    with _stage("estimate", cfg.echo):
        if qoi.kind == "final-time":
            bd = error_breakdown(problem, pair, forward, recon, adj)
        else:
            bd = error_breakdown_timedep(problem, pair, forward, recon, adj)
    with _stage("reference", cfg.echo):
        # the final-time IMEX QoI is the nodal value itself, not the
        # reconstruction evaluated at t_end (which differs at roundoff)
        states = (forward.final_state if qoi.kind == "final-time"
                  else recon.at(GAUSS_NODES))
        imex_q = qoi_from_states(states, grid, qoi)
        key = _reference_key(cfg.echo)
        cached = _REFERENCE_CACHE.get(key)
        # a verified reference holds only for errors at least as large as
        # the one it was verified against
        if cached is not None and (not cfg.reference.verify
                                   or cached[1] <= abs(cached[0] - imex_q)):
            ref_q = cached[0]
        else:
            ref_q = true_qoi(problem, grid, qoi, cfg.reference, imex_qoi=imex_q)
            _REFERENCE_CACHE[key] = (ref_q, abs(ref_q - imex_q))
        true_err = ref_q - imex_q
        eff = effectivity(bd.estimate_total, true_err)
    with _stage("components", cfg.echo):
        comps = None if cfg.masks is None else component_split(bd, cfg.masks)
    with _stage("report", cfg.echo):
        row = ReportRow(
            scheme=pair.name, computed_error=bd.estimate_total,
            effectivity=eff, e1=bd.e1, e2=bd.e2, e3=bd.e3, components=comps,
            metadata={
                "reference_qoi": ref_q,
                "imex_qoi": imex_q,
                "true_error": true_err,
                "config": cfg.echo,
            })
        if cfg.output["row_csv"]:
            write_report_csv(cfg.output["row_csv"], [row])
        if cfg.output["series_dir"]:
            _emit_series(cfg, forward, adj, bd)
    return row


def write_report_csv(path: str, rows: list,
                     table_id: Optional[int] = None) -> None:
    """Rows as CSV, each preceded by a comment echoing its resolved config;
    the component columns appear when a row's config asks for them."""
    with_components = any(row.metadata.get("config", {}).get("components", False)
                          for row in rows)
    lines = [] if table_id is None else [f"# table: {table_id}"]
    lines.append(_csv_header(with_components))
    for row in rows:
        cfg = row.metadata.get("config")
        if cfg is not None:
            lines.append(f"# config: {canonical_json(cfg)}")
        lines.append(",".join(row.csv_values(with_components)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_header(with_components: bool) -> str:
    return ",".join(REPORT_COLUMNS + (COMPONENT_COLUMNS if with_components else ()))


def _write_columns(path: str, comment: str, header: str, columns) -> None:
    """A series file: a comment line, a header and one row per entry of
    the equally long columns, each value in NUM_FMT."""
    with open(path, "w") as fh:
        fh.write(f"# {comment}\n{header}\n")
        for row in zip(*columns):
            fh.write(",".join(NUM_FMT % v for v in row) + "\n")


def _emit_series(cfg: RunConfig, forward, adj, bd) -> None:
    """Time-series data files plus a plain-text figure description."""
    problem, grid = cfg.ode, cfg.time_grid
    out_dir = cfg.output["series_dir"]
    os.makedirs(out_dir, exist_ok=True)
    name = cfg.output["name"] or f"{problem.name}_{_SHORT_NAMES[cfg.pair.name]}"
    indices = cfg.output["series_indices"]
    if indices is None:
        indices = [problem.dim // 2]
    nodes = grid.nodes
    ends = adj.poly.at([0.0, 1.0], cfg.refine)  # the ends of each forward interval
    phi_nodes = np.concatenate((ends[:, 0], ends[-1:, 1]))
    for idx in indices:
        for tag, vals in (("Y", forward.nodal[:, idx]), ("phi", phi_nodes[:, idx])):
            _write_columns(os.path.join(out_dir, f"{name}_{tag}_state{idx}.csv"),
                           f"run: {name}; series: {tag}[{idx}]", "t,value",
                           (nodes, vals))
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    _write_columns(os.path.join(out_dir, f"{name}_eterms.csv"),
                   f"run: {name}; per-interval estimate components",
                   "t_mid,E1,E2,E3", (mids, *np.transpose(bd.per_interval)))

    max_y = float(np.abs(forward.nodal).max())
    desc = [f"Run {name}: scheme {cfg.pair.name} on problem "
            f"{problem.name}, T = {grid.t_end}, N = {grid.n_intervals}.",
            f"Data files: solution component(s) {indices} vs time "
            f"({name}_Y_state*.csv), adjoint weight at the same indices "
            f"({name}_phi_state*.csv), per-interval estimate components "
            f"({name}_eterms.csv).",
            f"Max |Y| over the run: {max_y:.3e}."]
    if max_y > 1e3 * (1.0 + float(np.abs(problem.y0).max())):
        desc.append("The trajectory grows by orders of magnitude: an "
                    "unstable run; plotting the component against time "
                    "shows the oscillatory blow-up.")
    else:
        desc.append("The trajectory stays bounded; plotting the component "
                    "against time shows the resolved evolution.")
    if problem.metadata.get("benchmark") == "mhd-alfven":
        mh = problem.metadata["interior_per_field"]
        zeta = problem.metadata["h"] * np.arange(1, mh + 1)
        v_true = problem.pde_solution(grid.t_end)[:mh]
        _write_columns(os.path.join(out_dir, f"{name}_profile_v.csv"),
                       f"run: {name}; velocity profile at T = {grid.t_end}",
                       "zeta,v_imex,v_analytic",
                       (zeta, forward.final_state[:mh], v_true))
        desc.append(f"Velocity profile at the final time against the exact "
                    f"solution: {name}_profile_v.csv (columns zeta, v_imex, "
                    "v_analytic); overlaying the two curves reproduces the "
                    "stable/unstable comparison plot.")
    with open(os.path.join(out_dir, f"{name}_figure.txt"), "w") as fh:
        fh.write("\n".join(desc) + "\n")


# Published benchmark-table settings, keyed by table id: each a complete
# config document but for its scheme.
_LIN = {"name": "linear-advection-diffusion", "h": 1 / 40}
_LEFT = {"qoi": {"kind": "mean-left-half"}, "components": False}
_MHD = {"grid": {"t_end": 0.1, "k": 1e-3}, "qoi": {"kind": "integral-v"}}
TABLE_CONFIGS = {
    4: {"problem": {**_LIN, "gamma": 0.1}, "grid": {"t_end": 2.0, "k": 1 / 40}, **_LEFT},
    5: {"problem": {**_LIN, "gamma": 0.01}, "grid": {"t_end": 2.0, "k": 1 / 40}, **_LEFT},
    6: {"problem": {**_LIN, "gamma": 0.1}, "grid": {"t_end": 1.0, "k": 1 / 10}, **_LEFT},
    7: {"problem": {**_LIN, "gamma": 0.1}, "grid": {"t_end": 2.0, "k": 1 / 10}, **_LEFT},
    8: {"problem": {**_LIN, "gamma": 0.01}, "grid": {"t_end": 1.0, "k": 1 / 10}, **_LEFT},
    9: {"problem": {**_LIN, "gamma": 0.01}, "grid": {"t_end": 2.0, "k": 1 / 10}, **_LEFT},
    10: {"problem": {"name": "burgers", "gamma": 0.05, "h": 1 / 40},
         "grid": {"t_end": 1.0, "k": 1 / 20}, **_LEFT},
    11: {"problem": {"name": "burgers", "gamma": 0.05, "h": 1 / 40},
         "grid": {"t_end": 2.0, "k": 1 / 20}, **_LEFT},
    12: {"problem": {"name": "linear-advection-diffusion", "gamma": 0.075,
                     "h": 1 / 20, "swap_roles": True},
         "grid": {"t_end": 1.0, "k": 1 / 40}, **_LEFT},
    13: {"problem": {"name": "mhd-alfven", "v_mode": "v-split"}, **_MHD,
         "components": False},
    14: {"problem": {"name": "mhd-alfven", "v_mode": "v-split"}, **_MHD,
         "components": True},
    15: {"problem": {"name": "mhd-alfven", "v_mode": "v-implicit"}, **_MHD,
         "components": False},
    16: {"problem": {"name": "mhd-alfven", "v_mode": "v-implicit"}, **_MHD,
         "components": True},
}


def table_config(table_id: int, scheme: str) -> dict:
    """The run config for one scheme row of a published table."""
    if table_id not in TABLE_CONFIGS:
        raise ValueError(f"unknown table id {table_id}; supported: 4..16")
    return {"scheme": scheme, **copy.deepcopy(TABLE_CONFIGS[table_id])}


@one_blas_thread()
def reproduce_table(table_id: int, out_csv: Optional[str] = None) -> list:
    """All three scheme rows of a published table, run in the published
    order; the rows after the first reuse its reference.  An unknown id or
    a missing output directory fails at the config stage, before any row
    runs."""
    with _stage("config"):
        configs = [table_config(table_id, s) for s in SCHEME_ORDER]
        if out_csv:
            _check_out_dir(out_csv, "table output")
    rows = [run(cfg) for cfg in configs]
    if out_csv:
        write_report_csv(out_csv, rows, table_id=table_id)
    return rows


def _check_levels(levels: int) -> None:
    if levels < 3:
        raise ValueError(f"need at least 3 levels for observed orders, got {levels}")


@one_blas_thread()
def convergence_study(problem: SplitOdeProblem, scheme, base_k: float,
                      levels: int, t_end: float,
                      newton: Optional[NewtonConfig] = None,
                      reference: Optional[ReferenceConfig] = None) -> list:
    """Halve k per level and report (k, worst nodal error, observed order).

    The error at each level is the max over grid nodes of the infinity
    norm against reference_states at the finest level's nodes, of which
    every 2^j-th makes a coarser level's grid: the exact solution
    reference.mode picks, or one DOP853 solve stepping onto the nodes at
    its rtol, atol, max_step and step_cap.  verify and verify_ratio judge
    a reference QoI and do not apply here.  Orders are log2 ratios of
    successive errors; None where a ratio is degenerate (first level, or
    an exactly zero error).
    """
    _check_levels(levels)
    pair = builtin(scheme) if isinstance(scheme, str) else scheme
    n0 = grid_cells(0.0, t_end, base_k, "step")
    nodes = TimeGrid.uniform(t_end, n0 * 2 ** (levels - 1)).nodes
    strides = [2 ** (levels - 1 - lev) for lev in range(levels)]
    nodal = [solve_forward(problem, pair, TimeGrid(nodes[::every]), newton).nodal
             for every in strides]
    # after the forwards, so a failing forward is reported before the reference
    states = reference_states(problem, nodes, reference)

    out = []
    prev_err = None
    for lev, (every, y) in enumerate(zip(strides, nodal)):
        err = float(np.abs(states[::every] - y).max())
        order = None
        if prev_err is not None and err > 0.0 and prev_err > 0.0:
            order = float(np.log2(prev_err / err))
        out.append({"k": t_end / (n0 * 2 ** lev), "error": err, "order": order})
        prev_err = err
    return out


def _cmd_run(args) -> int:
    row = run(_load_config(args.config))
    with_components = row.metadata["config"]["components"]
    print(f"# config: {canonical_json(row.metadata['config'])}")
    print(_csv_header(with_components))
    print(",".join(row.csv_values(with_components)))
    return 0


def _cmd_table(args) -> int:
    rows = reproduce_table(args.id, out_csv=args.out)
    print(f"wrote {len(rows)} rows for table {args.id} to {args.out}")
    return 0


def _cmd_converge(args) -> int:
    with _stage("config"):
        cfg = RunConfig.from_dict(_load_config(args.config))
        _check_levels(args.levels)
    grid = cfg.echo["grid"]
    with _stage("converge", cfg.echo):
        rows = convergence_study(cfg.ode, cfg.pair, grid["k"], args.levels,
                                 grid["t_end"], cfg.newton, cfg.reference)
    print(f"# config: {canonical_json(cfg.echo)}")
    print("k,error,order")
    for r in rows:
        order = "NA" if r["order"] is None else NUM_FMT % r["order"]
        print(f"{NUM_FMT % r['k']},{NUM_FMT % r['error']},{order}")
    return 0


def _cmd_dump_tableau(args) -> int:
    with _stage("config"):
        pair = builtin(args.scheme)
    print(json.dumps(pair_to_dict(pair), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="imexest",
        description="IMEX integration with adjoint-based error estimates")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="execute one configured experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("table", help="reproduce a published benchmark table")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("converge", help="order-of-convergence sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("dump-tableau", help="print a builtin scheme pair")
    p.add_argument("--scheme", required=True)
    p.set_defaults(fn=_cmd_dump_tableau)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # surfaces unexpected failures with a label too
        print(f"error: [internal] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
