"""Spans and work counts around the calls into each imexest module.

Nothing here touches the package source.  ``Tracer.install`` rebinds
module attributes to pass-through wrappers that return exactly what the
wrapped callable returned:

* the stage functions and problem constructors as bound in
  ``imexest.cli`` (each call becomes a span named after its layer);
* ``lu_factor`` as bound in ``imexest.solver`` and ``imexest.adjoint``
  (factorisations and their 2/3 n^3 flops);
* ``solve_ivp`` as bound in ``imexest.reference`` (nfev and steps);
* the callables of every problem the constructors build (``eval_f``,
  ``eval_g``, ``jac_f``, ``jac_g``, ``forcing``).

A count is credited to the innermost span open in the calling thread.
Spans record name, start, end, parent and row id, stay in memory and are
written out once by ``dump``.  ``layer_metrics`` folds a span list into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

# Span name for each wrapped name in imexest.cli.
CLI_SPANS = {
    "linear_advection_diffusion": "problems.build",
    "burgers": "problems.build",
    "mhd_alfven": "problems.build",
    "solve_forward": "solver.forward",
    "build_cg": "reconstruct.build",
    "solve_adjoint": "adjoint.solve",
    "error_breakdown": "estimate.assemble",
    "error_breakdown_timedep": "estimate.assemble",
    "component_split": "estimate.components",
    "true_qoi": "reference.solve",
}

PROBLEM_CALLABLES = {"eval_f": "f_evals", "eval_g": "g_evals",
                     "jac_f": "jac_evals", "jac_g": "jac_evals",
                     "forcing": "forcing_evals"}

TABLE_SPAN = "cli.table"
ROW_SPAN = "cli.row"

# Per-layer metric name -> unit; the order is the report order.
LAYER_UNITS = {
    "problems.build_s": "s",
    "problems.f_evals": "count",
    "problems.g_evals": "count",
    "problems.jac_evals": "count",
    "problems.forcing_evals": "count",
    "solver.forward_s": "s",
    "solver.newton_iters": "count",
    "solver.lu_factorizations": "count",
    "solver.lu_flops": "flop",
    "solver.rhs_evals": "count",
    "reconstruct.build_s": "s",
    "adjoint.solve_s": "s",
    "adjoint.lu_factorizations": "count",
    "adjoint.lu_flops": "flop",
    "adjoint.jac_evals": "count",
    "estimate.assemble_s": "s",
    "estimate.components_s": "s",
    "estimate.rhs_evals": "count",
    "reference.solve_s": "s",
    "reference.solves": "count",
    "reference.cache_hits": "count",
    "reference.nfev": "count",
    "reference.steps": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
}

# Span name -> the per-layer time metric its durations add up to.
SPAN_TIMES = {
    "problems.build": "problems.build_s",
    "solver.forward": "solver.forward_s",
    "reconstruct.build": "reconstruct.build_s",
    "adjoint.solve": "adjoint.solve_s",
    "estimate.assemble": "estimate.assemble_s",
    "estimate.components": "estimate.components_s",
    "reference.solve": "reference.solve_s",
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._table = None  # open table span, parent of spans in worker threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else self._table

    @contextmanager
    def span(self, name: str, row=None):
        parent = self._current()
        if row is None and parent is not None:
            row = parent["row"]
        rec = {"id": next(self._ids), "name": name,
               "parent": None if parent is None else parent["id"],
               "row": row, "start": time.perf_counter(), "end": None,
               "error": False, "counts": {}}
        with self._lock:
            self.spans.append(rec)
        stack = self._stack()
        stack.append(rec)
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    @contextmanager
    def table(self, table_id: int):
        """Root span around one ``imexest table`` call."""
        with self.span(TABLE_SPAN, row=str(table_id)) as rec:
            self._table = rec
            try:
                yield rec
            finally:
                self._table = None

    def count(self, key: str, n=1) -> None:
        rec = self._current()
        if rec is not None:
            counts = rec["counts"]
            counts[key] = counts.get(key, 0) + n

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
                if after is not None:
                    after(out)
                return out
        return wrapper

    def _counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _instrument_problem(self, problem) -> None:
        for attr, key in PROBLEM_CALLABLES.items():
            fn = getattr(problem, attr)
            if fn is not None:
                setattr(problem, attr, self._counted(fn, key))

    def _row(self, fn):
        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            table = self._table["row"] if self._table is not None else "?"
            with self.span(ROW_SPAN, row=f"{table}/{config['scheme']}"):
                return fn(config, *args, **kwargs)
        return wrapper

    def _lu(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            self.count(f"{layer}.lu_factorizations")
            self.count(f"{layer}.lu_n3", int(a.shape[0]) ** 3)
            return fn(a, *args, **kwargs)
        return wrapper

    def _after_forward(self, fwd) -> None:
        self.count("solver.newton_iters",
                   sum(int(rec.newton_iters.sum()) for rec in fwd.stages))

    def _ivp(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.count("reference.nfev", int(sol.nfev))
            self.count("reference.steps", int(sol.t.size) - 1)
            return sol
        return wrapper

    def install(self) -> None:
        """Rebind the traced names in the imexest modules."""
        import imexest.adjoint
        import imexest.cli
        import imexest.reference
        import imexest.solver

        cli = imexest.cli
        for name, span_name in CLI_SPANS.items():
            fn = getattr(cli, name)
            if span_name == "problems.build":
                wrapped = self._spanned(fn, span_name, self._instrument_problem)
            elif span_name == "solver.forward":
                wrapped = self._spanned(fn, span_name, self._after_forward)
            else:
                wrapped = self._spanned(fn, span_name)
            setattr(cli, name, wrapped)
        cli.run = self._row(cli.run)
        imexest.solver.lu_factor = self._lu(imexest.solver.lu_factor, "solver")
        imexest.adjoint.lu_factor = self._lu(imexest.adjoint.lu_factor, "adjoint")
        ref = imexest.reference
        ref.solve_ivp = self._ivp(ref.solve_ivp)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[dict], row_prefix: str | None = None) -> dict:
    """Per-layer metrics from a span list.

    With ``row_prefix`` only spans whose row id starts with it count
    (row ids are ``"<table>"`` for table spans and ``"<table>/<scheme>"``
    below them), which gives per-table or per-row figures.
    """
    if row_prefix is not None:
        spans = [s for s in spans
                 if s["row"] == row_prefix or s["row"].startswith(row_prefix + "/")]
    out = {name: 0 for name in LAYER_UNITS}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    solved_rows = set()
    lu_n3 = {"solver": 0, "adjoint": 0}
    for s in spans:
        dur = s["end"] - s["start"]
        name, counts = s["name"], s["counts"]
        if name in SPAN_TIMES:
            out[SPAN_TIMES[name]] += dur
        if name in (TABLE_SPAN, ROW_SPAN):
            out["cli.self_s"] += dur - child_time.get(s["id"], 0.0)
        if name == ROW_SPAN and not s["error"]:
            out["cli.rows"] += 1
        if name == "reference.solve":
            out["reference.solves"] += 1
            solved_rows.add(s["row"])
        for key in ("f_evals", "g_evals", "jac_evals", "forcing_evals"):
            out[f"problems.{key}"] += counts.get(key, 0)
        rhs = counts.get("f_evals", 0) + counts.get("g_evals", 0)
        if name == "solver.forward":
            out["solver.rhs_evals"] += rhs
        elif name in ("estimate.assemble", "estimate.components"):
            out["estimate.rhs_evals"] += rhs
        elif name == "adjoint.solve":
            out["adjoint.jac_evals"] += counts.get("jac_evals", 0)
        for key in ("solver.newton_iters", "solver.lu_factorizations",
                    "adjoint.lu_factorizations", "reference.nfev",
                    "reference.steps"):
            out[key] += counts.get(key, 0)
        for layer in ("solver", "adjoint"):
            lu_n3[layer] += counts.get(f"{layer}.lu_n3", 0)
    for layer, n3 in lu_n3.items():
        out[f"{layer}.lu_flops"] = round(2 * n3 / 3)
    out["reference.cache_hits"] = sum(
        1 for s in spans
        if s["name"] == ROW_SPAN and not s["error"] and s["row"] not in solved_rows)
    return out
