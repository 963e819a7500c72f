"""Tests for the run configuration layer and the command-line verbs."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from imexest import cli, numerics
from imexest.cli import (
    COMPONENT_COLUMNS,
    SCHEME_ORDER,
    CliError,
    ReportRow,
    RunConfig,
    canonical_json,
    convergence_study,
    main,
    reproduce_table,
    run,
    table_config,
    write_report_csv,
)
from imexest.problems import mhd_alfven, split_scalar_bernoulli, split_scalar_linear
from imexest.adjoint import DEFAULT_REFINE
from imexest.reference import ReferenceConfig, ReferenceError
from imexest.solver import NewtonConfig, SolverError, TimeGrid, solve_forward
from imexest.tableaus import builtin


def base_config(**overrides):
    doc = {
        "scheme": "mid122",
        "problem": {"name": "scalar-linear", "lam_f": -0.4, "lam_g": -0.6,
                    "y0": 1.0},
        "grid": {"t_end": 1.0, "k": 0.05},
        "qoi": {"kind": "final-time", "psi": [1.0]},
    }
    doc.update(overrides)
    return doc


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(CliError, match=r"\[config\].*unknown keys"):
        run(base_config(tolerance=1e-6))


def test_config_rejects_unknown_keys_in_every_section():
    bad_sections = [
        {"problem": {"name": "scalar-linear", "lam_f": 0.0, "lam_g": -1.0,
                     "y0": 1.0, "order": 3}},
        {"grid": {"t_end": 1.0, "k": 0.05, "cells": 7}},
        {"qoi": {"kind": "final-time", "psi": [1.0], "weight": 2.0}},
        {"newton": {"tol": 1e-9}},
        {"reference": {"solver": "rk45"}},
        {"adjoint": {"refinement": 2}},
        {"output": {"dir": "/tmp/x"}},
    ]
    for patch in bad_sections:
        with pytest.raises(CliError, match="unknown keys"):
            run(base_config(**patch))


_MHD = {"name": "mhd-alfven", "h": 0.05}


@pytest.mark.parametrize("patch, message", [
    ({"reference": {"mode": "numeric"}}, "reference mode must be one of"),
    ({"adjoint": {"refine": 0}}, "adjoint.refine must be >= 1"),
    ({"newton": {"max_iters": -1}}, "newton max_iters must be >= 1"),
    ({"reference": {"rtol": -1}}, "reference rtol must be >= 1e-13, got -1"),
    ({"reference": {"rtol": 1e-16}}, "reference rtol must be >= 1e-13, got 1e-16"),
    ({"reference": {"atol": -1}}, "reference atol must be >= 0"),
    ({"reference": {"max_step": 0}}, "reference max_step must be > 0"),
    ({"reference": {"step_cap": 0}}, "reference step_cap must be >= 1"),
    ({"reference": {"verify": True, "verify_ratio": -1}},
     "reference verify_ratio must be > 0"),
    ({"problem": {**_MHD, "A0": 9.0}, "qoi": {"kind": "integral-v"}},
     "A0 = 9.0 disagrees"),
    ({"problem": {"name": "scalar-linear", "lam_f": 0.0, "lam_g": -1.0,
                  "y0": None}}, r"missing keys .*\['y0'\]"),
    ({"problem": {"name": "scalar-linear", "lam_f": 0.0, "lam_g": -1.0,
                  "y0": "abc"}}, "y0 must be a number"),
    ({"problem": {"name": "burgers", "gamma": "0.05", "h": 0.05},
      "qoi": {"kind": "mean-left-half"}}, "gamma must be a number"),
    # a string "false" would otherwise switch either one on
    ({"components": "false"}, "components must be true or false, got 'false'"),
    ({"reference": {"verify": "false"}},
     "reference verify must be true or false, got 'false'"),
    ({"components": True}, "components needs the mhd-alfven problem"),
    ({"problem": {**_MHD, "v_mode": "implicit"}, "qoi": {"kind": "integral-v"}},
     r"v_mode must be one of \('v-split', 'v-implicit'\), got 'implicit'"),
    # exp(A0*L*mu0/eta) overflows float64 in the exact boundary data
    ({"problem": {**_MHD, "eta": 0.001}, "qoi": {"kind": "integral-v"}},
     r"B0, rho, mu0, eta and L give \|A0\*L\*mu0/eta\| = 10000"),
    # counts are integers, not truncated or accepted as floats
    ({"grid": {"t_end": 1.0, "n": 2.7}},
     r"config\.grid n must be an integer, got 2\.7"),
    ({"newton": {"max_iters": 2.5}},
     r"config\.newton max_iters must be an integer, got 2\.5"),
    ({"reference": {"step_cap": 2.5}},
     r"config\.reference step_cap must be an integer, got 2\.5"),
    ({"adjoint": {"refine": 2.5}},
     r"config\.adjoint refine must be an integer, got 2\.5"),
    # newton and reference values are typed key by key
    ({"reference": {"rtol": "1e-10"}},
     r"config\.reference rtol must be a number, got '1e-10'"),
    # only the string "inf" stands for a number
    ({"reference": {"max_step": "1e-3"}},
     r"config\.reference max_step must be a number, got '1e-3'"),
    ({"newton": {"max_iters": "5"}},
     r"config\.newton max_iters must be an integer, got '5'"),
    ({"qoi": {"kind": "integral-v"}},
     r"config\.qoi: integral-v needs the mhd-alfven problem"),
    ({"problem": {**_MHD, "h": 0}, "qoi": {"kind": "integral-v"}},
     r"config\.problem \(mhd-alfven\): h must be positive, got 0"),
    ({"problem": {"name": "linear-advection-diffusion", "gamma": 0.1,
                  "h": -0.1}, "qoi": {"kind": "mean-left-half"}},
     r"config\.problem \(linear-advection-diffusion\): h must be positive, "
     r"got -0\.1"),
    ({"problem": {**_MHD, "h": 0.3}, "qoi": {"kind": "integral-v"}},
     r"config\.problem \(mhd-alfven\): h=0\.3 does not divide "
     r"\[0\.0, 1\.0\] evenly"),
    ({"grid": {"t_end": 1.0, "k": 0}}, "step must be positive, got 0"),
    # (hi - lo) / k overflows to inf
    ({"grid": {"t_end": 1.0, "k": 1e-320}},
     r"step=1e-320 does not divide \[0\.0, 1\.0\] evenly"),
    # the builders' own checks, run as each section resolves
    ({"qoi": {"kind": "final-time", "psi": [1.0, 2.0]}},
     r"config\.qoi \(final-time\): psi must have the state dimension 1, "
     r"got shape \(2,\)"),
    ({"qoi": {"kind": "time-integrated", "psi_tilde_const": [1.0, 2.0]}},
     r"config\.qoi \(time-integrated\): psi_tilde_const must have the state "
     r"dimension 1"),
    ({"scheme": "rk4"}, "unknown scheme 'rk4'"),
    ({"problem": {"name": "linear-advection-diffusion", "gamma": 0.1,
                  "h": 1 / 39}, "qoi": {"kind": "mean-left-half"}},
     r"config\.qoi \(mean-left-half\): state dimension must be even"),
    ({"problem": {"name": "scalar-bernoulli", "lam": 0, "mu": 0.5, "y0": 1.0}},
     r"config\.problem \(scalar-bernoulli\): lam must be nonzero"),
    ({"qoi": {"kind": "final-time", "psi": ["a"]}},
     r"config\.qoi \(final-time\): could not convert string to float"),
    ({"problem": {"name": "linear-split", "f_mat": [[0, 1], [1, 0]],
                  "g_mat": [[-1]], "y0": [1, 2]},
      "qoi": {"kind": "final-time", "psi": [1.0, 1.0]}},
     r"config\.problem \(linear-split\): g_mat has shape \(1, 1\); y0 of "
     r"length 2 needs \(2, 2\)"),
    ({"output": {"series_indices": [5]}},
     r"config\.output series_indices must be a list of integers in \[0, 1\), "
     r"got \[5\]"),
    # a bool or a string step would otherwise resolve to a grid
    ({"grid": {"t_end": 1.0, "k": True}},
     r"config\.grid k must be a number, got True"),
    ({"grid": {"t_end": 1.0, "k": "0.5"}},
     r"config\.grid k must be a number, got '0\.5'"),
    # an integer path would otherwise be opened as a file descriptor
    ({"output": {"row_csv": 3}},
     r"config\.output row_csv must be a string or null, got 3"),
    ({"output": {"series_dir": 3}},
     r"config\.output series_dir must be a string or null, got 3"),
    ({"output": {"name": ["x"]}},
     r"config\.output name must be a string or null, got \['x'\]"),
    # JSON's NaN and Infinity are numbers to json.load, not to a run
    ({"problem": {"name": "scalar-linear", "lam_f": float("nan"),
                  "lam_g": -0.6, "y0": 1.0}},
     r"config\.problem \(scalar-linear\) lam_f must be a finite number, "
     r"got nan"),
    ({"newton": {"abs_tol": float("nan")}},
     r"config\.newton abs_tol must be a finite number, got nan"),
    ({"qoi": {"kind": "final-time", "psi": [float("nan")]}},
     r"config\.qoi \(final-time\): psi must be finite"),
    ({"qoi": {"kind": "time-integrated", "psi_tilde_const": [float("inf")]}},
     r"config\.qoi \(time-integrated\): psi_tilde_const must be finite"),
    ({"problem": {"name": "linear-split", "f_mat": [[float("nan")]],
                  "g_mat": [[-1.0]], "y0": [1.0]}},
     r"config\.problem \(linear-split\): f_mat must be finite"),
    ({"newton": {"abs_tol": -1}}, "newton abs_tol must be >= 0, got -1"),
    # a section that is not an object fails naming the section, and a list
    # of pairs is not read as one
    ({"problem": "burgers"},
     r"config\.problem must be an object, got 'burgers'"),
    ({"grid": [1, 2]}, r"config\.grid must be an object, got \[1, 2\]"),
    ({"newton": None}, r"config\.newton must be an object, got None"),
    ({"newton": [["abs_tol", 0.001]]},
     r"config\.newton must be an object, got \[\['abs_tol', 0\.001\]\]"),
    # each message names its key, not only the value it could not use
    ({"scheme": True}, r"config scheme must be a string, got True"),
    ({"grid": {"t_end": 1.0, "k": 0.3}},
     r"config\.grid: step=0\.3 does not divide \[0\.0, 1\.0\] evenly"),
    # the row would otherwise be solved and then fail to be written
    ({"output": {"row_csv": "no-such-dir/row.csv"}},
     r"config\.output row_csv: directory 'no-such-dir' does not exist"),
    ({"output": {"row_csv": "."}}, r"config\.output row_csv: '\.' is a directory"),
    # series files would otherwise fail to be written after the whole run
    ({"output": {"series_dir": __file__}},
     r"config\.output series_dir: '.*test_cli\.py' is not a directory"),
    ({"output": {"series_dir": os.path.join(__file__, "a", "b")}},
     r"config\.output series_dir: '.*test_cli\.py' is not a directory"),
    ({"output": {"name": "sub/x"}},
     r"config\.output name must not contain a path separator, got 'sub/x'"),
    ({"grid": {"t_end": -1.0, "k": 0.1}}, r"config\.grid\.t_end must be positive"),
    ({"grid": {"t_end": 1.0, "n": 0}}, r"config\.grid\.n must be >= 1"),
    ({"problem": {"name": "linear-split", "f_mat": [[0.0]], "g_mat": [[-1.0]],
                  "y0": [[1.0]]}},
     r"config\.problem \(linear-split\): y0 must be a vector, got shape "
     r"\(1, 1\)"),
], ids=["reference-mode", "adjoint-refine", "newton-max-iters", "reference-rtol",
        "reference-rtol-below-floor",
        "reference-atol", "reference-max-step", "reference-step-cap",
        "reference-verify-ratio", "problem-a0", "problem-null",
        "problem-y0-string", "problem-gamma-string", "components-string",
        "reference-verify-string", "components-not-mhd", "mhd-v-mode",
        "mhd-exp-overflow", "grid-n-fraction", "newton-max-iters-fraction",
        "reference-step-cap-fraction", "adjoint-refine-fraction",
        "reference-rtol-string", "reference-max-step-string",
        "newton-max-iters-string",
        "integral-v-not-mhd", "mhd-h-zero", "advdiff-h-negative",
        "mhd-h-not-dividing", "grid-k-zero", "grid-k-overflow", "psi-length",
        "psi-tilde-length", "unknown-scheme", "mean-left-half-odd-dim",
        "bernoulli-lam-zero", "psi-strings", "linear-split-shapes",
        "series-indices-out-of-range", "grid-k-bool", "grid-k-string",
        "output-row-csv-int", "output-series-dir-int", "output-name-list",
        "lam-f-nan", "newton-abs-tol-nan", "psi-nan", "psi-tilde-inf",
        "linear-split-nan", "newton-abs-tol-negative", "problem-string",
        "grid-list", "newton-null", "newton-pairs", "scheme-bool",
        "grid-k-not-dividing", "output-row-csv-missing-dir",
        "output-row-csv-directory", "output-series-dir-file",
        "output-series-dir-below-file", "output-name-separator",
        "grid-t-end-negative", "grid-n-zero", "linear-split-y0-matrix"])
def test_config_rejects_bad_values_before_any_numerics(monkeypatch, patch,
                                                       message):
    monkeypatch.setattr(cli, "solve_forward", _never_called)
    with pytest.raises(CliError, match=message) as info:
        run(base_config(**patch))
    assert info.value.stage == "config"


@pytest.mark.parametrize("patch, where, key", [
    ({"problem": {"name": "scalar-linear", "lam_f": 0.0, "lam_g": -1.0,
                  "y0": "abc"}}, "problem", "y0"),
    ({"problem": {"name": "burgers", "gamma": "0.05", "h": 0.05},
      "qoi": {"kind": "mean-left-half"}}, "problem", "gamma"),
    ({"problem": {"name": "mhd-alfven", "h": 0.05, "B0": True},
      "qoi": {"kind": "integral-v"}}, "problem", "B0"),
    ({"qoi": {"kind": "mean-left-half", "scale": [1.0]}}, "qoi", "scale"),
    ({"problem": {"name": "linear-advection-diffusion", "gamma": 0.1,
                  "h": 0.05, "swap_roles": "no"},
      "qoi": {"kind": "mean-left-half"}}, "problem", "swap_roles"),
], ids=["scalar-linear-y0", "burgers-gamma", "mhd-b0", "qoi-scale",
        "advdiff-swap-roles"])
def test_config_names_a_mistyped_value_and_its_section(patch, where, key):
    # a string "no" would otherwise swap the roles of the two halves
    with pytest.raises(CliError, match=rf"\[config\] config\.{where} .*{key} "
                                       "must be (a number|true or false)"):
        run(base_config(**patch))


HUGE = 10 ** 400  # a JSON integer of 401 digits, beyond float range


@pytest.mark.parametrize("patch, message", [
    ({"problem": {"name": "scalar-linear", "lam_f": HUGE, "lam_g": -0.6,
                  "y0": 1.0}},
     r"config\.problem \(scalar-linear\) lam_f is too large for a float"),
    ({"problem": {"name": "mhd-alfven", "h": 0.05, "B0": HUGE},
      "qoi": {"kind": "integral-v"}},
     r"config\.problem \(mhd-alfven\) B0 is too large for a float"),
    ({"reference": {"rtol": HUGE}},
     r"config\.reference rtol is too large for a float"),
    ({"reference": {"max_step": HUGE}},
     r"config\.reference max_step is too large for a float"),
    ({"reference": {"step_cap": HUGE}},
     r"config\.reference step_cap is too large for a float"),
    ({"grid": {"t_end": 1.0, "n": HUGE}},
     r"config\.grid n is too large for a float"),
    ({"qoi": {"kind": "final-time", "psi": [HUGE]}},
     r"config\.qoi \(final-time\): psi must be finite"),
    ({"problem": {"name": "linear-split", "f_mat": [[HUGE]],
                  "g_mat": [[-1.0]], "y0": [1.0]}},
     r"config\.problem \(linear-split\): f_mat must be finite"),
], ids=["lam-f", "mhd-b0", "reference-rtol", "reference-max-step",
        "reference-step-cap", "grid-n", "psi", "linear-split-f-mat"])
def test_config_names_an_integer_too_large_for_a_float(patch, message):
    with pytest.raises(CliError, match=message) as info:
        run(base_config(**patch))
    assert info.value.stage == "config"


def test_config_requires_core_sections():
    doc = base_config()
    del doc["qoi"]
    with pytest.raises(CliError, match="missing keys"):
        run(doc)


def test_config_grid_takes_k_or_n_not_both():
    with pytest.raises(CliError, match="not both"):
        run(base_config(grid={"t_end": 1.0, "k": 0.1, "n": 20}))
    with pytest.raises(CliError, match="needs k or n"):
        run(base_config(grid={"t_end": 1.0}))


def test_config_step_must_divide_horizon():
    with pytest.raises(CliError, match="does not divide"):
        run(base_config(grid={"t_end": 1.0, "k": 0.3}))
    cfg = RunConfig.from_dict(base_config(grid={"t_end": 1.0, "n": 20}))
    assert cfg.echo["grid"]["n"] == 20
    assert cfg.echo["grid"]["k"] == pytest.approx(0.05)


def test_config_missing_problem_parameter():
    doc = base_config(problem={"name": "scalar-linear", "lam_f": 0.0,
                               "y0": 1.0})
    with pytest.raises(CliError, match="missing keys.*lam_g"):
        run(doc)


def test_config_unknown_problem_and_qoi():
    with pytest.raises(CliError, match="unknown problem"):
        run(base_config(problem={"name": "heat"}))
    with pytest.raises(CliError, match="unknown qoi kind"):
        run(base_config(qoi={"kind": "average"}))


def test_config_records_defaults_used():
    # the resolved config fills in every default and keeps what was given
    resolved = RunConfig.from_dict(base_config(newton={"max_iters": 30})).echo
    assert resolved["newton"]["abs_tol"] == NewtonConfig().abs_tol
    assert resolved["newton"]["max_iters"] == 30
    assert resolved["adjoint"]["refine"] == DEFAULT_REFINE
    assert resolved["reference"]["max_step"] == "inf"


def test_config_derives_alfven_speed():
    doc = {
        "scheme": "ssp332",
        "problem": {"name": "mhd-alfven", "h": 0.05},
        "grid": {"t_end": 0.01, "n": 2},
        "qoi": {"kind": "integral-v"},
    }
    cfg = RunConfig.from_dict(doc)
    assert cfg.echo["problem"]["A0"] == pytest.approx(10.0)
    assert cfg.echo["problem"]["v_mode"] == "v-split"


@pytest.mark.parametrize("table_id", sorted(cli.TABLE_CONFIGS))
@pytest.mark.parametrize("scheme", SCHEME_ORDER)
def test_echoed_config_resolves_to_itself(table_id, scheme):
    echo = canonical_json(RunConfig.from_dict(table_config(table_id, scheme)).echo)
    assert canonical_json(RunConfig.from_dict(json.loads(echo)).echo) == echo


@pytest.mark.parametrize("max_step, echoed", [
    (float("inf"), "inf"), (np.float64("inf"), "inf"), ("inf", "inf"),
    (1e-3, 1e-3)], ids=["float-inf", "numpy-inf", "json-inf", "finite"])
def test_infinite_max_step_echoes_as_inf(max_step, echoed):
    # a float infinity (Python API) or the string (JSON) echo alike as the
    # string, never as JSON's non-standard Infinity; a finite step as given
    cfg = RunConfig.from_dict(base_config(reference={"max_step": max_step}))
    assert cfg.reference.max_step == float(max_step)
    echo = canonical_json(cfg.echo)
    assert json.loads(echo)["reference"]["max_step"] == echoed
    assert "Infinity" not in echo
    again = RunConfig.from_dict(json.loads(echo))
    assert again.reference.max_step == cfg.reference.max_step
    assert canonical_json(again.echo) == echo


def test_echoed_config_reruns_to_the_same_row():
    for row in reproduce_table(6):
        again = run(row.metadata["config"])
        assert again.csv_values(False) == row.csv_values(False)


def test_run_reports_estimate_and_effectivity():
    row = run(base_config())
    assert row.scheme == "Mid(1,2,2)"
    assert row.computed_error == pytest.approx(row.e1 + row.e2 + row.e3)
    assert row.effectivity == pytest.approx(1.0, abs=1e-2)
    # the echoed config carries every default, JSON's missing infinity too
    assert row.metadata["config"]["reference"]["max_step"] == "inf"
    true_err = row.metadata["true_error"]
    assert row.computed_error == pytest.approx(true_err, rel=1e-2)


def test_run_zero_field_row_has_exact_zeros_and_no_effectivity():
    doc = base_config(problem={"name": "scalar-linear", "lam_f": 0.0,
                               "lam_g": 0.0, "y0": 1.0})
    row = run(doc)
    assert row.computed_error == 0.0
    assert row.e1 == row.e2 == row.e3 == 0.0
    assert row.effectivity is None
    vals = row.csv_values(with_components=False)
    assert vals[2] == "NA"
    assert vals[3] == "0.00000E+00"


# lam_f = 1e308 overflows the first explicit stage
_BLOWUP = {"name": "scalar-linear", "lam_f": 1e308, "lam_g": -0.6, "y0": 1.0}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_stage_label_on_pipeline_failure():
    with pytest.raises(CliError, match=r"\[forward\] non-finite state on "
                                       r"interval 0, stage 1") as info:
        run(base_config(problem=_BLOWUP))
    assert info.value.stage == "forward"


def test_run_accepts_time_integrated_qoi():
    doc = base_config(qoi={"kind": "time-integrated", "psi_tilde_const": [1.0]})
    row = run(doc)
    want = (1.0 - np.exp(-1.0))
    assert row.metadata["reference_qoi"] == pytest.approx(want, abs=1e-10)
    assert row.effectivity == pytest.approx(1.0, abs=1e-2)


def test_report_row_component_columns():
    row = ReportRow(scheme="s", computed_error=1.0, effectivity=None,
                    e1=0.5, e2=0.25, e3=0.25,
                    components={"v": (1.0, 2.0, 3.0), "B": (4.0, 5.0, 6.0)})
    vals = row.csv_values(with_components=True)
    assert len(vals) == 6 + len(COMPONENT_COLUMNS)
    # column order interleaves blocks per term: E1_v, E1_B, E2_v, ...
    assert vals[6:] == ["1.00000E+00", "4.00000E+00", "2.00000E+00",
                        "5.00000E+00", "3.00000E+00", "6.00000E+00"]
    missing = ReportRow(scheme="s", computed_error=1.0, effectivity=1.0,
                        e1=1.0, e2=0.0, e3=0.0)
    assert missing.csv_values(with_components=True)[6:] == ["NA"] * 6


def test_write_report_csv_layout(tmp_path):
    row = run(base_config())
    path = tmp_path / "row.csv"
    write_report_csv(str(path), [row], table_id=4)
    lines = path.read_text().splitlines()
    assert lines[0] == "# table: 4"
    assert lines[1] == "scheme,computed_error,effectivity,E1,E2,E3"
    assert lines[2].startswith("# config: {")
    echoed = json.loads(lines[2].split("# config: ", 1)[1])
    assert echoed["adjoint"]["refine"] == 4
    assert echoed["newton"]["abs_tol"] == 1e-12
    assert lines[3].startswith("Mid(1,2,2),")


def test_reproduce_table_rows_in_published_order(tmp_path):
    out = tmp_path / "table4.csv"
    rows = reproduce_table(4, out_csv=str(out))
    assert [r.scheme for r in rows] == ["Mid(1,2,2)", "SSP3(3,3,2)",
                                        "SSP3(4,3,3)"]
    text = out.read_text()
    assert text.count("# config:") == 3
    assert text.splitlines()[0] == "# table: 4"


def test_reproduce_table_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    reproduce_table(4, out_csv=str(a))
    reproduce_table(4, out_csv=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_table_config_validates_id():
    with pytest.raises(ValueError, match="table id"):
        table_config(3, "mid122")
    doc = table_config(12, "ssp343")
    assert doc["problem"]["swap_roles"] is True
    assert doc["qoi"] == {"kind": "mean-left-half"}
    doc = table_config(16, "mid122")
    assert doc["components"] is True
    assert doc["qoi"] == {"kind": "integral-v"}


def test_series_emission(tmp_path):
    # the missing directories of series_dir are made, not only its last
    out = tmp_path / "runs" / "series"
    doc = base_config(output={"series_dir": str(out), "name": "demo",
                              "series_indices": [0]})
    run(doc)
    names = sorted(os.listdir(out))
    assert names == ["demo_Y_state0.csv", "demo_eterms.csv",
                     "demo_figure.txt", "demo_phi_state0.csv"]
    ylines = (out / "demo_Y_state0.csv").read_text().splitlines()
    assert ylines[0] == "# run: demo; series: Y[0]"
    assert ylines[1] == "t,value"
    assert len(ylines) == 2 + 21
    figure = (out / "demo_figure.txt").read_text()
    assert "stays bounded" in figure
    eterms = (out / "demo_eterms.csv").read_text().splitlines()
    assert eterms[1] == "t_mid,E1,E2,E3"
    assert len(eterms) == 2 + 20


def test_row_csv_and_mhd_series(tmp_path):
    # the row file carries the component columns its config asks for; the
    # MHD series adds the final velocity profile against the exact one
    out = tmp_path / "series"
    row_csv = tmp_path / "row.csv"
    doc = {"scheme": "ssp332", "problem": {"name": "mhd-alfven", "h": 0.05},
           "grid": {"t_end": 0.1, "n": 10}, "qoi": {"kind": "integral-v"},
           "components": True,
           "output": {"row_csv": str(row_csv), "series_dir": str(out),
                      "name": "mhd"}}
    run(doc)
    lines = row_csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0] == "scheme,computed_error,effectivity,E1,E2,E3," \
                       "E1_v,E1_B,E2_v,E2_B,E3_v,E3_B"
    assert lines[1].startswith("# config: {")
    assert lines[2].startswith("SSP3(3,3,2),")
    assert "NA" not in lines[2]
    profile = (out / "mhd_profile_v.csv").read_text().splitlines()
    assert profile[0] == "# run: mhd; velocity profile at T = 0.1"
    assert profile[1] == "zeta,v_imex,v_analytic"
    assert len(profile) == 2 + 19
    figure = (out / "mhd_figure.txt").read_text()
    assert "stays bounded" in figure
    assert "mhd_profile_v.csv (columns zeta, v_imex, v_analytic)" in figure


def test_series_of_an_unstable_run(tmp_path):
    out = tmp_path / "series"
    doc = base_config(problem={"name": "scalar-linear", "lam_f": 30.0,
                               "lam_g": -0.6, "y0": 1.0},
                      output={"series_dir": str(out), "name": "blowup"})
    run(doc)
    assert sorted(os.listdir(out)) == [
        "blowup_Y_state0.csv", "blowup_eterms.csv", "blowup_figure.txt",
        "blowup_phi_state0.csv"]
    assert len((out / "blowup_Y_state0.csv").read_text().splitlines()) == 2 + 21
    figure = (out / "blowup_figure.txt").read_text()
    assert "grows by orders of magnitude" in figure
    assert "stays bounded" not in figure


def test_convergence_study_orders():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    rows = convergence_study(prob, "mid122", 0.1, 4, 1.0)
    assert len(rows) == 4
    assert rows[0]["order"] is None
    assert rows[-1]["order"] == pytest.approx(2.0, abs=0.1)
    ks = [r["k"] for r in rows]
    assert ks == [0.1, 0.05, 0.025, 0.0125]


def test_convergence_study_zero_field_has_no_orders():
    prob = split_scalar_linear(0.0, 0.0, 1.0)
    rows = convergence_study(prob, "mid122", 0.25, 3, 1.0)
    for r in rows:
        assert r["error"] == 0.0
        assert r["order"] is None


def test_convergence_study_without_exact_solution_matches_an_rhs_oracle():
    # the dense reference integrates problem.rhs with DOP853
    prob = mhd_alfven(h=0.05)
    rows = convergence_study(prob, "ssp343", 0.01, 3, 0.1,
                             reference=ReferenceConfig(rtol=1e-12, atol=1e-13))
    sol = solve_ivp(lambda t, y: prob.rhs(y, t), (0.0, 0.1), prob.y0,
                    method="DOP853", rtol=1e-12, atol=1e-13, dense_output=True)
    for lev, row in enumerate(rows):
        grid = TimeGrid.uniform(0.1, 10 * 2 ** lev)
        fwd = solve_forward(prob, builtin("ssp343"), grid)
        want = float(np.abs(sol.sol(grid.nodes).T - fwd.nodal).max())
        assert row["error"] == pytest.approx(want, rel=1e-12)


def test_convergence_study_analytic_mode_samples_the_pde_solution():
    # on a method-of-lines problem "analytic" measures against the PDE,
    # spatial error included; "auto" integrates the ODE system
    prob = mhd_alfven(h=0.05)
    analytic = convergence_study(prob, "ssp343", 0.01, 3, 0.1,
                                 reference=ReferenceConfig(mode="analytic"))
    auto = convergence_study(prob, "ssp343", 0.01, 3, 0.1)
    for lev, (row, other) in enumerate(zip(analytic, auto)):
        grid = TimeGrid.uniform(0.1, 10 * 2 ** lev)
        fwd = solve_forward(prob, builtin("ssp343"), grid)
        exact = np.stack([prob.pde_solution(t) for t in grid.nodes])
        assert row["error"] == float(np.abs(exact - fwd.nodal).max())
        assert row["error"] != other["error"]


def test_convergence_study_step_cap_counts_dense_output():
    prob = split_scalar_linear(-0.4, -0.6, 1.0)
    prob.analytic = None
    cfg = ReferenceConfig()
    sol = solve_ivp(lambda t, y: prob.rhs(y, t), (0.0, 1.0), prob.y0,
                    method="DOP853", rtol=cfg.rtol, atol=cfg.atol, dense_output=True)
    steps = sol.t.size - 1  # 5 with scipy 1.17
    # no rejected step: 2 to start, 12 per step and 3 for its interpolant
    assert sol.nfev == 2 + 15 * steps
    rows = convergence_study(prob, "mid122", 0.25, 3, 1.0,
                             reference=replace(cfg, step_cap=steps))
    assert len(rows) == 3
    with pytest.raises(ReferenceError, match=f"cap {steps - 1}"):
        convergence_study(prob, "mid122", 0.25, 3, 1.0,
                          reference=replace(cfg, step_cap=steps - 1))


def test_convergence_study_argument_validation():
    prob = split_scalar_bernoulli(-2.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="levels"):
        convergence_study(prob, "mid122", 0.1, 2, 1.0)
    with pytest.raises(ValueError, match="divide"):
        convergence_study(prob, "mid122", 0.3, 3, 1.0)


def test_main_run_verb(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_config()))
    assert main(["run", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# config:")
    assert out[1] == "scheme,computed_error,effectivity,E1,E2,E3"
    assert out[2].startswith("Mid(1,2,2),")


def test_main_reports_config_errors_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base_config(grid={"t_end": 1.0, "k": 0.3})))
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [config]")
    assert "does not divide" in err


@pytest.fixture
def blas_counts(monkeypatch):
    """Every thread count a fake OpenBLAS pool, starting at 3, is set to,
    with the loaded pools still looked up alongside it."""
    counts = [3]
    pool = (lambda: counts[-1], counts.append)
    real = numerics.openblas_pools()
    monkeypatch.setattr(numerics, "openblas_pools", lambda: real + (pool,))
    return counts


def counting_pools(fn, seen):
    """fn, appending every pool's thread count to seen on each call."""
    def wrapper(*args, **kwargs):
        seen.append([get() for get, _ in numerics.openblas_pools()])
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("call, forward_solves", [
    (lambda: run(base_config()), 1),
    (lambda: reproduce_table(4), 3),
    (lambda: convergence_study(split_scalar_linear(-0.4, -0.6, 1.0), "mid122",
                               0.25, 3, 1.0), 3)],
    ids=["run", "reproduce_table", "convergence_study"])
def test_library_calls_run_on_one_blas_thread(call, forward_solves, monkeypatch,
                                              blas_counts):
    # each entry point sets every pool to one thread itself; a table's rows
    # run inside its limit and leave the pools alone
    seen = []
    monkeypatch.setattr(cli, "solve_forward", counting_pools(cli.solve_forward, seen))
    before = [get() for get, _ in numerics.openblas_pools()]
    call()
    assert len(seen) == forward_solves
    assert all(counts == [1] * len(before) for counts in seen)
    assert [get() for get, _ in numerics.openblas_pools()] == before
    assert blas_counts == [3, 1, 3]


def test_library_calls_restore_the_blas_threads_after_an_error(monkeypatch,
                                                               blas_counts):
    with pytest.raises(CliError, match=r"^\[config\]"):
        run(base_config(grid={"t_end": 1.0, "k": 0.3}))
    assert blas_counts == [3, 1, 3]
    # the second row of a table fails in its forward solve
    calls = []

    def forward(*args):
        calls.append(args)
        if len(calls) == 2:
            raise SolverError("Newton did not converge", 0, 1)
        return solve_forward(*args)

    monkeypatch.setattr(cli, "solve_forward", forward)
    with pytest.raises(CliError, match=r"^\[forward\]"):
        reproduce_table(4)
    assert len(calls) == 2
    assert blas_counts == [3, 1, 3, 1, 3]


def test_main_restores_the_blas_threads_after_a_failing_config(tmp_path, capsys,
                                                               blas_counts):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(base_config(grid={"t_end": 1.0, "k": 0.3})))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: [config]")
    assert blas_counts == [3, 1, 3]


def test_analytic_reference_without_an_exact_solution_fails_at_config(
        tmp_path, capsys, monkeypatch):
    # rejected before the forward solve, not after the estimate
    monkeypatch.setattr(cli, "solve_forward", None)
    path = tmp_path / "burgers.json"
    path.write_text(json.dumps(base_config(
        problem={"name": "burgers", "gamma": 0.05, "h": 0.05},
        qoi={"kind": "mean-left-half"}, reference={"mode": "analytic"})))
    assert main(["run", "--config", str(path)]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: [config]")
    assert "config.reference: mode 'analytic' needs an analytic or sampled " \
        "exact solution; problem 'burgers' has neither" in first


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pipeline_errors_echo_resolved_config(tmp_path, capsys):
    # once the config has resolved, failures carry it for reproduction
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(base_config(problem=_BLOWUP)))
    for verb, stage in ((["run"], "forward"),
                        (["converge", "--levels", "3"], "converge")):
        assert main([verb[0], "--config", str(path), *verb[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{stage}] non-finite state"), verb
        echoed = err.split("config: ", 1)[1]
        assert json.loads(echoed)["grid"]["n"] == 20


def test_main_table_verb(tmp_path, capsys):
    out = tmp_path / "t4.csv"
    assert main(["table", "--id", "4", "--out", str(out)]) == 0
    assert out.exists()
    assert "wrote 3 rows" in capsys.readouterr().out


def test_main_converge_verb(tmp_path, capsys):
    doc = {
        "scheme": "ssp332",
        "problem": {"name": "scalar-bernoulli", "lam": -2.0, "mu": 0.5,
                    "y0": 1.0},
        "grid": {"t_end": 1.0, "k": 0.1},
        "qoi": {"kind": "final-time", "psi": [1.0]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["converge", "--config", str(path), "--levels", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "k,error,order"
    assert out[2].endswith("NA")
    assert len(out) == 2 + 3


def test_main_converge_honours_the_reference_step_cap(tmp_path, capsys):
    # the echoed reference section is the one the sweep integrates with
    path = tmp_path / "burgers.json"
    path.write_text(json.dumps(base_config(
        problem={"name": "burgers", "gamma": 0.05, "h": 0.05},
        qoi={"kind": "mean-left-half"},
        reference={"step_cap": 1, "rtol": 1e-4})))
    assert main(["converge", "--config", str(path), "--levels", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [converge] reference integration attempted "
                          "more than 1 steps (cap 1)")
    assert json.loads(err.split("config: ", 1)[1])["reference"]["step_cap"] == 1


@pytest.mark.parametrize("verb", [["run"], ["converge", "--levels", "3"]])
def test_main_reports_config_and_file_errors_as_config(tmp_path, capsys, verb):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(grid={"t_end": 1.0, "k": 0.3})))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{")
    # nested beyond the parser's recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for path, message in ((bad, "step=0.3 does not divide"),
                          (tmp_path / "missing.json", "No such file"),
                          (malformed, "Expecting property name"),
                          (deep, "maximum recursion depth exceeded")):
        assert main([verb[0], "--config", str(path), *verb[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [config]")
        assert message in err


def test_main_dump_tableau_verb(capsys):
    assert main(["dump-tableau", "--scheme", "ssp332"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "SSP3(3,3,2)"
    assert doc["implicit"]["d"][2] == pytest.approx(0.5)


def test_main_unknown_scheme_is_reported(capsys):
    assert main(["dump-tableau", "--scheme", "rk4"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb, message", [
    (["dump-tableau", "--scheme", "rk4"], "unknown scheme 'rk4'; built-ins: "),
    (["run", "--config", "{cfg}"], "unknown scheme 'rk4'; built-ins: "),
    (["converge", "--config", "{cfg}", "--levels", "2"],
     "need at least 3 levels for observed orders, got 2"),
    (["table", "--id", "3", "--out", "{tmp}/t3.csv"],
     "unknown table id 3; supported: 4..16"),
    (["table", "--id", "4", "--out", "{tmp}/missing/t4.csv"],
     "table output: directory '{tmp}/missing' does not exist"),
    (["table", "--id", "4", "--out", "{tmp}"],
     "table output: '{tmp}' is a directory"),
], ids=["dump-tableau", "run", "converge-levels", "table-id",
        "table-out-missing-dir", "table-out-directory"])
def test_main_reports_bad_arguments_as_config(tmp_path, capsys, monkeypatch,
                                              verb, message):
    cfg = tmp_path / "cfg.json"
    scheme = "rk4" if verb[0] == "run" else "mid122"
    cfg.write_text(json.dumps(base_config(scheme=scheme)))
    monkeypatch.setattr(cli, "solve_forward", _never_called)
    assert main([arg.format(cfg=cfg, tmp=tmp_path) for arg in verb]) == 1
    assert capsys.readouterr().err.startswith(
        "error: [config] " + message.format(tmp=tmp_path))
    assert not list(tmp_path.rglob("*.csv"))


def _never_called(*_args, **_kwargs):
    raise AssertionError("a bad argument reached the numerics")


def test_main_reports_any_other_failure_as_internal(tmp_path, capsys,
                                                    monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("not a stage failure")

    monkeypatch.setattr(cli, "reproduce_table", broken)
    assert main(["table", "--id", "4", "--out", str(tmp_path / "t4.csv")]) == 1
    assert capsys.readouterr().err == "error: [internal] not a stage failure\n"


def test_reference_cache_consistency():
    row1 = run(base_config())
    row2 = run(base_config())
    assert row1.metadata["reference_qoi"] == row2.metadata["reference_qoi"]
    assert row1.csv_values(False) == row2.csv_values(False)


def test_verified_reference_is_reused_only_for_larger_errors(monkeypatch):
    # verification holds the reference to a fraction of one row's error;
    # a row with a smaller error needs a reference verified against its own
    monkeypatch.setattr(cli, "_REFERENCE_CACHE", {})
    solved_for = []
    real_true_qoi = cli.true_qoi

    def recording_true_qoi(*args, **kwargs):
        solved_for.append(kwargs["imex_qoi"])
        return real_true_qoi(*args, **kwargs)

    monkeypatch.setattr(cli, "true_qoi", recording_true_qoi)
    ref = {"mode": "high-order-numeric", "verify": True}
    coarse = run(base_config(reference=ref))
    fine = run(base_config(scheme="ssp343", reference=ref))
    assert abs(fine.metadata["true_error"]) < abs(coarse.metadata["true_error"])
    assert solved_for == [coarse.metadata["imex_qoi"], fine.metadata["imex_qoi"]]

    again = run(base_config(reference=ref))
    assert len(solved_for) == 2
    assert again.metadata["reference_qoi"] == fine.metadata["reference_qoi"]


def test_table_rows_solve_their_reference_once(monkeypatch):
    # the three rows of a table share one reference key
    monkeypatch.setattr(cli, "_REFERENCE_CACHE", {})
    calls = []
    real_true_qoi = cli.true_qoi

    def counted_true_qoi(*args, **kwargs):
        calls.append(1)
        return real_true_qoi(*args, **kwargs)

    monkeypatch.setattr(cli, "true_qoi", counted_true_qoi)
    rows = reproduce_table(6)
    assert len(rows) == 3
    assert len(calls) == 1
