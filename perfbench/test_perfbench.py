"""Tests of the benchmark itself: traced work counts pinned to exact values,
the golden row check, and the refusal to run without the package source.

    python3 -m pytest perfbench -q

The count fixtures were measured with ``IMEXEST_THREADS=1``; they change
only when the program does the work differently, which is what the
per-layer metrics exist to show.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden import check_table, golden_path
from tracer import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ADVDIFF = (4, 5, 6, 7, 8, 9, 12)
ALL_TABLES = ADVDIFF + (10, 11, 14)
COUNTS = [name for name, unit in LAYER_UNITS.items() if unit != "s"]


def traced_sample(tables, out: Path) -> tuple[dict, list]:
    env = dict(os.environ, IMEXEST_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    spans = out / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "sample.py"), "--out", str(out),
         "--tables", ",".join(map(str, tables)), "--spans", str(spans)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(spans.read_text())


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    result, spans = traced_sample(ALL_TABLES, out)
    return out, result, spans


def test_traced_tables_pass_the_golden_check(traced):
    out, result, _ = traced
    for tid in ALL_TABLES:
        assert result["status"][str(tid)] == 0
        check = check_table(tid, out / f"table{tid}.csv")
        assert (check.attempted, check.failed) == (3, 0), check.problems


@pytest.mark.parametrize("table, iters", [
    (4, (80, 240, 320)), (10, (20, 60, 80)), (14, (100, 300, 400))])
def test_newton_iterations_per_row(traced, table, iters):
    spans = traced[2]
    got = tuple(layer_metrics(spans, f"{table}/{scheme}")["solver.newton_iters"]
                for scheme in ("mid122", "ssp332", "ssp343"))
    assert got == iters


@pytest.mark.parametrize("table, lus", [(4, 3), (10, 240), (11, 480), (14, 3)])
def test_adjoint_factorizations_per_table(traced, table, lus):
    assert layer_metrics(traced[2], str(table))["adjoint.lu_factorizations"] == lus


@pytest.mark.parametrize("table, lus", [(4, 21), (10, 160), (11, 320), (14, 18)])
def test_forward_factorizations_per_table(traced, table, lus):
    # tables 4 and 14 are linear, yet the LU cache keys on the float step,
    # which np.diff(linspace) perturbs at roundoff: more than 3 LUs
    assert layer_metrics(traced[2], str(table))["solver.lu_factorizations"] == lus


def test_one_reference_solve_per_table(traced):
    for tid in ALL_TABLES:
        m = layer_metrics(traced[2], str(tid))
        assert (m["reference.solves"], m["reference.cache_hits"], m["cli.rows"]) \
            == (1, 2, 3)


def test_advdiff_reference_is_analytic(traced):
    spans = traced[2]
    assert sum(layer_metrics(spans, str(t))["reference.nfev"] for t in ADVDIFF) == 0
    assert layer_metrics(spans, "14")["reference.nfev"] > 0


def test_counts_repeat_between_traced_runs(traced, tmp_path):
    _, spans = traced_sample((10, 4), tmp_path)
    for tid in (4, 10):
        first = layer_metrics(traced[2], str(tid))
        again = layer_metrics(spans, str(tid))
        assert {k: first[k] for k in COUNTS} == {k: again[k] for k in COUNTS}


def _corrupt(tmp_path: Path, table: int, old: str, new: str) -> Path:
    text = golden_path(table).read_text()
    assert text.count(old) == 1
    path = tmp_path / f"table{table}.csv"
    path.write_text(text.replace(old, new))
    return path


def test_corrupted_golden_value_counts_as_failed_row(tmp_path):
    # SSP3(3,3,2) row of table 10, E2 column
    gold = _corrupt(tmp_path, 10, "-1.20877E-02", "-1.20977E-02")
    check = check_table(10, golden_path(10), gold_path=gold)
    assert (check.attempted, check.failed) == (3, 1)
    assert "row 2" in check.problems[0]


def test_corrupted_golden_config_counts_as_failed_row(tmp_path):
    text = golden_path(4).read_text()
    path = tmp_path / "table4.csv"
    path.write_text(text.replace('"scheme":"ssp343"', '"scheme":"ssp433"'))
    check = check_table(4, golden_path(4), gold_path=path)
    assert (check.attempted, check.failed) == (3, 1)


def test_missing_output_fails_every_row():
    check = check_table(14, None)
    assert (check.attempted, check.failed) == (3, 3)


def test_last_digit_roundoff_is_tolerated(tmp_path):
    gold = _corrupt(tmp_path, 10, "-1.20877E-02", "-1.20878E-02")
    assert check_table(10, golden_path(10), gold_path=gold).failed == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "burgers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
