"""imexest table-reproduction benchmark.

    python3 perfbench/run.py --workload mhd|burgers|advdiff --seed N \
        --seconds S --trace 0|1

Each sample is a fresh interpreter (``sample.py``) that imports
``imexest.cli`` from the checkout's ``src`` and reproduces every table of
the workload once, in an order drawn from the seed, through
``imexest.cli.main(["table", ...])`` with ``IMEXEST_THREADS=1`` (a closed
loop: one table at a time, one row at a time).  Samples repeat until
``--seconds`` have passed, and at least ``MIN_SAMPLES`` times.  Every row
of every sample is checked against ``golden/``.

``--trace 0`` reports the end-to-end metrics: medians over the samples,
and for ``setup_s`` over the samples plus ``SETUP_PROBES`` import-only
processes.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``.
Human-readable lines come first; the last line of standard output is the
JSON result.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from golden import check_table, golden_path
from tracer import LAYER_UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "imexest"

WORKLOADS = {
    "mhd": (14,),
    "burgers": (10, 11),
    "advdiff": (4, 5, 6, 7, 8, 9, 12),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "effectivity_dev_max": "ratio"}

MIN_SAMPLES = 4
SETUP_PROBES = 4
HARD_LIMIT_S = 170.0  # every run must exit within 180 s


class BenchError(RuntimeError):
    pass


def source_record() -> dict:
    """Line counts per module and a digest of the package source."""
    digest = hashlib.sha256()
    lines = {}
    for path in sorted(PACKAGE.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.name] = data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines,
            "src_lines_total": sum(lines.values())}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


class Runner:
    """Starts sample processes and checks what they wrote."""

    def __init__(self, workdir: Path, tables: list[int], deadline: float):
        self.workdir = workdir
        self.tables = tables
        self.deadline = deadline
        self.processes = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                    if self.env.get("PYTHONPATH") else []))
        self.env["IMEXEST_THREADS"] = "1"
        self.rows_attempted = 0
        self.rows_failed = 0
        self.effectivities: list[float] = []
        self.problems: list[str] = []
        self.child_env: dict = {}

    def sample(self, tables: list[int], traced: bool = False) -> dict:
        self.processes += 1
        out = self.workdir / f"sample{self.processes}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "sample.py"), "--out", str(out),
               "--tables", ",".join(map(str, tables))]
        spans_path = out / "spans.json"
        if traced:
            cmd += ["--spans", str(spans_path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time limit reached before a sample could start")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"sample exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"sample process exited with {proc.returncode}")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise BenchError("sample process printed no result") from exc
        result["setup_s"] = result["setup_end"] - started
        result["wall_s"] = time.monotonic() - started
        self.child_env = result["env"]
        for tid in tables:
            ok = result["status"].get(str(tid)) == 0
            check = check_table(tid, out / f"table{tid}.csv" if ok else None)
            self.rows_attempted += check.attempted
            self.rows_failed += check.failed
            self.effectivities += check.effectivities
            self.problems += check.problems
        if traced:
            result["layers"] = layer_metrics(json.loads(spans_path.read_text()))
        shutil.rmtree(out)
        return result

    def room_for(self, samples: list[dict], start: float, seconds: float,
                 minimum: int) -> bool:
        """Whether to start another sample: while fewer than ``minimum``
        ran, or while one more, as long as the longest so far, ends
        within ``seconds`` of ``start``; never past the hard time limit."""
        longest = max((s["wall_s"] for s in samples), default=0.0)
        now = time.monotonic()
        if now + 1.5 * longest >= self.deadline:
            return False
        return len(samples) < minimum or now + longest - start <= seconds


def spread(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median {med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} (n={len(values)})"


def run_end_to_end(runner: Runner, seconds: float) -> dict:
    runner.sample([])  # fills __pycache__ and the page cache; not counted
    probes = [runner.sample([]) for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    start = time.monotonic()
    while runner.room_for(samples, start, seconds, MIN_SAMPLES):
        samples.append(runner.sample(runner.tables))
    series = {"setup_s": [p["setup_s"] for p in probes + samples],
              "run_s": [s["run_s"] for s in samples],
              "cpu_s": [s["cpu_s"] for s in samples],
              "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
    metrics = {}
    for name, values in series.items():
        print(f"{name:<22} {spread(values)} {END_TO_END_UNITS[name]}")
        metrics[name] = statistics.median(values)
    # with no effectivity at all every row has failed; 1.0 keeps the JSON valid
    metrics["effectivity_dev_max"] = max(
        (abs(e - 1.0) for e in runner.effectivities), default=1.0)
    print(f"{'effectivity_dev_max':<22} {metrics['effectivity_dev_max']:.6g} ratio")
    return metrics


def run_traced(runner: Runner, seconds: float) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    pairs: list[dict] = []
    start = time.monotonic()
    while runner.room_for(pairs, start, seconds, 1):
        pair_start = time.monotonic()
        plain.append(runner.sample(runner.tables))
        traced.append(runner.sample(runner.tables, traced=True))
        pairs.append({"wall_s": time.monotonic() - pair_start})
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        values = [s["layers"][name] for s in traced]
        # counts repeat exactly between samples; times are medians
        metrics[name] = (statistics.median(values) if unit == "s"
                         else statistics.median_low(values))
    metrics["trace.overhead_s"] = (statistics.median(s["run_s"] for s in traced)
                                   - statistics.median(s["run_s"] for s in plain))
    for name, value in metrics.items():
        print(f"{name:<26} {value:.6g} {LAYER_UNITS.get(name, 's')}")
    for label, procs in (("untraced", plain), ("traced", traced)):
        print(f"{'run_s ' + label:<26} {spread([s['run_s'] for s in procs])} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tables = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(tables)
    missing = [str(p) for p in [PACKAGE / "cli.py"] + [golden_path(t) for t in tables]
               if not p.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + HARD_LIMIT_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir, tables, deadline)
        print(f"# workload {args.workload} seed {args.seed} tables {tables} "
              f"trace {args.trace}")
        if args.trace:
            metrics = run_traced(runner, args.seconds)
            units = {**LAYER_UNITS, "trace.overhead_s": "s"}
        else:
            metrics = run_end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"workload": args.workload, "seed": args.seed, "tables": tables,
           "processes": runner.processes, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "git_commit": git_commit(), **runner.child_env, **source_record()}
    print("# env " + json.dumps(env, sort_keys=True))
    for problem in runner.problems:
        print(f"# row failed: {problem}")
    print(f"{'rows_failed':<22} {runner.rows_failed} rows "
          f"(of {runner.rows_attempted} attempted)")
    print(json.dumps({
        "correct": runner.rows_failed == 0,
        "attempted": runner.rows_attempted,
        "failed": runner.rows_failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
