"""One benchmark sample: a fresh interpreter that imports ``imexest.cli``
and reproduces tables through ``imexest.cli.main(["table", ...])``.

    python3 sample.py --out DIR [--tables 14,10] [--spans FILE]

``imexest`` must be importable (``run.py`` puts the checkout's ``src``
on ``PYTHONPATH``).  With no tables the sample only measures set-up.
With ``--spans`` the tracer's wrappers are installed after the import and
its spans are written to FILE after the last table.  The last line of
standard output is one JSON object:

* ``setup_end``: ``time.monotonic()`` when ``import imexest.cli``
  returned (the parent subtracts its own clock reading taken just before
  it started this process; the clock is system-wide);
* ``run_s``, ``cpu_s``: wall and process CPU seconds over all table calls;
* ``peak_rss_mb``: peak resident set size of the process;
* ``status``: exit code of each table call, keyed by table id;
* ``env``: library versions and BLAS threading, for the record.
"""

import time

import imexest.cli

SETUP_END = time.monotonic()

import argparse  # noqa: E402  (the import above is the measured set-up)
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def blas_record() -> dict:
    """BLAS name from numpy's build record and, for every OpenBLAS the
    process has loaded, its configuration and current thread count."""
    try:
        name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    libs = []
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        config = _first_symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        libs.append({"lib": os.path.basename(path),
                     "config": config.decode() if config else None,
                     "threads": _first_symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)})
    return {"name": name, "libs": libs}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--tables", default="")
    parser.add_argument("--spans")
    args = parser.parse_args()
    tables = [int(t) for t in args.tables.split(",") if t]

    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    status = {}
    t0, c0 = time.perf_counter(), time.process_time()
    for tid in tables:
        argv = ["table", "--id", str(tid),
                "--out", os.path.join(args.out, f"table{tid}.csv")]
        if tracer is None:
            status[tid] = imexest.cli.main(argv)
        else:
            with tracer.table(tid):
                status[tid] = imexest.cli.main(argv)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({
        "setup_end": SETUP_END, "run_s": run_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "status": status,
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": blas_record(),
                "imexest_threads": os.environ.get(imexest.cli.THREADS_ENV)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
