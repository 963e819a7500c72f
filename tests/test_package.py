"""The package namespace exports only names that exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

import imexest


def test_every_exported_name_resolves():
    for name in imexest.__all__:
        assert getattr(imexest, name) is not None, name


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this imexest."""
    src = str(Path(imexest.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_the_package_imports_its_cli_only_on_first_use():
    # `python -m imexest.cli` imports the package first: a package that
    # imported its cli would leave runpy a second copy to warn about
    env = fresh_env()
    subprocess.run([sys.executable, "-c", "import sys, imexest; "
                    "assert 'imexest.cli' not in sys.modules, 'cli imported'"],
                   env=env, check=True)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "imexest.cli",
                           "dump-tableau", "--scheme", "ssp332"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


NEVER_LOADED = """
import sys
from imexest import cli

def loaded():
    return [name for name in ("scipy.integrate", "scipy.optimize", "scipy.special")
            if name in sys.modules]

assert not loaded(), f"import imexest.cli loaded {loaded()}"
for argv in sys.argv[1:]:
    verb, path, *rest = argv.split()
    assert cli.main([verb, "--config", path, *rest]) == 0, argv
    assert not loaded(), f"{argv} loaded {loaded()}"
"""


def test_the_cli_never_loads_scipy_integrate(tmp_path):
    # the references integrate with their own loops: scipy.integrate, and
    # the scipy.optimize and scipy.special it loads, stay out of a process
    # that imports the cli and of every route it runs: Burgers' DOP853, the
    # Alfven wave's Radau IIA with a quadrature, and converge's dense DOP853
    mhd = {"scheme": "ssp343", "problem": {"name": "mhd-alfven", "h": 0.05},
           "grid": {"t_end": 0.01, "k": 1e-3}}
    configs = {
        "burgers": {"scheme": "mid122",
                    "problem": {"name": "burgers", "gamma": 0.05, "h": 0.1},
                    "grid": {"t_end": 0.2, "k": 0.05},
                    "qoi": {"kind": "mean-left-half"}},
        "mhd": {**mhd, "qoi": {"kind": "time-integrated", "psi_tilde_const": [1.0] * 38}},
        "converge": {**mhd, "qoi": {"kind": "integral-v"}},
    }
    for name, config in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    argv = [f"run {tmp_path / 'burgers.json'}", f"run {tmp_path / 'mhd.json'}",
            f"converge {tmp_path / 'converge.json'} --levels 3"]
    done = subprocess.run([sys.executable, "-c", NEVER_LOADED, *argv],
                          env=fresh_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
