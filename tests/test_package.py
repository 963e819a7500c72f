"""The package namespace exports only names that exist."""

import os
import subprocess
import sys
from pathlib import Path

import imexest


def test_every_exported_name_resolves():
    for name in imexest.__all__:
        assert getattr(imexest, name) is not None, name


def test_the_package_imports_its_cli_only_on_first_use():
    # `python -m imexest.cli` imports the package first: a package that
    # imported its cli would leave runpy a second copy to warn about
    src = str(Path(imexest.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", "import sys, imexest; "
                    "assert 'imexest.cli' not in sys.modules, 'cli imported'"],
                   env=env, check=True)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "imexest.cli",
                           "dump-tableau", "--scheme", "ssp332"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
