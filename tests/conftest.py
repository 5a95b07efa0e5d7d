"""Test-session set-up: child processes import the package from ``src``.

``pythonpath = ["src"]`` in pyproject.toml reaches only this process; the
command-line tests start ``python -m thetadecomp.cli`` subprocesses, which
read ``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
