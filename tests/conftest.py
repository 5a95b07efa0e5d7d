"""Test-session set-up: child processes import the package from ``src``, and every
property test is deterministic.

``pythonpath = ["src"]`` in pyproject.toml reaches only this process; the
command-line tests start ``python -m thetadecomp.cli`` subprocesses, which
read ``PYTHONPATH`` instead.

The ``tier1`` hypothesis profile is loaded before any test module is imported, so
each ``settings(max_examples=...)`` there inherits it: examples are derandomised, no
example database is read or written, and no example has a deadline.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")
