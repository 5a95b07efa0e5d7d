"""Every demo script, and each runnable README example, runs to completion without a warning
or error; every module-qualified name README cites exists."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thetadecomp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_cleanly(args):
    """Runs ``args`` with the package on PYTHONPATH; asserts exit 0 and an empty stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        args,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


def readme_block(heading, lang):
    """The first ``lang`` code block of the README section ``## heading``."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    run_cleanly([sys.executable, str(demo)])


def test_readme_command_line_runs_cleanly():
    script = readme_block("Command line", "sh")
    script = script.replace("thetadecomp ", f"{sys.executable} -m thetadecomp.cli ")
    run_cleanly(["bash", "-e", "-o", "pipefail", "-c", script])


def test_readme_library_sketch_runs_cleanly():
    run_cleanly([sys.executable, "-c", readme_block("Library sketch", "python")])


def _attribute(obj, name):
    """``obj.name``; of a class, also a name its ``__init__`` sets on each instance (None)."""
    if isinstance(obj, type) and not hasattr(obj, name) and f"self.{name} = " in inspect.getsource(obj.__init__):
        return None
    return getattr(obj, name)


def test_readme_names_exist():
    # every backticked <module>.<name>, with or without "thetadecomp.", and a call's name, is a
    # name of thetadecomp.<module>; each further dotted part an attribute of what it names
    modules = {m.name for m in pkgutil.iter_modules(thetadecomp.__path__)}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    refs = [m.groups() for span in re.findall(r"`([^`]+)`", text)
            if (m := re.fullmatch(r"(?:thetadecomp\.)?(\w+)\.([\w.]*\w)(?:\(.*)?", span, re.S))
            and m[1] in modules]
    assert len(set(refs)) >= 24  # as many as README cited when this test was written
    for module, path in refs:
        obj = importlib.import_module(f"thetadecomp.{module}")
        for name in path.split("."):
            obj = _attribute(obj, name)
