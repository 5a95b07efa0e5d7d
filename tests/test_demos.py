"""Every demo script, and each runnable README example, runs to completion without a warning
or error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
