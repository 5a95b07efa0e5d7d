"""Regenerate decompose_ref_seed0.json from its own inputs.

Each case keeps its name, input, omega and seed, and its "out" becomes the bytes that
``thetadecomp decompose`` writes for them with ``--out``, as the golden test reads them.
A change that alters these outputs on purpose runs, from the repository root,

    PYTHONPATH=src python tests/data/regen_decompose_ref.py

and says which fields moved.
"""

import json
import tempfile
from pathlib import Path

from thetadecomp import cli

PATH = Path(__file__).with_name("decompose_ref_seed0.json")


def main():
    cases = json.loads(PATH.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in.json"), Path(tmp, "out.json")
        for case in cases:
            src.write_text(json.dumps(case["input"]))
            rc = cli.main(["decompose", "--input", str(src), "--omega", case["omega"],
                           "--seed", str(case["seed"]), "--out", str(out)])
            if rc:
                raise SystemExit(f"{case['name']}: decompose exited {rc}")
            case["out"] = out.read_text()
    PATH.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    main()
