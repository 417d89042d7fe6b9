"""Regenerate the frozen reference data under perfbench/reference/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes

* ``reference/summands.json``: the summand library the input generator
  draws from, namely ``corpus.module_corpus(a, minimum=0)`` for every
  algebra in ``corpus.GORENSTEIN_NAMES``, in the bundled basis, with gpd and
  gid of every summand;
* ``reference/cli/<n>.out``: the expected stdout of every command of the
  ``cli`` workload.

The benchmark only reads these files, so the inputs and expected answers
of a run do not depend on the code being measured.  Regenerate them only
when the package's answers are meant to change, and review the diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def summand_library() -> dict:
    from gorhom import corpus
    from gorhom.homology import gid, gorenstein_profile, gpd

    library = {}
    for name in corpus.GORENSTEIN_NAMES:
        a = corpus.corpus_algebra(name)
        prof = gorenstein_profile(a, workloads.BOUND)
        fmt = a.field.format
        summands = []
        for m in corpus.module_corpus(a, minimum=0):
            summands.append({
                "dim": m.dim,
                "action": [[fmt(x) for row in mat.data for x in row] for mat in m.action],
                "gpd": gpd(m, prof),
                "gid": gid(m, prof),
            })
        library[name] = {"char": a.field.characteristic, "algebra_dim": a.dim,
                         "summands": summands}
    return library


def cli_outputs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    for i, args in enumerate(workloads.CLI_COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "gorhom.cli", *args], env=env,
                              capture_output=True, check=True)
        (out_dir / f"{i:02d}.out").write_bytes(proc.stdout)


def main() -> None:
    ref = HERE / "reference"
    ref.mkdir(exist_ok=True)
    text = json.dumps(summand_library(), indent=None, separators=(",", ":"), sort_keys=True)
    (ref / "summands.json").write_text(text + "\n")
    cli_outputs(ref / "cli")


if __name__ == "__main__":
    main()
