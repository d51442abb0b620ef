"""Write the golden CLI fixtures that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py [CASE ...]

With no CASE it writes ``inputs/`` and every case anew. Naming cases rewrites
only those case directories, from the ``inputs/`` already there, and leaves
every other file as it is.

Fixtures are regenerated only on a parent commit, never to make a change
pass. They record what the CLI wrote before a change; the test then reruns
every case on the changed code and requires the same files. Regenerating on
the changed code would compare the change with itself.

The one exception is a declared output change: a commit that changes what
the CLI writes on purpose, and changes nothing else, runs this script and
keeps only the files that the change is declared to move, restoring every
other rewritten file. Its message lists each moved number, before and
after. The canonical phase of ``forward``'s triples was introduced this
way; it moved ``stability/`` and ``inputs/su2-matching-data.json``.

Layout: ``inputs/`` holds the symbol and spectral-data files the cases read.
Each case directory holds ``argv.json`` (the command line, run from a
directory that contains ``inputs/``), ``stdout.txt`` and ``out/``, the files
the command wrote, including its manifest.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from muhankel.cli import main
from muhankel.duals import SU2, DualCatalog, PowerLaw, Torus, enumerate_dual
from muhankel.operators import assemble
from muhankel.recovery import forward
from muhankel.symbols import (
    Symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
    random_symbol,
)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
from helpers import list_layout  # noqa: E402  (tests/, put on the path above)

WEIGHTS = ["--mu", "0.5", "--nu", "-0.5"]

CASES = {
    "catalog": ["catalog", "--group", "su2", "--cutoff", "6"],
    "schatten-scan": ["schatten-scan", "--p", "2", "--alpha", "1.5",
                      "--ladder", "8,16,32,64"],
    "spectrum": ["spectrum", "--symbol", "inputs/su2-random.json",
                 *WEIGHTS, "--m", "1", "--n", "1", "--p", "3"],
    "index-winding": ["index", "--symbol", "inputs/torus-hankel.json"],
    "index-non-square": ["index", "--symbol", "inputs/su2-non-square.json"],
    "index-dense": ["index", "--symbol", "inputs/su2-dense.json", *WEIGHTS],
    "recover-true-symbol": ["recover", "--data", "inputs/su2-matching-data.json",
                            *WEIGHTS, "--true-symbol", "inputs/su2-matching.json"],
    "recover-residual": ["recover", "--data", "inputs/su2-matching-data.json",
                         *WEIGHTS, "--alpha", "1e-3"],
    "stability": ["stability", "--symbol", "inputs/su2-matching.json", *WEIGHTS,
                  "--delta-grid", "1e-4,1e-3,1e-2", "--trials", "3", "--seed", "5"],
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True)
    su2 = enumerate_dual(SU2(), 6.0)
    _write_json(inputs / "su2-random.json", random_symbol(su2, su2, 0.5, 1).to_dict())

    torus = enumerate_dual(Torus(1), 9.0)
    halfline = DualCatalog(torus.group, torus.cutoff, [l for l in torus if l.index[0] >= 0])
    hankel = hankel_symbol_from_fourier({0: 0.25, 1: 1.0, 2: 0.1}, halfline, halfline)
    _write_json(inputs / "torus-hankel.json", hankel.to_dict())

    pi, rho = su2.labels[0], su2.labels[1]
    non_square = Symbol(su2, su2, {(pi, rho): np.array([[1.0, 2.0]])})
    _write_json(inputs / "su2-non-square.json", non_square.to_dict())

    # two multi-block support components, each of full rank, on catalogs of
    # 15 and 28 coefficients
    dense = random_symbol(su2, enumerate_dual(SU2(), 12.0), 0.3, 3)
    _write_json(inputs / "su2-dense.json", dense.to_dict())

    matching = random_matching_symbol(su2, su2, 3, pairs=len(su2))
    _write_json(inputs / "su2-matching.json", matching.to_dict())
    data = forward(assemble(matching, PowerLaw(0.5), PowerLaw(-0.5)))
    if not data.fully_attributed:
        raise SystemExit("matching instance is not attributable; pick another seed")
    # the fixture keeps the list layout, which the reader still accepts
    _write_json(inputs / "su2-matching-data.json", list_layout(data.to_dict()))


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Run the CLI in ``workdir``; returns the exit code and the stdout."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def main_generate(names: list[str]) -> None:
    if unknown := sorted(set(names) - set(CASES)):
        raise SystemExit(f"unknown cases {unknown}; the cases are {sorted(CASES)}")
    if not names:
        shutil.rmtree(HERE / "inputs", ignore_errors=True)
        write_inputs(HERE / "inputs")
    for name in names or CASES:
        shutil.rmtree(HERE / name, ignore_errors=True)
        argv = [*CASES[name], "--out-dir", "out"]
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            shutil.copytree(HERE / "inputs", work / "inputs")
            code, stdout = run_case(argv, work)
            if code != 0:
                raise SystemExit(f"case {name} exited {code}")
            case = HERE / name
            case.mkdir()
            shutil.copytree(work / "out", case / "out")
        _write_json(case / "argv.json", argv)
        (case / "stdout.txt").write_text(stdout)
        print(f"{name}: {sorted(p.name for p in (case / 'out').iterdir())}", file=sys.stderr)


if __name__ == "__main__":
    main_generate(sys.argv[1:])
