"""Write the golden CLI fixtures that tests/test_golden.py compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py [CASE ...]

A case is a directory holding ``argv.json``, written by hand: the command
line, ending in ``--out-dir out``, run from a directory that contains
``inputs/``. Each case named (with no CASE, ``inputs/`` and then every case)
is run and compared by test_golden's runner and comparison, and its
``stdout.txt`` and ``out/`` files (the manifest among them) are written,
except any whose file passes the comparison already: a run rewrites only
what has moved, prints what it wrote and deletes other files under ``out/``.

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
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

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
from test_golden import assert_matches, case_texts, data_scale, run_case  # noqa: E402


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


def _write_moved(directory: Path, texts: dict, floor: float = 0.0) -> None:
    """Write each of ``texts``, by its path under ``directory``, whose file
    there is missing or fails the golden comparison."""
    for path, text in texts.items():
        try:
            assert_matches(text, (directory / path).read_text(), path, floor)
        except (AssertionError, FileNotFoundError):
            (directory / path).parent.mkdir(parents=True, exist_ok=True)
            (directory / path).write_text(text)
            print(f"wrote {directory.name}/{path}", file=sys.stderr)


def main_generate(names: list[str]) -> None:
    cases = sorted(p.parent.name for p in HERE.glob("*/argv.json"))
    if unknown := sorted(set(names) - set(cases)):
        raise SystemExit(f"unknown cases {unknown}; the cases are {cases}")
    with tempfile.TemporaryDirectory() as tmp:
        if not names:
            write_inputs(inputs := Path(tmp, "inputs"))
            _write_moved(HERE / "inputs", {p.name: p.read_text() for p in inputs.iterdir()})
        for name in names or cases:
            case, work = HERE / name, Path(tmp, name)
            argv = json.loads((case / "argv.json").read_text())
            shutil.copytree(HERE / "inputs", work / "inputs")
            texts = case_texts(argv, run_case(argv, work), work)
            for stale in set(case.glob("out/*")) - {case / path for path in texts}:
                stale.unlink()
            _write_moved(case, texts, data_scale(argv, work))


if __name__ == "__main__":
    main_generate(sys.argv[1:])
