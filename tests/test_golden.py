"""Golden CLI outputs: every case under tests/golden/ is rerun and its
stdout, manifest and each file the manifest lists under ``outputs`` must
match the fixture; a JSON file holding NaN or Infinity fails. All text other
than numbers matches exactly. Each number agrees to 1e-12 relative to the
largest magnitude in its field of the fixture: a JSON key path with the list
indices dropped, a CSV column, or a line of stdout. The stdout lines that
report rounding-level differences take at least the data's largest singular
value as their scale. :func:`run_case` runs a case and :func:`case_texts`
with :func:`assert_matches` compares it, here, in tests/golden/make_golden.py
(see its docstring for adding a case) and in CI's console step."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muhankel.cli import main
from muhankel.operators import ZERO_REL_TOL, retained_count

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv.json").is_file())
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12
# stdout lines whose number is rounding noise, a difference of two equal quantities
ROUNDING_LINES = ("max entry error vs true symbol", "max residual vs reassembled data")


def numbers_by_field(text: str, what: str) -> dict:
    """The numbers in ``text`` grouped by field, in order. ``what`` names the
    file: a .json file's field is a key path with the list indices dropped
    (the numbers inside a string belong to its path), a .csv file's a column
    and any other text's a line."""
    fields: dict = {}

    def add(field, numbers):
        fields.setdefault(field, []).extend(map(float, numbers))

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, (*path, key))
        elif isinstance(node, list):
            for value in node:
                walk(value, path)
        elif isinstance(node, str):
            add(path, NUMBER.findall(node))
        elif type(node) in (int, float):
            add(path, [node])

    if what.endswith(".json"):
        walk(json.loads(text), ())
    elif what.endswith(".csv"):
        for row in csv.reader(io.StringIO(text)):
            for column, cell in enumerate(row):
                add(column, NUMBER.findall(cell))
    else:
        for line, content in enumerate(text.splitlines()):
            add(line, NUMBER.findall(content))
    return fields


def assert_matches(got: str, want: str, what: str, floor: float = 0.0) -> None:
    """``got`` matches the fixture text ``want``: the same text between the
    numbers, and each number within 1e-12 of the largest finite magnitude in
    its field of ``want``, or of ``floor`` where that is larger on a line of
    ``stdout.txt`` that reports rounding noise (``ROUNDING_LINES``)."""
    assert NUMBER.split(got) == NUMBER.split(want), f"{what}: text differs"
    got_fields, want_fields = numbers_by_field(got, what), numbers_by_field(want, what)
    assert got_fields.keys() == want_fields.keys(), f"{what}: fields differ"
    for field, want_nums in want_fields.items():
        scale = max((abs(x) for x in want_nums if math.isfinite(x)), default=0.0)
        if what == "stdout.txt" and want.splitlines()[field].startswith(ROUNDING_LINES):
            scale = max(scale, floor)
        assert len(got_fields[field]) == len(want_nums), f"{what}: {field}: number count differs"
        np.testing.assert_allclose(got_fields[field], want_nums, rtol=0,
                                   atol=REL_TOL * scale, err_msg=f"{what}: {field}")


def data_scale(argv: list, workdir: Path) -> float:
    """The largest singular value in the ``--data`` file of ``argv`` from ``workdir``, or 0."""
    if "--data" not in argv:
        return 0.0
    data = json.loads(Path(workdir, argv[argv.index("--data") + 1]).read_text())
    return max(abs(triple["s"]) for triple in data["triples"])


def run_case(argv: list, workdir: Path, command: list | None = None) -> str:
    """Run the CLI on ``argv`` from ``workdir``: ``main`` in-process, or the
    subprocess ``[*command, *argv]``. Asserts exit 0; returns the stdout."""
    if command:
        done = subprocess.run([*command, *argv], cwd=workdir, stdout=subprocess.PIPE, text=True)
        code, stdout = done.returncode, done.stdout
    else:
        cwd, out = os.getcwd(), io.StringIO()
        try:
            os.chdir(workdir)
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(cwd)
        stdout = out.getvalue()
    assert code == 0, f"{argv[0]} exited {code}, not 0"
    return stdout


def case_texts(argv: list, stdout: str, directory: Path) -> dict:
    """The texts a run of ``argv`` is compared on, by their paths in a case
    directory: ``stdout.txt`` (``stdout``), then the manifest under
    ``directory`` and every output it lists. A JSON text holding NaN or Infinity fails."""
    manifest = f"out/{argv[0]}-manifest.json"
    texts = {"stdout.txt": stdout, manifest: (directory / manifest).read_text()}
    texts |= {path: (directory / path).read_text()
              for path in json.loads(texts[manifest])["outputs"].values()}
    for path, text in texts.items():
        if path.endswith(".json"):
            json.loads(text, parse_constant=lambda token: pytest.fail(f"{path} holds {token}"))
    return texts


def check_case(case: str, workdir: Path, command: list | None = None) -> None:
    """Run the golden ``case`` from ``workdir`` on a copy of the inputs, through
    ``command`` if given, and compare each of its texts with the fixture's."""
    argv = json.loads((GOLDEN / case / "argv.json").read_text())
    shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
    got = case_texts(argv, run_case(argv, workdir, command), workdir)
    want = case_texts(argv, (GOLDEN / case / "stdout.txt").read_text(), GOLDEN / case)
    for path, text in want.items():  # the manifest, which names the outputs, comes first
        assert_matches(got[path], text, path, data_scale(argv, workdir))


def test_golden_cases_present():
    assert len(CASES) == 9


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path):
    check_case(case, tmp_path)


def test_golden_through_a_console_command(tmp_path, monkeypatch):
    # the branch CI's console step takes, with the module for the installed script
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).parents[1] / "src"))
    check_case("recover-true-symbol", tmp_path, [sys.executable, "-m", "muhankel.cli"])


def test_case_texts_refuse_a_json_output_holding_nan(tmp_path):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "index-manifest.json").write_text('{"outputs": {"r": "out/index.json"}}')
    (tmp_path / "out" / "index.json").write_text('{"winding_number": NaN}')
    with pytest.raises(pytest.fail.Exception, match="out/index.json holds NaN"):
        case_texts(["index"], "", tmp_path)


def _load_make_golden(tmp_path, monkeypatch):
    """A copy of tests/golden/ and its own fixture script, which writes into the copy."""
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy, ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts its parent on the path
    spec = importlib.util.spec_from_file_location("make_golden_copy", copy / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    return copy, make_golden


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts}


def test_make_golden_rewrites_the_inputs(tmp_path, monkeypatch):
    # the fixture script runs only when fixtures are regenerated; this keeps
    # its imports and its generators' draw order from drifting in between
    _, make_golden = _load_make_golden(tmp_path, monkeypatch)
    make_golden.write_inputs(new := tmp_path / "inputs")
    assert sorted(p.name for p in new.iterdir()) == sorted(p.name for p in GOLDEN.glob("inputs/*"))
    for path in GOLDEN.glob("inputs/*"):
        assert_matches((new / path.name).read_text(), path.read_text(), path.name)


def test_make_golden_case_rewrites_only_that_case(tmp_path, monkeypatch):
    copy, make_golden = _load_make_golden(tmp_path, monkeypatch)
    shutil.rmtree(copy / "index-dense" / "out")
    (copy / "index-dense" / "stdout.txt").unlink()
    make_golden.main_generate(["index-dense"])
    files, want = _files(copy), _files(GOLDEN)
    assert files.keys() == want.keys()
    for path in files:
        if path.parts[0] != "index-dense" or path.name == "argv.json":
            assert files[path] == want[path], path
    with pytest.raises(SystemExit, match="unknown cases"):
        make_golden.main_generate(["index-dense", "no-such-case"])


def test_make_golden_with_no_case_rewrites_no_file_that_matches(tmp_path, monkeypatch):
    # eight fixtures moved in their last digits and were rewritten on every run
    copy, make_golden = _load_make_golden(tmp_path, monkeypatch)
    make_golden.main_generate([])
    assert _files(copy) == _files(GOLDEN)


def test_golden_check_scales_each_number_by_its_field():
    # The spectrum fixture's smallest retained singular value (0.2935) moved
    # by 1e-10 of itself: 1e-12 of the file's largest number (69.2) hides the
    # move, 1e-12 of the largest singular value (5.31) does not. The values
    # after it are rounding noise near 1e-17, whose 1e-10 moves no check sees.
    want = (GOLDEN / "spectrum" / "out" / "spectrum.json").read_text()
    payload = json.loads(want)
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == want
    values = payload["singular_values"]
    values[retained_count(np.array(values), ZERO_REL_TOL) - 1] *= 1 + 1e-10
    got = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    file_scale = max(abs(float(x)) for x in NUMBER.findall(want))
    np.testing.assert_allclose(  # the check scaled per file passes it
        [float(x) for x in NUMBER.findall(got)], [float(x) for x in NUMBER.findall(want)],
        rtol=0, atol=REL_TOL * file_scale)
    with pytest.raises(AssertionError, match="'singular_values'"):
        assert_matches(got, want, "spectrum.json")
