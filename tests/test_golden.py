"""Golden CLI outputs: every case under tests/golden/ is rerun and its
manifest, each file the manifest lists under ``outputs`` and its stdout
must match the fixture. All text other than numbers matches exactly. Each
number agrees to 1e-12 relative to the largest magnitude in its field of the
fixture: a JSON key path with the list indices dropped, a CSV column, or a
line of stdout. The stdout lines that report rounding-level differences take
at least the data's largest singular value as their scale. The fixtures and
the script that writes them (tests/golden/make_golden.py) are regenerated
only on a parent commit, or in a commit that declares an output change and
does nothing else (see that script's docstring)."""

import csv
import importlib.util
import io
import json
import math
import re
import shutil
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


def assert_matches(got: str, want: str, what: str, floors: dict | None = None) -> None:
    """``got`` matches the fixture text ``want``: the same text between the
    numbers, and each number within 1e-12 of the largest finite magnitude in
    its field of ``want``, or of ``floors[field]`` where that is larger."""
    assert NUMBER.split(got) == NUMBER.split(want), f"{what}: text differs"
    got_fields, want_fields = numbers_by_field(got, what), numbers_by_field(want, what)
    assert got_fields.keys() == want_fields.keys(), f"{what}: fields differ"
    for field, want_nums in want_fields.items():
        scale = max((abs(x) for x in want_nums if math.isfinite(x)), default=0.0)
        scale = max(scale, (floors or {}).get(field, 0.0))
        assert len(got_fields[field]) == len(want_nums), f"{what}: {field}: number count differs"
        np.testing.assert_allclose(got_fields[field], want_nums, rtol=0,
                                   atol=REL_TOL * scale, err_msg=f"{what}: {field}")


def data_scale(argv: list) -> float:
    """The largest singular value in the ``--data`` file of ``argv``; 0 without one."""
    if "--data" not in argv:
        return 0.0
    data = json.loads(Path(argv[argv.index("--data") + 1]).read_text())
    return max(abs(triple["s"]) for triple in data["triples"])


def test_golden_cases_present():
    assert len(CASES) == 9


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path, monkeypatch, capsys):
    fixture = GOLDEN / case
    argv = json.loads((fixture / "argv.json").read_text())
    shutil.copytree(GOLDEN / "inputs", tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    want = (fixture / "stdout.txt").read_text()
    floors = {line: data_scale(argv) for line, content in enumerate(want.splitlines())
              if content.startswith(ROUNDING_LINES)}
    assert_matches(capsys.readouterr().out, want, "stdout", floors)

    manifest = f"out/{argv[0]}-manifest.json"
    want = (fixture / manifest).read_text()
    assert_matches((tmp_path / manifest).read_text(), want, manifest)
    for path in json.loads(want)["outputs"].values():
        assert_matches(
            (tmp_path / path).read_text(), (fixture / path).read_text(), path
        )


def test_make_golden_rewrites_the_inputs(tmp_path):
    # the fixture script runs only when fixtures are regenerated; this keeps
    # its imports and its generators' draw order from drifting in between
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.write_inputs(tmp_path / "inputs")
    want = sorted(p.name for p in (GOLDEN / "inputs").iterdir())
    assert sorted(p.name for p in (tmp_path / "inputs").iterdir()) == want
    for name in want:
        assert_matches(
            (tmp_path / "inputs" / name).read_text(),
            (GOLDEN / "inputs" / name).read_text(), name,
        )


def test_make_golden_case_rewrites_only_that_case(tmp_path, monkeypatch):
    # a copy of the fixtures, whose own script writes into the copy
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.rmtree(copy / "index-dense")
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts its parent on the path
    spec = importlib.util.spec_from_file_location("make_golden_copy", copy / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.main_generate(["index-dense"])
    files = {p.relative_to(copy) for p in copy.rglob("*") if p.is_file()}
    assert files == {p.relative_to(GOLDEN) for p in GOLDEN.rglob("*")
                     if p.is_file() and "__pycache__" not in p.parts}
    for path in files:
        if path.parts[0] != "index-dense":
            assert (copy / path).read_bytes() == (GOLDEN / path).read_bytes(), path
    with pytest.raises(SystemExit, match="unknown cases"):
        make_golden.main_generate(["index-dense", "no-such-case"])


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
