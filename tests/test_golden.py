"""Golden CLI outputs: every case under tests/golden/ is rerun and its
manifest, each file the manifest lists under ``outputs`` and its stdout
must match the fixture. Numbers agree to 1e-12 relative to the largest magnitude in the
fixture file; all other text matches exactly. The fixtures and the script
that writes them (tests/golden/make_golden.py) are regenerated only on a
parent commit, or in a commit that declares an output change and does
nothing else (see that script's docstring)."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from muhankel.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv.json").is_file())
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
REL_TOL = 1e-12


def assert_matches(got: str, want: str, what: str) -> None:
    assert NUMBER.split(got) == NUMBER.split(want), f"{what}: text differs"
    got_nums = [float(x) for x in NUMBER.findall(got)]
    want_nums = [float(x) for x in NUMBER.findall(want)]
    assert len(got_nums) == len(want_nums), f"{what}: number count differs"
    scale = max((abs(x) for x in want_nums), default=0.0)
    np.testing.assert_allclose(
        got_nums, want_nums, rtol=0, atol=REL_TOL * scale, err_msg=what
    )


def test_golden_cases_present():
    assert len(CASES) == 8


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path, monkeypatch, capsys):
    fixture = GOLDEN / case
    argv = json.loads((fixture / "argv.json").read_text())
    shutil.copytree(GOLDEN / "inputs", tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert_matches(capsys.readouterr().out, (fixture / "stdout.txt").read_text(), "stdout")

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
