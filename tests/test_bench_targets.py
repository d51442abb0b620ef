"""The benchmark's tracer (bench/tracer.py) wraps library methods by name at
run time. A renamed method is not an error there: it is only listed as not
traced, and its per-layer metric reads 0. This test makes such a rename fail
the suite instead, and so does a change to forward's zero cut that the
benchmark's forward check does not follow. A library name the benchmark
reads directly fails here too, not only in a benchmark run."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np

import muhankel as mh
import muhankel.cli  # noqa: F401  (the tracer wraps the CLI's JSON I/O)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench("tracer")


def test_benchmark_tracer_finds_every_target():
    tr = load_tracer()
    tracer = tr.Tracer()
    tr.instrument(tracer, mh, np)
    try:
        assert tracer.missing == set()
        assert tr.find_traced(mh, np)
    finally:
        tracer.restore()
    assert tr.find_traced(mh, np) == []


def test_benchmark_write_count_reads_the_written_files_path(tmp_path):
    # count_written takes args[0] of cli._write_json as the file's path; only
    # traced benchmark runs call it otherwise
    tr = load_tracer()
    tracer = tr.Tracer()
    tr.instrument(tracer, mh, np)
    try:
        mh.cli._write_json(tmp_path / "out.json", {"a": [1.5]})
    finally:
        tracer.restore()
    written = tr.totals(tracer.spans)["cli.json.write"]
    assert written["calls"] == 1
    assert written["bytes"] == (tmp_path / "out.json").stat().st_size


def test_benchmark_forward_check_uses_the_librarys_cut():
    # bench/workloads.py restates forward's relative cut for its triple count;
    # a change to the library's cut must not leave the benchmark on the old one
    assert load_bench("workloads").FORWARD_ZERO_TOL == mh.operators.ZERO_REL_TOL


def mh_chains(tree):
    """Each outermost ``mh.<name>[.<name>...]`` attribute chain in ``tree``, as
    its list of names after ``mh``."""
    inner, chains = set(), []
    for node in ast.walk(tree):
        names, value = [], node
        while isinstance(value, ast.Attribute):
            names.append(value.attr)
            value = value.value
        if names and isinstance(value, ast.Name) and value.id == "mh" and node not in inner:
            chains.append(names[::-1])
            inner.update(n for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return chains


def test_benchmark_reads_only_names_the_library_has():
    missing, chains = [], 0
    for path in sorted(BENCH.glob("*.py")):
        for names in mh_chains(ast.parse(path.read_text(), str(path))):
            chains += 1
            target = mh
            for name in names:
                if not hasattr(target, name):
                    missing.append(f"{path.name}: mh.{'.'.join(names)}")
                    break
                target = getattr(target, name)
    assert chains and missing == []
    # the forward check reads these of forward's result
    assert hasattr(mh.recovery.SpectralData, "triples")
    assert hasattr(mh.recovery.SpectralData, "fully_attributed")
