"""The benchmark's tracer (bench/tracer.py) wraps library methods by name at
run time. A renamed method is not an error there: it is only listed as not
traced, and its per-layer metric reads 0. This test makes such a rename fail
the suite instead, and so does a change to forward's zero cut that the
benchmark's forward check does not follow."""

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


def test_benchmark_forward_check_uses_the_librarys_cut():
    # bench/workloads.py restates forward's relative cut for its triple count;
    # a change to the library's cut must not leave the benchmark on the old one
    assert load_bench("workloads").FORWARD_ZERO_TOL == mh.operators.ZERO_REL_TOL
