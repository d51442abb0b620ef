"""The benchmark's tracer (bench/tracer.py) wraps library methods by name at
run time. A renamed method is not an error there: it is only listed as not
traced, and its per-layer metric reads 0. This test makes such a rename fail
the suite instead."""

import importlib.util
from pathlib import Path

import numpy as np

import muhankel as mh
import muhankel.cli  # noqa: F401  (the tracer wraps the CLI's JSON I/O)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
