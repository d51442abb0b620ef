"""Outside-in span tracer for the benchmark.

The tracer wraps callables of the library at run time, without editing the
library: module functions (under every name a module binds them to, such as
the ``muhankel.cli`` import aliases), methods and classmethods, and the numpy
kernels ``np.linalg.svd`` and ``np.linalg.qr``. Each call becomes a span with
a name, a start, an end and a parent; a span's self time is its duration
minus the durations of its children. Spans stay in memory.

``restore`` puts every original object back, and ``find_traced`` scans the
same places for leftover wrappers, so the benchmark can show that no wrapper
is installed while it times the untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MARK = "__bench_traced__"

# Per-label helpers called once per block or label; a span around each call
# would cost more than the call, so they stay inside their callers' self time.
SKIP_FUNCTIONS = {"dim", "casimir", "weight_eval"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()  # targets the library no longer has

    @contextmanager
    def span(self, name: str):
        s = Span(name, self.clock(), self._open[-1] if self._open else None)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._open.pop()

    def traced(self, fn, name: str, count=None):
        """Wrapper of ``fn`` that records one span per call; ``count`` may add
        counts to the span from the call's arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(s.counts, args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_function(self, namespaces, fn, name: str, count=None) -> None:
        """Wrap ``fn`` under every name any of ``namespaces`` binds it to."""
        wrapper = self.traced(fn, name, count)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self.patch(ns, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, name: str, count=None) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.add(name)
        elif isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.traced(raw.__func__, name, count)))
        else:
            self.patch(cls, attr, self.traced(raw, name, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _raw(owner, attr: str):
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the summed child durations."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - child[id(s)]
    return dict(out)


def totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, and summed (``max_`` keys:
    maximal) counts."""
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.duration
        for key, value in s.counts.items():
            if key.startswith("max_"):
                agg[key] = max(agg.get(key, value), value)
            else:
                agg[key] = agg.get(key, 0) + value
    return out


# ---------------------------------------------------------------------------
# Instrumentation of muhankel and numpy
# ---------------------------------------------------------------------------

def _count_factorization(counts, args, result) -> None:
    shape = args[0].shape
    m, n = shape[-2], shape[-1]
    batch = 1
    for k in shape[:-2]:
        batch *= k
    counts["work"] = batch * m * n * min(m, n)
    counts["max_dim"] = max(m, n)


def _count_dense(counts, args, result) -> None:
    counts["bytes"] = result.size * result.itemsize


def _count_attribution(counts, args, result) -> None:
    counts["triples"] = len(result)
    counts["attributed"] = sum(1 for key in result if key is not None)


def count_written(counts, args, result) -> None:
    counts["bytes"] = Path(args[0]).stat().st_size


def _count_read(counts, args, result) -> None:
    counts["bytes"] = len(args[0])


def library_modules(mh) -> list:
    return [mh.duals, mh.symbols, mh.operators, mh.spectral, mh.fredholm,
            mh.recovery, mh.cli]


def _scan_targets(mh, np):
    modules = library_modules(mh)
    classes = [
        obj for m in modules for obj in vars(m).values()
        if isinstance(obj, type) and obj.__module__ == m.__name__
    ]
    return [mh, *modules, *classes, np.linalg, getattr(mh.cli, "json", json)]


def instrument(tracer: Tracer, mh, np) -> None:
    """Wrap the library's public functions and hot methods, its JSON reads
    and writes, and numpy's SVD and QR."""
    modules = library_modules(mh)
    namespaces = [mh, *modules]
    counters = {"attribute_triples": _count_attribution}
    for m in modules:
        short = m.__name__.rsplit(".", 1)[-1]
        for attr, fn in list(vars(m).items()):
            if (inspect.isfunction(fn) and fn.__module__ == m.__name__
                    and not attr.startswith("_") and attr not in SKIP_FUNCTIONS):
                tracer.wrap_function(namespaces, fn, f"{short}.{attr}",
                                     counters.get(attr))
    tracer.wrap_method(mh.operators.BlockOperator, "to_dense", "operators.to_dense",
                       _count_dense)
    tracer.wrap_method(mh.symbols.Symbol, "from_dict", "symbols.Symbol.from_dict")
    tracer.wrap_method(mh.symbols.Symbol, "to_dict", "symbols.Symbol.to_dict")
    tracer.wrap_method(mh.duals.DualCatalog, "from_dict", "duals.DualCatalog.from_dict")
    spectral_data = mh.recovery.SpectralData
    tracer.wrap_method(spectral_data, "__post_init__", "recovery.SpectralData.validate")
    tracer.wrap_method(spectral_data, "to_dict", "recovery.SpectralData.to_dict")
    tracer.wrap_method(spectral_data, "from_dict", "recovery.SpectralData.from_dict")
    if hasattr(mh.cli, "_write_json"):
        tracer.wrap_function([mh.cli], mh.cli._write_json, "cli.json.write", count_written)
    else:
        tracer.missing.add("cli.json.write")
    if getattr(mh.cli, "json", None) is json:
        proxy = types.SimpleNamespace(**{k: v for k, v in vars(json).items()
                                         if not k.startswith("__")})
        proxy.loads = tracer.traced(json.loads, "cli.json.read", _count_read)
        tracer.patch(mh.cli, "json", proxy)
    else:
        tracer.missing.add("cli.json.read")
    tracer.patch(np.linalg, "svd", tracer.traced(np.linalg.svd, "linalg.svd",
                                                 _count_factorization))
    tracer.patch(np.linalg, "qr", tracer.traced(np.linalg.qr, "linalg.qr",
                                                _count_factorization))


def find_traced(mh, np) -> list[str]:
    """Names still bound to a tracer wrapper; empty once ``restore`` ran."""
    found = []
    for target in _scan_targets(mh, np):
        if not isinstance(target, (types.ModuleType, type)):
            found.append(f"{type(target).__name__} in place of a module")
            continue
        for attr, value in list(vars(target).items()):
            inner = value.__func__ if isinstance(value, classmethod) else value
            if getattr(inner, MARK, False) is True:
                found.append(f"{getattr(target, '__name__', target)}.{attr}")
    return found


# ---------------------------------------------------------------------------
# Self-test of the bookkeeping
# ---------------------------------------------------------------------------

def self_test(mh=None, np=None) -> list[str]:
    """Check self-time arithmetic on a scripted clock, and that wrap and
    restore leave every original in place. Returns the failures found."""
    problems = []
    ticks = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    got = self_times(tracer.spans)
    want = {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0}
    if got != want:
        problems.append(f"self times {got} != {want}")
    by_name = {s.name: s for s in tracer.spans}
    if by_name["c"].parent is not by_name["b"] or by_name["root"].parent is not None:
        problems.append("span parents recorded wrongly")

    # a module calling its own function through its namespace, an alias of
    # that function elsewhere, a method and a classmethod
    mod = types.ModuleType("fake_layer")
    alias = types.ModuleType("fake_alias")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n", vars(mod))
    alias.inner = mod.inner

    class Box:
        def get(self):
            return mod.outer(1)

        @classmethod
        def make(cls):
            return cls()

    originals = (mod.inner, mod.outer, Box.__dict__["get"], Box.__dict__["make"])
    tracer = Tracer()
    tracer.wrap_function([mod, alias], mod.inner, "fake.inner")
    tracer.wrap_function([mod, alias], mod.outer, "fake.outer")
    tracer.wrap_method(Box, "get", "fake.Box.get")
    tracer.wrap_method(Box, "make", "fake.Box.make")
    if Box.make().get() != 4 or alias.inner(1) != 2:
        problems.append("wrapped calls changed their results")
    names = [(s.name, s.parent.name if s.parent else None) for s in tracer.spans]
    want_names = [("fake.Box.make", None), ("fake.Box.get", None),
                  ("fake.outer", "fake.Box.get"), ("fake.inner", "fake.outer"),
                  ("fake.inner", None)]
    if names != want_names:
        problems.append(f"spans {names} != {want_names}")
    tracer.restore()
    after = (mod.inner, mod.outer, Box.__dict__["get"], Box.__dict__["make"])
    if any(a is not b for a, b in zip(after, originals)) or alias.inner is not originals[0]:
        problems.append("restore left a wrapper in the fake module")

    if mh is not None:
        tracer = Tracer()
        instrument(tracer, mh, np)
        if not find_traced(mh, np):
            problems.append("instrument installed no wrapper the scan can see")
        tracer.restore()
        left = find_traced(mh, np)
        if left:
            problems.append(f"wrappers left after restore: {left}")
    return problems
