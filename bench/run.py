"""Benchmark of the muhankel toolkit, driven in-process through its CLI.

    python3 bench/run.py --workload dense-su2 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from the root of a source checkout; the library is imported from
``src/``. Each run builds the workload's inputs from ``--seed``, times the
five steps of ``workloads.STEPS`` pass after pass for ``--seconds`` and checks
every output against a reference computed outside the timed region.

``--trace 0`` reports the end-to-end metrics: the median time of each step,
the set-up time (median of seven fresh processes) and the peak RSS of a fresh
process that sets up and runs one pass. Times are in reference seconds: each
is scaled by the host's speed, measured next to it with a fixed kernel (see
``calibrate.py``). ``--trace 1`` alternates untraced and traced passes, the
traced ones with spans recorded around the library's functions (see
``tracer.py``), and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 7
CHILD_TIMEOUT_S = 150

# One BLAS thread: on a small shared machine a second BLAS thread waits on
# whatever else holds the other core, which made step times spread by a
# quarter between runs, and it did not speed up the N=861 SVDs. Set before
# numpy is imported here or in a set-up process, which inherits it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="dense-su2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check the tracer's span bookkeeping and exit")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rss-pass", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    return args


def setup_child(args) -> int:
    """Fresh process: time import, enumeration, symbol build and symbol JSON
    writes; with --rss-pass run one untimed pass; report peak RSS."""
    start = time.perf_counter()
    import workloads as wl  # imports numpy and muhankel

    inp = wl.set_up(wl.WORKLOADS[args.workload], args.seed, Path(args.out))
    setup_s = time.perf_counter() - start
    import calibrate

    kernel_s = calibrate.setup_kernel_s()
    codes = [wl.run_step(step, inp)[0] for step in wl.STEPS] if args.rss_pass else []
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"setup_s": setup_s, "kernel_s": kernel_s, "peak_rss_mb": peak_mb,
                      "exit_codes": codes}))
    return 0


def spawn_setup(args, out: Path, rss_pass: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--out", str(out)]
    if rss_pass:
        cmd.append("--rss-pass")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when unknown."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """Commit of the checkout read from .git, or "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(np),
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Ledger:
    """Attempted and failed operations, and each step's times."""

    def __init__(self, steps):
        self.samples = {step: [] for step in steps}
        self.traced = {step: [] for step in steps}
        self.attempted = 0
        self.failures: list[str] = []


def run_pass(wl, inp, refs, ledger: Ledger, samples: dict, tracer=None,
             write=None, calibrator=None, steps=None) -> None:
    """The workload's pass schedule, or ``steps``, each run checked after its
    timer stops; its time is appended to ``samples[step]``. With a
    calibrator, the kernel runs before each step, and the calibrator records
    each step's time."""
    for step in steps or inp.workload.pass_steps:
        inp.output(step).unlink(missing_ok=True)
        if calibrator is not None:
            calibrator.measure()
        start = time.perf_counter()
        try:
            if tracer is None:
                code, err, result = wl.run_step(step, inp)
            else:
                with tracer.span(f"step.{step}"):
                    code, err, result = wl.run_step(step, inp, write)
        except Exception:  # a step that raises counts as a failed operation
            code, err, result = -1, traceback.format_exc(), None
        seconds = time.perf_counter() - start
        samples[step].append(seconds)
        if calibrator is not None:
            calibrator.record(step, start, seconds)
        ledger.attempted += 1
        try:
            problem = (wl.check_step(step, inp, refs, code, result) if code != -1
                       else "raised")
        except Exception as exc:  # missing or malformed output
            problem = f"output check raised {exc!r}"
        if problem is not None:
            ledger.failures.append(f"{step}: {problem} {err.strip()[-300:]}")


def until(deadline: float):
    """Yields pass numbers until ``deadline``; a pass is not started when
    half of the last one would not fit before it."""
    n, last = 0, 0.0
    while n == 0 or time.perf_counter() + last / 2 < deadline:
        start = time.perf_counter()
        yield n
        last = time.perf_counter() - start
        n += 1


def require_untraced(tr, mh, np) -> None:
    left = tr.find_traced(mh, np)
    if left:
        raise RuntimeError(f"tracer wrappers installed before a timed run: {left}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(samples):
    """Highest whole percentile with at least ten samples above it, as
    (percentile, value); None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    k = n - 10  # ten samples lie above the k-th smallest
    return int(100 * k // n), ordered[k - 1]


def end_to_end(ledger: Ledger, calibrator, setups: list[dict]) -> tuple[dict, list]:
    """Rows of (name, unit, calibrated samples, measured samples)."""
    import calibrate

    rows = [("setup_s", "s", [c["setup_s"] * calibrate.REF_S / c["kernel_s"] for c in setups],
             [c["setup_s"] for c in setups])]
    calibrated = calibrator.reference_samples()
    rows += [(f"{step}_s", "s", calibrated[step], ledger.samples[step])
             for step in ledger.samples]
    rows.append(("peak_rss_mb", "MB", [setups[0]["peak_rss_mb"]], None))
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, unit, values, _ in rows}
    return metrics, rows


def per_layer(tr, wl, inp, tracer, setup_span, marks, overhead) -> tuple[dict, list]:
    """Per-layer metrics: sizes of the spectral instance, enumeration from the
    traced set-up, everything else the median over traced passes."""
    rounds = [tracer.spans[a:b] for a, b in marks]
    self_s = [tr.self_times(spans) for spans in rounds]
    tot = [tr.totals(spans) for spans in rounds]
    setup_spans = [s for s in tracer.spans[: marks[0][0]]
                   if s is setup_span or _under(s, setup_span)]
    setup_self = tr.self_times(setup_spans)

    def med(fn):
        return statistics.median(fn(st, tt) for st, tt in zip(self_s, tot))

    def s(name):
        return med(lambda st, tt: st.get(name, 0.0))

    def agg(name, key):
        return med(lambda st, tt: tt.get(name, {}).get(key, 0))

    def frac(st, tt):
        entry = tt.get("recovery.attribute_triples", {})
        return entry.get("attributed", 0) / entry["triples"] if entry.get("triples") else 0.0

    symbol = inp.symbols[inp.workload.spectral]
    components, largest = wl.support_components(symbol)
    values = {
        "duals.enumerate_dual.s": ("s", setup_self.get("duals.enumerate_dual", 0.0)),
        "duals.labels": ("count", len(symbol.codomain)),
        "duals.dense_dim": ("count", symbol.codomain.dense_dim),
        "symbols.Symbol.from_dict.s": ("s", s("symbols.Symbol.from_dict")),
        "symbols.class_norm.s": ("s", s("symbols.class_norm")),
        "symbols.hs_norm.s": ("s", s("symbols.hs_norm")),
        "symbols.symbol_difference.s": ("s", s("symbols.symbol_difference")),
        "symbols.blocks": ("count", len(symbol.blocks)),
        "symbols.support_components": ("count", components),
        "symbols.largest_component_dim": ("count", largest),
        "operators.assemble.s": ("s", s("operators.assemble")),
        "operators.assemble.calls": ("count", agg("operators.assemble", "calls")),
        "operators.to_dense.s": ("s", s("operators.to_dense")),
        "operators.to_dense.calls": ("count", agg("operators.to_dense", "calls")),
        "operators.to_dense.bytes": ("B", agg("operators.to_dense", "bytes")),
        "spectral.spectrum.s": ("s", s("spectral.spectrum")),
        "spectral.spectrum.calls": ("count", agg("spectral.spectrum", "calls")),
        "spectral.schur_bound.s": ("s", s("spectral.schur_bound")),
        "spectral.norm_equivalence_check.s": ("s", s("spectral.norm_equivalence_check")),
        "spectral.compactness_report.s": ("s", s("spectral.compactness_report")),
        "fredholm.index_formula.s": ("s", s("fredholm.index_formula")),
        "fredholm.numerical_index.s": ("s", s("fredholm.numerical_index")),
        "recovery.forward.s": ("s", s("recovery.forward")),
        "recovery.attribute_triples.s": ("s", s("recovery.attribute_triples")),
        "recovery.attribute_triples.calls": ("count", agg("recovery.attribute_triples", "calls")),
        "recovery.triples": ("count", agg("recovery.attribute_triples", "triples")),
        "recovery.attributed_frac": ("frac", med(frac)),
        "recovery.SpectralData.validate.s": ("s", s("recovery.SpectralData.validate")),
        "recovery.SpectralData.to_dict.s": ("s", s("recovery.SpectralData.to_dict")),
        "recovery.SpectralData.from_dict.s": ("s", s("recovery.SpectralData.from_dict")),
        "recovery.tikhonov_recover.s": ("s", s("recovery.tikhonov_recover")),
        "recovery.tikhonov_recover.calls": ("count", agg("recovery.tikhonov_recover", "calls")),
        "recovery.perturb_spectral_data.s": ("s", s("recovery.perturb_spectral_data")),
        "linalg.svd.calls": ("count", agg("linalg.svd", "calls")),
        "linalg.svd.s": ("s", s("linalg.svd")),
        "linalg.svd.max_dim": ("count", agg("linalg.svd", "max_dim")),
        "linalg.svd.work": ("count", agg("linalg.svd", "work")),
        "linalg.qr.calls": ("count", agg("linalg.qr", "calls")),
        "linalg.qr.s": ("s", s("linalg.qr")),
        "cli.json.read.s": ("s", s("cli.json.read")),
        "cli.json.read_bytes": ("B", agg("cli.json.read", "bytes")),
        "cli.json.write.s": ("s", s("cli.json.write")),
        "cli.json.write_bytes": ("B", agg("cli.json.write", "bytes")),
        "cli.main.s": ("s", agg("cli.main", "total_s")),
        "trace.overhead_frac": ("frac", overhead),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (unit, v) in values.items()}
    names = set().union(*self_s)
    layers = sorted(((statistics.median(st.get(n, 0.0) for st in self_s), n) for n in names),
                    reverse=True)
    return metrics, layers


def _under(span, root) -> bool:
    while span.parent is not None:
        span = span.parent
        if span is root:
            return True
    return False


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def benchmark(args, work: Path) -> dict:
    import numpy as np

    import muhankel as mh
    import tracer as tr
    import workloads as wl
    import calibrate

    if not Path(mh.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"muhankel imported from {mh.__file__}, not from {SRC}")
    if args.workload not in wl.WORKLOADS:
        raise RuntimeError(f"unknown workload {args.workload!r}; "
                           f"choose from {sorted(wl.WORKLOADS)}")
    problems = tr.self_test()
    if problems:
        raise RuntimeError(f"tracer self-test failed: {problems}")
    workload = wl.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("env " + json.dumps(environment(np), sort_keys=True))

    ledger = Ledger(wl.STEPS)
    setups = []
    if not args.trace:
        setups = [spawn_setup(args, work / f"setup{i}", rss_pass=(i == 0))
                  for i in range(SETUP_PROCESSES)]
        for step, code in zip(wl.STEPS, setups[0]["exit_codes"]):
            ledger.attempted += 1
            if code != 0:
                ledger.failures.append(f"{step}: exit code {code} in the peak-RSS process")

    inp = wl.set_up(workload, args.seed, work / "main")
    refs = wl.references(inp)
    deadline = time.perf_counter() + args.seconds
    # The first run of a short step in a process is up to 40% slower (cold
    # caches, first-call set-up); one run of each step is checked but not timed.
    run_pass(wl, inp, refs, ledger, {step: [] for step in wl.STEPS}, steps=wl.STEPS)
    if not args.trace:
        for _ in range(3):  # warm-up of the kernel too
            calibrate.kernel_s()
        calibrator = calibrate.Calibrator()
        for _ in until(deadline):
            require_untraced(tr, mh, np)
            run_pass(wl, inp, refs, ledger, ledger.samples, calibrator=calibrator)
        calibrator.measure()
        metrics, rows = end_to_end(ledger, calibrator, setups)
        kernel = calibrator.kernel_times()
        print(f"  calibration kernel: median {statistics.median(kernel):.6g} s over "
              f"n={len(kernel)}, min {min(kernel):.6g}, max {max(kernel):.6g}; "
              f"reference {calibrate.REF_S} s")
        for name, unit, values, raw in rows:
            tail = tail_percentile(values)
            tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no percentile with 10 above"
            raw_text = f"; measured {statistics.median(raw):.6g} s" if raw else ""
            print(f"  {name:<14} {statistics.median(values):>12.6g} {unit:<3} "
                  f"median of n={len(values)}; {tail_text}{raw_text}")
    else:
        # Untraced and traced passes alternate, in turn first, so that both
        # sides of the overhead see the same machine speed and pass order.
        tracer = tr.Tracer()

        @contextlib.contextmanager
        def installed():
            tr.instrument(tracer, mh, np)
            try:
                yield
            finally:
                tracer.restore()

        with installed(), tracer.span("setup") as setup_span:
            wl.set_up(workload, args.seed, work / "main",
                      tracer.traced(wl.write_json, "setup.json.write"))
        write = tracer.traced(wl.write_json, "cli.json.write", tr.count_written)
        marks = []

        def untraced_pass():
            require_untraced(tr, mh, np)
            run_pass(wl, inp, refs, ledger, ledger.samples)

        def traced_pass():
            with installed():
                start = len(tracer.spans)
                run_pass(wl, inp, refs, ledger, ledger.traced, tracer, write)
                marks.append((start, len(tracer.spans)))

        for n in until(deadline):
            for one_pass in ((untraced_pass, traced_pass) if n % 2 == 0
                             else (traced_pass, untraced_pass)):
                one_pass()
        require_untraced(tr, mh, np)

        def cli_s(samples):  # per pass, from each command's median run
            return sum(statistics.median(samples[step])
                       for step in workload.pass_steps if step != "forward")

        overhead = (cli_s(ledger.traced) - cli_s(ledger.samples)) / cli_s(ledger.samples)
        metrics, layers = per_layer(tr, wl, inp, tracer, setup_span, marks, overhead)
        total = sum(v for v, _ in layers)
        print(f"  self time of the median traced pass ({len(marks)} traced, "
              f"{len(marks)} untraced passes), largest first:")
        for v, name in layers[:12]:
            print(f"    {name:<36} {v:10.4f} s {100 * v / total:5.1f}%")
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
        if tracer.missing:
            print(f"  not in the library, so not traced: {sorted(tracer.missing)}")

    failed = len(ledger.failures)
    for line in ledger.failures[:20]:
        print(f"  FAILED {line}")
    print(f"  failed_frac {failed / ledger.attempted:.6g} "
          f"({failed} of {ledger.attempted} operations)")
    return {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "muhankel" / "__init__.py").is_file():
        print(f"bench: no library source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)
    if args.self_test:
        import numpy as np

        import muhankel as mh
        import muhankel.cli  # noqa: F401
        import tracer as tr

        problems = tr.self_test(mh, np)
        for p in problems:
            print(f"self-test FAILED: {p}")
        print("self-test ok" if not problems else "self-test failed")
        return 1 if problems else 0
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result = benchmark(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
