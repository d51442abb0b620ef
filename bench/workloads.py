"""Workloads of the benchmark: inputs made from a seed, the five timed steps,
and the reference check each step's output must pass.

Every workload runs the same five steps on every pass, as often and in the
order its ``schedule`` gives:

* ``spectrum``  - ``muhankel spectrum --mu 0.5 --nu -0.5 --m 2 --n 2`` on the
  spectral instance;
* ``index``     - ``muhankel index --mu 0.5 --nu -0.5`` on the spectral instance;
* ``forward``   - ``forward(assemble(symbol, mu, nu))``, ``SpectralData.to_dict``
  and the JSON write of the data file, on the recovery instance;
* ``recover``   - ``muhankel recover --true-symbol ...`` on that data file;
* ``stability`` - ``muhankel stability`` on the stability instance.

Recovery needs singular triples that each sit in one block, so the recovery
and stability instances are always full matchings. The stability scan costs
deltas x trials recoveries, so its instance stays small (N <= 120).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import muhankel as mh
import muhankel.cli  # noqa: F401  (binds mh.cli)

MU, NU = "0.5", "-0.5"
STABILITY_CLI_SEED = "11"
RANK_TOLERANCE = 1e-8     # the index command's default relative rank tolerance
FORWARD_ZERO_TOL = 1e-12  # forward()'s default relative cut-off for triples
SV_ABS_TOL = 1e-10        # acceptance criterion 1
RECOVER_TOL = 1e-9        # acceptance criterion 7
SLOPE_WINDOW = (0.8, 1.2) # acceptance criterion 8
STEPS = ("spectrum", "index", "forward", "recover", "stability")
# The file each step's check reads; it is removed before the step runs, so a
# check never passes on an earlier run's output.
CHECKED_OUTPUT = {"spectrum": "spectrum.json", "index": "index.json",
                  "forward": "data.json", "recover": "recovered_symbol.json",
                  "stability": "stability.json"}
MATCHING_SUPPORT_SEED = 0


@dataclass(frozen=True)
class Instance:
    group: str
    cutoff: float
    support: str  # "dense" (random_symbol, density 0.3) or "matching" (full matching)

    @property
    def key(self) -> str:
        return f"{self.group.replace(':', '')}-c{self.cutoff:g}-{self.support}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spectral: Instance
    recovery: Instance
    stability: Instance
    delta_grid: str
    trials: int
    # One pass, as (step, runs in a row) segments. The host's speed swings
    # over seconds, so short steps repeat and are spread between the long
    # ones: their samples then come from several stretches of every pass. A
    # forward export comes first, as recover reads its data file.
    schedule: tuple[tuple[str, int], ...]

    @property
    def pass_steps(self) -> list[str]:
        return [step for step, runs in self.schedule for _ in range(runs)]


SU2_SMALL = Instance("su2", 56, "matching")  # 15 labels, N = 120
LIGHT_GRID = "1e-5,1e-4,1e-3"

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dense-su2",
            "Connected random SU(2) support, N=861: dense SVDs dominate spectrum "
            "and index, and factoring by support components cannot split the "
            "operator.",
            spectral=Instance("su2", 420, "dense"),
            recovery=SU2_SMALL,
            stability=SU2_SMALL,
            delta_grid=LIGHT_GRID,
            trials=4,
            schedule=(("forward", 1), ("recover", 3), ("spectrum", 1), ("forward", 1),
                      ("stability", 1), ("index", 1), ("stability", 1)) * 2,
        ),
        Workload(
            "matching-product",
            "Product-group matching, 91 labels, N=452: attribution loops, a large "
            "spectral-data JSON and the N x N Tikhonov reassembly sit beside the "
            "dense SVDs.",
            spectral=Instance("su2xtorus:1", 30, "matching"),
            recovery=Instance("su2xtorus:1", 30, "matching"),
            stability=Instance("su2xtorus:1", 10, "matching"),
            delta_grid=LIGHT_GRID,
            trials=4,
            schedule=(("forward", 1), ("index", 1), ("spectrum", 1), ("index", 1),
                      ("recover", 1), ("index", 1), ("stability", 1), ("index", 1)),
        ),
        Workload(
            "stability-su2",
            "100 small noisy recoveries (5 deltas x 20 trials, N=120): per-label "
            "attribution dominates, the opposite use of recovery to one large exact "
            "recovery.",
            spectral=SU2_SMALL,
            recovery=SU2_SMALL,
            stability=SU2_SMALL,
            delta_grid="1e-5,3e-5,1e-4,3e-4,1e-3",
            trials=20,
            schedule=(("forward", 1), ("recover", 3), ("spectrum", 5), ("index", 10),
                      ("stability", 1)) * 2,
        ),
    )
}


def make_symbol(inst: Instance, seed: int):
    """Dense: ``random_symbol`` at density 0.3 from ``seed``. Matching: the
    full matching ``random_matching_symbol`` draws at MATCHING_SUPPORT_SEED,
    with every block redrawn from ``seed``. Fixing the pairing fixes the
    number of singular triples (for N=120 it ranges over 74-89 between
    seeds), which the recovery steps' cost is proportional to."""
    catalog = mh.enumerate_dual(mh.parse_group(inst.group), inst.cutoff)
    if inst.support == "dense":
        return mh.random_symbol(catalog, catalog, 0.3, seed)
    support = mh.random_matching_symbol(catalog, catalog, MATCHING_SUPPORT_SEED,
                                        pairs=len(catalog))
    rng = np.random.default_rng(seed)
    blocks = {}
    for key, block in support.blocks.items():
        blocks[key] = (rng.standard_normal(block.shape)
                       + 1j * rng.standard_normal(block.shape)) / np.sqrt(2.0)
    return mh.Symbol(catalog, catalog, blocks)


def write_json(path: Path, payload) -> None:
    """Same layout as the files the CLI writes."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass
class Inputs:
    workload: Workload
    out: Path
    symbols: dict  # Instance -> Symbol
    paths: dict    # Instance -> symbol JSON path

    def output(self, step: str) -> Path:
        return self.out / CHECKED_OUTPUT[step]


def set_up(workload: Workload, seed: int, out: Path, write=write_json) -> Inputs:
    """Enumerate, build every distinct instance's symbol and write it as JSON."""
    out.mkdir(parents=True, exist_ok=True)
    symbols, paths = {}, {}
    for inst in (workload.spectral, workload.recovery, workload.stability):
        if inst in symbols:
            continue
        symbols[inst] = make_symbol(inst, seed)
        paths[inst] = out / f"symbol-{inst.key}.json"
        write(paths[inst], symbols[inst].to_dict())
    return Inputs(workload, out, symbols, paths)


def _cli(argv: list[str]) -> tuple[int, str]:
    """``muhankel.cli.main`` in-process, looked up at call time so that a
    tracer's wrapper is used; returns the exit code and the captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = mh.cli.main(argv)
    return code, err.getvalue()


def run_step(step: str, inp: Inputs, write=write_json):
    """Run one step; returns (exit code, stderr text, in-memory result)."""
    w, out = inp.workload, str(inp.out)
    if step == "spectrum":
        return (*_cli(["spectrum", "--symbol", str(inp.paths[w.spectral]), "--mu", MU,
                       "--nu", NU, "--m", "2", "--n", "2", "--out-dir", out]), None)
    if step == "index":
        return (*_cli(["index", "--symbol", str(inp.paths[w.spectral]), "--mu", MU,
                       "--nu", NU, "--out-dir", out]), None)
    if step == "forward":
        op = mh.operators.assemble(inp.symbols[w.recovery], mh.duals.PowerLaw(float(MU)),
                                   mh.duals.PowerLaw(float(NU)))
        data = mh.recovery.forward(op)
        write(inp.output("forward"), data.to_dict())
        return 0, "", data
    if step == "recover":
        return (*_cli(["recover", "--data", str(inp.output("forward")), "--mu", MU, "--nu", NU,
                       "--true-symbol", str(inp.paths[w.recovery]), "--out-dir", out]),
                None)
    if step == "stability":
        return (*_cli(["stability", "--symbol", str(inp.paths[w.stability]), "--mu", MU,
                       "--nu", NU, "--delta-grid", w.delta_grid, "--trials", str(w.trials),
                       "--seed", STABILITY_CLI_SEED, "--out-dir", out]), None)
    raise ValueError(f"unknown step {step!r}")


# ---------------------------------------------------------------------------
# References, computed outside the timed region, and the checks
# ---------------------------------------------------------------------------

def _weighted_blocks(symbol):
    mu, nu = mh.duals.PowerLaw(float(MU)), mh.duals.PowerLaw(float(NU))
    return {
        (pi, rho): (mh.duals.weight_eval(mu, pi) * mh.duals.weight_eval(nu, rho)) * block
        for (pi, rho), block in symbol.blocks.items()
    }


@dataclass
class Reference:
    singular_values: np.ndarray  # descending, length min(N_out, N_in)
    blocks: dict                  # (pi index, rho index) -> true symbol block

    def count_above(self, rel_tol: float) -> int:
        s = self.singular_values
        return int(np.sum(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0


def reference(inst: Instance, symbol) -> Reference:
    """Singular values from an independent route: one dense SVD of a matrix
    built here for a dense support; the sorted union of per-block SVDs,
    zero-padded, for a matching (acceptance criterion 1)."""
    weighted = _weighted_blocks(symbol)
    n_out, n_in = symbol.codomain.dense_dim, symbol.domain.dense_dim
    if inst.support == "dense":
        dense = np.zeros((n_out, n_in), dtype=np.complex128)
        for (pi, rho), block in weighted.items():
            dense[symbol.codomain.slice_of(pi), symbol.domain.slice_of(rho)] = block
        values = np.linalg.svd(dense, compute_uv=False)
    else:
        values = np.zeros(min(n_out, n_in))
        union = np.sort(np.concatenate(
            [np.linalg.svd(b, compute_uv=False) for b in weighted.values()]))[::-1]
        values[: union.size] = union
    blocks = {(pi.index, rho.index): b for (pi, rho), b in symbol.blocks.items()}
    return Reference(values, blocks)


def references(inp: Inputs) -> dict:
    return {inst: reference(inst, sym) for inst, sym in inp.symbols.items()}


def check_step(step: str, inp: Inputs, refs: dict, code: int, result) -> str | None:
    """None when the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    w = inp.workload
    if step == "spectrum":
        ref = refs[w.spectral]
        payload = json.loads(inp.output(step).read_text())
        values = np.asarray(payload["singular_values"], dtype=float)
        if w.spectral.support == "dense":
            want = ref.singular_values[0]
            if abs(payload["operator_norm"] - want) > SV_ABS_TOL * want:
                return f"operator norm {payload['operator_norm']!r} != reference {want!r}"
        elif values.shape != ref.singular_values.shape or (
                np.max(np.abs(values - ref.singular_values)) > SV_ABS_TOL):
            return "singular values differ from the union of per-block SVDs"
        verdicts = {c["name"]: c["satisfied"] for c in payload["criteria"]}
        for name in ("schur_bound", "norm_equivalence"):
            if verdicts.get(name) is not True:
                return f"criterion {name} not satisfied"
        return None
    if step == "index":
        payload = json.loads(inp.output(step).read_text())
        want = refs[w.spectral].count_above(RANK_TOLERANCE)
        if payload["numerical_rank"] != want:
            return f"numerical rank {payload['numerical_rank']} != reference {want}"
        return None
    if step == "forward":
        ref = refs[w.recovery]
        s = np.array([t.s for t in result.triples])
        want = ref.count_above(FORWARD_ZERO_TOL)
        if s.size != want:
            return f"{s.size} triples, reference has {want}"
        if np.max(np.abs(s - ref.singular_values[:want])) > SV_ABS_TOL:
            return "forward singular values differ from the reference"
        if not result.fully_attributed:
            return "forward left triples unattributed"
        return None
    if step == "recover":
        truth = refs[w.recovery].blocks
        payload = json.loads(inp.output(step).read_text())
        got = {
            (tuple(e["pi_index"]), tuple(e["rho_index"])):
                np.asarray(e["re"]) + 1j * np.asarray(e["im"])
            for e in payload["blocks"]
        }
        if set(got) != set(truth):
            return "recovered support differs from the true support"
        err = max(float(np.max(np.abs(got[k] - truth[k]))) for k in truth)
        if not err < RECOVER_TOL:
            return f"max entry error {err:.3g} >= {RECOVER_TOL}"
        return None
    if step == "stability":
        slope = json.loads(inp.output(step).read_text())["slope"]
        if slope is None or not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
            return f"slope {slope} outside {SLOPE_WINDOW}"
        return None
    raise ValueError(f"unknown step {step!r}")


def support_components(symbol) -> tuple[int, int]:
    """Connected components of the bipartite block graph (codomain labels on
    one side, domain labels on the other) and the larger side, in dense
    coordinates, of the biggest component's sub-matrix."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for pi, rho in symbol.blocks:
        parent[find(("out", pi))] = find(("in", rho))
    sizes: dict = {}
    for node in list(parent):
        side, label = node
        rows_cols = sizes.setdefault(find(node), [0, 0])
        rows_cols[0 if side == "out" else 1] += mh.duals.dim(label)
    largest = max((max(rc) for rc in sizes.values()), default=0)
    return len(sizes), largest
