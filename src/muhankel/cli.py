"""Command-line front end.

Subcommands::

    muhankel catalog       --group su2 --cutoff 6 --out-dir out/
    muhankel spectrum      --symbol sym.json --mu 1.0 --nu -0.5 --m 2 --n 2
    muhankel schatten-scan --p 2 --alpha 2 --ladder 64,128,256,512
    muhankel index         --symbol sym.json --mu 0 --nu 0
    muhankel recover       --data data.json --mu 0 --nu 0 --alpha 1e-6
    muhankel stability     --symbol sym.json --delta-grid 1e-4,1e-3,1e-2

Weight specs are either a power-law exponent (``--mu 0.5``) or a path to a
JSON table ``{"entries": [{"index": [...], "value": ...}]}``. Every run
writes a ``<command>-manifest.json`` next to its outputs; with a fixed
``--seed`` reruns are byte-identical.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 index
inapplicable on both routes, 5 attribution failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .duals import (
    SU2,
    DualCatalog,
    IrrepLabel,
    PowerLaw,
    TableWeight,
    Weight,
    enumerate_dual,
    parse_group,
)
from .fredholm import (
    RANK_TOL,
    FormulaInapplicableError,
    index_report,
    winding_number,
)
from .operators import assemble
from .recovery import (
    AttributionError,
    SpectralData,
    stability_scan,
    tikhonov_recover,
)
from .spectral import (
    compactness_report,
    norm_criteria,
    schatten_norm,
    schatten_series_scan,
    spectrum,
)
from .symbols import Symbol, SymbolClassParams, hankel_coefficients, symbol_difference

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INDEX_INAPPLICABLE = 4
EXIT_ATTRIBUTION = 5


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(args, command: str, inputs: dict, config: dict, files: dict) -> None:
    """Create ``--out-dir``, write the files ``--format`` selects (all of them
    for commands without ``--format``), then ``<command>-manifest.json``
    listing exactly the files written. ``files`` maps a manifest key to
    ``(name, payload)`` for JSON or ``(name, header, rows)`` for CSV."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = getattr(args, "format", "both")
    outputs = {}
    for key, (name, *content) in files.items():
        kind = "csv" if name.endswith(".csv") else "json"
        if fmt in (kind, "both"):
            outputs[key] = out / name
            (_write_csv if kind == "csv" else _write_json)(outputs[key], *content)
    _write_json(out / f"{command}-manifest.json", {
        "command": command,
        "tool_version": __version__,
        "seed": args.seed,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "config": config,
    })


def _read_input(path: str, parse):
    """``parse`` applied to the JSON file at ``path``. A wrong type or shape
    inside the file (a number where a list belongs, a short list) surfaces
    from parsing as TypeError, IndexError or AttributeError; it becomes a
    ValueError naming the file, so that it exits as a validation error."""
    data = json.loads(Path(path).read_text())
    try:
        return parse(data)
    except (TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"malformed input file {path}: {exc}") from exc


def _parse_weight(spec: str, catalog: DualCatalog) -> Weight:
    try:
        exponent = float(spec)
    except ValueError:
        pass
    else:
        return PowerLaw(exponent)

    def parse(data) -> TableWeight:
        values = {}
        for entry in data["entries"]:
            label = IrrepLabel(catalog.group, tuple(entry["index"]))
            if label in values:
                raise ValueError(f"weight table {spec} repeats index {label.index}")
            values[label] = float(entry["value"])
        return TableWeight(values)

    return _read_input(spec, parse)


def _with_weights(args, source):
    """``source`` (a symbol or spectral data) with the ``--mu``/``--nu``
    weights parsed against its codomain and domain."""
    return source, _parse_weight(args.mu, source.codomain), _parse_weight(args.nu, source.domain)


def _parse_float_list(spec: str) -> list[float]:
    values = [float(part) for part in spec.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty list spec: {spec!r}")
    return values


def _load_symbol(path: str) -> Symbol:
    return _read_input(path, Symbol.from_dict)


def cmd_catalog(args) -> int:
    group = parse_group(args.group)
    catalog = enumerate_dual(group, args.cutoff)
    _emit(args, "catalog", {}, {"group": args.group, "cutoff": args.cutoff},
          {"catalog": ("catalog.json", catalog.to_dict())})
    print(f"catalog: {len(catalog)} labels, dense dimension {catalog.dense_dim}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    sym, mu, nu = _with_weights(args, _load_symbol(args.symbol))
    params = SymbolClassParams(args.m, args.n)
    op = assemble(sym, mu, nu)
    report = spectrum(op)
    ps = sorted({1.0, 2.0, args.p} if args.p is not None else {1.0, 2.0})
    schatten = {str(p): schatten_norm(report, p) for p in ps}
    criteria = [*norm_criteria(op, params), compactness_report(op, params)]

    payload = {
        "operator_norm": report.operator_norm,
        "singular_values": report.singular_values.tolist(),
        "schatten": schatten,
        "per_block": [
            {
                "pi_index": list(pi.index),
                "rho_index": list(rho.index),
                "singular_values": values.tolist(),
            }
            for (pi, rho), values in sorted(
                report.per_block.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index)
            )
        ],
        "criteria": [v.to_dict() for v in criteria],
    }
    _emit(args, "spectrum", {"symbol": args.symbol},
          {"mu": args.mu, "nu": args.nu, "m": args.m, "n": args.n, "format": args.format}, {
        "report": ("spectrum.json", payload),
        "values_csv": ("spectrum_values.csv", ["rank", "singular_value"],
                       [[i, v] for i, v in enumerate(report.singular_values)]),
        "criteria_csv": ("spectrum_criteria.csv",
                         ["name", "bound_value", "measured_value", "satisfied", "detail"],
                         [[v.name, v.bound_value, v.measured_value, v.satisfied, v.detail]
                          for v in criteria]),
    })
    print(f"operator norm {report.operator_norm:.12g}")
    for verdict in criteria:
        print(f"{verdict.name}: {'ok' if verdict.satisfied else 'NOT satisfied'} ({verdict.detail})")
    return EXIT_OK


def cmd_schatten_scan(args) -> int:
    ladder = tuple(_parse_float_list(args.ladder))
    group = SU2(half_integers=args.spins == "half")
    verdict, rows = schatten_series_scan(args.alpha, args.p, ladder, group)
    columns = ["l_max", "partial_sum", "increment", "increment_ratio", "operator_schatten"]
    _emit(args, "schatten-scan", {},
          {"p": args.p, "alpha": args.alpha, "ladder": args.ladder, "spins": args.spins}, {
        "verdict": ("schatten_scan.json", {"verdict": verdict.to_dict(), "rows": rows}),
        "rows_csv": ("schatten_scan.csv", columns,
                     [[row.get(c, "") for c in columns] for row in rows]),
    })
    print(verdict.detail)
    return EXIT_OK


def cmd_index(args) -> int:
    sym, mu, nu = _with_weights(args, _load_symbol(args.symbol))
    try:
        report = index_report(assemble(sym, mu, nu), args.tolerance)
    except FormulaInapplicableError as exc:
        print(f"index: {exc}", file=sys.stderr)
        return EXIT_INDEX_INAPPLICABLE
    payload = report.to_dict()

    coeffs = hankel_coefficients(sym)
    if coeffs is not None:
        theta = 2.0 * np.pi * np.arange(args.samples) / args.samples
        samples = np.zeros(args.samples, dtype=complex)
        for k, c in coeffs.items():
            samples += c * np.exp(1j * k * theta)
        try:
            wind = winding_number(samples)
            payload["winding_number"] = wind
            payload["minus_winding"] = -wind
        except ValueError as exc:
            payload["winding_error"] = str(exc)

    _emit(args, "index", {"symbol": args.symbol},
          {"mu": args.mu, "nu": args.nu, "tolerance": args.tolerance},
          {"report": ("index.json", payload)})

    if report.formula_error is None:
        pairs = report.contributing_pairs
        print(f"formula index {report.formula_index} ({len(pairs)} contributing pairs)")
        for pi, rho, w in pairs:
            print(f"  pair pi={list(pi.index)} rho={list(rho.index)} weight {w}")
    else:
        print(f"formula inapplicable: {report.formula_error}")
    num_index = report.numerical_index
    print(
        f"numerical index {num_index} (kernel {report.numerical_kernel_dim}, "
        f"cokernel {report.numerical_cokernel_dim}, rank {report.numerical_rank})"
    )
    if "winding_number" in payload:
        print(
            f"winding number {payload['winding_number']}; "
            f"-winding = {payload['minus_winding']} vs numerical index {num_index}"
        )
    elif "winding_error" in payload:
        print(f"winding number unavailable: {payload['winding_error']}")
    return EXIT_OK


def cmd_recover(args) -> int:
    data = _read_input(args.data, SpectralData.from_dict)
    data, mu, nu = _with_weights(args, data)
    recovered = tikhonov_recover(data, mu, nu, args.alpha, args.weighted_penalty)
    inputs = {"data": args.data}
    if args.true_symbol:
        truth = _read_input(args.true_symbol, lambda raw: Symbol.from_dict(raw, data))
        inputs["true_symbol"] = args.true_symbol
        diff = symbol_difference(recovered, truth)
        max_err = max(
            (float(np.max(np.abs(b))) for b in diff.blocks.values()), default=0.0
        )
        check = f"max entry error vs true symbol: {max_err:.6g}"
    else:
        residual = _max_residual(assemble(recovered, mu, nu), data)
        check = f"max residual vs reassembled data: {residual:.6g}"
    _emit(args, "recover", inputs,
          {"mu": args.mu, "nu": args.nu,
           "cutoff": max(data.codomain.cutoff, data.domain.cutoff),
           "alpha": args.alpha, "weighted_penalty": args.weighted_penalty},
          {"symbol": ("recovered_symbol.json", recovered.to_dict())})
    print(check)
    print(f"recovered {len(recovered.blocks)} blocks")
    return EXIT_OK


def _max_residual(op, data: SpectralData) -> float:
    """The largest entry of |T - sum_n s_n u_n v_n^H|, over one codomain label's
    rows and the triples whose u is not zero there at a time: never N x N."""
    row_blocks = {}
    for (pi, rho), block in op.weighted.items():
        row_blocks.setdefault(pi, []).append((data.domain.slice_of(rho), block))
    worst = [0.0]
    for pi in data.codomain:
        rows = data.u[data.codomain.slice_of(pi)]
        live = np.flatnonzero(rows.any(axis=0))
        strip = (rows[:, live] * data.s[live]) @ data.v[:, live].conj().T
        for cols, block in row_blocks.get(pi, ()):
            strip[:, cols] -= block
        worst.append(np.max(np.abs(strip), initial=0.0))
    return np.max(worst)


def cmd_stability(args) -> int:
    sym, mu, nu = _with_weights(args, _load_symbol(args.symbol))
    deltas = _parse_float_list(args.delta_grid)
    rows, slope = stability_scan(
        sym, mu, nu, deltas, trials=args.trials, seed=args.seed,
        weighted_penalty=args.weighted_penalty,
    )
    _emit(args, "stability", {"symbol": args.symbol},
          {"mu": args.mu, "nu": args.nu, "delta_grid": args.delta_grid,
           "trials": args.trials, "weighted_penalty": args.weighted_penalty}, {
        "table": ("stability.csv", ["delta", "alpha", "mean_error", "std_error"],
                  [[r.delta, r.alpha, r.mean_error, r.std_error] for r in rows]),
        "summary": ("stability.json", {"rows": [asdict(r) for r in rows], "slope": slope}),
    })
    for row in rows:
        print(
            f"delta {row.delta:.3g}: alpha {row.alpha:.3g}, "
            f"mean error {row.mean_error:.6g} +- {row.std_error:.2g}"
        )
    print(f"log-log slope: {slope if slope is not None else 'n/a'}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=".", help="directory for outputs")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _add_weights(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", default="0", help="power-law exponent or table JSON path")
    parser.add_argument("--nu", default="0", help="power-law exponent or table JSON path")


def _add_format(parser: argparse.ArgumentParser) -> None:
    """For the commands that also write CSV."""
    parser.add_argument(
        "--format", choices=("json", "csv", "both"), default="both",
        help="which report formats to write",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="muhankel", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="enumerate a truncated dual")
    p.add_argument("--group", required=True, help="su2 | su2int | torus:d | axb with x")
    p.add_argument("--cutoff", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("spectrum", help="singular spectrum and norm criteria")
    p.add_argument("--symbol", required=True, help="symbol JSON path")
    _add_weights(p)
    p.add_argument("--m", type=float, default=0.0, help="codomain decay order")
    p.add_argument("--n", type=float, default=0.0, help="domain decay order")
    p.add_argument("--p", type=float, default=None, help="extra Schatten exponent")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("schatten-scan", help="diagonal Schatten series convergence scan")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ladder", default="64,128,256,512", help="comma-separated spin cutoffs")
    p.add_argument("--spins", choices=("integer", "half"), default="integer")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_schatten_scan)

    p = sub.add_parser("index", help="determinant-sign and numerical index")
    p.add_argument("--symbol", required=True)
    _add_weights(p)
    p.add_argument("--tolerance", type=float, default=RANK_TOL, help="relative rank tolerance")
    p.add_argument("--samples", type=int, default=256, help="circle samples for winding")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("recover", help="Tikhonov symbol recovery from spectral data")
    p.add_argument("--data", required=True, help="spectral data JSON path")
    _add_weights(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--weighted-penalty", action="store_true")
    p.add_argument("--true-symbol", default=None, help="reference symbol for error report")
    _add_common(p)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("stability", help="noise-response experiment")
    p.add_argument("--symbol", required=True, help="true symbol JSON path")
    _add_weights(p)
    p.add_argument("--delta-grid", default="1e-4,3e-4,1e-3,3e-3,1e-2")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--weighted-penalty", action="store_true")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_stability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AttributionError as exc:
        print(f"attribution failure: {exc}", file=sys.stderr)
        return EXIT_ATTRIBUTION
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
