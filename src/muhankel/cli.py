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
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .duals import (
    MAX_DENSE_DIM,
    SU2,
    DualCatalog,
    PowerLaw,
    TableWeight,
    Weight,
    _fields,
    _shown,
    enumerate_dual,
    parse_group,
)
from .fredholm import RANK_TOL, FormulaInapplicableError, hankel_winding, index_report
from .operators import assemble
from .recovery import (
    AttributionError,
    SpectralData,
    max_entry_error,
    max_residual,
    stability_scan,
    tikhonov_recover,
)
from .spectral import (
    compactness_report,
    norm_criteria,
    schatten_norm,
    schatten_series_scan,
)
from .symbols import Symbol, SymbolClassParams, _by_key, _key_fields

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INDEX_INAPPLICABLE = 4
EXIT_ATTRIBUTION = 5


_ENCODE = json.JSONEncoder(allow_nan=False, check_circular=False).encode
_PLAIN = frozenset({int, float, bool, type(None)})


def _json_parts(value, indent: str, parts: list) -> None:
    """Append to ``parts`` the text of ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` at ``indent``, but refuse a key that is not a str. A list of
    plain numbers or of rows of them takes one C-encoder call, whose ", "
    separators are then re-indented or split at; every other item recurses."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        if bad := [key for key in value if not isinstance(key, str)]:
            raise TypeError(f"JSON object keys must be str, not {bad[0]!r}")
        items, brackets = [(_ENCODE(key) + ": ", value[key]) for key in sorted(value)], "{}"
    elif not (isinstance(value, (list, tuple)) and value):
        return parts.append(_ENCODE(value))
    elif _PLAIN.issuperset(map(type, value)):
        text = _ENCODE(value)[1:-1].replace(", ", ",\n" + inner)
        return parts.extend(("[\n", inner, text, "\n", indent, "]"))
    elif all(type(row) in (list, tuple) and row and _PLAIN.issuperset(map(type, row))
             for row in value):
        row = inner + "  "
        text = _ENCODE(value)[2:-2].replace("], [", f"\n{inner}],\n{inner}[\n{row}")
        return parts.extend(("[\n", inner, "[\n", row, text.replace(", ", ",\n" + row),
                             "\n", inner, "]\n", indent, "]"))
    else:
        items, brackets = [("", item) for item in value], "[]"
    for i, (key, item) in enumerate(items):
        parts += (",\n" if i else brackets[0] + "\n", inner, key)
        _json_parts(item, inner, parts)
    parts += ("\n", indent, brackets[1])


def _write_json(path: Path, payload) -> None:
    _json_parts(payload, "", parts := [])
    path.write_text("".join(parts) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _emit(args, config: dict, files: dict) -> None:
    """Create ``--out-dir``, write the files ``--format`` selects (all of them
    for commands without ``--format``), then ``<command>-manifest.json``
    listing the files written and those of ``--symbol``, ``--data`` and
    ``--true-symbol`` given. ``files`` maps a manifest key to
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
    _write_json(out / f"{args.command}-manifest.json", {
        "command": args.command,
        "tool_version": __version__,
        "seed": args.seed,
        "inputs": {k: v for k in ("symbol", "data", "true_symbol") if (v := vars(args).get(k))},
        "outputs": {k: str(v) for k, v in outputs.items()},
        "config": config,
    })


def _read_input(path: str, parse):
    """``parse`` applied to the JSON file at ``path``; a fault found reading it, or a
    nesting too deep, becomes a ValueError naming the file, its text cut at 500 chars."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (ValueError, TypeError, LookupError, AttributeError, OverflowError,
            RecursionError) as exc:
        text = str(exc)
        cut = " ... (cut at 500 characters)" if len(text) > 500 else ""
        raise ValueError(f"malformed input file {path}: {text[:500]}{cut}") from exc


def _parse_weight(spec: str, catalog: DualCatalog) -> Weight:
    try:
        exponent = float(spec)
    except ValueError:
        pass
    else:
        return PowerLaw(exponent)

    def parse(data) -> TableWeight:
        values = {}
        for i, entry in enumerate(_fields(data, f"weight table {spec}", "entries")[0]):
            index, value = _fields(entry, f"weight table {spec} entry {i}", "index", "value")
            label = catalog.label_at(index, f"weight table {spec} entry {i}:")
            if label in values:
                raise ValueError(f"weight table {spec} repeats index {label.index}")
            if type(value) not in (int, float):  # not "2", true or null
                raise TypeError(f"entry {i} value is {_shown(value)}, not a number")
            values[label] = float(value)
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


def cmd_catalog(args) -> int:
    group = parse_group(args.group)
    catalog = enumerate_dual(group, args.cutoff)
    _emit(args, {"group": args.group, "cutoff": args.cutoff},
          {"catalog": ("catalog.json", catalog.to_dict())})
    print(f"catalog: {len(catalog)} labels, dense dimension {catalog.dense_dim}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    sym, mu, nu = _with_weights(args, _read_input(args.symbol, Symbol.from_dict))
    params = SymbolClassParams(args.m, args.n)
    op = assemble(sym, mu, nu)
    values = op.singular_values
    norm = float(values[0]) if values.size else 0.0
    ps = sorted({1.0, 2.0, args.p} if args.p is not None else {1.0, 2.0})
    schatten = {str(p): schatten_norm(values, p) for p in ps}
    criteria = [*norm_criteria(op, params), compactness_report(op, params)]

    payload = {
        "operator_norm": norm,
        "singular_values": values.tolist(),
        "schatten": schatten,
        "per_block": [{**_key_fields(key), "singular_values": block_values.tolist()}
                      for key, block_values in _by_key(op.block_singular_values.items())],
        # an undefined ratio (x / 0) is inf, which JSON cannot hold: null
        "criteria": [asdict(v) | {"measured_value": v.measured_value
                                  if np.isfinite(v.measured_value) else None} for v in criteria],
    }
    _emit(args, {"mu": args.mu, "nu": args.nu, "m": args.m, "n": args.n,
                 "format": args.format}, {
        "report": ("spectrum.json", payload),
        "values_csv": ("spectrum_values.csv", ["rank", "singular_value"],
                       [[i, v] for i, v in enumerate(values)]),
        "criteria_csv": ("spectrum_criteria.csv",
                         ["name", "bound_value", "measured_value", "satisfied", "detail"],
                         [[v.name, v.bound_value, v.measured_value, v.satisfied, v.detail]
                          for v in criteria]),
    })
    print(f"operator norm {norm:.12g}")
    for verdict in criteria:
        print(f"{verdict.name}: {'ok' if verdict.satisfied else 'NOT satisfied'} ({verdict.detail})")
    return EXIT_OK


def cmd_schatten_scan(args) -> int:
    ladder = tuple(_parse_float_list(args.ladder))
    group = SU2(half_integers=args.spins == "half")
    verdict, rows = schatten_series_scan(args.alpha, args.p, ladder, group)
    columns = ["l_max", "partial_sum", "increment", "increment_ratio", "operator_schatten"]
    _emit(args, {"p": args.p, "alpha": args.alpha, "ladder": args.ladder, "spins": args.spins}, {
        "verdict": ("schatten_scan.json", {"verdict": asdict(verdict), "rows": rows}),
        "rows_csv": ("schatten_scan.csv", columns,
                     [[row.get(c, "") for c in columns] for row in rows]),
    })
    print(verdict.detail)
    return EXIT_OK


def cmd_index(args) -> int:
    if not 0 <= args.samples <= MAX_DENSE_DIM:
        raise ValueError(f"--samples must be between 0 and {MAX_DENSE_DIM}, got {args.samples}")
    sym, mu, nu = _with_weights(args, _read_input(args.symbol, Symbol.from_dict))
    report = index_report(assemble(sym, mu, nu), args.tolerance)
    payload = report.to_dict()
    try:
        if (wind := hankel_winding(sym, args.samples)) is not None:
            payload |= {"winding_number": wind, "minus_winding": -wind}
    except ValueError as exc:
        payload["winding_error"] = str(exc)
    _emit(args, {"mu": args.mu, "nu": args.nu, "tolerance": args.tolerance},
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
        print(f"winding number {payload['winding_number']}; "
              f"-winding = {payload['minus_winding']} vs numerical index {num_index}")
    elif "winding_error" in payload:
        print(f"winding number unavailable: {payload['winding_error']}")
    return EXIT_OK


def cmd_recover(args) -> int:
    data, mu, nu = _with_weights(args, _read_input(args.data, SpectralData.from_dict))
    recovered = tikhonov_recover(data, mu, nu, args.alpha, args.weighted_penalty)
    if args.true_symbol:
        truth = _read_input(args.true_symbol, Symbol.from_dict)
        check = f"max entry error vs true symbol: {max_entry_error(recovered, truth):.6g}"
    else:
        residual = max_residual(assemble(recovered, mu, nu), data)
        check = f"max residual vs reassembled data: {residual:.6g}"
    _emit(args, {"mu": args.mu, "nu": args.nu,
                 "cutoff": max(data.codomain.cutoff, data.domain.cutoff),
                 "alpha": args.alpha, "weighted_penalty": args.weighted_penalty},
          {"symbol": ("recovered_symbol.json", recovered.to_dict())})
    print(check)
    print(f"recovered {len(recovered.blocks)} blocks")
    return EXIT_OK


def cmd_stability(args) -> int:
    sym, mu, nu = _with_weights(args, _read_input(args.symbol, Symbol.from_dict))
    deltas = _parse_float_list(args.delta_grid)
    rows, slope = stability_scan(
        sym, mu, nu, deltas, trials=args.trials, seed=args.seed,
        weighted_penalty=args.weighted_penalty,
    )
    _emit(args, {"mu": args.mu, "nu": args.nu, "delta_grid": args.delta_grid,
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared; it holds no command function."""
    parser = argparse.ArgumentParser(prog="muhankel", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="enumerate a truncated dual")
    p.add_argument("--group", required=True, help="su2 | su2int | torus:d | axb with x")
    p.add_argument("--cutoff", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("spectrum", help="singular spectrum and norm criteria")
    p.add_argument("--symbol", required=True, help="symbol JSON path")
    _add_weights(p)
    p.add_argument("--m", type=float, default=0.0, help="codomain decay order")
    p.add_argument("--n", type=float, default=0.0, help="domain decay order")
    p.add_argument("--p", type=float, default=None, help="extra Schatten exponent")
    _add_common(p)
    _add_format(p)

    p = sub.add_parser("schatten-scan", help="diagonal Schatten series convergence scan")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--ladder", default="64,128,256,512", help="comma-separated spin cutoffs")
    p.add_argument("--spins", choices=("integer", "half"), default="integer")
    _add_common(p)
    _add_format(p)

    p = sub.add_parser("index", help="determinant-sign and numerical index")
    p.add_argument("--symbol", required=True)
    _add_weights(p)
    p.add_argument("--tolerance", type=float, default=RANK_TOL, help="relative rank tolerance")
    p.add_argument("--samples", type=int, default=256, help="circle samples for winding")
    _add_common(p)

    p = sub.add_parser("recover", help="Tikhonov symbol recovery from spectral data")
    p.add_argument("--data", required=True, help="spectral data JSON path")
    _add_weights(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--weighted-penalty", action="store_true")
    p.add_argument("--true-symbol", default=None, help="reference symbol for error report")
    _add_common(p)

    p = sub.add_parser("stability", help="noise-response experiment")
    p.add_argument("--symbol", required=True, help="true symbol JSON path")
    _add_weights(p)
    p.add_argument("--delta-grid", default="1e-4,3e-4,1e-3,3e-3,1e-2")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--weighted-penalty", action="store_true")
    _add_common(p)
    _add_format(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # cmd_<command> is looked up now, so a wrapper or monkeypatch of it runs
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except AttributionError as exc:
        print(f"attribution failure: {exc}", file=sys.stderr)
        return EXIT_ATTRIBUTION
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FormulaInapplicableError as exc:  # a ValueError, so before that clause
        print(f"index: {exc}", file=sys.stderr)
        return EXIT_INDEX_INAPPLICABLE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
