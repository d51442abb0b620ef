import json
from pathlib import Path

import numpy as np
import pytest

from muhankel.cli import main
from muhankel.duals import SU2, Torus, UNIT_WEIGHT, enumerate_dual
from muhankel.operators import assemble
from muhankel.recovery import forward
from muhankel.symbols import (
    Symbol,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
)


def torus_halfline(n_max):
    cat = enumerate_dual(Torus(1), float(n_max * n_max))
    return cat.restrict(lambda l: l.index[0] >= 0)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_catalog_su2(tmp_path):
    assert main(["catalog", "--group", "su2", "--cutoff", "6", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "catalog.json").read_text())
    assert len(payload["labels"]) == 5
    assert [entry["dim"] for entry in payload["labels"]] == [1, 2, 3, 4, 5]
    manifest = json.loads((tmp_path / "catalog-manifest.json").read_text())
    assert manifest["command"] == "catalog"
    for out in manifest["outputs"].values():
        assert (tmp_path / out.split("/")[-1]).exists()


def test_catalog_torus(tmp_path):
    assert main(["catalog", "--group", "torus:1", "--cutoff", "4", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "catalog.json").read_text())
    assert len(payload["labels"]) == 5


def test_catalog_negative_cutoff_exit_2(tmp_path):
    assert main(["catalog", "--group", "su2", "--cutoff", "-1", "--out-dir", str(tmp_path)]) == 2


def test_catalog_bad_group_exit_2(tmp_path):
    assert main(["catalog", "--group", "so3", "--cutoff", "1", "--out-dir", str(tmp_path)]) == 2


def test_spectrum_diagonal(tmp_path):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(
        ["spectrum", "--symbol", sym_path, "--mu", "1.0", "--nu", "1.0",
         "--m", "0", "--n", "0", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    np.testing.assert_allclose(report["operator_norm"], 9.0, rtol=1e-10)
    names = {c["name"] for c in report["criteria"]}
    assert names == {"schur_bound", "norm_equivalence", "compactness_indicators"}
    assert all(
        c["satisfied"] for c in report["criteria"] if c["name"] != "compactness_indicators"
    )
    values_csv = (tmp_path / "spectrum_values.csv").read_text().splitlines()
    assert len(values_csv) == 1 + 15  # header + one row per singular value


def test_spectrum_bad_schema_exit_2(tmp_path):
    bad = write_json(tmp_path / "sym.json", {"blocks": []})
    assert main(["spectrum", "--symbol", bad, "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "alpha,expect", [("2", "converges"), ("1", "diverges"), ("1.5", "diverges")]
)
def test_schatten_scan_verdicts(tmp_path, capsys, alpha, expect):
    code = main(
        ["schatten-scan", "--p", "2", "--alpha", alpha, "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert expect in capsys.readouterr().out
    payload = json.loads((tmp_path / "schatten_scan.json").read_text())
    assert (payload["verdict"]["satisfied"]) is (expect == "converges")
    csv_lines = (tmp_path / "schatten_scan.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 4  # header + one row per ladder rung


def test_index_torus_winding(tmp_path, capsys):
    cat = torus_halfline(3)
    sym = hankel_symbol_from_fourier({1: 1.0}, cat, cat)
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["winding_number"] == 1
    assert payload["minus_winding"] == -1
    assert payload["formula_index"] == 0  # no negative determinants
    out = capsys.readouterr().out
    assert "-winding" in out and "numerical index" in out


def test_index_all_positive_symbol(tmp_path):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["formula_index"] == 0
    assert payload["contributing_pairs"] == []
    assert payload["numerical_index"] == 0


def test_index_non_square_block_still_reports_numerical(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 6.0)
    pi, rho = cat.labels[0], cat.labels[1]
    sym = Symbol(cat, cat, {(pi, rho): np.ones((1, 2))})
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["formula_index"] is None
    assert "non-square" in payload["formula_error"]
    assert payload["numerical_rank"] == 1
    out = capsys.readouterr().out
    assert "formula inapplicable" in out and "numerical index" in out


def test_recover_round_trip(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_matching_symbol(cat, cat, 123)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", data.to_dict())
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    code = main(
        ["recover", "--data", data_path, "--true-symbol", sym_path,
         "--alpha", "0", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max entry error" in out
    max_err = float(out.split("max entry error vs true symbol:")[1].split()[0])
    assert max_err < 1e-9
    recovered = json.loads((tmp_path / "recovered_symbol.json").read_text())
    assert len(recovered["blocks"]) == len(sym.blocks)


def test_recover_attribution_failure_exit_5(tmp_path):
    cat = torus_halfline(2)
    n0, n1, n2 = cat.labels
    sym = Symbol(cat, cat, {(n0, n1): np.array([[1.0]]), (n2, n1): np.array([[1.0]])})
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", data.to_dict())
    assert main(["recover", "--data", data_path, "--out-dir", str(tmp_path)]) == 5


def test_stability_zero_delta(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(
        ["stability", "--symbol", sym_path, "--delta-grid", "0",
         "--trials", "2", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    rows = json.loads((tmp_path / "stability.json").read_text())["rows"]
    assert rows[0]["mean_error"] < 1e-9
    csv_lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert csv_lines[0] == "delta,alpha,mean_error,std_error"


def test_stability_outputs_deterministic(tmp_path):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["stability", "--symbol", sym_path, "--delta-grid", "1e-3,1e-2",
            "--trials", "3", "--seed", "7"]
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    for name in ("stability.csv", "stability.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_manifest_references_existing_outputs(tmp_path):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "spectrum-manifest.json").read_text())
    assert manifest["tool_version"]
    from pathlib import Path

    assert manifest["outputs"]
    for path in manifest["outputs"].values():
        assert Path(path).exists()


def test_weight_table_from_file(tmp_path):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    table = {
        "entries": [
            {"index": list(label.index), "value": 2.0} for label in cat.labels
        ]
    }
    mu_path = write_json(tmp_path / "mu.json", table)
    assert main(
        ["spectrum", "--symbol", sym_path, "--mu", mu_path, "--out-dir", str(tmp_path)]
    ) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    np.testing.assert_allclose(report["operator_norm"], 2.0, rtol=1e-10)


def _failing_svd(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def test_index_both_routes_fail_exit_4(tmp_path, capsys, monkeypatch):
    cat = enumerate_dual(SU2(), 6.0)
    pi, rho = cat.labels[0], cat.labels[1]
    sym = Symbol(cat, cat, {(pi, rho): np.ones((1, 2))})
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "non-square" in err and "SVD did not converge" in err


def test_index_svd_failure_with_square_blocks_exit_3(tmp_path, monkeypatch):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 3


def test_duplicate_block_exit_2(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 2.0)
    payload = diagonal_symbol(cat).to_dict()
    dup = dict(payload["blocks"][1], re=[[5.0, 0.0], [0.0, 5.0]])
    payload["blocks"].append(dup)
    sym_path = write_json(tmp_path / "sym.json", payload)
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 2
    assert "duplicate block ((1,), (1,))" in capsys.readouterr().err


@pytest.mark.parametrize("exponent", ["nan", "inf"])
def test_non_finite_exponent_exit_2(tmp_path, capsys, exponent):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(["spectrum", "--symbol", sym_path, "--mu", exponent,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"exponent must be finite, got {exponent}" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_recover_non_finite_alpha_exit_2(tmp_path, capsys, alpha):
    cat = enumerate_dual(SU2(), 6.0)
    data = forward(assemble(random_matching_symbol(cat, cat, 123), UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", data.to_dict())
    code = main(["recover", "--data", data_path, "--alpha", alpha,
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"must be finite and >= 0, got {alpha}" in capsys.readouterr().err
    assert not (tmp_path / "recovered_symbol.json").exists()


@pytest.mark.parametrize("grid, bad", [("nan,1e-3", "nan"), ("1e-3,-1e-2", "-0.01")])
def test_stability_bad_delta_exit_2(tmp_path, capsys, grid, bad):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(["stability", "--symbol", sym_path, "--delta-grid", grid,
                 "--trials", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"delta must be finite and >= 0, got {bad}" in capsys.readouterr().err


def test_non_finite_symbol_entry_exit_2(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 2.0)
    payload = diagonal_symbol(cat).to_dict()
    payload["blocks"][1]["im"][0][1] = float("nan")
    sym_path = write_json(tmp_path / "sym.json", payload)
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 2
    assert "block ((1,), (1,)) has non-finite entries" in capsys.readouterr().err


def test_duplicate_catalog_label_exit_2(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 2.0)
    payload = diagonal_symbol(cat).to_dict()
    payload["domain"]["labels"].append(payload["domain"]["labels"][0])
    sym_path = write_json(tmp_path / "sym.json", payload)
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 2
    assert "duplicate label (0,)" in capsys.readouterr().err


def write_spectral_data(path, cat, triples, attribution):
    """Spectral-data JSON on ``cat`` x ``cat`` from (s, u, v) tuples."""
    entries = [
        {"s": s, "u_re": np.real(u).tolist(), "u_im": np.imag(u).tolist(),
         "v_re": np.real(v).tolist(), "v_im": np.imag(v).tolist()}
        for s, u, v in triples
    ]
    keys = [None if key is None else [list(key[0].index), list(key[1].index)]
            for key in attribution]
    payload = {"codomain": cat.to_dict(), "domain": cat.to_dict(), "triples": entries,
               "attribution": keys}
    return write_json(path, payload)


def test_recover_rejects_faulty_spectral_data_exit_2(tmp_path, capsys):
    cat = enumerate_dual(SU2(), 2.0)  # dims 1, 2, 3
    a = cat.labels[0]
    unit = np.zeros(6, dtype=complex)
    unit[0] = 1.0
    spread = np.full(6, 1 / np.sqrt(6), dtype=complex)
    cases = [
        # the lengths are checked before anything else, here the mass rule
        ([(1.0, spread, unit), (0.5, unit[:3], unit)], [(a, a), None],
         "triple 1: u_re must be a list of 6 numbers, got length 3"),
        # and before the order of the singular values
        ([(1.0, unit, unit), (2.0, unit[:3], unit)], [None, None],
         "triple 1: u_re must be a list of 6 numbers, got length 3"),
        ([(1.0, unit, unit), (float("nan"), unit, unit)], [None, None],
         "triple 1: singular values must be finite, nonnegative and descending"),
    ]
    paths = [write_spectral_data(tmp_path / f"data{n}.json", cat, triples, attribution)
             for n, (triples, attribution, _) in enumerate(cases)]
    # u_re and u_im of unequal length, and a number in place of a list
    payload = json.loads(Path(paths[-1]).read_text())
    payload["triples"][1].update(s=0.5, u_im=[0.0] * 5)
    paths.append(write_json(tmp_path / "unequal.json", payload))
    payload["triples"][1].update(u_im=[0.0] * 6, v_re=1.0)
    paths.append(write_json(tmp_path / "scalar.json", payload))
    messages = [message for _, _, message in cases] + [
        "triple 1: u_im must be a list of 6 numbers, got length 5",
        "triple 1: v_re must be a list of 6 numbers, got 1.0",
    ]
    for path, message in zip(paths, messages):
        assert main(["recover", "--data", path, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "recovered_symbol.json").exists()


@pytest.mark.parametrize("mu, value", [("1000", "inf"), ("-1000", "0.0")])
def test_out_of_range_weight_exit_2(tmp_path, capsys, mu, value):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(["spectrum", "--symbol", sym_path, "--mu", mu, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"exponent {float(mu)} is {value}, not a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("group, cutoff", [("su2", "nan"), ("torus:1", "inf")])
def test_catalog_non_finite_cutoff_exit_2(tmp_path, capsys, group, cutoff):
    code = main(["catalog", "--group", group, "--cutoff", cutoff, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"cutoff must be finite and >= 0, got {cutoff}" in capsys.readouterr().err
    assert not (tmp_path / "catalog.json").exists()


@pytest.mark.parametrize("argv", [
    ["catalog", "--group", "su2", "--cutoff", "2"],
    ["index", "--symbol", "sym.json"],
    ["recover", "--data", "data.json"],
])
def test_format_is_not_an_option_without_csv_output(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--format", "csv", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


@pytest.mark.parametrize("entries, message", [
    ([{"index": [0], "value": 1.0}, {"index": [1], "value": float("inf")}],
     "weight table value for (1,) must be finite and > 0, got inf"),
    ([{"index": [0], "value": 1.0}, {"index": [0], "value": 2.0}],
     "repeats index (0,)"),
])
def test_bad_weight_table_exit_2(tmp_path, capsys, entries, message):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    mu_path = write_json(tmp_path / "mu.json", {"entries": entries})
    code = main(["spectrum", "--symbol", sym_path, "--mu", mu_path, "--out-dir", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "spectrum-manifest.json").exists()


@pytest.mark.parametrize("argv, files", [
    (["spectrum", "--symbol", "sym.json"],
     {"json": ["spectrum.json"], "csv": ["spectrum_criteria.csv", "spectrum_values.csv"]}),
    (["schatten-scan", "--p", "2", "--alpha", "2"],
     {"json": ["schatten_scan.json"], "csv": ["schatten_scan.csv"]}),
    (["stability", "--symbol", "sym.json", "--delta-grid", "1e-3,1e-2", "--trials", "2"],
     {"json": ["stability.json"], "csv": ["stability.csv"]}),
])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_format_writes_and_lists_only_the_chosen_files(tmp_path, monkeypatch, argv, files, fmt):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "sym.json", diagonal_symbol(enumerate_dual(SU2(), 2.0)).to_dict())
    assert main([*argv, "--format", fmt, "--out-dir", "out"]) == 0
    manifest_name = f"{argv[0]}-manifest.json"
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted([*files[fmt], manifest_name])
    listed = json.loads((tmp_path / "out" / manifest_name).read_text())["outputs"]
    assert sorted(listed.values()) == [f"out/{name}" for name in sorted(files[fmt])]


@pytest.mark.parametrize("argv, message", [
    (["index", "--symbol", "sym.json", "--tolerance", "nan"],
     "rank tolerance must be finite and > 0, got nan"),
    (["schatten-scan", "--p", "nan", "--alpha", "2"],
     "Schatten exponent p must be finite and > 0, got nan"),
    (["schatten-scan", "--p", "2", "--alpha", "nan"],
     "decay alpha must be finite, got nan"),
    (["schatten-scan", "--p", "2", "--alpha", "2", "--ladder", "64,nan,256,512"],
     "cutoff ladder must be finite and increasing with at least 3 rungs, "
     "got [64.0, nan, 256.0, 512.0]"),
    (["spectrum", "--symbol", "sym.json", "--m", "nan"],
     "decay orders must be finite and >= 0, got m=nan, n=0.0"),
    (["spectrum", "--symbol", "sym.json", "--n", "nan"],
     "decay orders must be finite and >= 0, got m=0.0, n=nan"),
    (["spectrum", "--symbol", "sym.json", "--p", "nan"],
     "Schatten exponent p must be finite and > 0, got nan"),
])
def test_nan_option_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # each was accepted before, with a wrong rank or a NaN verdict and exit 0
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "sym.json", diagonal_symbol(enumerate_dual(SU2(), 2.0)).to_dict())
    assert main([*argv, "--out-dir", "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{argv[0]}-manifest.json").exists()


@pytest.mark.parametrize("ladder, message", [
    ("-5,-3,-1", "cutoff ladder rung -5 is negative"),
    ("64,128,2e6", "cutoff ladder rung 2e+06 has over 1000000 spins"),
    ("1,2,1e300", "cutoff ladder rung 1e+300 has over 1000000 spins"),
])
def test_schatten_scan_rung_guard_exit_2(tmp_path, capsys, ladder, message):
    # negative rungs gave "converges" with exit 0, and the spin arrays of a
    # large rung were built before any check
    out = tmp_path / "out"
    argv = ["schatten-scan", "--p", "2", "--alpha", "2", f"--ladder={ladder}"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "schatten-scan-manifest.json").exists()


def put(*keys, value):
    """Edit of a JSON payload that sets ``payload[k1][k2]... = value``."""
    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return payload
    return edit


MALFORMED = "malformed input file"


@pytest.mark.parametrize("kind, edit, message", [
    ("symbol", put("blocks", 0, "pi_index", value=5), MALFORMED),
    ("symbol", put("blocks", 0, "re", value="abc"), MALFORMED),
    ("symbol", put("blocks", 0, "re", value=None), MALFORMED),
    ("symbol", lambda p: {**p, "blocks": {"first": p["blocks"][0]}}, MALFORMED),
    ("symbol", put("codomain", "labels", value=3), MALFORMED),
    ("symbol", put("codomain", "group", value="su2"), MALFORMED),
    ("symbol", put("codomain", "labels", 1, "index", value=[1.5]),
     "label index (1.5,) must hold integers only"),
    ("symbol", put("blocks", 1, "rho_index", value="1"),
     "label index ('1',) must hold integers only"),
    ("data", put("attribution", 0, value=[[0]]), MALFORMED),
    ("data", put("attribution", 0, value=5), MALFORMED),
    ("data", put("triples", 0, "s", value=[1.0]), MALFORMED),
    ("data", put("triples", value=3), MALFORMED),
    ("mu", lambda _: {"entries": 5}, MALFORMED),
    ("mu", lambda _: {"entries": [5]}, MALFORMED),
    ("mu", lambda _: [1, 2], MALFORMED),
    ("mu", lambda _: {"entries": [{"index": 0, "value": 1.0}]}, MALFORMED),
    ("mu", lambda _: {"entries": [{"index": [0], "value": [1.0]}]}, MALFORMED),
], ids=[
    "pi-index-number", "re-string", "re-null", "blocks-object", "labels-number",
    "group-string", "catalog-index-fraction", "block-index-string", "attribution-short",
    "attribution-number", "s-list", "triples-number", "entries-number", "entry-number",
    "table-list", "index-number", "value-list",
])
def test_malformed_input_file_exit_2(tmp_path, monkeypatch, capsys, kind, edit, message):
    # each exited 1 with a traceback before: a TypeError, IndexError or
    # AttributeError from parsing, or a silently truncated label index
    monkeypatch.chdir(tmp_path)
    cat = enumerate_dual(SU2(), 2.0)
    sym = diagonal_symbol(cat, decay=1.0)
    if kind == "data":
        data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
        assert data.fully_attributed
        write_json(tmp_path / "data.json", edit(data.to_dict()))
        argv = ["recover", "--data", "data.json"]
    elif kind == "symbol":
        write_json(tmp_path / "sym.json", edit(sym.to_dict()))
        argv = ["spectrum", "--symbol", "sym.json"]
    else:
        write_json(tmp_path / "sym.json", sym.to_dict())
        write_json(tmp_path / "mu.json", edit(None))
        argv = ["spectrum", "--symbol", "sym.json", "--mu", "mu.json"]
    assert main([*argv, "--out-dir", "out"]) == 2
    err = capsys.readouterr().err
    assert message in err
    if message == MALFORMED:
        assert f"{MALFORMED} {argv[-1]}:" in err
    assert not (tmp_path / "out").exists()
