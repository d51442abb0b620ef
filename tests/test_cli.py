import argparse
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muhankel.cli as cli
import muhankel.recovery as recovery
from muhankel.cli import main
from muhankel.duals import MAX_DENSE_DIM, SU2, UNIT_WEIGHT, DualCatalog, Torus, enumerate_dual
from muhankel.operators import BlockOperator, assemble
from muhankel.recovery import forward
from muhankel.symbols import (
    Symbol,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
)

from helpers import list_layout, scaled, spectral_data_file, torus_halfline
from test_golden import run_case

GOLDEN = Path(__file__).parent / "golden"


def write_json(path, payload):
    """``payload`` written as JSON, or as it is if it is text already."""
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
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


def test_spectrum_single_casimir_level(tmp_path):
    # one label, so one Casimir level: the compactness indicators read that
    # level as the outer half, and both ratios of the identity are 1
    cat = enumerate_dual(SU2(), 0.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["singular_values"] == [1.0]
    [compactness] = [c for c in report["criteria"] if c["name"] == "compactness_indicators"]
    assert not compactness["satisfied"] and compactness["measured_value"] == 1.0
    assert "outer-half ratio=1," in compactness["detail"]


@pytest.mark.parametrize("codomain_cutoff", [2.0, None])
def test_spectrum_with_empty_catalogs(tmp_path, capsys, codomain_cutoff):
    # an empty domain has no Casimir level: the compactness indicators read
    # an empty outer half and fire both, with ratios 0
    empty = DualCatalog(SU2(), 0.0, [])
    codomain = empty if codomain_cutoff is None else enumerate_dual(SU2(), codomain_cutoff)
    sym_path = write_json(tmp_path / "sym.json", Symbol(codomain, empty, {}).to_dict())
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    assert ("compactness_indicators: ok (fired=['decay', 'spectral']; "
            "outer-half ratio=0, min-sv ratio=0)") in capsys.readouterr().out


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


def test_index_huge_tolerance_gives_rank_0(tmp_path, capsys):
    # tolerance times the largest singular value overflows: numpy warned
    # "overflow encountered in scalar multiply", an error under -W error
    argv = ["index", "--symbol", str(GOLDEN / "inputs" / "su2-random.json"),
            "--tolerance", "1e308", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "index.json").read_text())["numerical_rank"] == 0


@pytest.mark.parametrize("samples", ["-3", str(MAX_DENSE_DIM + 1)])
def test_index_samples_out_of_range_exit_2_before_any_work(tmp_path, capsys, monkeypatch, samples):
    # a negative count ran the whole index and then failed inside numpy; a
    # huge one allocated its samples. The symbol is read first of all, so a
    # read that does not happen means no work and no allocation either.
    def no_read(path, parse):
        raise AssertionError(f"{path} was read before --samples was checked")

    monkeypatch.setattr(cli, "_read_input", no_read)
    argv = ["index", "--symbol", "sym.json", "--samples", samples, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    message = f"--samples must be between 0 and {MAX_DENSE_DIM}, got {samples}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "index-manifest.json").exists()


@pytest.mark.parametrize("samples", ["0", "1"])
def test_index_few_samples_report_a_winding_error(tmp_path, samples):
    cat = torus_halfline(3)
    sym = hankel_symbol_from_fourier({1: 1.0}, cat, cat)
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    argv = ["index", "--symbol", sym_path, "--samples", samples, "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert "winding_error" in payload and "winding_number" not in payload


def test_index_all_positive_symbol(tmp_path):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["formula_index"] == 0
    assert payload["contributing_pairs"] == []
    assert payload["numerical_index"] == 0


def test_index_prints_each_negative_determinant_block(tmp_path, capsys):
    # det(-I_d) = (-1)^d: the blocks of odd dimension 1, 3 and 5 contribute d * d
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", scaled(diagonal_symbol(cat), -1.0).to_dict())
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "index.json").read_text())
    assert payload["formula_index"] == 35 and payload["numerical_index"] == 0
    assert [(p["pi_index"], p["rho_index"], p["weight"]) for p in payload["contributing_pairs"]] \
        == [([0], [0], 1), ([2], [2], 9), ([4], [4], 25)]
    assert ("formula index 35 (3 contributing pairs)\n  pair pi=[0] rho=[0] weight 1\n"
            "  pair pi=[2] rho=[2] weight 9\n  pair pi=[4] rho=[4] weight 25\n"
            in capsys.readouterr().out)


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


def test_recover_residual_builds_no_dense_matrix(tmp_path, capsys, monkeypatch):
    # three diagonal blocks of the SU(2) cutoff-2500 catalog (N = 5050): two
    # dense N x N matrices would be over the guard
    cat = enumerate_dual(SU2(), 2500.0)
    sym = diagonal_symbol(cat, decay=0.5)
    few = {(l, l): sym.blocks[(l, l)] for l in (cat.labels[0], cat.labels[50], cat.labels[-1])}
    data = forward(assemble(Symbol(cat, cat, few), UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", data.to_dict())

    def refuse(self):
        raise AssertionError("dense N x N matrix built")

    monkeypatch.setattr(BlockOperator, "to_dense", refuse)
    assert main(["recover", "--data", data_path, "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "recovered 3 blocks" in out
    assert float(out.split("max residual vs reassembled data:")[1].split()[0]) <= 1e-12


def test_block_index_of_floats_and_booleans_reads_as_integers(tmp_path, capsys):
    # (1,) == (1.0,) == (True,): such an index names the catalog's label 1
    cat = enumerate_dual(SU2(), 2.0)
    payload = diagonal_symbol(cat, decay=1.0).to_dict()
    payload["blocks"][1].update(pi_index=[1.0], rho_index=[True])
    sym_path = write_json(tmp_path / "sym.json", payload)
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path / "a")]) == 0
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat, decay=1.0).to_dict())
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "spectrum.json").read_text()
            == (tmp_path / "b" / "spectrum.json").read_text())


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


def all_ones(cat, dims):
    """Every block of the labels with the given dimensions set to ones: one
    support component whose matrix has rank one."""
    labels = [l for l in cat.labels if l.dim in dims]
    return Symbol(cat, cat, {(pi, rho): np.ones((pi.dim, rho.dim))
                             for pi in labels for rho in labels})


@pytest.mark.parametrize("group, dims, code", [
    (Torus(1), {1}, 3),  # 1 x 1 blocks: the formula applies, the SVD's failure is exit 3
    (SU2(), {1, 2}, 4),  # 1 x 2 blocks: neither route applies
])
def test_index_svd_failure_after_a_failed_certificate(tmp_path, capsys, monkeypatch, group,
                                                      dims, code):
    sym = all_ones(enumerate_dual(group, 2.0), dims)
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    monkeypatch.setattr(np.linalg, "svd", _failing_svd)
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == code
    assert "SVD did not converge" in capsys.readouterr().err
    assert len(calls) == 1  # the certificate ran, and failed


def test_index_failed_cholesky_leaves_the_rank_to_the_svd(tmp_path, monkeypatch):
    # the full-rank support component [[2, 1], [1, 2]] of two 1 x 1 blocks on a
    # diagonal, its Cholesky certificate failing
    cat = enumerate_dual(Torus(1), 2.0)
    a, b = cat.labels[:2]
    sym = Symbol(cat, cat, {(a, a): [[2.0]], (a, b): [[1.0]], (b, a): [[1.0]], (b, b): [[2.0]]})
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    calls = []

    def failing_cholesky(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    assert main(["index", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "index.json").read_text())
    assert len(calls) == 1 and report["numerical_rank"] == 2


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


def test_stability_trial_attribution_failure_exit_5(tmp_path, capsys):
    # at delta 0.05 every noisy triple of the golden matching spreads past one block
    symbol = Path(__file__).parent / "golden" / "inputs" / "su2-matching.json"
    code = main(["stability", "--symbol", str(symbol), "--mu", "0.5", "--nu", "-0.5",
                 "--delta-grid", "0.05", "--trials", "2", "--seed", "5",
                 "--out-dir", str(tmp_path)])
    assert code == 5
    assert ("attribution failure: tikhonov recovery: 10 of 10 triples are not attributable"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


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
    paths = [write_json(tmp_path / f"data{n}.json", spectral_data_file(cat, cat, triples, keys))
             for n, (triples, keys, _) in enumerate(cases)]
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


def test_recover_entry_whose_square_overflows_exit_2_without_a_warning(tmp_path, capsys):
    # 1e200 squared overflows to inf in the mass pass; the norm check refuses it
    payload = json.loads((GOLDEN / "inputs" / "su2-matching-data.json").read_text())
    payload["triples"][0]["u_re"][0] = 1e200
    data = write_json(tmp_path / "data.json", payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["recover", "--mu", "0", "--nu", "0", "--data", data, "--out-dir", str(out)])
    assert code == 2
    assert "triple 0: singular vectors must be unit norm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mu, value", [("1000", "inf"), ("-1000", "0.0")])
def test_out_of_range_weight_exit_2(tmp_path, capsys, mu, value):
    cat = enumerate_dual(SU2(), 6.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    code = main(["spectrum", "--symbol", sym_path, "--mu", mu, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"exponent {float(mu)} is {value}, not a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "index", "stability"])
@pytest.mark.parametrize("weight", ["400", "-400", "1"])
def test_weighted_block_out_of_float_range_exit_2(tmp_path, capfd, command, weight):
    # each weight is a float, their product or the weighted block is not: at
    # weight 1 every real part of the matching symbol is 1e308, and its block
    # of weight 3 overflows. Assembly refuses it before LAPACK sees an inf or
    # a zero block
    on_random = command != "stability" and weight != "1"
    path = GOLDEN / "inputs" / ("su2-random.json" if on_random else "su2-matching.json")
    message = {
        "400": f"weight mu(pi) nu(rho) of block {'((3,), (3,))' if on_random else '((4,), (3,))'} "
               "is inf, not a finite number > 0",
        "-400": "weight mu(pi) nu(rho) of block ((4,), (3,)) is 0.0, not a finite number > 0",
        "1": "block ((0,), (4,)) times its weight 3.0 overflows",
    }[weight]
    if weight == "1":
        payload = json.loads(path.read_text())
        for block in payload["blocks"]:
            block["re"] = [[1e308] * len(row) for row in block["re"]]
        path = write_json(tmp_path / "huge.json", payload)
    code = main([command, "--symbol", str(path), "--mu", weight, "--nu", weight,
                 "--out-dir", str(tmp_path / "out")])
    out, err = capfd.readouterr()
    assert code == 2
    assert f"error: {message}" in err
    assert "DLASCL" not in out + err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_nu_weight_table_missing_labels_exit_2(tmp_path, capsys):
    table = {"entries": [{"index": [0], "value": 1.0}, {"index": [1], "value": 1.0}]}
    code = main(["spectrum", "--symbol", str(GOLDEN / "inputs" / "su2-random.json"),
                 "--nu", write_json(tmp_path / "nu.json", table),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert ("nu weight table is missing 3 catalog labels, first: (2,)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("group, cutoff", [("su2", "nan"), ("torus:1", "inf")])
def test_catalog_non_finite_cutoff_exit_2(tmp_path, capsys, group, cutoff):
    code = main(["catalog", "--group", group, "--cutoff", cutoff, "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"cutoff must be finite and >= 0, got {cutoff}" in capsys.readouterr().err
    assert not (tmp_path / "catalog.json").exists()


def test_catalog_at_the_slot_guard_enumerates(tmp_path, capsys):
    # one index slot per circle; at cutoff 0 only the zero frequency is left
    assert main(["catalog", "--group", "torus:256", "--cutoff", "0",
                 "--out-dir", str(tmp_path)]) == 0
    assert "catalog: 1 labels, dense dimension 1" in capsys.readouterr().out


@pytest.mark.parametrize("group, slots", [("torus:257", 257), ("x".join(["su2"] * 257), 257)],
                         ids=["torus:257", "257 su2 factors"])
def test_catalog_past_the_slot_guard_exit_2(tmp_path, capsys, group, slots):
    code = main(["catalog", "--group", group, "--cutoff", "0", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert f"group has {slots} index slots, over the guard 256" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_console_catalog_past_the_slot_guard_prints_no_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "muhankel.cli", "catalog", "--group", "torus:2000",
                           "--cutoff", "0", "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "group has 2000 index slots, over the guard 256" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("option", ["--symbol", "--mu"])
def test_console_deeply_nested_input_prints_no_traceback(tmp_path, option):
    # the JSON decoder's RecursionError exited 1 with a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    sym = write_json(tmp_path / "sym.json", diagonal_symbol(enumerate_dual(SU2(), 2.0)).to_dict())
    inputs = {"--symbol": ["--symbol", str(deep)], "--mu": ["--symbol", sym, "--mu", str(deep)]}
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "muhankel.cli", "spectrum", *inputs[option],
                           "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert f"malformed input file {deep}: maximum recursion depth exceeded" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_refusal_of_a_large_input_file_prints_bounded_text(tmp_path, capsys):
    # the refusal quoted the whole value: a 0.5 MB list gave a 0.5 MB stderr line
    path = write_json(tmp_path / "sym.json", [list(range(80000))])
    assert Path(path).stat().st_size > 500_000
    assert main(["spectrum", "--symbol", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024
    assert err.startswith(f"error: malformed input file {path}: symbol is [[0, 1, 2")
    assert "symbol is [[0, 1, 2, 3, 4, 5, ...]], not an object" in err  # elided where quoted
    assert len(err.encode()) < 200
    assert not (tmp_path / "out").exists()


def test_refusal_text_still_long_is_cut_at_500_characters(tmp_path, capsys):
    # a 256-slot label index outside the catalog is quoted whole, so the file
    # reader's cut still bounds the line
    catalog = enumerate_dual(Torus(256), 0.0)
    sym = {"codomain": catalog.to_dict(), "domain": catalog.to_dict(),
           "blocks": [{"pi_index": [1] * 256, "rho_index": [0] * 256, "re": [[1.0]],
                       "im": [[0.0]]}]}
    path = write_json(tmp_path / "sym.json", sym)
    assert main(["spectrum", "--symbol", path, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed input file {path}: codomain label (1, 1, 1")
    assert err.endswith(" ... (cut at 500 characters)\n")
    assert not (tmp_path / "out").exists()


def test_symbol_file_with_a_billion_torus_slots_exit_2(tmp_path, capsys):
    # refused by the group's slot count, before a per-slot tuple is built
    catalog = {"group": {"kind": "torus", "d": 10**9}, "cutoff": 0.0, "labels": [{"index": [0]}]}
    path = write_json(tmp_path / "sym.json",
                      {"codomain": catalog, "domain": catalog, "blocks": []})
    code = main(["spectrum", "--symbol", path, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "group has 1000000000 index slots, over the guard 256" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_recover_true_symbol_on_other_catalogs_exit_2(tmp_path, capsys):
    inputs = Path(__file__).parent / "golden" / "inputs"
    code = main(["recover", "--data", str(inputs / "su2-matching-data.json"),
                 "--true-symbol", str(inputs / "torus-hankel.json"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert ("the true symbol's codomain catalog differs from the recovered one's"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_recover_partial_weight_table_exit_2(tmp_path, capsys):
    # the table covers only the 2 attributed codomain labels of 5; with
    # --true-symbol the solve was the only weighting and accepted it, exit 0
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_matching_symbol(cat, cat, 3, pairs=2)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", data.to_dict())
    sym_path = write_json(tmp_path / "sym.json", sym.to_dict())
    mu_path = write_json(tmp_path / "mu.json", {"entries": [
        {"index": list(pi.index), "value": 1.0} for pi in {pi for pi, _ in data.attribution}]})
    for extra in ([], ["--true-symbol", sym_path]):
        code = main(["recover", "--data", data_path, "--mu", mu_path, *extra,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2, extra
        assert "mu weight table is missing 3 catalog labels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_recover_listed_null_that_the_mass_rule_attributes_exit_2(tmp_path, capsys):
    # a null the rule contradicts was kept, and the solve then refused the
    # file as unattributable, exit 5
    inputs = Path(__file__).parent / "golden" / "inputs"
    payload = json.loads((inputs / "su2-matching-data.json").read_text())
    pi, rho = payload["attribution"][0]
    payload["attribution"][0] = None
    data_path = write_json(tmp_path / "data.json", payload)
    code = main(["recover", "--data", data_path, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert (f"triple 0: attribution null is not the mass rule's {json.dumps([pi, rho])}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_stability_delta_whose_square_overflows_exit_2(tmp_path, capsys, monkeypatch):
    # the trials of the first two levels ran, then the solve refused alpha = inf
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(cat).to_dict())
    trials, perturb = [], recovery.perturb_spectral_data
    monkeypatch.setattr(recovery, "perturb_spectral_data",
                        lambda *args: trials.append(args) or perturb(*args))
    code = main(["stability", "--symbol", sym_path, "--delta-grid", "1e-3,1e-2,1e200",
                 "--trials", "2", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "noise level delta 1e+200 has no finite square" in capsys.readouterr().err
    assert trials == [] and not (tmp_path / "out").exists()


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
    # float() read "2" and " 3 " as 2.0 and 3.0 and true as 1.0, with exit 0,
    # and a 400-digit integer raised OverflowError, a traceback
    *(([{"index": [0], "value": 1.0}, {"index": [1], "value": value}],
       f"mu.json: entry 1 value is {value!r}, not a number")
      for value in ["2", " 3 ", True, None, [2.0], []]),
    ([{"index": [0], "value": 10**400}], "mu.json: int too large to convert to float"),
    # every label of the catalog and one outside it: the extra entry was ignored, with exit 0
    ([*({"index": list(label.index), "value": 1.0} for label in enumerate_dual(SU2(), 2.0)),
      {"index": [99], "value": 2.0}],
     f"mu.json entry {len(enumerate_dual(SU2(), 2.0))}: label (99,) not in catalog"),
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
    # finite, but past a float: each ended in an OverflowError traceback
    (["spectrum", "--symbol", "sym.json", "--m", "2000"],
     "decay order m=2000.0 overflows at label (2,)"),
    (["spectrum", "--symbol", "sym.json", "--n", "2000"],
     "decay order n=2000.0 overflows at label (2,)"),
    (["spectrum", "--symbol", "sym.json", "--p", "1e-300"],
     "Schatten exponent p=1e-300 overflows the norm (sum 6)"),
    # each decay factor finite, their product not: M=inf with both criteria ok
    (["spectrum", "--symbol", "sym.json", "--m", "1000", "--n", "1000"],
     "decay orders m=1000.0, n=1000.0 overflow the class norm at block ((2,), (2,))"),
    # a series that overflows a float: one ended in an OverflowError traceback
    # (exit 1), the other wrote Infinity and NaN into schatten_scan.json
    (["schatten-scan", "--p", "1e-3", "--alpha", "1"],
     "cutoff ladder rung 64 overflows the series at p=0.001, alpha=1.0"),
    (["schatten-scan", "--p", "2", "--alpha", "-200"],
     "cutoff ladder rung 64 overflows the series at p=2.0, alpha=-200.0"),
    (["stability", "--symbol", "sym.json", "--delta-grid", ","], "empty list spec: ','"),
    (["stability", "--symbol", "sym.json", "--trials", "0"], "trials must be >= 1"),
])
def test_nan_option_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # each was accepted before, with a wrong rank or a NaN verdict and exit 0
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "sym.json", diagonal_symbol(enumerate_dual(SU2(), 2.0)).to_dict())
    assert main([*argv, "--out-dir", "out"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / f"{argv[0]}-manifest.json").exists()


def test_spectrum_schatten_exponent_past_a_floats_powers(tmp_path):
    # the largest value, 5.3, to the power 1e4 overflows a float: the norm stays
    # finite, between that value and its bound, and no file holds Infinity or NaN
    inputs = Path(__file__).parent / "golden" / "inputs"
    assert main(["spectrum", "--symbol", str(inputs / "su2-random.json"), "--mu", "0.5",
                 "--nu", "-0.5", "--p", "1e4", "--out-dir", str(tmp_path)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    for path in tmp_path.glob("*.json"):
        json.loads(path.read_text(), parse_constant=refuse)
    report = json.loads((tmp_path / "spectrum.json").read_text())
    values, norm = report["singular_values"], report["schatten"]["10000.0"]
    assert values[0] <= norm <= values[0] * len(values) ** 1e-4 * (1 + 1e-12)


def test_spectrum_writes_null_for_an_undefined_ratio(tmp_path):
    # one identity block on the top label: the half-cutoff support keeps no
    # singular value, so the min-sv ratio is x / 0 = inf, and spectrum.json
    # held "measured_value": Infinity, which is not JSON; the CSV keeps inf
    cat = enumerate_dual(SU2(), 6.0)
    top = cat.labels[-1]
    assert top.index == (4,)
    sym = Symbol(cat, cat, {(top, top): np.eye(5)})
    out = tmp_path / "out"
    assert main(["spectrum", "--symbol", write_json(tmp_path / "sym.json", sym.to_dict()),
                 "--out-dir", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads((out / "spectrum.json").read_text(), parse_constant=refuse)
    verdicts = {v["name"]: v for v in report["criteria"]}
    assert verdicts["compactness_indicators"]["measured_value"] is None
    assert not verdicts["compactness_indicators"]["satisfied"]
    assert all(v["measured_value"] is not None for name, v in verdicts.items()
               if name != "compactness_indicators")
    rows = (out / "spectrum_criteria.csv").read_text().splitlines()
    assert rows[-1].startswith("compactness_indicators,0.9,inf,False,")


def test_non_finite_json_output_fails_the_run(tmp_path, monkeypatch, capsys):
    # json.dumps wrote NaN and Infinity, which no JSON parser need accept
    monkeypatch.setattr(cli, "schatten_norm", lambda values, p: float("nan"))
    sym_path = write_json(tmp_path / "sym.json", diagonal_symbol(enumerate_dual(SU2(), 2.0))
                          .to_dict())
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path / "out")]) == 2
    assert "Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not (tmp_path / "out" / "spectrum.json").exists()


def dumps(value) -> str:
    """The layout every JSON output keeps."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def written(value) -> str:
    parts = []
    cli._json_parts(value, "", parts)
    return "".join(parts)


NUMBERS = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans(), st.none(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 2**70, -2**70]),
)
TEXT = st.one_of(st.text(), st.lists(st.sampled_from(
    ['"', "\\", "[", "], [", ", ", "]", "é", "日本", "\n", "\x00", "\ud800", "a"])).map("".join))
ROWS = st.lists(st.lists(NUMBERS, max_size=4) | st.tuples(NUMBERS, NUMBERS), max_size=4)
JSON_VALUES = st.recursive(
    NUMBERS | TEXT | st.lists(NUMBERS, max_size=6) | ROWS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_writer_gives_the_bytes_of_json_dumps(value):
    # the indenting json.dumps ran the pure-Python encoder; the writer hands
    # each list of numbers, each list of rows and each other leaf to the C encoder
    assert written(value) == dumps(value)


@pytest.mark.parametrize("value", [{1: 2.0}, {"a": {None: []}}, [{"b": 1, 2: 3}], {True: 1}])
def test_json_writer_refuses_a_key_that_is_not_a_str(value):
    # json.dumps writes such a key as a string, which would not read back as
    # the key written
    with pytest.raises(TypeError, match="keys must be str"):
        written(value)


@pytest.mark.parametrize("path", sorted(GOLDEN.rglob("*.json")),
                         ids=lambda path: str(path.relative_to(GOLDEN)))
def test_golden_json_files_re_encode_to_their_text(tmp_path, path):
    cli._write_json(tmp_path / "copy.json", json.loads(path.read_text()))
    assert (tmp_path / "copy.json").read_text() == path.read_text()


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


DROP = object()


def put(*keys, value):
    """Edit of a JSON payload that sets ``payload[k1][k2]... = value``, or
    deletes that entry where ``value`` is ``DROP``."""
    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        if value is DROP:
            del target[keys[-1]]
        else:
            target[keys[-1]] = value
        return payload
    return edit


MALFORMED = "malformed input file"
NOT_THE_RULES = "is not the mass rule's [[0], [0]]"
HUGE_LIST, HUGE_TEXT = list(range(100_000)), "x" * 500_000  # each over 0.5 MB as JSON
ELIDED_LIST, ELIDED_TEXT = "[0, 1, 2, 3, 4, 5, ...]", "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"


@pytest.mark.parametrize("kind, edit, message", [
    ("symbol", put("blocks", 0, "pi_index", value=5),
     f"{MALFORMED} sym.json: codomain label index 5 is not a list"),
    ("symbol", put("blocks", 0, "re", value="abc"), MALFORMED),
    ("symbol", put("blocks", 0, "re", value=None), MALFORMED),
    ("symbol", lambda p: {**p, "blocks": {"first": p["blocks"][0]}}, MALFORMED),
    ("symbol", put("codomain", "labels", value=3), MALFORMED),
    ("symbol", put("codomain", "group", value="su2"),
     f"{MALFORMED} sym.json: codomain group is 'su2', not an object"),
    ("symbol", put("codomain", "group",
                   value={"kind": "product", "factors": [{"kind": "su2"}, 5]}),
     f"{MALFORMED} sym.json: codomain group factor 1 is 5, not an object"),
    ("symbol", put("codomain", "labels", 1, value=7),
     f"{MALFORMED} sym.json: codomain label 1 is 7, not an object"),
    ("symbol", put("codomain", "labels", 1, "index", value=5),
     f"{MALFORMED} sym.json: codomain label 1: label index 5 is not a list"),
    ("symbol", lambda p: put("domain", "labels", value=p["domain"]["labels"] * 2)(p),
     f"{MALFORMED} sym.json: duplicate label (0,) at position 3"),
    ("symbol", put("blocks", 2, "pi_index", value=DROP),
     f"{MALFORMED} sym.json: block 2: missing field 'pi_index'"),
    ("symbol", put("blocks", 1, value=7), f"{MALFORMED} sym.json: block 1 is 7, not an object"),
    ("symbol", lambda p: json.dumps(p)[:13],
     f"{MALFORMED} sym.json: Expecting value: line 1 column 14 (char 13)"),
    ("symbol", put("codomain", "labels", 1, "index", value=[1.5]),
     "label index (1.5,) must hold integers only"),
    ("symbol", put("blocks", 1, "rho_index", value="1"),
     f"{MALFORMED} sym.json: domain label index '1' is not a list"),
    ("symbol", put("blocks", 1, "pi_index", value=[9]), "codomain label (9,) not in catalog"),
    ("symbol", put("blocks", 0, "pi_index", value=[0, 0]),
     "index (0, 0) has 2 slots, group needs 1"),
    ("symbol", put("blocks", 0, "im", value=DROP),
     f"{MALFORMED} sym.json: block 0: missing field 'im'"),
    ("symbol", lambda _: 7, f"{MALFORMED} sym.json: symbol is 7, not an object"),
    ("symbol", put("codomain", value=5), f"{MALFORMED} sym.json: codomain is 5, not an object"),
    ("symbol", put("domain", "cutoff", value=DROP),
     f"{MALFORMED} sym.json: domain: missing field 'cutoff'"),
    ("symbol", put("blocks", value=DROP), f"{MALFORMED} sym.json: symbol: missing field 'blocks'"),
    ("symbol", put("codomain", "group", value={"kind": "product"}),
     f"{MALFORMED} sym.json: codomain group: missing field 'factors'"),
    ("data", put("attribution", 0, 1, value=[9]),
     f"{MALFORMED} data.json: triple 0: attribution [[0], [9]] {NOT_THE_RULES}"),
    ("data", put("attribution", 0, value=[[0]]), f"triple 0: attribution [[0]] {NOT_THE_RULES}"),
    ("data", put("attribution", 0, value=5), f"triple 0: attribution 5 {NOT_THE_RULES}"),
    ("data", put("attribution", 0, value=[[0], [0], [0]]),
     f"triple 0: attribution [[0], [0], [0]] {NOT_THE_RULES}"),
    ("data", put("attribution", 0, value=[["x"], [1]]),
     f'triple 0: attribution [["x"], [1]] {NOT_THE_RULES}'),
    ("data", put("attribution", 0, value=[0, [1]]),
     f"{MALFORMED} data.json: triple 0: attribution [0, [1]] {NOT_THE_RULES}"),
    ("data", put("attribution", 3, value=[[1], [1]]),
     "triple 3: attribution [[1], [1]] is not the mass rule's [[2], [2]]"),
    ("data", lambda p: put("attribution", value=p["attribution"][:-1])(p),
     f"{MALFORMED} data.json: attribution must hold one key or null for each of the 6 triples"),
    ("data", put("attribution", value={}), "attribution must hold one key or null for each"),
    ("data", put("attribution", value=DROP),
     f"{MALFORMED} data.json: spectral data: missing field 'attribution'"),
    ("data", lambda _: 7, f"{MALFORMED} data.json: spectral data is 7, not an object"),
    ("data", put("triples", 0, "s", value=[1.0]), MALFORMED),
    ("data", put("triples", 2, "s", value=DROP),
     f"{MALFORMED} data.json: triple 2: missing field 's'"),
    ("data", put("triples", 1, value=7), f"{MALFORMED} data.json: triple 1 is 7, not an object"),
    ("data", put("triples", value=3), MALFORMED),
    ("data", put("triples", 1, "v_im", value=DROP),
     f"{MALFORMED} data.json: triple 1: missing field 'v_im'"),
    ("mu", lambda _: {"entries": 5}, MALFORMED),
    ("mu", lambda _: {"entries": [5]}, f"{MALFORMED} mu.json: weight table mu.json entry 0 is 5, "
     "not an object"),
    ("mu", lambda _: [1, 2], f"{MALFORMED} mu.json: weight table mu.json is [1, 2], not an object"),
    ("mu", lambda _: {"entries": [{"index": 0, "value": 1.0}]},
     f"{MALFORMED} mu.json: weight table mu.json entry 0: label index 0 is not a list"),
    ("mu", lambda _: {"entries": [{"index": [0], "value": [1.0]}]}, MALFORMED),
    ("mu", lambda _: {"entries": [{"index": [0]}]},
     f"{MALFORMED} mu.json: weight table mu.json entry 0: missing field 'value'"),
    ("mu", lambda _: {"entries": [{"index": ["x"], "value": 1.0}]},
     "weight table mu.json entry 0: label index ('x',) must hold integers only"),
    ("mu", lambda _: '{"entries": [', f"{MALFORMED} mu.json: Expecting value"),
    # a value of over 0.5 MB is quoted elided where the refusal is made
    ("symbol", put("codomain", "cutoff", value=HUGE_LIST),
     f"catalog field cutoff is {ELIDED_LIST}, not of type"),
    ("symbol", put("codomain", "labels", 0, value=HUGE_LIST),
     f"codomain label 0 is {ELIDED_LIST}, not an object"),
    ("symbol", put("codomain", "labels", 0, "index", value=HUGE_TEXT),
     f"label index {ELIDED_TEXT} is not a list"),
    ("symbol", put("codomain", "group", "kind", value=HUGE_TEXT),
     f"unknown group kind: {ELIDED_TEXT}"),
    ("symbol", put("codomain", "labels", 0, "index", value=[0.5] * 100_000),
     "label index (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ...) must hold integers only"),
    ("symbol", put("codomain", "labels", 0, "index", value=HUGE_LIST),
     "index (0, 1, 2, 3, 4, 5, ...) has 100000 slots, group needs 1"),
    ("symbol", put("blocks", 0, "re", 0, 0, value=HUGE_TEXT),
     f"re[0][0] is {ELIDED_TEXT}, not a number"),
    ("symbol", put("blocks", 0, "re", value=HUGE_TEXT), f"re is {ELIDED_TEXT}, not a list"),
    ("data", put("triples", 0, "u_runs", value=HUGE_TEXT),
     f"triple 0: u_runs is {ELIDED_TEXT}, not a list"),
    ("data", put("triples", 0, "u_runs", value=[HUGE_LIST]),
     f"triple 0: u_runs[0] is {ELIDED_LIST}, not a [start, length] pair"),
    ("data", put("triples", 0, "u_re", value={"re": HUGE_LIST}), f"got {{'re': {ELIDED_LIST}}}"),
    ("mu", lambda _: {"entries": [{"index": [0], "value": HUGE_LIST}]},
     f"entry 0 value is {ELIDED_LIST}, not a number"),
], ids=[
    "pi-index-number", "re-string", "re-null", "blocks-object", "labels-number",
    "group-string", "factor-number", "catalog-label-number", "catalog-index-number",
    "catalog-label-repeated", "pi-index-missing", "block-number", "symbol-truncated",
    "catalog-index-fraction", "block-index-string", "block-index-outside",
    "block-index-slots", "im-missing", "symbol-number", "codomain-number", "cutoff-missing",
    "blocks-missing", "factors-missing", "attribution-index-outside", "attribution-short",
    "attribution-number", "attribution-long", "attribution-index-string",
    "attribution-index-number", "attribution-other-key", "attribution-list-short",
    "attribution-object", "attribution-missing", "data-number", "s-list", "s-missing",
    "triple-number",
    "triples-number", "v-im-missing", "entries-number", "entry-number", "table-list",
    "index-number", "value-list", "value-missing", "table-index-string", "mu-truncated",
    "huge-cutoff", "huge-label", "huge-label-index", "huge-group-kind", "huge-fractions",
    "huge-slots", "huge-re-entry", "huge-re", "huge-runs", "huge-run", "huge-u-re",
    "huge-weight-value",
])
def test_malformed_input_file_exit_2(tmp_path, monkeypatch, capsys, kind, edit, message):
    # each exited 1 with a traceback before: a TypeError, IndexError or
    # AttributeError from parsing, or a silently truncated label index; a
    # missing field exited 2 naming only its key, a malformed label index
    # named no entry, a label index that is no list was reported by Python's
    # "object is not iterable" text, and a three-item attribution key was
    # read as a pair; an entry of the wrong type was named by Python's text
    # alone, and a reader's own refusal or a JSON syntax error named no file;
    # a whole file, catalog or weight-table entry that is not a JSON object
    # gave "'int' object is not subscriptable", naming no entry
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
    assert f"{MALFORMED} {argv[-1]}:" in err
    assert len(err.encode()) < 400  # no refusal quotes a value whole
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [
    # numpy reads a true among numbers as 1.0, and a block of booleans too
    (put("blocks", 1, "re", 0, 1, value=True), "block ((1,), (1,)) re[0][1] is True"),
    (put("blocks", 0, "im", value=[[False]]), "block ((0,), (0,)) im[0][0] is False"),
    (put("blocks", 2, "im", 1, 0, value="0.5"), "block ((2,), (2,)) im[1][0] is '0.5'"),
    # block by block, block 0's number is named before block 2's label
    (lambda p: put("blocks", 2, "pi_index", value=[99])(
        put("blocks", 0, "re", 0, 0, value="0.5")(p)), "block ((0,), (0,)) re[0][0] is '0.5'"),
], ids=["true-among-numbers", "false-block", "string", "number-before-label"])
def test_non_number_symbol_entry_exit_2(tmp_path, capsys, edit, message):
    cat = enumerate_dual(SU2(), 2.0)
    sym_path = write_json(tmp_path / "sym.json", edit(diagonal_symbol(cat).to_dict()))
    assert main(["spectrum", "--symbol", sym_path, "--out-dir", str(tmp_path)]) == 2
    assert f"{message}, not a number" in capsys.readouterr().err
    assert not (tmp_path / "spectrum-manifest.json").exists()


@pytest.mark.parametrize("edit, message", [
    (put("triples", 1, "u_re", 0, value="0.5"), "triple 1: u_re[0] is '0.5'"),
    (put("triples", 0, "s", value="0.5"), "triple 0: s is '0.5'"),
    (put("triples", 2, "v_im", 1, value=[0.0]), "triple 2: v_im[1] is [0.0]"),
    (put("triples", 1, "v_re", 0, value=True), "triple 1: v_re[0] is True"),
    # triple 0's s of 1.0 is read as a number, not as true
    (put("triples", 2, "s", value=True), "triple 2: s is True"),
], ids=["string-entry", "string-value", "nested-list", "boolean", "boolean-s-after-1"])
def test_non_number_spectral_data_exit_2(tmp_path, capsys, edit, message):
    cat = enumerate_dual(SU2(), 2.0)
    data = forward(assemble(diagonal_symbol(cat, decay=1.0), UNIT_WEIGHT, UNIT_WEIGHT))
    data_path = write_json(tmp_path / "data.json", edit(list_layout(data.to_dict())))
    assert main(["recover", "--data", data_path, "--out-dir", str(tmp_path)]) == 2
    assert f"{message}, not a number" in capsys.readouterr().err
    assert not (tmp_path / "recovered_symbol.json").exists()


def runs_of_triple_1(u_runs, u_re=(1.0,), u_im=(0.0,)):
    """Edit of triple 1's left vector, which lies on coordinate 1 of 6."""
    def edit(payload):
        payload["triples"][1].update(u_runs=u_runs, u_re=list(u_re), u_im=list(u_im))
        return payload
    return edit


RUN_PAIR = "not a [start, length] pair of integers"


@pytest.mark.parametrize("edit, message", [
    (runs_of_triple_1([[-1, 1]]), "triple 1: u_runs[0] starts at -1, before 0"),
    (runs_of_triple_1([[5, 2]], [1.0, 0.0], [0.0, 0.0]),
     "triple 1: u_runs[0] ends at 7, past the 6 coordinates"),
    (runs_of_triple_1([[0, 2], [1, 1]], [0.0, 1.0, 0.0], [0.0] * 3),
     "triple 1: u_runs[1] starts at 1, before 2"),
    (runs_of_triple_1([[3, 1], [1, 1]], [0.0, 1.0], [0.0, 0.0]),
     "triple 1: u_runs[1] starts at 1, before 4"),
    (runs_of_triple_1([[1.5, 1]]), f"triple 1: u_runs[0] is [1.5, 1], {RUN_PAIR}"),
    (runs_of_triple_1([[1, 0]]), "triple 1: u_runs[0] has length 0, not at least 1"),
    (runs_of_triple_1([[True, 1]]), f"triple 1: u_runs[0] is [True, 1], {RUN_PAIR}"),
    (runs_of_triple_1([[1, "1"]]), f"triple 1: u_runs[0] is [1, '1'], {RUN_PAIR}"),
    (runs_of_triple_1([1, 1]), f"triple 1: u_runs[0] is 1, {RUN_PAIR}"),
    (runs_of_triple_1(1), "triple 1: u_runs is 1, not a list of [start, length] pairs"),
    (runs_of_triple_1([[1, 2]]),
     "triple 1: u_re must be a list of 2 numbers, the total length of u_runs, got length 1"),
    (runs_of_triple_1([[1, 2]], [1.0, 0.0]),
     "triple 1: u_im must be a list of 2 numbers, the total length of u_runs, got length 1"),
], ids=["start-below-0", "past-n", "overlapping", "unsorted", "fractional-start",
        "zero-length", "boolean", "string", "flat-pair", "number", "total-differs",
        "im-shorter"])
def test_spectral_data_runs_exit_2(tmp_path, capsys, edit, message):
    cat = enumerate_dual(SU2(), 2.0)
    data = forward(assemble(diagonal_symbol(cat, decay=1.0), UNIT_WEIGHT, UNIT_WEIGHT))
    payload = data.to_dict()
    assert payload["triples"][1]["u_runs"] == [[1, 1]]
    data_path = write_json(tmp_path / "data.json", edit(payload))
    assert main(["recover", "--data", data_path, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "recovered_symbol.json").exists()


# ``to_dict`` writes each value field as float64 hex; the edits below act on
# the diagonal file of test_spectral_data_runs_exit_2, whose triples 1 and 2
# hold two values of v and triple 3 one value of u.
NOT_HEX = "is not the hex digits of"


@pytest.mark.parametrize("edit, message", [
    (put("triples", 1, "v_re", value="000000000000f03f000000000000000g"),
     f"triple 1: v_re {NOT_HEX} 2 float64 values"),
    # bytes.fromhex skips the spaces and decodes 15 bytes
    (put("triples", 2, "v_im", value="0000000000000080  00000000000080"),
     f"triple 2: v_im {NOT_HEX} 2 float64 values"),
    (put("triples", 3, "u_re", value="000000000000f03f00"),
     "triple 3: u_re must be a list of 1 numbers, the total length of u_runs, got a string "
     "of 18 characters, not 16 hex digits"),
    # a bad list number in triple 0 and a bad string in triple 2: triple 0 first,
    (lambda p: put("triples", 2, "u_re", value="x" * 16)(
        put("triples", 0, "u_re", value=["0.5"])(p)), "triple 0: u_re[0] is '0.5', not a number"),
    # and the other way round
    (lambda p: put("triples", 2, "u_re", value=[True])(
        put("triples", 0, "u_re", value="x" * 16)(p)), f"triple 0: u_re {NOT_HEX} 1 float64"),
], ids=["non-hex", "space", "wrong-length", "list-then-string", "string-then-list"])
def test_hex_spectral_data_exit_2(tmp_path, capsys, edit, message):
    cat = enumerate_dual(SU2(), 2.0)
    data = forward(assemble(diagonal_symbol(cat, decay=1.0), UNIT_WEIGHT, UNIT_WEIGHT))
    payload = data.to_dict()
    assert [len(t["v_re"]) for t in payload["triples"][1:3]] == [32, 32]
    data_path = write_json(tmp_path / "data.json", edit(payload))
    assert main(["recover", "--data", data_path, "--out-dir", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "recovered_symbol.json").exists()


# The parser is built on the first ``main`` call of a process and shared by
# every later call; commands are looked up by name at call time.

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def unbuilt_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()


def test_golden_argvs_run_twice_alike_on_one_parser(tmp_path, monkeypatch, unbuilt_parser):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cases = sorted(path.parent for path in GOLDEN.glob("*/argv.json"))
    assert len(cases) == 9
    runs, built = [], []
    for rerun in (0, 1):
        for case in cases:
            workdir = tmp_path / str(rerun) / case.name
            shutil.copytree(GOLDEN / "inputs", workdir / "inputs")
            stdout = run_case(json.loads((case / "argv.json").read_text()), workdir)
            built.append(len(builds))
            files = {str(p.relative_to(workdir)): p.read_bytes()
                     for p in sorted((workdir / "out").rglob("*"))}
            runs.append((stdout, files))
    assert runs[:9] == runs[9:]
    assert built[0] > 0 and set(built) == {built[0]}  # every build was in the first call
    assert cli.build_parser.cache_info().currsize == 1


def test_usage_error_and_version_leave_the_next_call_unchanged(tmp_path, monkeypatch, capsys,
                                                               unbuilt_parser):
    monkeypatch.chdir(tmp_path)
    cat = enumerate_dual(SU2(), 2.0)
    write_json(tmp_path / "sym.json", random_matching_symbol(cat, cat, seed=0).to_dict())
    argv = ["spectrum", "--symbol", "sym.json", "--out-dir", "out"]

    def run(extra=()):
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        assert main([*argv, *extra]) == 0
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}
        return capsys.readouterr().out, files

    first = run()
    assert run(["--p", "3", "--format", "json", "--mu", "0.5"]) != first
    with pytest.raises(SystemExit) as usage:
        main(["spectrum"])
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert run() == first


def test_command_patched_after_the_first_call_runs(tmp_path, monkeypatch, unbuilt_parser):
    assert main(["catalog", "--group", "su2", "--cutoff", "2", "--out-dir", str(tmp_path)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_index", lambda args: seen.append(args.symbol) or 7)
    assert main(["index", "--symbol", "sym.json"]) == 7
    assert seen == ["sym.json"]


def test_import_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import muhankel.cli as cli; print(cli.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "0\n"
