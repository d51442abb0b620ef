import json

import numpy as np
import pytest

from muhankel.cli import main
from muhankel.duals import (
    PowerLaw,
    SU2,
    Torus,
    UNIT_WEIGHT,
    casimir,
    dim,
    enumerate_dual,
)
from muhankel.operators import assemble
from muhankel.spectral import (
    carleson_test,
    compactness_report,
    norm_criteria,
    schatten_norm,
    schatten_series_scan,
    schur_constant,
    spectrum,
)
from muhankel.symbols import (
    Symbol,
    SymbolClassParams,
    class_norm,
    diagonal_symbol,
    random_matching_symbol,
    random_symbol,
)


def sorted_desc(values):
    return np.sort(np.asarray(values))[::-1]


def test_spectrum_diagonal_su2():
    cat = enumerate_dual(SU2(), 6.0)
    s, t = 0.7, 0.3
    op = assemble(diagonal_symbol(cat), PowerLaw(s), PowerLaw(t))
    rep = spectrum(op)
    expected = []
    for label in cat.labels:
        l = label.index[0] / 2
        expected.extend([(1 + l) ** (s + t)] * dim(label))
    np.testing.assert_allclose(
        rep.singular_values, sorted_desc(expected), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(rep.operator_norm, 3.0, rtol=1e-12)


def test_spectrum_zero_operator():
    cat = enumerate_dual(SU2(), 2.0)
    rep = spectrum(assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT))
    assert rep.operator_norm == 0.0


def test_global_values_are_union_of_block_values():
    su2 = enumerate_dual(SU2(), 6.0)
    torus = enumerate_dual(Torus(1), 16.0)
    for codomain, domain in [(su2, su2), (torus, torus), (su2, torus)]:
        for seed in range(10):
            sym = random_matching_symbol(codomain, domain, seed)
            rep = spectrum(assemble(sym, PowerLaw(0.4), PowerLaw(-0.4)))
            union = (
                np.concatenate(list(rep.per_block.values()))
                if rep.per_block
                else np.zeros(0)
            )
            padded = np.zeros(rep.singular_values.size)
            padded[: union.size] = sorted_desc(union)
            np.testing.assert_allclose(
                rep.singular_values, padded, rtol=0, atol=1e-10
            )


def test_hs_identity_for_general_support():
    # ||A||_HS^2 equals the blockwise HS sum even when blocks share labels
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_symbol(cat, cat, 0.7, 21)
    op = assemble(sym, PowerLaw(0.3), UNIT_WEIGHT)
    rep = spectrum(op)
    blockwise = np.sqrt(sum(float(np.sum(v**2)) for v in rep.per_block.values()))
    np.testing.assert_allclose(schatten_norm(rep, 2.0), blockwise, rtol=1e-10)
    assert rep.operator_norm >= max(v[0] for v in rep.per_block.values()) - 1e-10


def test_schatten_p2_is_frobenius():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.5, 2), PowerLaw(0.5), PowerLaw(0.5))
    rep = spectrum(op)
    np.testing.assert_allclose(
        schatten_norm(rep, 2.0), np.linalg.norm(op.to_dense(), "fro"), rtol=1e-10
    )


def test_schatten_single_value():
    cat = enumerate_dual(Torus(1), 0.0)
    sym = Symbol(cat, cat, {(cat.labels[0], cat.labels[0]): np.array([[3.0]])})
    rep = spectrum(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    for p in (0.5, 1.0, 2.0, 7.0):
        np.testing.assert_allclose(schatten_norm(rep, p), 3.0, rtol=1e-12)


def test_schatten_p1_diagonal_hand_sum():
    # s + t = 1: trace norm is sum over spins of d_l (1+l)^1
    for group, frozen in [(SU2(), 10.0), (SU2(half_integers=False), 7.0)]:
        cat = enumerate_dual(group, 2.0)  # spins with l(l+1) <= 2
        op = assemble(diagonal_symbol(cat), PowerLaw(0.5), PowerLaw(0.5))
        oracle = sum(dim(lab) * (1 + lab.index[0] / 2) for lab in cat.labels)
        assert oracle == frozen
        np.testing.assert_allclose(
            schatten_norm(spectrum(op), 1.0), oracle, rtol=1e-12
        )


def test_schatten_monotone_in_p():
    cat = enumerate_dual(SU2(), 6.0)
    rep = spectrum(assemble(random_symbol(cat, cat, 0.5, 5), UNIT_WEIGHT, UNIT_WEIGHT))
    ps = [0.5, 1.0, 1.5, 2.0, 4.0, 10.0]
    norms = [schatten_norm(rep, p) for p in ps]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_singular_values_scale_with_symbol():
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_symbol(cat, cat, 0.5, 6)
    base = spectrum(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)).singular_values
    scaled = spectrum(assemble(sym.scaled(-2j), UNIT_WEIGHT, UNIT_WEIGHT)).singular_values
    np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12, atol=1e-12)


def test_schur_bound_holds_on_random_instances():
    su2 = enumerate_dual(SU2(), 6.0)
    torus = enumerate_dual(Torus(1), 9.0)
    rng = np.random.default_rng(0)
    for seed in range(100):
        cat = su2 if seed % 2 else torus
        mu, nu = PowerLaw(rng.uniform(-1, 1)), PowerLaw(rng.uniform(-1, 1))
        sym = random_symbol(cat, cat, rng.uniform(0.1, 1.0), seed)
        verdict, _ = norm_criteria(assemble(sym, mu, nu), SymbolClassParams(2.0, 2.0))
        assert verdict.satisfied, verdict.detail


def test_schur_bound_zero_symbol():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    verdict, _ = norm_criteria(op, SymbolClassParams(1.0, 1.0))
    assert verdict.bound_value == 0.0
    assert verdict.measured_value == 0.0
    assert verdict.satisfied


def test_schur_bound_dominates_single_block():
    # on singleton catalogs with unit weights and m = n = 0, C >= 1
    cat = enumerate_dual(Torus(1), 0.0)
    label = cat.labels[0]
    sym = Symbol(cat, cat, {(label, label): np.array([[2.5]])})
    params = SymbolClassParams(0.0, 0.0)
    assert schur_constant(params, cat, cat) >= 1.0
    verdict, _ = norm_criteria(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT), params)
    assert verdict.bound_value >= 2.5


def test_norm_equivalence_block_diagonal_tight():
    cat = enumerate_dual(SU2(), 6.0)
    for seed in range(5):
        sym = random_matching_symbol(cat, cat, seed)
        op = assemble(sym, PowerLaw(0.2), PowerLaw(-0.2))
        _, verdict = norm_criteria(op, SymbolClassParams(1.0, 1.0))
        assert verdict.satisfied
        lower = class_norm(op, SymbolClassParams(0.0, 0.0))
        np.testing.assert_allclose(verdict.measured_value, lower, rtol=1e-10)


def test_norm_equivalence_zero_symbol():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    _, verdict = norm_criteria(op, SymbolClassParams(1.0, 1.0))
    assert verdict.satisfied
    assert verdict.measured_value == 0.0 and verdict.bound_value == 0.0


def test_norm_equivalence_random_dense():
    cat = enumerate_dual(SU2(), 6.0)
    for seed in range(10):
        sym = random_symbol(cat, cat, 0.8, seed)
        op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
        _, verdict = norm_criteria(op, SymbolClassParams(0.5, 0.5))
        assert verdict.satisfied, verdict.detail


def test_carleson_bounded_torus():
    # summand (1+|n|)^{-2} (1+n^2)^{-3} decays like n^{-8}: integral test
    # gives a convergent tail, so the truncated sums must flatten out
    cat = enumerate_dual(Torus(1), 400.0)
    verdict = carleson_test(PowerLaw(-1.0), cat, 3.0)
    assert verdict.satisfied, verdict.detail


def test_carleson_growing_su2():
    # summand (2l+1)^2 (1+l)^{-1} (1+l(l+1))^{-1} ~ 4/l: integral test gives
    # a log-divergent sum, so the outer half keeps adding mass
    cat = enumerate_dual(SU2(), 100.0)
    verdict = carleson_test(PowerLaw(-0.5), cat, 1.0)
    assert not verdict.satisfied, verdict.detail


def test_carleson_empty_catalog():
    cat = enumerate_dual(Torus(1), 4.0).restrict(lambda l: False)
    verdict = carleson_test(UNIT_WEIGHT, cat, 1.0)
    assert verdict.satisfied
    assert verdict.measured_value == 0.0


def test_carleson_rejects_nonpositive_exponent():
    cat = enumerate_dual(Torus(1), 4.0)
    with pytest.raises(ValueError):
        carleson_test(UNIT_WEIGHT, cat, 0.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_carleson_rejects_non_finite_exponent(t):
    # nan gave a NaN verdict and inf a satisfied one
    cat = enumerate_dual(Torus(1), 4.0)
    with pytest.raises(ValueError, match=f"Carleson exponent must be finite and > 0, got {t}"):
        carleson_test(UNIT_WEIGHT, cat, t)


def test_compactness_decaying_family_fires_both():
    cat = enumerate_dual(SU2(), 30.0)
    op = assemble(diagonal_symbol(cat), UNIT_WEIGHT, PowerLaw(-2.0))
    verdict = compactness_report(op, SymbolClassParams(0.0, 0.0))
    assert verdict.satisfied
    assert "decay" in verdict.detail and "spectral" in verdict.detail


def test_compactness_identity_pattern_fails_spectral():
    cat = enumerate_dual(SU2(), 30.0)
    op = assemble(diagonal_symbol(cat), UNIT_WEIGHT, UNIT_WEIGHT)
    verdict = compactness_report(op, SymbolClassParams(0.0, 0.0))
    assert not verdict.satisfied
    np.testing.assert_allclose(verdict.measured_value, 1.0, rtol=1e-10)


def test_compactness_zero_symbol_vacuous():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    assert compactness_report(op, SymbolClassParams(0.0, 0.0)).satisfied


def test_compactness_ratio_monotone_in_decay():
    cat = enumerate_dual(SU2(), 30.0)
    ratios = []
    for s in (0.5, 1.0, 1.5, 2.0):
        op = assemble(diagonal_symbol(cat), UNIT_WEIGHT, PowerLaw(-s))
        ratios.append(compactness_report(op, SymbolClassParams(0.0, 0.0)).measured_value)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize(
    "p,alpha,expect",
    [(2.0, 2.0, True), (2.0, 1.0, False), (2.0, 1.5, False)],
)
def test_schatten_series_verdicts(p, alpha, expect):
    verdict, _ = schatten_series_scan(alpha, p)
    assert verdict.satisfied is expect, verdict.detail


def test_schatten_series_rejects_non_su2():
    with pytest.raises(ValueError):
        schatten_series_scan(2.0, 2.0, group=Torus(1))


def test_schatten_series_operator_cross_reference():
    # rung value must equal the Schatten norm of the assembled diagonal
    # operator with the same decay on the matching truncation
    p, alpha = 2.0, 1.0
    _, rows = schatten_series_scan(alpha, p, (1, 2, 4), SU2(half_integers=False))
    cat = enumerate_dual(SU2(half_integers=False), 4.0 * 5.0)  # l <= 4
    assert max(l.index[0] // 2 for l in cat.labels) == 4
    op = assemble(diagonal_symbol(cat, decay=alpha), UNIT_WEIGHT, UNIT_WEIGHT)
    np.testing.assert_allclose(
        rows[-1]["operator_schatten"],
        schatten_norm(spectrum(op), p),
        rtol=1e-10,
    )


def test_partial_sum_values():
    # first rung of the integer grid, p*alpha = 4, checked by hand:
    # l=0: 1, l=1: 9/16 = 0.5625
    _, rows = schatten_series_scan(2.0, 2.0, (1, 2, 4), SU2(half_integers=False))
    np.testing.assert_allclose(rows[0]["partial_sum"], 1.0 + 9.0 / 16.0, rtol=1e-12)


def test_schatten_norm_rejects_nonpositive_p():
    cat = enumerate_dual(SU2(), 2.0)
    rep = spectrum(assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT))
    with pytest.raises(ValueError):
        schatten_norm(rep, 0.0)


def component_shapes(blocks, keep=lambda label: True):
    """(rows, cols) in dense coordinates of each connected component of the
    bipartite graph of the kept blocks (codomain and domain labels as its
    two sides), with the number of blocks in each."""
    keys = [(pi, rho) for pi, rho in blocks if keep(pi) and keep(rho)]
    root = {}

    def find(node):
        while root.get(node, node) != node:
            node = root[node]
        return node

    for pi, rho in keys:
        a, b = find(("out", pi)), find(("in", rho))
        if a != b:
            root[a] = b
    groups = {}
    for pi, rho in keys:
        group = groups.setdefault(find(("out", pi)), [set(), set(), 0])
        group[0].add(pi)
        group[1].add(rho)
        group[2] += 1
    return [
        ((sum(dim(l) for l in rows), sum(dim(l) for l in cols)), count)
        for rows, cols, count in groups.values()
    ]


def test_spectrum_command_factors_each_operator_once(tmp_path, monkeypatch):
    # spectrum: one SVD per stored block (the block norms of the norm criteria
    # and the compactness columns reuse it, so SVDs inside np.linalg.norm
    # count too; a single-block component reuses it as well), plus one per
    # multi-block support component of the full operator and of the
    # half-cutoff support that the compactness indicator reads; index: one
    # per component
    cat = enumerate_dual(SU2(), 6.0)
    connected = random_symbol(cat, cat, 0.5, 1)
    matching = random_matching_symbol(cat, cat, 2, pairs=len(cat.labels))

    def half(sym):
        return component_shapes(sym.blocks, lambda l: casimir(l) <= cat.cutoff / 2)

    # the cases this pins: the connected operator is one component over every
    # label, and its half-cutoff support leaves labels out; the matching's
    # half-cutoff support is single blocks whose SVDs the spectrum already took
    n = cat.dense_dim
    n_half = cat.restrict(lambda l: casimir(l) <= cat.cutoff / 2).dense_dim
    assert [shape for shape, _ in component_shapes(connected.blocks)] == [(n, n)]
    assert [shape for shape, _ in half(connected)] != [(n_half, n_half)]
    assert half(matching) and all(count == 1 for _, count in half(matching))
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    # np.linalg.norm(block, 2) calls the svd of numpy's linalg implementation
    # module, not the public name
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg  # numpy 2 / 1
    monkeypatch.setattr(impl, "svd", counting_svd)
    sym_path = tmp_path / "sym.json"
    common = ["--symbol", str(sym_path), "--mu", "0.5", "--nu", "-0.5",
              "--out-dir", str(tmp_path)]
    for sym in (connected, matching):
        sym_path.write_text(json.dumps(sym.to_dict()))
        full = component_shapes(sym.blocks)
        shapes.clear()
        assert main(["spectrum", *common, "--m", "1", "--n", "1"]) == 0
        want = [block.shape for block in sym.blocks.values()]
        want += [shape for shape, count in full + half(sym) if count > 1]
        assert sorted(shapes) == sorted(want)

        shapes.clear()
        assert main(["index", *common]) == 0
        assert sorted(shapes) == sorted(shape for shape, _ in full)
