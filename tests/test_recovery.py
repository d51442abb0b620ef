import json
import re
from pathlib import Path

import numpy as np
import pytest

from muhankel.duals import (
    DualCatalog,
    IrrepLabel,
    PowerLaw,
    SU2,
    TableWeight,
    Torus,
    UNIT_WEIGHT,
    enumerate_dual,
    weight_eval,
)
from muhankel.operators import assemble
from muhankel.recovery import (
    ATTRIBUTION_MASS,
    AttributionError,
    SpectralData,
    forward,
    max_entry_error,
    max_residual,
    perturb_spectral_data,
    stability_scan,
    tikhonov_recover,
)
from muhankel.symbols import (
    Symbol,
    diagonal_symbol,
    random_matching_symbol,
)

from helpers import separated_matching, spectral_data_file, torus_halfline


def stacked(codomain, domain, triples):
    """SpectralData from (s, u, v) tuples, one column per tuple."""
    k = len(triples)
    s = np.array([t[0] for t in triples], dtype=float)
    u = np.array([t[1] for t in triples], dtype=complex).reshape(k, codomain.dense_dim).T
    v = np.array([t[2] for t in triples], dtype=complex).reshape(k, domain.dense_dim).T
    return SpectralData(codomain, domain, s, u, v)


def listed(codomain, domain, triples, attribution):
    """SpectralData read from the file of (s, u, v) tuples that lists
    ``attribution``, (pi, rho) label pairs or None, as its keys."""
    return SpectralData.from_dict(spectral_data_file(codomain, domain, triples, attribution))


def test_forward_diagonal_structure():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(diagonal_symbol(cat), PowerLaw(0.4), PowerLaw(0.6))
    data = forward(op)
    assert data.fully_attributed
    for t, (pi, rho) in zip(data.triples, data.attribution):
        assert pi == rho
        l = pi.index[0] / 2
        np.testing.assert_allclose(t.s, (1 + l) ** 1.0, rtol=1e-12)
        # vectors supported in the matching block
        np.testing.assert_allclose(
            np.sum(np.abs(t.u[cat.slice_of(pi)]) ** 2), 1.0, rtol=1e-10
        )


def test_forward_zero_operator_empty():
    cat = enumerate_dual(SU2(), 2.0)
    data = forward(assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT))
    assert data.triples == [] and data.attribution == []


def test_forward_matches_dense_svd():
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_matching_symbol(cat, cat, 4)
    op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
    data = forward(op)
    dense = op.to_dense()
    oracle = np.linalg.svd(dense, compute_uv=False)
    oracle = oracle[oracle > 1e-12 * oracle[0]]
    np.testing.assert_allclose([t.s for t in data.triples], oracle, rtol=1e-12)
    rebuilt = sum(t.s * np.outer(t.u, t.v.conj()) for t in data.triples)
    np.testing.assert_allclose(rebuilt, dense, atol=1e-10)


def test_round_trip_identity():
    su2 = enumerate_dual(SU2(), 6.0)
    torus = torus_halfline(5)
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    for base_seed, (cod, dom) in [(0, (su2, su2)), (1, (torus, torus)), (2, (su2, torus))]:
        sym = separated_matching(cod, dom, mu, nu, base_seed)
        data = forward(assemble(sym, mu, nu))
        recovered = tikhonov_recover(data, mu, nu, 0.0)
        assert set(recovered.blocks) == set(sym.blocks)
        for key in sym.blocks:
            np.testing.assert_allclose(
                recovered.blocks[key], sym.blocks[key], atol=1e-9
            )


def test_recover_single_block_known_svd():
    cat = enumerate_dual(SU2(), 2.0)
    label = cat.labels[1]  # d = 2
    block = np.diag([3.0, 1.0]).astype(complex)
    sym = Symbol(cat, cat, {(label, label): block})
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert sorted(t.s for t in data.triples) == [1.0, 3.0]
    recovered = tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, 0.0)
    np.testing.assert_allclose(recovered.blocks[(label, label)], block, atol=1e-12)


@pytest.mark.parametrize("exponent", [300.0, -300.0])
def test_exact_recovery_at_weights_whose_square_leaves_float_range(exponent):
    # w = 3^(+-600) at the spin-2 block: w * w overflows to inf or underflows to 0
    cat = enumerate_dual(SU2(), 6.0)
    key = (cat.labels[-1], cat.labels[-1])
    block = np.random.default_rng(3).standard_normal((5, 5)) + 0j
    sym, weight = Symbol(cat, cat, {key: block}), PowerLaw(exponent)
    recovered = tikhonov_recover(forward(assemble(sym, weight, weight)), weight, weight, 0.0)
    assert np.linalg.norm(recovered.blocks[key] - block) <= 1e-12 * np.linalg.norm(block)


@pytest.mark.parametrize("exponent, product", [(400.0, "inf"), (-400.0, "0.0")])
@pytest.mark.parametrize("alpha", [0.0, 1e-3])
def test_recovery_refuses_a_weight_product_out_of_float_range(exponent, product, alpha):
    # each weight 3^(+-400) at the spin-2 label is a float, their product is not;
    # the data come from unit weights, so the block holds triples. Assembly
    # refuses the same product
    cat = enumerate_dual(SU2(), 6.0)
    top = cat.labels[-1]
    sym = Symbol(cat, cat, {(top, top): np.eye(5) + 0j})
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    weight = PowerLaw(exponent)
    refusal = re.escape(
        f"weight mu(pi) nu(rho) of block ((4,), (4,)) is {product}, not a finite number > 0")
    with pytest.raises(ValueError, match=refusal):
        tikhonov_recover(data, weight, weight, alpha)
    with pytest.raises(ValueError, match=refusal):
        assemble(sym, weight, weight)


def test_recover_empty_data_gives_zero_symbol():
    cat = enumerate_dual(SU2(), 2.0)
    data = stacked(cat, cat, [])
    assert tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, 0.0).blocks == {}


def test_recovery_refuses_shared_domain_label():
    # two blocks in the same column: singular vectors straddle both row
    # blocks, the mass rule cannot pick one, recovery must refuse
    cat = torus_halfline(2)
    n0, n1, n2 = cat.labels
    sym = Symbol(cat, cat, {(n0, n1): np.array([[1.0]]), (n2, n1): np.array([[1.0]])})
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert not data.fully_attributed
    with pytest.raises(AttributionError, match="gap"):
        tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, 0.0)


def test_tikhonov_scalar_case():
    # minimize (a - 2)^2 + alpha a^2 with alpha = 1: calculus gives a = 1
    cat = torus_halfline(0)  # single label n = 0
    label = cat.labels[0]
    sym = Symbol(cat, cat, {(label, label): np.array([[2.0]])})
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    rec = tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, alpha=1.0)
    np.testing.assert_allclose(rec.blocks[(label, label)], [[1.0]], rtol=1e-12)


def test_tikhonov_closed_form_against_lstsq():
    # oracle: solve the stacked least-squares system min |w a - t|^2 + alpha|a|^2
    rng = np.random.default_rng(8)
    for w, alpha in [(0.5, 0.2), (2.0, 1.5), (1.0, 0.0)]:
        t = complex(rng.standard_normal() + 1j * rng.standard_normal())
        design = np.array([[w], [np.sqrt(alpha)]])
        target = np.array([t, 0.0])
        oracle = np.linalg.lstsq(design, target, rcond=None)[0][0]
        closed = t / (w + alpha / w)  # w t / (w^2 + alpha), as the solver computes it
        np.testing.assert_allclose(closed, oracle, rtol=1e-10)


def test_tikhonov_weighted_penalty_variant():
    cat = torus_halfline(0)
    label = cat.labels[0]
    sym = Symbol(cat, cat, {(label, label): np.array([[2.0]])})
    mu = TableWeight({label: 2.0})
    data = forward(assemble(sym, mu, UNIT_WEIGHT))
    # weighted penalty: y = w a solves (y - t)^2 + alpha y^2, a = t / (w (1+alpha))
    rec = tikhonov_recover(data, mu, UNIT_WEIGHT, alpha=1.0, weighted_penalty=True)
    np.testing.assert_allclose(rec.blocks[(label, label)], [[4.0 / (2.0 * 2.0)]], rtol=1e-12)


def test_tikhonov_large_alpha_kills_symbol():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 20)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    rec = tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, alpha=1e12)
    assert max_entry_error(rec, Symbol(cat, cat, {})) < 1e-9


def test_tikhonov_error_monotone_in_alpha():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 30)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    errors = []
    for alpha in (0.0, 0.01, 0.1, 1.0, 10.0):
        rec = tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, alpha)
        errors.append(np.linalg.norm(assemble(rec, UNIT_WEIGHT, UNIT_WEIGHT).to_dense()
                                     - assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT).to_dense()))
    assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))


def test_tikhonov_rejects_negative_alpha():
    cat = enumerate_dual(SU2(), 2.0)
    data = stacked(cat, cat, [])
    with pytest.raises(ValueError):
        tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, alpha=-0.1)


def test_recovery_commutes_with_weight_rescaling():
    cat = enumerate_dual(SU2(), 6.0)
    mu, nu = PowerLaw(0.5), PowerLaw(0.25)
    sym = separated_matching(cat, cat, mu, nu, 40)
    scaled_mu = TableWeight({l: 3.0 * weight_eval(mu, l) for l in cat.labels})
    data = forward(assemble(sym, scaled_mu, nu))
    recovered = tikhonov_recover(data, scaled_mu, nu, 0.0)
    for key in sym.blocks:
        np.testing.assert_allclose(recovered.blocks[key], sym.blocks[key], atol=1e-9)


def test_forward_continuity_weyl():
    # perturbing the symbol by eps in the weighted HS-sum norm moves every
    # singular value by at most eps
    cat = enumerate_dual(SU2(), 6.0)
    mu, nu = PowerLaw(0.2), PowerLaw(-0.2)
    rng = np.random.default_rng(77)
    for seed in range(10):
        sym = random_matching_symbol(cat, cat, seed)
        bump = {
            key: 1e-3 * (rng.standard_normal(b.shape) + 1j * rng.standard_normal(b.shape))
            for key, b in sym.blocks.items()
        }
        perturbed = Symbol(cat, cat, {k: sym.blocks[k] + bump[k] for k in sym.blocks})
        eps = np.linalg.norm(assemble(perturbed, mu, nu).to_dense()
                             - assemble(sym, mu, nu).to_dense())
        s0 = np.linalg.svd(assemble(sym, mu, nu).to_dense(), compute_uv=False)
        s1 = np.linalg.svd(assemble(perturbed, mu, nu).to_dense(), compute_uv=False)
        assert np.max(np.abs(s0 - s1)) <= eps + 1e-12


def test_perturb_zero_delta_is_lossless():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 50)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    noisy = perturb_spectral_data(data, 0.0, np.random.default_rng(0))
    rec = tikhonov_recover(noisy, UNIT_WEIGHT, UNIT_WEIGHT, 0.0)
    for key in sym.blocks:
        np.testing.assert_allclose(rec.blocks[key], sym.blocks[key], atol=1e-9)


def test_stability_zero_noise_row():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 60)
    rows, _ = stability_scan(sym, UNIT_WEIGHT, UNIT_WEIGHT, [0.0], trials=3, seed=1)
    assert rows[0].mean_error < 1e-9


def test_stability_of_an_empty_symbol_has_no_triples():
    # the noise model runs on k = 0 triples: it draws nothing and keeps none
    cat = enumerate_dual(SU2(), 2.0)
    empty = Symbol(cat, cat, {})
    rows, slope = stability_scan(empty, UNIT_WEIGHT, UNIT_WEIGHT, [0.0, 1e-3, 1e-2],
                                 trials=2, seed=0)
    assert [(r.mean_error, r.std_error) for r in rows] == [(0.0, 0.0)] * 3
    assert slope is None
    data = forward(assemble(empty, UNIT_WEIGHT, UNIT_WEIGHT))
    noisy = perturb_spectral_data(data, 1e-2, np.random.default_rng(0))
    assert noisy.s.size == 0 and noisy.attribution == []
    assert noisy.u.shape == (cat.dense_dim, 0) and noisy.v.shape == (cat.dense_dim, 0)
    assert noisy.codomain is cat and noisy.domain is cat


def test_stability_error_roughly_linear_in_delta():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 70)
    rows, slope = stability_scan(
        sym, UNIT_WEIGHT, UNIT_WEIGHT, [1e-4, 1e-3, 1e-2], trials=10, seed=2
    )
    assert slope is not None and 0.7 < slope < 1.3
    # doubling the noise roughly doubles the error
    rows2, _ = stability_scan(sym, UNIT_WEIGHT, UNIT_WEIGHT, [2e-3], trials=20, seed=3)
    rows1, _ = stability_scan(sym, UNIT_WEIGHT, UNIT_WEIGHT, [1e-3], trials=20, seed=3)
    ratio = rows2[0].mean_error / rows1[0].mean_error
    assert 1.5 < ratio < 2.5


def test_spectral_data_json_round_trip():
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 80)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    back = SpectralData.from_dict(json.loads(json.dumps(data.to_dict())))
    assert back.attribution == data.attribution
    assert [t.s for t in back.triples] == [t.s for t in data.triples]
    rec = tikhonov_recover(back, UNIT_WEIGHT, UNIT_WEIGHT, 0.0)
    for key in sym.blocks:
        np.testing.assert_allclose(rec.blocks[key], sym.blocks[key], atol=1e-9)



def test_dense_layout_spectral_data_still_reads():
    # the data file in the layout written before vectors were stored by their
    # runs, one value per coordinate; forward has since changed by rounding,
    # so the two files agree to rounding, and both recover the true symbol
    tests = Path(__file__).parent

    def read(path):
        return SpectralData.from_dict(json.loads(path.read_text()))

    dense = read(tests / "data" / "su2-matching-data-dense.json")
    runs = read(tests / "golden" / "inputs" / "su2-matching-data.json")
    np.testing.assert_allclose(dense.s, runs.s, rtol=0, atol=1e-12 * runs.s[0])
    np.testing.assert_allclose(dense.u, runs.u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense.v, runs.v, rtol=0, atol=1e-12)
    assert dense.attribution == runs.attribution and dense.fully_attributed
    truth = Symbol.from_dict(json.loads((tests / "golden" / "inputs" / "su2-matching.json")
                                        .read_text()))
    recovered = tikhonov_recover(dense, PowerLaw(0.5), PowerLaw(-0.5))
    assert recovered.blocks.keys() == truth.blocks.keys()
    for key, block in truth.blocks.items():
        np.testing.assert_allclose(recovered.blocks[key], block, rtol=0, atol=1e-9)

def test_spectral_data_validation():
    cat = enumerate_dual(Torus(1), 0.0)
    good = (1.0, np.array([1.0 + 0j]), np.array([1.0 + 0j]))
    bad_norm = (0.5, np.array([2.0 + 0j]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError, match="unit norm"):
        listed(cat, cat, [good, bad_norm], [None, None])
    with pytest.raises(ValueError, match="descending"):
        listed(
            cat,
            cat,
            [
                (1.0, np.array([1.0 + 0j]), np.array([1.0 + 0j])),
                (2.0, np.array([1.0 + 0j]), np.array([1.0 + 0j])),
            ],
            [None, None],
        )


def test_spectral_data_validation_names_first_faulty_triple():
    cat = enumerate_dual(SU2(), 2.0)  # dims 1, 2, 3
    a, b = cat.labels[0], cat.labels[1]
    unit = np.zeros(6, dtype=complex)
    unit[0] = 1.0
    spread = np.full(6, 1 / np.sqrt(6), dtype=complex)
    outside = IrrepLabel(cat.group, (9,))
    cases = [
        # triple 0 breaks the mass rule, and triple 1, listed as null, fits it
        ([(1.0, spread, unit), (0.5, unit, unit)], [(a, a), None],
         "triple 0: attribution [[0], [0]] is not the mass rule's null"),
        # a label outside the catalog holds none of the mass
        ([(1.0, unit, unit)], [(a, outside)],
         "triple 0: attribution [[0], [9]] is not the mass rule's [[0], [0]]"),
        # the first triple at fault is named
        ([(1.0, unit, unit), (0.5, unit, unit), (0.25, unit, unit)], [(a, a), (a, b), (b, a)],
         "triple 1: attribution [[0], [1]] is not the mass rule's [[0], [0]]"),
        ([(1.0, unit, unit), (0.5, unit, 2 * unit)], [(a, a), (b, a)],
         "triple 1: singular vectors must be unit norm"),
        # the data's own checks run before the attribution's: unit norm first
        ([(1.0, unit, unit), (0.5, unit, 2 * unit)], [(b, a), None],
         "triple 1: singular vectors must be unit norm"),
        ([(1.0, unit, np.full(6, np.nan))], [None],
         "triple 0: singular vectors must be unit norm"),
        ([(1.0, unit, unit), (np.nan, unit, unit)], [None, None],
         "triple 1: singular values must be finite, nonnegative and descending"),
        ([(np.inf, unit, unit)], [None], "triple 0: singular values must be finite"),
    ]
    for triples, attribution, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            listed(cat, cat, triples, attribution)
    with pytest.raises(ValueError, match="do not fit 1 triples on dense dimensions 6 x 6"):
        SpectralData(cat, cat, np.ones(1), unit[:3, None], unit[:, None])
    with pytest.raises(ValueError, match="attribution must hold one key or null for each of "
                                         "the 1 triples"):
        listed(cat, cat, [(1.0, unit, unit)], [])


def test_given_key_below_the_mass_rule_by_rounding_is_refused():
    # the rule is >= ATTRIBUTION_MASS exactly; a check that allowed 1e-12 of
    # slack accepted this key, though the rule computes no key for it
    cat = enumerate_dual(SU2(), 2.0)  # dims 1, 2, 3
    a = cat.labels[0]
    held = ATTRIBUTION_MASS - 5e-13
    u = np.zeros(6, dtype=complex)
    u[0], u[1] = np.sqrt(held), np.sqrt(1.0 - held)
    unit = np.zeros(6, dtype=complex)
    unit[0] = 1.0
    assert stacked(cat, cat, [(1.0, u, unit)]).attribution == [None]
    with pytest.raises(ValueError, match=re.escape(
            "triple 0: attribution [[0], [0]] is not the mass rule's null")):
        listed(cat, cat, [(1.0, u, unit)], [(a, a)])


def test_spectral_data_keys_from_an_equal_catalog_validate():
    # labels built in code apart from the catalog are equal, not identical,
    # and a file listing them reads back
    cat = enumerate_dual(SU2(), 6.0)
    twin = {label.index: label for label in enumerate_dual(SU2(), 6.0)}
    data = forward(assemble(random_matching_symbol(cat, cat, 5), UNIT_WEIGHT, UNIT_WEIGHT))
    keys = [(twin[pi.index], twin[rho.index]) for pi, rho in data.attribution]
    assert all(a is not b and a == b for key, got in zip(keys, data.attribution)
               for a, b in zip(key, got))
    assert listed(cat, cat, list(zip(data.s, data.u.T, data.v.T)), keys).attribution == keys


def test_spectral_data_file_keys_are_the_catalogs_labels():
    cat = enumerate_dual(SU2(), 6.0)
    data = forward(assemble(random_matching_symbol(cat, cat, 5), UNIT_WEIGHT, UNIT_WEIGHT))
    payload = json.loads(json.dumps(data.to_dict()))
    payload["attribution"] = [[[float(k) for k in pi], [True if k == 1 else k for k in rho]]
                              for pi, rho in payload["attribution"]]
    assert any(rho[0] is True for _, rho in payload["attribution"])  # an index written true
    back = SpectralData.from_dict(payload)
    assert back.codomain is back.domain
    assert back.attribution == data.attribution
    for pi, rho in back.attribution:
        assert back.codomain.label_at(pi.index, "codomain") is pi
        assert back.domain.label_at(rho.index, "domain") is rho


def test_spectral_data_stacks_triples_once():
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_matching_symbol(cat, cat, 5)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert data.u.shape == (cat.dense_dim, len(data.triples))
    assert data.u.flags.c_contiguous and data.v.flags.c_contiguous
    for i, t in enumerate(data.triples):
        assert data.s[i] == t.s
        assert np.shares_memory(t.u, data.u) and np.shares_memory(t.v, data.v)
        np.testing.assert_array_equal(data.v[:, i], t.v)
    dense = sum(t.s * np.outer(t.u, t.v.conj()) for t in data.triples)
    np.testing.assert_allclose((data.u * data.s) @ data.v.conj().T, dense, rtol=0, atol=1e-13)


def test_spectral_data_attributes_triples_when_attribution_left_out():
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_matching_symbol(cat, cat, 5)
    data = forward(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert data.fully_attributed
    assert set(data.attribution) <= set(sym.blocks)
    # listed in its file, the computed keys pass the same rule
    again = SpectralData.from_dict(data.to_dict())
    assert again.attribution == data.attribution
    # faulty data raises the fault, not an attribution error
    unit = np.zeros(cat.dense_dim, dtype=complex)
    unit[0] = 1.0
    with pytest.raises(ValueError, match="unit norm"):
        stacked(cat, cat, [(1.0, unit, 2 * unit)])
    empty = DualCatalog(SU2(), 0.0, [])
    assert stacked(empty, empty, []).attribution == []


def test_recover_checks_measure_what_they_name():
    cat = enumerate_dual(SU2(), 2.0)
    sym = random_matching_symbol(cat, cat, seed=3)
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    op = assemble(sym, mu, nu)
    data = forward(op)
    assert max_residual(op, data) <= 1e-12 * data.s[0]
    off = SpectralData(cat, cat, data.s * 1.1, data.u, data.v)  # each value 10% high
    want = np.max(np.abs(op.to_dense() - (off.u * off.s) @ off.v.conj().T))
    assert want > 0.01 and max_residual(op, off) == pytest.approx(want, rel=1e-12)
    assert max_entry_error(sym, sym) == 0.0
    pi, rho = next(iter(sym.blocks))
    moved = dict(sym.blocks)
    moved[(pi, rho)] = moved[(pi, rho)] + 0.25
    assert max_entry_error(Symbol(cat, cat, moved), sym) == pytest.approx(0.25)
    assert max_entry_error(Symbol(cat, cat, {}), Symbol(cat, cat, {})) == 0.0


@pytest.mark.parametrize("side", ["codomain", "domain"])
def test_max_entry_error_names_the_catalog_that_differs(side):
    su2, torus = enumerate_dual(SU2(), 2.0), enumerate_dual(Torus(1), 1.0)
    truth = Symbol(su2, torus, {}) if side == "domain" else Symbol(torus, su2, {})
    with pytest.raises(ValueError, match=f"^the true symbol's {side} catalog differs from "
                                         "the recovered one's$"):
        max_entry_error(Symbol(su2, su2, {}), truth)
