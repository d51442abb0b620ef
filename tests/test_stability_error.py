"""The stability experiment's per-trial error, summed block by block without
building the difference symbol or its operator, against an independent
reference: the Frobenius norm of the difference of the two assembled dense
operators. Needs ``hypothesis`` (in the ``test`` extra)."""

import json
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muhankel.recovery as recovery
from muhankel.cli import main
from muhankel.duals import (SU2, PowerLaw, Product, TableWeight, Torus, enumerate_dual,
                            parse_group, weight_eval)
from muhankel.operators import _KeyPlan, assemble, frobenius
from muhankel.recovery import (
    _weighted_error,
    forward,
    perturb_spectral_data,
    stability_scan,
    tikhonov_recover,
)
from muhankel.symbols import Symbol, _complex_normal, random_matching_symbol, random_symbol

from helpers import scaled

GOLDEN_SYMBOL = Path(__file__).parent / "golden" / "inputs" / "su2-matching.json"
GROUPS = [SU2(), Torus(1), Product((SU2(), Torus(1)))]
catalogs = st.builds(enumerate_dual, st.sampled_from(GROUPS), st.sampled_from([1.0, 2.0, 4.0]))


def dense_error(a, b, mu, nu):
    return np.linalg.norm(assemble(a, mu, nu).to_dense() - assemble(b, mu, nu).to_dense())


def weight(kind, catalog, rng):
    if kind == "table":
        return TableWeight({label: float(rng.uniform(0.1, 10.0)) for label in catalog})
    return PowerLaw(float(kind))


@settings(max_examples=60, deadline=None)
@given(codomain=catalogs, domain=catalogs, seed=st.integers(0, 2**16),
       supports=st.sampled_from(["overlapping", "disjoint", "equal", "one empty"]),
       mu_kind=st.sampled_from(["table", 0.0, 0.5, -1.5]),
       nu_kind=st.sampled_from(["table", 0.0, -0.5, 2.0]))
def test_weighted_error_equals_norm_of_assembled_difference(
        codomain, domain, seed, supports, mu_kind, nu_kind):
    rng = np.random.default_rng(seed)
    a = random_symbol(codomain, domain, 0.5, seed)
    if supports == "overlapping":
        b = random_symbol(codomain, domain, 0.5, seed + 1)
    elif supports == "disjoint":
        b = Symbol(codomain, domain, {
            (pi, rho): _complex_normal(rng, (pi.dim, rho.dim))
            for pi in codomain for rho in domain if (pi, rho) not in a.blocks})
    elif supports == "equal":
        b = Symbol(codomain, domain, {key: block + 1e-3 * _complex_normal(rng, block.shape)
                                      for key, block in a.blocks.items()})
    else:
        a, b = (a, Symbol(codomain, domain, {})) if seed % 2 else (Symbol(codomain, domain, {}), a)
    mu, nu = weight(mu_kind, codomain, rng), weight(nu_kind, domain, rng)
    plan = _KeyPlan(codomain, domain, mu, nu)
    np.testing.assert_allclose(_weighted_error(a.blocks, b.blocks, plan),
                               dense_error(a, b, mu, nu), rtol=1e-12, atol=0)
    assert _weighted_error(a.blocks, a.blocks, plan) == 0.0


@pytest.mark.parametrize("weighted_penalty", [False, True])
def test_stability_rows_match_the_old_chain(weighted_penalty):
    truth = Symbol.from_dict(json.loads(GOLDEN_SYMBOL.read_text()))
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    deltas = [0.0, 1e-4, 1e-3, 1e-2]
    rows, _ = stability_scan(truth, mu, nu, deltas, trials=3, seed=5,
                             weighted_penalty=weighted_penalty)
    # the reference: the same draws, each error from the dense operators
    base = forward(assemble(truth, mu, nu))
    rng = np.random.default_rng(5)
    for row, delta in zip(rows, deltas):
        errors = [dense_error(tikhonov_recover(perturb_spectral_data(base, delta, rng), mu, nu,
                                               delta * delta, weighted_penalty), truth, mu, nu)
                  for _ in range(3)]
        assert row.delta == delta and row.alpha == delta * delta
        np.testing.assert_allclose([row.mean_error, row.std_error],
                                   [np.mean(errors), np.std(errors)], rtol=1e-12, atol=1e-15)


def reference_error(recovered, truth, mu, nu):
    """The weighted error summed as a trial did through the recovered Symbol:
    the union of keys, the recovered symbol's first, each block weighted by
    weight_eval, the blocks' squares summed by ``frobenius``."""
    s, norm = frobenius([
        weight_eval(mu, pi) * weight_eval(nu, rho)
        * (recovered.blocks.get((pi, rho), 0) - truth.blocks.get((pi, rho), 0))
        for pi, rho in dict.fromkeys(chain(recovered.blocks, truth.blocks))])
    return norm / s


def reference_row(errors):
    """Mean and std of ``errors`` as a row holds them: of the errors divided by
    their largest, scaled back."""
    top = max(errors) or 1.0
    return (top * float(np.mean(np.array(errors) / top)),
            top * float(np.std(np.array(errors) / top)))


def product_matching():
    catalog = enumerate_dual(parse_group("su2xtorus:1"), 10.0)
    return random_matching_symbol(catalog, catalog, 0, pairs=len(catalog))


@pytest.mark.parametrize("weighted_penalty", [False, True])
@pytest.mark.parametrize("kind", ["power", "table"])
@pytest.mark.parametrize("instance, deltas", [
    ("golden", [0.0, 1e-4, 1e-3, 1e-2]),
    ("su2xtorus:1", [0.0, 1e-5, 1e-4, 1e-3]),
])
def test_stability_rows_equal_a_reference_loop(instance, deltas, kind, weighted_penalty):
    truth = (Symbol.from_dict(json.loads(GOLDEN_SYMBOL.read_text())) if instance == "golden"
             else product_matching())
    rng = np.random.default_rng(2)
    if kind == "power":
        mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    else:
        mu, nu = weight("table", truth.codomain, rng), weight("table", truth.domain, rng)
    rows, slope = stability_scan(truth, mu, nu, deltas, trials=2, seed=5,
                                 weighted_penalty=weighted_penalty)
    # the reference: the same draws, each trial recovering a Symbol
    base = forward(assemble(truth, mu, nu))
    rng = np.random.default_rng(5)
    means = []
    for row, delta in zip(rows, deltas):
        alpha = float(delta * delta)
        errors = [reference_error(tikhonov_recover(perturb_spectral_data(base, delta, rng), mu,
                                                   nu, alpha, weighted_penalty), truth, mu, nu)
                  for _ in range(2)]
        assert (row.delta, row.alpha) == (delta, alpha)
        mean, std = reference_row(errors)
        assert (row.mean_error, row.std_error) == (mean, std)
        means.append(mean)
    fit = np.polyfit(np.log(deltas[1:]), np.log(means[1:]), 1)[0]
    assert slope == float(fit)


def test_non_finite_error_raises(monkeypatch):
    cat = enumerate_dual(SU2(), 2.0)
    key = (cat.labels[0], cat.labels[0])
    big, small = (Symbol(cat, cat, {key: [[x]]}) for x in (1e308, -1e308))
    unit = PowerLaw(0.0)
    plan = _KeyPlan(cat, cat, unit, unit)
    # numpy's overflow warnings are not the refusal under test
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="weighted recovery error is .*, not finite"):
            _weighted_error(big.blocks, small.blocks, plan)
    # every entry finite, the sum of squares not: the scan was refused with "nan";
    # the scaled sum reports the finite error, with no overflow warning on the way
    truth = random_symbol(cat, cat, 1.0, 3)
    monkeypatch.setattr(recovery, "_solve_blocks", lambda *args: scaled(truth, 1e200).blocks)
    (row,), _ = stability_scan(truth, unit, unit, [1e-3], trials=1, seed=0)
    np.testing.assert_allclose(row.mean_error, 1e200 * _weighted_error(truth.blocks, {}, plan),
                               rtol=1e-12)
    assert row.std_error == 0.0


@pytest.mark.parametrize("deltas", [[1e-4, 1e-4], [0.0, 1e-3, 1e-3, 1e-3], [1e-3]])
def test_slope_needs_two_distinct_deltas(deltas):
    truth = Symbol.from_dict(json.loads(GOLDEN_SYMBOL.read_text()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # polyfit warned of a poorly conditioned fit
        rows, slope = stability_scan(truth, PowerLaw(0.5), PowerLaw(-0.5), deltas, 2, 5)
    assert slope is None and len(rows) == len(deltas)


def test_stability_command_slope_na_on_one_repeated_delta(tmp_path, capsys):
    argv = ["stability", "--symbol", str(GOLDEN_SYMBOL), "--mu", "0.5", "--nu", "-0.5",
            "--delta-grid", "1e-4,1e-4", "--trials", "2", "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "log-log slope: n/a"
    assert json.loads((tmp_path / "stability.json").read_text())["slope"] is None
