import warnings

import numpy as np
import pytest

from muhankel.duals import (
    IrrepLabel,
    PowerLaw,
    SU2,
    Torus,
    UNIT_WEIGHT,
    dim,
    enumerate_dual,
    weight_eval,
)
from muhankel.operators import _KeyPlan, assemble
from muhankel.recovery import _weighted_error
from muhankel.spectral import schatten_norm
from muhankel.symbols import (
    Symbol,
    SymbolClassParams,
    class_norm,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
    random_symbol,
)

from helpers import restrict, scaled, torus_halfline


@pytest.fixture
def su2_cat():
    return enumerate_dual(SU2(), 6.0)  # l in {0, 1/2, 1, 3/2, 2}


def test_weighted_block_diagonal_scaling(su2_cat):
    op = assemble(diagonal_symbol(su2_cat), PowerLaw(1.5), PowerLaw(0.5))
    for label in su2_cat.labels:
        l = label.index[0] / 2
        wb = op.weighted[(label, label)]
        np.testing.assert_allclose(
            wb, (1 + l) ** 2.0 * np.eye(dim(label)), rtol=0, atol=1e-14
        )


def test_weighted_block_absent_is_zero(su2_cat):
    op = assemble(Symbol(su2_cat, su2_cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    pi, rho = su2_cat.labels[1], su2_cat.labels[2]
    assert (pi, rho) not in op.weighted
    wb = op.to_dense()[su2_cat.slice_of(pi), su2_cat.slice_of(rho)]
    assert wb.shape == (dim(pi), dim(rho))
    assert np.all(wb == 0)


def test_weighted_block_scalar_weights_cancel(su2_cat):
    # mu(pi) = 2 and nu(rho) = 0.5 scale every entry by exactly 1
    pi = su2_cat.labels[1]  # d = 2
    rho = su2_cat.labels[2]  # d = 3
    block = np.array([[1, 2, 0], [0, 1, 1]], dtype=complex)
    sym = Symbol(su2_cat, su2_cat, {(pi, rho): block})
    mu = {l: 2.0 if l == pi else 1.0 for l in su2_cat.labels}
    nu = {l: 0.5 if l == rho else 1.0 for l in su2_cat.labels}
    from muhankel.duals import TableWeight

    op = assemble(sym, TableWeight(mu), TableWeight(nu))
    wb = op.weighted[(pi, rho)]
    np.testing.assert_array_equal(wb, 2.0 * 0.5 * block)


def test_block_shape_validation(su2_cat):
    pi, rho = su2_cat.labels[0], su2_cat.labels[0]
    with pytest.raises(ValueError):
        Symbol(su2_cat, su2_cat, {(pi, rho): np.ones((2, 2))})


def test_block_labels_validated(su2_cat):
    other = IrrepLabel(SU2(), (8,))  # l = 4, outside cutoff 6
    with pytest.raises(ValueError):
        Symbol(su2_cat, su2_cat, {(other, other): np.eye(9)})
    with pytest.raises(ValueError, match=r"domain label \(8,\) not in catalog"):
        Symbol(su2_cat, su2_cat, {(su2_cat.labels[0], other): np.ones((1, 9))})


def test_class_norm_empty(su2_cat):
    op = assemble(Symbol(su2_cat, su2_cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    assert class_norm(op, SymbolClassParams(2, 2)) == 0.0


def test_class_norm_single_block(su2_cat):
    # lambda_pi = 2 (l=1), lambda_rho = 6 (l=2), block built to have sigma_max = 5
    pi = su2_cat.labels[2]
    rho = su2_cat.labels[4]
    assert pi.casimir == 2.0 and rho.casimir == 6.0
    block = np.zeros((3, 5), dtype=complex)
    block[0, 0] = 5.0
    sigma = np.linalg.svd(block, compute_uv=False)[0]  # oracle SVD
    assert sigma == 5.0
    op = assemble(Symbol(su2_cat, su2_cat, {(pi, rho): block}), UNIT_WEIGHT, UNIT_WEIGHT)
    got = class_norm(op, SymbolClassParams(2, 2))
    np.testing.assert_allclose(got, sigma * 3.0 * 7.0, rtol=1e-12)
    got_first_order = class_norm(op, SymbolClassParams(1, 1))
    np.testing.assert_allclose(
        got_first_order, sigma * np.sqrt(3.0) * np.sqrt(7.0), rtol=1e-12
    )


def test_class_norm_diagonal_sup_at_origin(su2_cat):
    op = assemble(diagonal_symbol(su2_cat), PowerLaw(-0.5), PowerLaw(-0.5))
    # weighted blocks are (1+l)^{-1} I, so the sup is 1 at l = 0
    np.testing.assert_allclose(class_norm(op, SymbolClassParams(0, 0)), 1.0, rtol=1e-12)


def test_class_norm_absolutely_homogeneous(su2_cat):
    params = SymbolClassParams(1.0, 2.0)
    mu, nu = PowerLaw(0.3), PowerLaw(-0.2)
    for seed in range(5):
        sym = random_symbol(su2_cat, su2_cat, 0.4, seed)
        base = class_norm(assemble(sym, mu, nu), params)
        for c in (2.0, -3.0, 1j, 0.5 - 0.5j):
            np.testing.assert_allclose(
                class_norm(assemble(scaled(sym, c), mu, nu), params), abs(c) * base,
                rtol=1e-10,
            )


def test_class_norm_zero_orders_is_max_block_norm(su2_cat):
    sym = random_symbol(su2_cat, su2_cat, 0.5, 7)
    expected = max(
        np.linalg.norm(block, 2) for block in sym.blocks.values()
    )
    got = class_norm(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT), SymbolClassParams(0, 0))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_weighted_block_commutes_with_weight_rescaling(su2_cat):
    sym = random_symbol(su2_cat, su2_cat, 0.6, 3)
    from muhankel.duals import TableWeight

    mu = PowerLaw(0.5)
    scaled_mu = TableWeight(
        {l: 3.0 * weight_eval(mu, l) for l in su2_cat.labels}
    )
    scaled = assemble(sym, scaled_mu, UNIT_WEIGHT)
    base = assemble(sym, mu, UNIT_WEIGHT)
    for key in sym.blocks:
        a = scaled.weighted[key]
        b = 3.0 * base.weighted[key]
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_hankel_symbol_support():
    cat = torus_halfline(2)  # n in {0, 1, 2}
    sym = hankel_symbol_from_fourier({1: 1.0}, cat, cat)
    support = {(pi.index[0], rho.index[0]) for pi, rho in sym.blocks}
    assert support == {(0, 1), (1, 0)}
    for block in sym.blocks.values():
        np.testing.assert_array_equal(block, [[1.0]])


def test_hankel_symbol_empty_coeffs():
    cat = torus_halfline(2)
    assert hankel_symbol_from_fourier({}, cat, cat).blocks == {}


def test_hankel_symbol_truncation():
    cat = torus_halfline(1)  # n in {0, 1}
    sym = hankel_symbol_from_fourier({0: 2.0, 2: -1.0}, cat, cat)
    got = {
        (pi.index[0], rho.index[0]): complex(block[0, 0])
        for (pi, rho), block in sym.blocks.items()
    }
    assert got == {(0, 0): 2.0, (1, 1): -1.0}


def test_hankel_symbol_rejects_non_torus(su2_cat):
    with pytest.raises(ValueError):
        hankel_symbol_from_fourier({0: 1.0}, su2_cat, su2_cat)


def test_random_symbol_density_extremes():
    cat = enumerate_dual(Torus(1), 1.0)  # 3 labels
    assert random_symbol(cat, cat, 0.0, 1).blocks == {}
    two = restrict(cat, lambda l: l.index[0] >= 0)  # 2 labels
    full = random_symbol(two, two, 1.0, 1)
    assert len(full.blocks) == 4
    for density in (-0.1, 1.5):
        with pytest.raises(ValueError, match=f"density must lie in \\[0, 1\\], got {density}"):
            random_symbol(cat, cat, density, 1)


def test_random_symbol_deterministic(su2_cat):
    a = random_symbol(su2_cat, su2_cat, 0.5, 42)
    b = random_symbol(su2_cat, su2_cat, 0.5, 42)
    assert set(a.blocks) == set(b.blocks)
    for key in a.blocks:
        np.testing.assert_array_equal(a.blocks[key], b.blocks[key])


def test_random_matching_symbol_is_matching(su2_cat):
    for seed in range(20):
        sym = random_matching_symbol(su2_cat, su2_cat, seed)
        pis = [pi for pi, _ in sym.blocks]
        rhos = [rho for _, rho in sym.blocks]
        assert len(pis) == len(set(pis))
        assert len(rhos) == len(set(rhos))
        assert len(sym.blocks) >= 1


def test_hs_norm_matches_direct_sum(su2_cat):
    # S_2 is the Hilbert-Schmidt class: the Schatten-2 norm of the singular
    # values is the entrywise l2-sum of the weighted blocks
    sym = random_symbol(su2_cat, su2_cat, 0.5, 11)
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    expected = np.sqrt(
        sum(
            np.sum(np.abs(weight_eval(mu, pi) * weight_eval(nu, rho) * block) ** 2)
            for (pi, rho), block in sym.blocks.items()
        )
    )
    np.testing.assert_allclose(schatten_norm(assemble(sym, mu, nu).singular_values, 2),
                               expected, rtol=1e-12)


def test_hs_norm_of_entries_whose_squares_overflow_is_finite():
    # every entry is finite, about 1e200, and its square is not: the weighted
    # error was refused as inf; scaled by the largest modulus before squaring,
    # it is the finite 1e200 times the unscaled norm, with no overflow warning
    cat = enumerate_dual(SU2(), 2.0)
    sym = random_symbol(cat, cat, 1.0, 3)
    plan = _KeyPlan(cat, cat, PowerLaw(0), PowerLaw(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(_weighted_error(scaled(sym, 1e200).blocks, {}, plan),
                                   1e200 * _weighted_error(sym.blocks, {}, plan), rtol=1e-12)
    # a norm past the largest float is still refused: nine entries of 1e308
    top = cat.labels[2]
    huge = Symbol(cat, cat, {(top, top): np.full((3, 3), 1e308)})
    with pytest.raises(ValueError, match="weighted recovery error is inf, not finite"):
        _weighted_error(huge.blocks, {}, plan)


def test_symbol_json_round_trip(su2_cat):
    import json

    sym = random_symbol(su2_cat, su2_cat, 0.5, 9)
    back = Symbol.from_dict(json.loads(json.dumps(sym.to_dict())))
    assert set(back.blocks) == set(sym.blocks)
    for key in sym.blocks:
        np.testing.assert_array_equal(back.blocks[key], sym.blocks[key])


def test_symbol_file_labels_are_the_catalogs_own(su2_cat):
    import json

    # equal catalog entries are parsed once and serve both sides
    back = Symbol.from_dict(json.loads(json.dumps(diagonal_symbol(su2_cat).to_dict())))
    assert back.codomain is back.domain
    for pi, rho in back.blocks:
        assert pi is rho and any(pi is label for label in back.codomain.labels)
    small = enumerate_dual(SU2(), 2.0)
    sym = random_symbol(su2_cat, small, 1.0, 3)
    back = Symbol.from_dict(json.loads(json.dumps(sym.to_dict())))
    assert back.codomain == su2_cat and back.domain == small
    assert set(back.blocks) == set(sym.blocks)
    for pi, rho in back.blocks:
        assert back.codomain.label_at(pi.index, "codomain") is pi
        assert back.domain.label_at(rho.index, "domain") is rho


def test_symbol_copies_a_writable_block(su2_cat):
    label = su2_cat.labels[2]
    given = np.ones((label.dim, label.dim), dtype=np.complex128)
    sym = Symbol(su2_cat, su2_cat, {(label, label): given})
    given[0, 0] = 5.0
    assert sym.blocks[(label, label)][0, 0] == 1.0
    assert not sym.blocks[(label, label)].flags.writeable


def test_symbol_copies_the_frozen_blocks_of_a_file(su2_cat):
    import json

    s = Symbol.from_dict(json.loads(json.dumps(random_symbol(su2_cat, su2_cat, 0.5, 4).to_dict())))
    again = Symbol(s.codomain, s.domain, s.blocks)
    assert s.blocks
    for key, block in again.blocks.items():
        assert block is not s.blocks[key] and not block.flags.writeable
        np.testing.assert_array_equal(block, s.blocks[key])


def test_symbol_cannot_be_written_through_a_view_taken_before_the_freeze(su2_cat):
    # a frozen block was once kept uncopied, so a writable view taken before
    # the freeze still wrote into the symbol
    label = su2_cat.labels[0]
    given = np.ones((1, 1), dtype=complex)
    view = given[:]
    given.setflags(write=False)
    sym = Symbol(su2_cat, su2_cat, {(label, label): given})
    view[0, 0] = 5.0
    assert sym.blocks[(label, label)][0, 0] == 1.0
