import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muhankel.duals import (
    PowerLaw,
    SU2,
    TableWeight,
    Torus,
    UNIT_WEIGHT,
    dim,
    enumerate_dual,
)
from muhankel.operators import assemble, retained_count
from muhankel.symbols import (
    Symbol,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_symbol,
)

from helpers import torus_halfline


def test_assemble_diagonal_su2():
    cat = enumerate_dual(SU2(), 2.0)  # l in {0, 1/2, 1}, dims 1, 2, 3
    op = assemble(diagonal_symbol(cat), PowerLaw(1.0), PowerLaw(1.0))
    dense = op.to_dense()
    assert dense.shape == (6, 6)
    # oracle: block-diagonal with (1+l)^2 on the diagonal of each block
    expected = np.zeros((6, 6), dtype=complex)
    pos = 0
    for label in cat.labels:
        l = label.index[0] / 2
        d = dim(label)
        expected[pos : pos + d, pos : pos + d] = (1 + l) ** 2 * np.eye(d)
        pos += d
    np.testing.assert_allclose(dense, expected, atol=1e-14)


def test_empty_symbol_zero_operator():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    assert np.all(op.to_dense() == 0)


def test_torus_hankel_pattern():
    cat = torus_halfline(1)  # n in {0, 1}
    sym = hankel_symbol_from_fourier({1: 1.0}, cat, cat)
    dense = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT).to_dense()
    np.testing.assert_array_equal(dense, [[0, 1], [1, 0]])


def test_apply_diagonal_unit_vector():
    cat = enumerate_dual(SU2(), 2.0)
    s, t = 0.7, 0.3
    op = assemble(diagonal_symbol(cat), PowerLaw(s), PowerLaw(t))
    label = cat.labels[2]  # l = 1
    start, d = cat.offsets[label]
    for j in range(d):
        e = np.zeros(cat.dense_dim, dtype=complex)
        e[start + j] = 1.0
        np.testing.assert_allclose(op.apply(e), 2.0 ** (s + t) * e, rtol=1e-14)


def test_apply_zero_vector():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(random_symbol(cat, cat, 0.5, 0), UNIT_WEIGHT, UNIT_WEIGHT)
    np.testing.assert_array_equal(op.apply(np.zeros(6)), np.zeros(6))


def test_apply_matches_dense_product():
    cat = enumerate_dual(SU2(), 6.0)
    rng = np.random.default_rng(5)
    for seed in range(10):
        op = assemble(random_symbol(cat, cat, 0.4, seed), PowerLaw(0.5), PowerLaw(-0.5))
        fhat = rng.standard_normal(cat.dense_dim) + 1j * rng.standard_normal(cat.dense_dim)
        np.testing.assert_allclose(
            op.apply(fhat), op.to_dense() @ fhat, rtol=1e-12, atol=1e-12
        )


def test_apply_length_mismatch():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    with pytest.raises(ValueError):
        op.apply(np.zeros(7))


def test_adjoint_dense_is_exact_conjugate_transpose():
    cat = enumerate_dual(SU2(), 6.0)
    for seed in range(5):
        op = assemble(random_symbol(cat, cat, 0.5, seed), PowerLaw(0.8), PowerLaw(-0.3))
        np.testing.assert_array_equal(op.adjoint().to_dense(), op.to_dense().conj().T)


def test_adjoint_of_real_diagonal_is_itself():
    cat = enumerate_dual(SU2(), 2.0)
    op = assemble(diagonal_symbol(cat), PowerLaw(1.0), PowerLaw(1.0))
    np.testing.assert_array_equal(op.adjoint().to_dense(), op.to_dense())


def test_adjoint_involution_blockwise():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.5, 3), PowerLaw(0.5), PowerLaw(0.25))
    back = op.adjoint().adjoint()
    assert set(back.symbol.blocks) == set(op.symbol.blocks)
    for key in op.symbol.blocks:
        np.testing.assert_array_equal(back.symbol.blocks[key], op.symbol.blocks[key])


def test_adjoint_pairing_identity():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.5, 8), PowerLaw(0.5), PowerLaw(-0.5))
    adj = op.adjoint()
    rng = np.random.default_rng(17)
    n = cat.dense_dim
    for _ in range(25):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.vdot(g, op.apply(f))
        rhs = np.vdot(adj.apply(g), f)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_apply_linearity():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.6, 12), UNIT_WEIGHT, PowerLaw(0.5))
    rng = np.random.default_rng(2)
    n = cat.dense_dim
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a, b = 2.0 - 1j, -0.5 + 3j
    np.testing.assert_allclose(
        op.apply(a * f + b * g),
        a * op.apply(f) + b * op.apply(g),
        rtol=1e-12,
        atol=1e-12,
    )


def test_to_dense_single_entry_placement():
    cat = enumerate_dual(Torus(1), 4.0)  # labels ordered 0, -1, 1, -2, 2
    pi = cat.labels[2]
    rho = cat.labels[4]
    assert cat.offsets[pi] == (2, 1) and cat.offsets[rho] == (4, 1)
    sym = Symbol(cat, cat, {(pi, rho): np.array([[3.0]])})
    dense = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT).to_dense()
    expected = np.zeros((5, 5), dtype=complex)
    expected[2, 4] = 3.0
    np.testing.assert_array_equal(dense, expected)


def test_dense_shape_full_su2_dual():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    assert op.to_dense().shape == (15, 15)


def test_block_disjointness():
    cat = enumerate_dual(SU2(), 6.0)
    sym = random_symbol(cat, cat, 1.0, 4)
    op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
    covered = np.zeros(op.shape, dtype=int)
    for (pi, rho) in op.weighted:
        covered[cat.slice_of(pi), cat.slice_of(rho)] += 1
    assert covered.max() == 1


def test_abelian_reduction_classical_hankel():
    cat = torus_halfline(4)  # n in {0..4}
    coeffs = {0: 1.0 + 0.5j, 2: -2.0, 3: 0.25j, 7: 4.0}
    sym = hankel_symbol_from_fourier(coeffs, cat, cat)
    op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
    for block in op.weighted.values():
        assert block.shape == (1, 1)
    ns = [l.index[0] for l in cat.labels]
    classical = np.array(
        [[coeffs.get(n + m, 0.0) for m in ns] for n in ns], dtype=complex
    )
    np.testing.assert_array_equal(op.to_dense(), classical)


def test_table_weight_must_cover_catalog():
    cat = enumerate_dual(SU2(), 2.0)
    partial = TableWeight({cat.labels[0]: 1.0})
    with pytest.raises(ValueError):
        assemble(diagonal_symbol(cat), partial, UNIT_WEIGHT)


def test_dense_resource_guard(monkeypatch):
    import muhankel.operators as ops

    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    monkeypatch.setattr(ops, "MAX_DENSE_ENTRIES", 10)
    with pytest.raises(ValueError):
        op.to_dense()


def test_retained_count_rule():
    # values strictly above rel_tol times the largest are kept
    assert retained_count(np.array([]), 1e-12) == 0
    assert retained_count(np.zeros(4), 1e-12) == 0
    # 1.0 is exactly 0.5 * 2.0: at the threshold, so excluded
    assert retained_count(np.array([2.0, 1.5, 1.0, 0.5]), 0.5) == 2
    assert retained_count(np.array([2.0, 1.5, 1.0 + 1e-15, 0.5]), 0.5) == 3
    assert retained_count(np.array([3.0]), 1e-12) == 1
    # the zero operator keeps no singular value
    cat = enumerate_dual(SU2(), 2.0)
    zero = assemble(Symbol(cat, cat, {}), UNIT_WEIGHT, UNIT_WEIGHT).singular_values
    assert zero.size == cat.dense_dim
    assert retained_count(zero, 1e-12) == 0


@settings(max_examples=60, deadline=None)
@given(st.floats(-500.0, 500.0))
def test_assembled_weights_are_finite_or_refused(exponent):
    # w = (1 + r_pi)^e (1 + r_rho)^e on identity blocks: every weighted block
    # is w I with w finite and > 0, or assembly names the block it refuses
    cat = enumerate_dual(SU2(), 6.0)
    weight = PowerLaw(exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            op = assemble(diagonal_symbol(cat, 0.0), weight, weight)
        except ValueError as exc:
            assert re.fullmatch(r"weight mu\(pi\) nu\(rho\) of block \(\(\d+,\), \(\d+,\)\) "
                                r"is (inf|0\.0), not a finite number > 0"
                                r"|block .* times its weight .* overflows", str(exc)), exc
            return
    for (pi, rho), block in op.weighted.items():
        w = op.plan[pi, rho][0]
        assert 0.0 < w < np.inf
        assert np.array_equal(block, w * np.eye(pi.dim))
