import numpy as np
import pytest

from muhankel.duals import (
    IrrepLabel,
    PowerLaw,
    SU2,
    TableWeight,
    Torus,
    UNIT_WEIGHT,
    dim,
    enumerate_dual,
    weight_eval,
)
from muhankel.fredholm import (
    FormulaInapplicableError,
    hankel_winding,
    index_formula,
    index_report,
    numerical_index,
    winding_number,
)
from muhankel.operators import assemble
from muhankel.symbols import (
    Symbol,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
)

from helpers import restrict, scaled, torus_halfline


def test_formula_positive_definite_diagonal():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(diagonal_symbol(cat), PowerLaw(1.0), PowerLaw(1.0))
    idx, pairs = index_formula(op)
    assert idx == 0 and pairs == []


def test_formula_single_negative_scalar_block():
    cat = torus_halfline(2)
    label = cat.labels[1]
    sym = Symbol(cat, cat, {(label, label): np.array([[-2.0]])})
    idx, pairs = index_formula(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert idx == 1
    assert pairs == [(label, label, 1)]


def test_formula_su2_negative_determinant_block():
    cat = enumerate_dual(SU2(), 6.0)
    l1 = IrrepLabel(SU2(), (2,))  # l = 1, d = 3
    block = np.diag([1.0, -1.0, 1.0]).astype(complex)
    assert np.linalg.det(block).real == -1.0  # oracle determinant
    sym = Symbol(cat, cat, {(l1, l1): block})
    idx, pairs = index_formula(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert idx == 9
    assert pairs == [(l1, l1, 9)]


def test_formula_rejects_non_square_block():
    cat = enumerate_dual(SU2(), 6.0)
    pi, rho = cat.labels[0], cat.labels[1]  # 1x2 block
    sym = Symbol(cat, cat, {(pi, rho): np.ones((1, 2))})
    with pytest.raises(FormulaInapplicableError, match="non-square"):
        index_formula(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))


def test_formula_rejects_complex_determinant():
    cat = torus_halfline(1)
    label = cat.labels[0]
    sym = Symbol(cat, cat, {(label, label): np.array([[1j]])})
    with pytest.raises(FormulaInapplicableError, match="complex"):
        index_formula(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))


def test_formula_invariant_under_positive_weight_rescaling():
    cat = enumerate_dual(SU2(), 6.0)
    l1 = IrrepLabel(SU2(), (2,))
    sym = Symbol(cat, cat, {(l1, l1): np.diag([1.0, -1.0, 1.0]).astype(complex)})
    mu = PowerLaw(0.5)
    scaled = TableWeight({l: 7.0 * weight_eval(mu, l) for l in cat.labels})
    base = index_formula(assemble(sym, mu, UNIT_WEIGHT))
    rescaled = index_formula(assemble(sym, scaled, UNIT_WEIGHT))
    assert base == rescaled


def test_numerical_zero_operator():
    cat_out = enumerate_dual(SU2(), 2.0)  # dense dim 6
    cat_in = enumerate_dual(SU2(), 6.0)  # dense dim 15
    op = assemble(Symbol(cat_out, cat_in, {}), UNIT_WEIGHT, UNIT_WEIGHT)
    rank, kernel, cokernel, idx = numerical_index(op)
    assert (rank, kernel, cokernel, idx) == (0, 15, 6, 9)


def test_numerical_invertible_diagonal():
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(diagonal_symbol(cat), PowerLaw(1.0), PowerLaw(0.0))
    rank, kernel, cokernel, idx = numerical_index(op)
    assert (rank, kernel, cokernel, idx) == (15, 0, 0, 0)


def test_numerical_antidiagonal_with_gap():
    # 5x5 anti-diagonal pattern n + m = 4 with the middle block removed:
    # rank 4 by hand, so one kernel and one cokernel dimension
    cat = torus_halfline(4)
    blocks = {}
    for n in (0, 1, 3, 4):
        pi = next(l for l in cat.labels if l.index[0] == n)
        rho = next(l for l in cat.labels if l.index[0] == 4 - n)
        blocks[(pi, rho)] = np.array([[1.0]])
    op = assemble(Symbol(cat, cat, blocks), UNIT_WEIGHT, UNIT_WEIGHT)
    rank, kernel, cokernel, idx = numerical_index(op)
    assert (rank, kernel, cokernel, idx) == (4, 1, 1, 0)


def test_numerical_index_scalar_invariant():
    cat = enumerate_dual(SU2(), 6.0)
    for seed in range(10):
        sym = random_matching_symbol(cat, cat, seed)
        op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
        base = numerical_index(op)
        for c in (3.0, -0.25, 2j):
            op_c = assemble(scaled(sym, c), UNIT_WEIGHT, UNIT_WEIGHT)
            assert numerical_index(op_c) == base


def test_numerical_index_additive_over_matched_blocks():
    # full matching between duals of different block dimensions: the global
    # index must equal the sum of the single-block operator indices
    codomain = enumerate_dual(SU2(), 6.0)  # 5 labels, dims 1..5
    domain = enumerate_dual(Torus(1), 4.0)  # 5 labels, dims all 1
    rng = np.random.default_rng(3)
    blocks = {}
    per_block_idx = []
    for pi, rho in zip(codomain.labels, domain.labels):
        d = dim(pi)
        if rng.uniform() < 0.3:
            mat = np.zeros((d, 1), dtype=complex)  # rank-deficient block
        else:
            mat = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        blocks[(pi, rho)] = mat
        sub = assemble(
            Symbol(
                restrict(codomain, lambda l: l == pi),
                restrict(domain, lambda l: l == rho),
                {(pi, rho): mat},
            ),
            UNIT_WEIGHT,
            UNIT_WEIGHT,
        )
        per_block_idx.append(numerical_index(sub)[3])
    op = assemble(Symbol(codomain, domain, blocks), UNIT_WEIGHT, UNIT_WEIGHT)
    assert numerical_index(op)[3] == sum(per_block_idx)


def test_index_report_combines_routes():
    cat = enumerate_dual(SU2(), 6.0)
    pi, rho = cat.labels[0], cat.labels[1]
    sym = Symbol(cat, cat, {(pi, rho): np.ones((1, 2))})
    report = index_report(assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT))
    assert report.formula_index is None
    assert "non-square" in report.formula_error
    assert report.numerical_index == report.numerical_kernel_dim - report.numerical_cokernel_dim
    assert report.numerical_rank == 1


def test_winding_pure_exponential():
    theta = 2 * np.pi * np.arange(256) / 256
    assert winding_number(np.exp(3j * theta)) == 3


def test_winding_constant():
    assert winding_number(np.ones(64)) == 0


def test_winding_dominant_negative_mode():
    theta = 2 * np.pi * np.arange(256) / 256
    samples = 2 * np.exp(-1j * theta) + 0.5
    # oracle: brute-force unwrapped phase over a dense grid
    fine = 2 * np.exp(-1j * 2 * np.pi * np.arange(4096) / 4096) + 0.5
    phases = np.unwrap(np.angle(fine))
    oracle = round((phases[-1] - phases[0] + np.angle(fine[0] / fine[-1])) / (2 * np.pi))
    assert winding_number(samples) == oracle == -1


def test_winding_rejects_vanishing_sample():
    samples = np.array([1.0, 1e-12, 1.0, 1.0])
    with pytest.raises(ValueError, match="origin"):
        winding_number(samples)


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
def test_winding_refusal_is_relative_to_the_loop(scale):
    # an absolute bound refused every loop of modulus under 1e-9
    theta = 2 * np.pi * np.arange(64) / 64
    assert winding_number(scale * (np.exp(1j * theta) + 0.5)) == 1
    with pytest.raises(ValueError, match="origin"):
        winding_number(scale * np.array([1.0, 1e-10, 1.0, 1.0]))
    with pytest.raises(ValueError, match="origin"):
        winding_number(np.zeros(4))


def test_winding_rejects_undersampling():
    theta = 2 * np.pi * np.arange(4) / 4
    with pytest.raises(ValueError, match="sample count"):
        winding_number(np.exp(2j * theta))


def test_hankel_winding_of_the_fourier_series():
    cat = torus_halfline(4)
    # c(t) = t^2 + 0.3 t + 0.1 winds twice; its symbol holds c(2) in three blocks
    sym = hankel_symbol_from_fourier({0: 0.1, 1: 0.3, 2: 1.0}, cat, cat)
    assert hankel_winding(sym, 256) == 2
    assert hankel_winding(scaled(sym, -1.0), 256) == 2
    with pytest.raises(ValueError, match="at least two samples"):
        hankel_winding(sym, 1)


def test_hankel_winding_is_none_off_the_hankel_law():
    cat = torus_halfline(3)
    assert hankel_winding(Symbol(cat, cat, {}), 256) is None  # no blocks
    assert hankel_winding(diagonal_symbol(enumerate_dual(SU2(), 2.0)), 256) is None
    # a(1, 0) != a(0, 1): not a function of n + m
    a, b = cat.labels[0], cat.labels[1]
    sym = Symbol(cat, cat, {(b, a): np.ones((1, 1)), (a, b): 2 * np.ones((1, 1))})
    assert hankel_winding(sym, 256) is None
