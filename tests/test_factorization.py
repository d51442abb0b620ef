"""The factorization by support components against the dense SVD: random
SU(2), torus and product catalogs and supports, the half-cutoff support that
the compactness indicator reads, the cases the dense path cannot reach and
the per-component size guard; over the same draws, the adjoint identity and
the numerical index's invariance under scaling. Needs ``hypothesis`` (in the
``test`` extra)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import muhankel.operators as ops
from muhankel.duals import SU2, PowerLaw, Product, Torus, casimir, dim, enumerate_dual
from muhankel.fredholm import numerical_index
from muhankel.operators import ZERO_REL_TOL, assemble, retained_count
from muhankel.spectral import compactness_report
from muhankel.symbols import (
    Symbol,
    SymbolClassParams,
    diagonal_symbol,
    random_matching_symbol,
    random_symbol,
)

GROUPS = {"su2": SU2(), "torus:1": Torus(1), "su2xtorus:1": Product((SU2(), Torus(1)))}
RANK_TOLERANCE = 1e-8


def drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed):
    """A random symbol on ``group`` with the codomain and domain cut off
    separately; ``support`` "random" fills each label pair with probability
    ``density``, "matching" pairs labels one to one. A ``zero_share`` of the
    blocks is then set to zero."""
    codomain = enumerate_dual(GROUPS[group], cut_out)
    domain = enumerate_dual(GROUPS[group], cut_in)
    if support == "random":
        sym = random_symbol(codomain, domain, density, seed)
    else:
        sym = random_matching_symbol(codomain, domain, seed)
    rng = np.random.default_rng(seed + 1)
    blocks = {
        key: 0 * block if rng.uniform() < zero_share else block
        for key, block in sym.blocks.items()
    }
    return Symbol(codomain, domain, blocks)


# the arguments of drawn_symbol, plus the exponents of the power-law weights
DRAWS = dict(
    group=st.sampled_from(sorted(GROUPS)),
    cut_out=st.sampled_from([0.0, 1.0, 2.0, 4.0, 6.0]),
    cut_in=st.sampled_from([0.0, 1.0, 2.0, 4.0, 6.0]),
    support=st.sampled_from(["random", "matching"]),
    density=st.sampled_from([0.1, 0.3, 1.0]),
    zero_share=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
    exponents=st.tuples(st.sampled_from([-1.0, 0.0, 0.5]), st.sampled_from([-0.5, 0.0, 1.0])),
)


def min_retained(values):
    k = retained_count(values, ZERO_REL_TOL)
    return float(values[k - 1]) if k else 0.0


def dense_values(op):
    dense = op.to_dense()
    return np.linalg.svd(dense, compute_uv=False) if dense.size else np.zeros(0)


@settings(max_examples=80, deadline=None)
@given(**DRAWS)
# one component over every label; several single-block components; empty
# rows and columns; non-square catalogs; zero blocks
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5))
@example(group="su2xtorus:1", cut_out=4.0, cut_in=4.0, support="matching", density=1.0,
         zero_share=0.0, seed=3, exponents=(0.0, 0.0))
@example(group="torus:1", cut_out=6.0, cut_in=1.0, support="random", density=0.1,
         zero_share=0.0, seed=5, exponents=(-1.0, 1.0))
@example(group="su2", cut_out=2.0, cut_in=6.0, support="random", density=0.3,
         zero_share=0.3, seed=10, exponents=(0.5, 0.0))
def test_component_values_match_dense_svd(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents
):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    op = assemble(sym, PowerLaw(exponents[0]), PowerLaw(exponents[1]))
    want = dense_values(op)
    got = op.singular_values
    assert got.shape == want.shape == (min(op.shape),)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    dense_rank = int(np.sum(want > RANK_TOLERANCE * want[0])) if want.size and want[0] else 0
    n_out, n_in = op.shape
    assert numerical_index(op, RANK_TOLERANCE) == (
        dense_rank, n_in - dense_rank, n_out - dense_rank, n_in - n_out
    )


def test_diagonal_operator_past_the_dense_guard():
    # N = 5050: one dense matrix would hold 25.5M entries, over the 25M guard;
    # each component is one block, and its values are analytic
    cat = enumerate_dual(SU2(), 2500.0)
    assert cat.dense_dim == 5050
    decay, s, t = 0.5, 0.3, -0.2
    op = assemble(diagonal_symbol(cat, decay), PowerLaw(s), PowerLaw(t))
    with pytest.raises(ValueError, match="dense matrix would hold 25502500 entries"):
        op.to_dense()
    want = []
    for label in cat.labels:
        l = label.index[0] / 2
        want.extend([(1 + l) ** (-decay) * (1 + l) ** s * (1 + l) ** t] * dim(label))
    np.testing.assert_allclose(
        op.singular_values, np.sort(want)[::-1], rtol=1e-12, atol=0
    )


def test_dense_guard_applies_to_each_component(monkeypatch):
    # SU(2) cutoff 2: spins 0, 1/2, 1 (N = 6); a full support is one 6 x 6
    # component, while a diagonal one is three single blocks and needs no
    # component matrix at all
    cat = enumerate_dual(SU2(), 2.0)
    connected = assemble(random_symbol(cat, cat, 1.0, 0), PowerLaw(0.0), PowerLaw(0.0))
    diagonal = assemble(diagonal_symbol(cat), PowerLaw(0.0), PowerLaw(0.0))
    monkeypatch.setattr(ops, "MAX_DENSE_ENTRIES", 30)
    with pytest.raises(
        ValueError, match=r"support component of 3 x 3 labels would hold 6 x 6 = 36 entries"
    ):
        connected.singular_values
    np.testing.assert_array_equal(diagonal.singular_values, np.ones(6))


def test_connected_operator_keeps_the_dense_svd_values():
    # one component over every label: its matrix is the dense matrix, so the
    # values are the dense SVD's, bit for bit
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.5, 1), PowerLaw(0.5), PowerLaw(-0.5))
    [(rows, cols, _)] = op.components
    assert rows == cat.labels and cols == cat.labels
    np.testing.assert_array_equal(
        op.singular_values, np.linalg.svd(op.to_dense(), compute_uv=False)
    )


@settings(max_examples=60, deadline=None)
@given(**DRAWS)
# one component over every label that the half cutoffs split into a
# three-block and a single-block component
@example(group="torus:1", cut_out=6.0, cut_in=6.0, support="random", density=0.3,
         zero_share=0.0, seed=12, exponents=(0.5, -0.5))
def test_half_cutoff_values_match_restricted_dense_svd(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents
):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    mu, nu = PowerLaw(exponents[0]), PowerLaw(exponents[1])
    op = assemble(sym, mu, nu)
    codomain = sym.codomain.restrict(lambda l: casimir(l) <= cut_out / 2)
    domain = sym.domain.restrict(lambda l: casimir(l) <= cut_in / 2)
    blocks = {
        key: block for key, block in sym.blocks.items()
        if key[0] in codomain and key[1] in domain
    }
    v_half = min_retained(dense_values(assemble(Symbol(codomain, domain, blocks), mu, nu)))
    np.testing.assert_allclose(
        min_retained(op.support_values(list(blocks))), v_half, rtol=1e-10, atol=0
    )
    if len({casimir(r) for r in sym.domain.labels}) < 2:
        return  # the compactness indicators need two Casimir levels
    v_full = min_retained(dense_values(op))
    ratio = compactness_report(op, SymbolClassParams(0.0, 0.0)).measured_value
    if v_half > 0.0:
        np.testing.assert_allclose(ratio, v_full / v_half, rtol=1e-10, atol=0)
    else:
        assert ratio == (0.0 if v_full == 0.0 else float("inf"))


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_adjoint_identity(group, cut_out, cut_in, support, density, zero_share, seed, exponents):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    op = assemble(sym, PowerLaw(exponents[0]), PowerLaw(exponents[1]))
    adj = op.adjoint()
    dense = op.to_dense()
    np.testing.assert_array_equal(adj.to_dense(), dense.conj().T)
    rng = np.random.default_rng(seed)
    n_out, n_in = op.shape
    f = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
    g = rng.standard_normal(n_out) + 1j * rng.standard_normal(n_out)
    gap = abs(np.vdot(g, op.apply(f)) - np.vdot(adj.apply(g), f))
    # |<T f, g>| <= ||T||_F |f| |g| bounds both pairings
    assert gap <= 1e-12 * np.linalg.norm(dense) * np.linalg.norm(f) * np.linalg.norm(g)


@settings(max_examples=40, deadline=None)
@given(**DRAWS, log_scale=st.floats(-3.0, 3.0), phase=st.floats(0.0, 2 * np.pi))
def test_numerical_index_invariant_under_scaling(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents, log_scale, phase
):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    mu, nu = PowerLaw(exponents[0]), PowerLaw(exponents[1])
    op = assemble(sym, mu, nu)
    values = op.singular_values
    if values.size and values[0] > 0.0:
        cut = RANK_TOLERANCE * values[0]
        assume(np.all(np.abs(values - cut) > 0.01 * cut))
    scaled = assemble(sym.scaled(10.0**log_scale * np.exp(1j * phase)), mu, nu)
    assert numerical_index(scaled, RANK_TOLERANCE) == numerical_index(op, RANK_TOLERANCE)
