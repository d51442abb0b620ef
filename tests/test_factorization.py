"""The factorization by support components against the dense SVD: random
SU(2), torus and product catalogs and supports, the half-cutoff support that
the compactness indicator reads, the cases the dense path cannot reach and
the per-component size guard; over the same draws, forward against the
dense SVD with the same phase rule and its exact zeros outside each
triple's component, the spectral-data file's runs and bitwise round trip
with signed zeros marked in, the adjoint identity, the numerical index's
invariance under scaling and additivity over direct sums, and its
certified rank against the SVD count, low-rank blocks and scales 10^k for
k in [-300, 300] included, with the certificate's Gram matrix against its
rounding bound and its peak memory against the component matrix's size.
Needs ``hypothesis`` (in the ``test`` extra)."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import muhankel.fredholm as fredholm
import muhankel.operators as ops
from muhankel.duals import SU2, PowerLaw, Product, Torus, dim, enumerate_dual
from muhankel.fredholm import numerical_index
from muhankel.operators import ZERO_REL_TOL, assemble, retained_count
from muhankel.recovery import SpectralData, forward, tikhonov_recover
from muhankel.spectral import compactness_report
from muhankel.symbols import (
    Symbol,
    SymbolClassParams,
    diagonal_symbol,
    random_matching_symbol,
    random_symbol,
)

from helpers import restrict, scaled

GROUPS = {"su2": SU2(), "torus:1": Torus(1), "su2xtorus:1": Product((SU2(), Torus(1)))}
RANK_TOLERANCE = 1e-8
VECTOR_TOL = 1e-13


def drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed):
    """A random symbol on ``group`` with the codomain and domain cut off
    separately; ``support`` "random" fills each label pair with probability
    ``density``, "matching" pairs labels one to one. A ``zero_share`` of the
    blocks is then set to zero."""
    codomain = enumerate_dual(GROUPS[group], cut_out)
    domain = enumerate_dual(GROUPS[group], cut_in)
    return drawn_on(codomain, domain, support, density, zero_share, seed)


def drawn_on(codomain, domain, support, density, zero_share, seed):
    """:func:`drawn_symbol` on the given catalogs."""
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


def test_diagonal_operator_past_the_dense_guard(monkeypatch):
    # N = 5050: one dense matrix would hold 25.5M entries, over the 25M guard;
    # each component is one block, and its values are analytic
    cat = enumerate_dual(SU2(), 2500.0)
    assert cat.dense_dim == 5050
    decay, s, t = 0.5, 0.3, -0.2
    mu, nu = PowerLaw(s), PowerLaw(t)
    sym = diagonal_symbol(cat, decay)
    op = assemble(sym, mu, nu)
    with pytest.raises(ValueError, match="dense matrix would hold 25502500 entries"):
        op.to_dense()
    want = []
    for label in cat.labels:
        l = label.index[0] / 2
        want.extend([(1 + l) ** (-decay) * (1 + l) ** s * (1 + l) ** t] * dim(label))
    np.testing.assert_allclose(
        op.singular_values, np.sort(want)[::-1], rtol=1e-12, atol=0
    )
    # forward and recovery on a few of those blocks, never densified: the
    # whole diagonal would need two 5050 x 5050 complex vector arrays
    def refuse(self):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(ops.BlockOperator, "to_dense", refuse)
    few = {(l, l): sym.blocks[(l, l)] for l in (cat.labels[0], cat.labels[50], cat.labels[-1])}
    data = forward(assemble(Symbol(cat, cat, few), mu, nu))
    assert data.u.shape == (5050, 1 + 51 + 100)
    recovered = tikhonov_recover(data, mu, nu)
    assert recovered.blocks.keys() == few.keys()
    for key, block in few.items():
        np.testing.assert_allclose(recovered.blocks[key], block, rtol=0, atol=1e-9)


def test_dense_guard_applies_to_each_component(monkeypatch):
    # SU(2) cutoff 2: spins 0, 1/2, 1 (N = 6); a full support is one 6 x 6
    # component, while a diagonal one is three single blocks and needs no
    # component matrix at all
    cat = enumerate_dual(SU2(), 2.0)
    connected = assemble(random_symbol(cat, cat, 1.0, 0), PowerLaw(0.0), PowerLaw(0.0))
    diagonal = assemble(diagonal_symbol(cat), PowerLaw(0.0), PowerLaw(0.0))
    monkeypatch.setattr(ops, "MAX_DENSE_ENTRIES", 30)
    for factor in (lambda: connected.singular_values, lambda: forward(connected)):
        with pytest.raises(
            ValueError, match=r"support component of 3 x 3 labels would hold 6 x 6 = 36 entries"
        ):
            factor()
    np.testing.assert_array_equal(diagonal.singular_values, np.ones(6))
    np.testing.assert_array_equal(forward(diagonal).s, np.ones(6))


def test_connected_operator_keeps_the_dense_svd_values():
    # one component over every label: its matrix is the dense matrix, so the
    # values are the dense SVD's, bit for bit
    cat = enumerate_dual(SU2(), 6.0)
    op = assemble(random_symbol(cat, cat, 0.5, 1), PowerLaw(0.5), PowerLaw(-0.5))
    [(rows, cols, _)] = op._components(op.weighted)
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
    codomain = restrict(sym.codomain, lambda l: l.casimir <= cut_out / 2)
    domain = restrict(sym.domain, lambda l: l.casimir <= cut_in / 2)
    blocks = {
        key: block for key, block in sym.blocks.items()
        if key[0] in codomain and key[1] in domain
    }
    v_half = min_retained(dense_values(assemble(Symbol(codomain, domain, blocks), mu, nu)))
    np.testing.assert_allclose(
        min_retained(op.support_values(list(blocks))), v_half, rtol=1e-10, atol=0
    )
    v_full = min_retained(dense_values(op))
    ratio = compactness_report(op, SymbolClassParams(0.0, 0.0)).measured_value
    if v_half > 0.0:
        np.testing.assert_allclose(ratio, v_full / v_half, rtol=1e-10, atol=0)
    else:
        assert ratio == (0.0 if v_full == 0.0 else float("inf"))


def bits(values):
    """The raw bits of a float or complex array, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(values).view(np.uint64)


def dense_forward(op):
    """The reference that ``forward`` is held to: one SVD of the dense matrix,
    the ``retained_count`` cut, and the phase that makes the largest-modulus
    entry of each ``u`` real and positive (the first such entry on ties).
    Returns every dense singular value and the retained triples."""
    u_mat, values, vh = np.linalg.svd(op.to_dense(), full_matrices=False)
    k = retained_count(values, ZERO_REL_TOL)
    u, v = u_mat[:, :k], vh[:k].conj().T
    top = u[np.argmax(np.abs(u), axis=0), np.arange(k)]
    phase = top.conj() / np.abs(top)
    return values, SpectralData(op.codomain, op.domain, values[:k], u * phase, v * phase)


def coordinate_components(op):
    """Position in ``op.components`` of the component holding each codomain
    and each domain coordinate, -1 for a label with no block."""
    rows, cols = np.full(op.shape[0], -1), np.full(op.shape[1], -1)
    for i, (pis, rhos, _) in enumerate(op.components):
        for pi in pis:
            rows[op.codomain.slice_of(pi)] = i
        for rho in rhos:
            cols[op.domain.slice_of(rho)] = i
    return rows, cols


@settings(max_examples=60, deadline=None)
@given(**DRAWS)
# a matching on the product group; one component over every label
@example(group="su2xtorus:1", cut_out=4.0, cut_in=4.0, support="matching", density=1.0,
         zero_share=0.0, seed=3, exponents=(0.5, -0.5))
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5))
def test_forward_matches_the_dense_svd_inside_each_component(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents
):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    op = assemble(sym, PowerLaw(exponents[0]), PowerLaw(exponents[1]))
    data = forward(op)
    values, want = dense_forward(op)
    k = want.s.size
    assert data.s.size == k
    if k == 0:
        return
    np.testing.assert_allclose(data.s, want.s, rtol=0, atol=1e-12 * values[0])
    # each retained value's distance to its neighbours in the dense list,
    # relative to the largest value and at most 1; a vector is fixed only up
    # to rounding over that gap, and values that tie may mix in the dense SVD
    padded = np.concatenate(([np.inf], values, [-np.inf]))
    gaps = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])[:k]
    gaps = np.minimum(gaps / values[0], 1.0)
    for i in np.flatnonzero(gaps > 1e-6):
        for got, ref in ((data.u[:, i], want.u[:, i]), (data.v[:, i], want.v[:, i])):
            np.testing.assert_allclose(got, ref, rtol=0, atol=VECTOR_TOL / gaps[i])
        assert data.attribution[i] == want.attribution[i]
    # outside its own component each triple is +0.0, real and imaginary
    # parts alike
    rows, cols = coordinate_components(op)
    for i in range(k):
        home = rows[np.argmax(np.abs(data.u[:, i]))]
        assert not bits(data.u[rows != home, i]).any()
        assert not bits(data.v[cols != home, i]).any()
    back = SpectralData.from_dict(json.loads(json.dumps(data.to_dict())))
    for got, ref in ((back.s, data.s), (back.u, data.u), (back.v, data.v)):
        np.testing.assert_array_equal(bits(got), bits(ref))
    assert back.attribution == data.attribution


def redrawn_matching(cutoff):
    """A full matching on ``su2xtorus:1``; past cutoff 6 its blocks are
    redrawn from ``default_rng(1)`` as (re + 1j im) / sqrt(2), block by
    block. At cutoff 30 it holds nearly equal values in separate blocks,
    which a dense SVD mixes at the level of rounding."""
    cat = enumerate_dual(GROUPS["su2xtorus:1"], cutoff)
    sym = random_matching_symbol(cat, cat, 0, pairs=len(cat))
    if cutoff <= 6.0:
        return sym
    rng = np.random.default_rng(1)
    blocks = {}
    for key, block in sym.blocks.items():
        re = rng.standard_normal(block.shape)
        blocks[key] = (re + 1j * rng.standard_normal(block.shape)) / np.sqrt(2.0)
    return Symbol(cat, cat, blocks)


def test_forward_zeroes_a_separated_matching_outside_each_block():
    for sym in (redrawn_matching(6.0), redrawn_matching(30.0)):
        cat = sym.codomain
        data = forward(assemble(sym, PowerLaw(0.5), PowerLaw(-0.5)))
        assert data.fully_attributed
        for i, (pi, rho) in enumerate(data.attribution):
            outside_u = np.ones(cat.dense_dim, dtype=bool)
            outside_u[cat.slice_of(pi)] = False
            outside_v = np.ones(cat.dense_dim, dtype=bool)
            outside_v[cat.slice_of(rho)] = False
            assert not bits(data.u[outside_u, i]).any()
            assert not bits(data.v[outside_v, i]).any()


def test_forward_keeps_tied_values_of_separate_components_apart():
    # a matching whose square blocks are unitary: separate components share
    # the singular value 1, and a dense SVD is free to mix their vectors
    cat = enumerate_dual(GROUPS["su2xtorus:1"], 6.0)
    rng = np.random.default_rng(0)
    blocks = {}
    for key, block in random_matching_symbol(cat, cat, 0, pairs=len(cat)).blocks.items():
        if block.shape[0] == block.shape[1]:
            block, _ = np.linalg.qr(rng.standard_normal(block.shape)
                                    + 1j * rng.standard_normal(block.shape))
        blocks[key] = block
    mu = nu = PowerLaw(0.0)
    data = forward(assemble(Symbol(cat, cat, blocks), mu, nu))
    assert data.fully_attributed
    recovered = tikhonov_recover(data, mu, nu)
    for key, block in blocks.items():
        np.testing.assert_allclose(recovered.blocks[key], block, rtol=0, atol=1e-9)


# entries a mark writes, (real, imaginary): signed zeros, and the smallest
# subnormal, which lies below every tolerance and must be kept all the same
MARKS = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, 0.0)]


@settings(max_examples=60, deadline=None)
@given(**DRAWS, marks=st.lists(st.tuples(st.floats(0, 1), st.sampled_from("uv"),
                                         st.floats(0, 1), st.sampled_from(MARKS)), max_size=4))
# a -0.0 inside a run: triple 0 spans every coordinate of its one component
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5), marks=[(0.0, "u", 0.5, (-0.0, -0.0))])
# a lone -0.0 outside the component: triple 0 sits on one block of a matching,
# and the mark falls on the last coordinate, far from it
@example(group="su2xtorus:1", cut_out=4.0, cut_in=4.0, support="matching", density=1.0,
         zero_share=0.0, seed=3, exponents=(0.0, 0.0), marks=[(0.0, "v", 1.0, (0.0, -0.0))])
def test_spectral_data_file_keeps_every_bit(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents, marks
):
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    data = forward(assemble(sym, PowerLaw(exponents[0]), PowerLaw(exponents[1])))
    k = data.s.size
    vecs = {"u": data.u.copy(), "v": data.v.copy()}
    for triple, side, coordinate, (re, im) in marks if k else []:
        column = vecs[side][:, min(int(triple * k), k - 1)]
        at = min(int(coordinate * column.size), column.size - 1)
        column.real[at], column.imag[at] = re, im
        norm = np.linalg.norm(column)
        assume(norm > 0)
        column /= norm
    marked = SpectralData(data.codomain, data.domain, data.s, vecs["u"], vecs["v"])
    payload = json.loads(json.dumps(marked.to_dict()))
    # the runs are maximal and cover exactly the entries whose bits are not
    # all zero, real and imaginary parts together
    for i, entry in enumerate(payload["triples"]):
        for side, vec in (("u", marked.u[:, i]), ("v", marked.v[:, i])):
            covered = np.zeros(vec.size, dtype=bool)
            end = -1
            for start, length in entry[side + "_runs"]:
                assert start > end and length >= 1
                covered[start : start + length] = True
                end = start + length
            np.testing.assert_array_equal(covered, (bits(vec.real) | bits(vec.imag)) != 0)
    back = SpectralData.from_dict(payload)
    for got, ref in ((back.s, marked.s), (back.u, marked.u), (back.v, marked.v)):
        np.testing.assert_array_equal(bits(got), bits(ref))
    assert back.attribution == marked.attribution

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
    op_c = assemble(scaled(sym, 10.0**log_scale * np.exp(1j * phase)), mu, nu)
    assert numerical_index(op_c, RANK_TOLERANCE) == numerical_index(op, RANK_TOLERANCE)


@settings(max_examples=40, deadline=None)
@given(**DRAWS, split=st.integers(0, 2**16))
def test_numerical_index_additive_over_a_direct_sum(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents, split
):
    # two symbols on disjoint halves of one pair of catalogs, drawn at random
    codomain = enumerate_dual(GROUPS[group], cut_out)
    domain = enumerate_dual(GROUPS[group], cut_in)
    rng = np.random.default_rng(split)
    first_out = {l for l in codomain.labels if rng.uniform() < 0.5}
    first_in = {l for l in domain.labels if rng.uniform() < 0.5}
    mu, nu = PowerLaw(exponents[0]), PowerLaw(exponents[1])
    summands = []
    for n, first in enumerate((True, False)):
        summands.append(drawn_on(
            restrict(codomain, lambda l: (l in first_out) == first),
            restrict(domain, lambda l: (l in first_in) == first),
            support, density, zero_share, seed + n,
        ))
    total = assemble(Symbol(codomain, domain, {**summands[0].blocks, **summands[1].blocks}),
                     mu, nu)
    parts = [assemble(summand, mu, nu) for summand in summands]
    # the rank cut is relative to each operator's largest value: drop draws
    # where a summand's value lies near its own cut or the direct sum's
    top = max((float(op.singular_values[0]) for op in parts if op.singular_values.size),
              default=0.0)
    for op in parts:
        values = op.singular_values
        if values.size and values[0] > 0.0:
            low, high = sorted((RANK_TOLERANCE * values[0], RANK_TOLERANCE * top))
            assume(not np.any((values > 0.99 * low) & (values <= 1.01 * high)))
    want = np.sum([numerical_index(op, RANK_TOLERANCE) for op in parts], axis=0)
    assert numerical_index(total, RANK_TOLERANCE) == tuple(int(x) for x in want)


@settings(max_examples=80, deadline=None)
@given(**DRAWS, low_rank=st.sampled_from([0.0, 0.5, 1.0]), k=st.integers(-300, 300),
       tol=st.sampled_from([1e-8, 1e-4, 1e-2]))
# one full-rank component over every label, at both ends of the float range;
# the same support with every block of rank one; full-rank components beside
# zero blocks on non-square catalogs
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5), low_rank=0.0, k=300, tol=1e-8)
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5), low_rank=0.0, k=-300, tol=1e-2)
@example(group="su2", cut_out=6.0, cut_in=6.0, support="random", density=1.0,
         zero_share=0.0, seed=0, exponents=(0.5, -0.5), low_rank=1.0, k=0, tol=1e-8)
@example(group="su2", cut_out=6.0, cut_in=12.0, support="random", density=0.3,
         zero_share=0.3, seed=3, exponents=(0.0, 1.0), low_rank=0.0, k=0, tol=1e-4)
# a tall (20 x 7) and a wide (5 x 7, whose transpose is split) full-rank
# component, then two wide ones, at both ends of the float range, where the
# split takes the scale
@example(group="su2", cut_out=12.0, cut_in=6.0, support="random", density=0.3,
         zero_share=0.0, seed=0, exponents=(0.0, 0.0), low_rank=0.0, k=300, tol=1e-4)
@example(group="su2", cut_out=12.0, cut_in=6.0, support="random", density=0.3,
         zero_share=0.0, seed=0, exponents=(0.0, 0.0), low_rank=0.0, k=-300, tol=1e-4)
@example(group="su2", cut_out=6.0, cut_in=12.0, support="random", density=0.3,
         zero_share=0.0, seed=3, exponents=(0.0, 0.0), low_rank=0.0, k=300, tol=1e-4)
def test_certified_rank_equals_the_svd_count(
    group, cut_out, cut_in, support, density, zero_share, seed, exponents, low_rank, k, tol
):
    # a share low_rank of the blocks is replaced by an outer product of its
    # first column and first row, which has rank one
    sym = drawn_symbol(group, cut_out, cut_in, support, density, zero_share, seed)
    rng = np.random.default_rng(seed + 2)
    blocks = {key: block[:, :1] @ block[:1] if rng.uniform() < low_rank else block
              for key, block in sym.blocks.items()}
    sym = scaled(Symbol(sym.codomain, sym.domain, blocks), 10.0**k)
    op = assemble(sym, PowerLaw(exponents[0]), PowerLaw(exponents[1]))
    got = numerical_index(op, tol)
    rank = retained_count(op.singular_values, tol)
    n_out, n_in = op.shape
    assert got == (rank, n_in - rank, n_out - rank, n_in - n_out)


def test_full_rank_connected_operator_skips_the_svd():
    # SU(2) cutoff 12, density 0.3, seed 2: one support component of 18 blocks
    # with every singular value above 1e-2 times the largest
    cat = enumerate_dual(SU2(), 12.0)
    sym = random_symbol(cat, cat, 0.3, 2)
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    op = assemble(sym, mu, nu)
    assert [len(keys) for *_, keys in op.components] == [18]
    assert numerical_index(op, RANK_TOLERANCE) == (28, 0, 0, 0)
    assert "singular_values" not in vars(op)
    # zero the one block of a domain label: its columns are zero, and the SVD counts
    lone = next(key for key in sym.blocks if [rho for _, rho in sym.blocks].count(key[1]) == 1)
    zeroed = assemble(Symbol(cat, cat, {**sym.blocks, lone: 0 * sym.blocks[lone]}), mu, nu)
    rank = numerical_index(zeroed, RANK_TOLERANCE)[0]
    assert "singular_values" in vars(zeroed)
    assert rank == retained_count(zeroed.singular_values, RANK_TOLERANCE) == 28 - lone[1].dim


@pytest.mark.parametrize("power", [-500, 0, 500])
@pytest.mark.parametrize("part", ["complex", "real", "imaginary"])
@pytest.mark.parametrize("dims", [(7, 3), (3, 7), (4, 4)])
def test_gram_within_its_rounding_bound(dims, part, power):
    # one block of SU(2) labels of the given dimensions, scaled by 2^power;
    # each part of G is two length-n real dot products and one addition, so
    # every entry is within 2 gamma_(n+1) (|A|^T |A|)_ij of the exact one
    cat = enumerate_dual(SU2(), 12.0)  # dimensions 1 to 7
    pi, rho = (next(l for l in cat.labels if l.dim == d) for d in dims)
    rng = np.random.default_rng(sum(dims))
    block = {"complex": 1.0, "real": 0.0, "imaginary": 1j}[part] * rng.standard_normal(dims)
    if part == "complex":
        block = block + 1j * rng.standard_normal(dims)
    sym = scaled(Symbol(cat, cat, {(pi, rho): block}), 2.0**power)
    op = assemble(sym, PowerLaw(0.0), PowerLaw(0.0))
    m = op.weighted[pi, rho]
    s = ops.frobenius([m])[0]
    gram = fredholm._gram(m, s)
    a = (m if dims[0] >= dims[1] else m.T).astype(np.clongdouble) * s
    n, k = a.shape
    assert gram.shape == (k, k)
    exact = a.conj().T @ a
    u = np.finfo(float).eps / 2
    bound = 2 * (n + 1) * u / (1 - (n + 1) * u) * (np.abs(a).T @ np.abs(a))
    assert np.all(np.abs(gram - exact) <= bound)
    if part != "complex":  # X or Y is zero, so X^T Y is
        assert not gram.imag.any()


def test_certificate_peak_memory_is_below_three_component_matrices():
    # the complex matrix is dropped once split into its real and imaginary
    # parts; the Gram matrix and its Cholesky factor are each as large as it
    cat = enumerate_dual(SU2(), 143.75)  # spins 0 to 23/2, N = 300
    op = assemble(random_symbol(cat, cat, 1.0, 0), PowerLaw(0.5), PowerLaw(-0.5))
    [component] = op.components
    nbytes = op._component_matrix(component).nbytes
    tracemalloc.start()
    try:
        rank = fredholm._certified_rank(op, RANK_TOLERANCE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == op.shape[0] == 300
    assert peak <= 2.75 * nbytes
