"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import time

import numpy as np

from muhankel.duals import (
    PowerLaw,
    SU2,
    Torus,
    UNIT_WEIGHT,
    dim,
    enumerate_dual,
)
from muhankel.fredholm import numerical_index, winding_number
from muhankel.operators import assemble
from muhankel.recovery import forward, stability_scan, tikhonov_recover
from muhankel.spectral import (
    compactness_report,
    norm_criteria,
    schatten_series_scan,
)
from muhankel.symbols import (
    Symbol,
    SymbolClassParams,
    diagonal_symbol,
    hankel_symbol_from_fourier,
    random_matching_symbol,
    random_symbol,
)

from helpers import restrict, scaled, separated_matching, sorted_desc


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_block_dense_svd_equivalence():
    # 200 seeded random partial-matching symbols; the dense singular values
    # must equal the union of per-block singular values to 1e-10, in < 60 s
    start = time.perf_counter()
    su2 = enumerate_dual(SU2(), 12.0)  # spins l <= 3
    torus = enumerate_dual(Torus(1), 256.0)  # |n| <= 16
    worst = 0.0
    for seed in range(100):
        for codomain, domain in ((su2, su2), (torus, torus)):
            sym = random_matching_symbol(codomain, domain, seed)
            op = assemble(sym, PowerLaw(0.25), PowerLaw(-0.25))
            per_block = op.block_singular_values
            union = (
                np.concatenate(list(per_block.values()))
                if per_block
                else np.zeros(0)
            )
            padded = np.zeros(op.singular_values.size)
            padded[: union.size] = sorted_desc(union)
            worst = max(worst, float(np.max(np.abs(op.singular_values - padded))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 60.0,
        f"200 matchings, worst multiset deviation {worst:.3g}, {elapsed:.1f}s",
    )


def test_criterion_2_diagonal_spectrum_structure():
    # diagonal symbol with exponents s = t = 1 up to spin 3: singular values
    # are (1+l)^2, each with multiplicity 2l+1
    cat = enumerate_dual(SU2(), 12.0)
    values = assemble(diagonal_symbol(cat), PowerLaw(1.0), PowerLaw(1.0)).singular_values
    expected = []
    for label in cat.labels:
        l = label.index[0] / 2
        expected.extend([(1 + l) ** 2] * dim(label))
    deviation = float(np.max(np.abs(values - sorted_desc(expected))))
    report(2, deviation < 1e-10, f"max singular value deviation {deviation:.3g}")


def test_criterion_3_schur_bound_never_violated():
    su2 = enumerate_dual(SU2(), 6.0)
    torus = enumerate_dual(Torus(1), 9.0)
    rng = np.random.default_rng(2024)
    violations = 0
    total = 1000
    for seed in range(total):
        cat = su2 if seed % 2 else torus
        mu = PowerLaw(float(rng.uniform(-1, 1)))
        nu = PowerLaw(float(rng.uniform(-1, 1)))
        sym = random_symbol(cat, cat, float(rng.uniform(0.1, 1.0)), seed)
        schur, _ = norm_criteria(assemble(sym, mu, nu), SymbolClassParams(2.0, 2.0))
        if not schur.satisfied:
            violations += 1
    report(3, violations == 0, f"{violations} violations in {total} instances")


def test_criterion_4_schatten_threshold_scan():
    start = time.perf_counter()
    verdicts = {
        (2.0, 2.0): schatten_series_scan(2.0, 2.0)[0].satisfied,
        (2.0, 1.0): schatten_series_scan(1.0, 2.0)[0].satisfied,
        (2.0, 1.5): schatten_series_scan(1.5, 2.0)[0].satisfied,
    }
    elapsed = time.perf_counter() - start
    ok = verdicts == {(2.0, 2.0): True, (2.0, 1.0): False, (2.0, 1.5): False}
    report(4, ok and elapsed < 10.0, f"verdicts {verdicts}, {elapsed:.2f}s")


def test_criterion_5_adjoint_identity():
    cat = enumerate_dual(SU2(), 6.0)
    rng = np.random.default_rng(5)
    exact = True
    worst_pairing = 0.0
    for seed in range(5):
        op = assemble(random_symbol(cat, cat, 0.5, seed), PowerLaw(0.6), PowerLaw(-0.4))
        adj = op.adjoint()
        exact = exact and bool(np.array_equal(adj.to_dense(), op.to_dense().conj().T))
        for _ in range(20):
            f = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            g = rng.standard_normal(15) + 1j * rng.standard_normal(15)
            gap = abs(np.vdot(g, op.apply(f)) - np.vdot(adj.apply(g), f))
            worst_pairing = max(worst_pairing, gap)
    report(
        5,
        exact and worst_pairing < 1e-10,
        f"dense adjoint exact: {exact}, worst pairing gap {worst_pairing:.3g} "
        "over 100 pairs",
    )


def test_criterion_6_torus_classical_reduction():
    cat = restrict(enumerate_dual(Torus(1), 81.0), lambda l: l.index[0] >= 0)
    coeffs = {0: 1.0 + 0.5j, 1: -2.0, 3: 0.25j, 8: 3.0, 17: -1.0}
    op = assemble(hankel_symbol_from_fourier(coeffs, cat, cat), UNIT_WEIGHT, UNIT_WEIGHT)
    ns = [l.index[0] for l in cat.labels]
    classical = np.array(
        [[coeffs.get(n + m, 0.0) for m in ns] for n in ns], dtype=complex
    )
    entrywise = bool(np.array_equal(op.to_dense(), classical))
    theta = 2 * np.pi * np.arange(256) / 256
    wind = winding_number(np.exp(3j * theta))
    report(
        6,
        entrywise and wind == 3,
        f"classical Hankel equality: {entrywise}, winding(e^(3i theta)) = {wind}",
    )


def test_criterion_7_round_trip_recovery():
    su2 = enumerate_dual(SU2(), 6.0)  # dense dimension 15
    torus = enumerate_dual(Torus(1), 49.0)  # |n| <= 7, dense dimension 15
    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    worst = 0.0
    for seed in range(50):
        codomain, domain = (su2, su2) if seed % 2 else (torus, torus)
        sym = separated_matching(codomain, domain, mu, nu, seed)
        recovered = tikhonov_recover(forward(assemble(sym, mu, nu)), mu, nu, 0.0)
        for key in set(sym.blocks) | set(recovered.blocks):
            err = float(np.max(np.abs(recovered.blocks.get(key, 0) - sym.blocks.get(key, 0))))
            worst = max(worst, err)
    report(7, worst < 1e-9, f"50 round trips, worst entry error {worst:.3g}")


def test_criterion_8_stability_rate():
    start = time.perf_counter()
    cat = enumerate_dual(SU2(), 6.0)
    sym = separated_matching(cat, cat, UNIT_WEIGHT, UNIT_WEIGHT, 7)
    deltas = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    rows, slope = stability_scan(sym, UNIT_WEIGHT, UNIT_WEIGHT, deltas, trials=20, seed=11)
    elapsed = time.perf_counter() - start
    ok = slope is not None and 0.8 <= slope <= 1.2 and elapsed < 120.0
    report(8, ok, f"log-log slope {slope:.4f} over deltas {deltas}, {elapsed:.1f}s")


def test_criterion_9_property_substitutes():
    # (a) compactness indicators respond monotonically to the decay exponent
    cat = enumerate_dual(SU2(), 30.0)
    ratios = []
    for s in (0.5, 1.0, 1.5, 2.0):
        op = assemble(diagonal_symbol(cat), UNIT_WEIGHT, PowerLaw(-s))
        ratios.append(compactness_report(op, SymbolClassParams(0.0, 0.0)).measured_value)
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))

    # (b) numerical index is scalar-invariant and additive over matched blocks
    su2 = enumerate_dual(SU2(), 6.0)
    torus = enumerate_dual(Torus(1), 4.0)
    invariant = True
    additive = True
    for seed in range(50):
        sym = random_matching_symbol(su2, su2, seed)
        op = assemble(sym, UNIT_WEIGHT, UNIT_WEIGHT)
        base = numerical_index(op)
        for c in (3.0, -1j):
            op_c = assemble(scaled(sym, c), UNIT_WEIGHT, UNIT_WEIGHT)
            invariant = invariant and numerical_index(op_c) == base
    for seed in range(50):
        rng = np.random.default_rng(seed)
        blocks = {}
        per_block = 0
        for pi, rho in zip(su2.labels, torus.labels):
            mat = rng.standard_normal((dim(pi), 1)) + 1j * rng.standard_normal((dim(pi), 1))
            if rng.uniform() < 0.25:
                mat = np.zeros((dim(pi), 1), dtype=complex)
            blocks[(pi, rho)] = mat
            sub = assemble(
                Symbol(
                    restrict(su2, lambda l, want=pi: l == want),
                    restrict(torus, lambda l, want=rho: l == want),
                    {(pi, rho): mat},
                ),
                UNIT_WEIGHT,
                UNIT_WEIGHT,
            )
            per_block += numerical_index(sub)[3]
        whole = assemble(Symbol(su2, torus, blocks), UNIT_WEIGHT, UNIT_WEIGHT)
        additive = additive and numerical_index(whole)[3] == per_block
    report(
        9,
        monotone and invariant and additive,
        f"compactness ratios {[f'{r:.3f}' for r in ratios]} monotone: {monotone}; "
        f"index scalar-invariant: {invariant}, additive: {additive} "
        "(100 instances)",
    )
