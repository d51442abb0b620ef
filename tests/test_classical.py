"""Classical theorems as checks: instances the toolkit builds whose answers
are known independently of it. Hankel sections go through
``hankel_symbol_from_fourier`` on the half-line 1-torus labels 0, ..., n, so
the operator is the (n+1) x (n+1) matrix c(j + k); the Schatten check uses
``diagonal_symbol`` on SU(2)."""

import math

import numpy as np
import pytest

from muhankel.duals import SU2, UNIT_WEIGHT, enumerate_dual
from muhankel.fredholm import RANK_TOL
from muhankel.operators import assemble, retained_count
from muhankel.spectral import schatten_norm, schatten_series_scan
from muhankel.symbols import diagonal_symbol, hankel_symbol_from_fourier

from helpers import torus_halfline


def hankel_values(c, n):
    """Singular values of the Hankel section c(j + k), j, k = 0, ..., n."""
    catalog = torus_halfline(n)
    symbol = hankel_symbol_from_fourier({k: c(k) for k in range(2 * n + 1)}, catalog, catalog)
    return assemble(symbol, UNIT_WEIGHT, UNIT_WEIGHT).singular_values


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("c, terms", [
    (lambda k: 0.5**k, 1),
    (lambda k: 0.5**k + (-0.3)**k, 2),
    (lambda k: 0.9**k + 0.5**k + 0.2**k, 3),
])
def test_kronecker_rank_is_the_number_of_geometric_terms(c, terms, n):
    # Kronecker: the Hankel matrix of sum_j a_j r_j^k, distinct |r_j| < 1,
    # has rank equal to the number of terms, at every section past it
    assert retained_count(hankel_values(c, n), RANK_TOL) == terms


def test_hilbert_sections_rise_below_pi():
    # Hilbert's inequality: c(k) = 1/(k+1) has norm pi, and each finite
    # section's norm lies below it and rises with the size
    norms = [hankel_values(lambda k: 1.0 / (k + 1), n)[0] for n in (10, 20, 40, 80, 160)]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < math.pi
    np.testing.assert_allclose(norms[0], 1.7749, atol=5e-5)  # size 11
    np.testing.assert_allclose(norms[2], 2.0427, atol=5e-5)  # size 41


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("kind", ["random", "hilbert"])
def test_hankel_section_hs_norm_counts_each_anti_diagonal(kind, n):
    # the HS norm of c(j + k) is sqrt(sum_k n_k |c_k|^2), n_k the entries on
    # anti-diagonal k of the (n+1) x (n+1) section
    rng = np.random.default_rng(n)
    coeffs = (rng.standard_normal(2 * n + 1) + 1j * rng.standard_normal(2 * n + 1)
              if kind == "random" else 1.0 / np.arange(1, 2 * n + 2))
    k = np.arange(2 * n + 1)
    counts = np.minimum(k, 2 * n - k) + 1
    np.testing.assert_allclose(schatten_norm(hankel_values(lambda i: coeffs[i], n), 2),
                               math.sqrt(np.sum(counts * np.abs(coeffs) ** 2)), rtol=1e-12)


@pytest.mark.parametrize("p, alpha", [(2.0, 1.5), (1.0, 2.5), (3.5, 0.7)])
@pytest.mark.parametrize("half_integers", [True, False])
@pytest.mark.parametrize("cutoff", [6.0, 72.0])
def test_diagonal_schatten_norm_in_closed_form(cutoff, half_integers, p, alpha):
    # the diagonal with decay alpha holds (1+l)^(-alpha) I_(2l+1) at spin l,
    # one copy per label: ||T||_p^p = sum_l (2l+1) (1+l)^(-p alpha)
    catalog = enumerate_dual(SU2(half_integers), cutoff)
    op = assemble(diagonal_symbol(catalog, alpha), UNIT_WEIGHT, UNIT_WEIGHT)
    spins = np.array([(label.dim - 1) / 2 for label in catalog.labels])
    expected = np.sum((2 * spins + 1) * (1 + spins) ** (-p * alpha)) ** (1 / p)
    np.testing.assert_allclose(schatten_norm(op.singular_values, p), expected, rtol=1e-13)


def test_scan_operator_column_is_the_single_copy_diagonal():
    # schatten-scan's operator_schatten column is that same operator's norm on
    # integer spins l <= l_max, not the criterion series' d_pi-copy operator
    _, rows = schatten_series_scan(1.5, 2.0, (8, 16, 32, 64))
    for row in rows:
        l_max = row["l_max"]
        catalog = enumerate_dual(SU2(half_integers=False), l_max * (l_max + 1))
        op = assemble(diagonal_symbol(catalog, 1.5), UNIT_WEIGHT, UNIT_WEIGHT)
        np.testing.assert_allclose(row["operator_schatten"],
                                   schatten_norm(op.singular_values, 2.0), rtol=1e-13)
