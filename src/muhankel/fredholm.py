"""Index diagnostics: determinant-sign formula, numerical kernel/cokernel
dimensions on dense truncations, and circle winding numbers, among them
that of a torus Hankel symbol's Fourier series.

The two index computations are deliberately independent. The formula route
needs square blocks with (numerically) real determinants and counts d_pi*d_rho
over blocks with negative determinant; the numerical route counts singular
values above a relative cut, or proves by Cholesky that none lies below it.
Disagreements are surfaced, never reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import IrrepLabel, Torus, _finite
from .operators import BlockOperator, frobenius, retained_count
from .symbols import Symbol, _by_key, _key_fields

# Relative imaginary part above which a block determinant is not "real".
DET_IMAG_TOL = 1e-9
# Winding loops with a sample at or below this times their largest modulus are rejected.
MIN_LOOP_MODULUS = 1e-9
# Default relative rank tolerance of the numerical index.
RANK_TOL = 1e-8
EPS = float(np.finfo(float).eps)

ContributingPair = tuple[IrrepLabel, IrrepLabel, int]


class FormulaInapplicableError(ValueError):
    """The determinant-sign formula does not apply to this operator."""


@dataclass
class IndexReport:
    formula_index: int | None
    contributing_pairs: list[ContributingPair]
    formula_error: str | None
    numerical_rank: int
    numerical_kernel_dim: int
    numerical_cokernel_dim: int
    numerical_index: int
    rank_tolerance: float

    def to_dict(self) -> dict:
        pairs = [{**_key_fields((pi, rho)), "weight": w} for pi, rho, w in self.contributing_pairs]
        return {**vars(self), "contributing_pairs": pairs}


def index_formula(op: BlockOperator) -> tuple[int, list[ContributingPair]]:
    """Sum d_pi * d_rho over blocks whose weighted determinant is negative.

    Every stored block must be square with a real determinant; anything else
    raises FormulaInapplicableError naming the offending pair.
    """
    contributing: list[ContributingPair] = []
    for (pi, rho), block in _by_key(op.weighted.items()):
        if block.shape[0] != block.shape[1]:
            raise FormulaInapplicableError(f"block ({pi.index}, {rho.index}) is {block.shape[0]}x"
                                           f"{block.shape[1]}, determinant sign undefined for "
                                           "non-square blocks")
        det = complex(np.linalg.det(block))
        if abs(det.imag) > DET_IMAG_TOL * abs(det):
            raise FormulaInapplicableError(f"block ({pi.index}, {rho.index}) has materially "
                                           f"complex determinant {det:.6g}")
        if det.real < 0:
            contributing.append((pi, rho, pi.dim * rho.dim))
    return sum(w for _, _, w in contributing), contributing


def numerical_index(op: BlockOperator,
                    rank_tolerance: float = RANK_TOL) -> tuple[int, int, int, int]:
    """(rank, kernel dim, cokernel dim, index) of the dense truncation.

    Rank counts singular values above tol = rank_tolerance times the largest
    one (zero operator has rank zero). Where each support component provably
    has all values above b = 2 tol ||T||_F, it is the sum of min(rows, cols),
    with no SVD: a single block if its smallest value is above b, another
    component's matrix M if Cholesky factors G - c I, c = b^2 + 4 (n + k + 2)
    eps tr(G) (Rump 2006, BIT 46), G = A^H A for A (n x k, n >= k) = s M or
    s M^T, s as in ``frobenius`` (the Gram of M^T is conj(M M^H): the same
    eigenvalues and trace). G = X^T X + Y^T Y + i (X^T Y - (X^T Y)^T) from
    X = Re A, Y = Im A: each part is two length-n real dot products and one
    addition, so ||dG||_2 <= 2 gamma_(n+1) tr(G) (Higham 2002, 3.1), under a
    quarter of c's rounding term; the rest bounds the shift and the factors.
    As b >= 2 tol ||T||_2 the SVD's rounding cannot move such a value below
    the cut. Else, and for tol >= 1/2 or < 1e3 max(shape) eps (a
    rounding-level count), the SVD counts.
    """
    _finite(rank_tolerance, "rank tolerance", "> 0")
    if (rank := _certified_rank(op, rank_tolerance)) is None:
        rank = retained_count(op.singular_values, rank_tolerance)
    n_out, n_in = op.shape
    return rank, n_in - rank, n_out - rank, n_in - n_out


def _certified_rank(op: BlockOperator, tol: float) -> int | None:
    """The rank that :func:`numerical_index`'s certificate proves, or None."""
    s, norm = frobenius(op.weighted.values())
    floor = 2.0 * tol * norm
    singles = [op.block_singular_values[keys[0]] for *_, keys in op.components if len(keys) == 1]
    if not 1e3 * max(op.shape) * EPS <= tol < 0.5 or not all(s * v[-1] > floor for v in singles):
        return None
    rank = sum(v.size for v in singles)
    for c in (c for c in op.components if len(c[2]) > 1):
        gram = _gram(op._component_matrix(c), s)
        n_k = sum(l.dim for l in c[0] + c[1])
        gram.flat[:: len(gram) + 1] -= floor**2 + 4 * (n_k + 2) * EPS * np.trace(gram).real
        try:
            rank += len(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            return None
    return rank


def _gram(m: np.ndarray, s: float) -> np.ndarray:
    """:func:`numerical_index`'s G of ``m`` and ``s``, from contiguous X and Y
    (two syrk and one gemm), ``m`` dropped once they are made."""
    x, y = (s * part.T if len(m) < len(m.T) else s * part for part in (m.real, m.imag))
    del m
    gram = (x.T @ x).astype(complex)
    gram.real += y.T @ y
    np.subtract(t := x.T @ y, t.T, out=gram.imag)
    return gram


def index_report(op: BlockOperator, rank_tolerance: float = RANK_TOL) -> IndexReport:
    """Run both index routes; formula inapplicability is recorded, not fatal.
    If the numerical SVD fails as well, FormulaInapplicableError names both."""
    formula, pairs, error = None, [], None
    try:
        formula, pairs = index_formula(op)
    except FormulaInapplicableError as exc:
        error = str(exc)
    try:
        numerical = numerical_index(op, rank_tolerance)  # the report's next four fields
    except np.linalg.LinAlgError as exc:
        if error is None:
            raise
        raise FormulaInapplicableError(f"formula inapplicable ({error}); numerical SVD "
                                       f"failed ({exc})") from exc
    return IndexReport(formula, pairs, error, *numerical, rank_tolerance)


def winding_number(samples) -> int:
    """Winding of a closed loop sampled at equispaced circle points.

    Sums principal-branch phase increments around the loop. Any sample with
    modulus at or below ``MIN_LOOP_MODULUS`` times the largest rejects it, as does any
    phase step of magnitude >= pi (the sampling cannot resolve the turn).
    Each step is the principal angle of z[k+1] / z[k] and the loop closes, so
    the steps sum to 2 pi times an integer, which rounding moves by under
    1e-8 turns for up to ``MAX_DENSE_DIM`` samples.
    """
    z = np.asarray(samples, dtype=np.complex128)
    if z.size < 2:
        raise ValueError("winding number needs at least two samples")
    modulus = np.abs(z)
    if np.min(modulus) <= MIN_LOOP_MODULUS * np.max(modulus):
        raise ValueError(f"loop passes within {MIN_LOOP_MODULUS} of the origin, relative to "
                         "its largest modulus; winding undefined")
    steps = np.angle(np.roll(z, -1) / z)
    if np.max(np.abs(steps)) >= np.pi - 1e-12:
        raise ValueError("phase step of magnitude >= pi encountered; increase the sample count")
    return int(round(float(np.sum(steps)) / (2.0 * np.pi)))


def hankel_winding(sym: Symbol, samples: int) -> int | None:
    """Winding number of sum_k c_k e^(ik theta) at ``samples`` equispaced
    theta, for a symbol with the Hankel law a(n, m) = c(n + m) on
    one-dimensional tori (the inverse of ``hankel_symbol_from_fourier``);
    None for any other symbol, or one without blocks. A loop that
    :func:`winding_number` refuses raises its ValueError."""
    if not sym.blocks or sym.codomain.group != Torus(1) or sym.domain.group != Torus(1):
        return None
    coeffs: dict[int, complex] = {}
    for (pi, rho), block in sym.blocks.items():
        k, value = pi.index[0] + rho.index[0], complex(block[0, 0])
        if abs(coeffs.setdefault(k, value) - value) > 1e-12 * max(1.0, abs(value)):
            return None
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return winding_number(sum(c * np.exp(1j * k * theta) for k, c in coeffs.items()))
