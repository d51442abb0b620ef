"""Index diagnostics: determinant-sign formula, numerical kernel/cokernel
dimensions on dense truncations, and circle winding numbers.

The two index computations are deliberately independent. The formula route
needs square blocks with (numerically) real determinants and counts d_pi*d_rho
over blocks with negative determinant; the numerical route counts singular
values against a relative rank tolerance. Disagreements are surfaced, never
reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import IrrepLabel, dim
from .operators import BlockOperator, retained_count

# Relative imaginary part above which a block determinant is not "real".
DET_IMAG_TOL = 1e-9
# Winding loops with a sample of modulus at or below this are rejected.
MIN_LOOP_MODULUS = 1e-9
# Default relative rank tolerance of the numerical index.
RANK_TOL = 1e-8

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
        pairs = [{"pi_index": list(pi.index), "rho_index": list(rho.index), "weight": w}
                 for pi, rho, w in self.contributing_pairs]
        return {**vars(self), "contributing_pairs": pairs}


def index_formula(op: BlockOperator) -> tuple[int, list[ContributingPair]]:
    """Sum d_pi * d_rho over blocks whose weighted determinant is negative.

    Every stored block must be square with a real determinant; anything else
    raises FormulaInapplicableError naming the offending pair.
    """
    contributing: list[ContributingPair] = []
    for (pi, rho), block in sorted(
        op.weighted.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index)
    ):
        if block.shape[0] != block.shape[1]:
            raise FormulaInapplicableError(
                f"block ({pi.index}, {rho.index}) is {block.shape[0]}x{block.shape[1]}, "
                "determinant sign undefined for non-square blocks"
            )
        det = complex(np.linalg.det(block))
        if abs(det.imag) > DET_IMAG_TOL * abs(det):
            raise FormulaInapplicableError(
                f"block ({pi.index}, {rho.index}) has materially complex "
                f"determinant {det:.6g}"
            )
        if det.real < 0:
            contributing.append((pi, rho, dim(pi) * dim(rho)))
    return sum(w for _, _, w in contributing), contributing


def numerical_index(
    op: BlockOperator, rank_tolerance: float = RANK_TOL
) -> tuple[int, int, int, int]:
    """(rank, kernel dim, cokernel dim, index) of the dense truncation.

    Rank counts singular values above rank_tolerance times the largest one
    (zero operator has rank zero).
    """
    if not (math.isfinite(rank_tolerance) and rank_tolerance > 0):
        raise ValueError(f"rank tolerance must be finite and > 0, got {rank_tolerance}")
    n_out, n_in = op.shape
    rank = retained_count(op.singular_values, rank_tolerance)
    kernel = n_in - rank
    cokernel = n_out - rank
    return rank, kernel, cokernel, kernel - cokernel


def index_report(op: BlockOperator, rank_tolerance: float = RANK_TOL) -> IndexReport:
    """Run both index routes; formula inapplicability is recorded, not fatal.
    If the numerical SVD fails as well, FormulaInapplicableError names both."""
    formula = None
    pairs: list[ContributingPair] = []
    error = None
    try:
        formula, pairs = index_formula(op)
    except FormulaInapplicableError as exc:
        error = str(exc)
    try:
        rank, kernel, cokernel, idx = numerical_index(op, rank_tolerance)
    except np.linalg.LinAlgError as exc:
        if error is None:
            raise
        raise FormulaInapplicableError(
            f"formula inapplicable ({error}); numerical SVD failed ({exc})"
        ) from exc
    return IndexReport(
        formula_index=formula,
        contributing_pairs=pairs,
        formula_error=error,
        numerical_rank=rank,
        numerical_kernel_dim=kernel,
        numerical_cokernel_dim=cokernel,
        numerical_index=idx,
        rank_tolerance=rank_tolerance,
    )


def winding_number(samples) -> int:
    """Winding of a closed loop sampled at equispaced circle points.

    Sums principal-branch phase increments around the loop. Any sample with
    modulus at or below ``MIN_LOOP_MODULUS`` rejects the input, as does any
    phase step of magnitude >= pi (the sampling cannot resolve the turn).
    """
    z = np.asarray(samples, dtype=np.complex128)
    if z.size < 2:
        raise ValueError("winding number needs at least two samples")
    if np.min(np.abs(z)) <= MIN_LOOP_MODULUS:
        raise ValueError(
            f"loop passes within {MIN_LOOP_MODULUS} of the origin; winding undefined"
        )
    steps = np.angle(np.roll(z, -1) / z)
    if np.max(np.abs(steps)) >= np.pi - 1e-12:
        raise ValueError(
            "phase step of magnitude >= pi encountered; increase the sample count"
        )
    total = float(np.sum(steps)) / (2.0 * np.pi)
    nearest = int(round(total))
    if abs(total - nearest) > 0.25:
        raise ValueError(f"phase increments sum to {total:.4f} turns, not an integer")
    return nearest
