"""Symbol recovery from singular-value data.

The forward map takes an assembled operator to its list of singular triples.
Each triple is attributed to the block carrying (at least 99% of) the squared
mass of its singular vectors; recovery reassembles every attributed block
from its triples and divides out the weights. Degenerate data that cannot be
attributed is refused rather than guessed at. Noisy data goes through the
same pipeline with a closed-form per-block Tikhonov solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .duals import DualCatalog, IrrepLabel, Weight, weight_eval
from .operators import BlockOperator, assemble
from .symbols import (
    BlockKey,
    Symbol,
    hs_norm,
    symbol_difference,
)

# A triple belongs to a block when both vectors carry at least this fraction
# of their squared mass inside the block's coordinate ranges.
ATTRIBUTION_MASS = 0.99


class AttributionError(ValueError):
    """Spectral data could not be attributed to blocks unambiguously."""


@dataclass
class SingularTriple:
    s: float
    u: np.ndarray
    v: np.ndarray


@dataclass
class SpectralData:
    """Singular triples of an operator plus their block attribution.

    ``attribution[i]`` is the (pi, rho) key for triple i, or None when the
    mass rule failed for that triple.
    """

    codomain: DualCatalog
    domain: DualCatalog
    triples: list[SingularTriple]
    attribution: list[BlockKey | None]

    def __post_init__(self) -> None:
        if len(self.attribution) != len(self.triples):
            raise ValueError("attribution list must align with triples")
        prev = np.inf
        for i, t in enumerate(self.triples):
            t.u = np.asarray(t.u, dtype=np.complex128)
            t.v = np.asarray(t.v, dtype=np.complex128)
            if t.s < 0 or t.s > prev:
                raise ValueError("singular values must be nonnegative and descending")
            prev = t.s
            if t.u.shape != (self.codomain.dense_dim,):
                raise ValueError(f"triple {i}: left vector has wrong length")
            if t.v.shape != (self.domain.dense_dim,):
                raise ValueError(f"triple {i}: right vector has wrong length")
            for vec in (t.u, t.v):
                if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                    raise ValueError(f"triple {i}: singular vectors must be unit norm")
            key = self.attribution[i]
            if key is not None:
                pi, rho = key
                if _block_mass(t.u, self.codomain, pi) < ATTRIBUTION_MASS - 1e-12:
                    raise ValueError(f"triple {i}: left mass rule violated for {pi.index}")
                if _block_mass(t.v, self.domain, rho) < ATTRIBUTION_MASS - 1e-12:
                    raise ValueError(f"triple {i}: right mass rule violated for {rho.index}")

    @property
    def fully_attributed(self) -> bool:
        return all(key is not None for key in self.attribution)

    def reassemble(self) -> np.ndarray:
        """Dense matrix sum_n s_n u_n v_n^H, accumulated in triple order."""
        dense = np.zeros(
            (self.codomain.dense_dim, self.domain.dense_dim), dtype=np.complex128
        )
        for t in self.triples:
            dense += t.s * np.outer(t.u, t.v.conj())
        return dense

    def to_dict(self) -> dict:
        return {
            "codomain": self.codomain.to_dict(),
            "domain": self.domain.to_dict(),
            "triples": [
                {
                    "s": float(t.s),
                    "u_re": t.u.real.tolist(),
                    "u_im": t.u.imag.tolist(),
                    "v_re": t.v.real.tolist(),
                    "v_im": t.v.imag.tolist(),
                }
                for t in self.triples
            ],
            "attribution": [
                None if key is None else [list(key[0].index), list(key[1].index)]
                for key in self.attribution
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpectralData":
        codomain = DualCatalog.from_dict(data["codomain"])
        domain = DualCatalog.from_dict(data["domain"])
        triples = [
            SingularTriple(
                float(entry["s"]),
                np.asarray(entry["u_re"]) + 1j * np.asarray(entry["u_im"]),
                np.asarray(entry["v_re"]) + 1j * np.asarray(entry["v_im"]),
            )
            for entry in data["triples"]
        ]
        attribution: list[BlockKey | None] = []
        for key in data["attribution"]:
            if key is None:
                attribution.append(None)
            else:
                attribution.append(
                    (
                        IrrepLabel(codomain.group, tuple(key[0])),
                        IrrepLabel(domain.group, tuple(key[1])),
                    )
                )
        return cls(codomain, domain, triples, attribution)


def _block_mass(vec: np.ndarray, catalog: DualCatalog, label) -> float:
    piece = vec[catalog.slice_of(label)]
    return float(np.sum(np.abs(piece) ** 2))


def _best_label(vec: np.ndarray, catalog: DualCatalog):
    best, best_mass = None, -1.0
    for label in catalog.labels:
        mass = _block_mass(vec, catalog, label)
        if mass > best_mass:
            best, best_mass = label, mass
    return best, best_mass


def attribute_triples(
    triples: Sequence[SingularTriple],
    codomain: DualCatalog,
    domain: DualCatalog,
) -> list[BlockKey | None]:
    """Assign each triple the block holding >= 99% of both vectors' mass."""
    out: list[BlockKey | None] = []
    for t in triples:
        pi, mass_u = _best_label(t.u, codomain)
        rho, mass_v = _best_label(t.v, domain)
        if pi is not None and mass_u >= ATTRIBUTION_MASS and mass_v >= ATTRIBUTION_MASS:
            out.append((pi, rho))
        else:
            out.append(None)
    return out


def forward(op: BlockOperator, zero_rel_tol: float = 1e-12) -> SpectralData:
    """Singular triples of the dense truncation, with block attribution.

    Triples whose singular value is below ``zero_rel_tol`` times the largest
    are dropped; a zero operator yields no triples.
    """
    dense = op.to_dense()
    triples: list[SingularTriple] = []
    if dense.size:
        u_mat, s, vh = np.linalg.svd(dense, full_matrices=False)
        if s.size and s[0] > 0:
            keep = s > zero_rel_tol * s[0]
            triples = [
                SingularTriple(float(s[i]), u_mat[:, i], vh[i, :].conj())
                for i in np.nonzero(keep)[0]
            ]
    attribution = attribute_triples(triples, op.codomain, op.domain)
    return SpectralData(op.codomain, op.domain, triples, attribution)


def _require_attribution(data: SpectralData, context: str) -> None:
    missing = sum(1 for key in data.attribution if key is None)
    if missing:
        raise AttributionError(
            f"{context}: {missing} of {len(data.attribution)} triples are not "
            "attributable to a single block; enlarge the singular-value gaps "
            "or reduce the noise"
        )


def recover_bandlimited(data: SpectralData, mu: Weight, nu: Weight) -> Symbol:
    """Exact recovery: rebuild each attributed block from its triples and
    divide out the weights. Blocks without triples stay zero."""
    _require_attribution(data, "recovery")
    sums: dict[BlockKey, np.ndarray] = {}
    for t, key in zip(data.triples, data.attribution):
        pi, rho = key
        u_block = t.u[data.codomain.slice_of(pi)]
        v_block = t.v[data.domain.slice_of(rho)]
        piece = t.s * np.outer(u_block, v_block.conj())
        if key in sums:
            sums[key] = sums[key] + piece
        else:
            sums[key] = piece
    blocks = {
        (pi, rho): t_hat / (weight_eval(mu, pi) * weight_eval(nu, rho))
        for (pi, rho), t_hat in sums.items()
    }
    return Symbol(data.codomain, data.domain, blocks)


def tikhonov_recover(
    data: SpectralData,
    mu: Weight,
    nu: Weight,
    alpha: float,
    weighted_penalty: bool = False,
) -> Symbol:
    """Least-squares recovery from noisy triples with quadratic penalty.

    The noisy operator matrix is reassembled as sum s_n u_n v_n^H and solved
    blockwise in closed form: with penalty alpha * ||a||_HS^2 the minimizer is
    a = w T / (w^2 + alpha) with w = mu(pi) nu(rho); with the weighted penalty
    alpha * ||w a||_HS^2 it is a = T / (w (1 + alpha)).
    """
    if alpha < 0:
        raise ValueError(f"regularization parameter must be >= 0, got {alpha}")
    _require_attribution(data, "tikhonov recovery")
    noisy = data.reassemble()
    blocks = {}
    for key in dict.fromkeys(data.attribution):
        pi, rho = key
        t_block = noisy[data.codomain.slice_of(pi), data.domain.slice_of(rho)]
        w = weight_eval(mu, pi) * weight_eval(nu, rho)
        if weighted_penalty:
            blocks[key] = t_block / (w * (1.0 + alpha))
        else:
            blocks[key] = w * t_block / (w * w + alpha)
    return Symbol(data.codomain, data.domain, blocks)


def _reorthonormalize(mat: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns, phase-fixed to stay close to the input."""
    q, r = np.linalg.qr(mat)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def perturb_spectral_data(
    data: SpectralData, delta: float, rng: np.random.Generator
) -> SpectralData:
    """Additive Gaussian noise of scale delta on the singular values, tangent
    Gaussian perturbation of the same scale on the vectors (then
    re-orthonormalized). Attribution is recomputed on the noisy vectors."""
    k = len(data.triples)
    if k == 0:
        return data
    s = np.array([t.s for t in data.triples])
    s_noisy = np.maximum(s + delta * rng.standard_normal(k), 0.0)
    u_mat = np.column_stack([t.u for t in data.triples])
    v_mat = np.column_stack([t.v for t in data.triples])
    u_noise = (
        rng.standard_normal(u_mat.shape) + 1j * rng.standard_normal(u_mat.shape)
    ) / np.sqrt(2.0)
    v_noise = (
        rng.standard_normal(v_mat.shape) + 1j * rng.standard_normal(v_mat.shape)
    ) / np.sqrt(2.0)
    u_mat = _reorthonormalize(u_mat + delta * u_noise)
    v_mat = _reorthonormalize(v_mat + delta * v_noise)
    order = np.argsort(-s_noisy, kind="stable")
    triples = [
        SingularTriple(float(s_noisy[i]), u_mat[:, i], v_mat[:, i]) for i in order
    ]
    attribution = attribute_triples(triples, data.codomain, data.domain)
    return SpectralData(data.codomain, data.domain, triples, attribution)


@dataclass
class StabilityRow:
    delta: float
    alpha: float
    mean_error: float
    std_error: float

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "alpha": self.alpha,
            "mean_error": self.mean_error,
            "std_error": self.std_error,
        }


def stability_scan(
    true_symbol: Symbol,
    mu: Weight,
    nu: Weight,
    deltas: Sequence[float],
    trials: int,
    seed: int,
    weighted_penalty: bool = False,
) -> tuple[list[StabilityRow], float | None]:
    """Noise-response experiment: perturb the spectral data of the true
    operator at each noise level, recover with alpha = delta^2, and record
    the weighted HS-sum recovery error.

    Returns the per-delta rows and the log-log slope of mean error vs delta
    fitted over the positive-noise rows (None when fewer than two qualify).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    base = forward(assemble(true_symbol, mu, nu))
    rng = np.random.default_rng(seed)
    rows = []
    for delta in deltas:
        alpha = float(delta * delta)
        errors = []
        for _ in range(trials):
            noisy = perturb_spectral_data(base, delta, rng)
            recovered = tikhonov_recover(noisy, mu, nu, alpha, weighted_penalty)
            diff = symbol_difference(recovered, true_symbol)
            errors.append(hs_norm(assemble(diff, mu, nu)))
        rows.append(
            StabilityRow(float(delta), alpha, float(np.mean(errors)), float(np.std(errors)))
        )
    fit_rows = [r for r in rows if r.delta > 0 and r.mean_error > 0]
    slope = None
    if len(fit_rows) >= 2:
        slope = float(
            np.polyfit(
                np.log([r.delta for r in fit_rows]),
                np.log([r.mean_error for r in fit_rows]),
                1,
            )[0]
        )
    return rows, slope
