"""Symbol recovery from singular-value data.

The forward map takes an assembled operator to its list of singular triples.
Each triple is attributed to the block carrying (at least 99% of) the squared
mass of its singular vectors; recovery reassembles every attributed block
from its triples and divides out the weights. Degenerate data that cannot be
attributed is refused rather than guessed at. Noisy data goes through the
same pipeline with a closed-form per-block Tikhonov solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    mass rule failed for that triple. Left out, it is computed by the mass
    rule; given, each key is checked against that rule. Validation stacks
    the triples once: ``s`` holds the singular values and the columns of
    ``u`` (N_out x k) and ``v`` (N_in x k) the vectors; each triple's ``u``
    and ``v`` then become views of its columns, so the vectors are held once.
    """

    codomain: DualCatalog
    domain: DualCatalog
    triples: list[SingularTriple]
    attribution: list[BlockKey | None] | None = None
    s: np.ndarray = field(init=False, repr=False, compare=False)
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.attribution is not None and len(self.attribution) != len(self.triples):
            raise ValueError("attribution list must align with triples")
        k = len(self.triples)
        n_out, n_in = self.codomain.dense_dim, self.domain.dense_dim
        for t in self.triples:
            t.u = np.asarray(t.u, dtype=np.complex128)
            t.v = np.asarray(t.v, dtype=np.complex128)
        # bad[c, i]: triple i fails check c of _FAULTS. Checks after a wrong
        # length are never reached, so they run on the triples before it.
        bad = np.zeros((len(_FAULTS), k), dtype=bool)
        self.s = np.array([t.s for t in self.triples], dtype=float)
        bad[0] = (self.s < 0) | (self.s > np.concatenate(([np.inf], self.s[:-1])))
        bad[1] = [t.u.shape != (n_out,) for t in self.triples]
        bad[2] = [t.v.shape != (n_in,) for t in self.triples]
        ok = int(np.argmax(bad[1] | bad[2])) if (bad[1] | bad[2]).any() else k
        self.u = _stack([t.u for t in self.triples[:ok]], n_out)
        self.v = _stack([t.v for t in self.triples[:ok]], n_in)
        for i, t in enumerate(self.triples[:ok]):
            t.u, t.v = self.u[:, i], self.v[:, i]
        for vecs in (self.u, self.v):
            bad[3, :ok] |= ~(np.abs(np.linalg.norm(vecs, axis=0) - 1.0) <= 1e-12)
        catalogs = (self.codomain, self.domain)
        masses = [_label_masses(vecs, cat) for vecs, cat in zip((self.u, self.v), catalogs)]
        if self.attribution is None:
            # faulty data raises below, so only sound data is attributed
            self.attribution = [None] * k if bad.any() else _attribute(masses, catalogs)
        keyed = [i for i, key in enumerate(self.attribution[:ok]) if key is not None]
        for side, (catalog, mass) in enumerate(zip(catalogs, masses)):
            # the last row stands for labels outside the catalog: no mass
            mass = np.vstack([mass, np.zeros(ok)])
            rows = {label: row for row, label in enumerate(catalog.labels)}
            picked = [rows.get(self.attribution[i][side], -1) for i in keyed]
            bad[4 + side, keyed] = mass[picked, keyed] < ATTRIBUTION_MASS - 1e-12
        if bad.any():
            i = int(np.argmax(bad.any(axis=0)))
            pi, rho = self.attribution[i] or (None, None)
            fault = _FAULTS[int(np.argmax(bad[:, i]))]
            raise ValueError(fault.format(i=i, pi=pi, rho=rho))

    @property
    def fully_attributed(self) -> bool:
        return all(key is not None for key in self.attribution)

    def reassemble(self) -> np.ndarray:
        """Dense matrix sum_n s_n u_n v_n^H, as the one product (U s) V^H."""
        return (self.u * self.s) @ self.v.conj().T

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


# Validation faults in the order each triple meets them.
_FAULTS = (
    "singular values must be nonnegative and descending",
    "triple {i}: left vector has wrong length",
    "triple {i}: right vector has wrong length",
    "triple {i}: singular vectors must be unit norm",
    "triple {i}: left mass rule violated for {pi.index}",
    "triple {i}: right mass rule violated for {rho.index}",
)


def _stack(vecs: Sequence[np.ndarray], n: int) -> np.ndarray:
    """n x k array whose columns are the k vectors ``vecs``."""
    return np.column_stack(vecs) if vecs else np.zeros((n, 0), dtype=np.complex128)


def _label_masses(vecs: np.ndarray, catalog: DualCatalog) -> np.ndarray:
    """labels x k array: each label's share of the squared mass of the k
    columns of ``vecs`` (N x k)."""
    starts = [start for start, _ in catalog.offsets.values()]
    return np.add.reduceat(np.abs(vecs) ** 2, starts, axis=0)


def _attribute(
    masses: Sequence[np.ndarray], catalogs: Sequence[DualCatalog]
) -> list[BlockKey | None]:
    """Per column, the key of the first label of largest mass on each side,
    or None unless both hold at least ATTRIBUTION_MASS."""
    k = masses[0].shape[1]
    if k == 0:
        return []
    picks = []
    for mass, catalog in zip(masses, catalogs):
        best = np.argmax(mass, axis=0)  # the first maximum, in catalog order
        held = mass[best, np.arange(k)] >= ATTRIBUTION_MASS
        picks.append([catalog.labels[b] if h else None for b, h in zip(best, held)])
    return [None if None in key else key for key in zip(*picks)]


def attribute_triples(
    triples: Sequence[SingularTriple],
    codomain: DualCatalog,
    domain: DualCatalog,
) -> list[BlockKey | None]:
    """Assign each triple the block holding >= 99% of both vectors' mass."""
    sides = (([t.u for t in triples], codomain), ([t.v for t in triples], domain))
    masses = [_label_masses(_stack(vecs, cat.dense_dim), cat) for vecs, cat in sides]
    return _attribute(masses, (codomain, domain))


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
        del dense, vh  # freed before stacking; the triples copied vh's kept rows
    return SpectralData(op.codomain, op.domain, triples)


def _require_attribution(data: SpectralData, context: str) -> None:
    missing = sum(1 for key in data.attribution if key is None)
    if missing:
        raise AttributionError(
            f"{context}: {missing} of {len(data.attribution)} triples are not "
            "attributable to a single block; enlarge the singular-value gaps "
            "or reduce the noise"
        )


def _block_sum(data: SpectralData, key: BlockKey, cols) -> np.ndarray:
    """The (pi, rho) slice of sum_n s_n u_n v_n^H over the triples ``cols``."""
    pi, rho = key
    u = data.u[data.codomain.slice_of(pi), cols]
    v = data.v[data.domain.slice_of(rho), cols]
    return (u * data.s[cols]) @ v.conj().T


def recover_bandlimited(data: SpectralData, mu: Weight, nu: Weight) -> Symbol:
    """Exact recovery: rebuild each attributed block from its triples and
    divide out the weights. Blocks without triples stay zero."""
    _require_attribution(data, "recovery")
    cols: dict[BlockKey, list[int]] = {}
    for i, key in enumerate(data.attribution):
        cols.setdefault(key, []).append(i)
    blocks = {
        (pi, rho): _block_sum(data, (pi, rho), idx)
        / (weight_eval(mu, pi) * weight_eval(nu, rho))
        for (pi, rho), idx in cols.items()
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

    Each attributed block T is the block's slice of the noisy operator
    matrix sum s_n u_n v_n^H, summed over all triples, and is solved in
    closed form: with penalty alpha * ||a||_HS^2 the minimizer is
    a = w T / (w^2 + alpha) with w = mu(pi) nu(rho); with the weighted penalty
    alpha * ||w a||_HS^2 it is a = T / (w (1 + alpha)).
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"regularization parameter must be finite and >= 0, got {alpha}")
    _require_attribution(data, "tikhonov recovery")
    blocks = {}
    for key in dict.fromkeys(data.attribution):
        pi, rho = key
        t_block = _block_sum(data, key, slice(None))
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
    s_noisy = np.maximum(data.s + delta * rng.standard_normal(k), 0.0)

    def noise(shape):  # real part drawn first, then the imaginary part
        real = rng.standard_normal(shape)
        return (real + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    u_mat = _reorthonormalize(data.u + delta * noise(data.u.shape))
    v_mat = _reorthonormalize(data.v + delta * noise(data.v.shape))
    order = np.argsort(-s_noisy, kind="stable")
    triples = [
        SingularTriple(float(s_noisy[i]), u_mat[:, i], v_mat[:, i]) for i in order
    ]
    return SpectralData(data.codomain, data.domain, triples)


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
    for delta in deltas:
        if not (np.isfinite(delta) and delta >= 0):
            raise ValueError(f"noise level delta must be finite and >= 0, got {delta}")
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
