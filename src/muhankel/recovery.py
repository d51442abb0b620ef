"""Symbol recovery from singular-value data.

The forward map takes an assembled operator to its list of singular triples.
Each triple is attributed to the block carrying (at least 99% of) the squared
mass of its singular vectors; recovery reassembles every attributed block
from the triples and solves for the symbol block in closed form. There is one
solver: with regularization alpha = 0 it divides out the weights exactly, and
with alpha > 0 it is the Tikhonov estimate for noisy data. Degenerate data
that cannot be attributed is refused rather than guessed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .duals import DualCatalog, IrrepLabel, Weight, weight_eval
from .operators import ZERO_REL_TOL, BlockOperator, assemble, retained_count
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

    ``s`` holds the k singular values, descending, and the columns of ``u``
    (N_out x k) and ``v`` (N_in x k) the unit singular vectors; all three are
    stored C-contiguous. ``attribution[i]`` is the (pi, rho) key for triple
    i, or None when the mass rule failed for that triple. Left out, it is
    computed by the mass rule; given, each key is checked against that rule.
    """

    codomain: DualCatalog
    domain: DualCatalog
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    attribution: list[BlockKey | None] | None = None

    def __post_init__(self) -> None:
        self.s = np.ascontiguousarray(self.s, dtype=float)
        self.u = np.ascontiguousarray(self.u, dtype=np.complex128)
        self.v = np.ascontiguousarray(self.v, dtype=np.complex128)
        k = self.s.size
        n_out, n_in = self.codomain.dense_dim, self.domain.dense_dim
        if self.s.shape != (k,) or self.u.shape != (n_out, k) or self.v.shape != (n_in, k):
            raise ValueError(
                f"spectral data shapes s {self.s.shape}, u {self.u.shape}, v {self.v.shape} "
                f"do not fit {k} triples on dense dimensions {n_out} x {n_in}"
            )
        if self.attribution is not None and len(self.attribution) != k:
            raise ValueError("attribution list must align with triples")
        above = np.concatenate(([np.inf], self.s[:-1]))
        _first_fault(~(np.isfinite(self.s) & (self.s >= 0) & (self.s <= above)),
                     "singular values must be finite, nonnegative and descending")
        _first_fault(~(np.abs(np.linalg.norm(self.u, axis=0) - 1.0) <= 1e-12)
                     | ~(np.abs(np.linalg.norm(self.v, axis=0) - 1.0) <= 1e-12),
                     "singular vectors must be unit norm")
        heaviest = [_heaviest_labels(self.u, self.codomain), _heaviest_labels(self.v, self.domain)]
        if self.attribution is None:
            (pis, held_u), (rhos, held_v) = heaviest
            self.attribution = [
                (pi, rho) if min(hu, hv) >= ATTRIBUTION_MASS else None
                for pi, rho, hu, hv in zip(pis, rhos, held_u, held_v)
            ]
            return
        # a key passes when it is the heaviest label and holds the 99%
        for i, key in enumerate(self.attribution):
            for side, label, (labels, held) in zip(("left", "right"), key or (), heaviest):
                if label != labels[i] or held[i] < ATTRIBUTION_MASS - 1e-12:
                    raise ValueError(f"triple {i}: {side} mass rule violated for {label.index}")

    @property
    def triples(self) -> list[SingularTriple]:
        """One triple per column; ``u`` and ``v`` are views of the columns."""
        return [
            SingularTriple(s, self.u[:, i], self.v[:, i]) for i, s in enumerate(self.s.tolist())
        ]

    @property
    def fully_attributed(self) -> bool:
        return all(key is not None for key in self.attribution)

    def reassemble(self) -> np.ndarray:
        """Dense matrix sum_n s_n u_n v_n^H, as the one product (U s) V^H."""
        return (self.u * self.s) @ self.v.conj().T

    def to_dict(self) -> dict:
        parts = [vecs.T.tolist() for vecs in (self.u.real, self.u.imag, self.v.real, self.v.imag)]
        return {
            "codomain": self.codomain.to_dict(),
            "domain": self.domain.to_dict(),
            "triples": [
                {"s": s, "u_re": u_re, "u_im": u_im, "v_re": v_re, "v_im": v_im}
                for s, u_re, u_im, v_re, v_im in zip(self.s.tolist(), *parts)
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
        entries = data["triples"]
        dims = {"u": codomain.dense_dim, "v": domain.dense_dim}
        for i, entry in enumerate(entries):
            for part in ("u_re", "u_im", "v_re", "v_im"):
                value, n = entry[part], dims[part[0]]
                if not isinstance(value, list) or len(value) != n:
                    got = f"length {len(value)}" if isinstance(value, list) else repr(value)
                    raise ValueError(f"triple {i}: {part} must be a list of {n} numbers, got {got}")

        def stacked(side: str) -> np.ndarray:
            """N x k, one column per entry."""
            shape = (len(entries), dims[side])
            re = np.array([entry[side + "_re"] for entry in entries], dtype=float)
            im = np.array([entry[side + "_im"] for entry in entries], dtype=float)
            return (re.reshape(shape) + 1j * im.reshape(shape)).T

        attribution = [
            None if key is None else (IrrepLabel(codomain.group, tuple(key[0])),
                                      IrrepLabel(domain.group, tuple(key[1])))
            for key in data["attribution"]
        ]
        s = np.array([float(entry["s"]) for entry in entries])
        return cls(codomain, domain, s, stacked("u"), stacked("v"), attribution)


def _first_fault(bad: np.ndarray, fault: str) -> None:
    """Raise ``fault`` naming the first triple flagged in ``bad``, if any."""
    if bad.any():
        raise ValueError(f"triple {int(np.argmax(bad))}: {fault}")


def _heaviest_labels(vecs: np.ndarray, catalog: DualCatalog) -> tuple[list, np.ndarray]:
    """Per column of ``vecs`` (N x k), the first label holding the largest
    share of its squared mass, in catalog order, and that share."""
    k = vecs.shape[1]
    if k == 0:
        return [], np.zeros(0)
    starts = [start for start, _ in catalog.offsets.values()]
    masses = np.add.reduceat(np.abs(vecs) ** 2, starts, axis=0)  # labels x k
    best = np.argmax(masses, axis=0)
    return [catalog.labels[b] for b in best], masses[best, np.arange(k)]


def forward(op: BlockOperator) -> SpectralData:
    """Singular triples of the dense truncation, with block attribution.

    Triples whose singular value is not above ``ZERO_REL_TOL`` times the
    largest are dropped; a zero operator yields no triples.
    """
    u_mat, values, vh = np.linalg.svd(op.to_dense(), full_matrices=False)
    # the values descend, so the kept ones are a prefix and slices are views
    k = retained_count(values, ZERO_REL_TOL)
    return SpectralData(op.codomain, op.domain, values[:k], u_mat[:, :k], vh[:k].conj().T)


def tikhonov_recover(
    data: SpectralData,
    mu: Weight,
    nu: Weight,
    alpha: float = 0.0,
    weighted_penalty: bool = False,
) -> Symbol:
    """Least-squares recovery of the symbol from its triples, with quadratic
    penalty alpha (0 for exact recovery from clean data).

    Each attributed block T is the block's slice of the reassembled matrix
    sum s_n u_n v_n^H, summed over all triples, and is solved in closed
    form: with penalty alpha * ||a||_HS^2 the minimizer is
    a = w T / (w^2 + alpha) with w = mu(pi) nu(rho); with the weighted penalty
    alpha * ||w a||_HS^2 it is a = T / (w (1 + alpha)). Either is T / w at
    alpha = 0. Blocks without a triple stay zero.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"regularization parameter must be finite and >= 0, got {alpha}")
    missing = data.attribution.count(None)
    if missing:
        raise AttributionError(
            f"tikhonov recovery: {missing} of {len(data.attribution)} triples are not "
            "attributable to a single block; enlarge the singular-value gaps "
            "or reduce the noise"
        )
    blocks = {}
    for pi, rho in dict.fromkeys(data.attribution):
        u = data.u[data.codomain.slice_of(pi)]
        t_block = (u * data.s) @ data.v[data.domain.slice_of(rho)].conj().T
        w = weight_eval(mu, pi) * weight_eval(nu, rho)
        blocks[(pi, rho)] = (t_block / (w * (1.0 + alpha)) if weighted_penalty
                             else w * t_block / (w * w + alpha))
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
    k = len(data.s)
    if k == 0:
        return data
    s_noisy = np.maximum(data.s + delta * rng.standard_normal(k), 0.0)

    def noise(shape):  # real part drawn first, then the imaginary part
        real = rng.standard_normal(shape)
        return (real + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    u_mat = _reorthonormalize(data.u + delta * noise(data.u.shape))
    v_mat = _reorthonormalize(data.v + delta * noise(data.v.shape))
    order = np.argsort(-s_noisy, kind="stable")
    return SpectralData(
        data.codomain, data.domain, s_noisy[order], u_mat[:, order], v_mat[:, order]
    )


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
