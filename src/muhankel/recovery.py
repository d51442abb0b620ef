"""Symbol recovery from singular-value data.

The forward map takes an assembled operator to its singular triples, from
one SVD per support component, so each triple's vectors are exact zeros
outside its component. The data file stores each vector by its runs of
entries that are not bitwise zero (a side listing every entry still
reads). A file is read in whole-array passes, all runs checked as one
integer array and all values scattered at once; a faulty file is read
again entry by entry only to name its first fault. Each triple's phase
makes the largest entry of its left vector real and positive, so the
operator, not the SVD routine, fixes the basis the stability noise is
drawn on. A triple is attributed to the block carrying (at least 99% of)
the squared mass of its vectors, one pass of squares per side giving the
label masses and norms; a given key must be the heaviest label by catalog
position. Recovery solves each attributed block of the reassembled matrix
in closed form (Tikhonov for alpha > 0) and refuses unattributable data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Mapping, Sequence

import numpy as np

from .duals import DualCatalog, Weight, weight_eval
from .operators import ZERO_REL_TOL, BlockOperator, assemble, retained_count
from .symbols import (BlockKey, Symbol, complex_from_parts, hs_norm, parse_numbers,
                      symbol_difference)

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
        mass_u, norm_u = _label_masses(self.u, self.codomain)
        mass_v, norm_v = _label_masses(self.v, self.domain)
        _first_fault(~(np.abs(norm_u - 1.0) <= 1e-12) | ~(np.abs(norm_v - 1.0) <= 1e-12),
                     "singular vectors must be unit norm")
        (best_u, held_u), (best_v, held_v) = _heaviest(mass_u), _heaviest(mass_v)
        if self.attribution is None:
            pis, rhos = self.codomain.labels, self.domain.labels
            fits = ((held_u >= ATTRIBUTION_MASS) & (held_v >= ATTRIBUTION_MASS)).tolist()
            self.attribution = [(pis[p], rhos[r]) if fit else None
                                for p, r, fit in zip(best_u.tolist(), best_v.tolist(), fits)]
            return
        # a key passes when it is the heaviest label, by catalog position,
        # and holds the 99%
        keyed = [i for i, key in enumerate(self.attribution) if key]
        keys = [self.attribution[i] for i in keyed]
        bad = np.array([(np.array(catalog.positions([key[j] for key in keys])) != best[keyed])
                        | (held[keyed] < ATTRIBUTION_MASS - 1e-12) for j, catalog, best, held
                        in ((0, self.codomain, best_u, held_u), (1, self.domain, best_v, held_v))])
        if bad.any():
            first, side = divmod(int(np.argmax(bad.T)), 2)  # the first triple, left side first
            raise ValueError(f"triple {keyed[first]}: {('left', 'right')[side]} mass rule "
                             f"violated for {keys[first][side].index}")

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
        """The JSON form: each triple's ``u_runs`` and ``v_runs`` are the
        [start, length] runs of its entries that are not bitwise zero (both
        parts +0.0), and ``u_re``/``u_im``/``v_re``/``v_im`` hold only those
        entries, every bit kept."""
        names = ("u_runs", "u_re", "u_im", "v_runs", "v_re", "v_im")
        return {
            "codomain": self.codomain.to_dict(),
            "domain": self.domain.to_dict(),
            "triples": [
                {"s": s, **dict(zip(names, fields))} for s, *fields
                in zip(self.s.tolist(), *_support_runs(self.u), *_support_runs(self.v))
            ],
            "attribution": [None if key is None else [list(key[0].index), list(key[1].index)]
                            for key in self.attribution],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpectralData":
        """Inverse of :meth:`to_dict`. An entry without ``u_runs`` (or
        ``v_runs``) holds that side in full, one value per coordinate; the
        runs are checked to be integer pairs, sorted, non-overlapping and
        inside the catalog, and each value list to fill them exactly."""
        codomain = DualCatalog.from_dict(data["codomain"])
        same = data["domain"] == data["codomain"]
        domain = codomain if same else DualCatalog.from_dict(data["domain"])
        entries = data["triples"]
        values = _numbers([entry["s"] for entry in entries], "s", 0)
        u = _read_side(entries, "u", codomain.dense_dim)
        v = _read_side(entries, "v", domain.dense_dim)
        attribution = [
            None if key is None else (codomain.label_at(key[0], f"triple {i}: codomain"),
                                      domain.label_at(key[1], f"triple {i}: domain"))
            for i, key in enumerate(data["attribution"])
        ]
        return cls(codomain, domain, values, u, v, attribution)


def _support_runs(vecs: np.ndarray) -> tuple[list, list, list]:
    """Per column of ``vecs`` (N x k): the [start, length] runs of its
    entries whose bits are not all zero, and those entries' real and
    imaginary parts, each as one list per column."""
    n, k = vecs.shape
    rows = np.ascontiguousarray(vecs.T)  # k x N, one triple per row
    halves = rows.view(np.uint64).reshape(k, n, 2)
    keep = (halves[..., 0] | halves[..., 1]) != 0
    # one False after each row and before the first, so that no run crosses a row
    flat = np.pad(keep, ((0, 0), (0, 1))).ravel()
    edges = np.flatnonzero(np.diff(flat, prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    runs = np.stack([starts % (n + 1), ends - starts], axis=1).tolist()
    kept = rows[keep]
    per_value = keep.sum(axis=1)
    return (_split(runs, np.bincount(starts // (n + 1), minlength=k)),
            _split(kept.real.tolist(), per_value), _split(kept.imag.tolist(), per_value))


def _split(flat: list, counts: np.ndarray) -> list[list]:
    """``flat`` cut into consecutive lists of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _numbers(values: list, name: str, ndim: int) -> np.ndarray:
    """Field ``name`` of each entry, numbers ``ndim`` lists deep, joined end
    to end into one array; a faulty value is refused naming its triple."""
    try:
        return parse_numbers(list(chain.from_iterable(values)) if ndim else values, 1, name)
    except TypeError:
        for i, value in enumerate(values):
            parse_numbers(value, ndim, f"triple {i}: {name}")
        raise


def _read_side(entries: list, side: str, n: int) -> np.ndarray:
    """The ``side`` ("u" or "v") vectors of the triple ``entries`` as an
    n x k array, zero outside each entry's runs: all runs are checked as one
    integer array and all values scattered at once; :func:`_side_fault`
    names a fault found there."""
    field, k = side + "_runs", len(entries)
    try:
        runs = [entry.get(field, [[0, n]] if n else []) for entry in entries]  # n = 0: no run
        pairs = list(chain.from_iterable(runs))
        lists = [[entry[f"{side}_{part}"] for entry in entries] for part in ("re", "im")]
        if not (all(map(isinstance, chain(runs, pairs, *lists), repeat(list)))
                and set(map(len, pairs)) <= {2} and set(map(type, chain(*pairs))) <= {int}):
            raise TypeError(f"{field} or values are not lists of the right types")
        # clipped, a run out of range stays out of range and cannot overflow
        starts, lengths = np.array(pairs, dtype=np.int64).reshape(-1, 2).clip(-1, n + 1).T
        counts = np.fromiter(map(len, runs), dtype=np.int64, count=k)
        last, cum = np.cumsum(counts), np.concatenate(([0], np.cumsum(lengths)))
        ends = starts + lengths
        before = np.concatenate(([0], ends[:-1]))
        before[(last - counts)[counts > 0]] = 0  # where each triple's first run may start
        totals = (cum[last] - cum[last - counts]).tolist()  # values per triple
        if not ((lengths >= 1).all() and (starts >= before).all() and (ends <= n).all()
                and [list(map(len, part)) for part in lists] == [totals, totals]):
            raise ValueError(f"{field} are not sorted runs in range that the values fill")
        re, im = (_numbers(part, f"{side}_{name}", 1) for part, name in zip(lists, ("re", "im")))
    except (KeyError, TypeError, ValueError, OverflowError):
        _side_fault(entries, side, n)
        raise
    # each value's coordinate: its run's start plus its place in the run
    at = np.arange(cum[-1]) + np.repeat(starts - cum[:-1], lengths)
    out = np.zeros((n, k), dtype=np.complex128)
    out.reshape(-1)[at * k + np.repeat(np.arange(k), totals)] = complex_from_parts(re, im)
    return out


def _side_fault(entries: list, side: str, n: int) -> None:
    """The structure checks of :func:`_read_side` entry by entry: raise on
    the first faulty run or value list, naming its triple and field."""
    field = side + "_runs"
    for i, entry in enumerate(entries):
        given = field in entry
        runs = _parse_runs(entry[field], n, f"triple {i}: {field}") if given else [[0, n]]
        total = sum(length for _, length in runs)
        for part in ("re", "im"):
            value = entry[f"{side}_{part}"]
            if not isinstance(value, list) or len(value) != total:
                got = f"length {len(value)}" if isinstance(value, list) else repr(value)
                fill = f", the total length of {field}" if given else ""
                raise ValueError(f"triple {i}: {side}_{part} must be a list of {total} "
                                 f"numbers{fill}, got {got}")


def _parse_runs(runs, n: int, what: str) -> list:
    """``runs`` checked to be [start, length] pairs of integers, each of
    length at least 1, sorted, non-overlapping and inside ``n`` coordinates."""
    if not isinstance(runs, list):
        raise ValueError(f"{what} is {runs!r}, not a list of [start, length] pairs")
    end = 0
    for j, run in enumerate(runs):
        if not (isinstance(run, list) and len(run) == 2 and all(type(x) is int for x in run)):
            raise ValueError(f"{what}[{j}] is {run!r}, not a [start, length] pair of integers")
        start, length = run
        if length < 1:
            raise ValueError(f"{what}[{j}] has length {length}, not at least 1")
        if start < end:
            raise ValueError(f"{what}[{j}] starts at {start}, before {end}")
        end = start + length
        if end > n:
            raise ValueError(f"{what}[{j}] ends at {end}, past the {n} coordinates")
    return runs


def _first_fault(bad: np.ndarray, fault: str) -> None:
    """Raise ``fault`` naming the first triple flagged in ``bad``, if any."""
    if bad.any():
        raise ValueError(f"triple {int(np.argmax(bad))}: {fault}")


def _label_masses(vecs: np.ndarray, catalog: DualCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``vecs`` (N x k), its squared mass on each label of
    ``catalog`` (labels x k), from one pass of real^2 + imag^2, and its norm,
    the square root of the column sum of those masses."""
    starts = [start for start, _ in catalog.offsets.values()]
    squares = vecs.real * vecs.real  # bit for bit real ** 2 + imag ** 2, in place
    squares += vecs.imag * vecs.imag
    masses = np.add.reduceat(squares, starts, axis=0)
    return masses, np.sqrt(masses.sum(axis=0))


def _heaviest(masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of the label ``masses`` (labels x k), the catalog position
    of the first label holding the largest share, and that share."""
    best = np.argmax(masses, axis=0) if masses.size else np.zeros(0, dtype=int)
    return best, masses[best, np.arange(best.size)]


def forward(op: BlockOperator) -> SpectralData:
    """Singular triples of the operator, with block attribution.

    Each support component's matrix is factored once, with its vectors, and
    each triple's phase is fixed on the component's own vectors
    (:func:`_canonical_phases`); embedded in the dense layout, the vectors
    are then exactly +0.0 outside their component. The triples of all
    components are merged by a stable descending sort of their values, and
    those not above ``ZERO_REL_TOL`` times the largest are dropped; a zero
    operator yields no triples.
    """
    factored = []
    for component in op.components:
        u_c, s_c, vh_c = np.linalg.svd(op._component_matrix(component), full_matrices=False)
        v_c = vh_c.conj().T
        _canonical_phases(u_c, v_c)
        factored.append((component, s_c, u_c, v_c))
    values = np.concatenate([s_c for _, s_c, _, _ in factored]) if factored else np.zeros(0)
    order = np.argsort(-values, kind="stable")
    k = retained_count(values[order], ZERO_REL_TOL)
    # position of each component's triples in the merged order
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    u = np.zeros((op.shape[0], k), dtype=np.complex128)
    v = np.zeros((op.shape[1], k), dtype=np.complex128)
    start = 0
    for (rows, cols, _), s_c, u_c, v_c in factored:
        at = position[start : start + s_c.size]
        start += s_c.size
        kept = at < k
        row_at = np.r_[tuple(map(op.codomain.slice_of, rows))]
        col_at = np.r_[tuple(map(op.domain.slice_of, cols))]
        u[np.ix_(row_at, at[kept])] = u_c[:, kept]
        v[np.ix_(col_at, at[kept])] = v_c[:, kept]
    return SpectralData(op.codomain, op.domain, values[order[:k]], u, v)


def _canonical_phases(u: np.ndarray, v: np.ndarray) -> None:
    """In place, multiply each column pair of ``u`` and ``v`` by the unit
    phase that makes the largest-modulus entry of the ``u`` column real and
    positive (the first such entry on ties), so that the operator, not the
    SVD routine, fixes each triple's phase."""
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    phase = top.conj() / np.abs(top)
    u *= phase
    v *= phase


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
    return SpectralData(data.codomain, data.domain, s_noisy[order], u_mat[:, order],
                        v_mat[:, order])


@dataclass
class StabilityRow:
    delta: float
    alpha: float
    mean_error: float
    std_error: float


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
        rows.append(StabilityRow(float(delta), alpha, float(np.mean(errors)),
                                 float(np.std(errors))))
    fit_rows = [r for r in rows if r.delta > 0 and r.mean_error > 0]
    if len(fit_rows) < 2:
        return rows, None
    x, y = np.log([r.delta for r in fit_rows]), np.log([r.mean_error for r in fit_rows])
    return rows, float(np.polyfit(x, y, 1)[0])
