"""Symbol recovery from singular-value data.

The forward map takes an assembled operator to its singular triples, from
one SVD per support component, so each triple's vectors are exact zeros
outside its component. The data file stores each vector by its runs of
entries that are not bitwise zero, their values as float64 hex (lists of
numbers, and a side listing every entry, still read). A file is read in
one pass, which checks each triple's runs and value fields in file order
and names the first fault; each field is then decoded and scattered at
once. Each triple's phase makes the largest entry of its left vector real
and positive, so the operator, not the SVD routine, fixes the basis the
stability noise is drawn on. One mass rule, from one pass of squares per
side, attributes a triple to the block holding 99% of each side's mass; a
file's attribution, nulls included, is only checked against it. Recovery
solves each attributed block of the reassembled matrix in closed form
(Tikhonov for alpha > 0) and refuses unattributable data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from string import hexdigits
from typing import Mapping, Sequence

import numpy as np

from .duals import DualCatalog, IrrepLabel, Weight, _fields, _finite, _shown
from .operators import ZERO_REL_TOL, BlockOperator, _KeyPlan, assemble, frobenius, retained_count
from .symbols import BlockKey, Symbol, _complex_normal, complex_from_parts, parse_numbers

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
    stored C-contiguous. ``attribution[i]``, computed on construction, is the
    (pi, rho) key the mass rule gives triple i, or None where it gives none.
    """

    codomain: DualCatalog
    domain: DualCatalog
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    attribution: list[BlockKey | None] = field(init=False)

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
        above = np.concatenate(([np.inf], self.s[:-1]))
        _first_fault(~(np.isfinite(self.s) & (self.s >= 0) & (self.s <= above)),
                     "singular values must be finite, nonnegative and descending")
        mass_u, norm_u = _label_masses(self.u, self.codomain)
        mass_v, norm_v = _label_masses(self.v, self.domain)
        _first_fault(~(np.abs(norm_u - 1.0) <= 1e-12) | ~(np.abs(norm_v - 1.0) <= 1e-12),
                     "singular vectors must be unit norm")
        lefts = _heaviest(mass_u, self.codomain.labels)
        rights = _heaviest(mass_v, self.domain.labels)
        self.attribution = [(pi, rho) if pi and rho else None for pi, rho in zip(lefts, rights)]

    @property
    def triples(self) -> list[SingularTriple]:
        """One triple per column; ``u`` and ``v`` are views of the columns."""
        return [
            SingularTriple(s, self.u[:, i], self.v[:, i]) for i, s in enumerate(self.s.tolist())
        ]

    @property
    def fully_attributed(self) -> bool:
        return all(key is not None for key in self.attribution)

    def to_dict(self) -> dict:
        """The JSON form: each triple's ``u_runs`` and ``v_runs`` are the
        [start, length] runs of its entries that are not bitwise zero (both
        parts +0.0), and ``u_re`` to ``v_im`` the lowercase hex of those
        entries' parts as little-endian float64, every bit kept."""
        names = ("u_runs", "u_re", "u_im", "v_runs", "v_re", "v_im")
        return {
            "codomain": self.codomain.to_dict(),
            "domain": self.domain.to_dict(),
            "triples": [
                {"s": s, **dict(zip(names, fields))} for s, *fields
                in zip(self.s.tolist(), *_support_runs(self.u), *_support_runs(self.v))
            ],
            "attribution": _key_lists(self.attribution),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpectralData":
        """Inverse of :meth:`to_dict`; the listed attribution must be the mass
        rule's, as that writes it. An entry without ``u_runs`` (or ``v_runs``)
        holds that side in full, one value per coordinate; the runs are checked
        to be integer pairs, sorted, non-overlapping and inside the catalog, and
        each value list or hex string to fill them."""
        cod, dom, entries, listed = _fields(data, "spectral data", "codomain", "domain",
                                            "triples", "attribution")
        codomain = DualCatalog.from_dict(cod, "codomain")
        domain = codomain if dom == cod else DualCatalog.from_dict(dom, "domain")
        s = [_fields(entry, f"triple {i}", "s")[0] for i, entry in enumerate(entries)]
        read = cls(codomain, domain, _numbers(s, "s", 0),
                   _read_side(entries, "u", codomain.dense_dim),
                   _read_side(entries, "v", domain.dense_dim))
        rule = _key_lists(read.attribution)
        if not (isinstance(listed, list) and len(listed) == len(rule)):
            raise ValueError(f"attribution must hold one key or null for each of the "
                             f"{len(rule)} triples")
        for i, (key, want) in enumerate(zip(listed, rule)):
            if key != want:
                raise ValueError(f"triple {i}: attribution {json.dumps(key)} is not the "
                                 f"mass rule's {json.dumps(want)}")
        return read


def _key_lists(keys: list[BlockKey | None]) -> list:
    """The JSON form of block ``keys``: [pi_index, rho_index] lists, or null."""
    return [key and [list(key[0].index), list(key[1].index)] for key in keys]


def _support_runs(vecs: np.ndarray) -> tuple[list, list, list]:
    """Per column of ``vecs`` (N x k): the [start, length] runs of its
    entries whose bits are not all zero, and the hex of those entries' real
    and imaginary parts as little-endian float64, each one item per column."""
    n, k = vecs.shape
    rows = np.ascontiguousarray(vecs.T)  # k x N, one triple per row
    halves = rows.view(np.uint64).reshape(k, n, 2)
    keep = (halves[..., 0] | halves[..., 1]) != 0
    # one False after each row and before the first, so that no run crosses a row
    flat = np.pad(keep, ((0, 0), (0, 1))).ravel()
    edges = np.flatnonzero(np.diff(flat, prepend=False))
    starts, ends = edges[0::2], edges[1::2]
    runs = np.stack([starts % (n + 1), ends - starts], axis=1).tolist()
    kept, digits = rows[keep], 16 * keep.sum(axis=1)  # 16 hex digits per float64
    return (_split(runs, np.bincount(starts // (n + 1), minlength=k)),
            *(_split(part.astype("<f8").tobytes().hex(), digits)
              for part in (kept.real, kept.imag)))


def _split(flat: Sequence, counts: np.ndarray) -> list:
    """``flat`` cut into consecutive pieces of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def _numbers(values: list, name: str, ndim: int) -> np.ndarray:
    """Field ``name`` of each entry, numbers ``ndim`` lists deep or (at ``ndim``
    1) little-endian float64 hex, joined end to end into one array, the hex
    in one decode; a faulty value is refused naming its triple."""
    try:
        if not (ndim and any(isinstance(value, str) for value in values)):
            return parse_numbers(list(chain.from_iterable(values)) if ndim else values, 1, name)
        text = "".join(value if isinstance(value, str)
                       else parse_numbers(value, 1, name).astype("<f8").tobytes().hex()
                       for value in values)
        raw = bytes.fromhex(text)
        if 2 * len(raw) != len(text):  # fromhex skips whitespace
            raise ValueError(f"{name} holds whitespace")
        return np.frombuffer(raw, "<f8")
    except (TypeError, ValueError):
        for i, value in enumerate(values):
            if not (ndim and isinstance(value, str)):
                parse_numbers(value, ndim, f"triple {i}: {name}")
            elif not set(value) <= set(hexdigits):
                raise ValueError(f"triple {i}: {name} is not the hex digits of "
                                 f"{len(value) // 16} float64 values")
        raise


def _read_side(entries: list, side: str, n: int) -> np.ndarray:
    """The ``side`` ("u" or "v") vectors of the triple ``entries`` as an
    n x k array, zero outside each entry's runs. One pass in file order
    checks each triple's runs ([start, length] integer pairs of length at
    least 1, sorted, non-overlapping, inside ``n``) and then the lengths of
    its value fields (lists, or hex strings of 16 digits a value), raising
    on the first fault by triple and field; each field's values are then
    converted at once (:func:`_numbers`) and scattered."""
    field, names, k = side + "_runs", (side + "_re", side + "_im"), len(entries)
    pairs, totals, parts = [], [], ([], [])
    for i, entry in enumerate(entries):
        given, total, end = field in entry, 0, 0
        runs = entry[field] if given else [[0, n]] if n else []  # n = 0: no run
        if not isinstance(runs, list):
            raise ValueError(f"triple {i}: {field} is {_shown(runs)}, not a list of "
                             "[start, length] pairs")
        for j, run in enumerate(runs):
            if not (isinstance(run, list) and len(run) == 2
                    and type(run[0]) is type(run[1]) is int):
                raise ValueError(f"triple {i}: {field}[{j}] is {_shown(run)}, not a [start, "
                                 "length] pair of integers")
            start, length = run
            if length < 1:
                raise ValueError(f"triple {i}: {field}[{j}] has length {length}, not at least 1")
            if start < end:
                raise ValueError(f"triple {i}: {field}[{j}] starts at {start}, before {end}")
            if (end := start + length) > n:
                raise ValueError(f"triple {i}: {field}[{j}] ends at {end}, past the {n} "
                                 "coordinates")
            total += length
        pairs += runs
        totals.append(total)
        for name, part, value in zip(names, parts, _fields(entry, f"triple {i}", *names)):
            if (len(value) != 16 * total if isinstance(value, str)
                    else not (isinstance(value, list) and len(value) == total)):
                got = (f"a string of {len(value)} characters, not {16 * total} hex digits"
                       if isinstance(value, str) else f"length {len(value)}"
                       if isinstance(value, list) else _shown(value))
                fill = f", the total length of {field}" if given else ""
                raise ValueError(f"triple {i}: {name} must be a list of {total} "
                                 f"numbers{fill}, got {got}")
            part.append(value)
    re, im = (_numbers(part, name, 1) for part, name in zip(parts, names))
    starts, lengths = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    cum = np.concatenate(([0], np.cumsum(lengths)))
    # each value's coordinate: its run's start plus its place in the run
    at = np.arange(cum[-1]) + np.repeat(starts - cum[:-1], lengths)
    out = np.zeros((n, k), dtype=np.complex128)
    out.reshape(-1)[at * k + np.repeat(np.arange(k), totals)] = complex_from_parts(re, im)
    return out


def _first_fault(bad: np.ndarray, fault: str) -> None:
    """Raise ``fault`` naming the first triple flagged in ``bad``, if any."""
    if bad.any():
        raise ValueError(f"triple {int(np.argmax(bad))}: {fault}")


def _label_masses(vecs: np.ndarray, catalog: DualCatalog) -> tuple[np.ndarray, np.ndarray]:
    """Per column of ``vecs`` (N x k), its squared mass on each label of
    ``catalog`` (labels x k), from one pass of real^2 + imag^2, and its norm,
    the square root of the column sum of those masses."""
    starts = [start for start, _ in catalog.offsets.values()]
    with np.errstate(over="ignore"):  # an inf norm is refused as not unit
        squares = vecs.real * vecs.real  # bit for bit real ** 2 + imag ** 2, in place
        squares += vecs.imag * vecs.imag
    masses = np.add.reduceat(squares, starts, axis=0)
    return masses, np.sqrt(masses.sum(axis=0))


def _heaviest(masses: np.ndarray, labels: list[IrrepLabel]) -> list[IrrepLabel | None]:
    """Per column of the label ``masses`` (labels x k), the first of the
    ``labels`` holding the largest share when that share is at least
    ``ATTRIBUTION_MASS``, else None."""
    best = np.argmax(masses, axis=0) if masses.size else np.zeros(0, dtype=int)
    fits = masses[best, np.arange(best.size)] >= ATTRIBUTION_MASS
    return [labels[b] if fit else None for b, fit in zip(best.tolist(), fits.tolist())]


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


def tikhonov_recover(data: SpectralData, mu: Weight, nu: Weight, alpha: float = 0.0,
                     weighted_penalty: bool = False) -> Symbol:
    """Least-squares recovery of the symbol from its triples, with quadratic
    penalty alpha (0 for exact recovery from clean data).

    Each attributed block T is the block's slice of the reassembled matrix
    sum s_n u_n v_n^H over all triples, solved in closed form with
    w = mu(pi) nu(rho), refused if 0 or inf: with penalty alpha * ||a||_HS^2
    the minimizer is a = w T / (w^2 + alpha), computed as T / (w + alpha / w);
    with the weighted penalty alpha * ||w a||_HS^2 it is T / (w (1 + alpha)).
    Either is T / w at alpha = 0. Blocks without a triple stay zero.
    """
    plan = _KeyPlan(data.codomain, data.domain, mu, nu)
    return Symbol(data.codomain, data.domain, _solve_blocks(data, plan, alpha, weighted_penalty))


def _solve_blocks(data: SpectralData, plan: _KeyPlan, alpha: float,
                  weighted_penalty: bool) -> dict[BlockKey, np.ndarray]:
    """The closed-form solve of :func:`tikhonov_recover`, weights and slices
    taken from ``plan``."""
    _finite(alpha, "regularization parameter", ">= 0")
    if missing := data.attribution.count(None):
        raise AttributionError(f"tikhonov recovery: {missing} of {len(data.attribution)} triples "
                               "are not attributable to a single block; enlarge the "
                               "singular-value gaps or reduce the noise")
    blocks = {}
    for key in dict.fromkeys(data.attribution):
        w, rows, cols = plan[key]
        t_block = (data.u[rows] * data.s) @ data.v[cols].conj().T
        blocks[key] = t_block / (w * (1.0 + alpha) if weighted_penalty else w + alpha / w)
    return blocks


def max_entry_error(recovered: Symbol, truth: Symbol) -> float:
    """The largest entry modulus of recovered - truth (an absent block is zero,
    no block gives 0), blocks matched by label; catalogs must agree."""
    for side in ("codomain", "domain"):
        if getattr(recovered, side).labels != getattr(truth, side).labels:
            raise ValueError(f"the true symbol's {side} catalog differs from the recovered one's")
    a, b = recovered.blocks, truth.blocks
    diffs = (a.get(key, 0) - b.get(key, 0) for key in a.keys() | b.keys())
    return max((float(np.max(np.abs(diff))) for diff in diffs), default=0.0)


def max_residual(op: BlockOperator, data: SpectralData) -> float:
    """The largest entry of |T - sum_n s_n u_n v_n^H|, over one codomain label's
    rows and the triples whose u is not zero there at a time: never N x N."""
    row_blocks = {}
    for (pi, rho), block in op.weighted.items():
        row_blocks.setdefault(pi, []).append((data.domain.slice_of(rho), block))
    worst = [0.0]
    for pi in data.codomain:
        rows = data.u[data.codomain.slice_of(pi)]
        live = np.flatnonzero(rows.any(axis=0))
        strip = (rows[:, live] * data.s[live]) @ data.v[:, live].conj().T
        for cols, block in row_blocks.get(pi, ()):
            strip[:, cols] -= block
        worst.append(np.max(np.abs(strip), initial=0.0))
    return np.max(worst)


def _weighted_error(a: Mapping[BlockKey, np.ndarray], b: Mapping[BlockKey, np.ndarray],
                    plan: _KeyPlan) -> float:
    """The weighted HS-sum norm of A - B for the symbols A and B with blocks
    ``a`` and ``b`` (an absent block is zero), the weights from ``plan``,
    building neither; a's keys first, by :func:`frobenius`; a ValueError if
    the norm is not finite."""
    s, norm = frobenius([plan[key][0] * (a.get(key, 0) - b.get(key, 0))
                         for key in dict.fromkeys(chain(a, b))])
    if not np.isfinite(total := norm / s):
        raise ValueError(f"weighted recovery error is {total}, not finite")
    return total


def _reorthonormalize(mat: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns, phase-fixed to stay close to the input."""
    q, r = np.linalg.qr(mat)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def perturb_spectral_data(data: SpectralData, delta: float,
                          rng: np.random.Generator) -> SpectralData:
    """Additive Gaussian noise of scale delta on the singular values, tangent
    Gaussian perturbation of the same scale on the vectors (then
    re-orthonormalized). Attribution is recomputed on the noisy vectors."""
    s_noisy = np.maximum(data.s + delta * rng.standard_normal(len(data.s)), 0.0)
    u_mat = _reorthonormalize(data.u + delta * _complex_normal(rng, data.u.shape))
    v_mat = _reorthonormalize(data.v + delta * _complex_normal(rng, data.v.shape))
    order = np.argsort(-s_noisy, kind="stable")
    return SpectralData(data.codomain, data.domain, s_noisy[order], u_mat[:, order],
                        v_mat[:, order])


@dataclass
class StabilityRow:
    delta: float
    alpha: float
    mean_error: float
    std_error: float


def stability_scan(true_symbol: Symbol, mu: Weight, nu: Weight, deltas: Sequence[float],
                   trials: int, seed: int,
                   weighted_penalty: bool = False) -> tuple[list[StabilityRow], float | None]:
    """Noise-response experiment: perturb the spectral data of the true
    operator at each noise level, recover with alpha = delta^2, and record
    the weighted HS-sum recovery error.

    Returns the per-delta rows and the log-log slope of mean error vs delta
    fitted over the positive-noise rows (None when fewer than two qualify).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for delta in deltas:
        _finite(delta, "noise level delta", ">= 0")
        if not np.isfinite(delta * delta):
            raise ValueError(f"noise level delta {delta} has no finite square alpha = delta^2")
    base = forward(op := assemble(true_symbol, mu, nu))
    rng = np.random.default_rng(seed)
    rows = []
    for delta in deltas:
        alpha = float(delta * delta)
        errors = []
        for _ in range(trials):
            noisy = perturb_spectral_data(base, delta, rng)
            solved = _solve_blocks(noisy, op.plan, alpha, weighted_penalty)
            errors.append(_weighted_error(solved, true_symbol.blocks, op.plan))
        scaled = np.divide(errors, top := max(errors) or 1.0)  # no square overflows in std
        rows.append(StabilityRow(float(delta), alpha, top * float(np.mean(scaled)),
                                 top * float(np.std(scaled))))
    fit_rows = [r for r in rows if r.delta > 0 and r.mean_error > 0]
    if len({r.delta for r in fit_rows}) < 2:
        return rows, None
    x, y = np.log([r.delta for r in fit_rows]), np.log([r.mean_error for r in fit_rows])
    return rows, float(np.polyfit(x, y, 1)[0])
