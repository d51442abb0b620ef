"""Sparse matrix-valued symbols and their norms.

A symbol stores one complex d_pi x d_rho matrix per (pi, rho) label pair;
absent pairs are zero. Weights act as positive scalars per label; the
assembled operator holds the weighted blocks ``mu(pi) * a(pi, rho) * nu(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .duals import DualCatalog, IrrepLabel, PowerLaw, Torus, _fields, _shown, weight_eval

if TYPE_CHECKING:
    from .operators import BlockOperator

BlockKey = tuple[IrrepLabel, IrrepLabel]


def _by_key(items) -> list:
    """The (key, value) ``items`` sorted by the key's label indices, pi's first."""
    return sorted(items, key=lambda kv: (kv[0][0].index, kv[0][1].index))


def _key_fields(key: BlockKey) -> dict:
    """The JSON fields of a block key: its labels' index lists."""
    return {"pi_index": list(key[0].index), "rho_index": list(key[1].index)}


def parse_numbers(value, ndim: int, what: str) -> np.ndarray:
    """The JSON ``value``, numbers in lists nested ``ndim`` deep, as a float
    array; an empty list passes at any depth. Anything else (a string, a
    boolean, null, a list too deep, too shallow or ragged) raises a
    TypeError naming ``what`` and the first such entry. numpy alone would
    read "0.5" as 0.5 and, among numbers, true as 1.0, so where it read a 0
    or a 1 (by ==, as x * x may overflow) the entries' types are checked too."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged lists
        arr = np.array(None)
    if (arr.dtype.kind in "iuf" and (arr.ndim == ndim or arr.size == 0)
            and not (((arr == 0) | (arr == 1)).any() and _holds_bool(value, arr.ndim))):
        return arr.astype(float, copy=False)
    raise TypeError(_fault(value, ndim, what) or f"{what} is not a rectangular array of numbers")


def _holds_bool(value, ndim: int) -> bool:
    """Whether rectangular lists ``value``, ``ndim`` deep, hold a boolean."""
    if ndim == 0:
        return type(value) is bool
    for _ in range(ndim - 1):
        value = chain.from_iterable(value)
    return bool in set(map(type, value))


def _fault(value, ndim: int, at: str) -> str | None:
    """The first entry of ``value`` that is not a number ``ndim`` lists deep."""
    if ndim == 0:
        return None if type(value) in (int, float) else f"{at} is {_shown(value)}, not a number"
    if not isinstance(value, list):
        return f"{at} is {_shown(value)}, not a list"
    for i, item in enumerate(value):
        found = _fault(item, ndim - 1, f"{at}[{i}]")
        if found:
            return found
    return None


def complex_from_parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, each part keeping its bits: re + 1j * im
    would turn a -0.0 real part into +0.0."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


@dataclass
class Symbol:
    """Sparse collection of blocks a(pi, rho), pi from the codomain catalog
    and rho from the domain catalog. Immutable after construction: every
    block is copied and frozen."""

    codomain: DualCatalog
    domain: DualCatalog
    blocks: dict[BlockKey, np.ndarray]

    def __post_init__(self) -> None:
        checked = {}
        for (pi, rho), block in self.blocks.items():
            if pi not in self.codomain:
                raise ValueError(f"codomain label {pi.index} not in catalog")
            if rho not in self.domain:
                raise ValueError(f"domain label {rho.index} not in catalog")
            block = np.array(block, dtype=np.complex128)
            block.setflags(write=False)
            want = (pi.dim, rho.dim)
            if block.shape != want:
                raise ValueError(f"block ({pi.index}, {rho.index}) has shape {block.shape}, "
                                 f"expected {want}")
            if not np.isfinite(block).all():
                raise ValueError(f"block ({pi.index}, {rho.index}) has non-finite entries")
            checked[(pi, rho)] = block
        self.blocks = checked

    def to_dict(self) -> dict:
        return {"codomain": self.codomain.to_dict(), "domain": self.domain.to_dict(),
                "blocks": [{**_key_fields(key), "re": a.real.tolist(), "im": a.imag.tolist()}
                           for key, a in _by_key(self.blocks.items())]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "Symbol":
        """Inverse of :meth:`to_dict`. The blocks are read one at a time, in
        file order: the block's fields looked up, both labels found, a
        duplicate refused, the numbers converted; the first fault is named."""
        cod, dom, entries = _fields(data, "symbol", "codomain", "domain", "blocks")
        codomain = DualCatalog.from_dict(cod, "codomain")
        domain = codomain if dom == cod else DualCatalog.from_dict(dom, "domain")
        blocks = {}
        for i, entry in enumerate(entries):
            *index, re, im = _fields(entry, f"block {i}", "pi_index", "rho_index", "re", "im")
            pi, rho = codomain.label_at(index[0], "codomain"), domain.label_at(index[1], "domain")
            if (pi, rho) in blocks:
                raise ValueError(f"duplicate block ({pi.index}, {rho.index})")
            try:  # one conversion for both parts; a fault is named part by part
                parts = parse_numbers([re, im], 3, "block")
            except TypeError:
                what = f"block ({pi.index}, {rho.index})"
                parse_numbers(re, 2, f"{what} re")
                parse_numbers(im, 2, f"{what} im")
                raise TypeError(f"{what} has re and im of different shapes") from None
            blocks[(pi, rho)] = complex_from_parts(*parts)
        return cls(codomain, domain, blocks)


@dataclass(frozen=True)
class SymbolClassParams:
    """Decay orders (m, n) of a symbol class; the weights live in the operator."""

    m: float
    n: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x >= 0 for x in (self.m, self.n)):
            raise ValueError(f"decay orders must be finite and >= 0, got m={self.m}, n={self.n}")

    def decay(self, label: IrrepLabel, order: str) -> float:
        """(1 + lambda)^(k / 2) at ``label``, k the decay order named ``order``
        ("m" or "n"); a ValueError naming the order and the label if it overflows."""
        k = getattr(self, order)
        try:
            return (1.0 + label.casimir) ** (k / 2.0)
        except OverflowError:
            raise ValueError(f"decay order {order}={k} overflows at label {label.index}") from None


def class_norm(op: BlockOperator, params: SymbolClassParams) -> float:
    """Largest weighted block operator norm, amplified by the decay factors
    (1+lambda_pi)^(m/2) (1+lambda_rho)^(n/2); zero for an empty symbol."""
    best = 0.0
    for (pi, rho), values in op.block_singular_values.items():
        amplified = params.decay(pi, "m") * params.decay(rho, "n") * float(values[0])
        if not math.isfinite(amplified):
            raise ValueError(f"decay orders m={params.m}, n={params.n} overflow the class "
                             f"norm at block ({pi.index}, {rho.index})")
        best = max(best, amplified)
    return best


def hankel_symbol_from_fourier(
    coeffs: Mapping[int, complex], codomain: DualCatalog, domain: DualCatalog
) -> Symbol:
    """Classical Hankel law a(n, m) = coeffs[n + m] on one-dimensional tori."""
    for cat, side in ((codomain, "codomain"), (domain, "domain")):
        if cat.group != Torus(1):
            raise ValueError(f"{side} catalog must be a 1-torus dual, got {cat.group!r}")
    blocks = {}
    for pi in codomain.labels:
        for rho in domain.labels:
            c = coeffs.get(pi.index[0] + rho.index[0])
            if c:
                blocks[(pi, rho)] = np.array([[c]], dtype=np.complex128)
    return Symbol(codomain, domain, blocks)


def diagonal_symbol(catalog: DualCatalog, decay: float = 0.0) -> Symbol:
    """a(pi, pi) = (1 + r_pi)^(-decay) * identity on a single catalog,
    r_pi the radial size; decay 0 gives identity blocks."""
    taper = PowerLaw(-decay)
    blocks = {}
    for label in catalog.labels:
        scale = weight_eval(taper, label)
        blocks[(label, label)] = scale * np.eye(label.dim, dtype=np.complex128)
    return Symbol(catalog, catalog, blocks)


def random_symbol(
    codomain: DualCatalog, domain: DualCatalog, density: float, seed: int
) -> Symbol:
    """Each label pair is filled with probability ``density``; entries are
    standard complex normal. Same seed, same symbol."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = np.random.default_rng(seed)
    blocks = {}
    for pi in codomain.labels:
        for rho in domain.labels:
            if rng.uniform() < density:
                blocks[(pi, rho)] = _complex_normal(rng, (pi.dim, rho.dim))
    return Symbol(codomain, domain, blocks)


def random_matching_symbol(
    codomain: DualCatalog, domain: DualCatalog, seed: int, pairs: int | None = None
) -> Symbol:
    """Random symbol whose support is a partial matching: every codomain and
    every domain label appears in at most one block."""
    rng = np.random.default_rng(seed)
    n_max = min(len(codomain.labels), len(domain.labels))
    if n_max == 0:
        return Symbol(codomain, domain, {})
    count = int(rng.integers(1, n_max + 1)) if pairs is None else min(pairs, n_max)
    pis = [codomain.labels[i] for i in rng.permutation(len(codomain.labels))[:count]]
    rhos = [domain.labels[i] for i in rng.permutation(len(domain.labels))[:count]]
    blocks = {}
    for pi, rho in zip(pis, rhos):
        blocks[(pi, rho)] = _complex_normal(rng, (pi.dim, rho.dim))
    return Symbol(codomain, domain, blocks)


def _complex_normal(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex normal entries, the real parts drawn before the imaginary."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
