"""Sparse matrix-valued symbols and their norms.

A symbol stores one complex d_pi x d_rho matrix per (pi, rho) label pair;
absent pairs are zero. Weights act as positive scalars per label; the
assembled operator holds the weighted blocks ``mu(pi) * a(pi, rho) * nu(rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .duals import DualCatalog, IrrepLabel, PowerLaw, Torus, casimir, dim, weight_eval

if TYPE_CHECKING:
    from .operators import BlockOperator

BlockKey = tuple[IrrepLabel, IrrepLabel]


def parse_numbers(value, ndim: int, what: str) -> np.ndarray:
    """The JSON ``value``, numbers in lists nested ``ndim`` deep, as a float
    array; an empty list passes at any depth. Anything else (a string, a
    boolean, null, a list too deep, too shallow or ragged) raises a
    TypeError naming ``what`` and the first such entry. numpy alone would
    read "0.5" as 0.5 and, among numbers, true as 1.0, so where it read a 0
    or a 1 (x * x == x) the entries' types are checked too."""
    try:
        arr = np.array(value)
    except ValueError:  # ragged lists
        arr = np.array(None)
    if (arr.dtype.kind in "iuf" and (arr.ndim == ndim or arr.size == 0)
            and not ((arr * arr == arr).any() and _holds_bool(value, arr.ndim))):
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
        return None if type(value) in (int, float) else f"{at} is {value!r}, not a number"
    if not isinstance(value, list):
        return f"{at} is {value!r}, not a list"
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
    and rho from the domain catalog. Immutable after construction."""

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
            want = (dim(pi), dim(rho))
            if block.shape != want:
                raise ValueError(f"block ({pi.index}, {rho.index}) has shape {block.shape}, "
                                 f"expected {want}")
            if not np.isfinite(block).all():
                raise ValueError(f"block ({pi.index}, {rho.index}) has non-finite entries")
            checked[(pi, rho)] = block
        self.blocks = checked

    def block(self, pi: IrrepLabel, rho: IrrepLabel) -> np.ndarray:
        """Stored block, or a zero matrix of the right shape."""
        found = self.blocks.get((pi, rho))
        if found is not None:
            return found
        return np.zeros((dim(pi), dim(rho)), dtype=np.complex128)

    def scaled(self, c: complex) -> "Symbol":
        return Symbol(
            self.codomain,
            self.domain,
            {key: c * block for key, block in self.blocks.items()},
        )

    def to_dict(self) -> dict:
        blocks = sorted(self.blocks.items(), key=lambda kv: (kv[0][0].index, kv[0][1].index))
        return {"codomain": self.codomain.to_dict(), "domain": self.domain.to_dict(),
                "blocks": [{"pi_index": list(pi.index), "rho_index": list(rho.index),
                            "re": block.real.tolist(), "im": block.imag.tolist()}
                           for (pi, rho), block in blocks]}

    @classmethod
    def from_dict(cls, data: Mapping, like=None) -> "Symbol":
        """Inverse of :meth:`to_dict`, reusing the catalogs of ``like`` (a
        symbol or spectral data) where the file's equal them. The labels of
        all blocks are looked up at once, and their numbers converted by one
        ``np.array`` call and split by block shape; a fault found there is
        named by :func:`_read_blocks`, the same read block by block."""
        codomain = DualCatalog.from_dict(data["codomain"], like and like.codomain)
        same = data["domain"] == data["codomain"]
        domain = codomain if same else DualCatalog.from_dict(data["domain"], like and like.domain)
        entries = data["blocks"]
        try:
            keys = list(zip(codomain.labels_at([entry["pi_index"] for entry in entries]),
                            domain.labels_at([entry["rho_index"] for entry in entries])))
            parts = [entry[part] for part in ("re", "im") for entry in entries]
            rows = list(chain.from_iterable(parts))
            if not (len(set(keys)) == len(keys)
                    and all(map(isinstance, chain(parts, rows), repeat(list)))
                    and list(map(len, parts)) == [pi.dim for pi, _ in keys] * 2
                    and list(map(len, rows)) == [rho.dim for pi, rho in keys
                                                 for _ in range(pi.dim)] * 2):
                raise ValueError("blocks are not one per key, each of its labels' shape")
            flat = complex_from_parts(*np.split(
                parse_numbers(list(chain.from_iterable(rows)), 1, "blocks"), 2))
        except (KeyError, TypeError, ValueError):
            cls(codomain, domain, _read_blocks(entries, codomain, domain))
            raise
        ends = np.cumsum([pi.dim * rho.dim for pi, rho in keys]).tolist()
        return cls(codomain, domain, {key: flat[a:b].reshape(key[0].dim, key[1].dim)
                                      for key, a, b in zip(keys, [0, *ends], ends)})


def _read_blocks(entries: list, codomain: DualCatalog, domain: DualCatalog) -> dict:
    """The blocks of a symbol file read one by one, naming the first fault."""
    blocks = {}
    for entry in entries:
        pi = codomain.label_at(entry["pi_index"], "codomain")
        rho = domain.label_at(entry["rho_index"], "domain")
        if (pi, rho) in blocks:
            raise ValueError(f"duplicate block ({pi.index}, {rho.index})")
        what = f"block ({pi.index}, {rho.index})"
        try:  # one conversion and one check for both parts
            re, im = parse_numbers([entry["re"], entry["im"]], 3, what)
        except TypeError:
            parse_numbers(entry["re"], 2, f"{what} re")
            parse_numbers(entry["im"], 2, f"{what} im")
            raise TypeError(f"{what} has re and im of different shapes") from None
        blocks[(pi, rho)] = complex_from_parts(re, im)
    return blocks


@dataclass(frozen=True)
class SymbolClassParams:
    """Decay orders (m, n) of a symbol class; the weights live in the operator."""

    m: float
    n: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x >= 0 for x in (self.m, self.n)):
            raise ValueError(
                f"decay orders must be finite and >= 0, got m={self.m}, n={self.n}"
            )


def class_norm(op: BlockOperator, params: SymbolClassParams) -> float:
    """Largest weighted block operator norm, amplified by the decay factors
    (1+lambda_pi)^(m/2) (1+lambda_rho)^(n/2). Zero for an empty symbol."""
    best = 0.0
    for (pi, rho), values in op.block_singular_values.items():
        factor = (1.0 + casimir(pi)) ** (params.m / 2.0)
        factor *= (1.0 + casimir(rho)) ** (params.n / 2.0)
        best = max(best, factor * float(values[0]))
    return best


def hs_norm(op: BlockOperator) -> float:
    """l2-sum of Hilbert-Schmidt norms of the weighted blocks."""
    return float(np.sqrt(sum(float(np.sum(np.abs(wb) ** 2)) for wb in op.weighted.values())))


def symbol_difference(a: Symbol, b: Symbol) -> Symbol:
    """Blockwise a - b over the union of supports; catalogs must agree."""
    if a.codomain.labels != b.codomain.labels or a.domain.labels != b.domain.labels:
        raise ValueError("symbol difference needs matching catalogs")
    keys = set(a.blocks) | set(b.blocks)
    blocks = {key: a.block(*key) - b.block(*key) for key in keys}
    return Symbol(a.codomain, a.domain, blocks)


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


def hankel_coefficients(sym: Symbol) -> dict[int, complex] | None:
    """Fourier coefficients k -> a(n, m) for torus symbols with Hankel
    structure a(n, m) = c(n + m); None when the structure does not hold.
    Inverse of :func:`hankel_symbol_from_fourier`."""
    if sym.codomain.group != Torus(1) or sym.domain.group != Torus(1):
        return None
    coeffs: dict[int, complex] = {}
    for (pi, rho), block in sym.blocks.items():
        k = pi.index[0] + rho.index[0]
        value = complex(block[0, 0])
        if k in coeffs:
            if abs(coeffs[k] - value) > 1e-12 * max(1.0, abs(value)):
                return None
        else:
            coeffs[k] = value
    return coeffs or None


def diagonal_symbol(catalog: DualCatalog, decay: float = 0.0) -> Symbol:
    """a(pi, pi) = (1 + r_pi)^(-decay) * identity on a single catalog,
    r_pi the radial size; decay 0 gives identity blocks."""
    taper = PowerLaw(-decay)
    blocks = {}
    for label in catalog.labels:
        scale = weight_eval(taper, label)
        blocks[(label, label)] = scale * np.eye(dim(label), dtype=np.complex128)
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
                shape = (dim(pi), dim(rho))
                blocks[(pi, rho)] = (
                    rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                ) / np.sqrt(2.0)
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
        shape = (dim(pi), dim(rho))
        blocks[(pi, rho)] = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ) / np.sqrt(2.0)
    return Symbol(codomain, domain, blocks)
