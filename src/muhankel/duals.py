"""Truncated unitary duals of compact groups.

Supported groups are SU(2), tori T^d, and flat products of those. An
irreducible representation is identified by an integer index vector
(k = 2l for SU(2) spins, a frequency vector for tori, concatenation for
products). A :class:`DualCatalog` enumerates every label whose Casimir
eigenvalue lies below a cutoff and lays the labels out contiguously in a
dense coordinate range, giving a deterministic block layout for operator
assembly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Union

# Hard cap on the dense dimension (sum of irrep dimensions) of one catalog.
MAX_DENSE_DIM = 1_000_000


# ---------------------------------------------------------------------------
# Group kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SU2:
    """SU(2). Spins l are stored as integers k = 2l to keep indexing exact.

    With ``half_integers=False`` only integer spins (even k) are admitted.
    """

    half_integers: bool = True


@dataclass(frozen=True)
class Torus:
    """d-dimensional torus; labels are integer frequency vectors n in Z^d."""

    d: int = 1

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"torus dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class Product:
    """Direct product of SU(2) and torus factors (no nesting)."""

    factors: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 2:
            raise ValueError("product group needs at least two factors")
        for f in self.factors:
            if isinstance(f, Product):
                raise ValueError("product groups do not nest")
            if not isinstance(f, (SU2, Torus)):
                raise TypeError(f"unsupported product factor: {f!r}")


GroupKind = Union[SU2, Torus, Product]


def _factors(group: GroupKind) -> tuple:
    """The factors of a product; a single group is its own one factor."""
    return group.factors if isinstance(group, Product) else (group,)


def group_to_dict(group: GroupKind) -> dict:
    if isinstance(group, SU2):
        return {"kind": "su2", "half_integers": group.half_integers}
    if isinstance(group, Torus):
        return {"kind": "torus", "d": group.d}
    return {"kind": "product", "factors": [group_to_dict(f) for f in group.factors]}


def group_from_dict(data: Mapping) -> GroupKind:
    kind = data.get("kind")
    if kind == "su2":
        return SU2(half_integers=bool(data.get("half_integers", True)))
    if kind == "torus":
        return Torus(d=int(data.get("d", 1)))
    if kind == "product":
        return Product(tuple(group_from_dict(f) for f in data["factors"]))
    raise ValueError(f"unknown group kind: {kind!r}")


def parse_group(spec: str) -> GroupKind:
    """Parse a group spec string: ``su2``, ``su2int``, ``torus:d``,
    or factors joined by ``x`` (e.g. ``su2xtorus:2``)."""
    parts = spec.lower().split("x")
    factors = []
    for part in parts:
        if part == "su2":
            factors.append(SU2(half_integers=True))
        elif part == "su2int":
            factors.append(SU2(half_integers=False))
        elif part.startswith("torus"):
            _, _, dim = part.partition(":")
            factors.append(Torus(d=int(dim) if dim else 1))
        else:
            raise ValueError(f"unknown group spec: {part!r}")
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


# ---------------------------------------------------------------------------
# Irrep labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrrepLabel:
    """One irreducible representation: a group kind plus an index vector.

    Construction validates the index and stores the label's dimension,
    Casimir eigenvalue and radial size (see :func:`_describe`).
    """

    group: GroupKind
    index: tuple
    dim: int = field(init=False, compare=False, repr=False)
    casimir: float = field(init=False, compare=False, repr=False)
    radius: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        index = tuple(int(i) for i in self.index)
        object.__setattr__(self, "index", index)
        for name, value in zip(("dim", "casimir", "radius"), _describe(self.group, index)):
            object.__setattr__(self, name, value)


def _describe(group: GroupKind, index: tuple) -> tuple[int, float, float]:
    """Validate ``index`` against ``group`` and return (dimension, Casimir
    eigenvalue, radial size): 2l+1, l(l+1) and l on SU(2); 1, |n|^2 and |n|
    on tori. Products multiply dimensions, add Casimirs and combine radial
    sizes in quadrature."""
    factors = _factors(group)
    slots = [1 if isinstance(f, SU2) else f.d for f in factors]
    if len(index) != sum(slots):
        raise ValueError(f"index {index} has {len(index)} slots, group needs {sum(slots)}")
    # Sums start at 0 in factor order, and a lone group's radial size is not
    # squared and rooted, so values match the per-factor formulas bitwise.
    dimension, cas, squares, pos = 1, 0, 0, 0
    for f, width in zip(factors, slots):
        frag = index[pos:pos + width]
        pos += width
        if isinstance(f, SU2):
            k = frag[0]
            if k < 0:
                raise ValueError(f"SU(2) label k must be >= 0, got {k}")
            if not f.half_integers and k % 2 != 0:
                raise ValueError(f"integer-spin SU(2) dual admits only even k, got {k}")
            d, c, r = k + 1, k * (k + 2) / 4.0, k / 2.0
        else:
            sq = sum(n * n for n in frag)
            d, c, r = 1, float(sq), math.sqrt(sq)
        dimension *= d
        cas += c
        squares += r ** 2
    return dimension, cas, (math.sqrt(squares) if isinstance(group, Product) else r)


def dim(label: IrrepLabel) -> int:
    """Dimension of the representation: 2l+1 on SU(2), 1 on tori."""
    return label.dim


def casimir(label: IrrepLabel) -> float:
    """Casimir eigenvalue: l(l+1) on SU(2), |n|^2 on tori, additive on products."""
    return label.casimir


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLaw:
    """Weight (1 + r)^s with r the label's radial size."""

    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent):
            raise ValueError(f"power-law exponent must be finite, got {self.exponent}")


@dataclass(frozen=True)
class TableWeight:
    """Explicit positive weight table keyed by label."""

    values: Mapping[IrrepLabel, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        for label, value in self.values.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"weight table value for {label.index} must be finite and > 0, got {value}"
                )


Weight = Union[PowerLaw, TableWeight]


def weight_eval(weight: Weight, label: IrrepLabel) -> float:
    """Evaluate a weight at a label: a finite number > 0, or ValueError."""
    if isinstance(weight, PowerLaw):
        try:
            value = (1.0 + label.radius) ** weight.exponent
        except OverflowError:
            value = math.inf
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"power-law weight at label index {label.index} with exponent "
                f"{weight.exponent} is {value}, not a finite number > 0"
            )
        return value
    try:
        return weight.values[label]
    except KeyError:
        raise KeyError(f"weight table has no entry for label index {label.index}") from None


UNIT_WEIGHT = PowerLaw(0.0)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

@dataclass
class DualCatalog:
    """An ordered, truncated slice of a unitary dual with a dense layout.

    Labels are sorted by (Casimir eigenvalue, index vector); ``offsets``
    maps each label to its (start, length) slice of ``[0, dense_dim)``.
    Immutable after construction.
    """

    group: GroupKind
    cutoff: float
    labels: list[IrrepLabel]
    offsets: dict[IrrepLabel, tuple[int, int]] = field(
        init=False, repr=False, compare=False
    )
    dense_dim: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.cutoff):
            raise ValueError(f"cutoff must be finite, got {self.cutoff}")
        offsets = {}
        start = 0
        for position, label in enumerate(self.labels):
            if label in offsets:
                raise ValueError(f"duplicate label {label.index} at position {position}")
            offsets[label] = (start, label.dim)
            start += label.dim
        self.offsets = offsets
        self.dense_dim = start
        if start > MAX_DENSE_DIM:
            raise ValueError(
                f"catalog dense dimension {start} exceeds guard {MAX_DENSE_DIM}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[IrrepLabel]:
        return iter(self.labels)

    def __contains__(self, label: IrrepLabel) -> bool:
        return label in self.offsets

    def slice_of(self, label: IrrepLabel) -> slice:
        start, length = self.offsets[label]
        return slice(start, start + length)

    def restrict(self, keep: Callable[[IrrepLabel], bool]) -> "DualCatalog":
        """Sub-catalog with the kept labels; order and cutoff are preserved."""
        return DualCatalog(self.group, self.cutoff, [l for l in self.labels if keep(l)])

    def to_dict(self) -> dict:
        return {
            "group": group_to_dict(self.group),
            "cutoff": float(self.cutoff),
            "labels": [
                {
                    "index": list(label.index),
                    "dim": label.dim,
                    "casimir": label.casimir,
                }
                for label in self.labels
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DualCatalog":
        group = group_from_dict(data["group"])
        labels = []
        for entry in data["labels"]:
            label = IrrepLabel(group, tuple(entry["index"]))
            if "dim" in entry and int(entry["dim"]) != label.dim:
                raise ValueError(
                    f"label {label.index}: stored dim {entry['dim']} != {label.dim}"
                )
            labels.append(label)
        return cls(group, float(data["cutoff"]), labels)


def _su2_indices(group: SU2, budget: float) -> Iterator[tuple[tuple, float]]:
    step = 1 if group.half_integers else 2
    k = 0
    while k * (k + 2) <= 4.0 * budget:
        yield (k,), k * (k + 2) / 4.0
        k += step


def _torus_points(d: int, budget: float) -> Iterator[tuple]:
    if budget < 0:
        return
    if d == 0:
        yield ()
        return
    r = int(math.isqrt(int(budget)))
    while (r + 1) ** 2 <= budget:
        r += 1
    for n in range(-r, r + 1):
        for rest in _torus_points(d - 1, budget - n * n):
            yield (n,) + rest


def _factor_indices(factor: GroupKind, budget: float) -> Iterator[tuple[tuple, float]]:
    if isinstance(factor, SU2):
        return _su2_indices(factor, budget)
    return ((pt, float(sum(n * n for n in pt))) for pt in _torus_points(factor.d, budget))


def _product_indices(factors: tuple, budget: float) -> Iterator[tuple[tuple, float]]:
    if len(factors) == 1:
        yield from _factor_indices(factors[0], budget)
        return
    for head, lam in _factor_indices(factors[0], budget):
        for tail, lam_rest in _product_indices(factors[1:], budget - lam):
            yield head + tail, lam + lam_rest


def enumerate_dual(group: GroupKind, cutoff: float) -> DualCatalog:
    """All labels with Casimir eigenvalue <= cutoff, deterministically ordered.

    Raises ValueError for non-finite or negative cutoffs and for truncations
    with more than ``MAX_DENSE_DIM`` labels (enumeration stops at the first
    label past the guard) or a larger dense dimension.
    """
    if not (math.isfinite(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff}")
    indices = list(itertools.islice(_product_indices(_factors(group), cutoff), MAX_DENSE_DIM + 1))
    if len(indices) > MAX_DENSE_DIM:
        raise ValueError(
            f"cutoff {cutoff} yields more labels than the guard {MAX_DENSE_DIM}"
        )
    indices.sort(key=lambda pair: (pair[1], pair[0]))
    labels = [IrrepLabel(group, idx) for idx, _ in indices]
    return DualCatalog(group, float(cutoff), labels)
