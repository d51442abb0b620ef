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


def _index_slots(group: GroupKind) -> int:
    if isinstance(group, SU2):
        return 1
    if isinstance(group, Torus):
        return group.d
    return sum(_index_slots(f) for f in group.factors)


def _split_index(group: Product, index: tuple) -> list[tuple[GroupKind, tuple]]:
    """Split a concatenated product index into per-factor fragments."""
    parts = []
    pos = 0
    for f in group.factors:
        w = _index_slots(f)
        parts.append((f, index[pos:pos + w]))
        pos += w
    return parts


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
    """One irreducible representation: a group kind plus an index vector."""

    group: GroupKind
    index: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", tuple(int(i) for i in self.index))
        _validate_index(self.group, self.index)


def _validate_index(group: GroupKind, index: tuple) -> None:
    if len(index) != _index_slots(group):
        raise ValueError(
            f"index {index} has {len(index)} slots, group needs {_index_slots(group)}"
        )
    if isinstance(group, SU2):
        k = index[0]
        if k < 0:
            raise ValueError(f"SU(2) label k must be >= 0, got {k}")
        if not group.half_integers and k % 2 != 0:
            raise ValueError(f"integer-spin SU(2) dual admits only even k, got {k}")
    elif isinstance(group, Product):
        for f, frag in _split_index(group, index):
            _validate_index(f, frag)


def dim(label: IrrepLabel) -> int:
    """Dimension of the representation: 2l+1 on SU(2), 1 on tori."""
    return _dim(label.group, label.index)


def _dim(group: GroupKind, index: tuple) -> int:
    if isinstance(group, SU2):
        return index[0] + 1
    if isinstance(group, Torus):
        return 1
    out = 1
    for f, frag in _split_index(group, index):
        out *= _dim(f, frag)
    return out


def casimir(label: IrrepLabel) -> float:
    """Casimir eigenvalue: l(l+1) on SU(2), |n|^2 on tori, additive on products."""
    return _casimir(label.group, label.index)


def _casimir(group: GroupKind, index: tuple) -> float:
    if isinstance(group, SU2):
        k = index[0]
        return k * (k + 2) / 4.0
    if isinstance(group, Torus):
        return float(sum(n * n for n in index))
    return sum(_casimir(f, frag) for f, frag in _split_index(group, index))


def _radial_size(group: GroupKind, index: tuple) -> float:
    """Radial size entering power-law weights: l on SU(2), |n| on tori,
    combined in quadrature on products."""
    if isinstance(group, SU2):
        return index[0] / 2.0
    if isinstance(group, Torus):
        return math.sqrt(sum(n * n for n in index))
    return math.sqrt(
        sum(_radial_size(f, frag) ** 2 for f, frag in _split_index(group, index))
    )


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
            if not value > 0:
                raise ValueError(f"weight table value for {label.index} must be > 0, got {value}")


Weight = Union[PowerLaw, TableWeight]


def weight_eval(weight: Weight, label: IrrepLabel) -> float:
    """Evaluate a weight at a label: a finite number > 0, or ValueError."""
    if isinstance(weight, PowerLaw):
        try:
            value = (1.0 + _radial_size(label.group, label.index)) ** weight.exponent
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
            d = dim(label)
            offsets[label] = (start, d)
            start += d
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
                    "dim": dim(label),
                    "casimir": casimir(label),
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
            if "dim" in entry and int(entry["dim"]) != dim(label):
                raise ValueError(
                    f"label {label.index}: stored dim {entry['dim']} != {dim(label)}"
                )
            labels.append(label)
        return cls(group, float(data["cutoff"]), labels)


def _su2_indices(group: SU2, budget: float) -> list[tuple[tuple, float]]:
    out = []
    step = 1 if group.half_integers else 2
    k = 0
    while k * (k + 2) <= 4.0 * budget:
        out.append(((k,), k * (k + 2) / 4.0))
        k += step
    return out


def _torus_points(d: int, budget: float) -> list[tuple]:
    if budget < 0:
        return []
    if d == 0:
        return [()]
    r = int(math.isqrt(int(budget)))
    while (r + 1) ** 2 <= budget:
        r += 1
    out = []
    for n in range(-r, r + 1):
        for rest in _torus_points(d - 1, budget - n * n):
            out.append((n,) + rest)
    return out


def _factor_indices(factor: GroupKind, budget: float) -> list[tuple[tuple, float]]:
    if isinstance(factor, SU2):
        return _su2_indices(factor, budget)
    return [(pt, float(sum(n * n for n in pt))) for pt in _torus_points(factor.d, budget)]


def _product_indices(factors: tuple, budget: float) -> list[tuple[tuple, float]]:
    if len(factors) == 1:
        return _factor_indices(factors[0], budget)
    out = []
    for head, lam in _factor_indices(factors[0], budget):
        for tail, lam_rest in _product_indices(factors[1:], budget - lam):
            out.append((head + tail, lam + lam_rest))
    return out


def enumerate_dual(group: GroupKind, cutoff: float) -> DualCatalog:
    """All labels with Casimir eigenvalue <= cutoff, deterministically ordered.

    Raises ValueError for non-finite or negative cutoffs and for truncations
    whose dense dimension would exceed ``MAX_DENSE_DIM``.
    """
    if not (math.isfinite(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff}")
    if isinstance(group, SU2):
        indices = _su2_indices(group, cutoff)
    elif isinstance(group, Torus):
        indices = _factor_indices(group, cutoff)
    else:
        indices = _product_indices(group.factors, cutoff)
    if len(indices) > MAX_DENSE_DIM:
        raise ValueError(
            f"cutoff {cutoff} yields {len(indices)} labels, over guard {MAX_DENSE_DIM}"
        )
    indices.sort(key=lambda pair: (pair[1], pair[0]))
    labels = [IrrepLabel(group, idx) for idx, _ in indices]
    return DualCatalog(group, float(cutoff), labels)
