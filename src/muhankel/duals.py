"""Truncated unitary duals of compact groups.

Supported groups are SU(2), tori T^d, and flat products of those. By
Peter-Weyl the dual of a product is the product of its factors' duals, and
the dual of T^d is d copies of the circle's, so an irreducible representation
is a tuple of one-slot atoms: an SU(2) spin stored as k = 2l, or a circle
frequency n. A :class:`DualCatalog` enumerates every label whose Casimir
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


_CIRCLE = Torus(1)


def _atoms(group: GroupKind) -> tuple:
    """One atom per index slot: each SU(2) factor as it is, and the circle
    ``Torus(1)`` once per torus dimension."""
    atoms = []
    for f in group.factors if isinstance(group, Product) else (group,):
        atoms.extend((f,) if isinstance(f, SU2) else (_CIRCLE,) * f.d)
    return tuple(atoms)


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
    Casimir eigenvalue and radial size (see :func:`_describe`). The hash of
    ``(group, index)`` is computed once: labels key every offset, weight and
    block lookup, and rehashing would hash the group dataclass each time.
    """

    group: GroupKind
    index: tuple
    dim: int = field(init=False, compare=False, repr=False)
    casimir: float = field(init=False, compare=False, repr=False)
    radius: float = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            index = tuple(int(i) for i in self.index)
            exact = index == tuple(self.index)  # 1.5 and "1" are not 1
        except (OverflowError, ValueError):  # inf, nan, "abc"
            exact = False
        if not exact:
            raise ValueError(f"label index {tuple(self.index)!r} must hold integers only")
        object.__setattr__(self, "index", index)
        for name, value in zip(("dim", "casimir", "radius"), _describe(self.group, index)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((self.group, index)))

    def __hash__(self) -> int:
        return self._hash


def _describe(group: GroupKind, index: tuple) -> tuple[int, float, float]:
    """Validate ``index`` against ``group`` and return (dimension, Casimir
    eigenvalue, radial size): 2l+1, l(l+1) and l on SU(2); 1, |n|^2 and |n|
    on tori. Products multiply dimensions, add Casimirs and combine radial
    sizes in quadrature."""
    atoms = _atoms(group)
    if len(index) != len(atoms):
        raise ValueError(f"index {index} has {len(index)} slots, group needs {len(atoms)}")
    dimension, cas, squares = 1, 0, 0
    for atom, k in zip(atoms, index):
        if isinstance(atom, SU2):
            if k < 0:
                raise ValueError(f"SU(2) label k must be >= 0, got {k}")
            if not atom.half_integers and k % 2 != 0:
                raise ValueError(f"integer-spin SU(2) dual admits only even k, got {k}")
            dimension *= k + 1
            cas += k * (k + 2) / 4.0
            squares += (k / 2.0) ** 2
        else:
            cas += k * k
            squares += k * k
    return dimension, float(cas), math.sqrt(squares)


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
    _by_index: dict[tuple, IrrepLabel] = field(init=False, repr=False, compare=False)
    _position: dict[IrrepLabel, int] = field(init=False, repr=False, compare=False)

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
        self._by_index = {label.index: label for label in self.labels}
        self._position = {label: i for i, label in enumerate(self.labels)}
        self.dense_dim = start
        _check_dense_dim(start)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[IrrepLabel]:
        return iter(self.labels)

    def __contains__(self, label: IrrepLabel) -> bool:
        return label in self.offsets

    def label_at(self, index, side: str) -> IrrepLabel:
        """The catalog's own label of index vector ``index`` (1.0 and true
        read as 1, as in IrrepLabel). A malformed index raises IrrepLabel's
        error, a valid one outside the catalog "<side> label ... not in catalog"."""
        found = self._by_index.get(tuple(index))
        if found is None:
            label = IrrepLabel(self.group, tuple(index))
            raise ValueError(f"{side} label {label.index} not in catalog")
        return found

    def labels_at(self, indices) -> list[IrrepLabel]:
        """:meth:`label_at` of each index vector, all looked up at once; a
        KeyError on a miss, which :meth:`label_at` can then name."""
        return list(map(self._by_index.__getitem__, map(tuple, indices)))

    def positions(self, labels) -> list[int]:
        """The catalog position of each label, -1 for one not in the catalog."""
        return [self._position.get(label, -1) for label in labels]

    def slice_of(self, label: IrrepLabel) -> slice:
        start, length = self.offsets[label]
        return slice(start, start + length)

    def restrict(self, keep: Callable[[IrrepLabel], bool]) -> "DualCatalog":
        """Sub-catalog with the kept labels; order and cutoff are preserved."""
        return DualCatalog(self.group, self.cutoff, [l for l in self.labels if keep(l)])

    def to_dict(self) -> dict:
        return {"group": group_to_dict(self.group), "cutoff": float(self.cutoff),
                "labels": [{"index": list(label.index), "dim": label.dim,
                            "casimir": label.casimir} for label in self.labels]}

    @classmethod
    def from_dict(cls, data: Mapping, like: "DualCatalog | None" = None) -> "DualCatalog":
        """Inverse of :meth:`to_dict`; ``like`` itself when ``data`` is its dict."""
        if like is not None and data == like.to_dict():
            return like
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


def _check_dense_dim(dense_dim: int) -> None:
    if dense_dim > MAX_DENSE_DIM:
        raise ValueError(
            f"catalog dense dimension {dense_dim} exceeds guard {MAX_DENSE_DIM}"
        )


def _k_max(budget: float) -> int:
    """The largest k with k(k+2) <= 4 budget, i.e. (k+1)^2 <= floor(4 budget)
    + 1. A budget past (2 MAX_DENSE_DIM + 3)^2 / 4 is capped: one SU(2) slot
    then passes the guard on its own."""
    return math.isqrt(math.floor(min(4.0 * budget, (2 * MAX_DENSE_DIM + 3) ** 2)) + 1) - 1


def _walk(atoms: tuple, budget: float) -> Iterator[tuple[tuple, float, int]]:
    """Yield (index, Casimir eigenvalue, dimension) of every label of the
    atoms' product with Casimir eigenvalue <= ``budget``, lazily, the first
    atom slowest. Every budget passed down is >= 0."""
    if not atoms:
        yield (), 0, 1
        return
    atom = atoms[0]
    if isinstance(atom, SU2):
        heads = ((k, k * (k + 2) / 4.0, k + 1)
                 for k in range(0, _k_max(budget) + 1, 1 if atom.half_integers else 2))
    else:
        # the largest r with r^2 <= budget; capped like _k_max
        r = min(math.isqrt(int(budget)), MAX_DENSE_DIM)
        heads = ((n, n * n, 1) for n in range(-r, r + 1))
    for k, lam, d in heads:
        for tail, lam_rest, d_rest in _walk(atoms[1:], budget - lam):
            yield (k,) + tail, lam + lam_rest, d * d_rest


def _count(atoms: tuple, budget: float) -> tuple[int, int]:
    """(labels, dense dimension) of ``_walk(atoms, budget)`` without building
    an index: the walk over all atoms but the last, and a closed form for the
    last. Each step adds at least one label, so once the count passes
    ``MAX_DENSE_DIM`` it stops and returns some count above the guard."""
    labels = dense = 0
    last = atoms[-1]
    for _, lam, d in _walk(atoms[:-1], budget):
        if isinstance(last, Torus):
            n = nd = 2 * math.isqrt(int(budget - lam)) + 1
        else:  # dimensions 1, 2, ..., n, or 1, 3, ..., 2n - 1 on integer spins
            n = _k_max(budget - lam) // (1 if last.half_integers else 2) + 1
            nd = n * (n + 1) // 2 if last.half_integers else n * n
        labels += n
        dense += d * nd
        if labels > MAX_DENSE_DIM:
            break
    return labels, dense


def enumerate_dual(group: GroupKind, cutoff: float) -> DualCatalog:
    """All labels with Casimir eigenvalue <= cutoff, deterministically ordered.

    Raises ValueError for non-finite or negative cutoffs and for truncations
    with more than ``MAX_DENSE_DIM`` labels or a larger dense dimension. Both
    are counted before any label is built.
    """
    if not (math.isfinite(cutoff) and cutoff >= 0):
        raise ValueError(f"cutoff must be finite and >= 0, got {cutoff}")
    atoms = _atoms(group)
    count, dense_dim = _count(atoms, cutoff)
    if count > MAX_DENSE_DIM:
        raise ValueError(
            f"cutoff {cutoff} yields more labels than the guard {MAX_DENSE_DIM}"
        )
    _check_dense_dim(dense_dim)
    found = sorted(_walk(atoms, cutoff), key=lambda entry: (entry[1], entry[0]))
    labels = [IrrepLabel(group, index) for index, _, _ in found]
    return DualCatalog(group, float(cutoff), labels)
