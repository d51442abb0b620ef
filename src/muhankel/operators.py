"""Assembly of weighted block operators in the single-copy coefficient model.

The operator carries one finite block T(pi, rho) = mu(pi) a(pi, rho) nu(rho)
per stored symbol block, mapping the rho slice of the domain layout into the
pi slice of the codomain layout. Assembly weights each block once and caches
it, refusing, with the block's name, a product mu(pi) nu(rho) that is not a
finite number > 0 and a weighted block that overflows. The adjoint weights
its conjugate-transposed blocks anew, giving the exact conjugate transpose.

The stored blocks form a bipartite graph, codomain labels on one side and
domain labels on the other. The operator's singular values are the union of
those of its connected support components, each the dense matrix restricted
to the component's labels; labels without a block add only zeros. Each
operator is factored once by these components, and every spectral consumer
reads that one factorization: a single-block component reuses the block's
own singular values, the matrix of a component covering every label is
entry for entry the one ``to_dense()`` builds, and the ``MAX_DENSE_ENTRIES``
guard applies to each component's matrix, so a diagonal or matching operator
may be far larger than one dense N x N matrix could be. The compactness
indicator reads the factorization over the blocks inside the half catalogs,
and ``forward`` takes its singular vectors from the same component matrices.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from .duals import DualCatalog, IrrepLabel, TableWeight, Weight, weight_eval
from .symbols import BlockKey, Symbol

# Largest dense matrix (entry count) that to_dense, or the factorization
# for one support component, will materialize.
MAX_DENSE_ENTRIES = 25_000_000

# One support component: its codomain and domain labels in catalog order and
# the keys of its stored blocks.
Component = tuple[list[IrrepLabel], list[IrrepLabel], list[BlockKey]]


@dataclass
class BlockOperator:
    """Assembled weighted block operator; immutable after construction."""

    symbol: Symbol
    mu: Weight
    nu: Weight
    plan: _KeyPlan = field(init=False, repr=False)
    weighted: dict[BlockKey, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.plan = plan = _KeyPlan(self.symbol.codomain, self.symbol.domain, self.mu, self.nu)
        with np.errstate(over="ignore"):
            self.weighted = {key: plan[key][0] * block for key, block in self.symbol.blocks.items()}
        for (pi, rho), block in self.weighted.items():
            # a weight w <= 1 keeps |w a| <= |a|, which is finite
            if (w := plan[pi, rho][0]) > 1.0 and not np.isfinite(block).all():
                raise ValueError(f"block ({pi.index}, {rho.index}) times its weight {w} overflows")
            block.setflags(write=False)

    @property
    def codomain(self) -> DualCatalog:
        return self.symbol.codomain

    @property
    def domain(self) -> DualCatalog:
        return self.symbol.domain

    @property
    def shape(self) -> tuple[int, int]:
        return (self.codomain.dense_dim, self.domain.dense_dim)

    def apply(self, fhat: np.ndarray) -> np.ndarray:
        """Blockwise matrix-vector product on a dense coefficient vector."""
        fhat = np.asarray(fhat)
        n_out, n_in = self.shape
        if fhat.shape != (n_in,):
            raise ValueError(f"coefficient vector has shape {fhat.shape}, expected ({n_in},)")
        out = np.zeros(n_out, dtype=np.complex128)
        for (pi, rho), block in self.weighted.items():
            out[self.codomain.slice_of(pi)] += block @ fhat[self.domain.slice_of(rho)]
        return out

    def adjoint(self) -> "BlockOperator":
        """Swap weights and conjugate-transpose every block."""
        blocks = {
            (rho, pi): block.conj().T for (pi, rho), block in self.symbol.blocks.items()
        }
        return BlockOperator(
            Symbol(self.symbol.domain, self.symbol.codomain, blocks), self.nu, self.mu
        )

    def to_dense(self) -> np.ndarray:
        n_out, n_in = self.shape
        if n_out * n_in > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"dense matrix would hold {n_out * n_in} entries, over guard "
                f"{MAX_DENSE_ENTRIES}"
            )
        dense = np.zeros((n_out, n_in), dtype=np.complex128)
        for (pi, rho), block in self.weighted.items():
            dense[self.codomain.slice_of(pi), self.domain.slice_of(rho)] = block
        return dense

    def _components(self, keys: Collection[BlockKey]) -> list[Component]:
        """Connected components of the bipartite graph of the stored blocks
        ``keys`` (union-find), in the order of their first block. Labels with
        no block among ``keys`` belong to no component."""
        parent: dict = {}

        def find(node):
            while parent.setdefault(node, node) != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for pi, rho in keys:
            parent[find((0, pi))] = find((1, rho))
        members: dict = {}
        for key in keys:
            members.setdefault(find((0, key[0])), []).append(key)
        components = []
        for group in members.values():
            rows = sorted({pi for pi, _ in group}, key=lambda l: self.codomain.offsets[l][0])
            cols = sorted({rho for _, rho in group}, key=lambda l: self.domain.offsets[l][0])
            components.append((rows, cols, group))
        return components

    @cached_property
    def components(self) -> list[Component]:
        """The support components of every stored block."""
        return self._components(self.weighted)

    def support_values(self, keys: Collection[BlockKey]) -> np.ndarray:
        """Descending singular values of the stored blocks ``keys`` alone, not
        zero-padded: one SVD per support component of ``keys``, none for a
        single-block component whose block values are known."""
        parts = [self._component_values(component) for component in self._components(keys)]
        return np.sort(np.concatenate(parts))[::-1] if parts else np.zeros(0)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the dense matrix: the
        :meth:`support_values` of every stored block, zero-padded to
        min(n_out, n_in); read-only."""
        found = self.support_values(self.weighted)
        n_out, n_in = self.shape
        values = np.zeros(min(n_out, n_in))
        values[: found.size] = found
        values.setflags(write=False)
        return values

    def _component_values(self, component: Component) -> np.ndarray:
        """Singular values of one component's matrix."""
        keys = component[2]
        if len(keys) == 1:
            return self.block_singular_values[keys[0]]
        return np.linalg.svd(self._component_matrix(component), compute_uv=False)

    def _component_matrix(self, component: Component) -> np.ndarray:
        """The dense matrix restricted to one component's labels, in catalog
        order; for a single-block component, the weighted block itself."""
        rows, cols, keys = component
        if len(keys) == 1:
            return self.weighted[keys[0]]
        n_rows = sum(l.dim for l in rows)
        n_cols = sum(l.dim for l in cols)
        if n_rows * n_cols > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"support component of {len(rows)} x {len(cols)} labels would hold "
                f"{n_rows} x {n_cols} = {n_rows * n_cols} entries, over guard "
                f"{MAX_DENSE_ENTRIES}"
            )
        # start of each label's slice when the component's labels are laid out in order
        row_at = dict(zip(rows, accumulate((l.dim for l in rows), initial=0)))
        col_at = dict(zip(cols, accumulate((l.dim for l in cols), initial=0)))
        matrix = np.zeros((n_rows, n_cols), dtype=np.complex128)
        for pi, rho in keys:
            matrix[row_at[pi] : row_at[pi] + pi.dim,
                   col_at[rho] : col_at[rho] + rho.dim] = self.weighted[(pi, rho)]
        return matrix

    @cached_property
    def block_singular_values(self) -> dict[BlockKey, np.ndarray]:
        """Descending singular values of every weighted block, in symbol order,
        one SVD per block per operator; read-only. Entry [0] is the block's
        2-norm."""
        values = {}
        for key, block in self.weighted.items():
            values[key] = np.linalg.svd(block, compute_uv=False)
            values[key].setflags(write=False)
        return values


ZERO_REL_TOL = 1e-12  # relative zero cut of forward's triples and the smallest retained value


def retained_count(values: np.ndarray, rel_tol: float) -> int:
    """How many of the descending ``values`` lie above ``rel_tol`` times the
    largest; 0 for an empty or all-zero list. The retained values are a
    prefix; this one rule sets the numerical rank, the smallest retained
    singular value and the triples ``forward`` keeps."""
    if values.size == 0 or values[0] == 0.0:
        return 0
    return int(np.count_nonzero(values > rel_tol * float(values[0])))


def frobenius(blocks: Collection[np.ndarray]) -> tuple[float, float]:
    """(s, f): s = 1 if the plain sum of squares is in [2^-900, inf), else the
    power of two putting the largest part of the ``blocks`` in [1/2, 1), and
    f = ||s blocks||_F, from squares that neither over- nor underflow."""
    if 2.0**-900 <= (total := sum(float(np.vdot(b, b).real) for b in blocks)) < np.inf:
        return 1.0, float(np.sqrt(total))
    top = max((float(np.max(np.abs(x))) for b in blocks for x in (b.real, b.imag)), default=0.0)
    s = 2.0 ** -max(int(np.frexp(top)[1]), -1022)
    return s, float(np.sqrt(sum(float(np.vdot(x := s * b, x).real) for b in blocks)))


class _KeyPlan(dict):
    """Per block key (pi, rho): its weight mu(pi) nu(rho), refused unless a
    finite number > 0, and its codomain and domain slices, each key's worked
    out on its first lookup. A weight table must cover its catalog."""

    def __init__(self, codomain: DualCatalog, domain: DualCatalog, mu: Weight, nu: Weight):
        super().__init__()
        for name, weight, catalog in (("mu", mu, codomain), ("nu", nu, domain)):
            if isinstance(weight, TableWeight) and (
                    missing := [l for l in catalog.labels if l not in weight.values]):
                raise ValueError(f"{name} weight table is missing {len(missing)} catalog "
                                 f"labels, first: {missing[0].index}")
        self.codomain, self.domain, self.mu, self.nu = codomain, domain, mu, nu

    def __missing__(self, key: BlockKey) -> tuple[float, slice, slice]:
        pi, rho = key
        # one scalar product keeps the adjoint exactly conjugate-symmetric
        w = weight_eval(self.mu, pi) * weight_eval(self.nu, rho)
        if not 0.0 < w < np.inf:  # each weight is in float range, their product may not be
            raise ValueError(f"weight mu(pi) nu(rho) of block ({pi.index}, {rho.index}) "
                             f"is {w}, not a finite number > 0")
        self[key] = found = (w, self.codomain.slice_of(pi), self.domain.slice_of(rho))
        return found


def assemble(symbol: Symbol, mu: Weight, nu: Weight) -> BlockOperator:
    """Weight every stored block and cache the result."""
    return BlockOperator(symbol, mu, nu)
