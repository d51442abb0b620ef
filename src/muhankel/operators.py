"""Assembly of weighted block operators in the single-copy coefficient model.

The operator carries one finite block T(pi, rho) = mu(pi) a(pi, rho) nu(rho)
per stored symbol block, mapping the rho coordinate slice of the domain
layout into the pi slice of the codomain layout. Blocks are weighted once at
assembly and cached; application, adjoint, and densification all reuse the
cache, so the adjoint's dense matrix is the exact conjugate transpose.

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
indicator reads the factorization over the blocks inside the half catalogs.
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
    weighted: dict[BlockKey, np.ndarray] = field(init=False, repr=False)
    _block_values: dict[BlockKey, np.ndarray] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        _check_table_cover(self.mu, self.symbol.codomain, "mu")
        _check_table_cover(self.nu, self.symbol.domain, "nu")
        weighted = {}
        for (pi, rho), block in self.symbol.blocks.items():
            # single scalar product keeps the adjoint exactly conjugate-symmetric
            w = weight_eval(self.mu, pi) * weight_eval(self.nu, rho)
            wb = w * block
            wb.setflags(write=False)
            weighted[(pi, rho)] = wb
        self.weighted = weighted

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

    @cached_property
    def components(self) -> list[Component]:
        """Connected components of the full support's bipartite graph."""
        return self._components(self.weighted)

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

    def support_values(self, keys: Collection[BlockKey]) -> np.ndarray:
        """Descending singular values of the stored blocks ``keys`` alone, not
        zero-padded: one SVD per component of that support, none for a
        single-block component whose block values are known."""
        parts = [self._component_values(component) for component in self._components(keys)]
        return np.sort(np.concatenate(parts))[::-1] if parts else np.zeros(0)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the dense matrix: :meth:`support_values`
        of every stored block, zero-padded to min(n_out, n_in); read-only."""
        found = self.support_values(self.weighted)
        n_out, n_in = self.shape
        values = np.zeros(min(n_out, n_in))
        values[: found.size] = found
        values.setflags(write=False)
        return values

    def _component_values(self, component: Component) -> np.ndarray:
        """Singular values of one component's matrix: the dense matrix
        restricted to the component's labels, in catalog order."""
        rows, cols, keys = component
        if len(keys) == 1:
            return self._block_svd(keys[0])
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
        return np.linalg.svd(matrix, compute_uv=False)

    def _block_svd(self, key: BlockKey) -> np.ndarray:
        """One entry of :attr:`block_singular_values`, computed on first use."""
        values = self._block_values.get(key)
        if values is None:
            values = np.linalg.svd(self.weighted[key], compute_uv=False)
            values.setflags(write=False)
            self._block_values[key] = values
        return values

    @cached_property
    def block_singular_values(self) -> dict[BlockKey, np.ndarray]:
        """Descending singular values of every weighted block, in symbol order,
        one SVD per block per operator; read-only. Entry [0] is the block's
        2-norm."""
        return {key: self._block_svd(key) for key in self.weighted}


ZERO_REL_TOL = 1e-12  # relative zero cut of forward's triples and the smallest retained value


def retained_count(values: np.ndarray, rel_tol: float) -> int:
    """How many of the descending ``values`` lie above ``rel_tol`` times the
    largest; 0 for an empty or all-zero list. The retained values are a
    prefix; this one rule sets the numerical rank, the smallest retained
    singular value and the triples ``forward`` keeps."""
    if values.size == 0 or values[0] == 0.0:
        return 0
    return int(np.count_nonzero(values > rel_tol * values[0]))


def _check_table_cover(weight: Weight, catalog: DualCatalog, name: str) -> None:
    if isinstance(weight, TableWeight):
        missing = [l for l in catalog.labels if l not in weight.values]
        if missing:
            raise ValueError(
                f"{name} weight table is missing {len(missing)} catalog labels, "
                f"first: {missing[0].index}"
            )


def assemble(symbol: Symbol, mu: Weight, nu: Weight) -> BlockOperator:
    """Weight every stored block and cache the result."""
    return BlockOperator(symbol, mu, nu)
