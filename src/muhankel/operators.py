"""Assembly of weighted block operators in the single-copy coefficient model.

The operator carries one finite block T(pi, rho) = mu(pi) a(pi, rho) nu(rho)
per stored symbol block, mapping the rho coordinate slice of the domain
layout into the pi slice of the codomain layout. Blocks are weighted once at
assembly and cached; application, adjoint, and densification all reuse the
cache, so the adjoint's dense matrix is the exact conjugate transpose. The
singular values of the dense matrix, and those of every weighted block, are
computed once per operator and shared by every spectral consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .duals import DualCatalog, TableWeight, Weight, weight_eval
from .symbols import BlockKey, Symbol

# Largest dense matrix (entry count) that to_dense will materialize.
MAX_DENSE_ENTRIES = 25_000_000


@dataclass
class BlockOperator:
    """Assembled weighted block operator; immutable after construction."""

    symbol: Symbol
    mu: Weight
    nu: Weight
    weighted: dict[BlockKey, np.ndarray] = field(init=False, repr=False)

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
    def singular_values(self) -> np.ndarray:
        """Descending singular values of the dense matrix, from one SVD per
        operator; read-only. The dense matrix itself is not kept."""
        dense = self.to_dense()
        values = np.linalg.svd(dense, compute_uv=False) if dense.size else np.zeros(0)
        values.setflags(write=False)
        return values

    @cached_property
    def block_singular_values(self) -> dict[BlockKey, np.ndarray]:
        """Descending singular values of every weighted block, one SVD per
        block per operator; read-only. Entry [0] is the block's 2-norm."""
        per_block = {}
        for key, block in self.weighted.items():
            values = np.linalg.svd(block, compute_uv=False)
            values.setflags(write=False)
            per_block[key] = values
        return per_block


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
