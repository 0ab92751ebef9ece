"""Blocked neighbour backend: the intersection product in row blocks.

Runs the exact threshold join of :mod:`repro.core.join` as a self-join
of the item incidence: one row block at a time, each block multiplied
only against the columns at or above it (the strict upper triangle), so
that

* the COO intermediate never exceeds ``block_size x n`` entries, and
* each unordered pair is counted once.

Each block is thresholded before the next one is computed, so peak memory
is ``O(block_size x n + edges)`` instead of ``O(pairs with any shared
item)``.  With ``block_size >= n`` it is the one-shot product.  The
result is bit-identical to the brute-force adjacency: the per-pair counts
and the similarity arithmetic are the same, only the evaluation order
changes.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.join import threshold_pairs
from repro.core.neighbors.base import VECTORIZED_CAPABILITY_HINT, validate_block_size
from repro.core.neighbors.graph import adjacency_from_upper_pairs
from repro.data.encoding import transactions_to_incidence
from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    supports_vectorized_counts,
)


class BlockedBackend:
    """Row-blocked upper-triangle sparse matmul with bounded intermediates."""

    name = "blocked"
    capability_hint = VECTORIZED_CAPABILITY_HINT

    def supports(self, measure: SetSimilarity) -> bool:
        return supports_vectorized_counts(measure)

    def build_adjacency(
        self,
        transactions: list[frozenset],
        theta: float,
        measure: VectorizedSetSimilarity,
        item_index: dict | None = None,
        block_size: int | None = None,
    ) -> sparse.csr_matrix:
        block_size = validate_block_size(block_size)
        incidence, _ = transactions_to_incidence(transactions, item_index)
        sizes = np.diff(incidence.indptr)
        rows, cols = threshold_pairs(
            incidence, incidence, sizes, sizes, theta, measure,
            self_join=True, block_size=block_size,
        )
        return adjacency_from_upper_pairs(len(transactions), rows, cols)
