"""Inverted-index neighbour backend: posting-list candidate generation.

Instead of multiplying incidence matrices, this backend walks a classic
inverted index: for every item, the *posting list* of the points carrying
it (one CSC column of the incidence matrix).  A pair of points is a
candidate exactly when the points share at least one item, and counting
how often each encoded pair occurs across all posting lists yields the
pair's intersection size for free.  The candidates with their counts
then go through the exact threshold join (:mod:`repro.core.join`) in
place of its incidence product, so the threshold, the empty-pair rule and
the ``theta == 0`` rule are the same code as every other backend's —
which is what keeps the adjacency bit-identical to theirs.

Work scales with the squared posting-list lengths (items shared by many
points dominate), not with ``n^2``: on sparse, rare-item workloads this
skips most pairs entirely — which is exactly when ``auto`` picks it (see
:func:`repro.core.neighbors.base.select_backend_name` and
:data:`repro.core.neighbors.base.AUTO_INVERTED_MAX_DENSITY`); on the
dense tight-cluster benchmark shape the matmul backends win.  The sweep
is item-driven and fully vectorised: posting lists are grouped by length
so each group's unordered pairs come out of one fancy-indexing pass (no
per-point Python loop), and pair occurrences are folded into the running
unique-pair counts every :data:`repro.core.pairfold.PAIR_FOLD_LIMIT`
entries — the same bounded-buffer pattern the link computation uses — so
peak memory tracks the number of *unique* candidate pairs plus one
buffer, not the total pair mass.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from scipy import sparse

from repro.core.join import CountBlock, threshold_pairs
from repro.core.neighbors.base import VECTORIZED_CAPABILITY_HINT
from repro.core.neighbors.graph import adjacency_from_upper_pairs
from repro.core.pairfold import PAIR_FOLD_LIMIT, fold_pair_counts
from repro.data.encoding import transactions_to_incidence
from repro.similarity.base import (
    SetSimilarity,
    VectorizedSetSimilarity,
    supports_vectorized_counts,
)


def posting_list_counts(incidence: sparse.csr_matrix) -> Iterator[CountBlock]:
    """Intersection counts of every pair sharing an item, from posting lists.

    One count block over the strict upper triangle of the self-join (the
    :data:`~repro.core.join.CountBlock` layout with zero offsets); pairs
    that share no item are absent.
    """
    n = incidence.shape[0]
    postings = incidence.tocsc()
    postings.sort_indices()
    indptr = postings.indptr.astype(np.int64)
    point_ids = postings.indices.astype(np.int64)
    posting_lengths = np.diff(indptr)

    # Item-driven candidate sweep, grouped by posting-list length: all
    # items shared by exactly ``length`` points contribute their
    # C(length, 2) unordered pairs in one vectorised pass (posting
    # lists are index-sorted, so the upper-triangle template already
    # emits each pair from its smaller index).  Pair occurrences are
    # folded into the running unique-pair counts before the buffer
    # outgrows PAIR_FOLD_LIMIT, and the fold result doubles as the
    # per-pair intersection count (a pair occurs once per shared item).
    running: tuple[np.ndarray, np.ndarray] | None = None
    pair_chunks: list[np.ndarray] = []
    buffered = 0
    for length in np.unique(posting_lengths[posting_lengths >= 2]).tolist():
        starts = indptr[:-1][posting_lengths == length]
        template_left, template_right = np.triu_indices(length, k=1)
        pairs_per_list = template_left.size
        # Two-level chunking keeps every fancy-indexing allocation at
        # or under the fold limit: lists are taken in groups whose
        # combined pair count fits, and a single list whose C(len, 2)
        # already exceeds it walks its pair template in segments.
        lists_per_chunk = max(1, PAIR_FOLD_LIMIT // pairs_per_list)
        segment = (
            pairs_per_list
            if pairs_per_list <= PAIR_FOLD_LIMIT
            else PAIR_FOLD_LIMIT
        )
        for chunk_start in range(0, starts.size, lists_per_chunk):
            chunk_starts = starts[chunk_start:chunk_start + lists_per_chunk]
            lists = point_ids[chunk_starts[:, None] + np.arange(length)]
            for segment_start in range(0, pairs_per_list, segment):
                left = template_left[segment_start:segment_start + segment]
                right = template_right[segment_start:segment_start + segment]
                codes = lists[:, left].ravel() * n + lists[:, right].ravel()
                pair_chunks.append(codes)
                buffered += codes.size
                if buffered >= PAIR_FOLD_LIMIT:
                    running = fold_pair_counts(running, pair_chunks)
                    pair_chunks = []
                    buffered = 0
    if pair_chunks:
        running = fold_pair_counts(running, pair_chunks)
    if running is not None:
        codes, intersections = running
        yield 0, 0, codes // n, codes % n, intersections


class InvertedIndexBackend:
    """Posting-list candidate generation + the exact threshold join."""

    name = "inverted-index"
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
        incidence, _ = transactions_to_incidence(transactions, item_index)
        sizes = np.diff(incidence.indptr)
        rows, cols = threshold_pairs(
            incidence, incidence, sizes, sizes, theta, measure,
            self_join=True, counts=posting_list_counts(incidence),
        )
        return adjacency_from_upper_pairs(len(transactions), rows, cols)
