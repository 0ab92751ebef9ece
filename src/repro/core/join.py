"""Exact threshold join: the one implementation of ``sim(p, q) >= theta``.

ROCK thresholds one relation in three places: the neighbour graph
(Section 3.1), the labelling of disk-resident points (Section 4.4) and
the online splice of :mod:`repro.core.incremental`.  All of them join a
*left* point set against a *right* one through their item incidences:
intersection counts come from a sparse product (or from posting lists),
the measure's vectorized-counts capability turns each
``(|A ∩ B|, |A|, |B|)`` triple into a similarity, and the pairs at or
above ``theta`` qualify.  This module is the only place that holds the
three rules of that join:

* **the threshold** — a pair qualifies exactly when
  ``measure.similarity_from_counts(|A ∩ B|, |A|, |B|) >= theta``, with the
  *true* set sizes (a labelled point may hold items the right side's index
  never saw: they count towards its size but cannot intersect);
* **the empty-pair rule** — two empty sets never meet in a product, so the
  pairs of empty sets are added exactly when the measure's
  ``similarity_from_counts(0, 0, 0)`` clears ``theta``;
* **the theta = 0 rule** — similarities are non-negative, so every pair
  qualifies and no product is computed.

Disjoint non-empty sets have similarity 0 under every vectorizable measure
(the :class:`~repro.similarity.base.VectorizedSetSimilarity` contract), so
pairs missing from the product cannot qualify at ``theta > 0``.

Two results are offered: :func:`threshold_pairs` returns the qualifying
``(row, col)`` pairs, and :func:`threshold_counts` folds them straight
into per-group counts of every left point without keeping the pairs.  The
product runs in row blocks, and each block is thresholded before any
array of its length is copied, so peak memory follows the block, not the
whole ``left x right`` product.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.similarity.base import VectorizedSetSimilarity

#: Product cells (block rows x right points) one row block spans when the
#: caller does not choose a block height.
BLOCK_CELLS = 1 << 22

#: One block of intersection counts: ``(row_offset, col_offset, rows, cols,
#: intersections)``, where ``rows``/``cols`` are relative to the offsets and
#: every listed pair shares at least one item.
CountBlock = tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def product_counts(
    left: sparse.csr_matrix,
    right: sparse.csr_matrix,
    self_join: bool = False,
    block_size: int | None = None,
) -> Iterator[CountBlock]:
    """Intersection counts of every pair sharing an item, one row block at a time.

    ``left @ right.T`` in blocks of ``block_size`` left rows (default: as
    many as fit :data:`BLOCK_CELLS` product cells).  With ``self_join``
    (``left`` and ``right`` are the same incidence) each block is only
    multiplied against the columns from its first row onward and only the
    strict upper triangle is kept, so every unordered pair is counted once.
    A CSC ``right`` is used as is (its transpose is already row-major), so a
    caller joining many left batches against one right side can store it
    in CSC once instead of having it re-laid out on every call.
    """
    n_left = left.shape[0]
    if block_size is None:
        block_size = max(1, BLOCK_CELLS // max(1, right.shape[0]))
    # A self-join slices the trailing columns of the transposed incidence
    # per block, which is cheap on CSC; a full-width product wants CSR.
    transposed = right.T.tocsc() if self_join else right.T.tocsr()
    for start in range(0, n_left, block_size):
        # A single block skips the slice: one labelling request is one row.
        block = left if block_size >= n_left else left[start:start + block_size]
        if self_join:
            product = (block @ transposed[:, start:]).tocoo()
            upper = product.col > product.row
            yield start, start, product.row[upper], product.col[upper], product.data[upper]
        else:
            product = (block @ transposed).tocoo()
            yield start, 0, product.row, product.col, product.data


def _qualifying(
    blocks: Iterable[CountBlock],
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
    theta: float,
    measure: VectorizedSetSimilarity,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Each count block cut down to its pairs that clear ``theta``.

    The threshold is applied to the block's own arrays: nothing of the
    block's length is copied before the cut except the size gathers the
    similarity needs.  Yields ``(row_offset, col_offset, rows, cols)``.
    """
    for row_offset, col_offset, rows, cols, intersections in blocks:
        similarity = measure.similarity_from_counts(
            intersections,
            left_sizes[row_offset:][rows],
            right_sizes[col_offset:][cols],
        )
        keep = similarity >= theta
        yield row_offset, col_offset, rows[keep], cols[keep]


def _empty_pairs_qualify(theta: float, measure: VectorizedSetSimilarity) -> bool:
    """Whether two empty sets are neighbours under ``measure`` at ``theta``."""
    zero = np.zeros(1, dtype=np.int64)
    similarity = np.asarray(measure.similarity_from_counts(zero, zero, zero))
    return bool(similarity.ravel()[0] >= theta)


def threshold_pairs(
    left: sparse.csr_matrix,
    right: sparse.csr_matrix,
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
    theta: float,
    measure: VectorizedSetSimilarity,
    self_join: bool = False,
    block_size: int | None = None,
    counts: Iterable[CountBlock] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All ``(row, col)`` pairs with ``sim(left[row], right[col]) >= theta``.

    Parameters
    ----------
    left, right:
        Binary item incidences over one shared item index (``left`` in CSR;
        ``right`` in CSR or CSC, see :func:`product_counts`).
    left_sizes, right_sizes:
        True set sizes of the rows (items outside the index included).
    theta, measure:
        The threshold and a measure with the vectorized-counts capability.
    self_join:
        ``left`` and ``right`` are the same points: only pairs with
        ``row < col`` are returned.
    block_size:
        Left rows per product block (see :func:`product_counts`).
    counts:
        Count blocks to verify in place of the incidence product, covering
        every pair that shares an item (e.g. from posting lists).  Only
        consumed when ``theta > 0``.

    Returns
    -------
    rows, cols:
        ``int64`` index arrays of the qualifying pairs.
    """
    n_left, n_right = len(left_sizes), len(right_sizes)
    if theta == 0.0:
        if self_join:
            rows, cols = np.triu_indices(n_left, k=1)
            return rows.astype(np.int64), cols.astype(np.int64)
        rows = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
        return rows, np.tile(np.arange(n_right, dtype=np.int64), n_left)
    if counts is None:
        counts = product_counts(left, right, self_join=self_join, block_size=block_size)
    row_parts: list[np.ndarray] = []
    col_parts: list[np.ndarray] = []
    for row_offset, col_offset, rows, cols in _qualifying(
        counts, left_sizes, right_sizes, theta, measure
    ):
        row_parts.append(rows.astype(np.int64) + row_offset)
        col_parts.append(cols.astype(np.int64) + col_offset)
    empty_left = np.flatnonzero(left_sizes == 0)
    empty_right = np.flatnonzero(right_sizes == 0)
    if empty_left.size and empty_right.size and _empty_pairs_qualify(theta, measure):
        rows = np.repeat(empty_left, empty_right.size)
        cols = np.tile(empty_right, empty_left.size)
        if self_join:
            upper = rows < cols
            rows, cols = rows[upper], cols[upper]
        row_parts.append(rows)
        col_parts.append(cols)
    if not row_parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(row_parts), np.concatenate(col_parts)


def threshold_counts(
    left: sparse.csr_matrix,
    right: sparse.csr_matrix,
    left_sizes: np.ndarray,
    right_sizes: np.ndarray,
    theta: float,
    measure: VectorizedSetSimilarity,
    groups: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Per-group neighbour counts: ``counts[row, g]`` qualifying right points.

    ``groups[col]`` is the group (e.g. the sampled cluster) of right point
    ``col``.  The same join as :func:`threshold_pairs`, folded into an
    ``(n_left, n_groups)`` ``int64`` matrix block by block, so the
    qualifying pairs are never held all at once — and at ``theta == 0`` no
    pair is materialised at all.
    """
    n_left = len(left_sizes)
    groups = np.asarray(groups, dtype=np.int64)
    if theta == 0.0:
        return np.tile(np.bincount(groups, minlength=n_groups), (n_left, 1))
    flat = np.zeros(n_left * n_groups, dtype=np.int64)
    blocks = product_counts(left, right)
    for row_offset, _, rows, cols in _qualifying(
        blocks, left_sizes, right_sizes, theta, measure
    ):
        # Block-local cell codes: the fold touches only the block's rows.
        block_counts = np.bincount(rows.astype(np.int64) * n_groups + groups[cols])
        start = row_offset * n_groups
        flat[start:start + block_counts.size] += block_counts
    counts = flat.reshape(n_left, n_groups)
    empty_left = left_sizes == 0
    empty_right = np.flatnonzero(right_sizes == 0)
    if empty_left.any() and empty_right.size and _empty_pairs_qualify(theta, measure):
        counts[empty_left] += np.bincount(groups[empty_right], minlength=n_groups)
    return counts


__all__ = [
    "BLOCK_CELLS",
    "CountBlock",
    "product_counts",
    "threshold_counts",
    "threshold_pairs",
]
