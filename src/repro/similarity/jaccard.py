"""Set-based similarity measures (Jaccard, Dice, overlap coefficient, cosine).

The Jaccard coefficient

    ``sim(T1, T2) = |T1 ∩ T2| / |T1 ∪ T2|``

is the measure used throughout the ROCK paper for market-basket data and,
via the ``(attribute, value)``-item encoding, for tabular categorical data.
The other measures are provided for ablations and for baselines that the
related literature uses.
"""

from __future__ import annotations

import math

import numpy as np

from repro.similarity.base import validate_similarity_value


def jaccard(left: frozenset, right: frozenset) -> float:
    """Jaccard coefficient of two sets.

    Two empty sets are defined to have similarity 1 (they are identical);
    one empty and one non-empty set have similarity 0.

    Examples
    --------
    >>> jaccard(frozenset({1, 2, 3}), frozenset({2, 3, 4}))
    0.5
    """
    if not left and not right:
        return 1.0
    intersection = len(left & right)
    if intersection == 0:
        return 0.0
    union = len(left) + len(right) - intersection
    return intersection / union


class JaccardSimilarity:
    """Jaccard coefficient, the similarity measure of the ROCK paper.

    Implements the :class:`~repro.similarity.base.VectorizedSetSimilarity`
    capability, so every fast neighbour backend (blocked /
    inverted-index) accepts it.
    """

    name = "jaccard"

    def __call__(self, left: frozenset, right: frozenset) -> float:
        return validate_similarity_value(jaccard(left, right), self.name)

    def similarity_from_counts(self, intersection, size_left, size_right) -> np.ndarray:
        intersection = np.asarray(intersection)
        union = np.asarray(size_left) + np.asarray(size_right) - intersection
        # union == 0 means both sets are empty: defined as identical (1.0).
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(union > 0, intersection / np.maximum(union, 1), 1.0)

    def minimum_intersection(self, theta, size_left, size_right) -> np.ndarray:
        # i / (a + b - i) >= theta  <=>  i >= theta * (a + b) / (1 + theta)
        total = np.asarray(size_left) + np.asarray(size_right)
        return theta * total / (1.0 + theta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "JaccardSimilarity()"


class DiceSimilarity:
    """Dice (Sorensen) coefficient: ``2|A ∩ B| / (|A| + |B|)``."""

    name = "dice"

    def __call__(self, left: frozenset, right: frozenset) -> float:
        if not left and not right:
            return 1.0
        intersection = len(left & right)
        if intersection == 0:
            return 0.0
        value = 2.0 * intersection / (len(left) + len(right))
        return validate_similarity_value(value, self.name)

    def similarity_from_counts(self, intersection, size_left, size_right) -> np.ndarray:
        total = np.asarray(size_left) + np.asarray(size_right)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                total > 0, 2.0 * np.asarray(intersection) / np.maximum(total, 1), 1.0
            )

    def minimum_intersection(self, theta, size_left, size_right) -> np.ndarray:
        # 2i / (a + b) >= theta  <=>  i >= theta * (a + b) / 2
        total = np.asarray(size_left) + np.asarray(size_right)
        return theta * total / 2.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DiceSimilarity()"


class OverlapCoefficientSimilarity:
    """Overlap coefficient: ``|A ∩ B| / min(|A|, |B|)``."""

    name = "overlap-coefficient"

    def __call__(self, left: frozenset, right: frozenset) -> float:
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        value = len(left & right) / min(len(left), len(right))
        return validate_similarity_value(value, self.name)

    def similarity_from_counts(self, intersection, size_left, size_right) -> np.ndarray:
        size_left = np.asarray(size_left)
        size_right = np.asarray(size_right)
        smaller = np.minimum(size_left, size_right)
        # smaller == 0: one empty set -> 0, unless both are empty -> 1.
        empty_value = np.where(np.maximum(size_left, size_right) > 0, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                smaller > 0,
                np.asarray(intersection) / np.maximum(smaller, 1),
                empty_value,
            )

    def minimum_intersection(self, theta, size_left, size_right) -> np.ndarray:
        # i / min(a, b) >= theta  <=>  i >= theta * min(a, b)
        return theta * np.minimum(np.asarray(size_left), np.asarray(size_right))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "OverlapCoefficientSimilarity()"


class SetCosineSimilarity:
    """Cosine similarity of the sets' indicator vectors: ``|A ∩ B| / sqrt(|A| |B|)``."""

    name = "set-cosine"

    def __call__(self, left: frozenset, right: frozenset) -> float:
        if not left and not right:
            return 1.0
        if not left or not right:
            return 0.0
        value = len(left & right) / math.sqrt(len(left) * len(right))
        return validate_similarity_value(value, self.name)

    def similarity_from_counts(self, intersection, size_left, size_right) -> np.ndarray:
        size_left = np.asarray(size_left)
        size_right = np.asarray(size_right)
        product = size_left * size_right
        empty_value = np.where(size_left + size_right > 0, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                product > 0,
                np.asarray(intersection) / np.sqrt(np.maximum(product, 1)),
                empty_value,
            )

    def minimum_intersection(self, theta, size_left, size_right) -> np.ndarray:
        # i / sqrt(a * b) >= theta  <=>  i >= theta * sqrt(a * b)
        return theta * np.sqrt(np.asarray(size_left) * np.asarray(size_right))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SetCosineSimilarity()"
