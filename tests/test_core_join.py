"""The exact threshold-join kernel (:mod:`repro.core.join`).

Every fast path that thresholds ``sim(p, q) >= theta`` — the blocked and
inverted-index neighbour backends, the labeller and the online splice —
goes through this kernel, so its properties are pinned here directly
against the pairwise definition ``measure(a, b) >= theta``: rectangular
and self-joins, qualifying pairs and per-group counts, empty and duplicate
sets, left items missing from the right side's index (counted in the true
set sizes), thresholds at 0, 1 and exactly on pair similarities, and every
vectorizable measure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join import threshold_counts, threshold_pairs
from repro.core.neighbors.inverted import posting_list_counts
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
)

MEASURES = (
    JaccardSimilarity(),
    OverlapCoefficientSimilarity(),
    DiceSimilarity(),
    SetCosineSimilarity(),
)

#: Right-side sets draw from items 0..7; left sets also from 8..11, which
#: the right side's index never holds (the labeller's ignore_unknown case).
right_sets = st.frozensets(st.integers(min_value=0, max_value=7), max_size=5)
left_sets = st.frozensets(st.integers(min_value=0, max_value=11), max_size=6)


@st.composite
def with_duplicates(draw, sets, max_size=10):
    """A list of sets plus re-drawn copies of some of its own members."""
    base = draw(st.lists(sets, max_size=max_size))
    if base:
        base += draw(st.lists(st.sampled_from(base), max_size=3))
    return base


@st.composite
def join_cases(draw):
    """Left/right set lists, a measure and a theta (extreme or on a pair)."""
    left = draw(with_duplicates(left_sets))
    right = draw(with_duplicates(right_sets))
    measure = draw(st.sampled_from(MEASURES))
    boundaries = sorted({measure(a, b) for a in left for b in right})
    candidates = [st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)]
    if boundaries:
        candidates.append(st.sampled_from(boundaries))
    theta = draw(st.one_of(*candidates))
    return left, right, measure, theta


def encode(left, right):
    """Both incidences over the right side's index, plus true set sizes."""
    index = build_item_index(right)
    right_incidence, _ = transactions_to_incidence(right, index)
    left_incidence, _ = transactions_to_incidence(left, index, ignore_unknown=True)
    left_sizes = np.asarray([len(t) for t in left], dtype=np.int64)
    right_sizes = np.asarray([len(t) for t in right], dtype=np.int64)
    return left_incidence, right_incidence, left_sizes, right_sizes


def as_pair_set(rows, cols):
    pairs = list(zip(rows.tolist(), cols.tolist()))
    assert len(pairs) == len(set(pairs)), "the join returned a pair twice"
    return set(pairs)


class TestThresholdJoinProperties:
    @settings(deadline=None, max_examples=200)
    @given(case=join_cases(), block_size=st.sampled_from([None, 1, 2, 5]))
    def test_pairs_equal_pairwise_definition(self, case, block_size):
        left, right, measure, theta = case
        rows, cols = threshold_pairs(
            *encode(left, right), theta, measure, block_size=block_size
        )
        expected = {
            (i, j)
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if measure(a, b) >= theta
        }
        assert as_pair_set(rows, cols) == expected

    @settings(deadline=None, max_examples=200)
    @given(
        case=join_cases(),
        n_groups=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_group_counts_equal_pairwise_definition(self, case, n_groups, data):
        left, right, measure, theta = case
        groups = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, n_groups - 1),
                    min_size=len(right),
                    max_size=len(right),
                )
            ),
            dtype=np.int64,
        )
        counts = threshold_counts(
            *encode(left, right), theta, measure, groups=groups, n_groups=n_groups
        )
        expected = np.zeros((len(left), n_groups), dtype=np.int64)
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                if measure(a, b) >= theta:
                    expected[i, groups[j]] += 1
        assert np.array_equal(counts, expected)

    @settings(deadline=None, max_examples=200)
    @given(case=join_cases(), block_size=st.sampled_from([None, 1, 3]))
    def test_self_join_pairs_equal_upper_triangle(self, case, block_size):
        _, points, measure, theta = case
        incidence, _, sizes, _ = encode(points, points)
        expected = {
            (i, j)
            for i, a in enumerate(points)
            for j, b in enumerate(points)
            if i < j and measure(a, b) >= theta
        }
        from_product = threshold_pairs(
            incidence, incidence, sizes, sizes, theta, measure,
            self_join=True, block_size=block_size,
        )
        from_postings = threshold_pairs(
            incidence, incidence, sizes, sizes, theta, measure,
            self_join=True, counts=posting_list_counts(incidence),
        )
        assert as_pair_set(*from_product) == expected
        assert as_pair_set(*from_postings) == expected


class TestThresholdJoinRules:
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_empty_sets_pair_only_with_empty_sets(self, measure):
        left = [frozenset(), frozenset({2, 3})]
        right = [frozenset(), frozenset(), frozenset({1, 2})]
        rows, cols = threshold_pairs(*encode(left, right), 1.0, measure)
        assert as_pair_set(rows, cols) == {(0, 0), (0, 1)}

    def test_unknown_items_count_towards_the_true_size(self):
        # {1, 99}: item 99 is outside the right side's index, so the
        # intersection with {1} is 1 but the union is 2 — Jaccard 0.5.
        left = [frozenset({1, 99})]
        right = [frozenset({1})]
        encoded = encode(left, right)
        measure = JaccardSimilarity()
        assert as_pair_set(*threshold_pairs(*encoded, 0.5, measure)) == {(0, 0)}
        assert as_pair_set(*threshold_pairs(*encoded, 0.51, measure)) == set()

    def test_theta_zero_counts_are_group_sizes(self):
        left = [frozenset({5}), frozenset()]
        right = [frozenset({1}), frozenset({2}), frozenset({3})]
        counts = threshold_counts(
            *encode(left, right), 0.0, JaccardSimilarity(),
            groups=np.array([1, 0, 1]), n_groups=3,
        )
        assert counts.tolist() == [[1, 2, 0], [1, 2, 0]]
