"""Tests for repro.core.neighbors."""

import numpy as np
import pytest

from repro.core.neighbors import NEIGHBOR_STRATEGIES, available_backends, compute_neighbors
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.jaccard import DiceSimilarity
from repro.similarity.overlap import SimpleMatchingSimilarity


class TestComputeNeighbors:
    def test_two_group_structure(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        # Within each group every pair shares 2 of 4 items -> Jaccard 0.5.
        assert graph.adjacency[0, 1]
        assert graph.adjacency[1, 2]
        assert graph.adjacency[3, 4]
        # Across groups there are no shared items.
        assert not graph.adjacency[0, 3]
        assert graph.n_edges() == 6

    def test_theta_one_keeps_only_identical(self):
        graph = compute_neighbors([{1, 2}, {1, 2}, {1, 3}], theta=1.0)
        assert graph.adjacency[0, 1]
        assert not graph.adjacency[0, 2]

    def test_theta_zero_connects_everything(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.0)
        n = len(two_group_transactions)
        assert graph.n_edges() == n * (n - 1) // 2

    def test_diagonal_is_empty(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.2)
        assert graph.adjacency.diagonal().sum() == 0

    def test_bruteforce_and_blocked_agree(self, two_group_transactions, rng):
        transactions = [
            frozenset(rng.choice(20, size=rng.integers(1, 8), replace=False).tolist())
            for _ in range(40)
        ]
        for theta in (0.1, 0.3, 0.5, 0.8):
            brute = compute_neighbors(transactions, theta, strategy="bruteforce")
            fast = compute_neighbors(transactions, theta, strategy="blocked")
            assert (brute.adjacency != fast.adjacency).nnz == 0

    def test_empty_transactions_are_mutually_similar(self):
        graph = compute_neighbors([frozenset(), frozenset(), frozenset({1})], theta=0.9)
        assert graph.adjacency[0, 1]
        assert not graph.adjacency[0, 2]

    def test_neighbors_of_and_counts(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        assert graph.neighbors_of(0).tolist() == [1, 2]
        assert graph.neighbor_counts().tolist() == [2, 2, 2, 2, 2, 2]

    def test_degree_histogram(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        assert graph.degree_histogram() == {2: 6}

    def test_subgraph(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4)
        sub = graph.subgraph([0, 1, 3])
        assert sub.n_points == 3
        assert sub.adjacency[0, 1]
        assert not sub.adjacency[0, 2]

    def test_non_jaccard_vectorizable_measure_works(self, two_group_transactions):
        graph = compute_neighbors(two_group_transactions, theta=0.4, measure=DiceSimilarity())
        assert graph.measure_name == "dice"
        assert graph.n_edges() > 0

    def test_blocked_accepts_dice(self, two_group_transactions):
        # The historical Jaccard-only restriction is gone: any measure with
        # the vectorized-counts capability runs through the fast backends.
        fast = compute_neighbors(
            two_group_transactions, 0.4, measure=DiceSimilarity(), strategy="blocked"
        )
        brute = compute_neighbors(
            two_group_transactions, 0.4, measure=DiceSimilarity(), strategy="bruteforce"
        )
        assert (fast.adjacency != brute.adjacency).nnz == 0

    def test_fast_backends_with_non_vectorizable_measure_rejected(self, two_group_transactions):
        measure = SimpleMatchingSimilarity(n_attributes=8)
        for strategy in ("blocked", "inverted-index"):
            with pytest.raises(ConfigurationError):
                compute_neighbors(
                    two_group_transactions, 0.4, measure=measure, strategy=strategy
                )

    def test_auto_falls_back_to_bruteforce_for_non_vectorizable(self, two_group_transactions):
        measure = SimpleMatchingSimilarity(n_attributes=8)
        graph = compute_neighbors(two_group_transactions, 0.1, measure=measure)
        assert graph.measure_name == "simple-matching"
        assert graph.n_edges() > 0

    def test_invalid_theta_rejected(self, two_group_transactions):
        with pytest.raises(ConfigurationError):
            compute_neighbors(two_group_transactions, theta=1.5)
        with pytest.raises(ConfigurationError):
            compute_neighbors(two_group_transactions, theta=-0.1)

    def test_unknown_strategy_rejected(self, two_group_transactions):
        with pytest.raises(ConfigurationError):
            compute_neighbors(two_group_transactions, 0.5, strategy="bogus")

    def test_empty_input_rejected(self):
        with pytest.raises(DataValidationError):
            compute_neighbors([], theta=0.5)

    def test_single_point(self):
        graph = compute_neighbors([{1, 2}], theta=0.5)
        assert graph.n_points == 1
        assert graph.n_edges() == 0

    def test_strategies_constant_is_consistent(self):
        assert set(NEIGHBOR_STRATEGIES) == {
            "auto", "bruteforce", "blocked", "inverted-index"
        }
        # The constant is derived from the registry, not a parallel list.
        assert NEIGHBOR_STRATEGIES == ("auto", *available_backends())

    def test_jaccard_threshold_boundary_included(self):
        # Jaccard({1,2,3},{2,3,4}) == 0.5 exactly; theta=0.5 must include it.
        graph = compute_neighbors([{1, 2, 3}, {2, 3, 4}], theta=0.5)
        assert graph.adjacency[0, 1]


class TestCompleteAdjacency:
    """The theta == 0 all-pairs graph (the threshold join's theta = 0 rule)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_matches_bruteforce(self, n, rng):
        transactions = [
            frozenset(rng.choice(12, size=int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(n)
        ]
        blocked = compute_neighbors(transactions, theta=0.0, strategy="blocked")
        bruteforce = compute_neighbors(transactions, theta=0.0, strategy="bruteforce")
        assert (blocked.adjacency != bruteforce.adjacency).nnz == 0

    def test_complete_graph_shape(self):
        graph = compute_neighbors([{1}, {2}, {3}, {4}], theta=0.0)
        assert graph.n_edges() == 6
        assert np.all(graph.neighbor_counts() == 3)
        assert np.all(graph.adjacency.diagonal() == 0)

    def test_includes_empty_transactions(self):
        graph = compute_neighbors([frozenset(), {1}, frozenset()], theta=0.0)
        assert graph.n_edges() == 3


class TestBlockedEmptyPairs:
    def test_many_empty_transactions(self):
        transactions = [frozenset()] * 4 + [frozenset({1, 2})]
        graph = compute_neighbors(transactions, theta=0.5)
        # The four empty sets are pairwise identical (Jaccard 1).
        assert graph.n_edges() == 6
        assert graph.neighbor_counts().tolist() == [3, 3, 3, 3, 0]

    def test_matches_bruteforce_with_empties(self, rng):
        transactions = [
            frozenset(rng.choice(8, size=int(rng.integers(1, 4)), replace=False).tolist())
            for _ in range(20)
        ] + [frozenset(), frozenset(), frozenset()]
        for theta in (0.2, 0.6, 1.0):
            blocked = compute_neighbors(transactions, theta=theta, strategy="blocked")
            bruteforce = compute_neighbors(transactions, theta=theta, strategy="bruteforce")
            assert (blocked.adjacency != bruteforce.adjacency).nnz == 0


class TestDegreeHistogram:
    def test_matches_manual_count(self, rng):
        transactions = [
            frozenset(rng.choice(10, size=int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(30)
        ]
        graph = compute_neighbors(transactions, theta=0.4)
        histogram = graph.degree_histogram()
        counts = graph.neighbor_counts().tolist()
        expected = {}
        for degree in counts:
            expected[degree] = expected.get(degree, 0) + 1
        assert histogram == expected
        assert sum(histogram.values()) == graph.n_points

    def test_shared_item_index_accepted(self, two_group_transactions):
        from repro.data.encoding import build_item_index

        index = build_item_index(two_group_transactions)
        with_index = compute_neighbors(two_group_transactions, theta=0.4, item_index=index)
        without_index = compute_neighbors(two_group_transactions, theta=0.4)
        assert (with_index.adjacency != without_index.adjacency).nnz == 0
