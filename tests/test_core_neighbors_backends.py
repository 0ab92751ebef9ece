"""Cross-backend equivalence suite for the neighbour-backend registry.

Every registered backend must produce a bit-identical adjacency matrix on
the same inputs — over a theta grid including the 0 and 1 extremes, with
empty and duplicate transactions, and for every measure implementing the
vectorized-counts capability (Jaccard, overlap coefficient, Dice).  The
registry's error paths (unknown backends, duplicate registration,
capability mismatches, bad block sizes) are covered alongside.
"""

import numpy as np
import pytest

from repro.core.neighbors import (
    AUTO_INVERTED_MAX_DENSITY,
    AUTO_INVERTED_MIN_POINTS,
    DEFAULT_BLOCK_SIZE,
    NEIGHBOR_STRATEGIES,
    available_backends,
    candidate_pair_density,
    compute_neighbors,
    get_backend,
    register_backend,
    select_backend_name,
)
from repro.errors import ConfigurationError
from repro.similarity.jaccard import (
    DiceSimilarity,
    JaccardSimilarity,
    OverlapCoefficientSimilarity,
    SetCosineSimilarity,
)
from repro.similarity.overlap import SimpleMatchingSimilarity

BACKENDS = ("bruteforce", "blocked", "inverted-index")

#: Thresholds exercised by the grid: both extremes plus interior values
#: that sit exactly on representable similarity boundaries (0.5 is a
#: common exact Jaccard/Dice value, so >= comparisons are stressed).
THETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Every measure with the vectorized-counts capability — set cosine
#: included: its sqrt-based minimum-overlap bound is the most
#: rounding-prone, so it must face the inverted-index pruning too.
MEASURES = (
    JaccardSimilarity(),
    OverlapCoefficientSimilarity(),
    DiceSimilarity(),
    SetCosineSimilarity(),
)


def random_transactions(rng, n, pool=24, max_size=8):
    return [
        frozenset(rng.choice(pool, size=int(rng.integers(1, max_size)), replace=False).tolist())
        for _ in range(n)
    ]


def assert_all_backends_agree(transactions, theta, measure, block_size=None):
    reference = compute_neighbors(
        transactions, theta, measure=measure, strategy="bruteforce"
    ).adjacency
    for strategy in BACKENDS[1:]:
        fast = compute_neighbors(
            transactions, theta, measure=measure, strategy=strategy,
            block_size=block_size,
        ).adjacency
        assert (reference != fast).nnz == 0, (
            "backend %r disagrees with bruteforce at theta=%s under %s"
            % (strategy, theta, measure.name)
        )
        # Same canonical CSR shape, not just the same pattern.
        assert fast.shape == reference.shape
        assert fast.dtype == np.bool_


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_random_workload(self, theta, measure, rng):
        transactions = random_transactions(rng, 40)
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_with_empty_transactions(self, theta, measure, rng):
        # Empty sets never appear in an incidence product, yet all three
        # measures define two empty sets as identical (similarity 1).
        transactions = random_transactions(rng, 20) + [frozenset()] * 3
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.name)
    def test_with_duplicate_transactions(self, theta, measure, rng):
        base = random_transactions(rng, 15)
        transactions = base + base[:5] + [frozenset({1, 2, 3})] * 4
        assert_all_backends_agree(transactions, theta, measure)

    @pytest.mark.parametrize("block_size", [1, 3, 7, 64, 1000])
    def test_blocked_block_size_never_changes_result(self, block_size, rng):
        transactions = random_transactions(rng, 35)
        reference = compute_neighbors(
            transactions, 0.4, strategy="blocked", block_size=len(transactions)
        ).adjacency
        blocked = compute_neighbors(
            transactions, 0.4, strategy="blocked", block_size=block_size
        ).adjacency
        assert (reference != blocked).nnz == 0

    def test_two_point_and_single_point_inputs(self):
        for transactions in ([{1, 2, 3}, {2, 3, 4}], [{1, 2}]):
            assert_all_backends_agree(transactions, 0.5, JaccardSimilarity())

    def test_theta_one_exact_duplicates_only(self, rng):
        transactions = [frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2, 3})]
        for strategy in BACKENDS:
            graph = compute_neighbors(transactions, 1.0, strategy=strategy)
            assert graph.adjacency[0, 1]
            assert not graph.adjacency[0, 2]

    def test_shared_item_index_accepted_by_all_fast_backends(self, rng):
        from repro.data.encoding import build_item_index

        transactions = random_transactions(rng, 25)
        index = build_item_index(transactions)
        for strategy in BACKENDS[1:]:
            with_index = compute_neighbors(
                transactions, 0.4, strategy=strategy, item_index=index
            ).adjacency
            without = compute_neighbors(transactions, 0.4, strategy=strategy).adjacency
            assert (with_index != without).nnz == 0


class TestAutoSelection:
    def test_non_vectorizable_measure_goes_bruteforce(self):
        measure = SimpleMatchingSimilarity(n_attributes=4)
        assert select_backend_name(measure, 10) == "bruteforce"
        assert select_backend_name(measure, 10**6) == "bruteforce"

    def test_small_inputs_use_blocked(self):
        assert select_backend_name(JaccardSimilarity(), 100) == "blocked"
        assert select_backend_name(JaccardSimilarity(), AUTO_INVERTED_MIN_POINTS - 1) == "blocked"

    def test_large_inputs_use_blocked(self):
        assert select_backend_name(JaccardSimilarity(), AUTO_INVERTED_MIN_POINTS) == "blocked"
        assert select_backend_name(DiceSimilarity(), AUTO_INVERTED_MIN_POINTS + 1) == "blocked"


class TestAutoInvertedHeuristic:
    """Decision boundary of the posting-list-density inverted-index pick."""

    @staticmethod
    def rare_item_transactions(n):
        # Every item occurs exactly twice: candidate mass n/2 pairs out of
        # n(n-1)/2, density ~ 1/(n-1) — deep inside the sparse regime.
        return [frozenset({i // 2, 10**6 + i}) for i in range(n)]

    @staticmethod
    def dense_transactions(n):
        # Every point shares item 0 with every other: density >= 1.
        return [frozenset({0, i}) for i in range(n)]

    def test_density_of_disjoint_transactions_is_zero(self):
        assert candidate_pair_density([frozenset({1}), frozenset({2})]) == 0.0
        assert candidate_pair_density([frozenset({1})]) == 0.0

    def test_density_of_fully_shared_item_is_one(self):
        assert candidate_pair_density(self.dense_transactions(100)) >= 1.0

    def test_density_counts_pairs_once_per_shared_item(self):
        # Two points sharing two items: mass 2 over 1 pair -> density 2.
        transactions = [frozenset({1, 2}), frozenset({1, 2})]
        assert candidate_pair_density(transactions) == pytest.approx(2.0)

    def test_sparse_rare_item_workload_picks_inverted_index(self):
        n = AUTO_INVERTED_MIN_POINTS
        transactions = self.rare_item_transactions(n)
        assert candidate_pair_density(transactions) <= AUTO_INVERTED_MAX_DENSITY
        assert (
            select_backend_name(JaccardSimilarity(), n, transactions)
            == "inverted-index"
        )

    def test_dense_workload_keeps_blocked(self):
        n = AUTO_INVERTED_MIN_POINTS
        transactions = self.dense_transactions(n)
        assert (
            select_backend_name(JaccardSimilarity(), n, transactions) == "blocked"
        )

    def test_below_scale_threshold_stays_blocked_even_when_sparse(self):
        n = AUTO_INVERTED_MIN_POINTS - 1
        transactions = self.rare_item_transactions(n)
        assert (
            select_backend_name(JaccardSimilarity(), n, transactions)
            == "blocked"
        )

    def test_without_transactions_the_size_only_choice_is_unchanged(self):
        assert (
            select_backend_name(JaccardSimilarity(), AUTO_INVERTED_MIN_POINTS)
            == "blocked"
        )

    def test_non_vectorizable_measure_still_goes_bruteforce(self):
        measure = SimpleMatchingSimilarity(n_attributes=4)
        transactions = self.rare_item_transactions(AUTO_INVERTED_MIN_POINTS)
        assert (
            select_backend_name(measure, len(transactions), transactions)
            == "bruteforce"
        )

    def test_boundary_density_is_inclusive(self):
        # A synthetic workload sitting exactly on the density bound picks
        # the inverted index (<=, not <): n points, one shared item per
        # pair tuned so mass / pairs == AUTO_INVERTED_MAX_DENSITY.
        n = AUTO_INVERTED_MIN_POINTS
        pairs_budget = int(AUTO_INVERTED_MAX_DENSITY * n * (n - 1) / 2)
        # items shared by exactly two points, one per budgeted pair
        transactions = [frozenset({10**6 + i}) for i in range(n)]
        transactions = [set(t) for t in transactions]
        pair = 0
        for item in range(pairs_budget):
            left = (2 * item) % n
            right = (2 * item + 1) % n
            transactions[left].add(item)
            transactions[right].add(item)
            pair += 1
        transactions = [frozenset(t) for t in transactions]
        density = candidate_pair_density(transactions)
        assert density == pytest.approx(AUTO_INVERTED_MAX_DENSITY, rel=1e-3)
        assert (
            select_backend_name(JaccardSimilarity(), n, transactions)
            == "inverted-index"
        )

    @pytest.mark.parametrize("fold_limit", [1, 3, 7, 50])
    def test_inverted_sweep_identical_under_tiny_fold_limits(
        self, rng, monkeypatch, fold_limit
    ):
        # Forces every chunk path of the item-driven sweep — multi-list
        # chunks, single-list chunks and template segmentation — and the
        # mid-stream folds; the adjacency must stay bit-identical to the
        # unchunked run (mirrors the links.py fold-limit test).
        from repro.core.neighbors import inverted as inverted_module

        transactions = random_transactions(rng, 40)
        reference = compute_neighbors(
            transactions, 0.4, strategy="inverted-index"
        ).adjacency
        monkeypatch.setattr(inverted_module, "PAIR_FOLD_LIMIT", fold_limit)
        chunked = compute_neighbors(
            transactions, 0.4, strategy="inverted-index"
        ).adjacency
        assert (reference != chunked).nnz == 0

    def test_auto_compute_neighbors_uses_the_heuristic_end_to_end(self, rng):
        # A small-scale sanity check that the auto path accepts the
        # transactions argument: below the scale threshold nothing changes.
        transactions = random_transactions(rng, 30)
        auto = compute_neighbors(transactions, 0.4, strategy="auto").adjacency
        explicit = compute_neighbors(
            transactions, 0.4, strategy="blocked"
        ).adjacency
        assert (auto != explicit).nnz == 0


class TestRegistryErrorPaths:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            compute_neighbors([{1, 2}], 0.5, strategy="bogus")
        # The error enumerates what *is* available.
        assert "auto" in str(excinfo.value)
        assert "blocked" in str(excinfo.value)

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_backend("definitely-not-registered")

    def test_underscore_alias_resolves(self):
        # The issue-style spelling inverted_index is accepted as well.
        assert get_backend("inverted_index").name == "inverted-index"
        graph = compute_neighbors([{1, 2}, {1, 2, 3}], 0.5, strategy="inverted_index")
        assert graph.adjacency[0, 1]

    def test_duplicate_registration_rejected(self):
        class Dummy:
            name = "bruteforce"

            def supports(self, measure):
                return True

            def build_adjacency(self, *args, **kwargs):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            register_backend(Dummy())

    def test_nameless_backend_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(ConfigurationError):
            register_backend(Nameless())

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_neighbors([{1, 2}, {2, 3}], 0.5, strategy="blocked", block_size=0)
        with pytest.raises(ConfigurationError):
            compute_neighbors([{1, 2}, {2, 3}], 0.5, block_size=-4)

    def test_strategies_constant_mirrors_registry(self):
        assert NEIGHBOR_STRATEGIES == ("auto", *available_backends())
        assert DEFAULT_BLOCK_SIZE > 0

    def test_late_registered_backend_reaches_the_cli(self):
        # The plugin path: a backend registered after import must be
        # accepted by compute_neighbors and by the CLI parser, which
        # enumerates the registry at build time.
        from repro.cli import build_parser
        from repro.core.neighbors import base as backend_registry
        from repro.core.neighbors import neighbor_strategies

        class ConstantBackend:
            name = "test-constant"

            def supports(self, measure):
                return True

            def build_adjacency(self, transactions, theta, measure,
                                item_index=None, block_size=None):
                from scipy import sparse

                n = len(transactions)
                return sparse.csr_matrix(~np.eye(n, dtype=bool))

        register_backend(ConstantBackend())
        try:
            assert "test-constant" in neighbor_strategies()
            graph = compute_neighbors([{1}, {2}], 0.9, strategy="test-constant")
            assert graph.n_edges() == 1
            arguments = build_parser().parse_args(
                ["cluster", "x.txt", "--clusters", "2",
                 "--neighbor-strategy", "test-constant"]
            )
            assert arguments.neighbor_strategy == "test-constant"
        finally:
            del backend_registry._REGISTRY["test-constant"]
