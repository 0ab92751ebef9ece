"""Incremental/online ROCK: ingest new points into a live clustering.

The in-memory (:meth:`~repro.core.pipeline.RockPipeline.run`), streaming
(:meth:`~repro.core.pipeline.RockPipeline.run_streaming`) and sharded
(:meth:`~repro.core.pipeline.RockPipeline.run_sharded`) entry points all
cluster a *fixed* data set.  This module adds the last execution mode: an
engine that maintains a **live clustering** and accepts new points in
batches without a full re-run.

:class:`IncrementalRock` is bootstrapped from a clustered sample (the
outcome of the ordinary sample/cluster phases) and then serves
:meth:`IncrementalRock.ingest` calls.  Each ingest does three things:

1. **Label** the batch through the retained
   :class:`~repro.core.labeling.StreamingLabeler` — exactly the labelling
   pass the streaming pipeline runs, so batch labels are bit-identical to
   what :meth:`~repro.core.pipeline.RockPipeline.run_streaming` would
   assign the same points (and, by the PR-2 contract, independent of how
   the stream is split into batches).
2. **Splice** the batch into the live link structure.  The inserted
   points' neighbour rows are computed against the retained incidence
   (the ``batch x live`` exact threshold join of :mod:`repro.core.join`;
   the within-batch block goes through the pluggable backend registry via
   :func:`~repro.core.neighbors.compute_neighbors`).  The point-level
   link matrix is updated with three block products — inserting points
   ``P`` with cross-adjacency ``C`` adds ``C^T C`` links between existing
   pairs, ``C A + B C`` links between batch and existing points and
   ``C C^T + B B^T`` links within the batch — which keeps the maintained
   matrix bit-identical to :func:`~repro.core.links.links_from_neighbors`
   recomputed from scratch over the live points (enforced by the property
   suite).  Cluster-level cross-link counts and a lazy-deletion pair heap
   (the :class:`~repro.core.engine.FlatAgglomerationEngine` heap template
   at cluster granularity: plain ``heapq`` entries stamped with the pair's
   count, re-validated on surfacing instead of being deleted in place)
   are updated for exactly the affected clusters.
3. **Re-agglomerate the frontier**: the batch points enter as singleton
   clusters and the greedy goodness-maximising merge loop runs only until
   the live cluster count returns to the target (or no positive-goodness
   merge remains) — clusters untouched by the batch never rebuild
   anything.

A ``refresh_threshold`` bounds drift: when the fraction of points
inserted since the last full clustering exceeds it, the session re-runs
its registered agglomeration engine (:mod:`repro.core.engines`; every
engine is bit-identical) over the maintained link matrix of *all* live
points, rebuilds the labeler against the refreshed clusters and resets
the drift counter.  Labels assigned after a refresh are therefore no
longer bit-identical to a streaming run on the union — they come from
the refreshed clustering — but they remain fully seed-reproducible: the
link matrix is split-independent, the engines are deterministic, and the
labeler draws from the session generator in a fixed order.

Determinism contract (enforced by ``tests/test_core_incremental.py``,
the property suite and the golden fixtures):

* without a refresh trigger, ingesting the points of a stream in *any*
  batch split produces labels bit-identical to one
  ``run_streaming`` pass over the union on the same data and seed;
* with refreshes, runs are seed-reproducible for a given batch split.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.engines import (
    DEFAULT_ENGINE,
    get_engine,
    resolve_engine_name,
    validate_engine_name,
)
from repro.core.goodness import (
    ExponentFunction,
    default_expected_links_exponent,
)
from repro.core.join import threshold_pairs
from repro.core.labeling import StreamingLabeler
from repro.core.links import links_from_neighbors
from repro.core.neighbors import compute_neighbors
from repro.data.encoding import build_item_index, transactions_to_incidence
from repro.errors import ConfigurationError, DataValidationError
from repro.similarity.base import SetSimilarity, supports_vectorized_counts
from repro.similarity.jaccard import JaccardSimilarity


def validate_refresh_threshold(refresh_threshold: float | None) -> float | None:
    """Normalise an optional refresh threshold (``None`` disables refresh).

    The threshold is a positive fraction: a refresh triggers when
    ``points inserted since the last full clustering / points clustered at
    the last full clustering`` exceeds it.  Non-positive or NaN values are
    rejected rather than silently treated as "always refresh".
    """
    if refresh_threshold is None:
        return None
    refresh_threshold = float(refresh_threshold)
    if math.isnan(refresh_threshold) or refresh_threshold <= 0.0:
        raise ConfigurationError(
            "refresh_threshold must be a positive fraction or None, got %r"
            % refresh_threshold
        )
    return refresh_threshold


def _offset_columns(
    block: sparse.csr_matrix, offset: int, width: int, dtype
) -> sparse.csr_matrix:
    """``block`` re-addressed at column ``offset`` inside ``width`` columns."""
    return sparse.csr_matrix(
        (block.data.astype(dtype), block.indices + offset, block.indptr),
        shape=(block.shape[0], width),
    )


def _grow_symmetric(
    existing: sparse.csr_matrix,
    cross: sparse.csr_matrix,
    within: sparse.csr_matrix,
    dtype,
) -> sparse.csr_matrix:
    """Extend a symmetric CSR matrix by a batch of rows/columns.

    Assembles ``[[existing, cross.T], [cross, within]]`` without the COO
    round-trip of ``sparse.bmat``: the column count grows via an in-place
    ``resize`` (free for CSR), the off-diagonal block lands through one
    canonical CSR addition, and the row blocks concatenate through the
    same-format ``vstack`` fast path.  The result has sorted indices, which
    the cluster-store folds and the refresh engine rely on.
    """
    n_old = existing.shape[0]
    n_new = cross.shape[0]
    total = n_old + n_new
    top = existing.astype(dtype)
    top.resize((n_old, total))
    top = top + _offset_columns(cross.T.tocsr(), n_old, total, dtype)
    bottom = cross.astype(dtype)
    bottom.resize((n_new, total))
    bottom = bottom + _offset_columns(within.tocsr(), n_old, total, dtype)
    grown = sparse.vstack([top, bottom], format="csr")
    grown.sort_indices()
    return grown


@dataclass
class IngestResult:
    """Outcome of one :meth:`IncrementalRock.ingest` call.

    Attributes
    ----------
    labels:
        One label per batch point, in the labeler's cluster space at call
        time (``0 .. n_labeler_clusters - 1``; ``-1`` marks outliers).
        After a refresh the space is the refreshed clustering's clusters,
        ordered by decreasing size; ``label_space`` says which space the
        labels belong to.
    n_points:
        Number of points in the batch.
    drift:
        Inserted fraction since the last full clustering *after* this
        batch (the value compared against ``refresh_threshold``).
    refreshed:
        ``True`` when this ingest triggered a full re-cluster (the batch's
        own labels were assigned *before* the refresh, so they are still
        in the pre-refresh space).
    label_space:
        Number of refreshes that had happened when the labels were
        assigned (``0`` = the bootstrap clustering's space).
    n_live_clusters:
        Live cluster count after the splice / frontier re-agglomeration
        (and after the refresh, when one triggered).
    """

    labels: np.ndarray
    n_points: int
    drift: float
    refreshed: bool
    label_space: int
    n_live_clusters: int


class IncrementalRock:
    """A live ROCK clustering that accepts new points in batches.

    Parameters mirror the pipeline knobs (see
    :class:`~repro.core.pipeline.RockPipeline`); ``refresh_threshold`` is
    the drift bound described in the module docstring and ``rng`` seeds
    the labelling-fraction draws (sharing the pipeline generator keeps the
    streaming equivalence bit-exact).

    Usage::

        session = IncrementalRock(n_clusters=4, theta=0.5, rng=0)
        session.bootstrap(clustered_sample, kept_clusters)
        result = session.ingest(batch)       # labels + live-state update

    The live state is inspectable through :attr:`live_points`,
    :attr:`links_`, :attr:`adjacency_` and :meth:`live_clusters`; the
    property-based test suite asserts after every ingest that the
    maintained link matrix is bit-identical to a from-scratch
    recomputation and that the cluster stores/heaps stay consistent.
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
        labeling_fraction: float = 1.0,
        labeling_strategy: str = "auto",
        assign_outliers: bool = True,
        neighbor_strategy: str = "auto",
        neighbor_block_size: int | None = None,
        link_strategy: str = "auto",
        include_self_links: bool = True,
        refresh_threshold: float | None = None,
        engine: str = DEFAULT_ENGINE,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if int(n_clusters) < 1:
            raise ConfigurationError(
                "n_clusters must be at least 1, got %r" % n_clusters
            )
        if not 0.0 <= float(theta) <= 1.0:
            raise ConfigurationError("theta must lie in [0, 1], got %r" % theta)
        self.n_clusters = int(n_clusters)
        self.theta = float(theta)
        self.measure = measure if measure is not None else JaccardSimilarity()
        self.exponent_function = (
            exponent_function
            if exponent_function is not None
            else default_expected_links_exponent
        )
        self.labeling_fraction = float(labeling_fraction)
        self.labeling_strategy = labeling_strategy
        self.assign_outliers = bool(assign_outliers)
        self.neighbor_strategy = neighbor_strategy
        self.neighbor_block_size = neighbor_block_size
        self.link_strategy = link_strategy
        self.include_self_links = bool(include_self_links)
        self.refresh_threshold = validate_refresh_threshold(refresh_threshold)
        self.engine = validate_engine_name(engine)
        self.rng = np.random.default_rng(rng)

        self.n_refreshes = 0
        self.n_ingested = 0
        #: Merge-loop counters of the most recent full refresh (empty until
        #: one ran, or when the refresh engine is uninstrumented).
        self.last_refresh_counters: dict = {}
        self._labeler: StreamingLabeler | None = None
        self._vectorizable = supports_vectorized_counts(self.measure)

    # ------------------------------------------------------------------ #
    # Bootstrap
    # ------------------------------------------------------------------ #
    def bootstrap(
        self,
        sample: Sequence[frozenset],
        clusters: Sequence[Sequence[int]],
        item_index: dict | None = None,
    ) -> "IncrementalRock":
        """Bind the session to a clustered sample.

        Parameters
        ----------
        sample:
            Item sets of the clustered sample (what the labeler retains —
            the same list the streaming pipeline hands its
            :class:`StreamingLabeler`).
        clusters:
            Cluster membership over ``sample`` as sequences of sample
            indices.  Points outside every cluster (e.g. pruned by
            ``min_cluster_size``) stay out of the live clustering but are
            still retained by the labeler.
        item_index:
            Optional pre-built item-to-column index covering ``sample``.
            The session keeps a private *growable* copy: items first seen
            in later batches are appended so the live link structure stays
            exact, while the labeler's bounded index is never mutated.
        """
        sample = [frozenset(t) for t in sample]
        if not clusters:
            raise DataValidationError("bootstrap requires at least one cluster")
        seen: set[int] = set()
        for members in clusters:
            for index in members:
                if not 0 <= index < len(sample):
                    raise DataValidationError(
                        "cluster member %r outside the sample of %d points"
                        % (index, len(sample))
                    )
                if index in seen:
                    raise DataValidationError(
                        "sample point %d appears in more than one cluster" % index
                    )
                seen.add(index)

        self._labeler = StreamingLabeler(
            sample,
            clusters,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            rng=self.rng,
            strategy=self.labeling_strategy,
            item_index=item_index,
            assign_outliers=self.assign_outliers,
        )

        # Live points: the members of the bootstrap clusters, in sample
        # order (pruned sample points stay out of the live clustering).
        live_of_sample = sorted(seen)
        self._points = [sample[i] for i in live_of_sample]
        live_index_of = {s: i for i, s in enumerate(live_of_sample)}
        live_clusters = [
            [live_index_of[int(member)] for member in members] for members in clusters
        ]

        self._item_index = dict(
            item_index if item_index is not None else build_item_index(sample)
        )
        for transaction in self._points:
            for item in transaction:
                if item not in self._item_index:
                    self._item_index[item] = len(self._item_index)
        self._incidence, _ = transactions_to_incidence(self._points, self._item_index)
        self._sizes = np.asarray([len(t) for t in self._points], dtype=np.int64)

        graph = compute_neighbors(
            self._points,
            theta=self.theta,
            measure=self.measure,
            strategy=self.neighbor_strategy,
            item_index=self._item_index,
            block_size=self.neighbor_block_size,
        )
        self._adjacency = graph.adjacency.tocsr()
        self._links = links_from_neighbors(
            graph, strategy=self.link_strategy, include_self=self.include_self_links
        )

        self._rebuild_cluster_state(live_clusters)
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        return self

    def _rebuild_cluster_state(self, clusters: Sequence[Sequence[int]]) -> None:
        """(Re)build members, cross-link stores and the pair heap."""
        n_live = len(self._points)
        self._members = {
            cluster_id: sorted(int(i) for i in members)
            for cluster_id, members in enumerate(clusters)
        }
        self._next_cluster_id = len(clusters)
        self._cluster_of = [-1] * n_live
        for cluster_id, members in self._members.items():
            for point in members:
                self._cluster_of[point] = cluster_id

        # The goodness exponent ``1 + 2 f(theta)``, applied inline in the
        # hot pair loops (one goodness() call per pair would dominate).
        self._exponent = 1.0 + 2.0 * self.exponent_function(self.theta)
        cross = self._fold_cluster_links(self._links)
        self._cluster_links = cross
        # Lazy-deletion pair heap, the flat engine's template at cluster
        # granularity: one entry per (pair, count) revision, keyed by
        # negated goodness with an insertion sequence for deterministic
        # ties.  An entry is stale exactly when an endpoint died or the
        # pair's count moved on (sizes are frozen per cluster id, so the
        # count stamp alone re-validates the goodness).
        self._heap_seq = 0
        entries: list[tuple[float, int, int, int, int]] = []
        for cluster_id, row in cross.items():
            size = len(self._members[cluster_id])
            for other, count in row.items():
                if other < cluster_id:
                    continue
                entries.append(
                    self._pair_entry(
                        cluster_id, other, count, size, len(self._members[other])
                    )
                )
        heapq.heapify(entries)
        self._pair_heap = entries

    def _pair_entry(
        self, left: int, right: int, count: int, size_left: int, size_right: int
    ) -> tuple[float, int, int, int, int]:
        """A heap entry ``(-goodness, seq, left, right, count)``."""
        exponent = self._exponent
        neg_goodness = -(
            count
            / (
                float(size_left + size_right) ** exponent
                - float(size_left) ** exponent
                - float(size_right) ** exponent
            )
        )
        seq = self._heap_seq
        self._heap_seq = seq + 1
        return (neg_goodness, seq, left, right, count)

    def _fold_cluster_links(
        self, point_links: sparse.spmatrix
    ) -> dict[int, dict[int, int]]:
        """Cross-cluster link counts folded from a point-level link matrix."""
        cluster_ids = sorted(self._members)
        row_of = {cluster_id: row for row, cluster_id in enumerate(cluster_ids)}
        n_live = len(self._points)
        rows = np.asarray(
            [row_of[self._cluster_of[p]] for p in range(n_live)], dtype=np.int64
        )
        membership = sparse.csr_matrix(
            (np.ones(n_live, dtype=np.int64), (rows, np.arange(n_live))),
            shape=(len(cluster_ids), n_live),
        )
        folded = (membership @ point_links @ membership.T).tocoo()
        cross: dict[int, dict[int, int]] = {
            cluster_id: {} for cluster_id in cluster_ids
        }
        for r, c, value in zip(folded.row, folded.col, folded.data):
            if r != c and value > 0:
                cross[cluster_ids[int(r)]][cluster_ids[int(c)]] = int(value)
        return cross

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _require_bootstrapped(self) -> StreamingLabeler:
        if self._labeler is None:
            raise ConfigurationError(
                "the incremental session is not bootstrapped; call bootstrap() "
                "(or RockPipeline.run_online) first"
            )
        return self._labeler

    @property
    def n_points(self) -> int:
        """Number of live points (bootstrap cluster members + ingested)."""
        self._require_bootstrapped()
        return len(self._points)

    @property
    def live_points(self) -> list[frozenset]:
        """Item sets of the live points, in insertion order."""
        self._require_bootstrapped()
        return list(self._points)

    @property
    def links_(self) -> sparse.csr_matrix:
        """The maintained point-level link matrix over the live points."""
        self._require_bootstrapped()
        return self._links

    @property
    def adjacency_(self) -> sparse.csr_matrix:
        """The maintained neighbour adjacency over the live points."""
        self._require_bootstrapped()
        return self._adjacency

    @property
    def n_labeler_clusters(self) -> int:
        """Cluster count of the current labelling space."""
        return self._require_bootstrapped().n_clusters

    @property
    def drift(self) -> float:
        """Inserted fraction since the last full clustering."""
        self._require_bootstrapped()
        return self._inserted_since_refresh / max(1, self._base_points)

    def live_clusters(self) -> list[tuple]:
        """The live clustering as member tuples, largest cluster first."""
        self._require_bootstrapped()
        clusters = [tuple(sorted(members)) for members in self._members.values()]
        clusters.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        return clusters

    # ------------------------------------------------------------------ #
    # State capture / restore (the persistence layer's view of a session)
    # ------------------------------------------------------------------ #
    def config_dict(self) -> dict:
        """The session configuration as JSON-compatible values.

        Recorded in every snapshot manifest and compared on restore: resuming
        under different parameters would break the restore ≡ uninterrupted
        contract, so a mismatch is refused
        (:class:`~repro.errors.SnapshotConfigMismatchError`).
        """
        return {
            "n_clusters": self.n_clusters,
            "theta": self.theta,
            "measure": getattr(self.measure, "name", type(self.measure).__name__),
            "labeling_fraction": self.labeling_fraction,
            "labeling_strategy": self.labeling_strategy,
            "assign_outliers": self.assign_outliers,
            "neighbor_strategy": self.neighbor_strategy,
            "neighbor_block_size": self.neighbor_block_size,
            "link_strategy": self.link_strategy,
            "include_self_links": self.include_self_links,
            "refresh_threshold": self.refresh_threshold,
            "engine": self.engine,
        }

    def session_state(self) -> dict:
        """Capture the complete live state for a snapshot.

        Everything a later :meth:`from_session_state` needs to continue the
        session bit-for-bit: the maintained matrices, cluster stores, the
        pair heap *verbatim* (recomputing it would renumber the heap
        sequence counter and change deterministic tie-breaking), the
        labeler's retained fractions and the RNG stream position.  The
        measure and exponent function are code, not data — the caller
        re-supplies them on restore.
        """
        self._require_bootstrapped()
        return {
            "config": self.config_dict(),
            "counters": {
                "n_refreshes": int(self.n_refreshes),
                "n_ingested": int(self.n_ingested),
                "base_points": int(self._base_points),
                "inserted_since_refresh": int(self._inserted_since_refresh),
                "next_cluster_id": int(self._next_cluster_id),
                "heap_seq": int(self._heap_seq),
            },
            "rng": self.rng.bit_generator.state,
            "points": list(self._points),
            "item_index": dict(self._item_index),
            "members": {int(k): list(v) for k, v in self._members.items()},
            "cluster_links": {
                int(k): dict(row) for k, row in self._cluster_links.items()
            },
            "cluster_of": list(self._cluster_of),
            "heap": [tuple(entry) for entry in self._pair_heap],
            "labeler": self._labeler.state(),
            "arrays": {
                "adjacency": self._adjacency.copy(),
                "links": self._links.copy(),
                "incidence": self._incidence.copy(),
                "sizes": self._sizes.copy(),
            },
        }

    @classmethod
    def from_session_state(
        cls,
        state: dict,
        measure: SetSimilarity | None = None,
        exponent_function: ExponentFunction | None = None,
    ) -> "IncrementalRock":
        """Rebuild a live session from :meth:`session_state` output.

        The restored session's subsequent :meth:`ingest` calls are
        bit-identical to the uninterrupted original: matrices, cluster
        stores and the pair heap are reinstated verbatim, the labeler is
        rebuilt without consuming RNG, and the generator resumes at the
        captured stream position.
        """
        config = state["config"]
        session = cls(
            n_clusters=config["n_clusters"],
            theta=config["theta"],
            measure=measure,
            exponent_function=exponent_function,
            labeling_fraction=config["labeling_fraction"],
            labeling_strategy=config["labeling_strategy"],
            assign_outliers=config["assign_outliers"],
            neighbor_strategy=config["neighbor_strategy"],
            neighbor_block_size=config["neighbor_block_size"],
            link_strategy=config["link_strategy"],
            include_self_links=config["include_self_links"],
            refresh_threshold=config["refresh_threshold"],
            # Snapshots written before the engine registry carry no engine
            # key; they ran the then-default flat engine's semantics, which
            # every registered engine reproduces bit-identically.
            engine=config.get("engine", DEFAULT_ENGINE),
        )
        rng_state = state["rng"]
        bit_generator = getattr(np.random, rng_state["bit_generator"])()
        session.rng = np.random.Generator(bit_generator)
        session.rng.bit_generator.state = rng_state

        counters = state["counters"]
        session.n_refreshes = counters["n_refreshes"]
        session.n_ingested = counters["n_ingested"]
        session._base_points = counters["base_points"]
        session._inserted_since_refresh = counters["inserted_since_refresh"]
        session._next_cluster_id = counters["next_cluster_id"]
        session._heap_seq = counters["heap_seq"]

        session._labeler = StreamingLabeler.from_state(
            state["labeler"],
            theta=session.theta,
            measure=session.measure,
            exponent_function=session.exponent_function,
            assign_outliers=session.assign_outliers,
        )
        session._points = [frozenset(t) for t in state["points"]]
        session._item_index = dict(state["item_index"])
        session._members = {int(k): list(v) for k, v in state["members"].items()}
        session._cluster_links = {
            int(k): dict(row) for k, row in state["cluster_links"].items()
        }
        session._cluster_of = list(state["cluster_of"])
        session._pair_heap = [tuple(entry) for entry in state["heap"]]
        session._exponent = 1.0 + 2.0 * session.exponent_function(session.theta)

        arrays = state["arrays"]
        session._adjacency = arrays["adjacency"].tocsr()
        session._links = arrays["links"].tocsr()
        session._incidence = arrays["incidence"].tocsr()
        session._sizes = np.asarray(arrays["sizes"], dtype=np.int64)
        return session

    # ------------------------------------------------------------------ #
    # Label-only path (the serving front end's read verb)
    # ------------------------------------------------------------------ #
    def label_only(self, batch: Sequence[frozenset]) -> np.ndarray:
        """Label a batch through the retained labeler *without* ingesting.

        The read-only counterpart of :meth:`ingest`: the points are never
        spliced into the live clustering, no randomness is consumed and no
        live state that labels depend on changes, so interleaving
        ``label_only`` calls between ingests leaves every subsequent ingest
        bit-identical (the labeler only advances its summary counters).
        Labels are in the current labelling space, ``-1`` marking outliers.
        """
        labeler = self._require_bootstrapped()
        return labeler.label_batch([frozenset(t) for t in batch]).labels

    # ------------------------------------------------------------------ #
    # Eviction (bounded-memory live mode)
    # ------------------------------------------------------------------ #
    def evict_oldest(self, n_evict: int) -> int:
        """Drop the ``n_evict`` oldest live points to label-only status.

        The serving front end's memory bound: evicted points leave the
        maintained matrices, cluster stores and heap (their rows/columns
        are sliced out and the cluster state is rebuilt over the
        survivors), but the labeler keeps its own retained sample, so
        labelling is untouched — without a refresh trigger, labels
        assigned after an eviction are bit-identical to a run that never
        evicted.  A refresh after eviction re-clusters only the surviving
        live points.  At least one live point must survive.  Drift
        counters are left as they are (eviction is forgetting, not
        re-clustering).  Returns the number of points evicted.
        """
        self._require_bootstrapped()
        n_evict = int(n_evict)
        if n_evict <= 0:
            return 0
        if n_evict >= len(self._points):
            raise ConfigurationError(
                "cannot evict %d of %d live points: at least one live point "
                "must survive" % (n_evict, len(self._points))
            )
        self._points = self._points[n_evict:]
        self._incidence = self._incidence[n_evict:].tocsr()
        self._sizes = self._sizes[n_evict:].copy()
        keep = np.arange(n_evict, self._adjacency.shape[0])
        adjacency = self._adjacency[keep][:, keep].tocsr()
        adjacency.sort_indices()
        self._adjacency = adjacency
        links = self._links[keep][:, keep].tocsr()
        links.sort_indices()
        self._links = links

        survivors = []
        for _cluster_id, members in sorted(self._members.items()):
            kept = [member - n_evict for member in members if member >= n_evict]
            if kept:
                survivors.append(tuple(sorted(kept)))
        survivors.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        self._rebuild_cluster_state(survivors)
        return n_evict

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #
    def ingest(self, batch: Sequence[frozenset]) -> IngestResult:
        """Label one batch and splice it into the live clustering."""
        labeler = self._require_bootstrapped()
        batch = [frozenset(t) for t in batch]
        label_space = self.n_refreshes
        if not batch:
            return IngestResult(
                labels=np.zeros(0, dtype=int),
                n_points=0,
                drift=self.drift,
                refreshed=False,
                label_space=label_space,
                n_live_clusters=len(self._members),
            )
        labels = labeler.label_batch(batch).labels

        self._splice(batch)
        self._reagglomerate()

        self.n_ingested += len(batch)
        self._inserted_since_refresh += len(batch)
        drift = self.drift
        refreshed = False
        if self.refresh_threshold is not None and drift > self.refresh_threshold:
            self.refresh()
            refreshed = True
        return IngestResult(
            labels=labels,
            n_points=len(batch),
            drift=drift,
            refreshed=refreshed,
            label_space=label_space,
            n_live_clusters=len(self._members),
        )

    # ------------------------------------------------------------------ #
    # Splice: extend adjacency / links / cluster stores with one batch
    # ------------------------------------------------------------------ #
    def _batch_blocks(
        self, batch: list[frozenset]
    ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Adjacency blocks of a batch: ``(batch x live, batch x batch)``.

        The cross block is the exact threshold join of the batch against
        the live points (:func:`repro.core.join.threshold_pairs`); the
        within-batch block goes through the backend registry.  For
        measures without the vectorized-counts capability both blocks fall
        back to pair-by-pair evaluation (the bruteforce spec).
        """
        n_old = len(self._points)
        n_new = len(batch)
        # Grow the private item index so intersections on never-seen items
        # stay exact (the labeler's bounded index is deliberately separate).
        for transaction in batch:
            for item in transaction:
                if item not in self._item_index:
                    self._item_index[item] = len(self._item_index)
        batch_incidence, _ = transactions_to_incidence(batch, self._item_index)
        n_columns = batch_incidence.shape[1]
        if self._incidence.shape[1] < n_columns:
            self._incidence.resize((n_old, n_columns))
        batch_sizes = np.asarray([len(t) for t in batch], dtype=np.int64)

        if self._vectorizable:
            rows, cols = threshold_pairs(
                batch_incidence,
                self._incidence,
                batch_sizes,
                self._sizes,
                self.theta,
                self.measure,
            )
        else:
            rows_list: list[int] = []
            cols_list: list[int] = []
            for t, point in enumerate(batch):
                for j, other in enumerate(self._points):
                    if self.measure(point, other) >= self.theta:
                        rows_list.append(t)
                        cols_list.append(j)
            rows = np.asarray(rows_list, dtype=np.int64)
            cols = np.asarray(cols_list, dtype=np.int64)
        cross = sparse.coo_matrix(
            (np.ones(len(rows), dtype=bool), (rows, cols)),
            shape=(n_new, n_old),
            dtype=bool,
        ).tocsr()

        if n_new == 1:
            within = sparse.csr_matrix((1, 1), dtype=bool)
        else:
            within = compute_neighbors(
                batch,
                theta=self.theta,
                measure=self.measure,
                strategy=self.neighbor_strategy,
                block_size=self.neighbor_block_size,
            ).adjacency.tocsr()

        self._incidence = sparse.vstack(
            [self._incidence, batch_incidence], format="csr"
        )
        self._sizes = np.concatenate([self._sizes, batch_sizes])
        return cross, within

    def _splice(self, batch: list[frozenset]) -> None:
        """Splice one batch into adjacency, links and the cluster stores."""
        n_old = len(self._points)
        cross, within = self._batch_blocks(batch)

        cross_counts = cross.astype(np.int64)
        adjacency_counts = self._adjacency.astype(np.int64)
        if self.include_self_links:
            identity_old = sparse.identity(n_old, dtype=np.int64, format="csr")
            identity_new = sparse.identity(len(batch), dtype=np.int64, format="csr")
            existing_bar = (adjacency_counts + identity_old).tocsr()
            within_bar = (within.astype(np.int64) + identity_new).tocsr()
        else:
            existing_bar = adjacency_counts
            within_bar = within.astype(np.int64)

        # Link deltas of inserting the batch P with cross-adjacency C and
        # within-batch adjacency B (both without self-loops; the self-link
        # convention enters through the +I terms above):
        #   existing x existing gains C^T C,
        #   batch x existing is C (A + I) + (B + I) C,
        #   batch x batch is C C^T + (B + I)(B + I)^T.
        delta_existing = (cross_counts.T @ cross_counts).tocsr()
        delta_existing.setdiag(0)
        delta_existing.eliminate_zeros()
        links_batch_existing = (
            cross_counts @ existing_bar + within_bar @ cross_counts
        ).tocsr()
        links_batch_batch = (
            cross_counts @ cross_counts.T + within_bar @ within_bar.T
        ).tocsr()
        links_batch_batch.setdiag(0)
        links_batch_batch.eliminate_zeros()

        self._adjacency = _grow_symmetric(
            self._adjacency, cross, within, dtype=bool
        )
        self._links = _grow_symmetric(
            self._links + delta_existing,
            links_batch_existing,
            links_batch_batch,
            dtype=np.int64,
        )
        self._points.extend(batch)

        self._splice_cluster_stores(
            n_old, delta_existing, links_batch_existing, links_batch_batch
        )

    def _splice_cluster_stores(
        self,
        n_old: int,
        delta_existing: sparse.csr_matrix,
        links_batch_existing: sparse.csr_matrix,
        links_batch_batch: sparse.csr_matrix,
    ) -> None:
        """Apply the batch's link deltas to the cluster stores and heap."""
        cluster_links = self._cluster_links
        members = self._members
        entries: list[tuple[float, int, int, int, int]] = []

        # (a) Existing-pair deltas folded by cluster: only cross-cluster
        # mass matters (within-cluster links never drive a merge).
        cluster_of_point = np.asarray(self._cluster_of[:n_old], dtype=np.int64)
        delta = delta_existing.tocoo()
        if delta.nnz:
            upper = delta.row < delta.col
            left_clusters = cluster_of_point[delta.row[upper]]
            right_clusters = cluster_of_point[delta.col[upper]]
            values = delta.data[upper]
            cross_pair = left_clusters != right_clusters
            left_clusters = left_clusters[cross_pair]
            right_clusters = right_clusters[cross_pair]
            values = values[cross_pair]
            if values.size:
                low = np.minimum(left_clusters, right_clusters)
                high = np.maximum(left_clusters, right_clusters)
                span = int(self._next_cluster_id) + 1
                codes = low * span + high
                unique_codes, inverse = np.unique(codes, return_inverse=True)
                totals = np.zeros(unique_codes.size, dtype=np.int64)
                np.add.at(totals, inverse, values)
                for code, total in zip(unique_codes.tolist(), totals.tolist()):
                    i, j = divmod(code, span)
                    count = cluster_links[i].get(j, 0) + total
                    cluster_links[i][j] = count
                    cluster_links[j][i] = count
                    entries.append(
                        self._pair_entry(
                            i, j, count, len(members[i]), len(members[j])
                        )
                    )

        # (b) Every batch point becomes a singleton cluster whose row of
        # cross-links is the fold of its point-level links by cluster.
        cluster_ids = sorted(members)
        row_of = {cluster_id: row for row, cluster_id in enumerate(cluster_ids)}
        rows = np.asarray(
            [row_of[self._cluster_of[p]] for p in range(n_old)], dtype=np.int64
        )
        membership = sparse.csr_matrix(
            (np.ones(n_old, dtype=np.int64), (rows, np.arange(n_old))),
            shape=(len(cluster_ids), n_old),
        )
        folded = (links_batch_existing @ membership.T).tocsr()
        batch_links = links_batch_batch.tocsr()

        n_new = links_batch_existing.shape[0]
        new_ids: list[int] = []
        for t in range(n_new):
            cluster_id = self._next_cluster_id
            self._next_cluster_id += 1
            new_ids.append(cluster_id)
            members[cluster_id] = [n_old + t]
            self._cluster_of.append(cluster_id)
            cluster_links[cluster_id] = {}

        folded_indptr = folded.indptr
        folded_positions = folded.indices.tolist()
        folded_counts = folded.data.tolist()
        batch_indptr = batch_links.indptr
        batch_columns = batch_links.indices.tolist()
        batch_counts = batch_links.data.tolist()
        for t, cluster_id in enumerate(new_ids):
            own_row = cluster_links[cluster_id]
            for index in range(folded_indptr[t], folded_indptr[t + 1]):
                count = int(folded_counts[index])
                if count <= 0:
                    continue
                other = cluster_ids[folded_positions[index]]
                own_row[other] = count
                cluster_links[other][cluster_id] = count
                entries.append(
                    self._pair_entry(cluster_id, other, count, 1, len(members[other]))
                )
            for index in range(batch_indptr[t], batch_indptr[t + 1]):
                column = batch_columns[index]
                if column <= t:
                    continue
                count = int(batch_counts[index])
                if count <= 0:
                    continue
                other = new_ids[column]
                own_row[other] = count
                cluster_links[other][cluster_id] = count
                entries.append(self._pair_entry(cluster_id, other, count, 1, 1))

        # One linear heapify over old + new entries beats per-entry pushes.
        # When stale entries outnumber the live pairs by 4x, drop them
        # first so the heap stays proportional to the live frontier.
        heap = self._pair_heap
        live_pairs = sum(len(row) for row in cluster_links.values()) // 2
        if len(heap) + len(entries) > 4 * max(live_pairs, 16):
            heap = [
                entry
                for entry in heap
                if entry[2] in members
                and entry[3] in members
                and cluster_links[entry[2]].get(entry[3]) == entry[4]
            ]
            self._pair_heap = heap
        heap.extend(entries)
        heapq.heapify(heap)

    # ------------------------------------------------------------------ #
    # Frontier re-agglomeration
    # ------------------------------------------------------------------ #
    def _reagglomerate(self) -> None:
        """Greedy merges until the target count or no positive goodness.

        Pops the lazy pair heap like the flat engine's merge loop: an
        entry whose endpoints died, or whose count stamp no longer matches
        the live cross-link store, is skipped on surfacing — clusters the
        batch never touched do no work at all.
        """
        members = self._members
        cluster_links = self._cluster_links
        heap = self._pair_heap
        heappop = heapq.heappop
        while len(members) > self.n_clusters:
            while heap:
                neg_goodness, _seq, left, right, count = heap[0]
                if (
                    left in members
                    and right in members
                    and cluster_links[left].get(right) == count
                ):
                    break
                heappop(heap)
            if not heap or not (heap[0][0] < 0.0):
                # Empty frontier or non-positive (or NaN) best goodness:
                # the engines stop here too.
                break
            _neg_goodness, _seq, left, right, _count = heappop(heap)
            self._merge_live(left, right)

    def _merge_live(self, left: int, right: int) -> None:
        """Merge two live clusters in place.

        Only the merged cluster's frontier is rescored (one heap entry per
        surviving partner); stale entries referencing the dead ids fall
        out lazily.
        """
        members = self._members
        cluster_links = self._cluster_links

        merged_id = self._next_cluster_id
        self._next_cluster_id += 1
        merged_members = members.pop(left) + members.pop(right)
        members[merged_id] = merged_members
        merged_size = len(merged_members)
        for point in merged_members:
            self._cluster_of[point] = merged_id

        combined: dict[int, int] = {}
        for source in (left, right):
            for other, count in cluster_links.pop(source).items():
                if other in (left, right):
                    continue
                combined[other] = combined.get(other, 0) + count

        heappush = heapq.heappush
        for other, count in combined.items():
            other_links = cluster_links[other]
            other_links.pop(left, None)
            other_links.pop(right, None)
            other_links[merged_id] = count
            heappush(
                self._pair_heap,
                self._pair_entry(
                    merged_id, other, count, merged_size, len(members[other])
                ),
            )
        cluster_links[merged_id] = combined

    # ------------------------------------------------------------------ #
    # Refresh
    # ------------------------------------------------------------------ #
    def refresh(self) -> None:
        """Full re-cluster of every live point via the session's engine.

        Runs the session's registered agglomeration engine (every engine
        is bit-identical, so the refresh contract does not depend on the
        choice) over the maintained link matrix — no neighbour or link
        computation is repeated — rebuilds the cluster stores/heaps and
        rebinds the labeler to the refreshed clusters; the refreshed
        clusters are ordered by decreasing size (ties by smallest member),
        which defines the new labelling space.  The engine's merge-loop
        counters are retained in :attr:`last_refresh_counters` for the
        serve ``status`` verb and the benchmarks.
        """
        self._require_bootstrapped()
        run = get_engine(resolve_engine_name(self.engine)).agglomerate(
            self._links,
            len(self._points),
            self.n_clusters,
            self.theta,
            self.exponent_function,
        )
        members = run.members
        self.last_refresh_counters = dict(run.counters)
        ordered = [tuple(sorted(cluster)) for cluster in members.values()]
        ordered.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        self._labeler = StreamingLabeler(
            self._points,
            ordered,
            theta=self.theta,
            measure=self.measure,
            exponent_function=self.exponent_function,
            labeling_fraction=self.labeling_fraction,
            rng=self.rng,
            strategy=self.labeling_strategy,
            item_index=dict(self._item_index),
            assign_outliers=self.assign_outliers,
        )
        self._rebuild_cluster_state(ordered)
        self._base_points = len(self._points)
        self._inserted_since_refresh = 0
        self.n_refreshes += 1
