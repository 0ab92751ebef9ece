"""End-to-end ROCK pipeline: sample, cluster, label, finalize.

The paper's method is one sequence — draw a sample, cluster it, label the
disk-resident points against the sampled clusters — and every entry point
of :class:`RockPipeline` runs exactly that sequence of four phases.  The
modes differ only in which variant of a phase they plug in:

1. **Sample** — the in-memory :func:`draw_sample` (:meth:`~RockPipeline.run`),
   an exact or reservoir pass over a re-iterable source
   (:meth:`~RockPipeline.run_streaming`, :meth:`~RockPipeline.run_online`,
   one-shard :meth:`~RockPipeline.run_sharded`), or one shard-allocated
   pass (multi-shard :meth:`~RockPipeline.run_sharded`).
2. **Cluster** — :func:`cluster_sample` (outlier pre-filter, agglomeration,
   small-cluster pruning) on the whole sample, or on every shard followed
   by the weighted summary merge (:mod:`repro.core.sharding`).  Both
   variants yield one :class:`_Clustered` artefact: the retained sample,
   its stream positions, the kept clusters, the sampled positions still to
   label, the :class:`RockResult` and the item index.
3. **Label** — :meth:`~RockPipeline.run` labels every pending point in one
   :func:`label_points` batch and keeps the neighbour counts; streaming and
   sharded runs feed :class:`StreamingLabeler` batches; online runs ingest
   the batches into an :class:`IncrementalRock` session, whose live
   clustering absorbs the stream.  The out-of-core variants share one
   :class:`_StreamState` that walks the stream and records the labels.
4. **Finalize** — one vectorised renumbering of the clusters by decreasing
   size (ties: first member) over the full input.

Because the phases are shared, the mode contracts hold by construction:
on the same data and seed, exact streaming labels equal :meth:`run`'s,
``run_sharded(n_shards=1)`` equals :meth:`run_streaming`, and
:meth:`run_online` without a refresh threshold equals :meth:`run_streaming`
— including the pipeline generator's position afterwards.

Every phase reaches its collaborators (``iter_transactions``,
``build_item_index``, ``draw_sample``, ``reservoir_sample``,
``build_shard_samples``, ``compute_neighbors``, ``label_points``,
``StreamingLabeler``, ``cluster_shards``, ``merge_shard_summaries``)
through this module's globals, so the end-to-end benchmark's tracer
(``perfbench/tracer.py``) can wrap each of them in one place.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar

import numpy as np

from repro.core.engines import DEFAULT_ENGINE, validate_engine_name
from repro.core.goodness import ExponentFunction
from repro.core.incremental import (
    IncrementalRock,
    IngestResult,
    validate_refresh_threshold,
)
from repro.core.labeling import LabelingResult, StreamingLabeler, label_points
from repro.core.neighbors import compute_neighbors
from repro.core.outliers import drop_small_clusters, partition_isolated_points
from repro.core.rock import RockClustering, RockResult, as_transactions
from repro.core.sampling import draw_sample, reservoir_sample
from repro.core.sharding import (
    DEFAULT_SHARD_EXECUTOR,
    DEFAULT_SHARD_STRATEGY,
    HASH_SHARD_STRATEGY,
    SHARD_STRATEGIES,
    ShardClusterResult,
    ShardPlan,
    allocate_sample_sizes,
    build_shard_samples,
    cluster_shards,
    count_shard_sizes,
    merge_shard_summaries,
    resolve_shard_executor,
    validate_merge_options,
)
from repro.data.encoding import build_item_index
from repro.data.io import iter_transactions
from repro.errors import (
    ConfigurationError,
    DataValidationError,
    InsufficientLinksError,
    SnapshotConfigMismatchError,
    SnapshotCorruptionError,
)
from repro.persistence.session import PersistentSession
from repro.similarity.base import SetSimilarity
from repro.types import ClusterSummary

#: Sampling strategies accepted by :meth:`RockPipeline.run_streaming`.
STREAMING_SAMPLE_METHODS = ("exact", "reservoir")

#: The :class:`PipelineParams` fields every result reports, in this order.
_REPORTED_PARAMETERS = (
    "n_clusters",
    "theta",
    "sample_size",
    "min_neighbors",
    "min_cluster_size",
    "labeling_fraction",
    "assign_outliers",
    "engine",
)


@dataclass(frozen=True)
class PipelineParams:
    """The frozen parameter set of one :class:`RockPipeline`.

    :class:`RockPipeline` builds it once from its constructor arguments and
    hands the same object to every phase, to process shard workers
    (:mod:`repro.core.shard_worker`) and — through the
    :class:`IncrementalRock` session it configures — to checkpoints.  It
    must pickle for the process executor, so a ``measure`` or
    ``exponent_function`` that does not (e.g. a lambda) requires the thread
    executor.  The random generator is run state, not a parameter, and
    stays on the pipeline.
    """

    n_clusters: int
    theta: float
    sample_size: int | None
    measure: SetSimilarity | None
    min_neighbors: int
    min_cluster_size: int
    labeling_fraction: float
    exponent_function: ExponentFunction | None
    assign_outliers: bool
    engine: str
    neighbor_strategy: str
    neighbor_block_size: int | None
    link_strategy: str
    labeling_strategy: str
    include_self_links: bool
    strict: bool

    def kwargs_for(self, constructor: Callable) -> dict[str, Any]:
        """The fields ``constructor`` accepts, keyed by their shared names."""
        accepted = inspect.signature(constructor).parameters
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name in accepted
        }

    def samples_everything(self, n_points: int) -> bool:
        """True when the sample is the whole input (no draw happens)."""
        return self.sample_size is None or self.sample_size >= n_points


@dataclass
class RockPipelineResult:
    """Outcome of the full ROCK pipeline on a data set.

    Attributes
    ----------
    labels:
        One label per input point (over the *full* data set); ``-1`` marks
        outliers.
    clusters:
        For each label, the tuple of member indices into the full data set,
        ordered by decreasing size.
    sample_indices:
        Indices of the points that formed the clustered sample.
    rock_result:
        The :class:`RockResult` of the agglomeration on the sample.
    labeling_result:
        The :class:`LabelingResult` of the final labelling pass, or ``None``
        when every point was part of the clustered sample.  Its labels are
        expressed in the *final* label space (the same one ``labels`` uses),
        and row ``i`` describes the point at full-data-set index
        ``labeled_indices[i]``.  Streaming runs leave ``neighbor_counts``
        empty (shape ``(0, n_clusters)``): retaining a dense per-point count
        matrix would break the bounded-memory contract of
        :meth:`RockPipeline.run_streaming`.
    labeled_indices:
        Full-data-set index of each ``labeling_result`` row, or ``None``
        when no labelling pass ran.
    n_outliers:
        Number of points with label ``-1``.
    timings:
        Wall-clock seconds per phase (``"sampling"``, ``"neighbors"``,
        ``"clustering"``, ``"labeling"``, ``"total"``).  Note ``"neighbors"``
        only covers the outlier pre-filter phase (the neighbour graph built
        when ``min_neighbors > 0``); the neighbour computation the
        agglomeration itself performs is part of ``"clustering"``.
    parameters:
        The key parameters the pipeline ran with (for reporting).
    """

    labels: np.ndarray
    clusters: list[tuple]
    sample_indices: list[int]
    rock_result: RockResult
    labeling_result: LabelingResult | None
    n_outliers: int
    labeled_indices: list[int] | None = None
    timings: dict[str, float] = field(default_factory=dict)
    parameters: dict[str, object] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the final labelling."""
        return len(self.clusters)

    def cluster_sizes(self) -> list[int]:
        """Cluster sizes in label order (decreasing)."""
        return [len(members) for members in self.clusters]

    def summaries(self) -> list[ClusterSummary]:
        """Return a :class:`ClusterSummary` per cluster."""
        return [
            ClusterSummary(cluster_id=i, size=len(members), member_indices=tuple(members))
            for i, members in enumerate(self.clusters)
        ]


# ---------------------------------------------------------------------- #
# Cluster phase
# ---------------------------------------------------------------------- #
def cluster_sample(
    params: PipelineParams,
    sample: list[frozenset],
    positions,
    item_index: dict,
    shard_id: int = 0,
) -> tuple[ShardClusterResult, RockResult]:
    """Pre-filter, cluster and prune one in-memory sample.

    ``positions[i]`` is the stream position of ``sample[i]``.  Returns the
    outcome in stream positions (a :class:`ShardClusterResult`, whose
    ``timings`` hold the ``"neighbors"`` and ``"clustering"`` seconds) and
    the agglomeration's :class:`RockResult`.  The single-sample pipelines,
    thread shard workers and process shard workers all run this function.
    """
    timings: dict[str, float] = {}
    phase_start = time.perf_counter()
    participating, isolated = list(range(len(sample))), []
    if params.min_neighbors > 0:
        graph = compute_neighbors(
            sample,
            theta=params.theta,
            measure=params.measure,
            strategy=params.neighbor_strategy,
            item_index=item_index,
            block_size=params.neighbor_block_size,
        )
        kept, set_aside = partition_isolated_points(
            graph, min_neighbors=params.min_neighbors
        )
        # When every sampled point is isolated, cluster them all anyway.
        if kept:
            participating, isolated = kept, set_aside
    clustered_sample = [sample[i] for i in participating]
    timings["neighbors"] = time.perf_counter() - phase_start

    phase_start = time.perf_counter()
    model = RockClustering(**params.kwargs_for(RockClustering))
    rock_result = model.fit(clustered_sample, item_index=item_index).result_
    timings["clustering"] = time.perf_counter() - phase_start

    kept_clusters, pruned_points = drop_small_clusters(
        rock_result.clusters, params.min_cluster_size
    )
    if not kept_clusters:
        kept_clusters, pruned_points = [tuple(range(len(clustered_sample)))], []
    clustered_positions = [positions[i] for i in participating]
    shard = ShardClusterResult(
        shard_id=shard_id,
        clustered_sample=clustered_sample,
        clustered_positions=clustered_positions,
        clusters=list(kept_clusters),
        isolated_positions=[positions[i] for i in isolated],
        pruned_positions=[clustered_positions[j] for j in pruned_points],
        timings=timings,
    )
    return shard, rock_result


@dataclass
class _Clustered:
    """What the cluster phase hands the label phase, in every mode.

    ``retained`` are the clustered sample points (what the labeler keeps),
    ``positions`` their stream positions, ``clusters`` the kept clusters as
    indices into ``retained``, and ``pending`` the sorted stream positions
    of sampled points the labeler must still place (isolated or pruned).
    """

    retained: list[frozenset]
    positions: list[int]
    clusters: list[tuple]
    pending: list[int]
    rock_result: RockResult
    item_index: dict

    @classmethod
    def pool(cls, shards, clusters, rock_result, item_index) -> "_Clustered":
        """Concatenate shard outcomes; ``clusters`` index the pooled sample."""
        return cls(
            retained=[point for shard in shards for point in shard.clustered_sample],
            positions=[p for shard in shards for p in shard.clustered_positions],
            clusters=clusters,
            pending=sorted(
                {
                    position
                    for shard in shards
                    for position in itertools.chain(
                        shard.isolated_positions, shard.pruned_positions
                    )
                }
            ),
            rock_result=rock_result,
            item_index=item_index,
        )

    def labels(self, n_points: int) -> np.ndarray:
        """Labels before finalizing: kept-cluster ids at the retained points."""
        labels = np.full(n_points, -1, dtype=int)
        for label, members in enumerate(self.clusters):
            labels[[self.positions[i] for i in members]] = label
        return labels


# ---------------------------------------------------------------------- #
# Out-of-core sources and label bookkeeping
# ---------------------------------------------------------------------- #
def _pending_batches(batches, sample_set: set):
    """Yield ``(transactions, positions)`` of the non-sample stream points.

    Walks the normalised source batch by batch, skipping the stream
    positions in ``sample_set``; every out-of-core labelling/ingest path
    shares this iteration so the batch boundaries (and with them the
    bit-identical-labels contracts) can never drift apart.
    """
    position = 0
    for batch in batches():
        pending_batch: list[frozenset] = []
        pending_positions: list[int] = []
        for transaction in batch:
            if position not in sample_set:
                pending_batch.append(frozenset(transaction))
                pending_positions.append(position)
            position += 1
        if pending_batch:
            yield pending_batch, pending_positions


def _rebatch(transactions, batch_size: int):
    """Group an iterator of transactions into lists of ``batch_size``."""
    batch: list[frozenset] = []
    for transaction in transactions:
        batch.append(frozenset(transaction))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _transaction_batches(
    source,
    batch_size: int,
    delimiter: str | None = None,
    label_prefix: str | None = None,
):
    """Normalise a streaming source to ``(batch_factory, length_or_None)``.

    ``batch_factory`` is a zero-argument callable returning a fresh iterator
    of transaction batches on every call (streaming needs at least two
    passes: one to sample, one to label).  Supported sources: a transaction
    file path (read through :func:`repro.data.io.iter_transactions`, with
    ``delimiter``/``label_prefix`` applied on every pass), a zero-argument
    callable returning a fresh transaction iterator, or any in-memory shape
    :func:`repro.core.rock.as_transactions` accepts.  The reader options
    only make sense for a path source; passing them with any other source
    is rejected rather than silently ignored.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be positive, got %r" % batch_size)
    if isinstance(source, (str, os.PathLike)):
        return (
            lambda: iter_transactions(
                source, batch_size, delimiter=delimiter, label_prefix=label_prefix
            )
        ), None
    if delimiter is not None or label_prefix is not None:
        raise ConfigurationError(
            "delimiter/label_prefix only apply to file-path sources, got %r"
            % type(source).__name__
        )
    if callable(source):
        return (lambda: _rebatch(source(), batch_size)), None
    transactions = as_transactions(source)

    def factory():
        for start in range(0, len(transactions), batch_size):
            yield transactions[start:start + batch_size]

    return factory, len(transactions)


def _stream_length(batches, known_length: int | None) -> int:
    """Count the source (unless its length is known); reject an empty one."""
    if known_length is not None:
        n_points = known_length
    else:
        n_points = sum(len(batch) for batch in batches())
    _require_points(n_points)
    return n_points


def _require_points(n_points: int) -> None:
    if not n_points:
        raise DataValidationError("cannot cluster an empty streaming source")


def _check_sample_method(sample_method: str) -> None:
    if sample_method not in STREAMING_SAMPLE_METHODS:
        raise ConfigurationError(
            "unknown sample_method %r; expected one of %s"
            % (sample_method, ", ".join(STREAMING_SAMPLE_METHODS))
        )


@dataclass(kw_only=True)
class _StreamState:
    """Label bookkeeping of one out-of-core run (streaming, sharded, online).

    Holds the full-stream label array, the per-batch label chunks, the
    label-space offsets of online refreshes and the progress counters
    saying which pending payloads were already placed.  :meth:`payloads`
    walks the stream in the one order every out-of-core mode labels in —
    the non-sample remainder batch by batch, then the pending sample
    points as one final batch.  For online runs ``to_extra`` packs the
    state into the snapshot's caller-state slot and ``from_extra`` rebuilds
    it, so a resumed run continues exactly where the checkpoint left off.
    """

    KIND_REMAINDER: ClassVar[str] = "remainder"
    KIND_SAMPLE: ClassVar[str] = "sample"

    n_points: int
    labels: np.ndarray
    space_sizes: list[int]
    sample_indices: list[int]
    sample_pending: list[int]
    sample_pending_transactions: list[frozenset]
    has_remainder: bool
    rock_result: RockResult
    batch_size: int
    sample_method: str | None
    label_chunks: list[np.ndarray] = field(default_factory=list)
    labeled_indices: list[int] = field(default_factory=list)
    # Every refresh opens a fresh labelling space; global label ids are the
    # per-space labels shifted by the previous spaces' sizes, so
    # assignments from different spaces never collide.
    offsets: list[int] = field(default_factory=lambda: [0])
    remainder_done: int = 0
    sample_pending_done: bool = False

    @classmethod
    def start(
        cls,
        n_points: int,
        sample_indices: list[int],
        transaction_of: dict,
        clustered: _Clustered,
        batch_size: int,
        sample_method: str | None,
    ) -> "_StreamState":
        """Fresh bookkeeping right after the cluster phase."""
        return cls(
            n_points=n_points,
            labels=clustered.labels(n_points),
            space_sizes=[len(clustered.clusters)],
            sample_indices=list(sample_indices),
            sample_pending=clustered.pending,
            sample_pending_transactions=[
                transaction_of[i] for i in clustered.pending
            ],
            has_remainder=n_points > len(sample_indices),
            rock_result=clustered.rock_result,
            batch_size=int(batch_size),
            sample_method=sample_method,
        )

    def payloads(self, batches):
        """Yield every not-yet-placed ``(batch, positions, kind)`` payload."""
        if self.has_remainder:
            skip = self.remainder_done
            for index, (batch, positions) in enumerate(
                _pending_batches(batches, set(self.sample_indices))
            ):
                if index >= skip:
                    yield batch, positions, self.KIND_REMAINDER
        if self.sample_pending and not self.sample_pending_done:
            yield (
                self.sample_pending_transactions,
                self.sample_pending,
                self.KIND_SAMPLE,
            )

    def place(self, payload: Any, chunk: np.ndarray) -> None:
        """Record one payload's labels and advance the progress counters."""
        _batch, positions, kind = payload
        self.labels[positions] = chunk
        self.labeled_indices.extend(positions)
        self.label_chunks.append(chunk)
        if kind == self.KIND_REMAINDER:
            self.remainder_done += 1
        else:
            self.sample_pending_done = True

    def apply(self, session: IncrementalRock, payload: Any) -> None:
        """Ingest one payload into the live session and place its labels."""
        result = session.ingest(payload[0])
        chunk = result.labels.copy()
        chunk[chunk >= 0] += self.offsets[result.label_space]
        self.place(payload, chunk)
        if result.refreshed:
            self.offsets.append(self.offsets[-1] + self.space_sizes[-1])
            self.space_sizes.append(session.n_labeler_clusters)

    def labeling(self) -> LabelingResult | None:
        """The placed labels as one count-free result (``None``: none ran).

        Only the integer labels are kept across batches: a dense
        neighbour-count matrix would grow ``O(n_points * n_clusters)`` and
        break the bounded-memory contract.
        """
        if not self.label_chunks:
            return None
        labels = np.concatenate(self.label_chunks)
        return LabelingResult(
            labels=labels,
            neighbor_counts=np.zeros((0, 0), dtype=float),
            n_outliers=int(np.sum(labels == -1)),
        )

    def to_extra(self) -> dict:
        return {
            "online": {
                "n_points": self.n_points,
                "labels": self.labels.copy(),
                "label_chunks": [chunk.copy() for chunk in self.label_chunks],
                "labeled_indices": list(self.labeled_indices),
                "offsets": list(self.offsets),
                "space_sizes": list(self.space_sizes),
                "sample_indices": list(self.sample_indices),
                "sample_pending": list(self.sample_pending),
                "sample_pending_transactions": list(
                    self.sample_pending_transactions
                ),
                "has_remainder": self.has_remainder,
                "rock_result": self.rock_result,
                "batch_size": self.batch_size,
                "sample_method": self.sample_method,
                "remainder_done": self.remainder_done,
                "sample_pending_done": self.sample_pending_done,
            }
        }

    @classmethod
    def from_extra(cls, extra: dict | None) -> "_StreamState":
        stored = (extra or {}).get("online")
        if stored is None:
            raise SnapshotCorruptionError(
                "checkpoint carries no online-pipeline state — it was not "
                "written by run_online(snapshot_dir=...); resume the bare "
                "session through PersistentSession.resume instead"
            )
        return cls(**stored)


class RockPipeline:
    """Configurable sample/cluster/label ROCK pipeline.

    Parameters
    ----------
    n_clusters:
        Number of clusters requested from the agglomeration phase.
    theta:
        Similarity threshold.
    sample_size:
        Number of points to sample for the clustering phase; ``None`` (the
        default) clusters the whole data set.
    measure:
        Set-similarity measure; defaults to Jaccard.
    min_neighbors:
        Points with fewer neighbours than this within the sample are set
        aside before agglomeration (outlier pre-filter).  ``0`` disables the
        filter.
    min_cluster_size:
        Clusters smaller than this after agglomeration are dissolved and
        their points handed to the labelling pass (late-outlier handling).
        ``1`` disables the pruning.
    labeling_fraction:
        Fraction of each cluster used when labelling leftover points.
    exponent_function:
        ``f(theta)``; defaults to the paper's.
    assign_outliers:
        When ``True`` (the paper's behaviour and the default), points the
        labelling pass could not place (no neighbours in any cluster
        fraction) keep label ``-1``; when ``False`` they are force-assigned
        to the cluster with the highest raw neighbour count — with every
        count at zero that is the largest cluster — so no point is reported
        as an outlier by the labelling phase.
    engine:
        Agglomeration engine: a name registered in
        :mod:`repro.core.engines` (``"arena"``, ``"flat"``,
        ``"reference"``) or ``"auto"`` (the default), propagated to
        :class:`RockClustering` and to online sessions.
    neighbor_strategy, neighbor_block_size:
        Neighbour-backend selection (a registered backend name or
        ``"auto"``) and the blocked backend's row-block height, propagated
        to every :func:`repro.core.neighbors.compute_neighbors` call the
        pipeline makes (pre-filter, clustering, summary merge).
    labeling_strategy:
        Neighbour-counting strategy of the labelling pass, passed to
        :func:`repro.core.labeling.label_points`.
    rng:
        Random generator or seed used for sampling and labelling fractions.
    strict:
        Propagated to :class:`RockClustering`.

    Notes
    -----
    The constructor freezes every argument but ``rng`` into one
    :class:`PipelineParams` (:attr:`params`).  :meth:`run` builds the
    item-to-column index of the full data set once per run
    (:func:`repro.data.encoding.build_item_index`) and shares it with the
    vectorised neighbour and labelling phases.  The out-of-core modes build
    it over the sample only — remainder items outside it cannot intersect
    the sample and are handled by the labeler without changing any label —
    and :meth:`run_sharded` builds one per shard sample plus one over the
    pooled samples for the summary merge and the labelling pass.
    """

    def __init__(
        self,
        n_clusters: int,
        theta: float = 0.5,
        sample_size: int | None = None,
        measure: SetSimilarity | None = None,
        min_neighbors: int = 0,
        min_cluster_size: int = 1,
        labeling_fraction: float = 1.0,
        exponent_function: ExponentFunction | None = None,
        assign_outliers: bool = True,
        engine: str = DEFAULT_ENGINE,
        neighbor_strategy: str = "auto",
        neighbor_block_size: int | None = None,
        link_strategy: str = "auto",
        labeling_strategy: str = "auto",
        include_self_links: bool = True,
        rng: np.random.Generator | int | None = None,
        strict: bool = False,
    ) -> None:
        if sample_size is not None and sample_size < 1:
            raise ConfigurationError("sample_size must be positive or None")
        if min_neighbors < 0:
            raise ConfigurationError("min_neighbors must be non-negative")
        if min_cluster_size < 1:
            raise ConfigurationError("min_cluster_size must be at least 1")
        self.params = PipelineParams(
            n_clusters=int(n_clusters),
            theta=float(theta),
            sample_size=sample_size,
            measure=measure,
            min_neighbors=int(min_neighbors),
            min_cluster_size=int(min_cluster_size),
            labeling_fraction=float(labeling_fraction),
            exponent_function=exponent_function,
            assign_outliers=bool(assign_outliers),
            engine=validate_engine_name(engine),
            neighbor_strategy=neighbor_strategy,
            neighbor_block_size=neighbor_block_size,
            link_strategy=link_strategy,
            labeling_strategy=labeling_strategy,
            include_self_links=bool(include_self_links),
            strict=bool(strict),
        )
        self.rng = np.random.default_rng(rng)
        self._online_session: IncrementalRock | None = None
        self._online_store: PersistentSession | None = None

    # ------------------------------------------------------------------ #
    # Phase helpers shared by the entry points
    # ------------------------------------------------------------------ #
    def _labeling_kwargs(self, item_index: dict) -> dict[str, Any]:
        """Keyword arguments of every labeler the pipeline builds."""
        params = self.params
        return {
            "theta": params.theta,
            "measure": params.measure,
            "exponent_function": params.exponent_function,
            "labeling_fraction": params.labeling_fraction,
            "rng": self.rng,
            "strategy": params.labeling_strategy,
            "item_index": item_index,
            "assign_outliers": params.assign_outliers,
        }

    def _new_session(self, refresh_threshold: float | None, rng=None) -> IncrementalRock:
        return IncrementalRock(
            **self.params.kwargs_for(IncrementalRock),
            refresh_threshold=refresh_threshold,
            rng=rng,
        )

    def _cluster_one_sample(self, sample, positions, item_index, timings) -> _Clustered:
        """Cluster phase, single-sample variant."""
        shard, rock_result = cluster_sample(self.params, sample, positions, item_index)
        timings.update(shard.timings)
        return _Clustered.pool([shard], shard.clusters, rock_result, item_index)

    def _streamed_sample(
        self, batches, known_length: int | None, sample_method: str, timings: dict
    ) -> tuple[int, list[int], list[frozenset]]:
        """Sample phase of one out-of-core pass: exact or reservoir.

        ``"exact"`` counts the source (unless its length is known), draws
        the indices exactly as :meth:`run` does and collects them in a
        second pass; ``"reservoir"`` draws in one pass.  Returns
        ``(n_points, sample_indices, sample)``.
        """
        phase_start = time.perf_counter()
        if sample_method == "reservoir" and self.params.sample_size is not None:
            sample_indices, sample, n_points = reservoir_sample(
                itertools.chain.from_iterable(batches()),
                self.params.sample_size,
                rng=self.rng,
            )
            _require_points(n_points)
        else:
            n_points = _stream_length(batches, known_length)
            if self.params.samples_everything(n_points):
                sample_indices = list(range(n_points))
            else:
                sample_indices, _ = draw_sample(
                    range(n_points), self.params.sample_size, rng=self.rng
                )
            wanted = set(sample_indices)
            sample = [
                frozenset(transaction)
                for position, transaction in enumerate(
                    itertools.chain.from_iterable(batches())
                )
                if position in wanted
            ]
        timings["sampling"] = time.perf_counter() - phase_start
        return n_points, sample_indices, sample

    def _stream_and_cluster(
        self, batches, known_length, sample_method: str, batch_size: int, timings
    ) -> tuple[_StreamState, _Clustered]:
        """Sample and cluster phases of the single-sample out-of-core modes."""
        n_points, sample_indices, sample = self._streamed_sample(
            batches, known_length, sample_method, timings
        )
        clustered = self._cluster_one_sample(
            sample, sample_indices, build_item_index(sample), timings
        )
        state = _StreamState.start(
            n_points,
            sample_indices,
            dict(zip(sample_indices, sample)),
            clustered,
            batch_size,
            sample_method,
        )
        return state, clustered

    def _label_streamed(self, state: _StreamState, clustered: _Clustered, batches) -> None:
        """Label phase of streaming and sharded runs: one shared labeler."""
        if not (state.has_remainder or state.sample_pending):
            return
        labeler = StreamingLabeler(
            clustered.retained,
            clustered.clusters,
            **self._labeling_kwargs(clustered.item_index),
        )
        for payload in state.payloads(batches):
            state.place(payload, labeler.label_batch(payload[0]).labels)

    def _finalize(
        self,
        labels: np.ndarray,
        sample_indices: list[int],
        rock_result: RockResult,
        labeling: LabelingResult | None,
        labeled_indices: list[int] | None,
        timings: dict,
        total_start: float,
        extra_parameters: dict | None = None,
    ) -> RockPipelineResult:
        """Finalize phase: renumber by decreasing size, assemble the result.

        ``labels`` arrive in the pre-finalize label space — kept-cluster ids,
        offset per labelling space after online refreshes, where some ids
        may be unused — and the clusters are renumbered by decreasing size
        (ties: first member), fully vectorised since this walks the whole
        input.  ``labeling`` is remapped through the same permutation, and
        its ``neighbor_counts`` columns are permuted when it has rows.  Every
        kept cluster holds sample members, so some point is always placed.
        """
        n_points = labels.size
        placed = np.flatnonzero(labels >= 0)
        present, inverse = np.unique(labels[placed], return_inverse=True)
        sizes = np.bincount(inverse)
        first_member = np.full(present.size, n_points, dtype=np.int64)
        np.minimum.at(first_member, inverse, placed)
        order = np.lexsort((first_member, -sizes))
        # Lookup array over pre-finalize label ids -> final labels.
        new_label_of = np.full(int(present[-1]) + 1, -1)
        new_label_of[present[order]] = np.arange(present.size)
        final_labels = np.full(n_points, -1, dtype=int)
        final_labels[placed] = new_label_of[labels[placed]]
        by_label = placed[np.argsort(final_labels[placed], kind="stable")]
        clusters = [
            tuple(members.tolist())
            for members in np.split(by_label, np.cumsum(sizes[order])[:-1])
        ]

        if labeling is not None:
            remapped = labeling.labels.copy()
            hit = remapped >= 0
            remapped[hit] = new_label_of[remapped[hit]]
            counts = labeling.neighbor_counts
            labeling = LabelingResult(
                labels=remapped,
                neighbor_counts=(
                    counts[:, present[order]]
                    if counts.shape[0]
                    else np.zeros((0, present.size), dtype=float)
                ),
                n_outliers=int(np.sum(remapped == -1)),
            )

        timings["total"] = time.perf_counter() - total_start
        parameters: dict[str, object] = {
            name: getattr(self.params, name) for name in _REPORTED_PARAMETERS
        }
        parameters["merge_counters"] = dict(rock_result.merge_counters)
        parameters.update(extra_parameters or {})
        return RockPipelineResult(
            labels=final_labels,
            clusters=clusters,
            sample_indices=list(sample_indices),
            rock_result=rock_result,
            labeling_result=labeling,
            labeled_indices=labeled_indices,
            n_outliers=int(np.sum(final_labels == -1)),
            timings=timings,
            parameters=parameters,
        )

    def _finalize_stream(
        self, state: _StreamState, timings: dict, total_start: float, extra: dict
    ) -> RockPipelineResult:
        labeling = state.labeling()
        return self._finalize(
            state.labels,
            state.sample_indices,
            state.rock_result,
            labeling,
            list(state.labeled_indices) if labeling is not None else None,
            timings,
            total_start,
            extra,
        )

    # ------------------------------------------------------------------ #
    def run(self, data: Any) -> RockPipelineResult:
        """Execute the pipeline on an in-memory data set.

        Parameters
        ----------
        data:
            Transactions, a dataset object or a binary matrix — any shape
            :func:`repro.core.rock.as_transactions` accepts.

        Returns
        -------
        RockPipelineResult
            Labels over the full input (``-1`` marks outliers), cluster
            membership, the intermediate artefacts and per-phase timings.

        Raises
        ------
        DataValidationError
            When ``data`` is empty or of an unsupported shape.
        InsufficientLinksError
            In ``strict`` mode, when the requested number of clusters
            cannot be reached.
        """
        total_start = time.perf_counter()
        transactions = as_transactions(data)
        n_points = len(transactions)
        timings: dict[str, float] = {}
        # One item index for the whole run; every vectorised phase shares it.
        item_index = build_item_index(transactions)

        phase_start = time.perf_counter()
        if self.params.samples_everything(n_points):
            sample_indices, remainder = list(range(n_points)), []
        else:
            sample_indices, remainder = draw_sample(
                transactions, self.params.sample_size, rng=self.rng
            )
        sample = [transactions[i] for i in sample_indices]
        timings["sampling"] = time.perf_counter() - phase_start

        clustered = self._cluster_one_sample(sample, sample_indices, item_index, timings)

        phase_start = time.perf_counter()
        labels = clustered.labels(n_points)
        pending = sorted(set(remainder).union(clustered.pending))
        labeling = None
        if pending:
            labeling = label_points(
                [transactions[i] for i in pending],
                clustered.retained,
                clustered.clusters,
                **self._labeling_kwargs(item_index),
            )
            labels[pending] = labeling.labels
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize(
            labels,
            sample_indices,
            clustered.rock_result,
            labeling,
            pending if labeling is not None else None,
            timings,
            total_start,
        )

    # ------------------------------------------------------------------ #
    def run_streaming(
        self,
        source: Any,
        batch_size: int = 1024,
        sample_method: str = "exact",
        delimiter: str | None = None,
        label_prefix: str | None = None,
    ) -> RockPipelineResult:
        """Execute the pipeline out-of-core over a re-iterable ``source``.

        The streaming counterpart of :meth:`run` for data sets that never
        fit in memory at once.  Peak memory is bounded by the sample, the
        item index of the sample, and one batch of ``batch_size``
        transactions.

        Parameters
        ----------
        source:
            A transaction file path (one transaction per line, see
            :func:`repro.data.io.iter_transactions`), a zero-argument
            callable returning a fresh transaction iterator per call, or any
            in-memory shape :meth:`run` accepts.  The source is iterated two
            to three times (sampling passes plus the labelling pass), so
            one-shot iterators are not supported — wrap them in a callable
            that reopens the underlying stream.
        batch_size:
            Number of transactions held in memory per labelling batch.
            Larger batches amortise the sparse product better; memory grows
            linearly.  1024 is a good default; use 8192+ when batches are
            cheap relative to the sample.
        sample_method:
            ``"exact"`` (default) draws the sample exactly as :meth:`run`
            does (one counting pass, then :func:`draw_sample`), so the same
            data and seed produce bit-identical labels to :meth:`run`.
            ``"reservoir"`` uses single-pass reservoir sampling
            (:func:`repro.core.sampling.reservoir_sample`) instead, saving
            the counting pass at the cost of a differently drawn (still
            uniform) sample.
        delimiter, label_prefix:
            Parse options for a file-path ``source``, forwarded to
            :func:`repro.data.io.iter_transactions` on every pass —
            ``label_prefix`` tokens would otherwise be clustered as
            ordinary items.  Rejected for non-path sources.

        Returns
        -------
        RockPipelineResult
            The same result shape :meth:`run` produces, with
            ``parameters["streaming"]`` set.  ``labeling_result`` keeps only
            the per-point labels; its ``neighbor_counts`` matrix is left
            empty so result memory stays O(n) integers rather than
            O(n * n_clusters) floats.
        """
        _check_sample_method(sample_method)
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )
        state, clustered = self._stream_and_cluster(
            batches, known_length, sample_method, batch_size, timings
        )
        phase_start = time.perf_counter()
        self._label_streamed(state, clustered, batches)
        timings["labeling"] = time.perf_counter() - phase_start
        return self._finalize_stream(
            state,
            timings,
            total_start,
            {
                "streaming": True,
                "batch_size": int(batch_size),
                "sample_method": sample_method,
            },
        )

    # ------------------------------------------------------------------ #
    @property
    def online_session(self) -> IncrementalRock | None:
        """The live :class:`IncrementalRock` session of the last
        :meth:`run_online` call, or ``None`` before one ran."""
        return self._online_session

    @property
    def online_store(self) -> PersistentSession | None:
        """The durable store of the last ``run_online(snapshot_dir=...)``
        call, or ``None`` when the run was not persisted.  Post-run
        :meth:`ingest` calls are *not* logged through it automatically;
        drive the store's own ``ingest`` for durable post-run batches."""
        return self._online_store

    def ingest(self, batch: Any) -> IngestResult:
        """Feed one more batch into the live online session.

        Requires a prior :meth:`run_online` on this pipeline.  The batch is
        labelled through the session's current
        :class:`~repro.core.labeling.StreamingLabeler` and spliced into the
        live clustering (triggering a refresh when drift exceeds the
        session's threshold).  The returned labels are in the session's
        *current* labelling space — the bootstrap clusters until the first
        refresh, the refreshed clusters afterwards (see
        :class:`repro.core.incremental.IngestResult`); the final
        :class:`RockPipelineResult` numbering is a size-ordered view of
        those spaces.
        """
        if self._online_session is None:
            raise ConfigurationError(
                "no live online session; call run_online(source) before "
                "ingest(batch)"
            )
        return self._online_session.ingest(batch)

    def online_expected_config(self, refresh_threshold: float | None = None) -> dict:
        """The session config a checkpoint must match to be resumed here.

        Public because the serving front end (``repro serve --resume``)
        guards its own :meth:`~repro.serve.server.ReproServer.resume` with
        the same config the pipeline would enforce — resuming a served
        session under different parameters would silently break the
        served ≡ ``run_online`` contract.  It is the
        :meth:`~repro.core.incremental.IncrementalRock.config_dict` of the
        session :meth:`run_online` would build, so it matches what every
        checkpoint records by construction.
        """
        return self._new_session(refresh_threshold).config_dict()

    # ------------------------------------------------------------------ #
    def run_online(
        self,
        source: Any,
        batch_size: int = 1024,
        refresh_threshold: float | None = None,
        sample_method: str = "exact",
        delimiter: str | None = None,
        label_prefix: str | None = None,
        snapshot_dir: str | os.PathLike | None = None,
        snapshot_every: int | None = None,
        resume: bool = False,
    ) -> RockPipelineResult:
        """Execute the pipeline in online-ingest mode over ``source``.

        The online counterpart of :meth:`run_streaming`: the sample is
        drawn and clustered exactly as there, but the clustering then
        *bootstraps* an :class:`repro.core.incremental.IncrementalRock`
        session and the disk-resident remainder is **ingested** batch by
        batch — each batch is labelled through the shared
        :class:`~repro.core.labeling.StreamingLabeler` *and* spliced into
        the live link matrix, heaps and clusters, so the clustering keeps
        absorbing the stream.  After the run returns, :meth:`ingest`
        keeps accepting new batches against the same session
        (:attr:`online_session`).

        Parameters are those of :meth:`run_streaming` plus
        ``refresh_threshold``: when the fraction of points inserted since
        the last full clustering exceeds it, the session re-clusters every
        live point from the maintained link matrix and subsequent batches
        are labelled against the refreshed clusters.  ``None`` (the
        default) never refreshes.

        Determinism: without a refresh trigger the labels are
        **bit-identical** to :meth:`run_streaming` on the same data and
        seed, for any ``batch_size`` (the labeler is constructed at the
        same point of the generator sequence and ingest consumes no
        randomness).  With refreshes, the run is seed-reproducible for a
        given batch split; labels assigned after a refresh live in the
        refreshed clustering's space and the final numbering is a
        size-ordered view over all assignments
        (``parameters["n_refreshes"]`` reports how many happened).

        Durability: with ``snapshot_dir`` the run becomes crash-safe — every
        ingested batch is appended to a write-ahead log *before* it mutates
        the session and a checksummed checkpoint of the full session (plus
        the pipeline's label bookkeeping) is written atomically every
        ``snapshot_every`` batches and at the end of the run.  With
        ``resume=True`` and a durable checkpoint present, the sampling and
        clustering phases are skipped entirely: the session is restored from
        the checkpoint, the WAL tail is replayed, and only the not-yet-
        ingested batches of ``source`` are processed — the final result is
        bit-identical to the uninterrupted run (``source``, ``batch_size``
        and the session parameters must match; mismatches raise
        :class:`~repro.errors.SnapshotConfigMismatchError`).  ``resume=True``
        with no checkpoint on disk simply runs fresh, so a crash-recovery
        loop can pass it unconditionally.

        Returns
        -------
        RockPipelineResult
            The shared result shape with ``parameters["online"]`` set.
            ``rock_result`` describes the bootstrap clustering of the
            sample; ``labeling_result`` keeps only the per-point labels
            (empty ``neighbor_counts``), like :meth:`run_streaming`.
        """
        _check_sample_method(sample_method)
        refresh_threshold = validate_refresh_threshold(refresh_threshold)
        if snapshot_dir is None and snapshot_every is not None:
            raise ConfigurationError(
                "snapshot_every requires snapshot_dir (there is nowhere to "
                "write the checkpoints)"
            )
        if snapshot_dir is None and resume:
            raise ConfigurationError(
                "resume=True requires snapshot_dir (there is nothing to "
                "resume from)"
            )
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )
        if resume and PersistentSession.can_resume(snapshot_dir):
            # Recovery: restore the last durable checkpoint (session + label
            # bookkeeping) and replay the WAL tail — no re-sampling, no
            # re-clustering, no generator divergence.
            store = PersistentSession.resume(
                snapshot_dir,
                snapshot_every=snapshot_every,
                measure=self.params.measure,
                exponent_function=self.params.exponent_function,
                expected_config=self.online_expected_config(refresh_threshold),
                defer_replay=True,
            )
            session = store.session
            state = _StreamState.from_extra(store.extra)
            if state.batch_size != int(batch_size) or state.sample_method != sample_method:
                raise SnapshotConfigMismatchError(
                    "checkpoint in %s was written with batch_size=%d, "
                    "sample_method=%r but the resume requested batch_size=%d, "
                    "sample_method=%r — the stream split must match for the "
                    "resumed labels to stay identical"
                    % (
                        snapshot_dir,
                        state.batch_size,
                        state.sample_method,
                        int(batch_size),
                        sample_method,
                    )
                )
            phase_start = time.perf_counter()
            store.replay_pending(lambda payload: state.apply(session, payload))
        else:
            state, clustered = self._stream_and_cluster(
                batches, known_length, sample_method, batch_size, timings
            )
            phase_start = time.perf_counter()
            session = self._new_session(refresh_threshold, rng=self.rng)
            session.bootstrap(
                clustered.retained, clustered.clusters, item_index=clustered.item_index
            )
            store = None
            if snapshot_dir is not None:
                store = PersistentSession.create(
                    snapshot_dir,
                    session,
                    snapshot_every=snapshot_every,
                    extra=state.to_extra(),
                )
        self._online_session = session
        self._online_store = store

        # Each payload is WAL-logged before the splice; a checkpoint is
        # written every ``snapshot_every`` applied batches and at the end.
        for payload in state.payloads(batches):
            if store is not None:
                store.log(payload)
            state.apply(session, payload)
            if store is not None:
                store.batch_applied(state.to_extra)
        if store is not None:
            store.close(extra=state.to_extra())
        timings["labeling"] = time.perf_counter() - phase_start

        return self._finalize_stream(
            state,
            timings,
            total_start,
            {
                "online": True,
                "batch_size": state.batch_size,
                "sample_method": state.sample_method,
                "refresh_threshold": refresh_threshold,
                "n_refreshes": session.n_refreshes,
                "refresh_merge_counters": dict(session.last_refresh_counters),
            },
        )

    # ------------------------------------------------------------------ #
    def run_sharded(
        self,
        source: Any,
        n_shards: int,
        batch_size: int = 1024,
        shard_workers: int | None = None,
        shard_strategy: str = DEFAULT_SHARD_STRATEGY,
        shard_executor: str = DEFAULT_SHARD_EXECUTOR,
        shard_retries: int = 1,
        merge_fan_in: int | None = None,
        representatives_per_cluster: int | str = 16,
        delimiter: str | None = None,
        label_prefix: str | None = None,
    ) -> RockPipelineResult:
        """Execute the pipeline with a sharded clustering phase.

        The scale-out counterpart of :meth:`run_streaming` for data whose
        *sample* no longer fits one agglomeration: the source is
        partitioned into ``n_shards`` shards (:class:`ShardPlan`), every
        shard draws and clusters its own slice of the sample budget
        (optionally in parallel), the per-shard cluster summaries are
        merged into the final global clustering by the weighted
        summary-merge agglomeration
        (:func:`repro.core.sharding.merge_shard_summaries`), and the full
        source is labelled batch by batch through one
        :class:`repro.core.labeling.StreamingLabeler` exactly as in
        :meth:`run_streaming`.

        Peak memory is bounded by the pooled per-shard samples (together
        at most ``sample_size`` points — the same bound as streaming), the
        largest single-shard clustering state, and one batch.

        Parameters
        ----------
        source:
            Any source :meth:`run_streaming` accepts (a transaction file
            path, a zero-argument iterator factory, or an in-memory
            collection); it is iterated several times (counting, sampling
            and labelling passes).
        n_shards:
            Number of clustering shards.  ``1`` runs the streaming sample
            and cluster phases, so the labels are bit-identical to
            :meth:`run_streaming` on the same data and seed.
        batch_size:
            Transactions per labelling batch (see :meth:`run_streaming`).
        shard_workers:
            Maximum number of workers clustering shards concurrently;
            ``None`` or ``1`` clusters serially on the thread executor.
            Shard clustering consumes no shared random state, so the
            worker count never changes the result.
        shard_strategy:
            Partitioning strategy — ``"round-robin"`` (default),
            ``"contiguous"`` or ``"hash"``; see :class:`ShardPlan`.
        shard_executor:
            ``"thread"`` (default), ``"process"`` or ``"auto"`` — see
            :func:`repro.core.sharding.resolve_shard_executor`.  The
            process executor escapes the GIL by clustering shards in
            spawn-based worker processes that attach each shard's
            incidence from shared memory; its labels are bit-identical to
            the thread executor's on the same data and seed.
        shard_retries:
            How many times a failed shard worker is re-attempted before
            the shard is skipped (degraded run) or, in ``strict`` mode,
            the run fails.  A shard that fails and then succeeds on a
            retry yields labels bit-identical to a fault-free run: the
            shard's sample (and every random draw) happened before the
            worker started.
        merge_fan_in:
            When set (at least 2), the summary merge is hierarchical:
            per-shard summary groups are merged ``merge_fan_in`` units at
            a time, then groups of groups, until one final merge produces
            the global clusters (see :func:`merge_shard_summaries`).
            ``None`` keeps the flat merge.
        representatives_per_cluster:
            Upper bound on the member transactions each per-shard cluster
            contributes to the summary-merge link estimate, or
            ``"auto"`` for a per-summary adaptive budget
            (:func:`repro.core.sharding.adaptive_representative_bounds`).
        delimiter, label_prefix:
            Parse options for a file-path ``source`` (see
            :meth:`run_streaming`).

        Returns
        -------
        RockPipelineResult
            The shared result shape, with ``parameters["sharded"]`` set and
            the same parameter keys for every shard count (one shard
            reports ``merge_levels=0`` and no skipped shards).  Multi-shard
            runs extend ``timings`` by ``"shard_clustering"`` and
            ``"merge"``; their ``rock_result`` describes the merged
            clustering over the pooled shard samples, with a ``criterion``
            evaluated on the summary representatives, not the full pooled
            link matrix.

        Raises
        ------
        ConfigurationError
            For a non-positive ``n_shards``/``shard_workers``, an unknown
            ``shard_strategy``/``shard_executor``, invalid summary-merge
            options (checked before any pass over the source) or invalid
            streaming options.
        DataValidationError
            When the source is empty.
        InsufficientLinksError
            In ``strict`` mode, when a shard or the summary merge cannot
            reach its requested cluster count.
        """
        n_shards = int(n_shards)
        if n_shards < 1:
            raise ConfigurationError(
                "n_shards must be at least 1, got %r" % n_shards
            )
        if shard_strategy not in SHARD_STRATEGIES:
            raise ConfigurationError(
                "unknown shard strategy %r; expected one of %s"
                % (shard_strategy, ", ".join(SHARD_STRATEGIES))
            )
        validate_merge_options(merge_fan_in, representatives_per_cluster)
        # Resolved here (not just in cluster_shards) so an unknown name
        # fails fast on every path and the resolved choice is reportable.
        executor = resolve_shard_executor(shard_executor, shard_workers, self.params)
        if shard_retries < 0:
            raise ConfigurationError(
                "shard_retries must be non-negative, got %r" % shard_retries
            )
        total_start = time.perf_counter()
        timings: dict[str, float] = {}
        batches, known_length = _transaction_batches(
            source, batch_size, delimiter=delimiter, label_prefix=label_prefix
        )
        if n_shards == 1:
            state, clustered = self._stream_and_cluster(
                batches, known_length, "exact", batch_size, timings
            )
            merge_levels, skipped_shards = 0, []
        else:
            n_points, shard_samples, merge_rng = self._shard_sample(
                batches, known_length, n_shards, shard_strategy, timings
            )
            clustered, merge_levels, skipped_shards = self._cluster_shards(
                shard_samples,
                merge_rng,
                shard_workers,
                shard_retries,
                executor,
                merge_fan_in,
                representatives_per_cluster,
                timings,
            )
            state = _StreamState.start(
                n_points,
                sorted(p for _, positions in shard_samples for p in positions),
                {
                    position: transaction
                    for sample, positions in shard_samples
                    for position, transaction in zip(positions, sample)
                },
                clustered,
                batch_size,
                None,
            )
        phase_start = time.perf_counter()
        self._label_streamed(state, clustered, batches)
        timings["labeling"] = time.perf_counter() - phase_start
        return self._finalize_stream(
            state,
            timings,
            total_start,
            {
                "sharded": True,
                "n_shards": n_shards,
                "shard_strategy": shard_strategy,
                "shard_workers": shard_workers,
                "shard_executor": executor,
                "shard_retries": int(shard_retries),
                "merge_fan_in": merge_fan_in,
                "merge_levels": merge_levels,
                "batch_size": int(batch_size),
                "representatives_per_cluster": (
                    representatives_per_cluster
                    if isinstance(representatives_per_cluster, str)
                    else int(representatives_per_cluster)
                ),
                "skipped_shards": skipped_shards,
            },
        )

    def _shard_sample(
        self, batches, known_length, n_shards: int, shard_strategy: str, timings
    ) -> tuple[int, list, np.random.Generator]:
        """Sample phase, shard-allocated variant: plan, allocate, draw.

        Returns ``(n_points, shard_samples, merge_rng)``.  One seed per
        shard plus one for the representative selection are drawn from the
        pipeline generator in a fixed order, so the same pipeline seed
        reproduces the same run regardless of worker count or completion
        order.
        """
        phase_start = time.perf_counter()
        if shard_strategy == HASH_SHARD_STRATEGY:
            plan = ShardPlan(n_shards, shard_strategy)
            shard_sizes, n_points = count_shard_sizes(batches, plan)
            _require_points(n_points)
        else:
            n_points = _stream_length(batches, known_length)
            plan = ShardPlan(n_shards, shard_strategy, n_points=n_points)
            shard_sizes = plan.positional_shard_sizes()
        if self.params.samples_everything(n_points):
            sample_sizes = list(shard_sizes)
        else:
            sample_sizes = allocate_sample_sizes(shard_sizes, self.params.sample_size)
        seeds = self.rng.integers(0, 2**63 - 1, size=n_shards + 1)
        shard_rngs = [np.random.default_rng(int(seed)) for seed in seeds[:-1]]
        shard_samples = build_shard_samples(
            batches, plan, shard_sizes, sample_sizes, shard_rngs
        )
        timings["sampling"] = time.perf_counter() - phase_start
        return n_points, shard_samples, np.random.default_rng(int(seeds[-1]))

    def _cluster_shards(
        self,
        shard_samples,
        merge_rng,
        shard_workers,
        shard_retries,
        executor,
        merge_fan_in,
        representatives_per_cluster,
        timings,
    ) -> tuple[_Clustered, int, list[int]]:
        """Cluster phase, sharded variant: every shard, then the summary merge.

        Returns the pooled :class:`_Clustered`, the number of merge levels
        and the skipped shard ids.
        """
        params = self.params
        phase_start = time.perf_counter()

        def cluster_one(shard_id, sample, positions) -> ShardClusterResult:
            return cluster_sample(
                params, sample, positions, build_item_index(sample), shard_id
            )[0]

        shard_results = cluster_shards(
            shard_samples,
            cluster_one,
            shard_workers,
            retries=shard_retries,
            strict=params.strict,
            executor=executor,
            worker_config=params,
        )
        timings["neighbors"] = sum(
            result.timings.get("neighbors", 0.0) for result in shard_results
        )
        timings["shard_clustering"] = time.perf_counter() - phase_start

        merge_start = time.perf_counter()
        pooled_sample: list[frozenset] = []
        summaries: list[tuple] = []
        summary_groups: list[list[int]] = []
        for result in shard_results:
            offset = len(pooled_sample)
            first_summary = len(summaries)
            pooled_sample.extend(result.clustered_sample)
            summaries.extend(
                tuple(offset + member for member in cluster)
                for cluster in result.clusters
            )
            # One level-0 unit per surviving shard: the hierarchical merge
            # combines shard groups, then groups of groups.
            summary_groups.append(list(range(first_summary, len(summaries))))
        item_index = build_item_index(pooled_sample)
        merge = merge_shard_summaries(
            pooled_sample,
            summaries,
            params.n_clusters,
            params.theta,
            measure=params.measure,
            exponent_function=params.exponent_function,
            representatives_per_cluster=representatives_per_cluster,
            rng=merge_rng,
            neighbor_strategy=params.neighbor_strategy,
            neighbor_block_size=params.neighbor_block_size,
            link_strategy=params.link_strategy,
            include_self_links=params.include_self_links,
            item_index=item_index,
            fan_in=merge_fan_in,
            summary_groups=summary_groups if merge_fan_in is not None else None,
        )
        if merge.stopped_early and params.strict:
            raise InsufficientLinksError(
                "summary merge: no cross-summary links remain with %d global "
                "clusters (requested %d); lower theta, reduce n_clusters or "
                "use fewer shards" % (len(merge.groups), params.n_clusters)
            )
        kept_clusters = [
            tuple(index for summary_id in group for index in summaries[summary_id])
            for group in merge.groups
        ]
        timings["merge"] = time.perf_counter() - merge_start
        timings["clustering"] = time.perf_counter() - phase_start

        # The merged clustering over the pooled shard samples, in the
        # RockResult shape the in-memory entry points produce.
        pooled_clusters = [tuple(sorted(members)) for members in kept_clusters]
        pooled_clusters.sort(key=lambda cluster: (-len(cluster), cluster[0]))
        pooled_labels = np.full(len(pooled_sample), -1, dtype=int)
        for label, members in enumerate(pooled_clusters):
            pooled_labels[list(members)] = label
        rock_result = RockResult(
            labels=pooled_labels,
            clusters=pooled_clusters,
            merge_history=merge.merge_history,
            n_clusters=len(pooled_clusters),
            criterion=merge.criterion,
            theta=params.theta,
            stopped_early=merge.stopped_early,
            elapsed_seconds=timings["merge"],
        )
        clustered = _Clustered.pool(shard_results, kept_clusters, rock_result, item_index)
        return clustered, merge.levels, list(shard_results.skipped_shards)


def rock_cluster(
    data: Any,
    n_clusters: int,
    theta: float = 0.5,
    **pipeline_kwargs: Any,
) -> RockPipelineResult:
    """Convenience function: run the ROCK pipeline with one call.

    Parameters
    ----------
    data:
        Transactions, a dataset object or a binary matrix (see
        :func:`repro.core.rock.as_transactions`).
    n_clusters:
        Number of clusters requested.
    theta:
        Similarity threshold.
    **pipeline_kwargs:
        Any other :class:`RockPipeline` constructor argument.

    Returns
    -------
    RockPipelineResult
    """
    pipeline = RockPipeline(n_clusters=n_clusters, theta=theta, **pipeline_kwargs)
    return pipeline.run(data)
