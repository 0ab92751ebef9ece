"""Spawn-safe process worker for the sharded clustering phase.

:func:`cluster_shards` with ``executor="process"`` cannot ship the
pipeline's ``cluster_one`` closure across a process boundary, so the
process path runs this module instead: the pipeline's frozen
:class:`~repro.core.pipeline.PipelineParams` carries the clustering
parameters, the shard sample crosses as a
:class:`repro.data.encoding.SharedIncidenceRef` (workers attach the
published incidence read-only and decode it back to integer-coded
transactions), and the worker calls the *same*
:func:`~repro.core.pipeline.cluster_sample` phase the thread path runs.

Clustering the integer-coded rows with the identity item index is
bit-identical to clustering the original item sets: the parent encoded
the shard sample through :func:`repro.data.encoding.build_item_index`
(repr-sorted columns), every similarity measure depends only on set
sizes, and every agglomeration tie-break is row-index based — so the
executor choice never changes a label (enforced by the equivalence
tests).

Everything here must stay importable from a fresh ``spawn`` interpreter:
no closures, no module-level pipeline imports (broken cycles aside, a
worker should not pay for the full pipeline import before it knows it
has work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.encoding import SharedIncidenceRef, attach_shared_transactions
from repro.persistence.failpoints import InjectedFaultError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.pipeline import PipelineParams


@dataclass(frozen=True)
class ShardTask:
    """One shard's process-executor work item.

    ``inject`` names a failpoint the parent consumed for this attempt;
    the worker re-raises it *inside* the child so fault-injection tests
    exercise the real cross-process error channel while the ``*N``
    budget semantics stay independent of the worker/process count.
    """

    shard_id: int
    ref: SharedIncidenceRef
    inject: str | None = None


@dataclass
class CompactShardResult:
    """Index-level outcome of one shard, cheap to pickle back.

    Every index is a position in the shard sample the parent already
    holds (the participating points in clustering order, the isolated and
    the pruned points); cluster members index the participating points.
    The parent reconstitutes the full
    :class:`~repro.core.sharding.ShardClusterResult` without any
    transaction contents crossing the pipe.
    """

    shard_id: int
    participating: list[int]
    isolated: list[int]
    clusters: list[tuple]
    pruned: list[int]
    timings: dict[str, float] = field(default_factory=dict)


def cluster_shard_task(
    params: PipelineParams, task: ShardTask
) -> CompactShardResult:
    """Run the per-shard cluster phase in the current process.

    The module-level entry point submitted to the process pool: attach
    the published incidence, decode the integer-coded sample, run
    :func:`~repro.core.pipeline.cluster_sample` with sample-local
    positions and return the compact index-level result.
    """
    # Imported lazily: the pipeline imports the sharding layer, which
    # names this module, and a spawn child should not import the pipeline
    # stack until it actually has a task.
    from repro.core.pipeline import cluster_sample

    if task.inject is not None:
        raise InjectedFaultError(task.inject)
    sample = attach_shared_transactions(task.ref)
    identity_index = {code: code for code in range(task.ref.n_items)}
    shard, _rock_result = cluster_sample(
        params, sample, range(len(sample)), identity_index, task.shard_id
    )
    return CompactShardResult(
        shard_id=task.shard_id,
        participating=shard.clustered_positions,
        isolated=shard.isolated_positions,
        clusters=[tuple(int(m) for m in members) for members in shard.clusters],
        pruned=shard.pruned_positions,
        timings=shard.timings,
    )
