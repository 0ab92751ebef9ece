"""Span recorder and the wrappers that attribute time to the program's layers.

The benchmark times each layer from the outside: it replaces the name a
caller binds (``repro.core.pipeline.label_points``,
``repro.core.rock.compute_neighbors``, ...) with a wrapper that opens a span
around the original call.  The program's own source is never edited and
its results are unchanged, which the benchmark checks by comparing label
digests of traced and untraced runs.

Spans nest per thread.  A span's *self time* is its duration minus the
durations of the spans opened inside it on the same thread, so a layer's
total never counts time that a nested layer already claimed.  Spans opened
on worker threads (shard clustering) have no parent on the calling thread;
their sums are busy time, reported apart from the wall time of the call
that waited for them.
"""

from __future__ import annotations

import importlib
import resource
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def maxrss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("layer", "start", "end", "child_s", "rss_growth_mb")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.start = time.perf_counter()
        self.end = self.start
        self.child_s = 0.0
        self.rss_growth_mb = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Keeps spans and counters in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    @contextmanager
    def span(self, layer: str, track_rss: bool = False):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = Span(layer)
        rss_before = maxrss_mb() if track_rss else 0.0
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += record.duration
            if track_rss:
                record.rss_growth_mb = maxrss_mb() - rss_before
            with self._lock:
                self.spans.append(record)

    # ------------------------------------------------------------------ #
    def of(self, layer: str) -> list[Span]:
        return [span for span in self.spans if span.layer == layer]

    def self_s(self, layer: str) -> float:
        return sum(span.self_s for span in self.of(layer))

    def wall_s(self, layer: str) -> float:
        return sum(span.duration for span in self.of(layer))

    def rss_growth_mb(self, layer: str) -> float:
        return sum(span.rss_growth_mb for span in self.of(layer))

    def totals(self) -> dict:
        """Per-layer span count, self time and wall time (for the record)."""
        summary: dict[str, dict] = {}
        for span in self.spans:
            entry = summary.setdefault(span.layer, {"spans": 0, "self_s": 0.0, "wall_s": 0.0})
            entry["spans"] += 1
            entry["self_s"] += span.self_s
            entry["wall_s"] += span.duration
        return summary


class Patcher:
    """Replaces module attributes and puts the originals back on restore."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, target, name: str, make_wrapper) -> None:
        if isinstance(target, str):
            target = importlib.import_module(target)
        original = getattr(target, name)
        self._saved.append((target, name, original))
        setattr(target, name, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


def _timed(tracer: Tracer, layer: str, track_rss: bool = False, after=None):
    """Wrapper factory: one span per call; ``after(result, args, kwargs)``."""

    def make(original):
        def wrapper(*args, **kwargs):
            with tracer.span(layer, track_rss=track_rss):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    return make


# ---------------------------------------------------------------------- #
# Batch pipeline layers
# ---------------------------------------------------------------------- #
def install_pipeline_wrappers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the layer entry points the in-memory and sharded runs call."""
    pipeline = "repro.core.pipeline"

    def timed_batches(original):
        # iter_transactions is a generator function: parsing happens on each
        # next(), so every pull is its own io span and each call is a pass.
        def wrapper(*args, **kwargs):
            tracer.add("io.passes", 1)
            iterator = original(*args, **kwargs)
            while True:
                with tracer.span("io"):
                    batch = next(iterator, None)
                if batch is None:
                    return
                yield batch

        return wrapper

    patcher.patch(pipeline, "iter_transactions", timed_batches)
    patcher.patch(pipeline, "build_item_index", _timed(tracer, "encoding"))
    for name in ("draw_sample", "reservoir_sample", "build_shard_samples"):
        patcher.patch(pipeline, name, _timed(tracer, "sampling"))

    def count_edges(graph, args, kwargs):
        tracer.add("neighbors.edges", graph.n_edges())

    def count_nnz(links, args, kwargs):
        tracer.add("links.nnz", links.nnz)

    for module in ("repro.core.rock", pipeline, "repro.core.sharding"):
        patcher.patch(
            module,
            "compute_neighbors",
            _timed(tracer, "neighbors", track_rss=True, after=count_edges),
        )
    for module in ("repro.core.rock", "repro.core.sharding"):
        patcher.patch(module, "links_from_neighbors", _timed(tracer, "links", after=count_nnz))

    def traced_engine(get_engine):
        class TracedEngine:
            def __init__(self, engine):
                self._engine = engine

            def agglomerate(self, *args, **kwargs):
                with tracer.span("agglomerate"):
                    run = self._engine.agglomerate(*args, **kwargs)
                # The same counters RockResult.merge_counters carries.
                for key in ("merges", "selection_scans", "rescan_cells"):
                    tracer.add("agglomerate." + key, run.counters.get(key, 0))
                return run

        return lambda name: TracedEngine(get_engine(name))

    patcher.patch("repro.core.rock", "get_engine", traced_engine)

    def count_labels(result, args, kwargs):
        tracer.add("labeling.points", len(result.labels))
        tracer.add("labeling.outliers", result.n_outliers)
        tracer.add("labeling.batches", 1)

    patcher.patch(
        pipeline,
        "label_points",
        _timed(tracer, "labeling", track_rss=True, after=count_labels),
    )

    def traced_labeler(labeler_class):
        class TracedStreamingLabeler(labeler_class):
            def __init__(self, *args, **kwargs):
                with tracer.span("labeling", track_rss=True):
                    super().__init__(*args, **kwargs)

            def label_batch(self, batch):
                with tracer.span("labeling", track_rss=True):
                    result = super().label_batch(batch)
                count_labels(result, (), {})
                return result

        return TracedStreamingLabeler

    patcher.patch(pipeline, "StreamingLabeler", traced_labeler)

    def traced_cluster_shards(original):
        def wrapper(shard_samples, cluster_one, shard_workers, **kwargs):
            def traced_one(*args):
                with tracer.span("shard"):
                    return cluster_one(*args)

            tracer.add("sharding.workers", max(1, int(shard_workers or 1)))
            with tracer.span("sharding"):
                return original(shard_samples, traced_one, shard_workers, **kwargs)

        return wrapper

    patcher.patch(pipeline, "cluster_shards", traced_cluster_shards)

    def count_levels(merge, args, kwargs):
        tracer.add("sharding.merge_levels", merge.levels)

    patcher.patch(
        pipeline,
        "merge_shard_summaries",
        _timed(tracer, "summary_merge", after=count_levels),
    )


def pipeline_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pipeline run (``pipeline`` root span)."""
    counts = tracer.counts
    labeling_s = tracer.self_s("labeling")
    points = counts["labeling.points"]
    shard_busy = [span.duration for span in tracer.of("shard")]
    sharding_wall = tracer.wall_s("sharding")
    workers = counts["sharding.workers"] or 1.0
    busy = sum(shard_busy)
    return {
        "io.parse_s": tracer.self_s("io"),
        "io.passes": counts["io.passes"],
        "sampling.s": tracer.self_s("sampling"),
        "encoding.item_index_s": tracer.self_s("encoding"),
        "neighbors.s": tracer.self_s("neighbors"),
        "neighbors.edges": counts["neighbors.edges"],
        "neighbors.maxrss_growth_mb": tracer.rss_growth_mb("neighbors"),
        "links.s": tracer.self_s("links"),
        "links.nnz": counts["links.nnz"],
        "agglomerate.s": tracer.self_s("agglomerate"),
        "agglomerate.merges": counts["agglomerate.merges"],
        "agglomerate.selection_scans": counts["agglomerate.selection_scans"],
        "agglomerate.rescan_cells": counts["agglomerate.rescan_cells"],
        "labeling.s": labeling_s,
        "labeling.points": points,
        "labeling.points_per_s": points / labeling_s if labeling_s > 0 else 0.0,
        "labeling.batches": counts["labeling.batches"],
        "labeling.outlier_frac": counts["labeling.outliers"] / points if points else 0.0,
        "labeling.maxrss_growth_mb": tracer.rss_growth_mb("labeling"),
        "sharding.wall_s": sharding_wall,
        "sharding.busy_s": busy,
        "sharding.parallel_eff": busy / (sharding_wall * workers) if sharding_wall > 0 else 0.0,
        "sharding.skew": max(shard_busy) / (busy / len(shard_busy)) if busy > 0 else 0.0,
        "sharding.merge_s": tracer.self_s("summary_merge"),
        "sharding.merge_levels": counts["sharding.merge_levels"],
        "pipeline.unattributed_s": tracer.self_s("pipeline"),
    }


# ---------------------------------------------------------------------- #
# Served session layers (installed inside the server process)
# ---------------------------------------------------------------------- #
def install_serve_wrappers(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the incremental session, the WAL and checkpoints in a server.

    Spans recorded while the session bootstraps are dropped when the server
    starts listening, so the totals cover the served traffic only.
    """
    from repro.core.incremental import IncrementalRock
    from repro.persistence.session import PersistentSession
    from repro.persistence.wal import WriteAheadLog
    from repro.serve.server import ReproServer

    patcher.patch(IncrementalRock, "ingest", _timed(tracer, "incremental.ingest"))
    patcher.patch(IncrementalRock, "label_only", _timed(tracer, "incremental.label_only"))

    def count_evicted(evicted, args, kwargs):
        tracer.add("incremental.evicted", evicted)

    patcher.patch(
        IncrementalRock, "evict_oldest", _timed(tracer, "incremental.evict", after=count_evicted)
    )
    patcher.patch(WriteAheadLog, "append", _timed(tracer, "persistence.wal_append"))
    patcher.patch(PersistentSession, "snapshot", _timed(tracer, "persistence.checkpoint"))

    def clear_on_start(start):
        async def wrapper(self, *args, **kwargs):
            address = await start(self, *args, **kwargs)
            tracer.clear()
            return address

        return wrapper

    patcher.patch(ReproServer, "start", clear_on_start)


def serve_span_totals(tracer: Tracer) -> dict:
    """What the traced server writes at shutdown."""
    return {
        "ingest_ms": [span.duration * 1e3 for span in tracer.of("incremental.ingest")],
        "label_only_ms": [span.duration * 1e3 for span in tracer.of("incremental.label_only")],
        "evicted": tracer.counts["incremental.evicted"],
        "wal_append_s": tracer.self_s("persistence.wal_append"),
        "checkpoint_s": tracer.self_s("persistence.checkpoint"),
        "layers": tracer.totals(),
    }
