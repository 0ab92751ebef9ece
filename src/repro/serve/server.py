"""The asyncio labelling server: :class:`ReproServer`.

Request paths
-------------

* ``label`` — answered directly in the connection handler through
  :meth:`~repro.core.incremental.IncrementalRock.label_only`: the call is
  synchronous (no awaits), so it is atomic with respect to every other
  handler on the event loop, consumes no randomness and touches no state
  labels depend on — concurrent label traffic can never perturb ingest
  results.
* ``ingest`` — enqueued onto a single-writer queue.  One writer task
  drains the queue, coalesces up to ``max_coalesce`` queued batches into
  a single WAL append + splice (the PR-5 split-invariance contract makes
  coalescing label-exact: without a refresh trigger, labels are
  bit-identical for *any* batch split), slices the labels back out per
  request and acks each future — **after** the WAL append, so an acked
  batch is always durable.  The queue is FIFO and each connection handles
  its frames sequentially, so per-connection ingest order is preserved.
* ``status`` / ``snapshot`` / ``shutdown`` — admin verbs; ``snapshot``
  and ``shutdown`` travel through the same writer queue so they serialise
  with in-flight writes.

Bounded-memory live mode: with ``max_live_points`` the writer evicts the
oldest live points down to the bound after every ingest
(:meth:`~repro.core.incremental.IncrementalRock.evict_oldest`) — evicted
points drop to label-only status while labelling itself stays exact.

Durability: construct via :meth:`ReproServer.create` (wraps the session in
a :class:`~repro.persistence.session.PersistentSession`) or
:meth:`ReproServer.resume` (checkpoint + WAL-tail recovery); a periodic
snapshot task checkpoints every ``snapshot_interval`` seconds.  The writer
loop holds the store in a ``with`` block, so a clean exit (the shutdown
verb) closes it with a final checkpoint while a crash (e.g. an injected
fault mid-append) leaves the WAL for :meth:`ReproServer.resume` — exactly
the PR-6 recovery protocol.
"""

from __future__ import annotations

import asyncio
import logging
import os
from typing import Any, Callable

from repro.core.incremental import IncrementalRock
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServeError,
)
from repro.persistence.session import PersistentSession
from repro.serve.protocol import error_frame, read_frame, write_frame

logger = logging.getLogger("repro.serve")

DEFAULT_HOST = "127.0.0.1"

#: Most queued ingest requests coalesced into one WAL append + splice.
DEFAULT_MAX_COALESCE = 32

#: Seconds :meth:`ReproServer.stop` gives open connections to finish the
#: exchange in progress before it aborts them.
CONNECTION_CLOSE_GRACE_S = 5.0

_VERBS = ("label", "ingest", "status", "snapshot", "shutdown")


def _parse_transaction(value: Any) -> frozenset:
    """One wire transaction (a JSON list of scalar items) as a frozenset."""
    if not isinstance(value, list):
        raise ProtocolError(
            "a transaction must be a JSON list of items, got %s"
            % type(value).__name__
        )
    for item in value:
        if isinstance(item, (list, dict)):
            raise ProtocolError(
                "transaction items must be JSON scalars, got %s"
                % type(item).__name__
            )
    return frozenset(value)


def _parse_batch(value: Any) -> list[frozenset]:
    """One wire ingest batch (a JSON list of transactions)."""
    if not isinstance(value, list):
        raise ProtocolError(
            "an ingest batch must be a JSON list of transactions, got %s"
            % type(value).__name__
        )
    return [_parse_transaction(transaction) for transaction in value]


class _WriteRequest:
    """One queued writer-task operation (ingest batch or admin sentinel)."""

    __slots__ = ("kind", "batch", "future")

    def __init__(self, kind: str, batch: list[frozenset] | None = None):
        self.kind = kind
        self.batch = batch
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()

    def resolve(self, payload: dict) -> None:
        if not self.future.done():
            self.future.set_result(payload)

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


class ReproServer:
    """Serve ``label``/``ingest`` traffic against one live session.

    Parameters
    ----------
    session:
        The bootstrapped :class:`~repro.core.incremental.IncrementalRock`
        to serve (e.g. ``pipeline.online_session`` after ``run_online``).
    store:
        Optional :class:`~repro.persistence.session.PersistentSession`
        making ingests durable; prefer :meth:`create` / :meth:`resume`.
    host, port:
        Listen address; port ``0`` binds an ephemeral port (reported by
        :attr:`address` after :meth:`start`).
    max_live_points:
        Bounded-memory live mode: evict the oldest live points down to
        this bound after every ingest.  ``None`` disables eviction.
    snapshot_interval:
        Seconds between periodic checkpoints (requires a store).
    max_coalesce:
        Most queued ingest requests merged into one WAL append + splice.
    """

    def __init__(
        self,
        session: IncrementalRock,
        store: PersistentSession | None = None,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_live_points: int | None = None,
        snapshot_interval: float | None = None,
        max_coalesce: int = DEFAULT_MAX_COALESCE,
    ) -> None:
        if not 0 <= int(port) <= 65535:
            raise ConfigurationError(
                "port must lie in [0, 65535], got %r" % port
            )
        if max_live_points is not None and int(max_live_points) < 1:
            raise ConfigurationError(
                "max_live_points must be at least 1, got %r" % max_live_points
            )
        if snapshot_interval is not None and float(snapshot_interval) <= 0:
            raise ConfigurationError(
                "snapshot_interval must be a positive number of seconds, "
                "got %r" % snapshot_interval
            )
        if snapshot_interval is not None and store is None:
            raise ConfigurationError(
                "snapshot_interval requires a persistent store (construct "
                "the server via ReproServer.create or ReproServer.resume)"
            )
        if int(max_coalesce) < 1:
            raise ConfigurationError(
                "max_coalesce must be at least 1, got %r" % max_coalesce
            )
        session._require_bootstrapped()
        self.session = session
        self.store = store
        self.host = host
        self.port = int(port)
        self.max_live_points = (
            int(max_live_points) if max_live_points is not None else None
        )
        self.snapshot_interval = (
            float(snapshot_interval) if snapshot_interval is not None else None
        )
        self.max_coalesce = int(max_coalesce)

        self.n_evicted = 0
        self.n_served_labels = 0
        self.n_served_ingests = 0
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        self._queue: asyncio.Queue[_WriteRequest] | None = None
        self._writer_task: asyncio.Task | None = None
        self._timer_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._stopping = False
        #: Handler task -> stream pair of every open connection.
        self._connections: dict[
            asyncio.Task, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._enforce_live_bound()

    # ------------------------------------------------------------------ #
    # Durable construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        session: IncrementalRock,
        directory: str | os.PathLike,
        *,
        snapshot_every: int | None = None,
        **kwargs: Any,
    ) -> "ReproServer":
        """A server over a fresh durable store (checkpoint 0 written now)."""
        server = cls(session, store=None, **kwargs)
        server.store = PersistentSession.create(
            directory,
            session,
            snapshot_every=snapshot_every,
            extra=server._serve_extra(),
        )
        return server

    @classmethod
    def resume(
        cls,
        directory: str | os.PathLike,
        *,
        snapshot_every: int | None = None,
        measure: Callable[..., Any] | None = None,
        exponent_function: Callable[..., Any] | None = None,
        expected_config: dict | None = None,
        **kwargs: Any,
    ) -> "ReproServer":
        """Recover a served session: checkpoint + WAL-tail replay.

        The server logs plain transaction batches, so the default replay
        (``session.ingest`` per record) reconstructs exactly the acked
        prefix; serve counters ride along in the checkpoint extras.  An
        eviction bound is re-enforced after replay — evictions are not
        WAL-logged (they are forgetting, not data), so a crash between an
        eviction and the next checkpoint merely resurrects some old points
        until this catch-up evicts them again.
        """
        store = PersistentSession.resume(
            directory,
            snapshot_every=snapshot_every,
            measure=measure,
            exponent_function=exponent_function,
            expected_config=expected_config,
        )
        server = cls(store.session, store=store, **kwargs)
        stored = (store.extra or {}).get("serve") or {}
        server.n_evicted = int(stored.get("n_evicted", 0))
        server.n_served_labels = int(stored.get("n_served_labels", 0))
        server.n_served_ingests = int(stored.get("n_served_ingests", 0))
        server._enforce_live_bound()
        return server

    def _serve_extra(self) -> dict:
        """Serve-layer counters carried in every checkpoint's extras."""
        return {
            "serve": {
                "n_evicted": int(self.n_evicted),
                "n_served_labels": int(self.n_served_labels),
                "n_served_ingests": int(self.n_served_ingests),
            }
        }

    def _enforce_live_bound(self) -> int:
        """Evict down to ``max_live_points``; returns points evicted."""
        if self.max_live_points is None:
            return 0
        excess = self.session.n_points - self.max_live_points
        if excess <= 0:
            return 0
        evicted = self.session.evict_oldest(excess)
        self.n_evicted += evicted
        return evicted

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (available after :meth:`start`)."""
        if self._address is None:
            raise ConfigurationError("the server is not started")
        return self._address

    async def start(self) -> tuple[str, int]:
        """Bind the listen socket and launch the writer/snapshot tasks."""
        if self._server is not None:
            raise ConfigurationError("the server is already started")
        self._stopping = False
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        bound = self._server.sockets[0].getsockname()
        self._address = (bound[0], bound[1])
        self._writer_task = asyncio.create_task(self._writer_loop())
        if self.snapshot_interval is not None:
            self._timer_task = asyncio.create_task(self._snapshot_timer())
        return self._address

    async def serve_forever(self) -> None:
        """Run until the shutdown verb (or :meth:`stop`) ends the server."""
        if self._stopped is None:
            raise ConfigurationError("the server is not started")
        await self._stopped.wait()
        await self.stop()

    async def run(self) -> tuple[str, int]:
        """Convenience: :meth:`start` then :meth:`serve_forever`."""
        address = await self.start()
        await self.serve_forever()
        return address

    async def stop(self) -> None:
        """Stop listening, settle the writer, close the store and connections.

        Idempotent.  When the writer task died on a non-cancellation
        exception (a crash — e.g. an injected WAL fault), the store is
        deliberately *not* closed: a final checkpoint would be a lie about
        a server that just failed mid-write, and resume() recovers from
        the WAL instead.  Connections still open (idle clients included)
        are closed and their handlers awaited, so none is left to be
        cancelled when the event loop ends.
        """
        if self._stopped is not None:
            self._stopped.set()
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
        timer, self._timer_task = self._timer_task, None
        if timer is not None:
            timer.cancel()
        if timer is not None:
            await asyncio.gather(timer, return_exceptions=True)
        writer, self._writer_task = self._writer_task, None
        writer_crashed = False
        if writer is not None:
            if not writer.done():
                writer.cancel()
            (settled,) = await asyncio.gather(writer, return_exceptions=True)
            writer_crashed = isinstance(settled, BaseException) and not isinstance(
                settled, asyncio.CancelledError
            )
        if self._queue is not None:
            while not self._queue.empty():
                self._queue.get_nowait().fail(
                    ServeError("the server stopped before applying the request")
                )
        if self.store is not None and not writer_crashed:
            self.store.close(extra=self._serve_extra())
        await self._close_connections()
        if server is not None:
            await server.wait_closed()

    async def _close_connections(self) -> None:
        """End every open connection and await its handler task.

        Each handler reads end-of-stream next, so an exchange in progress
        still gets its response; a handler still running after
        :data:`CONNECTION_CLOSE_GRACE_S` has its transport aborted.
        """
        connections, self._connections = self._connections, {}
        if not connections:
            return
        for reader, _ in connections.values():
            reader.feed_eof()
        _, late = await asyncio.wait(connections, timeout=CONNECTION_CLOSE_GRACE_S)
        for task in late:
            connections[task][1].transport.abort()
        if late:
            await asyncio.wait(late)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = (reader, writer)
        try:
            while True:
                try:
                    request = await read_frame(reader)
                except ProtocolError as error:
                    # The stream position is unknown after a torn or
                    # undecodable frame; answer typed, then hang up.
                    await write_frame(writer, error_frame(error))
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                await write_frame(writer, response)
                if response.get("closing"):
                    break
        except ConnectionError:
            # The peer, or an aborting stop(), dropped the connection
            # mid-exchange; there is nobody left to answer.
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        """Map one request frame to one response frame (typed on error)."""
        try:
            verb = request.get("verb")
            if verb == "label":
                return self._handle_label(request)
            if verb == "ingest":
                return await self._submit("ingest", _parse_batch(request.get("batch")))
            if verb == "status":
                return self._handle_status()
            if verb == "snapshot":
                return await self._submit("snapshot")
            if verb == "shutdown":
                return await self._submit("shutdown")
            raise ProtocolError(
                "unknown verb %r; expected one of %s" % (verb, ", ".join(_VERBS))
            )
        except ReproError as error:
            return error_frame(error)

    def _handle_label(self, request: dict) -> dict:
        transaction = _parse_transaction(request.get("transaction"))
        labels = self.session.label_only([transaction])
        self.n_served_labels += 1
        return {
            "ok": True,
            "label": int(labels[0]),
            "label_space": int(self.session.n_refreshes),
        }

    def _handle_status(self) -> dict:
        return {
            "ok": True,
            "n_points": int(self.session.n_points),
            "n_live_clusters": len(self.session.live_clusters()),
            "n_labeler_clusters": int(self.session.n_labeler_clusters),
            "n_ingested": int(self.session.n_ingested),
            "n_refreshes": int(self.session.n_refreshes),
            "refresh_merge_counters": {
                key: int(value)
                for key, value in self.session.last_refresh_counters.items()
            },
            "drift": float(self.session.drift),
            "n_evicted": int(self.n_evicted),
            "max_live_points": self.max_live_points,
            "n_served_labels": int(self.n_served_labels),
            "n_served_ingests": int(self.n_served_ingests),
            "durable": self.store is not None,
            "n_snapshots": (
                int(self.store.n_snapshots) if self.store is not None else 0
            ),
        }

    async def _submit(self, kind: str, batch: list[frozenset] | None = None) -> dict:
        if self._queue is None or self._stopping:
            raise ServeError("the server is not accepting writes")
        if self._writer_task is not None and self._writer_task.done():
            raise ServeError(
                "the writer task has died; the server must be resumed from "
                "its snapshot directory"
            )
        request = _WriteRequest(kind, batch)
        await self._queue.put(request)
        return await request.future

    # ------------------------------------------------------------------ #
    # Single-writer loop
    # ------------------------------------------------------------------ #
    async def _writer_loop(self) -> None:
        if self.store is None:
            await self._drain_writes()
            return
        # The `with` guarantees the final checkpoint on a clean exit (the
        # shutdown verb) while an exception — an injected fault, a real
        # crash — leaves the store open with its WAL intact for resume().
        with self.store:
            await self._drain_writes()

    async def _drain_writes(self) -> None:
        assert self._queue is not None
        while True:
            request = await self._queue.get()
            if request.kind == "ingest":
                # Coalesce the contiguous run of already-queued ingest
                # requests (FIFO, so per-connection order is preserved);
                # an admin verb in the middle ends the run and is applied
                # right after the group — it stays serialised with writes.
                group = [request]
                admin: _WriteRequest | None = None
                while len(group) < self.max_coalesce and not self._queue.empty():
                    queued = self._queue.get_nowait()
                    if queued.kind == "ingest":
                        group.append(queued)
                    else:
                        admin = queued
                        break
                self._apply_ingest_group(group)
                if admin is None:
                    continue
                request = admin
            if request.kind == "snapshot":
                self._apply_snapshot(request)
            elif request.kind == "shutdown":
                self._apply_shutdown(request)
                return
            else:  # pragma: no cover - sentinel kinds are internal
                request.fail(ServeError("unknown write kind %r" % request.kind))

    def _apply_ingest_group(self, group: list[_WriteRequest]) -> None:
        """One coalesced WAL append + splice; per-request label slices.

        Synchronous on purpose: no await between the WAL append and the
        acks, so the event loop cannot observe a half-applied group.
        """
        combined: list[frozenset] = []
        for request in group:
            combined.extend(request.batch or [])
        try:
            if self.store is not None:
                self.store.log(list(combined))
            result = self.session.ingest(combined)
            evicted = self._enforce_live_bound()
            self.n_served_ingests += len(group)
            if self.store is not None:
                self.store.batch_applied(self._serve_extra)
        except ReproError as error:
            for request in group:
                request.fail(error)
            return
        except BaseException as error:
            # A non-library failure (an injected fault, a genuine crash)
            # must not ack — fail the waiters, then let it kill the writer
            # task: the store stays un-closed and recovery goes through
            # the WAL, exactly like a process kill.
            for request in group:
                request.fail(error)
            raise
        offset = 0
        for request in group:
            size = len(request.batch or [])
            request.resolve(
                {
                    "ok": True,
                    "labels": [int(label) for label in result.labels[offset:offset + size]],
                    "label_space": int(result.label_space),
                    "refreshed": bool(result.refreshed),
                    "drift": float(result.drift),
                    "n_live_clusters": int(result.n_live_clusters),
                    "coalesced": len(group),
                    "evicted": int(evicted),
                }
            )
            offset += size

    def _apply_snapshot(self, request: _WriteRequest) -> None:
        try:
            if self.store is None:
                raise ConfigurationError(
                    "the server runs without a snapshot directory; construct "
                    "it via ReproServer.create/resume to enable snapshots"
                )
            path = self.store.snapshot(extra=self._serve_extra())
        except ReproError as error:
            request.fail(error)
            return
        except BaseException as error:
            request.fail(error)
            raise
        request.resolve(
            {"ok": True, "path": str(path), "n_snapshots": int(self.store.n_snapshots)}
        )

    def _apply_shutdown(self, request: _WriteRequest) -> None:
        self._stopping = True
        try:
            checkpoint = (
                self.store.close(extra=self._serve_extra())
                if self.store is not None
                else None
            )
        except BaseException as error:
            request.fail(error)
            if self._stopped is not None:
                self._stopped.set()
            raise
        request.resolve(
            {
                "ok": True,
                "closing": True,
                "checkpoint": str(checkpoint) if checkpoint is not None else None,
            }
        )
        if self._stopped is not None:
            self._stopped.set()

    async def _snapshot_timer(self) -> None:
        assert self.snapshot_interval is not None
        while True:
            await asyncio.sleep(self.snapshot_interval)
            if self._stopping or self._queue is None:
                return
            request = _WriteRequest("snapshot")
            await self._queue.put(request)
            try:
                await request.future
            except ReproError as error:
                logger.warning("periodic snapshot failed: %s", error)


__all__ = ["DEFAULT_HOST", "DEFAULT_MAX_COALESCE", "ReproServer"]
