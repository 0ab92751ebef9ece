"""Test harness for the serving front end (:mod:`repro.serve`).

Covers the ISSUE-8 archetype surface:

* protocol codec round-trips and malformed / truncated / oversized frame
  error paths (both the pure codec and the live server's answers);
* the served bit-contract: labels returned over the wire are identical to
  driving the same schedule through ``RockPipeline.run_online`` +
  ``ingest`` directly, including across a snapshot/restore;
* concurrent clients (N labelers + 1 ingester through ``asyncio.gather``)
  matching single-client results;
* the bounded-memory live mode (eviction to label-only status);
* failpoint-injected kill-during-ingest followed by resume recovery
  (:mod:`repro.persistence.failpoints`), plus an end-to-end CLI
  subprocess round-trip of ``repro serve``.
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.engine_bench import WORKLOAD
from repro.core.pipeline import RockPipeline
from repro.datasets.market_basket import generate_market_baskets
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    ReproError,
    ServeError,
)
from repro.persistence import failpoints
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ReproServer

N_POINTS = 260
BOUNDARY = 200
BATCH = 20
PIPELINE_PARAMS = dict(
    n_clusters=4, theta=0.5, sample_size=120, min_cluster_size=2, rng=0
)


@pytest.fixture(scope="module")
def transactions():
    data = generate_market_baskets(n_transactions=N_POINTS, rng=0, **WORKLOAD)
    return data.transactions


def bootstrap_pipeline(transactions) -> RockPipeline:
    """A pipeline with a live session over the first ``BOUNDARY`` points."""
    pipeline = RockPipeline(**PIPELINE_PARAMS)
    pipeline.run_online(transactions[:BOUNDARY], batch_size=64)
    return pipeline


def tail_batches(transactions):
    return [
        transactions[start:start + BATCH]
        for start in range(BOUNDARY, len(transactions), BATCH)
    ]


def reference_tail_labels(transactions) -> list[list[int]]:
    """The no-server ground truth: run_online then direct ingest calls."""
    pipeline = bootstrap_pipeline(transactions)
    return [
        [int(label) for label in pipeline.ingest(batch).labels]
        for batch in tail_batches(transactions)
    ]


# ----------------------------------------------------------------------- #
# Protocol codec
# ----------------------------------------------------------------------- #
class TestProtocol:
    def test_round_trip_is_canonical(self):
        payload = {"verb": "label", "transaction": [1, 2, 3], "z": None}
        frame = protocol.encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert protocol.decode_frame(frame[4:]) == payload
        # Canonical encoding: key order never changes the bytes.
        assert frame == protocol.encode_frame(
            {"z": None, "transaction": [1, 2, 3], "verb": "label"}
        )

    def test_unserialisable_payload_raises(self):
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"verb": object()})

    def test_oversized_frame_refused_on_encode(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 16)
        with pytest.raises(ProtocolError):
            protocol.encode_frame({"verb": "x" * 64})

    def test_decode_rejects_bad_json_and_non_objects(self):
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"{not json")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"[1, 2]")
        with pytest.raises(ProtocolError):
            protocol.decode_frame(b"\xff\xfe")

    def test_error_class_mapping(self):
        assert protocol.error_class("ConfigurationError") is ConfigurationError
        assert protocol.error_class("ProtocolError") is ProtocolError
        # Unknown kinds and non-ReproError names degrade to ServeError.
        assert protocol.error_class("NoSuchError") is ServeError
        assert protocol.error_class("ReproError") is ReproError
        assert protocol.error_class("Path") is ServeError

    def test_raise_error_frame_restores_type_and_message(self):
        frame = protocol.error_frame(ConfigurationError("bad theta"))
        with pytest.raises(ConfigurationError, match="bad theta"):
            protocol.raise_error_frame(frame)

    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_read_frame_clean_eof_returns_none(self):
        async def scenario():
            return await protocol.read_frame(self._reader_with(b""))

        assert asyncio.run(scenario()) is None

    def test_read_frame_torn_header(self):
        async def scenario():
            await protocol.read_frame(self._reader_with(b"\x00\x00"))

        with pytest.raises(ProtocolError, match="frame header"):
            asyncio.run(scenario())

    def test_read_frame_torn_body(self):
        async def scenario():
            data = struct.pack(">I", 10) + b"{}"
            await protocol.read_frame(self._reader_with(data))

        with pytest.raises(ProtocolError, match="frame body"):
            asyncio.run(scenario())

    def test_read_frame_oversized_length(self):
        async def scenario():
            data = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
            await protocol.read_frame(self._reader_with(data))

        with pytest.raises(ProtocolError, match="exceeds"):
            asyncio.run(scenario())

    def test_encode_transaction_deterministic(self):
        assert protocol.encode_transaction({3, 1, 2}) == [1, 2, 3]
        assert protocol.encode_transaction(frozenset(["b", "a"])) == ["a", "b"]


# ----------------------------------------------------------------------- #
# Server basics: verbs, typed errors, protocol misuse against a live socket
# ----------------------------------------------------------------------- #
class TestServerBasics:
    def test_label_matches_session_and_ingest_matches_run_online(
        self, transactions, tmp_path
    ):
        expected = reference_tail_labels(transactions)
        # An independent twin answers what label_only would say directly.
        twin = bootstrap_pipeline(transactions).online_session

        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer.create(
                pipeline.online_session, tmp_path / "snap"
            )
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                labels_direct = [
                    int(label)
                    for label in twin.label_only(transactions[BOUNDARY:BOUNDARY + 5])
                ]
                labels_wire = [
                    await client.label(t)
                    for t in transactions[BOUNDARY:BOUNDARY + 5]
                ]
                assert labels_wire == labels_direct
                for batch in tail_batches(transactions):
                    ack = await client.ingest(batch)
                    observed.append(ack["labels"])
                status = await client.status()
                await client.shutdown()
            await server.serve_forever()
            return observed, status

        observed, status = asyncio.run(scenario())
        assert observed == expected
        assert status["n_served_labels"] == 5
        assert status["n_served_ingests"] == len(expected)
        assert status["durable"] is True
        assert status["n_points"] > BOUNDARY - PIPELINE_PARAMS["sample_size"]
        assert status["n_refreshes"] == 0
        assert status["max_live_points"] is None

    def test_label_traffic_does_not_perturb_ingest_labels(self, transactions):
        expected = reference_tail_labels(transactions)

        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                for batch in tail_batches(transactions):
                    # Interleave label reads before every ingest.
                    for transaction in batch[:3]:
                        await client.label(transaction)
                    observed.append((await client.ingest(batch))["labels"])
            await server.stop()
            return observed

        assert asyncio.run(scenario()) == expected

    def test_snapshot_verb_and_restart_continue_bit_identically(
        self, transactions, tmp_path
    ):
        expected = reference_tail_labels(transactions)
        batches = tail_batches(transactions)
        split = len(batches) // 2 or 1

        async def first_run():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer.create(pipeline.online_session, tmp_path / "snap")
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                for batch in batches[:split]:
                    observed.append((await client.ingest(batch))["labels"])
                ack = await client.snapshot()
                assert Path(ack["path"]).exists()
                await client.shutdown()
            await server.serve_forever()
            return observed

        async def second_run():
            server = ReproServer.resume(tmp_path / "snap")
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                for batch in batches[split:]:
                    observed.append((await client.ingest(batch))["labels"])
                await client.shutdown()
            await server.serve_forever()
            return observed

        observed = asyncio.run(first_run()) + asyncio.run(second_run())
        assert observed == expected

    def test_unknown_verb_is_typed_and_connection_survives(self, transactions):
        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()
            async with await ServeClient.connect(*server.address) as client:
                with pytest.raises(ProtocolError, match="unknown verb"):
                    await client.request({"verb": "frobnicate"})
                # The connection stays usable after a request-level error.
                status = await client.status()
                assert status["ok"] is True
                with pytest.raises(ProtocolError, match="transaction"):
                    await client.request({"verb": "label", "transaction": "x"})
                with pytest.raises(ProtocolError, match="batch"):
                    await client.request({"verb": "ingest", "batch": 7})
                with pytest.raises(ProtocolError, match="scalars"):
                    await client.request(
                        {"verb": "ingest", "batch": [[["nested"]]]}
                    )
                assert (await client.status())["ok"] is True
            await server.stop()

        asyncio.run(scenario())

    def test_malformed_frame_gets_error_frame_then_close(self, transactions):
        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            body = b"{broken json"
            writer.write(struct.pack(">I", len(body)) + body)
            await writer.drain()
            response = await protocol.read_frame(reader)
            assert response["ok"] is False
            assert response["error"]["kind"] == "ProtocolError"
            # The server hangs up after a codec error.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())

    def test_oversized_announced_frame_refused(self, transactions):
        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(struct.pack(">I", protocol.MAX_FRAME_BYTES + 1))
            await writer.drain()
            response = await protocol.read_frame(reader)
            assert response["error"]["kind"] == "ProtocolError"
            assert "exceeds" in response["error"]["message"]
            writer.close()
            await writer.wait_closed()
            await server.stop()

        asyncio.run(scenario())

    def test_snapshot_without_store_is_typed_configuration_error(
        self, transactions
    ):
        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()
            async with await ServeClient.connect(*server.address) as client:
                with pytest.raises(ConfigurationError, match="snapshot"):
                    await client.snapshot()
            await server.stop()

        asyncio.run(scenario())

    def test_constructor_validation(self, transactions):
        session = bootstrap_pipeline(transactions).online_session
        with pytest.raises(ConfigurationError):
            ReproServer(session, port=65536)
        with pytest.raises(ConfigurationError):
            ReproServer(session, port=-1)
        with pytest.raises(ConfigurationError):
            ReproServer(session, max_live_points=0)
        with pytest.raises(ConfigurationError):
            ReproServer(session, max_coalesce=0)
        with pytest.raises(ConfigurationError):
            ReproServer(session, snapshot_interval=0.0)
        with pytest.raises(ConfigurationError, match="persistent store"):
            ReproServer(session, snapshot_interval=1.0)

    def test_shutdown_writes_final_checkpoint(self, transactions, tmp_path):
        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer.create(pipeline.online_session, tmp_path / "snap")
            await server.start()
            async with await ServeClient.connect(*server.address) as client:
                await client.ingest(transactions[BOUNDARY:BOUNDARY + BATCH])
                ack = await client.shutdown()
                assert ack["closing"] is True
                assert ack["checkpoint"] is not None
            await server.serve_forever()
            return server

        server = asyncio.run(scenario())
        assert server.store.closed is True
        assert server.store.n_snapshots == 2  # checkpoint 0 + final


# ----------------------------------------------------------------------- #
# Concurrency: N labelers + 1 ingester
# ----------------------------------------------------------------------- #
class TestConcurrency:
    N_LABELERS = 4

    def test_concurrent_clients_match_single_client_results(self, transactions):
        expected_ingest = reference_tail_labels(transactions)
        twin = bootstrap_pipeline(transactions).online_session
        label_queries = transactions[BOUNDARY:BOUNDARY + 12]
        expected_labels = [int(x) for x in twin.label_only(label_queries)]

        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session)
            await server.start()

            async def labeler(worker: int):
                async with await ServeClient.connect(*server.address) as client:
                    results = []
                    for transaction in label_queries:
                        results.append(await client.label(transaction))
                    return results

            async def ingester():
                async with await ServeClient.connect(*server.address) as client:
                    results = []
                    for batch in tail_batches(transactions):
                        results.append((await client.ingest(batch))["labels"])
                    return results

            outcomes = await asyncio.gather(
                ingester(),
                *(labeler(worker) for worker in range(self.N_LABELERS)),
            )
            await server.stop()
            return outcomes

        ingested, *labelled = asyncio.run(scenario())
        # The ingester sees exactly the single-client / no-server labels
        # (per-connection order is preserved through the coalescer)...
        assert ingested == expected_ingest
        # ...and every concurrent labeler sees the same labels a lone
        # client would, however the traffic interleaved.
        for worker_results in labelled:
            assert worker_results == expected_labels

    def test_coalescer_merges_queued_batches_preserving_order(self, transactions):
        """Pre-queued ingests splice as ONE group with per-request slices.

        Drives the writer loop directly (no sockets) so the queue state is
        deterministic: every batch is enqueued before the writer runs, so
        the whole backlog coalesces into a single WAL append + splice, and
        the split-invariance contract makes the sliced-out labels
        bit-identical to batch-at-a-time ingestion.
        """
        from repro.serve.server import _WriteRequest

        expected = reference_tail_labels(transactions)
        batches = tail_batches(transactions)

        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer(pipeline.online_session, max_coalesce=64)
            server._queue = asyncio.Queue()
            requests = [_WriteRequest("ingest", batch) for batch in batches]
            for request in requests:
                server._queue.put_nowait(request)
            stop = _WriteRequest("shutdown")
            server._queue.put_nowait(stop)
            drain = asyncio.create_task(server._drain_writes())
            acks = [await request.future for request in requests]
            await stop.future
            await drain
            return acks

        acks = asyncio.run(scenario())
        assert [ack["labels"] for ack in acks] == expected
        # The whole backlog went through one splice.
        assert all(ack["coalesced"] == len(batches) for ack in acks)


# ----------------------------------------------------------------------- #
# Bounded-memory live mode
# ----------------------------------------------------------------------- #
class TestEviction:
    def test_eviction_bounds_live_points_without_changing_labels(
        self, transactions
    ):
        expected = reference_tail_labels(transactions)

        async def scenario():
            pipeline = bootstrap_pipeline(transactions)
            bound = pipeline.online_session.n_points + 10
            server = ReproServer(pipeline.online_session, max_live_points=bound)
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                for batch in tail_batches(transactions):
                    observed.append((await client.ingest(batch))["labels"])
                status = await client.status()
            await server.stop()
            return observed, status, bound

        observed, status, bound = asyncio.run(scenario())
        assert observed == expected
        assert status["n_points"] <= bound
        assert status["n_evicted"] > 0
        assert status["max_live_points"] == bound

    def test_evict_oldest_unit_semantics(self, transactions):
        session = bootstrap_pipeline(transactions).online_session
        n_live = session.n_points
        assert session.evict_oldest(0) == 0
        assert session.evict_oldest(-3) == 0
        with pytest.raises(ConfigurationError, match="survive"):
            session.evict_oldest(n_live)
        assert session.evict_oldest(5) == 5
        assert session.n_points == n_live - 5
        # Survivors still partition into clusters.
        members = sorted(
            index for cluster in session.live_clusters() for index in cluster
        )
        assert members == list(range(session.n_points))

    def test_eviction_state_survives_snapshot_roundtrip(self, transactions):
        from repro.core.incremental import IncrementalRock

        session = bootstrap_pipeline(transactions).online_session
        session.evict_oldest(7)
        restored = IncrementalRock.from_session_state(session.session_state())
        batch = transactions[BOUNDARY:BOUNDARY + BATCH]
        np.testing.assert_array_equal(
            restored.ingest(batch).labels, session.ingest(batch).labels
        )


# ----------------------------------------------------------------------- #
# Failpoint crash + resume recovery
# ----------------------------------------------------------------------- #
class TestRecovery:
    def test_kill_during_ingest_then_resume_is_bit_identical(
        self, transactions, tmp_path
    ):
        expected = reference_tail_labels(transactions)
        batches = tail_batches(transactions)
        crash_at = len(batches) // 2

        async def serve_until_crash():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer.create(pipeline.online_session, tmp_path / "snap")
            checkpoints_before = server.store.n_snapshots
            await server.start()
            observed = []
            client = await ServeClient.connect(*server.address)
            for batch in batches[:crash_at]:
                observed.append((await client.ingest(batch))["labels"])
            failpoints.activate("wal.torn-append", times=1)
            # The injected fault fires inside the WAL append — before any
            # session mutation — and kills the writer task like a process
            # crash: the client sees the connection die un-acked.
            with pytest.raises(ProtocolError):
                await client.ingest(batches[crash_at])
            # Fresh connections are refused writes until a resume.
            refused = await ServeClient.connect(*server.address)
            with pytest.raises(ServeError, match="writer task has died"):
                await refused.ingest(batches[crash_at])
            await refused.aclose()
            await client.aclose()
            await server.stop()
            # A crashed server never writes a final "clean" checkpoint.
            assert server.store.n_snapshots == checkpoints_before
            return observed

        async def resume_and_finish():
            server = ReproServer.resume(tmp_path / "snap")
            # The un-acked batch was never applied; the acked prefix came
            # back via WAL replay.
            assert server.store.n_replayed == crash_at
            await server.start()
            observed = []
            async with await ServeClient.connect(*server.address) as client:
                for batch in batches[crash_at:]:
                    observed.append((await client.ingest(batch))["labels"])
                await client.shutdown()
            await server.serve_forever()
            return observed

        failpoints.reset()
        try:
            observed = asyncio.run(serve_until_crash())
            observed += asyncio.run(resume_and_finish())
        finally:
            failpoints.reset()
        assert observed == expected

    def test_resume_restores_serve_counters(self, transactions, tmp_path):
        async def first():
            pipeline = bootstrap_pipeline(transactions)
            server = ReproServer.create(pipeline.online_session, tmp_path / "snap")
            await server.start()
            async with await ServeClient.connect(*server.address) as client:
                await client.label(transactions[BOUNDARY])
                await client.ingest(transactions[BOUNDARY:BOUNDARY + BATCH])
                await client.shutdown()
            await server.serve_forever()

        asyncio.run(first())
        server = ReproServer.resume(tmp_path / "snap")
        assert server.n_served_ingests == 1
        assert server.n_served_labels == 1


# ----------------------------------------------------------------------- #
# CLI end-to-end: subprocess serve + client round-trip + --resume
# ----------------------------------------------------------------------- #
class TestServeCliEndToEnd:
    @staticmethod
    def _write_baskets(path: Path, transactions) -> None:
        lines = [
            " ".join(str(item) for item in sorted(t, key=repr))
            for t in transactions
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def _spawn(arguments, repo_root: Path) -> subprocess.Popen:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(repo_root / "src") + (
            os.pathsep + environment["PYTHONPATH"]
            if environment.get("PYTHONPATH")
            else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
            cwd=repo_root,
        )

    @staticmethod
    def _await_port(process: subprocess.Popen) -> tuple[str, int]:
        while True:
            line = process.stdout.readline()
            assert line, "server exited before announcing its port"
            if "listening on" in line:
                address = line.rsplit(" ", 1)[1].strip()
                host, port = address.rsplit(":", 1)
                return host, int(port)

    @classmethod
    def _run_leg(cls, arguments, repo_root, ingest_from, drive):
        """One server subprocess lifetime: spawn, drive, assert clean exit."""
        process = cls._spawn(arguments, repo_root)
        try:
            host, port = cls._await_port(process)
            status = asyncio.run(drive(host, port, ingest_from))
        finally:
            tail = process.stdout.read()
            process.stdout.close()
            returncode = process.wait(timeout=60)
        assert returncode == 0, "server exited %d; output tail:\n%s" % (
            returncode,
            tail,
        )
        return status

    def test_serve_cli_round_trip_and_resume(self, transactions, tmp_path):
        repo_root = Path(__file__).resolve().parent.parent
        data_file = tmp_path / "baskets.txt"
        self._write_baskets(data_file, transactions[:BOUNDARY])
        snapshot_dir = tmp_path / "snap"
        base_arguments = [
            "serve", str(data_file),
            "--clusters", "4", "--theta", "0.5", "--sample-size", "120",
            "--min-cluster-size", "2", "--batch-size", "64",
            "--snapshot-dir", str(snapshot_dir),
        ]

        async def drive(host, port, ingest_from):
            async with await ServeClient.connect(host, port) as client:
                label = await client.label(
                    [str(item) for item in sorted(transactions[BOUNDARY], key=repr)]
                )
                assert isinstance(label, int)
                batch = [
                    [str(item) for item in sorted(t, key=repr)]
                    for t in transactions[ingest_from:ingest_from + BATCH]
                ]
                ack = await client.ingest(batch)
                assert len(ack["labels"]) == BATCH
                status = await client.status()
                await client.shutdown()
                return status

        first_status = self._run_leg(base_arguments, repo_root, BOUNDARY, drive)
        second_status = self._run_leg(
            base_arguments + ["--resume"], repo_root, BOUNDARY + BATCH, drive
        )

        # The resumed server continued the same session: its ingest count
        # includes the pre-restart traffic.
        assert second_status["n_ingested"] == first_status["n_ingested"] + BATCH
        assert second_status["n_served_ingests"] == 2

    def test_shutdown_with_an_idle_connection_prints_no_traceback(
        self, transactions, tmp_path
    ):
        # A client that stays connected without sending a frame while
        # another one shuts the server down: its handler, blocked in
        # read_frame, must be closed by stop() rather than cancelled at
        # event-loop teardown (which printed an "Exception in callback
        # ... CancelledError" traceback).
        repo_root = Path(__file__).resolve().parent.parent
        data_file = tmp_path / "baskets.txt"
        self._write_baskets(data_file, transactions[:BOUNDARY])
        process = self._spawn(
            [
                "serve", str(data_file),
                "--clusters", "4", "--theta", "0.5", "--sample-size", "120",
                "--min-cluster-size", "2",
            ],
            repo_root,
        )
        idle = None
        try:
            host, port = self._await_port(process)
            idle = socket.create_connection((host, port), timeout=30)

            async def shut_down():
                async with await ServeClient.connect(host, port) as client:
                    await client.shutdown()

            asyncio.run(shut_down())
            # Read to EOF while the idle connection is still open: the
            # server has exited (and printed everything) by then.
            output = process.stdout.read()
        finally:
            if idle is not None:
                idle.close()
            process.stdout.close()
            returncode = process.wait(timeout=60)
        assert returncode == 0, output
        assert "Traceback" not in output, output
        assert "CancelledError" not in output, output
