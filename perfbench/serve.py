"""The ``serve-mixed`` workload: a served session under mixed read/write load.

The server is a separate process, ``python -m repro serve`` (or, traced,
``serve_launcher.py`` around the same CLI).  This process is the load
generator: one connection sends ``label`` requests at ``LABEL_RATE`` and a
second sends 128-basket ``ingest`` requests at ``INGEST_RATE``, both in an
open loop (each request goes out when it is due, whatever the replies do,
and its latency is counted from when it was due) for the run's measuring
time.  A closed-loop phase follows on the ingest connection:
``CLOSED_BATCHES`` ingests, each sent when the previous one was acked.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import shutil
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

from common import SRC, adjusted_rand_index, percentile

HOST = "127.0.0.1"
BOOTSTRAP_BASKETS = 4_000
SAMPLE_SIZE = 800
THETA = 0.4
N_CLUSTERS = 8
MAX_LIVE_POINTS = 4_000
BATCH = 128
#: Requests per second.  An ingest of 128 baskets holds the event loop for
#: ~250 ms on 2 CPUs, so at 2 ingests/s the server is ~80% busy and the
#: label median swings between runs; at 0.5/s most labels meet an idle
#: loop, so the median is the read path and the p99 the blocking by writes.
LABEL_RATE = 200.0
INGEST_RATE = 0.5
CLOSED_BATCHES = 24
#: Lowest adjusted Rand index of the acked ingest labels against the
#: generator's segments (0.85 to 0.97 on seeds 11-15).
ARI_FLOOR = 0.5
STARTUP_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0

PARAMETERS = {
    "bootstrap": {"generator": "instacart", "n_transactions": BOOTSTRAP_BASKETS},
    "server": {
        "clusters": N_CLUSTERS,
        "theta": THETA,
        "sample_size": SAMPLE_SIZE,
        "max_live_points": MAX_LIVE_POINTS,
        "snapshot_dir": True,
        "seed": 0,
    },
    "traffic": {
        "label_rate_per_s": LABEL_RATE,
        "ingest_rate_per_s": INGEST_RATE,
        "ingest_batch": BATCH,
        "open_loop_seconds": "--seconds",
        "closed_loop_batches": CLOSED_BATCHES,
        "connections": 2,
    },
    "ari_floor": ARI_FLOOR,
}

# The load generator speaks the wire format (4-byte big-endian length, JSON
# body) with its own few lines rather than repro.serve.protocol, so the
# replies it checks are decoded independently of the server's code.
_HEADER = struct.Struct(">I")


def _encode(payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return _HEADER.pack(len(body)) + body


async def _read(reader: asyncio.StreamReader) -> dict | None:
    try:
        (length,) = _HEADER.unpack(await reader.readexactly(_HEADER.size))
        return json.loads(await reader.readexactly(length))
    except asyncio.IncompleteReadError:
        return None


class Traffic:
    """Everything the server and the load generator get for one seed."""

    def __init__(self, seed: int, open_s: float) -> None:
        from repro.datasets.market_basket import generate_instacart_baskets

        self.bootstrap = generate_instacart_baskets(rng=seed, n_transactions=BOOTSTRAP_BASKETS)
        self.n_labels = max(1, int(open_s * LABEL_RATE))
        self.n_open_ingests = max(1, int(open_s * INGEST_RATE))
        n_ingested = BATCH * (self.n_open_ingests + CLOSED_BATCHES)
        traffic = generate_instacart_baskets(
            rng=np.random.default_rng([seed, 1]), n_transactions=self.n_labels + n_ingested
        )
        # The server reads the bootstrap file, whose items are strings.
        baskets = [sorted(str(item) for item in basket) for basket in traffic.transactions]
        self.labels = baskets[: self.n_labels]
        ingested = baskets[self.n_labels:]
        self.batches = [ingested[i:i + BATCH] for i in range(0, len(ingested), BATCH)]
        self.truth = list(traffic.labels[self.n_labels:])

    def write(self, path: Path) -> None:
        from repro.data.io import write_transactions

        write_transactions(self.bootstrap, path)


class Server:
    """One server process: spawn, wait until it listens, stop, clean up."""

    def __init__(self, workdir: Path, input_file: Path, trace_out: Path | None) -> None:
        self.snapshot_dir = workdir / "snapshots"
        self.stderr_path = workdir / "server.stderr"
        command = [
            "serve", str(input_file),
            "--clusters", str(N_CLUSTERS),
            "--theta", str(THETA),
            "--sample-size", str(SAMPLE_SIZE),
            "--snapshot-dir", str(self.snapshot_dir),
            "--max-live-points", str(MAX_LIVE_POINTS),
            "--host", HOST,
            "--port", "0",
        ]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *command]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            argv = [sys.executable, str(launcher), str(trace_out), *command]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._stderr = self.stderr_path.open("wb")
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, env=env, text=True
        )
        self.stdout_lines: list[str] = []
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain_stdout, daemon=True)
        self._reader.start()
        self.port = self._wait_listening()

    def _drain_stdout(self) -> None:
        for line in self.process.stdout:
            self.stdout_lines.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "server did not start listening:\n%s\n%s" % ("".join(self.stdout_lines), self.stderr())
                )
            if "listening on" in line:
                return int(line.strip().rsplit(":", 1)[1])

    def wal_bytes(self) -> int:
        wal = self.snapshot_dir / "wal.log"
        return wal.stat().st_size if wal.exists() else 0

    def snapshot_bytes(self) -> int:
        return sum(
            path.stat().st_size
            for path in self.snapshot_dir.rglob("*")
            if path.is_file() and path.name != "wal.log"
        )

    def wait(self) -> bool:
        """Wait for the process to end (killing it after a timeout)."""
        try:
            self.process.wait(timeout=EXIT_TIMEOUT_S)
            clean = self.process.returncode == 0
        except subprocess.TimeoutExpired:
            clean = False
        self.stop()
        return clean

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(timeout=10)
        self._stderr.close()

    def stderr(self) -> str:
        return self.stderr_path.read_text(errors="replace") if self.stderr_path.exists() else ""


async def _request(reader, writer, payload: dict) -> dict | None:
    writer.write(_encode(payload))
    await writer.drain()
    return await _read(reader)


async def _open_loop(reader, writer, payloads, interval: float, start: float, offset: float):
    """Send ``payloads`` on a fixed schedule; replies are matched in order."""
    loop = asyncio.get_running_loop()
    due_times: deque = deque()
    late_ms: list[float] = []
    replies: list[tuple[dict | None, float]] = []

    async def send():
        for index, payload in enumerate(payloads):
            due = start + offset + index * interval
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late_ms.append((loop.time() - due) * 1e3)
            due_times.append(due)
            writer.write(_encode(payload))
            await writer.drain()

    async def receive():
        for _ in payloads:
            frame = await _read(reader)
            if frame is None:
                return
            replies.append((frame, (loop.time() - due_times.popleft()) * 1e3))

    receiver = asyncio.ensure_future(receive())
    try:
        await send()
        await asyncio.wait_for(receiver, timeout=30.0)
    except asyncio.TimeoutError:
        pass  # unanswered requests count as failed
    finally:
        receiver.cancel()
    return replies, late_ms


async def _drive(server: Server, traffic: Traffic, open_s: float) -> dict:
    label_reader, label_writer = await asyncio.open_connection(HOST, server.port)
    ingest_reader, ingest_writer = await asyncio.open_connection(HOST, server.port)
    loop = asyncio.get_running_loop()
    try:
        status = await _request(label_reader, label_writer, {"verb": "status"})
        n_clusters = int(status["n_labeler_clusters"])
        start = loop.time() + 0.1
        (label_replies, label_late), (ingest_replies, ingest_late) = await asyncio.gather(
            _open_loop(
                label_reader, label_writer,
                [{"verb": "label", "transaction": basket} for basket in traffic.labels],
                1.0 / LABEL_RATE, start, 0.0,
            ),
            _open_loop(
                ingest_reader, ingest_writer,
                [{"verb": "ingest", "batch": batch} for batch in traffic.batches[: traffic.n_open_ingests]],
                1.0 / INGEST_RATE, start, 0.5 / INGEST_RATE,
            ),
        )
        closed_replies = []
        closed_start = loop.time()
        for batch in traffic.batches[traffic.n_open_ingests:]:
            sent = loop.time()
            frame = await _request(ingest_reader, ingest_writer, {"verb": "ingest", "batch": batch})
            closed_replies.append((frame, (loop.time() - sent) * 1e3))
        closed_wall_s = loop.time() - closed_start
        final_status = await _request(label_reader, label_writer, {"verb": "status"})
        wal_bytes = server.wal_bytes()
        # Shut down with the label connection still open, as a client that
        # keeps its connection would.
        shutdown = await _request(ingest_reader, ingest_writer, {"verb": "shutdown"})
    finally:
        for writer in (label_writer, ingest_writer):
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
    return {
        "n_clusters": n_clusters,
        "label_replies": label_replies,
        "label_late_ms": label_late,
        "ingest_replies": ingest_replies,
        "ingest_late_ms": ingest_late,
        "closed_replies": closed_replies,
        "closed_wall_s": closed_wall_s,
        "final_status": final_status,
        "wal_bytes": wal_bytes,
        "shutdown": shutdown,
    }


def _check(drive: dict, traffic: Traffic) -> dict:
    """Count failed operations and collect the acked ingest labels."""
    k = drive["n_clusters"]
    attempted = failed = 0
    for frame, _ in drive["label_replies"]:
        ok = bool(frame and frame.get("ok") and -1 <= int(frame.get("label", -2)) < k)
        failed += not ok
    attempted += traffic.n_labels
    failed += traffic.n_labels - len(drive["label_replies"])

    labels: list[int] = []
    coalesced: list[int] = []
    ingest = drive["ingest_replies"] + drive["closed_replies"]
    n_batches = traffic.n_open_ingests + CLOSED_BATCHES
    for index, (frame, _) in enumerate(ingest):
        acked = frame.get("labels") if frame and frame.get("ok") else None
        ok = (
            acked is not None
            and len(acked) == len(traffic.batches[index])
            and all(-1 <= int(label) < k for label in acked)
        )
        failed += not ok
        if ok:
            coalesced.append(int(frame["coalesced"]))
        labels.extend(acked if ok else [-2] * len(traffic.batches[index]))
    attempted += n_batches
    failed += n_batches - len(ingest)
    shutdown_ok = bool(drive["shutdown"] and drive["shutdown"].get("ok"))
    return {
        "attempted": attempted,
        "failed": failed,
        "shutdown_ok": shutdown_ok,
        "coalesced": coalesced,
        "ari": adjusted_rand_index(labels, traffic.truth[: len(labels)]) if labels else 0.0,
    }


def run(seed: int, seconds: float, trace: bool, workdir: Path, setups: int) -> dict:
    """Set up ``setups`` times, then drive the last server; the run record."""
    import resource

    open_s = seconds
    setup_s: list[float] = []
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                _shutdown_idle(server)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            traffic = Traffic(seed, open_s)
            input_file = workdir / "bootstrap.txt"
            traffic.write(input_file)
            last = attempt == setups - 1
            trace_out = workdir / "server-trace.json" if (trace and last) else None
            server = Server(workdir, input_file, trace_out)
            setup_s.append(time.perf_counter() - start)
        drive = asyncio.run(_drive(server, traffic, open_s))
        exited_cleanly = server.wait()
    finally:
        if server is not None:
            server.stop()
    check = _check(drive, traffic)
    record = {
        "setup_s": setup_s,
        "check": check,
        "exited_cleanly": exited_cleanly,
        "server_stdout": "".join(server.stdout_lines),
        "server_stderr": server.stderr(),
        "snapshot_bytes": server.snapshot_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "label_ms": [latency for _, latency in drive["label_replies"]],
        "open_ingest_ms": [latency for _, latency in drive["ingest_replies"]],
        "closed_ingest_ms": [latency for _, latency in drive["closed_replies"]],
        "late_ms": drive["label_late_ms"] + drive["ingest_late_ms"],
        "closed_wall_s": drive["closed_wall_s"],
        "closed_points": BATCH * len(drive["closed_replies"]),
        "wal_bytes": drive["wal_bytes"],
        "final_status": drive["final_status"],
    }
    if trace:
        record["server_trace"] = json.loads((workdir / "server-trace.json").read_text())
    return record


def _shutdown_idle(server: Server) -> None:
    """Stop a set-up-only server through its shutdown verb."""

    async def shutdown():
        reader, writer = await asyncio.open_connection(HOST, server.port)
        try:
            return await _request(reader, writer, {"verb": "shutdown"})
        finally:
            writer.close()
            await writer.wait_closed()

    asyncio.run(shutdown())
    server.wait()


def end_to_end(record: dict) -> dict[str, float]:
    closed_wall = record["closed_wall_s"]
    return {
        "wall_s": closed_wall,
        "peak_rss_mb": record["peak_rss_mb"],
        "label_p50_ms": percentile(record["label_ms"], 50),
        "label_p99_ms": percentile(record["label_ms"], 99),
        "ingest_p50_ms": percentile(record["open_ingest_ms"], 50),
        "ingest_pts_per_s": record["closed_points"] / closed_wall if closed_wall > 0 else 0.0,
    }


def per_layer(record: dict) -> dict[str, float]:
    trace = record["server_trace"]
    check = record["check"]
    label_only_p99 = percentile(trace["label_only_ms"], 99)
    return {
        "incremental.ingest_s": sum(trace["ingest_ms"]) / 1e3,
        "incremental.ingest_p50_ms": percentile(trace["ingest_ms"], 50),
        "incremental.label_only_p99_ms": label_only_p99,
        "incremental.live_points": float(record["final_status"]["n_points"]),
        "incremental.evicted": trace["evicted"],
        "persistence.wal_append_s": trace["wal_append_s"],
        "persistence.wal_bytes": float(record["wal_bytes"]),
        "persistence.checkpoint_s": trace["checkpoint_s"],
        "persistence.snapshot_bytes": float(record["snapshot_bytes"]),
        "serve.coalesced_mean": float(np.mean(check["coalesced"])) if check["coalesced"] else 0.0,
        "serve.label_wait_p99_ms": percentile(record["label_ms"], 99) - label_only_p99,
        "serve.stderr_tracebacks": float(record["server_stderr"].count("Traceback")),
        "loadgen.late_p99_ms": percentile(record["late_ms"], 99),
        "ari": check["ari"],
    }
