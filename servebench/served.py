"""The system under test (a ``repro serve`` subprocess) and the load
generator that drives it from outside over two gateway connections.

The generator is one single-threaded asyncio loop: a *producer*
connection carries every ``ingest_batch`` frame and a *subscriber*
connection carries every subscription, churn request and delivery.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import re
import signal
import sys
import time
from pathlib import Path
from typing import Optional

from repro.obs.parse import Exposition, parse_exposition
from repro.obs.telemetry import Telemetry
from repro.transport.client import GatewayClient, GatewayError, RemoteSubscription

from servebench.reference import ChurnRecord
from servebench.workloads import INGEST_BATCH, Stream, Workload, churn_kind

__all__ = ["LoadGenerator", "ServeProcess", "keep_awake", "spawn_on"]

_READY = re.compile(
    r"gateway listening on ([\w.:]+):(\d+), http on ([\w.:]+):(\d+)"
)
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 30.0
_DRAIN_TIMEOUT_S = 30.0
_CALL_ERRORS = (GatewayError, ConnectionError)


@contextlib.contextmanager
def spawn_on(cpus: Optional[set[int]]):
    """Processes started inside the block inherit CPU affinity ``cpus``."""
    own = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, own)


_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextlib.asynccontextmanager
async def keep_awake(cpus: Optional[set[int]]):
    """Run a lowest-priority (``SCHED_IDLE``) busy loop on each of ``cpus``.

    A virtual CPU with nothing to run halts, and how long it then takes
    to wake for the next frame depends on the host's other tenants.  The
    busy loop keeps the CPU running; the kernel preempts it the moment
    any normal task on that CPU becomes runnable.
    """
    spinners = []
    try:
        for cpu in sorted(cpus or ()):
            with spawn_on({cpu}):
                spinners.append(
                    await asyncio.create_subprocess_exec(sys.executable, "-c", _SPIN)
                )
        yield
    finally:
        for spinner in spinners:
            try:
                spinner.kill()
            except ProcessLookupError:
                pass
        for spinner in spinners:
            await spinner.wait()


class ServeProcess:
    """One ``repro serve`` process tree, started from the checkout's source."""

    def __init__(self, process: asyncio.subprocess.Process, host: str,
                 port: int, http_port: int):
        self.process = process
        self.host = host
        self.port = port
        self.http_port = http_port

    @classmethod
    async def spawn(cls, root: Path, workload: Workload,
                    cpus: Optional[set[int]] = None) -> "ServeProcess":
        """Start the server; ``cpus`` confines its whole process tree."""
        command = [
            sys.executable, "-m", "repro.experiments", "serve",
            "--port", "0", "--http-port", "0",
            "--sources", ",".join(workload.source_names()),
            "--workers", str(workload.workers),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        with spawn_on(cpus):
            process = await asyncio.create_subprocess_exec(
                *command, stdout=asyncio.subprocess.PIPE, env=env, cwd=str(root)
            )
        try:
            line = await asyncio.wait_for(
                process.stdout.readline(), _READY_TIMEOUT_S
            )
            match = _READY.search(line.decode("utf-8", "replace"))
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            await _stop(process)
            raise
        return cls(process, match.group(1), int(match.group(2)),
                   int(match.group(4)))

    async def scrape(self) -> Exposition:
        """Parse one ``GET /metrics`` body."""
        reader, writer = await asyncio.open_connection(self.host, self.http_port)
        try:
            writer.write(
                b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            response = await asyncio.wait_for(reader.read(), _STOP_TIMEOUT_S)
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = response.partition(b"\r\n\r\n")
        if not head.startswith(b"HTTP/1.1 200"):
            raise RuntimeError(f"/metrics answered {head[:40]!r}")
        return parse_exposition(body.decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the serve process and its workers."""
        total_kb = 0
        pending = [self.process.pid]
        while pending:
            pid = pending.pop()
            try:
                status = Path(f"/proc/{pid}/status").read_text()
                for task in Path(f"/proc/{pid}/task").iterdir():
                    pending.extend(
                        int(child)
                        for child in (task / "children").read_text().split()
                    )
            except (FileNotFoundError, ProcessLookupError):
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    async def stop(self) -> None:
        await _stop(self.process)


async def _stop(process: asyncio.subprocess.Process) -> None:
    """SIGTERM (graceful shutdown), then SIGKILL; always reaps."""
    if process.returncode is None:
        try:
            process.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
    try:
        await asyncio.wait_for(process.communicate(), _STOP_TIMEOUT_S)
    except asyncio.TimeoutError:
        try:
            process.kill()
        except ProcessLookupError:
            pass
        await process.wait()


class LoadGenerator:
    """Closed- and open-loop phases plus churn against one server.

    Records, per stream, how many tuples were sent and when each was due
    (``None`` in the closed loop), every churn operation's position, and
    per app every delivered seq with its receipt time.
    """

    def __init__(self, workload: Workload, streams: list[Stream],
                 server: ServeProcess):
        self.workload = workload
        self.streams = streams
        self.server = server
        self.producer: Optional[GatewayClient] = None
        self.subscriber: Optional[GatewayClient] = None
        #: Tuples sent per stream (always a prefix of ``stream.tuples``).
        self.sent = [0] * len(streams)
        #: Due time (perf_counter seconds) per sent tuple; None when the
        #: tuple was sent by the closed loop.
        self.due: list[list[Optional[float]]] = [[] for _ in streams]
        self.churn: list[list[ChurnRecord]] = [[] for _ in streams]
        self.churn_due: dict[int, Optional[float]] = {}
        self._churn_index = 0
        #: Live apps per stream, in broker (subscribe) order.
        self.apps: list[list[str]] = [[] for _ in streams]
        self._extra: list[Optional[str]] = [None] * len(streams)
        self.received: dict[str, list[int]] = {}
        self.received_at: dict[str, list[float]] = {}
        self._drains: list[asyncio.Task] = []
        self._last_batch: list[Optional[asyncio.Task]] = [None] * len(streams)
        self.failed_calls = 0
        #: Open loop: seconds each batch went out after it was allowed to.
        self.late_s: list[float] = []
        #: Deliveries received, tuples sent per stream and churn
        #: operations applied when the open loop sent its last batch.
        self.received_at_stop = 0
        self.sent_at_stop = [0] * len(streams)
        self.churn_at_stop = 0
        #: perf_counter when the end-of-run teardown began.
        self.teardown_at = math.inf

    # -- set-up ----------------------------------------------------------
    async def connect(self, telemetry: Optional[Telemetry] = None) -> None:
        """Open both connections and subscribe every initial app."""
        server = self.server
        self.producer = await GatewayClient.connect(
            server.host, server.port, telemetry=telemetry
        )
        self.subscriber = await GatewayClient.connect(server.host, server.port)
        for i, stream in enumerate(self.streams):
            for app, spec in stream.subscriptions:
                await self._subscribe(i, app, spec)

    async def _subscribe(self, stream: int, app: str, spec: str) -> None:
        subscription = await self.subscriber.subscribe(
            app, self.streams[stream].source, spec,
            batch_max_delay_ms=self.workload.batch_max_delay_ms,
        )
        self.apps[stream].append(app)
        self.received[app] = []
        self.received_at[app] = []
        self._drains.append(asyncio.ensure_future(self._drain(app, subscription)))

    async def _drain(self, app: str, subscription: RemoteSubscription) -> None:
        seqs = self.received[app]
        times = self.received_at[app]
        async for batch in subscription.batches():
            now = time.perf_counter()
            for item in batch.items:
                seqs.append(item.seq)
                times.append(now)

    async def close(self) -> None:
        for client in (self.producer, self.subscriber):
            if client is not None:
                await client.close()
        for task in self._drains:
            task.cancel()
        await asyncio.gather(*self._drains, return_exceptions=True)

    # -- load ------------------------------------------------------------
    def _take(self, stream: int, due: Optional[float]) -> list:
        start = self.sent[stream]
        items = self.streams[stream].tuples[start : start + INGEST_BATCH]
        self.sent[stream] = start + len(items)
        self.due[stream].extend([due] * len(items))
        return items

    async def _ingest(self, stream: int, items: list) -> None:
        try:
            await self.producer.ingest_many(self.streams[stream].source, items)
        except _CALL_ERRORS:
            self.failed_calls += 1

    async def closed_loop(self, seconds: float,
                          spans_ns: Optional[list[int]] = None) -> list[tuple[float, int]]:
        """Send a batch, await its ack, repeat, for ``seconds``.

        Returns ``(ack time, tuples)`` per batch, starting with a
        ``(start, 0)`` mark.  With ``spans_ns`` each ``ingest_many``
        round trip is timed.
        """
        async with _awake():
            return await self._closed_loop(seconds, spans_ns)

    async def _closed_loop(self, seconds: float,
                           spans_ns: Optional[list[int]]) -> list[tuple[float, int]]:
        period = self.workload.churn_period_s
        start = time.perf_counter()
        deadline = start + seconds
        next_churn = start + period if period else math.inf
        acks = [(start, 0)]
        batch = 0
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if now >= next_churn:
                await self._apply_churn(None)
                next_churn += period
                continue
            stream = batch % len(self.streams)
            items = self._take(stream, None)
            if not items:
                break  # the closed-loop pool ran out: measure what ran
            began = time.perf_counter_ns()
            await self._ingest(stream, items)
            if spans_ns is not None:
                spans_ns.append(time.perf_counter_ns() - began)
            acks.append((time.perf_counter(), len(items)))
            batch += 1
        return acks

    async def idle_probe(self, seconds: float) -> list[float]:
        """Lateness of a loop that sends nothing, on the open loop's
        schedule and polling like it.

        The host's own scheduling noise (CPU steal) makes even an idle
        loop wake late; the generator is only to blame for lateness
        beyond this floor.
        """
        period = INGEST_BATCH / self.workload.rate_tps
        late = []
        async with _awake():
            start = time.perf_counter()
            for batch in range(int(seconds / period)):
                due = start + batch * period
                await _sleep_until(due)
                late.append(time.perf_counter() - due)
        return late

    async def open_loop(self, seconds: float) -> None:
        """Send each batch at its due time, whatever the server does."""
        async with _awake():
            await self._open_loop(seconds)

    async def _open_loop(self, seconds: float) -> None:
        workload = self.workload
        period = INGEST_BATCH / workload.rate_tps
        churn_period = workload.churn_period_s
        start = time.perf_counter()
        next_churn = start + churn_period if churn_period else math.inf
        released = start
        pending: set[asyncio.Task] = set()
        for batch in range(int(seconds / period)):
            due = start + batch * period
            while next_churn <= due:
                await _sleep_until(next_churn)
                await self._apply_churn(next_churn)
                next_churn += churn_period
                released = time.perf_counter()
            await _sleep_until(due)
            stream = batch % len(self.streams)
            items = self._take(stream, due)
            if not items:
                raise RuntimeError("open-loop input pool exhausted")
            task = asyncio.ensure_future(
                self._send(stream, items, max(due, released))
            )
            self._last_batch[stream] = task
            pending.add(task)
            task.add_done_callback(pending.discard)
        self.received_at_stop = sum(len(seqs) for seqs in self.received.values())
        self.sent_at_stop = list(self.sent)
        self.churn_at_stop = self._churn_index
        await asyncio.gather(*pending)

    async def _send(self, stream: int, items: list, allowed: float) -> None:
        self.late_s.append(time.perf_counter() - allowed)
        await self._ingest(stream, items)

    async def _apply_churn(self, due: Optional[float]) -> None:
        """One churn operation at a fixed position in its stream."""
        index = self._churn_index
        self._churn_index += 1
        stream_index, kind = churn_kind(index, len(self.streams))
        stream = self.streams[stream_index]
        last = self._last_batch[stream_index]
        if last is not None:
            await asyncio.wait({last})
        position = self.sent[stream_index]
        first_app, base_spec = stream.subscriptions[0]
        try:
            if kind == "subscribe":
                app, spec = f"{stream.source}.x{index}", stream.extra_spec
                await self._subscribe(stream_index, app, spec)
                self._extra[stream_index] = app
            elif kind == "unsubscribe":
                app, spec = self._extra[stream_index], None
                await self.subscriber.unsubscribe(app)
                self.apps[stream_index].remove(app)
                self._extra[stream_index] = None
            else:
                app = first_app
                spec = stream.refilter_spec if kind == "re_filter" else base_spec
                kind = "re_filter"
                await self.subscriber.re_filter(app, spec)
        except _CALL_ERRORS:
            self.failed_calls += 1
            return
        self.churn[stream_index].append(
            ChurnRecord(index=index, position=position, kind=kind, app=app, spec=spec)
        )
        self.churn_due[index] = due

    async def teardown(self) -> None:
        """Unsubscribe every app: the cutover flushes each epoch's tail."""
        self.teardown_at = time.perf_counter()
        for apps in self.apps:
            for app in list(apps):
                try:
                    await self.subscriber.unsubscribe(app)
                except _CALL_ERRORS:
                    self.failed_calls += 1
        done, _ = await asyncio.wait(self._drains, timeout=_DRAIN_TIMEOUT_S)
        if len(done) != len(self._drains):
            self.failed_calls += len(self._drains) - len(done)


@contextlib.asynccontextmanager
async def _awake():
    """Keep this process's CPU busy for the duration of a phase.

    An idle virtual CPU halts, and waking it for the next ack or
    delivery takes as long as the host's other tenants let it; polling
    the event loop instead keeps every read prompt.  The generator has a
    CPU of its own, so the server never competes with the poll.
    """

    async def spin() -> None:
        while True:
            await asyncio.sleep(0)

    task = asyncio.ensure_future(spin())
    try:
        yield
    finally:
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)


async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
