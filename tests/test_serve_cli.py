"""Subprocess test: ``repro serve`` lifecycle and graceful shutdown."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.tuples import StreamTuple
from repro.transport import GatewayClient

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


def _start_serve(*extra_args: str) -> tuple[subprocess.Popen, int, int | None]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "serve",
            "--port",
            "0",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "listening on" in line:
            break
        if proc.poll() is not None:
            raise AssertionError(f"serve exited early: {line}")
    assert "listening on" in line, f"no ready line: {line!r}"
    # "gateway listening on HOST:PORT[, http on HOST:PORT]"
    parts = line.strip().split(", http on ")
    port = int(parts[0].rsplit(":", 1)[1])
    http_port = int(parts[1].rsplit(":", 1)[1]) if len(parts) > 1 else None
    return proc, port, http_port


def test_sigterm_flushes_and_emits_terminal_snapshot():
    """SIGTERM final-flushes staged batches to live subscribers and
    prints a terminal snapshot before exit."""
    proc, port, _ = _start_serve()
    try:

        async def drive() -> list[int]:
            client = await GatewayClient.connect("127.0.0.1", port)
            await client.ensure_source("src")
            # Huge batch bound: everything this test offers stays staged
            # in the session batcher until the shutdown's final flush.
            sub = await client.subscribe(
                "app0",
                "src",
                "DC1(value, 0.0001, 0.00005)",
                batch_max_items=10_000,
                batch_max_delay_ms=1e9,
            )
            for i in range(10):
                await client.ingest(
                    "src",
                    StreamTuple(
                        seq=i, timestamp=float(i) * 10.0, values={"value": float(i)}
                    ),
                )
            proc.send_signal(signal.SIGTERM)
            received: list[int] = []
            async for batch in sub.batches():
                received.extend(item.seq for item in batch.items)
            await client.close(send_bye=False)
            return received

        received = asyncio.run(asyncio.wait_for(drive(), timeout=30))
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        terminal = json.loads(out.strip().splitlines()[-1])
        assert terminal["offered"] == 10
        # The chatty filter decided (nearly) every tuple; none may be
        # stranded in a batcher at exit.
        assert received, "final flush delivered nothing"
        # Graceful shutdown never detaches sessions, it flushes them in
        # place: all staged tuples must have reached the consumer.
        staged = sum(
            s["staged_tuples"]
            for s in terminal["sessions"] + terminal["retired"]
        )
        assert staged == len(received)
        assert terminal["delivered_tuples"] == len(received)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def test_sigint_terminal_snapshot_without_clients():
    # The duplicated source name must be deduplicated, not crash startup.
    proc, port, http_port = _start_serve(
        "--http-port", "0", "--sources", "a,b,a"
    )
    try:
        assert http_port is not None
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, out
        terminal = json.loads(out.strip().splitlines()[-1])
        assert sorted(terminal["sources"]) == ["a", "b"]
        assert terminal["offered"] == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def _children(pid: int) -> list[int]:
    """Live child pids of ``pid``, from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat(int(entry))[1] == pid:
            found.append(int(entry))
    return found


def _stat(pid: int) -> tuple[str, int]:
    """``(state, ppid)`` of ``pid``; ``("X", 0)`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return "X", 0
    return fields[0], int(fields[1])


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="parent-death signal is Linux-only"
)
def test_workers_exit_when_router_is_sigkilled():
    proc, _port, _ = _start_serve("--workers", "2")
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and time.monotonic() < deadline:
            workers = _children(proc.pid)
            time.sleep(0.05)
        assert len(workers) == 2, workers
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        alive = workers
        while alive and time.monotonic() < deadline:
            # A zombie awaiting its new parent's reap has exited.
            alive = [pid for pid in workers if _stat(pid)[0] not in ("X", "Z")]
            time.sleep(0.05)
        assert alive == [], f"workers outlived their router: {alive}"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=10)
        for pid in workers:
            if _stat(pid)[0] not in ("X", "Z"):
                os.kill(pid, signal.SIGKILL)
