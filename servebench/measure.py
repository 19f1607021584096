"""One benchmark run: set up, drive, check and report.

A run sets the server up several times (``setup_s`` is the median), then
drives the last one through an open-loop phase (delivery latency) and a
closed-loop phase (capacity), tears every subscription down so each
epoch's tail is delivered, and checks every app's delivered stream
against the per-epoch batch reference.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from repro.obs.sysinfo import platform_info
from repro.obs.telemetry import Telemetry

from servebench.ladder import ladder_metrics, scrape_metrics, transport_bytes_out
from servebench.metrics import LAYERS, percentile
from servebench.reference import check_app, expected_deliveries
from servebench.served import LoadGenerator, ServeProcess, keep_awake
from servebench.workloads import INGEST_BATCH, Workload, make_streams

__all__ = ["run_benchmark"]

#: Server set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Share of ``--seconds`` spent in the closed loop; the open loop gets
#: the rest.
CLOSED_SHARE = 0.5
#: Seconds of idle-loop lateness probing before and after the open loop.
PROBE_S = 1.0
#: Host noise and collector pauses come in bursts; rates and tail
#: latencies are taken per window of this many seconds.
WINDOW_S = 0.5


def _provenance(root: Path) -> dict:
    """Commit (None outside a git clone), digest of the sources under
    test and the host."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_digest": digest.hexdigest(),
        "platform": platform_info(),
    }


def _split_cpus() -> Optional[set[int]]:
    """Give the generator one CPU and the server the rest.

    Client and server sharing cores at the scheduler's whim makes the
    closed loop bimodal (ping-pong on one core vs wake-ups across
    cores); a fixed split keeps them apart, as separate hosts would be.
    Returns the server's CPUs (None on a single-CPU host).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[-1]})
    return set(cpus[:-1])


async def _setup(
    root: Path,
    workload: Workload,
    streams,
    telemetry: Optional[Telemetry],
    server_cpus: Optional[set[int]],
) -> tuple[ServeProcess, LoadGenerator, list[float]]:
    """Spawn -> last subscription acknowledged, several times; keeps the
    last server running."""
    setups: list[float] = []
    for attempt in range(SETUP_REPEATS):
        began = time.perf_counter()
        server = await ServeProcess.spawn(root, workload, server_cpus)
        generator = LoadGenerator(workload, streams, server)
        try:
            await generator.connect(telemetry)
        except BaseException:
            await generator.close()
            await server.stop()
            raise
        setups.append(time.perf_counter() - began)
        if attempt < SETUP_REPEATS - 1:
            # Server first: its shutdown closes the sessions while the
            # clients still listen, so nobody writes to a closed socket.
            await server.stop()
            await generator.close()
    return server, generator, setups


def _check(streams, generator: LoadGenerator) -> dict:
    """Compare deliveries with the reference; collect latency samples."""
    stream_of: dict[str, int] = {}
    expected: dict[str, list] = {}
    for i, stream in enumerate(streams):
        per_app = expected_deliveries(
            stream.subscriptions,
            stream.tuples[: generator.sent[i]],
            generator.churn[i],
        )
        expected.update(per_app)
        stream_of.update((app, i) for app in per_app)

    def due_of(stream: int, trigger) -> Optional[float]:
        if isinstance(trigger, int):
            return generator.due[stream][trigger]
        if trigger is not None:
            return generator.churn_due.get(trigger[1])
        return None

    def before_stop(stream: int, trigger) -> bool:
        if isinstance(trigger, int):
            return trigger < generator.sent_at_stop[stream]
        return trigger is not None and trigger[1] < generator.churn_at_stop

    missing = extra = out_of_order = 0
    samples: list[tuple[float, float]] = []
    attempted = 0
    expected_at_stop = 0
    distinct: set[tuple[int, int]] = set()
    for app in sorted(set(expected) | set(generator.received)):
        want = expected.get(app, [])
        got = generator.received.get(app, [])
        at = generator.received_at.get(app, [])
        attempted += len(want)
        m, e, o = check_app([seq for seq, _ in want], got)
        missing, extra, out_of_order = missing + m, extra + e, out_of_order + o
        stream = stream_of.get(app)
        distinct.update((stream, seq) for seq in got)
        expected_at_stop += sum(1 for _, t in want if before_stop(stream, t))
        for (seq, trigger), delivered, received in zip(want, got, at):
            if seq != delivered:
                break
            due = due_of(stream, trigger)
            if due is not None and received < generator.teardown_at:
                samples.append((due, (received - due) * 1e3))
    failed = missing + extra + out_of_order + generator.failed_calls
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": {
            "missing": missing,
            "extra": extra,
            "out_of_order": out_of_order,
            "failed_calls": generator.failed_calls,
        },
        "samples": samples,
        "distinct_delivered": len(distinct),
        "backlog_end": expected_at_stop - generator.received_at_stop,
    }


def _windows(points: list[tuple[float, object]], start: float) -> list[list]:
    """Values of ``(time, value)`` points grouped into consecutive
    :data:`WINDOW_S` windows from ``start``; a last, partial window is
    dropped."""
    if not points:
        return []
    end = max(t for t, _ in points)
    count = max(1, int((end - start) / WINDOW_S))
    windows: list[list] = [[] for _ in range(count)]
    for t, value in points:
        index = int((t - start) / WINDOW_S)
        if 0 <= index < count:
            windows[index].append(value)
    return windows


def _capacity(acks: list[tuple[float, int]]) -> tuple[float, list[float]]:
    """Lower quartile over windows of the acknowledged tuples/s (each
    window's rate runs from its first ack to its last).

    On a shared virtual host the closed loop switches between a slower
    and a much faster regime at the host's whim, within and across runs;
    the lower quartile reports the slower one, which every run sees.
    """
    start = acks[0][0]
    rates = [
        sum(n for _, n in window[1:]) / (window[-1][0] - window[0][0])
        for window in _windows([(t, (t, n)) for t, n in acks[1:]], start)
        if len(window) > 1
    ]
    return percentile(rates, 0.25), rates


def _rate(acks: list[tuple[float, int]]) -> float:
    return sum(n for _, n in acks) / (acks[-1][0] - acks[0][0])


async def run_benchmark(root: Path, workload: Workload, seed: int,
                        seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns ``(result, detail)``: the result line and its provenance."""
    closed_s = seconds * CLOSED_SHARE
    open_s = seconds - closed_s
    streams = make_streams(workload, seed, closed_s, open_s)
    # The input pools are long-lived: keep collections from scanning them
    # while the generator must send on time.
    gc.collect()
    gc.freeze()
    telemetry = Telemetry() if trace else None
    server_cpus = _split_cpus()
    server, generator, setups = await _setup(
        root, workload, streams, telemetry, server_cpus
    )
    spans_ns: list[int] = []
    try:
        before = await server.scrape()
        async with keep_awake(server_cpus):
            # The lateness floor is probed on both sides of the open loop,
            # so a burst of host noise during it shows in the floor too.
            floor_s = await generator.idle_probe(PROBE_S)
            # Open loop first: every run then offers it the same tuple
            # count from the same freshly set-up server, so the server's
            # heap (and its collector's pauses) grow alike in every run.
            open_started = time.perf_counter()
            await generator.open_loop(open_s)
            floor_s += await generator.idle_probe(PROBE_S)
            # Peak memory after a fixed amount of work, whatever the
            # closed loop's capacity turns out to be.
            rss_mb = server.peak_rss_mb()
            if trace:
                plain = await generator.closed_loop(closed_s / 2)
                traced = await generator.closed_loop(closed_s / 2, spans_ns)
                acks = plain + traced[1:]
            else:
                acks = await generator.closed_loop(closed_s)
        await generator.teardown()
        after = await server.scrape()
    finally:
        await generator.close()
        await server.stop()

    outcome = _check(streams, generator)
    tuples = sum(generator.sent)
    closed_tuples = sum(n for _, n in acks)
    batch_period_ms = INGEST_BATCH / workload.rate_tps * 1e3
    late_p99_ms = percentile(generator.late_s, 0.99) * 1e3
    floor_p99_ms = percentile(floor_s, 0.99) * 1e3
    # Invalid: the generator ran more than one batch period late at p99,
    # beyond the lateness an idle loop shows on this host.
    valid = late_p99_ms <= floor_p99_ms + batch_period_ms
    samples = outcome["samples"]
    latencies = [latency for _, latency in samples]
    windows = _windows(samples, open_started)
    window_p50 = [percentile(w, 0.5) for w in windows]
    window_p99 = [percentile(w, 0.99) for w in windows]
    capacity, capacity_windows = _capacity(acks)
    if trace:
        metrics, stage_counts = scrape_metrics(before, after, tuples, telemetry)
        metrics.update(await ladder_metrics(workload, streams, server_cpus))
        plain_tps, traced_tps = _rate(plain), _rate(traced)
        metrics["loadgen.late_p99_ms"] = late_p99_ms
        metrics["loadgen.backlog_end"] = float(outcome["backlog_end"])
        metrics["trace.overhead_pct"] = (plain_tps - traced_tps) / plain_tps * 100.0
    else:
        stage_counts = None
        error_rate = outcome["failed"] / max(outcome["attempted"], 1)
        metrics = {
            "setup_s": percentile(setups, 0.5),
            "capacity_tps": capacity,
            "deliver_p50_ms": percentile(latencies, 0.5),
            "deliver_p99_ms": percentile(window_p99, 0.5),
            "egress_bytes_per_tuple": (
                transport_bytes_out(after) - transport_bytes_out(before)
            ) / tuples,
            "oi_ratio": outcome["distinct_delivered"] / tuples,
            "server_rss_mb": rss_mb,
            "correct_delivery_ratio": 1.0 - error_rate,
        }
    detail = {
        **_provenance(root),
        "workload": {
            key: value for key, value in asdict(workload).items() if key != "why"
        },
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "valid": valid,
        "errors": outcome["errors"],
        "error_rate": outcome["failed"] / max(outcome["attempted"], 1),
        "samples": {
            "setup": len(setups),
            "deliver": len(latencies),
            "deliver_windows": len(window_p99),
            "capacity_windows": len(capacity_windows),
            "late": len(generator.late_s),
            "late_floor": len(floor_s),
            "gateway_spans": len(spans_ns),
            "stages": stage_counts,
        },
        "deliver_run_p99_ms": percentile(latencies, 0.99),
        "deliver_window_p50_ms": window_p50,
        "deliver_window_p99_ms": window_p99,
        "capacity_window_tps": capacity_windows,
        "phases": {
            "open_tuples": tuples - closed_tuples,
            "open_rate_tps": workload.rate_tps,
            "closed_tuples": closed_tuples,
            "closed_s": acks[-1][0] - acks[0][0],
            "churn_ops": sum(len(ops) for ops in generator.churn),
        },
        "late_p99_ms": late_p99_ms,
        "late_floor_p99_ms": floor_p99_ms,
        "batch_period_ms": batch_period_ms,
        "backlog_end": outcome["backlog_end"],
    }
    if trace:
        detail["layers"] = {
            layer: {"moves": moves, "metrics": [name for name, _, _ in metrics]}
            for layer, moves, metrics in LAYERS
        }
    result = {
        "correct": outcome["failed"] == 0 and valid,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    return result, detail
