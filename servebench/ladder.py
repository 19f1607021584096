"""Traced per-layer measurements.

Each rung replays the same generated inputs through one layer's public
entry point, in this process, timed by a benchmark span around every
call: the decide core, the in-process broker, the wire codecs, the
gateway over localhost TCP and the cluster router with its worker
processes.  Each rung's marginal is its cost minus the rung below
(core -> broker -> gateway, and broker -> cluster).  The scrape half
turns the served run's ``/metrics`` into session, transport and stage
metrics.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from repro.obs.parse import Exposition, parse_exposition, quantile_from_buckets
from repro.obs.telemetry import Telemetry
from repro.obs.trace import STAGES
from repro.runtime.tasks import EngineConfig
from repro.service.batching import Batch
from repro.service.broker import DisseminationService, ServiceConfig
from repro.service.cluster import ClusterConfig, ClusterService
from repro.transport.client import GatewayClient
from repro.transport.codec import NameTable, SegmentCache, make_encoder
from repro.transport.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    pack_header,
    tuple_from_wire,
)
from repro.transport.server import GatewayServer

from servebench.metrics import percentile
from servebench.reference import make_engine
from servebench.served import spawn_on
from servebench.workloads import INGEST_BATCH, Stream, Workload

__all__ = ["ladder_metrics", "scrape_metrics", "transport_bytes_out"]

#: Tuples replayed through each rung, over all streams.
LADDER_TUPLES = 4096
#: Timed re_filter calls per rung (alternating between two specs).
REFILTERS = 8
#: Decided tuples per encoded batch (the server's default batch size).
_DECIDED_BATCH = 8
#: Worker processes of the cluster rung.
_CLUSTER_WORKERS = 2
#: ``repro serve``'s default broker seed.
_SERVE_SEED = 7
#: Seconds a rung's consumers get to see their streams end at close.
_SETTLE_S = 10.0


def _batches(streams: list[Stream]) -> list[tuple[int, list]]:
    """The ladder's ``(stream, 16 tuples)`` batches, round robin."""
    per_stream = LADDER_TUPLES // len(streams) // INGEST_BATCH
    return [
        (i, stream.tuples[b * INGEST_BATCH : (b + 1) * INGEST_BATCH])
        for b in range(per_stream)
        for i, stream in enumerate(streams)
    ]


def _us_per_tuple(spans_ns: list[int], tuples: int) -> float:
    return sum(spans_ns) / tuples / 1e3


def _core(streams: list[Stream], batches) -> tuple[dict, list]:
    engines = [make_engine(stream.subscriptions) for stream in streams]
    calls_ns: list[int] = []
    emissions: list[list] = [[] for _ in streams]
    for i, items in batches:
        engine = engines[i]
        for item in items:
            began = time.perf_counter_ns()
            out = engine.process(item)
            calls_ns.append(time.perf_counter_ns() - began)
            emissions[i].extend(out)
    count = sum(len(out) for out in emissions)
    return {
        "core.process_us": sum(calls_ns) / len(calls_ns) / 1e3,
        "core.process_p99_us": percentile(calls_ns, 0.99) / 1e3,
        "core.emissions_per_tuple": count / len(calls_ns),
    }, emissions


def _codec(streams: list[Stream], batches, emissions: list[list]) -> dict:
    metrics: dict[str, float] = {}
    tuples = sum(len(items) for _, items in batches)
    for codec in ("binary", "json"):
        encoder = make_encoder(codec)
        decoder = FrameDecoder()
        encode_ns: list[int] = []
        decode_ns: list[int] = []
        size = 0
        for n, (i, items) in enumerate(batches):
            began = time.perf_counter_ns()
            body = encoder.ingest_batch_body(streams[i].source, items, seq=n + 1)
            encode_ns.append(time.perf_counter_ns() - began)
            size += len(body)
            frame = pack_header(len(body)) + body
            began = time.perf_counter_ns()
            (decoded,) = decoder.feed(frame)
            [tuple_from_wire(t) for t in decoded["tuples"]]
            decode_ns.append(time.perf_counter_ns() - began)
        # Decided fan-out as the gateway does it: one connection encoder
        # over the gateway-wide name table and encode-once segment cache.
        fanout = make_encoder(codec, table=NameTable(), cache=SegmentCache())
        decided_ns = 0
        deliveries = 0
        for stream_emissions in emissions:
            for start in range(0, len(stream_emissions), _DECIDED_BATCH):
                chunk = stream_emissions[start : start + _DECIDED_BATCH]
                per_app: dict[str, list] = {}
                for emission in chunk:
                    for app in sorted(emission.recipients):
                        per_app.setdefault(app, []).append(emission.item)
                for app, items in per_app.items():
                    batch = Batch(tuple(items), items[0].timestamp, items[-1].timestamp)
                    began = time.perf_counter_ns()
                    fanout.decided_pieces(app, batch, max_frame_bytes=MAX_FRAME_BYTES)
                    decided_ns += time.perf_counter_ns() - began
                    deliveries += len(items)
        prefix = f"codec.{codec}."
        metrics[prefix + "ingest_encode_us_per_tuple"] = _us_per_tuple(encode_ns, tuples)
        metrics[prefix + "ingest_decode_us_per_tuple"] = _us_per_tuple(decode_ns, tuples)
        metrics[prefix + "decided_encode_us_per_delivery"] = (
            decided_ns / max(deliveries, 1) / 1e3
        )
        metrics[prefix + "ingest_bytes_per_tuple"] = size / tuples
    return metrics


async def _consume(session) -> None:
    async for _ in session.batches():
        pass


async def _drive(service, workload: Workload, streams: list[Stream],
                 batches, offer, consumers: list) -> tuple[float, float]:
    """Subscribe, offer every batch through ``offer`` under a span, then
    time re_filter calls.  Returns (us per tuple, median re_filter ms);
    ``consumers`` collects the draining tasks, which end when the
    service closes.
    """
    for stream in streams:
        for app, spec in stream.subscriptions:
            session = await service.subscribe(
                app, stream.source, spec,
                batch_max_delay_ms=workload.batch_max_delay_ms,
            )
            consumers.append(asyncio.ensure_future(_consume(session)))
    spans_ns: list[int] = []
    for i, items in batches:
        began = time.perf_counter_ns()
        await offer(streams[i].source, items)
        spans_ns.append(time.perf_counter_ns() - began)
        await asyncio.sleep(0)  # consumers drain outside the spans
    stream = streams[0]
    app, base_spec = stream.subscriptions[0]
    refilter_ms: list[float] = []
    used = sum(1 for i, _ in batches if i == 0) * INGEST_BATCH
    tail = stream.tuples[used:]
    for r in range(REFILTERS):
        await offer(stream.source, tail[r * INGEST_BATCH : (r + 1) * INGEST_BATCH])
        spec = stream.refilter_spec if r % 2 == 0 else base_spec
        began = time.perf_counter_ns()
        await service.re_filter(app, spec)
        refilter_ms.append((time.perf_counter_ns() - began) / 1e6)
        await asyncio.sleep(0)
    tuples = sum(len(items) for _, items in batches)
    return _us_per_tuple(spans_ns, tuples), percentile(refilter_ms, 0.5)


def _broker_service(streams: list[Stream]) -> DisseminationService:
    """An in-process broker configured as ``repro serve`` configures one."""
    service = DisseminationService(
        ServiceConfig(engine=EngineConfig(), seed=_SERVE_SEED),
        telemetry=Telemetry(),
    )
    for stream in streams:
        service.add_source(stream.source)
    return service


async def _settle(consumers: list) -> None:
    """Wait for the draining tasks to see their streams end."""
    if consumers:
        _, stuck = await asyncio.wait(consumers, timeout=_SETTLE_S)
        for task in stuck:
            task.cancel()
        await asyncio.gather(*consumers, return_exceptions=True)


async def _broker(workload, streams, batches) -> tuple[float, float]:
    service = _broker_service(streams)
    consumers: list = []
    try:
        return await _drive(
            service, workload, streams, batches, service.offer_many, consumers
        )
    finally:
        await service.close()
        await _settle(consumers)


async def _gateway(workload, streams, batches) -> float:
    """``GatewayClient.ingest_many`` round trips to an in-process gateway."""
    gateway = GatewayServer(
        _broker_service(streams), host="127.0.0.1", port=0, telemetry=Telemetry()
    )
    await gateway.start()
    producer = subscriber = None
    consumers: list = []
    try:
        producer = await GatewayClient.connect("127.0.0.1", gateway.port)
        subscriber = await GatewayClient.connect("127.0.0.1", gateway.port)
        us_per_tuple, _ = await _drive(
            subscriber, workload, streams, batches, producer.ingest_many, consumers
        )
        return us_per_tuple
    finally:
        # Gateway first: its shutdown ends the sessions while the clients
        # still listen, so nobody writes to a closed socket.
        await gateway.shutdown()
        await _settle(consumers)
        for client in (producer, subscriber):
            if client is not None:
                await client.close()


async def _cluster(workload, streams, batches, cpus) -> tuple[float, float, float]:
    cluster = ClusterService(
        ClusterConfig(
            workers=_CLUSTER_WORKERS,
            sources=tuple(stream.source for stream in streams),
            seed=_SERVE_SEED,
        ),
        telemetry=Telemetry(),
    )
    with spawn_on(cpus):
        await cluster.start()
    consumers: list = []
    try:
        us_per_tuple, refilter_ms = await _drive(
            cluster, workload, streams, batches, cluster.offer_many, consumers
        )
        merged = parse_exposition(await cluster.metrics_text())
    finally:
        await cluster.close()
        await _settle(consumers)
    offered = {str(i): 0.0 for i in range(_CLUSTER_WORKERS)}
    for sample in merged.samples("repro_broker_offered_tuples_total"):
        worker = sample.label("worker")
        if worker in offered:
            offered[worker] += sample.value
    mean = sum(offered.values()) / len(offered)
    skew = max(offered.values()) / mean if mean > 0 else 0.0
    return us_per_tuple, refilter_ms, skew


async def ladder_metrics(workload: Workload, streams: list[Stream],
                        cluster_cpus: Optional[set[int]]) -> dict:
    """Every in-process rung, with marginals; the cluster rung's worker
    processes run on ``cluster_cpus``."""
    batches = _batches(streams)
    metrics, emissions = _core(streams, batches)
    metrics.update(_codec(streams, batches, emissions))
    broker_us, broker_refilter = await _broker(workload, streams, batches)
    gateway_us = await _gateway(workload, streams, batches)
    cluster_us, cluster_refilter, skew = await _cluster(
        workload, streams, batches, cluster_cpus
    )
    metrics.update({
        "broker.offer_us_per_tuple": broker_us,
        "broker.marginal_us_per_tuple": broker_us - metrics["core.process_us"],
        "broker.refilter_ms": broker_refilter,
        "gateway.ingest_us_per_tuple": gateway_us,
        "gateway.marginal_us_per_tuple": gateway_us - broker_us,
        "cluster.offer_us_per_tuple": cluster_us,
        "cluster.marginal_us_per_tuple": cluster_us - broker_us,
        "cluster.refilter_ms": cluster_refilter,
        "cluster.worker_skew": skew,
    })
    return metrics


def _front(expo: Exposition, name: str, **labels: str) -> float:
    """Sum of the client-facing gateway's series (the router's own, on a
    cluster; worker series are router<->worker traffic)."""
    return sum(
        s.value for s in expo.samples(name, **labels)
        if s.label("worker") in (None, "router")
    )


def transport_bytes_out(expo: Exposition) -> float:
    return _front(expo, "repro_transport_bytes_total", direction="out")


def scrape_metrics(before: Exposition, after: Exposition, tuples: int,
                   client: Optional[Telemetry]) -> tuple[dict, dict]:
    """Per-layer metrics from the served run's scrapes.

    Returns ``(metrics, stage sample counts)``; ``client`` holds the
    producer's ``ingest_send`` stage.
    """
    def delta(name: str, **labels: str) -> float:
        return _front(after, name, **labels) - _front(before, name, **labels)

    hits = _front(after, "repro_transport_segment_cache_hits_total")
    misses = _front(after, "repro_transport_segment_cache_misses_total")
    high_water = [
        s.value for s in after.samples("repro_session_queue_depth_high_water")
    ]
    metrics = {
        "broker.cutovers": after.total("repro_broker_cutovers_total"),
        "broker.cutover_p99_ms": after.histogram_quantile(
            "repro_broker_cutover_ms", 0.99
        ) or 0.0,
        "session.flushes_per_tuple": after.total(
            "repro_session_batch_flushes_total"
        ) / tuples,
        "session.queue_high_water": max(high_water, default=0.0),
        "session.dropped_tuples": float(after.total(
            "repro_session_overflow_dropped_tuples_total"
        )),
        "transport.bytes_in_per_tuple": delta(
            "repro_transport_bytes_total", direction="in"
        ) / tuples,
        "transport.bytes_out_per_tuple": delta(
            "repro_transport_bytes_total", direction="out"
        ) / tuples,
        "transport.frames_out_per_tuple": delta(
            "repro_transport_frames_total", direction="out"
        ) / tuples,
        "transport.segment_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "transport.stall_s": delta(
            "repro_transport_backpressure_stall_seconds_total"
        ),
    }
    sources = [after]
    if client is not None:
        sources.append(parse_exposition(client.registry.render()))
    counts = {}
    for stage in STAGES:
        buckets: dict[float, float] = {}
        for expo in sources:
            for bound, count in expo.histogram_buckets(
                "repro_stage_latency_ms", stage=stage
            ).items():
                buckets[bound] = buckets.get(bound, 0.0) + count
        counts[stage] = int(max(buckets.values(), default=0.0))
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            metrics[f"stage.{stage}.{label}_ms"] = (
                quantile_from_buckets(buckets, q) or 0.0
            )
    return metrics, counts
