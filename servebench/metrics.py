"""Metric catalog: names, units, direction, bounds and what each layer's
metrics should move.  ``BENCHMARK.json`` lists the same names; ``run.py``
refuses to run when the two disagree.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.obs.trace import STAGES

__all__ = [
    "END_TO_END",
    "LAYERS",
    "PER_LAYER",
    "percentile",
]

#: ``(name, unit, better, bound)``.  ``bound`` is the share of the
#: parent's median a later change may worsen the metric by.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("capacity_tps", "1/s", "higher", 0.25),
    ("deliver_p50_ms", "ms", "lower", 0.25),
    ("deliver_p99_ms", "ms", "lower", 0.2),
    ("egress_bytes_per_tuple", "B", "lower", 0.25),
    ("oi_ratio", "ratio", "lower", 0.25),
    ("server_rss_mb", "MB", "lower", 0.1),
    ("correct_delivery_ratio", "ratio", "higher", 0.001),
]

#: ``(layer, what it should move, metrics)``: each layer's public entry
#: point, the end-to-end metric and workload its metrics should move
#: (written down before any change is measured against them), and its
#: ``(name, unit, better)`` metrics.
LAYERS: list[tuple[str, str, list[tuple[str, str, str]]]] = [
    ("core", "GroupAwareEngine.process: capacity_tps and deliver_p50_ms on "
     "group-decide (about half the cost); less on wide-egress", [
        ("core.process_us", "us", "lower"),
        ("core.process_p99_us", "us", "lower"),
        ("core.emissions_per_tuple", "count", "lower"),
    ]),
    ("service.broker", "DisseminationService.offer_many/re_filter: "
     "capacity_tps everywhere; re_filter and cutover move deliver_p99_ms on "
     "cluster-churn only", [
        ("broker.offer_us_per_tuple", "us", "lower"),
        ("broker.marginal_us_per_tuple", "us", "lower"),
        ("broker.refilter_ms", "ms", "lower"),
        ("broker.cutovers", "count", "lower"),
        ("broker.cutover_p99_ms", "ms", "lower"),
    ]),
    ("service.session", "session queues and micro-batching (scraped): "
     "deliver_p50_ms on wide-egress (5 ms cap) vs group-decide (defaults); "
     "drops move correct_delivery_ratio", [
        ("session.flushes_per_tuple", "count", "lower"),
        ("session.queue_high_water", "count", "lower"),
        ("session.dropped_tuples", "count", "lower"),
    ]),
    ("transport.codec", "make_encoder().ingest_batch_body/decided_pieces and "
     "the frame decoder: capacity_tps and egress_bytes_per_tuple on "
     "wide-egress; little on group-decide", [
        (f"codec.{codec}.{name}", unit, "lower")
        for codec in ("binary", "json")
        for name, unit in (
            ("ingest_encode_us_per_tuple", "us"),
            ("ingest_decode_us_per_tuple", "us"),
            ("decided_encode_us_per_delivery", "us"),
            ("ingest_bytes_per_tuple", "B"),
        )
    ]),
    ("transport", "GatewayClient.ingest_many round trip (scraped transport "
     "counters): capacity_tps and deliver_p50_ms everywhere; bytes move "
     "egress_bytes_per_tuple", [
        ("gateway.ingest_us_per_tuple", "us", "lower"),
        ("gateway.marginal_us_per_tuple", "us", "lower"),
        ("transport.bytes_in_per_tuple", "B", "lower"),
        ("transport.bytes_out_per_tuple", "B", "lower"),
        ("transport.frames_out_per_tuple", "count", "lower"),
        ("transport.segment_cache_hit_ratio", "ratio", "higher"),
        ("transport.stall_s", "s", "lower"),
    ]),
    ("service.cluster", "ClusterService.offer_many/re_filter (scraped "
     "per-worker labels): capacity_tps, deliver_p99_ms and server_rss_mb on "
     "cluster-churn only", [
        ("cluster.offer_us_per_tuple", "us", "lower"),
        ("cluster.marginal_us_per_tuple", "us", "lower"),
        ("cluster.refilter_ms", "ms", "lower"),
        ("cluster.worker_skew", "ratio", "lower"),
    ]),
    ("obs", "stage tracer (scraped repro_stage_latency_ms): the hop each "
     "stage names", [
        (f"stage.{stage}.{q}_ms", "ms", "lower")
        for stage in STAGES
        for q in ("p50", "p99")
    ]),
    ("benchmark driver", "load generator and span overhead: validity of the "
     "run only", [
        ("loadgen.late_p99_ms", "ms", "lower"),
        ("loadgen.backlog_end", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]),
]

PER_LAYER: list[tuple[str, str, str]] = [
    metric for _, _, metrics in LAYERS for metric in metrics
]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] (0.0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)
