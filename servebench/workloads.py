"""The benchmark's workloads and the seeded inputs each one replays.

Every input tuple, filter spec and churn operation is a function of the
workload and the ``--seed``; only *where* a churn operation lands in a
stream depends on timing, and the load generator records that position
so the batch reference can replay it exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.tuples import StreamTuple, Trace
from repro.experiments.configs import dc_specs_from_statistics
from repro.sources import CATALOG
from repro.sources.base import bounded_random_walk

__all__ = [
    "INGEST_BATCH",
    "WIDE_ATTRIBUTES",
    "WORKLOADS",
    "Stream",
    "Workload",
    "churn_kind",
    "make_streams",
]

#: Tuples per ``ingest_batch`` frame, in both load phases.
INGEST_BATCH = 16

#: Attributes of one ``wide`` tuple: the first is filtered, the rest are
#: payload the codec and sockets must carry.
WIDE_ATTRIBUTES = 32

#: Closed-loop tuple pool as a multiple of the open-loop rate, so a
#: system up to this many times faster than twice the open-loop rate
#: still runs the whole closed-loop phase on fresh tuples.
_CLOSED_POOL_HEADROOM = 6.0

#: Churn operations cycle through these, per stream.
_CHURN_CYCLE = ("re_filter", "subscribe", "re_filter_back", "unsubscribe")
#: Recipe multipliers of the spec a stream's first subscriber re-filters
#: to, and of the subscriber a churn ``subscribe`` adds.
_REFILTER_MULTIPLIER = 1.7
_EXTRA_MULTIPLIER = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: why the benchmark has this workload.
    why: str
    #: ``namos`` (the paper's 7-attribute buoy trace) or ``wide``
    #: (random walk with :data:`WIDE_ATTRIBUTES` attributes).
    source: str
    #: Independent source streams, each with its own subscriber group.
    streams: int
    #: Section 4.3 DC1 recipe: delta = multiplier * srcStatistics, one
    #: multiplier per subscriber of each stream.
    multipliers: tuple[float, ...]
    #: Open-loop offered rate in tuples/s over all streams: a quarter to
    #: a third of the closed-loop capacity on a 2-CPU host, so delivery
    #: latency shows service and batching time rather than a queue.
    rate_tps: float
    #: ``repro serve --workers``.
    workers: int = 1
    #: Per-subscription ``batch_max_delay_ms`` (None: server default).
    batch_max_delay_ms: Optional[float] = None
    #: Seconds between churn operations (None: no churn).
    churn_period_s: Optional[float] = None

    @property
    def attribute(self) -> str:
        return "fluoro" if self.source == "namos" else "w00"

    def source_names(self) -> list[str]:
        if self.streams == 1:
            return [self.source]
        return [f"{self.source}-{i}" for i in range(self.streams)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="group-decide",
            why="the paper's setting: 8 DC1 subscribers on one NAMOS source, "
            "single process, server defaults; the decide core is about "
            "half the per-tuple cost and O/I is low",
            source="namos",
            streams=1,
            multipliers=tuple(1.0 + 0.5 * (i % 4) for i in range(8)),
            rate_tps=1500.0,
        ),
        Workload(
            name="wide-egress",
            why="32-attribute tuples, 2 near-pass-through subscribers "
            "(O/I about 0.97), 5 ms batching cap: codec, fan-out and socket "
            "layers dominate and egress bytes are large",
            source="wide",
            streams=1,
            multipliers=(0.05, 0.05),
            rate_tps=1500.0,
            batch_max_delay_ms=5.0,
        ),
        Workload(
            name="cluster-churn",
            why="4 NAMOS streams behind a router and 2 worker processes, "
            "one re_filter or subscribe/unsubscribe every 250 ms: the only "
            "workload with the router hop and control-plane writes",
            source="namos",
            streams=4,
            multipliers=(1.0, 1.5, 2.0, 2.5),
            rate_tps=1500.0,
            workers=2,
            churn_period_s=0.25,
        ),
    )
}


@dataclass
class Stream:
    """One source stream: its tuples and its subscriber group."""

    source: str
    tuples: list[StreamTuple]
    #: Initial ``(app, spec)`` subscriptions, in subscribe order.
    subscriptions: list[tuple[str, str]]
    #: The first subscriber's alternative spec (churn ``re_filter``).
    refilter_spec: str
    #: Spec of the subscriber a churn ``subscribe`` adds.
    extra_spec: str


def _trace(workload: Workload, n: int, seed: int) -> Trace:
    if workload.source == "namos":
        return CATALOG.make("namos", n=n, seed=seed)
    rng = random.Random(seed)
    columns = {
        f"w{j:02d}": bounded_random_walk(rng, n, start=0.0, step_scale=1.0)
        for j in range(WIDE_ATTRIBUTES)
    }
    return Trace.from_columns(columns)


def make_streams(
    workload: Workload, seed: int, closed_s: float, open_s: float
) -> list[Stream]:
    """Seeded streams sized for both load phases of one run."""
    total = _CLOSED_POOL_HEADROOM * workload.rate_tps * closed_s
    total += workload.rate_tps * open_s
    per_stream = int(total / workload.streams) + 4 * INGEST_BATCH
    streams = []
    for i, source in enumerate(workload.source_names()):
        trace = _trace(workload, per_stream, seed + i)
        attribute = workload.attribute
        specs = dc_specs_from_statistics(
            trace,
            attribute,
            [*workload.multipliers, _REFILTER_MULTIPLIER, _EXTRA_MULTIPLIER],
        )
        count = len(workload.multipliers)
        streams.append(
            Stream(
                source=source,
                tuples=list(trace),
                subscriptions=[
                    (f"{source}.app{j}", spec)
                    for j, spec in enumerate(specs[:count])
                ],
                refilter_spec=specs[count],
                extra_spec=specs[count + 1],
            )
        )
    return streams


def churn_kind(index: int, streams: int) -> tuple[int, str]:
    """``(stream, kind)`` of churn operation ``index`` (round robin)."""
    return index % streams, _CHURN_CYCLE[(index // streams) % len(_CHURN_CYCLE)]
