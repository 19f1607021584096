"""Per-epoch batch reference and the delivery check against it.

The broker finishes its engines at every subscription change (the
cutover) and starts fresh ones, so the reference does the same: one
engine per epoch, built through ``engine_from_config`` exactly as the
broker builds its own, fed the epoch's tuples one ``process`` call at a
time and closed with ``finish()``.  Every expected delivery carries the
*trigger* that released it: the index of the arrival whose ``process``
call returned the emission, the churn operation whose cutover flushed
it, or the end of the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.filters.spec import parse_filter
from repro.runtime.tasks import EngineConfig
from repro.service.broker import engine_from_config

__all__ = [
    "ChurnRecord",
    "Trigger",
    "check_app",
    "expected_deliveries",
    "make_engine",
]

#: ``int >= 0``: arrival index in the stream; ``("churn", k)``: churn
#: operation ``k``; ``None``: the end-of-run teardown.
Trigger = object


@dataclass(frozen=True)
class ChurnRecord:
    """One applied churn operation and where it landed in its stream."""

    index: int
    #: Tuples of this stream acknowledged before the operation.
    position: int
    kind: str  # "re_filter", "subscribe" or "unsubscribe"
    app: str
    spec: Optional[str] = None


def make_engine(subscriptions: Sequence[tuple[str, str]]):
    """A fresh engine for one epoch, built as the broker builds its own."""
    filters = [parse_filter(spec, name=app) for app, spec in subscriptions]
    return engine_from_config(filters, EngineConfig())


def expected_deliveries(
    subscriptions: Sequence[tuple[str, str]],
    tuples: Sequence,
    churn: Sequence[ChurnRecord],
) -> dict[str, list[tuple[int, Trigger]]]:
    """Per app, the ``(seq, trigger)`` deliveries in delivery order."""
    subs = list(subscriptions)
    expected: dict[str, list[tuple[int, Trigger]]] = {app: [] for app, _ in subs}
    position = 0

    def run_epoch(stop: int, closer: Trigger) -> None:
        nonlocal position
        if stop == position:
            return  # the broker skips the cutover of an empty epoch
        engine = make_engine(subs)
        routed = 0
        for index in range(position, stop):
            emissions = engine.process(tuples[index])
            routed += len(emissions)
            for emission in emissions:
                for app in emission.recipients:
                    expected[app].append((emission.item.seq, index))
        for emission in engine.finish().emissions[routed:]:
            for app in emission.recipients:
                expected[app].append((emission.item.seq, closer))
        position = stop

    for record in churn:
        run_epoch(record.position, ("churn", record.index))
        if record.kind == "subscribe":
            subs.append((record.app, record.spec))
            expected.setdefault(record.app, [])
        elif record.kind == "unsubscribe":
            subs = [(app, spec) for app, spec in subs if app != record.app]
        else:
            subs = [
                (app, record.spec if app == record.app else spec)
                for app, spec in subs
            ]
    run_epoch(len(tuples), None)
    return expected


def check_app(expected: Sequence[int], delivered: Sequence[int]) -> tuple[int, int, int]:
    """``(missing, extra, out_of_order)`` deliveries of one app."""
    if list(expected) == list(delivered):
        return 0, 0, 0
    want = Counter(expected)
    got = Counter(delivered)
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    # Out of order: adjacent expected deliveries received in the wrong
    # relative order (each delivered seq mapped to its next unused
    # expected position).
    positions: dict[int, list[int]] = {}
    for pos, seq in enumerate(expected):
        positions.setdefault(seq, []).append(pos)
    cursor: Counter = Counter()
    previous = -1
    out_of_order = 0
    for seq in delivered:
        slots = positions.get(seq)
        if not slots or cursor[seq] >= len(slots):
            continue
        pos = slots[cursor[seq]]
        cursor[seq] += 1
        if pos < previous:
            out_of_order += 1
        previous = pos
    return missing, extra, out_of_order
