"""Golden digests of the engine's emission stream.

Each configuration drives a :class:`GroupAwareEngine` through
``process`` on every arrival, a ``tick`` up to the next arrival's
timestamp every few arrivals, and ``finish``, exactly as the live broker
does.  Every emission becomes one ``arrival index, seq, sorted
recipients`` line and the lines are hashed.  The pinned digests were
computed before region closure became incremental, so any change to
region detection, greedy tie-breaks or emission order shows up here.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import pytest

from repro.core.cuts import TimeConstraint
from repro.core.engine import GroupAwareEngine
from repro.experiments.configs import dc_specs_from_statistics
from repro.filters.spec import parse_filter
from repro.sources import namos_trace

N_TUPLES = 1500
SEED = 7
TICK_EVERY = 5

#: The paper's setting (section 4.3): eight DC1 subscribers on NAMOS
#: fluoro, delta = multiplier * srcStatistics, multipliers 1.0-2.5.
DC1_MULTIPLIERS = tuple(1.0 + 0.5 * (i % 4) for i in range(8))

#: One filter of each other family, so stateful (SDC), trend (DC2),
#: sampling (SS, RS) and transition (BAND) sets share regions.
MIXED_SPECS = (
    "SDC(fluoro, 0.0468, 0.0234)",
    "DC1(fluoro, 0.0351, 0.0175)",
    "DC2(fluoro, 6.0, 3.0)",
    "SS(tmpr4, 1000, 0.15, 50, 20)",
    "RS(3, 10)",
    "BAND(tmpr4, 3, cool:0:24, mild:24:27, warm:27:100)",
)


def _group_specs(group: str, trace) -> list[str]:
    if group == "dc1x8":
        return dc_specs_from_statistics(trace, "fluoro", DC1_MULTIPLIERS)
    return list(MIXED_SPECS)


def emission_digest(
    group: str, algorithm: str, constraint_ms: Optional[float]
) -> str:
    trace = list(namos_trace(n=N_TUPLES, seed=SEED))
    filters = [
        parse_filter(spec, name=f"app{i}")
        for i, spec in enumerate(_group_specs(group, trace))
    ]
    engine = GroupAwareEngine(
        filters,
        algorithm=algorithm,
        time_constraint=(
            TimeConstraint(constraint_ms) if constraint_ms is not None else None
        ),
    )
    lines: list[str] = []
    routed = 0

    def record(index, emissions):
        for emission in emissions:
            recipients = ",".join(sorted(emission.recipients))
            lines.append(f"{index} {emission.item.seq} {recipients}")

    for index, item in enumerate(trace):
        emissions = engine.process(item)
        routed += len(emissions)
        record(index, emissions)
        if index % TICK_EVERY == TICK_EVERY - 1 and index + 1 < len(trace):
            # A tick no later than the next arrival is batch-identical
            # (see ``GroupAwareEngine.tick``); cuts stay arrival-driven.
            emissions = engine.tick(trace[index + 1].timestamp, cuts=False)
            routed += len(emissions)
            record(index, emissions)
    result = engine.finish()
    record(len(trace), result.emissions[routed:])
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


GOLDEN = {
    ("dc1x8", "region", None): "074d816901b146e4",
    ("dc1x8", "region", 30.0): "69335bb25fb59c56",
    ("dc1x8", "region", 200.0): "8715025595e2e3dd",
    ("dc1x8", "per_candidate_set", None): "3fcbea2e99aafb90",
    ("dc1x8", "per_candidate_set", 30.0): "5bbcdd8b3db4dc96",
    ("dc1x8", "per_candidate_set", 200.0): "68a9ffa67024ba28",
    ("mixed", "region", None): "8becefbcf918e6d8",
    ("mixed", "region", 30.0): "51f5dfa230114fca",
    ("mixed", "region", 200.0): "025065b2d85af790",
    ("mixed", "per_candidate_set", None): "229251099caa778f",
    ("mixed", "per_candidate_set", 30.0): "7f06bf9272aa4dcf",
    ("mixed", "per_candidate_set", 200.0): "e98732c59a8e732c",
}


@pytest.mark.parametrize(
    "group,algorithm,constraint_ms",
    list(GOLDEN),
    ids=[f"{g}-{a}-{c}" for g, a, c in GOLDEN],
)
def test_emission_digest_is_pinned(group, algorithm, constraint_ms):
    assert emission_digest(group, algorithm, constraint_ms) == GOLDEN[
        (group, algorithm, constraint_ms)
    ]
