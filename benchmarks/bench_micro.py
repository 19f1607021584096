"""Micro-benchmarks of the hot paths (true pytest-benchmark timing).

These complement the table/figure reproductions: they measure raw
throughput of the greedy hitting-set solver, the two engines (with a
three-filter group and with the paper's eight-subscriber DC1 group) and
the multicast forwarding so performance regressions are visible.

``BENCH_MICRO_TUPLES`` scales the engine/replay trace lengths (default
1000) so CI smoke jobs can run tiny sizes just to catch perf-path
import or interface errors.
"""

import os
import random

from repro.core.candidates import CandidateSet
from repro.core.engine import GroupAwareEngine, SelfInterestedEngine
from repro.core.hitting_set import greedy_hitting_set
from repro.core.tuples import StreamTuple
from repro.experiments.configs import dc_specs_from_statistics
from repro.filters.spec import parse_group
from repro.net.multicast import ScribeMulticast
from repro.net.overlay import OverlayNetwork
from repro.sources import namos_trace

SPECS = [
    "DC1(tmpr4, 0.0620, 0.0310)",
    "DC1(tmpr4, 0.0480, 0.0240)",
    "DC1(tmpr4, 0.0310, 0.0155)",
]

N_TUPLES = int(os.environ.get("BENCH_MICRO_TUPLES", "1000"))

#: Section 4.3 DC1 recipe for eight subscribers (multipliers 1.0-2.5),
#: the paper's group size: dozens of candidate sets are active per
#: arrival, so region closure, not filtering, dominates the core.
DC1_MULTIPLIERS = tuple(1.0 + 0.5 * (i % 4) for i in range(8))


def _hitting_instance(n_sets=40, set_size=6, universe=120, seed=3):
    rng = random.Random(seed)
    tuples = [
        StreamTuple(seq=i, timestamp=float(i * 10), values={"v": float(i)})
        for i in range(universe)
    ]
    sets = []
    for index in range(n_sets):
        cs = CandidateSet(f"f{index}")
        start = rng.randrange(universe - set_size)
        for item in tuples[start : start + set_size]:
            cs.add(item)
        cs.close()
        sets.append(cs)
    return sets


def test_greedy_hitting_set_throughput(benchmark):
    sets = _hitting_instance()
    selection = benchmark(greedy_hitting_set, sets)
    assert selection.output_size <= len(sets)


def test_group_aware_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return GroupAwareEngine(parse_group(SPECS), algorithm="region").run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_group_aware_engine_eight_filters_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)
    specs = dc_specs_from_statistics(trace, "fluoro", DC1_MULTIPLIERS)

    def run():
        return GroupAwareEngine(parse_group(specs), algorithm="region").run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_per_candidate_set_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return GroupAwareEngine(
            parse_group(SPECS), algorithm="per_candidate_set"
        ).run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_self_interested_engine_throughput(benchmark):
    trace = namos_trace(n=N_TUPLES, seed=7)

    def run():
        return SelfInterestedEngine(parse_group(SPECS)).run(trace)

    result = benchmark(run)
    assert result.output_count > 0


def test_multicast_publish_throughput(benchmark):
    overlay = OverlayNetwork([f"n{i}" for i in range(16)])
    multicast = ScribeMulticast(overlay)
    multicast.create_group("g")
    for index in range(16):
        multicast.join("g", f"app{index}", f"n{index}")
    recipients = frozenset(f"app{i}" for i in range(0, 16, 2))

    def publish():
        return multicast.publish("g", "n0", recipients, 64, 0.0)

    receipt = benchmark(publish)
    assert len(receipt.delivery_ms) == 8


def test_trace_generation_throughput(benchmark):
    trace = benchmark(namos_trace, 2 * N_TUPLES, 7)
    assert len(trace) == 2 * N_TUPLES


def test_trace_replay_throughput(benchmark):
    trace = namos_trace(n=2 * N_TUPLES, seed=7)

    def scan():
        total = 0.0
        for item in trace:
            total += item.value("tmpr4")
        return total

    assert benchmark(scan) != 0
