"""Unit tests for region-based segmentation (section 2.3.2)."""

from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidates import CandidateSet, TimeCover
from repro.core.regions import Region, RegionTracker
from repro.core.tuples import StreamTuple
from tests.conftest import make_tuples


def _set(filter_name, items, closed=True):
    cs = CandidateSet(filter_name)
    for item in items:
        cs.add(item)
    if closed:
        cs.close()
    return cs


class TestRegion:
    def test_time_cover_union(self):
        items = make_tuples([1.0, 2.0, 3.0, 4.0], interval_ms=10)
        region = Region(sets=[_set("a", items[:2]), _set("b", items[2:])])
        assert region.time_cover.min_ts == 0.0
        assert region.time_cover.max_ts == 30.0

    def test_tuple_seqs_deduplicated(self):
        items = make_tuples([1.0, 2.0, 3.0])
        region = Region(sets=[_set("a", items[:2]), _set("b", items[1:])])
        assert region.tuple_seqs == {0, 1, 2}
        assert region.size == 3
        assert len(region) == 2

    def test_empty_region_cover_raises(self):
        with pytest.raises(ValueError, match="no tuples"):
            Region(sets=[]).time_cover


class TestOfflinePartition:
    def test_paper_example_two_regions(self):
        """Figure 2.5: three DC filters produce exactly two regions."""
        items = make_tuples([0, 35, 29, 45, 50, 59, 80, 97, 100, 112], interval_ms=10)
        by_value = {int(t.value("value")): t for t in items}
        sets = [
            _set("A", [by_value[0]]),
            _set("A", [by_value[45], by_value[50], by_value[59]]),
            _set("A", [by_value[97], by_value[100]]),
            _set("B", [by_value[0]]),
            _set("B", [by_value[45], by_value[50]]),
            _set("B", [by_value[97], by_value[100]]),
            _set("C", [by_value[0]]),
            _set("C", [by_value[59], by_value[80], by_value[97], by_value[100]]),
        ]
        regions = RegionTracker.partition(sets)
        assert len(regions) == 2
        assert len(regions[0]) == 3  # the three singleton {0} sets
        assert len(regions[1]) == 5

    def test_transitive_connectivity(self):
        """Definition 3: A-B connected and B-C connected puts A and C in
        one region even if A and C do not intersect."""
        items = make_tuples([1.0] * 5, interval_ms=10)
        a = _set("a", items[0:2])  # covers [0, 10]
        b = _set("b", items[1:4])  # covers [10, 30]
        c = _set("c", items[3:5])  # covers [30, 40]
        regions = RegionTracker.partition([a, c, b])
        assert len(regions) == 1

    def test_empty_sets_ignored(self):
        items = make_tuples([1.0])
        assert len(RegionTracker.partition([_set("a", items), CandidateSet("b")])) == 1

    def test_no_sets(self):
        assert RegionTracker.partition([]) == []


class TestRegionTracker:
    def test_region_not_closed_while_sets_open(self):
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        open_set = _set("a", items, closed=False)
        tracker.watch(open_set)
        assert tracker.poll(now=100.0) == []

    def test_region_closes_after_all_sets_closed(self):
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        cs = _set("a", items)
        tracker.watch(cs)
        regions = tracker.poll(now=20.0)
        assert len(regions) == 1
        assert regions[0].sets == [cs]
        assert tracker.regions_emitted == 1

    def test_closed_component_waits_for_now_to_pass(self):
        """A component whose cover reaches 'now' could still be joined."""
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        tracker.watch(_set("a", items))
        assert tracker.poll(now=10.0) == []  # cover max == now
        assert len(tracker.poll(now=10.1)) == 1

    def test_final_flush_ignores_now(self):
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        tracker.watch(_set("a", items))
        assert len(tracker.poll(now=10.0, final=True)) == 1

    def test_open_set_blocks_connected_component_only(self):
        items = make_tuples([1.0] * 6, interval_ms=10)
        tracker = RegionTracker()
        early = _set("a", items[0:2])  # [0, 10] closed
        blocker = _set("b", items[1:3], closed=False)  # [10, 20] open
        tracker.watch(early)
        tracker.watch(blocker)
        assert tracker.poll(now=100.0) == []
        blocker.close()
        assert len(tracker.poll(now=100.0)) == 1

    def test_disjoint_components_close_independently(self):
        items = make_tuples([1.0] * 8, interval_ms=10)
        tracker = RegionTracker()
        done = _set("a", items[0:2])  # [0, 10]
        pending = _set("b", items[5:7], closed=False)  # [50, 60] open
        tracker.watch(done)
        tracker.watch(pending)
        regions = tracker.poll(now=60.0)
        assert len(regions) == 1
        assert regions[0].sets == [done]

    def test_cut_marking(self):
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        cs = _set("a", items, closed=False)
        cs.close(cut=True)
        tracker.watch(cs)
        regions = tracker.poll(now=20.0)
        assert regions[0].cut
        assert tracker.regions_cut == 1

    def test_active_span(self):
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        tracker.watch(_set("a", items, closed=False))
        assert tracker.active_span(now=35.0) == 35.0

    def test_active_span_empty(self):
        assert RegionTracker().active_span(now=10.0) == 0.0

    def test_active_tuple_count_dedups(self):
        items = make_tuples([1.0, 2.0, 3.0], interval_ms=10)
        tracker = RegionTracker()
        tracker.watch(_set("a", items[:2], closed=False))
        tracker.watch(_set("b", items[1:], closed=False))
        assert tracker.active_tuple_count() == 3

    def test_has_open_sets(self):
        items = make_tuples([1.0])
        tracker = RegionTracker()
        assert not tracker.has_open_sets()
        cs = _set("a", items, closed=False)
        tracker.watch(cs)
        assert tracker.has_open_sets()
        cs.close()
        assert not tracker.has_open_sets()

    def test_empty_closed_sets_are_discarded(self):
        tracker = RegionTracker()
        cs = CandidateSet("a")
        tracker.watch(cs)
        cs.close()
        tracker.poll(now=10.0)
        assert tracker.active_sets() == []

    def test_empty_closed_sets_purged_even_without_closable_regions(self):
        # Regression: the poll fast path (no populated set closed) must
        # still purge fully-dismissed closed sets, or they accumulate in
        # the per-arrival scans on a live stream.
        items = make_tuples([1.0, 2.0], interval_ms=10)
        tracker = RegionTracker()
        emptied = CandidateSet("a")
        emptied.add(items[0])
        tracker.watch(emptied)
        emptied.remove(items[0])  # all tuples dismissed
        emptied.close()
        still_open = CandidateSet("b")
        still_open.add(items[1])
        tracker.watch(still_open)
        assert tracker.poll(now=100.0) == []  # open set: nothing closes
        assert emptied.set_id not in tracker._active
        assert still_open.set_id in tracker._active


class SweepTracker:
    """Reference region closure: sort and sweep every active set per poll.

    The tracker's original algorithm, kept as the oracle the incremental
    :class:`RegionTracker` must match poll for poll.
    """

    def __init__(self) -> None:
        self._active: dict[int, CandidateSet] = {}
        self.regions_emitted = 0
        self.regions_cut = 0

    def watch(self, candidate_set: CandidateSet) -> None:
        self._active[candidate_set.set_id] = candidate_set

    def discard(self, candidate_set: CandidateSet) -> None:
        self._active.pop(candidate_set.set_id, None)

    def active_sets(self) -> list[CandidateSet]:
        return [s for s in self._active.values() if len(s) > 0]

    def has_open_sets(self) -> bool:
        return any(not s.closed for s in self._active.values() if len(s) > 0)

    def poll(self, now: float, final: bool = False, cut: bool = False) -> list[Region]:
        populated: list[tuple[CandidateSet, TimeCover]] = []
        any_closed = False
        stale: Optional[list[CandidateSet]] = None
        for s in self._active.values():
            if len(s) > 0:
                populated.append((s, s.time_cover))
                any_closed = any_closed or s.closed
            elif s.closed:
                if stale is None:
                    stale = []
                stale.append(s)
        if stale:
            for s in stale:
                self.discard(s)
        if not populated:
            return []
        if not any_closed:
            return []
        populated.sort(key=lambda pair: pair[1].min_ts)

        components: list[list[tuple[CandidateSet, TimeCover]]] = []
        current = [populated[0]]
        current_max = populated[0][1].max_ts
        for pair in populated[1:]:
            cover = pair[1]
            if cover.min_ts <= current_max:
                current.append(pair)
                if cover.max_ts > current_max:
                    current_max = cover.max_ts
            else:
                components.append(current)
                current = [pair]
                current_max = cover.max_ts
        components.append(current)

        closed_regions: list[Region] = []
        for component in components:
            if not all(s.closed for s, _ in component):
                continue
            component_max = max(cover.max_ts for _, cover in component)
            if not final and component_max >= now:
                continue
            sets = [s for s, _ in component]
            region = Region(sets=sets, cut=cut or any(s.cut for s in sets))
            closed_regions.append(region)
            for candidate_set in sets:
                self.discard(candidate_set)

        self.regions_emitted += len(closed_regions)
        self.regions_cut += sum(1 for region in closed_regions if region.cut)
        return closed_regions


def _shape(regions: list[Region]) -> list[tuple[list[int], bool]]:
    return [([s.set_id for s in region.sets], region.cut) for region in regions]


def _assert_same_state(tracker: RegionTracker, oracle: SweepTracker) -> None:
    assert [s.set_id for s in tracker.active_sets()] == [
        s.set_id for s in oracle.active_sets()
    ]
    assert tracker.has_open_sets() == oracle.has_open_sets()
    assert tracker.regions_emitted == oracle.regions_emitted
    assert tracker.regions_cut == oracle.regions_cut


_OPS = ("watch", "advance", "add", "add", "add", "remove", "close", "poll", "discard")


class TestIncrementalClosureMatchesSweep:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_random_operation_sequences(self, data):
        tracker, oracle = RegionTracker(), SweepTracker()
        watched: list[CandidateSet] = []
        now = 0.0
        arrival = StreamTuple(seq=0, timestamp=now, values={"value": 0.0})

        def pick(candidates):
            return data.draw(st.sampled_from(candidates)) if candidates else None

        for _ in range(data.draw(st.integers(1, 80))):
            op = data.draw(st.sampled_from(_OPS))
            open_sets = [s for s in watched if not s.closed]
            if op == "watch":
                candidate_set = CandidateSet(f"f{len(watched) % 4}")
                watched.append(candidate_set)
                tracker.watch(candidate_set)
                oracle.watch(candidate_set)
            elif op == "advance":
                # Sets not added to meanwhile stop short of ``now``.
                now += data.draw(st.sampled_from([10.0, 10.0, 20.0, 30.0]))
                arrival = StreamTuple(
                    seq=arrival.seq + 1, timestamp=now, values={"value": 0.0}
                )
            elif op == "add" and open_sets:
                pick(open_sets).add(arrival)
            elif op == "remove":
                populated = [s for s in open_sets if len(s) > 0]
                candidate_set = pick(populated)
                if candidate_set is not None:
                    # Members are in arrival order: index 0 and -1 are the
                    # cover's boundaries, the rest interior.
                    members = candidate_set.tuples
                    candidate_set.remove(members[data.draw(st.integers(-1, len(members) - 1))])
            elif op == "close" and open_sets:
                pick(open_sets).close(cut=data.draw(st.booleans()))
            elif op == "poll":
                at = now + data.draw(st.sampled_from([0.0, 0.0, 5.0, 10.0, 40.0]))
                final = data.draw(st.booleans()) and data.draw(st.booleans())
                cut = data.draw(st.booleans())
                assert _shape(tracker.poll(at, final=final, cut=cut)) == _shape(
                    oracle.poll(at, final=final, cut=cut)
                )
            elif op == "discard" and watched:
                candidate_set = pick(watched)
                tracker.discard(candidate_set)
                oracle.discard(candidate_set)
            _assert_same_state(tracker, oracle)

        for candidate_set in watched:
            if not candidate_set.closed:
                candidate_set.close()
        assert _shape(tracker.poll(now, final=True)) == _shape(
            oracle.poll(now, final=True)
        )
        _assert_same_state(tracker, oracle)
        assert tracker.active_sets() == []

    def _both(self, *sets):
        tracker, oracle = RegionTracker(), SweepTracker()
        for candidate_set in sets:
            tracker.watch(candidate_set)
            oracle.watch(candidate_set)
        return tracker, oracle

    def test_closed_component_right_of_untouched_open_set_is_emitted(self):
        items = make_tuples([1.0] * 6, interval_ms=10)
        pending = _set("a", items[0:2], closed=False)  # [0, 10] open
        done = _set("b", items[3:5])  # [30, 40] closed, not touching
        tracker, oracle = self._both(pending, done)
        regions = tracker.poll(now=50.0)
        assert _shape(regions) == [([done.set_id], False)]
        assert _shape(oracle.poll(now=50.0)) == _shape(regions)
        assert tracker.active_sets() == [pending]

    def test_covers_meeting_at_one_timestamp_connect(self):
        items = make_tuples([1.0] * 4, interval_ms=10)
        left = _set("a", items[0:2])  # [0, 10]
        right = _set("b", items[1:3])  # [10, 20]
        tracker, oracle = self._both(right, left)
        regions = tracker.poll(now=30.0)
        # One region, sets by cover start.
        assert _shape(regions) == [([left.set_id, right.set_id], False)]
        assert _shape(oracle.poll(now=30.0)) == _shape(regions)

    def test_open_set_meeting_at_one_timestamp_blocks(self):
        items = make_tuples([1.0] * 4, interval_ms=10)
        done = _set("a", items[0:2])  # [0, 10] closed
        pending = _set("b", items[1:3], closed=False)  # [10, 20] open
        tracker, _ = self._both(done, pending)
        assert tracker.poll(now=30.0) == []
        pending.close()
        assert _shape(tracker.poll(now=30.0)) == [([done.set_id, pending.set_id], False)]

    def test_discarding_a_closed_bridge_splits_its_block(self):
        items = make_tuples([1.0] * 6, interval_ms=10)
        left = _set("a", items[0:2])  # [0, 10]
        bridge = _set("b", items[1:4])  # [10, 30]
        right = _set("c", items[3:5])  # [30, 40]
        pending = _set("d", items[0:1], closed=False)  # [0, 0] open
        tracker, oracle = self._both(left, bridge, right, pending)
        assert tracker.poll(now=50.0) == oracle.poll(now=50.0) == []
        tracker.discard(bridge)
        oracle.discard(bridge)
        regions = tracker.poll(now=50.0)
        assert _shape(regions) == [([right.set_id], False)]
        assert _shape(oracle.poll(now=50.0)) == _shape(regions)
