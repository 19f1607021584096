"""Region-based segmentation of the candidate-set stream.

Definitions 2-5 of the paper: candidate sets whose time covers intersect
are *connected*; connectivity is transitive; a *region* is a maximal
family of mutually connected candidate sets.  Axiom 2 shows regions'
time covers do not intersect, and Theorems 2-3 show that solving the
hitting-set problem per region preserves both optimality and the
approximation ratio of heuristics.

:class:`RegionTracker` detects region closure online.  A connected
component of candidate sets is emitted as a region once every set in it
is closed, no open set's cover intersects it (touching endpoints count),
and ``now`` has passed the end of its cover, since a tuple arriving at
``now`` could still join it.  The rule applies to every component, not
just the earliest: an all-closed component after an open set that does
not touch it is emitted too.  A closed set never changes, so components
made only of closed sets can merge but never split; the tracker keeps
them as disjoint blocks sorted by cover start and, on each poll, checks
them against the covers of the open sets only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional

from repro.core.candidates import CandidateSet, TimeCover, TupleInterner

__all__ = ["Region", "RegionTracker"]

_region_ids = itertools.count()
_block_lo = itemgetter(0)
_block_hi = itemgetter(1)


def _connects(open_sets: list[CandidateSet], lo: float, hi: float) -> bool:
    """Does any open set's cover intersect ``[lo, hi]``, endpoints included?

    Covers are read lazily: the oldest open set, checked first, is
    usually the one holding a block back.
    """
    for candidate_set in open_sets:
        cover = candidate_set.time_cover
        if cover is not None and cover.min_ts <= hi and lo <= cover.max_ts:
            return True
    return False


@dataclass
class Region:
    """A maximal family of connected candidate sets (Definition 4)."""

    sets: list[CandidateSet]
    cut: bool = False
    region_id: int = field(default_factory=lambda: next(_region_ids))

    @property
    def time_cover(self) -> TimeCover:
        """Union of the member sets' time covers (Definition 5)."""
        covers = [s.time_cover for s in self.sets if s.time_cover is not None]
        if not covers:
            raise ValueError("region has no tuples")
        cover = covers[0]
        for other in covers[1:]:
            cover = cover.union(other)
        return cover

    @property
    def tuple_seqs(self) -> set[int]:
        seqs: set[int] = set()
        for candidate_set in self.sets:
            seqs.update(candidate_set.seqs)
        return seqs

    @property
    def size(self) -> int:
        """Number of distinct tuples covered by the region."""
        return len(self.tuple_seqs)

    def __len__(self) -> int:
        return len(self.sets)


class RegionTracker:
    """Online detection of closed regions.

    Candidate sets register as soon as they are created, are updated in
    place by their filters, and are marked closed by the engine.  Each
    :meth:`poll` moves the sets that closed since the previous poll into
    the blocks of closed sets, merging any blocks a set connects, and
    returns every block that is final (see the module docstring).
    """

    def __init__(self) -> None:
        self._active: dict[int, CandidateSet] = {}
        #: Sets not yet in a block, by id, with their watch order: every
        #: open set plus those closed since the last poll.
        self._open: dict[int, tuple[int, CandidateSet]] = {}
        #: Connected components of closed non-empty sets, as disjoint
        #: ``[lo, hi, entries]`` sorted by ``lo``; an entry is
        #: ``(cover start, watch order, set)``, the order regions list
        #: their sets in.
        self._blocks: list[list] = []
        self._watch_order = itertools.count()
        self.regions_emitted = 0
        self.regions_cut = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def watch(self, candidate_set: CandidateSet) -> None:
        set_id = candidate_set.set_id
        if set_id not in self._active:
            self._active[set_id] = candidate_set
            self._open[set_id] = (next(self._watch_order), candidate_set)

    def discard(self, candidate_set: CandidateSet) -> None:
        set_id = candidate_set.set_id
        if self._active.pop(set_id, None) is None:
            return
        if self._open.pop(set_id, None) is None:
            self._unblock(candidate_set)

    # ------------------------------------------------------------------
    # Queries used by the cut machinery
    # ------------------------------------------------------------------
    def active_sets(self) -> list[CandidateSet]:
        return [s for s in self._active.values() if len(s) > 0]

    def active_span(self, now: float) -> float:
        """Elapsed time since the oldest un-emitted tuple arrived.

        This is the ``getRegionSpan`` used by the timely-cut test
        (Figure 3.3, line 8).
        """
        oldest: Optional[float] = None
        for candidate_set in self._active.values():
            cover = candidate_set.time_cover
            if cover is not None and (oldest is None or cover.min_ts < oldest):
                oldest = cover.min_ts
        if oldest is None:
            return 0.0
        return now - oldest

    def active_tuple_count(self, interner: Optional[TupleInterner] = None) -> int:
        """Distinct tuples across the active sets.

        With an ``interner`` the count is one OR/popcount over the sets'
        cached membership bitsets (see ``CandidateSet.member_mask``) —
        the timely-cut test calls this on *every* arrival, so the
        set-union fallback's per-call allocation is the difference
        between O(live tuples) and O(active sets) on the hot path.
        """
        if interner is not None:
            mask = 0
            for candidate_set in self._active.values():
                mask |= candidate_set.member_mask(interner)
            return mask.bit_count()
        seqs: set[int] = set()
        for candidate_set in self._active.values():
            seqs.update(candidate_set.seqs)
        return len(seqs)

    def has_open_sets(self) -> bool:
        return any(not s.closed and len(s) > 0 for _, s in self._open.values())

    def contains_tuple(self, seq: int) -> bool:
        """Is ``seq`` still a member of any active set?

        The engine uses this to recycle a dismissed tuple's interner bit
        the moment no live set references it (region closure handles the
        common case; this handles tuples dismissed before ever reaching
        a closed region)."""
        return any(s.contains_seq(seq) for s in self._active.values())

    # ------------------------------------------------------------------
    # Region closure
    # ------------------------------------------------------------------
    def poll(self, now: float, final: bool = False, cut: bool = False) -> list[Region]:
        """Return every region that is now final, removing its sets.

        ``final`` forces all components out (end-of-stream flush); the
        caller must have closed every open set first.  ``cut`` marks the
        returned regions as produced by a timely cut, for the
        percent-of-regions-cut metric (Figure 4.11).
        """
        # This runs on every arrival and tick, so it touches only the
        # open sets (at most one per filter in the engine) and the
        # blocks whose cover ends before ``now``.
        open_sets: list[CandidateSet] = []
        newly_closed: Optional[list[tuple[int, CandidateSet]]] = None
        for pair in self._open.values():
            if pair[1].closed:
                if newly_closed is None:
                    newly_closed = []
                newly_closed.append(pair)
            else:
                open_sets.append(pair[1])
        if newly_closed:
            for order, candidate_set in newly_closed:
                del self._open[candidate_set.set_id]
                cover = candidate_set.time_cover
                if cover is not None:
                    self._merge((cover.min_ts, order, candidate_set), cover.max_ts)
                else:
                    # Empty closed sets (all tuples dismissed) carry no
                    # information.
                    del self._active[candidate_set.set_id]

        # Blocks are sorted by end as well as start, so those ending
        # before ``now`` come first.  A block reaching ``now`` waits,
        # because a tuple arriving at ``now`` could still connect to it.
        blocks = self._blocks
        regions: list[Region] = []
        kept: list[list] = []
        ready = 0
        for block in blocks:
            lo, hi, entries = block
            if hi >= now and not final:
                break
            ready += 1
            if _connects(open_sets, lo, hi):
                kept.append(block)
                continue
            sets = [entry[2] for entry in sorted(entries)]
            regions.append(Region(sets=sets, cut=cut or any(s.cut for s in sets)))
            for candidate_set in sets:
                del self._active[candidate_set.set_id]
        if not regions:
            return regions
        self._blocks = kept + blocks[ready:]

        self.regions_emitted += len(regions)
        self.regions_cut += sum(1 for region in regions if region.cut)
        return regions

    def _merge(self, entry: tuple[float, int, CandidateSet], hi: float) -> None:
        """Add a closed set covering ``[entry[0], hi]`` to the blocks,
        merging every block it connects."""
        lo = entry[0]
        blocks = self._blocks
        # Arrivals are in timestamp order, so a set that just closed
        # usually starts after every block or connects only the last.
        if not blocks or blocks[-1][1] < lo:
            blocks.append([lo, hi, [entry]])
            return
        last = blocks[-1]
        if last[0] <= hi and (len(blocks) == 1 or blocks[-2][1] < lo):
            if lo < last[0]:
                last[0] = lo
            if hi > last[1]:
                last[1] = hi
            last[2].append(entry)
            return
        # Blocks are disjoint and sorted, so their ends are sorted too:
        # the connected ones are those ending at or after ``lo`` and
        # starting at or before ``hi``, a contiguous run.
        first = bisect_left(blocks, lo, key=_block_hi)
        stop = bisect_right(blocks, hi, lo=first, key=_block_lo)
        if first == stop:
            blocks.insert(first, [lo, hi, [entry]])
            return
        entries = [entry]
        for block in blocks[first:stop]:
            entries.extend(block[2])
        blocks[first:stop] = [
            [min(lo, blocks[first][0]), max(hi, blocks[stop - 1][1]), entries]
        ]

    def _unblock(self, candidate_set: CandidateSet) -> None:
        """Drop a discarded closed set, re-merging the rest of its block."""
        for index, block in enumerate(self._blocks):
            if any(entry[2] is candidate_set for entry in block[2]):
                del self._blocks[index]
                for entry in block[2]:
                    if entry[2] is not candidate_set:
                        self._merge(entry, entry[2].time_cover.max_ts)
                return

    @staticmethod
    def partition(sets: Iterable[CandidateSet]) -> list[list[CandidateSet]]:
        """Offline partition of candidate sets into regions (for tests).

        Implements Definitions 2-4 directly over a finished collection.
        """
        populated = sorted(
            (s for s in sets if len(s) > 0),
            key=lambda s: s.time_cover.min_ts,  # type: ignore[union-attr]
        )
        if not populated:
            return []
        components: list[list[CandidateSet]] = [[populated[0]]]
        current_max = populated[0].time_cover.max_ts  # type: ignore[union-attr]
        for candidate_set in populated[1:]:
            cover = candidate_set.time_cover
            assert cover is not None
            if cover.min_ts <= current_max:
                components[-1].append(candidate_set)
                current_max = max(current_max, cover.max_ts)
            else:
                components.append([candidate_set])
                current_max = cover.max_ts
        return components
