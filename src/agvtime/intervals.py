"""Per-resource reservation trees with gap queries over half-open tick spans.

Time is measured in unsigned integer ticks. A single distinguished value INF
(positive infinity) marks reservations that never expire; every span start
is finite. A span is a plain ``start, end`` pair of ticks with start < end,
half-open, so [3, 7) and [7, 9) touch but do not overlap. Spans are not
validated here: the planner builds them from checked paths, and
``TimeGraph.reserve``, the one-span entry for other callers, checks its own.

A GapTree holds the reservations of one resource as a sorted sequence of
disjoint intervals, each tagged with the non-empty set of AGV ids holding it.
The core query asks, from one AGV's point of view, where the free windows are:
stretches holding no reservation at all, or only that AGV's own, count as gaps.
"""

from bisect import bisect_left, bisect_right

INF = float("inf")

AgvId = int

_ALL_FREE = ((0, INF),)  # gaps_from(agv, 0) of every empty tree


def fmt_tick(t) -> str:
    return "inf" if t == INF else str(t)


def parse_tick(s: str):
    return INF if s == "inf" else int(s)


class GapTree:
    """Reservation intervals of a single resource, ordered by start tick.

    Stored intervals are pairwise disjoint and each carries a frozenset of AGV
    ids. The structure is kept fragmentation-free: two stored intervals that
    touch never carry equal id sets. Backing store is three parallel lists
    (starts, ends, id sets). Because stored intervals are disjoint, both
    ``starts`` and ``ends`` are strictly increasing, so ``bisect`` locates the
    intervals that intersect a window, and mutations touch only those plus
    their two neighbours. A mutation writes its result back with one slice
    assignment per list: an O(n) memmove instead of the O(log n) of a balanced
    tree. That trade wins on the small trees planning builds: a mean of 8.1
    and a max of 49 stored intervals per resource on a 30x30 grid with 160
    demands, a mean of 42.2 and a max of 131 with subdivided edges and wide
    geographic links.

    Most footprint spans overlap nothing stored. ``insert`` finds that with
    one bisect and writes such a span straight into its gap, merging a
    touching neighbour only when agv alone holds it; a span that overlaps
    takes the general split, coalesce and splice path.

    ``gaps_from`` builds an AGV's gaps from a given tick on afresh on every
    call, from the stored intervals that end after that tick only; when none
    does, the answer is the one gap from that tick on, with no scan. A path
    search reads each (resource, AGV) pair once, from its earliest tick, and
    keeps the result.

    ``last_touched`` exposes how many stored intervals the most recent
    insert, remove or gap query examined, for locality assertions.
    ``version`` counts mutations.
    """

    __slots__ = ("_starts", "_ends", "_ids", "last_touched", "version")

    def __init__(self):
        self._starts = []
        self._ends = []
        self._ids = []  # frozenset of AgvId per stored interval
        self.last_touched = 0
        self.version = 0

    def __len__(self):
        return len(self._starts)

    def __bool__(self):
        return True

    def intervals(self):
        """All stored (start, end, ids) triples in start order."""
        return list(zip(self._starts, self._ends, self._ids))

    def _affected(self, start, end):
        """Index range [lo, hi) of the stored intervals intersecting
        [start, end), and those intervals as (start, end, ids) triples."""
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        return lo, hi, zip(self._starts[lo:hi], self._ends[lo:hi], self._ids[lo:hi])

    def _splice(self, lo, hi, pieces):
        """Replace stored intervals lo..hi-1 with ``pieces``.

        Pulls in the touching predecessor and successor, coalesces runs of
        touching pieces with equal id sets, and writes the result back.
        """
        starts, ends, idsets = self._starts, self._ends, self._ids
        if pieces:
            if lo > 0 and ends[lo - 1] == pieces[0][0]:
                lo -= 1
                pieces.insert(0, (starts[lo], ends[lo], idsets[lo]))
                self.last_touched += 1
            if hi < len(starts) and starts[hi] == pieces[-1][1]:
                pieces.append((starts[hi], ends[hi], idsets[hi]))
                hi += 1
                self.last_touched += 1
        new_s, new_e, new_ids = [], [], []
        for s, e, ids in pieces:
            if new_e and new_e[-1] == s and new_ids[-1] == ids:
                new_e[-1] = e
            else:
                new_s.append(s)
                new_e.append(e)
                new_ids.append(ids)
        starts[lo:hi] = new_s
        ends[lo:hi] = new_e
        idsets[lo:hi] = new_ids
        self.version += 1

    def insert(self, agv: AgvId, start, end) -> None:
        """Reserve [start, end) for agv, splitting partial overlaps and
        merging equals.

        Re-inserting over the AGV's own reservations is idempotent.
        """
        starts, ends, idsets = self._starts, self._ends, self._ids
        own = frozenset((agv,))
        lo = bisect_right(ends, start)
        if lo == len(starts) or starts[lo] >= end:
            # Overlaps nothing: write the span into its gap, merging a
            # touching neighbour that agv alone holds.
            left = lo > 0 and ends[lo - 1] == start
            right = lo < len(starts) and starts[lo] == end
            self.last_touched = left + right
            self.version += 1
            if left and idsets[lo - 1] == own:
                if right and idsets[lo] == own:
                    ends[lo - 1] = ends[lo]
                    del starts[lo], ends[lo], idsets[lo]
                else:
                    ends[lo - 1] = end
            elif right and idsets[lo] == own:
                starts[lo] = start
            else:
                starts.insert(lo, start)
                ends.insert(lo, end)
                idsets.insert(lo, own)
            return
        lo, hi, stored = self._affected(start, end)
        self.last_touched = hi - lo
        pieces = []
        cur = start
        for k, ke, ids in stored:
            if k < start:
                pieces.append((k, start, ids))
            lo_t = max(k, start)
            if lo_t > cur:
                pieces.append((cur, lo_t, own))
            hi_t = min(ke, end)
            pieces.append((lo_t, hi_t, ids | own))
            if ke > end:
                pieces.append((end, ke, ids))
            cur = hi_t
        if cur < end:
            pieces.append((cur, end, own))
        self._splice(lo, hi, pieces)

    def remove(self, agv: AgvId, start, end) -> None:
        """Release agv's hold over [start, end). Intervals left with no
        holder vanish."""
        lo, hi, stored = self._affected(start, end)
        self.last_touched = hi - lo
        pieces = []
        for k, ke, ids in stored:
            if k < start:
                pieces.append((k, start, ids))
            rest = ids - {agv}
            if rest:
                pieces.append((max(k, start), min(ke, end), rest))
            if ke > end:
                pieces.append((end, ke, ids))
        self._splice(lo, hi, pieces)

    def gap_query(self, agv: AgvId, start, end) -> list[tuple]:
        """Maximal free (start, end) windows for agv within [start, end),
        sorted.

        A tick is free when unreserved or reserved only by ``agv`` itself.
        Touching free stretches come back merged.
        """
        lo, hi, stored = self._affected(start, end)
        self.last_touched = hi - lo
        return _free(agv, start, end, stored)

    def gaps_from(self, agv: AgvId, since) -> tuple:
        """``gap_query(agv, since, INF)`` as a tuple, built on every call from
        the stored intervals that end after ``since``. A gap that straddles
        ``since`` comes back starting there.
        """
        ends = self._ends
        if not ends:
            return _ALL_FREE if since == 0 else ((since, INF),)
        if ends[0] > since:
            # Nothing ends by since: the common case, and every read from
            # tick 0, skips the bisect and the slice copies.
            stored = zip(self._starts, ends, self._ids)
        elif ends[-1] <= since:
            return ((since, INF),)
        else:
            lo = bisect_right(ends, since)
            stored = zip(self._starts[lo:], ends[lo:], self._ids[lo:])
        return tuple(_free(agv, since, INF, stored))

    def holders_to_infinity(self) -> frozenset[AgvId]:
        """Ids holding a reservation that extends to INF, if any."""
        if self._ends and self._ends[-1] == INF:
            return self._ids[-1]
        return frozenset()

    def dump(self) -> str:
        """Canonical text form: one ``start end id,id,...`` line per interval."""
        lines = []
        for s, e, ids in self.intervals():
            lines.append(f"{s} {fmt_tick(e)} {','.join(str(i) for i in sorted(ids))}")
        return "\n".join(lines)

    def check_invariants(self) -> None:
        n = len(self._starts)
        assert len(self._ends) == n == len(self._ids), "parallel lists differ in length"
        prev_end = None
        prev_ids = None
        for s, e, ids in self.intervals():
            assert s != INF and s >= 0, f"non-finite or negative start {s}"
            assert s < e, f"empty stored interval [{s}, {e})"
            assert ids, f"empty id set at [{s}, {e})"
            if prev_end is not None:
                assert prev_end <= s, "stored intervals overlap"
                assert not (prev_end == s and prev_ids == ids), (
                    f"fragmentation: touching equal-set intervals at {s}"
                )
            prev_end, prev_ids = e, ids


def _free(agv, start, end, stored):
    """Free (start, end) stretches for agv within [start, end), given the
    stored (start, end, ids) triples intersecting it, in order."""
    gaps = []
    cur = start
    for k, ke, ids in stored:
        if len(ids) == 1 and agv in ids:
            continue
        if k > cur:
            gaps.append((cur, k))
        cur = min(ke, end)
    if cur < end:
        gaps.append((cur, end))
    return gaps
