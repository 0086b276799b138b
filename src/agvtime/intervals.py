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


class _SoloSets(dict):
    """AGV id -> the one ``frozenset((agv,))`` every tree stores for it."""

    def __missing__(self, agv):
        own = self[agv] = frozenset((agv,))
        return own


_SOLO = _SoloSets()


def fmt_tick(t) -> str:
    return "inf" if t == INF else str(t)


def parse_tick(s: str):
    """Inverse of ``fmt_tick``: only what it writes comes back. A tick is
    ``inf`` or ASCII digits with no sign, space or leading zero; anything
    else raises ValueError."""
    if s == "inf":
        return INF
    if s.isascii() and s.isdigit() and str(int(s)) == s:
        return int(s)
    raise ValueError(f"bad tick {s!r}")


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

    Every single-holder id set a tree stores is the one ``frozenset((agv,))``
    the module keeps for that AGV, shared by all trees, and
    ``check_invariants`` asserts it. Nearly every stored interval is a
    footprint span held by one AGV: a set of its own would cost it about 200
    bytes, a shared one costs it a list slot.

    A tree has two reads. ``gaps_from`` is the planner's: it builds an AGV's
    gaps from a given tick on afresh on every call, in one index loop over
    the stored intervals that end after that tick. An empty tree, a tree
    where nothing ends by that tick (no bisect) and a tree where everything
    does (the one gap from that tick on, with no scan) each take a fast
    path. A path search reads each (resource, AGV) pair once, from its
    earliest tick, and keeps the result. ``is_free`` is the audit's: whether
    one window [start, end) is a single gap for the AGV, decided without
    building the gaps that ``gap_query``, the general window read, returns.

    ``last_touched`` exposes how many stored intervals the most recent
    insert, remove or gap query examined, for locality assertions.
    """

    __slots__ = ("_starts", "_ends", "_ids", "last_touched")

    def __init__(self):
        self._starts = []
        self._ends = []
        self._ids = []  # frozenset of AgvId per stored interval
        self.last_touched = 0

    def __len__(self):
        return len(self._starts)

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

    def insert(self, agv: AgvId, start, end) -> None:
        """Reserve [start, end) for agv, splitting partial overlaps and
        merging equals.

        Re-inserting over the AGV's own reservations is idempotent.
        """
        starts, ends, idsets = self._starts, self._ends, self._ids
        own = _SOLO[agv]
        lo = bisect_right(ends, start)
        if lo == len(starts) or starts[lo] >= end:
            # Overlaps nothing: write the span into its gap, merging a
            # touching neighbour that agv alone holds.
            left = lo > 0 and ends[lo - 1] == start
            right = lo < len(starts) and starts[lo] == end
            self.last_touched = left + right
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
            pieces.append((lo_t, hi_t, ids if agv in ids else ids | own))
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
            if len(rest) == 1:
                rest = _SOLO[next(iter(rest))]
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

    def is_free(self, agv: AgvId, start, end) -> bool:
        """Whether ``gap_query(agv, start, end)`` is the one gap
        ``[(start, end)]``: every tick of a non-empty [start, end) is
        unreserved or held by agv alone. The audit's read, decided in one
        walk from the first stored interval that ends after ``start``,
        building no gaps. An empty or inverted span is never free.

        The shared-set test is only a shortcut: a single-holder set that is
        not the shared one is still read exactly.
        """
        if start >= end:
            return False
        starts, idsets = self._starts, self._ids
        own = _SOLO.get(agv)
        for i in range(bisect_right(self._ends, start), len(starts)):
            if starts[i] >= end:
                break
            ids = idsets[i]
            if ids is not own and (len(ids) != 1 or agv not in ids):
                return False
        return True

    def gaps_from(self, agv: AgvId, since) -> tuple:
        """``gap_query(agv, since, INF)`` as a tuple, built on every call from
        the stored intervals that end after ``since``. A gap that straddles
        ``since`` comes back starting there.
        """
        ends = self._ends
        if not ends:
            return _ALL_FREE if since == 0 else ((since, INF),)
        lo = 0  # nothing ends by since: the common case, and every read from tick 0
        if ends[0] <= since:
            if ends[-1] <= since:
                return ((since, INF),)
            lo = bisect_right(ends, since)
        starts, idsets = self._starts, self._ids
        gaps = []
        cur = since
        for i in range(lo, len(ends)):
            ids = idsets[i]
            if len(ids) == 1 and agv in ids:
                continue
            if starts[i] > cur:
                gaps.append((cur, starts[i]))
            cur = ends[i]
        if cur < INF:
            gaps.append((cur, INF))
        return tuple(gaps)

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
            assert len(ids) > 1 or ids is _SOLO.get(next(iter(ids))), (
                f"single-holder set at [{s}, {e}) is not its AGV's shared one"
            )
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
