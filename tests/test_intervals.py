"""Gap tree behaviour, checked against the per-tick timeline oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvtime.intervals import INF, GapTree, fmt_tick

from oracles import TimelineOracle

HORIZON = 64


def test_insert_into_empty_then_query():
    t = GapTree()
    t.insert(1, 10, 20)
    assert t.intervals() == [(10, 20, frozenset({1}))]
    # own reservation counts as a gap
    assert t.gap_query(1, 0, 30) == [(0, 30)]
    assert t.gap_query(2, 0, 30) == [(0, 10), (20, 30)]


def test_partial_overlap_splits():
    t = GapTree()
    t.insert(1, 0, 10)
    t.insert(2, 5, 15)
    assert t.intervals() == [
        (0, 5, frozenset({1})),
        (5, 10, frozenset({1, 2})),
        (10, 15, frozenset({2})),
    ]
    t.check_invariants()


def test_same_agv_reinsert_idempotent():
    t = GapTree()
    t.insert(1, 0, 10)
    before = t.dump()
    t.insert(1, 3, 8)
    assert t.dump() == before
    t.insert(1, 0, 10)
    assert t.dump() == before


def test_touching_same_set_intervals_merge():
    t = GapTree()
    t.insert(1, 0, 5)
    t.insert(1, 5, 10)
    assert t.intervals() == [(0, 10, frozenset({1}))]
    # disjoint same-set intervals stay separate
    t.insert(1, 20, 30)
    assert len(t.intervals()) == 2


def test_remove_restores_prior_form():
    t = GapTree()
    t.insert(1, 0, 10)
    snapshot = t.dump()
    t.insert(2, 5, 15)
    t.remove(2, 5, 15)
    assert t.dump() == snapshot
    t.check_invariants()


def test_remove_last_holder_deletes():
    t = GapTree()
    t.insert(1, 0, 10)
    t.remove(1, 0, 10)
    assert t.intervals() == []
    assert t.gap_query(1, 0, 20) == [(0, 20)]


def test_remove_middle_splits():
    t = GapTree()
    t.insert(1, 0, 30)
    t.remove(1, 10, 20)
    assert t.intervals() == [(0, 10, frozenset({1})), (20, 30, frozenset({1}))]


def test_infinite_reservations():
    t = GapTree()
    t.insert(3, 100, INF)
    assert t.gap_query(3, 0, INF) == [(0, INF)]
    assert t.gap_query(4, 0, INF) == [(0, 100)]
    # AGV 3's hold to INF leaves its own last gap open and closes AGV 4's.
    assert t.gaps_from(3, 150) == ((150, INF),)
    assert t.gaps_from(4, 150) == ()
    t.insert(4, 50, 200)
    assert t.gap_query(5, 0, INF) == [(0, 50)]
    t.check_invariants()


def test_gap_query_merges_across_own_reservations():
    t = GapTree()
    t.insert(1, 10, 20)
    t.insert(2, 30, 40)
    # [0,10) free, [10,20) own, [20,30) free: one merged gap up to 30
    assert t.gap_query(1, 0, 50) == [(0, 30), (40, 50)]


def test_dump_format():
    t = GapTree()
    t.insert(2, 5, 9)
    t.insert(1, 5, 9)
    t.insert(1, 12, INF)
    assert t.dump() == "5 9 1,2\n12 inf 1"
    assert fmt_tick(INF) == "inf"


def tree_and_oracle(seed_ops):
    tree, oracle = GapTree(), TimelineOracle(HORIZON)
    for agv, a, b in seed_ops:
        tree.insert(agv, a, b)
        oracle.insert(agv, a, b)
    return tree, oracle


ONE, TWO, BOTH = frozenset({1}), frozenset({2}), frozenset({1, 2})


@pytest.mark.parametrize(
    "seed_ops, span, want, touching",
    [
        # left merge
        ([(1, 10, 20)], (20, 25), [(10, 25, ONE)], 1),
        # right merge
        ([(1, 10, 20)], (5, 10), [(5, 20, ONE)], 1),
        # two-sided merge: the right interval is deleted
        ([(1, 10, 20), (1, 30, 40)], (20, 30), [(10, 40, ONE)], 2),
        # neighbours held by another AGV do not merge
        ([(2, 10, 20), (2, 30, 40)], (20, 30), [(10, 20, TWO), (20, 30, ONE), (30, 40, TWO)], 2),
        # nor do neighbours held by a set that includes agv
        (
            [(1, 10, 20), (2, 10, 20), (1, 30, 40), (2, 30, 40)],
            (20, 30),
            [(10, 20, BOTH), (20, 30, ONE), (30, 40, BOTH)],
            2,
        ),
        # one side merges, the other is shared
        ([(1, 10, 20), (1, 30, 40), (2, 30, 40)], (20, 30), [(10, 30, ONE), (30, 40, BOTH)], 2),
        # before the first interval, touching nothing
        ([(1, 10, 20)], (2, 5), [(2, 5, ONE), (10, 20, ONE)], 0),
        # in a gap touching nothing
        ([(1, 10, 20), (1, 30, 40)], (24, 26), [(10, 20, ONE), (24, 26, ONE), (30, 40, ONE)], 0),
        # past the last end, and into an empty tree
        ([(2, 10, 20)], (25, 30), [(10, 20, TWO), (25, 30, ONE)], 0),
        ([], (25, 30), [(25, 30, ONE)], 0),
    ],
)
def test_insert_into_a_gap(seed_ops, span, want, touching):
    tree, oracle = tree_and_oracle(seed_ops)
    tree.insert(1, *span)
    oracle.insert(1, *span)
    tree.check_invariants()
    assert tree.intervals() == want == oracle.segments()
    assert tree.last_touched == touching


@pytest.mark.parametrize(
    "seed_ops, span, want, spliced",
    [
        # head cut, past a touching neighbour held by another AGV
        ([(2, 5, 10), (1, 10, 20)], (10, 15), [(5, 10, TWO), (15, 20, ONE)], False),
        ([(1, 10, 20)], (5, 15), [(15, 20, ONE)], False),
        # tail cut
        ([(1, 10, 20), (2, 20, 30)], (15, 20), [(10, 15, ONE), (20, 30, TWO)], False),
        # middle split
        (
            [(2, 0, 10), (1, 10, 30), (2, 30, 40)],
            (15, 20),
            [(0, 10, TWO), (10, 15, ONE), (20, 30, ONE), (30, 40, TWO)],
            False,
        ),
        # whole deletion, by the interval's own span and by a wider one
        ([(2, 0, 10), (1, 10, 20), (2, 20, 30)], (10, 20), [(0, 10, TWO), (20, 30, TWO)], False),
        ([(1, 10, 20)], (0, 40), [], False),
        # an open-ended hold released from a tick on: a tail cut, then whole
        ([(2, 0, 10), (1, 10, INF)], (12, INF), [(0, 10, TWO), (10, 12, ONE)], False),
        ([(2, 0, 10), (1, 10, INF)], (10, INF), [(0, 10, TWO)], False),
        ([(1, 10, INF)], (5, INF), [], False),
        # a shared interval, another AGV's, two intervals and a span in a
        # gap still take the splice path
        ([(1, 10, 20), (2, 10, 20)], (12, 15), [(10, 12, BOTH), (12, 15, TWO), (15, 20, BOTH)], True),
        ([(2, 10, 20)], (12, 15), [(10, 20, TWO)], True),
        ([(1, 10, 20), (1, 30, 40)], (15, 35), [(10, 15, ONE), (35, 40, ONE)], True),
        ([(1, 10, 20), (2, 30, 40)], (15, 35), [(10, 15, ONE), (30, 40, TWO)], True),
        ([(1, 10, 20)], (25, 30), [(10, 20, ONE)], True),
    ],
)
def test_remove_cuts_a_lone_own_interval_in_place(monkeypatch, seed_ops, span, want, spliced):
    tree, oracle = GapTree(), TimelineOracle(HORIZON)
    for agv, a, b in seed_ops:
        tree.insert(agv, a, b)
        oracle.insert(agv, a, b)
        tree.check_invariants()
    splices = []
    splice = GapTree._splice

    def counted_splice(t, *args):
        splices.append(1)
        splice(t, *args)

    monkeypatch.setattr(GapTree, "_splice", counted_splice)
    tree.remove(1, *span)
    assert bool(splices) == spliced
    assert spliced or tree.last_touched == 1
    oracle.remove(1, *span)
    tree.check_invariants()
    assert tree.intervals() == want
    assert [(s, min(e, HORIZON), ids) for s, e, ids in want] == oracle.segments()
    for agv in (1, 2, 3):
        assert tree.gap_query(agv, 0, HORIZON) == oracle.gaps(agv, 0, HORIZON)


@pytest.mark.parametrize("agv", [1, 2, 3])
@pytest.mark.parametrize("since", [0, 15, 25, 30, 35, 63])
def test_gaps_from_at_and_past_the_last_end(agv, since):
    # the tail [20, 30) is held by agv 1 alone, so agv 1 reads it as free
    tree, oracle = tree_and_oracle([(2, 5, 10), (1, 20, 30)])
    assert_gaps_from(tree, oracle, agv, since)


@pytest.mark.parametrize("agv", [1, 2, 3])
@pytest.mark.parametrize("since", [0, 30, 40, 45, 63])
def test_gaps_from_a_tree_held_to_infinity(agv, since):
    tree, oracle = tree_and_oracle([(1, 20, 30), (2, 40, INF)])
    assert_gaps_from(tree, oracle, agv, since)


def assert_gaps_from(tree, oracle, agv, since):
    got = tree.gaps_from(agv, since)
    assert got == tuple(tree.gap_query(agv, since, INF))
    clipped = [(s, min(e, HORIZON)) for s, e in got if s < HORIZON]
    assert clipped == oracle.gaps(agv, since, HORIZON)


def random_op(rng, tree, oracle):
    kind = rng.choice(("insert", "insert", "remove", "query"))
    agv = rng.randrange(8)
    a = rng.randrange(HORIZON - 1)
    b = rng.randrange(a + 1, HORIZON + 1)
    if kind == "insert":
        tree.insert(agv, a, b)
        oracle.insert(agv, a, b)
    elif kind == "remove":
        tree.remove(agv, a, b)
        oracle.remove(agv, a, b)
    else:
        got = tree.gap_query(agv, a, b)
        assert got == oracle.gaps(agv, a, b), f"gap mismatch for agv {agv} in [{a}, {b})"
        # the search's read: from tick 0, and from a tick inside a stored
        # interval, on a stored end, past the last one, or anywhere
        full = tree.gaps_from(agv, 0)
        assert list(full) == tree.gap_query(agv, 0, INF)
        for since in since_ticks(rng, tree):
            got = [(s, min(e, HORIZON)) for s, e in tree.gaps_from(agv, since) if s < HORIZON]
            want = oracle.gaps(agv, since, HORIZON) if since < HORIZON else []
            assert got == want, f"gaps_from({agv}, {since}) mismatch"


def since_ticks(rng, tree):
    """Read ticks for gaps_from: 0, a random tick, and where the tree has
    them, a tick inside a stored interval, a stored end, and one past the
    last stored interval."""
    ticks = [0, rng.randrange(HORIZON + 2)]
    stored = tree.intervals()
    if stored:
        s, e, _ = rng.choice(stored)
        ticks += [rng.randrange(s, min(e, HORIZON + 1)), e, stored[-1][1] + 1]
    return [t for t in ticks if t != INF]


def test_differential_small_sequences():
    for seed in range(30):
        rng = random.Random(seed)
        tree, oracle = GapTree(), TimelineOracle(HORIZON)
        for _ in range(120):
            random_op(rng, tree, oracle)
            tree.check_invariants()
        stored = [(s, e, ids) for s, e, ids in tree.intervals()]
        assert stored == oracle.segments()


def overlaps_stored(tree, start, end):
    return any(s < end and start < e for s, e, _ in tree.intervals())


def test_differential_gap_biased():
    """Few AGVs, short spans on sparse starts: most inserts land in a gap,
    some touching a neighbour, so the direct insert path dominates."""
    inserts = in_gaps = 0
    for seed in range(30):
        rng = random.Random(seed)
        tree, oracle = GapTree(), TimelineOracle(HORIZON)
        fleet = rng.randint(2, 3)
        for _ in range(60):
            kind = rng.choice(("insert", "insert", "remove", "query"))
            agv = rng.randrange(fleet)
            a = 4 * rng.randrange(HORIZON // 4)
            b = min(a + rng.randint(1, 4), HORIZON)
            if kind == "remove" and len(tree):
                # release one holder of a stored interval, freeing its slot
                a, b, ids = rng.choice(tree.intervals())
                agv = rng.choice(sorted(ids))
            if kind == "query":
                assert tree.gap_query(agv, a, b) == oracle.gaps(agv, a, b)
                for since in since_ticks(rng, tree):
                    got = [(s, min(e, HORIZON)) for s, e in tree.gaps_from(agv, since) if s < HORIZON]
                    assert got == (oracle.gaps(agv, since, HORIZON) if since < HORIZON else [])
            else:
                if kind == "insert":
                    inserts += 1
                    in_gaps += not overlaps_stored(tree, a, b)
                getattr(tree, kind)(agv, a, b)
                getattr(oracle, kind)(agv, a, b)
            tree.check_invariants()
            assert tree.intervals() == oracle.segments()
    assert in_gaps > inserts / 2


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove"]),
        st.integers(0, 5),
        st.integers(0, HORIZON - 2),
        st.integers(1, 12),
    ),
    max_size=40,
)


@given(ops_strategy)
@settings(max_examples=120, deadline=None)
def test_property_matches_timeline(ops):
    tree, oracle = GapTree(), TimelineOracle(HORIZON)
    for kind, agv, a, ln in ops:
        b = min(a + ln, HORIZON)
        getattr(tree, kind)(agv, a, b)
        getattr(oracle, kind)(agv, a, b)
        tree.check_invariants()
    for agv in range(6):
        assert tree.gap_query(agv, 0, HORIZON) == oracle.gaps(agv, 0, HORIZON)
    assert [(s, e, ids) for s, e, ids in tree.intervals()] == oracle.segments()


def test_touched_count_is_local():
    """Unrelated intervals far from the window do not grow per-op work."""
    def crowd(tree, n, base):
        for i in range(n):
            tree.insert(i % 4, base + 3 * i, base + 3 * i + 2)

    t1, t2 = GapTree(), GapTree()
    crowd(t1, 200, 10_000)
    crowd(t2, 400, 10_000)

    touched1, touched2 = [], []
    for t, log in ((t1, touched1), (t2, touched2)):
        t.insert(7, 100, 200)
        log.append(t.last_touched)
        t.gap_query(7, 0, 300)
        log.append(t.last_touched)
        t.remove(7, 100, 200)
        log.append(t.last_touched)
    assert touched1 == touched2
    assert max(touched2) <= 4
