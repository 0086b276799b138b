"""Gap tree behaviour, checked against the per-tick timeline oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agvtime.intervals import INF, GapTree, Interval, fmt_tick

from oracles import TimelineOracle

HORIZON = 64


def iv(s, e):
    return Interval(s, e)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(5, 5)
    with pytest.raises(ValueError):
        Interval(7, 3)
    with pytest.raises(ValueError):
        Interval(-1, 3)
    with pytest.raises(ValueError):
        Interval(INF, INF)


def test_insert_into_empty_then_query():
    t = GapTree()
    t.insert(1, iv(10, 20))
    assert t.intervals() == [(10, 20, frozenset({1}))]
    # own reservation counts as a gap
    assert t.gap_query(1, iv(0, 30)) == [iv(0, 30)]
    assert t.gap_query(2, iv(0, 30)) == [iv(0, 10), iv(20, 30)]


def test_partial_overlap_splits():
    t = GapTree()
    t.insert(1, iv(0, 10))
    t.insert(2, iv(5, 15))
    assert t.intervals() == [
        (0, 5, frozenset({1})),
        (5, 10, frozenset({1, 2})),
        (10, 15, frozenset({2})),
    ]
    t.check_invariants()


def test_same_agv_reinsert_idempotent():
    t = GapTree()
    t.insert(1, iv(0, 10))
    before = t.dump()
    t.insert(1, iv(3, 8))
    assert t.dump() == before
    t.insert(1, iv(0, 10))
    assert t.dump() == before


def test_touching_same_set_intervals_merge():
    t = GapTree()
    t.insert(1, iv(0, 5))
    t.insert(1, iv(5, 10))
    assert t.intervals() == [(0, 10, frozenset({1}))]
    # disjoint same-set intervals stay separate
    t.insert(1, iv(20, 30))
    assert len(t.intervals()) == 2


def test_remove_restores_prior_form():
    t = GapTree()
    t.insert(1, iv(0, 10))
    snapshot = t.dump()
    t.insert(2, iv(5, 15))
    t.remove(2, iv(5, 15))
    assert t.dump() == snapshot
    t.check_invariants()


def test_remove_last_holder_deletes():
    t = GapTree()
    t.insert(1, iv(0, 10))
    t.remove(1, iv(0, 10))
    assert t.intervals() == []
    assert t.gap_query(1, iv(0, 20)) == [iv(0, 20)]


def test_remove_middle_splits():
    t = GapTree()
    t.insert(1, iv(0, 30))
    t.remove(1, iv(10, 20))
    assert t.intervals() == [(0, 10, frozenset({1})), (20, 30, frozenset({1}))]


def test_infinite_reservations():
    t = GapTree()
    t.insert(3, iv(100, INF))
    assert t.gap_query(3, iv(0, INF)) == [iv(0, INF)]
    assert t.gap_query(4, iv(0, INF)) == [iv(0, 100)]
    assert t.holders_to_infinity() == frozenset({3})
    t.insert(4, iv(50, 200))
    assert t.gap_query(5, iv(0, INF)) == [iv(0, 50)]
    t.check_invariants()


def test_gap_query_merges_across_own_reservations():
    t = GapTree()
    t.insert(1, iv(10, 20))
    t.insert(2, iv(30, 40))
    # [0,10) free, [10,20) own, [20,30) free: one merged gap up to 30
    assert t.gap_query(1, iv(0, 50)) == [iv(0, 30), iv(40, 50)]


def test_dump_format():
    t = GapTree()
    t.insert(2, iv(5, 9))
    t.insert(1, iv(5, 9))
    t.insert(1, iv(12, INF))
    assert t.dump() == "5 9 1,2\n12 inf 1"
    assert fmt_tick(INF) == "inf"


def random_op(rng, tree, oracle):
    kind = rng.choice(("insert", "insert", "remove", "query"))
    agv = rng.randrange(8)
    a = rng.randrange(HORIZON - 1)
    b = rng.randrange(a + 1, HORIZON + 1)
    w = iv(a, b)
    if kind == "insert":
        tree.insert(agv, w)
        oracle.insert(agv, w)
    elif kind == "remove":
        tree.remove(agv, w)
        oracle.remove(agv, w)
    else:
        got = [(g.start, g.end) for g in tree.gap_query(agv, w)]
        assert got == oracle.gaps(agv, w), f"gap mismatch for agv {agv} in {w}"
        # the search's read: from tick 0, and from a tick inside a stored
        # interval, on a stored end, past the last one, or anywhere
        everything = iv(0, INF)
        full = tree.gaps_from(agv, 0)
        assert list(full) == [(g.start, g.end) for g in tree.gap_query(agv, everything)]
        for since in since_ticks(rng, tree):
            got = [(s, min(e, HORIZON)) for s, e in tree.gaps_from(agv, since) if s < HORIZON]
            want = oracle.gaps(agv, iv(since, HORIZON)) if since < HORIZON else []
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
        w = iv(a, min(a + ln, HORIZON))
        getattr(tree, kind)(agv, w)
        getattr(oracle, kind)(agv, w)
        tree.check_invariants()
    for agv in range(6):
        got = [(g.start, g.end) for g in tree.gap_query(agv, iv(0, HORIZON))]
        assert got == oracle.gaps(agv, iv(0, HORIZON))
    assert [(s, e, ids) for s, e, ids in tree.intervals()] == oracle.segments()


def test_touched_count_is_local():
    """Unrelated intervals far from the window do not grow per-op work."""
    def crowd(tree, n, base):
        for i in range(n):
            tree.insert(i % 4, iv(base + 3 * i, base + 3 * i + 2))

    t1, t2 = GapTree(), GapTree()
    crowd(t1, 200, 10_000)
    crowd(t2, 400, 10_000)

    touched1, touched2 = [], []
    for t, log in ((t1, touched1), (t2, touched2)):
        t.insert(7, iv(100, 200))
        log.append(t.last_touched)
        t.gap_query(7, iv(0, 300))
        log.append(t.last_touched)
        t.remove(7, iv(100, 200))
        log.append(t.last_touched)
    assert touched1 == touched2
    assert max(touched2) <= 4
