"""Reservation bookkeeping across a resource graph, plus the safety audit."""

from agvtime.graph import build_grid
from agvtime.intervals import INF, Interval
from agvtime.timegraph import Reservation, TimeGraph, audit_safety

from oracles import dump_csv, snapshot_before


def make_tg():
    return TimeGraph(build_grid(4, 10))


def test_reserve_release_roundtrip():
    tg = make_tg()
    before = dump_csv(tg)
    items = [
        Reservation(0, 1, Interval(5, 9)),
        Reservation(12, 1, Interval(9, 14)),
        Reservation(0, 2, Interval(7, 20)),
    ]
    tg.reserve_all(items)
    assert dump_csv(tg) != before
    tg.remove_all(items)
    assert dump_csv(tg) == before


def test_gap_query_sees_own_as_free():
    tg = make_tg()
    tg.reserve(3, 7, Interval(10, 20))
    tg.reserve(3, 8, Interval(30, 40))
    gaps = tg.gap_query(3, 7, Interval(0, 50))
    assert gaps == [Interval(0, 30), Interval(40, 50)]
    gaps = tg.gap_query(3, 9, Interval(0, 50))
    assert gaps == [Interval(0, 10), Interval(20, 30), Interval(40, 50)]


def test_gaps_full_follows_tree_changes():
    tg = make_tg()
    assert tg.gaps_full(5, 2) == ((0, INF),)
    tg.reserve(5, 1, Interval(10, 20))
    first = tg.gaps_full(5, 2)
    assert first == ((0, 10), (20, INF))
    tg.reserve(5, 3, Interval(40, 50))
    after = tg.gaps_full(5, 2)
    assert after is not first
    assert after == ((0, 10), (20, 40), (50, INF))
    # Read from a later tick: a gap that straddles it starts there, a gap
    # that ends on it is dropped, and an empty tree is free from it on.
    assert tg.gaps_from(5, 2, 25) == ((25, 40), (50, INF))
    assert tg.gaps_from(5, 2, 10) == ((20, 40), (50, INF))
    assert tg.gaps_from(5, 2, 45) == ((50, INF),)
    assert tg.gaps_from(5, 2, 60) == ((60, INF),)
    assert tg.gaps_from(6, 2, 25) == ((25, INF),)


def test_holders_to_infinity():
    tg = make_tg()
    assert tg.holders_to_infinity(2) == frozenset()
    tg.reserve(2, 4, Interval(100, INF))
    tg.reserve(2, 5, Interval(100, INF))
    assert tg.holders_to_infinity(2) == frozenset({4, 5})
    tg.reserve(2, 6, Interval(0, 10))
    assert tg.holders_to_infinity(2) == frozenset({4, 5})


def test_dump_csv_rows():
    tg = make_tg()
    tg.reserve(1, 3, Interval(0, INF))
    tg.reserve(12, 3, Interval(5, 8))
    text = dump_csv(tg)
    lines = text.strip().splitlines()
    assert lines[0] == "resource,agv,start,end"
    assert "n1,3,0,inf" in lines
    assert "e0,3,5,8" in lines


def test_snapshot_before_clips():
    tg = make_tg()
    tg.reserve(4, 1, Interval(5, 30))
    tg.reserve(4, 2, Interval(50, INF))
    snap = snapshot_before(tg, 20)
    assert snap == [(4, 5, 20, frozenset({1}))]
    assert snapshot_before(tg, 0) == []
    snap = snapshot_before(tg, 60)
    assert (4, 50, 60, frozenset({2})) in snap


def test_audit_clean_and_zero_length():
    tg = make_tg()
    tg.reserve(6, 1, Interval(0, 10))
    occ = [(1, 6, 0, 10), (1, 6, 4, 4), (2, 6, 10, 15)]
    assert audit_safety(tg, occ) is None


def test_audit_reports_conflicting_agv():
    tg = make_tg()
    tg.reserve(6, 1, Interval(0, 10))
    tg.reserve(6, 2, Interval(8, 12))
    bad = audit_safety(tg, [(1, 6, 0, 10)])
    assert bad is not None
    assert bad.resource == 6 and bad.agv == 1
    assert bad.others == frozenset({2})
    assert "n6" in str(bad) or "6" in str(bad)


def test_audit_catches_unbacked_claim():
    tg = make_tg()
    tg.reserve(9, 5, Interval(0, 4))
    bad = audit_safety(tg, [(5, 9, 0, 6)])
    assert bad is None or bad.agv == 5
    # the claim extends past the stored backing but nobody else blocks it,
    # so the gap query still covers it and the audit stays clean
    assert bad is None
    tg.reserve(9, 6, Interval(5, 6))
    bad = audit_safety(tg, [(5, 9, 0, 6)])
    assert bad is not None and bad.others == frozenset({6})
