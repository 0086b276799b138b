"""Reservation bookkeeping across a resource graph, plus the safety audit."""

import random

import pytest

from agvtime.graph import InvalidParameterError, build_grid
from agvtime.intervals import _SOLO, INF
from agvtime.timegraph import Reservation, TimeGraph, audit_safety

from oracles import audit_by_gap_query, dump_csv, snapshot_before


def make_tg():
    return TimeGraph(build_grid(4, 10))


def test_reserve_release_roundtrip():
    tg = make_tg()
    before = dump_csv(tg)
    items = [
        Reservation(0, 1, 5, 9),
        Reservation(12, 1, 9, 14),
        Reservation(0, 2, 7, 20),
    ]
    tg.reserve_all(items)
    assert dump_csv(tg) != before
    tg.remove_all(items)
    assert dump_csv(tg) == before


@pytest.mark.parametrize("start, end", [(10, 5), (-1, 5), (INF, INF), (5, 5)])
def test_reserve_rejects_a_bad_span_before_touching_the_tree(start, end):
    # GapTree trusts its spans: an inverted one inserted over [0, 20) would
    # quietly split it around an empty stored interval [10, 5).
    tg = make_tg()
    tg.reserve(3, 2, 0, 20)
    before = tg.trees[3].dump()
    with pytest.raises(InvalidParameterError, match="on resource 3"):
        tg.reserve(3, 1, start, end)
    assert tg.trees[3].dump() == before


def test_gap_query_sees_own_as_free():
    tg = make_tg()
    tg.reserve(3, 7, 10, 20)
    tg.reserve(3, 8, 30, 40)
    gaps = tg.trees[3].gap_query(7, 0, 50)
    assert gaps == [(0, 30), (40, 50)]
    gaps = tg.trees[3].gap_query(9, 0, 50)
    assert gaps == [(0, 10), (20, 30), (40, 50)]


def test_gaps_full_follows_tree_changes():
    tg = make_tg()
    assert tg.gaps_full(5, 2) == ((0, INF),)
    tg.reserve(5, 1, 10, 20)
    first = tg.gaps_full(5, 2)
    assert first == ((0, 10), (20, INF))
    tg.reserve(5, 3, 40, 50)
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


def test_gaps_reach_infinity_unless_another_agv_holds_forever():
    rng = random.Random(11)
    tails = ((), (1,), (2,), (1, 2), (2, 3))  # who holds the resource to INF
    seen = set()
    for _ in range(300):
        tg = make_tg()
        for _ in range(rng.randint(0, 6)):
            start = rng.randrange(0, 80)
            tg.reserve(2, rng.choice((1, 2, 3)), start, start + rng.randint(1, 30))
        for agv in rng.choice(tails):
            tg.reserve(2, agv, rng.randrange(40, 120), INF)
        stored = tg.trees[2].intervals()
        forever = stored[-1][2] if stored and stored[-1][1] == INF else frozenset()
        for agv in (1, 2, 3):
            closed = bool(forever - {agv})
            seen.add((agv in forever, closed))
            for since in (0, rng.randrange(0, 160), 200):
                gaps = tg.gaps_from(2, agv, since)
                assert bool(gaps and gaps[-1][1] == INF) == (not closed), (stored, agv, since)
    # (agv holds it to INF, closed): finite tails, others' hold only, agv's
    # own hold alone, and one agv shares with another AGV.
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_dump_csv_rows():
    tg = make_tg()
    tg.reserve(1, 3, 0, INF)
    tg.reserve(12, 3, 5, 8)
    text = dump_csv(tg)
    lines = text.strip().splitlines()
    assert lines[0] == "resource,agv,start,end"
    assert "n1,3,0,inf" in lines
    assert "e0,3,5,8" in lines


def test_snapshot_before_clips():
    tg = make_tg()
    tg.reserve(4, 1, 5, 30)
    tg.reserve(4, 2, 50, INF)
    snap = snapshot_before(tg, 20)
    assert snap == [(4, 5, 20, frozenset({1}))]
    assert snapshot_before(tg, 0) == []
    snap = snapshot_before(tg, 60)
    assert (4, 50, 60, frozenset({2})) in snap


def test_audit_clean_and_zero_length():
    tg = make_tg()
    tg.reserve(6, 1, 0, 10)
    occ = [(1, 6, 0, 10), (1, 6, 4, 4), (2, 6, 10, 15)]
    assert audit_safety(tg, occ) is None


def test_audit_reports_conflicting_agv():
    tg = make_tg()
    tg.reserve(6, 1, 0, 10)
    tg.reserve(6, 2, 8, 12)
    bad = audit_safety(tg, [(1, 6, 0, 10)])
    assert bad is not None
    assert bad.resource == 6 and bad.agv == 1
    assert bad.others == frozenset({2})
    assert "n6" in str(bad) or "6" in str(bad)
    # an inverted claim is reported, even where nobody holds anything
    bad = audit_safety(tg, [(1, 7, 10, 5)])
    assert bad is not None and bad.others == frozenset()


def test_audit_catches_unbacked_claim():
    tg = make_tg()
    tg.reserve(9, 5, 0, 4)
    bad = audit_safety(tg, [(5, 9, 0, 6)])
    assert bad is None or bad.agv == 5
    # the claim extends past the stored backing but nobody else blocks it,
    # so the gap query still covers it and the audit stays clean
    assert bad is None
    tg.reserve(9, 6, 5, 6)
    bad = audit_safety(tg, [(5, 9, 0, 6)])
    assert bad is not None and bad.others == frozenset({6})


def test_audit_matches_the_gap_query_rule_on_random_trees():
    # Claims ending on, starting at and straddling stored bounds, so spans
    # touch; several holders per interval; zero-length and inverted claims;
    # claims past the last stored end and up to INF; and, on some trees,
    # single-holder sets that are fresh frozensets, not the shared ones.
    rng = random.Random(25)
    seen = {"clean": 0, "violation": 0, "shared": 0, "fresh": 0, "inverted": 0, "past": 0}
    for trial in range(400):
        tg = make_tg()
        rids = rng.sample(range(len(tg.trees)), 3)
        for _ in range(rng.randint(0, 8)):
            start = rng.randrange(0, 60)
            end = INF if rng.random() < 0.1 else start + rng.randint(1, 20)
            tg.reserve(rng.choice(rids), rng.choice((1, 2, 3)), start, end)
        seen["shared"] += any(len(ids) > 1 for rid in rids for _, _, ids in tg.trees[rid].intervals())
        if trial % 3 == 0:
            for rid in rids:
                ids = tg.trees[rid]._ids
                ids[:] = [frozenset(list(x)) if len(x) == 1 else x for x in ids]
                seen["fresh"] += any(len(x) == 1 and x is not _SOLO[min(x)] for x in ids)
        ticks = sorted({t for rid in rids for s, e, _ in tg.trees[rid].intervals() for t in (s, e) if t != INF})
        ticks = ticks or [0]
        claims = []
        for _ in range(12):
            rid = rng.choice(rids)
            start = max(0, rng.choice(ticks) + rng.randint(-2, 2))
            kind = rng.random()
            if kind < 0.1:
                end = start
            elif kind < 0.2:
                end = start - rng.randint(1, 5)
                seen["inverted"] += end >= 0
            elif kind < 0.3:
                start, end = ticks[-1] + rng.randint(0, 3), INF
                seen["past"] += 1
            else:
                end = max(start + 1, rng.choice(ticks) + rng.randint(-2, 2))
            if end < 0:
                end = start
            claims.append((rng.choice((1, 2, 3)), rid, start, end))
        for claim in claims:
            agv, rid, start, end = claim
            tree = tg.trees[rid]
            assert tree.is_free(agv, start, end) == (tree.gap_query(agv, start, end) == [(start, end)])
            want = audit_by_gap_query(tg, [claim])
            assert audit_safety(tg, [claim]) == want, (claim, [tg.trees[r].dump() for r in rids])
            seen["clean" if want is None else "violation"] += 1
        assert audit_safety(tg, claims) == audit_by_gap_query(tg, claims)
    assert all(n > 20 for n in seen.values()), seen
