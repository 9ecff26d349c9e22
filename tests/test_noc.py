import pytest
from hypothesis import given, strategies as st

from hmtsim.noc import Noc, Topology


def handler(tmu, *payload):
    """Stand-in for the receiving Tmu method a message carries."""


def bfs_distance(p, kind, src, dst):
    """All-pairs shortest path oracle over the adjacency relation."""
    adj = {c: [] for c in range(p)}
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            d = abs(a - b)
            if d == 1 or (kind == "ring" and p > 2 and d == p - 1):
                adj[a].append(b)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for c in frontier:
            for n in adj[c]:
                if n not in dist:
                    dist[n] = dist[c] + 1
                    nxt.append(n)
        frontier = nxt
    return dist[dst]


def test_self_message_next_cycle():
    noc = Noc(Topology("ring", 4))
    noc.send(handler, 2, 2, (), cycle=10)
    msg = (2, handler, ())
    assert noc.arrivals == {11: [msg]} and noc.next_arrival == 11
    assert noc.step(10) == []
    assert noc.step(11) == [msg]
    assert not noc.arrivals and not noc.in_flight
    assert all(v == 0 for v in noc.hop_log().values())   # zero hops


def test_ring_three_hops():
    noc = Noc(Topology("ring", 8))
    noc.send(handler, 0, 3, (), cycle=0)
    assert noc.arrivals == {6: [(3, handler, ())]}  # 3 hops at latency 2
    traversed = {k: v for k, v in noc.hop_log().items() if v}
    assert traversed == {(0, 1): 1, (1, 2): 1, (2, 3): 1}


def test_ring_routes_short_way():
    noc = Noc(Topology("ring", 8))
    noc.send(handler, 0, 6, (), cycle=0)
    assert noc.arrivals == {4: [(6, handler, ())]}  # 2 hops via core 7
    traversed = {k: v for k, v in noc.hop_log().items() if v}
    assert traversed == {(6, 7): 1, (0, 7): 1}


@given(st.sampled_from(["ring", "line"]), st.integers(1, 16),
       st.integers(0, 15), st.integers(0, 15))
def test_hops_match_bfs_oracle(kind, p, src, dst):
    src, dst = src % p, dst % p
    topo = Topology(kind, p)
    assert topo.hops(src, dst) == bfs_distance(p, kind, src, dst)
    path = topo.path(src, dst)
    assert path[0] == src and path[-1] == dst
    for a, b in zip(path, path[1:]):
        assert topo.adjacent(a, b)


def test_same_cycle_delivery_fifo_per_destination():
    noc = Noc(Topology("line", 4))
    noc.send(handler, 3, 2, ("c",), cycle=0)
    noc.send(handler, 1, 0, ("a",), cycle=0)
    noc.send(handler, 1, 0, ("b",), cycle=0)
    out = noc.step(2)
    # dst order, then injection order
    assert out == [(0, handler, ("a",)), (0, handler, ("b",)),
                   (2, handler, ("c",))]


def test_saturation_conservation():
    noc = Noc(Topology("ring", 8))
    for i in range(100):
        noc.send(handler, i % 8, (i * 3) % 8, (i,), cycle=i % 5)
    got = 0
    for cycle in range(40):
        waiting = sum(map(len, noc.arrivals.values()))
        assert noc.injected == 100 == got + waiting
        assert noc.in_flight == (waiting > 0)
        got += len(noc.step(cycle))
    assert got == 100 and not noc.in_flight and not noc.arrivals


def test_hop_log_only_adjacent_pairs():
    topo = Topology("ring", 8)
    noc = Noc(topo)
    for s in range(8):
        for d in range(8):
            noc.send(handler, s, d, (), cycle=0)
    log = noc.hop_log()
    assert all(topo.adjacent(a, b) for a, b in log)
    assert set(log) == {(a, b) for a in range(8) for b in range(a + 1, 8)
                        if topo.adjacent(a, b)}


@pytest.mark.parametrize("kind", ["ring", "line"])
@pytest.mark.parametrize("p", range(1, 13))
def test_hop_log_lists_the_adjacent_pairs_in_pair_order(kind, p):
    # the links, listed directly, are the adjacent pairs among all pairs, in
    # the same order: the order is part of Metrics' repr, which result_hash
    # hashes
    topo = Topology(kind, p)
    old = {(a, b): 0 for a in range(p) for b in range(a + 1, p)
           if topo.adjacent(a, b)}
    assert list(Noc(topo).hop_log().items()) == list(old.items())


def expanded_hop_log(noc):
    """The hop log found hop by hop: each route's count added to every link
    of its path, over the adjacent pairs in ascending pair order."""
    topo = noc.topology
    log = {(a, b): 0 for a in range(topo.p) for b in range(a + 1, topo.p)
           if topo.adjacent(a, b)}
    for (src, dst), n in noc._sent.items():
        path = topo.path(src, dst)
        for a, b in zip(path, path[1:]):
            log[(a, b) if a < b else (b, a)] += n
    return log


@given(st.sampled_from(["ring", "line"]), st.integers(1, 64),
       st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63),
                          st.integers(1, 5)), max_size=40))
def test_hop_log_equals_the_hop_by_hop_expansion(kind, p, sends):
    # each route's count spread over its arc at once gives what expanding
    # every route hop by hop gives, link for link and in the same order
    noc = Noc(Topology(kind, p))
    for src, dst, n in sends:
        for _ in range(n):
            noc.send(handler, src % p, dst % p, (), cycle=0)
    assert list(noc.hop_log().items()) == \
        list(expanded_hop_log(noc).items())


@given(st.sampled_from(["ring", "line"]), st.integers(1, 64),
       st.integers(0, 63), st.integers(0, 63))
def test_arc_covers_the_links_of_the_path(kind, p, src, dst):
    src, dst = src % p, dst % p
    topo = Topology(kind, p)
    first, hops = topo.arc(src, dst)
    path = topo.path(src, dst)
    assert hops == len(path) - 1 == topo.hops(src, dst)
    links = {(first + i) % p for i in range(hops)}
    assert links == {a if (a + 1) % p == b else b
                     for a, b in zip(path, path[1:])}


@pytest.mark.parametrize("kind", ["ring", "line"])
def test_routes_match_topology_paths_when_reused(kind):
    topo = Topology(kind, 6, hop_latency=3)
    noc = Noc(topo)
    expected = {}
    for _ in range(2):      # the second round reuses every route
        for s in range(6):
            for d in range(6):
                noc.send(handler, s, d, (s,), cycle=0)
                at = max(1, 3 * topo.hops(s, d))
                assert noc.arrivals[at][-1] == (d, handler, (s,))
                path = topo.path(s, d)
                for a, b in zip(path, path[1:]):
                    link = (min(a, b), max(a, b))
                    expected[link] = expected.get(link, 0) + 1
    log = noc.hop_log()
    assert log == {link: expected.get(link, 0) for link in log}
    assert sum(log.values()) == sum(expected.values())
