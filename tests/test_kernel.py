"""The bitmask BFS kernel and the distance queries built on it, checked
against the deque BFS in ``oracles``."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import strategy_profiles
from ncg.game import INF, StrategyProfile, _adj_of, _buys_masks, ball, bfs, build_graph
from ncg.equilibrium import _base_adj, _set_purchases
from ncg.structure import shortest_path_tree


def _mask(vertices) -> int:
    m = 0
    for u in vertices:
        m |= 1 << u
    return m


def _path_adj(n):
    return build_graph(StrategyProfile.from_sets(
        [{i + 1} if i + 1 < n else set() for i in range(n)])).adj


@st.composite
def _graph_queries(draw):
    """(n, edges, sources, target) on at most 9 vertices."""
    n = draw(st.integers(1, 9))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    full = (1 << n) - 1
    return n, edges, draw(st.integers(0, full)), draw(st.integers(0, full))


def _oracle_distances(n, edges, sources) -> dict:
    """Hops from the nearest source to every reachable vertex, by a deque
    BFS from a virtual vertex n linked to all sources."""
    adj = oracles.adjacency(n + 1, [[w for u, w in edges if u == x] for x in range(n)]
                            + [[u for u in range(n) if sources >> u & 1]])
    dist = oracles.bfs_distances(adj, n)
    del dist[n]
    return {w: d - 1 for w, d in dist.items()}


class TestBfs:
    def test_layers_are_distance_classes(self):
        adj = _path_adj(4)
        layers = []
        assert bfs(adj, 1 << 1, 0b1111, layers) == 2
        assert layers == [0b0010, 0b0101, 0b1000]

    def test_stops_once_target_is_seen(self):
        adj = _path_adj(5)
        layers = []
        assert bfs(adj, 1, 1 << 2, layers) == 2
        assert len(layers) == 3

    def test_sources_covering_target_take_zero_hops(self):
        assert bfs(_path_adj(3), 0b101, 0b101) == 0

    def test_unreachable_target_is_inf_with_all_reachable_layers(self):
        adj = build_graph(StrategyProfile.from_sets([{1}, set(), set()])).adj
        layers = []
        assert bfs(adj, 1, 0b111, layers) == INF
        assert layers == [0b001, 0b010]

    def test_multi_source(self):
        assert bfs(_path_adj(7), 1 | 1 << 6, (1 << 7) - 1) == 3

    def test_limit_cuts_before_the_target_is_seen(self):
        adj = _path_adj(5)
        assert bfs(adj, 1, 0b11111, None, 4) == 4
        assert bfs(adj, 1, 0b11111, None, 3) == INF
        assert bfs(adj, 1, 1, None, 0) == 0

    @given(_graph_queries())
    @settings(max_examples=150, deadline=None)
    def test_limit_and_layers_match_oracle(self, query):
        """The hops to the target match a multi-source deque BFS; every
        limit from 0 to n keeps a result within it and turns a larger one
        into INF; the layers at the default limit are the distance classes."""
        n, edges, sources, target = query
        adj = [0] * n
        for u, w in edges:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        dist = _oracle_distances(n, edges, sources)
        expected = max((dist.get(w, INF) for w in range(n) if target >> w & 1), default=0)
        layers = []
        assert bfs(adj, sources, target, layers) == expected
        depth = expected if expected != INF else max(dist.values(), default=0)
        assert layers == [_mask(w for w in dist if dist[w] == d) for d in range(depth + 1)]
        for limit in range(n + 1):
            assert bfs(adj, sources, target, None, limit) == (
                expected if expected <= limit else INF)


class TestBall:
    def test_path(self):
        adj = _path_adj(6)
        assert ball(adj, 1 << 2, 6, 0) == 0b000100
        assert ball(adj, 1 << 2, 6, 1) == 0b001110
        assert ball(adj, 1 | 1 << 5, 6, 1) == 0b110011
        assert ball(adj, 1, 6) == 0b111111

    def test_stops_at_the_component(self):
        adj = build_graph(StrategyProfile.from_sets([{1}, set(), {3}, set()])).adj
        assert ball(adj, 1, 4) == ball(adj, 1, 4, 3) == 0b0011

    @given(_graph_queries())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, query):
        """Multi-source balls of every radius 0..n and INF against the
        oracle's deque BFS."""
        n, edges, sources, _ = query
        adj = [0] * n
        for u, w in edges:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
        plain = oracles.adjacency(n, [[w for u, w in edges if u == x] for x in range(n)])
        starts = [u for u in range(n) if sources >> u & 1]
        for radius in [*range(n + 1), INF]:
            assert ball(adj, sources, n, radius) == _mask(oracles.ball(plain, starts, radius))


@given(strategy_profiles(max_n=7), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 127))))
@example(StrategyProfile.from_sets([{1}, {0}]), [(0, 0), (1, 0)])  # drop both copies
@settings(max_examples=80, deadline=None)
def test_in_place_purchases_match_rebuilt_adjacency(profile, moves):
    """Any sequence of strategy changes, doubly-bought links included,
    leaves the adjacency the purchase masks induce."""
    n = profile.n
    buys_masks = _buys_masks(profile)
    adj = _adj_of(buys_masks)
    for v, mask in moves:
        v %= n
        _set_purchases(adj, buys_masks, v, mask & ((1 << n) - 1) & ~(1 << v))
        assert adj == _adj_of(buys_masks)


@given(strategy_profiles(max_n=7))
@settings(max_examples=40, deadline=None)
def test_shortest_path_tree_takes_smallest_parent(profile):
    n = profile.n
    graph = build_graph(profile)
    adj = oracles.adjacency(n, profile.buys)
    connected = len(oracles.bfs_distances(adj, 0)) == n
    assert graph.is_connected() == connected
    if not connected:
        return
    for root in range(n):
        dist = oracles.bfs_distances(adj, root)
        spt = shortest_path_tree(graph, root)
        assert list(spt.depth) == [dist[w] for w in range(n)]
        for w in range(n):
            closer = [u for u in adj[w] if dist[u] == dist[w] - 1]
            assert spt.parent[w] == (min(closer) if closer else None)


@given(strategy_profiles(max_n=7))
@example(StrategyProfile.empty(1))
@example(StrategyProfile.from_sets([set(), {2}, set()]))       # 0 isolated
@example(StrategyProfile.from_sets([{1}, {0, 2}, {3}, set()]))  # 0-1 bought twice
@settings(max_examples=60, deadline=None)
def test_copy_free_deviation_matches_oracle(profile):
    """Every agent v and every purchase set S: one hop plus the BFS from v,
    its first ring and S on the base adjacency equals the oracle's
    eccentricity where v buys S. The lone agent of n = 1 has usage 0 and
    no ring; the scan answers it before any BFS."""
    n = profile.n
    full = (1 << n) - 1
    graph = build_graph(profile)
    buys_masks = _buys_masks(profile)
    for v in range(n):
        base = _base_adj(graph.adj, buys_masks, v)
        for subset in oracles.powerset(u for u in range(n) if u != v):
            trial = list(profile.buys)
            trial[v] = set(subset)
            expected = oracles.eccentricity(n, oracles.adjacency(n, trial), v)
            usage = 1 + bfs(base, base[v] | _mask(subset) | 1 << v, full) if n > 1 else 0
            assert usage == expected
