import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
import ncg.structure
from conftest import (directed_cycle_profile, profile_from_edges,
                      random_connected_graph_edges)
from ncg.errors import AssignmentAmbiguous, Disconnected, PreconditionUnmet
from ncg.game import (GameConfig, OwnedGraph, StrategyProfile, all_pairs_distances,
                      build_graph, metrics)
from ncg.equilibrium import is_nash
from ncg.structure import (Witness, audit_equilibrium_structure,
                           biconnected_components, closest_assignment,
                           component_is_cycle, component_subgraph, girth,
                           is_min_cycle, lemma_crucial_deviation,
                           min_cycle_through_edge, shopping_vertices,
                           shortest_cycle, shortest_path_tree, two_degree_paths)


def graph_from_edges(n, edges):
    return build_graph(profile_from_edges(n, edges))


class TestBiconnectedComponents:
    def test_tree_has_none(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, {3}, set()]))
        assert biconnected_components(g) == []

    def test_cycle_with_pendant(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
        comps = biconnected_components(g)
        assert len(comps) == 1
        assert comps[0].vertices == frozenset({0, 1, 2, 3})
        assert comps[0].average_degree == 2

    def test_two_triangles_sharing_a_vertex(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        comps = biconnected_components(g)
        assert [sorted(c.vertices) for c in comps] == [[0, 1, 2], [2, 3, 4]]

    def test_agrees_with_cycle_space_oracle_random(self):
        # Disjoint random connected pieces, single vertices among them, so
        # the DFS restarts at every piece and closes blocks at each root.
        rng = random.Random(20)
        for _ in range(600):
            n = rng.randint(1, 9)
            labels = rng.sample(range(n), n)
            edges = set()
            while labels:
                k = rng.choice([1, len(labels), rng.randint(1, len(labels))])
                piece, labels = labels[:k], labels[k:]
                edges |= {tuple(sorted((piece[u], piece[v])))
                          for u, v in random_connected_graph_edges(rng, len(piece))}
            g = graph_from_edges(n, edges)
            got = sorted((frozenset(c.vertices), frozenset(c.edges))
                         for c in biconnected_components(g))
            want = sorted((v, e) for v, e in oracles.biconnected_components(
                n, oracles.adjacency(n, profile_from_edges(n, edges).buys)))
            assert got == want

    def test_removing_any_component_vertex_keeps_it_connected(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(3, 7)
            edges = random_connected_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            for comp in biconnected_components(g):
                for skip in comp.vertices:
                    rest = sorted(comp.vertices - {skip})
                    adj = {v: set() for v in rest}
                    for u, v in comp.edges:
                        if skip not in (u, v):
                            adj[u].add(v)
                            adj[v].add(u)
                    reach = oracles.bfs_distances(adj, rest[0])
                    assert set(reach) == set(rest)

    def test_articulation_vertices_match_removal_oracle(self):
        rng = random.Random(22)
        for _ in range(100):
            n = rng.randint(3, 7)
            edges = random_connected_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            comps = biconnected_components(g)
            # vertices appearing in >= 2 blocks (component or bridge) are cut
            blocks = [frozenset(c.vertices) for c in comps]
            in_comp = set().union(*blocks) if blocks else set()
            bridge_like = [frozenset(e) for e in g.edges
                           if not any(set(e) <= b for b in blocks)]
            counts = {}
            for b in blocks + bridge_like:
                for v in b:
                    counts[v] = counts.get(v, 0) + 1
            cut = {v for v, c in counts.items() if c >= 2}
            adj = oracles.adjacency(n, profile_from_edges(n, edges).buys)
            assert cut == oracles.cut_vertices(n, adj)


class TestShortestPathTree:
    def test_star_rooted_at_center(self):
        g = build_graph(StrategyProfile.from_sets([{4}, {4}, {4}, {4}, set()]))
        spt = shortest_path_tree(g, 4)
        assert spt.depth == (1, 1, 1, 1, 0)

    def test_c4_tie_breaks_to_smaller_parent(self):
        g = build_graph(directed_cycle_profile(4))
        spt = shortest_path_tree(g, 0)
        assert spt.depth[2] == 2 and spt.parent[2] == 1

    def test_path_rooted_at_end(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, {3}, set()]))
        spt = shortest_path_tree(g, 0)
        assert spt.parent == (None, 0, 1, 2)
        assert spt.depth == (0, 1, 2, 3)

    def test_disconnected_raises(self):
        g = build_graph(StrategyProfile.from_sets([{1}, set(), set()]))
        with pytest.raises(Disconnected):
            shortest_path_tree(g, 0)

    def test_depth_equals_distance_random(self):
        rng = random.Random(23)
        for _ in range(50):
            n = rng.randint(2, 7)
            edges = random_connected_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            root = rng.randrange(n)
            spt = shortest_path_tree(g, root)
            adj = oracles.adjacency(n, profile_from_edges(n, edges).buys)
            dist = oracles.bfs_distances(adj, root)
            for v in range(n):
                assert spt.depth[v] == dist[v]
                if v != root:
                    assert g.has_edge(v, spt.parent[v])
                    assert spt.depth[spt.parent[v]] == spt.depth[v] - 1


class TestMinCycles:
    def test_bridge_has_no_cycle(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, set()]))
        assert min_cycle_through_edge(g, (0, 1)) is None

    def test_chordless_five_cycle(self):
        g = build_graph(directed_cycle_profile(5))
        mc = min_cycle_through_edge(g, (0, 1))
        assert mc.length == 5
        assert set(mc.vertices) == {0, 1, 2, 3, 4}
        assert mc.directed

    def test_k4_gives_triangle(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        mc = min_cycle_through_edge(g, (0, 1))
        assert mc.length == 3 and {0, 1} <= set(mc.vertices)

    def test_min_cycle_property_examples(self):
        k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert is_min_cycle(k4, (0, 1, 2))
        assert not is_min_cycle(k4, (0, 1, 2, 3))  # chords shortcut the 4-cycle
        c5 = build_graph(directed_cycle_profile(5))
        assert is_min_cycle(c5, (0, 1, 2, 3, 4))

    def test_non_cycle_input_rejected(self):
        g = build_graph(directed_cycle_profile(5))
        with pytest.raises(ValueError):
            is_min_cycle(g, (0, 1, 3))

    def test_output_always_min_random(self):
        rng = random.Random(24)
        for _ in range(80):
            n = rng.randint(3, 7)
            edges = random_connected_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            for e in sorted(g.edges):
                mc = min_cycle_through_edge(g, e)
                if mc is not None:
                    assert is_min_cycle(g, mc.vertices)
                    assert e[0] in mc.vertices and e[1] in mc.vertices


@st.composite
def owned_graphs(draw, max_n=10):
    """Induced graphs of profiles with n <= max_n, from sparse to dense, with
    random buyers and some double purchases."""
    n = draw(st.integers(1, max_n))
    alphabet = "0" * draw(st.integers(1, 8)) + "123"  # pair digit: none, u, v, both
    code = draw(st.lists(st.sampled_from(alphabet), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    return build_graph(StrategyProfile.from_ownership_code(n, "".join(code)))


# A 5-cycle with a chord and a plain 5-cycle sharing vertex 4, and a
# triangle hung off vertex 0 by the bridge (0, 9).
_BLOCKS = build_graph(profile_from_edges(12, [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (4, 5), (5, 6), (6, 7),
    (7, 8), (4, 8), (0, 9), (9, 10), (10, 11), (9, 11)]))


class TestMinCycleTable:
    """The properties that let the audit read one graph-wide min-cycle table
    and distance table in place of per-component recomputation."""

    @given(owned_graphs())
    @example(_BLOCKS)
    def test_shortest_cycle_through_an_edge_is_min(self, g):
        for e in sorted(g.edges):
            mc = min_cycle_through_edge(g, e)
            if mc is not None:
                assert is_min_cycle(g, mc)

    @given(owned_graphs())
    @example(_BLOCKS)
    def test_block_subgraph_gives_the_same_min_cycles(self, g):
        for comp in biconnected_components(g):
            sub = component_subgraph(g, comp)
            for e in sorted(comp.edges):
                assert min_cycle_through_edge(sub, e) == min_cycle_through_edge(g, e)

    @given(owned_graphs())
    @example(_BLOCKS)
    def test_block_subgraph_keeps_distances(self, g):
        rows = all_pairs_distances(g)
        for comp in biconnected_components(g):
            sub_rows = all_pairs_distances(component_subgraph(g, comp))
            for u, v in combinations(sorted(comp.vertices), 2):
                assert sub_rows[u][v] == rows[u][v]

    @given(owned_graphs())
    @example(_BLOCKS)
    def test_shortest_cycle_is_first_shortest_in_edge_order(self, g):
        cycles = [mc for mc in (min_cycle_through_edge(g, e) for e in sorted(g.edges))
                  if mc is not None]
        shortest = [mc.vertices for mc in cycles
                    if mc.length == min(c.length for c in cycles)]
        assert shortest_cycle(g) == (shortest[0] if shortest else None)

    def test_bridges_and_triangles_need_no_bfs(self, monkeypatch):
        calls = Counter()

        def counted(*args, _fn=ncg.structure.bfs, **kwargs):
            calls["bfs"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ncg.structure, "bfs", counted)
        tree = graph_from_edges(7, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (4, 6)])
        table, first = ncg.structure._min_cycles(tree, biconnected_components(tree))
        assert list(table) == sorted(tree.edges)
        assert set(table.values()) == {None} and first is None
        k6 = graph_from_edges(6, combinations(range(6), 2))
        table, first = ncg.structure._min_cycles(k6, biconnected_components(k6))
        assert {mc.length for mc in table.values()} == {3} and len(first) == 3
        assert calls["bfs"] == 0


class TestBlocksInTrees:
    """The audit pairs shopping vertices along the whole shortest path tree:
    rooted anywhere, that tree restricted to a block spans the block."""

    @given(owned_graphs().filter(lambda g: g.is_connected()))
    @example(_BLOCKS)
    def test_shortest_path_tree_spans_every_block(self, g):
        for comp in biconnected_components(g):
            for root in range(g.n):
                kept = shortest_path_tree(g, root).edges() & comp.edges
                assert len(kept) == len(comp.vertices) - 1
                adj = {v: set() for v in comp.vertices}
                for u, v in kept:
                    adj[u].add(v)
                    adj[v].add(u)
                assert oracles.ball(adj, [min(comp.vertices)]) == comp.vertices

def _dict_adjacency(g):
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _bought_around(g, cycle):
    """True iff every edge of the cycle is bought by its tail, read in one
    of the two directions."""
    steps = list(zip(cycle, cycle[1:] + cycle[:1]))
    return (all(g.buys[a] >> b & 1 for a, b in steps)
            or all(g.buys[b] >> a & 1 for a, b in steps))


_K5 = graph_from_edges(5, combinations(range(5), 2))
_PATH = graph_from_edges(6, [(i, i + 1) for i in range(5)])
_STAR = graph_from_edges(6, [(0, i) for i in range(1, 6)])
_C7 = build_graph(directed_cycle_profile(7))
# K4 on 0..3 with the pendant path 3-4-5-6
_CORE_WITH_PATH = graph_from_edges(
    7, [*combinations(range(4), 2), (3, 4), (4, 5), (5, 6)])


class TestMinCycleOracle:
    """Every per-edge min cycle, the graph-wide table, the shortest cycle
    and the girth against the deque-BFS oracle."""

    @given(owned_graphs(max_n=14))
    @example(_K5)
    @example(_PATH)
    @example(_STAR)
    @example(_BLOCKS)
    @example(_C7)
    @example(_CORE_WITH_PATH)
    def test_min_cycles_match_oracle(self, g):
        adj = _dict_adjacency(g)
        want = {}
        for u, v in sorted(g.edges):
            for a, b in ((u, v), (v, u)):
                cycle = oracles.min_cycle_through_edge(g.n, adj, a, b)
                mc = min_cycle_through_edge(g, (a, b))
                assert (None if mc is None else mc.vertices) == cycle
                if cycle is not None:
                    assert mc.length == len(cycle)
                    assert mc.directed == _bought_around(g, cycle)
            want[(u, v)] = oracles.min_cycle_through_edge(g.n, adj, u, v)
        table, first = ncg.structure._min_cycles(g, biconnected_components(g))
        assert list(table) == list(want)
        assert {e: None if mc is None else mc.vertices
                for e, mc in table.items()} == want
        found = [c for c in want.values() if c is not None]
        shortest = min(found, key=len, default=None)
        assert first == shortest
        assert shortest_cycle(g) == shortest
        assert girth(g) == (None if shortest is None else len(shortest))


def _directed_flags(profile):
    """``MinCycle.directed`` of the min cycle through each edge of a profile
    whose graph is one cycle, so every edge's min cycle is that cycle."""
    g = build_graph(profile)
    cycles = [min_cycle_through_edge(g, e) for e in sorted(g.edges)]
    assert all(mc.length == profile.n for mc in cycles)
    return {mc.directed for mc in cycles}


class TestDirectedCycles:
    def test_directed_triangle(self):
        assert _directed_flags(directed_cycle_profile(3)) == {True}

    def test_vertex_buying_both_incident_edges(self):
        profile = StrategyProfile.from_sets([{1, 2}, {2}, set()])
        assert _directed_flags(profile) == {False}

    def test_directed_c4(self):
        assert _directed_flags(directed_cycle_profile(4)) == {True}

    def test_reversed_orientation_counts(self):
        profile = StrategyProfile.from_sets([{2}, {0}, {1}])
        assert _directed_flags(profile) == {True}


class TestUnorderedEdgePairs:
    """A directed triangle built from its purchase masks, whose min cycle is
    asked for with the pair given high end first."""

    GRAPH = OwnedGraph([0b010, 0b100, 0b001])

    def test_girth(self):
        assert biconnected_components(self.GRAPH)[0].vertices == frozenset({0, 1, 2})
        assert girth(self.GRAPH) == 3

    def test_min_cycle_is_directed(self):
        assert min_cycle_through_edge(self.GRAPH, (1, 0)).directed


class TestGirth:
    def test_examples(self):
        tree = build_graph(StrategyProfile.from_sets([{1}, {2}, {3}, set()]))
        assert girth(tree) is None
        assert girth(build_graph(directed_cycle_profile(5))) == 5
        k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert girth(k4) == 3

    def test_agrees_with_cycle_enumeration_oracle(self):
        rng = random.Random(25)
        for _ in range(150):
            n = rng.randint(2, 7)
            edges = random_connected_graph_edges(rng, n)
            g = graph_from_edges(n, edges)
            adj = oracles.adjacency(n, profile_from_edges(n, edges).buys)
            assert girth(g) == oracles.girth(n, adj)
            cyc = shortest_cycle(g)
            if cyc is not None:
                assert is_min_cycle(g, cyc)


class TestTwoDegreePaths:
    def test_pure_cycle_is_degenerate(self):
        comp = biconnected_components(build_graph(directed_cycle_profile(6)))[0]
        assert component_is_cycle(comp)
        assert two_degree_paths(comp) == []

    def test_theta_graph(self):
        # hubs 0 and 5 joined by three paths with 2, 2 and 3 interior vertices
        edges = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5),
                 (0, 6), (6, 7), (7, 8), (8, 5)]
        comp = biconnected_components(graph_from_edges(9, edges))[0]
        paths = two_degree_paths(comp)
        assert sorted(p.k for p in paths) == [2, 2, 3]
        assert all({p.start, p.end} == {0, 5} for p in paths)

    def test_k4_has_none(self):
        k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        comp = biconnected_components(k4)[0]
        assert not component_is_cycle(comp)
        assert two_degree_paths(comp) == []

    def test_interiors_have_degree_two(self):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(4, 7)
            g = graph_from_edges(n, random_connected_graph_edges(rng, n))
            for comp in biconnected_components(g):
                if component_is_cycle(comp):
                    continue
                for p in two_degree_paths(comp):
                    assert p.k >= 1
                    assert all(comp.degrees[x] == 2 for x in p.interior)
                    assert comp.degrees[p.start] != 2
                    assert comp.degrees[p.end] != 2


class TestClosestAssignment:
    def test_pendant_path_assigned_to_attachment(self):
        # C4 on 0..3 with a path 0-4-5 hanging off vertex 0
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
        comp = biconnected_components(g)[0]
        ca = closest_assignment(all_pairs_distances(g), comp)
        assert ca.s_of(0) == frozenset({0, 4, 5})

    def test_component_vertices_map_to_themselves(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)])
        comp = biconnected_components(g)[0]
        ca = closest_assignment(all_pairs_distances(g), comp)
        for v in comp.vertices:
            assert ca.assignment[v] == v
            assert ca.s_of(v) & comp.vertices == {v}

    def test_graph_equal_to_component(self):
        g = build_graph(directed_cycle_profile(5))
        comp = biconnected_components(g)[0]
        ca = closest_assignment(all_pairs_distances(g), comp)
        assert all(ca.s_of(v) == {v} for v in range(5))

    def test_partition_properties_random(self):
        rng = random.Random(27)
        checked = 0
        for _ in range(80):
            n = rng.randint(4, 7)
            g = graph_from_edges(n, random_connected_graph_edges(rng, n))
            for comp in biconnected_components(g):
                ca = closest_assignment(all_pairs_distances(g), comp)
                union = set()
                for v in comp.vertices:
                    s = ca.s_of(v)
                    assert not union & s
                    union |= s
                assert union == set(range(n))
                checked += 1
        assert checked > 20

    def test_disconnected_rejected(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, {0}, set()]))
        comp = biconnected_components(g)[0]
        with pytest.raises(Disconnected):
            closest_assignment(all_pairs_distances(g), comp)


class TestShoppingVertices:
    def test_directed_c4_single_shopping_vertex(self):
        graph = build_graph(directed_cycle_profile(4))
        comp = biconnected_components(graph)[0]
        sv = shopping_vertices(graph, comp, shortest_path_tree(graph, 0))
        # With root 0 the tree keeps (0,1), (0,3), (1,2); vertex 2 bought the
        # leftover edge (2,3).
        assert sv.members == frozenset({2})
        assert dict(sv.edges_by_member)[2] == ((2, 3),)

    def test_every_member_recomputable(self):
        rng = random.Random(28)
        for _ in range(40):
            n = rng.randint(4, 7)
            edges = random_connected_graph_edges(rng, n)
            profile = profile_from_edges(n, edges, rng)
            graph = build_graph(profile)
            comps = biconnected_components(graph)
            if not comps:
                continue
            root = rng.randrange(n)
            spt = shortest_path_tree(graph, root)
            for comp in comps:
                sv = shopping_vertices(graph, comp, spt)
                t_edges = spt.edges()
                expected = set()
                for u, v in comp.edges - t_edges:
                    if v in profile.buys[u]:
                        expected.add(u)
                    if u in profile.buys[v]:
                        expected.add(v)
                assert sv.members == expected

    def test_double_purchase_lists_both_buyers(self):
        # 4-cycle whose non-tree edge (2,3) is paid from both sides
        profile = StrategyProfile.from_sets([{1}, {2}, {3}, {0, 2}])
        graph = build_graph(profile)
        comp = biconnected_components(graph)[0]
        sv = shopping_vertices(graph, comp, shortest_path_tree(graph, 0))
        assert sv.members == frozenset({2, 3})


class TestAudit:
    def test_tree_equilibrium_fully_passes(self):
        cfg = GameConfig(3, Fraction(5))
        star = StrategyProfile.from_sets([{1}, set(), {1}])
        report = audit_equilibrium_structure(cfg, star)
        assert report.all_applicable_pass()
        girth_checks = [report.record("girth_alpha_plus_2"),
                        report.record("girth_2alpha_minus_1")]
        assert all(r.passed and r.vacuous for r in girth_checks)
        assert not report.record("min_cycles_directed").applicable

    def test_directed_c4_alpha5_flags_girth(self):
        cfg = GameConfig(4, Fraction(5))
        report = audit_equilibrium_structure(cfg, directed_cycle_profile(4))
        rec = report.record("girth_alpha_plus_2")
        assert rec.applicable and rec.passed is False
        cycle = rec.witnesses[0].payload
        assert len(cycle) == 4 and Fraction(len(cycle)) < cfg.alpha + 2
        assert not report.all_applicable_pass()

    def test_directed_c3_alpha5_flags_girth(self):
        cfg = GameConfig(3, Fraction(5))
        report = audit_equilibrium_structure(cfg, directed_cycle_profile(3))
        assert report.record("girth_alpha_plus_2").passed is False
        assert report.record("girth_2alpha_minus_1").passed is False

    def test_alpha_gates(self):
        profile = directed_cycle_profile(5)
        tiny = audit_equilibrium_structure(GameConfig(5, Fraction(1, 2)), profile)
        assert not tiny.record("shopping_single_nontree").applicable
        low = audit_equilibrium_structure(GameConfig(5, Fraction(3, 2)), profile)
        assert low.record("shopping_single_nontree").applicable
        for check_id in ("min_cycles_directed", "component_members_buy",
                         "attachment_distance", "avg_degree_upper",
                         "two_degree_path_limit", "avg_degree_lower"):
            assert not low.record(check_id).applicable
        mid = audit_equilibrium_structure(GameConfig(5, Fraction(3)), profile)
        assert mid.record("min_cycles_directed").applicable
        assert not mid.record("avg_degree_lower").applicable

    def test_long_cycle_alpha_above_five_fails_degree_checks(self):
        profile = directed_cycle_profile(12)
        report = audit_equilibrium_structure(GameConfig(12, Fraction(11, 2)), profile)
        assert report.record("girth_alpha_plus_2").passed
        assert report.record("girth_2alpha_minus_1").passed
        assert report.record("min_cycles_directed").passed
        assert report.record("component_members_buy").passed
        assert report.record("two_degree_path_limit").passed is False
        assert report.record("neighborhood_degree").passed is False
        assert report.record("avg_degree_lower").passed is False
        assert report.record("avg_degree_upper").passed  # 2 < 2 + 2/3

    def test_undirected_min_cycle_detected(self):
        # vertex 0 buys both its incident cycle edges
        profile = StrategyProfile.from_sets([{1, 4}, {2}, {3}, {4}, set()])
        report = audit_equilibrium_structure(GameConfig(5, Fraction(5, 2)), profile)
        rec = report.record("min_cycles_directed")
        assert rec.applicable and rec.passed is False

    def test_multi_nontree_buyer_detected(self):
        # K4 where vertex 1 buys two chords of the tree rooted at center 0
        profile = StrategyProfile.from_sets([{1, 2, 3}, {2, 3}, set(), set()])
        report = audit_equilibrium_structure(GameConfig(4, Fraction(3, 2)), profile)
        rec = report.record("shopping_single_nontree")
        assert rec.applicable and rec.passed is False
        assert any(w.payload[0] == 1 for w in rec.witnesses)

    def test_shared_objects_built_once(self, monkeypatch):
        calls = Counter()
        for name in ("build_graph", "all_pairs_distances", "shortest_path_tree",
                     "min_cycle_through_edge", "is_min_cycle", "component_subgraph",
                     "shopping_vertices", "shortest_cycle", "distances_from",
                     "closest_assignment"):
            def counted(*args, _fn=getattr(ncg.structure, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ncg.structure, name, counted)
        profile = profile_from_edges(12, _BLOCKS.edges)
        blocks = biconnected_components(_BLOCKS)
        assert len(blocks) == 3
        report = audit_equilibrium_structure(GameConfig(12, Fraction(25)), profile)
        assert report.record("shopping_lca_gap").applicable
        assert calls == {"build_graph": 1, "all_pairs_distances": 1,
                         "shortest_path_tree": 1,
                         "min_cycle_through_edge": sum(len(c.edges) for c in blocks),
                         "closest_assignment": 3, "shopping_vertices": 3}

    def test_witnesses_reverify(self):
        cfg = GameConfig(4, Fraction(5))
        report = audit_equilibrium_structure(cfg, directed_cycle_profile(4))
        graph = build_graph(directed_cycle_profile(4))
        for rec in report.failures():
            assert rec.witnesses
            for w in rec.witnesses:
                if w.kind == "cycle":
                    assert is_min_cycle(graph, w.payload) or len(w.payload) >= 3


def _shopping_flower(lengths):
    """Cycles of the given lengths through vertex 0, each bought around in
    one direction, with the edge of each cycle farthest from 0 bought by
    both its ends; and K4 minus (0, c) on 0, a, b, c, where a buys (a, b)
    and c buys (c, b). Vertex 0 is a center, so the audit's tree is rooted
    there: the cycle of length L = 2k + 1 gives a shopping pair at tree
    depths k, k, the one of length 2k a pair at k, k - 1, and a, c a pair
    whose tree ancestor is a itself, at 0, 1."""
    buys = [set()]
    for length in lengths:
        cycle = [0, *range(len(buys), len(buys) + length - 1)]
        buys.extend(set() for _ in range(length - 1))
        for i, u in enumerate(cycle):
            buys[u].add(cycle[(i + 1) % length])
        k = length // 2
        buys[cycle[k + 1]].add(cycle[k])
    a, b, c = range(len(buys), len(buys) + 3)
    buys.extend([{b, c}, set(), {b}])
    buys[0] |= {a, b}
    return StrategyProfile.from_sets(buys)


def _shopping_pair_reference(alpha, profile):
    """The two shopping-pair witness lists, comparing tree depths with the
    Fraction (alpha - 1) / 2, and the (max, sum) depths of every pair."""
    graph = build_graph(profile)
    spt = shortest_path_tree(graph, min(metrics(all_pairs_distances(graph)).centers))
    threshold = (alpha - 1) / 2
    lca_bad, dist_bad, depths = [], [], set()
    for comp in biconnected_components(graph):
        members = sorted(shopping_vertices(graph, comp, spt).members)
        for u1, u2 in combinations(members, 2):
            x, d1, d2 = ncg.structure._lca_and_depths(spt, u1, u2)
            depths.add((max(d1, d2), d1 + d2))
            if Fraction(max(d1, d2)) < threshold:
                lca_bad.append(Witness(
                    "close_shopping_pair", (u1, u2, x, d1, d2),
                    f"shopping vertices {u1},{u2} are {d1},{d2} from their "
                    f"tree ancestor {x}; max < (alpha-1)/2 = {threshold}"))
            if Fraction(d1 + d2) < threshold:
                dist_bad.append(Witness(
                    "close_shopping_pair", (u1, u2, d1 + d2),
                    f"tree distance {d1 + d2} between shopping vertices "
                    f"{u1},{u2} < (alpha-1)/2 = {threshold}"))
    return lca_bad, dist_bad, depths


class TestShoppingThreshold:
    """The shopping-pair checks compare integer tree depths with
    (alpha - 1) / 2, an integer at some alphas and not at others."""

    @pytest.mark.parametrize("alpha", [Fraction(5), Fraction(6), Fraction(7, 2),
                                       Fraction(25)])
    def test_witnesses_match_fraction_reference(self, alpha):
        depths = set()
        for profile in (_shopping_flower([3, 4, 5, 6, 7]),
                        _shopping_flower([12, 13, 22, 23, 24, 25])):
            report = audit_equilibrium_structure(GameConfig(profile.n, alpha), profile)
            lca_bad, dist_bad, found = _shopping_pair_reference(alpha, profile)
            assert report.record("shopping_lca_gap").witnesses == tuple(lca_bad)
            assert report.record("shopping_pair_distance").witnesses == tuple(dist_bad)
            depths |= found
        # pairs at the least depth that passes and one below it, in both checks
        at = math.ceil((alpha - 1) / 2)
        assert {at, at - 1} <= {m for m, _ in depths}
        assert {at, at - 1} <= {s for _, s in depths}


class TestCrucialDeviation:
    def test_directed_c5_antipodal_pair(self):
        cfg = GameConfig(5, Fraction(3))
        profile = directed_cycle_profile(5)
        dev = lemma_crucial_deviation(cfg, profile, a=0, b=2)
        assert dev.usage_after <= dev.anchor_usage + 1
        assert dev.swapped_edge_to == 1
        assert 2 in dev.new_strategy

    def test_two_qualifying_edges_removes_the_extra(self):
        # K4 with 0 buying two same-level chords under the tree rooted at 1
        cfg = GameConfig(4, Fraction(2))
        profile = StrategyProfile.from_sets([{2, 3}, {0, 2, 3}, set(), {2}])
        dev = lemma_crucial_deviation(cfg, profile, a=0, b=1)
        assert dev.extra_removed == 1
        assert dev.usage_after <= dev.anchor_usage + 1
        # cost accounting of the swap-and-prune change
        alpha = cfg.alpha
        assert dev.new_cost <= alpha * len(dev.old_strategy) \
            - alpha * dev.extra_removed + dev.anchor_usage + 1

    def test_unqualified_agent_rejected(self):
        cfg = GameConfig(3, Fraction(5))
        star = StrategyProfile.from_sets([{1}, set(), {1}])
        with pytest.raises(PreconditionUnmet):
            lemma_crucial_deviation(cfg, star, a=1, b=0)

    def test_never_degrades_anchor_bound_random(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(3, 7)
            edges = random_connected_graph_edges(rng, n)
            profile = profile_from_edges(n, edges, rng)
            cfg = GameConfig(n, Fraction(2))
            a, b = rng.sample(range(n), 2)
            try:
                dev = lemma_crucial_deviation(cfg, profile, a, b)
            except PreconditionUnmet:
                continue
            assert dev.usage_after <= dev.anchor_usage + 1
