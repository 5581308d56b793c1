"""The connected-class generator against networkx's graph atlas.

networkx is a test-only oracle: ``graph_atlas_g()`` lists every graph on
up to 7 vertices, one per isomorphism class.
"""

from collections import defaultdict

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncg.isomorphism import (_canonical_search, canonical_graph, connected_classes,
                             relabelings)

CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853]  # n = 1..7
LABELED_CONNECTED = [1, 1, 4, 38, 728, 26704]  # n = 1..6


def _nx_graph(adj):
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, w) for u, row in enumerate(adj) for w in range(u + 1, len(adj))
                     if row >> w & 1)
    return g


def _graph(n, bits):
    """Adjacency of the graph holding the i-th vertex pair iff bit i is set."""
    adj = [0] * n
    for i, (u, w) in enumerate((u, w) for u in range(n) for w in range(u + 1, n)):
        if bits >> i & 1:
            adj[u] |= 1 << w
            adj[w] |= 1 << u
    return adj


def _key(g):
    """Order plus each vertex's degree and triangle count: an invariant."""
    triangles = nx.triangles(g)
    return len(g), tuple(sorted((d, triangles[v]) for v, d in g.degree()))


@pytest.fixture(scope="module")
def atlas():
    """Connected atlas graphs, bucketed by ``_key``."""
    buckets = defaultdict(list)
    for g in nx.graph_atlas_g():
        if len(g) and nx.is_connected(g):
            buckets[_key(g)].append(g)
    return buckets


def test_class_counts():
    assert [len(connected_classes(n)) for n in range(1, 8)] == CONNECTED_CLASSES


@pytest.mark.parametrize("n", range(1, 8))
def test_classes_biject_with_connected_atlas(atlas, n):
    # Every representative is connected and matches exactly one atlas
    # graph, and no atlas graph is matched twice: no two representatives
    # are isomorphic, and no connected class is missing.
    matched = set()
    for adj in connected_classes(n):
        g = _nx_graph(adj)
        assert nx.is_connected(g)
        hits = [id(h) for h in atlas[_key(g)] if nx.is_isomorphic(g, h)]
        assert len(hits) == 1
        assert hits[0] not in matched
        matched.add(hits[0])
    assert len(matched) == sum(len(b) for (order, _), b in atlas.items() if order == n)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_sizes_sum_to_labeled_connected_graphs(n):
    # A class's labeled copies are its images under all n! relabelings.
    total = 0
    for adj in connected_classes(n):
        flat = [adj[a] >> b & 1 for a in range(n) for b in range(n)]
        total += len({tuple(flat[j] for j in perm) for perm in relabelings(n)})
    assert total == LABELED_CONNECTED[n - 1]


@given(st.integers(1, 8), st.integers(0, 2 ** 28 - 1), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonical_form_is_a_relabeling_invariant(n, bits, rnd):
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    adj = _graph(n, bits)
    perm = list(range(n))
    rnd.shuffle(perm)
    relabeled = [0] * n
    for u, w in pairs:
        if adj[u] >> w & 1:
            relabeled[perm[u]] |= 1 << perm[w]
            relabeled[perm[w]] |= 1 << perm[u]
    form = canonical_graph(adj)
    assert canonical_graph(relabeled) == form
    assert nx.is_isomorphic(_nx_graph(form), _nx_graph(adj))


def _unpruned_classes(n):
    """Reference: every nonempty neighbour set of the new vertex for every
    class on n - 1 vertices, duplicates dropped by canonical form alone."""
    classes = [(0,)]
    for size in range(2, n + 1):
        new = 1 << (size - 1)
        classes = sorted({canonical_graph([row | new if nbrs >> v & 1 else row
                                           for v, row in enumerate(adj)] + [nbrs])
                          for adj in classes for nbrs in range(1, new)})
    return classes if n >= 1 else []


@pytest.mark.parametrize("n", range(0, 8))
def test_orbit_pruning_returns_the_unpruned_list(n):
    assert connected_classes(n) == _unpruned_classes(n)


def test_class_count_n8():
    # OEIS A001349: 11117 connected graphs on 8 vertices.
    assert len(connected_classes(8)) == 11117


@given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1))
@example(7, 0)  # every pair of vertices are twins
@example(7, 2 ** 6 - 1)  # the star at 0
@example(5, 2 ** 10 - 1)  # K5
@settings(max_examples=200, deadline=None)
def test_generators_are_automorphisms(n, bits):
    adj = _graph(n, bits)
    form, generators = _canonical_search(adj)
    assert form == canonical_graph(adj)
    for g in generators:
        assert sorted(g) == list(range(n))
        assert all((adj[g[u]] >> g[w] & 1) == (adj[u] >> w & 1)
                   for u in range(n) for w in range(n))
