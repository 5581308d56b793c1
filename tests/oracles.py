"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against plain dict adjacency,
deque BFS, and itertools enumeration, sharing no code with the package's
bitmask implementations, so that agreement between the two is meaningful.
"""

from collections import deque
from itertools import chain, combinations

INF = float("inf")


def adjacency(n, buys):
    adj = {v: set() for v in range(n)}
    for u, targets in enumerate(buys):
        for v in targets:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_distances(adj, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def ball(adj, sources, radius=INF):
    """Vertices within ``radius`` hops of some source, by a deque BFS that
    starts from all sources at once."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if dist[u] < radius:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return set(dist)


def eccentricity(n, adj, v):
    dist = bfs_distances(adj, v)
    if len(dist) < n:
        return INF
    return max(dist.values())


def agent_cost(n, alpha, buys, v):
    return alpha * len(buys[v]) + eccentricity(n, adjacency(n, buys), v)


def social_cost(n, alpha, buys):
    adj = adjacency(n, buys)
    total = alpha * sum(len(s) for s in buys)
    for v in range(n):
        e = eccentricity(n, adj, v)
        if e == INF:
            return INF
        total += e
    return total


def ownership_code(n, buys):
    """One digit per vertex pair (u, v), u < v, in lexicographic order:
    0 no edge, 1 u buys, 2 v buys, 3 both buy."""
    digits = []
    for u, v in combinations(range(n), 2):
        d = (1 if v in buys[u] else 0) + (2 if u in buys[v] else 0)
        digits.append(str(d))
    return "".join(digits)


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def best_response(n, alpha, buys, v):
    """(strategy, cost) of v's first minimum-cost purchase set in powerset
    order, which lists sets by size and then lexicographically."""
    others = [u for u in range(n) if u != v]
    best = None
    for subset in powerset(others):
        trial = list(buys)
        trial[v] = set(subset)
        cost = agent_cost(n, alpha, trial, v)
        if best is None or cost < best[1]:
            best = subset, cost
    return best


def best_cost(n, alpha, buys, v):
    return best_response(n, alpha, buys, v)[1]


def is_nash(n, alpha, buys):
    for v in range(n):
        if best_cost(n, alpha, buys, v) < agent_cost(n, alpha, buys, v):
            return False
    return True


def all_simple_cycles(n, adj):
    """Every simple cycle once, as a vertex tuple starting at its smallest
    vertex with the smaller neighbor second (canonical direction)."""
    cycles = []

    def extend(path, used):
        u = path[-1]
        v0 = path[0]
        for w in sorted(adj[u]):
            if w == v0 and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > v0 and w not in used:
                used.add(w)
                path.append(w)
                extend(path, used)
                path.pop()
                used.remove(w)

    for v0 in range(n):
        extend([v0], {v0})
    return cycles


def girth(n, adj):
    cycles = all_simple_cycles(n, adj)
    return min((len(c) for c in cycles), default=None)


def min_cycle_through_edge(n, adj, u, v):
    """Vertices of the shortest cycle through the edge (u, v), starting at u
    and ending at v, or None for a bridge. A deque BFS from u in the graph
    without that edge gives the distances; the path is read back from v,
    each step to the smallest neighbour one hop closer to u."""
    dist = {u: 0}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if {a, b} != {u, v} and b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    if v not in dist:
        return None
    path = [v]
    while path[-1] != u:
        a = path[-1]
        path.append(min(b for b in adj[a]
                        if {a, b} != {u, v} and dist.get(b) == dist[a] - 1))
    return tuple(reversed(path))


def biconnected_components(n, adj):
    """Edge classes joined by membership in a common simple cycle, reported
    when they span at least three vertices. Bridges never join a cycle and
    are dropped, matching the package's component definition."""
    edges = sorted({(min(u, w), max(u, w)) for u in adj for w in adj[u]})
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for cycle in all_simple_cycles(n, adj):
        cycle_edges = []
        for i in range(len(cycle)):
            u, w = cycle[i], cycle[(i + 1) % len(cycle)]
            cycle_edges.append((min(u, w), max(u, w)))
        for e in cycle_edges[1:]:
            union(cycle_edges[0], e)

    classes = {}
    for e in edges:
        classes.setdefault(find(e), set()).add(e)
    out = []
    for es in classes.values():
        vertices = frozenset(v for e in es for v in e)
        if len(vertices) >= 3:
            out.append((vertices, frozenset(es)))
    out.sort(key=lambda item: sorted(item[0]))
    return out


def cut_vertices(n, adj):
    """Vertices whose removal increases the number of connected components."""
    def component_count(skip):
        seen = set()
        count = 0
        for s in range(n):
            if s == skip or s in seen:
                continue
            count += 1
            queue = deque([s])
            seen.add(s)
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w != skip and w not in seen:
                        seen.add(w)
                        queue.append(w)
        return count

    base = component_count(None)
    return {v for v in range(n) if component_count(v) > base}
