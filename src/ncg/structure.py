"""Structural analysis of induced graphs and the equilibrium audit.

Provides the objects the equilibrium structure theory is built from:
biconnected components (three or more vertices; bridges are not
components here, so a graph without components is a tree), shortest
path trees with a deterministic tie rule, min cycles, 2-degree paths,
closest-vertex partitions around a component, and shopping vertices.
``audit_equilibrium_structure`` evaluates every structural predicate
expected of an equilibrium and attaches re-verifiable witnesses to any
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import AssignmentAmbiguous, Disconnected, PreconditionUnmet
from .game import (INF, GameConfig, OwnedGraph, StrategyProfile, agent_cost,
                   all_pairs_distances, bfs, build_graph, distances_from,
                   eccentricity, metrics)


@dataclass(frozen=True)
class BiconnectedComponent:
    """Maximal biconnected subgraph with at least three vertices."""

    vertices: frozenset
    edges: frozenset
    average_degree: Fraction

    def degree_of(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


@dataclass(frozen=True)
class ShortestPathTree:
    """BFS tree with smallest-index parents; depth equals graph distance."""

    root: int
    parent: tuple  # parent[v], None for the root
    depth: tuple

    def edges(self) -> frozenset:
        return frozenset(
            (v, p) if v < p else (p, v)
            for v, p in enumerate(self.parent) if p is not None)


@dataclass(frozen=True)
class MinCycle:
    """Cycle whose internal distances match the host graph's distances."""

    vertices: tuple  # cyclic order
    length: int
    directed: bool
    owners: tuple  # owner set per edge (vertices[i], vertices[i+1 mod len])


@dataclass(frozen=True)
class TwoDegreePath:
    """Maximal path whose interior vertices all have degree 2 in the component."""

    start: int
    interior: tuple
    end: int

    @property
    def k(self) -> int:
        return len(self.interior)

    def vertices(self) -> tuple:
        return (self.start, *self.interior, self.end)


@dataclass(frozen=True)
class ClosestAssignment:
    """Every vertex mapped to its unique nearest component vertex."""

    assignment: tuple
    component_vertices: frozenset

    def s_of(self, v: int) -> frozenset:
        return frozenset(w for w, a in enumerate(self.assignment) if a == v)


@dataclass(frozen=True)
class ShoppingVertexSet:
    """Component vertices buying at least one edge outside the component's
    restriction of the shortest path tree."""

    root: int
    members: frozenset
    edges_by_member: tuple  # sorted (member, (edges...)) pairs

    def nontree_edges(self, member: int) -> tuple:
        for m, edges in self.edges_by_member:
            if m == member:
                return edges
        return ()


@dataclass(frozen=True)
class Witness:
    kind: str
    payload: tuple
    summary: str


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    applicable: bool
    passed: bool | None  # None when not applicable
    vacuous: bool
    witnesses: tuple
    detail: str


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of every structural predicate for one profile."""

    records: tuple

    def record(self, check_id: str) -> CheckRecord:
        for r in self.records:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    def failures(self) -> tuple:
        return tuple(r for r in self.records if r.applicable and r.passed is False)

    def all_applicable_pass(self) -> bool:
        return not self.failures()


@dataclass(frozen=True)
class CrucialDeviation:
    """The swap-and-prune strategy change anchored at a reference vertex b:
    the agent trades one qualifying owned edge for a direct link to b and
    drops every other owned edge that lies outside the tree."""

    agent: int
    anchor: int
    swapped_edge_to: int
    old_strategy: tuple
    new_strategy: tuple
    old_cost: Fraction | float
    new_cost: Fraction | float
    usage_before: int | float
    usage_after: int | float
    anchor_usage: int | float
    extra_removed: int


# ---------------------------------------------------------------------------
# decomposition and trees


def biconnected_components(graph: OwnedGraph) -> list:
    """Maximal biconnected subgraphs with >= 3 vertices, via an iterative
    lowpoint DFS with an edge stack. Bridges and isolated edges are not
    reported, so trees (and forests) yield an empty list."""
    n = graph.n
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list = []
    raw: list = []
    timer = 0

    for start in range(n):
        if disc[start] != -1:
            continue
        disc[start] = low[start] = timer
        timer += 1
        dfs_stack = [(start, iter(list(graph.neighbors(start))))]
        while dfs_stack:
            u, it = dfs_stack[-1]
            advanced = False
            for v in it:
                if disc[v] == -1:
                    parent[v] = u
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    dfs_stack.append((v, iter(list(graph.neighbors(v)))))
                    advanced = True
                    break
                elif v != parent[u] and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            if advanced:
                continue
            dfs_stack.pop()
            if dfs_stack:
                pu = dfs_stack[-1][0]
                if low[u] < low[pu]:
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == (pu, u):
                            break
                    raw.append(comp)
        assert not edge_stack, "edge stack must drain after each DFS root"
    out = []
    for comp in raw:
        vertices = frozenset(v for e in comp for v in e)
        if len(vertices) < 3:
            continue
        edges = frozenset((u, v) if u < v else (v, u) for u, v in comp)
        out.append(BiconnectedComponent(
            vertices=vertices, edges=edges,
            average_degree=Fraction(2 * len(edges), len(vertices))))
    out.sort(key=lambda c: sorted(c.vertices))
    return out


def shortest_path_tree(graph: OwnedGraph, root: int,
                       ) -> ShortestPathTree:
    """BFS tree from root; every vertex takes its smallest-index predecessor
    as parent, so the tree is unique. Raises Disconnected if any vertex is
    out of reach."""
    n = graph.n
    layers: list = []
    if bfs(graph.adj, 1 << root, (1 << n) - 1, layers) == INF:
        raise Disconnected(f"vertices unreachable from {root}")
    depth = [0] * n
    parent = [None] * n
    for d in range(1, len(layers)):
        m = layers[d]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            depth[w] = d
            parent[w] = _lowest_vertex(graph.adj[w] & layers[d - 1])
    return ShortestPathTree(root=root, parent=tuple(parent), depth=tuple(depth))


def _lowest_vertex(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


# ---------------------------------------------------------------------------
# cycles


def _cycle_owners(graph: OwnedGraph, vertices: tuple) -> tuple:
    owners = []
    L = len(vertices)
    for i in range(L):
        u, v = vertices[i], vertices[(i + 1) % L]
        e = (u, v) if u < v else (v, u)
        owners.append(graph.owners.get(e, frozenset()))
    return tuple(owners)


def is_directed_cycle(profile: StrategyProfile, cycle) -> bool:
    """True iff some rotation/reflection has every edge bought by its tail."""
    vertices = tuple(cycle.vertices if isinstance(cycle, MinCycle) else cycle)
    return _owners_directed(build_graph(profile), vertices)


def is_min_cycle(graph: OwnedGraph, cycle) -> bool:
    """True iff every pairwise distance along the cycle equals the graph distance."""
    vertices = tuple(cycle.vertices if isinstance(cycle, MinCycle) else cycle)
    L = len(vertices)
    if L < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    for i in range(L):
        u, v = vertices[i], vertices[(i + 1) % L]
        if not graph.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
    for i in range(L):
        dist = distances_from(graph.adj, vertices[i], graph.n)
        for j in range(i + 1, L):
            around = min(j - i, L - (j - i))
            if dist[vertices[j]] != around:
                return False
    return True


def _shortest_path_avoiding_edge(graph: OwnedGraph, u: int, v: int):
    """Smallest-parent BFS path from u to v in the graph minus edge (u, v)."""
    adj = list(graph.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    layers: list = []
    d = bfs(adj, 1 << u, 1 << v, layers)
    if d == INF:
        return None
    path = [v]
    for layer in reversed(layers[:d]):
        path.append(_lowest_vertex(adj[path[-1]] & layer))
    path.reverse()
    return path


def min_cycle_through_edge(graph: OwnedGraph, e) -> MinCycle | None:
    """A shortest cycle through e (None for bridges). Such a cycle always
    has the min-cycle property, which is re-checked on every call."""
    u, v = e
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    path = _shortest_path_avoiding_edge(graph, u, v)
    if path is None:
        return None
    vertices = tuple(path)  # closing edge (v, u) wraps around
    assert is_min_cycle(graph, vertices), "shortest cycle through an edge must be min"
    return MinCycle(
        vertices=vertices, length=len(vertices),
        directed=_owners_directed(graph, vertices),
        owners=_cycle_owners(graph, vertices))


def _owners_directed(graph: OwnedGraph, vertices: tuple) -> bool:
    L = len(vertices)
    forward = True
    backward = True
    for i in range(L):
        a, b = vertices[i], vertices[(i + 1) % L]
        e = (a, b) if a < b else (b, a)
        own = graph.owners.get(e, frozenset())
        if a not in own:
            forward = False
        if b not in own:
            backward = False
        if not forward and not backward:
            return False
    return forward or backward


def girth(graph: OwnedGraph):
    """Length of a shortest cycle; None for forests."""
    cycle = shortest_cycle(graph)
    return None if cycle is None else len(cycle)


def shortest_cycle(graph: OwnedGraph):
    """Vertices of one shortest cycle (deterministic pick), or None."""
    best = None
    for e in sorted(graph.edges):
        path = _shortest_path_avoiding_edge(graph, e[0], e[1])
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return None if best is None else tuple(best)


# ---------------------------------------------------------------------------
# component-local structure


def component_subgraph(graph: OwnedGraph, component: BiconnectedComponent) -> OwnedGraph:
    """The component's edges as a standalone graph on the same vertex ids."""
    return OwnedGraph(graph.n, component.edges,
                      {e: graph.owners[e] for e in component.edges})


def component_is_cycle(component: BiconnectedComponent) -> bool:
    return all(component.degree_of(v) == 2 for v in component.vertices)


def two_degree_paths(component: BiconnectedComponent) -> list:
    """All maximal paths with >= 1 interior vertices of component-degree 2.

    Endpoints have degree != 2 by definition, so a component that is one
    big cycle has no such path; detect that case with component_is_cycle.
    """
    deg = {v: component.degree_of(v) for v in component.vertices}
    adj: dict[int, list] = {v: [] for v in component.vertices}
    for u, v in component.edges:
        adj[u].append(v)
        adj[v].append(u)
    hubs = sorted(v for v in component.vertices if deg[v] != 2)
    seen = set()
    paths = []
    for h in hubs:
        for w in sorted(adj[h]):
            if deg[w] != 2:
                continue
            interior = [w]
            prev, cur = h, w
            while True:
                nxt = next(x for x in adj[cur] if x != prev)
                if deg[nxt] != 2:
                    end = nxt
                    break
                interior.append(nxt)
                prev, cur = cur, nxt
            if h <= end:
                key = (h, tuple(interior), end)
            else:
                key = (end, tuple(reversed(interior)), h)
            if key not in seen:
                seen.add(key)
                paths.append(TwoDegreePath(start=key[0], interior=key[1], end=key[2]))
    paths.sort(key=lambda p: (p.start, p.end, p.interior))
    return paths


def closest_assignment(graph: OwnedGraph, component: BiconnectedComponent) -> ClosestAssignment:
    """Partition every vertex to its nearest component vertex.

    Uniqueness is guaranteed when the component really is biconnected and
    the graph connected (everything outside attaches through exactly one
    component vertex); a tie therefore raises AssignmentAmbiguous.
    """
    if not graph.is_connected():
        raise Disconnected("closest assignment needs a connected graph")
    hs = sorted(component.vertices)
    dists = {h: distances_from(graph.adj, h, graph.n) for h in hs}
    assignment = []
    for w in range(graph.n):
        best_h, best_d = None, None
        tie = False
        for h in hs:
            d = dists[h][w]
            if best_d is None or d < best_d:
                best_h, best_d, tie = h, d, False
            elif d == best_d:
                tie = True
        if tie:
            raise AssignmentAmbiguous(
                f"vertex {w} is equidistant from several component vertices")
        assignment.append(best_h)
    return ClosestAssignment(assignment=tuple(assignment),
                             component_vertices=frozenset(component.vertices))


def _tree_restriction(component: BiconnectedComponent, spt: ShortestPathTree):
    """Edges of the component that are also tree edges, plus the partition of
    component vertices into connected pieces of that restriction."""
    t_edges = spt.edges()
    th_edges = frozenset(e for e in component.edges if e in t_edges)
    n = len(spt.parent)
    adj = [0] * n
    for u, v in th_edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    piece: dict[int, int] = {}
    for v in sorted(component.vertices):
        if v in piece:
            continue
        layers: list = []
        bfs(adj, 1 << v, (1 << n) - 1, layers)
        reached = sum(layers)  # the layers are disjoint masks
        piece.update((w, v) for w in component.vertices if reached >> w & 1)
    return th_edges, piece


def shopping_vertices(profile: StrategyProfile, component: BiconnectedComponent,
                      spt_root: int) -> ShoppingVertexSet:
    """Component vertices that buy component edges missing from the tree
    restriction, with those edges listed per vertex."""
    graph = build_graph(profile)
    spt = shortest_path_tree(graph, spt_root)
    th_edges, _ = _tree_restriction(component, spt)
    nontree = sorted(component.edges - th_edges)
    by_member: dict[int, list] = {}
    for u, v in nontree:
        if v in profile.buys[u]:
            by_member.setdefault(u, []).append((u, v))
        if u in profile.buys[v]:
            by_member.setdefault(v, []).append((u, v))
    edges_by_member = tuple(sorted(
        (m, tuple(sorted(es))) for m, es in by_member.items()))
    return ShoppingVertexSet(root=spt_root,
                             members=frozenset(by_member),
                             edges_by_member=edges_by_member)


def _lca_and_depths(spt: ShortestPathTree, u1: int, u2: int):
    a, b = u1, u2
    da, db = spt.depth[a], spt.depth[b]
    while da > db:
        a = spt.parent[a]
        da -= 1
    while db > da:
        b = spt.parent[b]
        db -= 1
    while a != b:
        a = spt.parent[a]
        b = spt.parent[b]
        da -= 1
    return a, spt.depth[u1] - da, spt.depth[u2] - da


# ---------------------------------------------------------------------------
# the audit


def _check(check_id, applicable, passed=None, vacuous=False, witnesses=(), detail=""):
    return CheckRecord(check_id=check_id, applicable=applicable, passed=passed,
                       vacuous=vacuous, witnesses=tuple(witnesses), detail=detail)


def _gate_skip(check_id, detail):
    return _check(check_id, applicable=False, detail=detail)


def audit_equilibrium_structure(config: GameConfig, profile: StrategyProfile) -> LemmaReport:
    """Evaluate every structural predicate an equilibrium must satisfy.

    Runs on any profile and reports raw outcomes: checks whose cost-range
    gate excludes the given alpha (or that need structure the graph does
    not have) are marked not applicable; checks that pass with nothing to
    examine are marked vacuous; failures carry concrete witnesses.
    """
    alpha = config.alpha
    graph = build_graph(profile)
    mets = metrics(all_pairs_distances(graph))
    connected = mets.is_connected()
    comps = biconnected_components(graph)
    records: list[CheckRecord] = []

    cyc = shortest_cycle(graph)
    g = None if cyc is None else len(cyc)
    for check_id, threshold, label in (
            ("girth_alpha_plus_2", alpha + 2, "alpha + 2"),
            ("girth_2alpha_minus_1", 2 * alpha - 1, "2*alpha - 1")):
        if g is None:
            records.append(_check(check_id, True, passed=True, vacuous=True,
                                  detail="no cycles"))
        elif Fraction(g) < threshold:
            records.append(_check(
                check_id, True, passed=False,
                witnesses=[Witness("cycle", cyc,
                                   f"cycle {cyc} has length {g} < {label} = {threshold}")],
                detail=f"girth {g} below {threshold}"))
        else:
            records.append(_check(check_id, True, passed=True,
                                  detail=f"girth {g} >= {threshold}"))

    def component_gated(check_id, alpha_ok, needs_connected, runner):
        if not alpha_ok:
            records.append(_gate_skip(check_id, "outside this check's alpha range"))
            return
        if not comps:
            records.append(_check(check_id, applicable=False, vacuous=True,
                                  detail="no biconnected components"))
            return
        if needs_connected and not connected:
            records.append(_gate_skip(check_id, "graph disconnected"))
            return
        runner(check_id)

    # --- cycle orientation and membership -------------------------------
    def run_min_cycles_directed(check_id):
        bad = []
        for comp in comps:
            sub = component_subgraph(graph, comp)
            for e in sorted(comp.edges):
                mc = min_cycle_through_edge(sub, e)
                if mc is not None and not mc.directed:
                    bad.append(Witness(
                        "undirected_min_cycle", mc.vertices,
                        f"min cycle {mc.vertices} through {e} is not directed"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad,
                              detail=f"{len(comps)} component(s) scanned"))

    component_gated("min_cycles_directed", alpha > 2, False, run_min_cycles_directed)

    def run_members_buy(check_id):
        bad = []
        for comp in comps:
            for v in sorted(comp.vertices):
                owns = any((min(v, u), max(v, u)) in comp.edges
                           for u in profile.buys[v])
                if not owns:
                    bad.append(Witness(
                        "non_buyer", (v, tuple(sorted(comp.vertices))),
                        f"vertex {v} buys no edge of its component"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("component_members_buy", alpha > 2, False, run_members_buy)

    # --- eccentricity and attachment bounds ------------------------------
    def run_ecc_gap(check_id):
        bad = []
        for comp in comps:
            for v in sorted(comp.vertices):
                if mets.ecc[v] > mets.radius + 2:
                    bad.append(Witness(
                        "far_component_vertex", (v, mets.ecc[v], mets.radius),
                        f"vertex {v} has usage {mets.ecc[v]} > radius + 2 = {mets.radius + 2}"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("component_ecc_radius_gap", alpha > 2, True, run_ecc_gap)

    def run_attachment(check_id):
        bad = []
        for comp in comps:
            ca = closest_assignment(graph, comp)
            dist_rows = {v: distances_from(graph.adj, v, graph.n)
                         for v in sorted(comp.vertices)}
            for v in sorted(comp.vertices):
                bound = mets.ecc[v] + 2 - alpha
                for w in sorted(ca.s_of(v)):
                    if Fraction(dist_rows[v][w]) > bound:
                        bad.append(Witness(
                            "distant_attachment", (v, w, dist_rows[v][w]),
                            f"d({v},{w}) = {dist_rows[v][w]} > usage({v}) + 2 - alpha = {bound}"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("attachment_distance", alpha > 2, True, run_attachment)

    # --- 2-degree paths ---------------------------------------------------
    def run_two_degree(check_id):
        bad = []
        examined = 0
        for comp in comps:
            if component_is_cycle(comp):
                # One full cycle: any run of all-but-two of its vertices is
                # interior to a path, so the effective bound is |C| - 2.
                k_eq = len(comp.vertices) - 2
                examined += 1
                if k_eq > 3:
                    bad.append(Witness(
                        "long_two_degree_run",
                        tuple(sorted(comp.vertices)),
                        f"cycle component of size {len(comp.vertices)} carries a "
                        f"2-degree run of {k_eq} > 3"))
                continue
            for path in two_degree_paths(comp):
                examined += 1
                if path.k > 3:
                    bad.append(Witness(
                        "long_two_degree_path", path.vertices(),
                        f"path {path.vertices()} has {path.k} interior 2-degree vertices"))
                elif path.k == 3 and connected:
                    ok = _k3_endpoint_condition(profile, mets, path)
                    if not ok:
                        bad.append(Witness(
                            "k3_endpoints", path.vertices(),
                            f"path {path.vertices()} with k=3 violates the endpoint "
                            f"usage conditions"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad,
                              vacuous=examined == 0))

    component_gated("two_degree_path_limit", alpha > 5, False, run_two_degree)

    def run_neighborhood(check_id):
        bad = []
        for comp in comps:
            sub = component_subgraph(graph, comp)
            deg = {v: comp.degree_of(v) for v in comp.vertices}
            for v in sorted(comp.vertices):
                dist = distances_from(sub.adj, v, graph.n)
                n1 = [u for u in comp.vertices if dist[u] <= 1]
                ring2 = [u for u in comp.vertices if dist[u] == 2]
                cond_a = any(deg[u] >= 3 for u in n1)
                cond_b = all(deg[u] == 2 for u in n1) and all(deg[u] >= 3 for u in ring2)
                if not (cond_a or cond_b):
                    bad.append(Witness(
                        "bad_neighborhood", (v,),
                        f"vertex {v}: no high-degree vertex within distance 1, and "
                        f"distance-2 ring is not all high-degree"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("neighborhood_degree", alpha > 5, False, run_neighborhood)

    def run_avg_lower(check_id):
        bad = []
        for comp in comps:
            if comp.average_degree < Fraction(11, 5):
                bad.append(Witness(
                    "sparse_component", tuple(sorted(comp.vertices)),
                    f"average degree {comp.average_degree} < 11/5"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("avg_degree_lower", alpha > 5, False, run_avg_lower)

    # --- shopping vertices ------------------------------------------------
    def shopping_context():
        root = min(mets.centers)
        spt = shortest_path_tree(graph, root)
        out = []
        for comp in comps:
            th_edges, piece = _tree_restriction(comp, spt)
            shopping = shopping_vertices(profile, comp, root)
            out.append((comp, th_edges, piece, shopping))
        return spt, out

    if alpha > 1 and comps and connected:
        spt, shopping_ctx = shopping_context()
    else:
        spt, shopping_ctx = None, []

    def run_single_nontree(check_id):
        bad = []
        for comp, _, _, shopping in shopping_ctx:
            for m, edges in shopping.edges_by_member:
                if len(edges) != 1:
                    bad.append(Witness(
                        "multi_nontree_buyer", (m, edges),
                        f"vertex {m} buys {len(edges)} non-tree edges {edges}"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad,
                              vacuous=all(not s.members for _, _, _, s in shopping_ctx)))

    component_gated("shopping_single_nontree", alpha > 1, True, run_single_nontree)

    def run_shopping_pairs(lca_check_id, dist_check_id):
        lca_bad, dist_bad = [], []
        threshold = (alpha - 1) / 2
        examined = 0
        for comp, th_edges, piece, shopping in shopping_ctx:
            members = sorted(shopping.members)
            for u1, u2 in combinations(members, 2):
                if piece[u1] != piece[u2]:
                    continue  # no tree path between them: infinitely separated
                examined += 1
                x, d1, d2 = _lca_and_depths(spt, u1, u2)
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
        records.append(_check(lca_check_id, True, passed=not lca_bad,
                              witnesses=lca_bad, vacuous=examined == 0))
        records.append(_check(dist_check_id, True, passed=not dist_bad,
                              witnesses=dist_bad, vacuous=examined == 0))

    if alpha > 2 and comps and connected:
        run_shopping_pairs("shopping_lca_gap", "shopping_pair_distance")
    else:
        for check_id in ("shopping_lca_gap", "shopping_pair_distance"):
            if alpha <= 2:
                records.append(_gate_skip(check_id, "outside this check's alpha range"))
            elif not comps:
                records.append(_check(check_id, applicable=False, vacuous=True,
                                      detail="no biconnected components"))
            else:
                records.append(_gate_skip(check_id, "graph disconnected"))

    def run_avg_upper(check_id):
        bound = 2 + Fraction(2, math.ceil((alpha - 1) / 2))
        bad = []
        for comp in comps:
            if not comp.average_degree < bound:
                bad.append(Witness(
                    "dense_component", tuple(sorted(comp.vertices)),
                    f"average degree {comp.average_degree} >= {bound}"))
        records.append(_check(check_id, True, passed=not bad, witnesses=bad))

    component_gated("avg_degree_upper", alpha > 2, True, run_avg_upper)

    return LemmaReport(records=tuple(records))


def render_report(report: LemmaReport) -> str:
    """Human-readable text block for an audit report, witnesses included."""
    lines = []
    for rec in report.records:
        if not rec.applicable:
            status = "not applicable"
        elif rec.passed:
            status = "pass (vacuous)" if rec.vacuous else "pass"
        else:
            status = "FAIL"
        lines.append(f"{rec.check_id}: {status}"
                     + (f" - {rec.detail}" if rec.detail else ""))
        for w in rec.witnesses:
            lines.append(f"    witness [{w.kind}] {w.summary}")
    return "\n".join(lines) + "\n"


def _k3_endpoint_condition(profile: StrategyProfile, mets, path: TwoDegreePath) -> bool:
    """A 3-interior path read in purchase direction must start at a vertex of
    minimum usage and end elsewhere. If neither reading is consistently
    bought, accept the condition holding under either reading."""
    seq = path.vertices()
    rev = tuple(reversed(seq))
    forward = all(seq[i + 1] in profile.buys[seq[i]] for i in range(len(seq) - 1))
    backward = all(rev[i + 1] in profile.buys[rev[i]] for i in range(len(rev) - 1))
    if forward or backward:
        candidates = ([seq] if forward else []) + ([rev] if backward else [])
    else:
        candidates = [seq, rev]
    rad = mets.radius
    return any(mets.ecc[c[0]] == rad and mets.ecc[c[-1]] != rad for c in candidates)


# ---------------------------------------------------------------------------
# the constructive swap deviation


def lemma_crucial_deviation(config: GameConfig, profile: StrategyProfile,
                            a: int, b: int,
                            spt_at_b: ShortestPathTree | None = None) -> CrucialDeviation:
    """Build the concrete strategy change that swaps one qualifying owned
    edge of ``a`` for the edge (a, b) and drops a's other non-tree edges.

    Qualifying means the owned edge is not a tree edge of the shortest path
    tree rooted at b, or goes to a's parent in it. When no tree is supplied,
    parent choices are searched so that some owned edge qualifies if the
    BFS depths permit it at all. The resulting usage of ``a`` never exceeds
    the usage of ``b`` plus one.
    """
    if a == b:
        raise PreconditionUnmet("the two vertices must differ")
    graph = build_graph(profile)
    if not graph.is_connected():
        raise Disconnected("the deviation construction needs a connected graph")
    if not profile.buys[a]:
        raise PreconditionUnmet(f"vertex {a} buys nothing")

    if spt_at_b is not None:
        if spt_at_b.root != b:
            raise PreconditionUnmet("supplied tree must be rooted at the anchor")
        spt = spt_at_b
    else:
        spt = _spt_preferring_qualifier(graph, b, a, profile.buys[a])

    t_edges = spt.edges()
    qualifying = []
    for u in profile.buys[a]:
        e = (a, u) if a < u else (u, a)
        if e not in t_edges or spt.parent[a] == u:
            qualifying.append(u)
    if not qualifying:
        raise PreconditionUnmet(
            f"no owned edge of {a} is a non-tree edge or goes to its parent")

    a1 = spt.parent[a] if spt.parent[a] in qualifying else qualifying[0]
    kept = []
    extra_removed = 0
    for u in profile.buys[a]:
        if u == a1:
            continue
        e = (a, u) if a < u else (u, a)
        if e in t_edges:
            kept.append(u)
        else:
            extra_removed += 1
    new_strategy = tuple(sorted(set(kept) | {b}))
    deviated = profile.with_strategy(a, new_strategy)
    old = agent_cost(config, profile, a)
    new = agent_cost(config, deviated, a)
    anchor_usage = eccentricity(graph.adj, b, graph.n)
    return CrucialDeviation(
        agent=a, anchor=b, swapped_edge_to=a1,
        old_strategy=profile.buys[a], new_strategy=new_strategy,
        old_cost=old.total, new_cost=new.total,
        usage_before=old.usage, usage_after=new.usage,
        anchor_usage=anchor_usage, extra_removed=extra_removed)


def _spt_preferring_qualifier(graph: OwnedGraph, root: int, a: int,
                              owned) -> ShortestPathTree:
    """Shortest path tree rooted at root whose parent choices make some owned
    edge of ``a`` qualify, when the BFS depths allow a choice."""
    spt = shortest_path_tree(graph, root)
    depth = spt.depth
    parent = list(spt.parent)
    for u in owned:
        if depth[u] == depth[a] - 1:
            parent[a] = u  # a may take u as its parent
            return ShortestPathTree(root=root, parent=tuple(parent), depth=depth)
    for u in owned:
        if depth[u] == depth[a]:
            return spt  # same-level edges are never tree edges
    for u in owned:
        if depth[u] == depth[a] + 1 and parent[u] == a:
            alt = [w for w in graph.neighbors(u) if depth[w] == depth[u] - 1 and w != a]
            if alt:
                parent[u] = min(alt)
                return ShortestPathTree(root=root, parent=tuple(parent), depth=depth)
    return spt
