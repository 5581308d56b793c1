"""Structural analysis of induced graphs and the equilibrium audit.

Provides the objects the equilibrium structure theory is built from:
biconnected components (three or more vertices; bridges are not
components here, so a graph without components is a tree), shortest
path trees with a deterministic tie rule, min cycles, 2-degree paths,
closest-vertex partitions around a component, and shopping vertices.
``audit_equilibrium_structure`` evaluates every structural predicate
expected of an equilibrium and attaches re-verifiable witnesses to any
failure.

Blocks rest on two facts. Two blocks share at most one vertex, so a block
is found as a vertex set, with every graph edge between its vertices.
Each piece of the graph outside a block hangs off one block vertex, so a
BFS tree from any root, restricted to a block, spans it.

The audit reads one graph-wide table of the shortest cycle through each
edge. Bridges come from the blocks, so they need no search; an edge in a
triangle is read off the common-neighbour mask of its ends; every other
edge costs one BFS in the graph without it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, count
from typing import NamedTuple

from .errors import AssignmentAmbiguous, Disconnected, PreconditionUnmet
from .game import (INF, GameConfig, OwnedGraph, StrategyProfile, _check_agent,
                   _check_size, _mask_to_tuple, agent_cost, all_pairs_distances,
                   bfs, build_graph, distances_from, eccentricity, metrics)


class BiconnectedComponent(NamedTuple):
    """Maximal biconnected subgraph with at least three vertices."""

    vertices: frozenset
    edges: frozenset
    average_degree: Fraction

    @property
    def degrees(self) -> Counter:
        """Each vertex's degree in the component; not a field, as edges fix it."""
        return Counter(v for edge in self.edges for v in edge)


class ShortestPathTree(NamedTuple):
    """BFS tree with smallest-index parents; depth equals graph distance."""

    root: int
    parent: tuple  # parent[v], None for the root
    depth: tuple

    def edges(self) -> frozenset:
        return frozenset(
            (v, p) if v < p else (p, v)
            for v, p in enumerate(self.parent) if p is not None)


class MinCycle(NamedTuple):
    """Cycle whose internal distances match the host graph's distances."""

    vertices: tuple  # cyclic order
    length: int
    directed: bool


class TwoDegreePath(NamedTuple):
    """Maximal path whose interior vertices all have degree 2 in the component."""

    start: int
    interior: tuple
    end: int

    @property
    def k(self) -> int:
        return len(self.interior)

    def vertices(self) -> tuple:
        return (self.start, *self.interior, self.end)


class ClosestAssignment(NamedTuple):
    """Every vertex mapped to its unique nearest component vertex."""

    assignment: tuple

    def s_of(self, v: int) -> frozenset:
        return frozenset(w for w, a in enumerate(self.assignment) if a == v)


class ShoppingVertexSet(NamedTuple):
    """Component vertices buying at least one component edge off the tree."""

    members: frozenset
    edges_by_member: tuple  # sorted (member, (edges...)) pairs


class Witness(NamedTuple):
    kind: str
    payload: tuple
    summary: str


class CheckRecord(NamedTuple):
    check_id: str
    applicable: bool
    passed: bool | None  # None when not applicable
    vacuous: bool
    witnesses: tuple
    detail: str


class LemmaReport(NamedTuple):
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


class CrucialDeviation(NamedTuple):
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
    """Maximal biconnected subgraphs with >= 3 vertices; bridges and isolated
    edges are not reported, so forests yield an empty list. An iterative
    lowpoint DFS stacks vertices: a child u of p closes a block when nothing
    below u reaches above p, and the block is p plus the vertices stacked
    since u. Its edges are the graph's edges between those vertices."""
    adj = graph.adj
    disc = [-1] * graph.n
    low = [0] * graph.n
    clock = count()
    out = []
    for root in range(graph.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = next(clock)
        path, todo, stack = [root], [adj[root]], []
        while path:
            u, m = path[-1], todo[-1]
            if m:
                bit = m & -m
                todo[-1] = m ^ bit
                w = bit.bit_length() - 1
                if disc[w] == -1:
                    disc[w] = low[w] = next(clock)
                    path.append(w)
                    todo.append(adj[w])
                    stack.append(w)
                elif disc[w] < low[u]:
                    # w may be u's parent: low[u] = disc[w] still closes a block.
                    low[u] = disc[w]
                continue
            path.pop()
            todo.pop()
            if not path:
                continue
            p = path[-1]
            if low[u] < low[p]:
                low[p] = low[u]
            if low[u] >= disc[p]:
                block = 1 << p
                while not block >> u & 1:
                    block |= 1 << stack.pop()
                if block.bit_count() >= 3:
                    vertices = _mask_to_tuple(block)
                    edges = frozenset((v, w) for i, v in enumerate(vertices)
                                      for w in vertices[i + 1:] if adj[v] >> w & 1)
                    out.append(BiconnectedComponent(
                        vertices=frozenset(vertices), edges=edges,
                        average_degree=Fraction(2 * len(edges), len(vertices))))
    out.sort(key=lambda c: sorted(c.vertices))
    return out


def shortest_path_tree(graph: OwnedGraph, root: int,
                       ) -> ShortestPathTree:
    """BFS tree from root; every vertex takes its smallest-index predecessor
    as parent, so the tree is unique. Raises Disconnected if any vertex is
    out of reach."""
    n = graph.n
    _check_agent(n, root)
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
    common = graph.adj[u] & graph.adj[v]
    if common:
        # Without the edge, layer 1 from u is adj[u] minus v, so v is first
        # seen at layer 2 and its smallest parent is the lowest common
        # neighbour: the BFS below would return this same triangle.
        return [u, _lowest_vertex(common), v]
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
    """A shortest cycle through e = (u, v), read from u to v (None for
    bridges). Such a cycle always has the min-cycle property: a shortcut
    between two of its vertices would close a shorter u-v path in the graph
    minus e. An edge in a triangle takes its lowest common neighbour
    straight from the adjacency masks; any other edge costs one BFS in the
    graph minus e."""
    u, v = e
    if not graph.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge of the graph")
    path = _shortest_path_avoiding_edge(graph, u, v)
    if path is None:
        return None
    vertices = tuple(path)  # closing edge (v, u) wraps around
    heads = vertices[1:] + vertices[:1]
    buys = graph.buys
    # Directed: every edge is bought by its tail, read one way or the other.
    directed = any(all(buys[a] >> b & 1 for a, b in edges)
                   for edges in (zip(vertices, heads), zip(heads, vertices)))
    return MinCycle(vertices=vertices, length=len(vertices), directed=directed)


def girth(graph: OwnedGraph):
    """Length of a shortest cycle; None for forests."""
    cycle = shortest_cycle(graph)
    return None if cycle is None else len(cycle)


def shortest_cycle(graph: OwnedGraph):
    """Vertices of one shortest cycle (deterministic pick), or None: the
    first shortest entry of the min-cycle table over the graph's blocks."""
    return _min_cycles(graph, biconnected_components(graph))[1]


def _min_cycles(graph: OwnedGraph, comps):
    """The shortest cycle through each edge in sorted edge order, and the
    vertices of the first shortest one (None for forests). ``comps`` are
    the graph's biconnected components: an edge in none of them is a
    bridge and maps to None without a search."""
    in_blocks = frozenset().union(*(c.edges for c in comps))
    table = {e: min_cycle_through_edge(graph, e) if e in in_blocks else None
             for e in sorted(graph.edges)}
    return table, min((mc.vertices for mc in table.values() if mc is not None),
                      key=len, default=None)


# ---------------------------------------------------------------------------
# component-local structure


def component_subgraph(graph: OwnedGraph, component: BiconnectedComponent) -> OwnedGraph:
    """The component's edges as a standalone graph on the same vertex ids:
    the block vertices' purchases restricted to the block."""
    block = sum(1 << v for v in component.vertices)
    return OwnedGraph([m & block if block >> v & 1 else 0 for v, m in enumerate(graph.buys)])


def component_is_cycle(component: BiconnectedComponent) -> bool:
    return all(d == 2 for d in component.degrees.values())


def two_degree_paths(component: BiconnectedComponent) -> list:
    """All maximal paths with >= 1 interior vertices of component-degree 2.

    Endpoints have degree != 2 by definition, so a component that is one
    big cycle has no such path; detect that case with component_is_cycle.
    """
    deg = component.degrees
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


def closest_assignment(rows, component: BiconnectedComponent) -> ClosestAssignment:
    """Partition every vertex to its nearest component vertex; ``rows`` are
    the graph's distance rows (``all_pairs_distances``).

    Uniqueness is guaranteed when the component really is biconnected and
    the graph connected (everything outside attaches through exactly one
    component vertex); a tie therefore raises AssignmentAmbiguous.
    """
    hs = sorted(component.vertices)
    # A disconnected graph leaves INF in every row.
    if INF in rows[hs[0]]:
        raise Disconnected("closest assignment needs a connected graph")
    assignment = []
    for w in range(len(rows)):
        best_h, best_d = None, None
        tie = False
        for h in hs:
            d = rows[h][w]
            if best_d is None or d < best_d:
                best_h, best_d, tie = h, d, False
            elif d == best_d:
                tie = True
        if tie:
            raise AssignmentAmbiguous(
                f"vertex {w} is equidistant from several component vertices")
        assignment.append(best_h)
    return ClosestAssignment(assignment=tuple(assignment))


def shopping_vertices(graph: OwnedGraph, component: BiconnectedComponent,
                      spt: ShortestPathTree) -> ShoppingVertexSet:
    """Component vertices that buy component edges missing from the shortest
    path tree, with those edges listed per vertex."""
    buys = graph.buys
    by_member: dict[int, list] = {}
    for u, v in sorted(component.edges - spt.edges()):
        if buys[u] >> v & 1:
            by_member.setdefault(u, []).append((u, v))
        if buys[v] >> u & 1:
            by_member.setdefault(v, []).append((u, v))
    edges_by_member = tuple(sorted(
        (m, tuple(sorted(es))) for m, es in by_member.items()))
    return ShoppingVertexSet(members=frozenset(by_member), edges_by_member=edges_by_member)


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


def audit_equilibrium_structure(config: GameConfig, profile: StrategyProfile) -> LemmaReport:
    """Evaluate every structural predicate an equilibrium must satisfy.

    Runs on any profile and reports raw outcomes: checks whose cost-range
    gate excludes the given alpha (or that need structure the graph does
    not have) are marked not applicable; checks that pass with nothing to
    examine are marked vacuous; failures carry concrete witnesses.
    """
    _check_size(config, profile)
    alpha = config.alpha
    graph = build_graph(profile)
    rows = all_pairs_distances(graph)
    mets = metrics(rows)
    connected = mets.is_connected()
    comps = biconnected_components(graph)
    # A block's cycles and inner shortest paths never leave it, so the
    # component checks read these graph-wide tables.
    cycles, cyc = _min_cycles(graph, comps)
    records: list[CheckRecord] = []

    g = None if cyc is None else len(cyc)
    for check_id, threshold, label in (
            ("girth_alpha_plus_2", alpha + 2, "alpha + 2"),
            ("girth_2alpha_minus_1", 2 * alpha - 1, "2*alpha - 1")):
        if g is None:
            records.append(_check(check_id, True, passed=True, vacuous=True,
                                  detail="no cycles"))
        elif g < threshold:
            records.append(_check(
                check_id, True, passed=False,
                witnesses=[Witness("cycle", cyc,
                                   f"cycle {cyc} has length {g} < {label} = {threshold}")],
                detail=f"girth {g} below {threshold}"))
        else:
            records.append(_check(check_id, True, passed=True,
                                  detail=f"girth {g} >= {threshold}"))

    def component_gated(alpha_ok, needs_connected, runner, *check_ids, detail=""):
        # runner returns one witness list per check id, or None when it found
        # nothing to examine (a vacuous pass).
        if not alpha_ok:
            skip = {"detail": "outside this check's alpha range"}
        elif not comps:
            skip = {"vacuous": True, "detail": "no biconnected components"}
        elif needs_connected and not connected:
            skip = {"detail": "graph disconnected"}
        else:
            found = runner()
            for check_id, bad in zip(check_ids, found or [()] * len(check_ids)):
                records.append(_check(check_id, True, passed=not bad, witnesses=bad,
                                      vacuous=found is None, detail=detail))
            return
        records.extend(_check(check_id, False, **skip) for check_id in check_ids)

    # --- cycle orientation and membership -------------------------------
    def run_min_cycles_directed():
        bad = []
        for comp in comps:
            for e in sorted(comp.edges):
                mc = cycles[e]
                if not mc.directed:
                    bad.append(Witness(
                        "undirected_min_cycle", mc.vertices,
                        f"min cycle {mc.vertices} through {e} is not directed"))
        return [bad]

    component_gated(alpha > 2, False, run_min_cycles_directed, "min_cycles_directed",
                    detail=f"{len(comps)} component(s) scanned")

    def run_members_buy():
        bad = []
        for comp in comps:
            block = sum(1 << v for v in comp.vertices)
            for v in sorted(comp.vertices):
                # An edge between two block vertices is a block edge.
                if not graph.buys[v] & block:
                    bad.append(Witness(
                        "non_buyer", (v, tuple(sorted(comp.vertices))),
                        f"vertex {v} buys no edge of its component"))
        return [bad]

    component_gated(alpha > 2, False, run_members_buy, "component_members_buy")

    # --- eccentricity and attachment bounds ------------------------------
    def run_ecc_gap():
        bad = []
        for comp in comps:
            for v in sorted(comp.vertices):
                if mets.ecc[v] > mets.radius + 2:
                    bad.append(Witness(
                        "far_component_vertex", (v, mets.ecc[v], mets.radius),
                        f"vertex {v} has usage {mets.ecc[v]} > radius + 2 = {mets.radius + 2}"))
        return [bad]

    component_gated(alpha > 2, True, run_ecc_gap, "component_ecc_radius_gap")

    def run_attachment():
        bad = []
        for comp in comps:
            ca = closest_assignment(rows, comp)
            for v in sorted(comp.vertices):
                bound = mets.ecc[v] + 2 - alpha
                for w in sorted(ca.s_of(v)):
                    d = rows[v][w]
                    if d > bound:
                        bad.append(Witness(
                            "distant_attachment", (v, w, d),
                            f"d({v},{w}) = {d} > usage({v}) + 2 - alpha = {bound}"))
        return [bad]

    component_gated(alpha > 2, True, run_attachment, "attachment_distance")

    # --- 2-degree paths ---------------------------------------------------
    def run_two_degree():
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
                    if not _k3_endpoint_condition(graph.buys, mets, path):
                        bad.append(Witness(
                            "k3_endpoints", path.vertices(),
                            f"path {path.vertices()} with k=3 violates the endpoint "
                            f"usage conditions"))
        return [bad] if examined else None

    component_gated(alpha > 5, False, run_two_degree, "two_degree_path_limit")

    def run_neighborhood():
        bad = []
        for comp in comps:
            deg = comp.degrees
            for v in sorted(comp.vertices):
                dist = rows[v]
                n1 = [u for u in comp.vertices if dist[u] <= 1]
                ring2 = [u for u in comp.vertices if dist[u] == 2]
                cond_a = any(deg[u] >= 3 for u in n1)
                cond_b = all(deg[u] == 2 for u in n1) and all(deg[u] >= 3 for u in ring2)
                if not (cond_a or cond_b):
                    bad.append(Witness(
                        "bad_neighborhood", (v,),
                        f"vertex {v}: no high-degree vertex within distance 1, and "
                        f"distance-2 ring is not all high-degree"))
        return [bad]

    component_gated(alpha > 5, False, run_neighborhood, "neighborhood_degree")

    def run_avg_lower():
        bad = []
        for comp in comps:
            if comp.average_degree < Fraction(11, 5):
                bad.append(Witness(
                    "sparse_component", tuple(sorted(comp.vertices)),
                    f"average degree {comp.average_degree} < 11/5"))
        return [bad]

    component_gated(alpha > 5, False, run_avg_lower, "avg_degree_lower")

    # --- shopping vertices ------------------------------------------------
    # Read only by the two runners below, whose gates imply this condition.
    if alpha > 1 and comps and connected:
        # The tree restricted to a block spans it, so a tree path joins any
        # two shopping vertices of one block.
        spt = shortest_path_tree(graph, min(mets.centers))
        shopping_ctx = [shopping_vertices(graph, comp, spt) for comp in comps]

    def run_single_nontree():
        bad = []
        for shopping in shopping_ctx:
            for m, edges in shopping.edges_by_member:
                if len(edges) != 1:
                    bad.append(Witness(
                        "multi_nontree_buyer", (m, edges),
                        f"vertex {m} buys {len(edges)} non-tree edges {edges}"))
        return [bad] if any(s.members for s in shopping_ctx) else None

    component_gated(alpha > 1, True, run_single_nontree, "shopping_single_nontree")

    def run_shopping_pairs():
        lca_bad, dist_bad = [], []
        half = (alpha - 1) / 2
        # Depths are ints, and an int is below half iff below its ceiling.
        below = math.ceil(half)
        threshold = str(half)
        pairs = [uv for s in shopping_ctx for uv in combinations(sorted(s.members), 2)]
        for u1, u2 in pairs:
            x, d1, d2 = _lca_and_depths(spt, u1, u2)
            if max(d1, d2) < below:
                lca_bad.append(Witness(
                    "close_shopping_pair", (u1, u2, x, d1, d2),
                    f"shopping vertices {u1},{u2} are {d1},{d2} from their "
                    f"tree ancestor {x}; max < (alpha-1)/2 = {threshold}"))
            if d1 + d2 < below:
                dist_bad.append(Witness(
                    "close_shopping_pair", (u1, u2, d1 + d2),
                    f"tree distance {d1 + d2} between shopping vertices "
                    f"{u1},{u2} < (alpha-1)/2 = {threshold}"))
        return [lca_bad, dist_bad] if pairs else None

    component_gated(alpha > 2, True, run_shopping_pairs,
                    "shopping_lca_gap", "shopping_pair_distance")

    def run_avg_upper():
        bound = 2 + Fraction(2, math.ceil((alpha - 1) / 2))
        bad = []
        for comp in comps:
            if not comp.average_degree < bound:
                bad.append(Witness(
                    "dense_component", tuple(sorted(comp.vertices)),
                    f"average degree {comp.average_degree} >= {bound}"))
        return [bad]

    component_gated(alpha > 2, True, run_avg_upper, "avg_degree_upper")

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


def _k3_endpoint_condition(buys, mets, path: TwoDegreePath) -> bool:
    """A 3-interior path read in purchase direction must start at a vertex of
    minimum usage and end elsewhere. If neither reading is consistently
    bought by the purchase masks ``buys``, accept either reading."""
    seq = path.vertices()
    rev = tuple(reversed(seq))
    forward = all(buys[a] >> b & 1 for a, b in zip(seq, seq[1:]))
    backward = all(buys[a] >> b & 1 for a, b in zip(rev, rev[1:]))
    if forward or backward:
        candidates = ([seq] if forward else []) + ([rev] if backward else [])
    else:
        candidates = [seq, rev]
    rad = mets.radius
    return any(mets.ecc[c[0]] == rad and mets.ecc[c[-1]] != rad for c in candidates)


# ---------------------------------------------------------------------------
# the constructive swap deviation


def lemma_crucial_deviation(config: GameConfig, profile: StrategyProfile,
                            a: int, b: int) -> CrucialDeviation:
    """Build the concrete strategy change that swaps one qualifying owned
    edge of ``a`` for the edge (a, b) and drops a's other non-tree edges.

    Qualifying means the owned edge is not a tree edge of the shortest path
    tree rooted at b, or goes to a's parent in it. Parent choices in that
    tree are searched so that some owned edge qualifies if the BFS depths
    permit it at all. The resulting usage of ``a`` never exceeds
    the usage of ``b`` plus one.
    """
    _check_size(config, profile)
    _check_agent(config.n, a)
    _check_agent(config.n, b)
    if a == b:
        raise PreconditionUnmet("the two vertices must differ")
    graph = build_graph(profile)
    if not graph.is_connected():
        raise Disconnected("the deviation construction needs a connected graph")
    if not profile.buys[a]:
        raise PreconditionUnmet(f"vertex {a} buys nothing")

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
