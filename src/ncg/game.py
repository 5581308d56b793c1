"""Core model of the max-distance network creation game.

Agents 0..n-1 each buy a set of undirected links at unit cost alpha.  A
strategy profile induces a simple graph; an agent's cost is alpha times the
number of links it buys plus the maximum hop distance to any other agent.
Disconnection makes the usage cost infinite.

Alpha is an exact rational (``fractions.Fraction``) so that comparisons
against thresholds like alpha + 2 never suffer float rounding. ``INF`` is
``float("inf")``: adding any Fraction to it saturates and it compares
greater than every finite rational, which is exactly the arithmetic the
cost model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

INF = float("inf")


@dataclass(frozen=True)
class GameConfig:
    """Instance parameters: agent count and exact unit edge cost."""

    n: int
    alpha: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        # A float is already rounded (0.1 is not 1/10), so only exact types count.
        if isinstance(self.alpha, (bool, float)):
            raise ValueError(f"alpha must be an exact rational, got {self.alpha!r}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class StrategyProfile:
    """Per-agent purchase sets, stored canonically as sorted tuples.

    ``buys[i]`` lists the agents to which i buys a link. The same
    unordered edge may be bought from both sides; it then appears in
    both purchase sets but only once in the induced graph.
    """

    buys: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.buys)
        for i, s in enumerate(self.buys):
            if list(s) != sorted(set(s)):
                raise ValueError(f"purchase set of agent {i} is not canonical: {s}")
            for j in s:
                if not 0 <= j < n:
                    raise ValueError(f"agent {i} buys invalid index {j}")
                if j == i:
                    raise ValueError(f"agent {i} buys a self-loop")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "StrategyProfile":
        return cls(tuple(tuple(sorted(set(s))) for s in sets))

    @classmethod
    def empty(cls, n: int) -> "StrategyProfile":
        return cls(((),) * n)

    @property
    def n(self) -> int:
        return len(self.buys)

    def with_strategy(self, v: int, strategy: Iterable[int]) -> "StrategyProfile":
        new = list(self.buys)
        new[v] = tuple(sorted(set(strategy)))
        return StrategyProfile(tuple(new))

    def purchase_count(self) -> int:
        return sum(len(s) for s in self.buys)

    def ownership_code(self) -> str:
        """Digit string over vertex pairs in lexicographic order.

        Per pair (u, v) with u < v: 0 = no edge, 1 = u buys, 2 = v buys,
        3 = both buy. Uniquely identifies the profile and is safe to
        round-trip through reports.
        """
        digits = []
        for u, v in combinations(range(self.n), 2):
            d = (1 if v in self.buys[u] else 0) + (2 if u in self.buys[v] else 0)
            digits.append(str(d))
        return "".join(digits)

    @classmethod
    def from_ownership_code(cls, n: int, code: str) -> "StrategyProfile":
        pairs = list(combinations(range(n), 2))
        if len(code) != len(pairs) or any(c not in "0123" for c in code):
            raise ValueError(f"bad ownership code for n={n}: {code!r}")
        buys: list[list[int]] = [[] for _ in range(n)]
        for (u, v), c in zip(pairs, code):
            if c in "13":
                buys[u].append(v)
            if c in "23":
                buys[v].append(u)
        return cls.from_sets(buys)


class OwnedGraph:
    """Simple undirected graph induced by a profile, plus per-edge buyer labels.

    Edges are pairs (u, v) with u < v; ``owners[e]`` is the nonempty set of
    endpoints that paid for e. ``adj`` holds one neighbor bitmask per vertex.
    """

    __slots__ = ("n", "edges", "owners", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 owners: Mapping[tuple[int, int], frozenset[int]]):
        self.n = n
        self.edges = frozenset(edges)
        self.owners = dict(owners)
        adj = [0] * n
        for u, v in self.edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        return bin(self.adj[u]).count("1")

    def neighbors(self, u: int):
        m = self.adj[u]
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return bfs(self.adj, 1, (1 << self.n) - 1) != INF

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def __repr__(self):
        return f"OwnedGraph(n={self.n}, edges={sorted(self.edges)})"


@dataclass(frozen=True)
class DistanceTable:
    """All-pairs hop distances; INF across connected components."""

    rows: tuple[tuple, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def dist(self, u: int, v: int):
        return self.rows[u][v]


@dataclass(frozen=True)
class Metrics:
    """Eccentricities and derived radius / diameter / center set."""

    ecc: tuple
    radius: int | float
    diameter: int | float
    centers: frozenset

    def is_connected(self) -> bool:
        return self.radius != INF


@dataclass(frozen=True)
class CostBreakdown:
    """One agent's cost: alpha * purchases + eccentricity, saturating at INF."""

    creation: Fraction
    usage: int | float
    total: Fraction | float


def bfs(adj, sources: int, target: int, layers: list | None = None):
    """Hops until every vertex of ``target`` is seen from the ``sources`` mask.

    The one frontier-expansion loop of the package: eccentricity,
    distances, connectivity and smallest-parent trees are views of it.
    Returns INF if some target vertex is unreachable. A ``layers`` list
    receives the frontier masks (``layers[d]`` = vertices at distance d);
    without one nothing is allocated, which matters to best-response
    scans that call this once per candidate purchase set.
    """
    seen = frontier = sources
    if layers is not None:
        layers.append(frontier)
    d = 0
    while target & ~seen:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        if not frontier:
            return INF
        seen |= frontier
        d += 1
        if layers is not None:
            layers.append(frontier)
    return d


def eccentricity(adj, source: int, n: int):
    """Max BFS distance from source; INF if any vertex is unreachable."""
    return bfs(adj, 1 << source, (1 << n) - 1)


def distances_from(adj, source: int, n: int) -> list:
    """BFS distances from one source; INF where unreachable."""
    dist = [INF] * n
    layers: list = []
    bfs(adj, 1 << source, (1 << n) - 1, layers)
    for d, m in enumerate(layers):
        while m:
            low = m & -m
            dist[low.bit_length() - 1] = d
            m ^= low
    return dist


def build_graph(profile: StrategyProfile) -> OwnedGraph:
    """Induce the simple graph of a profile; a doubly-bought edge appears once."""
    owners: dict[tuple[int, int], set[int]] = {}
    for i, s in enumerate(profile.buys):
        for j in s:
            e = (i, j) if i < j else (j, i)
            owners.setdefault(e, set()).add(i)
    return OwnedGraph(profile.n, owners.keys(),
                      {e: frozenset(o) for e, o in owners.items()})


def all_pairs_distances(graph: OwnedGraph) -> DistanceTable:
    return DistanceTable(tuple(
        tuple(distances_from(graph.adj, v, graph.n)) for v in range(graph.n)))


def metrics(table: DistanceTable) -> Metrics:
    """Eccentricities, radius, diameter, centers.

    Any INF entry means the graph is disconnected, so every vertex has an
    unreachable partner and all eccentricities are INF.
    """
    ecc = tuple(max(row) for row in table.rows)
    radius = min(ecc)
    diameter = max(ecc)
    centers = frozenset(v for v, e in enumerate(ecc) if e == radius)
    return Metrics(ecc=ecc, radius=radius, diameter=diameter, centers=centers)


def agent_cost(config: GameConfig, profile: StrategyProfile, v: int) -> CostBreakdown:
    if not 0 <= v < config.n:
        raise ValueError(f"agent {v} out of range")
    graph = build_graph(profile)
    creation = config.alpha * len(profile.buys[v])
    usage = eccentricity(graph.adj, v, graph.n)
    return CostBreakdown(creation=creation, usage=usage, total=creation + usage)


def social_cost(config: GameConfig, profile: StrategyProfile):
    """Sum of all agent costs: alpha * (total purchases) + sum of eccentricities.

    Counts purchases rather than edges, so a doubly-bought edge is charged
    twice; the two conventions agree whenever no edge is bought from both
    sides (which holds at every equilibrium).
    """
    graph = build_graph(profile)
    usage_total = 0
    for v in range(graph.n):
        e = eccentricity(graph.adj, v, graph.n)
        if e == INF:
            return INF
        usage_total += e
    return config.alpha * profile.purchase_count() + usage_total
