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

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import SizeGuard

INF = float("inf")
# Checked before anything of size n is allocated; far above any exact use.
MAX_AGENTS = 4096
# Bits of alpha's numerator and denominator. Scaled costs such as
# p*k + q*e then stay below 2^1024, so adding them to INF saturates
# instead of overflowing the float.
ALPHA_MAX_BITS = 1000


# NamedTuple's _make, which _replace calls, skips __new__; this one goes
# through it, so the checked types below check replaced fields too.
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class _GameConfigFields(NamedTuple):
    n: int
    alpha: Fraction


class GameConfig(_GameConfigFields):
    """Instance parameters: agent count and exact unit edge cost."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, n: int, alpha):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        if n > MAX_AGENTS:
            raise SizeGuard(f"n must be <= {MAX_AGENTS} agents, got {n}")
        # A float is already rounded (0.1 is not 1/10), so only exact types count.
        if isinstance(alpha, (bool, float)):
            raise ValueError(f"alpha must be an exact rational, got {alpha!r}")
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        bits = max(alpha.numerator.bit_length(), alpha.denominator.bit_length())
        if bits > ALPHA_MAX_BITS:
            raise ValueError(f"alpha's numerator and denominator must have at most "
                             f"{ALPHA_MAX_BITS} bits, got {bits}")
        return super().__new__(cls, n, alpha)


class _StrategyProfileFields(NamedTuple):
    buys: tuple[tuple[int, ...], ...]


class StrategyProfile(_StrategyProfileFields):
    """Per-agent purchase sets, stored canonically as sorted tuples.

    ``buys[i]`` lists the agents to which i buys a link. The same
    unordered edge may be bought from both sides; it then appears in
    both purchase sets but only once in the induced graph.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, buys):
        n = len(buys)
        for i, s in enumerate(buys):
            if list(s) != sorted(set(s)):
                raise ValueError(f"purchase set of agent {i} is not canonical: {s}")
            for j in s:
                if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < n:
                    raise ValueError(f"agent {i} buys invalid index {j!r}")
                if j == i:
                    raise ValueError(f"agent {i} buys a self-loop")
        return super().__new__(cls, buys)

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
        _check_agent(self.n, v)
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
        return _encode(_buys_masks(self))

    @classmethod
    def from_ownership_code(cls, n: int, code: str) -> "StrategyProfile":
        if n < 0 or len(code) != n * (n - 1) // 2 or any(c not in "0123" for c in code):
            raise ValueError(f"bad ownership code for n={n}: {code!r}")
        return cls(tuple(_mask_to_tuple(m) for m in _decode(n, code)))


# The one ownership-code codec, on purchase masks (bit u of masks[v]: v buys u).
def _buys_masks(profile: StrategyProfile) -> list:
    return [sum(1 << u for u in s) for s in profile.buys]


def _adj_of(buys_masks) -> list:
    """Neighbour masks of the graph the purchase masks induce."""
    adj = list(buys_masks)
    for u, m in enumerate(buys_masks):
        while m:
            low = m & -m
            adj[low.bit_length() - 1] |= 1 << u
            m ^= low
    return adj


def _check_size(config: GameConfig, profile: StrategyProfile) -> None:
    """The size check of every public function taking a config and a profile."""
    if profile.n != config.n:
        raise ValueError(f"profile has {profile.n} agents but the config has n = {config.n}")


def _check_agent(n: int, v: int) -> None:
    if not 0 <= v < n:
        raise ValueError(f"agent {v} out of range for n = {n}")


def _state(config: GameConfig, profile: StrategyProfile) -> tuple:
    """(purchase masks, neighbour masks) of a profile of the config's size."""
    _check_size(config, profile)
    buys_masks = _buys_masks(profile)
    return buys_masks, _adj_of(buys_masks)


def _mask_to_tuple(mask: int) -> tuple:
    return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)


def _encode(buys_masks) -> str:
    """Ownership code of the purchase masks: per pair u < v, the digit
    1 if u buys v plus 2 if v buys u."""
    return "".join(str((buys_masks[u] >> v & 1) + 2 * (buys_masks[v] >> u & 1))
                   for u, v in combinations(range(len(buys_masks)), 2))


def _digit_table(buys_masks, n: int) -> list:
    """``digit[i][j]``: _encode's digit of (i, j) for every ordered pair, so a
    relabeled profile's code can be read off it pair by pair."""
    return [[str((buys_masks[i] >> j & 1) + 2 * (buys_masks[j] >> i & 1))
             for j in range(n)] for i in range(n)]


def _decode(n: int, code: str) -> list:
    """Purchase masks of a well-formed ownership code; nothing is checked."""
    buys_masks = [0] * n
    for (u, v), c in zip(combinations(range(n), 2), code):
        if c in "13":
            buys_masks[u] |= 1 << v
        if c in "23":
            buys_masks[v] |= 1 << u
    return buys_masks


class OwnedGraph:
    """Simple undirected graph of purchase masks: bit u of ``buys[v]`` is set
    when v paid for (u, v), and a link bought from both sides is one edge.
    ``adj`` has a neighbour mask per vertex, ``edges`` the pairs u < v. A
    mask that is not an int, is negative, or sets bit v or a bit >= n raises
    ValueError."""

    __slots__ = ("n", "buys", "adj", "edges")

    def __init__(self, buys):
        buys = tuple(buys)
        n = len(buys)
        for v, m in enumerate(buys):
            if not isinstance(m, int) or isinstance(m, bool) or m < 0 or m >> n or m >> v & 1:
                raise ValueError(f"bad purchase mask {m!r} of vertex {v} for n = {n}")
        self.n = n
        self.buys = buys
        self.adj = adj = tuple(_adj_of(buys))
        self.edges = frozenset((u, w) for u in range(n)
                               for w in _mask_to_tuple(adj[u]) if u < w)

    def has_edge(self, u: int, v: int) -> bool:
        _check_agent(self.n, u)
        _check_agent(self.n, v)
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        _check_agent(self.n, u)
        return self.adj[u].bit_count()

    def neighbors(self, u: int) -> tuple:
        _check_agent(self.n, u)
        return _mask_to_tuple(self.adj[u])

    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        return bfs(self.adj, 1, (1 << self.n) - 1) != INF

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def __repr__(self):
        return f"OwnedGraph(n={self.n}, edges={sorted(self.edges)})"


class Metrics(NamedTuple):
    """Eccentricities and derived radius / diameter / center set."""

    ecc: tuple
    radius: int | float
    diameter: int | float
    centers: frozenset

    def is_connected(self) -> bool:
        return self.radius != INF


class CostBreakdown(NamedTuple):
    """One agent's cost: alpha * purchases + eccentricity, saturating at INF."""

    creation: Fraction
    usage: int | float
    total: Fraction | float


def bfs(adj, sources: int, target: int, layers: list | None = None, limit=INF):
    """Hops until every vertex of ``target`` is seen from the ``sources`` mask.

    The one frontier-expansion loop of the package: eccentricity,
    distances, balls, connectivity and smallest-parent trees are views
    of it.
    Returns INF if some target vertex is unreachable, and also, after one
    compare per layer, as soon as ``limit`` hops leave part of ``target``
    unseen: for a limit >= 0 the result is exact when at most ``limit``
    and INF otherwise. Best-response scans pass the depth a candidate
    must stay within to beat the best cost so far, so a losing candidate
    stops early. A ``layers`` list receives the frontier masks
    (``layers[d]`` = vertices at distance d); without one nothing is
    allocated, which matters to scans that call this once per candidate
    purchase set.
    """
    seen = frontier = sources
    if layers is not None:
        layers.append(frontier)
    d = 0
    while target & ~seen:
        if d >= limit:
            return INF
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


def ball(adj, sources: int, n: int, radius=INF) -> int:
    """Mask of the vertices within ``radius`` >= 0 hops of the ``sources``
    mask, or of all it reaches at the default: the OR of bfs's layers.
    A multi-source ball is the union of the single-source balls, and in
    an undirected graph u is in w's ball exactly when w is in u's."""
    layers: list = []
    bfs(adj, sources, (1 << n) - 1, layers, radius)
    return sum(layers)  # the layers are disjoint masks


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
    return OwnedGraph(_buys_masks(profile))


def all_pairs_distances(graph: OwnedGraph) -> tuple:
    """Distance rows: ``rows[u][v]`` is the hop distance, INF across
    connected components."""
    return tuple(tuple(distances_from(graph.adj, v, graph.n)) for v in range(graph.n))


def metrics(rows) -> Metrics:
    """Eccentricities, radius, diameter, centers of the distance rows.

    Any INF entry means the graph is disconnected, so every vertex has an
    unreachable partner and all eccentricities are INF.
    """
    ecc = tuple(max(row) for row in rows)
    radius = min(ecc)
    diameter = max(ecc)
    centers = frozenset(v for v, e in enumerate(ecc) if e == radius)
    return Metrics(ecc=ecc, radius=radius, diameter=diameter, centers=centers)


def agent_cost(config: GameConfig, profile: StrategyProfile, v: int) -> CostBreakdown:
    _, adj = _state(config, profile)
    _check_agent(config.n, v)
    creation = config.alpha * len(profile.buys[v])
    usage = eccentricity(adj, v, config.n)
    return CostBreakdown(creation=creation, usage=usage, total=creation + usage)


def social_cost(config: GameConfig, profile: StrategyProfile):
    """Sum of all agent costs: alpha * (total purchases) + sum of eccentricities.

    Counts purchases rather than edges, so a doubly-bought edge is charged
    twice; the two conventions agree whenever no edge is bought from both
    sides (which holds at every equilibrium).
    """
    _, adj = _state(config, profile)
    return config.alpha * profile.purchase_count() + sum(
        eccentricity(adj, v, config.n) for v in range(config.n))
