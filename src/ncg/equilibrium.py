"""Exact equilibrium verification, enumeration, dynamics, and search.

Every exact per-agent decision reads one primitive, _scan_best_response:
the agent's cheapest purchase set below a bound, found by scanning all
2^(n-1) purchase sets, so results are exact but only feasible at desk
scale (guarded). Each candidate's BFS stops as soon as the candidate can
no longer beat the best cost so far, and a size where only usage 1 can
still win is decided by one OR per set, not a BFS. Costs compare as
integers derived from the exact rational alpha, never floats.

Every per-agent decision starts from one _agent_view, the agent's
current cost and the adjacency without its purchases. Enumeration's
content verdict, one per (vertex, owned set), reads both the single-link
filter and the scan off the same view.

The single-link decider (drop, buy or swap one link) is a cheap filter
for search's descent and enumeration's content check. A buy or swap is
decided by ball cover: the kept links plus u bring every vertex within
the group's hop limit h exactly when u lies within h hops of every
vertex the kept links miss; at h <= 1 the balls come from the masks, not
a BFS. Dynamics and search update only the adjacency rows a move changes,
search runs its restarts one after another in this process and verifies a
candidate costliest agent first.
Each descent sweep's agent order is drawn from the restart RNG's bits,
the permutation random.shuffle gives on Python 3.10-3.13, and the exact
check reads the views of the quiet sweep that ended the descent.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice
from operator import indexOf
from typing import NamedTuple

from .errors import SizeGuard
from .game import (INF, GameConfig, StrategyProfile, _adj_of, _buys_masks,
                   _check_agent, _check_size, _decode, _digit_table, _encode,
                   _mask_to_tuple, _state, agent_cost, ball, bfs, eccentricity)
from .isomorphism import connected_classes, relabelings

BEST_RESPONSE_MAX_N = 20
ENUMERATION_MAX_N = 6


class DeviationWitness(NamedTuple):
    """A strictly improving unilateral strategy change; disproves equilibrium."""

    agent: int
    old_strategy: tuple
    new_strategy: tuple
    old_cost: Fraction | float
    new_cost: Fraction | float


class EquilibriumReport(NamedTuple):
    is_nash: bool
    witness: DeviationWitness | None
    per_agent_best: tuple | None


class DynamicsStep(NamedTuple):
    index: int
    agent: int
    old_cost: Fraction | float
    new_cost: Fraction | float
    new_strategy: tuple


class DynamicsTrace(NamedTuple):
    steps: tuple
    outcome: str  # "converged" | "cycle" | "budget-exhausted"
    final_profile: StrategyProfile


class EnumerationStats(NamedTuple):
    """Work counts of one enumeration; the same on every run."""

    classes: int  # connected graph classes whose representative was oriented
    content_checks: int  # (vertex, owned set) pairs decided by the exact decider
    orientations_tried: int  # edge-ownership assignments made while backtracking
    profiles_expanded: int  # relabeled codes built: n! per profile class


class ProfilePrice(NamedTuple):
    """Graph and cost figures of a profile, shared by its isomorphism class."""

    edges: int
    is_tree: bool
    social_cost: Fraction | float
    max_agent_cost: Fraction | float


class EnumerationResult(NamedTuple):
    alpha: Fraction
    n: int
    codes: tuple  # every labeled equilibrium's ownership code, sorted
    prices: tuple  # prices[i] is the ProfilePrice of codes[i]
    tree_count: int
    nontree_count: int
    worst_cost: Fraction | None
    best_cost: Fraction | None
    canonical_forms: tuple
    stats: EnumerationStats


def _derive_seed(seed: int, stream: int = 0) -> int:
    """SplitMix64-style mixer; every stochastic component seeds a fresh
    ``random.Random`` from this, so runs are reproducible and each search
    restart depends only on the seed and its own index."""
    mask = (1 << 64) - 1
    x = (seed * 0x9E3779B97F4A7C15 + stream * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


def _base_adj(adj, buys_masks, v: int) -> list:
    """Adjacency with v's own purchases stripped; doubly-bought edges survive."""
    base = list(adj)
    bv = 1 << v
    m = buys_masks[v]
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        if not (buys_masks[u] >> v) & 1:
            base[v] &= ~low
            base[u] &= ~bv
    return base


def _usage_limit(p: int, q: int, k: int, bound):
    """Largest usage e with p*k + q*e < ``bound``; INF while the bound is."""
    return INF if bound == INF else (bound - p * k - 1) // q


def _set_purchases(adj, buys_masks, v: int, mask: int) -> None:
    """Give v the purchase mask ``mask``, updating in place only the rows of
    ``adj`` that change: v's and those of the links it drops or buys. A
    dropped link that its other end also bought stays."""
    bv = 1 << v
    changed = buys_masks[v] ^ mask
    buys_masks[v] = mask
    while changed:
        low = changed & -changed
        changed ^= low
        u = low.bit_length() - 1
        if mask & low:
            adj[v] |= low
            adj[u] |= bv
        elif not buys_masks[u] & bv:
            adj[v] &= ~low
            adj[u] &= ~bv


def _scan_best_response(p: int, q: int, base_adj, v: int, n: int, bound):
    """Scan all purchase sets of v in (size, lexicographic) order.

    alpha = p/q; costs compare as integers, alpha*k + e < alpha*k' + e'
    iff p*k + q*e < p*k' + q*e'. Returns (mask, k, e) of the cheapest set
    whose scaled cost p*k + q*e is below ``bound`` (INF for no bound), or
    None if there is none. The scan order is (size, lex) ascending with
    strict replacement, so the minimum is also the fewest-purchases-then-
    lex tie-break winner. Sizes whose creation cost alone rules out a win
    are pruned (usage >= 1 for n >= 2), and each candidate's BFS stops as
    soon as its usage can no longer beat the bound, which tightens with
    every win; a cut BFS returns INF, which never wins, so every returned
    triple is exact. A size whose hop limit is 0 when it starts can win only
    at usage 1, for the first S with ring | S == V: one OR per set, in C.
    The only exhaustive scan; it enforces BEST_RESPONSE_MAX_N, as does
    search_nontree_equilibria. From _agent_view's (cur, base), the bound
    cur + 1 admits v's own set, so the best response always comes back and
    improves on v's set exactly when p*k + q*e < cur; the bound cur gives
    the cheapest strictly improving set, or None at best response.
    """
    if n > BEST_RESPONSE_MAX_N:
        raise SizeGuard(f"exhaustive best response needs n <= {BEST_RESPONSE_MAX_N}, got {n}")
    if n == 1:
        return (0, 0, 0) if bound > 0 else None  # the empty set, at cost 0
    bits = [1 << u for u in range(n) if u != v]
    ring = base_adj[v] | 1 << v
    full = (1 << n) - 1
    best = None
    for k in range(n):
        if p * k + q >= bound:
            break
        # The BFS from v's first ring is one hop short of v's usage.
        limit = _usage_limit(p, q, k, bound) - 1
        if limit == 0:
            # Only usage 1 wins here, and nothing after the first win beats it.
            try:
                at = indexOf(map(ring.__or__, map(sum, combinations(bits, k))), full)
            except ValueError:
                continue
            return sum(next(islice(combinations(bits, k), at, None))), k, 1
        for smask in map(sum, combinations(bits, k)):
            e = 1 + bfs(base_adj, ring | smask, full, None, limit)
            scaled = p * k + q * e  # INF when e is
            if scaled < bound:
                best = smask, k, e
                bound = scaled
                limit = _usage_limit(p, q, k, bound) - 1
    return best


def _cover_winners(base_adj, sources: int, hops: int, n: int, cands: int, balls: dict) -> int:
    """The vertices u of ``cands`` such that ``sources`` plus u reach every
    vertex within ``hops`` >= 0 hops of ``base_adj``.

    A multi-source ball is the union of single-source balls and distance
    is symmetric, so these are the candidates that lie within ``hops`` of
    every vertex the sources alone miss: one ball per missed vertex,
    ascending, until no candidate is left. Balls of radius 0 and 1 are the
    masks themselves and the masks plus their neighbours; larger ones come
    from ``ball``, and ``balls`` caches the single-vertex ones by vertex bit.
    """
    if hops <= 1:
        reach = sources
        m = sources if hops else 0
        while m:
            low = m & -m
            m ^= low
            reach |= base_adj[low.bit_length() - 1]
        missed = ((1 << n) - 1) & ~reach
        while missed and cands:
            low = missed & -missed
            missed ^= low
            cands &= base_adj[low.bit_length() - 1] | low if hops else low
        return cands
    missed = ((1 << n) - 1) & ~ball(base_adj, sources, n, hops)
    while missed and cands:
        low = missed & -missed
        missed ^= low
        around = balls.get(low)
        if around is None:
            around = balls[low] = ball(base_adj, low, n, hops)
        cands &= around
    return cands


def _improving_move(p: int, q: int, n: int, v: int, cur_mask: int, cur_scaled, base):
    """First strictly improving single-link move of v, which owns
    ``cur_mask`` and has _agent_view's (``cur_scaled``, ``base``), as
    (mask, k, e), or None, which does not rule out a multi-link move;
    alpha = p/q as in _scan_best_response. Drops of owned links come first,
    then buys of missing links, then (drop, buy) swaps, in ascending index
    order.

    Each group has a usage limit its moves must stay within to win, and v
    with its first ring, being one hop short of v's usage, is the BFS
    source. A drop costs one bounded BFS. Adds and swaps are decided by
    ball cover instead of one BFS per bought link: the winning links of a
    group are _cover_winners of the kept purchases, and the lowest one is
    priced by one exact BFS. Swaps share their balls across drops.
    """
    full = (1 << n) - 1
    cur_k = cur_mask.bit_count()
    ring = base[v] | 1 << v
    hops = _usage_limit(p, q, cur_k - 1, cur_scaled) - 1
    drops = cur_mask if hops >= 0 else 0
    while drops:
        low = drops & -drops
        drops ^= low
        e = 1 + bfs(base, ring | cur_mask ^ low, full, None, hops)
        if p * (cur_k - 1) + q * e < cur_scaled:
            return cur_mask ^ low, cur_k - 1, e
    # Buying a link to an already-adjacent vertex only wastes alpha.
    missing = full & ~ring & ~cur_mask
    hops = _usage_limit(p, q, cur_k + 1, cur_scaled) - 1
    if missing and hops >= 0:
        won = _cover_winners(base, ring | cur_mask, hops, n, missing, {})
        if won:
            low = won & -won
            return cur_mask | low, cur_k + 1, 1 + bfs(base, ring | cur_mask | low, full)
    hops = _usage_limit(p, q, cur_k, cur_scaled) - 1
    # No swap wins at limit 0: usage 1 after the drop needs the dropped link
    # bought from the other end too, and then its drop has already won.
    if missing and hops >= 1:
        balls: dict = {}
        drops = cur_mask
        while drops:
            drop = drops & -drops
            drops ^= drop
            kept = cur_mask ^ drop
            won = _cover_winners(base, ring | kept, hops, n, missing, balls)
            if won:
                low = won & -won
                return kept | low, cur_k, 1 + bfs(base, ring | kept | low, full)
    return None


def _agent_view(p: int, q: int, n: int, adj, buys_masks, v: int) -> tuple:
    """(cur, base): v's current scaled cost p*k + q*e, INF when v is cut off
    (then every move that reconnects it wins), and _base_adj. Every
    per-agent decision starts from these, built once."""
    cur = p * buys_masks[v].bit_count() + q * bfs(adj, 1 << v, (1 << n) - 1)
    return cur, _base_adj(adj, buys_masks, v)


def _content(p: int, q: int, n: int, adj, buys_masks, v: int) -> bool:
    """True when v has no strictly improving move: no single-link move,
    then no set at all, both read off one _agent_view."""
    cur, base = _agent_view(p, q, n, adj, buys_masks, v)
    return (_improving_move(p, q, n, v, buys_masks[v], cur, base) is None
            and _scan_best_response(p, q, base, v, n, cur) is None)


def best_response_exact(config: GameConfig, profile: StrategyProfile, v: int):
    """Minimum-cost strategy for v with everyone else fixed.

    Ties break toward fewer purchases, then lexicographically smallest
    purchase tuple. Returns (strategy tuple, cost).
    """
    buys_masks, adj = _state(config, profile)
    n = config.n
    _check_agent(n, v)
    p, q = config.alpha.numerator, config.alpha.denominator
    cur, base = _agent_view(p, q, n, adj, buys_masks, v)
    mask, k, e = _scan_best_response(p, q, base, v, n, cur + 1)
    return _mask_to_tuple(mask), config.alpha * k + e


def is_nash(config: GameConfig, profile: StrategyProfile) -> EquilibriumReport:
    """Exact equilibrium decision; a failing profile gets an optimal-deviation witness."""
    buys_masks, adj = _state(config, profile)
    n = config.n
    p, q = config.alpha.numerator, config.alpha.denominator
    best = []
    for v in range(n):
        cur, base = _agent_view(p, q, n, adj, buys_masks, v)
        mask, k, e = _scan_best_response(p, q, base, v, n, cur + 1)
        if p * k + q * e < cur:
            old = config.alpha * len(profile.buys[v]) + eccentricity(adj, v, n)
            witness = DeviationWitness(v, profile.buys[v], _mask_to_tuple(mask),
                                       old, config.alpha * k + e)
            return EquilibriumReport(is_nash=False, witness=witness, per_agent_best=None)
        best.append(config.alpha * k + e)
    return EquilibriumReport(is_nash=True, witness=None, per_agent_best=tuple(best))


def verify_witness(config: GameConfig, profile: StrategyProfile,
                   witness: DeviationWitness) -> bool:
    """Recompute both costs from scratch and confirm the strict improvement."""
    _check_size(config, profile)
    _check_agent(config.n, witness.agent)
    if profile.buys[witness.agent] != tuple(witness.old_strategy):
        return False
    deviated = profile.with_strategy(witness.agent, witness.new_strategy)
    old = agent_cost(config, profile, witness.agent).total
    new = agent_cost(config, deviated, witness.agent).total
    return old == witness.old_cost and new == witness.new_cost and new < old


def improving_move_heuristic(config: GameConfig, profile: StrategyProfile,
                             v: int) -> DeviationWitness | None:
    """First strictly improving single move for v: remove, add, or swap one link.

    A None result does not certify equilibrium; this is a cheap necessary
    filter, and the single-move vocabulary misses multi-link deviations.
    """
    buys_masks, adj = _state(config, profile)
    n = config.n
    _check_agent(n, v)
    p, q = config.alpha.numerator, config.alpha.denominator
    move = _improving_move(p, q, n, v, buys_masks[v],
                           *_agent_view(p, q, n, adj, buys_masks, v))
    if move is None:
        return None
    mask, k, e = move
    return DeviationWitness(
        agent=v, old_strategy=profile.buys[v], new_strategy=_mask_to_tuple(mask),
        old_cost=config.alpha * len(profile.buys[v]) + eccentricity(adj, v, n),
        new_cost=config.alpha * k + e)


def best_response_dynamics(config: GameConfig, initial: StrategyProfile,
                           schedule: str = "round-robin", seed: int = 0,
                           budget: int = 10_000) -> DynamicsTrace:
    """Iterate exact best responses until a fixed point, a repeated state, or budget.

    ``budget`` counts agent activations, moving or not. Round-robin
    schedules detect cycles by exact repeat of (profile, next agent);
    the uniform-random schedule relies on the budget alone. A converged
    outcome means every agent declined to move at the final profile, so
    it is Nash by construction.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if schedule not in ("round-robin", "uniform-random"):
        raise ValueError(f"unknown schedule {schedule!r}")
    buys_masks, adj = _state(config, initial)
    n = config.n
    rng = random.Random(_derive_seed(seed)) if schedule == "uniform-random" else None
    alpha = config.alpha
    p, q = alpha.numerator, alpha.denominator
    steps: list[DynamicsStep] = []
    quiet_agents: set[int] = set()
    visited = {(tuple(buys_masks), 0)}
    outcome = "budget-exhausted"
    position = 0
    for _ in range(budget):
        agent = rng.randrange(n) if rng is not None else position % n
        position += 1
        cur, base = _agent_view(p, q, n, adj, buys_masks, agent)
        move = _scan_best_response(p, q, base, agent, n, cur)
        if move is not None:
            mask, k, e = move
            old = alpha * buys_masks[agent].bit_count() + eccentricity(adj, agent, n)
            _set_purchases(adj, buys_masks, agent, mask)
            steps.append(DynamicsStep(len(steps), agent, old, alpha * k + e,
                                      _mask_to_tuple(mask)))
            quiet_agents = set()
        else:
            quiet_agents.add(agent)
        if len(quiet_agents) == n:
            outcome = "converged"
            break
        if rng is None:
            state = (tuple(buys_masks), position % n)
            if state in visited:
                outcome = "cycle"
                break
            visited.add(state)
    final = StrategyProfile(tuple(_mask_to_tuple(m) for m in buys_masks))
    return DynamicsTrace(steps=tuple(steps), outcome=outcome, final_profile=final)


def _orbit(buys_masks, perms) -> set:
    """Ownership codes of every relabeling in ``perms`` of the profile;
    relabeled by p, the pair (a, b) carries the digit of (p[a], p[b])."""
    flat = [d for row in _digit_table(buys_masks, len(buys_masks)) for d in row]
    return {"".join(map(flat.__getitem__, perm)) for perm in perms}


def isomorphism_canonical_code(profile: StrategyProfile) -> str:
    """Lexicographically minimal ownership code over all vertex relabelings."""
    return min(_orbit(_buys_masks(profile), relabelings(profile.n)))


def _price(alpha: Fraction, n: int, adj, buys_masks) -> ProfilePrice:
    full = (1 << n) - 1
    # The social cost counts purchases, so it is the sum of the agent costs.
    costs = [alpha * m.bit_count() + bfs(adj, 1 << v, full)
             for v, m in enumerate(buys_masks)]
    edges = sum(m.bit_count() for m in adj) // 2
    return ProfilePrice(edges, costs[0] != INF and edges == n - 1, sum(costs), max(costs))


def _nash_orientations(p: int, q: int, n: int, adj, edges, found) -> tuple:
    """Append the ownership code of every Nash orientation of the connected
    graph ``adj`` to ``found``; return (content checks, assignments tried).

    Each edge (u, w) of ``edges``, u < w in pair order, goes to u, then to
    w. A vertex is checked as soon as its last incident edge is assigned,
    and the branch is cut unless its owned set is content: it leaves the
    vertex no strictly improving move. Under single ownership that depends
    on the graph and the owned set alone (_base_adj strips exactly the
    vertex's purchases, whose other ends never own them back), so each
    (vertex, owned set) is decided once per graph, on the partial purchase
    masks at hand.
    """
    owned = [0] * n
    tables = [{} for _ in range(n)]
    last = {}
    for j, (u, w) in enumerate(edges):
        last[u] = last[w] = j
    completes = [[] for _ in edges]
    for v in range(n):
        if v in last:
            completes[last[v]].append(v)
    checks = tried = 0

    def content(v) -> bool:
        nonlocal checks
        table = tables[v]
        verdict = table.get(owned[v])
        if verdict is None:
            checks += 1
            verdict = table[owned[v]] = _content(p, q, n, adj, owned, v)
        return verdict

    def orient(j) -> None:
        nonlocal tried
        if j == len(edges):
            found.append(_encode(owned))
            return
        u, w = edges[j]
        for owner, bit in ((u, 1 << w), (w, 1 << u)):
            tried += 1
            owned[owner] |= bit
            if all(content(v) for v in completes[j]):
                orient(j + 1)
            owned[owner] ^= bit

    # Only n = 1 has a vertex without edges in a connected graph.
    if all(content(v) for v in range(n) if v not in last):
        orient(0)
    return checks, tried


def _class_orbits(n: int, alpha: Fraction, classes) -> tuple:
    """(orbits, stats): every labeled single-ownership equilibrium on n
    vertices, grouped into profile classes in the order of ``classes``
    (connected_classes(n)), each as a (sorted labeled codes, price) pair;
    no size guard.

    A class's labeled members are its representative's images under all n!
    relabelings. Nash-ness is invariant under relabeling, so the labeled
    equilibria are exactly these orbits; an orientation that an earlier
    orbit of the same representative already holds is skipped.
    """
    p, q = alpha.numerator, alpha.denominator
    perms = relabelings(n)
    orbits = []
    checks = tried = 0
    for adj in classes:
        edges = [(u, w) for u, w in combinations(range(n), 2) if adj[u] >> w & 1]
        found = []
        c, t = _nash_orientations(p, q, n, adj, edges, found)
        checks += c
        tried += t
        done = set()
        for code in found:
            if code in done:
                continue
            buys_masks = _decode(n, code)
            orbit = _orbit(buys_masks, perms)
            done |= orbit
            orbits.append((sorted(orbit), _price(alpha, n, adj, buys_masks)))
    return orbits, EnumerationStats(len(classes), checks, tried, len(orbits) * len(perms))


def _check_enumeration_size(n: int) -> None:
    if n > ENUMERATION_MAX_N:
        raise SizeGuard(f"exhaustive enumeration needs n <= {ENUMERATION_MAX_N}, got {n}")


def enumerate_equilibria(config: GameConfig) -> EnumerationResult:
    """All Nash equilibria over single-ownership profiles (exact, exhaustive).

    The generator visits one representative per isomorphism class of
    connected graphs (``ncg.isomorphism``) and backtracks over its edge
    orientations (every edge bought by exactly one endpoint), cutting a
    branch as soon as a vertex whose edges are all assigned could improve.
    Each Nash orientation not yet seen is expanded to its labeled profile
    class by all n! relabelings and priced once for the whole class.
    Disconnected graphs are never Nash (buying every link beats an
    infinite usage cost), and neither are doubly-bought edges: either
    buyer could drop its copy and save alpha > 0 with the graph unchanged
    (checked separately in the test suite). The result carries the
    labeled equilibria as ownership codes, sorted, with ``prices`` parallel
    to them; no profile is built. The work runs in this process.
    """
    n = config.n
    _check_enumeration_size(n)
    orbits, stats = _class_orbits(n, config.alpha, connected_classes(n))
    labeled = sorted((code, price) for codes, price in orbits for code in codes)
    costs = [price.social_cost for _, price in orbits]
    tree_count = sum(len(codes) for codes, price in orbits if price.is_tree)
    return EnumerationResult(
        alpha=config.alpha, n=n,
        codes=tuple(code for code, _ in labeled),
        prices=tuple(price for _, price in labeled),
        tree_count=tree_count, nontree_count=len(labeled) - tree_count,
        worst_cost=max(costs) if costs else None,
        best_cost=min(costs) if costs else None,
        canonical_forms=tuple(sorted(codes[0] for codes, _ in orbits)), stats=stats)


def _random_buys_masks(rng: random.Random, n: int) -> list:
    """Purchase masks of a random single-ownership profile with a per-draw
    edge density."""
    density = rng.uniform(0.15, 0.9)
    buys_masks = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            if rng.random() < 0.5:
                buys_masks[u] |= 1 << v
            else:
                buys_masks[v] |= 1 << u
    return buys_masks


def _sweep_orders(rng: random.Random, n: int):
    """Endless agent orders, one per descent sweep. Each is the permutation
    ``rng.shuffle(list(range(n)))`` gives on Python 3.10-3.13, drawn
    straight from ``rng.getrandbits`` with shuffle's Fisher-Yates draws: for
    i = n - 1 down to 1, (i + 1).bit_length() bits, redrawn while above i."""
    getrandbits = rng.getrandbits
    draws = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    identity = list(range(n))
    while True:
        order = identity[:]
        for i, width in draws:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            order[i], order[j] = order[j], order[i]
        yield order


def _search_iteration(n: int, alpha: Fraction, seed: int, iteration: int) -> tuple:
    """Restart ``iteration`` as (find, descent moves, exact scans): single
    improving moves on mask state in sweeps drawn by _sweep_orders, then
    exact verification, costliest agent first, which changes no verdict. The
    exact check reads the views of the quiet sweep that ended the descent;
    only a descent the sweep cap stops builds fresh ones. A find is a
    non-tree equilibrium as (code, price), else None; a restart reached
    the exact check exactly when its scan count is non-zero."""
    rng = random.Random(_derive_seed(seed, iteration))
    buys_masks = _random_buys_masks(rng, n)
    adj = _adj_of(buys_masks)
    p, q = alpha.numerator, alpha.denominator
    full = (1 << n) - 1
    moves = 0
    views = [None] * n
    for agents in islice(_sweep_orders(rng, n), 4 * n * n):
        for v in agents:
            # _agent_view inlined: this is the hottest loop of search.
            mask = buys_masks[v]
            cur = p * mask.bit_count() + q * bfs(adj, 1 << v, full)
            base = _base_adj(adj, buys_masks, v)
            move = _improving_move(p, q, n, v, mask, cur, base)
            if move is not None:
                _set_purchases(adj, buys_masks, v, move[0])
                moves += 1
                break
            views[v] = cur, base
        else:
            break
    else:
        # The cap ended a sweep that moved, so some views are stale.
        views = [_agent_view(p, q, n, adj, buys_masks, v) for v in range(n)]
    edges = sum(m.bit_count() for m in adj) // 2
    # A disconnected profile is never Nash: buying every link beats INF.
    if edges == n - 1 or any(cur == INF for cur, _ in views):
        return None, moves, 0
    # No single-link move is left, so the scan decides, costliest agent
    # first: it is the likeliest to deviate.
    scans = 0
    for v in sorted(range(n), key=lambda v: views[v][0], reverse=True):
        scans += 1
        cur, base = views[v]
        if _scan_best_response(p, q, base, v, n, cur) is not None:
            return None, moves, scans
    return (_encode(buys_masks), _price(alpha, n, adj, buys_masks)), moves, scans


def search_nontree_equilibria(config: GameConfig, seed: int, iterations: int,
                              stats: dict | None = None) -> tuple:
    """Seeded stochastic probe for equilibria containing a cycle.

    Random restarts descend by single improving moves; candidates whose
    graph has a cycle are then verified exactly (which bounds n by the
    exhaustive-verification guard). Returns the distinct finds as
    (ownership code, ProfilePrice) pairs sorted by code; an empty result
    proves nothing. Deterministic for a given seed. The restarts run one
    after another in this process, each folded in as it ends, so memory
    does not grow with ``iterations``.

    A ``stats`` dict receives the run's work counts: ``restarts`` (always
    ``iterations``), ``descent_moves`` (single-link moves made),
    ``candidates`` (connected non-tree profiles the descent ended on) and
    ``exact_scans`` (best-response scans run on them).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if config.n > BEST_RESPONSE_MAX_N:
        raise SizeGuard(f"search needs n <= {BEST_RESPONSE_MAX_N}, got {config.n}")
    finds = {}
    moves = candidates = scans = 0
    for it in range(iterations):
        find, restart_moves, restart_scans = _search_iteration(config.n, config.alpha, seed, it)
        moves += restart_moves
        candidates += restart_scans > 0
        scans += restart_scans
        if find is not None:
            finds[find[0]] = find[1]
    if stats is not None:
        stats.update(restarts=iterations, descent_moves=moves, candidates=candidates,
                     exact_scans=scans)
    return tuple(sorted(finds.items()))
