"""Exact equilibrium verification, enumeration, dynamics, and search.

Verification is exhaustive: an agent's best response is found by scanning
all 2^(n-1) purchase sets, so results are exact but only feasible at desk
scale (guarded). Cost comparisons are done in integer arithmetic derived
from the exact rational alpha, never floats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .errors import SizeGuard
from .game import (INF, GameConfig, StrategyProfile, agent_cost, bfs,
                   build_graph, eccentricity, social_cost)

BEST_RESPONSE_MAX_N = 20
ENUMERATION_MAX_N = 6


@dataclass(frozen=True)
class DeviationWitness:
    """A strictly improving unilateral strategy change; disproves equilibrium."""

    agent: int
    old_strategy: tuple
    new_strategy: tuple
    old_cost: Fraction | float
    new_cost: Fraction | float


@dataclass(frozen=True)
class EquilibriumReport:
    is_nash: bool
    witness: DeviationWitness | None
    per_agent_best: tuple | None


@dataclass(frozen=True)
class DynamicsStep:
    index: int
    agent: int
    old_cost: Fraction | float
    new_cost: Fraction | float
    new_strategy: tuple


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple
    outcome: str  # "converged" | "cycle" | "budget-exhausted"
    final_profile: StrategyProfile


@dataclass(frozen=True)
class EnumerationResult:
    alpha: Fraction
    n: int
    equilibria: tuple
    tree_count: int
    nontree_count: int
    worst_cost: Fraction | None
    best_cost: Fraction | None
    canonical_forms: tuple


def _derive_seed(seed: int, stream: int = 0) -> int:
    """SplitMix64-style mixer; every stochastic component seeds a fresh
    ``random.Random`` from this, so runs are reproducible and independent
    of how work is split across workers."""
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


def _ecc_deviation(base_adj, v: int, smask: int, n: int):
    """Eccentricity of v when v's purchase set is the bitmask smask.

    Every added link ends at v, which is the BFS source, so the search can
    start from v plus its first ring on the unmodified base adjacency.
    """
    first = base_adj[v] | smask
    if not first:
        return 0 if n == 1 else INF
    return 1 + bfs(base_adj, first | 1 << v, (1 << n) - 1)


def _buys_masks(profile: StrategyProfile) -> list:
    masks = []
    for s in profile.buys:
        m = 0
        for u in s:
            m |= 1 << u
        masks.append(m)
    return masks


def _mask_to_tuple(mask: int) -> tuple:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _scan_best_response(p: int, q: int, base_adj, v: int, n: int,
                        cur_k: int, cur_e, stop_at_first: bool):
    """Scan all purchase sets of v in (size, lexicographic) order.

    alpha = p/q; costs compare as integers, alpha*k + e < alpha*k' + e'
    iff p*k + q*e < p*k' + q*e'. Returns (best_mask, best_k, best_e,
    improved) where best is the overall minimum and, because the scan
    order is (size, lex) ascending with strict replacement, also the
    fewest-purchases-then-lex tie-break winner. ``improved`` says the
    best strictly beats the incumbent (cur_k, cur_e); with stop_at_first
    the scan returns at the first strict improvement. Sizes whose
    creation cost alone rules out a win are pruned (usage >= 1 for any
    reachable vertex set).
    """
    others = [u for u in range(n) if u != v]
    cur_scaled = None if cur_e == INF else p * cur_k + q * cur_e
    best_mask, best_k, best_e, best_scaled = None, 0, INF, None
    for k in range(len(others) + 1):
        bound = cur_scaled if stop_at_first else best_scaled
        if bound is not None and k > 0 and p * k + q >= bound:
            break
        for combo in combinations(others, k):
            smask = 0
            for u in combo:
                smask |= 1 << u
            e = _ecc_deviation(base_adj, v, smask, n)
            if e == INF:
                continue
            scaled = p * k + q * e
            if best_scaled is None or scaled < best_scaled:
                best_mask, best_k, best_e, best_scaled = smask, k, e, scaled
                if stop_at_first and (cur_scaled is None or scaled < cur_scaled):
                    return best_mask, best_k, best_e, True
    improved = best_scaled is not None and (cur_scaled is None or best_scaled < cur_scaled)
    return best_mask, best_k, best_e, improved


def _current_cost_parts(profile: StrategyProfile, adj, v: int):
    return len(profile.buys[v]), eccentricity(adj, v, len(adj))


def best_response_exact(config: GameConfig, profile: StrategyProfile, v: int):
    """Minimum-cost strategy for v with everyone else fixed.

    Ties break toward fewer purchases, then lexicographically smallest
    purchase tuple. Returns (strategy tuple, cost).
    """
    n = config.n
    if n > BEST_RESPONSE_MAX_N:
        raise SizeGuard(f"exhaustive best response needs n <= {BEST_RESPONSE_MAX_N}, got {n}")
    if profile.n != n:
        raise ValueError("profile size does not match config")
    graph = build_graph(profile)
    buys_masks = _buys_masks(profile)
    base = _base_adj(graph.adj, buys_masks, v)
    cur_k, cur_e = _current_cost_parts(profile, graph.adj, v)
    p, q = config.alpha.numerator, config.alpha.denominator
    mask, k, e, _ = _scan_best_response(p, q, base, v, n, cur_k, cur_e, False)
    if mask is None:  # unreachable: buying every link always yields usage <= 1
        return profile.buys[v], config.alpha * cur_k + cur_e
    return _mask_to_tuple(mask), config.alpha * k + e


def is_nash(config: GameConfig, profile: StrategyProfile) -> EquilibriumReport:
    """Exact equilibrium decision; a failing profile gets an optimal-deviation witness."""
    n = config.n
    if n > BEST_RESPONSE_MAX_N:
        raise SizeGuard(f"exhaustive verification needs n <= {BEST_RESPONSE_MAX_N}, got {n}")
    graph = build_graph(profile)
    buys_masks = _buys_masks(profile)
    p, q = config.alpha.numerator, config.alpha.denominator
    per_agent = []
    for v in range(n):
        cur_k, cur_e = _current_cost_parts(profile, graph.adj, v)
        base = _base_adj(graph.adj, buys_masks, v)
        mask, k, e, improved = _scan_best_response(p, q, base, v, n, cur_k, cur_e, False)
        if improved:
            witness = DeviationWitness(
                agent=v,
                old_strategy=profile.buys[v],
                new_strategy=_mask_to_tuple(mask),
                old_cost=(config.alpha * cur_k + cur_e),
                new_cost=config.alpha * k + e,
            )
            return EquilibriumReport(is_nash=False, witness=witness, per_agent_best=None)
        per_agent.append(config.alpha * cur_k + cur_e)
    return EquilibriumReport(is_nash=True, witness=None, per_agent_best=tuple(per_agent))


def verify_witness(config: GameConfig, profile: StrategyProfile,
                   witness: DeviationWitness) -> bool:
    """Recompute both costs from scratch and confirm the strict improvement."""
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
    n = config.n
    graph = build_graph(profile)
    buys_masks = _buys_masks(profile)
    base = _base_adj(graph.adj, buys_masks, v)
    cur_k, cur_e = _current_cost_parts(profile, graph.adj, v)
    p, q = config.alpha.numerator, config.alpha.denominator
    cur_scaled = None if cur_e == INF else p * cur_k + q * cur_e
    cur_mask = buys_masks[v]
    owned = _mask_to_tuple(cur_mask)
    # Adding a link to an already-adjacent vertex only wastes alpha.
    addable = [w for w in range(n)
               if w != v and not (cur_mask >> w) & 1 and not (graph.adj[v] >> w) & 1]

    def check(smask: int, k: int):
        e = _ecc_deviation(base, v, smask, n)
        if e == INF:
            return None
        if cur_scaled is None or p * k + q * e < cur_scaled:
            return DeviationWitness(
                agent=v, old_strategy=profile.buys[v],
                new_strategy=_mask_to_tuple(smask),
                old_cost=config.alpha * cur_k + cur_e,
                new_cost=config.alpha * k + e)
        return None

    for u in owned:
        w_ = check(cur_mask & ~(1 << u), cur_k - 1)
        if w_:
            return w_
    for w in addable:
        w_ = check(cur_mask | (1 << w), cur_k + 1)
        if w_:
            return w_
    for u in owned:
        removed = cur_mask & ~(1 << u)
        for w in addable:
            w_ = check(removed | (1 << w), cur_k)
            if w_:
                return w_
    return None


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
    n = config.n
    if initial.n != n:
        raise ValueError("initial profile size does not match config")
    rng = random.Random(_derive_seed(seed)) if schedule == "uniform-random" else None
    profile = initial
    steps: list[DynamicsStep] = []
    quiet_agents: set[int] = set()
    visited = {(initial.buys, 0)}
    outcome = "budget-exhausted"
    position = 0
    for _ in range(budget):
        agent = rng.randrange(n) if rng is not None else position % n
        position += 1
        best_s, best_c = best_response_exact(config, profile, agent)
        cur = agent_cost(config, profile, agent).total
        if best_c < cur:
            profile = profile.with_strategy(agent, best_s)
            steps.append(DynamicsStep(len(steps), agent, cur, best_c, tuple(best_s)))
            quiet_agents = set()
        else:
            quiet_agents.add(agent)
        if len(quiet_agents) == n:
            outcome = "converged"
            break
        if rng is None:
            state = (profile.buys, position % n)
            if state in visited:
                outcome = "cycle"
                break
            visited.add(state)
    return DynamicsTrace(steps=tuple(steps), outcome=outcome, final_profile=profile)


def isomorphism_canonical_code(profile: StrategyProfile) -> str:
    """Lexicographically minimal ownership code over all vertex relabelings."""
    n = profile.n
    best = None
    for perm in permutations(range(n)):
        relabeled = [set() for _ in range(n)]
        for i, s in enumerate(profile.buys):
            relabeled[perm[i]] = {perm[j] for j in s}
        code = StrategyProfile.from_sets(relabeled).ownership_code()
        if best is None or code < best:
            best = code
    return best if best is not None else ""


def _profile_is_nash_masks(p: int, q: int, n: int, adj, buys_masks) -> bool:
    """Exact Nash decision on mask-level state (hot path for enumeration)."""
    full = (1 << n) - 1
    if bfs(adj, 1, full) == INF:
        return False  # disconnected: buying every link is always better than INF
    for v in range(n):
        base = _base_adj(adj, buys_masks, v)
        cur_k = bin(buys_masks[v]).count("1")
        cur_e = eccentricity(adj, v, n)
        cur_scaled = p * cur_k + q * cur_e
        cur_mask = buys_masks[v]
        missing = full & ~(1 << v) & ~adj[v]
        # Cheap sound filters: whole-set moves and single-link moves.
        e = _ecc_deviation(base, v, 0, n)
        if e != INF and q * e < cur_scaled:
            return False
        if missing:
            smask = cur_mask | missing
            k = bin(smask).count("1")
            e = _ecc_deviation(base, v, smask, n)
            if e != INF and p * k + q * e < cur_scaled:
                return False
        m = cur_mask
        while m:
            low = m & -m
            m ^= low
            e = _ecc_deviation(base, v, cur_mask & ~low, n)
            if e != INF and p * (cur_k - 1) + q * e < cur_scaled:
                return False
        mm = missing
        while mm:
            low = mm & -mm
            mm ^= low
            e = _ecc_deviation(base, v, cur_mask | low, n)
            if e != INF and p * (cur_k + 1) + q * e < cur_scaled:
                return False
        _, _, _, improved = _scan_best_response(p, q, base, v, n, cur_k, cur_e, True)
        if improved:
            return False
    return True


def _decode_ownership(code_int: int, n: int, pairs) -> tuple:
    """Base-3 digits over pairs -> (adjacency masks, purchase masks, digit string)."""
    adj = [0] * n
    buys_masks = [0] * n
    digits = []
    c = code_int
    for u, v in pairs:
        d = c % 3
        c //= 3
        digits.append(str(d))
        if d:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            if d == 1:
                buys_masks[u] |= 1 << v
            else:
                buys_masks[v] |= 1 << u
    return adj, buys_masks, "".join(digits)


def _enumerate_range(args) -> list:
    """Worker: scan [lo, hi) of the single-ownership profile space."""
    n, alpha, lo, hi = args
    pairs = list(combinations(range(n), 2))
    p, q = alpha.numerator, alpha.denominator
    found = []
    for code_int in range(lo, hi):
        adj, buys_masks, digits = _decode_ownership(code_int, n, pairs)
        if _profile_is_nash_masks(p, q, n, adj, buys_masks):
            found.append(digits)
    return found


def enumerate_equilibria(config: GameConfig, workers: int = 1) -> EnumerationResult:
    """All Nash equilibria over single-ownership profiles (exact, exhaustive).

    The generator walks the 3^(n(n-1)/2) states absent / bought-by-u /
    bought-by-v per vertex pair. Doubly-bought edges are excluded: either
    buyer could drop its copy and save alpha > 0 with the graph unchanged,
    so no such profile is ever Nash (checked separately in the test suite).
    Output is sorted by ownership code and identical for any worker count.
    """
    n = config.n
    if n > ENUMERATION_MAX_N:
        raise SizeGuard(f"exhaustive enumeration needs n <= {ENUMERATION_MAX_N}, got {n}")
    pair_count = n * (n - 1) // 2
    total = 3 ** pair_count
    chunks = _split_range(total, workers)
    args = [(n, config.alpha, lo, hi) for lo, hi in chunks]
    if workers > 1 and len(args) > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            parts = pool.map(_enumerate_range, args)
    else:
        parts = [_enumerate_range(a) for a in args]
    codes = sorted(code for part in parts for code in part)
    profiles = tuple(StrategyProfile.from_ownership_code(n, c) for c in codes)
    tree_count = 0
    costs = []
    for prof in profiles:
        graph = build_graph(prof)
        if graph.is_tree():
            tree_count += 1
        costs.append(social_cost(config, prof))
    canon = tuple(sorted({isomorphism_canonical_code(prof) for prof in profiles}))
    return EnumerationResult(
        alpha=config.alpha, n=n, equilibria=profiles,
        tree_count=tree_count, nontree_count=len(profiles) - tree_count,
        worst_cost=max(costs) if costs else None,
        best_cost=min(costs) if costs else None,
        canonical_forms=canon)


def _split_range(total: int, workers: int) -> list:
    workers = max(1, workers)
    step = (total + workers - 1) // workers
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)] or [(0, 0)]


def _random_profile(rng: random.Random, n: int) -> StrategyProfile:
    """Random single-ownership profile with a per-draw edge density."""
    density = rng.uniform(0.15, 0.9)
    buys: list[set] = [set() for _ in range(n)]
    for u, v in combinations(range(n), 2):
        if rng.random() < density:
            if rng.random() < 0.5:
                buys[u].add(v)
            else:
                buys[v].add(u)
    return StrategyProfile.from_sets(buys)


def _search_iteration(args):
    n, alpha, seed, iteration = args
    config = GameConfig(n, alpha)
    rng = random.Random(_derive_seed(seed, iteration))
    profile = _random_profile(rng, n)
    move_cap = 4 * n * n
    for _ in range(move_cap):
        agents = list(range(n))
        rng.shuffle(agents)
        witness = None
        for v in agents:
            witness = improving_move_heuristic(config, profile, v)
            if witness is not None:
                break
        if witness is None:
            break
        profile = profile.with_strategy(witness.agent, witness.new_strategy)
    graph = build_graph(profile)
    if not graph.is_connected() or graph.is_tree():
        return None
    if is_nash(config, profile).is_nash:
        return profile.ownership_code()
    return None


def search_nontree_equilibria(config: GameConfig, seed: int, iterations: int,
                              workers: int = 1) -> tuple:
    """Seeded stochastic probe for equilibria containing a cycle.

    Random restarts descend by single improving moves; candidates whose
    graph has a cycle are then verified exactly (which bounds n by the
    exhaustive-verification guard). An empty result proves nothing.
    Deterministic for a given seed, independent of worker count.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    args = [(config.n, config.alpha, seed, it) for it in range(iterations)]
    if workers > 1 and iterations > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_search_iteration, args, chunksize=max(1, iterations // (4 * workers)))
    else:
        results = [_search_iteration(a) for a in args]
    codes = sorted({code for code in results if code is not None})
    return tuple(StrategyProfile.from_ownership_code(config.n, c) for c in codes)
