"""Social optima and the price of anarchy.

The closed-form optimum compares the star, (n-1)*alpha + 2n - 1, with the
complete graph, alpha*n*(n-1)/2 + n; the crossover sits exactly at
alpha = 2/(n-2). The price of anarchy reads the closed form. A brute-force
twin minimizes social cost over every graph, one per isomorphism class, and
is the tests' reference for the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import NotEquilibrium, NotTree
from .game import (GameConfig, StrategyProfile, _check_size, _decode,
                   _mask_to_tuple, agent_cost, all_pairs_distances, bfs,
                   build_graph, metrics, social_cost)
from .equilibrium import (_check_enumeration_size, _orbit, enumerate_equilibria,
                          is_nash)
from .isomorphism import connected_classes, relabelings


class OptimumResult(NamedTuple):
    cost: Fraction
    witness: StrategyProfile
    method: str  # "analytic" | "brute-force"


class PoAReport(NamedTuple):
    alpha: Fraction
    n: int
    worst_equilibrium_cost: Fraction | None
    optimum_cost: Fraction
    poa: Fraction | None  # None when no equilibrium exists
    equilibria_considered: int
    exhaustive: bool


class TreePoaCertificate(NamedTuple):
    """Per-equilibrium evidence for the tree price-of-anarchy bound."""

    diameter: int
    diameter_bound: Fraction
    diameter_ok: bool
    social_cost: Fraction
    optimum_cost: Fraction
    ratio: Fraction
    ratio_ok: bool
    deviation_agent: int
    deviation_target: int
    deviation_old_cost: Fraction
    deviation_new_cost: Fraction
    deviation_nonimproving: bool

    def passed(self) -> bool:
        return self.diameter_ok and self.ratio_ok and self.deviation_nonimproving


def star_profile(n: int) -> StrategyProfile:
    """Star centered at 0; every leaf pays for its own link."""
    return StrategyProfile.from_sets([set()] + [{0} for _ in range(n - 1)])


def clique_profile(n: int) -> StrategyProfile:
    """Complete graph; each edge paid by its smaller endpoint."""
    return StrategyProfile.from_sets(
        [set(range(i + 1, n)) for i in range(n)])


def optimum_analytic(config: GameConfig) -> OptimumResult:
    """Closed-form social optimum: the cheaper of star and complete graph.

    This is the exact optimum for every n. A disconnected graph costs INF.
    A connected graph whose universal vertices number j has at least
    j(n - j) + j(j - 1)/2 edges, and every other vertex has eccentricity at
    least 2, so its social cost is at least
    f(j) = alpha*(j(n - j) + j(j - 1)/2) + 2n - j. f is concave in j, so
    over 1 <= j <= n its minimum sits at j = 1, the star, or at j = n, the
    complete graph, both of which attain f. At j = 0 the graph has at
    least n - 1 edges and costs at least alpha*(n - 1) + 2n, more than
    the star.

    At the boundary alpha = 2/(n-2) both agree and the star is returned.
    n <= 2 is handled directly (empty graph / the single forced edge).
    """
    n, alpha = config.n, config.alpha
    if n == 1:
        return OptimumResult(cost=Fraction(0), witness=StrategyProfile.empty(1),
                             method="analytic")
    if n == 2:
        profile = StrategyProfile.from_sets([set(), {0}])
        return OptimumResult(cost=alpha + 2, witness=profile, method="analytic")
    star_cost = (n - 1) * alpha + 2 * n - 1
    clique_cost = alpha * n * (n - 1) / 2 + n
    if star_cost <= clique_cost:
        return OptimumResult(cost=star_cost, witness=star_profile(n), method="analytic")
    return OptimumResult(cost=clique_cost, witness=clique_profile(n), method="analytic")


def optimum_bruteforce(config: GameConfig) -> OptimumResult:
    """Exact minimum of social cost over every graph on n vertices.

    Who owns an edge never changes the social cost, and neither does a
    relabeling, so minimizing over one graph per isomorphism class of
    connected graphs covers the whole strategy space (a disconnected graph
    costs INF). The witness is the labeled copy of an optimal class with
    the smallest edge bitmask, bit i for the i-th vertex pair in
    lexicographic order; the smaller endpoint pays for each edge. It
    shares enumeration's size guard.
    """
    n = config.n
    _check_enumeration_size(n)
    full = (1 << n) - 1
    best_cost, optimal = None, []
    for adj in connected_classes(n):
        edge_count = sum(m.bit_count() for m in adj) // 2
        cost = config.alpha * edge_count + sum(bfs(adj, 1 << v, full) for v in range(n))
        if best_cost is None or cost < best_cost:
            best_cost, optimal = cost, [adj]
        elif cost == best_cost:
            optimal.append(adj)
    # Bought from both ends (adj as purchase masks), every labeled copy's
    # code reads 3 per edge and 0 elsewhere; the smallest edge bitmask is
    # the least code read backwards, since pair i is bit i.
    perms = relabelings(n)
    code = min((c for adj in optimal for c in _orbit(adj, perms)), key=lambda c: c[::-1])
    buys_masks = _decode(n, code.replace("3", "1"))
    return OptimumResult(cost=best_cost,
                         witness=StrategyProfile(tuple(map(_mask_to_tuple, buys_masks))),
                         method="brute-force")


def price_of_anarchy(config: GameConfig, prices=None) -> PoAReport:
    """Worst equilibrium social cost over the optimum.

    ``prices`` are the ``ProfilePrice`` records of the equilibria to
    consider, as ``EnumerationResult.prices`` holds them. Without them this
    enumerates exhaustively. The optimum is the closed form, which is exact
    (see ``optimum_analytic``). When no equilibrium exists the ratio is
    reported as undefined (None), never as 0 or infinity.
    """
    exhaustive = prices is None
    if exhaustive:
        # Priced once per isomorphism class by the enumeration.
        result = enumerate_equilibria(config)
        worst, considered = result.worst_cost, len(result.codes)
    else:
        worst = max((p.social_cost for p in prices), default=None)
        considered = len(prices)
    opt = optimum_analytic(config)
    if worst is None:
        poa = None
    elif opt.cost == 0:  # n == 1: the empty profile is both optimum and equilibrium
        poa = Fraction(1)
    else:
        poa = worst / opt.cost
    return PoAReport(
        alpha=config.alpha, n=config.n,
        worst_equilibrium_cost=worst,
        optimum_cost=opt.cost,
        poa=poa,
        equilibria_considered=considered,
        exhaustive=exhaustive)


def tree_poa_certificate(config: GameConfig, profile: StrategyProfile) -> TreePoaCertificate:
    """Check the three facts behind the constant tree bound on one equilibrium:
    diameter <= 2*alpha + 3, social cost below three optima, and the
    add-one-edge deviation from a deepest leaf to a center not improving.
    """
    _check_size(config, profile)
    graph = build_graph(profile)
    if not graph.is_tree():
        raise NotTree("certificate applies to tree profiles only")
    if not is_nash(config, profile).is_nash:
        raise NotEquilibrium("certificate applies to verified equilibria only")
    bound = 2 * config.alpha + 3
    if config.n == 1:
        # Single vertex: the empty profile is simultaneously the optimum.
        return TreePoaCertificate(
            diameter=0, diameter_bound=bound, diameter_ok=True,
            social_cost=Fraction(0), optimum_cost=Fraction(0),
            ratio=Fraction(1), ratio_ok=True,
            deviation_agent=0, deviation_target=0,
            deviation_old_cost=Fraction(0), deviation_new_cost=Fraction(0),
            deviation_nonimproving=True)
    rows = all_pairs_distances(graph)
    mets = metrics(rows)
    diameter = mets.diameter
    cost = social_cost(config, profile)
    opt = optimum_analytic(config).cost
    ratio = cost / opt

    center = min(mets.centers)
    dist_from_center = rows[center]
    # In a tree the far end of any longest path sits at exactly radius from
    # the center and realizes the diameter, so this set is never empty.
    candidates = [v for v in range(config.n)
                  if dist_from_center[v] == mets.radius and mets.ecc[v] == diameter]
    u = min(candidates)
    old = agent_cost(config, profile, u)
    deviated = profile.with_strategy(u, set(profile.buys[u]) | {center})
    new = agent_cost(config, deviated, u)
    return TreePoaCertificate(
        diameter=diameter,
        diameter_bound=bound,
        diameter_ok=diameter <= bound,
        social_cost=cost,
        optimum_cost=opt,
        ratio=ratio,
        ratio_ok=ratio < 3,
        deviation_agent=u,
        deviation_target=center,
        deviation_old_cost=old.total,
        deviation_new_cost=new.total,
        deviation_nonimproving=new.total >= old.total)
