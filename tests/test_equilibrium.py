import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (ALPHAS, alphas, directed_cycle_profile, profiles_of,
                      random_profile, strategy_profiles)
from ncg import equilibrium
from ncg.errors import SizeGuard
from ncg.game import (INF, GameConfig, StrategyProfile, _adj_of, _buys_masks,
                      _mask_to_tuple, bfs, build_graph, social_cost)
from ncg.equilibrium import (DynamicsStep, DynamicsTrace, EnumerationStats,
                             ProfilePrice, _agent_view, _class_orbits, _content,
                             _derive_seed, _improving_move,
                             _nash_orientations, _scan_best_response,
                             best_response_dynamics, best_response_exact,
                             enumerate_equilibria, improving_move_heuristic,
                             is_nash, isomorphism_canonical_code,
                             search_nontree_equilibria, verify_witness)
from ncg.isomorphism import connected_classes
from ncg.optimum import star_profile


def _path(n):
    """The n-path 0-1-...-(n-1), every link bought by its lower end."""
    return StrategyProfile.from_sets([{i + 1} for i in range(n - 1)] + [set()])


# Agent 0 owns the first link of an 8-path.
_PATH_8 = _path(8)
# Agent 0 owns no link and no one links to it, so its current cost is INF.
_CUT_OFF_7 = StrategyProfile.from_sets([set(), {2}, {3}, {4}, {5}, {6}, {1}])


class TestBestResponse:
    def test_isolated_agent_connects(self):
        # Others hold only the edge 1-2; the tie between {1} and {2} breaks
        # lexicographically.
        cfg = GameConfig(3, Fraction(5))
        profile = StrategyProfile.from_sets([set(), {2}, set()])
        assert best_response_exact(cfg, profile, 0) == ((1,), 7)

    def test_star_center_keeps_empty_strategy(self):
        cfg = GameConfig(3, Fraction(5))
        profile = StrategyProfile.from_sets([{1}, set(), {1}])
        assert best_response_exact(cfg, profile, 1) == ((), 1)

    def test_triangle_agent_drops_its_edge(self):
        cfg = GameConfig(3, Fraction(5))
        profile = directed_cycle_profile(3)
        assert best_response_exact(cfg, profile, 0) == ((), 2)

    def test_single_agent(self):
        # The empty set is v's only strategy: cost 0, so it beats any
        # positive bound and nothing beats bound 0.
        assert _scan_best_response(1, 1, [0], 0, 1, 0) is None
        assert _scan_best_response(1, 1, [0], 0, 1, INF) == (0, 0, 0)
        cfg = GameConfig(1, Fraction(5))
        assert is_nash(cfg, StrategyProfile.empty(1)).is_nash
        assert best_response_exact(cfg, StrategyProfile.empty(1), 0) == ((), 0)

    def test_size_guard(self):
        cfg = GameConfig(21, Fraction(5))
        with pytest.raises(SizeGuard):
            best_response_exact(cfg, StrategyProfile.empty(21), 0)

    @pytest.mark.parametrize("decide", [is_nash, best_response_dynamics])
    def test_size_guard_in_every_exact_loop(self, decide):
        # The guard lives in the one scan, which each loop reaches at agent 0.
        path = StrategyProfile.from_sets([{i + 1} for i in range(20)] + [set()])
        with pytest.raises(SizeGuard):
            decide(GameConfig(21, Fraction(5)), path)

    @pytest.mark.parametrize("v", [3, 7, -1])
    def test_agent_out_of_range(self, v):
        cfg = GameConfig(3, Fraction(5))
        with pytest.raises(ValueError, match="out of range"):
            best_response_exact(cfg, directed_cycle_profile(3), v)

    @given(strategy_profiles(max_n=5), alphas)
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_minimum(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            _, cost = best_response_exact(cfg, profile, v)
            assert cost == oracles.best_cost(profile.n, alpha, profile.buys, v)

    @given(strategy_profiles(max_n=5), alphas)
    @settings(max_examples=40, deadline=None)
    def test_tie_break_fewest_then_lex(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            strategy, cost = best_response_exact(cfg, profile, v)
            others = [u for u in range(profile.n) if u != v]
            ties = []
            for subset in oracles.powerset(others):
                trial = list(profile.buys)
                trial[v] = set(subset)
                if oracles.agent_cost(profile.n, alpha, trial, v) == cost:
                    ties.append(tuple(sorted(subset)))
            best_tie = min(ties, key=lambda s: (len(s), s))
            assert strategy == best_tie

    @given(strategy_profiles(min_n=6, max_n=8), alphas)
    @example(_PATH_8, Fraction(1, 4))
    @example(_PATH_8, Fraction(19, 2))
    @example(directed_cycle_profile(8), Fraction(1, 4))
    @example(directed_cycle_profile(8), Fraction(19, 2))
    @example(directed_cycle_profile(9), Fraction(1, 4))
    @example(directed_cycle_profile(9), Fraction(19, 2))
    @example(_CUT_OFF_7, Fraction(2))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle_strategy_deep(self, profile, alpha):
        """At n = 6..9 BFS runs have enough layers for the cost bound to
        cut them; strategy and cost still equal the oracle's (size, lex)
        first minimum."""
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            strategy, cost = best_response_exact(cfg, profile, v)
            assert (strategy, cost) == oracles.best_response(
                profile.n, alpha, profile.buys, v)


class TestIsNash:
    def test_leaves_pay_star(self):
        cfg = GameConfig(3, Fraction(5))
        report = is_nash(cfg, StrategyProfile.from_sets([{1}, set(), {1}]))
        assert report.is_nash and report.witness is None
        assert report.per_agent_best == (7, 1, 7)

    def test_directed_triangle_rejected_with_removal(self):
        cfg = GameConfig(3, Fraction(5))
        report = is_nash(cfg, directed_cycle_profile(3))
        assert not report.is_nash
        w = report.witness
        assert set(w.new_strategy) < set(w.old_strategy)
        assert verify_witness(cfg, directed_cycle_profile(3), w)

    @given(strategy_profiles(min_n=2, max_n=6), alphas)
    @settings(max_examples=40, deadline=None)
    def test_double_purchase_never_nash(self, profile, alpha):
        buys = [set(s) for s in profile.buys]
        buys[0].add(1)
        buys[1].add(0)
        doubled = StrategyProfile.from_sets(buys)
        assert not is_nash(GameConfig(profile.n, alpha), doubled).is_nash

    def test_report_invariant_witness_iff_not_nash(self):
        cfg = GameConfig(4, Fraction(2))
        rng = random.Random(11)
        for _ in range(50):
            profile = random_profile(rng, 4, allow_double=True)
            report = is_nash(cfg, profile)
            assert report.is_nash == (report.witness is None)
            if report.witness is not None:
                assert verify_witness(cfg, profile, report.witness)

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2), Fraction(5)])
    def test_agrees_with_oracle_n3_exhaustive(self, alpha):
        cfg = GameConfig(3, alpha)
        for code in itertools.product("012", repeat=3):
            profile = StrategyProfile.from_ownership_code(3, "".join(code))
            assert is_nash(cfg, profile).is_nash == oracles.is_nash(
                3, alpha, profile.buys)


class TestImprovingMoveHeuristic:
    def test_triangle_removal_found(self):
        cfg = GameConfig(3, Fraction(5))
        w = improving_move_heuristic(cfg, directed_cycle_profile(3), 0)
        assert w is not None and w.new_cost < w.old_cost
        assert verify_witness(cfg, directed_cycle_profile(3), w)

    def test_star_has_no_single_move(self):
        cfg = GameConfig(3, Fraction(5))
        star = StrategyProfile.from_sets([{1}, set(), {1}])
        assert all(improving_move_heuristic(cfg, star, v) is None for v in range(3))

    def test_path_end_adds_shortcut(self):
        # 0 pays 1/4 for an extra link and cuts its usage from 3 to 2.
        cfg = GameConfig(4, Fraction(1, 4))
        path = StrategyProfile.from_sets([{1}, {2}, {3}, set()])
        w = improving_move_heuristic(cfg, path, 0)
        assert w is not None
        assert w.old_cost == Fraction(13, 4) and w.new_cost == Fraction(5, 2)
        # the specific add-a-link-to-the-far-end deviation is improving too
        far = path.with_strategy(0, {1, 3})
        assert oracles.agent_cost(4, Fraction(1, 4), far.buys, 0) == Fraction(5, 2)

    @pytest.mark.parametrize("v", [3, -1])
    def test_agent_out_of_range(self, v):
        with pytest.raises(ValueError, match=f"agent {v} out of range for n = 3"):
            improving_move_heuristic(GameConfig(3, Fraction(5)), directed_cycle_profile(3), v)

    @given(strategy_profiles(min_n=2, max_n=5), alphas)
    @settings(max_examples=60, deadline=None)
    def test_sound_for_is_nash(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            w = improving_move_heuristic(cfg, profile, v)
            if w is not None:
                assert verify_witness(cfg, profile, w)
                assert not is_nash(cfg, profile).is_nash


# Single-link groups at hop limit 0 or 1 cover from the masks, larger
# limits from balls. A swap never wins at limit 0: usage 1 after dropping
# a link needs the other end to have bought it too, and then the drop of
# that copy wins first.
# Agent 0 owns nothing and reaches all but 5 through 1; at alpha = 1/2
# buying 5 wins at hop limit 0.
_BUY_AT_0 = StrategyProfile.from_sets([set(), {0, 5}, {0}, {0}, {0}, set()])
# The path 0-1-2-3-4 with 5 hung on 3: at alpha = 1 agent 0 wins at hop
# limit 1 by buying 3, itself a vertex its ring misses.
_BUY_AT_1 = StrategyProfile.from_sets([set(), {0}, {1}, {2}, {3}, {3}])
# Leaves that buy their link to the centre 1: at alpha = 1 each leaf's
# buy limit is -1 and its swap limit 0, so neither group runs.
_STAR_LEAVES_BUY = StrategyProfile.from_sets([{1}, set(), {1}, {1}, {1}, {1}])
# Agent 5 owns {3, 4}. At alpha = 1 no drop or add wins, nor a swap that
# drops 3; the swap of 4 for 1 wins at hop limit 1.
_SWAP_AT_1 = StrategyProfile.from_sets([{1}, {4}, {5}, set(), set(), {3, 4}])
# Legs 0-1-2, 0-3-4 and 0-5-6, each link bought away from 0: at alpha = 1
# agents 1, 3 and 5 are quiet with their swap group at hop limit 1, and
# 2, 4 and 6 win a swap at hop limit 2.
_SPIDER_7 = StrategyProfile.from_sets([set(), {0}, {1}, {0}, {3}, {0}, {5}])
# The path 0-1-4-5-3-2 with 6 hung on 4; agent 3 owns {2, 5}. At alpha = 1
# the swap of 5 for 1 wins at hop limit 2 on a cover that reuses vertex
# 0's ball, cached while the swap that drops 2 was decided.
_SWAP_FROM_CACHE = StrategyProfile.from_sets([{1}, set(), set(), {2, 5}, {1}, {4}, {4}])


@st.composite
def _cut_profiles(draw, min_n, max_n):
    """strategy_profiles, doubly-bought links included, with one agent cut
    off from everyone half of the time."""
    profile = draw(strategy_profiles(min_n=min_n, max_n=max_n))
    if not draw(st.booleans()):
        return profile
    c = draw(st.integers(0, profile.n - 1))
    return StrategyProfile.from_sets(set() if u == c else set(s) - {c}
                                     for u, s in enumerate(profile.buys))


def _single_link_moves(n, buys, v):
    """Drop each owned link, buy each missing link, then each (drop, buy)
    swap, all in ascending index order, as new purchase sets of v."""
    adj = oracles.adjacency(n, buys)
    owned = sorted(buys[v])
    missing = [w for w in range(n) if w != v and w not in adj[v]]
    yield from (set(buys[v]) - {u} for u in owned)
    yield from (set(buys[v]) | {w} for w in missing)
    yield from ((set(buys[v]) - {u}) | {w} for u in owned for w in missing)


class TestBestResponsePrimitive:
    """_scan_best_response at bound cur + 1, the best response, against the oracle."""

    @given(_cut_profiles(min_n=1, max_n=9),
           st.fractions(min_value=Fraction(1, 8), max_value=30, max_denominator=12))
    @example(StrategyProfile.empty(1), Fraction(1, 8))
    @example(StrategyProfile.empty(1), Fraction(30))
    @example(_CUT_OFF_7, Fraction(2))   # agent 0 is cut off: cur is INF
    @example(_CUT_OFF_7, Fraction(19, 2))
    @example(directed_cycle_profile(9), Fraction(1, 4))
    # Sizes whose hop limit starts at 0 are decided by the usage-1 OR pass:
    @example(_PATH_8, Fraction(1, 8))   # agent 3 wins at the 5th set of size 6
    @example(directed_cycle_profile(9), Fraction(1, 8))   # agent 0 wins at size 7
    @example(star_profile(9), Fraction(1, 4))   # a leaf loses at sizes 2-4
    # Agent 0's bound is INF, so no pass runs until size 1 reconnects it.
    @example(_CUT_OFF_7, Fraction(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, profile, alpha):
        n, buys = profile.n, profile.buys
        buys_masks = _buys_masks(profile)
        adj = build_graph(profile).adj
        p, q = alpha.numerator, alpha.denominator
        for v in range(n):
            cur, base = _agent_view(p, q, n, adj, buys_masks, v)
            mask, k, e = _scan_best_response(p, q, base, v, n, cur + 1)
            # The current cost, scaled by alpha's denominator; INF stays INF.
            assert cur == oracles.agent_cost(n, alpha, buys, v) * q
            # The oracle's first cheapest set in (size, lex) order.
            assert k == mask.bit_count()
            assert (_mask_to_tuple(mask), alpha * k + e) == oracles.best_response(n, alpha, buys, v)


class TestLargeScansPinned:
    """Best responses past the oracle's reach, pinned to the values the scan
    gave before sizes at hop limit 0 were decided by one OR per set."""

    @pytest.mark.parametrize("profile, expected", [
        (directed_cycle_profile(12), ((2, 5, 8), Fraction(11, 4))),
        (_path(12), ((1, 4, 7, 10), Fraction(3))),
        (directed_cycle_profile(14), ((1, 4, 7, 10), Fraction(3))),
        (_path(14), ((1, 3, 6, 9, 12), Fraction(13, 4))),
    ])
    def test_best_response_exact(self, profile, expected):
        cfg = GameConfig(profile.n, Fraction(1, 4))
        assert best_response_exact(cfg, profile, 0) == expected

    def test_is_nash_star(self):
        report = is_nash(GameConfig(12, Fraction(1, 4)), star_profile(12))
        assert report.is_nash and report.witness is None
        assert report.per_agent_best == (Fraction(1),) + (Fraction(9, 4),) * 11


class TestImprovingMoveDecider:
    """The single-link decider and the composed content verdict against
    brute-force pricing in oracles."""

    @given(strategy_profiles(max_n=6), alphas)
    @example(StrategyProfile.from_sets([set(), {2}, set()]), Fraction(5))   # 0 isolated
    @example(StrategyProfile.from_sets([{1}, {0, 2}, set()]), Fraction(1))  # 0-1 bought twice
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, profile, alpha):
        _check_improving_move(profile, alpha)

    @given(_cut_profiles(min_n=6, max_n=11),
           st.fractions(min_value=Fraction(1, 8), max_value=30, max_denominator=12))
    @example(_PATH_8, Fraction(1))  # the first improving add, {1, 3}, sits on its bound
    @example(directed_cycle_profile(8), Fraction(1, 4))
    @example(directed_cycle_profile(9), Fraction(19, 2))
    @example(_CUT_OFF_7, Fraction(2))
    @example(_CUT_OFF_7, Fraction(19, 2))
    @example(_BUY_AT_0, Fraction(1, 2))
    @example(_BUY_AT_1, Fraction(1))
    @example(_STAR_LEAVES_BUY, Fraction(1))
    @example(_SWAP_AT_1, Fraction(1))
    @example(_SPIDER_7, Fraction(1))
    @example(_SWAP_FROM_CACHE, Fraction(1))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_deep(self, profile, alpha):
        """n = 6..11, where each single-move group's bound cuts BFS runs and
        the add and swap groups are decided on balls of that radius."""
        _check_improving_move(profile, alpha)

    def test_swap_group_skips_hop_limit_0(self, monkeypatch):
        """A swap never wins at hop limit 0, so the swap group does not run
        there. Each leaf of _STAR_LEAVES_BUY at alpha = 1 has buy limit -1
        and swap limit 0, so any cover call at limit 0 comes from swaps."""
        limits = []
        cover = equilibrium._cover_winners

        def counted(base, sources, hops, *rest):
            limits.append(hops)
            return cover(base, sources, hops, *rest)

        monkeypatch.setattr(equilibrium, "_cover_winners", counted)
        profile = _STAR_LEAVES_BUY
        n, buys_masks = profile.n, _buys_masks(profile)
        adj = build_graph(profile).adj
        for v in (0, 2, 3, 4, 5):
            cur, base = _agent_view(1, 1, n, adj, buys_masks, v)
            assert _improving_move(1, 1, n, v, buys_masks[v], cur, base) is None
        assert 0 not in limits


def _moves(p, q, n, adj, buys_masks, v) -> tuple:
    """v's first improving single-link move and cheapest improving set."""
    cur, base = _agent_view(p, q, n, adj, buys_masks, v)
    return (_improving_move(p, q, n, v, buys_masks[v], cur, base),
            _scan_best_response(p, q, base, v, n, cur))


def _check_improving_move(profile, alpha):
    """The first improving single-link move of _improving_move, the
    cheapest improving set of _scan_best_response at bound cur and the
    content verdict they compose, for every agent, priced by the oracle."""
    n, buys = profile.n, profile.buys
    buys_masks = _buys_masks(profile)
    adj = build_graph(profile).adj
    p, q = alpha.numerator, alpha.denominator

    def cost_with(v, strategy):
        trial = list(buys)
        trial[v] = strategy
        return oracles.agent_cost(n, alpha, trial, v)

    for v in range(n):
        current = oracles.agent_cost(n, alpha, buys, v)
        first = next((s for s in _single_link_moves(n, buys, v)
                      if cost_with(v, s) < current), None)
        single, best = _moves(p, q, n, adj, buys_masks, v)
        assert _content(p, q, n, adj, buys_masks, v) == (
            oracles.best_cost(n, alpha, buys, v) >= current)
        assert (None if single is None else set(_mask_to_tuple(single[0]))) == first
        for move in (single, best):
            if move is not None:
                mask, k, e = move
                assert k == mask.bit_count()
                assert alpha * k + e == cost_with(v, _mask_to_tuple(mask)) < current


class TestDynamics:
    def test_empty_start_converges_to_tree(self):
        cfg = GameConfig(3, Fraction(5))
        trace = best_response_dynamics(cfg, StrategyProfile.empty(3),
                                       "round-robin", seed=0, budget=100)
        assert trace.outcome == "converged"
        assert build_graph(trace.final_profile).is_tree()
        assert is_nash(cfg, trace.final_profile).is_nash

    def test_fixed_point_converges_without_moves(self):
        cfg = GameConfig(3, Fraction(5))
        star = StrategyProfile.from_sets([{1}, set(), {1}])
        trace = best_response_dynamics(cfg, star, "round-robin", seed=0, budget=100)
        assert trace.outcome == "converged"
        assert trace.steps == ()
        assert trace.final_profile == star

    def test_zero_budget_rejected(self):
        cfg = GameConfig(3, Fraction(5))
        with pytest.raises(ValueError):
            best_response_dynamics(cfg, StrategyProfile.empty(3), budget=0)

    def test_unknown_schedule_rejected(self):
        cfg = GameConfig(3, Fraction(5))
        with pytest.raises(ValueError):
            best_response_dynamics(cfg, StrategyProfile.empty(3), schedule="zigzag")

    def test_budget_exhaustion_reported(self):
        cfg = GameConfig(4, Fraction(2))
        trace = best_response_dynamics(cfg, StrategyProfile.empty(4),
                                       "round-robin", seed=0, budget=1)
        assert trace.outcome == "budget-exhausted"

    @pytest.mark.parametrize("schedule", ["round-robin", "uniform-random"])
    def test_steps_strictly_decrease_mover_cost(self, schedule):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 5)
            cfg = GameConfig(n, rng.choice(ALPHAS))
            initial = random_profile(rng, n)
            trace = best_response_dynamics(cfg, initial, schedule,
                                           seed=rng.randrange(2 ** 32), budget=400)
            per_agent_costs = {}
            for step in trace.steps:
                assert step.new_cost < step.old_cost
                if step.agent in per_agent_costs:
                    assert step.new_cost < per_agent_costs[step.agent]
                per_agent_costs[step.agent] = step.new_cost
            if trace.outcome == "converged":
                assert is_nash(cfg, trace.final_profile).is_nash

    def test_deterministic_given_seed(self):
        cfg = GameConfig(5, Fraction(2))
        initial = StrategyProfile.empty(5)
        t1 = best_response_dynamics(cfg, initial, "uniform-random", seed=42, budget=200)
        t2 = best_response_dynamics(cfg, initial, "uniform-random", seed=42, budget=200)
        assert t1 == t2


class TestEnumeration:
    def test_n2_exactly_two_single_edge_profiles(self):
        result = enumerate_equilibria(GameConfig(2, Fraction(3)))
        assert result.codes == ("1", "2")  # 0 buys the edge; 1 buys it

    def test_trees_only_at_high_alpha(self):
        result = enumerate_equilibria(GameConfig(3, Fraction(25)))
        assert result.codes and result.nontree_count == 0

    def test_low_alpha_everything_optimal(self):
        cfg = GameConfig(4, Fraction(1, 3))
        result = enumerate_equilibria(cfg)
        profiles = profiles_of(4, result.codes)
        assert profiles
        opt = min(social_cost(cfg, p) for p in profiles)
        assert all(social_cost(cfg, p) == opt for p in profiles)
        assert result.worst_cost == result.best_cost == opt

    def test_counts_and_costs_consistent(self):
        cfg = GameConfig(4, Fraction(2))
        result = enumerate_equilibria(cfg)
        assert result.tree_count + result.nontree_count == len(result.codes)
        costs = [social_cost(cfg, p) for p in profiles_of(4, result.codes)]
        assert result.worst_cost == max(costs)
        assert result.best_cost == min(costs)

    def test_every_reported_equilibrium_reverifies(self):
        cfg = GameConfig(4, Fraction(5, 2))
        result = enumerate_equilibria(cfg)
        for profile in profiles_of(4, result.codes):
            assert is_nash(cfg, profile).is_nash

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            enumerate_equilibria(GameConfig(7, Fraction(2)))

    def test_two_runs_give_equal_results(self):
        # Equal results include equal work counts.
        for cfg in (GameConfig(4, Fraction(1, 2)), GameConfig(5, Fraction(2))):
            assert enumerate_equilibria(cfg) == enumerate_equilibria(cfg)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(25)])
    def test_relabeling_bijects_equilibrium_set(self, alpha):
        cfg = GameConfig(4, alpha)
        base = {p.buys for p in profiles_of(4, enumerate_equilibria(cfg).codes)}
        rng = random.Random(3)
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = set()
        for buys in base:
            relabeled = [set() for _ in range(4)]
            for i, targets in enumerate(buys):
                relabeled[perm[i]] = {perm[j] for j in targets}
            permuted.add(StrategyProfile.from_sets(relabeled).buys)
        assert permuted == base

    def test_no_double_purchase_profile_is_ever_nash_n3(self):
        # The enumerator skips doubly-bought edges; this certifies the skip
        # loses nothing: over every 4^3 ownership state of n=3 with a double
        # purchase, dropping the duplicate is strictly improving.
        for alpha in (Fraction(1, 3), Fraction(5)):
            cfg = GameConfig(3, alpha)
            for code in itertools.product("0123", repeat=3):
                profile = StrategyProfile.from_ownership_code(3, "".join(code))
                if "3" not in code:
                    continue
                assert not is_nash(cfg, profile).is_nash

    def test_no_double_purchase_profile_is_ever_nash_n4(self):
        # At n=4 the full 4^6 space is still cheap because an explicit
        # strictly improving deviation exists everywhere: drop the duplicate
        # purchase (connected case, graph unchanged, alpha saved) or buy
        # every link (disconnected case, infinite cost becomes finite).
        alpha = Fraction(5)
        for code in itertools.product("0123", repeat=6):
            if "3" not in code:
                continue
            profile = StrategyProfile.from_ownership_code(4, "".join(code))
            u, v = next(
                (u, v) for u, v in itertools.combinations(range(4), 2)
                if v in profile.buys[u] and u in profile.buys[v])
            old = oracles.agent_cost(4, alpha, profile.buys, u)
            if old == oracles.INF:
                deviated = profile.with_strategy(u, set(range(4)) - {u})
            else:
                deviated = profile.with_strategy(u, set(profile.buys[u]) - {v})
            assert oracles.agent_cost(4, alpha, deviated.buys, u) < old

    def test_canonical_forms_are_isomorphism_invariants(self):
        result = enumerate_equilibria(GameConfig(3, Fraction(25)))
        assert result.canonical_forms == tuple(sorted(set(result.canonical_forms)))
        for profile in profiles_of(3, result.codes):
            assert isomorphism_canonical_code(profile) in result.canonical_forms


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


def _profile_is_nash_masks(p, q, n, adj, buys_masks) -> bool:
    """Exact Nash decision on mask-level state: connected, and every agent
    content."""
    if bfs(adj, 1, (1 << n) - 1) == INF:
        return False  # disconnected: buying every link is always better than INF
    return all(_content(p, q, n, adj, buys_masks, v) for v in range(n))


def _state_walk_codes(n, alpha):
    """Reference: the enumeration's former state walk, one exact Nash decision
    per each of the 3^(n(n-1)/2) single-ownership states."""
    pairs = list(itertools.combinations(range(n), 2))
    p, q = alpha.numerator, alpha.denominator
    found = []
    for code_int in range(3 ** len(pairs)):
        adj, buys_masks, digits = _decode_ownership(code_int, n, pairs)
        if _profile_is_nash_masks(p, q, n, adj, buys_masks):
            found.append(digits)
    return sorted(found)


def _codes(result):
    return list(result.codes)


@st.composite
def single_ownership_masks(draw, max_n=7):
    """Purchase masks of a single-ownership profile: each edge has one buyer."""
    n = draw(st.integers(1, max_n))
    buys_masks = [0] * n
    for u, w in itertools.combinations(range(n), 2):
        owner = draw(st.sampled_from(["none", "u", "w"]))
        if owner == "u":
            buys_masks[u] |= 1 << w
        elif owner == "w":
            buys_masks[w] |= 1 << u
    return buys_masks


class TestGraphFirstEnumeration:
    """The graph-first enumeration against the state walk it replaced."""

    @given(st.integers(1, 4),
           st.fractions(min_value=Fraction(1, 8), max_value=30, max_denominator=12))
    @example(4, Fraction(1))
    @settings(max_examples=40, deadline=None)
    def test_same_codes_as_state_walk_n_le_4(self, n, alpha):
        assert _codes(enumerate_equilibria(GameConfig(n, alpha))) == _state_walk_codes(n, alpha)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(2), Fraction(25)])
    def test_same_codes_as_state_walk_n5(self, alpha):
        result = enumerate_equilibria(GameConfig(5, alpha))
        assert _codes(result) == _state_walk_codes(5, alpha)

    def test_work_counts(self):
        # n = 2: one class, the edge; it goes to 0, then to 1, and each time
        # both endpoints are decided on a new owned set. Both orientations
        # are Nash and one class: the first is relabeled 2! times and the
        # second is found in its orbit.
        assert enumerate_equilibria(GameConfig(2, Fraction(3))).stats == \
            EnumerationStats(classes=1, content_checks=4, orientations_tried=2,
                             profiles_expanded=2)
        # n = 3: the path and the triangle; three profile classes, all paths.
        assert enumerate_equilibria(GameConfig(3, Fraction(25))).stats == \
            EnumerationStats(classes=2, content_checks=14, orientations_tried=14,
                             profiles_expanded=18)

    @given(single_ownership_masks(), alphas, st.integers(0, 6), st.sets(st.integers(0, 6)))
    @example([0b10, 0], Fraction(2), 1, set())  # 1's edge bought by 0
    @example([0b110, 0b100, 0], Fraction(1, 2), 0, {1})
    @settings(max_examples=80, deadline=None)
    def test_decider_reads_only_the_agents_own_purchases(self, buys_masks, alpha, v, kept):
        # The content table rests on this: under single ownership, v's
        # verdict, and both moves it is composed of, are the same with any
        # other agents' purchases cleared, such as those of edges the
        # backtracking has not assigned yet.
        n = len(buys_masks)
        v %= n
        adj = _adj_of(buys_masks)
        only_v = [m if u == v else 0 for u, m in enumerate(buys_masks)]
        partial = [m if u == v or u in kept else 0 for u, m in enumerate(buys_masks)]
        p, q = alpha.numerator, alpha.denominator

        def verdict(masks):
            return _content(p, q, n, adj, masks, v), _moves(p, q, n, adj, masks, v)

        full = verdict(buys_masks)
        assert verdict(only_v) == full
        assert verdict(partial) == full


def _labeled_walk_codes(n, alpha):
    """Reference: the enumeration's former labeled graph walk, graph g
    holding pair i iff bit i of g is set."""
    p, q = alpha.numerator, alpha.denominator
    pairs = list(itertools.combinations(range(n), 2))
    found = []
    for g in range(2 ** len(pairs)):
        adj = [0] * n
        edges = []
        for i, (u, w) in enumerate(pairs):
            if g >> i & 1:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                edges.append((u, w))
        if bfs(adj, 1, (1 << n) - 1) != INF:
            _nash_orientations(p, q, n, adj, edges, found)
    return sorted(found)


class TestClassFirstEnumeration:
    """One representative per connected graph class, expanded by relabeling,
    against the labeled graph walk it replaced."""

    @given(st.integers(1, 4),
           st.fractions(min_value=Fraction(1, 8), max_value=30, max_denominator=12))
    @example(4, Fraction(1))
    @settings(max_examples=40, deadline=None)
    def test_same_codes_as_labeled_walk_n_le_4(self, n, alpha):
        assert _codes(enumerate_equilibria(GameConfig(n, alpha))) == _labeled_walk_codes(n, alpha)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(2), Fraction(25)])
    def test_same_codes_as_labeled_walk_n5(self, alpha):
        result = enumerate_equilibria(GameConfig(5, alpha))
        assert _codes(result) == _labeled_walk_codes(5, alpha)

    def test_same_codes_as_labeled_walk_n6(self):
        cfg = GameConfig(6, Fraction(2))
        result = enumerate_equilibria(cfg)
        assert _codes(result) == _labeled_walk_codes(6, cfg.alpha)
        # Each canonical form is the lex-min code of its own class.
        assert len(result.canonical_forms) == 30
        assert all(isomorphism_canonical_code(StrategyProfile.from_ownership_code(6, c)) == c
                   for c in result.canonical_forms)

    @pytest.mark.parametrize("alpha, equilibria, classes",
                             [(Fraction(1, 2), 14112, 28), (Fraction(25), 8232, 30)])
    def test_pinned_counts_n6(self, alpha, equilibria, classes):
        result = enumerate_equilibria(GameConfig(6, alpha))
        assert (len(result.codes), len(result.canonical_forms)) == (equilibria, classes)

    @pytest.mark.parametrize("n, alpha", [(4, Fraction(1, 3)), (5, Fraction(1, 2)),
                                          (5, Fraction(2))])
    def test_prices_match_oracle(self, n, alpha):
        result = enumerate_equilibria(GameConfig(n, alpha))
        assert len(result.prices) == len(result.codes)
        for profile, price in zip(profiles_of(n, result.codes), result.prices):
            buys = profile.buys
            edges = sum(map(len, buys))
            connected = oracles.eccentricity(n, oracles.adjacency(n, buys), 0) != INF
            assert price == ProfilePrice(
                edges=edges, is_tree=connected and edges == n - 1,
                social_cost=oracles.social_cost(n, alpha, buys),
                max_agent_cost=max(oracles.agent_cost(n, alpha, buys, v) for v in range(n)))

    @pytest.mark.parametrize("alpha, equilibria, nontree",
                             [(Fraction(25), 92638, 0), (Fraction(2), 93358, 720)])
    def test_tree_theorem_at_n7(self, alpha, equilibria, nontree):
        # Past the public n <= 6 guard, through the class engine. At alpha 2
        # the only non-tree equilibria are the directed C7s: 6!/2 labeled
        # 7-cycles, each bought in either direction.
        orbits, stats = _class_orbits(7, alpha, connected_classes(7))
        assert stats.classes == 853
        assert sum(len(codes) for codes, _ in orbits) == equilibria
        assert sum(len(codes) for codes, price in orbits if not price.is_tree) == nontree
        for codes, price in orbits:
            if not price.is_tree:
                assert price.edges == 7
                profile = StrategyProfile.from_ownership_code(7, codes[0])
                assert all(len(s) == 1 for s in profile.buys)  # a directed cycle

    @pytest.mark.parametrize("n, alpha", [(4, Fraction(1, 3)), (5, Fraction(1, 2)),
                                          (5, Fraction(25))])
    def test_one_agent_view_per_content_check(self, monkeypatch, n, alpha):
        # Each (vertex, owned set) verdict strips v's purchases once, for
        # the single-link filter and the exact scan together.
        calls = []
        base_adj = equilibrium._base_adj
        monkeypatch.setattr(equilibrium, "_base_adj",
                            lambda *args: calls.append(1) or base_adj(*args))
        stats = enumerate_equilibria(GameConfig(n, alpha)).stats
        assert len(calls) == stats.content_checks


# search_nontree_equilibria(GameConfig(10, 1), seed=761901386, iterations=200),
# as (code, edges, social cost, max agent cost); every find has a cycle.
_SEARCH_N10_FINDS = (
    ("000000001000010000001000000002000200002022011", 10, 37, 5),
    ("000000001002000000010000020000111010001000002", 10, 37, 7),
    ("000000002000001000000100000002000020001020221", 10, 37, 6),
    ("000000002100000200020000000020000010002002012", 10, 38, 6),
    ("000000010000000010000001000200001000010001122", 10, 37, 4),
    ("000000010000000010000100000001000100200002221", 10, 37, 4),
    ("000000020000000100000020200000202210000002002", 10, 37, 5),
    ("000000020020000000000020111011000000000110000", 10, 37, 8),
    ("000000100000000010000100000200000011002020120", 10, 38, 4),
    ("000000100000000020000100000002000200100100122", 10, 37, 6),
    ("000000100000001220000100000020000200200200100", 10, 37, 5),
    ("000000101000000020000001000002000010101101001", 11, 37, 4),
    ("000000200000000011000000010101002000000002120", 10, 37, 5),
    ("000000200000000100000001000001000200010200111", 10, 37, 6),
    ("000000201002000000100000200001012000100000100", 10, 38, 5),
    ("000001000000000010001000000100001000100202012", 10, 37, 4),
    ("000001000002001000001000100000110010000010200", 10, 38, 6),
    ("000010000100100000000010010000100002102010002", 11, 37, 4),
    ("000010000200110010000000020000200002200010000", 10, 37, 5),
    ("000020000000000100000010000002100000021002102", 10, 37, 5),
    ("000020000000010000020000002000100002212202000", 11, 37, 5),
    ("000020020210001100000000010000000100000020001", 10, 38, 5),
    ("000100010001000002000010100000222020010010002", 13, 37, 4),
    ("000200000001000000001000100000021200020020001", 10, 37, 6),
    ("000202000000001000000200000020000200020200110", 10, 38, 6),
    ("002000000000000020001000101002000000002211000", 10, 37, 5),
    ("002000000000020000002000012210000120000001000", 10, 38, 6),
    ("002210120000000200000020000000000000000200201", 10, 37, 7),
    ("010100100001000000000000100000200000010020220", 10, 45, 6),
    ("010111000000200000000000020000200120100000000", 10, 37, 6),
    ("020000000000100000020001010000000022001000021", 10, 37, 4),
    ("020000000001020001001022200100000002000000000", 10, 41, 5),
    ("020100021000000100000010000010000000020010100", 10, 37, 4),
    ("100000000102100110000000020000000000010020200", 10, 37, 6),
    ("100000000220200110000000000000201001000000010", 10, 38, 5),
    ("200000000010100020000002000000100001012000020", 10, 37, 6),
    ("200000000011000210000010000000101100000020000", 10, 37, 6),
    ("200101001000000000000012000001100000200010020", 11, 41, 5),
    ("202200021000000100000010000000000100020010200", 11, 37, 5),
    ("202212222100000000000020000000000000000000000", 10, 37, 4),
    ("210011000000000000020220010000100000002000000", 10, 37, 5),
)


# search_nontree_equilibria(GameConfig(n, alpha), seed=100 * n + alpha.numerator,
# iterations=60) per (n, alpha), as ((descent_moves, candidates, exact_scans),
# finds); each find is (code, edges, social cost, max agent cost).
_SEARCH_SMALL_PINS = {
    (5, Fraction(1, 2)): ((208, 5, 21), (
        ("0120101002", 5, Fraction(25, 2), 3),
        ("0220021020", 5, Fraction(25, 2), 3),
        ("1100002102", 5, Fraction(25, 2), 3),
        ("2200020011", 5, Fraction(25, 2), 3),
    )),
    (5, Fraction(1)): ((118, 8, 36), (
        ("0001101201", 5, 17, 4),
        ("0120021020", 5, 15, 4),
        ("0120101002", 5, 15, 4),
        ("0202221000", 5, 17, 4),
        ("0222202000", 5, 17, 4),
        ("1100002102", 5, 15, 4),
        ("2001220011", 6, 16, 4),
    )),
    (5, Fraction(2)): ((175, 0, 0), ()),
    (6, Fraction(1, 2)): ((300, 24, 104), (
        ("000022000022201", 6, 18, Fraction(7, 2)),
        ("001122102020000", 7, Fraction(31, 2), 3),
        ("002222202010000", 7, Fraction(31, 2), 3),
        ("010220102100200", 7, Fraction(31, 2), 3),
        ("020102001200201", 7, Fraction(31, 2), 3),
        ("021011220000002", 7, Fraction(31, 2), 3),
        ("100100102021100", 7, Fraction(31, 2), 3),
        ("100201001200102", 7, Fraction(31, 2), 3),
        ("102002020001022", 7, Fraction(31, 2), 3),
        ("102010000200012", 6, 18, Fraction(7, 2)),
        ("110000001220012", 7, Fraction(31, 2), 3),
        ("120000220202002", 7, Fraction(31, 2), 3),
        ("200102200002012", 7, Fraction(31, 2), 3),
        ("200211000120020", 7, Fraction(31, 2), 3),
        ("201200001222000", 7, Fraction(31, 2), 3),
        ("210000002220012", 7, Fraction(31, 2), 3),
    )),
    (6, Fraction(1)): ((194, 21, 106), (
        ("000020001102201", 6, 21, 4),
        ("000201010200102", 6, 21, 4),
        ("001122102020000", 7, 19, 4),
        ("002202202010000", 6, 21, 4),
        ("010010002220012", 7, 21, 4),
        ("020000220202002", 6, 21, 4),
        ("020102001200201", 7, 19, 4),
        ("022112220000000", 7, 21, 4),
        ("102002020001022", 7, 19, 4),
        ("102010000200012", 6, 21, 5),
        ("102201000001011", 7, 19, 4),
        ("110000001220012", 7, 19, 4),
        ("121020010000002", 6, 21, 4),
        ("200020020212000", 6, 21, 4),
        ("200022000020201", 6, 21, 5),
        ("201200001022000", 6, 21, 4),
        ("220210000100020", 6, 21, 4),
    )),
    (6, Fraction(2)): ((240, 0, 0), ()),
    (7, Fraction(1, 2)): ((604, 19, 64), (
        ("000002202210000200020", 7, Fraction(43, 2), Fraction(7, 2)),
        ("002000200001100100220", 7, Fraction(43, 2), Fraction(7, 2)),
        ("100000202010210200000", 7, Fraction(43, 2), Fraction(7, 2)),
        ("200122100002202010000", 9, Fraction(37, 2), 3),
        ("201000000221001220010", 9, Fraction(37, 2), 3),
        ("202120100200000000001", 7, Fraction(43, 2), Fraction(7, 2)),
    )),
    (7, Fraction(1)): ((404, 15, 75), (
        ("000010010120001000012", 7, 25, 4),
        ("000021000102000120010", 7, 26, 4),
        ("000101000011001200002", 7, 25, 4),
        ("000101001010001002001", 7, 25, 4),
        ("001000002022000222000", 7, 25, 4),
        ("002201000021000022000", 7, 25, 4),
        ("100000111000010000011", 7, 25, 5),
        ("202000100001121000000", 7, 25, 5),
        ("202101000000001001001", 7, 25, 4),
        ("210200000001010000021", 7, 26, 4),
    )),
    (7, Fraction(2)): ((385, 0, 0), ()),
    (8, Fraction(1, 2)): ((690, 34, 112), (
        ("0000110202020001000110200022", 11, Fraction(43, 2), 3),
        ("0002000000020001000100210202", 8, 25, Fraction(7, 2)),
        ("0121101020000000000002000002", 8, 25, 4),
        ("0220021000002000001002000010", 8, 25, Fraction(7, 2)),
        ("1220200002020000010002001011", 11, Fraction(43, 2), 3),
        ("2000200222002001000010010201", 11, Fraction(43, 2), 3),
        ("2002202100220000000200000000", 8, 25, Fraction(7, 2)),
        ("2100022002101000000002000000", 8, 25, Fraction(7, 2)),
    )),
    (8, Fraction(1)): ((456, 28, 104), (
        ("0000002100001202000002001011", 9, 29, 4),
        ("0000002101122000000010000001", 8, 29, 5),
        ("0000010001000000010001011202", 8, 29, 4),
        ("0000100010000001000120100102", 8, 29, 4),
        ("0001100001000002001000222000", 8, 29, 4),
        ("0002000200000220010000010220", 8, 30, 5),
        ("0201101022000000000002000002", 8, 30, 5),
        ("0220021000002000001002000010", 8, 29, 4),
        ("2000012000000200100002120010", 9, 30, 4),
        ("2010101000000002000000001210", 8, 29, 5),
    )),
    (8, Fraction(2)): ((637, 0, 0), ()),
}


class TestSearch:
    def test_high_alpha_probe_comes_back_empty(self):
        found = search_nontree_equilibria(GameConfig(6, Fraction(25)),
                                          seed=1, iterations=40)
        assert found == ()

    def test_findings_contained_in_enumeration(self):
        cfg = GameConfig(5, Fraction(1, 2))
        found = search_nontree_equilibria(cfg, seed=7, iterations=150)
        assert found  # the probe should land on something at this alpha
        result = enumerate_equilibria(cfg)
        # Each find carries the same price as its enumerated copy.
        assert set(found) <= {(code, price) for code, price in zip(result.codes, result.prices)
                              if not price.is_tree}

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            search_nontree_equilibria(GameConfig(4, Fraction(1)), seed=0, iterations=0)

    @pytest.mark.parametrize("n, alpha, seed", [(21, Fraction(1), 1), (24, Fraction(1, 2), 2)])
    def test_size_guard_before_descent(self, n, alpha, seed):
        with pytest.raises(SizeGuard):
            search_nontree_equilibria(GameConfig(n, alpha), seed=seed, iterations=1)

    def test_deterministic_and_worker_invariant(self):
        # Search runs in one process; the same seed gives the same finds and
        # work counts on every run.
        cfg = GameConfig(5, Fraction(1, 2))
        runs = []
        for _ in range(3):
            stats = {}
            runs.append((search_nontree_equilibria(cfg, seed=3, iterations=60, stats=stats),
                         stats))
        assert runs[0] == runs[1] == runs[2]

    def test_restarts_stream_in_bounded_memory(self):
        # n = 2 finds nothing, so the peak is the restart bookkeeping alone.
        # Holding an argument tuple and a result for every restart takes
        # about 120 B each, 2.4 MB at this count; streaming takes a few KB.
        tracemalloc.start()
        try:
            search_nontree_equilibria(GameConfig(2, Fraction(1)), seed=1, iterations=20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000

    def test_every_find_is_nash_with_cycle(self):
        cfg = GameConfig(5, Fraction(1, 2))
        found = search_nontree_equilibria(cfg, seed=9, iterations=80)
        for profile in profiles_of(5, [code for code, _ in found]):
            graph = build_graph(profile)
            assert graph.is_connected() and not graph.is_tree()
            assert is_nash(cfg, profile).is_nash

    # Each pinned search runs once, then twice in one process: a repeat
    # run must find the same profiles with the same work counts.
    @pytest.mark.parametrize("runs", [1, 2])
    def test_pinned_n10_restarts(self, runs):
        """A 200-restart search at n = 10, alpha = 1: the descent, the
        candidate filter and the exact verification find exactly these."""
        for _ in range(runs):
            found = search_nontree_equilibria(GameConfig(10, Fraction(1)), seed=761901386,
                                              iterations=200)
            assert [(code, p.edges, p.social_cost, p.max_agent_cost)
                    for code, p in found] == list(_SEARCH_N10_FINDS)
            assert not any(p.is_tree for _, p in found)

    @pytest.mark.parametrize("runs", [1, 2])
    def test_pinned_n10_work_counts(self, runs):
        for _ in range(runs):
            stats = {}
            search_nontree_equilibria(GameConfig(10, Fraction(1)), seed=761901386,
                                      iterations=200, stats=stats)
            assert stats == {"restarts": 200, "descent_moves": 2961, "candidates": 115,
                             "exact_scans": 513}

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("n, alpha", list(_SEARCH_SMALL_PINS))
    def test_pinned_small_restarts(self, n, alpha, runs):
        (moves, candidates, scans), finds = _SEARCH_SMALL_PINS[n, alpha]
        for _ in range(runs):
            stats = {}
            found = search_nontree_equilibria(GameConfig(n, alpha),
                                              seed=100 * n + alpha.numerator,
                                              iterations=60, stats=stats)
            assert [(code, p.edges, p.social_cost, p.max_agent_cost)
                    for code, p in found] == list(finds)
            assert stats == {"restarts": 60, "descent_moves": moves,
                             "candidates": candidates, "exact_scans": scans}

    def test_sweep_orders_are_shuffles(self):
        # Each sweep's order is the permutation random.shuffle gives.
        for seed in range(200):
            for n in range(1, 21):
                rng = random.Random(seed)
                orders = equilibrium._sweep_orders(random.Random(seed), n)
                for _ in range(2):
                    expected = list(range(n))
                    rng.shuffle(expected)
                    assert next(orders) == expected

    def test_quiet_sweep_views_reach_the_exact_check(self, monkeypatch):
        # Descents that end in a quiet sweep build no view for the exact check.
        views = []
        agent_view = equilibrium._agent_view
        monkeypatch.setattr(equilibrium, "_agent_view",
                            lambda *args: views.append(args[-1]) or agent_view(*args))
        finds = [equilibrium._search_iteration(6, Fraction(1), 5, it) for it in range(40)]
        assert any(scans for _, _, scans in finds)
        assert views == []

    def test_capped_descent_decided_on_fresh_views(self, monkeypatch):
        # The first n - 1 agents of the first sweep keep their random
        # strategies, then the first agent of every sweep moves to its
        # directed 5-cycle strategy, so no sweep is quiet and the 4n^2 cap
        # ends the descent. The stored views of those n - 1 agents are of
        # the random start; the cycle, Nash at alpha = 1, is found only if
        # the exact check reads fresh ones.
        n, cfg = 5, GameConfig(5, Fraction(1))
        cycle = directed_cycle_profile(n)
        target = _buys_masks(cycle)
        calls = []

        def always_moves(p, q, n, v, cur_mask, cur_scaled, base):
            calls.append(v)
            return None if len(calls) < n else (target[v], 1, 0)

        views = []
        agent_view = equilibrium._agent_view
        monkeypatch.setattr(equilibrium, "_improving_move", always_moves)
        monkeypatch.setattr(equilibrium, "_agent_view",
                            lambda *args: views.append(args[-1]) or agent_view(*args))
        find, moves, scans = equilibrium._search_iteration(n, cfg.alpha, 3, 0)
        assert moves == 4 * n * n and sorted(views) == list(range(n))
        assert is_nash(cfg, cycle).is_nash and scans == n
        assert find is not None and find[0] == cycle.ownership_code()


def _has_double_purchase(profile):
    return any(u in profile.buys[v] and v in profile.buys[u]
               for u in range(profile.n) for v in profile.buys[u])


class TestNoDoublePurchaseAtRest:
    # No edge is paid from both sides in any equilibrium the toolkit emits.

    def test_converged_dynamics(self):
        rng = random.Random(31)
        for _ in range(15):
            n = rng.randint(2, 5)
            cfg = GameConfig(n, rng.choice(ALPHAS))
            initial = random_profile(rng, n, allow_double=True)
            trace = best_response_dynamics(cfg, initial, "round-robin",
                                           seed=1, budget=500)
            if trace.outcome == "converged":
                assert not _has_double_purchase(trace.final_profile)

    def test_search_findings(self):
        found = search_nontree_equilibria(GameConfig(5, Fraction(1, 2)), seed=13, iterations=60)
        for profile in profiles_of(5, [code for code, _ in found]):
            assert not _has_double_purchase(profile)

    def test_enumerations_above_two(self):
        for alpha in (Fraction(5, 2), Fraction(25)):
            for profile in profiles_of(4, enumerate_equilibria(GameConfig(4, alpha)).codes):
                assert not _has_double_purchase(profile)


def _relabeling_canonical_code(profile):
    """Reference: build and encode one StrategyProfile per relabeling."""
    n = profile.n
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = [set() for _ in range(n)]
        for i, s in enumerate(profile.buys):
            relabeled[perm[i]] = {perm[j] for j in s}
        code = StrategyProfile.from_sets(relabeled).ownership_code()
        if best is None or code < best:
            best = code
    return best if best is not None else ""


def _profile_level_dynamics(config, initial, schedule, seed, budget):
    """Reference: best_response_dynamics as a loop over StrategyProfiles,
    with each activation priced by best_response_exact and the oracle."""
    n, alpha = config.n, config.alpha
    rng = random.Random(_derive_seed(seed)) if schedule == "uniform-random" else None
    profile, steps, quiet, position = initial, [], set(), 0
    visited = {(initial.buys, 0)}
    outcome = "budget-exhausted"
    for _ in range(budget):
        agent = rng.randrange(n) if rng is not None else position % n
        position += 1
        best_s, best_c = best_response_exact(config, profile, agent)
        cur = oracles.agent_cost(n, alpha, profile.buys, agent)
        if best_c < cur:
            profile = profile.with_strategy(agent, best_s)
            steps.append(DynamicsStep(len(steps), agent, cur, best_c, tuple(best_s)))
            quiet = set()
        else:
            quiet.add(agent)
        if len(quiet) == n:
            outcome = "converged"
            break
        if rng is None:
            state = (profile.buys, position % n)
            if state in visited:
                outcome = "cycle"
                break
            visited.add(state)
    return DynamicsTrace(steps=tuple(steps), outcome=outcome, final_profile=profile)


_DOUBLED = StrategyProfile.from_sets([{1, 2}, {0}, set(), {2}])  # 0-1 bought twice


class TestAgainstProfileLevelReferences:
    """The mask-level loops against the profile-level code they replaced."""

    @given(strategy_profiles(max_n=6))
    @example(_DOUBLED)
    @example(StrategyProfile.empty(0))
    @settings(max_examples=60, deadline=None)
    def test_canonical_code(self, profile):
        assert isomorphism_canonical_code(profile) == _relabeling_canonical_code(profile)

    @given(strategy_profiles(max_n=6), alphas,
           st.sampled_from(["round-robin", "uniform-random"]), st.integers(0, 2 ** 32))
    @example(_DOUBLED, Fraction(1, 2), "round-robin", 0)
    @example(StrategyProfile.from_sets([set(), {2}, set()]), Fraction(5), "uniform-random", 3)
    @settings(max_examples=60, deadline=None)
    def test_dynamics(self, profile, alpha, schedule, seed):
        cfg = GameConfig(profile.n, alpha)
        assert (best_response_dynamics(cfg, profile, schedule, seed, budget=40)
                == _profile_level_dynamics(cfg, profile, schedule, seed, budget=40))

    @given(strategy_profiles(max_n=6), alphas)
    @example(_DOUBLED, Fraction(2))
    @example(StrategyProfile.from_sets([set(), {2}, set()]), Fraction(5))  # 0 isolated
    @settings(max_examples=60, deadline=None)
    def test_is_nash_witness_is_least_best_response(self, profile, alpha):
        n, buys = profile.n, profile.buys
        report = is_nash(GameConfig(n, alpha), profile)
        current = [oracles.agent_cost(n, alpha, buys, v) for v in range(n)]
        for v in range(n):
            priced = []
            for subset in oracles.powerset(u for u in range(n) if u != v):
                trial = list(buys)
                trial[v] = set(subset)
                priced.append((oracles.agent_cost(n, alpha, trial, v), len(subset), subset))
            cost, _, strategy = min(priced)
            if cost < current[v]:
                w = report.witness
                assert not report.is_nash
                assert (w.agent, w.old_strategy, w.new_strategy, w.old_cost, w.new_cost) \
                    == (v, buys[v], strategy, current[v], cost)
                return
        assert report.is_nash and report.per_agent_best == tuple(current)
