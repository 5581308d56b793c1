import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import oracles
from conftest import (ALPHAS, alphas, directed_cycle_profile, random_profile,
                      strategy_profiles)
from ncg.errors import SizeGuard
from ncg.game import GameConfig, StrategyProfile, build_graph, social_cost
from ncg.equilibrium import (_buys_masks, _improving_move, _mask_to_tuple,
                             best_response_dynamics, best_response_exact,
                             enumerate_equilibria, improving_move_heuristic,
                             is_nash, isomorphism_canonical_code,
                             search_nontree_equilibria, verify_witness)


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

    def test_size_guard(self):
        cfg = GameConfig(21, Fraction(5))
        with pytest.raises(SizeGuard):
            best_response_exact(cfg, StrategyProfile.empty(21), 0)

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

    @given(strategy_profiles(min_n=2, max_n=5), alphas)
    @settings(max_examples=60, deadline=None)
    def test_sound_for_is_nash(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            w = improving_move_heuristic(cfg, profile, v)
            if w is not None:
                assert verify_witness(cfg, profile, w)
                assert not is_nash(cfg, profile).is_nash


def _single_link_moves(n, buys, v):
    """Drop each owned link, buy each missing link, then each (drop, buy)
    swap, all in ascending index order, as new purchase sets of v."""
    adj = oracles.adjacency(n, buys)
    owned = sorted(buys[v])
    missing = [w for w in range(n) if w != v and w not in adj[v]]
    yield from (set(buys[v]) - {u} for u in owned)
    yield from (set(buys[v]) | {w} for w in missing)
    yield from ((set(buys[v]) - {u}) | {w} for u in owned for w in missing)


class TestImprovingMoveDecider:
    """The one per-agent decider against brute-force pricing in oracles."""

    @given(strategy_profiles(max_n=6), alphas)
    @example(StrategyProfile.from_sets([set(), {2}, set()]), Fraction(5))   # 0 isolated
    @example(StrategyProfile.from_sets([{1}, {0, 2}, set()]), Fraction(1))  # 0-1 bought twice
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, profile, alpha):
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
            single = _improving_move(p, q, n, adj, buys_masks, v, False)
            exact = _improving_move(p, q, n, adj, buys_masks, v, True)
            assert (exact is None) == (oracles.best_cost(n, alpha, buys, v) >= current)
            assert (None if single is None else set(_mask_to_tuple(single[0]))) == first
            if first is not None:
                assert exact == single  # the exact decider tries single links first
            for move in (single, exact):
                if move is not None:
                    mask, k, e = move
                    assert k == bin(mask).count("1")
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
        assert {p.buys for p in result.equilibria} == {((1,), ()), ((), (0,))}

    def test_trees_only_at_high_alpha(self):
        result = enumerate_equilibria(GameConfig(3, Fraction(25)))
        assert result.equilibria and result.nontree_count == 0

    def test_low_alpha_everything_optimal(self):
        cfg = GameConfig(4, Fraction(1, 3))
        result = enumerate_equilibria(cfg)
        assert result.equilibria
        opt = min(social_cost(cfg, p) for p in result.equilibria)
        assert all(social_cost(cfg, p) == opt for p in result.equilibria)
        assert result.worst_cost == result.best_cost == opt

    def test_counts_and_costs_consistent(self):
        cfg = GameConfig(4, Fraction(2))
        result = enumerate_equilibria(cfg)
        assert result.tree_count + result.nontree_count == len(result.equilibria)
        costs = [social_cost(cfg, p) for p in result.equilibria]
        assert result.worst_cost == max(costs)
        assert result.best_cost == min(costs)

    def test_every_reported_equilibrium_reverifies(self):
        cfg = GameConfig(4, Fraction(5, 2))
        result = enumerate_equilibria(cfg)
        for profile in result.equilibria:
            assert is_nash(cfg, profile).is_nash

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            enumerate_equilibria(GameConfig(7, Fraction(2)))

    def test_worker_count_does_not_change_result(self):
        cfg = GameConfig(4, Fraction(1, 2))
        assert enumerate_equilibria(cfg, workers=1) == enumerate_equilibria(cfg, workers=4)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(25)])
    def test_relabeling_bijects_equilibrium_set(self, alpha):
        cfg = GameConfig(4, alpha)
        base = {p.buys for p in enumerate_equilibria(cfg).equilibria}
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
        for profile in result.equilibria:
            assert isomorphism_canonical_code(profile) in result.canonical_forms


class TestSearch:
    def test_high_alpha_probe_comes_back_empty(self):
        found = search_nontree_equilibria(GameConfig(6, Fraction(25)),
                                          seed=1, iterations=40)
        assert found == ()

    def test_findings_contained_in_enumeration(self):
        cfg = GameConfig(5, Fraction(1, 2))
        found = search_nontree_equilibria(cfg, seed=7, iterations=150)
        assert found  # the probe should land on something at this alpha
        enumerated = {p.buys for p in enumerate_equilibria(cfg).equilibria
                      if not build_graph(p).is_tree()}
        for profile in found:
            assert profile.buys in enumerated

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            search_nontree_equilibria(GameConfig(4, Fraction(1)), seed=0, iterations=0)

    def test_deterministic_and_worker_invariant(self):
        cfg = GameConfig(5, Fraction(1, 2))
        a = search_nontree_equilibria(cfg, seed=3, iterations=60, workers=1)
        b = search_nontree_equilibria(cfg, seed=3, iterations=60, workers=4)
        c = search_nontree_equilibria(cfg, seed=3, iterations=60, workers=1)
        assert a == b == c

    def test_every_find_is_nash_with_cycle(self):
        cfg = GameConfig(5, Fraction(1, 2))
        for profile in search_nontree_equilibria(cfg, seed=9, iterations=80):
            graph = build_graph(profile)
            assert graph.is_connected() and not graph.is_tree()
            assert is_nash(cfg, profile).is_nash


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
        for profile in search_nontree_equilibria(GameConfig(5, Fraction(1, 2)),
                                                 seed=13, iterations=60):
            assert not _has_double_purchase(profile)

    def test_enumerations_above_two(self):
        for alpha in (Fraction(5, 2), Fraction(25)):
            for profile in enumerate_equilibria(GameConfig(4, alpha)).equilibria:
                assert not _has_double_purchase(profile)
