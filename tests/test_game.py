import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import alphas, strategy_profiles
from ncg.game import (INF, GameConfig, StrategyProfile, agent_cost,
                      all_pairs_distances, build_graph, metrics, social_cost)


class TestConfigAndProfileInvariants:
    def test_alpha_exact_rational(self):
        cfg = GameConfig(4, Fraction(19, 2))
        assert cfg.alpha + 2 == Fraction(23, 2)
        assert 2 * cfg.alpha - 1 == 18

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            GameConfig(0, Fraction(1))
        with pytest.raises(ValueError):
            GameConfig(3, Fraction(0))
        with pytest.raises(ValueError):
            GameConfig(3, Fraction(-1, 2))

    @pytest.mark.parametrize("n, alpha", [
        (True, 2),             # bool is an int subclass, not an agent count
        (3, True),
        (3, 0.1),              # would silently become 3602879701896397/2^55
        (3, 2.0),              # even an integral float is not exact input
    ])
    def test_bool_and_float_inputs_rejected(self, n, alpha):
        with pytest.raises(ValueError):
            GameConfig(n, alpha)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            StrategyProfile.from_sets([{0}, set()])  # self purchase
        with pytest.raises(ValueError):
            StrategyProfile.from_sets([{5}, set()])  # out of range
        p = StrategyProfile.from_sets([[2, 1, 1], set(), set()])
        assert p.buys[0] == (1, 2)

    def test_ownership_code_round_trip(self):
        p = StrategyProfile.from_sets([{1}, {0, 2}, set()])
        code = p.ownership_code()  # pairs (0,1), (0,2), (1,2)
        assert code == "301"
        assert StrategyProfile.from_ownership_code(3, code) == p


class TestBuildGraph:
    def test_single_buyer(self):
        g = build_graph(StrategyProfile.from_sets([{1}, set()]))
        assert g.edges == frozenset({(0, 1)})
        assert g.owners[(0, 1)] == frozenset({0})

    def test_double_purchase_single_edge(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {0}]))
        assert g.edges == frozenset({(0, 1)})
        assert g.owners[(0, 1)] == frozenset({0, 1})

    def test_path(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, set()]))
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.owners[(0, 1)] == frozenset({0})
        assert g.owners[(1, 2)] == frozenset({1})

    @given(strategy_profiles())
    def test_deterministic_and_owner_nonempty(self, profile):
        g1 = build_graph(profile)
        g2 = build_graph(profile)
        assert g1.edges == g2.edges
        for e in g1.edges:
            assert g1.owners[e]
            assert g1.owners[e] <= frozenset(e)

    @given(strategy_profiles())
    def test_edge_iff_purchase(self, profile):
        g = build_graph(profile)
        for u in range(profile.n):
            for v in range(u + 1, profile.n):
                expected = v in profile.buys[u] or u in profile.buys[v]
                assert g.has_edge(u, v) == expected


class TestDistances:
    def test_path_distance(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, set()]))
        assert all_pairs_distances(g).dist(0, 2) == 2

    def test_disconnected_infinite(self):
        g = build_graph(StrategyProfile.from_sets([set(), set()]))
        assert all_pairs_distances(g).dist(0, 1) == INF

    def test_clique_distances(self):
        g = build_graph(StrategyProfile.from_sets(
            [set(range(i + 1, 4)) for i in range(4)]))
        t = all_pairs_distances(g)
        for u in range(4):
            for v in range(4):
                assert t.dist(u, v) == (0 if u == v else 1)

    @given(strategy_profiles())
    def test_symmetry_zero_diagonal_triangle(self, profile):
        t = all_pairs_distances(build_graph(profile))
        n = profile.n
        for u in range(n):
            assert t.dist(u, u) == 0
            for v in range(n):
                assert t.dist(u, v) == t.dist(v, u)
                for w in range(n):
                    if t.dist(u, w) != INF and t.dist(w, v) != INF:
                        assert t.dist(u, v) <= t.dist(u, w) + t.dist(w, v)

    @given(strategy_profiles())
    def test_against_oracle_bfs(self, profile):
        t = all_pairs_distances(build_graph(profile))
        adj = oracles.adjacency(profile.n, profile.buys)
        for u in range(profile.n):
            dist = oracles.bfs_distances(adj, u)
            for v in range(profile.n):
                assert t.dist(u, v) == dist.get(v, INF)


class TestMetrics:
    def test_star(self):
        profile = StrategyProfile.from_sets([{4}, {4}, {4}, {4}, set()])
        m = metrics(all_pairs_distances(build_graph(profile)))
        assert m.ecc[4] == 1 and m.radius == 1 and m.diameter == 2
        assert m.centers == frozenset({4})

    def test_path3(self):
        m = metrics(all_pairs_distances(build_graph(
            StrategyProfile.from_sets([{1}, {2}, set()]))))
        assert m.radius == 1 and m.diameter == 2 and m.centers == frozenset({1})

    def test_disconnected_all_infinite(self):
        m = metrics(all_pairs_distances(build_graph(
            StrategyProfile.from_sets([{1}, set(), set()]))))
        assert m.radius == INF and m.diameter == INF
        assert all(e == INF for e in m.ecc)

    @given(strategy_profiles())
    def test_radius_diameter_sandwich(self, profile):
        m = metrics(all_pairs_distances(build_graph(profile)))
        if m.is_connected():
            assert m.radius <= m.diameter <= 2 * m.radius
            assert m.centers


class TestCosts:
    def test_leaf_cost(self):
        cfg = GameConfig(3, Fraction(5))
        profile = StrategyProfile.from_sets([{1}, set(), {1}])
        c = agent_cost(cfg, profile, 0)
        assert (c.creation, c.usage, c.total) == (5, 2, 7)

    def test_center_cost(self):
        cfg = GameConfig(3, Fraction(5))
        profile = StrategyProfile.from_sets([{1}, set(), {1}])
        c = agent_cost(cfg, profile, 1)
        assert (c.creation, c.usage, c.total) == (0, 1, 1)

    def test_isolated_agent_infinite(self):
        cfg = GameConfig(3, Fraction(5))
        profile = StrategyProfile.from_sets([{1}, set(), set()])
        assert agent_cost(cfg, profile, 2).total == INF

    def test_social_cost_star(self):
        cfg = GameConfig(5, Fraction(1))
        profile = StrategyProfile.from_sets([{4}, {4}, {4}, {4}, set()])
        assert social_cost(cfg, profile) == 13

    def test_social_cost_clique(self):
        cfg = GameConfig(5, Fraction(1, 4))
        profile = StrategyProfile.from_sets(
            [set(range(i + 1, 5)) for i in range(5)])
        assert social_cost(cfg, profile) == Fraction(15, 2)

    def test_social_cost_counts_double_purchases(self):
        cfg = GameConfig(2, Fraction(1))
        profile = StrategyProfile.from_sets([{1}, {0}])
        assert social_cost(cfg, profile) == 4

    @given(strategy_profiles(), alphas)
    def test_social_is_sum_of_agent_costs(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        total = sum(agent_cost(cfg, profile, v).total for v in range(profile.n))
        assert social_cost(cfg, profile) == total

    @given(strategy_profiles(min_n=2), alphas, st.randoms(use_true_random=False))
    def test_added_purchase_raises_creation_by_alpha(self, profile, alpha, rnd):
        cfg = GameConfig(profile.n, alpha)
        v = rnd.randrange(profile.n)
        missing = sorted(set(range(profile.n)) - {v} - set(profile.buys[v]))
        if not missing:
            return
        w = rnd.choice(missing)
        bigger = profile.with_strategy(v, set(profile.buys[v]) | {w})
        before = agent_cost(cfg, profile, v)
        after = agent_cost(cfg, bigger, v)
        assert after.creation == before.creation + alpha

    @given(strategy_profiles(), alphas)
    def test_costs_match_oracle(self, profile, alpha):
        cfg = GameConfig(profile.n, alpha)
        for v in range(profile.n):
            assert agent_cost(cfg, profile, v).total == oracles.agent_cost(
                profile.n, alpha, profile.buys, v)
