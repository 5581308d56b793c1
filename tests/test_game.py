import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncg
import oracles
from conftest import alphas, strategy_profiles
from ncg.errors import SizeGuard
from ncg.game import (ALPHA_MAX_BITS, INF, MAX_AGENTS, GameConfig, OwnedGraph,
                      StrategyProfile, _buys_masks, _decode, _digit_table, _encode, agent_cost,
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

    def test_alpha_bit_bound(self):
        # More bits would overflow the float INF that a disconnected agent's
        # scaled cost p*k + q*e is added to.
        big = 2 ** ALPHA_MAX_BITS - 1
        for alpha in (Fraction(big), Fraction(1, big), Fraction(big, big - 2)):
            assert GameConfig(3, alpha).alpha == alpha
        for alpha in (Fraction(big + 1), Fraction(1, big + 1), 10 ** 400,
                      Fraction(1, 10 ** 400), Fraction("1e400")):
            with pytest.raises(ValueError, match=f"at most {ALPHA_MAX_BITS} bits"):
                GameConfig(3, alpha)
        with pytest.raises(ValueError, match="bits"):
            GameConfig(3, Fraction(1))._replace(alpha=Fraction(10 ** 400))

    @pytest.mark.parametrize("alpha", [Fraction(2 ** ALPHA_MAX_BITS - 1),
                                       Fraction(1, 2 ** ALPHA_MAX_BITS - 1)])
    def test_costs_at_the_alpha_bound_saturate(self, alpha):
        cfg = GameConfig(4, alpha)
        cut = StrategyProfile.from_sets([{1}, set(), {3}, set()])
        assert agent_cost(cfg, cut, 0) == (alpha, INF, INF)
        assert social_cost(cfg, cut) == INF

    def test_agent_count_bound(self):
        assert GameConfig(MAX_AGENTS, Fraction(1)).n == MAX_AGENTS
        with pytest.raises(SizeGuard):
            GameConfig(MAX_AGENTS + 1, Fraction(1))

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


class TestOwnershipCodec:
    """The mask-level encoder and decoder against the reference encoder."""

    @given(strategy_profiles(max_n=8))
    @example(StrategyProfile.from_sets([{1, 3}, {0}, set(), set(), {2}]))  # 0-1 twice
    @example(StrategyProfile.from_sets([{2}, set(), {0}, set()]))  # 1 and 3 isolated
    @example(StrategyProfile.empty(1))
    @settings(max_examples=150, deadline=None)
    def test_against_reference_encoder(self, profile):
        n = profile.n
        code = oracles.ownership_code(n, profile.buys)
        masks = _buys_masks(profile)
        assert _encode(masks) == profile.ownership_code() == code
        assert _decode(n, code) == masks
        assert StrategyProfile.from_ownership_code(n, code) == profile
        digit = _digit_table(masks, n)
        for (u, v), d in zip(combinations(range(n), 2), code):
            assert digit[u][v] == d and digit[v][u] == "0213"[int(d)]

    @pytest.mark.parametrize("n, code", [(3, "30"), (3, "3010"), (1, "0"), (0, "1"),
                                         (3, "304"), (3, "3-1"), (2, "x"), (4, "00 000"),
                                         (-1, "0"), (-2, "000")])
    def test_rejects_wrong_length_or_digit(self, n, code):
        with pytest.raises(ValueError, match="bad ownership code"):
            StrategyProfile.from_ownership_code(n, code)


class TestBuildGraph:
    def test_single_buyer(self):
        g = build_graph(StrategyProfile.from_sets([{1}, set()]))
        assert g.edges == frozenset({(0, 1)})
        assert g.buys == (0b10, 0)

    def test_double_purchase_single_edge(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {0}]))
        assert g.edges == frozenset({(0, 1)})
        assert g.buys == (0b10, 0b01)

    def test_path(self):
        g = build_graph(StrategyProfile.from_sets([{1}, {2}, set()]))
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.buys == (0b010, 0b100, 0)

    @pytest.mark.parametrize("buys", [
        [0b011, 0, 0],   # vertex 0 buys itself
        [0b1000, 0, 0],  # bit 3 of three vertices
        [-1, 0, 0],
        [2.0, 0, 0],
    ], ids=["own-bit", "bit-at-n", "negative", "float"])
    def test_bad_purchase_masks_rejected(self, buys):
        with pytest.raises(ValueError, match="bad purchase mask"):
            OwnedGraph(buys)

    @given(strategy_profiles())
    def test_deterministic_and_owner_nonempty(self, profile):
        g = build_graph(profile)
        assert build_graph(profile).edges == g.edges
        assert g.buys == tuple(_buys_masks(profile))
        want = oracles.adjacency(profile.n, profile.buys)
        assert [set(g.neighbors(v)) for v in range(g.n)] == [want[v] for v in range(g.n)]
        for u, v in g.edges:
            assert g.buys[u] >> v & 1 or g.buys[v] >> u & 1

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
        assert all_pairs_distances(g)[0][2] == 2

    def test_disconnected_infinite(self):
        g = build_graph(StrategyProfile.from_sets([set(), set()]))
        assert all_pairs_distances(g)[0][1] == INF

    def test_clique_distances(self):
        g = build_graph(StrategyProfile.from_sets(
            [set(range(i + 1, 4)) for i in range(4)]))
        t = all_pairs_distances(g)
        for u in range(4):
            for v in range(4):
                assert t[u][v] == (0 if u == v else 1)

    @given(strategy_profiles())
    def test_symmetry_zero_diagonal_triangle(self, profile):
        t = all_pairs_distances(build_graph(profile))
        n = profile.n
        for u in range(n):
            assert t[u][u] == 0
            for v in range(n):
                assert t[u][v] == t[v][u]
                for w in range(n):
                    if t[u][w] != INF and t[w][v] != INF:
                        assert t[u][v] <= t[u][w] + t[w][v]

    @given(strategy_profiles())
    def test_against_oracle_bfs(self, profile):
        t = all_pairs_distances(build_graph(profile))
        adj = oracles.adjacency(profile.n, profile.buys)
        for u in range(profile.n):
            dist = oracles.bfs_distances(adj, u)
            for v in range(profile.n):
                assert t[u][v] == dist.get(v, INF)


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


# Agent 0 owns the first link of a 4-path; every link is bought by its lower end.
_PATH_4 = StrategyProfile.from_sets([{1}, {2}, {3}, set()])
_DROP_TO_2 = ncg.DeviationWitness(0, (1,), (2,), Fraction(33), Fraction(32))

# Every public function that takes a GameConfig and a StrategyProfile.
_CONFIG_PROFILE_CALLS = {
    "agent_cost": lambda cfg, p: ncg.agent_cost(cfg, p, 0),
    "social_cost": ncg.social_cost,
    "is_nash": ncg.is_nash,
    "best_response_exact": lambda cfg, p: ncg.best_response_exact(cfg, p, 0),
    "improving_move_heuristic": lambda cfg, p: ncg.improving_move_heuristic(cfg, p, 0),
    "best_response_dynamics": ncg.best_response_dynamics,
    "verify_witness": lambda cfg, p: ncg.verify_witness(cfg, p, _DROP_TO_2),
    "audit_equilibrium_structure": ncg.audit_equilibrium_structure,
    "lemma_crucial_deviation": lambda cfg, p: ncg.lemma_crucial_deviation(cfg, p, 0, 2),
    "tree_poa_certificate": ncg.tree_poa_certificate,
}


class TestProfileSizeChecked:
    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("name", sorted(_CONFIG_PROFILE_CALLS))
    def test_size_mismatch_raises(self, name, n):
        # One message from the one check, before any work on the profile.
        with pytest.raises(ValueError, match="profile has 4 agents but the config has n = "):
            _CONFIG_PROFILE_CALLS[name](GameConfig(n, Fraction(30)), _PATH_4)

    @pytest.mark.parametrize("name", sorted(_CONFIG_PROFILE_CALLS))
    def test_matching_size_accepted(self, name):
        # The same calls go through at n = 4; the path is a tree but no
        # equilibrium at alpha 30, so the certificate refuses it by name.
        call = _CONFIG_PROFILE_CALLS[name]
        if name == "tree_poa_certificate":
            with pytest.raises(ncg.NotEquilibrium):
                call(GameConfig(4, Fraction(30)), _PATH_4)
        else:
            call(GameConfig(4, Fraction(30)), _PATH_4)


# Every public function that takes an agent index, or a vertex of the
# induced graph, called with agent v.
_AGENT_CALLS = {
    "agent_cost": ncg.agent_cost,
    "best_response_exact": ncg.best_response_exact,
    "improving_move_heuristic": ncg.improving_move_heuristic,
    "verify_witness": lambda cfg, p, v: ncg.verify_witness(
        cfg, p, ncg.DeviationWitness(v, (), (0,), Fraction(0), Fraction(0))),
    "lemma_crucial_deviation_a": lambda cfg, p, v: ncg.lemma_crucial_deviation(cfg, p, v, 2),
    "lemma_crucial_deviation_b": lambda cfg, p, v: ncg.lemma_crucial_deviation(cfg, p, 0, v),
    "has_edge_u": lambda cfg, p, v: build_graph(p).has_edge(v, 0),
    "has_edge_v": lambda cfg, p, v: build_graph(p).has_edge(0, v),
    "degree": lambda cfg, p, v: build_graph(p).degree(v),
    "neighbors": lambda cfg, p, v: build_graph(p).neighbors(v),
    "shortest_path_tree": lambda cfg, p, v: ncg.shortest_path_tree(build_graph(p), v),
    "min_cycle_through_edge": lambda cfg, p, v: ncg.min_cycle_through_edge(
        build_graph(p), (v, 0)),
    "is_min_cycle": lambda cfg, p, v: ncg.is_min_cycle(build_graph(p), [v, 0, 1, 2]),
    "with_strategy": lambda cfg, p, v: p.with_strategy(v, [0]),
}


class TestAgentRangeChecked:
    @pytest.mark.parametrize("v", [4, 7, -1])
    @pytest.mark.parametrize("name", sorted(_AGENT_CALLS))
    def test_out_of_range_raises(self, name, v):
        # One message from the one check; a negative index is never read
        # from the end of the profile or of the adjacency rows.
        with pytest.raises(ValueError, match=f"agent {v} out of range for n = 4"):
            _AGENT_CALLS[name](GameConfig(4, Fraction(30)), _PATH_4, v)
