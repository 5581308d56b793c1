from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from conftest import directed_cycle_profile, profiles_of
from ncg import equilibrium, optimum
from ncg.cli import main
from ncg.errors import NotEquilibrium, NotTree, SizeGuard
from ncg.game import INF, GameConfig, StrategyProfile, build_graph, eccentricity, social_cost
from ncg.equilibrium import enumerate_equilibria
from ncg.optimum import (clique_profile, optimum_analytic, optimum_bruteforce,
                         price_of_anarchy, star_profile, tree_poa_certificate)

ALPHA_GRID = [Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(2),
              Fraction(3), Fraction(25)]


class TestOptimumAnalytic:
    def test_star_regime(self):
        r = optimum_analytic(GameConfig(5, Fraction(1)))
        assert r.cost == 13
        assert build_graph(r.witness).is_tree()

    def test_clique_regime(self):
        r = optimum_analytic(GameConfig(5, Fraction(1, 4)))
        assert r.cost == Fraction(15, 2)
        assert build_graph(r.witness).edge_count() == 10

    def test_boundary_prefers_star(self):
        r = optimum_analytic(GameConfig(4, Fraction(1)))  # alpha == 2/(n-2)
        assert r.cost == 10
        assert r.witness == star_profile(4)

    def test_witness_realizes_cost(self):
        for n in range(1, 7):
            for alpha in ALPHA_GRID:
                cfg = GameConfig(n, alpha)
                r = optimum_analytic(cfg)
                assert social_cost(cfg, r.witness) == r.cost


@pytest.fixture(scope="module")
def atlas_costs():
    """(edge count, eccentricity sum) of every connected atlas graph, by
    order: networkx's ``graph_atlas_g()`` lists every graph on up to 7
    vertices, one per isomorphism class."""
    costs = {}
    for g in nx.graph_atlas_g():
        if len(g) and nx.is_connected(g):
            costs.setdefault(len(g), []).append(
                (g.number_of_edges(), sum(nx.eccentricity(g).values())))
    return costs


@pytest.mark.parametrize("n", range(1, 8))
def test_analytic_is_the_minimum_over_the_atlas(atlas_costs, n):
    # An oracle that shares no code with the package and reaches n = 7,
    # past brute force's size guard.
    assert len(atlas_costs[n]) == [1, 1, 2, 6, 21, 112, 853][n - 1]
    boundary = [Fraction(2, n - 2)] if n >= 3 else []
    for alpha in ALPHA_GRID + boundary:
        best = min(alpha * edges + usage for edges, usage in atlas_costs[n])
        assert best == optimum_analytic(GameConfig(n, alpha)).cost


def _labeled_graphs(n):
    """(edge bitmask, edge count, usage) of every connected labeled graph,
    bit i for the i-th pair, in ascending bitmask order."""
    pairs = list(combinations(range(n), 2))
    graphs = []
    for bits in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (bits >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        usage = sum(eccentricity(adj, v, n) for v in range(n))
        if usage != INF:
            graphs.append((bits, bin(bits).count("1"), usage))
    return graphs


def _labeled_optimum(config, graphs):
    """Reference: optimum_bruteforce's former loop over the labeled graphs,
    keeping the first (smallest) bitmask of least cost."""
    n = config.n
    best_cost, best_edges = None, None
    for bits, edge_count, usage in graphs:
        cost = config.alpha * edge_count + usage
        if best_cost is None or cost < best_cost:
            best_cost, best_edges = cost, bits
    buys = [set() for _ in range(n)]
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if (best_edges >> i) & 1:
            buys[u].add(v)
    return best_cost, StrategyProfile.from_sets(buys)


class TestOptimumBruteforce:
    def test_matches_analytic_star_case(self):
        cfg = GameConfig(4, Fraction(3))
        assert optimum_bruteforce(cfg).cost == optimum_analytic(cfg).cost

    def test_matches_analytic_clique_case(self):
        cfg = GameConfig(5, Fraction(1, 4))
        assert optimum_bruteforce(cfg).cost == optimum_analytic(cfg).cost

    def test_n3_crossover_at_two(self):
        # star costs 2a + 5, triangle 3a + 3; they cross at alpha = 2
        for alpha, expected in [(Fraction(1), 6), (Fraction(2), 9), (Fraction(4), 13)]:
            r = optimum_bruteforce(GameConfig(3, alpha))
            assert r.cost == expected == min(2 * alpha + 5, 3 * alpha + 3)

    def test_witness_realizes_cost(self):
        cfg = GameConfig(5, Fraction(1, 2))
        r = optimum_bruteforce(cfg)
        assert social_cost(cfg, r.witness) == r.cost

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            optimum_bruteforce(GameConfig(7, Fraction(1)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agreement_across_grid(self, n):
        boundary = [Fraction(2, n - 2)] if n >= 3 else []
        for alpha in ALPHA_GRID + boundary:
            cfg = GameConfig(n, alpha)
            assert optimum_bruteforce(cfg).cost == optimum_analytic(cfg).cost

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_same_cost_and_witness_as_labeled_loop(self, n):
        boundary = [Fraction(2, n - 2)] if n >= 3 else []
        graphs = _labeled_graphs(n)
        for alpha in ALPHA_GRID + boundary:
            cfg = GameConfig(n, alpha)
            result = optimum_bruteforce(cfg)
            assert (result.cost, result.witness) == _labeled_optimum(cfg, graphs)


class TestPriceOfAnarchy:
    def test_small_alpha_poa_is_one(self):
        report = price_of_anarchy(GameConfig(4, Fraction(1, 3)))
        assert report.poa == 1 and report.exhaustive

    def test_high_alpha_poa_below_three(self):
        for n in (3, 5):
            report = price_of_anarchy(GameConfig(n, Fraction(25)))
            assert report.equilibria_considered > 0
            assert 1 <= report.poa < 3

    def test_supplied_equilibria_mode(self):
        cfg = GameConfig(5, Fraction(25))
        prices = enumerate_equilibria(cfg).prices[:10]
        report = price_of_anarchy(cfg, prices=prices)
        assert not report.exhaustive
        assert report.equilibria_considered == 10
        assert report.worst_equilibrium_cost == max(p.social_cost for p in prices)

    def test_runs_no_brute_force(self, monkeypatch, tmp_path):
        def refuse(config):
            raise AssertionError("the price of anarchy ran the brute-force optimum")
        monkeypatch.setattr(optimum, "optimum_bruteforce", refuse)
        report = price_of_anarchy(GameConfig(5, Fraction(2)))
        assert (report.worst_equilibrium_cost, report.optimum_cost) == (24, 17)
        assert main(["poa", "--n", "5", "--alpha", "2", "--out", str(tmp_path / "poa.csv")]) == 0

    def test_empty_equilibrium_list_reports_undefined(self):
        report = price_of_anarchy(GameConfig(5, Fraction(25)), prices=[])
        assert report.poa is None and report.worst_equilibrium_cost is None

    def test_poa_at_least_one_when_nonempty(self):
        for alpha in (Fraction(1, 2), Fraction(2), Fraction(25)):
            report = price_of_anarchy(GameConfig(4, alpha))
            if report.equilibria_considered:
                assert report.poa >= 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_alpha_regimes_exhaustively(self, n):
        # below 1/(n-2): every equilibrium already optimal
        low = Fraction(1, 2 * (n - 2))
        report = price_of_anarchy(GameConfig(n, low))
        assert report.equilibria_considered and report.poa == 1
        # below 2/(n-2): within a factor of two
        mid = Fraction(3, 2 * (n - 2))
        report = price_of_anarchy(GameConfig(n, mid))
        if report.equilibria_considered:
            assert report.poa <= 2


def _count_class_lists(monkeypatch) -> list:
    """Record each connected_classes call of the enumeration and optimum."""
    calls = []
    classes = optimum.connected_classes
    for module in (equilibrium, optimum):
        monkeypatch.setattr(module, "connected_classes",
                            lambda n: calls.append(n) or classes(n))
    return calls


class TestOneClassList:
    def test_poa_builds_the_classes_once(self, monkeypatch):
        calls = _count_class_lists(monkeypatch)
        report = price_of_anarchy(GameConfig(5, Fraction(2)))
        assert calls == [5]
        assert (report.worst_equilibrium_cost, report.optimum_cost) == (24, 17)

    def test_poa_guard_fires_before_any_class(self, monkeypatch, tmp_path):
        calls = _count_class_lists(monkeypatch)
        rc = main(["poa", "--n", "7", "--alpha", "2", "--out", str(tmp_path / "x.csv")])
        assert rc == 5
        assert calls == []


class TestTreePoaCertificate:
    def test_leaves_pay_star(self):
        cfg = GameConfig(5, Fraction(3))
        cert = tree_poa_certificate(cfg, star_profile(5))
        assert cert.passed()
        assert cert.diameter == 2 and cert.diameter_bound == 9
        assert cert.ratio == 1

    def test_rejects_non_tree(self):
        cfg = GameConfig(5, Fraction(1, 4))
        with pytest.raises(NotTree):
            tree_poa_certificate(cfg, clique_profile(5))

    def test_rejects_non_equilibrium(self):
        cfg = GameConfig(3, Fraction(1, 10))
        path = StrategyProfile.from_sets([{1}, {2}, set()])
        with pytest.raises(NotEquilibrium):
            tree_poa_certificate(cfg, path)

    def test_all_tree_equilibria_certify(self):
        cfg = GameConfig(4, Fraction(25))
        result = enumerate_equilibria(cfg)
        assert result.nontree_count == 0
        for profile in profiles_of(4, result.codes):
            cert = tree_poa_certificate(cfg, profile)
            assert cert.passed()
            assert Fraction(cert.diameter) <= 2 * cfg.alpha + 3
