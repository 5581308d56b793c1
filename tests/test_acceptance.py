"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines). All comparisons involving costs and
thresholds are exact rational comparisons; no tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import oracles
from conftest import (directed_cycle_profile, profiles_of,
                      random_connected_graph_edges)
from ncg.cli import main
from ncg.game import GameConfig, StrategyProfile, build_graph, social_cost
from ncg.equilibrium import (enumerate_equilibria, improving_move_heuristic,
                             is_nash, verify_witness)
from ncg.optimum import (optimum_analytic, optimum_bruteforce,
                         price_of_anarchy, tree_poa_certificate)
from ncg.structure import (audit_equilibrium_structure, biconnected_components,
                           girth, is_min_cycle, min_cycle_through_edge)

_ENUM_CACHE = {}


def enum(n, alpha):
    key = (n, alpha)
    if key not in _ENUM_CACHE:
        _ENUM_CACHE[key] = enumerate_equilibria(GameConfig(n, alpha))
    return _ENUM_CACHE[key]


def test_criterion_1_tree_theorem_at_desk_scale():
    slowest = 0.0
    for n in (3, 4, 5):
        for alpha in (Fraction(20), Fraction(25), Fraction(100)):
            t0 = time.perf_counter()
            result = enum(n, alpha)
            slowest = max(slowest, time.perf_counter() - t0)
            assert result.codes, f"no equilibria at n={n}, alpha={alpha}"
            assert result.nontree_count == 0, \
                f"non-tree equilibrium at n={n}, alpha={alpha}"
            assert slowest < 60.0
    print(f"CRITERION 1 (tree theorem): PASS - all equilibria are trees for "
          f"n in {{3,4,5}}, alpha in {{20,25,100}}; slowest run {slowest:.2f}s")


def test_criterion_2_lemma_audit_closure():
    audited = vacuous_total = 0
    jobs = [(n, a) for n in (3, 4, 5) for a in (Fraction(20), Fraction(25), Fraction(100))]
    jobs += [(n, a) for n in (2, 3, 4, 5) for a in (Fraction(3), Fraction(6), Fraction(25))]
    for n, alpha in jobs:
        cfg = GameConfig(n, alpha)
        for profile in profiles_of(n, enum(n, alpha).codes):
            report = audit_equilibrium_structure(cfg, profile)
            failures = report.failures()
            assert not failures, (
                f"audit failure at n={n}, alpha={alpha}, "
                f"profile={profile.ownership_code()}: "
                f"{[(r.check_id, [w.summary for w in r.witnesses]) for r in failures]}")
            audited += 1
            vacuous_total += sum(1 for r in report.records if r.vacuous)
    assert audited > 1000
    assert vacuous_total > 0  # vacuous passes occur and are labeled as such
    print(f"CRITERION 2 (lemma audit closure): PASS - {audited} equilibria "
          f"audited with zero applicable-check failures "
          f"({vacuous_total} vacuous labels)")


def test_criterion_3_poa_bounds():
    # alpha = (1/2) * 1/(n-2): the price of anarchy is exactly 1
    for n in (4, 5):
        alpha = Fraction(1, 2 * (n - 2))
        cfg = GameConfig(n, alpha)
        result = enum(n, alpha)
        report = price_of_anarchy(cfg, prices=result.prices)
        assert report.equilibria_considered > 0
        assert report.poa == 1, f"poa {report.poa} != 1 at n={n}, alpha={alpha}"
        assert report.optimum_cost == optimum_bruteforce(cfg).cost
    # alpha in {20, 25}: poa < 3 and every tree equilibrium certifies
    certified = 0
    for n in (4, 5):
        for alpha in (Fraction(20), Fraction(25)):
            cfg = GameConfig(n, alpha)
            result = enum(n, alpha)
            report = price_of_anarchy(cfg, prices=result.prices)
            assert report.poa is not None and report.poa < 3
            assert report.optimum_cost == optimum_bruteforce(cfg).cost
            assert result.nontree_count == 0
            for profile in profiles_of(n, result.codes):
                cert = tree_poa_certificate(cfg, profile)
                assert cert.passed()
                assert Fraction(cert.diameter) <= 2 * alpha + 3
                certified += 1
    print(f"CRITERION 3 (PoA bounds): PASS - poa=1 at alpha=1/(2(n-2)); "
          f"poa<3 with diameter <= 2*alpha+3 on {certified} tree equilibria")


def test_criterion_4_optimum_oracle_agreement():
    checked = 0
    grid = [Fraction(1, 4), Fraction(1, 3), Fraction(1), Fraction(2),
            Fraction(3), Fraction(25)]
    for n in range(1, 7):
        boundary = [Fraction(2, n - 2)] if n >= 3 else []
        for alpha in grid + boundary:
            cfg = GameConfig(n, alpha)
            analytic = optimum_analytic(cfg)
            brute = optimum_bruteforce(cfg)
            assert analytic.cost == brute.cost, (n, alpha, analytic.cost, brute.cost)
            assert social_cost(cfg, analytic.witness) == analytic.cost
            assert social_cost(cfg, brute.witness) == brute.cost
            checked += 1
    print(f"CRITERION 4 (optimum oracle agreement): PASS - analytic equals "
          f"brute force on {checked} (n, alpha) instances including boundaries")


def test_criterion_5_verifier_equivalence():
    decided = disagreements = 0
    for alpha in (Fraction(1, 3), Fraction(2), Fraction(5), Fraction(25)):
        for n in (1, 2, 3, 4):
            cfg = GameConfig(n, alpha)
            pair_count = n * (n - 1) // 2
            for digits in itertools.product("012", repeat=pair_count):
                profile = StrategyProfile.from_ownership_code(n, "".join(digits))
                mine = is_nash(cfg, profile).is_nash
                theirs = oracles.is_nash(n, alpha, profile.buys)
                decided += 1
                if mine != theirs:
                    disagreements += 1
    assert disagreements == 0
    print(f"CRITERION 5 (verifier equivalence): PASS - {decided} profiles "
          f"decided, zero disagreements with the independent oracle")


def test_criterion_6_witness_soundness_fuzz():
    rng = random.Random(0xC0FFEE)
    alpha_pool = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(7, 2), Fraction(5), Fraction(12),
                  Fraction(25), Fraction(101, 3)]
    profiles_run = 100_000
    emitted = 0
    for i in range(profiles_run):
        n = rng.randint(2, 8)
        alpha = rng.choice(alpha_pool)
        cfg = GameConfig(n, alpha)
        buys = [set() for _ in range(n)]
        density = rng.random()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    roll = rng.random()
                    if roll < 0.06:
                        buys[u].add(v)
                        buys[v].add(u)
                    elif roll < 0.53:
                        buys[u].add(v)
                    else:
                        buys[v].add(u)
        profile = StrategyProfile.from_sets(buys)
        witnesses = []
        w = improving_move_heuristic(cfg, profile, rng.randrange(n))
        if w is not None:
            witnesses.append(w)
        if n <= 5 and i % 200 == 0:
            report = is_nash(cfg, profile)
            if report.witness is not None:
                witnesses.append(report.witness)
        for w in witnesses:
            emitted += 1
            # recompute both costs from scratch with the independent oracle
            old = oracles.agent_cost(n, alpha, profile.buys, w.agent)
            new_profile = profile.with_strategy(w.agent, w.new_strategy)
            new = oracles.agent_cost(n, alpha, new_profile.buys, w.agent)
            assert old == w.old_cost and new == w.new_cost and new < old
            assert verify_witness(cfg, profile, w)
    assert emitted >= 10_000
    print(f"CRITERION 6 (witness soundness): PASS - {emitted} witnesses from "
          f"{profiles_run} fuzzed profiles all re-verify")


def _all_graph_edge_sets(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]


def _check_structure_against_oracle(n, edges, check_all_edges):
    buys = [set() for _ in range(n)]
    for u, v in edges:
        buys[u].add(v)
    profile = StrategyProfile.from_sets(buys)
    graph = build_graph(profile)
    adj = oracles.adjacency(n, profile.buys)
    cycles = oracles.all_simple_cycles(n, adj)
    # girth
    expect_girth = min((len(c) for c in cycles), default=None)
    assert girth(graph) == expect_girth
    # biconnected decomposition
    got = sorted((c.vertices, c.edges) for c in biconnected_components(graph))
    want = sorted(oracles.biconnected_components(n, adj))
    assert got == want
    # min cycles through edges satisfy the min property (also asserted inside)
    edge_list = sorted(graph.edges)
    if not check_all_edges and len(edge_list) > 3:
        edge_list = edge_list[:3]
    for e in edge_list:
        mc = min_cycle_through_edge(graph, e)
        if mc is not None:
            assert is_min_cycle(graph, mc.vertices)


def test_criterion_7_structural_algorithm_oracles():
    exhaustive = 0
    for n in range(1, 6):
        for edges in _all_graph_edge_sets(n):
            buys = [set() for _ in range(n)]
            for u, v in edges:
                buys[u].add(v)
            adj = oracles.adjacency(n, buys)
            if len(oracles.bfs_distances(adj, 0)) != n:
                continue  # only connected graphs
            _check_structure_against_oracle(n, edges, check_all_edges=True)
            exhaustive += 1
    sampled = 10_000
    rng = random.Random(48879)
    for _ in range(sampled):
        n = rng.choice((6, 7))
        edges = random_connected_graph_edges(rng, n)
        _check_structure_against_oracle(n, sorted(edges), check_all_edges=False)
    assert exhaustive >= 750
    print(f"CRITERION 7 (structural oracles): PASS - {exhaustive} exhaustive "
          f"graphs (n<=5) plus {sampled} random graphs (n in {{6,7}}) agree")


def test_criterion_8_negative_controls():
    for n in (3, 4):
        cfg = GameConfig(n, Fraction(5))
        profile = directed_cycle_profile(n)
        report = is_nash(cfg, profile)
        assert not report.is_nash
        w = report.witness
        assert set(w.new_strategy) < set(w.old_strategy), "expected a removal"
        assert verify_witness(cfg, profile, w)
        audit = audit_equilibrium_structure(cfg, profile)
        rec = audit.record("girth_alpha_plus_2")
        assert rec.applicable and rec.passed is False and rec.witnesses
        assert len(rec.witnesses[0].payload) == n
    print("CRITERION 8 (negative controls): PASS - directed C3/C4 at alpha=5 "
          "rejected with removal witnesses and girth violations flagged")


def test_criterion_9_determinism(tmp_path):
    def digest(args):
        out = tmp_path / f"out{digest.counter}.csv"
        digest.counter += 1
        assert main([*args, "--out", str(out)]) == 0
        return out.read_bytes()

    digest.counter = 0
    enum_runs = [digest(["enumerate", "--n", "4", "--alpha", "25",
                         "--workers", w]) for w in ("1", "4", "1", "4")]
    assert len(set(enum_runs)) == 1
    search_runs = [digest(["search", "--n", "5", "--alpha", "1/2", "--seed", "11",
                           "--iters", "60", "--workers", w]) for w in ("1", "4", "1")]
    assert len(set(search_runs)) == 1
    dyn_runs = [digest(["dynamics", "--n", "4", "--alpha", "2", "--seed", "9",
                        "--schedule", "rand", "--budget", "200"]) for _ in range(2)]
    assert len(set(dyn_runs)) == 1
    print("CRITERION 9 (determinism): PASS - enumerate/search/dynamics CSVs "
          "byte-identical across repeats and worker counts 1 vs 4")
