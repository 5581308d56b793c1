import random
from fractions import Fraction

import hypothesis
from hypothesis import strategies as st

from ncg.game import StrategyProfile

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("thorough", max_examples=400)

ALPHAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1),
          Fraction(2), Fraction(5, 2), Fraction(5), Fraction(19, 2), Fraction(25)]

alphas = st.sampled_from(ALPHAS)


@st.composite
def strategy_profiles(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    buys = []
    for i in range(n):
        others = sorted(set(range(n)) - {i})
        chosen = draw(st.sets(st.sampled_from(others))) if others else set()
        buys.append(chosen)
    return StrategyProfile.from_sets(buys)


def profiles_of(n, codes):
    """The profiles of ownership codes, as enumeration and search report them."""
    return [StrategyProfile.from_ownership_code(n, code) for code in codes]


def directed_cycle_profile(n):
    return StrategyProfile.from_sets([{(i + 1) % n} for i in range(n)])


def random_profile(rng: random.Random, n: int, allow_double=False) -> StrategyProfile:
    density = rng.uniform(0.1, 0.9)
    buys = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                pick = rng.random()
                if allow_double and pick < 0.08:
                    buys[u].add(v)
                    buys[v].add(u)
                elif pick < 0.54:
                    buys[u].add(v)
                else:
                    buys[v].add(u)
    return StrategyProfile.from_sets(buys)


def random_connected_graph_edges(rng: random.Random, n: int):
    """Edge set of a random connected graph: a random spanning tree plus
    Bernoulli extras."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a = order[rng.randrange(i)]
        b = order[i]
        edges.add((min(a, b), max(a, b)))
    p = rng.uniform(0.05, 0.45)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return edges


def profile_from_edges(n, edges, rng=None) -> StrategyProfile:
    buys = [set() for _ in range(n)]
    for u, v in edges:
        if rng is not None and rng.random() < 0.5:
            buys[v].add(u)
        else:
            buys[u].add(v)
    return StrategyProfile.from_sets(buys)
