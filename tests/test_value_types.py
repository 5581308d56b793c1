"""The result and config types are immutable, hashable NamedTuples.

One sample of each public value type pins its repr, and checks that its
hash is the hash of the tuple of its fields (so set and dict orders, and
every output built from them, stay put), that its fields cannot be set and
that it survives a pickle round trip, as search's worker pool needs.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import ncg
from ncg.cli import ExperimentConfig, RunManifest
from ncg.equilibrium import (DeviationWitness, DynamicsStep, DynamicsTrace,
                             EnumerationResult, EnumerationStats,
                             EquilibriumReport, ProfilePrice)
from ncg.game import (INF, CostBreakdown, GameConfig, Metrics, StrategyProfile,
                      build_graph)
from ncg.optimum import OptimumResult, PoAReport, TreePoaCertificate
from ncg.structure import (BiconnectedComponent, CheckRecord, ClosestAssignment,
                           CrucialDeviation, LemmaReport, MinCycle,
                           ShoppingVertexSet, ShortestPathTree, TwoDegreePath,
                           Witness, biconnected_components)

_PATH = StrategyProfile.from_sets([{1}, {2}, set()])
_TRIANGLE = StrategyProfile.from_sets([{1}, {2}, {0}])
_STEP = DynamicsStep(index=0, agent=2, old_cost=INF, new_cost=Fraction(3),
                     new_strategy=(0,))
_STATS = EnumerationStats(classes=2, content_checks=5, orientations_tried=9,
                          profiles_expanded=12)
_WITNESS = Witness(kind="cycle", payload=(0, 1, 2), summary="a triangle")
_RECORD = CheckRecord(check_id="girth", applicable=True, passed=False,
                      vacuous=False, witnesses=(_WITNESS,), detail="girth 3")

SAMPLES = {
    "GameConfig": lambda: GameConfig(3, Fraction(5, 2)),
    "StrategyProfile": lambda: _PATH,
    "Metrics": lambda: Metrics(ecc=(2, 1, 2), radius=1, diameter=2,
                               centers=frozenset({1})),
    "CostBreakdown": lambda: CostBreakdown(creation=Fraction(5, 2), usage=2,
                                           total=Fraction(9, 2)),
    "DeviationWitness": lambda: DeviationWitness(
        agent=0, old_strategy=(1,), new_strategy=(1, 2), old_cost=Fraction(9, 2),
        new_cost=Fraction(4)),
    "EquilibriumReport": lambda: EquilibriumReport(
        is_nash=True, witness=None, per_agent_best=(Fraction(9, 2), Fraction(1))),
    "DynamicsStep": lambda: _STEP,
    "DynamicsTrace": lambda: DynamicsTrace(steps=(_STEP,), outcome="converged",
                                           final_profile=_PATH),
    "EnumerationStats": lambda: _STATS,
    "ProfilePrice": lambda: ProfilePrice(edges=2, is_tree=True,
                                         social_cost=Fraction(10), max_agent_cost=Fraction(4)),
    "EnumerationResult": lambda: EnumerationResult(
        alpha=Fraction(1, 2), n=3, codes=("100100",), prices=(), tree_count=1,
        nontree_count=0, worst_cost=Fraction(8), best_cost=None,
        canonical_forms=("011",), stats=_STATS),
    "BiconnectedComponent": lambda: biconnected_components(build_graph(_TRIANGLE))[0],
    "ShortestPathTree": lambda: ShortestPathTree(root=0, parent=(None, 0, 1),
                                                 depth=(0, 1, 2)),
    "MinCycle": lambda: MinCycle(vertices=(0, 1, 2), length=3, directed=True),
    "TwoDegreePath": lambda: TwoDegreePath(start=0, interior=(1,), end=2),
    "ClosestAssignment": lambda: ClosestAssignment(assignment=(0, 0, 2)),
    "ShoppingVertexSet": lambda: ShoppingVertexSet(
        members=frozenset({0}), edges_by_member=((0, ((0, 2),)),)),
    "Witness": lambda: _WITNESS,
    "CheckRecord": lambda: _RECORD,
    "LemmaReport": lambda: LemmaReport(records=(_RECORD,)),
    "CrucialDeviation": lambda: CrucialDeviation(
        agent=3, anchor=0, swapped_edge_to=1, old_strategy=(1, 2),
        new_strategy=(0,), old_cost=Fraction(9), new_cost=Fraction(6),
        usage_before=3, usage_after=3, anchor_usage=2, extra_removed=1),
    "OptimumResult": lambda: OptimumResult(cost=Fraction(17), witness=_PATH,
                                           method="analytic"),
    "PoAReport": lambda: PoAReport(
        alpha=Fraction(2), n=5, worst_equilibrium_cost=Fraction(24),
        optimum_cost=Fraction(17), poa=Fraction(24, 17), equilibria_considered=644,
        exhaustive=True),
    "TreePoaCertificate": lambda: TreePoaCertificate(
        diameter=2, diameter_bound=Fraction(5), diameter_ok=True,
        social_cost=Fraction(10), optimum_cost=Fraction(10), ratio=Fraction(1),
        ratio_ok=True, deviation_agent=0, deviation_target=2,
        deviation_old_cost=Fraction(3), deviation_new_cost=Fraction(3),
        deviation_nonimproving=True),
    "ExperimentConfig": lambda: ExperimentConfig("search", n=6, alpha=Fraction(1),
                                                 output="s.csv"),
    "RunManifest": lambda: RunManifest(
        tool="ncg", version="0", mode="search", config={"n": 6}, csv_schema=["code"],
        rows=1, output="s.csv", sha256="00", wall_time_s=0.5,
        created_utc="2026-01-01T00:00:00+00:00", extra={"found": 1}),
}

# Recorded from the dataclass versions of these types; outputs that print
# a value type must read the same.
REPRS = {
    'BiconnectedComponent':
        'BiconnectedComponent(vertices=frozenset({0, 1, 2}), edges=frozenset({(0, 1), (0, 2), (1, 2)}), average_degree=Fraction(2, 1))',
    'CheckRecord':
        "CheckRecord(check_id='girth', applicable=True, passed=False, vacuous=False, witnesses=(Witness(kind='cycle', payload=(0, 1, 2), summary='a triangle'),), detail='girth 3')",
    'ClosestAssignment':
        'ClosestAssignment(assignment=(0, 0, 2))',
    'CostBreakdown':
        'CostBreakdown(creation=Fraction(5, 2), usage=2, total=Fraction(9, 2))',
    'CrucialDeviation':
        'CrucialDeviation(agent=3, anchor=0, swapped_edge_to=1, old_strategy=(1, 2), new_strategy=(0,), old_cost=Fraction(9, 1), new_cost=Fraction(6, 1), usage_before=3, usage_after=3, anchor_usage=2, extra_removed=1)',
    'DeviationWitness':
        'DeviationWitness(agent=0, old_strategy=(1,), new_strategy=(1, 2), old_cost=Fraction(9, 2), new_cost=Fraction(4, 1))',
    'DynamicsStep':
        'DynamicsStep(index=0, agent=2, old_cost=inf, new_cost=Fraction(3, 1), new_strategy=(0,))',
    'DynamicsTrace':
        "DynamicsTrace(steps=(DynamicsStep(index=0, agent=2, old_cost=inf, new_cost=Fraction(3, 1), new_strategy=(0,)),), outcome='converged', final_profile=StrategyProfile(buys=((1,), (2,), ())))",
    'EnumerationResult':
        "EnumerationResult(alpha=Fraction(1, 2), n=3, codes=('100100',), prices=(), tree_count=1, nontree_count=0, worst_cost=Fraction(8, 1), best_cost=None, canonical_forms=('011',), stats=EnumerationStats(classes=2, content_checks=5, orientations_tried=9, profiles_expanded=12))",
    'EnumerationStats':
        'EnumerationStats(classes=2, content_checks=5, orientations_tried=9, profiles_expanded=12)',
    'EquilibriumReport':
        'EquilibriumReport(is_nash=True, witness=None, per_agent_best=(Fraction(9, 2), Fraction(1, 1)))',
    'ExperimentConfig':
        "ExperimentConfig(mode='search', n=6, alpha=Fraction(1, 1), seed=0, budget=10000, iterations=1000, schedule='round-robin', agent=None, input=None, output='s.csv', workers=1, show_witnesses=False)",
    'GameConfig':
        'GameConfig(n=3, alpha=Fraction(5, 2))',
    'LemmaReport':
        "LemmaReport(records=(CheckRecord(check_id='girth', applicable=True, passed=False, vacuous=False, witnesses=(Witness(kind='cycle', payload=(0, 1, 2), summary='a triangle'),), detail='girth 3'),))",
    'Metrics':
        'Metrics(ecc=(2, 1, 2), radius=1, diameter=2, centers=frozenset({1}))',
    'MinCycle':
        'MinCycle(vertices=(0, 1, 2), length=3, directed=True)',
    'OptimumResult':
        "OptimumResult(cost=Fraction(17, 1), witness=StrategyProfile(buys=((1,), (2,), ())), method='analytic')",
    'PoAReport':
        'PoAReport(alpha=Fraction(2, 1), n=5, worst_equilibrium_cost=Fraction(24, 1), optimum_cost=Fraction(17, 1), poa=Fraction(24, 17), equilibria_considered=644, exhaustive=True)',
    'ProfilePrice':
        'ProfilePrice(edges=2, is_tree=True, social_cost=Fraction(10, 1), max_agent_cost=Fraction(4, 1))',
    'RunManifest':
        "RunManifest(tool='ncg', version='0', mode='search', config={'n': 6}, csv_schema=['code'], rows=1, output='s.csv', sha256='00', wall_time_s=0.5, created_utc='2026-01-01T00:00:00+00:00', extra={'found': 1})",
    'ShoppingVertexSet':
        'ShoppingVertexSet(members=frozenset({0}), edges_by_member=((0, ((0, 2),)),))',
    'ShortestPathTree':
        'ShortestPathTree(root=0, parent=(None, 0, 1), depth=(0, 1, 2))',
    'StrategyProfile':
        'StrategyProfile(buys=((1,), (2,), ()))',
    'TreePoaCertificate':
        'TreePoaCertificate(diameter=2, diameter_bound=Fraction(5, 1), diameter_ok=True, social_cost=Fraction(10, 1), optimum_cost=Fraction(10, 1), ratio=Fraction(1, 1), ratio_ok=True, deviation_agent=0, deviation_target=2, deviation_old_cost=Fraction(3, 1), deviation_new_cost=Fraction(3, 1), deviation_nonimproving=True)',
    'TwoDegreePath':
        'TwoDegreePath(start=0, interior=(1,), end=2)',
    'Witness':
        "Witness(kind='cycle', payload=(0, 1, 2), summary='a triangle')",
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_is_pinned(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_hash_is_the_hash_of_the_fields(name):
    x = SAMPLES[name]()
    fields = tuple(getattr(x, f) for f in type(x)._fields)
    try:
        expected = hash(fields)
    except TypeError:  # a RunManifest holds dicts, and so does its tuple
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_set(name):
    x = SAMPLES[name]()
    for f in type(x)._fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(x, f))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_round_trip(name):
    x = SAMPLES[name]()
    y = pickle.loads(pickle.dumps(x))
    assert type(y) is type(x) and y == x


_INVALID = [
    (GameConfig, (0, 1)),
    (GameConfig, (3, 0.5)),
    (StrategyProfile, (((2, 1), (), ()),)),  # agent 0's set is not sorted
    (StrategyProfile, (((1.0,), ()),)),  # a float vertex id
    (StrategyProfile, (((True,), ()),)),  # a bool vertex id
]


@pytest.mark.parametrize("cls, fields", _INVALID)
def test_constructor_checks(cls, fields):
    with pytest.raises(ValueError):
        cls(*fields)
    # A pickle of a tampered tuple, and _replace, rebuild through the checks.
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(tuple.__new__(cls, fields)))
    valid = SAMPLES[cls.__name__]()
    with pytest.raises(ValueError):
        valid._replace(**dict(zip(cls._fields, fields)))


def test_game_config_stores_a_fraction():
    for cfg in (GameConfig(3, 2), GameConfig(3, 1)._replace(alpha=2),
                pickle.loads(pickle.dumps(GameConfig(3, 2)))):
        assert type(cfg.alpha) is Fraction and cfg.alpha == 2


def test_component_degrees_stay_out_of_the_tuple():
    comp = SAMPLES["BiconnectedComponent"]()
    assert comp._fields == ("vertices", "edges", "average_degree")
    assert hash(comp) == hash((comp.vertices, comp.edges, comp.average_degree))
    assert "degrees" not in repr(comp)
    assert comp.degrees == {0: 2, 1: 2, 2: 2}


def test_cli_import_loads_no_dataclasses():
    """Building the value types needs neither dataclasses nor inspect, and
    the CSV writer needs no csv, so a CLI process does not pay for importing
    them; -S keeps site hooks out."""
    code = ("import sys, ncg.cli; "
            "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ncg.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
