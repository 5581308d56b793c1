"""Max-distance network creation game toolkit.

Exact cost model over rational edge prices, exhaustive Nash verification
and enumeration, structural audits of equilibrium graphs, and price-of-
anarchy computation, all at desk scale.
"""

__version__ = "0.1.0"

from .errors import (AssignmentAmbiguous, BadHeader, BadRational,
                     BadVertexIndex, Disconnected, DuplicateBuy,
                     NotEquilibrium, NotTree, PreconditionUnmet,
                     ProfileFormatError, SizeGuard)
from .game import (INF, CostBreakdown, GameConfig, Metrics, OwnedGraph,
                   StrategyProfile, agent_cost, all_pairs_distances,
                   build_graph, metrics, social_cost)
from .equilibrium import (DeviationWitness, DynamicsStep, DynamicsTrace,
                          EnumerationResult, EquilibriumReport,
                          best_response_dynamics, best_response_exact,
                          enumerate_equilibria, improving_move_heuristic,
                          is_nash, isomorphism_canonical_code,
                          search_nontree_equilibria, verify_witness)
from .structure import (BiconnectedComponent, CheckRecord, ClosestAssignment,
                        CrucialDeviation, LemmaReport, MinCycle,
                        ShoppingVertexSet, ShortestPathTree, TwoDegreePath,
                        audit_equilibrium_structure, biconnected_components,
                        closest_assignment, component_is_cycle,
                        component_subgraph, girth, is_min_cycle,
                        lemma_crucial_deviation, min_cycle_through_edge,
                        shopping_vertices, shortest_cycle, shortest_path_tree,
                        two_degree_paths)
from .optimum import (OptimumResult, PoAReport, TreePoaCertificate,
                      clique_profile, optimum_analytic, optimum_bruteforce,
                      price_of_anarchy, star_profile, tree_poa_certificate)
from .profiles import parse_profile, serialize_profile, load_profile
