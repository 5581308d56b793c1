"""Output checks of the ncg benchmark; they run outside the timed region.

Every check recomputes what the CLI printed with the brute-force code in
``tests/oracles.py`` (dict adjacency and deque BFS, sharing nothing with
the package) or compares it with counts pinned from the exhaustive n = 5
space. ``check(spec, run_dir, seed)`` returns ``{job_id: [problem, ...]}``
with an empty list for every job whose output is correct. All checks hold
for any seed.
"""

from __future__ import annotations

import csv
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import oracles

CENSUS_PINS = {
    "enum-a1_2": {"equilibria": 488, "nontree_count": 408, "isomorphism_classes": 10},
    "enum-a25": {"equilibria": 620, "nontree_count": 0, "isomorphism_classes": 12},
}
POA_PIN = {"worst_eq_cost": "24", "opt_cost": "17", "poa": "24/17", "exhaustive": "true"}
POA_CONSIDERED = 644
AUDIT_CHECK_IDS = frozenset((
    "girth_alpha_plus_2", "girth_2alpha_minus_1", "min_cycles_directed",
    "component_members_buy", "component_ecc_radius_gap", "attachment_distance",
    "two_degree_path_limit", "neighborhood_degree", "avg_degree_lower",
    "shopping_single_nontree", "shopping_lca_gap", "shopping_pair_distance",
    "avg_degree_upper"))
CENSUS_SAMPLE = 8
SEARCH_SAMPLE = 2


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _value(text: str):
    return oracles.INF if text == "inf" else Fraction(text)


def _strategy(text: str) -> set:
    return {int(v) for v in text.split(";")} if text else set()


def encode(n: int, buys) -> str:
    """Ownership code: per pair u < v, 0 none, 1 u buys, 2 v buys, 3 both."""
    return "".join(str((v in buys[u]) + 2 * (u in buys[v]))
                   for u, v in combinations(range(n), 2))


def decode(n: int, code: str) -> list:
    buys = [set() for _ in range(n)]
    for (u, v), digit in zip(combinations(range(n), 2), code):
        if digit in "13":
            buys[u].add(v)
        if digit in "23":
            buys[v].add(u)
    return buys


def _replace(buys, v: int, strategy: set) -> list:
    trial = list(buys)
    trial[v] = strategy
    return trial


def _edge_count(buys) -> int:
    return len({(min(u, v), max(u, v)) for u, s in enumerate(buys) for v in s})


def _connected(n: int, buys) -> bool:
    return len(oracles.bfs_distances(oracles.adjacency(n, buys), 0)) == n


def _profile_row_problems(n, alpha, row) -> list:
    """Re-price an enumerate/search row from its profile id alone."""
    buys = decode(n, row["profile_id"])
    problems = []
    edges = _edge_count(buys)
    is_tree = _connected(n, buys) and edges == n - 1
    if int(row["edges"]) != edges or row["is_tree"] != ("true" if is_tree else "false"):
        problems.append(f"{row['profile_id']}: edges/is_tree disagree with the oracle")
    if _value(row["social_cost"]) != oracles.social_cost(n, alpha, buys):
        problems.append(f"{row['profile_id']}: social_cost disagrees with the oracle")
    worst = max(oracles.agent_cost(n, alpha, buys, v) for v in range(n))
    if _value(row["max_agent_cost"]) != worst:
        problems.append(f"{row['profile_id']}: max_agent_cost disagrees with the oracle")
    return problems


def _check_census(job, run_dir, spec, rng) -> list:
    rows = _rows(run_dir / job["out"])
    with open(run_dir / (job["out"] + ".manifest.json"), encoding="utf-8") as fh:
        extra = json.load(fh)["extra"]
    if job["id"] == "poa-a2":
        problems = [f"poa {k} = {rows[0][k]!r}, expected {v!r}"
                    for k, v in POA_PIN.items() if rows[0][k] != v]
        if len(rows) != 1 or extra.get("equilibria_considered") != POA_CONSIDERED:
            problems.append(f"poa considered {extra.get('equilibria_considered')} "
                            f"equilibria, expected {POA_CONSIDERED}")
        return problems
    pins = CENSUS_PINS[job["id"]]
    problems = [f"{k} = {extra.get(k)}, expected {v}" for k, v in pins.items()
                if extra.get(k) != v]
    nontree = sum(row["is_tree"] == "false" for row in rows)
    if len(rows) != pins["equilibria"] or nontree != pins["nontree_count"]:
        problems.append(f"{len(rows)} rows with {nontree} non-tree, expected "
                        f"{pins['equilibria']} with {pins['nontree_count']}")
    for row in rng.sample(rows, min(CENSUS_SAMPLE, len(rows))):
        alpha = Fraction(row["alpha"])
        problems += _profile_row_problems(5, alpha, row)
        if not oracles.is_nash(5, alpha, decode(5, row["profile_id"])):
            problems.append(f"{row['profile_id']}: the oracle finds it is not Nash")
    return problems


def _check_verify(job, run_dir, spec, rng) -> list:
    (row,) = _rows(run_dir / job["out"])
    prof = spec["inputs"][job["argv"][job["argv"].index("--in") + 1]]
    n, alpha, buys = prof["n"], prof["alpha"], prof["buys"]
    problems = []
    if job["argv"][0] == "best-response":
        agent = int(row["agent"])
        best = oracles.agent_cost(n, alpha, _replace(buys, agent, _strategy(row["best_strategy"])), agent)
        if _value(row["best_cost"]) != best:
            problems.append(f"best_cost {row['best_cost']} re-prices to {best}")
        if best > oracles.agent_cost(n, alpha, buys, agent):
            problems.append("best response is worse than the current strategy")
        return problems
    if row["profile_id"] != encode(n, buys):
        problems.append("profile_id does not encode the input profile")
    if row["is_nash"] == "false":
        agent = int(row["deviating_agent"])
        old = oracles.agent_cost(n, alpha, buys, agent)
        new = oracles.agent_cost(n, alpha, _replace(buys, agent, _strategy(row["new_strategy"])), agent)
        if _value(row["old_cost"]) != old or _value(row["new_cost"]) != new or not new < old:
            problems.append(f"witness of agent {agent} re-prices to {old} -> {new}")
    if job["id"].startswith("verify-star") and row["is_nash"] != "true":
        problems.append("the star at alpha 1/4 must be Nash")
    return problems


def _check_hunt(job, run_dir, spec, rng) -> list:
    rows = _rows(run_dir / job["out"])
    problems = []
    if job["argv"][0] == "search":
        n, alpha = 10, Fraction(1)
        if not rows:
            problems.append("search found no non-tree equilibrium")
        for row in rows:
            buys = decode(n, row["profile_id"])
            if not _connected(n, buys) or _edge_count(buys) < n:
                problems.append(f"{row['profile_id']}: not a connected non-tree profile")
            problems += _profile_row_problems(n, alpha, row)
        for row in rng.sample(rows, min(SEARCH_SAMPLE, len(rows))):
            if not oracles.is_nash(n, alpha, decode(n, row["profile_id"])):
                problems.append(f"{row['profile_id']}: the oracle finds it is not Nash")
        return problems
    prof = spec["inputs"][job["argv"][job["argv"].index("--in") + 1]]
    n, alpha, buys = prof["n"], prof["alpha"], list(prof["buys"])
    for row in rows:
        if row["event"] == "move":
            agent = int(row["agent"])
            old = oracles.agent_cost(n, alpha, buys, agent)
            buys = _replace(buys, agent, _strategy(row["detail"]))
            new = oracles.agent_cost(n, alpha, buys, agent)
            if _value(row["old_cost"]) != old or _value(row["new_cost"]) != new or not new < old:
                problems.append(f"move {row['step']} re-prices to {old} -> {new}")
        elif row["event"] == "outcome":
            if row["detail"] not in ("converged", "cycle", "budget-exhausted"):
                problems.append(f"unknown outcome {row['detail']!r}")
        elif row["detail"] != encode(n, buys):
            problems.append("final profile differs from the replayed moves")
    return problems


def _girth_and_blocks(n: int, buys):
    """Girth and the number of biconnected components with >= 3 vertices.

    Girth is the minimum over edges uv of 1 + d(u, v) in the graph minus
    uv; an edge with no such path is a bridge. For a connected graph the
    block count is 1 + sum over v of (components of G - v) - 1, and every
    bridge is a block of two vertices.
    """
    adj = oracles.adjacency(n, buys)
    girth, bridges = None, 0
    for u in range(n):
        for v in [w for w in adj[u] if w > u]:
            adj[u].discard(v)
            adj[v].discard(u)
            d = oracles.bfs_distances(adj, u).get(v)
            adj[u].add(v)
            adj[v].add(u)
            if d is None:
                bridges += 1
            elif girth is None or d + 1 < girth:
                girth = d + 1
    blocks = 1
    for v in range(n):
        rest = {u: adj[u] - {v} for u in adj if u != v}
        seen, parts = set(), 0
        for s in rest:
            if s not in seen:
                parts += 1
                seen.update(oracles.bfs_distances(rest, s))
        blocks += parts - 1
    return girth, blocks - bridges


def _check_audit(job, run_dir, spec, rng) -> list:
    rows = _rows(run_dir / job["out"])
    prof = spec["inputs"][job["argv"][job["argv"].index("--in") + 1]]
    n, buys = prof["n"], prof["buys"]
    problems = []
    ids = [row["check_id"] for row in rows]
    if len(ids) != len(AUDIT_CHECK_IDS) or set(ids) != AUDIT_CHECK_IDS:
        problems.append(f"check ids {sorted(ids)} are not the full set of 13")
    if any(row["profile_id"] != encode(n, buys) for row in rows):
        problems.append("profile_id does not encode the input profile")
    by_id = {row["check_id"]: row["witness_summary"] for row in rows}
    if not _connected(n, buys):
        return problems + ["the generated profile is not connected"]
    girth, blocks = _girth_and_blocks(n, buys)
    for check_id in ("girth_alpha_plus_2", "girth_2alpha_minus_1"):
        found = re.search(r"(?:girth|has length) (\d+)", by_id.get(check_id, ""))
        reported = int(found.group(1)) if found else None
        if reported != girth:
            problems.append(f"{check_id} reports girth {reported}, the oracle {girth}")
    # The CSV keeps only witnesses for a failed check; the --witnesses text
    # block keeps the detail line with the component count.
    report = (run_dir / f"{job['id']}.stdout").read_text(encoding="utf-8")
    found = re.search(r"^min_cycles_directed: .* - (\d+) component\(s\) scanned$",
                      report, re.MULTILINE)
    reported = int(found.group(1)) if found else 0
    if reported != blocks:
        problems.append(f"{reported} biconnected components reported, the oracle finds {blocks}")
    return problems


_CHECKS = {"census-n5": _check_census, "verify-n20": _check_verify,
           "hunt-n10": _check_hunt, "audit-n64": _check_audit}


def check(spec: dict, run_dir: Path, seed: int) -> dict:
    """Problems per job id for the outputs of one run directory."""
    rng = random.Random(f"ncg-bench-checks/{spec['name']}/{seed}")
    out = {}
    for job in spec["jobs"]:
        try:
            out[job["id"]] = _CHECKS[spec["name"]](job, run_dir, spec, rng)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            out[job["id"]] = [f"unreadable output: {exc!r}"]
    return out
