"""Seeded workload definitions for the ncg benchmark.

``build(name, seed, workers)`` returns the inputs (``ncg v1`` profile
texts) and the CLI job list of one workload. The same seed always gives
the same inputs. Profiles are produced here as plain purchase lists, so
the program under test only ever sees argv and profile files.

Each workload leans on a different layer; see README.md in this
directory for why each exists and what it should move.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

WORKLOADS = ("census-n5", "verify-n20", "hunt-n10", "audit-n64")


def _rng(name: str, seed: int) -> random.Random:
    # A str seed is hashed with SHA-512, so it does not depend on PYTHONHASHSEED.
    return random.Random(f"ncg-bench/{name}/{seed}")


def profile_text(n: int, alpha: Fraction, buys) -> str:
    lines = ["ncg v1", f"n {n}", f"alpha {alpha}"]
    for u in range(n):
        lines.extend(f"buy {u} {v}" for v in sorted(buys[u]))
    return "\n".join(lines) + "\n"


def _orient(rng: random.Random, n: int, edges) -> list:
    """One random buyer per edge."""
    buys = [set() for _ in range(n)]
    for u, v in sorted(edges):
        if rng.random() < 0.5:
            buys[u].add(v)
        else:
            buys[v].add(u)
    return buys


def random_connected(rng: random.Random, vertices, extra: int) -> set:
    """Random spanning tree on ``vertices`` plus ``extra`` random chords."""
    edges = set()
    order = list(vertices)
    rng.shuffle(order)
    for i in range(1, len(order)):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = len(edges) + extra
    while len(edges) < target:
        u, v = rng.sample(order, 2)
        edges.add((min(u, v), max(u, v)))
    return edges


def _job(job_id: str, argv: list) -> dict:
    return {"id": job_id, "argv": argv + ["--out", f"{job_id}.csv"],
            "out": f"{job_id}.csv"}


def _census(rng, workers):
    """Exhaustive n = 5 scans; the seed only orders the jobs."""
    jobs = [
        _job("enum-a1_2", ["enumerate", "--n", "5", "--alpha", "1/2"]),
        _job("enum-a25", ["enumerate", "--n", "5", "--alpha", "25"]),
        _job("poa-a2", ["poa", "--n", "5", "--alpha", "2"]),
    ]
    for job in jobs:
        job["argv"] += ["--workers", str(workers)]
    rng.shuffle(jobs)
    params = {"n": 5, "enumerate_alphas": ["1/2", "25"], "poa_alpha": "2",
              "workers": workers}
    return {}, jobs, params


def _verify(rng, workers):
    """Exact best responses and Nash verification at n = 16..20.

    Cycle, path and star are relabeled by the seed; that leaves the scan's
    work unchanged, so only the two random profiles vary the cost by seed.
    """
    alpha = Fraction(1, 4)
    inputs, jobs = {}, []
    for n in (16, 18, 20):
        seq = [0] + rng.sample(range(1, n), n - 1)
        cycle = [set() for _ in range(n)]
        path = [set() for _ in range(n)]
        for i in range(n):
            cycle[seq[i]].add(seq[(i + 1) % n])
            if i + 1 < n:
                path[seq[i]].add(seq[i + 1])  # agent 0 owns the first link
        center = rng.randrange(n)
        star = [set() if v == center else {center} for v in range(n)]
        for kind, buys in (("cycle", cycle), ("path", path), ("star", star)):
            name = f"{kind}-n{n}"
            inputs[f"{name}.ncg"] = {"n": n, "alpha": alpha, "buys": buys}
            if kind == "star":
                jobs.append(_job(f"verify-{name}", ["verify", "--in", f"{name}.ncg"]))
            else:
                jobs.append(_job(f"br-{name}",
                                 ["best-response", "--in", f"{name}.ncg", "--agent", "0"]))
    for i in range(2):
        name = f"random{i}-n18"
        edges = random_connected(rng, range(18), 0)
        inputs[f"{name}.ncg"] = {"n": 18, "alpha": alpha, "buys": _orient(rng, 18, edges)}
        jobs.append(_job(f"verify-{name}", ["verify", "--in", f"{name}.ncg"]))
    params = {"alpha": "1/4", "best_response_n": [16, 18, 20], "agent": 0,
              "star_verify_n": [16, 18, 20], "random_verify": {"n": 18, "count": 2}}
    return inputs, jobs, params


SEARCH_ITERS = 800
DYNAMICS_BUDGET = 30


def _hunt(rng, workers):
    """Many short heuristic calls: a seeded search and two dynamics runs."""
    inputs = {}
    jobs = [_job("search-a1", ["search", "--n", "10", "--alpha", "1",
                               "--iters", str(SEARCH_ITERS),
                               "--seed", str(rng.randrange(2 ** 31))])]
    for tag, alpha in (("a1_2", Fraction(1, 2)), ("a1", Fraction(1))):
        name = f"dyn-{tag}-n16"
        edges = random_connected(rng, range(16), 4)
        inputs[f"{name}.ncg"] = {"n": 16, "alpha": alpha, "buys": _orient(rng, 16, edges)}
        jobs.append(_job(name, ["dynamics", "--in", f"{name}.ncg", "--schedule", "rand",
                                "--seed", str(rng.randrange(2 ** 31)),
                                "--budget", str(DYNAMICS_BUDGET)]))
    params = {"search": {"n": 10, "alpha": "1", "iters": SEARCH_ITERS},
              "dynamics": {"n": 16, "alphas": ["1/2", "1"], "schedule": "rand",
                           "budget": DYNAMICS_BUDGET, "extra_edges": 4}}
    return inputs, jobs, params


AUDIT_CORE_SHARE = 0.75
AUDIT_CHORDS_PER_CORE_VERTEX = 10
AUDIT_CHAIN = 4


def audit_buys(rng: random.Random, n: int) -> list:
    """A dense random core with cycles and pendant paths hung off it.

    The core is one large biconnected component with girth 3. The other
    vertices form chains of AUDIT_CHAIN vertices hung off random core
    vertices; every other chain is closed into a cycle, which adds a small
    component and 2-degree paths, and the open ones make closest
    assignments and shopping vertices non-trivial. Only the core's chords,
    the labels, the anchors and the buyers are random, so the audit's work
    varies little from seed to seed.
    """
    labels = rng.sample(range(n), n)
    core = round(AUDIT_CORE_SHARE * n)
    edges = random_connected(rng, labels[:core], AUDIT_CHORDS_PER_CORE_VERTEX * core)
    for k, i in enumerate(range(core, n, AUDIT_CHAIN)):
        anchor = labels[rng.randrange(core)]
        chain = [anchor] + labels[i:i + AUDIT_CHAIN]
        if k % 2 == 0:
            chain.append(anchor)
        for a, b in zip(chain, chain[1:]):
            edges.add((min(a, b), max(a, b)))
    return _orient(rng, n, edges)


def _audit(rng, workers):
    """Structural audits of 12 dense random connected profiles."""
    inputs, jobs = {}, []
    for n in (40, 48, 56, 64):
        for alpha in (3, 6, 25):
            name = f"audit-n{n}-a{alpha}"
            inputs[f"{name}.ncg"] = {"n": n, "alpha": Fraction(alpha),
                                     "buys": audit_buys(rng, n)}
            jobs.append(_job(name, ["audit", "--in", f"{name}.ncg", "--witnesses"]))
    params = {"n": [40, 48, 56, 64], "alphas": [3, 6, 25],
              "core_share": AUDIT_CORE_SHARE,
              "chords_per_core_vertex": AUDIT_CHORDS_PER_CORE_VERTEX,
              "chain": AUDIT_CHAIN}
    return inputs, jobs, params


_BUILDERS = {"census-n5": _census, "verify-n20": _verify,
             "hunt-n10": _hunt, "audit-n64": _audit}


def build(name: str, seed: int, workers: int) -> dict:
    """Inputs, job list and parameters of one workload for one seed.

    ``inputs`` maps a file name to ``{"n", "alpha", "buys"}``; each job is
    ``{"id", "argv", "out"}`` with paths relative to the run directory.
    """
    inputs, jobs, params = _BUILDERS[name](_rng(name, seed), workers)
    return {"name": name, "seed": seed, "inputs": inputs, "jobs": jobs,
            "params": params}


def write_inputs(spec: dict, directory) -> None:
    for fname, prof in spec["inputs"].items():
        with open(os.path.join(directory, fname), "w", encoding="utf-8") as fh:
            fh.write(profile_text(prof["n"], prof["alpha"], prof["buys"]))
