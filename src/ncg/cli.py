"""Command-line front end: deterministic batch runs producing CSV + manifest.

Every run writes one CSV (schema fixed per mode, rows fully ordered) and a
JSON manifest alongside it recording the configuration, the CSV digest and
the wall time. Identical configuration and seed reproduce byte-identical
CSVs regardless of worker count; only manifest timestamps differ.

Exit codes: 0 success (including verify reporting "not an equilibrium",
and a run whose reader closed stdout early), 2 usage errors, 3 invalid
configuration, 4 profile parse errors, 5 instance-size guard.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .errors import ProfileFormatError, SizeGuard
from .game import INF, GameConfig, StrategyProfile, build_graph, eccentricity
from .equilibrium import (best_response_dynamics, best_response_exact,
                          enumerate_equilibria, is_nash,
                          search_nontree_equilibria)
from .optimum import optimum_analytic, price_of_anarchy
from .profiles import load_profile
from .structure import audit_equilibrium_structure

MODES = ("verify", "best-response", "dynamics", "enumerate", "search",
         "audit", "poa", "optimum")

CSV_SCHEMAS = {
    "verify": ["alpha", "n", "profile_id", "is_nash", "deviating_agent",
               "old_cost", "new_cost", "new_strategy"],
    "best-response": ["alpha", "n", "agent", "best_strategy", "best_cost"],
    "dynamics": ["event", "step", "agent", "old_cost", "new_cost", "detail"],
    "enumerate": ["alpha", "n", "profile_id", "edges", "is_tree",
                  "social_cost", "max_agent_cost"],
    "search": ["alpha", "n", "profile_id", "edges", "is_tree",
               "social_cost", "max_agent_cost"],
    "audit": ["profile_id", "check_id", "applicable", "passed", "witness_summary"],
    "poa": ["alpha", "n", "worst_eq_cost", "opt_cost", "poa", "exhaustive"],
    "optimum": ["alpha", "n", "method", "cost", "profile_id"],
}


@dataclass
class ExperimentConfig:
    mode: str
    n: int | None = None
    alpha: Fraction | None = None
    seed: int = 0
    budget: int = 10_000
    iterations: int = 1000
    schedule: str = "round-robin"
    agent: int | None = None
    input: str | None = None
    output: str | None = None
    workers: int = 1
    show_witnesses: bool = False


@dataclass
class RunManifest:
    tool: str
    version: str
    mode: str
    config: dict
    csv_schema: list
    rows: int
    output: str
    sha256: str
    wall_time_s: float
    created_utc: str
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if value == INF:
        return "inf"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return str(value)
    return str(value)


def _emit(text: str) -> None:
    """Write to stdout; a reader that closes the pipe early (``| head``) only
    stops receiving text, the run still writes its CSV and manifest."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _strategy_str(strategy) -> str:
    return ";".join(str(v) for v in strategy)


def _game_config(config: ExperimentConfig) -> GameConfig:
    if config.n is None or config.alpha is None:
        raise ValueError(f"mode {config.mode} needs --n and --alpha")
    return GameConfig(config.n, config.alpha)


def _loaded(config: ExperimentConfig):
    if not config.input:
        raise ValueError(f"mode {config.mode} needs --in PROFILE")
    return load_profile(config.input)


def _rows_verify(config):
    game, profile = _loaded(config)
    report = is_nash(game, profile)
    row = {
        "alpha": _fmt(game.alpha), "n": game.n,
        "profile_id": profile.ownership_code(),
        "is_nash": _fmt(report.is_nash),
        "deviating_agent": "", "old_cost": "", "new_cost": "", "new_strategy": "",
    }
    if report.witness is not None:
        w = report.witness
        row.update(deviating_agent=w.agent, old_cost=_fmt(w.old_cost),
                   new_cost=_fmt(w.new_cost),
                   new_strategy=_strategy_str(w.new_strategy))
    return [row], {}


def _rows_best_response(config):
    game, profile = _loaded(config)
    if config.agent is None:
        raise ValueError("mode best-response needs --agent")
    strategy, cost = best_response_exact(game, profile, config.agent)
    return [{
        "alpha": _fmt(game.alpha), "n": game.n, "agent": config.agent,
        "best_strategy": _strategy_str(strategy), "best_cost": _fmt(cost),
    }], {}


def _rows_dynamics(config):
    if config.input:
        game, initial = _loaded(config)
    else:
        game = _game_config(config)
        initial = StrategyProfile.empty(game.n)
    trace = best_response_dynamics(game, initial, schedule=config.schedule,
                                   seed=config.seed, budget=config.budget)
    rows = [{
        "event": "move", "step": s.index, "agent": s.agent,
        "old_cost": _fmt(s.old_cost), "new_cost": _fmt(s.new_cost),
        "detail": _strategy_str(s.new_strategy),
    } for s in trace.steps]
    rows.append({"event": "outcome", "step": "", "agent": "",
                 "old_cost": "", "new_cost": "", "detail": trace.outcome})
    rows.append({"event": "final", "step": "", "agent": "",
                 "old_cost": "", "new_cost": "",
                 "detail": trace.final_profile.ownership_code()})
    return rows, {"outcome": trace.outcome, "moves": len(trace.steps)}


def _profile_row(game, profile):
    graph = build_graph(profile)
    # The social cost counts purchases, so it is the sum of the agent costs.
    costs = [game.alpha * len(s) + eccentricity(graph.adj, v, game.n)
             for v, s in enumerate(profile.buys)]
    return {
        "alpha": _fmt(game.alpha), "n": game.n,
        "profile_id": profile.ownership_code(),
        "edges": graph.edge_count(),
        "is_tree": _fmt(graph.is_tree()),
        "social_cost": _fmt(sum(costs)),
        "max_agent_cost": _fmt(max(costs)),
    }


def _rows_enumerate(config):
    game = _game_config(config)
    result = enumerate_equilibria(game, workers=config.workers)
    rows = [_profile_row(game, prof) for prof in result.equilibria]
    extra = {
        "equilibria": len(result.equilibria),
        "tree_count": result.tree_count,
        "nontree_count": result.nontree_count,
        "worst_cost": _fmt(result.worst_cost),
        "best_cost": _fmt(result.best_cost),
        "isomorphism_classes": len(result.canonical_forms),
    }
    return rows, extra


def _rows_search(config):
    game = _game_config(config)
    found = search_nontree_equilibria(game, seed=config.seed,
                                      iterations=config.iterations,
                                      workers=config.workers)
    return [_profile_row(game, prof) for prof in found], {"found": len(found)}


def _rows_audit(config):
    game, profile = _loaded(config)
    report = audit_equilibrium_structure(game, profile)
    if config.show_witnesses:
        from .structure import render_report
        _emit(render_report(report))
    profile_id = profile.ownership_code()
    rows = []
    for rec in report.records:
        if not rec.applicable:
            summary = f"not applicable: {rec.detail}"
        elif rec.witnesses:
            summary = "; ".join(w.summary for w in rec.witnesses)
        elif rec.vacuous:
            summary = f"vacuous: {rec.detail}" if rec.detail else "vacuous"
        else:
            summary = rec.detail
        rows.append({
            "profile_id": profile_id,
            "check_id": rec.check_id,
            "applicable": _fmt(rec.applicable),
            "passed": "" if rec.passed is None else _fmt(rec.passed),
            "witness_summary": summary,
        })
    failures = len(report.failures())
    return rows, {"failures": failures, "all_applicable_pass": failures == 0}


def _rows_poa(config):
    game = _game_config(config)
    report = price_of_anarchy(game, workers=config.workers)
    return [{
        "alpha": _fmt(game.alpha), "n": game.n,
        "worst_eq_cost": _fmt(report.worst_equilibrium_cost),
        "opt_cost": _fmt(report.optimum_cost),
        "poa": "undefined" if report.poa is None else _fmt(report.poa),
        "exhaustive": _fmt(report.exhaustive),
    }], {"equilibria_considered": report.equilibria_considered}


def _rows_optimum(config):
    game = _game_config(config)
    result = optimum_analytic(game)
    return [{
        "alpha": _fmt(game.alpha), "n": game.n, "method": result.method,
        "cost": _fmt(result.cost),
        "profile_id": result.witness.ownership_code(),
    }], {}


_RUNNERS = {
    "verify": _rows_verify,
    "best-response": _rows_best_response,
    "dynamics": _rows_dynamics,
    "enumerate": _rows_enumerate,
    "search": _rows_search,
    "audit": _rows_audit,
    "poa": _rows_poa,
    "optimum": _rows_optimum,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one mode, write its CSV and manifest, return the manifest."""
    if config.mode not in MODES:
        raise ValueError(f"unknown mode {config.mode!r}")
    if not config.output:
        raise ValueError("an output path is required (--out FILE)")
    started = time.perf_counter()
    rows, extra = _RUNNERS[config.mode](config)
    schema = CSV_SCHEMAS[config.mode]
    with open(config.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=schema, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    with open(config.output, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    manifest = RunManifest(
        tool="ncg", version=__version__, mode=config.mode,
        config={
            "n": config.n, "alpha": None if config.alpha is None else str(config.alpha),
            "seed": config.seed, "budget": config.budget,
            "iterations": config.iterations, "schedule": config.schedule,
            "agent": config.agent, "input": config.input,
            "workers": config.workers,
        },
        csv_schema=schema, rows=len(rows), output=config.output,
        sha256=digest, wall_time_s=round(time.perf_counter() - started, 6),
        created_utc=datetime.now(timezone.utc).isoformat(),
        extra=extra)
    with open(config.output + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())
    return manifest


def _exact_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Max-distance network creation game toolkit")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p, needs_out=True):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--alpha", type=_exact_rational, default=None,
                       help="exact rational, e.g. 25 or 19/2")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--in", dest="input", default=None, metavar="FILE")
        p.add_argument("--out", dest="output", required=needs_out, metavar="FILE")

    common(sub.add_parser("verify", help="decide whether a profile is an equilibrium"))
    p = sub.add_parser("best-response", help="optimal strategy of one agent")
    common(p)
    p.add_argument("--agent", type=int, required=True)
    p = sub.add_parser("dynamics", help="iterated best-response dynamics")
    common(p)
    p.add_argument("--schedule", choices=("rr", "rand"), default="rr")
    p.add_argument("--budget", type=int, default=10_000)
    common(sub.add_parser("enumerate", help="all equilibria at desk scale"))
    p = sub.add_parser("search", help="stochastic probe for non-tree equilibria")
    common(p)
    p.add_argument("--iters", type=int, default=1000)
    p = sub.add_parser("audit", help="structural predicate report for a profile")
    common(p)
    p.add_argument("--witnesses", action="store_true",
                   help="also print the report as a text block")
    common(sub.add_parser("poa", help="price of anarchy by exhaustive enumeration"))
    common(sub.add_parser("optimum", help="closed-form social optimum"))
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    schedule = {"rr": "round-robin", "rand": "uniform-random"}.get(
        getattr(args, "schedule", "rr"), "round-robin")
    return ExperimentConfig(
        mode=args.mode, n=args.n, alpha=args.alpha, seed=args.seed,
        budget=getattr(args, "budget", 10_000),
        iterations=getattr(args, "iters", 1000),
        schedule=schedule, agent=getattr(args, "agent", None),
        input=args.input, output=args.output, workers=args.workers,
        show_witnesses=getattr(args, "witnesses", False))


# Built once per process: building it costs milliseconds, which a caller
# that runs many jobs through main() in one process would pay per job.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        manifest = run(config_from_args(args))
    except ProfileFormatError as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return 4
    except SizeGuard as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    _emit(f"{manifest.mode}: {manifest.rows} row(s) -> {manifest.output}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
