"""Command-line front end: deterministic batch runs producing CSV + manifest.

Every run writes one CSV (schema fixed per mode, rows fully ordered) and a
JSON manifest alongside it recording the configuration, the CSV digest and
the wall time. Every mode runs in this process. Identical configuration
and seed reproduce byte-identical CSVs; only manifest timestamps differ.

``MODE_TABLE`` is the one list of modes: each entry holds the mode's row
builder, CSV columns, help text and the flags it reads. A mode accepts
its own flags plus ``--out``, which says where the output goes, and
``--workers``, which is validated and recorded in the manifest but read
by no mode; any other flag is a usage error. An absent flag takes its
``ExperimentConfig`` default, and ``run`` refuses a config that sets a
field its mode does not read.

Exit codes (``exit_status``, which the scripts share): 0 success (including
verify reporting "not an equilibrium", and a run whose reader closed stdout
early), 2 usage errors, 3 invalid configuration (an --in that cannot be
read or is not UTF-8, and an unwritable --out, included), 4 profile parse
errors, 5 instance-size guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from collections.abc import Callable
from datetime import datetime, timezone
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .errors import ProfileFormatError, SizeGuard
from .game import GameConfig, StrategyProfile
from .equilibrium import (best_response_dynamics, best_response_exact,
                          enumerate_equilibria, is_nash,
                          search_nontree_equilibria)
from .optimum import optimum_analytic, price_of_anarchy
from .profiles import load_profile
from .structure import audit_equilibrium_structure, render_report


class ExperimentConfig(NamedTuple):
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


class RunManifest(NamedTuple):
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
    extra: dict

    def to_json(self) -> str:
        return json.dumps(self._asdict(), indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
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
    try:
        return load_profile(config.input)
    except OSError as exc:
        raise ValueError(f"cannot read {config.input}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {config.input}: {exc}") from None


# A cell is quoted, with each quote doubled, exactly when it holds a comma,
# a quote or a line break. csv.writer with lineterminator="\n" quotes the
# same cells, except that before Python 3.13 it leaves a cell whose only
# special character is "\r" bare; this writer's bytes are the same on every
# version. csv also writes a row of one empty field as '""'; every schema
# has at least two columns, so that row cannot come up.
_needs_quotes = re.compile(r'[,"\r\n]').search


def _csv_cell(value) -> str:
    text = str(value)  # a str is returned as it is
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_text(fieldnames, rows) -> str:
    """A header line and one line per row dict, each ending in a bare newline.
    Every row holds a value for every field name."""
    lines = [",".join(map(_csv_cell, fieldnames))]
    lines += [",".join([_csv_cell(row[name]) for name in fieldnames]) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write through a temp file in the target's directory, renamed over the
    target, so a failed write leaves neither a partial target nor the temp."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.lexists(tmp):
            os.unlink(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


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
        if config.n is not None or config.alpha is not None:
            raise ValueError("mode dynamics takes --in or --n and --alpha, not both")
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


def _profile_rows(game, coded_prices) -> list:
    """One row per (code, ProfilePrice) pair. A class's members share one
    price object, so each object's columns are formatted once. The cache is
    keyed by identity: hashing a price's Fractions costs more than
    formatting them."""
    alpha = _fmt(game.alpha)
    tails: dict = {}  # id(price) -> (price, columns); holding price keeps its id
    rows = []
    for code, price in coded_prices:
        cached = tails.get(id(price))
        if cached is None:
            cached = tails[id(price)] = price, {
                "edges": price.edges,
                "is_tree": _fmt(price.is_tree),
                "social_cost": _fmt(price.social_cost),
                "max_agent_cost": _fmt(price.max_agent_cost),
            }
        rows.append({"alpha": alpha, "n": game.n, "profile_id": code, **cached[1]})
    return rows


def _rows_enumerate(config):
    game = _game_config(config)
    result = enumerate_equilibria(game)
    rows = _profile_rows(game, zip(result.codes, result.prices))
    return rows, _enumeration_summary(result)


def _enumeration_summary(result) -> dict:
    """Counts and cost range of an enumeration, as its manifest records them."""
    return {
        "equilibria": len(result.codes),
        "tree_count": result.tree_count,
        "nontree_count": result.nontree_count,
        "worst_cost": _fmt(result.worst_cost),
        "best_cost": _fmt(result.best_cost),
        "isomorphism_classes": len(result.canonical_forms),
        "stats": result.stats._asdict(),
    }


def _rows_search(config):
    game = _game_config(config)
    stats: dict = {}
    found = search_nontree_equilibria(game, seed=config.seed,
                                      iterations=config.iterations, stats=stats)
    return _profile_rows(game, found), {"found": len(found), "stats": stats}


def _rows_audit(config):
    game, profile = _loaded(config)
    report = audit_equilibrium_structure(game, profile)
    if config.show_witnesses:
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
    report = price_of_anarchy(game)
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


class Mode(NamedTuple):
    rows: Callable  # ExperimentConfig -> (CSV row dicts, manifest extra)
    columns: list
    help: str
    flags: tuple  # its own flags; every mode also takes --out and --workers


_PROFILE_COLUMNS = ["alpha", "n", "profile_id", "edges", "is_tree",
                    "social_cost", "max_agent_cost"]

MODE_TABLE = {
    "verify": Mode(
        _rows_verify,
        ["alpha", "n", "profile_id", "is_nash", "deviating_agent",
         "old_cost", "new_cost", "new_strategy"],
        "decide whether a profile is an equilibrium", ("--in",)),
    "best-response": Mode(
        _rows_best_response, ["alpha", "n", "agent", "best_strategy", "best_cost"],
        "optimal strategy of one agent", ("--in", "--agent")),
    "dynamics": Mode(
        _rows_dynamics, ["event", "step", "agent", "old_cost", "new_cost", "detail"],
        "iterated best-response dynamics, from --in or the empty profile",
        ("--n", "--alpha", "--in", "--seed", "--schedule", "--budget")),
    "enumerate": Mode(_rows_enumerate, _PROFILE_COLUMNS,
                      "all equilibria at desk scale", ("--n", "--alpha")),
    "search": Mode(_rows_search, _PROFILE_COLUMNS,
                   "stochastic probe for non-tree equilibria",
                   ("--n", "--alpha", "--seed", "--iters")),
    "audit": Mode(
        _rows_audit,
        ["profile_id", "check_id", "applicable", "passed", "witness_summary"],
        "structural predicate report for a profile", ("--in", "--witnesses")),
    "poa": Mode(
        _rows_poa, ["alpha", "n", "worst_eq_cost", "opt_cost", "poa", "exhaustive"],
        "price of anarchy by exhaustive enumeration", ("--n", "--alpha")),
    "optimum": Mode(_rows_optimum, ["alpha", "n", "method", "cost", "profile_id"],
                    "closed-form social optimum", ("--n", "--alpha")),
}
MODES = tuple(MODE_TABLE)
CSV_SCHEMAS = {name: mode.columns for name, mode in MODE_TABLE.items()}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute one mode, write its CSV and manifest, return the manifest."""
    mode = MODE_TABLE.get(config.mode)
    if mode is None:
        raise ValueError(f"unknown mode {config.mode!r}")
    if not config.output:
        raise ValueError("an output path is required (--out FILE)")
    default = ExperimentConfig(config.mode)
    unread = [flag for flag, name in _FLAG_FIELDS.items() if flag not in mode.flags
              and getattr(config, name) != getattr(default, name)]
    if unread:
        raise ValueError(f"mode {config.mode} does not read {', '.join(unread)}")
    started = time.perf_counter()
    rows, extra = mode.rows(config)
    text = _csv_text(mode.columns, rows)
    _write_text(config.output, text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    recorded = {name: getattr(config, name)
                for name in [_FLAG_FIELDS[flag] for flag in mode.flags] + ["workers"]}
    if recorded.get("alpha") is not None:
        recorded["alpha"] = str(recorded["alpha"])
    manifest = RunManifest(
        tool="ncg", version=__version__, mode=config.mode, config=recorded,
        csv_schema=mode.columns, rows=len(rows), output=config.output,
        sha256=digest, wall_time_s=round(time.perf_counter() - started, 6),
        created_utc=datetime.now(timezone.utc).isoformat(),
        extra=extra)
    _write_text(config.output + ".manifest.json", manifest.to_json())
    return manifest


def _exact_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _worker_count(text: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError(f"not a worker count >= 1: {text!r}")
    return workers


_SCHEDULES = {"rr": "round-robin", "rand": "uniform-random"}

# add_argument keywords of the flags a mode may read; each dest is an
# ExperimentConfig field.
_FLAGS = {
    "--n": {"type": int},
    "--alpha": {"type": _exact_rational, "help": "exact rational, e.g. 25 or 19/2"},
    "--in": {"dest": "input", "metavar": "FILE"},
    "--agent": {"type": int, "required": True},
    "--seed": {"type": int},
    "--schedule": {"choices": tuple(_SCHEDULES)},
    "--budget": {"type": int},
    "--iters": {"dest": "iterations", "type": int},
    "--witnesses": {"dest": "show_witnesses", "action": "store_true",
                    "help": "also print the report as a text block"},
}
# The ExperimentConfig field behind each flag.
_FLAG_FIELDS = {flag: kwargs.get("dest", flag[2:]) for flag, kwargs in _FLAGS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncg",
        description="Max-distance network creation game toolkit")
    sub = parser.add_subparsers(dest="mode", required=True)
    for name, mode in MODE_TABLE.items():
        # An absent flag sets no attribute, so ExperimentConfig's default holds.
        p = sub.add_parser(name, help=mode.help, argument_default=argparse.SUPPRESS)
        for flag in mode.flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--workers", type=_worker_count)
        p.add_argument("--out", dest="output", required=True, metavar="FILE")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    flags = vars(args)
    if "schedule" in flags:
        flags = {**flags, "schedule": _SCHEDULES[flags["schedule"]]}
    return ExperimentConfig(**flags)


def exit_status(work: Callable[[], object]) -> int:
    """Call ``work()`` and return its exit code: 0, or after one stderr line
    4 for a profile error, 5 for a size guard, 3 for any other ValueError."""
    try:
        work()
    except ProfileFormatError as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return 4
    except SizeGuard as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    return 0


# Built once per process: building it costs milliseconds, which a caller
# that runs many jobs through main() in one process would pay per job.
_PARSER = build_parser()


def main(argv=None) -> int:
    config = config_from_args(_PARSER.parse_args(argv))

    def run_and_report():
        manifest = run(config)
        _emit(f"{manifest.mode}: {manifest.rows} row(s) -> {manifest.output}\n")

    return exit_status(run_and_report)


if __name__ == "__main__":
    sys.exit(main())
