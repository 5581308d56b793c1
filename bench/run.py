"""ncg benchmark: drives the ``ncg`` CLI on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload census-n5 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

A run starts fresh processes (``child.py``) one after another, each of
which imports ncg, writes the workload's inputs and runs the whole job
list once; it keeps starting them while another one still fits in
``--seconds``. Timings are medians over those processes. With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced processes and prints the per-layer
metrics plus the tracing overhead. Output checks and determinism checks
run outside the timed region and feed ``failed``. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Working files go to ``.bench_build/ncg-bench`` under the repository root;
the last result and span file of each workload are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build" / "ncg-bench"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
import tracing  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_rel", "x"), ("slowest_job_rel", "x"),
              ("cpu_rel", "x"), ("peak_rss_mb", "MB"))
# Per-layer metrics named in BENCHMARK.json: <module>.<function>.<stat>.
PER_LAYER_CALLS = (
    "profiles.load_profile", "game.build_graph", "game.agent_cost",
    "game.social_cost", "game.eccentricity", "game.distances_from",
    "equilibrium.isomorphism_canonical_code", "equilibrium.best_response_exact",
    "equilibrium.is_nash", "equilibrium.improving_move_heuristic",
    "equilibrium.best_response_dynamics", "optimum.optimum_bruteforce",
    "structure.audit_equilibrium_structure", "structure.shortest_cycle",
    "structure.min_cycle_through_edge", "structure.is_min_cycle",
    "structure.component_subgraph", "structure.shortest_path_tree",
    "structure.shopping_vertices")
PER_LAYER_RATIOS = ("equilibrium.is_nash.nash_ratio",
                    "equilibrium.improving_move_heuristic.hit_ratio",
                    "equilibrium.search_nontree_equilibria.found_ratio")
OVERHEAD = "trace.overhead_s"
SETUP_SAMPLES = 11
# setup_s is reported in seconds at this reference-kernel time, the kernel's
# typical time on the 2-vCPU machine the benchmark was written on.
REFERENCE_NOMINAL_S = 0.04
MIN_TOP_LEVEL_SHARE = 0.9
CHILD_TIMEOUT_S = 150
POOL_NOTE = ("spans inside forked pool workers are not captured; their time "
             "is part of equilibrium.enumerate_equilibria.self_s")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in tracing.TRACED}
    units.update({f"{name}.calls": "count" for name in PER_LAYER_CALLS})
    units.update({name: "ratio" for name in PER_LAYER_RATIOS})
    units[OVERHEAD] = "s"
    return units


def _git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def environment(spec, args, workers) -> dict:
    return {"nproc": _cores(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": _git_sha(),
            "src_sha256": _src_sha256(), "workload": spec["name"],
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "pool_workers": workers, "params": spec["params"]}


def _spawn(run_dir: Path, name, seed, workers, trace=False, setup_only=False) -> dict:
    cfg = {"workload": name, "seed": seed, "workers": workers, "dir": str(run_dir),
           "trace": trace, "setup_only": setup_only}
    cfg["spawned"] = time.monotonic()
    # A process group of its own lets a timeout stop the pool workers too.
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"benchmark process exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"benchmark process failed:\n{stderr[-2000:]}")
    with open(run_dir / "result.json", encoding="utf-8") as fh:
        return json.load(fh)


def _timed_processes(work: Path, args, workers):
    """Fresh processes until the next one would end after --seconds.

    With tracing, untraced and traced processes alternate so that both
    see the same machine conditions. A process that stops after set-up
    precedes each group, so the set-up samples span the whole run.
    Returns the job-running processes and (set-up time, reference time)
    pairs.
    """
    kinds = (False, True) if args.trace else (False,)
    runs, setups = [], []
    start = time.monotonic()
    while True:
        res = _spawn(work / f"setup{len(setups)}", args.workload, args.seed, workers,
                     setup_only=True)
        setups.append((res["setup_s"], res["setup_reference_s"]))
        for traced in kinds:
            run_dir = work / f"p{len(runs)}"
            res = _spawn(run_dir, args.workload, args.seed, workers, trace=traced)
            res["dir"], res["traced"] = run_dir, traced
            runs.append(res)
            if not traced:
                setups.append((res["setup_s"], res["setup_reference_s"]))
        elapsed = time.monotonic() - start
        if elapsed * (1 + len(kinds) / len(runs)) > args.seconds:
            return runs, setups


def _job_failures(runs, problems, serial) -> list:
    """(process, job id, reason) for every failed job. The first process's
    outputs were checked; every other process must match them byte for byte."""
    failures = []
    for k, res in enumerate(runs):
        for job, first in zip(res["jobs"], runs[0]["jobs"]):
            why = []
            if job["code"] != 0 or job["traceback"] or job["sha256"] is None:
                why.append(f"exit {job['code']}: "
                           f"{(job['traceback'] or job['stderr']).strip()[-300:]}")
            elif job["sha256"] != first["sha256"]:
                why.append("CSV differs from the first process of this seed")
            else:
                why += problems[job["id"]]
            if serial is not None and job["sha256"] != serial[job["id"]]:
                why.append("CSV differs from the --workers 1 run")
            if res["traced"]:
                covered = res["trace"]["top_level_s"].get(job["id"], 0.0)
                if covered < MIN_TOP_LEVEL_SHARE * job["wall_s"]:
                    why.append(f"top-level spans cover {covered:.4f} s of "
                               f"{job['wall_s']:.4f} s")
            failures += [(k, job["id"], w) for w in why]
    return failures


def run_workload(args) -> dict:
    workers = min(2, _cores())
    spec = workloads.build(args.workload, args.seed, workers)
    uses_pool = any("--workers" in job["argv"] for job in spec["jobs"])
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runs, setups = _timed_processes(work, args, workers)
        while len(setups) < SETUP_SAMPLES:
            res = _spawn(work / f"setup{len(setups)}", args.workload, args.seed,
                         workers, setup_only=True)
            setups.append((res["setup_s"], res["setup_reference_s"]))
        serial = None
        if uses_pool and workers > 1:
            res = _spawn(work / "serial", args.workload, args.seed, 1)
            serial = {job["id"]: job["sha256"] for job in res["jobs"]}
        import checks
        problems = checks.check(spec, runs[0]["dir"], args.seed)
        failures = _job_failures(runs, problems, serial)
        traced = [r for r in runs if r["traced"]]
        if traced:
            WORK.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(traced[-1]["dir"] / "spans.csv",
                            WORK / f"spans-{args.workload}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in runs if not r["traced"]]
    median = statistics.median
    raw = {}
    if args.trace:
        units = per_layer_units()
        layers = [tracing.layer_metrics(r["trace"]) for r in traced]
        values = {name: median(layer[name] for layer in layers)
                  for name in units if name != OVERHEAD}
        values[OVERHEAD] = (median(r["wall_s"] for r in traced)
                            - median(r["wall_s"] for r in untraced))
    else:
        units = dict(END_TO_END)
        seconds = {
            "wall_s": [r["wall_s"] for r in untraced],
            "slowest_job_s": [max(j["wall_s"] for j in r["jobs"]) for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "reference_s": [r["reference_s"] for r in untraced],
        }
        values = {"setup_s": REFERENCE_NOMINAL_S * median(t / ref for t, ref in setups),
                  "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced)}
        for name in ("wall_rel", "slowest_job_rel", "cpu_rel"):
            values[name] = median(r[name] for r in untraced)
        raw = {name: median(samples) for name, samples in seconds.items()}
        raw["setup_wall_s"] = median(t for t, _ in setups)
    attempted = sum(len(r["jobs"]) for r in runs)
    failed = len({(k, job_id) for k, job_id, _ in failures})
    result = {
        "env": environment(spec, args, workers),
        "processes": {"timed": len(untraced), "traced": len(traced),
                      "setup_samples": len(setups),
                      "jobs_per_process": len(spec["jobs"])},
        "raw_seconds": raw,
        "samples": {
            "setup_s": [t for t, _ in setups],
            "setup_reference_s": [ref for _, ref in setups],
            "reference_s": [r["reference_s"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "wall_rel": [r["wall_rel"] for r in runs],
            "job_wall_s": [{j["id"]: j["wall_s"] for j in r["jobs"]} for r in runs],
            "traced": [r["traced"] for r in runs]},
        "error_rate": failed / attempted,
        "failures": [f"process {k} job {job_id}: {why}" for k, job_id, why in failures],
        "summary": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": {name: {"value": values[name], "unit": units[name]}
                                for name in units}},
    }
    if args.trace and uses_pool:
        result["note"] = POOL_NOTE
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"last-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def _print_report(result) -> None:
    env, summary = result["env"], result["summary"]
    print(f"# {env['workload']}  seed={env['seed']}  seconds={env['seconds']}  "
          f"trace={env['trace']}  processes={json.dumps(result['processes'])}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for line in result["failures"]:
        print(f"# FAIL {line}")
    for name, metric in summary["metrics"].items():
        print(f"{env['workload']:<11} {name:<52} {metric['value']:>14.6f} {metric['unit']}")
    for name, value in result["raw_seconds"].items():
        print(f"{env['workload']:<11} {name:<52} {value:>14.6f} s (median, not gated)")
    print(f"{env['workload']:<11} {'error_rate':<52} {result['error_rate']:>14.6f} "
          f"ratio ({summary['failed']}/{summary['attempted']} jobs)")
    if "note" in result:
        print(f"# note: {result['note']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "ncg" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a full "
                  f"checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "tests"))  # checks.py imports oracles
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            _print_report(result)
            summaries[name] = result["summary"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {f"{w}.{m}": v for w, s in summaries.items()
                             for m, v in s["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
