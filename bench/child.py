"""One timed process of the ncg benchmark.

Usage: python3 bench/child.py '<json config>'

The process imports ncg from ``src``, writes the workload's generated
profile files into its run directory (``setup_s`` ends here) and calls
``ncg.cli.main`` once per job, in process, exactly as the CLI entry point
would. A fixed reference computation is timed right after set-up and
after every job, outside the jobs' timings. Nothing is shared with earlier
processes, so each process pays every cost a CLI user pays once per
invocation. Results go to ``result.json`` in the run
directory; with tracing on, the spans go to ``spans.csv`` beside it.

Config keys: workload, seed, workers, dir, spawned (the parent's
``time.monotonic()`` just before it started this process), trace,
setup_only.
"""

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # reaped pool workers
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def reference_kernel_s(rounds: int = 100) -> float:
    """Seconds for a fixed computation that shares no code with ncg.

    A bitmask BFS from every vertex of a fixed 48-vertex graph, the same
    kind of interpreter work as ncg's hot loops. Timings divided by it
    cancel most of the machine's own speed drift.
    """
    n = 48
    adj = [0] * n
    for v in range(n):
        for w in ((v + 1) % n, (v * 7 + 3) % n, (v * 13 + 5) % n):
            if w != v:
                adj[v] |= 1 << w
                adj[w] |= 1 << v
    full = (1 << n) - 1
    start = time.perf_counter()
    for _ in range(rounds):
        for s in range(n):
            seen = frontier = 1 << s
            while seen != full:
                nxt = 0
                m = frontier
                while m:
                    low = m & -m
                    nxt |= adj[low.bit_length() - 1]
                    m ^= low
                frontier = nxt & ~seen
                seen |= frontier
    return time.perf_counter() - start


def _run_job(main, argv):
    """Exit code, traceback text (None when the CLI returned normally),
    and what the job printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, None, out.getvalue(), err.getvalue()
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
        return code, None, out.getvalue(), err.getvalue()
    except Exception:  # the CLI leaked an exception: a failed job, not a crash here
        return 1, traceback.format_exc(), out.getvalue(), err.getvalue()


def main() -> None:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import ncg.cli
    import workloads

    run_dir = Path(cfg["dir"])
    run_dir.mkdir(parents=True)
    spec = workloads.build(cfg["workload"], cfg["seed"], cfg["workers"])
    workloads.write_inputs(spec, run_dir)
    os.chdir(run_dir)
    tracer = None
    if cfg["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cli_main = ncg.cli.main

    result = {"setup_s": time.monotonic() - cfg["spawned"]}
    references = [reference_kernel_s()]
    result["setup_reference_s"] = references[0]
    if not cfg["setup_only"]:
        jobs = []
        for job in spec["jobs"]:
            if tracer:
                tracer.job = job["id"]
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            code, tb, stdout, stderr = _run_job(cli_main, job["argv"])
            wall = time.perf_counter() - t0
            jobs.append({"id": job["id"], "wall_s": wall, "cpu_s": _cpu_s() - cpu0,
                         "code": code, "traceback": tb, "stdout": stdout,
                         "stderr": stderr})
            references.append(reference_kernel_s())
        # Each job is divided by the reference runs just before and after it.
        for k, entry in enumerate(jobs):
            local = (references[k] + references[k + 1]) / 2
            entry["wall_rel"] = entry["wall_s"] / local
            entry["cpu_rel"] = entry["cpu_s"] / local
        result["wall_s"] = sum(j["wall_s"] for j in jobs)
        result["cpu_s"] = sum(j["cpu_s"] for j in jobs)
        result["wall_rel"] = sum(j["wall_rel"] for j in jobs)
        result["cpu_rel"] = sum(j["cpu_rel"] for j in jobs)
        result["slowest_job_rel"] = max(j["wall_rel"] for j in jobs)
        result["reference_s"] = statistics.median(references)
        result["peak_rss_mb"] = _peak_rss_mb()
        for job, entry in zip(spec["jobs"], jobs):
            with open(f"{job['id']}.stdout", "w", encoding="utf-8") as fh:
                fh.write(entry.pop("stdout"))
            try:
                with open(job["out"], "rb") as fh:
                    entry["sha256"] = hashlib.sha256(fh.read()).hexdigest()
            except FileNotFoundError:
                entry["sha256"] = None
        result["jobs"] = jobs
        if tracer:
            tracer.recording = False
            result["trace"] = tracer.summary()
            tracer.write_spans(run_dir / "spans.csv")
    with open(run_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
