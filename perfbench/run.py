#!/usr/bin/env python3
"""Benchmark of the extraction engine and the query functions over it.

Usage (from the repository root):

    python3 perfbench/run.py --workload extract_hash_skew --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one job
of the workload with spans recorded around every layer call, then prints
the per-layer ledger.  Every timed job's output is checked
(span-sequence equality against the corpus oracle, or the DuckDB oracle for
queries); any mismatch is printed and the run exits 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Inputs, Ray's session files, the spill directory, spans and
per-run reports live under ``.pbrun/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# inputs, outputs, Ray's session files and the per-run reports; the name is
# short because Ray's unix sockets live under it (see MAX_RAY_TEMP_DIR)
RUN_DIR = os.path.join(ROOT, ".pbrun")

SETUP_REPEATS = 2
OBJECT_STORE_BYTES = 768 * 1024 * 1024
# Ray puts its unix sockets under its temp dir, and AF_UNIX paths hold 107
# bytes of which Ray's session and socket names take up to 64; from a
# checkout with a longer path Ray keeps its own default temp dir
MAX_RAY_TEMP_DIR = 43
# no new timed job starts after this much run time (the run must end
# within 180 s)
SOFT_DEADLINE_S = 100.0
# The host is shared: while the hypervisor gives this machine's CPUs to
# other guests (steal), a job runs up to twice as long.  A timed job during
# which more than STEAL_LIMIT of CPU time was stolen is still checked and
# reported, but is replaced by further jobs, for up to RETRY_S more job
# time; the headline is taken over the undisturbed jobs when there are
# enough of them, else over all jobs.
STEAL_LIMIT = 0.05
RETRY_S = 4.0
# set in the environment of the process that runs the benchmark (so every
# process it starts inherits it); without it, run.py only supervises
RUN_ENV = "PERFBENCH_RUN"
# the supervisor stops a run that has not ended by then (a run must end
# within 180 s)
HARD_DEADLINE_S = 160.0
# processes of a run that are still there this long after it ended are
# killed, and waited for up to LEFTOVER_WAIT_S more
LEFTOVER_GRACE_S = 2.0
LEFTOVER_WAIT_S = 10.0


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input size; 'tiny' is for the benchmark's self-tests")
    return p.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    import subprocess

    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_ticks() -> tuple[int, int, int]:
    """(all, stolen, busy) CPU ticks of the machine since boot, from
    /proc/stat; busy is all but idle, iowait and steal."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    total = sum(fields[:8])
    return total, fields[7], total - fields[3] - fields[4] - fields[7]


def host_block(cpus: int) -> dict:
    import platform

    import duckdb
    import pyarrow
    import ray

    ram_gb = 0.0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                ram_gb = int(line.split()[1]) / 1024 / 1024
    return {
        "affinity_vcpus": cpus,
        "ram_gb": round(ram_gb, 2),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "git_sha": git_sha(),
    }


def start_ray(cpus: int, spill_dir: str) -> None:
    import logging

    import ray
    from ray.data import DataContext

    os.makedirs(spill_dir, exist_ok=True)
    kw = {}
    if len(RUN_DIR) <= MAX_RAY_TEMP_DIR:
        kw["_temp_dir"] = RUN_DIR
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _system_config={"object_spilling_config": json.dumps(
                 {"type": "filesystem",
                  "params": {"directory_path": spill_dir}})},
             **kw)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def setup_once(wl, cpus: int, spill_dir: str, tag: str, tracer) -> float:
    """ray.init, worker start and imports, and one untimed warm-up job."""
    from perfbench.workloads import warm_workers

    t0 = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("setup.ray_init"):
            start_ray(cpus, spill_dir)
        with tracer.span("setup.warm_workers"):
            warm_workers(cpus)
        with tracer.span("setup.warmup_job"):
            wl.warmup(tag, tracer)
    return time.perf_counter() - t0


def _sessions() -> set[str]:
    try:
        return {d for d in os.listdir(RUN_DIR) if d.startswith("session_")}
    except FileNotFoundError:
        return set()


def remove_new_sessions(before: set[str]) -> None:
    """Delete the Ray session directories made since ``before``."""
    for d in _sessions() - before:
        path = os.path.join(RUN_DIR, d)
        if os.path.islink(path):
            os.unlink(path)
        else:
            shutil.rmtree(path, ignore_errors=True)


def traced_run(wl, cpus: int, spill_dir: str, report: dict, name: str):
    """One traced job, then the per-layer ledger."""
    from perfbench import ledger
    from perfbench.trace import Tracer, self_times, span_cost_s

    tracer = Tracer(True)
    with tracer.span("inputs"):
        wl.prepare(1)
    setup_once(wl, cpus, spill_dir, "0", tracer)
    tracer.new_trace("traced-job")
    traced = wl.run_job(wl.next_input(), tracer)
    spilled = ledger.dir_mb(spill_dir)
    tracer.new_trace("layers")
    layers = wl.layers(traced, tracer)
    layers["ray.spilled_mb"] = spilled
    layers["trace.job_s"] = traced.wall_s
    # every span is opened and closed on the driver while it waits for the
    # job, so tracing costs the job (spans recorded) x (cost of one span)
    n_spans = sum(1 for s in tracer.spans if s["trace"] == "traced-job"
                  and s["name"] != "check.oracle")
    cost, cost_spread = span_cost_s()
    layers["trace.spans"] = n_spans
    layers["trace.overhead_s"] = n_spans * cost
    report["span_cost_s"] = {"median": cost, "iqr_over_median": cost_spread}
    report["layers"] = layers
    report["self_times"] = {tid: self_times(tracer.spans, tid)
                            for tid in ("setup", "traced-job", "layers")}
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    report["spans_file"] = os.path.join(RUN_DIR, "results", f"{name}.spans.json")
    tracer.write(report["spans_file"])
    # a layer the workload never calls did no work: 0
    metrics = {m: layers.get(m, 0.0) for m in metric_units()[1]}
    return metrics, [traced]


def timed_run(wl, cpus: int, spill_dir: str, report: dict, seconds: float,
              t_start: float, size: str):
    """Set up SETUP_REPEATS times, then run timed jobs for ``seconds``."""
    import ray

    from perfbench.trace import Tracer

    off = Tracer(False)
    wl.prepare(wl.min_jobs if size == "tiny" else wl.jobs_ahead)
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            ray.shutdown()
        setups.append(setup_once(wl, cpus, spill_dir, str(i), off))
    jobs, steal, busy = [], [], []
    measured = clean_s = 0.0
    while True:
        job_input = wl.next_input()
        t0 = cpu_ticks()
        jobs.append(wl.run_job(job_input, off))
        t1 = cpu_ticks()
        steal.append((t1[1] - t0[1]) / max(1, t1[0] - t0[0]))
        busy.append((t1[2] - t0[2]) / os.sysconf("SC_CLK_TCK"))
        measured += jobs[-1].wall_s
        if steal[-1] <= STEAL_LIMIT:
            clean_s += jobs[-1].wall_s
        clean = [j for j, st in zip(jobs, steal) if st <= STEAL_LIMIT]
        if time.perf_counter() - t_start > SOFT_DEADLINE_S:
            break
        if clean_s >= seconds and len(clean) >= wl.min_jobs:
            break
        if measured >= seconds + RETRY_S and len(jobs) >= wl.min_jobs:
            break
    used = clean if len(clean) >= wl.min_jobs else jobs
    value, report["headline"] = wl.throughput(used)
    report["jobs_disturbed"] = len(jobs) - len(clean)
    report["setups_s"] = setups
    report["jobs"] = [{"wall_s": j.wall_s, wl.unit: j.items, "rss_mb": j.rss_mb,
                       "steal_frac": st, "busy_cpu_s": b, "used": j in used,
                       **({"per_query_s": j.extra["per_query"]}
                          if "per_query" in j.extra else {})}
                      for j, st, b in zip(jobs, steal, busy)]
    metrics = {
        "throughput_per_s": value,
        "setup_s": statistics.median(setups),
        "driver_rss_peak_mb": statistics.median(j.rss_mb for j in used),
    }
    return metrics, jobs


def run(args) -> tuple[dict, list[str], int, dict]:
    """Returns (metrics, failures, attempted, report)."""
    import ray

    from perfbench.workloads import WORKLOADS

    cpus = len(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    work = os.path.join(RUN_DIR, f"w{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spill_dir = os.path.join(work, "spill")
    sessions_before = _sessions()
    wl = WORKLOADS[args.workload](args.size, work, args.seed, cpus)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "attempt_unit": wl.attempt_unit,
                    "host": host_block(cpus)}
    ticks0 = cpu_ticks()
    try:
        if args.trace:
            metrics, jobs = traced_run(wl, cpus, spill_dir, report,
                                       f"{args.workload}-seed{args.seed}")
        else:
            metrics, jobs = timed_run(wl, cpus, spill_dir, report, args.seconds,
                                      t_start, args.size)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        remove_new_sessions(sessions_before)
    failures = [f for j in jobs for f in j.failures]
    attempted = sum(j.attempted for j in jobs)
    report["run_s"] = time.perf_counter() - t_start
    # the host is shared: CPU time the hypervisor gave to other guests
    # during the run explains much of the run-to-run spread
    ticks1 = cpu_ticks()
    report["host"]["cpu_steal_frac"] = (
        (ticks1[1] - ticks0[1]) / max(1, ticks1[0] - ticks0[0]))
    return metrics, failures, attempted, report


def _run_processes(sid: int, marker: bytes) -> list[int]:
    """Processes (zombies too) in session ``sid`` or whose environment
    holds ``marker``: everything the benchmark process started, however
    deep, also a process that made a session of its own."""
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                stat = f.read()
            # after "(comm) ": state ppid pgrp session ...
            if int(stat[stat.rindex(b")") + 2:].split()[3]) == sid:
                found.append(int(d))
                continue
            with open(f"/proc/{d}/environ", "rb") as f:
                if marker in f.read().split(b"\0"):
                    found.append(int(d))
        except (OSError, ValueError, IndexError):
            continue
    return found


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process in a session of its own, then
    stop every process left of it and wait until each has ended.

    Ray's workers, the multiprocessing resource tracker and the corpus
    generators' pool can outlive the process that started them by a few
    seconds; none may outlive the command."""
    import signal
    import subprocess

    token = f"{os.getpid()}-{time.time_ns()}"
    marker = f"{RUN_ENV}={token}".encode()
    # a SIGTERM to this process still stops the run's processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                             env=dict(os.environ, **{RUN_ENV: token}),
                             start_new_session=True)
    try:
        return child.wait(timeout=HARD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: the run did not end within {HARD_DEADLINE_S:.0f} s",
              file=sys.stderr)
        return 3
    finally:
        grace_end = time.monotonic() + LEFTOVER_GRACE_S
        while True:
            child.poll()  # reaps the child once it has ended
            left = _run_processes(child.pid, marker)
            if not left:
                break
            if time.monotonic() > grace_end + LEFTOVER_WAIT_S:
                print(f"perfbench: processes {left} of the run did not end",
                      file=sys.stderr)
                break
            if time.monotonic() > grace_end:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.05)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if RUN_ENV not in os.environ:
        return supervise(argv)
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import bench  # noqa: F401 - the gate list of queries_forced
        import pdf_parse_new_ray  # noqa: F401
        import tools.check_queries  # noqa: F401
        import __ray_entry__  # noqa: F401
        from perfbench.workloads import WORKLOADS
    except ImportError as e:
        print(f"perfbench: the engine is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    metrics, failures, attempted, report = run(args)
    units = metric_units()[1 if args.trace else 0]
    for line in failures:
        print(f"MISMATCH {line}")
    print("host " + json.dumps(report["host"], sort_keys=True))
    for tid, table in report.get("self_times", {}).items():
        for name, agg in sorted(table.items()):
            print(f"self {tid:<10} {name:<34} calls={agg['calls']:<6} "
                  f"total={agg['total_s']:.4f}s self={agg['self_s']:.4f}s")
    if "span_cost_s" in report:
        c = report["span_cost_s"]
        print(f"span cost = {c['median']:.3e} s (IQR/median {c['iqr_over_median']:.3f})")
    for name, value in report.get("headline", {}).items():
        print(f"{name} = {value}")
    if "jobs" in report:
        print(f"timed jobs = {len(report['jobs'])}, "
              f"{report['jobs_disturbed']} under steal > {STEAL_LIMIT} "
              f"(headline over {sum(j['used'] for j in report['jobs'])})")
    for name, value in metrics.items():
        print(f"metric {name} = {value} {units[name]}")
    print(f"failed_frac = {len(failures) / max(1, attempted)} "
          f"({len(failures)} of {attempted} {report['attempt_unit']} attempted)")
    report.update(metrics=metrics, failures=failures, attempted=attempted)
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(report, f, indent=1, default=str)
    correct = not failures and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
