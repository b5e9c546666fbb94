"""Local mimic of the driver's correctness gate: run every queries() entry
via Ray and its oracle_sql() via DuckDB on the same sf dir; compare row
count, column names, and values (columns sorted by name, rows sorted).

Usage: python tools/check_queries.py [--forced] [--repeat N] [sf_dir] [query ...]

--forced zeroes the driver-fold size gate (bench._force_distributed_gates:
joins.LOCAL_FOLD_ROWS, which bounds the in-process keyed folds,
joins.lookup's dimension broadcasts, the triangle count's driver close
and the near-dup driver folds) so each query runs its distributed plan;
it is restored afterwards.
--repeat N runs each query N more times after its checked (untimed) run
and prints the median of those N walls instead of the first run's wall.

Each line shows the query's wall, the number of Ray Data jobs (one
``StreamingExecutor.execute`` each) its checked run started and the
physical operators those jobs ran (input buffers included), as
``[0.123s, 1 job, 2 ops]``: every job and every operator costs a fixed
launch time, so the counts show where a query pays it.  The summary line
adds up the checked runs' jobs and operators: ``137 ok, 0 bad, 199 jobs,
600 ops``.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    # Mirrors the driver's canonicalization: columns sorted by name, rows
    # sorted, timestamps normalized to us, integer widths normalized to
    # int64 (the round-1 driver hash tolerated int32-vs-int64 but NOT
    # float64-vs-int64, so ints coerce and floats do not — a float-vs-int
    # oracle mismatch must surface here; it failed 3 queries in round 1).
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> str:
    if len(mine) != len(oracle):
        return f"ROWS {len(mine)} vs {len(oracle)}"
    if sorted(mine.columns) != sorted(oracle.columns):
        return f"COLS {sorted(mine.columns)} vs {sorted(oracle.columns)}"
    if len(mine) == 0:
        return "OK"  # driver hashes empty results equal regardless of dtype
    a, b = canon(mine), canon(oracle)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=True, check_exact=True)
        return "OK"
    except AssertionError as e:
        return "VALUES: " + str(e).splitlines()[-1][:160]


def compare_planted(mine: pd.DataFrame, exp: pd.DataFrame,
                    keys: list[str]) -> str:
    """Value-compare a query result against planted generator truth:
    filter the result to the expected keys (the truth may cover a row
    subset, e.g. only losslessly-decodable images), then require exact
    equality on the expected columns.  Keys are null-free and unique, so
    rows align by key sort (value columns may hold nulls, which object
    sorts would choke on)."""
    missing_cols = [c for c in exp.columns if c not in mine.columns]
    if missing_cols:
        return f"COLS missing {missing_cols}"
    mk = pd.MultiIndex.from_frame(mine[keys])
    ek = pd.MultiIndex.from_frame(exp[keys])
    sub = mine.loc[mk.isin(ek), list(exp.columns)]
    if len(sub) != len(exp):
        return f"ROWS {len(sub)} vs planted {len(exp)}"
    a = sub.sort_values(keys).reset_index(drop=True)
    b = exp[list(exp.columns)].sort_values(keys).reset_index(drop=True)
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                      check_exact=True)
        return f"planted-OK ({len(exp)} rows x {len(exp.columns)} cols)"
    except AssertionError as e:
        return "planted-VALUES: " + str(e).splitlines()[-1][:160]


def run_checks(sf_dir: str, only: set[str] | None = None,
               verbose: bool = True, forced: bool = False,
               repeat: int = 0) -> tuple[int, int, list[str]]:
    """Run every queries() entry vs its oracle on sf_dir using the
    CALLER's Ray session.  Returns (n_ok, n_bad, failure lines) — the
    importable core of the driver-gate mimic, also exercised end-to-end
    by the slow pytest nodes test_all_oracles_green and
    test_all_oracles_green_forced.  ``forced`` zeroes every driver-fold
    gate for the run (restored on return), so every query takes its
    distributed route.  ``repeat`` > 0 reports each query's wall as the
    median of that many more runs after the checked one."""
    return _run_checks(sf_dir, only, verbose, forced, repeat)[:3]


def _run_checks(sf_dir: str, only: set[str] | None, verbose: bool,
                forced: bool, repeat: int):
    """:func:`_check_all` with each Ray Data job (one
    ``StreamingExecutor.execute``) counted into ``jobs[0]`` and its
    physical operators into ``jobs[1]``, and every driver-fold gate
    zeroed when ``forced``: its three results plus the jobs and the
    operators of all checked runs."""
    import bench
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    execute = StreamingExecutor.execute
    jobs = [0, 0]

    def counting_execute(self, dag, *a, **kw):
        jobs[0] += 1
        jobs[1] += len(set(dag.post_order_iter()))
        return execute(self, dag, *a, **kw)

    saved = bench._force_distributed_gates() if forced else []
    StreamingExecutor.execute = counting_execute
    try:
        return _check_all(sf_dir, only, verbose, repeat, jobs)
    finally:
        StreamingExecutor.execute = execute
        bench._restore_gates(saved)


def _check_all(sf_dir: str, only: set[str] | None, verbose: bool,
               repeat: int, jobs: list):
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    planted = entrymod.planted() if hasattr(entrymod, "planted") else {}

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    n_ok = n_bad = n_jobs_all = n_ops_all = 0
    failures: list[str] = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        jobs[:] = [0, 0]
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            failures.append(f"{name}: RAY ERROR {type(e).__name__}: {e}")
            if verbose:
                print(failures[-1])
            n_bad += 1
            continue
        dt = time.time() - t0
        n_jobs, n_ops = jobs
        n_jobs_all += n_jobs
        n_ops_all += n_ops
        if repeat > 0:
            walls = []
            for _ in range(repeat):
                t0 = time.time()
                to_pandas(fn(sf_dir))
                walls.append(time.time() - t0)
            dt = statistics.median(walls)
        if name in oracles:
            try:
                oracle = con.execute(oracles[name]).fetchdf()
            except Exception as e:  # noqa: BLE001
                failures.append(f"{name}: ORACLE ERROR {e}")
                if verbose:
                    print(failures[-1])
                n_bad += 1
                continue
            verdict = compare(name, mine, oracle)
        elif name in planted:
            try:
                exp, keys = planted[name](sf_dir)
                verdict = compare_planted(mine, exp, keys)
            except Exception as e:  # noqa: BLE001
                verdict = f"planted-ERROR {type(e).__name__}: {e}"
        else:
            verdict = f"rows-only ({len(mine)} rows)"
        ok = (verdict == "OK" or verdict.startswith("rows-only")
              or verdict.startswith("planted-OK"))
        n_ok += ok
        n_bad += not ok
        if not ok:
            failures.append(f"{name}: {verdict}")
        if verbose:
            print(f"{name}: {verdict}  [{dt:.3f}s, {n_jobs} job"
                  f"{'' if n_jobs == 1 else 's'}, {n_ops} ops]")
    return n_ok, n_bad, failures, n_jobs_all, n_ops_all


def main() -> None:
    forced = "--forced" in sys.argv
    if forced:
        sys.argv.remove("--forced")
    repeat = 0
    if "--repeat" in sys.argv:
        i = sys.argv.index("--repeat")
        repeat = int(sys.argv[i + 1])
        del sys.argv[i:i + 2]
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        # keyed exchanges size their buckets from the session's CPUs
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False, logging_level="ERROR")
    n_ok, n_bad, _, n_jobs, n_ops = _run_checks(sf_dir, only, True, forced,
                                                repeat)
    print(f"\n{n_ok} ok, {n_bad} bad, {n_jobs} jobs, {n_ops} ops")
    ray.shutdown()


if __name__ == "__main__":
    main()
