"""Benchmark harness (driver contract + scaling evidence).

Default: runs the headline extraction pipeline + representative queries over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1 → the matching generated
interleaved corpus) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or this host's cores)`` and prints ONE JSON line.
Keyed exchanges size their buckets from the session's CPUs, so a session
wider than the host would oversize every exchange.

``--scaling``: runs the headline pipeline in two FRESH processes at
num_cpus=8 and num_cpus=32 on the same input and reports both throughputs
plus scaling efficiency ``(docs_per_s_32 / docs_per_s_8) / 4`` (formula per
reference benchmark/train-smart-parser.js:291-293) — the sandbox stand-in
for the north rule's N→4N-node criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _sf_dir() -> str:
    return os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")


def _sf_of(sf_dir: str) -> float:
    import re

    m = re.search(r"sf([0-9.]+)", sf_dir)
    return float(m.group(1)) if m else 0.1


# The size gate that picks a small-data plan below a row threshold.  The
# distributed bench leg zeroes it so the exchange plans that would execute
# at 100x — bucketed shuffles, cogroup joins, banded LSH exchanges and the
# triangle wedge join — regain tracked wall times (round-4 verdict item
# #1: at sf0.1 every gated query otherwise times a driver fold).
# joins.LOCAL_FOLD_ROWS is the one bound on the rows the driver holds of
# one input: every keyed fold and attach folds in-process at or below it
# (hash_exchange), every dimension attach (joins.lookup) broadcasts a dim
# of at most that many rows, the triangle count collects at most that
# many pair partials, and the MinHash and embedding-LSH near-dup folds
# take at most that many documents / vectors on the driver; zeroed, each
# fold runs its split and reduce tasks and each lookup its cogroup.
# t_sequence_pack's driver prefix sum reads it too.
_DISTRIBUTED_GATES = {
    "pdf_parse_new_ray.functions.joins": ["LOCAL_FOLD_ROWS"],
}
# NOT zeroed: the strategy constants that choose AMONG distributed routes
# by actual data size: dedup's BROADCAST_PAIR_ROWS, EMBED_BRUTE_MAX_ROWS,
# CLUSTER_BROADCAST_EDGES and SUBSTR_BROADCAST_ROWS; text's
# BIGRAM_BROADCAST_ROWS and DSIR_BROADCAST_ROWS.  Those pick the same
# strategy a 100x run would pick for the same relative shapes.  Exchanges
# that pass local=False (the extraction pipeline's, and
# d_levenshtein_pairs') never fold on the driver and need no entry here.


def _force_distributed_gates() -> list:
    """Zero every fast-path gate; returns (module, name, old) for restore."""
    import importlib

    saved = []
    for modname, names in _DISTRIBUTED_GATES.items():
        mod = importlib.import_module(modname)
        for n in names:
            saved.append((mod, n, getattr(mod, n)))
            setattr(mod, n, 0)
    return saved


def _restore_gates(saved: list) -> None:
    for mod, n, old in saved:
        setattr(mod, n, old)


def run_bench(num_cpus: int, headline_only: bool = False,
              distributed_only: bool = False) -> dict:
    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sf_dir = _sf_dir()
    sf = _sf_of(sf_dir)

    from pdf_parse_new_ray.fixtures.corpus import corpus_dir_for
    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = corpus_dir_for(sf)  # generated & cached outside the timed region

    # untimed warm-up: force every Ray worker process to start and import
    # the package once.  The measured quantity is steady-state throughput
    # (the north metric amortizes startup over 10^12 docs); without this the
    # 32-CPU run pays 32 cold imports inside the timed region and the
    # scaling comparison measures interpreter startup, not the engine.
    def _warm(batch):
        from pdf_parse_new_ray.stages.extractor import PdfExtractor  # noqa: F401
        from pdf_parse_new_ray.pipelines import extraction  # noqa: F401
        import pandas  # noqa: F401
        return batch

    import ray.data as rd

    rd.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        _warm, batch_size=1).materialize()

    # production shape: partitioned parquet + lineage written by the
    # workers; only per-partition metrics rows return to the driver
    import shutil

    out_dir = f"/tmp/bench_out/sf{sf}_cpus{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)
    # GRAFT_N_PARTITIONS pins the output partitioning so --scaling runs the
    # IDENTICAL job at both cluster sizes (a cluster-scaled partition count
    # would compare two different jobs)
    n_parts = int(os.environ.get("GRAFT_N_PARTITIONS", 0)) or max(16, num_cpus * 2)
    t0 = time.time()
    metrics = extract_documents(
        f"{base}/documents_interleaved", f"{base}/media",
        out_dir=out_dir, n_partitions=n_parts,
    ).take_all()
    extract_s = time.time() - t0
    n_docs = int(sum(m["n_docs"] for m in metrics))
    n_pages = int(sum(m["pages"] for m in metrics))

    result = {
        "metric": "interleaved-corpus extraction wall time",
        "value": round(extract_s, 3),
        "unit": "sec",
        "sf": sf,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "n_pages": n_pages,
        "docs_per_sec": round(n_docs / extract_s, 2),
        "pages_per_sec": round(n_pages / extract_s, 2),
        "queries": {"extract": round(extract_s, 3)},
    }
    if headline_only:
        ray.shutdown()
        return result

    from pdf_parse_new_ray.functions import ann, dedup, relational, text as tfn

    bench_queries = {
        "q1_pricing_summary": relational.q1_pricing_summary,
        "q3_top_orders": relational.q3_top_orders,
        "q5_nation_revenue": relational.q5_nation_revenue,
        "q6_forecast": relational.q6_forecast,
        "q_events_daily": relational.q_events_daily,
        "t_token_stats": tfn.t_token_stats,
        "d_exact_dedup": dedup.d_exact_dedup,
        "d_minhash_pairs": dedup.d_minhash_pairs,
        "e_knn_bruteforce": ann.e_knn_bruteforce,
        "e_knn_ivf": ann.e_knn_ivf,
        "q_top_orders_per_customer": relational.q_top_orders_per_customer,
        "q_price_band_join": relational.q_price_band_join,
        "t_repetition_signals": tfn.t_repetition_signals,
        "d_paragraph_dedup": dedup.d_paragraph_dedup,
        "q_running_balance": relational.q_running_balance,
        "q_rolling_avg": relational.q_rolling_avg,
        "t_top_bigrams": tfn.t_top_bigrams,
        "q_pareto_customers": relational.q_pareto_customers,
        "q_bloom_semi_join": relational.q_bloom_semi_join,
        "t_c4_quality_filter": tfn.t_c4_quality_filter,
        "d_substring_dedup": dedup.d_substring_dedup,
        "t_bigram_lm_score": tfn.t_bigram_lm_score,
        "e_knn_pq": ann.e_knn_pq,
        "q_heavy_hitters": relational.q_heavy_hitters,
        "q7_nation_pair_revenue": relational.q7_nation_pair_revenue,
        "q_copurchase_pairs": relational.q_copurchase_pairs,
        "d_levenshtein_pairs": dedup.d_levenshtein_pairs,
        "q_kmv_distinct": relational.q_kmv_distinct,
        "q_decile_stats": relational.q_decile_stats,
        "q_trailing_hour_sum": relational.q_trailing_hour_sum,
        "q8_market_share": relational.q8_market_share,
        "q10_returned_revenue": relational.q10_returned_revenue,
        "q12_ship_priority": relational.q12_ship_priority,
        "q17_small_qty_revenue": relational.q17_small_qty_revenue,
        "q_value_quantiles_by_type": relational.q_value_quantiles_by_type,
        "q_cms_heavy_hitters": relational.q_cms_heavy_hitters,
        "q_hll_distinct": relational.q_hll_distinct,
        "t_dsir_importance": tfn.t_dsir_importance,
    }
    from pdf_parse_new_ray.functions import graph

    bench_queries["g_pagerank_copurchase"] = graph.g_pagerank_copurchase
    bench_queries["g_triangle_count"] = graph.g_triangle_count
    bench_queries["e_kmeans_train"] = ann.e_kmeans_train
    bench_queries["d_semdedup"] = dedup.d_semdedup
    bench_queries["q_sessionization"] = relational.q_sessionization
    # force the LSH scale path (the r4 coarse-bucket dispatch) regardless
    # of the brute gate, so the bench tracks the at-scale plan
    bench_queries["d_embedding_neardup_lsh"] = (
        lambda sf: dedup.d_embedding_neardup(sf, method="lsh"))

    if not distributed_only:
        for name, fn in bench_queries.items():
            t0 = time.time()
            try:
                fn(sf_dir)
                result["queries"][name] = round(time.time() - t0, 3)
            except Exception as e:  # noqa: BLE001
                result["queries"][name] = f"ERROR: {type(e).__name__}"

    # Distributed leg: the same queries with every driver-fold / broadcast
    # gate zeroed, so the plans that execute at 100x scale keep a measured
    # wall time (BENCH_r03's numbers are the scale-path baseline).  The
    # phash near-dup tail is included because its banding/pair-dedupe
    # exchanges are gate-hidden at sf0.1 too.
    import importlib

    entry = importlib.import_module("__ray_entry__")
    dist_queries = dict(bench_queries)
    dist_queries["m_phash_neardup_pairs"] = entry.queries()["m_phash_neardup_pairs"]
    saved = _force_distributed_gates()
    try:
        result["queries_distributed"] = {}
        for name, fn in dist_queries.items():
            t0 = time.time()
            try:
                fn(sf_dir)
                result["queries_distributed"][name] = round(time.time() - t0, 3)
            except Exception as e:  # noqa: BLE001
                result["queries_distributed"][name] = f"ERROR: {type(e).__name__}"
    finally:
        _restore_gates(saved)
    ray.shutdown()
    return result


def _calib_work(blobs):
    import time as _t

    from pdf_parse_new_ray.pdfkernel import parse_pdf

    t0 = _t.process_time()
    for b in blobs:
        parse_pdf(b)
    return len(blobs), _t.process_time() - t0


def run_calibration(scaling_dir: str, n_docs: int = 6400,
                    lo: int = 8, hi: int = 32) -> dict:
    """No-Ray hardware ceiling: the identical kernel under plain
    multiprocessing at 8 and 32 processes on the same PDFs.  This machine is
    a single-socket fixed-clock Xeon; memory bandwidth is shared, so CPU
    time per doc inflates as concurrency rises for ANY framework.  The
    north rule's criterion is N->4N NODES, where each node brings its own
    memory controllers — this calibration quantifies how much of the
    single-box efficiency loss is hardware, not engine."""
    import multiprocessing as mp

    import pyarrow.dataset as pds

    blobs = pds.dataset(f"{scaling_dir}/media").head(n_docs).column("bytes").to_pylist()
    out = {}
    for nproc in (lo, hi):
        chunks = [blobs[i::nproc * 4] for i in range(nproc * 4)]
        with mp.Pool(nproc) as p:
            p.map(_calib_work, chunks[:nproc])  # warm imports, untimed
            t0 = time.time()
            res = p.map(_calib_work, chunks)
            wall = time.time() - t0
        n = sum(r[0] for r in res)
        out[nproc] = {"wall_s": round(wall, 3), "docs_per_sec": round(n / wall, 1),
                      "agg_cpu_s": round(sum(r[1] for r in res), 1)}
    out["ceiling_efficiency"] = round(
        (out[hi]["docs_per_sec"] / out[lo]["docs_per_sec"]) / (hi / lo), 3)
    return out


def run_scaling() -> dict:
    """Same job, fresh processes, num_cpus=8 then 32; efficiency per the
    reference formula speedup/cores_ratio.

    Uses a larger corpus (GRAFT_SCALING_SF, default 1.0 → 200k docs / 893k
    pages, the largest this sandbox generates) than the default bench so the
    measured quantity is steady-state throughput: the north metric amortizes
    job-startup/first-wave costs over 10^12 docs, and at sf0.1 the 32-CPU
    run finishes in ~10 s where those fixed costs are a quarter of the wall
    clock.  Measured (BASELINE.md r5-4): moving 0.3 → 1.0 lifted raw 8→32
    from the 0.67-0.71 band to 0.763 purely by amortization — the sf0.3
    trials were partly timing fixed costs, not the engine."""
    scaling_sf = float(os.environ.get("GRAFT_SCALING_SF", "1.0"))
    from pdf_parse_new_ray.fixtures.corpus import corpus_dir_for

    scaling_dir = corpus_dir_for(scaling_sf)  # generate/cache before timing
    # GRAFT_SCALING_CPUS="lo,hi" overrides the 8→32 pair: the shared host
    # often delivers only ~16 effective cores (see BASELINE.md capacity
    # probes), so an 8→16 pair measures N→2N inside real capacity while
    # the 8→32 default stays the driver-contract headline
    lo, hi = (int(x) for x in
              os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(","))
    # two interleaved trials per CPU count, best-of: this sandbox is a
    # shared-host VM with noisy neighbors; best-of approximates the
    # steady-state throughput the north metric defines
    results: dict = {}
    loadavgs: list = []
    for cpus in (lo, hi, hi, lo):
        loadavgs.append(round(os.getloadavg()[0], 2))
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["GRAFT_SF_DIR"] = scaling_dir
        # identical job shape at both cluster sizes: pinned output
        # partitioning and read-block granularity (only parallelism varies)
        env["GRAFT_N_PARTITIONS"] = "64"
        env["GRAFT_MEDIA_BLOCKS"] = "128"
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--single"],
            capture_output=True, text=True, env=env, timeout=3600,
        )
        line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
        r = json.loads(line)
        if cpus not in results or r["docs_per_sec"] > results[cpus]["docs_per_sec"]:
            results[cpus] = r
    r8, r32 = results[lo], results[hi]
    eff = (r32["docs_per_sec"] / r8["docs_per_sec"]) / (hi / lo)
    calib = run_calibration(scaling_dir, lo=lo, hi=hi)
    return {
        "metric": f"scaling efficiency (num_cpus {lo} -> {hi}, fresh sessions, same input)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "hardware_ceiling_efficiency": calib["ceiling_efficiency"],
        "normalized_efficiency": round(eff / calib["ceiling_efficiency"], 3)
        if calib["ceiling_efficiency"] else None,
        "calibration": calib,
        # co-tenant load on this shared box at each leg's launch
        # (order lo,hi,hi,lo) — the single biggest source of trial
        # variance; see BASELINE.md scaling-trial history
        "loadavg_at_legs": loadavgs,
        "sf": r8["sf"],
        f"docs_per_sec_{lo}": r8["docs_per_sec"],
        f"docs_per_sec_{hi}": r32["docs_per_sec"],
        f"pages_per_sec_{lo}": r8["pages_per_sec"],
        f"pages_per_sec_{hi}": r32["pages_per_sec"],
        f"wall_sec_{lo}": r8["value"],
        f"wall_sec_{hi}": r32["value"],
        "num_cpus": hi,
        "queries": {f"extract_{lo}cpu": r8["value"],
                    f"extract_{hi}cpu": r32["value"]},
    }


if __name__ == "__main__":
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", 0)) \
        or len(os.sched_getaffinity(0))
    if "--scaling" in sys.argv:
        out = run_scaling()
    elif "--single" in sys.argv:
        out = run_bench(cpus, headline_only=True)
    elif "--force-distributed" in sys.argv:
        out = run_bench(cpus, distributed_only=True)
    else:
        out = run_bench(cpus)
    print(json.dumps(out))
