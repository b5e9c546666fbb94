"""The benchmark's workloads.

Each workload makes its inputs from the seed, warms a Ray session up on an
input no timed job uses, runs timed jobs, and checks every job's output.

* ``extract_hash_skew`` times one ``extract_documents(..., out_dir=...,
  join_strategy="hash")`` call through the consumption of its
  per-partition metrics rows, on a fresh seed-derived skewed mixed-media
  corpus per job.
* ``queries_forced`` times passes over eleven oracle-checked query
  callables from ``__ray_entry__.queries()`` with every driver-fold gate
  zeroed, each pass on its own seeded row-permuted copy of the committed
  sf0.01 tables.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager

from . import check, inputs, ledger

QUERIES = (
    "q1_pricing_summary", "q3_top_orders", "q5_nation_revenue",
    "q8_market_share", "q_running_balance", "q_rolling_avg",
    "q_sessionization", "d_exact_dedup", "d_minhash_pairs", "t_token_stats",
    "q_events_daily",
)

# documents per timed job, and timed jobs per run at least: jobs of equal
# pages vary up to 2x in wall (how the split units fall on the CPUs), so a
# run measures several of them
DOCS_PER_JOB = 400
MIN_EXTRACT_JOBS = 7
TINY_DOCS = 30
TINY_SHAPE = {"html_frac": 0.35, "skew_pages": 250, "skew_doc_every": 10}
# d_minhash_pairs' oracle takes ~9 s of DuckDB; its answer (integer
# min-hash signatures, bands and slot-match counts per document pair) does
# not depend on row order, so it is computed once per checkout on the
# committed tables and cached.  Every other oracle reads the pass's copy.
ORDER_FREE = ("d_minhash_pairs",)
ORACLE_CACHE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".pbrun", "oracle-cache")
TABLE_SF = {"full": "0.01", "tiny": "0.001"}
WARMUP_TABLE_SF = "0.001"


def rss_reset() -> None:
    """Reset this process's peak-RSS mark (VmHWM) to its current RSS, so
    the next reading excludes input generation and earlier jobs."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def rss_peak_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _warm_imports():
    import pdf_parse_new_ray.functions.dedup  # noqa: F401
    import pdf_parse_new_ray.functions.relational  # noqa: F401
    import pdf_parse_new_ray.functions.text  # noqa: F401
    import pdf_parse_new_ray.pipelines.extraction  # noqa: F401
    import pdf_parse_new_ray.stages.extractor  # noqa: F401


def warm_workers(cpus: int) -> None:
    """Start every worker process and import the engine in it (Ray Data
    tasks run in the same worker processes)."""
    import ray

    warm = ray.remote(num_cpus=1)(_warm_imports)
    ray.get([warm.remote() for _ in range(cpus * 2)])


class Job:
    """Result of one timed job."""

    def __init__(self, wall_s: float, items: int, attempted: int,
                 failures: list[str], rss_mb: float, extra=None):
        self.wall_s = wall_s
        self.items = items
        self.attempted = attempted
        self.failures = failures
        self.rss_mb = rss_mb
        self.extra = extra or {}


class ExtractWorkload:
    unit = "pages"
    attempt_unit = "docs"
    min_jobs = MIN_EXTRACT_JOBS
    # names the seed streams of the corpora
    plan = "hash_skew"

    def __init__(self, size: str, work: str, seed: int, cpus: int):
        self.work = work
        self.seed = seed
        self.cpus = cpus
        self.size = size
        if size == "full":
            self.n_docs, self.corpus_kw = DOCS_PER_JOB, dict(inputs.CORPUS_SHAPE)
        else:
            self.n_docs, self.corpus_kw = TINY_DOCS, dict(TINY_SHAPE)
        self._next = 0
        self._ready: list[str] = []
        # corpora are generated ``cpus`` at a time, in parallel
        self.jobs_ahead = cpus

    # -- inputs
    def _corpus_job(self, tag: str, n_docs: int, shape_kw: dict):
        kw = dict(shape_kw, n_docs=n_docs,
                  seed=inputs.derive_seed(self.seed, self.plan, tag))
        return os.path.join(self.work, f"corpus-{tag}"), kw

    def prepare(self, n_jobs: int) -> None:
        """Warm-up corpus plus the first ``n_jobs`` job corpora."""
        warm_kw = dict(inputs.WARMUP_SHAPE)
        if self.size == "tiny":
            warm_kw["n_docs"] = 12
        jobs = [self._corpus_job("warmup", warm_kw.pop("n_docs"), warm_kw)]
        jobs += [self._corpus_job(f"job{i}", self.n_docs, self.corpus_kw)
                 for i in range(n_jobs)]
        made = inputs.make_corpora(jobs, self.cpus)
        self.warm_corpus = made[0]
        self._ready = made[1:]

    def next_input(self) -> str:
        if not self._ready:
            i = self._next
            self._ready = inputs.make_corpora(
                [self._corpus_job(f"job{i + k}", self.n_docs, self.corpus_kw)
                 for k in range(self.cpus)], self.cpus)
        self._next += 1
        return self._ready.pop(0)

    @staticmethod
    def throughput(jobs: list[Job]) -> tuple[float, dict]:
        """Committed pages per second of job wall (``pages_per_s``), over
        all the run's jobs: their pages over their summed wall."""
        pages_per_s = sum(j.items for j in jobs) / sum(j.wall_s for j in jobs)
        return pages_per_s, {"pages_per_s": pages_per_s}

    # -- run
    def _extract(self, corpus: str, out_dir: str, tracer):
        from pdf_parse_new_ray.pipelines.extraction import extract_documents

        shutil.rmtree(out_dir, ignore_errors=True)
        with tracer.span("pipelines.extract_documents"):
            ds = extract_documents(
                f"{corpus}/documents_interleaved", f"{corpus}/media",
                out_dir=out_dir, join_strategy="hash")
        with tracer.span("pipelines.consume_metrics"):
            rows = ds.take_all()
        return ds, rows

    def warmup(self, tag: str, tracer) -> None:
        self._extract(self.warm_corpus,
                      os.path.join(self.work, f"warm-out-{tag}"), tracer)

    def run_job(self, corpus: str, tracer) -> Job:
        out_dir = corpus + "-out"
        rss_reset()
        with tracer.span("job"):
            t0 = time.perf_counter()
            ds, rows = self._extract(corpus, out_dir, tracer)
            wall = time.perf_counter() - t0
        rss = rss_peak_mb()
        pages = int(sum(r["pages"] for r in rows))
        with tracer.span("check.oracle"):
            attempted, failures = check.check_extraction(out_dir, corpus)
        # the returned plan pins the job's intermediate blocks, so only a
        # traced job keeps anything of it: its exchange stats
        sorts = ledger.sort_stats(ds) if tracer.enabled else None
        return Job(wall, pages, attempted, failures, rss,
                   {"out_dir": out_dir, "corpus": corpus, "sorts": sorts})

    def layers(self, job: Job, tracer) -> dict:
        """Per-layer ledger on the traced job's media."""
        import ray

        from pdf_parse_new_ray.pipelines.extraction import extract_media_chunks
        from pdf_parse_new_ray.sources.interleaved import read_table

        corpus = job.extra["corpus"]
        out = {}
        sort_s, sort_mb, op_names = job.extra["sorts"]
        out["pipelines.sort_s"] = sort_s
        out["pipelines.sort_share"] = sort_s / job.wall_s
        out["pipelines.sort_mb"] = sort_mb
        out.update(ledger.state_probe(job.extra["out_dir"], tracer))
        media_path = f"{corpus}/media"
        blocks = max(16, int(ray.cluster_resources().get("CPU", 4)) * 4)
        t0 = time.perf_counter()
        with tracer.span("sources.read_table"):
            media = read_table(media_path, columns=["media_ref", "bytes"],
                               override_num_blocks=blocks).materialize()
        out["sources.read_s"] = time.perf_counter() - t0
        out["sources.read_mb"] = (media.size_bytes() or 0) / 1e6
        with tracer.span("stages.extract_media_chunks"):
            chunks = extract_media_chunks(media)
        out.update(ledger.extract_stage_stats(chunks))
        out["pipelines.tail_s"] = job.wall_s - out["stages.extract_s"]
        del media, chunks
        pdfs, htmls = ledger.kernel_sample(
            corpus, inputs.derive_seed(self.seed, "kernel"),
            1.0 if self.size == "full" else 0.05)
        out.update(ledger.kernel_baseline(pdfs, htmls, tracer))
        out["framework_tax"] = framework_tax(corpus, job.wall_s, self.cpus, out)
        out["operators"] = op_names
        return out


def framework_tax(corpus: str, wall_s: float, cpus: int, kern: dict) -> float:
    """1 - kernel CPU seconds / (job wall x Ray CPUs); the kernel CPU
    seconds are the corpus's media (each extracted once) at the measured
    single-process kernel rates."""
    import pyarrow.dataset as pds

    from pdf_parse_new_ray.htmlkernel import looks_like_html

    media = pds.dataset(f"{corpus}/media").to_table(columns=["bytes", "numpages"])
    pdf_pages = n_html = 0
    blobs = media.column("bytes")
    for i, n in enumerate(media.column("numpages").to_pylist()):
        if looks_like_html(blobs[i].as_py()[:1024]):
            n_html += 1
        else:
            pdf_pages += n
    cpu_s = pdf_pages / max(1e-9, kern["pdfkernel.pages_per_cpu_s"])
    if n_html:
        cpu_s += n_html / max(1e-9, kern["htmlkernel.docs_per_cpu_s"])
    return 1.0 - cpu_s / (wall_s * cpus)


@contextmanager
def forced_gates():
    """Zero every driver-fold gate for the duration (bench.py's list, the
    repository's one record of which gates pick a driver fold); the shipped
    values come back however the body exits."""
    import bench

    saved = bench._force_distributed_gates()
    try:
        yield saved
    finally:
        bench._restore_gates(saved)


class QueryWorkload:
    unit = attempt_unit = "queries"
    # a forced pass takes about as long as a run measures, and its joins
    # (q3, q5, q8) vary by up to half from pass to pass, so a run times two
    min_jobs = 2
    jobs_ahead = 2

    def __init__(self, size: str, work: str, seed: int, cpus: int):
        self.size = size
        self.work = work
        self.seed = seed
        self.cpus = cpus
        self._next = 0

    def prepare(self, n_jobs: int) -> None:
        import __ray_entry__

        self.fns = {q: __ray_entry__.queries()[q] for q in QUERIES}
        self.sqls = {q: __ray_entry__.oracle_sql()[q] for q in QUERIES}
        sf = TABLE_SF[self.size]
        self.tables = inputs.load_tables(sf)
        self.order_free = check.oracle_frames(
            os.path.join(inputs.TABLES_DIR, f"sf{sf}"), inputs.TABLE_NAMES,
            {q: self.sqls[q] for q in ORDER_FREE}, ORACLE_CACHE)
        self.warm_dir = inputs.write_tables(
            inputs.load_tables(WARMUP_TABLE_SF),
            os.path.join(self.work, "warm-tables"),
            permute_seed=inputs.derive_seed(self.seed, "warmup"))
        self._ready = [self._permuted(i) for i in range(n_jobs)]

    def _permuted(self, i: int) -> str:
        return inputs.write_tables(
            self.tables, os.path.join(self.work, f"pass{i}"),
            permute_seed=inputs.derive_seed(self.seed, "permute", i))

    def next_input(self) -> str:
        i = self._next
        self._next += 1
        return self._ready.pop(0) if self._ready else self._permuted(i)

    @staticmethod
    def throughput(jobs: list[Job]) -> tuple[float, dict]:
        """Queries per second of one pass: the pass's query count over the
        mean wall of one pass (``queries_s``), every result materialized."""
        queries_s = statistics.mean(j.wall_s for j in jobs)
        return len(QUERIES) / queries_s, {"queries_s": queries_s}

    def warmup(self, tag: str, tracer) -> None:
        from tools.check_queries import to_pandas

        with forced_gates():
            to_pandas(self.fns["q1_pricing_summary"](self.warm_dir))

    def run_job(self, tables_dir: str, tracer) -> Job:
        from tools.check_queries import compare, to_pandas

        frames: dict = {}
        raised: dict = {}
        per_query: dict = {}
        rss_reset()
        with tracer.span("job"):
            t0 = time.perf_counter()
            with forced_gates():
                for q in QUERIES:
                    q0 = time.perf_counter()
                    with tracer.span(f"functions.{q}"):
                        try:
                            frames[q] = to_pandas(self.fns[q](tables_dir))
                        except Exception as e:  # noqa: BLE001 - counted as failed
                            raised[q] = f"{type(e).__name__}: {e}"
                    per_query[q] = time.perf_counter() - q0
            wall = time.perf_counter() - t0
        rss = rss_peak_mb()
        failures = [f"{q}: raised {msg[:200]}" for q, msg in raised.items()]
        with tracer.span("check.oracle"):
            # the oracle reads the same permuted copy: where a float sum
            # lands on an exact half-cent tie, row order decides the
            # rounding, so another order's answer would not apply
            oracle = check.oracle_frames(
                tables_dir, inputs.TABLE_NAMES,
                {q: self.sqls[q] for q in frames if q not in ORDER_FREE})
            oracle.update(self.order_free)
            for q, frame in frames.items():
                verdict = compare(q, frame, oracle[q])
                if verdict != "OK":
                    failures.append(f"{q}: {verdict}")
        return Job(wall, len(QUERIES), len(QUERIES), failures, rss,
                   {"per_query": per_query})

    def layers(self, job: Job, tracer) -> dict:
        out = {f"functions.{q}_s": s for q, s in job.extra["per_query"].items()}
        pdfs, htmls = ledger.kernel_sample(
            None, inputs.derive_seed(self.seed, "kernel"),
            1.0 if self.size == "full" else 0.05)
        out.update(ledger.kernel_baseline(pdfs, htmls, tracer))
        return out


WORKLOADS = {
    "extract_hash_skew": ExtractWorkload,
    "queries_forced": QueryWorkload,
}
