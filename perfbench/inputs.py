"""Seeded benchmark inputs.

Every input is a pure function of the workload seed, so the same seed gives
byte-identical inputs.  Two kinds:

* interleaved corpora from ``fixtures.corpus.generate_corpus`` (documents,
  media, and the generator's own ``oracle_docs``), one per timed job;
* the committed sf0.01 / sf0.001 query tables (``data/``), copied with a
  seeded row permutation for every timed query pass.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# corpus shape of the extraction workload: ~35% of media spans are HTML,
# and every 97th document is a 600-page skew PDF over both split gates of
# stages.split (>= 100 KB and > 200 pages), so it is cut into page-range
# units
CORPUS_SHAPE = {"html_frac": 0.35, "skew_pages": 600, "skew_doc_every": 97}
# the warm-up corpus is smaller but takes the same code paths
# (a 250-page skew document still crosses both split gates)
WARMUP_SHAPE = {"n_docs": 20, "html_frac": 0.35, "skew_pages": 250,
                "skew_doc_every": 19}


def derive_seed(seed: int, *path) -> int:
    """Stable child seed: the same (seed, path) always gives the same value,
    and distinct paths give unrelated streams."""
    h = seed & 0xFFFFFFFF
    for part in path:
        for ch in str(part):
            h = (h * 1_000_003 + ord(ch)) & 0xFFFFFFFF
        h = (h * 2_654_435_761 + 0x9E3779B9) & 0xFFFFFFFF
    return h


def _gen_corpus(args) -> str:
    from pdf_parse_new_ray.fixtures.corpus import generate_corpus

    out, kwargs = args
    shutil.rmtree(out, ignore_errors=True)
    generate_corpus(out, **kwargs)
    return out


def make_corpora(jobs: list[tuple[str, dict]], workers: int) -> list[str]:
    """Generate corpora ``[(out_dir, generate_corpus kwargs)]`` with up to
    ``workers`` processes (all of them have ended when this returns)."""
    if workers <= 1 or len(jobs) <= 1:
        return [_gen_corpus(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(_gen_corpus, jobs))


# ---------------------------------------------------------------- tables

# the TPC-H-style test tables (star schema + events + documents) the query
# callables are written against, committed with the benchmark at two sizes
TABLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
TABLE_NAMES = ("region", "nation", "customer", "supplier", "part", "orders",
               "lineitem", "events", "documents")


def load_tables(sf: str) -> dict[str, pa.Table]:
    """The committed tables of scale factor ``sf`` ("0.01" or "0.001")."""
    return {t: pq.read_table(os.path.join(TABLES_DIR, f"sf{sf}", f"{t}.parquet"))
            for t in TABLE_NAMES}


def write_tables(tables: dict[str, pa.Table], out_dir: str,
                 permute_seed: int | None = None) -> str:
    """One parquet file per table; ``permute_seed`` shuffles the rows of
    every table with a seeded permutation (the content is unchanged, so the
    oracle results are too)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(permute_seed) if permute_seed is not None else None
    for name, tbl in tables.items():
        if rng is not None:
            tbl = tbl.take(pa.array(rng.permutation(tbl.num_rows)))
        pq.write_table(tbl, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir
