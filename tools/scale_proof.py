"""Memory-bounded scale proof at sf1.0 (round-4 verdict item #2).

Runs the flagship extraction end-to-end at the largest corpus the sandbox
generates (sf1.0 = 200,000 docs, 10x the bench corpus) with EVERY
driver-fold / broadcast gate zeroed, so the plans measured are the exact
distributed plans a 100x cluster run would execute:

  1. ``extract_documents`` (keyed media cogroup + partition regroup),
     partitioned parquet writes + per-partition lineage;
  2. a FULL-corpus span-sequence equality verify vs the generator oracle,
     done distributed: per-doc blake2b digest of the ordered
     (kind, text, media_ref, offset) tuples folded into a commutative
     per-batch partial sum mod 2^61-1, so the driver never holds document
     contents — multiset equality of (doc_id, span-sequence) across 200k
     docs with O(n_batches) driver traffic;
  3. a 10-query distributed sample over the largest available inputs
     (the sf1 corpus for corpus-facing ops, sf0.1 testdata — the largest
     the driver generates — for table-facing ops), value-oracled via
     DuckDB where an oracle exists (tools/check_queries.run_checks);
  4. driver memory + object-store accounting: peak driver RSS from
     /proc/self/status VmHWM and Ray's memory_summary (object-store usage
     + spill), printed as ONE JSON line for BASELINE.md.

Usage: python tools/scale_proof.py [--sf 1.0] [--cpus 32]
Exits 1 when span equality fails or any spot oracle is bad.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

MOD = (1 << 61) - 1


def _vm_peak_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM"):
                return round(int(line.split()[1]) / 1024.0, 1)
    return -1.0


def _vm_now_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS"):
                return round(int(line.split()[1]) / 1024.0, 1)
    return -1.0


def _digest_batch(batch):
    """One row out per batch in: (n_docs, partial sum of per-doc digests).

    The digest covers doc_id + the ORDERED span tuples, so sequence order
    inside each doc is part of the equality; the cross-doc fold is a
    commutative sum, so block order / partitioning never matters."""
    import hashlib

    import pyarrow as pa

    total = 0
    ids = batch.column("doc_id").to_pylist()
    spans = batch.column("spans").to_pylist()
    for doc_id, ss in zip(ids, spans):
        h = hashlib.blake2b(doc_id.encode(), digest_size=8)
        for s in ss:
            h.update(repr((s["kind"], s["text"], s["media_ref"],
                           s["offset"])).encode())
        total = (total + int.from_bytes(h.digest(), "little")) % MOD
    return pa.table({"n": [len(ids)], "partial": [total]})


def _digest_dataset(path: str) -> tuple[int, int]:
    """(n_docs, digest) of a parquet dataset.  An extraction store (a dir
    with a lineage log) is read through its lineage: only the files of
    committed partitions, never orphan fragments of failed attempts."""
    import ray.data as rd

    from pdf_parse_new_ray.state import checkpoint as ckpt

    files = path
    if os.path.isdir(ckpt.lineage_dir(path)):
        files = [f for k in sorted(ckpt.completed_partitions(path))
                 for f in ckpt.partition_files(path, k)]
        if not files:
            return 0, 0
    parts = rd.read_parquet(files, columns=["doc_id", "spans"]).map_batches(
        _digest_batch, batch_format="pyarrow", batch_size=512).take_all()
    n = sum(p["n"] for p in parts)
    dig = 0
    for p in parts:
        dig = (dig + p["partial"]) % MOD
    return n, dig


def _corpus_in_child(sf: float) -> str:
    """Generate/cache the corpus in a child process and return its path, so
    this process's RSS figures measure the engine, not fixture
    generation."""
    import subprocess

    code = ("import sys; from pdf_parse_new_ray.fixtures.corpus import "
            "corpus_dir_for; print(corpus_dir_for(float(sys.argv[1])))")
    res = subprocess.run([sys.executable, "-c", code, repr(sf)], cwd=ROOT,
                         check=True, capture_output=True, text=True)
    return res.stdout.strip().splitlines()[-1]


def main() -> int:
    sf = 1.0
    cpus = 32
    if "--sf" in sys.argv:
        sf = float(sys.argv[sys.argv.index("--sf") + 1])
    if "--cpus" in sys.argv:
        cpus = int(sys.argv[sys.argv.index("--cpus") + 1])

    os.environ.setdefault("RAY_DEDUP_LOGS", "1")
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from bench import _force_distributed_gates

    _force_distributed_gates()  # zeroed for the whole proof run

    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = _corpus_in_child(sf)
    out: dict = {"metric": "sf1.0 memory-bounded scale proof",
                 "sf": sf, "num_cpus": cpus,
                 "rss_mb_after_init": _vm_now_mb()}

    # 1. flagship extraction, partitioned writes
    out_dir = f"/tmp/scale_proof/sf{sf:g}"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    metrics = extract_documents(
        f"{base}/documents_interleaved", f"{base}/media",
        out_dir=out_dir, n_partitions=256,
    ).take_all()
    wall = time.time() - t0
    n_docs = int(sum(m["n_docs"] for m in metrics))
    n_pages = int(sum(m["pages"] for m in metrics))
    out.update({
        "extract_wall_s": round(wall, 2),
        "n_docs": n_docs, "n_pages": n_pages,
        "docs_per_sec": round(n_docs / wall, 1),
        "pages_per_sec": round(n_pages / wall, 1),
        "rss_mb_after_extract": _vm_now_mb(),
        # VmHWM is monotone → this is the peak through the PIPELINE itself
        # (later stages add driver-side DuckDB oracles + fixture generation,
        # which are proof-harness costs, not engine costs)
        "rss_mb_peak_through_extract": _vm_peak_mb(),
    })

    # 2. full-corpus distributed span-sequence equality vs the oracle
    t0 = time.time()
    n_out, dig_out = _digest_dataset(out_dir)
    n_ora, dig_ora = _digest_dataset(f"{base}/oracle_docs")
    out.update({
        "verify_wall_s": round(time.time() - t0, 2),
        "verify_docs_out": n_out, "verify_docs_oracle": n_ora,
        "span_equality": bool(n_out == n_ora and dig_out == dig_ora),
        "rss_mb_after_verify": _vm_now_mb(),
        "rss_mb_peak_through_verify": _vm_peak_mb(),
    })

    # 3. distributed query sample over the largest available inputs
    import importlib

    entry = importlib.import_module("__ray_entry__")
    qs = entry.queries()
    corpus_sf_dir = base  # "sf1" parses out of the path for corpus ops
    testdata = "/root/testdata/sf0.1"  # largest driver-generated tables
    sample = [
        ("x_extract_then_dedup", corpus_sf_dir),
        ("m_media_features_mixed", corpus_sf_dir),
        ("m_phash_neardup_pairs", corpus_sf_dir),
        ("d_exact_dedup", testdata),
        ("d_minhash_pairs", testdata),
        ("t_token_stats", testdata),
        ("q_sessionization", testdata),
        ("q_copurchase_pairs", testdata),
        ("g_pagerank_copurchase", testdata),
        ("e_knn_bruteforce", testdata),
    ]
    out["queries_distributed"] = {}
    for name, d in sample:
        t0 = time.time()
        try:
            qs[name](d)
            out["queries_distributed"][name] = round(time.time() - t0, 2)
        except Exception as e:  # noqa: BLE001
            out["queries_distributed"][name] = f"ERROR: {type(e).__name__}: {e}"

    # value-oracle a slice of the sample at sf0.1 (largest testdata) with
    # the gates still zeroed — DuckDB vs the forced-distributed plans
    from tools.check_queries import run_checks

    n_ok, n_bad, failures = run_checks(
        testdata,
        only={"d_exact_dedup", "d_minhash_pairs", "t_token_stats",
              "q_sessionization", "q_copurchase_pairs"},
        verbose=False)
    out["spot_oracles_sf0.1"] = {"ok": n_ok, "bad": n_bad,
                                 "failures": failures}

    # 4. memory + object-store accounting.  memory_summary needs grpc,
    # which may be absent, so spill is accounted from the session's spill
    # directory + the raylet's cumulative "Spilled N MiB, ..." messages.
    out["rss_mb_peak_driver"] = _vm_peak_mb()
    try:
        sess = ray._private.worker._global_node.get_session_dir_path()
        spill_bytes = 0
        spill_dir = os.path.join(sess, "ray_spilled_objects")
        if os.path.isdir(spill_dir):
            for root, _, files in os.walk(spill_dir):
                spill_bytes += sum(
                    os.path.getsize(os.path.join(root, f)) for f in files)
        spilled_mib = 0
        raylet_log = os.path.join(sess, "logs", "raylet.out")
        if os.path.exists(raylet_log):
            with open(raylet_log, errors="replace") as f:
                for m in re.finditer(r"Spilled (\d+) MiB", f.read()):
                    spilled_mib = max(spilled_mib, int(m.group(1)))
        out["object_store"] = {
            "spill_dir_bytes": spill_bytes,
            "raylet_spilled_mib": spilled_mib,
        }
    except Exception as e:  # noqa: BLE001
        out["object_store"] = {"unavailable": type(e).__name__}

    ray.shutdown()
    print(json.dumps(out))
    return 0 if out["span_equality"] and n_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
