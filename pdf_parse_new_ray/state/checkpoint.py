"""Partitioned output + per-partition lineage/metrics + resume.

North-rule requirement: "every partition records lineage + extraction
metrics to a checkpoint store so a killed job resumes without re-parsing
completed partitions."  The reference has no analogue (its closest is the
benchmark collector's incremental save, benchmark/collect-benchmarks.js:
199-202) — this is scale-path engineering the Ray build adds.

Layout (the same for every writer):
    out_dir/part=<k>/frag-<run>-<id>.parquet   fragment files (write_fragment,
                                               tmp+rename)
    out_dir/_lineage/part-<k>.json             written AFTER the fragments by
                                               commit_partition (atomic
                                               tmp+rename) → presence ==
                                               completed
A partition's data is exactly the fragments its lineage record lists; any
other file under part=<k> (left by a failed task attempt or a crashed run)
is an orphan that every reader ignores.  The record's content_hash is
order-free (XOR of per-doc digests), so it does not depend on how the docs
were spread across fragments or ordered within them.
Partition key = ``partition_column`` (pandas siphash of doc_id) %
n_partitions — stable across runs and processes (never Python's salted
hash()).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from typing import Iterable, Optional

import pyarrow as pa
import pyarrow.parquet as pq


def partition_column(doc_ids: pa.Array, n_partitions: int) -> pa.Array:
    """Vectorized stable partition key (pandas siphash with its fixed
    default key — deterministic across processes and runs, unlike Python's
    salted hash()).  Checkpoints written under one keying must be resumed
    under the same keying (KEYING_VERSION)."""
    import numpy as np
    import pandas as pd

    vals = doc_ids.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(vals, categorize=False) % np.uint64(n_partitions)
    return pa.array(h.astype(np.int32), pa.int32())


def lineage_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def _lineage_path(out_dir: str, k: int) -> str:
    return os.path.join(lineage_dir(out_dir), f"part-{k}.json")


# bump when the partition keying changes — a checkpoint written under one
# keying must never be resumed under another
KEYING_VERSION = "siphash-v1"


def manifest_path(out_dir: str) -> str:
    return os.path.join(lineage_dir(out_dir), "manifest.json")


def ensure_manifest(out_dir: str, meta: dict) -> dict:
    """First-writer-wins run manifest: records the inputs + partitioning
    config of the run that owns this checkpoint directory.  A resume whose
    config disagrees would silently skip the wrong documents, so a mismatch
    raises instead."""
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    path = manifest_path(out_dir)
    meta = {**meta, "keying": KEYING_VERSION}
    if os.path.exists(path):
        with open(path) as f:
            existing = json.load(f)
        for k in ("docs_path", "media_path", "n_partitions", "keying"):
            if existing.get(k) != meta.get(k):
                raise ValueError(
                    f"checkpoint manifest mismatch for {k!r}: "
                    f"existing={existing.get(k)!r} requested={meta.get(k)!r} — "
                    f"resume must use the original run's inputs and partitioning "
                    f"(or point out_dir at a fresh directory)")
        return existing
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, path)
    return meta


def _load_record(path: str) -> Optional[dict]:
    """The committed lineage record at ``path``, or None when it is
    unreadable, not complete, or lists no data files (a record of the
    retired single-file layout: a resume must redo that partition rather
    than read it as empty)."""
    try:
        with open(path) as f:
            rec = json.load(f)
    except (OSError, ValueError):
        return None
    if rec.get("status") != "complete" or not rec.get("files") \
            or "partition" not in rec:
        return None
    return rec


def lineage_records(out_dir: str) -> list[dict]:
    """Every committed lineage record under ``out_dir``, in partition
    order — the one reader behind resume (completed_partitions),
    read_output and collect_stats."""
    d = lineage_dir(out_dir)
    if not os.path.isdir(d):
        return []
    recs = (_load_record(os.path.join(d, name)) for name in os.listdir(d)
            if name.startswith("part-") and name.endswith(".json"))
    return sorted((r for r in recs if r is not None),
                  key=lambda r: int(r["partition"]))


def completed_partitions(out_dir: str) -> set[int]:
    return {int(r["partition"]) for r in lineage_records(out_dir)}


def content_hash(doc_ids: Iterable) -> str:
    """Order-free content hash of a set of docs: XOR of per-doc blake2b
    digests, so it folds identically however a partition's docs spread
    across fragments.  Hashes of disjoint doc sets combine with
    ``xor_hashes``."""
    hx = 0
    for v in doc_ids:
        hx ^= int.from_bytes(
            hashlib.blake2b(str(v).encode(), digest_size=16).digest(), "big")
    return format(hx, "032x")


def xor_hashes(hashes: Iterable[str]) -> str:
    hx = 0
    for h in hashes:
        hx ^= int(h, 16)
    return format(hx, "032x")


def write_fragment(out_dir: str, k: int, run_id: str, table: pa.Table) -> str:
    """Write one fragment file to part=<k> under a run-unique name.  It
    becomes part of the committed output ONLY when a commit_partition()
    lineage record lists it — a failed task attempt or a crashed run leaves
    orphan fragments that every reader ignores (the classic
    write-fragments/commit-at-end layout).  Returns the fragment file
    name."""
    part_dir = os.path.join(out_dir, f"part={k}")
    os.makedirs(part_dir, exist_ok=True)
    name = f"frag-{run_id}-{uuid.uuid4().hex[:12]}.parquet"
    path = os.path.join(part_dir, name)
    pq.write_table(table, path + ".tmp")
    os.replace(path + ".tmp", path)
    return name


def commit_partition(out_dir: str, k: int, files: list[str],
                     metrics: dict) -> dict:
    """Commit partition k: write its lineage record (atomic tmp+rename)
    listing exactly ``files`` (fragment names under part=<k>, as returned
    by write_fragment).  ``metrics`` carries ``rows``, ``content_hash``
    (see content_hash) and any other per-partition numbers to record.
    Returns the lineage record."""
    os.makedirs(lineage_dir(out_dir), exist_ok=True)
    part_dir = os.path.join(out_dir, f"part={k}")
    rec = {
        "partition": k,
        "status": "complete",
        "completed_at": time.time(),
        **metrics,
        "files": sorted(files),
        "bytes": sum(os.path.getsize(os.path.join(part_dir, f)) for f in files),
    }
    lpath = _lineage_path(out_dir, k)
    # attempt-unique tmp name: two attempts of one task may commit at once
    tmp = f"{lpath}.{uuid.uuid4().hex[:8]}.tmp"
    with open(tmp, "w") as f:
        json.dump(rec, f)
    os.replace(tmp, lpath)
    return rec


def _files_of(out_dir: str, rec: dict) -> list[str]:
    part_dir = os.path.join(out_dir, f"part={rec['partition']}")
    return [os.path.join(part_dir, f) for f in rec["files"]]


def partition_files(out_dir: str, k: int) -> list[str]:
    """Data files of a COMPLETED partition (its lineage 'files' list);
    empty when partition k is not committed."""
    rec = _load_record(_lineage_path(out_dir, k))
    return _files_of(out_dir, rec) if rec else []


def read_output(out_dir: str) -> pa.Table:
    """Read back all completed partitions (driver-side convenience for
    tests/small results)."""
    parts = [pq.read_table(p) for rec in lineage_records(out_dir)
             for p in _files_of(out_dir, rec)]
    if not parts:
        raise FileNotFoundError(f"no completed partitions under {out_dir}")
    return pa.concat_tables(parts)
