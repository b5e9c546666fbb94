"""Per-key reference implementations the dedup tests compare the live,
vectorized plans against.  Each reference dispatches one call per
distinct key (LSH bucket, Levenshtein block), the plain shape of the
semantics; the live plans walk many keys per call."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def bucket_pairs(group: pa.Table, cap: int) -> pa.Table:
    """Within one LSH bucket: candidate (a < b) pairs over the distinct
    doc_ids; a bucket of more than ``cap`` docs emits star pairs against
    its min doc_id instead, flagged ``capped``."""
    uniq = sorted(set(group.column("doc_id").to_pylist()))
    n = len(uniq)
    if n > cap:
        a, b = [uniq[0]] * (n - 1), uniq[1:]
        capped = [True] * (n - 1)
    else:
        ai, bi = np.triu_indices(n, k=1)
        ids = np.asarray(uniq, dtype=np.int64)
        a, b = ids[ai], ids[bi]
        capped = np.zeros(len(ai), dtype=bool)
    return pa.table({"a": pa.array(a, pa.int64()),
                     "b": pa.array(b, pa.int64()),
                     "capped": pa.array(capped, pa.bool_())})


def lsh_pairs(bands: pa.Table, cap: int) -> pd.DataFrame:
    """bands(doc_id, bucket) → deduped (a, b, capped) pairs, sorted: one
    :func:`bucket_pairs` call per distinct bucket, then a pair surfacing
    from several buckets keeps capped=True if any bucket capped it."""
    keys = bands.column("bucket").combine_chunks()
    parts = [bucket_pairs(bands.filter(pc.equal(keys, k)), cap)
             for k in pc.unique(keys)]
    df = pa.concat_tables(parts).to_pandas()
    return df.groupby(["a", "b"], as_index=False)["capped"].max() \
        .sort_values(["a", "b"]).reset_index(drop=True)


def levenshtein_pairs(sf_dir: str) -> pd.DataFrame:
    """d_levenshtein_pairs one block at a time: documents block on
    (lang, n_chars // LEV_BLOCK_CHARS), each block keeps its
    LEV_BLOCK_CAP smallest doc_ids, and every in-block pair gets the
    byte-level edit distance of the first LEV_PREFIX_CHARS characters."""
    from pdf_parse_new_ray.functions import dedup

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang", "n_chars"])
    df = pd.DataFrame({
        "doc_id": t.column("doc_id").to_numpy(),
        "prefix": pc.utf8_slice_codeunits(
            t.column("text"), 0, dedup.LEV_PREFIX_CHARS).to_pylist(),
        "block": [f"{lang}:{n // dedup.LEV_BLOCK_CHARS}" for lang, n in
                  zip(t.column("lang").to_pylist(),
                      t.column("n_chars").to_pylist())],
    })
    rows = []
    for _, g in df.groupby("block"):
        g = g.sort_values("doc_id").head(dedup.LEV_BLOCK_CAP)
        ids = g["doc_id"].to_numpy()
        bufs = [np.frombuffer((p or "").encode("utf-8"), np.uint8)
                for p in g["prefix"]]
        ia, ib = np.triu_indices(len(ids), 1)
        if len(ia):
            dist = dedup._levenshtein_many([bufs[i] for i in ia],
                                           [bufs[j] for j in ib])
            rows.append(pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib],
                                      "dist": dist}))
    out = pd.concat(rows, ignore_index=True).astype("int64")
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)
