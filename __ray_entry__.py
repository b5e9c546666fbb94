"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``: flagship interleaved-corpus extraction at sf0.001 scale.
- ``queries()``: one callable per implemented operator (SURVEY.md §2 +
  training-data-pipeline additions); each takes ``sf_dir``.
- ``oracle_sql()``: DuckDB-equivalent SQL for every SQL-expressible query
  (same column names and rounding) — including the MinHash/LSH family,
  simhash and lang-id, whose hashes are md5-derived precisely so DuckDB
  can recompute them; non-SQL ops (PDF extraction, media decode,
  seeded-hyperplane ANN) are rows-only checked by design.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import Any

from pdf_parse_new_ray.functions import ann, dedup, graph, relational, text
from pdf_parse_new_ray.functions.ann import _warm_stage
from pdf_parse_new_ray.functions.text import TOKEN_PATTERN, WORD_PATTERN


def _corpus_for(sf_dir: str) -> str:
    """Map a testdata sf dir to the matching generated interleaved corpus
    (deterministic seed=42; cached under /tmp)."""
    from pdf_parse_new_ray.fixtures.corpus import corpus_dir_for

    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.001
    return corpus_dir_for(sf)


def _extract_summary_rows(base: str):
    """Run the interleaved extraction over a corpus dir and reduce each
    doc to a deterministic summary row (value-hash stable)."""
    import hashlib

    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    docs = extract_documents(
        f"{base}/documents_interleaved", f"{base}/media",
        out_dir=None, n_partitions=16,
    ).take_all()
    rows = []
    for d in docs:
        spans = sorted(d["spans"], key=lambda s: s["offset"])
        joined = "\x00".join(f"{s['kind']}|{s['media_ref']}|{s['text']}" for s in spans)
        rows.append({
            "doc_id": d["doc_id"],
            "n_spans": int(d["n_spans"]),
            "numpages": int(d["numpages"]),
            "n_errors": int(d["n_errors"]),
            "content_md5": hashlib.md5(joined.encode("utf-8")).hexdigest(),
        })
    return rows


def _extract_html_mixed(sf_dir: str):
    """Boilerplate-strip surface (north_rule: HTML + DOM heuristics):
    the SAME interleaved pipeline over a mixed pdf+html corpus — html
    media spans carry jusText-style main-content text after extraction.
    Correctness gate: tests/test_html.py pins span-sequence equality vs
    the generator oracle on both join paths."""
    import pandas as pd

    from pdf_parse_new_ray.fixtures.corpus import html_corpus_dir_for

    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.001
    rows = _extract_summary_rows(html_corpus_dir_for(sf))
    return pd.DataFrame(sorted(rows, key=lambda r: r["doc_id"]))


def _extract_corpus(sf_dir: str):
    """Flagship pipeline: interleaved docs + media → extracted docs.
    Returns a deterministic per-doc summary (span lists summarized so the
    driver's value-hash is stable)."""
    import hashlib

    import pandas as pd

    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = _corpus_for(sf_dir)
    docs = extract_documents(
        f"{base}/documents_interleaved", f"{base}/media",
        out_dir=None, n_partitions=16,
    ).take_all()
    rows = []
    for d in docs:
        spans = sorted(d["spans"], key=lambda s: s["offset"])
        joined = "\x00".join(f"{s['kind']}|{s['media_ref']}|{s['text']}" for s in spans)
        rows.append({
            "doc_id": d["doc_id"],
            "n_spans": int(d["n_spans"]),
            "numpages": int(d["numpages"]),
            "n_errors": int(d["n_errors"]),
            "content_md5": hashlib.md5(joined.encode("utf-8")).hexdigest(),
        })
    return pd.DataFrame(sorted(rows, key=lambda r: r["doc_id"]))


def _extract_media(sf_dir: str):
    """Media-level extraction only (media_ref → text)."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.pipelines.extraction import extract_media_text

    base = _corpus_for(sf_dir)
    res = extract_media_text(rd.read_parquet(f"{base}/media")).take_all()
    rows = [{
        "media_ref": r["media_ref"],
        "numpages": int(r["numpages"]),
        "text_len": len(r["text"] or ""),
        "text_md5": hashlib.md5((r["text"] or "").encode("utf-8")).hexdigest(),
    } for r in res]
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _extract_metadata(sf_dir: str):
    """Per-media documentInfo extraction (reference M4 parity surface)."""
    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.stages.extractor import MetadataExtractor

    base = _corpus_for(sf_dir)
    rows = rd.read_parquet(f"{base}/media").map_batches(
        MetadataExtractor(), batch_format="pyarrow",
    ).drop_columns(["metadata_xml"]).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _media_features(sf_dir: str):
    """Multimodal feature stage over the binary media column (PDF decode is
    real; image/audio decoders are stubbed — see stages/multimodal.py)."""
    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.stages.multimodal import MediaFeatureExtractor

    base = _corpus_for(sf_dir)
    rows = rd.read_parquet(f"{base}/media").map_batches(
        _warm_stage(MediaFeatureExtractor, ("mfe",), {}),
        batch_size=128, batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _pdf_images(sf_dir: str):
    """Embedded-image inventory + decode over the mixed table's PDF
    blobs: every image XObject is decoded through the kernel codec set
    (JBIG2Decode incl. JBIG2Globals, JPXDecode, DCTDecode,
    CCITTFaxDecode, raw) — one row per image, absorbed errors."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import PdfImageExtractor

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(PdfImageExtractor, ("pdfimg",), {}), batch_size=8,
        batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(
        sorted(rows, key=lambda r: (r["media_ref"], r["page"], r["name"])))


def _media_features_mixed(sf_dir: str):
    """Multimodal feature stage over a MIXED media table (baseline +
    progressive JPEG, PNG, GIF, WAV, PDF, corrupt blobs): every real
    decoder runs distributed; corrupt inputs absorb to decoded=False."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import MediaFeatureExtractor

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(MediaFeatureExtractor, ("mfe",), {}),
        batch_size=128, batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _audio_features(sf_dir: str):
    """Sample-level audio features over the mixed media table's WAV rows
    through the REAL PCM payload decoder (rms/peak/zero-cross/clipping —
    stages/multimodal.AudioFeatureExtractor); non-WAV rows absorb to
    decoded=False so the stage contract is exercised on every modality."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import AudioFeatureExtractor

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(AudioFeatureExtractor, ("afe",), {}), batch_size=16,
        batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _extract_media_titles(sf_dir: str):
    """Custom page_render hook through the distributed pipeline: the
    'module:function' contract (reference pagerenderModule, index.d.ts:32),
    using the large-font-only projection from the reference examples."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.pipelines.extraction import extract_media_text

    base = _corpus_for(sf_dir)
    res = extract_media_text(
        rd.read_parquet(f"{base}/media"),
        page_render="pdf_parse_new_ray.stages.render_hooks:titles_only_render",
    ).take_all()
    rows = [{
        "media_ref": r["media_ref"],
        "numpages": int(r["numpages"]),
        "text_md5": hashlib.md5((r["text"] or "").encode("utf-8")).hexdigest(),
    } for r in res]
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _extract_media_maxpages(sf_dir: str):
    """max-pages clamp through the pipeline (reference M2: counter =
    min(max, numPages), numrender parity; lib/pdf-parse.js:98-99)."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.pipelines.extraction import extract_media_text

    base = _corpus_for(sf_dir)
    res = extract_media_text(rd.read_parquet(f"{base}/media"), max_pages=2).take_all()
    rows = [{
        "media_ref": r["media_ref"],
        "numpages": int(r["numpages"]),
        "text_md5": hashlib.md5((r["text"] or "").encode("utf-8")).hexdigest(),
    } for r in res]
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _extract_then_dedup(sf_dir: str):
    """Pipeline composition: extract the interleaved corpus, then exact-dedup
    documents on the hash of their post-extraction full text — the
    extract → clean → dedup shape of a training-data pipeline, end to end
    in one streaming lineage (no intermediate write).  The dedup stage is
    the same ONE keyed exchange + in-bucket Arrow group_by plan as
    functions/dedup.d_exact_dedup — a per-fingerprint map_groups would pay
    one Python call per distinct document (~10^12 at corpus scale)."""
    import hashlib

    import pandas as pd
    import pyarrow as pa

    from pdf_parse_new_ray.functions.joins import keyed
    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = _corpus_for(sf_dir)
    docs = extract_documents(f"{base}/documents_interleaved", f"{base}/media")

    def fingerprint(t: pa.Table) -> pa.Table:
        spans = t.column("spans").to_pylist()
        out = []
        for s in spans:
            s = sorted(s, key=lambda x: x["offset"])
            out.append(hashlib.md5(
                "\x00".join(x["text"] or "" for x in s).encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fingerprint": pa.array(out, pa.string()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        from pdf_parse_new_ray.functions.joins import rename_agg

        out = g.group_by("fingerprint").aggregate(
            [("doc_id", "min"), ("doc_id", "count")])
        return rename_agg(out, {"doc_id_min": "keep_doc_id",
                                "doc_id_count": "group_size"},
                          ["fingerprint", "keep_doc_id", "group_size"])

    df = keyed(docs.map_batches(fingerprint, batch_format="pyarrow"),
               "fingerprint", per_bucket).to_pandas()
    df["group_size"] = df["group_size"].astype("int64")  # doc_id is a string
    return df.sort_values("fingerprint").reset_index(drop=True)


def _image_phash(sf_dir: str):
    """Perceptual 64-bit aHash fingerprints over the mixed media table
    through the REAL decoders (stages/multimodal.ImagePHasher) — the
    content-feature step an image near-dup pipeline runs after decode."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import ImagePHasher

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(ImagePHasher, ("phash",), {}), batch_size=16,
        batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _image_resize(sf_dir: str):
    """Resize step of a multimodal pipeline (brief: 'decode /
    feature-extract / resize ... as actor-pool map_batches stages'):
    every decodable image in the mixed media table resampled to 16x16 by
    exact integer area means and re-encoded PNG
    (stages/multimodal.ImageResizer).  The driver sees dims + a pixel
    digest, never the payloads."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import ImageResizer

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(ImageResizer, ("resize", 16, 16),
                    {"height": 16, "width": 16}),
        batch_size=16, batch_format="pyarrow",
    ).drop_columns(["resized_png"]).take_all()
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"]))


def _video_frame_sample(sf_dir: str):
    """Frame-sample step of a multimodal pipeline: every raw-DIB AVI in
    the mixed media table fans out to one row per sampled frame (stride
    3) with per-frame perceptual hashes — REAL pixels, no codec library
    (stages/multimodal.VideoFrameSampler); compressed video (MJPG/mp4)
    absorbs to decoded=False rows, honestly stubbed per the brief."""
    import re as _re

    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import VideoFrameSampler

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    rows = rd.read_parquet(base, columns=["media_ref", "bytes"]).map_batches(
        _warm_stage(VideoFrameSampler, ("vfs", 3, 8),
                    {"stride": 3, "max_frames": 8}),
        batch_size=16, batch_format="pyarrow",
    ).take_all()
    return pd.DataFrame(
        sorted(rows, key=lambda r: (r["media_ref"], r["frame_index"])))


def _phash_dup_groups(sf_dir: str):
    """Image near-dup groups: identical perceptual fingerprints across
    different blobs (byte-level dups are caught upstream by sha256 —
    this catches re-encodes).  Same ONE keyed exchange exact-dedup
    plan as d_exact_dedup, keyed on the phash."""
    import re as _re

    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.functions.joins import keyed, rename_agg
    from pdf_parse_new_ray.stages.multimodal import ImagePHasher

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    hashes = rd.read_parquet(base, columns=["media_ref", "bytes"]) \
        .map_batches(_warm_stage(ImagePHasher, ("phash",), {}), batch_size=16,
                     batch_format="pyarrow")

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("decoded"))
        return pa.table({
            "media_ref": t.column("media_ref"),
            "phash": t.column("phash"),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        out = g.group_by("phash").aggregate(
            [("media_ref", "min"), ("media_ref", "count")])
        out = rename_agg(out, {"media_ref_min": "keep_ref",
                               "media_ref_count": "group_size"},
                         ["phash", "keep_ref", "group_size"])
        import pyarrow.compute as pc
        return out.filter(pc.greater(out["group_size"], pa.scalar(1)))

    df = keyed(hashes.map_batches(prep, batch_format="pyarrow"),
               "phash", per_bucket).to_pandas()
    if df.empty:
        return pd.DataFrame({"phash": pd.Series(dtype="object"),
                             "keep_ref": pd.Series(dtype="object"),
                             "group_size": pd.Series(dtype="int64")})
    df["group_size"] = df["group_size"].astype("int64")
    return df.sort_values("phash").reset_index(drop=True)


PHASH_NEARDUP_MAX_HAMMING = 6
_PHASH_BANDS = 4  # 4 x 16-bit bands: d differing bits can break at most
# d bands, so any pair within hamming 3 ALWAYS shares a band (pigeonhole)


def _phash_neardup_pairs(sf_dir: str):
    """Image NEAR-dup pairs: banded LSH over the 64-bit perceptual hash
    (4 x 16-bit bands -> candidate buckets, the d_minhash_pairs banding
    shape) verified with an exact hamming distance <= 6 — catches noisy
    re-encodes whose fingerprints differ in a few grid cells, which the
    exact-phash group (m_phash_dup_groups) misses.  Bands shuffle as
    slim (band, 16-bit value, ref) rows; per-bucket all-pairs is
    star-capped by construction of the bucket (same key)."""
    import re as _re

    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import mixed_media_dir_for
    from pdf_parse_new_ray.stages.multimodal import ImagePHasher

    m = _re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    hashes = rd.read_parquet(base, columns=["media_ref", "bytes"]) \
        .map_batches(_warm_stage(ImagePHasher, ("phash",), {}), batch_size=16,
                     batch_format="pyarrow")

    def bands(t: pa.Table) -> pa.Table:
        t = t.filter(t.column("decoded"))
        refs = t.column("media_ref").to_pylist()
        hs = np.array([int(x, 16) for x in t.column("phash").to_pylist()],
                      dtype=np.uint64)
        n = len(hs)
        out_r, out_k, out_h = [], [], []
        for b in range(_PHASH_BANDS):
            v = (hs >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            # fine bucket key = band * 2^16 + band value (disjoint per band)
            out_r.extend(refs)
            out_k.append((np.uint64(b) << np.uint64(16)) + v)
            out_h.extend(hs.tolist())
        key = np.concatenate(out_k) if out_k else np.array([], np.uint64)
        return pa.table({
            "media_ref": pa.array(out_r, pa.string()),
            "bucket": pa.array(key, pa.uint64()),
            "phash": pa.array(out_h, pa.uint64()),
        })

    def _popcount64(x: np.ndarray) -> np.ndarray:
        ham = np.zeros(len(x), np.int64)
        for s in range(8):  # byte-wise popcount via unpackbits
            ham += np.unpackbits(
                ((x >> np.uint64(8 * s)) & np.uint64(0xFF))
                .astype(np.uint8)[:, None], axis=1) \
                .sum(1, dtype=np.int64)  # uint8.sum() would promote to
            # uint64, and int64 += uint64 upcasts to float64
        return ham

    empty_pairs = pa.table({"ref_a": pa.array([], pa.string()),
                            "ref_b": pa.array([], pa.string()),
                            "hamming": pa.array([], pa.int64()),
                            "capped": pa.array([], pa.bool_())})

    def bucket_pairs_multi(g: pa.Table) -> pa.Table:
        """One Python call per keyed bucket walks every fine (band, value)
        bucket as a sorted segment — the functions.dedup._bucket_pairs_multi
        dispatch shape.  Hot fine buckets (one shared 16-bit band value
        across a degenerate corpus slice — e.g. solid-color thumbnails)
        emit star pairs against the bucket's min ref instead of O(n²) triu
        rows, flagged `capped` (cap = dedup.BUCKET_PAIR_CAP)."""
        from pdf_parse_new_ray.functions.dedup import BUCKET_PAIR_CAP

        if g.num_rows == 0:
            return empty_pairs
        key = g.column("bucket").to_numpy(zero_copy_only=False).astype(np.uint64)
        refs = np.asarray(g.column("media_ref").to_pylist(), dtype=object)
        hs = g.column("phash").to_numpy(zero_copy_only=False).astype(np.uint64)
        _, codes = np.unique(refs, return_inverse=True)  # order-preserving ids
        order = np.lexsort((codes, key))
        key, refs, hs, codes = key[order], refs[order], hs[order], codes[order]
        new_seg = np.ones(len(key), dtype=bool)
        new_seg[1:] = key[1:] != key[:-1]
        seg_id = np.cumsum(new_seg) - 1
        seg_start = np.flatnonzero(new_seg)
        sizes = np.diff(np.append(seg_start, len(key)))
        ia_parts: list[np.ndarray] = []
        ib_parts: list[np.ndarray] = []
        cap_parts: list[np.ndarray] = []
        row_idx = np.arange(len(key))
        hot = sizes > BUCKET_PAIR_CAP
        if hot.any():
            m = hot[seg_id] & ~new_seg
            ia_parts.append(seg_start[seg_id[m]])
            ib_parts.append(row_idx[m])
            cap_parts.append(np.ones(int(m.sum()), dtype=bool))
        cool = (~hot) & (sizes >= 2)
        if cool.any():
            rows = cool[seg_id]
            ridx, cseg = row_idx[rows], seg_id[rows]
            for k in range(1, int(sizes[cool].max())):
                same = cseg[:-k] == cseg[k:]
                if not same.any():
                    break
                ia_parts.append(ridx[:-k][same])
                ib_parts.append(ridx[k:][same])
                cap_parts.append(np.zeros(int(same.sum()), dtype=bool))
        if not ia_parts:
            return empty_pairs
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        capped = np.concatenate(cap_parts)
        ham = _popcount64(hs[ia] ^ hs[ib])
        keep = (ham <= PHASH_NEARDUP_MAX_HAMMING) & (ham > 0)
        return pa.table({
            "ref_a": pa.array(refs[ia[keep]], pa.string()),
            "ref_b": pa.array(refs[ib[keep]], pa.string()),
            "hamming": pa.array(ham[keep], pa.int64()),
            "capped": pa.array(capped[keep]),
        })

    # multi-band collisions dedupe DISTRIBUTED on the pair key (hamming is
    # identical across bands for the same pair; min is a formality) — the
    # driver only ever sees the final near-dup pairs.  ONE keyed exchange
    # on ref_a + per-bucket Arrow group_by, not a Ray-native keyed
    # aggregate (one accumulator per distinct pair — the lsh_pairs
    # dedupe this mirrors measured that pattern at 6.6 s/57k pairs).
    from pdf_parse_new_ray.functions.joins import keyed

    def merge_pairs(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        f = pa.table({"ref_a": g["ref_a"], "ref_b": g["ref_b"],
                      "hamming": g["hamming"],
                      "c": pc.cast(g["capped"], pa.uint8())}) \
            .group_by(["ref_a", "ref_b"]) \
            .aggregate([("hamming", "min"), ("c", "max")])
        return pa.table({
            "ref_a": f["ref_a"], "ref_b": f["ref_b"],
            "hamming": f["hamming_min"],
            "capped": pc.cast(f["c_max"], pa.bool_())})

    pairs = keyed(hashes.map_batches(bands, batch_format="pyarrow"),
                  "bucket", bucket_pairs_multi)
    df = keyed(pairs, "ref_a", merge_pairs).to_pandas()
    if df.empty:
        return pd.DataFrame({"ref_a": pd.Series(dtype="object"),
                             "ref_b": pd.Series(dtype="object"),
                             "hamming": pd.Series(dtype="int64")})
    n_capped = int(df["capped"].sum())
    if n_capped:
        print(f"m_phash_neardup_pairs: {n_capped} pairs from capped hot bands "
              f"(star fallback)")
    df = df.drop(columns=["capped"])
    df["hamming"] = df["hamming"].astype("int64")
    return df.sort_values(["ref_a", "ref_b"]).reset_index(drop=True)


def _curation_funnel(sf_dir: str):
    """The complete curation story in ONE streaming lineage: extract
    the interleaved corpus → assemble per-doc text → C4-style quality
    gate → exact dedup among survivors → deterministic 50% subsample —
    returning the per-stage funnel counts a curation run reports.  No
    intermediate materialization; the ONLY shuffle is the keyed
    fingerprint exchange the dedup stage needs (same plan as
    functions/dedup.d_exact_dedup); every other stage is map-only with
    batch-local partials, so the funnel costs one pass over the corpus
    regardless of how many gates it reports."""
    import hashlib
    import re as _re

    import pandas as pd
    import pyarrow as pa

    from pdf_parse_new_ray.functions.joins import keyed
    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = _corpus_for(sf_dir)
    docs = extract_documents(f"{base}/documents_interleaved",
                             f"{base}/media")
    word = _re.compile(r"[A-Za-z0-9]+")

    def prep(t: pa.Table) -> pa.Table:
        ids, fps, ok = [], [], []
        for did, s in zip(t.column("doc_id").to_pylist(),
                          t.column("spans").to_pylist()):
            s = sorted(s, key=lambda x: x["offset"])
            text = "\x00".join(x["text"] or "" for x in s)
            plain = text.replace("\x00", " ")
            words = word.findall(plain)
            n_words = len(words)
            # length + repetitiveness gates sized to this corpus (the
            # synthetic pages carry no sentence punctuation, so a C4
            # terminal-punctuation rule would reject everything)
            distinct_ratio = len(set(words)) / n_words if n_words else 0.0
            ids.append(did)
            fps.append(hashlib.md5(text.encode("utf-8")).hexdigest())
            ok.append(n_words >= 30 and distinct_ratio >= 0.05
                      and "{" not in plain)
        return pa.table({
            "doc_id": pa.array(ids, pa.string()),
            "fingerprint": pa.array(fps, pa.string()),
            "q_pass": pa.array(ok, pa.bool_()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        import numpy as np
        import pandas as pd_
        import pyarrow.compute as pc

        n_docs = g.num_rows
        q = g.filter(g.column("q_pass"))
        uniq = q.group_by("fingerprint").aggregate([("doc_id", "min")])
        # deterministic 50% subsample of the survivors (stable
        # cross-process siphash, same keying as the dedup partitioner)
        fp = uniq.column("fingerprint").to_numpy(zero_copy_only=False)
        samp = int((pd_.util.hash_array(fp, categorize=False)
                    % np.uint64(2) == 0).sum()) if len(fp) else 0
        return pa.table({
            "n_docs": pa.array([n_docs], pa.int64()),
            "n_q_pass": pa.array([q.num_rows], pa.int64()),
            "n_unique": pa.array([uniq.num_rows], pa.int64()),
            "n_sampled": pa.array([samp], pa.int64()),
        })

    part = keyed(docs.map_batches(prep, batch_format="pyarrow"),
                 "fingerprint", per_bucket).to_pandas()
    return pd.DataFrame({
        "stage": ["extracted", "quality_pass", "after_dedup", "sampled"],
        "n_docs": [int(part["n_docs"].sum()), int(part["n_q_pass"].sum()),
                   int(part["n_unique"].sum()),
                   int(part["n_sampled"].sum())],
    })


def entry() -> Any:
    return _extract_corpus("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # relational operators (SURVEY §2.2/2.4/2.5/2.6 generalized)
        "q1_pricing_summary": relational.q1_pricing_summary,
        "q3_top_orders": relational.q3_top_orders,
        "q5_nation_revenue": relational.q5_nation_revenue,
        "q6_forecast": relational.q6_forecast,
        "q_order_priority_counts": relational.q_order_priority_counts,
        "q_top_suppliers": relational.q_top_suppliers,
        "q_events_daily": relational.q_events_daily,
        "q_user_event_stats": relational.q_user_event_stats,
        "q_part_brand_stats": relational.q_part_brand_stats,
        "q_customer_nation_balance": relational.q_customer_nation_balance,
        "q_distinct_order_statuses": relational.q_distinct_order_statuses,
        "q_customers_without_orders": relational.q_customers_without_orders,
        "q_rollup_revenue": relational.q_rollup_revenue,
        "q_sessionization": relational.q_sessionization,
        "q_asof_view_before_click": relational.q_asof_view_before_click,
        "q_price_band_join": relational.q_price_band_join,
        "q_top_orders_per_customer": relational.q_top_orders_per_customer,
        "q_order_price_quantiles": relational.q_order_price_quantiles,
        "q_running_balance": relational.q_running_balance,
        "q_rolling_avg": relational.q_rolling_avg,
        "q_event_type_pivot": relational.q_event_type_pivot,
        "q_event_lag": relational.q_event_lag,
        "q_user_first_last": relational.q_user_first_last,
        "q_customers_with_orders": relational.q_customers_with_orders,
        "q_orders_above_customer_avg": relational.q_orders_above_customer_avg,
        "q_monthly_revenue": relational.q_monthly_revenue,
        "q_daily_distinct_users": relational.q_daily_distinct_users,
        "q_funnel": relational.q_funnel,
        "q_cohort_retention": relational.q_cohort_retention,
        "q_train_test_split": relational.q_train_test_split,
        "q_pareto_customers": relational.q_pareto_customers,
        "q_bloom_semi_join": relational.q_bloom_semi_join,
        "q_event_transitions": relational.q_event_transitions,
        "q_late_data_drop": relational.q_late_data_drop,
        "q_props_value_stats": relational.q_props_value_stats,
        "q_heavy_hitters": relational.q_heavy_hitters,
        "q_session_overlap_counts": relational.q_session_overlap_counts,
        "q13_order_count_distribution":
            relational.q13_order_count_distribution,
        "q18_large_volume_customers":
            relational.q18_large_volume_customers,
        "q_kmv_distinct": relational.q_kmv_distinct,
        "q7_nation_pair_revenue": relational.q7_nation_pair_revenue,
        "q8_market_share": relational.q8_market_share,
        "q10_returned_revenue": relational.q10_returned_revenue,
        "q12_ship_priority": relational.q12_ship_priority,
        "q14_promo_share": relational.q14_promo_share,
        "q15_top_supplier": relational.q15_top_supplier,
        "q17_small_qty_revenue": relational.q17_small_qty_revenue,
        "q19_disjunct_revenue": relational.q19_disjunct_revenue,
        "q2_min_cost_supplier": relational.q2_min_cost_supplier,
        "q9_product_type_profit": relational.q9_product_type_profit,
        "q11_important_parts": relational.q11_important_parts,
        "q16_supplier_cnt": relational.q16_supplier_cnt,
        "q20_dominant_suppliers": relational.q20_dominant_suppliers,
        "q21_waiting_suppliers": relational.q21_waiting_suppliers,
        "q22_idle_rich_customers": relational.q22_idle_rich_customers,
        "q_histogram_quantiles": relational.q_histogram_quantiles,
        "q_copurchase_pairs": relational.q_copurchase_pairs,
        "q_decile_stats": relational.q_decile_stats,
        "q_event_age": relational.q_event_age,
        "q_trailing_hour_sum": relational.q_trailing_hour_sum,
        "q_cms_heavy_hitters": relational.q_cms_heavy_hitters,
        "q_value_quantiles_by_type":
            relational.q_value_quantiles_by_type,
        "q_hopping_window_counts":
            relational.q_hopping_window_counts,
        "q_window_trending": relational.q_window_trending,
        "q_cube_revenue": relational.q_cube_revenue,
        "q_user_mode_event": relational.q_user_mode_event,
        "q_hll_distinct": relational.q_hll_distinct,
        "q_key_skew_profile": relational.q_key_skew_profile,
        "q_kmv_join_overlap": relational.q_kmv_join_overlap,
        "q4_priority_with_returns":
            relational.q4_priority_with_returns,
        "q_cumulative_distinct_users":
            relational.q_cumulative_distinct_users,
        "d_event_window_dedup": relational.d_event_window_dedup,
        "t_column_profile": relational.t_column_profile,
        # text analysis
        "t_stratified_sample": text.t_stratified_sample,
        "t_token_stats": text.t_token_stats,
        "t_quality_scores": text.t_quality_scores,
        "t_repetition_signals": text.t_repetition_signals,
        "t_tfidf_top_terms": text.t_tfidf_top_terms,
        "t_langid": text.t_langid,
        "t_fingerprints": text.t_fingerprints,
        "t_scrub_pii": text.t_scrub_pii,
        "t_top_bigrams": text.t_top_bigrams,
        "t_above_median_by_lang": text.t_above_median_by_lang,
        "t_doc_sample": text.t_doc_sample,
        "t_decontamination": text.t_decontamination,
        "t_bigram_lm_score": text.t_bigram_lm_score,
        "t_winnowing_fingerprints": text.t_winnowing_fingerprints,
        "t_c4_quality_filter": text.t_c4_quality_filter,
        "t_lang_mix_sample": text.t_lang_mix_sample,
        "t_sequence_pack": text.t_sequence_pack,
        "t_dsir_importance": text.t_dsir_importance,
        "x_dsir_select": text.x_dsir_select,
        "t_lm_perplexity_buckets": text.t_lm_perplexity_buckets,
        "t_gram_novelty": text.t_gram_novelty,
        # dedup
        "d_exact_dedup": dedup.d_exact_dedup,
        "d_dedup_keep_longest": dedup.d_dedup_keep_longest,
        "d_dup_groups": dedup.d_dup_groups,
        "d_paragraph_dedup": dedup.d_paragraph_dedup,
        "d_dup_clusters": dedup.d_dup_clusters,
        "d_minhash_pairs": dedup.d_minhash_pairs,
        "d_simhash": dedup.d_simhash,
        "d_ngram_jaccard": dedup.d_ngram_jaccard,
        "d_embedding_neardup": dedup.d_embedding_neardup,
        "d_incremental_dedup": dedup.d_incremental_dedup,
        "d_substring_dedup": dedup.d_substring_dedup,
        "d_levenshtein_pairs": dedup.d_levenshtein_pairs,
        "d_ngram_containment": dedup.d_ngram_containment,
        # similarity search
        "e_knn_bruteforce": ann.e_knn_bruteforce,
        "e_knn_lsh": ann.e_knn_lsh,
        "e_knn_pq": ann.e_knn_pq,
        "e_kmeans_train": ann.e_kmeans_train,
        "e_pca_power_iteration": ann.e_pca_power_iteration,
        "d_semdedup": dedup.d_semdedup,
        "x_neardup_keep_best": dedup.x_neardup_keep_best,
        "e_knn_ivf": ann.e_knn_ivf,
        "e_knn_filtered": ann.e_knn_filtered,
        "e_centroid_assign": ann.e_centroid_assign,
        "e_label_centroids": ann.e_label_centroids,
        # iterative graph compute (rows-only: float iteration order;
        # locked against the naive reference in pytest)
        "g_pagerank_copurchase": graph.g_pagerank_copurchase,
        "g_triangle_count": graph.g_triangle_count,
        # extraction (flagship; north-rule pipeline)
        "x_extract_corpus": _extract_corpus,
        "x_extract_html_mixed": _extract_html_mixed,
        "x_extract_media": _extract_media,
        "x_extract_metadata": _extract_metadata,
        "x_extract_titles_render": _extract_media_titles,
        "x_extract_maxpages": _extract_media_maxpages,
        # multimodal binary-column features (PDF/JPEG/PNG/GIF/WAV decode
        # real; compressed audio/video stubbed)
        "m_media_features": _media_features,
        "m_media_features_mixed": _media_features_mixed,
        "m_audio_features": _audio_features,
        "m_pdf_images": _pdf_images,
        "m_image_phash": _image_phash,
        "m_image_resize": _image_resize,
        "m_video_frame_sample": _video_frame_sample,
        "m_phash_dup_groups": _phash_dup_groups,
        "m_phash_neardup_pairs": _phash_neardup_pairs,
        # composition: extract -> dedup in one streaming lineage
        "x_extract_then_dedup": _extract_then_dedup,
        "x_curation_funnel": _curation_funnel,
    }


def planted() -> dict[str, Callable[[str], tuple]]:
    """Planted ground truth for queries SQL can't oracle: name →
    fn(sf_dir) -> (expected_df, key_cols).  The expected values come from
    the fixture generators' own knowledge (source pixels, PCM params,
    container fields, oracle_docs span text) — never from running the
    engine; tools/check_queries.run_checks value-compares them the same
    way it compares DuckDB oracles."""
    from pdf_parse_new_ray.fixtures.planted import planted as _registry

    return _registry()


def oracle_sql() -> dict[str, str]:
    tok = TOKEN_PATTERN.replace("'", "''")
    word = WORD_PATTERN
    return {
        "q1_pricing_summary": f"""
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2)                                        AS sum_qty,
                   round(sum(l_extendedprice), 2)                                   AS sum_base_price,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)                AS sum_disc_price,
                   round(sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)), 2)  AS sum_charge,
                   count(*)                                                         AS count_order,
                   round(sum(l_quantity) / count(*), 4)                             AS avg_qty,
                   round(sum(l_extendedprice) / count(*), 4)                        AS avg_price,
                   round(sum(l_discount) / count(*), 4)                             AS avg_disc
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "q3_top_orders": """
            SELECT o.o_orderkey,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   min(o.o_orderdate) AS o_orderdate
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1995-03-15'
              AND l.l_shipdate > TIMESTAMP '1995-03-15'
            GROUP BY o.o_orderkey
            ORDER BY revenue DESC, o.o_orderkey
            LIMIT 10
        """,
        "q5_nation_revenue": """
            SELECT n.n_name,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
            ORDER BY n.n_name
        """,
        "q6_forecast": """
            SELECT coalesce(round(sum(l_extendedprice * l_discount), 2), 0.0) AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1994-01-01'
              AND l_shipdate < TIMESTAMP '1995-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "q_order_priority_counts": """
            SELECT o_orderpriority, count(*) AS order_count
            FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "q_top_suppliers": """
            SELECT l.l_suppkey AS s_suppkey,
                   round(sum(l.l_extendedprice * (1 - l.l_discount)), 2) AS total_revenue,
                   min(s.s_name) AS s_name
            FROM lineitem l JOIN supplier s ON s.s_suppkey = l.l_suppkey
            GROUP BY l.l_suppkey
            ORDER BY total_revenue DESC, s_suppkey
            LIMIT 5
        """,
        "q_events_daily": """
            SELECT date_trunc('day', ts) AS day, event_type,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q_user_event_stats": """
            SELECT user_id, count(*) AS n_events,
                   round(sum(value), 4) AS total_value,
                   round(epoch(max(ts)) - epoch(min(ts)), 1) AS span_seconds
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "q_part_brand_stats": """
            SELECT p_brand, count(*) AS n_parts,
                   round(avg(p_retailprice), 4) AS avg_price,
                   max(p_size) AS max_size, min(p_size) AS min_size
            FROM part GROUP BY p_brand ORDER BY p_brand
        """,
        "q_customer_nation_balance": """
            SELECT n.n_name, count(*) AS n_customers,
                   round(sum(c.c_acctbal), 2) AS total_balance,
                   round(avg(c.c_acctbal), 4) AS avg_balance
            FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name ORDER BY n.n_name
        """,
        "q_distinct_order_statuses": """
            SELECT DISTINCT o_orderstatus FROM orders ORDER BY o_orderstatus
        """,
        "q_price_band_join": """
            WITH bands(band, lo, hi) AS (VALUES
                """ + ", ".join(
            f"('{n}', {lo}, {hi})" for n, lo, hi in
            __import__("pdf_parse_new_ray.functions.relational",
                       fromlist=["PRICE_BANDS"]).PRICE_BANDS) + """
            )
            SELECT b.band, count(*) AS n_parts,
                   round(sum(p.p_retailprice), 2) AS total_price
            FROM part p JOIN bands b
              ON p.p_retailprice >= b.lo AND p.p_retailprice < b.hi
            GROUP BY b.band ORDER BY b.band
        """,
        "q_customers_without_orders": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)
            ORDER BY c_custkey
        """,
        "q_order_price_quantiles": """
            SELECT o_orderpriority, count(*) AS n_orders,
                   round(quantile_disc(o_totalprice, 0.5), 2) AS median_price,
                   round(quantile_disc(o_totalprice, 0.9), 2) AS p90_price
            FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "q_top_orders_per_customer": """
            SELECT o_custkey, rnk, o_orderkey, round(o_totalprice, 2) AS o_totalprice
            FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (PARTITION BY o_custkey
                                          ORDER BY o_totalprice DESC, o_orderkey) AS rnk
                FROM orders
            ) WHERE rnk <= 2
            ORDER BY o_custkey, rnk
        """,
        "q_asof_view_before_click": """
            SELECT c.event_id, c.user_id, c.ts,
                   v.ts AS view_ts, v.value AS view_value
            FROM (SELECT * FROM events WHERE event_type = 'click') c
            ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'view') v
              ON c.user_id = v.user_id AND v.ts <= c.ts
            ORDER BY c.event_id
        """,
        "q_sessionization": """
            WITH marked AS (
                SELECT user_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), sess AS (
                SELECT user_id, ts, value,
                       CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
                FROM marked
            )
            SELECT user_id, session_id,
                   min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM sess GROUP BY user_id, session_id
            ORDER BY user_id, session_id
        """,
        "t_token_stats": f"""
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(length(regexp_extract_all(text, '{tok}'))) AS BIGINT) AS total_tokens,
                   round(avg(cast(length(regexp_extract_all(text, '{tok}')) AS DOUBLE)), 4) AS avg_tokens,
                   round(avg(cast(length(regexp_extract_all(text, '{word}')) AS DOUBLE)), 4) AS avg_words,
                   round(avg(cast(length(text) AS DOUBLE)), 4) AS avg_chars
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "t_quality_scores": """
            SELECT source, count(*) AS n_docs,
                   round(avg(cast(length(text) AS DOUBLE)), 4) AS avg_chars,
                   CAST(sum(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))) AS BIGINT) AS total_alpha,
                   CAST(sum(length(text) - length(replace(text, ' ', ''))) AS BIGINT) AS total_space
            FROM documents GROUP BY source ORDER BY source
        """,
        "q_rollup_revenue": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   count(*) AS n_items
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
            ORDER BY l_returnflag NULLS FIRST, l_linestatus NULLS FIRST
        """,
        "t_repetition_signals": """
            WITH lstat AS (
                SELECT doc_id, count(*) AS n_lines,
                       round(1.0 - count(DISTINCT line) / count(*), 6)
                           AS dup_line_frac
                FROM (SELECT doc_id,
                             unnest(string_split(text, chr(10))) AS line
                      FROM documents)
                GROUP BY doc_id
            ), words AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w,
                       unnest(range(len(regexp_extract_all(lower(text),
                                                           '[a-z]+')))) AS ord
                FROM documents
            ), bigrams AS (
                SELECT doc_id,
                       w || ' ' || lead(w) OVER (PARTITION BY doc_id
                                                 ORDER BY ord) AS bg
                FROM words
                QUALIFY lead(w) OVER (PARTITION BY doc_id
                                      ORDER BY ord) IS NOT NULL
            ), bstat AS (
                SELECT doc_id, round(max(cnt) * 1.0 / sum(cnt), 6)
                           AS top_bigram_frac
                FROM (SELECT doc_id, bg, count(*) AS cnt
                      FROM bigrams GROUP BY doc_id, bg)
                GROUP BY doc_id
            )
            SELECT l.doc_id, l.n_lines, l.dup_line_frac,
                   coalesce(b.top_bigram_frac, 0.0) AS top_bigram_frac
            FROM lstat l LEFT JOIN bstat b USING (doc_id)
            ORDER BY l.doc_id
        """,
        "t_tfidf_top_terms": """
            WITH words AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '[a-z]+'))
                           AS term
                FROM documents
            ), tf AS (
                SELECT doc_id, term, count(*) AS tf
                FROM words GROUP BY doc_id, term
            ), df AS (
                SELECT term, count(*) AS df FROM tf GROUP BY term
            ), n AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term, tf.tf, df.df,
                       tf.tf * ln(n.n * 1.0 / df.df) AS tfidf
                FROM tf JOIN df USING (term) CROSS JOIN n
            )
            SELECT doc_id, term, tf, df, round(tfidf, 6) AS tfidf
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY doc_id
                      ORDER BY tfidf DESC, term) AS rk
                  FROM scored)
            WHERE rk = 1 ORDER BY doc_id
        """,
        "d_paragraph_dedup": """
            SELECT md5(para) AS para_md5,
                   count(DISTINCT doc_id) AS n_docs,
                   count(*) AS n_occurrences
            FROM (SELECT doc_id,
                         trim(unnest(string_split(text,
                                                  chr(10) || chr(10)))) AS para
                  FROM documents)
            WHERE para <> ''
            GROUP BY para HAVING count(*) > 1
            ORDER BY para_md5
        """,
        "t_fingerprints": """
            SELECT doc_id, md5(text) AS fingerprint FROM documents ORDER BY doc_id
        """,
        "t_scrub_pii": f"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '{text.EMAIL_PATTERN}'))
                       AS n_emails,
                   len(regexp_extract_all(
                       regexp_replace(text, '{text.EMAIL_PATTERN}',
                                      '<EMAIL>', 'g'),
                       '{text.NUMBER_PATTERN}')) AS n_numbers,
                   regexp_replace(
                       regexp_replace(text, '{text.EMAIL_PATTERN}',
                                      '<EMAIL>', 'g'),
                       '{text.NUMBER_PATTERN}', '<NUM>', 'g') AS scrubbed
            FROM documents ORDER BY doc_id
        """,
        "t_top_bigrams": """
            WITH toks AS (
                SELECT regexp_extract_all(lower(text), '[a-z]+') AS ws
                FROM documents
            ), grams AS (
                SELECT ws[i] || ' ' || ws[i+1] AS gram
                FROM toks, UNNEST(range(1, len(ws))) AS t(i)
            )
            SELECT gram, count(*) AS n FROM grams
            GROUP BY gram ORDER BY n DESC, gram LIMIT 20
        """,
        "t_above_median_by_lang": """
            SELECT lang, count(*) AS n_docs
            FROM documents
            WHERE n_chars > (SELECT quantile_disc(n_chars, 0.5)
                             FROM documents)
            GROUP BY lang ORDER BY lang
        """,
        "q_running_balance": """
            SELECT o_custkey, o_orderkey, o_orderdate,
                   SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                       OVER (PARTITION BY o_custkey
                             ORDER BY o_orderdate, o_orderkey) / 100.0
                       AS running_total
            FROM orders
            ORDER BY o_custkey, o_orderdate, o_orderkey
        """,
        "q_rolling_avg": """
            SELECT user_id, event_id, ts,
                   SUM(CAST(round(value * 1000000) AS BIGINT))
                       OVER w / (1000000.0 * COUNT(*) OVER w)
                       AS rolling_avg
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
            ORDER BY user_id, ts, event_id
        """,
        "q_event_type_pivot": """
            SELECT user_id,
                   CAST(SUM(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(SUM(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(SUM(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(SUM(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(SUM(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS BIGINT) AS n_view,
                   SUM(CASE WHEN event_type = 'purchase'
                       THEN CAST(round(value * 1000000) AS BIGINT)
                       ELSE 0 END) / 1000000.0 AS purchase_value
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "q_event_lag": """
            SELECT user_id, event_id, ts,
                   LAG(event_type) OVER w AS prev_type,
                   CAST(epoch_us(ts) - LAG(epoch_us(ts)) OVER w
                        AS BIGINT) AS gap_us
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ORDER BY user_id, ts, event_id
        """,
        "q_user_first_last": """
            WITH ranked AS (
                SELECT user_id, event_type,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS rn_a,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY ts DESC,
                                                   event_id DESC) AS rn_d
                FROM events)
            SELECT user_id,
                   MAX(CASE WHEN rn_a = 1 THEN event_type END) AS first_type,
                   MAX(CASE WHEN rn_d = 1 THEN event_type END) AS last_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM ranked GROUP BY user_id ORDER BY user_id
        """,
        "q_customers_with_orders": """
            SELECT c_custkey, c_name FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey)
            ORDER BY c_custkey
        """,
        "q_orders_above_customer_avg": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM (
                SELECT o_orderkey, o_custkey, o_totalprice,
                       SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                           OVER (PARTITION BY o_custkey) AS seg_cents,
                       COUNT(*) OVER (PARTITION BY o_custkey) AS seg_n
                FROM orders)
            WHERE o_totalprice > seg_cents / (100.0 * seg_n)
            ORDER BY o_orderkey
        """,
        "q_monthly_revenue": """
            SELECT date_trunc('month', o_orderdate) AS month,
                   SUM(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0
                       AS revenue,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders GROUP BY 1 ORDER BY month
        """,
        "q_daily_distinct_users": """
            SELECT date_trunc('day', ts) AS day,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY 1 ORDER BY day
        """,
        "t_doc_sample": f"""
            SELECT doc_id, lang, n_chars
            FROM documents
            WHERE {text.sample_hash_sql('doc_id')} < {text.SAMPLE_KEEP_25}
            ORDER BY doc_id
        """,
        "t_langid": """
            WITH toks AS (
                SELECT lang,
                       list_slice(list_transform(
                           regexp_extract_all(text, '[a-zA-Z]+'),
                           w -> lower(w)), 1, 200) AS ws
                FROM documents),
            scored AS (
                SELECT lang, len(ws) AS nw,
                       CASE WHEN len(ws) = 0 THEN 0.0 ELSE
                           len(list_filter(ws, w -> w IN
                               ('the','a','of','and','to','in','is',
                                'it','that','for')))::DOUBLE / len(ws)
                           END AS s_en,
                       CASE WHEN len(ws) = 0 THEN 0.0 ELSE
                           len(list_filter(ws, w -> w IN
                               ('le','la','de','et','un','une','est',
                                'que','pour','dans')))::DOUBLE / len(ws)
                           END AS s_fr,
                       CASE WHEN len(ws) = 0 THEN 0.0 ELSE
                           len(list_filter(ws, w -> w IN
                               ('el','la','de','y','un','una','es',
                                'que','por','en')))::DOUBLE / len(ws)
                           END AS s_es,
                       CASE WHEN len(ws) = 0 THEN 0.0 ELSE
                           len(list_filter(ws, w -> w IN
                               ('der','die','das','und','ein','eine',
                                'ist','zu','mit','von')))::DOUBLE / len(ws)
                           END AS s_de
                FROM toks),
            pred AS (
                SELECT lang,
                       CASE WHEN nw = 0 OR
                                 GREATEST(s_en, s_fr, s_es, s_de) <= 0.02
                            THEN 'unknown'
                            WHEN s_en = GREATEST(s_en, s_fr, s_es, s_de)
                            THEN 'en'
                            WHEN s_fr = GREATEST(s_en, s_fr, s_es, s_de)
                            THEN 'fr'
                            WHEN s_es = GREATEST(s_en, s_fr, s_es, s_de)
                            THEN 'es'
                            ELSE 'de' END AS pred_lang
                FROM scored)
            SELECT lang, pred_lang, CAST(COUNT(*) AS BIGINT) AS n
            FROM pred GROUP BY lang, pred_lang ORDER BY lang, pred_lang
        """,
        "d_simhash": """
            WITH words AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text),
                                                 '[a-z0-9]+')) AS w
                FROM documents),
            hashed AS (
                SELECT doc_id,
                       ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
                FROM words),
            bits AS (
                SELECT doc_id, k.k AS k,
                       SUM(CASE WHEN (h >> k.k) & 1 = 1
                                THEN 1 ELSE -1 END) AS acc
                FROM hashed
                CROSS JOIN (SELECT unnest(range(64)) AS k) k
                GROUP BY doc_id, k.k),
            vals AS (
                SELECT doc_id,
                       SUM(CASE WHEN acc > 0 AND k < 32
                                THEN (1::BIGINT << k) ELSE 0 END) AS lo,
                       SUM(CASE WHEN acc > 0 AND k >= 32
                                THEN (1::BIGINT << (k - 32))
                                ELSE 0 END) AS hi
                FROM bits GROUP BY doc_id)
            SELECT d.doc_id,
                   printf('%08x%08x',
                          CAST(COALESCE(v.hi, 0) AS BIGINT),
                          CAST(COALESCE(v.lo, 0) AS BIGINT)) AS simhash
            FROM documents d LEFT JOIN vals v USING (doc_id)
            ORDER BY doc_id
        """,
        "q_funnel": """
            WITH v AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id),
            c AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN v ON v.user_id = e.user_id
                WHERE e.event_type = 'click' AND e.ts > v.t
                GROUP BY e.user_id),
            p AS (
                SELECT e.user_id, min(e.ts) AS t FROM events e
                JOIN c ON c.user_id = e.user_id
                WHERE e.event_type = 'purchase' AND e.ts > c.t
                GROUP BY e.user_id)
            SELECT * FROM (
                SELECT 1 AS step, 'view' AS stage,
                       CAST((SELECT count(*) FROM v) AS BIGINT) AS n_users
                UNION ALL
                SELECT 2, 'click', CAST((SELECT count(*) FROM c) AS BIGINT)
                UNION ALL
                SELECT 3, 'purchase',
                       CAST((SELECT count(*) FROM p) AS BIGINT)
            ) ORDER BY step
        """,
        "q_cohort_retention": """
            WITH f AS (
                SELECT user_id, date_trunc('week', min(ts)) AS cw
                FROM events GROUP BY user_id),
            a AS (
                SELECT DISTINCT user_id, date_trunc('week', ts) AS w
                FROM events)
            SELECT f.cw AS cohort_week,
                   CAST(date_diff('week', f.cw, a.w) AS BIGINT)
                       AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM a JOIN f USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q_train_test_split": f"""
            WITH s AS (
                SELECT CASE WHEN {text.sample_hash_sql('doc_id')}
                                 < {relational.SPLIT_TRAIN_MAX}
                            THEN 'train' ELSE 'test' END AS split,
                       n_chars
                FROM documents)
            SELECT split, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM s GROUP BY split ORDER BY split
        """,
        "t_stratified_sample": f"""
            WITH s AS (
                SELECT lang, n_chars FROM documents
                WHERE {text.sample_hash_sql('doc_id')}
                      < {text.SAMPLE_KEEP_25})
            SELECT lang, CAST(count(*) AS BIGINT) AS n_sampled,
                   CAST(CAST(sum(n_chars) AS BIGINT) AS DOUBLE) / count(*)
                       AS avg_chars
            FROM s GROUP BY lang ORDER BY lang
        """,
        "d_dedup_keep_longest": """
            SELECT fingerprint, keep_doc_id, keep_n_chars, group_size
            FROM (
                SELECT md5(text) AS fingerprint, doc_id AS keep_doc_id,
                       n_chars AS keep_n_chars,
                       row_number() OVER (PARTITION BY md5(text)
                                          ORDER BY n_chars DESC, doc_id)
                           AS rn,
                       CAST(count(*) OVER (PARTITION BY md5(text)) AS BIGINT)
                           AS group_size
                FROM documents)
            WHERE rn = 1 ORDER BY fingerprint
        """,
        "d_exact_dedup": """
            SELECT md5(text) AS fingerprint, min(doc_id) AS keep_doc_id,
                   count(*) AS group_size
            FROM documents GROUP BY md5(text) ORDER BY fingerprint
        """,
        "d_dup_groups": """
            SELECT md5(text) AS fingerprint, min(doc_id) AS keep_doc_id,
                   count(*) AS group_size
            FROM documents GROUP BY md5(text) HAVING count(*) > 1 ORDER BY fingerprint
        """,
        "d_embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                                CAST(b.embedding AS DOUBLE[])), 6) AS cosine
            FROM embeddings a
            JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.8
            ORDER BY id_a, id_b
        """,
        "e_knn_bruteforce": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5),
            scored AS (
                SELECT q.qid AS query_id, e.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]), CAST(e.embedding AS DOUBLE[])) AS cos
                FROM q CROSS JOIN embeddings e
                WHERE e.vec_id <> q.qid
            )
            SELECT query_id, nn_rank, vec_id, cosine FROM (
                SELECT query_id, vec_id, round(cos, 6) AS cosine,
                       row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS nn_rank
                FROM scored
            ) WHERE nn_rank <= 5
            ORDER BY query_id, nn_rank
        """,
        "e_label_centroids": """
            WITH e AS (
                SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
                       generate_subscripts(embedding, 1) AS i
                FROM embeddings
            ), dim AS (
                SELECT label, i, avg(v) AS m FROM e GROUP BY label, i
            ), cnt AS (
                SELECT label, count(*) AS n_vectors FROM embeddings GROUP BY label
            )
            SELECT c.label, c.n_vectors,
                   round(sqrt(sum(d.m * d.m)), 6) AS centroid_norm
            FROM cnt c JOIN dim d ON c.label = d.label
            GROUP BY c.label, c.n_vectors ORDER BY c.label
        """,
        # The MinHash family is SQL-expressible because the gram hash is
        # md5-derived (dedup._gram_hash64) and the permutation constants
        # are embedded as HUGEINT literals — dedup.oracle_ctes() rebuilds
        # the signature → band → star-capped-pair chain bit-for-bit.
        "d_minhash_pairs": f"""
            WITH {dedup.oracle_ctes(0.5)}
            SELECT a, b, est_jaccard FROM minhash_pairs ORDER BY a, b
        """,
        "d_ngram_jaccard": f"""
            WITH {dedup.oracle_ctes(0.2)},
            cdocs AS (
                SELECT DISTINCT a AS doc_id FROM minhash_pairs
                UNION SELECT DISTINCT b FROM minhash_pairs),
            cgrams AS (
                SELECT DISTINCT w.doc_id,
                       ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS gram
                FROM words w JOIN cdocs USING (doc_id),
                     unnest(range(1, len(ws) - 1)) AS t(i)
                WHERE len(ws) >= 3
                UNION
                SELECT DISTINCT w.doc_id, array_to_string(ws, ' ')
                FROM words w JOIN cdocs USING (doc_id)
                WHERE len(ws) < 3),
            cghash AS (
                SELECT doc_id,
                       ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS gh
                FROM cgrams),
            sizes AS (SELECT doc_id, count(*) AS n FROM cghash GROUP BY doc_id),
            inters AS (
                SELECT p.a, p.b, count(*) AS inter
                FROM minhash_pairs p
                JOIN cghash ga ON ga.doc_id = p.a
                JOIN cghash gb ON gb.doc_id = p.b AND gb.gh = ga.gh
                GROUP BY p.a, p.b)
            SELECT i.a, i.b,
                   i.inter::DOUBLE / greatest(1, na.n + nb.n - i.inter)::DOUBLE
                       AS jaccard
            FROM inters i
            JOIN sizes na ON na.doc_id = i.a
            JOIN sizes nb ON nb.doc_id = i.b
            WHERE jaccard >= 0.3 ORDER BY a, b
        """,
        "d_ngram_containment": f"""
            WITH {dedup.oracle_ctes(0.2)},
            cdocs AS (
                SELECT DISTINCT a AS doc_id FROM minhash_pairs
                UNION SELECT DISTINCT b FROM minhash_pairs),
            cgrams AS (
                SELECT DISTINCT w.doc_id,
                       ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS gram
                FROM words w JOIN cdocs USING (doc_id),
                     unnest(range(1, len(ws) - 1)) AS t(i)
                WHERE len(ws) >= 3
                UNION
                SELECT DISTINCT w.doc_id, array_to_string(ws, ' ')
                FROM words w JOIN cdocs USING (doc_id)
                WHERE len(ws) < 3),
            cghash AS (
                SELECT doc_id,
                       ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS gh
                FROM cgrams),
            sizes AS (SELECT doc_id, count(*) AS n FROM cghash GROUP BY doc_id),
            inters AS (
                SELECT p.a, p.b, count(*) AS inter
                FROM minhash_pairs p
                JOIN cghash ga ON ga.doc_id = p.a
                JOIN cghash gb ON gb.doc_id = p.b AND gb.gh = ga.gh
                GROUP BY p.a, p.b)
            SELECT i.a, i.b,
                   i.inter::DOUBLE / greatest(1, na.n) AS a_in_b,
                   i.inter::DOUBLE / greatest(1, nb.n) AS b_in_a
            FROM inters i
            JOIN sizes na ON na.doc_id = i.a
            JOIN sizes nb ON nb.doc_id = i.b
            WHERE greatest(i.inter::DOUBLE / greatest(1, na.n),
                           i.inter::DOUBLE / greatest(1, nb.n)) >= 0.5
            ORDER BY a, b
        """,
        "d_dup_clusters": f"""
            WITH RECURSIVE {dedup.oracle_ctes(0.5)},
            edges AS MATERIALIZED (
                SELECT a AS u, b AS v FROM minhash_pairs
                UNION ALL SELECT b, a FROM minhash_pairs),
            reach(doc_id, r) AS (
                SELECT DISTINCT u, u FROM edges
                UNION
                SELECT e.u, re.r FROM edges e JOIN reach re ON re.doc_id = e.v)
            SELECT doc_id, min(r) AS cluster FROM reach GROUP BY doc_id
            ORDER BY doc_id
        """,
        "e_knn_lsh": ann.oracle_sql_knn_lsh(),
        "t_decontamination": f"""
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ), grams AS (
                SELECT DISTINCT doc_id,
                       array_to_string(list_slice(ws, i,
                           i + {text.DECON_GRAM_N - 1}), ' ') AS gram
                FROM words,
                     unnest(range(1, len(ws) - {text.DECON_GRAM_N - 2}))
                         AS t(i)
                WHERE len(ws) >= {text.DECON_GRAM_N}
            ), eval_g AS (
                SELECT DISTINCT gram FROM grams
                WHERE doc_id % {text.DECON_EVAL_MOD} = 0
            ), train AS (
                SELECT doc_id, gram FROM grams
                WHERE doc_id % {text.DECON_EVAL_MOD} <> 0
            ), ov AS (
                SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_overlap
                FROM train t JOIN eval_g e USING (gram)
                GROUP BY t.doc_id
            ), sz AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams
                FROM train GROUP BY doc_id
            )
            SELECT s.doc_id, s.n_grams, o.n_overlap
            FROM sz s JOIN ov o USING (doc_id)
            ORDER BY s.doc_id
        """,
        "t_c4_quality_filter": f"""
            WITH flags AS (
                SELECT source,
                       CASE WHEN len(regexp_extract_all(text,
                                '{text.C4_SENTENCE_PATTERN}'))
                                >= {text.C4_MIN_SENTENCES}
                             AND len(regexp_extract_all(text, '{word}'))
                                >= {text.C4_MIN_WORDS}
                             AND NOT contains(text, '{{')
                             AND NOT contains(lower(text), 'lorem ipsum')
                            THEN 1 ELSE 0 END AS kept
                FROM documents)
            SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(kept) AS BIGINT) AS n_kept,
                   round(sum(kept)::DOUBLE / count(*), 4) AS keep_rate
            FROM flags GROUP BY source ORDER BY source
        """,
        "t_lang_mix_sample": f"""
            WITH cnt AS (
                SELECT lang, CAST(count(*) AS BIGINT) AS n
                FROM documents GROUP BY lang
            ), m AS (SELECT min(n) AS mn FROM cnt),
            kept AS (
                SELECT d.lang
                FROM documents d JOIN cnt c USING (lang) CROSS JOIN m
                WHERE {text.sample_hash_sql('doc_id')}
                      < ({(1 << 61) - 1}::HUGEINT * m.mn) // c.n
            ), ks AS (
                SELECT lang, CAST(count(*) AS BIGINT) AS n_sampled
                FROM kept GROUP BY lang
            )
            SELECT c.lang, c.n AS n_total,
                   coalesce(k.n_sampled, 0) AS n_sampled
            FROM cnt c LEFT JOIN ks k USING (lang)
            ORDER BY c.lang
        """,
        "q_pareto_customers": """
            WITH cust AS (
                SELECT o_custkey,
                       SUM(CAST(round(o_totalprice * 100) AS BIGINT))
                           AS cents
                FROM orders GROUP BY o_custkey
            ), t AS (SELECT SUM(cents) AS total FROM cust),
            w AS (
                SELECT o_custkey, cents,
                       SUM(cents) OVER (ORDER BY cents DESC, o_custkey)
                           AS cum
                FROM cust)
            SELECT o_custkey, cents / 100.0 AS revenue,
                   round(cum::DOUBLE / total, 6) AS cum_share
            FROM w CROSS JOIN t
            WHERE (cum - cents) * 2 < total
            ORDER BY revenue DESC, o_custkey
        """,
        "q_bloom_semi_join": f"""
            SELECT l.l_orderkey AS o_orderkey,
                   CAST(count(*) AS BIGINT) AS n_items,
                   ((SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                     + 50) // 100) / 100.0 AS revenue
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE o.o_totalprice > {relational.BLOOM_PRICE_MIN}
            GROUP BY 1 ORDER BY 1
        """,
        "d_incremental_dedup": """
            WITH f AS (
                SELECT doc_id % 2 AS batch, md5(text) AS fp
                FROM documents
            ), firstb AS (
                SELECT fp, min(batch) AS fb FROM f GROUP BY fp
            ), per AS (
                SELECT batch, CAST(count(*) AS BIGINT) AS n_docs,
                       CAST(count(DISTINCT fp) AS BIGINT) AS n_unique
                FROM f GROUP BY batch
            ), acc AS (
                SELECT fb AS batch, CAST(count(*) AS BIGINT) AS n_accepted
                FROM firstb GROUP BY fb
            )
            SELECT CAST(p.batch AS BIGINT) AS batch, p.n_docs, p.n_unique,
                   coalesce(a.n_accepted, 0) AS n_accepted
            FROM per p LEFT JOIN acc a USING (batch)
            ORDER BY batch
        """,
        "d_substring_dedup": f"""
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ), g AS MATERIALIZED (
                SELECT DISTINCT doc_id,
                       ('0x' || substr(md5(array_to_string(
                            list_slice(ws, i, i + {dedup.SUBSTR_GRAM_N - 1}),
                            ' ')), 1, 16))::UBIGINT AS h
                FROM words,
                     unnest(range(1, len(ws) - {dedup.SUBSTR_GRAM_N - 2}))
                         AS t(i)
                WHERE len(ws) >= {dedup.SUBSTR_GRAM_N}
            ), df AS (
                SELECT h, count(*) AS df FROM g GROUP BY h
            )
            SELECT g.doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(sum(CASE WHEN df.df >= 2 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_dup
            FROM g JOIN df USING (h)
            GROUP BY g.doc_id ORDER BY g.doc_id
        """,
        "t_bigram_lm_score": """
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ), bg AS MATERIALIZED (
                SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS g
                FROM words, unnest(range(1, len(ws))) AS t(i)
                WHERE len(ws) >= 2
            ), cnt AS (
                SELECT g, CAST(count(*) AS BIGINT) AS c
                FROM bg GROUP BY g
            )
            SELECT b.doc_id,
                   CAST(count(*) AS BIGINT) AS n_bigrams,
                   CAST(sum(c.c) AS BIGINT) AS total_freq
            FROM bg b JOIN cnt c USING (g)
            GROUP BY b.doc_id ORDER BY b.doc_id
        """,
        "q_props_value_stats": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract_string(props, '$.k')
                                 AS BIGINT)) AS BIGINT) AS sum_k,
                   CAST(count(json_extract_string(props, '$.k'))
                        AS BIGINT) AS n_k
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "q_session_overlap_counts": """
            WITH lagged AS (
                SELECT user_id, ts, event_id,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS prev_ts
                FROM events
            ), numbered AS (
                SELECT user_id, ts,
                       CAST(sum(CASE WHEN prev_ts IS NULL
                                     OR ts - prev_ts > INTERVAL 30 MINUTE
                                THEN 1 ELSE 0 END)
                           OVER (PARTITION BY user_id ORDER BY ts, event_id
                                 ROWS UNBOUNDED PRECEDING) AS BIGINT)
                           AS session_id
                FROM lagged
            ), s AS MATERIALIZED (
                SELECT user_id, session_id,
                       min(ts) AS session_start, max(ts) AS session_end
                FROM numbered GROUP BY user_id, session_id
            )
            SELECT s.user_id, s.session_id, s.session_start,
                   s.session_end, CAST(count(e.ts) AS BIGINT) AS n_overlap
            FROM s LEFT JOIN events e
              ON e.ts BETWEEN s.session_start AND s.session_end
            GROUP BY 1, 2, 3, 4
            ORDER BY s.user_id, s.session_id
        """,
        "q7_nation_pair_revenue": f"""
            SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
                   CAST(year(l.l_shipdate) AS BIGINT) AS l_year,
                   ((SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100) AS BIGINT)))
                     + 50) // 100) / 100.0 AS revenue
            FROM lineitem l
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation ns ON ns.n_nationkey = s.s_nationkey
            JOIN nation nc ON nc.n_nationkey = c.c_nationkey
            WHERE l.l_shipdate
                  BETWEEN TIMESTAMP '{relational.Q7_YEARS[0]}-01-01'
                      AND TIMESTAMP '{relational.Q7_YEARS[-1]}-12-31'
              AND ns.n_name <> nc.n_name
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "q_histogram_quantiles": f"""
            WITH b AS (
                SELECT CAST(round(o_totalprice * 100) AS BIGINT)
                           // {relational.HIST_BIN_CENTS} AS bin,
                       count(*) AS c
                FROM orders GROUP BY 1),
            t AS (SELECT sum(c) AS n FROM b),
            cum AS (SELECT bin, sum(c) OVER (ORDER BY bin) AS cc FROM b),
            qs(q) AS (VALUES {", ".join(f"({q})"
                                        for q in relational.HIST_QUANTILES)})
            SELECT q AS quantile, CAST(min(bin) AS BIGINT) AS bin,
                   min(bin) * 100.0 AS est_price
            FROM qs, cum, t
            WHERE cum.cc >= ceil(q * t.n)
            GROUP BY q ORDER BY q
        """,
        "q_trailing_hour_sum": """
            SELECT user_id, event_id, ts,
                   SUM(CAST(round(value * 1000000) AS BIGINT))
                       OVER (PARTITION BY user_id ORDER BY ts
                             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                                       AND CURRENT ROW) / 1000000.0
                       AS trailing_sum
            FROM events
            ORDER BY user_id, ts, event_id
        """,
        "q_event_age": """
            SELECT event_id, user_id,
                   CAST(epoch_us(ts) - min(epoch_us(ts))
                            OVER (PARTITION BY user_id) AS BIGINT) AS age_us
            FROM events ORDER BY event_id
        """,
        "q_decile_stats": f"""
            WITH r AS (
                SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       (row_number() OVER (
                            ORDER BY o_totalprice, o_orderkey) - 1)
                           * {relational.NTILE_K}
                           // (SELECT count(*) FROM orders) AS decile
                FROM orders)
            SELECT decile, CAST(count(*) AS BIGINT) AS n_orders,
                   SUM(cents) / 100.0 AS total_price,
                   min(cents) / 100.0 AS min_price,
                   max(cents) / 100.0 AS max_price
            FROM r GROUP BY decile ORDER BY decile
        """,
        "q_copurchase_pairs": f"""
            WITH pr AS (
                SELECT a.l_partkey AS p_a, b.l_partkey AS p_b
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey)
            SELECT p_a, p_b, CAST(count(*) AS BIGINT) AS support
            FROM pr GROUP BY 1, 2
            ORDER BY support DESC, p_a, p_b
            LIMIT {relational.COPURCHASE_TOP_K}
        """,
        "q13_order_count_distribution": """
            WITH c AS (
                SELECT c.c_custkey,
                       CAST(count(o.o_custkey) AS BIGINT) AS n_orders
                FROM customer c
                LEFT JOIN orders o ON o.o_custkey = c.c_custkey
                GROUP BY c.c_custkey)
            SELECT n_orders, CAST(count(*) AS BIGINT) AS n_customers
            FROM c GROUP BY n_orders
            ORDER BY n_customers DESC, n_orders DESC
        """,
        "q18_large_volume_customers": f"""
            WITH big AS (
                SELECT l_orderkey,
                       CAST(sum(l_quantity) AS BIGINT) AS sum_qty
                FROM lineitem GROUP BY l_orderkey
                HAVING sum(l_quantity) > {relational.Q18_MIN_QTY})
            SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
                   round(o.o_totalprice, 2) AS o_totalprice, b.sum_qty
            FROM big b
            JOIN orders o ON o.o_orderkey = b.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            ORDER BY o.o_totalprice DESC, o.o_orderdate, o.o_orderkey
            LIMIT 100
        """,
        "q_cms_heavy_hitters": f"""
            WITH hs(i, a, b) AS (VALUES
                {", ".join(f"({i}, {a}::HUGEINT, {b}::HUGEINT)"
                           for i, (a, b) in enumerate(
                               zip(relational.CMS_ROW_A,
                                   relational.CMS_ROW_B)))}),
            bk AS (
                SELECT h.i,
                       ((((e.user_id::HUGEINT * h.a) % {1 << 64} + h.b)
                          % {1 << 64}) % {(1 << 61) - 1})
                           % {relational.CMS_WIDTH} AS bucket
                FROM events e CROSS JOIN hs h),
            cms AS (
                SELECT i, bucket, CAST(count(*) AS BIGINT) AS cnt
                FROM bk GROUP BY i, bucket),
            top AS (
                SELECT user_id, CAST(count(*) AS BIGINT) AS exact_count
                FROM events GROUP BY user_id
                ORDER BY exact_count DESC, user_id
                LIMIT {relational.CMS_TOP_K}),
            cand AS (
                SELECT t.user_id, t.exact_count, h.i,
                       ((((t.user_id::HUGEINT * h.a) % {1 << 64} + h.b)
                          % {1 << 64}) % {(1 << 61) - 1})
                           % {relational.CMS_WIDTH} AS bucket
                FROM top t CROSS JOIN hs h)
            SELECT c.user_id, c.exact_count,
                   CAST(min(m.cnt) AS BIGINT) AS est_count
            FROM cand c JOIN cms m ON m.i = c.i AND m.bucket = c.bucket
            GROUP BY c.user_id, c.exact_count
            ORDER BY c.exact_count DESC, c.user_id
        """,
        "t_dsir_importance": f"""
            WITH words AS (
                SELECT doc_id, lang,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            bg AS MATERIALIZED (
                SELECT doc_id, lang,
                       ('0x' || substr(md5(ws[i] || ' ' || ws[i + 1]),
                                       1, 16))::UBIGINT
                           % {text.DSIR_BUCKETS} AS b
                FROM words, unnest(range(1, len(ws))) AS t(i)
                WHERE len(ws) >= 2),
            cnt AS (
                SELECT b, CAST(count(*) AS BIGINT) AS rcnt,
                       CAST(count(*) FILTER (
                           WHERE lang = '{text.DSIR_TARGET_LANG}')
                            AS BIGINT) AS tcnt
                FROM bg GROUP BY b),
            tot AS (
                SELECT CAST(count(*) AS BIGINT) AS rtot,
                       CAST(count(*) FILTER (
                           WHERE lang = '{text.DSIR_TARGET_LANG}')
                            AS BIGINT) AS ttot
                FROM bg),
            occ AS (
                SELECT doc_id, b, CAST(count(*) AS BIGINT) AS occ
                FROM bg GROUP BY doc_id, b)
            SELECT o.doc_id,
                   CAST(SUM(o.occ) AS BIGINT) AS n_occ,
                   CAST(SUM(o.occ * (c.tcnt + 1)) AS BIGINT) AS tmass,
                   CAST(SUM(o.occ * (c.rcnt + 1)) AS BIGINT) AS rmass,
                   (CAST(SUM(o.occ * (c.tcnt + 1)) AS DOUBLE)
                      * CAST(t.rtot + {text.DSIR_BUCKETS} AS DOUBLE))
                     / (CAST(SUM(o.occ * (c.rcnt + 1)) AS DOUBLE)
                          * CAST(t.ttot + {text.DSIR_BUCKETS} AS DOUBLE))
                       AS importance
            FROM occ o JOIN cnt c USING (b) CROSS JOIN tot t
            GROUP BY o.doc_id, t.rtot, t.ttot
            ORDER BY o.doc_id
        """,
        "q_value_quantiles_by_type": f"""
            WITH r AS (
                SELECT event_type, value,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY value) - 1 AS rk,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events),
            qs(q) AS (VALUES {", ".join(f"({q})"
                                        for q in relational.EVQ_QUANTILES)})
            SELECT event_type, CAST(q AS DOUBLE) AS quantile, value
            FROM r JOIN qs
              ON r.rk = CAST(floor(CAST(q AS DOUBLE) * (r.n - 1)) AS BIGINT)
            ORDER BY event_type, quantile
        """,
        "q_hopping_window_counts": f"""
            WITH hops AS (
                SELECT (CAST(floor(epoch_us(ts) / {relational.HOP_US})
                             AS BIGINT) - j) * {relational.HOP_US}
                           AS wstart_us
                FROM events, unnest(range(0,
                    {relational.HOP_WINDOW_US // relational.HOP_US}))
                    AS t(j))
            SELECT wstart_us, CAST(count(*) AS BIGINT) AS n_events
            FROM hops GROUP BY wstart_us ORDER BY wstart_us
        """,
        "q_user_mode_event": """
            WITH c AS (
                SELECT user_id, event_type,
                       CAST(count(*) AS BIGINT) AS n,
                       row_number() OVER (PARTITION BY user_id
                                          ORDER BY count(*) DESC,
                                                   event_type) AS rn
                FROM events GROUP BY user_id, event_type)
            SELECT user_id, event_type AS mode_event_type, n
            FROM c WHERE rn = 1 ORDER BY user_id
        """,
        "q_hll_distinct": f"""
            WITH h AS (
                SELECT event_type,
                       ('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                       1, 16))::UBIGINT AS h
                FROM events),
            r AS (
                SELECT event_type,
                       CAST(h >> {64 - relational.HLL_P} AS BIGINT) AS idx,
                       CASE WHEN (h & {(1 << (64 - relational.HLL_P)) - 1}
                                      ::UBIGINT) = 0
                            THEN {64 - relational.HLL_P + 1}
                            ELSE {64 - relational.HLL_P + 1}
                                 - length(bin(
                                     (h & {(1 << (64 - relational.HLL_P))
                                           - 1}::UBIGINT)::BIGINT))
                       END AS rank
                FROM h),
            m AS (
                SELECT event_type, idx, CAST(max(rank) AS BIGINT) AS mj
                FROM r GROUP BY event_type, idx),
            z AS (
                SELECT event_type,
                       CAST({relational.HLL_M} - count(*) AS BIGINT)
                           AS n_zero_registers,
                       SUM((1::UBIGINT << (64 - mj))::HUGEINT)
                         + ({relational.HLL_M} - count(*))
                             * 18446744073709551616::HUGEINT AS zs
                FROM m GROUP BY event_type)
            SELECT event_type, n_zero_registers,
                   CAST(zs AS DOUBLE) AS z_scaled,
                   {relational.HLL_ALPHA!r}
                     * (CAST({relational._HLL_M2_64} AS DOUBLE)
                          / CAST(zs AS DOUBLE)) AS est_hll
            FROM z ORDER BY event_type
        """,
        "x_dsir_select": f"""
            WITH words AS (
                SELECT doc_id, lang,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            bg AS MATERIALIZED (
                SELECT doc_id, lang,
                       ('0x' || substr(md5(ws[i] || ' ' || ws[i + 1]),
                                       1, 16))::UBIGINT
                           % {text.DSIR_BUCKETS} AS b
                FROM words, unnest(range(1, len(ws))) AS t(i)
                WHERE len(ws) >= 2),
            cnt AS (
                SELECT b, CAST(count(*) AS BIGINT) AS rcnt,
                       CAST(count(*) FILTER (
                           WHERE lang = '{text.DSIR_TARGET_LANG}')
                            AS BIGINT) AS tcnt
                FROM bg GROUP BY b),
            tot AS (
                SELECT CAST(count(*) AS BIGINT) AS rtot,
                       CAST(count(*) FILTER (
                           WHERE lang = '{text.DSIR_TARGET_LANG}')
                            AS BIGINT) AS ttot
                FROM bg),
            occ AS (
                SELECT doc_id, b, CAST(count(*) AS BIGINT) AS occ
                FROM bg GROUP BY doc_id, b),
            sc AS (
                SELECT o.doc_id,
                       (CAST(SUM(o.occ * (c.tcnt + 1)) AS DOUBLE)
                          * CAST(t.rtot + {text.DSIR_BUCKETS} AS DOUBLE))
                         / (CAST(SUM(o.occ * (c.rcnt + 1)) AS DOUBLE)
                              * CAST(t.ttot + {text.DSIR_BUCKETS}
                                     AS DOUBLE)) AS importance
                FROM occ o JOIN cnt c USING (b) CROSS JOIN tot t
                GROUP BY o.doc_id, t.rtot, t.ttot),
            rk AS (
                SELECT doc_id,
                       row_number() OVER (ORDER BY importance DESC,
                                          doc_id) AS rn,
                       count(*) OVER () AS n
                FROM sc)
            SELECT d.lang, CAST(count(*) AS BIGINT) AS n_selected
            FROM rk r JOIN documents d USING (doc_id)
            WHERE r.rn <= CAST(ceil(CAST(r.n AS DOUBLE)
                               / {text.DSIR_KEEP_FRAC}) AS BIGINT)
            GROUP BY d.lang ORDER BY d.lang
        """,
        "q_key_skew_profile": f"""
            WITH c AS (
                SELECT user_id, CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY user_id),
            t AS (
                SELECT CAST(count(*) AS BIGINT) AS n_keys,
                       CAST(sum(n) AS BIGINT) AS n_rows,
                       CAST(max(n) AS BIGINT) AS max_per_key
                FROM c),
            r AS (
                SELECT n, row_number() OVER (ORDER BY n DESC, user_id)
                           AS rn
                FROM c)
            SELECT t.n_keys, t.n_rows, t.max_per_key,
                   CAST(t.max_per_key AS DOUBLE)
                     / CAST(t.n_rows AS DOUBLE) AS top1_share,
                   CAST((SELECT sum(n) FROM r
                         WHERE rn <= {relational.SKEW_TOP_N}) AS DOUBLE)
                     / CAST(t.n_rows AS DOUBLE) AS topn_share
            FROM t
        """,
        "t_column_profile": """
            SELECT 'lang' AS "column",
                   CAST(count(*) FILTER (WHERE lang IS NULL) AS BIGINT)
                       AS n_nulls,
                   CAST(count(DISTINCT lang) AS BIGINT) AS n_distinct,
                   CAST(min(lang) AS VARCHAR) AS min_val,
                   CAST(max(lang) AS VARCHAR) AS max_val
            FROM documents
            UNION ALL
            SELECT 'n_chars',
                   CAST(count(*) FILTER (WHERE n_chars IS NULL) AS BIGINT),
                   CAST(count(DISTINCT n_chars) AS BIGINT),
                   CAST(min(n_chars) AS VARCHAR),
                   CAST(max(n_chars) AS VARCHAR)
            FROM documents
            UNION ALL
            SELECT 'source',
                   CAST(count(*) FILTER (WHERE source IS NULL) AS BIGINT),
                   CAST(count(DISTINCT source) AS BIGINT),
                   CAST(min(source) AS VARCHAR),
                   CAST(max(source) AS VARCHAR)
            FROM documents
            ORDER BY "column"
        """,
        "g_triangle_count": """
            WITH pr AS (
                SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
                FROM lineitem a
                JOIN lineitem b ON a.l_orderkey = b.l_orderkey
                              AND a.l_partkey < b.l_partkey),
            nodes AS (
                SELECT pa AS n FROM pr UNION SELECT pb FROM pr)
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM nodes) AS n_nodes,
                   (SELECT CAST(count(*) AS BIGINT) FROM pr) AS n_edges,
                   (SELECT CAST(count(*) AS BIGINT)
                    FROM pr e1
                    JOIN pr e2 ON e2.pa = e1.pa AND e2.pb > e1.pb
                    JOIN pr e3 ON e3.pa = e1.pb AND e3.pb = e2.pb)
                       AS n_triangles
        """,
        "x_neardup_keep_best": f"""
            WITH RECURSIVE {dedup.oracle_ctes(0.5)},
            edges AS MATERIALIZED (
                SELECT a AS u, b AS v FROM minhash_pairs
                UNION ALL SELECT b, a FROM minhash_pairs),
            reach(doc_id, r) AS (
                SELECT DISTINCT u, u FROM edges
                UNION
                SELECT e.u, re.r FROM edges e
                JOIN reach re ON re.doc_id = e.v),
            clus AS (
                SELECT doc_id, min(r) AS cluster
                FROM reach GROUP BY doc_id),
            allc AS (
                SELECT d.doc_id,
                       COALESCE(c.cluster, d.doc_id) AS cluster
                FROM documents d LEFT JOIN clus c USING (doc_id)),
            ranked AS (
                SELECT a.doc_id,
                       row_number() OVER (PARTITION BY a.cluster
                                          ORDER BY d.n_chars DESC,
                                                   a.doc_id) AS rn
                FROM allc a JOIN documents d USING (doc_id))
            SELECT d.lang, CAST(count(*) AS BIGINT) AS n_survivors
            FROM ranked r JOIN documents d USING (doc_id)
            WHERE r.rn = 1 GROUP BY d.lang ORDER BY d.lang
        """,
        "t_lm_perplexity_buckets": """
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ), bg AS MATERIALIZED (
                SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS g
                FROM words, unnest(range(1, len(ws))) AS t(i)
                WHERE len(ws) >= 2
            ), cnt AS (
                SELECT g, CAST(count(*) AS BIGINT) AS c
                FROM bg GROUP BY g
            ), sc AS (
                SELECT b.doc_id,
                       CAST(count(*) AS BIGINT) AS n_bigrams,
                       CAST(sum(c.c) AS DOUBLE)
                         / CAST(count(*) AS DOUBLE) AS score
                FROM bg b JOIN cnt c USING (g)
                GROUP BY b.doc_id
            ), rk AS (
                SELECT doc_id, n_bigrams,
                       row_number() OVER (ORDER BY score DESC, doc_id)
                           AS rn,
                       count(*) OVER () AS n
                FROM sc)
            SELECT CASE WHEN rn <= CAST(ceil(n / 3.0) AS BIGINT)
                        THEN 'head'
                        WHEN rn <= CAST(ceil(2 * n / 3.0) AS BIGINT)
                        THEN 'middle' ELSE 'tail' END AS bucket,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_bigrams) AS BIGINT) AS total_bigrams
            FROM rk GROUP BY 1 ORDER BY 1
        """,
        "q_kmv_join_overlap": f"""
            WITH a AS (
                SELECT DISTINCT o_orderkey AS k FROM orders
                WHERE o_totalprice > {relational.BLOOM_PRICE_MIN}),
            b AS (
                SELECT DISTINCT l_orderkey AS k FROM lineitem
                WHERE l_returnflag = 'R'),
            ha AS (
                SELECT ('0x' || substr(md5(CAST(k AS VARCHAR)), 1, 16))
                           ::UBIGINT AS h
                FROM a ORDER BY 1 LIMIT {relational.KMV_JOIN_K}),
            hb AS (
                SELECT ('0x' || substr(md5(CAST(k AS VARCHAR)), 1, 16))
                           ::UBIGINT AS h
                FROM b ORDER BY 1 LIMIT {relational.KMV_JOIN_K}),
            un AS (
                SELECT h FROM (SELECT h FROM ha UNION SELECT h FROM hb)
                ORDER BY h LIMIT {relational.KMV_JOIN_K}),
            stats AS (
                SELECT CAST(count(*) AS BIGINT) AS nu,
                       max(h) AS hk,
                       CAST(count(*) FILTER (
                           WHERE h IN (SELECT h FROM ha)
                             AND h IN (SELECT h FROM hb)) AS BIGINT)
                           AS si
                FROM un),
            ex AS (
                SELECT CAST(count(*) AS BIGINT) AS c
                FROM a JOIN b USING (k))
            SELECT s.nu AS n_union_sketch,
                   s.si AS sketch_intersection,
                   CAST(s.si AS DOUBLE) / CAST(s.nu AS DOUBLE)
                       AS est_jaccard,
                   (CAST(s.si AS DOUBLE) / CAST(s.nu AS DOUBLE))
                     * (CASE WHEN s.nu < {relational.KMV_JOIN_K}
                             THEN CAST(s.nu AS DOUBLE)
                             ELSE ({relational.KMV_JOIN_K} - 1)
                                  * 18446744073709551616.0
                                  / CAST(s.hk AS DOUBLE) END)
                       AS est_intersection,
                   ex.c AS exact_intersection
            FROM stats s, ex
        """,
        "t_gram_novelty": f"""
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents),
            g3 AS MATERIALIZED (
                SELECT DISTINCT doc_id,
                       ('0x' || substr(md5(array_to_string(
                            list_slice(ws, i,
                                i + {text.NOVELTY_GRAM_N - 1}), ' ')),
                            1, 16))::UBIGINT AS h
                FROM words,
                     unnest(range(1, len(ws) - {text.NOVELTY_GRAM_N - 2}))
                         AS t(i)
                WHERE len(ws) >= {text.NOVELTY_GRAM_N}),
            fst AS (
                SELECT h, min(doc_id) AS fd FROM g3 GROUP BY h)
            SELECT g.doc_id,
                   CAST(count(*) AS BIGINT) AS n_grams,
                   CAST(count(*) FILTER (WHERE g.doc_id = f.fd)
                        AS BIGINT) AS n_novel,
                   CAST(count(*) FILTER (WHERE g.doc_id = f.fd)
                        AS DOUBLE) / CAST(count(*) AS DOUBLE) AS novelty
            FROM g3 g JOIN fst f USING (h)
            GROUP BY g.doc_id ORDER BY g.doc_id
        """,
        "q4_priority_with_returns": f"""
            SELECT o.o_orderpriority,
                   CAST(count(*) AS BIGINT) AS order_count
            FROM orders o
            WHERE o.o_orderdate >= TIMESTAMP '{relational.Q4_DATE_LO}'
              AND o.o_orderdate <  TIMESTAMP '{relational.Q4_DATE_HI}'
              AND EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_returnflag = 'R')
            GROUP BY o.o_orderpriority
            ORDER BY o.o_orderpriority
        """,
        "q_cumulative_distinct_users": """
            WITH f AS (
                SELECT user_id, min(date_trunc('day', ts)) AS day
                FROM events GROUP BY user_id),
            n AS (
                SELECT day, CAST(count(*) AS BIGINT) AS new_users
                FROM f GROUP BY day)
            SELECT day, new_users,
                   CAST(SUM(new_users) OVER (ORDER BY day) AS BIGINT)
                       AS cum_distinct_users
            FROM n ORDER BY day
        """,
        "d_event_window_dedup": f"""
            WITH l AS (
                SELECT user_id, event_type, ts,
                       lag(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) AS prev_ts
                FROM events)
            SELECT user_id, event_type,
                   CAST(count(*) FILTER (WHERE prev_ts IS NULL
                       OR epoch_us(ts) - epoch_us(prev_ts)
                          > {relational.DEDUP_WINDOW_US}) AS BIGINT)
                       AS n_kept,
                   CAST(count(*) FILTER (WHERE prev_ts IS NOT NULL
                       AND epoch_us(ts) - epoch_us(prev_ts)
                           <= {relational.DEDUP_WINDOW_US}) AS BIGINT)
                       AS n_dropped
            FROM l GROUP BY user_id, event_type
            ORDER BY user_id, event_type
        """,
        "q_window_trending": f"""
            WITH hops AS (
                SELECT (CAST(floor(epoch_us(ts) / {relational.HOP_US})
                             AS BIGINT) - j) * {relational.HOP_US}
                           AS wstart_us,
                       event_type
                FROM events, unnest(range(0,
                    {relational.HOP_WINDOW_US // relational.HOP_US}))
                    AS t(j)),
            c AS (
                SELECT wstart_us, event_type,
                       CAST(count(*) AS BIGINT) AS n
                FROM hops GROUP BY wstart_us, event_type),
            r AS (
                SELECT wstart_us, event_type, n,
                       row_number() OVER (PARTITION BY wstart_us
                                          ORDER BY n DESC, event_type)
                           AS rn
                FROM c)
            SELECT wstart_us, event_type AS top_event_type, n
            FROM r WHERE rn = 1 ORDER BY wstart_us
        """,
        "q_cube_revenue": """
            SELECT l_returnflag, l_linestatus,
                   ((SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                     + 50) // 100) / 100.0 AS revenue,
                   CAST(count(*) AS BIGINT) AS n_items
            FROM lineitem
            GROUP BY CUBE (l_returnflag, l_linestatus)
            ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
        """,
        "q8_market_share": f"""
            WITH rev AS (
                SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                       s.s_nationkey AS snk,
                       CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                           AS sub
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey
                           AND p.p_type = '{relational.Q8_PART_TYPE}'
                JOIN supplier s ON s.s_suppkey = l.l_suppkey
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                JOIN customer c ON c.c_custkey = o.o_custkey
                JOIN nation n ON n.n_nationkey = c.c_nationkey
                WHERE n.n_regionkey = {relational.Q8_REGION_KEY})
            SELECT o_year,
                   CAST(SUM(CASE WHEN snk = {relational.Q8_NATION_KEY}
                                 THEN sub ELSE 0 END) AS DOUBLE)
                     / CAST(SUM(sub) AS DOUBLE) AS mkt_share,
                   ((SUM(CASE WHEN snk = {relational.Q8_NATION_KEY}
                              THEN sub ELSE 0 END) + 50) // 100) / 100.0
                       AS nation_revenue,
                   ((SUM(sub) + 50) // 100) / 100.0 AS total_revenue
            FROM rev GROUP BY o_year ORDER BY o_year
        """,
        "q10_returned_revenue": f"""
            WITH rev AS (
                SELECT o.o_custkey,
                       SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(round(l.l_discount * 100)
                                         AS BIGINT))) AS sub
                FROM lineitem l
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                WHERE l.l_returnflag = 'R'
                  AND o.o_orderdate >= TIMESTAMP '{relational.Q10_DATE_LO}'
                  AND o.o_orderdate <  TIMESTAMP '{relational.Q10_DATE_HI}'
                GROUP BY o.o_custkey)
            SELECT c.c_custkey, c.c_name,
                   ((r.sub + 50) // 100) / 100.0 AS revenue,
                   c.c_acctbal, n.n_name
            FROM rev r
            JOIN customer c ON c.c_custkey = r.o_custkey
            JOIN nation n ON n.n_nationkey = c.c_nationkey
            ORDER BY r.sub DESC, c.c_custkey
            LIMIT {relational.Q10_TOP_K}
        """,
        "q12_ship_priority": f"""
            WITH classed AS (
                SELECT CASE
                         WHEN date_diff('day', o.o_orderdate, l.l_shipdate)
                              <= {relational.Q12_FAST_DAYS} THEN 'FAST'
                         WHEN date_diff('day', o.o_orderdate, l.l_shipdate)
                              <= {relational.Q12_MEDIUM_DAYS} THEN 'MEDIUM'
                         ELSE 'SLOW' END AS delay_class,
                       o.o_orderpriority AS prio
                FROM lineitem l
                JOIN orders o ON o.o_orderkey = l.l_orderkey
                WHERE l.l_shipdate >= TIMESTAMP '{relational.Q12_YEAR}-01-01'
                  AND l.l_shipdate <  TIMESTAMP '{relational.Q12_YEAR + 1}-01-01')
            SELECT delay_class,
                   CAST(SUM(CASE WHEN prio IN ('1-URGENT', '2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
                   CAST(SUM(CASE WHEN prio IN ('1-URGENT', '2-HIGH')
                            THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
            FROM classed GROUP BY delay_class ORDER BY delay_class
        """,
        "q14_promo_share": f"""
            WITH rev AS (
                SELECT CAST(month(l.l_shipdate) AS BIGINT) AS l_month,
                       CASE WHEN p.p_type = 'PROMO' THEN 1 ELSE 0 END
                           AS promo,
                       CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100) AS BIGINT))
                           AS sub
                FROM lineitem l
                JOIN part p ON p.p_partkey = l.l_partkey
                WHERE l.l_shipdate >= TIMESTAMP '{relational.Q14_YEAR}-01-01'
                  AND l.l_shipdate <  TIMESTAMP '{relational.Q14_YEAR + 1}-01-01')
            SELECT l_month,
                   100.0 * (CAST(SUM(CASE WHEN promo = 1 THEN sub
                                          ELSE 0 END) AS DOUBLE)
                            / CAST(SUM(sub) AS DOUBLE)) AS promo_share,
                   ((SUM(CASE WHEN promo = 1 THEN sub ELSE 0 END) + 50)
                        // 100) / 100.0 AS promo_revenue,
                   ((SUM(sub) + 50) // 100) / 100.0 AS total_revenue
            FROM rev GROUP BY l_month ORDER BY l_month
        """,
        "q15_top_supplier": f"""
            WITH rev AS (
                SELECT l_suppkey,
                       SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(round(l_discount * 100)
                                         AS BIGINT))) AS sub
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '{relational.Q15_DATE_LO}'
                  AND l_shipdate <  TIMESTAMP '{relational.Q15_DATE_HI}'
                GROUP BY l_suppkey)
            SELECT s.s_suppkey, s.s_name,
                   ((r.sub + 50) // 100) / 100.0 AS total_revenue
            FROM rev r JOIN supplier s ON s.s_suppkey = r.l_suppkey
            WHERE r.sub = (SELECT max(sub) FROM rev)
            ORDER BY s.s_suppkey
        """,
        "q17_small_qty_revenue": f"""
            -- exact-integer form of qty < 0.2 * avg(qty):
            -- 5*qty*cnt < qty_sum (quantities are integral)
            WITH pq AS (
                SELECT l_partkey,
                       SUM(CAST(l_quantity AS BIGINT)) AS qsum,
                       CAST(count(*) AS BIGINT) AS cnt
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_brand = '{relational.Q17_BRAND}')
                GROUP BY l_partkey)
            SELECT CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT))
                        AS DOUBLE) / 700.0 AS avg_yearly
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
                       AND p.p_brand = '{relational.Q17_BRAND}'
            JOIN pq ON pq.l_partkey = l.l_partkey
            WHERE CAST(l.l_quantity AS BIGINT) * 5 * pq.cnt < pq.qsum
        """,
        "q19_disjunct_revenue": f"""
            SELECT ((SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(round(l.l_discount * 100)
                                       AS BIGINT))) + 50) // 100) / 100.0
                       AS revenue
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE {" OR ".join(
                f"(p.p_brand = '{b}' AND p.p_size BETWEEN {slo} AND {shi}"
                f" AND l.l_quantity BETWEEN {qlo} AND {qhi})"
                for b, slo, shi, qlo, qhi in relational.Q19_TERMS)}
        """,
        "q2_min_cost_supplier": f"""
            WITH cand AS (
                SELECT p_partkey FROM part
                WHERE p_type = '{relational.Q2_TYPE}'
                  AND p_size BETWEEN {relational.Q2_SIZE_LO}
                                 AND {relational.Q2_SIZE_HI}),
            eu AS (
                SELECT s_suppkey, s_name, s_acctbal, n_name
                FROM supplier JOIN nation ON n_nationkey = s_nationkey
                WHERE n_regionkey = {relational.Q2_REGION_KEY}),
            cost AS (
                SELECT l_partkey, l_suppkey,
                       MIN(CAST(round(l_extendedprice * 100) AS BIGINT))
                           AS cents
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM cand)
                  AND l_suppkey IN (SELECT s_suppkey FROM eu)
                GROUP BY 1, 2),
            best AS (
                SELECT *, MIN(cents) OVER (PARTITION BY l_partkey) AS m
                FROM cost)
            SELECT eu.s_acctbal, eu.s_name, eu.n_name,
                   b.l_partkey AS p_partkey,
                   CAST(b.cents AS DOUBLE) / 100.0 AS supply_cost
            FROM best b JOIN eu ON eu.s_suppkey = b.l_suppkey
            WHERE b.cents = b.m
            ORDER BY eu.s_acctbal DESC, eu.n_name, eu.s_name, p_partkey
        """,
        "q9_product_type_profit": f"""
            SELECT n_name AS nation,
                   CAST(year(l_shipdate) AS BIGINT) AS ship_year,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100)
                                          AS BIGINT))
                            - CAST(l_quantity AS BIGINT)
                              * CAST(round(p_retailprice * 100) AS BIGINT)
                              * 100) AS DOUBLE) / 10000.0 AS sum_profit
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
                     AND p_type = '{relational.Q9_TYPE}'
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            GROUP BY 1, 2
            ORDER BY nation, ship_year DESC
        """,
        "q11_important_parts": f"""
            WITH v AS (
                SELECT l_partkey,
                       SUM(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(round(l_discount * 100)
                                         AS BIGINT))) AS s
                FROM lineitem
                JOIN supplier ON s_suppkey = l_suppkey
                JOIN nation ON n_nationkey = s_nationkey
                WHERE n_regionkey = {relational.Q11_REGION_KEY}
                GROUP BY 1)
            SELECT l_partkey, ((s + 50) // 100) / 100.0 AS value
            FROM v
            WHERE s * (SELECT count(*) FROM v)
                  > {relational.Q11_MULT} * (SELECT SUM(s) FROM v)
            ORDER BY value DESC, l_partkey
        """,
        "q16_supplier_cnt": f"""
            SELECT p_brand, p_type, p_size,
                   COUNT(DISTINCT l_suppkey) AS supplier_cnt
            FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)
            JOIN part ON p_partkey = l_partkey
            WHERE p_brand <> '{relational.Q16_EX_BRAND}'
              AND p_type <> '{relational.Q16_EX_TYPE}'
              AND p_size IN {relational.Q16_SIZES}
              AND l_suppkey NOT IN (
                  SELECT s_suppkey FROM supplier
                  WHERE s_acctbal < {relational.Q16_EXCL_BAL})
            GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
        """,
        "q20_dominant_suppliers": f"""
            WITH ps AS (
                SELECT l_partkey, l_suppkey,
                       SUM(CAST(l_quantity AS BIGINT)) AS q
                FROM lineitem
                JOIN part ON p_partkey = l_partkey
                         AND p_type = '{relational.Q20_TYPE}'
                GROUP BY 1, 2),
            tot AS (SELECT l_partkey, SUM(q) AS tq, COUNT(*) AS ns
                    FROM ps GROUP BY 1)
            SELECT DISTINCT s_suppkey, s_name
            FROM ps JOIN tot USING (l_partkey)
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON n_nationkey = s_nationkey
            WHERE n_regionkey = {relational.Q20_REGION_KEY}
              AND q * ns > {relational.Q20_MULT} * tq
            ORDER BY s_suppkey
        """,
        "q21_waiting_suppliers": f"""
            WITH os AS (
                SELECT l_orderkey, l_suppkey,
                       MAX(CASE WHEN l_returnflag = 'R'
                                THEN 1 ELSE 0 END) AS ret
                FROM lineitem GROUP BY 1, 2),
            stats AS (
                SELECT l_orderkey, COUNT(*) AS ns, SUM(ret) AS nr
                FROM os GROUP BY 1)
            SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
            FROM os JOIN stats USING (l_orderkey)
            JOIN supplier ON s_suppkey = l_suppkey
            WHERE ret = 1 AND ns >= 2 AND nr = 1
            GROUP BY s_name
            ORDER BY numwait DESC, s_name
            LIMIT {relational.Q21_TOP_K}
        """,
        "q22_idle_rich_customers": f"""
            WITH ns AS (
                SELECT n_nationkey, n_name FROM nation
                WHERE n_regionkey IN {relational.Q22_REGION_KEYS}),
            avgc AS (
                SELECT SUM(CAST(round(c_acctbal * 100) AS BIGINT)) AS s,
                       COUNT(*) AS n
                FROM customer JOIN ns ON n_nationkey = c_nationkey
                WHERE c_acctbal > 0),
            cand AS (
                SELECT c_custkey, n_name,
                       CAST(round(c_acctbal * 100) AS BIGINT) AS cents
                FROM customer JOIN ns ON n_nationkey = c_nationkey
                WHERE CAST(round(c_acctbal * 100) AS BIGINT)
                      * (SELECT n FROM avgc) > (SELECT s FROM avgc))
            SELECT n_name, CAST(COUNT(*) AS BIGINT) AS numcust,
                   CAST(SUM(cents) AS DOUBLE) / 100.0 AS totacctbal
            FROM cand
            WHERE NOT EXISTS (
                SELECT 1 FROM orders
                WHERE o_custkey = c_custkey
                  AND o_orderdate >= TIMESTAMP '{relational.Q22_RECENT}')
            GROUP BY n_name
            ORDER BY n_name
        """,
        "q_kmv_distinct": f"""
            WITH h AS (
                SELECT DISTINCT event_type,
                       ('0x' || substr(md5(CAST(user_id AS VARCHAR)),
                                       1, 16))::UBIGINT AS h
                FROM events),
            r AS (
                SELECT event_type, h,
                       row_number() OVER (PARTITION BY event_type
                                          ORDER BY h) AS rk,
                       count(*) OVER (PARTITION BY event_type) AS nd
                FROM h),
            kth AS (SELECT event_type, h AS hk FROM r
                    WHERE rk = {relational.KMV_K}),
            cnt AS (SELECT event_type, max(nd) AS nd FROM r GROUP BY 1)
            SELECT c.event_type,
                   CAST(least(c.nd, {relational.KMV_K}) AS BIGINT)
                       AS n_sketch,
                   round(CASE WHEN c.nd < {relational.KMV_K}
                              THEN c.nd::DOUBLE
                              ELSE {relational.KMV_K - 1}.0
                                   * 18446744073709551616.0 / k.hk::DOUBLE
                         END, 4) AS est_distinct
            FROM cnt c LEFT JOIN kth k USING (event_type)
            ORDER BY c.event_type
        """,
        "d_levenshtein_pairs": f"""
            WITH blocked AS (
                SELECT doc_id, substr(text, 1, {dedup.LEV_PREFIX_CHARS})
                           AS prefix,
                       lang, n_chars // {dedup.LEV_BLOCK_CHARS} AS lb,
                       row_number() OVER (
                           PARTITION BY lang,
                                        n_chars // {dedup.LEV_BLOCK_CHARS}
                           ORDER BY doc_id) AS rk
                FROM documents),
            capped AS (SELECT * FROM blocked
                       WHERE rk <= {dedup.LEV_BLOCK_CAP})
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(levenshtein(a.prefix, b.prefix) AS BIGINT) AS dist
            FROM capped a JOIN capped b
              ON a.lang = b.lang AND a.lb = b.lb AND a.doc_id < b.doc_id
            ORDER BY id_a, id_b
        """,
        "q_heavy_hitters": f"""
            SELECT user_id, CAST(count(*) AS BIGINT) AS n
            FROM events GROUP BY user_id
            ORDER BY n DESC, user_id
            LIMIT {relational.HEAVY_HITTER_K}
        """,
        "t_sequence_pack": f"""
            WITH tok AS (
                SELECT doc_id,
                       CAST(length(regexp_extract_all(text, '{tok}'))
                            AS BIGINT) AS n_tokens
                FROM documents),
            c AS (
                SELECT doc_id, n_tokens,
                       CAST(coalesce(sum(n_tokens) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS BIGINT)
                           AS cum_prev
                FROM tok)
            SELECT doc_id, n_tokens,
                   cum_prev // {text.SEQ_LEN} AS seq_id,
                   cum_prev % {text.SEQ_LEN} AS seq_offset
            FROM c ORDER BY doc_id
        """,
        "t_winnowing_fingerprints": f"""
            WITH words AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
                FROM documents
            ), g AS (
                SELECT doc_id, i,
                       ('0x' || substr(md5(array_to_string(
                            list_slice(ws, i, i + {text.WINNOW_GRAM_N - 1}),
                            ' ')), 1, 16))::UBIGINT AS h,
                       len(ws) - {text.WINNOW_GRAM_N - 1} AS n_grams
                FROM words,
                     unnest(range(1, len(ws) - {text.WINNOW_GRAM_N - 2}))
                         AS t(i)
                WHERE len(ws) >= {text.WINNOW_GRAM_N + text.WINNOW_WINDOW - 1}
            ), win AS (
                SELECT doc_id, i, n_grams,
                       min(h) OVER (PARTITION BY doc_id ORDER BY i
                                    ROWS BETWEEN CURRENT ROW AND
                                    {text.WINNOW_WINDOW - 1} FOLLOWING) AS m
                FROM g
            )
            SELECT doc_id,
                   CAST(min(n_grams) AS BIGINT) AS n_grams,
                   CAST(count(DISTINCT m) AS BIGINT) AS n_selected
            FROM win
            WHERE i <= n_grams - {text.WINNOW_WINDOW - 1}
            GROUP BY doc_id ORDER BY doc_id
        """,
        "q_late_data_drop": """
            WITH w AS (
                SELECT ts, user_id,
                       max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                                     ROWS BETWEEN UNBOUNDED PRECEDING
                                              AND 1 PRECEDING) AS hwm
                FROM events
            ), flag AS (
                SELECT date_trunc('hour', ts) AS window_start,
                       CASE WHEN hwm IS NOT NULL
                                 AND ts < hwm - INTERVAL 10 MINUTE
                            THEN 1 ELSE 0 END AS late
                FROM w)
            SELECT window_start,
                   CAST(sum(1 - late) AS BIGINT) AS n_on_time,
                   CAST(sum(late) AS BIGINT) AS n_late_dropped
            FROM flag GROUP BY 1 ORDER BY window_start
        """,
        "q_event_transitions": """
            WITH w AS (
                SELECT user_id, event_type,
                       LAG(event_type) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id)
                           AS prev_type
                FROM events)
            SELECT prev_type, event_type, CAST(count(*) AS BIGINT) AS n
            FROM w WHERE prev_type IS NOT NULL
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "e_centroid_assign": """
            WITH expl AS (
                SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS v,
                       generate_subscripts(embedding, 1) AS i
                FROM embeddings
            ), cent AS (
                SELECT label, i, avg(v) AS m FROM expl GROUP BY label, i
            ), cl AS (
                SELECT label AS clab, list(m ORDER BY i) AS cv
                FROM cent GROUP BY label
            ), d AS (
                SELECT e.vec_id, e.label, c.clab,
                       list_distance(CAST(e.embedding AS DOUBLE[]),
                                     CAST(c.cv AS DOUBLE[])) AS dist
                FROM embeddings e CROSS JOIN cl c
            ), a AS (
                SELECT vec_id, label, clab,
                       row_number() OVER (PARTITION BY vec_id
                                          ORDER BY dist, clab) AS rk
                FROM d)
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(clab AS BIGINT) AS assigned,
                   CAST(count(*) AS BIGINT) AS n
            FROM a WHERE rk = 1
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "e_knn_filtered": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe, label AS ql
                       FROM embeddings ORDER BY vec_id LIMIT 5),
            scored AS (
                SELECT q.qid AS query_id, e.vec_id,
                       list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])) AS cos
                FROM q JOIN embeddings e ON e.label = q.ql
                WHERE e.vec_id <> q.qid
            )
            SELECT query_id, nn_rank, vec_id, cosine FROM (
                SELECT query_id, vec_id, round(cos, 6) AS cosine,
                       row_number() OVER (PARTITION BY query_id
                                          ORDER BY cos DESC, vec_id)
                           AS nn_rank
                FROM scored
            ) WHERE nn_rank <= 5
            ORDER BY query_id, nn_rank
        """,
        # e_knn_ivf (trained k-means quantizer — iterative float means no
        # static SQL reproduces), m_* (media decode) and x_extract_*
        # (PDF extraction) are not SQL-expressible → rows-only.
    }
