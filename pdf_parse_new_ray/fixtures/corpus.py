"""Interleaved text+media corpus generator (FIXTURES.md §F1/F2/F4).

Deterministic (seeded) synthetic Lance/Parquet-style tables matching
BASELINE.json `input_hint`:

  documents_interleaved: doc_id:string,
                         spans:list<struct<kind,text,media_ref,offset:int32>>
  media:                 media_ref:string, bytes:binary, numpages:int32
  oracle_docs:           doc_id + the expected POST-extraction span sequence
                         (kind, text, media_ref, offset) — the north-rule
                         span-sequence-equality oracle, computed from the
                         generator's own ground truth (never from the kernel).

Span order within the stored list is a seeded permutation (offsets stay
correct) so the pipeline's offset-keyed re-sort is actually exercised.
"""

from __future__ import annotations

import os
import random
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

from .pdfgen import make_seeded_pdf, random_lines

SPAN_TYPE = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])

DOCS_SCHEMA = pa.schema([
    ("doc_id", pa.string()),
    ("spans", pa.list_(SPAN_TYPE)),
])

MEDIA_SCHEMA = pa.schema([
    ("media_ref", pa.string()),
    ("bytes", pa.binary()),
    ("numpages", pa.int32()),
])


def generate_corpus(
    out_dir: str,
    n_docs: int = 200,
    seed: int = 42,
    skew_doc_every: int = 97,
    skew_pages: int = 120,
    shard_rows: int = 2000,
    html_frac: float = 0.0,
) -> dict:
    """Write documents_interleaved/, media/, oracle_docs/ parquet shards.

    ~40% all-text docs, ~40% one pdf span, ~20% multi-pdf (FIXTURES F1);
    every ``skew_doc_every``-th doc gets a ``skew_pages``-page PDF (the skew
    split path); ~10% of pdf spans reuse an earlier media_ref (join fan-out).
    Output is sharded so the pipeline's partitioned/resumable layout has >1
    input fragment even at small scale.
    """
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("documents_interleaved", "media", "oracle_docs"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    doc_rows: list[dict] = []
    media_rows: list[dict] = []
    oracle_rows: list[dict] = []
    media_expected: dict[str, str] = {}
    media_seq = 0
    shard_idx = [0, 0, 0]

    def flush(force: bool = False) -> None:
        nonlocal doc_rows, media_rows, oracle_rows
        if doc_rows and (force or len(doc_rows) >= shard_rows):
            t = pa.Table.from_pylist(doc_rows, schema=DOCS_SCHEMA)
            pq.write_table(t, os.path.join(out_dir, "documents_interleaved", f"part-{shard_idx[0]:05d}.parquet"))
            shard_idx[0] += 1
            doc_rows = []
        if oracle_rows and (force or len(oracle_rows) >= shard_rows):
            t = pa.Table.from_pylist(oracle_rows, schema=DOCS_SCHEMA)
            pq.write_table(t, os.path.join(out_dir, "oracle_docs", f"part-{shard_idx[2]:05d}.parquet"))
            shard_idx[2] += 1
            oracle_rows = []
        if media_rows and (force or len(media_rows) >= max(200, shard_rows // 10)):
            t = pa.Table.from_pylist(media_rows, schema=MEDIA_SCHEMA)
            pq.write_table(t, os.path.join(out_dir, "media", f"part-{shard_idx[1]:05d}.parquet"))
            shard_idx[1] += 1
            media_rows = []

    for d in range(n_docs):
        doc_id = f"doc-{d:06d}"
        roll = rng.random()
        is_skew = skew_doc_every > 0 and d > 0 and d % skew_doc_every == 0
        if is_skew:
            n_pdf = 1
        elif roll < 0.4:
            n_pdf = 0
        elif roll < 0.8:
            n_pdf = 1
        else:
            n_pdf = rng.randint(2, 4)

        spans: list[dict] = []
        offset = 0
        # leading text spans
        for _ in range(rng.randint(0, 3) if n_pdf else rng.randint(1, 8)):
            spans.append({"kind": "text", "text": " ".join(random_lines(rng, 1)),
                          "media_ref": "", "offset": offset})
            offset += 1
        for p in range(n_pdf):
            reuse = media_expected and rng.random() < 0.10 and not is_skew
            as_html = (html_frac > 0 and not is_skew and not reuse
                       and rng.random() < html_frac)
            if reuse:
                mref = rng.choice(sorted(media_expected))
                kind = "html" if mref.startswith("html-") else "pdf"
            elif as_html:
                # html media span (north_rule: boilerplate-strip surface);
                # ground truth comes from the GENERATOR's planted blocks
                mref = f"html-{media_seq:06d}"
                media_seq += 1
                from .htmlgen import make_seeded_html

                blob, expected, _title = make_seeded_html(seed * 1_000_003 + media_seq)
                media_rows.append({"media_ref": mref, "bytes": blob, "numpages": 1})
                media_expected[mref] = expected
                kind = "html"
            else:
                mref = f"pdf-{media_seq:06d}"
                media_seq += 1
                pdf_seed = seed * 1_000_003 + media_seq
                pdf, expected, npages = make_seeded_pdf(
                    pdf_seed, n_pages=skew_pages if is_skew else None)
                media_rows.append({"media_ref": mref, "bytes": pdf, "numpages": npages})
                media_expected[mref] = expected
                kind = "pdf"
            spans.append({"kind": kind, "text": "", "media_ref": mref, "offset": offset})
            offset += 1
            for _ in range(rng.randint(0, 2)):
                spans.append({"kind": "text", "text": " ".join(random_lines(rng, 1)),
                              "media_ref": "", "offset": offset})
                offset += 1

        oracle_spans = [
            dict(s, text=media_expected[s["media_ref"]])
            if s["kind"] in ("pdf", "html") else dict(s)
            for s in spans
        ]
        stored = spans[:]
        rng.shuffle(stored)  # offsets stay correct; storage order scrambled
        doc_rows.append({"doc_id": doc_id, "spans": stored})
        oracle_rows.append({"doc_id": doc_id, "spans": oracle_spans})
        flush()

    flush(force=True)
    return {
        "out_dir": out_dir,
        "n_docs": n_docs,
        "n_media": media_seq,
        "doc_shards": shard_idx[0],
        "media_shards": shard_idx[1],
    }


# bump when generator output changes (cached corpora regenerate):
# v2 = ~8% encrypted media PDFs (rc4-128/aesv2/aesv3, empty user password)
CORPUS_VERSION = "v2"
CORPUS_SEED = 42  # generation seed of the corpus_dir_for corpora


def corpus_dir_for(sf: float, base: str = "/tmp/graft_corpus") -> str:
    """Canonical generated-corpus location for a scale factor; generates on
    first use.  sf=0.001 → 200 docs, sf=0.01 → 2,000, sf=0.1 → 20,000."""
    n_docs = max(50, int(200_000 * sf))
    out = os.path.join(base, f"sf{sf:g}")
    marker = os.path.join(out, "_SUCCESS")
    current = None
    if os.path.exists(marker):
        with open(marker) as f:
            current = f.read().strip()
    if current != CORPUS_VERSION:
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        generate_corpus(out, n_docs=n_docs, seed=CORPUS_SEED)
        with open(marker, "w") as f:
            f.write(CORPUS_VERSION)
    return out


HTML_CORPUS_VERSION = "h1"  # mixed pdf+html interleaved corpus


def html_corpus_dir_for(sf: float, base: str = "/tmp/graft_corpus_html") -> str:
    """Mixed-media corpus (~35% of media spans are HTML pages, rest PDF)
    for the boilerplate-strip extraction surface; cached independently of
    the PDF bench corpus so bench numbers stay comparable across rounds."""
    n_docs = max(50, int(200_000 * sf))
    out = os.path.join(base, f"sf{sf:g}")
    marker = os.path.join(out, "_SUCCESS")
    current = None
    if os.path.exists(marker):
        with open(marker) as f:
            current = f.read().strip()
    if current != HTML_CORPUS_VERSION:
        import shutil

        shutil.rmtree(out, ignore_errors=True)
        generate_corpus(out, n_docs=n_docs, seed=4242, html_frac=0.35)
        with open(marker, "w") as f:
            f.write(HTML_CORPUS_VERSION)
    return out
