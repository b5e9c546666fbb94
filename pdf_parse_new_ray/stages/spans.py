"""Span explode / reassemble stages (vectorized Arrow kernels).

The interleaved table stores one row per document with a
list<struct<kind,text,media_ref,offset>> column; the pipeline works on
exploded span rows and reassembles per doc_id at the end — the
"offset-keyed sort within each doc_id" reassembly from the north rule
(reference analogue: slot-indexed results array, lib/pdf-parse-workers.js:
118,179; SURVEY §2.4 'Reassembly join').
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def explode_spans(batch: pa.Table) -> pa.Table:
    """docs rows → span rows (doc_id, kind, text, media_ref, offset).
    Zero-copy where Arrow allows: list flatten + parent-index take."""
    spans = batch.column("spans")
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    flat = spans.flatten()
    parents = pc.list_parent_indices(spans)
    doc_ids = pc.take(batch.column("doc_id"), parents)
    cols = {
        "doc_id": doc_ids,
        "kind": flat.field("kind"),
        "text": flat.field("text"),
        "media_ref": flat.field("media_ref"),
        "offset": flat.field("offset"),
    }
    return pa.table(cols)

