"""The flagship pipeline: interleaved docs + media → extracted docs.

Ray-Data-first design (SURVEY §7, north_rule), one physical plan at every
size:

  extract, one wave of equal-cost bins: read media (ref+bytes) → split
    units, each costed in bytes, materialized → the driver packs the units
    into one contiguous bin of equal cost per CPU, each assembled as one
    block (a split doc's bytes stored once per bin that holds one of its
    units) → one extract task per bin (warm per-worker kernel state), all
    started at once, materialized once.  Meanwhile a background thread
    explodes the docs to span rows carrying the stable lineage partition
    key.
  media cogroup: chunk rows and pdf/html span rows, projected to one schema,
    meet in ``joins.keyed`` on media_ref; each bucket reassembles its
    page-split chunks and attaches the text to its spans with one
    vectorized index_in/take.  Text spans bypass the join.
  partition regroup: ``joins.keyed`` on the partition key; each bucket
    assembles its docs (offset-keyed sort within doc_id) and, in write mode,
    writes one fragment per partition and commits it (state.checkpoint's
    write_fragment + commit_partition) inside the same task.

When writes happen: ``extract_documents`` runs the extract wave and the
span explode before it returns, and returns a lazy Dataset whose plan
ends in the two exchanges.  The tag maps, both exchanges and the
fragment writes and commits run as one Ray Data job when the caller
first consumes the result (``take_all``, ``count``, iteration).  The
regroup keeps its reduced buckets (``joins.hash_exchange``), so
consuming the result again commits nothing more.

``joins.exchange_buckets`` sizes both exchanges, so a bucket may hold many
media refs and many partitions.  Both, and ``extract_media_text``'s
chunk reassembly, pass ``local=False``: the extracted text never lands
on the driver, whatever the corpus size
(a driver-local fold measured about +16 MB of driver RSS on the
perfbench skew corpus, and the fragment writes would run serially).
Every Dataset the pipeline builds starts its operators' tasks together
(``sources.interleaved.own_start``, set on the Dataset's own context).
All per-batch work is Arrow-vectorized (index_in/take, run-length list
assembly) or amortized warm state; media BYTES never pass through an
exchange — only extracted text does.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..fixtures.corpus import SPAN_TYPE
from ..functions.joins import keyed
from ..sources.interleaved import own_start, read_table
from ..stages.extractor import make_extract_task
from ..stages.split import assemble_bin, make_split_units, pack_bins
from ..stages.spans import explode_spans
from ..state import checkpoint as ckpt


def _explode_with_partition(n_partitions: int):
    def fn(batch: pa.Table) -> pa.Table:
        t = explode_spans(batch)
        part = ckpt.partition_column(t.column("doc_id").combine_chunks(), n_partitions)
        return t.append_column("part", part)

    return fn


def _filter_done_docs(n_partitions: int, done: set):
    done_list = sorted(done)

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").combine_chunks()
        part = ckpt.partition_column(ids, n_partitions)
        mask = pc.invert(pc.is_in(part, value_set=pa.array(done_list, pa.int32())))
        return batch.filter(mask)

    return fn


def _doc_metrics(docs: pa.Table) -> dict:
    """Lineage metrics of assembled doc rows (one fragment or a whole
    partition); sums and the order-free content hash fold across
    fragments."""
    return {
        "rows": docs.num_rows,
        "n_docs": docs.num_rows,
        "n_spans": int(pc.sum(docs.column("n_spans")).as_py() or 0),
        "pages": int(pc.sum(docs.column("numpages")).as_py() or 0),
        "errors": int(pc.sum(docs.column("n_errors")).as_py() or 0),
        "content_hash": ckpt.content_hash(docs.column("doc_id").to_pylist()),
    }


def _metric_rows(recs: list[dict]) -> pa.Table:
    """Write-mode result rows: one per committed partition."""
    return pa.table({
        "partition": pa.array([r["partition"] for r in recs], pa.int32()),
        "n_docs": pa.array([r["n_docs"] for r in recs], pa.int64()),
        "pages": pa.array([r["pages"] for r in recs], pa.int64()),
        "errors": pa.array([r["errors"] for r in recs], pa.int64()),
        "wall_s": pa.array([r["wall_s"] for r in recs], pa.float64()),
    })


def _assemble_partition(out_dir: Optional[str], run_id: str):
    """The partition-regroup fold: assemble every doc of the bucket's
    partitions (offset-keyed sort within doc_id) in one vectorized pass
    and, in write mode, write each partition as one fragment and commit
    its lineage in this same task, emitting one metrics row per partition
    instead of the data."""

    def fn(group: pa.Table) -> pa.Table:
        import numpy as np

        t0 = time.time()
        order = pc.sort_indices(group, sort_keys=[
            ("part", "ascending"), ("doc_id", "ascending"), ("offset", "ascending")])
        g = group.take(order)
        n = g.num_rows
        doc_arr = g.column("doc_id").combine_chunks()
        empty = pa.scalar("", pa.string())
        # span struct column, fully vectorized
        struct = pa.StructArray.from_arrays(
            [
                g.column("kind").combine_chunks(),
                pc.coalesce(g.column("text"), empty).combine_chunks(),
                pc.coalesce(g.column("media_ref"), empty).combine_chunks(),
                g.column("offset").combine_chunks(),
            ],
            fields=list(SPAN_TYPE),
        )
        # doc boundaries via run-length of the dictionary-encoded doc ids
        # (a doc id fixes its partition, so each doc's rows are contiguous)
        codes = pc.dictionary_encode(doc_arr).indices.to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.nonzero(np.diff(codes))[0] + 1))
        offsets = np.concatenate((starts, [n])).astype(np.int32)
        spans_list = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
        starts_arr = pa.array(starts, pa.int64())
        is_pdf = pc.equal(g.column("kind"), "pdf")
        np_vals = pc.if_else(is_pdf, pc.coalesce(g.column("numpages"), pa.scalar(0, pa.int32())),
                             pa.scalar(0, pa.int32())).combine_chunks().to_numpy(zero_copy_only=False)
        err_vals = pc.and_(pc.is_valid(g.column("error")),
                           pc.not_equal(pc.coalesce(g.column("error"), empty), empty))
        err_vals = err_vals.combine_chunks().to_numpy(zero_copy_only=False).astype(np.int32)
        out = pa.table({
            "doc_id": pc.take(doc_arr, starts_arr),
            "spans": spans_list,
            "n_spans": pa.array(np.diff(offsets), pa.int32()),
            "numpages": pa.array(np.add.reduceat(np_vals, starts), pa.int32()),
            "n_errors": pa.array(np.add.reduceat(err_vals, starts), pa.int32()),
        })
        if out_dir is None:
            return out
        parts = pc.take(g.column("part"), starts_arr).to_numpy(zero_copy_only=False)
        p_starts = np.flatnonzero(np.r_[True, parts[1:] != parts[:-1]])
        p_ends = np.r_[p_starts[1:], len(parts)]
        # each partition's wall: its write + commit plus a row share of
        # the bucket's assembly
        assemble_s = time.time() - t0
        recs = []
        for s, e in zip(p_starts, p_ends):
            t1 = time.time()
            k = int(parts[s])
            sub = out.slice(s, int(e - s))
            name = ckpt.write_fragment(out_dir, k, run_id, sub)
            recs.append(ckpt.commit_partition(out_dir, k, [name], {
                **_doc_metrics(sub),
                "wall_s": time.time() - t1 + assemble_s * (e - s) / len(parts)}))
        return _metric_rows(recs)

    return fn


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


def _unit_costs(units: pa.Table):
    return units.column("cost").to_numpy()


def _assemble_bin(bounds, *blocks):
    return assemble_bin([b.slice(s, e - s) for b, (s, e) in zip(blocks, bounds)])


def _cost_bins(units: rd.Dataset, cpus: int) -> list:
    """Block refs of the extract wave: ``units`` packed into ``cpus x
    waves`` bins of equal cost (``pack_bins``, from the cost column only),
    each assembled as one block.  ``waves`` stays 1 until a bin would pass
    Ray Data's ``target_max_block_size``."""
    refs = [ref for b in units.iter_internal_ref_bundles()
            for ref, meta in b.blocks if meta.num_rows]
    if not refs:  # no media rows: an empty wave
        return []
    unit_costs = ray.remote(_unit_costs)
    costs = ray.get([unit_costs.remote(r) for r in refs])
    total = int(sum(int(c.sum()) for c in costs))
    waves = max(1, -(-total // (cpus * units.context.target_max_block_size)))
    bin_of = pack_bins(np.concatenate(costs), cpus * waves)
    # each bin is a contiguous run of units: per bin, the (block, row
    # range) slices it covers
    slices: dict[int, list] = {}
    pos = 0
    for ref, c in zip(refs, costs):
        b = bin_of[pos:pos + len(c)]
        cuts = np.flatnonzero(np.diff(b)) + 1
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(c)]):
            slices.setdefault(int(b[s]), []).append((ref, (int(s), int(e))))
        pos += len(c)
    assemble = ray.remote(_assemble_bin)
    return [assemble.remote([r for _, r in sl], *[ref for ref, _ in sl])
            for _, sl in sorted(slices.items())]


def extract_media_chunks(
    media: rd.Dataset,
    *,
    size_threshold: int = 100 * 1024,
    page_threshold: int = 200,
    page_chunk: int = 100,
    page_render=None,  # None or 'module:fn'
    max_pages: int = 0,
    progress=None,  # name of a state.progress actor (optional)
    verbosity: int = 0,  # reference verbosityLevel (lib/pdf-parse.js:51)
) -> rd.Dataset:
    """media (media_ref, bytes) → chunk-level extraction results
    (media_ref, chunk_text, page_start, n_chunks, numpages, error),
    MATERIALIZED (the heavy compute runs exactly once; downstream
    consumers see only extracted text, orders of magnitude smaller than
    the media bytes).

    One wave of equal-cost bins: the split map cuts docs > page_threshold
    pages into page-range units of page_chunk pages and costs every unit
    in bytes; the units are materialized, packed on the driver into one
    contiguous bin per CPU (``stages.split.pack_bins``), and extracted by
    one ``map_batches(extract_batch)`` task per bin, all started at once.
    A split doc's units spread over the bins its cost span crosses.  The
    split map shares its context with ``media`` (Ray's rule for derived
    Datasets), so ``media`` also starts its tasks together afterwards."""
    units = own_start(media.map_batches(
        make_split_units(size_threshold, page_threshold, page_chunk),
        batch_format="pyarrow", batch_size=64,
    )).materialize()
    bins = _cost_bins(units, _cluster_cpus())
    del units  # the bins hold the units' rows from here on
    # warm parser state lives per worker process (module-level cache in
    # stages.extractor) — measured ~2x faster than an actor pool on this
    # workload because map tasks reuse already-warm Ray workers
    return own_start(rd.from_arrow_refs(bins)).map_batches(
        make_extract_task(page_render=page_render, max_pages=max_pages,
                          progress=progress, verbosity=verbosity),
        batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
    ).materialize()


def assemble_media_chunk_table(tbl: pa.Table) -> pa.Table:
    """The one chunk reassembly (media cogroup, extract_media_text): chunk order is restored by page_start and chunk
    texts carry their own leading separators, so a doc's text is their
    direct concatenation.  The single-chunk majority is a vectorized
    projection; only multi-chunk (page-split) docs — rare by
    construction — take the Python merge."""
    single_mask = pc.equal(tbl.column("n_chunks"), 1)
    singles = tbl.filter(single_mask)
    empty = pa.scalar("", pa.string())
    out_singles = pa.table({
        "media_ref": singles.column("media_ref"),
        "text": pc.coalesce(singles.column("chunk_text"), empty),
        "numpages": pc.coalesce(singles.column("numpages"), pa.scalar(0, pa.int32())),
        "error": singles.column("error"),
    })
    multis = tbl.filter(pc.invert(pc.coalesce(single_mask, pa.scalar(False))))
    if multis.num_rows == 0:
        return out_singles
    multi: dict[str, list] = {}
    for r, t, s, np_, e in zip(multis.column("media_ref").to_pylist(),
                               multis.column("chunk_text").to_pylist(),
                               multis.column("page_start").to_pylist(),
                               multis.column("numpages").to_pylist(),
                               multis.column("error").to_pylist()):
        multi.setdefault(r, []).append((s, t or "", np_ or 0, e))
    out_ref, out_text, out_np, out_err = [], [], [], []
    for r, parts in multi.items():
        parts.sort(key=lambda p: p[0])
        out_ref.append(r)
        # chunk texts carry their own leading separators (reference:
        # results[currentIndex] slot addressing then plain join)
        out_text.append("".join(p[1] for p in parts))
        out_np.append(max(p[2] for p in parts))
        out_err.append(next((p[3] for p in parts if p[3]), None))
    return pa.concat_tables([out_singles, pa.table({
        "media_ref": pa.array(out_ref, pa.string()),
        "text": pa.array(out_text, pa.string()),
        "numpages": pa.array(out_np, pa.int32()),
        "error": pa.array(out_err, pa.string()),
    })])


def extract_media_text(
    media: rd.Dataset,
    *,
    size_threshold: int = 100 * 1024,
    page_threshold: int = 200,
    page_chunk: int = 100,
    page_render=None,  # None or 'module:fn'
    max_pages: int = 0,
    progress=None,  # name of a state.progress actor (optional)
) -> rd.Dataset:
    """media (media_ref, bytes) → (media_ref, text, numpages, error).

    Distributed chunk reassembly: the keyed media_ref exchange only ever
    sees page-split (multi-chunk) docs, a tiny minority by construction."""
    extracted = extract_media_chunks(
        media, size_threshold=size_threshold, page_threshold=page_threshold,
        page_chunk=page_chunk, page_render=page_render, max_pages=max_pages,
        progress=progress,
    )
    singles = extracted.filter(expr="n_chunks == 1").map_batches(
        assemble_media_chunk_table, batch_format="pyarrow")
    multis = keyed(extracted.filter(expr="n_chunks > 1"), "media_ref",
                   assemble_media_chunk_table, local=False)
    return singles.union(multis)


def extract_documents(
    docs_path: str,
    media_path: str,
    out_dir: Optional[str] = None,
    *,
    n_partitions: int = 32,
    size_threshold: int = 100 * 1024,
    page_threshold: int = 200,
    page_chunk: int = 100,
    join_strategy: str = "hash",  # the one plan; any other value raises
    resume: bool = True,
    page_render=None,  # None or 'module:fn'
    max_pages: int = 0,
    progress=None,  # name of a state.progress actor (optional)
    verbosity: int = 0,  # reference verbosityLevel (lib/pdf-parse.js:51)
) -> rd.Dataset:
    """Full interleaved-corpus extraction.

    Returns the assembled documents Dataset (out_dir=None) or the
    per-partition metrics Dataset (write mode with lineage + resume; each
    partition is committed as one fragment, when the result is first
    consumed -- see the module docstring).  ``join_strategy`` accepts
    only ``"hash"``, the one plan."""
    if join_strategy != "hash":
        raise ValueError(f"join_strategy={join_strategy!r}: the hash plan "
                         f"is the only extraction plan")
    docs = read_table(docs_path, ["doc_id", "spans"])
    done: set[int] = set()
    if out_dir is not None and resume:
        ckpt.ensure_manifest(out_dir, {
            "docs_path": docs_path, "media_path": media_path,
            "n_partitions": n_partitions,
        })
        done = ckpt.completed_partitions(out_dir)
        if len(done) >= n_partitions:
            return rd.from_items([])  # nothing left to do
        if done:
            docs = docs.map_batches(_filter_done_docs(n_partitions, done),
                                    batch_format="pyarrow")

    # ~4 read tasks per CPU directly at the read (no repartition
    # exchange), fused with the split map; the extract stage's balance
    # comes from its cost bins, not from the read's block count.  Columns
    # pruned at the read: the pipeline needs only ref + payload.
    # GRAFT_MEDIA_BLOCKS pins the read's block count so a scaling
    # comparison reads the same blocks at two cluster sizes (bench.py
    # --scaling).
    blocks_env = os.environ.get("GRAFT_MEDIA_BLOCKS")
    media = read_table(media_path, columns=["media_ref", "bytes"],
                       override_num_blocks=(int(blocks_env) if blocks_env
                                            else max(16, _cluster_cpus() * 4)))
    if done:
        # resume: only extract media still referenced by remaining docs
        ref_ds = docs.map_batches(
            _explode_with_partition(n_partitions),
            batch_format="pyarrow").filter(expr="kind == 'pdf' or kind == 'html'")
        needed_refs = set(ref_ds.unique("media_ref") or [])
        ref_arr = pa.array(sorted(needed_refs), pa.string())
        media = media.map_batches(
            lambda t, refs=ref_arr: t.filter(pc.is_in(t.column("media_ref"), value_set=refs)),
            batch_format="pyarrow",
        )

    # the exploded-span side is independent of the extraction side:
    # materialize it on a background thread so the two cluster jobs
    # overlap (measured ~3 s at sf0.1).  Span rows are pinned once — they
    # feed both the join side and the text-span pass-through, and Ray
    # re-executes shared upstream per consumer; they are text-only (never
    # media bytes) and spill
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        spans_future = pool.submit(
            lambda: docs.map_batches(_explode_with_partition(n_partitions),
                                     batch_format="pyarrow").materialize())
        # the heavy extraction runs exactly once, materialized, so the
        # media cogroup sees only extracted text
        chunks = extract_media_chunks(
            media, size_threshold=size_threshold,
            page_threshold=page_threshold, page_chunk=page_chunk,
            page_render=page_render, max_pages=max_pages, progress=progress,
            verbosity=verbosity,
        )
        spans = spans_future.result()

    def _tag_media(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "is_media": pa.array([True] * n, pa.bool_()),
            "media_ref": t.column("media_ref"),
            "doc_id": pa.nulls(n, pa.string()),
            "kind": pa.nulls(n, pa.string()),
            "offset": pa.nulls(n, pa.int32()),
            "part": pa.nulls(n, pa.int32()),
            "chunk_text": t.column("chunk_text"),
            "page_start": t.column("page_start"),
            "n_chunks": t.column("n_chunks"),
            "numpages": t.column("numpages"),
            "error": t.column("error"),
        })

    def _tag_spans(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("kind"),
                              value_set=pa.array(["pdf", "html"])))
        n = t.num_rows
        return pa.table({
            "is_media": pa.array([False] * n, pa.bool_()),
            "media_ref": t.column("media_ref"),
            "doc_id": t.column("doc_id"),
            "kind": t.column("kind"),
            "offset": t.column("offset"),
            "part": t.column("part"),
            "chunk_text": pa.nulls(n, pa.string()),
            "page_start": pa.nulls(n, pa.int32()),
            "n_chunks": pa.nulls(n, pa.int32()),
            "numpages": pa.nulls(n, pa.int32()),
            "error": pa.nulls(n, pa.string()),
        })

    def _cogroup_attach(group: pa.Table) -> pa.Table:
        # a bucket holds many media refs; a span whose ref has no media
        # row gets empty text and a counted "media_ref not found" error
        is_media = group.column("is_media")
        media_side = group.filter(is_media)
        span_side = group.filter(pc.invert(is_media))
        lookup = assemble_media_chunk_table(media_side.select(
            ["media_ref", "chunk_text", "page_start", "n_chunks", "numpages",
             "error"]))
        idx = pc.index_in(span_side.column("media_ref"),
                          value_set=lookup.column("media_ref"))
        return pa.table({
            "doc_id": span_side.column("doc_id"),
            "kind": span_side.column("kind"),
            "text": pc.coalesce(pc.take(lookup.column("text"), idx),
                                pa.scalar("", pa.string())),
            "media_ref": span_side.column("media_ref"),
            "offset": span_side.column("offset"),
            "part": span_side.column("part"),
            "numpages": pc.coalesce(pc.take(lookup.column("numpages"), idx),
                                    pa.scalar(0, pa.int32())),
            "error": pc.if_else(pc.is_null(idx),
                                pa.scalar("media_ref not found", pa.string()),
                                pc.take(lookup.column("error"), idx)),
        })

    # block-bundled tag stages: the extract/explode materializations leave
    # many tiny blocks and the exchange runs one split task per block, so
    # a batch_size on the slim tag maps BUNDLES many input blocks per task
    # (one output block per batch)
    tagged = chunks.map_batches(
        _tag_media, batch_format="pyarrow", batch_size=4096,
        zero_copy_batch=True,
    ).union(spans.map_batches(
        _tag_spans, batch_format="pyarrow", batch_size=16384,
        zero_copy_batch=True))
    joined = keyed(tagged, "media_ref", _cogroup_attach, local=False)
    text_spans = spans.filter(expr="kind == 'text'").map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id"), "kind": t.column("kind"),
            "text": t.column("text"), "media_ref": t.column("media_ref"),
            "offset": t.column("offset"), "part": t.column("part"),
            "numpages": pa.array([0] * t.num_rows, pa.int32()),
            "error": pa.array([None] * t.num_rows, pa.string()),
        }),
        batch_format="pyarrow", batch_size=16384,
    )
    return keyed(own_start(joined.union(text_spans)), "part",
                 _assemble_partition(out_dir, uuid.uuid4().hex[:12]),
                 local=False)
