"""Per-layer measurements for the traced run.

Each function measures one layer of the engine from outside, through its
public entry points: the kernels in one process, Ray Data operator stats of
a standalone extract stage and of the job's own plan, the checkpoint store,
and the spill directory.
"""

from __future__ import annotations

import os
import random
import time

import pyarrow.dataset as pds

PDF_PAGE_BUDGET = 1000  # pages in the single-process kernel sample
HTML_DOC_BUDGET = 60    # html documents in the kernel sample


def kernel_sample(corpus_dir: str | None, seed: int, scale: float = 1.0):
    """Seeded sample of a corpus's media: ``(pdf blobs, html blobs)``.
    A kind the corpus lacks (or no corpus at all) is filled with seeded
    generator documents of the default shape, so both kernels are always
    measured."""
    from pdf_parse_new_ray.htmlkernel import looks_like_html

    rng = random.Random(seed)
    page_budget = max(20, int(PDF_PAGE_BUDGET * scale))
    html_budget = max(5, int(HTML_DOC_BUDGET * scale))
    pdfs: list[bytes] = []
    htmls: list[bytes] = []
    if corpus_dir is not None:
        media = pds.dataset(f"{corpus_dir}/media").to_table(
            columns=["bytes", "numpages"])
        order = list(range(media.num_rows))
        rng.shuffle(order)
        blobs = media.column("bytes")
        npages = media.column("numpages").to_pylist()
        pages = 0
        for i in order:
            blob = blobs[i].as_py()
            if looks_like_html(blob):
                if len(htmls) < html_budget:
                    htmls.append(blob)
            elif pages < page_budget:
                pdfs.append(blob)
                pages += npages[i]
    if not pdfs:
        from pdf_parse_new_ray.fixtures.pdfgen import make_seeded_pdf

        pages = 0
        while pages < page_budget:
            blob, _, n = make_seeded_pdf(rng.getrandbits(32))
            pdfs.append(blob)
            pages += n
    if not htmls:
        from pdf_parse_new_ray.fixtures.htmlgen import make_seeded_html

        htmls = [make_seeded_html(rng.getrandbits(32))[0]
                 for _ in range(html_budget)]
    return pdfs, htmls


def kernel_baseline(pdfs: list[bytes], htmls: list[bytes], tracer) -> dict:
    """Single-process CPU seconds per kernel phase, the way the extract
    stage drives the kernel: open (``PDFDocument`` + ``TextExtractor`` +
    page tree), text content per page, and render per page.  Document info
    and XMP metadata (``meta``) are timed too but are not part of the
    extract stage, so they stay out of ``pages_per_cpu_s``."""
    from pdf_parse_new_ray.htmlkernel import HtmlDocument
    from pdf_parse_new_ray.pdfkernel import PDFDocument, TextExtractor
    from pdf_parse_new_ray.pdfkernel.api import render_page_text

    clock = time.process_time
    t = {"open": 0.0, "meta": 0.0, "text_content": 0.0, "render": 0.0}
    n_pages = 0
    for blob in pdfs:
        with tracer.span("pdfkernel.document"):
            with tracer.span("pdfkernel.open"):
                c0 = clock()
                doc = PDFDocument(blob)
                ext = TextExtractor(doc)
                pages = doc.pages()
                c1 = clock()
            with tracer.span("pdfkernel.meta"):
                doc.document_info()
                doc.metadata_obj()
                c2 = clock()
            t["open"] += c1 - c0
            t["meta"] += c2 - c1
            for page in pages[:doc.num_pages]:
                n_pages += 1
                c0 = clock()
                try:
                    with tracer.span("pdfkernel.text_content"):
                        tc = ext.get_text_content(page)
                except Exception:  # noqa: BLE001 - pages absorb like the stage
                    t["text_content"] += clock() - c0
                    continue
                c1 = clock()
                with tracer.span("pdfkernel.render"):
                    render_page_text(tc)
                t["text_content"] += c1 - c0
                t["render"] += clock() - c1
    c0 = clock()
    with tracer.span("htmlkernel.main_text"):
        for blob in htmls:
            HtmlDocument(blob).main_text
    html_cpu = clock() - c0
    stage_cpu = t["open"] + t["text_content"] + t["render"]
    return {
        "pdfkernel.pages_per_cpu_s": n_pages / stage_cpu if stage_cpu else 0.0,
        "pdfkernel.open_s": t["open"],
        "pdfkernel.meta_s": t["meta"],
        "pdfkernel.text_content_s": t["text_content"],
        "pdfkernel.render_s": t["render"],
        "pdfkernel.sample_pages": n_pages,
        "htmlkernel.docs_per_cpu_s": len(htmls) / html_cpu if html_cpu else 0.0,
    }


def operator_stats(ds) -> list:
    """Flattened per-operator stats of a Dataset's last execution,
    parents included (``Dataset.stats()`` in structured form)."""
    out = []
    try:
        summary = ds._get_stats_summary()
    except Exception:  # noqa: BLE001 - a plan without execution stats
        return out
    todo = [summary]
    while todo:
        s = todo.pop()
        out.extend(s.operators_stats)
        todo.extend(s.parents)
    return out


def extract_stage_stats(chunks) -> dict:
    """Extract-operator numbers from a materialized ``extract_media_chunks``."""
    import pyarrow.compute as pc
    import ray

    ops = [o for o in operator_stats(chunks) if "extract" in o.operator_name]
    wall = sum(o.time_total_s for o in ops)
    cpu = sum((o.cpu_time or {}).get("sum", 0.0) for o in ops)
    tasks = sum((o.task_rows or {}).get("count", 0) for o in ops)
    walls = [o.wall_time for o in ops if o.wall_time]
    ratio = (max(w["max"] for w in walls) / max(1e-9, sum(w["mean"] for w in walls) / len(walls))
             if walls else 0.0)
    units = 0
    for ref in chunks.to_arrow_refs():
        t = ray.get(ref)
        if t.num_rows:
            units += int(pc.sum(pc.greater(t.column("n_chunks"), 1)).as_py() or 0)
    return {
        "stages.extract_s": wall,
        "stages.extract_cpu_s": cpu,
        "stages.extract_tasks": tasks,
        "stages.task_max_over_mean": ratio,
        "stages.split_units": units,
    }


def sort_stats(ds) -> tuple[float, float, list[str]]:
    """(seconds, MB, operator names) of the sort exchanges in a job's
    returned Dataset.  An exchange's seconds run from the start of its first
    map task to the end of its last reduce task, so they include the
    barrier between the two; its MB is what the reduce side produced.  A
    plan without exchanges gives zeros."""
    ops = operator_stats(ds)
    maps = [o for o in ops if o.operator_name == "SortMap"]
    reduces = [o for o in ops if o.operator_name == "SortReduce"]
    secs = sum(r.latest_end_time - m.earliest_start_time
               for m, r in zip(maps, reduces))
    mb = sum((r.output_size_bytes or {}).get("sum", 0) for r in reduces) / 1e6
    return secs, mb, [o.operator_name for o in ops]


def state_probe(out_dir: str, tracer) -> dict:
    """Commit-tail numbers of a written store: lineage wall seconds,
    partitions and fragment files, and the read side of the store."""
    from pdf_parse_new_ray.state import checkpoint as ckpt
    from pdf_parse_new_ray.state.stats import collect_stats

    with tracer.span("state.collect_stats"):
        stats = collect_stats(out_dir)
    n_writes = stats["methodUsage"].get("partition_write", 0)
    lineage_wall = stats["averageTimes"].get("partition_write", 0.0) * n_writes
    with tracer.span("state.partition_files"):
        parts = sorted(ckpt.completed_partitions(out_dir))
        fragments = sum(len(ckpt.partition_files(out_dir, k)) for k in parts)
    t0 = time.perf_counter()
    with tracer.span("state.read_output"):
        ckpt.read_output(out_dir)
    return {
        "state.lineage_wall_s": lineage_wall,
        "state.partitions": len(parts),
        "state.fragments": fragments,
        "state.read_output_s": time.perf_counter() - t0,
    }


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(base, f))
            except OSError:
                pass
    return total / 1e6
