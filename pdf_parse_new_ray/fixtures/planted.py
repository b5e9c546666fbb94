"""Planted ground-truth builders for the rows-only query tail.

Each builder returns ``(expected_df, key_cols)`` — the exact values a
query's result MUST carry, computed purely from generator-side knowledge
(source pixel arrays, PCM parameters, container fields, oracle_docs span
text), never by running the engine's decoders or the pipeline.  The
check harness (tools/check_queries.run_checks) inner-joins the query's
actual result on ``key_cols``, requires every expected key to be
present, and value-compares the expected columns.

The perceptual-hash and area-mean-resize truths are computed by the
INDEPENDENT scalar implementations below (plain Python loops over the
documented spec), not by the engine's vectorized kernels — a bug in
either side surfaces as a planted-check failure instead of vanishing
into a shared helper.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

# generator kind → expected magic-byte sniff (stages.multimodal
# sniff_media_type semantics, restated as a static fact of each
# generated container format)
KIND_SNIFF = {
    "jpeg": "jpeg", "jpeg_progressive": "jpeg", "png": "png", "gif": "gif",
    "wav": "wav", "pdf": "pdf", "tiff_g4": "tiff", "mp3": "mp3",
    "mp4": "mp4", "jbig2": "jbig2", "jp2": "jp2", "pdf_images": "pdf",
    "avi": "avi", "junk": "unknown", "avi_rgb": "avi", "avi_mjpg": "avi",
}


# ---------------------------------------------------------------------------
# Independent reference math (scalar, loop-based on purpose)
# ---------------------------------------------------------------------------

def _gray_int(px: np.ndarray) -> list[list[int]]:
    """Integer Rec.601 luma as plain Python ints (spec: (299r+587g+114b)//1000)."""
    h = px.shape[0]
    w = px.shape[1]
    out = []
    for y in range(h):
        row = []
        for x in range(w):
            if px.ndim == 2:
                row.append(int(px[y, x]))
            elif px.shape[2] == 1:
                row.append(int(px[y, x, 0]))
            else:
                r, g, b = int(px[y, x, 0]), int(px[y, x, 1]), int(px[y, x, 2])
                row.append((299 * r + 587 * g + 114 * b) // 1000)
        out.append(row)
    return out


def planted_ahash64(px: np.ndarray) -> str:
    """64-bit average hash per the documented spec (8x8 integer area-mean
    grid, bit i set iff cell mean > global grid mean), as a scalar
    reimplementation independent of stages.multimodal.ahash64."""
    gray = _gray_int(px)
    h, w = len(gray), len(gray[0])
    if h < 8 or w < 8:  # tiny-image path: 8x pixel replication, no resample
        gray = [[v for v in row for _ in range(8)]
                for row in gray for _ in range(8)]
        h, w = len(gray), len(gray[0])
    ys = [(i * h) // 8 for i in range(9)]
    xs = [(i * w) // 8 for i in range(9)]
    sums, areas = [], []
    for gy in range(8):
        for gx in range(8):
            tot = cnt = 0
            for y in range(ys[gy], ys[gy + 1]):
                for x in range(xs[gx], xs[gx + 1]):
                    tot += gray[y][x]
                    cnt += 1
            sums.append(tot)
            areas.append(cnt)
    grand_sum, grand_area = sum(sums), sum(areas)
    # cell mean > grid mean, exact integer cross-multiplication;
    # row-major cell k occupies bit (63 - k) (big-endian packing)
    bits = 0
    for k in range(64):
        if sums[k] * grand_area > grand_sum * areas[k]:
            bits |= 1 << (63 - k)
    return f"{bits:016x}"


def planted_resize_digest(px: np.ndarray, th: int = 16, tw: int = 16) -> str:
    """sha256[:16] of the integer area-mean resample to (th, tw) — scalar
    reimplementation of the documented resize spec (floor-division block
    means; nearest-pixel when upscaling)."""
    if px.ndim == 2:
        px = px[:, :, None]
    h, w, c = px.shape
    out = np.zeros((th, tw, c), np.uint8)
    if h < th or w < tw:  # upscale: nearest
        for y in range(th):
            for x in range(tw):
                out[y, x] = px[(y * h) // th, (x * w) // tw]
    else:
        ys = [(i * h) // th for i in range(th + 1)]
        xs = [(i * w) // tw for i in range(tw + 1)]
        for gy in range(th):
            for gx in range(tw):
                for ch in range(c):
                    tot = cnt = 0
                    for y in range(ys[gy], ys[gy + 1]):
                        for x in range(xs[gx], xs[gx + 1]):
                            tot += int(px[y, x, ch])
                            cnt += 1
                    out[gy, gx, ch] = tot // cnt
    return hashlib.sha256(out.tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Mixed-media sidecar access
# ---------------------------------------------------------------------------

def _mixed_truth(sf_dir: str, table: str) -> pd.DataFrame:
    import re

    import pyarrow.parquet as pq

    from .media_mixed import mixed_media_dir_for

    m = re.search(r"sf([0-9.]+)", sf_dir)
    base = mixed_media_dir_for(float(m.group(1)) if m else 0.001)
    return pq.read_table(os.path.join(base + "_truth", table + ".parquet")) \
        .to_pandas()


def planted_media_features_mixed(sf_dir: str):
    t = _mixed_truth(sf_dir, "features")
    exp = t[["media_ref", "media_type", "numpages", "width", "height",
             "duration_s", "decoded"]].copy()
    return exp, ["media_ref"]


def planted_audio_features(sf_dir: str):
    t = _mixed_truth(sf_dir, "features")
    exp = t[["media_ref", "media_type", "sample_rate", "channels", "bits",
             "n_frames", "audio_duration_s", "rms", "peak",
             "zero_cross_rate", "clipped_frac", "audio_decoded"]].copy()
    exp = exp.rename(columns={"audio_duration_s": "duration_s",
                              "audio_decoded": "decoded"})
    return exp, ["media_ref"]


def planted_image_phash(sf_dir: str):
    t = _mixed_truth(sf_dir, "features")
    t = t[t["ph_check"]]
    exp = t[["media_ref", "media_type", "phash", "ph_decoded"]].copy()
    exp = exp.rename(columns={"ph_decoded": "decoded"})
    return exp, ["media_ref"]


def planted_image_resize(sf_dir: str):
    t = _mixed_truth(sf_dir, "features")
    t = t[t["ph_check"]]  # same lossless/absorb coverage as the phash truth
    exp = t[["media_ref", "media_type", "rz_w_in", "rz_h_in",
             "rz_digest", "ph_decoded"]].copy()
    exp = exp.rename(columns={"rz_w_in": "w_in", "rz_h_in": "h_in",
                              "rz_digest": "pixel_digest",
                              "ph_decoded": "decoded"})
    return exp, ["media_ref"]


def planted_video_frames(sf_dir: str):
    exp = _mixed_truth(sf_dir, "frames")
    return exp, ["media_ref", "frame_index"]


def planted_pdf_images(sf_dir: str):
    exp = _mixed_truth(sf_dir, "pdf_images")
    return exp, ["media_ref", "name"]


# ---------------------------------------------------------------------------
# Corpus (oracle_docs) based truths
# ---------------------------------------------------------------------------

def _read_oracle(base: str) -> tuple[pd.DataFrame, dict[str, int], dict[str, str]]:
    """oracle_docs rows + media_ref → (numpages, expected_text) maps."""
    import pyarrow.dataset as pads

    docs = pads.dataset(os.path.join(base, "oracle_docs")).to_table().to_pandas()
    media = pads.dataset(os.path.join(base, "media")).to_table(
        columns=["media_ref", "numpages"]).to_pandas()
    npages = dict(zip(media["media_ref"], media["numpages"].astype(int)))
    mtext: dict[str, str] = {}
    for spans in docs["spans"]:
        for s in spans:
            if s["kind"] in ("pdf", "html"):
                mtext[s["media_ref"]] = s["text"]
    return docs, npages, mtext


def _corpus_base(sf_dir: str, html: bool = False) -> str:
    import re

    from .corpus import corpus_dir_for, html_corpus_dir_for

    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1)) if m else 0.001
    return html_corpus_dir_for(sf) if html else corpus_dir_for(sf)


def _extract_summary_expected(base: str) -> pd.DataFrame:
    docs, npages, _ = _read_oracle(base)
    rows = []
    for doc_id, spans in zip(docs["doc_id"], docs["spans"]):
        spans = sorted(spans, key=lambda s: s["offset"])
        joined = "\x00".join(
            f"{s['kind']}|{s['media_ref']}|{s['text']}" for s in spans)
        rows.append({
            "doc_id": doc_id,
            "n_spans": len(spans),
            # numpages counts only pdf pages — html is a single logical
            # page outside the reference's numpages semantics
            # (pipelines/extraction.py:134)
            "numpages": sum(npages[s["media_ref"]] for s in spans
                            if s["kind"] == "pdf"),
            "n_errors": 0,
            "content_md5": hashlib.md5(joined.encode("utf-8")).hexdigest(),
        })
    return pd.DataFrame(sorted(rows, key=lambda r: r["doc_id"]))


def planted_extract_corpus(sf_dir: str):
    return _extract_summary_expected(_corpus_base(sf_dir)), ["doc_id"]


def planted_extract_html_mixed(sf_dir: str):
    return _extract_summary_expected(_corpus_base(sf_dir, html=True)), ["doc_id"]


def planted_extract_media(sf_dir: str):
    _, npages, mtext = _read_oracle(_corpus_base(sf_dir))
    rows = [{
        "media_ref": ref,
        "numpages": npages[ref],
        "text_len": len(text),
        "text_md5": hashlib.md5(text.encode("utf-8")).hexdigest(),
    } for ref, text in mtext.items()]
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"])), ["media_ref"]


def planted_extract_maxpages(sf_dir: str):
    """max_pages=2 truth: generated page texts never contain blank lines,
    so the per-media oracle text splits back into pages on the '\\n\\n'
    separators and the clamped fold is the first two rejoined."""
    _, npages, mtext = _read_oracle(_corpus_base(sf_dir))
    rows = []
    for ref, text in mtext.items():
        pages = text.split("\n\n")[1:]  # leading separator → drop head
        clamped = "".join("\n\n" + p for p in pages[:2])
        rows.append({
            "media_ref": ref,
            "numpages": npages[ref],
            "text_md5": hashlib.md5(clamped.encode("utf-8")).hexdigest(),
        })
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"])), ["media_ref"]


def planted_extract_titles_render(sf_dir: str):
    """titles_only_render truth: every generated line is font size 12
    (not > 12), so each page folds to '' and the doc text is the page
    separator run alone."""
    _, npages, mtext = _read_oracle(_corpus_base(sf_dir))
    rows = [{
        "media_ref": ref,
        "numpages": npages[ref],
        "text_md5": hashlib.md5(("\n\n" * npages[ref]).encode()).hexdigest(),
    } for ref in mtext]
    return pd.DataFrame(sorted(rows, key=lambda r: r["media_ref"])), ["media_ref"]


def planted_extract_then_dedup(sf_dir: str):
    docs, _, _ = _read_oracle(_corpus_base(sf_dir))
    fps = {}
    for doc_id, spans in zip(docs["doc_id"], docs["spans"]):
        spans = sorted(spans, key=lambda s: s["offset"])
        fp = hashlib.md5(
            "\x00".join(s["text"] for s in spans).encode("utf-8")).hexdigest()
        keep, size = fps.get(fp, (doc_id, 0))
        fps[fp] = (min(keep, doc_id), size + 1)
    rows = [{"fingerprint": fp, "keep_doc_id": keep, "group_size": size}
            for fp, (keep, size) in fps.items()]
    return (pd.DataFrame(sorted(rows, key=lambda r: r["fingerprint"])),
            ["fingerprint"])


def planted_media_features_corpus(sf_dir: str):
    """Corpus media table is all PDF: numpages parity through the real
    kernel parse, dims/duration at their non-image/non-audio defaults."""
    import pyarrow.dataset as pads

    base = _corpus_base(sf_dir)
    media = pads.dataset(os.path.join(base, "media")).to_table(
        columns=["media_ref", "numpages"]).to_pandas()
    exp = pd.DataFrame({
        "media_ref": media["media_ref"],
        "media_type": "pdf",
        "numpages": media["numpages"].astype("int32"),
        "width": np.int32(-1),
        "height": np.int32(-1),
        "duration_s": -1.0,
        "decoded": True,
    })
    return exp.sort_values("media_ref").reset_index(drop=True), ["media_ref"]


def planted_extract_metadata(sf_dir: str):
    """documentInfo truth from the GENERATOR's seeding contract: corpus
    media PDFs are built by make_seeded_pdf(seed*1_000_003 + media_seq)
    with Title=f"doc-{pdf_seed}" / Producer="pdfgen/0.1" (pdfgen.py:421),
    media_ref = f"pdf-{media_seq-1:06d}" (corpus.py), a constant %PDF-1.4
    header, and no Author/Creator/dates/linearization.  The ~8% encrypted
    slice stores Title/Producer RC4/AES-encrypted, so title equality here
    also value-checks transparent Info-string decryption."""
    import pyarrow.dataset as pads

    from .corpus import CORPUS_SEED as seed

    base = _corpus_base(sf_dir)
    media = pads.dataset(os.path.join(base, "media")).to_table(
        columns=["media_ref", "numpages"]).to_pandas()
    # the title seeding below holds for PDF media only (html-* refs carry
    # their own generator's titles)
    if not media["media_ref"].str.startswith("pdf-").all():
        raise ValueError("planted_extract_metadata needs a pdf-only corpus")
    exp = pd.DataFrame({
        "media_ref": media["media_ref"],
        "numpages": media["numpages"].astype("int64"),
        "pdf_version": "1.4",
        "title": [f"doc-{seed * 1_000_003 + int(r[4:]) + 1}"
                  for r in media["media_ref"]],
        "author": None,
        "producer": "pdfgen/0.1",
        "creator": None,
        "creation_date": None,
        "mod_date": None,
        "is_linearized": False,
        "error": None,
    })
    return exp.sort_values("media_ref").reset_index(drop=True), ["media_ref"]


def planted_curation_funnel(sf_dir: str):
    """Funnel-count truth re-derived from oracle_docs span text: the same
    word/distinct-ratio gates, md5 fingerprint dedup and hash%2 subsample
    arithmetic applied once, scalar-side, to the generator's known
    extraction output (never the engine's)."""
    import re

    import numpy as np

    docs, _, _ = _read_oracle(_corpus_base(sf_dir))
    word = re.compile(r"[A-Za-z0-9]+")
    n_docs = len(docs)
    n_pass = 0
    pass_fps = set()
    for spans in docs["spans"]:
        spans = sorted(spans, key=lambda s: s["offset"])
        text = "\x00".join(s["text"] or "" for s in spans)
        plain = text.replace("\x00", " ")
        words = word.findall(plain)
        nw = len(words)
        ok = (nw >= 30 and (len(set(words)) / nw if nw else 0.0) >= 0.05
              and "{" not in plain)
        if ok:
            n_pass += 1
            pass_fps.add(hashlib.md5(text.encode("utf-8")).hexdigest())
    fps = np.array(sorted(pass_fps), dtype=object)
    sampled = int((pd.util.hash_array(fps, categorize=False)
                   % np.uint64(2) == 0).sum()) if len(fps) else 0
    exp = pd.DataFrame({
        "stage": ["extracted", "quality_pass", "after_dedup", "sampled"],
        "n_docs": [n_docs, n_pass, len(pass_fps), sampled],
    })
    return exp, ["stage"]


def planted() -> dict:
    """Query name → expected-values builder (the planted-truth registry
    consumed by tools/check_queries.run_checks and __ray_entry__)."""
    return {
        "m_media_features": planted_media_features_corpus,
        "m_media_features_mixed": planted_media_features_mixed,
        "m_audio_features": planted_audio_features,
        "m_image_phash": planted_image_phash,
        "m_image_resize": planted_image_resize,
        "m_video_frame_sample": planted_video_frames,
        "m_pdf_images": planted_pdf_images,
        "x_extract_corpus": planted_extract_corpus,
        "x_extract_html_mixed": planted_extract_html_mixed,
        "x_extract_media": planted_extract_media,
        "x_extract_maxpages": planted_extract_maxpages,
        "x_extract_titles_render": planted_extract_titles_render,
        "x_extract_then_dedup": planted_extract_then_dedup,
        "x_extract_metadata": planted_extract_metadata,
        "x_curation_funnel": planted_curation_funnel,
    }
