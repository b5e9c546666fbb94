"""Stage-level conformance: metadata extraction, multimodal features,
custom render hooks through the distributed path, planner-lite config."""

import pyarrow.parquet as pq
import pytest


def test_metadata_stage(ray_session, small_corpus):
    import ray.data as rd

    from pdf_parse_new_ray.stages.extractor import MetadataExtractor

    rows = rd.read_parquet(f"{small_corpus}/media").map_batches(
        MetadataExtractor(), batch_format="pyarrow",
    ).take_all()
    media = pq.read_table(f"{small_corpus}/media")
    assert len(rows) == media.num_rows
    by_ref = {r["media_ref"]: r for r in rows}
    for ref, npages in zip(media.column("media_ref").to_pylist(),
                           media.column("numpages").to_pylist()):
        r = by_ref[ref]
        assert r["error"] is None
        assert r["numpages"] == npages
        assert r["producer"] == "pdfgen/0.1"
        assert r["pdf_version"] is not None
        assert '"Title"' in r["info_json"]


def test_metadata_stage_absorbs_garbage(ray_session):
    import ray.data as rd

    from pdf_parse_new_ray.stages.extractor import MetadataExtractor

    ds = rd.from_items([
        {"media_ref": "bad-1", "bytes": b"not a pdf"},
        {"media_ref": "bad-2", "bytes": b""},
    ]).map_batches(MetadataExtractor(), batch_format="pyarrow")
    rows = ds.take_all()
    assert len(rows) == 2
    assert all(r["error"] is not None for r in rows)
    assert all(r["numpages"] == 0 for r in rows)


def test_multimodal_features(ray_session, small_corpus):
    import ray.data as rd

    from pdf_parse_new_ray.stages.multimodal import MediaFeatureExtractor

    rows = rd.read_parquet(f"{small_corpus}/media").map_batches(
        MediaFeatureExtractor, concurrency=(1, 2), batch_size=16,
        batch_format="pyarrow",
    ).take_all()
    media = pq.read_table(f"{small_corpus}/media")
    assert len(rows) == media.num_rows
    npages = dict(zip(media.column("media_ref").to_pylist(),
                      media.column("numpages").to_pylist()))
    for r in rows:
        assert r["media_type"] == "pdf"
        assert r["decoded"] is True  # PDF decode is real
        assert r["numpages"] == npages[r["media_ref"]]
        assert r["n_bytes"] > 0 and len(r["sha256"]) == 64
        assert 0.0 < r["entropy"] <= 8.0


def test_multimodal_stub_modalities(ray_session):
    import ray.data as rd

    from pdf_parse_new_ray.stages.multimodal import MediaFeatureExtractor, sniff_media_type

    png = b"\x89PNG\r\n\x1a\n" + b"\x00" * 64
    wav = b"RIFF" + b"\x24\x00\x00\x00" + b"WAVE" + b"\x00" * 32
    assert sniff_media_type(png) == "png"
    assert sniff_media_type(wav) == "wav"
    rows = rd.from_items([
        {"media_ref": "img-1", "bytes": png},
        {"media_ref": "aud-1", "bytes": wav},
        {"media_ref": "junk", "bytes": b"\x00\x01\x02"},
    ]).map_batches(MediaFeatureExtractor, concurrency=1, batch_size=8,
                   batch_format="pyarrow").take_all()
    by = {r["media_ref"]: r for r in rows}
    # stub path: schema intact, decoded=False, deterministic placeholders
    assert by["img-1"]["media_type"] == "png" and by["img-1"]["decoded"] is False
    assert by["img-1"]["width"] == -1 and by["img-1"]["height"] == -1
    assert by["aud-1"]["media_type"] == "wav" and by["aud-1"]["duration_s"] == -1.0
    assert by["junk"]["media_type"] == "unknown"


def test_render_hook_module_path_distributed(ray_session, small_corpus):
    import ray.data as rd

    from pdf_parse_new_ray.pipelines.extraction import extract_media_text
    from pdf_parse_new_ray.pdfkernel import parse_pdf

    media = pq.read_table(f"{small_corpus}/media")
    got = {r["media_ref"]: r["text"] for r in extract_media_text(
        rd.read_parquet(f"{small_corpus}/media"),
        page_render="pdf_parse_new_ray.stages.render_hooks:upper_marker_render",
    ).take_all()}
    # spot-check three docs against the local kernel with the same hook
    from pdf_parse_new_ray.stages.render_hooks import upper_marker_render

    for ref, blob in list(zip(media.column("media_ref").to_pylist(),
                              media.column("bytes").to_pylist()))[:3]:
        expected = parse_pdf(blob, page_render=upper_marker_render)["text"]
        assert got[ref] == expected
        assert "--- PAGE ---" in got[ref]


def _tiles(units):
    """Each media_ref's page ranges tile [0, numpages) exactly."""
    by_ref = {}
    for ref, s, e, n in zip(units.column("media_ref").to_pylist(),
                            units.column("page_start").to_pylist(),
                            units.column("page_end").to_pylist(),
                            units.column("n_chunks").to_pylist()):
        by_ref.setdefault(ref, []).append((s, e, n))
    pages = {}
    for ref, spans in by_ref.items():
        spans.sort()
        assert len(spans) == spans[0][2], ref
        assert spans[0][0] == 0, ref
        for (s0, e0, _), (s1, _, _) in zip(spans, spans[1:]):
            assert e0 == s1, ref
        pages[ref] = spans[-1][1]
    return pages


def test_split_unit_cap(ray_session, small_corpus):
    # a split doc's units name its bytes by dictionary index: the bytes
    # are stored once, however many units the doc is cut into
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.stages.split import OPEN_END, make_split_units

    media = pq.read_table(f"{small_corpus}/media")
    big_idx = max(range(media.num_rows),
                  key=lambda i: media.column("numpages")[i].as_py())
    one = media.slice(big_idx, 1).select(["media_ref", "bytes"])
    units = make_split_units(0, 2, 1)(one)  # page_chunk=1: one unit a page
    npages = media.column("numpages")[big_idx].as_py()
    assert 2 <= units.num_rows == npages
    # ranges tile [0, npages); the last one is open-ended (the extractor
    # clamps it to the verified page count)
    spans = sorted(zip(units.column("page_start").to_pylist(),
                       units.column("page_end").to_pylist()))
    assert spans[0][0] == 0 and spans[-1] == (npages - 1, OPEN_END)
    for (s0, e0), (s1, _) in zip(spans, spans[1:]):
        assert e0 == s1
    blob = one.column("bytes")[0].as_py()
    col = units.column("bytes").combine_chunks()
    assert col.dictionary.to_pylist() == [blob]
    assert col.indices.to_pylist() == [0] * npages
    # unit costs are page shares of the doc's bytes
    assert sum(units.column("cost").to_pylist()) <= len(blob)
    assert min(units.column("cost").to_pylist()) >= len(blob) // npages - 1


def test_split_probe_walks_no_page_tree(monkeypatch):
    """The split cuts a 600-page doc by its declared page count: the probe
    never descends the page tree (``_page_dict_at``) or flattens it
    (``pages``), which the verified ``num_pages`` does."""
    import collections

    import pyarrow as pa

    from pdf_parse_new_ray.fixtures import pdfgen
    from pdf_parse_new_ray.pdfkernel import PDFDocument
    from pdf_parse_new_ray.stages.split import make_split_units

    big, _ = pdfgen.make_text_pdf([[f"page {i}"] for i in range(600)])
    calls = collections.Counter()
    for name in ("_page_dict_at", "pages"):
        def counting(self, *a, _orig=getattr(PDFDocument, name), _name=name):
            calls[_name] += 1
            return _orig(self, *a)

        monkeypatch.setattr(PDFDocument, name, counting)
    units = make_split_units(0, 200, 100)(pa.table({
        "media_ref": ["big"], "bytes": pa.array([big], pa.binary())}))
    assert units.num_rows == 6 and not calls
    assert PDFDocument(big).num_pages == 600  # the counters see a walk
    assert calls["_page_dict_at"] == 1


def _count_pdf(n_pages: int, count: int, broken_kid=None) -> bytes:
    """A flat page tree of ``n_pages`` one-line pages whose /Pages /Count
    says ``count``; ``broken_kid`` inserts a reference to a missing
    object at that kid index."""
    from pdf_parse_new_ray.fixtures.pdfgen import PDFBuilder

    b = PDFBuilder()
    font = b.add(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
                 b"/Encoding /WinAnsiEncoding >>")
    contents = [b.add_stream(b"", f"BT /F1 12 Tf 1 0 0 1 72 700 Tm "
                             f"(page {i}) Tj ET".encode(), "flate")
                for i in range(n_pages)]
    pages_num = len(b.objects) + n_pages + 1
    kids = [b.add((f"<< /Type /Page /Parent {pages_num} 0 R "
                   f"/MediaBox [0 0 612 792] /Resources << /Font "
                   f"<< /F1 {font} 0 R >> >> /Contents {c} 0 R >>").encode())
            for c in contents]
    if broken_kid is not None:
        kids.insert(broken_kid, 900)  # an object the file never defines
    refs = " ".join(f"{k} 0 R" for k in kids)
    assert b.add(f"<< /Type /Pages /Kids [{refs}] /Count {count} >>"
                 .encode()) == pages_num
    return b.build(b.add(f"<< /Type /Catalog /Pages {pages_num} 0 R >>"
                         .encode()))


@pytest.mark.parametrize("case", [
    "over-count-broken-last", "under-count", "under-count-broken-kid",
    "linearized", "count-above-objects"])
def test_split_by_declared_count_matches_parse_pdf(case):
    """Docs whose declared page count is wrong still extract exactly when
    split by it: the split text and page count equal ``parse_pdf``'s."""
    import pyarrow as pa

    from pdf_parse_new_ray.fixtures.pdfgen import make_linearized_pdf
    from pdf_parse_new_ray.pdfkernel import parse_pdf
    from pdf_parse_new_ray.pipelines.extraction import assemble_media_chunk_table
    from pdf_parse_new_ray.stages.extractor import PdfExtractor
    from pdf_parse_new_ray.stages.split import make_split_units

    blob, n_units = {
        # /Count 9 over 7 pages and a missing 8th kid: num_pages heals to 7
        "over-count-broken-last": (_count_pdf(7, 9, broken_kid=7), 5),
        # /Count 4 over 7 pages is kept: 4 pages extract
        "under-count": (_count_pdf(7, 4), 2),
        # /Count 4 with a missing 4th kid: the flattened tree (7 pages)
        # keeps the count at 4 in every unit, whichever a worker opens first
        "under-count-broken-kid": (_count_pdf(7, 4, broken_kid=3), 2),
        # /N 2 over a 1-page tree (/Count 1): the probe reads /N
        "linearized": (make_linearized_pdf("n-overcount"), 2),
        # /Count above the object count: the probe verifies, 7 pages
        "count-above-objects": (_count_pdf(7, 10 ** 6), 4),
    }[case]
    chunk = 1 if case == "linearized" else 2
    units = make_split_units(0, 1, chunk)(pa.table({
        "media_ref": ["m"], "bytes": pa.array([blob], pa.binary())}))
    assert units.num_rows == n_units
    got = assemble_media_chunk_table(PdfExtractor()(units)).to_pylist()
    want = parse_pdf(blob)
    assert [(r["text"], r["numpages"], r["error"]) for r in got] == [
        (want["text"], want["numpages"], None)]


def test_pack_bins_covers_tiles_and_bounds(small_corpus):
    """The packer: every unit lands in exactly one bin, each split doc's
    page ranges still tile [0, numpages) over the bins, the largest bin
    costs at most the target plus the largest unit, bins are contiguous,
    and the same input gives the same bins."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.stages.split import (assemble_bin,
                                                make_split_units, pack_bins)

    media = pq.read_table(f"{small_corpus}/media").select(["media_ref", "bytes"])
    units = make_split_units(0, 4, 3)(media)
    pages = _tiles(units)
    assert any(n > 1 for n in units.column("n_chunks").to_pylist())
    costs = np.array(units.column("cost").to_pylist())
    for n_bins in (1, 3, 4, 7, 64):
        bin_of = pack_bins(costs, n_bins)
        assert len(bin_of) == units.num_rows
        assert np.array_equal(bin_of, pack_bins(costs, n_bins))
        assert (np.diff(bin_of) >= 0).all() and 0 <= bin_of.min() <= bin_of.max() < n_bins
        per_bin = np.bincount(bin_of, weights=costs, minlength=n_bins)
        assert per_bin.max() <= costs.sum() / n_bins + costs.max()
        bins = [assemble_bin([units.filter(pa.array(bin_of == b))])
                for b in range(n_bins) if (bin_of == b).any()]
        rows = pa.concat_tables([b.drop(["bytes"]) for b in bins])
        key = ["media_ref", "page_start"]
        assert sorted(zip(*(rows.column(k).to_pylist() for k in key))) == \
            sorted(zip(*(units.column(k).to_pylist() for k in key)))
        assert _tiles(rows) == pages
    # random costs: the same bound, and zero costs fill by count
    rng = np.random.default_rng(5)
    for n in (1, 2, 50, 500):
        c = rng.integers(0, 10_000, n)
        b = pack_bins(c, 8)
        assert np.bincount(b, weights=c).max() <= c.sum() / 8 + c.max()
    assert set(pack_bins(np.zeros(16), 4)) == {0, 1, 2, 3}
    assert len(pack_bins(np.zeros(0), 4)) == 0


def test_progress_actor_reports_inflight(ray_session, small_corpus, tmp_path):
    """The distributed onProgress surface: a named zero-CPU actor
    accumulates per-batch increments from extract workers; the driver
    polls snapshot() (reference onProgress/onChunkComplete analogue,
    lib/pdf-parse-stream.js:110-118)."""
    import ray.data as rd

    from pdf_parse_new_ray.pipelines.extraction import extract_media_text
    from pdf_parse_new_ray.state.progress import start_progress

    media = rd.read_parquet(f"{small_corpus}/media")
    n_media = media.count()
    prog = start_progress("t_progress", total_units_hint=n_media)
    res = extract_media_text(media, progress="t_progress").take_all()
    import time

    deadline = time.time() + 10  # fire-and-forget reports drain async
    while time.time() < deadline:
        snap = prog.snapshot()
        if snap["units"] >= n_media:
            break
        time.sleep(0.2)
    assert snap["units"] == n_media
    assert snap["pages"] == sum(r["numpages"] for r in res)
    assert snap["errors"] == sum(1 for r in res if r["error"])
    assert snap["total_units_hint"] == n_media
    assert snap["units_per_s"] > 0
    prog.close()

    # progress moves within an extract bin: one 10,000-page PDF among
    # small docs, polled while extract_documents runs, shows more distinct
    # nonzero unit counts than there are bins (one per CPU), which is all
    # a post per batch could show
    import threading

    import ray

    from pdf_parse_new_ray.fixtures.corpus import generate_corpus
    from pdf_parse_new_ray.pipelines.extraction import extract_documents

    base = str(tmp_path / "skew10k")
    generate_corpus(base, n_docs=150, seed=11, skew_doc_every=100,
                    skew_pages=10_000)
    prog = start_progress("t_progress_bins")
    done = []
    job = threading.Thread(target=lambda: done.append(extract_documents(
        f"{base}/documents_interleaved", f"{base}/media",
        progress="t_progress_bins").count()))
    job.start()
    seen = set()
    deadline = time.time() + 300
    while job.is_alive() and time.time() < deadline:
        seen.add(prog.snapshot()["units"])
        time.sleep(0.05)
    job.join(timeout=10)
    prog.close()
    assert not job.is_alive() and done == [150]
    assert len(seen - {0}) > int(ray.cluster_resources()["CPU"]), sorted(seen)


def test_ahash_properties():
    """aHash invariants: deterministic, re-encode-stable (same pixels →
    same 64-bit hash), small perturbation → small hamming distance,
    different image → large distance."""
    import numpy as np

    from pdf_parse_new_ray.stages.multimodal import ahash64

    rng = np.random.default_rng(11)
    img = rng.integers(0, 256, (64, 48, 3)).astype(np.uint8)
    h1 = ahash64(img)
    assert h1 == ahash64(img.copy())
    # mild noise: most grid-cell means unchanged
    noisy = np.clip(img.astype(np.int16)
                    + rng.integers(-4, 5, img.shape), 0, 255).astype(np.uint8)
    d_noise = bin(h1 ^ ahash64(noisy)).count("1")
    other = rng.integers(0, 256, (64, 48, 3)).astype(np.uint8)
    d_other = bin(h1 ^ ahash64(other)).count("1")
    assert d_noise <= 8 < d_other
    # grayscale 2-D input accepted
    assert isinstance(ahash64(img[..., 0]), int)


def test_phash_catches_reencodes(ray_session, tmp_path):
    """The near-dup contract: the SAME pixel content encoded as PNG and
    as GIF must produce IDENTICAL perceptual hashes (a byte-level sha256
    dedup can never catch this), and m_phash_dup_groups must group them."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.fixtures.media_mixed import _make_gif, _make_png
    from pdf_parse_new_ray.stages.multimodal import ImagePHasher

    rng = np.random.default_rng(5)
    pal = rng.integers(0, 256, (256, 3)).astype(np.uint8)
    idx = rng.integers(0, 256, (32, 40)).astype(np.uint8)
    rgb = pal[idx]  # identical pixels, two containers
    png = _make_png(rgb)
    gif = _make_gif(idx, pal)
    pq.write_table(pa.table({
        "media_ref": ["a-png", "b-gif", "c-other"],
        "bytes": [png, gif, _make_png(rng.integers(0, 256, (32, 40, 3))
                                      .astype(np.uint8))],
    }), str(tmp_path / "media.parquet"))
    out = rd.read_parquet(str(tmp_path)).map_batches(
        ImagePHasher, concurrency=(1, 2), batch_format="pyarrow") \
        .to_pandas().set_index("media_ref")
    assert out.loc["a-png", "decoded"] and out.loc["b-gif", "decoded"]
    assert out.loc["a-png", "phash"] == out.loc["b-gif", "phash"]
    assert out.loc["c-other", "phash"] != out.loc["a-png", "phash"]


def test_phash_neardup_banding_guarantee(ray_session, tmp_path, monkeypatch):
    """Pigeonhole guarantee: a re-encode whose fingerprint differs in
    <= 3 bits ALWAYS shares one of the 4 16-bit bands, so the banded
    near-dup pass must surface the pair with its exact hamming
    distance."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from pdf_parse_new_ray.fixtures.media_mixed import _make_png
    from pdf_parse_new_ray.stages.multimodal import ahash64

    rng = np.random.default_rng(23)
    img = rng.integers(0, 256, (64, 64, 3)).astype(np.uint8)
    base_hash = ahash64(img)
    # perturb ONE 8x8 grid cell hard enough to flip its bit
    noisy = img.copy()
    noisy[0:8, 0:8] = 255 - noisy[0:8, 0:8]
    d = bin(base_hash ^ ahash64(noisy)).count("1")
    assert 1 <= d <= 3  # the pigeonhole premise
    media_dir = tmp_path / "media"
    media_dir.mkdir()
    pq.write_table(pa.table({
        "media_ref": ["orig", "reenc", "other"],
        "bytes": [_make_png(img), _make_png(noisy),
                  _make_png(rng.integers(0, 256, (64, 64, 3))
                            .astype(np.uint8))],
    }), str(media_dir / "part.parquet"))
    monkeypatch.setattr(
        "pdf_parse_new_ray.fixtures.media_mixed.mixed_media_dir_for",
        lambda sf: str(media_dir))
    out = entry._phash_neardup_pairs("/root/testdata/sf0.001")
    pairs = set(zip(out["ref_a"], out["ref_b"]))
    assert ("orig", "reenc") in pairs
    row = out[(out["ref_a"] == "orig") & (out["ref_b"] == "reenc")]
    assert int(row.iloc[0]["hamming"]) == d
    # forcing the distributed banding/pair exchanges (local-fold bound
    # at 0) must reproduce the in-process fold exactly
    import pandas as pd

    from pdf_parse_new_ray.functions import joins

    local_rows = joins.LOCAL_FOLD_ROWS
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    dist = entry._phash_neardup_pairs("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(out, dist)
    grp = entry._phash_dup_groups("/root/testdata/sf0.001")
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", local_rows)
    pd.testing.assert_frame_equal(entry._phash_dup_groups(
        "/root/testdata/sf0.001"), grp)


def _wav16(samples, rate=8000, nch=1):
    """Minimal 16-bit PCM WAV encoder for test fixtures."""
    import struct

    import numpy as np

    pcm = np.asarray(samples, np.int16).tobytes()
    fmt = struct.pack("<HHIIHH", 1, nch, rate, rate * 2 * nch, 2 * nch, 16)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(pcm)) + pcm)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_decode_wav_pcm_formats():
    """Real PCM payload decode: 16-bit values normalize exactly, 8-bit
    is offset-binary, 24-bit keeps sign, float32 passes through, stereo
    shapes (n, 2), and compressed tags / truncation raise CodecError."""
    import struct

    import numpy as np

    from pdf_parse_new_ray.stages.codecs import CodecError, decode_wav_pcm

    rate, nch, bits, x = decode_wav_pcm(_wav16([0, 16384, -32768, 32767]))
    assert (rate, nch, bits) == (8000, 1, 16)
    assert np.allclose(x.ravel(), [0.0, 0.5, -1.0, 32767 / 32768])

    # 8-bit unsigned: 0x80 is zero, 0x00 is -1.0
    fmt = struct.pack("<HHIIHH", 1, 1, 1000, 1000, 1, 8)
    body = (b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", 3) + bytes([0x80, 0x00, 0xFF]))
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    _, _, b8, x8 = decode_wav_pcm(blob)
    assert b8 == 8 and np.allclose(x8.ravel(), [0.0, -1.0, 127 / 128])

    # 24-bit signed: 0x800000 (LE 00 00 80) is -1.0
    fmt = struct.pack("<HHIIHH", 1, 1, 1000, 3000, 3, 24)
    pcm = bytes([0, 0, 0x80, 0xFF, 0xFF, 0x7F])
    body = (b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(pcm)) + pcm)
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    _, _, b24, x24 = decode_wav_pcm(blob)
    assert b24 == 24
    assert np.allclose(x24.ravel(), [-1.0, (2**23 - 1) / 2**23])

    # float32 (format tag 3), stereo
    f = np.array([0.25, -0.5, 1.0, 0.0], "<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, 1000, 8000, 8, 32)
    body = (b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(f)) + f)
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    _, ch, _, xf = decode_wav_pcm(blob)
    assert ch == 2 and xf.shape == (2, 2)
    assert np.allclose(xf, [[0.25, -0.5], [1.0, 0.0]])

    import pytest as _pytest

    with _pytest.raises(CodecError):  # compressed tag stays honest
        fmt = struct.pack("<HHIIHH", 85, 1, 1000, 1000, 1, 0)  # MP3-in-WAV
        body = (b"fmt " + struct.pack("<I", 16) + fmt
                + b"data" + struct.pack("<I", 0) + b"")
        decode_wav_pcm(b"RIFF" + struct.pack("<I", 4 + len(body))
                       + b"WAVE" + body)
    with _pytest.raises(CodecError):
        decode_wav_pcm(_wav16([1, 2, 3])[:30])  # truncated data chunk


def test_audio_feature_stage_known_signals(ray_session):
    """AudioFeatureExtractor over planted signals: a full-scale
    alternating square (zc rate 1, half its samples at -1.0 so
    clipped_frac 0.5), digital silence (rms/zc 0), and a 0.5-amplitude
    sine (rms ~0.3536); non-WAV and corrupt-WAV rows absorb to
    decoded=False without failing the task."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.stages.multimodal import AudioFeatureExtractor

    square = _wav16([32767, -32768] * 500)
    silence = _wav16([0] * 1000)
    t = np.arange(4000)
    sine = _wav16(np.round(16384 * np.sin(2 * np.pi * 440 * t / 8000)))
    rows = pa.table({
        "media_ref": ["sq", "si", "sn", "txt", "bad"],
        "bytes": [square, silence, sine, b"not audio",
                  _wav16([1, 2, 3])[:30]],
    })
    out = rd.from_arrow(rows).map_batches(
        AudioFeatureExtractor, concurrency=1, batch_size=8,
        batch_format="pyarrow").to_pandas().set_index("media_ref")
    sq = out.loc["sq"]
    assert sq["decoded"] and sq["sample_rate"] == 8000
    assert sq["n_frames"] == 1000 and abs(sq["duration_s"] - 0.125) < 1e-9
    assert abs(sq["zero_cross_rate"] - 1.0) < 1e-9
    assert abs(sq["clipped_frac"] - 0.5) < 1e-9
    assert abs(sq["peak"] - 1.0) < 1e-9
    si = out.loc["si"]
    assert si["decoded"] and si["rms"] == 0.0 and si["zero_cross_rate"] == 0.0
    sn = out.loc["sn"]
    assert sn["decoded"] and abs(sn["rms"] - 0.5 / np.sqrt(2)) < 1e-3
    assert abs(sn["peak"] - 0.5) < 1e-3
    assert not out.loc["txt"]["decoded"] and out.loc["txt"]["error"] is None
    bad = out.loc["bad"]
    assert not bad["decoded"] and "CodecError" in bad["error"]


def test_audio_features_query_runs(ray_session):
    """m_audio_features over the mixed media table: every WAV row
    decodes with duration matching the header-arithmetic decoder; all
    non-WAV rows absorb."""
    import __ray_entry__ as entry

    out = entry.queries()["m_audio_features"]("/root/testdata/sf0.001")
    wav = out[out["media_type"] == "wav"]
    assert len(wav) > 0 and wav["decoded"].all()
    assert (wav["rms"] >= 0).all() and (wav["peak"] <= 1.0).all()
    assert not out[out["media_type"] != "wav"]["decoded"].any()


def test_lance_layout_detection_and_fallback(tmp_path):
    """A Lance-format dataset directory routes to read_lance, which in
    this container (no `lance` package) raises the documented ImportError
    rather than silently misreading it as parquet; plain directories fall
    through to the parquet reader."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest as _pytest

    from pdf_parse_new_ray.sources.interleaved import _is_lance, read_table

    lance_dir = tmp_path / "docs.lance-style"
    (lance_dir / "_versions").mkdir(parents=True)
    assert _is_lance(str(lance_dir)) and _is_lance("/data/t.lance")
    with _pytest.raises(ImportError, match="lance"):
        read_table(str(lance_dir))

    pq_dir = tmp_path / "plain"
    pq_dir.mkdir()
    pq.write_table(pa.table({"doc_id": ["a"], "n": [1]}),
                   str(pq_dir / "part-0.parquet"))
    assert not _is_lance(str(pq_dir))
    out = read_table(str(pq_dir), columns=["doc_id"])
    assert out.take_all() == [{"doc_id": "a"}]


def test_phash_hot_band_star_cap(ray_session, tmp_path, monkeypatch):
    """A degenerate corpus slice where 260+ images share THREE of the four
    16-bit bands (flips confined to one band) must NOT emit O(n²) pairs:
    the hot band buckets star-cap against the min ref (VERDICT r3 'done'
    criterion for m_phash_neardup_pairs), while hamming stays exact."""
    from itertools import combinations

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from pdf_parse_new_ray.fixtures.media_mixed import _make_png
    from pdf_parse_new_ray.functions.dedup import BUCKET_PAIR_CAP
    from pdf_parse_new_ray.stages.multimodal import ahash64

    rng = np.random.default_rng(9)
    grid = (rng.integers(0, 2, (8, 8)) * 255).astype(np.uint8)

    def render(g):
        px = np.repeat(np.repeat(g, 8, 0), 8, 1)
        return np.stack([px] * 3, -1)

    n_var = BUCKET_PAIR_CAP + 4
    tris = list(combinations(range(16), 3))[:n_var]
    refs, blobs = ["img000"], [_make_png(render(grid))]
    h0 = ahash64(render(grid))
    for j, tri in enumerate(tris, start=1):
        g = grid.copy()
        for c in tri:            # cells 0..15 = grid rows 0-1 = ONE band
            r, col = divmod(c, 8)
            g[r, col] = 255 - g[r, col]
        if j == 1:               # premise: exactly 3 bits, all in one band
            hx = ahash64(render(g)) ^ h0
            assert bin(hx).count("1") == 3
            assert hx >> 48 != 0 and hx & ((1 << 48) - 1) == 0
        refs.append(f"img{j:03d}")
        blobs.append(_make_png(render(g)))
    media_dir = tmp_path / "media"
    media_dir.mkdir()
    pq.write_table(pa.table({"media_ref": refs, "bytes": blobs}),
                   str(media_dir / "part.parquet"))
    monkeypatch.setattr(
        "pdf_parse_new_ray.fixtures.media_mixed.mixed_media_dir_for",
        lambda sf: str(media_dir))
    out = entry._phash_neardup_pairs("/root/testdata/sf0.001")
    n = len(refs)
    assert n > BUCKET_PAIR_CAP
    assert len(out) == n - 1               # star pairs, not n*(n-1)/2
    assert set(out["ref_a"]) == {"img000"}
    assert (out["hamming"] == 3).all()


def test_lance_dispatch_passes_path_and_columns(tmp_path, monkeypatch):
    """Stub-module injection (VERDICT r3 item 8): a Lance-format dataset
    routes to ray.data.read_lance with the path and `columns=` reaching
    it UNCHANGED — proven without the lance package by swapping in a
    recording stub."""
    from pdf_parse_new_ray.sources import interleaved

    lance_dir = tmp_path / "docs.lance"
    (lance_dir / "_versions").mkdir(parents=True)
    calls = []
    sentinel = object()

    def fake_read_lance(path, columns=None, **kw):
        calls.append((path, columns))
        return sentinel

    monkeypatch.setattr(interleaved.rd, "read_lance", fake_read_lance)
    out = interleaved.read_table(str(lance_dir), columns=["doc_id", "spans"])
    assert out is sentinel
    assert calls == [(str(lance_dir), ["doc_id", "spans"])]


def test_lance_write_dispatch_mirrors_read(tmp_path):
    """Write-side stub injection (VERDICT r4 item 8): a ``.lance`` target
    (or explicit format='lance') routes to Dataset.write_lance with path
    and kwargs UNCHANGED; anything else routes to write_parquet — proven
    without the lance package via a recording stand-in dataset."""
    from pdf_parse_new_ray.sources import interleaved

    calls = []

    class FakeDs:
        def write_lance(self, path, **kw):
            calls.append(("lance", path, kw))
            return "L"

        def write_parquet(self, path, **kw):
            calls.append(("parquet", path, kw))
            return "P"

    ds = FakeDs()
    out = interleaved.write_table(ds, str(tmp_path / "out.lance"),
                                  mode="overwrite")
    assert out == "L"
    out = interleaved.write_table(ds, str(tmp_path / "out_dir"),
                                  format="lance")
    assert out == "L"
    out = interleaved.write_table(ds, str(tmp_path / "out_pq"))
    assert out == "P"
    assert calls == [
        ("lance", str(tmp_path / "out.lance"), {"mode": "overwrite"}),
        ("lance", str(tmp_path / "out_dir"), {}),
        ("parquet", str(tmp_path / "out_pq"), {}),
    ]

    class NoLance:
        write_lance = None

        def write_parquet(self, path, **kw):
            return "P"

    import pytest

    with pytest.raises(ImportError):
        interleaved.write_table(NoLance(), "x.lance")


def test_avi_frame_roundtrip_and_resize_exact():
    """decode_avi_frames recovers the EXACT planted RGB frames (bottom-up
    padded BGR DIB layout), stride sampling picks the right indices, a
    compressed ('00dc'/MJPG) stream raises CodecError; area_mean_resize
    equals integer block means exactly and round-trips through
    encode_png/decode_png."""
    import numpy as np
    import pytest

    from pdf_parse_new_ray.fixtures.media_mixed import _make_avi_rgb
    from pdf_parse_new_ray.stages.codecs import (CodecError, area_mean_resize,
                                                 decode_avi_frames, decode_png,
                                                 encode_png)

    rng = np.random.default_rng(7)
    frames = rng.integers(0, 256, (7, 10, 13, 3)).astype(np.uint8)  # odd w: row padding
    blob = _make_avi_rgb(frames, fps=10)
    fps, total, got = decode_avi_frames(blob, stride=3)
    assert (fps, total) == (10.0, 7)
    assert [i for i, _ in got] == [0, 3, 6]
    for i, arr in got:
        assert np.array_equal(arr, frames[i]), i
    with pytest.raises(CodecError):
        decode_avi_frames(_make_avi_rgb(frames, compressed=True))

    img = rng.integers(0, 256, (32, 48, 3)).astype(np.uint8)
    small = area_mean_resize(img, 8, 12)
    want = img.astype(np.int64).reshape(8, 4, 12, 4, 3).sum((1, 3)) // 16
    assert np.array_equal(small, want.astype(np.uint8))
    h, w, c, px = decode_png(encode_png(small))
    assert (h, w, c) == (8, 12, 3) and np.array_equal(px, small)
    gray = area_mean_resize(img[..., 0], 8, 12)
    assert np.array_equal(
        gray, (img[..., 0].astype(np.int64).reshape(8, 4, 12, 4).sum((1, 3)) // 16)
        .astype(np.uint8))


def test_video_frame_sample_and_resize_queries(ray_session):
    """m_video_frame_sample: raw-DIB AVIs fan out to per-frame rows with
    real per-frame hashes; MJPG/metadata-only AVIs and mp4 absorb to
    decoded=False.  m_image_resize: every decodable image row carries a
    digest + dims; undecodable rows absorb."""
    import __ray_entry__ as entry

    vf = entry._video_frame_sample("/root/testdata/sf0.001")
    raw = vf[vf["decoded"]]
    assert len(raw) > 0
    assert (raw.groupby("media_ref")["frame_index"].count() > 1).any()
    assert raw["phash"].str.len().eq(16).all()
    assert (raw["frame_index"] % 3 == 0).all()   # stride honored
    comp = vf[(vf["media_type"] == "avi") & (~vf["decoded"])]
    assert len(comp) > 0                          # MJPG + metadata-only AVIs
    assert (vf[vf["media_type"] == "mp4"]["decoded"] == False).all()  # noqa: E712

    rz = entry._image_resize("/root/testdata/sf0.001")
    ok = rz[rz["decoded"]]
    assert len(ok) > 0
    assert (ok["w_out"] == 16).all() and (ok["h_out"] == 16).all()
    assert ok["pixel_digest"].str.len().eq(16).all()
    assert set(ok["media_type"]) >= {"png", "jpeg", "gif"}
    assert (~rz[rz["media_type"] == "junk"]["decoded"]).all()


def test_planted_truth_registry_and_checks(ray_session):
    """Planted generator-truth value checks (VERDICT r4 item 5): the
    registry covers >=13 of the rows-only queries, the harness's
    compare_planted verifies the real stage output against the sidecar
    at sf0.001 for the media families, and a perturbed value is caught
    (the comparison is exact, not structural)."""
    import importlib.util
    import pathlib

    import __ray_entry__ as entry

    planted = entry.planted()
    oracles = set(entry.oracle_sql())
    qs = entry.queries()
    assert len(planted) >= 13
    for name in planted:
        assert name in qs and name not in oracles, name

    spec = importlib.util.spec_from_file_location(
        "check_queries",
        pathlib.Path(__file__).resolve().parent.parent / "tools" / "check_queries.py")
    cq = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cq)

    sf = "/root/testdata/sf0.001"
    for name in ("m_audio_features", "m_pdf_images", "m_image_phash",
                 "m_image_resize", "m_video_frame_sample"):
        mine = cq.to_pandas(qs[name](sf))
        exp, keys = planted[name](sf)
        verdict = cq.compare_planted(mine, exp, keys)
        assert verdict.startswith("planted-OK"), f"{name}: {verdict}"

    # negative: a single perturbed value must fail the comparison
    exp, keys = planted["m_audio_features"](sf)
    mine = cq.to_pandas(qs["m_audio_features"](sf))
    bad = mine.copy()
    bad.loc[bad["decoded"], "rms"] = 0.5
    assert cq.compare_planted(bad, exp, keys).startswith("planted-VALUES")
    # and a dropped expected row must fail the coverage gate
    assert cq.compare_planted(
        mine[mine["media_ref"] != exp["media_ref"].iloc[0]], exp, keys
    ).startswith("ROWS")
