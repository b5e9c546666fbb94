"""Multimodal binary-column stages: decode / feature-extract over opaque
``binary`` media columns with typed metadata.

Design for a 100 TB training-data pipeline: media payloads are opaque
``binary`` cells; each modality gets an actor-pool ``map_batches`` stage
(decoder state built once per actor in ``__init__``) that emits typed
feature columns.  REAL decoders (no external codec library needed):
PDF via the pdfkernel, JPEG (baseline AND progressive) via
pdfkernel/jpeg.py, PNG (zlib + numpy unfiltering), GIF (variable-width
LZW) and TIFF (uncompressed / TIFF-LZW / CCITT Group 4 via
pdfkernel/ccitt.py) via stages/codecs.py, WAV duration via RIFF header
arithmetic.  Compressed audio/video require codec libraries that are
NOT in this container, so those decoders are STUBBED behind an
import-try: when soundfile / av are absent we emit deterministic
byte-level pseudo-features with ``decoded=False`` so the Ray-side
plumbing (schema, batch size, actor signature, output layout) is real
and testable end-to-end.

Usage:
    media.map_batches(MediaFeatureExtractor, concurrency=(2, 8),
                      batch_size=16, batch_format="pyarrow")
Small batch sizes matter here: batch_size × payload bytes must fit a
worker's heap (large image/video cells).
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import pyarrow as pa


def sniff_media_type(blob: Optional[bytes]) -> str:
    """Magic-byte container sniff (no decoding)."""
    if not blob:
        return "empty"
    if blob.startswith(b"%PDF"):
        return "pdf"
    if blob.startswith(b"\x89PNG\r\n\x1a\n"):
        return "png"
    if blob.startswith(b"\xff\xd8\xff"):
        return "jpeg"
    if blob.startswith(b"GIF8"):
        return "gif"
    if blob.startswith(b"RIFF") and blob[8:12] == b"WAVE":
        return "wav"
    if blob.startswith(b"RIFF") and blob[8:12] == b"AVI ":
        return "avi"
    if blob.startswith(b"ID3") or blob.startswith(b"\xff\xfb"):
        return "mp3"
    if len(blob) > 11 and blob[4:8] == b"ftyp":
        return "mp4"
    if blob.startswith(b"OggS"):
        return "ogg"
    if blob.startswith(b"II*\x00") or blob.startswith(b"MM\x00*"):
        return "tiff"
    if blob.startswith(b"\x97JB2\r\n\x1a\n"):
        return "jbig2"
    if blob.startswith(b"\x00\x00\x00\x0cjP  \r\n\x87\n") or \
            blob.startswith(b"\xff\x4f\xff\x51"):
        return "jp2"
    return "unknown"


def _byte_entropy(blob: bytes, cap: int = 1 << 16) -> float:
    """Shannon entropy of the first ``cap`` bytes — vectorized
    (np.bincount; a Python byte loop here cost ~5 ms per 64 KB blob)."""
    sample = blob[:cap]
    if not sample:
        return 0.0
    import numpy as np

    counts = np.bincount(np.frombuffer(sample, dtype=np.uint8),
                         minlength=256)
    p = counts[counts > 0] / len(sample)
    return float(-(p * np.log2(p)).sum() + 0.0)  # +0.0 normalizes -0.0


class MediaFeatureExtractor:
    """Actor-pool stage: (media_ref, bytes) → typed per-media features.

    Columns: media_ref, media_type, n_bytes, sha256, entropy,
    numpages (PDF real), width/height (image; stub -1), duration_s (audio/
    video; stub -1.0), decoded (True only when a real decoder ran), error.
    """

    def __init__(self, entropy_cap: int = 1 << 16):
        self._entropy_cap = entropy_cap
        # real decoders, resolved once per actor; None → stub path
        try:  # pragma: no cover - PIL absent in this container
            from PIL import Image  # type: ignore

            self._pil = Image
        except ImportError:
            self._pil = None
        try:  # pragma: no cover - soundfile absent in this container
            import soundfile  # type: ignore

            self._soundfile = soundfile
        except ImportError:
            self._soundfile = None

    # -- modality decoders ------------------------------------------------
    def _decode_pdf(self, blob: bytes) -> tuple[int, bool, Optional[str]]:
        from ..pdfkernel import PDFDocument

        try:
            return PDFDocument(blob).page_count(), True, None
        except Exception as e:  # noqa: BLE001
            return 0, False, f"{type(e).__name__}: {e}"

    def _decode_image(self, blob: bytes, kind: str) -> tuple[int, int, bool, Optional[str]]:
        if kind == "jpeg":
            # REAL decode: baseline+progressive JPEG decoder in the kernel
            # (pdfkernel/jpeg.py — DCTDecode, the dominant embedded codec)
            from ..pdfkernel.jpeg import decode_jpeg

            try:
                h, w, _nc, _px = decode_jpeg(blob)
                return w, h, True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error contract:
                # malformed JPEGs can raise bare KeyError/IndexError etc.
                # from the bitstream walk; the stage must emit decoded=False
                # rather than kill the whole map_batches task (same contract
                # as _decode_pdf / the PIL path)
                return -1, -1, False, f"{type(e).__name__}: {e}"
        if kind == "png":
            # REAL decode: dependency-free PNG (zlib + numpy unfiltering,
            # stages/codecs.py); PIL takes over when available
            if self._pil is None:
                from .codecs import decode_png

                try:
                    h, w, _nc, _px = decode_png(blob)
                    return w, h, True, None
                except Exception as e:  # noqa: BLE001 — absorb-to-error
                    return -1, -1, False, f"{type(e).__name__}: {e}"
        if kind == "tiff" and self._pil is None:
            # REAL decode: baseline TIFF incl. CCITT Group 4 strips
            # (stages/codecs.py + pdfkernel/ccitt.py) and TIFF-LZW
            from .codecs import decode_tiff

            try:
                h, w, _nc, _px = decode_tiff(blob)
                return w, h, True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                return -1, -1, False, f"{type(e).__name__}: {e}"
        if kind == "jbig2":
            # REAL decode: from-scratch T.88 decoder (pdfkernel/jbig2.py —
            # MQ coder, generic/symbol/text/halftone regions); capped at
            # 4M pixels per blob (per-pixel arithmetic decode is CPU-heavy
            # — larger scans report metadata only, decoded=False)
            from ..pdfkernel.jbig2 import decode_jbig2_file

            try:
                _pk, w, h = decode_jbig2_file(blob, max_pixels=1 << 22)
                return w, h, True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                return -1, -1, False, f"{type(e).__name__}: {e}"
        if kind == "jp2":
            # REAL decode: from-scratch T.800 lossless decoder
            # (pdfkernel/jpx.py — EBCOT T1 on the shared MQ coder, 5/3
            # IDWT, RCT); verified pixel-exact vs the reference's
            # openjpeg wasm.  16M-sample cap (per-pixel T1 is CPU-heavy)
            from ..pdfkernel.jpx import decode_jpx

            try:
                px = decode_jpx(blob)
                return px.shape[1], px.shape[0], True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                return -1, -1, False, f"{type(e).__name__}: {e}"
        if kind == "gif" and self._pil is None:
            # REAL decode: dependency-free GIF (variable-width LZW,
            # stages/codecs.py); PIL takes over when available
            from .codecs import decode_gif

            try:
                h, w, _nc, _px = decode_gif(blob)
                return w, h, True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                return -1, -1, False, f"{type(e).__name__}: {e}"
        if self._pil is None:
            return -1, -1, False, None
        import io

        try:  # pragma: no cover
            with self._pil.open(io.BytesIO(blob)) as im:
                return im.width, im.height, True, None
        except Exception as e:  # noqa: BLE001  # pragma: no cover
            return -1, -1, False, f"{type(e).__name__}: {e}"

    def _decode_audio(self, blob: bytes) -> tuple[float, bool, Optional[str]]:
        # REAL header-level duration decode — no codec library needed
        # (stages/codecs.py): WAV (RIFF arithmetic), MP3 (frame header +
        # Xing VBR frame count), MP4 (moov/mvhd timescale), Ogg (granule
        # positions), AVI (avih frame count x frame duration)
        kind = sniff_media_type(blob)
        if kind in ("wav", "mp3", "mp4", "ogg", "avi"):
            from .codecs import (avi_duration, mp3_duration, mp4_duration,
                                 ogg_duration, wav_duration)

            fn = {"wav": wav_duration, "mp3": mp3_duration,
                  "mp4": mp4_duration, "ogg": ogg_duration,
                  "avi": avi_duration}[kind]
            try:
                return round(fn(blob), 6), True, None
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                return -1.0, False, f"{type(e).__name__}: {e}"
        if self._soundfile is None:
            return -1.0, False, None  # STUB (ogg/avi payload decode)
        import io

        try:  # pragma: no cover
            info = self._soundfile.info(io.BytesIO(blob))
            return float(info.duration), True, None
        except Exception as e:  # noqa: BLE001  # pragma: no cover
            return -1.0, False, f"{type(e).__name__}: {e}"

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        mt, nb, sha, ent = [], [], [], []
        numpages, width, height, dur, decoded, err = [], [], [], [], [], []
        for blob in blobs:
            blob = blob or b""
            kind = sniff_media_type(blob)
            mt.append(kind)
            nb.append(len(blob))
            sha.append(hashlib.sha256(blob).hexdigest())
            ent.append(round(_byte_entropy(blob, self._entropy_cap), 6))
            np_, w, h, d, dec, e = 0, -1, -1, -1.0, False, None
            if kind == "pdf":
                np_, dec, e = self._decode_pdf(blob)
            elif kind in ("png", "jpeg", "gif", "tiff", "jbig2", "jp2"):
                w, h, dec, e = self._decode_image(blob, kind)
            elif kind in ("wav", "mp3", "ogg", "mp4", "avi"):
                d, dec, e = self._decode_audio(blob)
            numpages.append(np_)
            width.append(w)
            height.append(h)
            dur.append(d)
            decoded.append(dec)
            err.append(e)
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(mt, pa.string()),
            "n_bytes": pa.array(nb, pa.int64()),
            "sha256": pa.array(sha, pa.string()),
            "entropy": pa.array(ent, pa.float64()),
            "numpages": pa.array(numpages, pa.int32()),
            "width": pa.array(width, pa.int32()),
            "height": pa.array(height, pa.int32()),
            "duration_s": pa.array(dur, pa.float64()),
            "decoded": pa.array(decoded, pa.bool_()),
            "error": pa.array(err, pa.string()),
        })


class PdfImageExtractor:
    """Actor-pool stage: (media_ref, bytes) → one row per embedded image
    XObject, decoded through the kernel codec set (JBIG2/JPX/DCT/CCITT/
    raw — pdfkernel/images.py).  Non-PDF and unparseable blobs yield a
    single absorbed-error row so the stage never fails a task.  At scale
    this runs with small batch sizes (blobs are large) and per-actor
    warm state, like MediaFeatureExtractor."""

    def __init__(self, max_pixels: int = 1 << 22):
        self._max_pixels = max_pixels

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..pdfkernel.images import list_images

        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        rows = {k: [] for k in ("media_ref", "page", "name", "filter",
                                "width", "height", "bpc", "colorspace",
                                "decoded", "pixel_sha256", "error")}
        for ref, blob in zip(refs, blobs):
            blob = blob or b""
            if sniff_media_type(blob) != "pdf":
                continue  # image inventory is a PDF-only surface
            try:
                images = list_images(blob, max_pixels=self._max_pixels)
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                rows["media_ref"].append(ref)
                rows["page"].append(0)
                rows["name"].append("")
                rows["filter"].append("")
                rows["width"].append(-1)
                rows["height"].append(-1)
                rows["bpc"].append(-1)
                rows["colorspace"].append("")
                rows["decoded"].append(False)
                rows["pixel_sha256"].append(None)
                rows["error"].append(f"{type(e).__name__}: {e}")
                continue
            for im in images:
                rows["media_ref"].append(ref)
                rows["page"].append(im["page"])
                rows["name"].append(im["name"])
                rows["filter"].append(im["filter"])
                rows["width"].append(im["width"])
                rows["height"].append(im["height"])
                rows["bpc"].append(im["bpc"])
                rows["colorspace"].append(im["colorspace"])
                rows["decoded"].append(im["decoded"])
                rows["pixel_sha256"].append(im["pixel_sha256"])
                rows["error"].append(im["error"])
        return pa.table({
            "media_ref": pa.array(rows["media_ref"], pa.string()),
            "page": pa.array(rows["page"], pa.int32()),
            "name": pa.array(rows["name"], pa.string()),
            "filter": pa.array(rows["filter"], pa.string()),
            "width": pa.array(rows["width"], pa.int32()),
            "height": pa.array(rows["height"], pa.int32()),
            "bpc": pa.array(rows["bpc"], pa.int32()),
            "colorspace": pa.array(rows["colorspace"], pa.string()),
            "decoded": pa.array(rows["decoded"], pa.bool_()),
            "pixel_sha256": pa.array(rows["pixel_sha256"], pa.string()),
            "error": pa.array(rows["error"], pa.string()),
        })


class AudioFeatureExtractor:
    """Actor-pool stage: WAV blobs → sample-level signal features through
    the REAL PCM decoder (stages/codecs.decode_wav_pcm — integer PCM and
    IEEE-float payloads, no codec library).  Per blob: sample_rate,
    channels, bits, n_frames, duration_s, rms, peak, zero-crossing rate
    (mean over channels) and clipped-sample fraction (|x| ≥ full scale).
    Non-WAV and undecodable blobs absorb to decoded=False rows — the
    stage never fails a task.  Small batch sizes at scale (payload-heavy
    column); all per-blob math is one vectorized numpy pass."""

    def __init__(self, max_samples: int = 1 << 26):
        self._max_samples = max_samples

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from .codecs import decode_wav_pcm

        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        cols = {k: [] for k in ("media_type", "sample_rate", "channels",
                                "bits", "n_frames", "duration_s", "rms",
                                "peak", "zero_cross_rate", "clipped_frac",
                                "decoded", "error")}
        for blob in blobs:
            blob = blob or b""
            kind = sniff_media_type(blob)
            cols["media_type"].append(kind)
            try:
                if kind != "wav":
                    raise ValueError("not a WAV container")
                rate, nch, bits, x = decode_wav_pcm(
                    blob, max_samples=self._max_samples)
                n = x.shape[0]
                if n:
                    rms = float(np.sqrt((x * x).mean()))
                    peak = float(np.abs(x).max())
                    zc = float((np.signbit(x[1:]) !=
                                np.signbit(x[:-1])).mean()) if n > 1 else 0.0
                    clipped = float((np.abs(x) >= 1.0).mean())
                else:
                    rms = peak = zc = clipped = 0.0
                cols["sample_rate"].append(rate)
                cols["channels"].append(nch)
                cols["bits"].append(bits)
                cols["n_frames"].append(n)
                cols["duration_s"].append(round(n / rate, 6))
                cols["rms"].append(round(rms, 9))
                cols["peak"].append(round(peak, 9))
                cols["zero_cross_rate"].append(round(zc, 9))
                cols["clipped_frac"].append(round(clipped, 9))
                cols["decoded"].append(True)
                cols["error"].append(None)
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                cols["sample_rate"].append(-1)
                cols["channels"].append(-1)
                cols["bits"].append(-1)
                cols["n_frames"].append(-1)
                cols["duration_s"].append(-1.0)
                cols["rms"].append(-1.0)
                cols["peak"].append(-1.0)
                cols["zero_cross_rate"].append(-1.0)
                cols["clipped_frac"].append(-1.0)
                cols["decoded"].append(False)
                cols["error"].append(None if kind != "wav"
                                     else f"{type(e).__name__}: {e}")
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(cols["media_type"], pa.string()),
            "sample_rate": pa.array(cols["sample_rate"], pa.int32()),
            "channels": pa.array(cols["channels"], pa.int32()),
            "bits": pa.array(cols["bits"], pa.int32()),
            "n_frames": pa.array(cols["n_frames"], pa.int64()),
            "duration_s": pa.array(cols["duration_s"], pa.float64()),
            "rms": pa.array(cols["rms"], pa.float64()),
            "peak": pa.array(cols["peak"], pa.float64()),
            "zero_cross_rate": pa.array(cols["zero_cross_rate"],
                                        pa.float64()),
            "clipped_frac": pa.array(cols["clipped_frac"], pa.float64()),
            "decoded": pa.array(cols["decoded"], pa.bool_()),
            "error": pa.array(cols["error"], pa.string()),
        })


# ---------------------------------------------------------------------------
# Perceptual image hashing (content features over the real decoders)
# ---------------------------------------------------------------------------

PHASH_GRID = 8  # aHash grid -> 64-bit fingerprint


def _to_gray(px) -> "object":
    """uint8 pixel array (h,w) / (h,w,c) → deterministic integer luma."""
    import numpy as np

    if px.ndim == 2:
        return px.astype(np.int64)
    if px.shape[2] == 1:
        return px[..., 0].astype(np.int64)
    r = px[..., 0].astype(np.int64)
    g = px[..., 1].astype(np.int64)
    b = px[..., 2].astype(np.int64)
    return (299 * r + 587 * g + 114 * b) // 1000  # integer Rec.601 luma


def ahash64(px) -> int:
    """64-bit average hash: integer area-mean downsample to an 8x8 grid,
    bit i set iff cell mean > global grid mean.  All-integer arithmetic,
    so the fingerprint is bit-identical across platforms."""
    import numpy as np

    gray = _to_gray(px)
    h, w = gray.shape
    if h < PHASH_GRID or w < PHASH_GRID:  # upscale-free tiny-image path
        gray = np.repeat(np.repeat(gray, PHASH_GRID, 0), PHASH_GRID, 1)
        h, w = gray.shape
    ys = (np.arange(PHASH_GRID + 1) * h) // PHASH_GRID
    xs = (np.arange(PHASH_GRID + 1) * w) // PHASH_GRID
    # integer area sums via 2-D cumulative sums (exact, no float means)
    cs = np.zeros((h + 1, w + 1), np.int64)
    cs[1:, 1:] = gray.cumsum(0).cumsum(1)
    sums = (cs[ys[1:, None], xs[None, 1:]] - cs[ys[:-1, None], xs[None, 1:]]
            - cs[ys[1:, None], xs[None, :-1]]
            + cs[ys[:-1, None], xs[None, :-1]])
    areas = ((ys[1:] - ys[:-1])[:, None] * (xs[1:] - xs[:-1])[None, :])
    # compare cell mean to grid mean without division: cross-multiply
    total, cells = int(sums.sum()), int(areas.sum())
    bits = (sums * cells) > (total * areas)
    return int(np.packbits(bits.ravel()).view(">u8")[0])


def build_image_decoders() -> dict:
    """media_type → blob-to-pixel-array decoder over the REAL kernel
    codec set (JPEG incl. progressive, PNG, GIF, TIFF, JPEG2000, JBIG2).
    Built once per actor (__init__ state), shared by the phash and
    resize stages."""
    from ..pdfkernel.jbig2 import decode_jbig2_file
    from ..pdfkernel.jpeg import decode_jpeg
    from ..pdfkernel.jpx import decode_jpx
    from .codecs import decode_gif, decode_png, decode_tiff

    def img4(fn):
        return lambda b: fn(b)[3]

    def jb2(b):
        import numpy as np

        packed, w, h = decode_jbig2_file(b, max_pixels=1 << 22)
        bits = np.unpackbits(
            np.frombuffer(packed, np.uint8).reshape(h, -1),
            axis=1)[:, :w]
        return (1 - bits).astype(np.uint8) * 255  # 1 = black in T.88

    return {
        "jpeg": img4(decode_jpeg), "png": img4(decode_png),
        "gif": img4(decode_gif), "tiff": img4(decode_tiff),
        "jp2": decode_jpx, "jbig2": jb2,
    }


class ImagePHasher:
    """Actor-pool stage: image blobs → 64-bit perceptual fingerprints
    through the REAL kernel decoders (JPEG incl. progressive, PNG, GIF,
    TIFF, JPEG2000, JBIG2).  Non-image and undecodable blobs absorb to
    decoded=False rows — the stage never fails a task.  Small batch
    sizes at scale (payload-heavy column), state-free apart from the
    resolved decoder table built once per actor."""

    def __init__(self):
        self._decode = build_image_decoders()

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        mt, ph, dec, err = [], [], [], []
        for blob in blobs:
            blob = blob or b""
            kind = sniff_media_type(blob)
            mt.append(kind)
            fn = self._decode.get(kind)
            if fn is None:
                ph.append(None)
                dec.append(False)
                err.append(None)
                continue
            try:
                px = fn(blob)
                ph.append(f"{ahash64(px):016x}")
                dec.append(True)
                err.append(None)
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                ph.append(None)
                dec.append(False)
                err.append(f"{type(e).__name__}: {e}")
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(mt, pa.string()),
            "phash": pa.array(ph, pa.string()),
            "decoded": pa.array(dec, pa.bool_()),
            "error": pa.array(err, pa.string()),
        })


class ImageResizer:
    """Actor-pool stage: image blobs → resized image blobs (brief: the
    'resize' step of a multimodal training-data pipeline as a real
    map_batches stage, not a stub).  Decode through the kernel codec set
    (build_image_decoders), integer area-mean resample to (height,
    width) — exact block means, bit-identical across platforms — and
    re-encode as PNG.  Non-image / undecodable blobs absorb to
    decoded=False rows; the stage never fails a task.  Small batches at
    scale: output payloads are bounded by height*width*3 per row."""

    def __init__(self, height: int = 64, width: int = 64):
        self._decode = build_image_decoders()
        self._h, self._w = int(height), int(width)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        from .codecs import area_mean_resize, encode_png

        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        mt, wi, hi, out_png, digest, dec, err = [], [], [], [], [], [], []
        for blob in blobs:
            blob = blob or b""
            kind = sniff_media_type(blob)
            mt.append(kind)
            fn = self._decode.get(kind)
            if fn is None:
                wi.append(0); hi.append(0); out_png.append(None)
                digest.append(None); dec.append(False); err.append(None)
                continue
            try:
                px = fn(blob)
                h0, w0 = px.shape[0], px.shape[1]
                small = area_mean_resize(px, self._h, self._w)
                wi.append(w0); hi.append(h0)
                out_png.append(encode_png(small))
                digest.append(hashlib.sha256(small.tobytes()).hexdigest()[:16])
                dec.append(True); err.append(None)
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                wi.append(0); hi.append(0); out_png.append(None)
                digest.append(None); dec.append(False)
                err.append(f"{type(e).__name__}: {e}")
        return pa.table({
            "media_ref": pa.array(refs, pa.string()),
            "media_type": pa.array(mt, pa.string()),
            "w_in": pa.array(wi, pa.int32()),
            "h_in": pa.array(hi, pa.int32()),
            "w_out": pa.array([self._w] * len(refs), pa.int32()),
            "h_out": pa.array([self._h] * len(refs), pa.int32()),
            "resized_png": pa.array(out_png, pa.binary()),
            "pixel_digest": pa.array(digest, pa.string()),
            "decoded": pa.array(dec, pa.bool_()),
            "error": pa.array(err, pa.string()),
        })


class VideoFrameSampler:
    """Actor-pool stage: video blobs → one row per SAMPLED frame (brief:
    the 'frame-sample' step).  Uncompressed 24-bit DIB AVI streams
    decode for REAL (codecs.decode_avi_frames) and each sampled frame
    emits its perceptual hash + timestamp; compressed video ('00dc' /
    biCompression != 0 / mp4 / ogg) absorbs to ONE decoded=False row —
    frame-accurate sampling of encoded video needs a codec this
    container doesn't ship, so the stage surfaces that honestly instead
    of faking pixels (the Ray-side plumbing — schema, batch sizing,
    actor state, per-frame fan-out — is identical either way)."""

    def __init__(self, stride: int = 5, max_frames: int = 16):
        self._stride = max(1, int(stride))
        self._max = max(1, int(max_frames))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .codecs import CodecError, decode_avi_frames

        refs = batch.column("media_ref").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        rows = {"media_ref": [], "media_type": [], "frame_index": [],
                "ts_s": [], "w": [], "h": [], "phash": [],
                "decoded": [], "error": []}

        def emit(ref, kind, fi, ts, w, h, ph, dec, err):
            rows["media_ref"].append(ref)
            rows["media_type"].append(kind)
            rows["frame_index"].append(fi)
            rows["ts_s"].append(ts)
            rows["w"].append(w)
            rows["h"].append(h)
            rows["phash"].append(ph)
            rows["decoded"].append(dec)
            rows["error"].append(err)

        for ref, blob in zip(refs, blobs):
            blob = blob or b""
            kind = sniff_media_type(blob)
            if kind != "avi":
                emit(ref, kind, -1, None, 0, 0, None, False,
                     None if kind in ("mp4", "ogg", "avi")
                     else "not a video container")
                continue
            try:
                fps, _total, frames = decode_avi_frames(
                    blob, stride=self._stride, max_frames=self._max)
                if not frames:
                    raise CodecError("no frames")
                for fi, arr in frames:
                    emit(ref, kind, fi, (fi / fps) if fps else None,
                         arr.shape[1], arr.shape[0],
                         f"{ahash64(arr):016x}", True, None)
            except Exception as e:  # noqa: BLE001 — absorb-to-error
                emit(ref, kind, -1, None, 0, 0, None, False,
                     f"{type(e).__name__}: {e}")
        return pa.table({
            "media_ref": pa.array(rows["media_ref"], pa.string()),
            "media_type": pa.array(rows["media_type"], pa.string()),
            "frame_index": pa.array(rows["frame_index"], pa.int32()),
            "ts_s": pa.array(rows["ts_s"], pa.float64()),
            "w": pa.array(rows["w"], pa.int32()),
            "h": pa.array(rows["h"], pa.int32()),
            "phash": pa.array(rows["phash"], pa.string()),
            "decoded": pa.array(rows["decoded"], pa.bool_()),
            "error": pa.array(rows["error"], pa.string()),
        })
