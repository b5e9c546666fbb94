"""Property-based tests (hypothesis) for the coding primitives every
image codec sits on: the MQ arithmetic coder pair, the reversible 5/3
DWT, CCITT G4, and JBIG2 generic-region roundtrips on arbitrary
bitmaps.  These hunt the corner cases fixed-seed tests miss (the MQ
flush bug this round was exactly such a tail case)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from pdf_parse_new_ray.fixtures.jbig2gen import MQEncoder, build_generic_stream
from pdf_parse_new_ray.pdfkernel.jbig2 import MQDecoder, decode_jbig2

_settings = settings(max_examples=60, deadline=None)


@given(steps=st.lists(st.tuples(st.integers(0, 18), st.integers(0, 1)),
                      min_size=1, max_size=400),
       raw=st.booleans())
@_settings
def test_mq_coder_roundtrip(steps, raw):
    enc = MQEncoder()
    cxe = bytearray(19)
    for ctx, bit in steps:
        enc.encode(cxe, ctx, bit)
    data = enc.finish_raw() if raw else enc.finish()
    dec = MQDecoder(data, 0, len(data))
    cxd = bytearray(19)
    out = [dec.read_bit(cxd, ctx) for ctx, _ in steps]
    assert out == [bit for _, bit in steps]


@given(w=st.integers(1, 40), h=st.integers(1, 40),
       levels=st.integers(1, 4), seed=st.integers(0, 2**31))
@_settings
def test_dwt53_roundtrip(w, h, levels, seed):
    from pdf_parse_new_ray.fixtures.jpxgen import fdwt53
    from pdf_parse_new_ray.pdfkernel.jpx import idwt53

    rng = np.random.default_rng(seed)
    img = rng.integers(-300, 300, (h, w)).astype(np.int64)
    ll, chain = fdwt53(img, levels)
    assert np.array_equal(idwt53(ll, chain), img)


@given(w=st.integers(1, 48), h=st.integers(1, 24),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
@_settings
def test_ccitt_g4_roundtrip(w, h, density, seed):
    from pdf_parse_new_ray.fixtures.ccittgen import encode_g4
    from pdf_parse_new_ray.pdfkernel.ccitt import decode_ccitt

    rng = np.random.default_rng(seed)
    img = (rng.random((h, w)) < density).astype(np.uint8)
    out = decode_ccitt(encode_g4(img), columns=w, rows=h, k=-1)
    assert np.array_equal(out, img)


@given(w=st.integers(1, 32), h=st.integers(1, 32),
       template=st.integers(0, 3), tpgdon=st.booleans(),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
@_settings
def test_jbig2_generic_roundtrip(w, h, template, tpgdon, density, seed):
    rng = np.random.default_rng(seed)
    img = (rng.random((h, w)) < density).astype(np.uint8)
    stream = build_generic_stream(img.tolist(), template=template,
                                  tpgdon=tpgdon)
    assert np.array_equal(decode_jbig2(stream), img)


@given(w=st.integers(1, 24), h=st.integers(1, 24),
       levels=st.integers(0, 3), seed=st.integers(0, 2**31))
@_settings
def test_jpx_codestream_roundtrip(w, h, levels, seed):
    from pdf_parse_new_ray.fixtures.jpxgen import encode_jpx
    from pdf_parse_new_ray.pdfkernel.jpx import decode_jpx

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w)).astype(np.uint8)
    assert np.array_equal(decode_jpx(encode_jpx(img, levels=levels)), img)


@given(reps=st.lists(st.integers(0, 7), min_size=0, max_size=60))
@_settings
def test_ranges_concatenated_aranges(reps):
    from pdf_parse_new_ray.functions.relational import _ranges

    r = np.asarray(reps, np.int64)
    want = np.concatenate([np.arange(x) for x in reps]) if reps \
        else np.empty(0, np.int64)
    assert np.array_equal(_ranges(r), want)


@given(n_users=st.integers(1, 5), n_ev=st.integers(1, 60),
       seed=st.integers(0, 2**31))
@_settings
def test_grouped_cummax_k_offset_matches_naive(n_users, n_ev, seed):
    """The K-offset grouped running-max in q_late_data_drop equals the
    per-segment naive loop on arbitrary (user, ts) data."""
    rng = np.random.default_rng(seed)
    uid = np.sort(rng.integers(0, n_users, n_ev).astype(np.int64))
    ts = rng.integers(0, 10_000, n_ev).astype(np.int64)
    new_user = np.ones(n_ev, dtype=bool)
    new_user[1:] = uid[1:] != uid[:-1]
    seg = np.cumsum(new_user) - 1
    t0 = ts.min()
    rel = ts - t0
    span = int(rel.max()) + 1
    shifted = rel + seg * span
    got = np.maximum.accumulate(shifted) - seg * span + t0
    want = np.empty(n_ev, np.int64)
    starts = np.nonzero(new_user)[0]
    for k, s_ in enumerate(starts):
        e_ = starts[k + 1] if k + 1 < len(starts) else n_ev
        want[s_:e_] = np.maximum.accumulate(ts[s_:e_])
    assert np.array_equal(got, want)


@given(n=st.integers(4, 80), seed=st.integers(0, 2**31))
@_settings
def test_winnowing_window_min_matches_naive(n, seed):
    """sliding_window_view window-min equals the naive per-window scan
    on arbitrary uint64 hash streams (winnowing selection kernel)."""
    rng = np.random.default_rng(seed)
    hs = rng.integers(0, 1 << 63, n).astype(np.uint64)
    w = 4
    if n < w:
        return
    got = np.lib.stride_tricks.sliding_window_view(hs, w).min(axis=1)
    want = np.array([hs[i:i + w].min() for i in range(n - w + 1)],
                    np.uint64)
    assert np.array_equal(got, want)


@given(rows=st.lists(st.tuples(st.integers(0, 25), st.integers(0, 5)),
                     max_size=250),
       cap=st.integers(2, 7))
@_settings
def test_bucket_pairs_multi_equivalence(rows, cap):
    """Property: the vectorized multi-bucket segment walk emits EXACTLY
    the pair multiset of mapping the per-bucket reference
    (tests/dedup_refs.py) over each distinct key, after the Max(capped)
    pair merge — across random bucket shapes and a small forced cap so
    star fallbacks are common."""
    from unittest import mock

    import pyarrow as pa

    import dedup_refs
    from pdf_parse_new_ray.functions import dedup

    t = pa.table({
        "doc_id": pa.array([d for d, _ in rows], pa.int64()),
        "bucket": pa.array([b for _, b in rows], pa.uint64()),
    })

    def merged(pairs_tbl):
        out = {}
        for a, b, c in zip(pairs_tbl.column("a").to_pylist(),
                           pairs_tbl.column("b").to_pylist(),
                           pairs_tbl.column("capped").to_pylist()):
            out[(a, b)] = out.get((a, b), False) or c
        return out

    with mock.patch.object(dedup, "BUCKET_PAIR_CAP", cap):
        multi = merged(dedup._bucket_pairs_multi(t))
        legacy = {}
        for bk in set(b for _, b in rows):
            sub = t.filter(pa.compute.equal(t.column("bucket"), bk))
            for k, v in merged(dedup_refs.bucket_pairs(sub, cap)).items():
                legacy[k] = legacy.get(k, False) or v
    assert multi == legacy
