"""Text-analysis operators over the `documents` table (training-data
pipeline staples): token counting, quality metrics, language-ID,
fingerprinting.  All vectorized or compiled-once per actor; every
SQL-expressible metric shares its exact formula with the DuckDB oracle in
__ray_entry__.oracle_sql().
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..sources.interleaved import read_table
from .joins import aggregate, frame

# shared with the DuckDB oracle (RE2-compatible, no lookarounds)
TOKEN_PATTERN = r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]"
WORD_PATTERN = r"[A-Za-z]+"


_WARM_INSTANCES: dict = {}


def _warm(cls):
    """Task-mode per-worker instance cache for cheap-state stages (compiled
    regexes): the returned callable builds ``cls()`` once per worker process
    (module-level cache, so it survives across tasks in that worker) and
    reuses it for every batch — the same once-per-worker semantics as a
    (1, N)-actor pool without the pool's per-query actor spin-up or its
    N-way cap (the pool pattern measured ~1-3 s spin-up per bench query and
    capped trivially parallel stages at 4-8 of the host's cores).  Heavy
    state (media decoders, model tables) stays on real actor pools."""

    def run(t: pa.Table) -> pa.Table:
        inst = _WARM_INSTANCES.get(cls)
        if inst is None:
            inst = _WARM_INSTANCES[cls] = cls()
        return inst(t)

    return run


class TokenCounter:
    """Stateful stage: regexes compiled once per worker (SURVEY §2.3)."""

    def __init__(self):
        self.tok = re.compile(TOKEN_PATTERN)
        self.word = re.compile(WORD_PATTERN)

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        n_tokens = [len(self.tok.findall(x or "")) for x in texts]
        n_words = [len(self.word.findall(x or "")) for x in texts]
        cols = {}
        if "doc_id" in t.column_names:
            cols["doc_id"] = t.column("doc_id")
        cols.update({
            "lang": t.column("lang"),
            "n_tokens": pa.array(n_tokens, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_chars": pc.utf8_length(t.column("text")),
        })
        return pa.table(cols)


def t_token_stats(sf_dir: str) -> pd.DataFrame:
    """Per-language token statistics."""
    # sum and count, then divide (not a mean): integer sums are exact
    # regardless of partition/accumulation order, so the 4-dp rounding is
    # deterministic and matches the DuckDB avg() to the bit.
    out = frame(aggregate(
        read_table(f"{sf_dir}/documents.parquet", ["lang", "text"])
        .map_batches(_warm(TokenCounter), batch_format="pyarrow"), "lang",
        {"n_docs": (None, "count"), "total_tokens": ("n_tokens", "sum"),
         "total_words": ("n_words", "sum"),
         "total_chars": ("n_chars", "sum")}))
    out["avg_tokens"] = (out["total_tokens"] / out["n_docs"]).round(4)
    out["avg_words"] = (out["total_words"] / out["n_docs"]).round(4)
    out["avg_chars"] = (out["total_chars"] / out["n_docs"]).round(4)
    out = out.drop(columns=["total_words", "total_chars"])
    out = out.sort_values("lang").reset_index(drop=True)
    return out[["lang", "n_docs", "total_tokens", "avg_tokens", "avg_words", "avg_chars"]]


def t_quality_scores(sf_dir: str) -> pd.DataFrame:
    """Per-source quality metrics (length/alpha/space ratios)."""

    _alpha = re.compile(r"[A-Za-z]")

    def metrics(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        # ASCII-letter definition shared with the DuckDB oracle (unicode
        # str.isalpha() would diverge on non-latin corpora)
        alpha = [len(_alpha.findall(x or "")) for x in texts]
        space = [(x or "").count(" ") for x in texts]
        return pa.table({
            "source": t.column("source"),
            "n_chars": pc.utf8_length(t.column("text")),
            "alpha_chars": pa.array(alpha, pa.int64()),
            "space_chars": pa.array(space, pa.int64()),
        })

    # sum and count, then divide (not a mean): exact integer sums make the
    # rounded average deterministic across partitionings (see
    # t_token_stats).
    out = frame(aggregate(
        read_table(f"{sf_dir}/documents.parquet", ["source", "text"])
        .map_batches(metrics, batch_format="pyarrow"), "source",
        {"n_docs": (None, "count"), "total_chars": ("n_chars", "sum"),
         "total_alpha": ("alpha_chars", "sum"),
         "total_space": ("space_chars", "sum")}))
    out["avg_chars"] = (out["total_chars"] / out["n_docs"]).round(4)
    out = out.drop(columns=["total_chars"])
    out = out.sort_values("source").reset_index(drop=True)
    return out[["source", "n_docs", "avg_chars", "total_alpha", "total_space"]]


# language-ID heuristic: stopword hit-rate per language (n-gram-free,
# deterministic; the DuckDB oracle recomputes it exactly — first-200-
# token slice, per-language ratio, earlier-language tie-break).
_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for"},
    "fr": {"le", "la", "de", "et", "un", "une", "est", "que", "pour", "dans"},
    "es": {"el", "la", "de", "y", "un", "una", "es", "que", "por", "en"},
    "de": {"der", "die", "das", "und", "ein", "eine", "ist", "zu", "mit", "von"},
    "zh": set(),  # no latin stopwords: falls through to 'unknown'
}


class LangId:
    def __init__(self):
        self.word = re.compile(r"[a-zA-Z]+")

    def predict(self, text: str) -> str:
        words = [w.lower() for w in self.word.findall(text or "")[:200]]
        if not words:
            return "unknown"
        best, best_score = "unknown", 0.0
        for lang, sw in _STOPWORDS.items():
            if not sw:
                continue
            score = sum(1 for w in words if w in sw) / len(words)
            if score > best_score:
                best, best_score = lang, score
        return best if best_score > 0.02 else "unknown"

    def __call__(self, t: pa.Table) -> pa.Table:
        preds = [self.predict(x) for x in t.column("text").to_pylist()]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "lang": t.column("lang"),
            "pred_lang": pa.array(preds, pa.string()),
        })


def t_langid(sf_dir: str) -> pd.DataFrame:
    """Predicted vs labeled language confusion counts."""
    out = frame(aggregate(
        read_table(f"{sf_dir}/documents.parquet", ["doc_id", "lang", "text"])
        .map_batches(_warm(LangId), batch_format="pyarrow"),
        ["lang", "pred_lang"], {"n": (None, "count")}))
    return out.sort_values(["lang", "pred_lang"]).reset_index(drop=True)


def t_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Deterministic content fingerprint (md5) per doc — the exact-dedup
    primitive; shares the md5 formula with the DuckDB oracle."""

    def fp(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5((x or "").encode("utf-8")).hexdigest()
                  for x in t.column("text").to_pylist()]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fingerprint": pa.array(hashes, pa.string()),
        })

    out = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"]) \
        .map_batches(fp, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


class RepetitionSignals:
    """Stateful stage: Gopher-style repetition quality signals —
    duplicate-line fraction and most-frequent-word-bigram fraction per
    document.  Regex compiled once per actor; map-only (no shuffle)."""

    def __init__(self):
        self.word = re.compile(r"[a-z]+")

    def __call__(self, t: pa.Table) -> pa.Table:
        from collections import Counter

        n_lines, dup_line, top_bigram = [], [], []
        for text in t.column("text").to_pylist():
            lines = (text or "").split("\n")
            n = len(lines)
            n_lines.append(n)
            dup_line.append(round(1.0 - len(set(lines)) / n, 6) if n else 0.0)
            words = self.word.findall((text or "").lower())
            if len(words) < 2:
                top_bigram.append(0.0)
            else:
                c = Counter(f"{a} {b}" for a, b in zip(words, words[1:]))
                total = len(words) - 1
                top_bigram.append(round(max(c.values()) / total, 6))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_lines": pa.array(n_lines, pa.int64()),
            "dup_line_frac": pa.array(dup_line, pa.float64()),
            "top_bigram_frac": pa.array(top_bigram, pa.float64()),
        })


def t_repetition_signals(sf_dir: str) -> pd.DataFrame:
    """Per-document repetition signals (the Gopher rep filters' shape):
    dup_line_frac = 1 - distinct/total lines; top_bigram_frac = count of
    the most frequent lowercase word bigram / total bigrams.  Formulas
    shared exactly with the DuckDB oracle."""
    out = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"]).map_batches(
        _warm(RepetitionSignals), batch_format="pyarrow",
    ).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def t_tfidf_top_terms(sf_dir: str) -> pd.DataFrame:
    """Per-document top TF-IDF term (tfidf = tf * ln(N/df)).

    Scale plan — TWO keyed exchanges, no broadcast of the vocabulary:
    (1) per-doc term counts explode to (doc, term, tf) rows keyed on the
    term; inside each term-bucket the df is computed AND attached with
    one Arrow group_by + index_in (df never leaves its bucket);
    (2) scored rows re-key on doc_id and each bucket emits the argmax
    row per document (tfidf DESC, term ASC tie-break)."""
    from .dedup import _docs_meta_rows
    from .joins import keyed

    n_docs = _docs_meta_rows(sf_dir)  # == docs.count(), metadata only
    word = re.compile(r"[a-z]+")

    def explode(t: pa.Table) -> pa.Table:
        from collections import Counter

        doc_ids, terms, tfs = [], [], []
        for doc_id, text in zip(t.column("doc_id").to_pylist(),
                                t.column("text").to_pylist()):
            for term, tf in Counter(word.findall((text or "").lower())).items():
                doc_ids.append(doc_id)
                terms.append(term)
                tfs.append(tf)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(tfs, pa.int64()),
        })

    def score_bucket(g: pa.Table) -> pa.Table:
        import numpy as np

        dfs = g.group_by("term").aggregate([("doc_id", "count")])
        idx = pc.index_in(g["term"], value_set=dfs["term"].combine_chunks())
        df = pc.take(dfs["doc_id_count"].combine_chunks(), idx)
        tfidf = g["tf"].to_numpy(zero_copy_only=False) * \
            np.log(n_docs / df.to_numpy(zero_copy_only=False))
        return pa.table({
            "doc_id": g["doc_id"],
            "term": g["term"],
            "tf": g["tf"],
            "df": df,
            "tfidf": pa.array(tfidf, pa.float64()),
        })

    def top_per_doc(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        df = df.sort_values(["doc_id", "tfidf", "term"],
                            ascending=[True, False, True])
        best = df.groupby("doc_id", as_index=False).first()
        return pa.Table.from_pandas(
            best[["doc_id", "term", "tf", "df", "tfidf"]],
            preserve_index=False)

    docs = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"])
    scored = keyed(docs.map_batches(explode, batch_format="pyarrow"),
                   "term", score_bucket)
    out = keyed(scored, "doc_id", top_per_doc).to_pandas()
    out["tfidf"] = out["tfidf"].round(6)
    return out.sort_values("doc_id").reset_index(drop=True)


# PII patterns shared verbatim with the DuckDB oracle (both engines are
# RE2-based, so the same source string has identical match semantics)
EMAIL_PATTERN = r"[A-Za-z0-9._]+@[A-Za-z0-9.]+"
NUMBER_PATTERN = r"[0-9]+"


def t_scrub_pii(sf_dir: str) -> pd.DataFrame:
    """Per-document PII scrub: replace emails then digit runs with typed
    placeholder tokens and count the redactions — the redaction primitive
    of a training-data pipeline (emails scrubbed FIRST so their digits are
    not double-counted as numbers; the oracle nests its regexp_replace the
    same way).  Map-only, fully vectorized (Arrow RE2 kernels); the
    synthetic sf corpus contains no PII, so the planted-fixture pytest
    (tests/test_functions.py) is the non-vacuous check while the driver
    oracle locks the formula shape."""

    def scrub(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_emails = pc.cast(pc.count_substring_regex(text, EMAIL_PATTERN),
                           pa.int64())
        no_email = pc.replace_substring_regex(text, EMAIL_PATTERN, "<EMAIL>")
        n_numbers = pc.cast(pc.count_substring_regex(no_email, NUMBER_PATTERN),
                            pa.int64())
        scrubbed = pc.replace_substring_regex(no_email, NUMBER_PATTERN, "<NUM>")
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_emails": n_emails,
            "n_numbers": n_numbers,
            "scrubbed": scrubbed,
        })

    out = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"]).map_batches(
        scrub, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def t_top_bigrams(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Corpus-wide top-k word bigrams by count (the n-gram census that
    feeds contamination / boilerplate analyses).

    Scale plan: per-batch Counter partials collapse each batch to its
    DISTINCT grams, then ONE keyed fold on the gram merges them (Arrow
    group_by + local top-k per bucket — never a Ray-native
    per-distinct-gram aggregate), so driver traffic is k x buckets rows.
    A small partial table folds in-process (joins.LOCAL_FOLD_ROWS)."""
    from collections import Counter

    from .joins import keyed, rename_agg

    word = re.compile(r"[a-z]+")

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in t.column("text").to_pylist():
            ws = word.findall((text or "").lower())
            c.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
        return pa.table({
            "gram": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    def bucket_merge(g: pa.Table) -> pa.Table:
        t = g.group_by("gram").aggregate([("n", "sum")])
        t = rename_agg(t, {"n_sum": "n"}, ["gram", "n"])
        order = pc.sort_indices(t, sort_keys=[("n", "descending"),
                                              ("gram", "ascending")])
        return t.take(order[:k])

    parts = read_table(f"{sf_dir}/documents.parquet", ["text"]).map_batches(
        partial, batch_format="pyarrow")
    df = keyed(parts, "gram", bucket_merge).to_pandas()
    df = df.sort_values(["n", "gram"], ascending=[False, True]).head(k)
    return df.reset_index(drop=True)[["gram", "n"]]


def t_above_median_by_lang(sf_dir: str) -> pd.DataFrame:
    """Docs-above-corpus-median-length count per language — the two-phase
    computed-scalar-broadcast shape (a global exact quantile feeds a
    distributed filter).  Phase 1 reuses the value-counting exact-quantile
    trick from q_order_price_quantiles (shuffle bounded by DISTINCT
    lengths, not rows); the median scalar then rides into phase 2's filter
    as a plain closure capture (one int — no ray.put needed)."""
    import math

    import numpy as np

    counts = frame(aggregate(read_table(f"{sf_dir}/documents.parquet", ["n_chars"]),
                             "n_chars", {"n": (None, "count")})) \
        .sort_values("n_chars")
    cum = counts["n"].cumsum().to_numpy()
    total = int(cum[-1])
    # DuckDB quantile_disc(x, 0.5): element at index ceil(n*0.5)-1
    target = max(1, math.ceil(total * 0.5))
    median = int(counts["n_chars"].to_numpy()[int(np.searchsorted(cum, target))])

    def above(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t.column("n_chars"), median))

    out = frame(aggregate(read_table(f"{sf_dir}/documents.parquet", ["lang", "n_chars"])
                          .map_batches(above, batch_format="pyarrow"), "lang",
                          {"n_docs": (None, "count")}))
    return out.sort_values("lang").reset_index(drop=True)[["lang", "n_docs"]]


# vectorized deterministic sampling hash: (id*A + B) mod 2^64 mod M61
# (the proven minhash-permutation shape — A < 2^61 keeps the DuckDB
# HUGEINT mirror's products inside int128, unlike a 64-bit splitmix
# whose multiplies overflow it).  numpy's uint64 arithmetic wraps at
# 2^64 exactly like the SQL's explicit % 2^64 steps, so the predicate
# is bit-identical in both engines with NO per-row Python.
_SAMPLE_A = np.uint64(1181783497276652981)
_SAMPLE_B = np.uint64(1721059793829289713)
_M61 = np.uint64((1 << 61) - 1)


def sample_hash(ids) -> np.ndarray:
    """int64 doc ids → uniform uint64 values in [0, 2^61-1)."""
    x = np.asarray(ids).astype(np.uint64)
    with np.errstate(over="ignore"):
        return (x * _SAMPLE_A + _SAMPLE_B) % _M61


def sample_hash_sql(col: str) -> str:
    """The DuckDB expression computing sample_hash(col) bit-for-bit."""
    two64 = 1 << 64
    return (f"((({col}::HUGEINT * {int(_SAMPLE_A)}) % {two64} "
            f"+ {int(_SAMPLE_B)}) % {two64} % {int(_M61)})")


# keep-fraction thresholds on the M61 hash range
SAMPLE_KEEP_25 = int((1 << 61) - 1) // 4


def t_doc_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic ~25% corpus sample: keep docs whose sample_hash
    lands in the bottom quarter of the hash range — the
    reproducible-subset primitive (eval splits, audits, contamination
    spot-checks).  Content-independent and stateless, so the same doc
    is in the sample on every run and every cluster size; a map-only
    VECTORIZED distributed filter (never a driver-side random.sample,
    never a per-row Python hash).  Being hash-based it is
    self-stratifying: every language/source stratum is sampled at ~25%
    without a per-stratum shuffle."""

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        mask = sample_hash(ids) < np.uint64(SAMPLE_KEEP_25)
        return t.filter(pa.array(mask))

    out = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "lang", "n_chars"]).map_batches(
        keep, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def t_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Per-language stratified deterministic sample (the same stable
    ~25% sample_hash predicate as t_doc_sample) with per-stratum count
    and mean length.  Map-only partials: each batch emits one row per
    language; integer char sums ride to the driver and the mean is ONE
    division (rounding discipline — a per-batch float mean would not
    hash-match the oracle)."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        keep = sample_hash(ids) < np.uint64(SAMPLE_KEEP_25)
        sub = t.filter(pa.array(keep))
        return sub.select(["lang", "n_chars"]).group_by("lang").aggregate(
            [("n_chars", "count"), ("n_chars", "sum")])

    parts = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "lang", "n_chars"]) \
        .map_batches(partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("lang", as_index=False).sum()
    g["n_sampled"] = g["n_chars_count"].astype("int64")
    g["avg_chars"] = g["n_chars_sum"].astype("int64") / g["n_sampled"]
    out = g[["lang", "n_sampled", "avg_chars"]]
    return out.sort_values("lang").reset_index(drop=True)


# ---------------------------------------------------------------------------
# benchmark decontamination (13-gram overlap vs a held-out eval slice)
# ---------------------------------------------------------------------------

# the standard exact-substring contamination unit (13 consecutive words,
# the GPT-3/The-Pile convention); words = [a-z0-9]+ on lowercased text
DECON_GRAM_N = 13
DECON_EVAL_MOD = 37  # doc_id % 37 == 0 stands in for the benchmark set


def t_decontamination(sf_dir: str) -> pd.DataFrame:
    """Training-set decontamination: flag every training document that
    shares at least one 13-word shingle with the (deterministic) eval
    slice.  Scale plan: real benchmark suites are tiny next to a 100 TB
    corpus, so the eval gram set is the BROADCAST side (one ray.put of a
    sorted uint64 hash array, np.searchsorted membership probe per
    batch); the training pass is map-only — no shuffle at all.  Gram
    hashes are md5-derived (dedup._gram_hash64) so the DuckDB oracle can
    recompute the identical 64-bit values."""
    from .dedup import _gram_hash64

    word = re.compile(r"[a-z0-9]+")
    n = DECON_GRAM_N

    def doc_grams(text: str) -> set:
        ws = word.findall((text or "").lower())
        if len(ws) < n:
            return set()
        return {_gram_hash64(" ".join(ws[i:i + n]))
                for i in range(len(ws) - n + 1)}

    def eval_partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        sub = t.filter(pa.array(ids % DECON_EVAL_MOD == 0))
        hs: set = set()
        for text in sub.column("text").to_pylist():
            hs |= doc_grams(text)
        return pa.table({"h": pa.array(
            np.fromiter(hs, np.uint64, len(hs)), pa.uint64())})

    docs = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"])
    eval_hashes = docs.map_batches(
        eval_partial, batch_format="pyarrow").to_pandas()["h"].to_numpy()
    eval_sorted = np.unique(eval_hashes)

    import ray
    ref = ray.put(eval_sorted)

    class Overlap:
        def __init__(self):
            self.ev = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            train = t.filter(pa.array(ids % DECON_EVAL_MOD != 0))
            out_id, out_n, out_o = [], [], []
            for did, text in zip(train.column("doc_id").to_pylist(),
                                 train.column("text").to_pylist()):
                hs = doc_grams(text)
                if not hs:
                    continue
                arr = np.fromiter(hs, np.uint64, len(hs))
                pos = np.searchsorted(self.ev, arr)
                pos[pos >= len(self.ev)] = 0
                n_ov = int(np.count_nonzero(self.ev[pos] == arr)) \
                    if len(self.ev) else 0
                if n_ov:
                    out_id.append(did)
                    out_n.append(len(hs))
                    out_o.append(n_ov)
            return pa.table({
                "doc_id": pa.array(out_id, pa.int64()),
                "n_grams": pa.array(out_n, pa.int64()),
                "n_overlap": pa.array(out_o, pa.int64()),
            })

    from .ann import _warm_stage

    out = docs.map_batches(_warm_stage(Overlap, ("decon_overlap", ref), {}),
                           batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# C4-style heuristic quality filter (per-source keep rates)
# ---------------------------------------------------------------------------

# C4's page-level heuristics adapted to this corpus: >= 3 terminal-
# punctuation sentences, >= 50 words, no '{' (code), no 'lorem ipsum'
C4_SENTENCE_PATTERN = r"[^.!?]+[.!?]"
C4_MIN_SENTENCES = 3
C4_MIN_WORDS = 50


def t_c4_quality_filter(sf_dir: str) -> pd.DataFrame:
    """C4-style document filter, reported as per-source keep rates.
    Fully Arrow-vectorized (count_substring_regex / match_substring on
    whole columns — no per-row Python), partial per-batch aggregation so
    the only shuffle is a ~20-group groupby."""
    from .joins import rename_agg

    def partial(t: pa.Table) -> pa.Table:
        text_col = t.column("text").combine_chunks()
        n_sent = pc.count_substring_regex(text_col, C4_SENTENCE_PATTERN)
        n_words = pc.count_substring_regex(text_col, WORD_PATTERN)
        keep = pc.and_(
            pc.and_(pc.greater_equal(n_sent, C4_MIN_SENTENCES),
                    pc.greater_equal(n_words, C4_MIN_WORDS)),
            pc.and_(pc.invert(pc.match_substring(text_col, "{")),
                    pc.invert(pc.match_substring(
                        pc.utf8_lower(text_col), "lorem ipsum"))))
        g = pa.table({
            "source": t.column("source"),
            "n": pa.array(np.ones(t.num_rows, np.int64)),
            "kept": keep.cast(pa.int64()),
        }).group_by("source").aggregate([("n", "sum"), ("kept", "sum")])
        return rename_agg(g, {"n_sum": "n_docs", "kept_sum": "n_kept"},
                          ["source", "n_docs", "n_kept"])

    parts = read_table(f"{sf_dir}/documents.parquet", ["source", "text"]).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    g = parts.groupby("source", as_index=False).sum()
    g["keep_rate"] = (g["n_kept"] / g["n_docs"]).round(4)
    return g.sort_values("source").reset_index(drop=True)[
        ["source", "n_docs", "n_kept", "keep_rate"]]


# ---------------------------------------------------------------------------
# language-mix rebalancing sample (per-stratum target rates)
# ---------------------------------------------------------------------------

def t_lang_mix_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic language-rebalancing sample: down-sample every
    language to (approximately) the size of the smallest one — the
    data-mixing primitive of multilingual training sets.  Phase 1 is a
    tiny aggregate (per-language counts); the per-language keep
    thresholds (M61 * min_count // count_l, exact integer math mirrored
    by the DuckDB oracle's HUGEINT division) then ride into phase 2's
    map-only vectorized filter as a closure — no second shuffle, no
    per-stratum pass."""
    docs = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "lang"])
    cnt = frame(aggregate(docs, "lang", {"n": (None, "count")}))
    langs = cnt["lang"].tolist()
    totals = {l: int(v) for l, v in zip(cnt["lang"], cnt["n"])}
    mn = min(totals.values())
    m61 = int(_M61)
    thr = np.array([(m61 * mn) // totals[l] for l in langs], np.uint64)
    lang_arr = pa.array(langs, pa.string())

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        li = pc.index_in(t.column("lang"), value_set=lang_arr) \
            .combine_chunks().to_numpy(zero_copy_only=False)
        return t.filter(pa.array(sample_hash(ids) < thr[li]))

    sampled = frame(aggregate(docs.map_batches(keep, batch_format="pyarrow"),
                              "lang", {"n": (None, "count")}))
    picked = {l: int(v) for l, v in zip(sampled["lang"], sampled["n"])}
    out = pd.DataFrame({
        "lang": sorted(langs),
        "n_total": [totals[l] for l in sorted(langs)],
        "n_sampled": [picked.get(l, 0) for l in sorted(langs)],
    })
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# corpus bigram-LM document scoring (CCNet-style fluency proxy)
# ---------------------------------------------------------------------------

def t_bigram_lm_score(sf_dir: str) -> pd.DataFrame:
    """Corpus-LM document scoring (the CCNet idea with an integer-exact
    statistic): build the corpus-wide bigram frequency table, then
    score every document by the total and mean corpus frequency of its
    bigrams — fluent, typical text scores high; gibberish and
    boilerplate-free outliers score low.

    ONE keyed exchange on the gram hash computes the global counts AND
    the per-row occ x corpus_count products per bucket, and the per-doc
    merge rides a keyed fold on doc_id (never a per-distinct-doc
    Ray-native aggregate); joins.LOCAL_FOLD_ROWS decides whether each
    fold runs in-process or exchanges.  All counting in int64 — no
    float drift."""
    from .dedup import _gram_hash64
    from .joins import keyed, rename_agg

    word = re.compile(r"[a-z0-9]+")

    def grams(t: pa.Table) -> pa.Table:
        hs_all, ids_all, occ_all = [], [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            ws = word.findall((text or "").lower())
            if len(ws) < 2:
                continue
            hs = np.fromiter(
                (_gram_hash64(f"{a} {b}") for a, b in zip(ws, ws[1:])),
                np.uint64, len(ws) - 1)
            uh, cnt = np.unique(hs, return_counts=True)
            hs_all.append(uh)
            ids_all.append(np.full(len(uh), did, np.int64))
            occ_all.append(cnt.astype(np.int64))
        h = np.concatenate(hs_all) if hs_all else np.empty(0, np.uint64)
        d = np.concatenate(ids_all) if ids_all else np.empty(0, np.int64)
        o = np.concatenate(occ_all) if occ_all else np.empty(0, np.int64)
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "doc_id": pa.array(d, pa.int64()),
            "occ": pa.array(o, pa.int64()),
        })

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_bigrams": pa.array([], pa.int64()),
                             "total_freq": pa.array([], pa.int64())})
        cnt = rename_agg(g.group_by("h").aggregate([("occ", "sum")]),
                         {"occ_sum": "c"})
        # vectorized corpus-count attach: position of each row's h in
        # the bucket-local (== global for these hashes) count table
        idx = pc.index_in(g.column("h"), value_set=cnt.column("h"))
        c_row = pc.take(cnt.column("c"), idx)
        score = pc.multiply_checked(
            pc.cast(g.column("occ"), pa.int64()),
            pc.cast(c_row, pa.int64()))
        per = pa.table({"doc_id": g.column("doc_id"),
                        "occ": g.column("occ"), "part": score}) \
            .group_by("doc_id").aggregate([("occ", "sum"),
                                           ("part", "sum")])
        return rename_agg(per, {"occ_sum": "n_bigrams",
                                "part_sum": "total_freq"},
                          ["doc_id", "n_bigrams", "total_freq"])

    gds = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"]) \
        .map_batches(grams, batch_format="pyarrow")
    out = frame(aggregate(keyed(gds, "h", per_bucket), "doc_id",
                          {"n_bigrams": ("n_bigrams", "sum"),
                           "total_freq": ("total_freq", "sum")}))
    out["n_bigrams"] = out["n_bigrams"].astype("int64")
    out["total_freq"] = out["total_freq"].astype("int64")
    # no rounded-division column: total_freq / n_bigrams is derivable,
    # and a float tie at the 4th decimal would break bit-exactness vs
    # the oracle (observed at sf0.001) — integers only
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer et al. 2003, the MOSS algorithm)
# ---------------------------------------------------------------------------

WINNOW_GRAM_N = 5     # word k-grams
WINNOW_WINDOW = 4     # select the min hash in every window of 4 grams


def t_winnowing_fingerprints(sf_dir: str) -> pd.DataFrame:
    """Winnowing document fingerprints (the MOSS algorithm): hash every
    5-word k-gram, slide a window of 4 consecutive gram hashes, and
    select each window's MINIMUM — the classic guarantee that any
    shared run of >= k + w - 1 words produces at least one shared
    selected fingerprint, at ~2/(w+1) the density of the full gram set.
    Returns per-document gram and selected-fingerprint counts.

    Map-only (no shuffle): the window minimum is a vectorized numpy
    sliding_window_view reduction per document, the selected set a
    np.unique; gram hashes are md5-derived so the DuckDB oracle (a
    ROWS-window min + count DISTINCT) recomputes identical values."""
    from .dedup import _gram_hash64

    word = re.compile(r"[a-z0-9]+")
    n, w = WINNOW_GRAM_N, WINNOW_WINDOW

    def winnow(t: pa.Table) -> pa.Table:
        ids, n_g, n_s = [], [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            ws = word.findall((text or "").lower())
            if len(ws) < n + w - 1:
                continue
            hs = np.fromiter(
                (_gram_hash64(" ".join(ws[i:i + n]))
                 for i in range(len(ws) - n + 1)),
                np.uint64, len(ws) - n + 1)
            mins = np.lib.stride_tricks.sliding_window_view(hs, w) \
                .min(axis=1)
            ids.append(did)
            n_g.append(len(hs))
            n_s.append(len(np.unique(mins)))
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_grams": pa.array(n_g, pa.int64()),
                         "n_selected": pa.array(n_s, pa.int64())})

    out = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"]) \
        .map_batches(winnow, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# Sequence packing (concat-and-chunk pretraining layout)
# ---------------------------------------------------------------------------

SEQ_LEN = 2048


def t_sequence_pack(sf_dir: str, seq_len: int = SEQ_LEN,
                    n_range_buckets: int = 64) -> pd.DataFrame:
    """Concat-and-chunk sequence packing — the GPT-pretraining layout:
    documents are tokenized, concatenated in doc_id order into one global
    token stream, and chunked into fixed seq_len sequences; each doc
    reports which sequence it starts in and at what offset.  The global
    position of a doc is an exclusive prefix sum of token counts in
    doc_id order, computed scale-safe with the same distributed
    prefix-sum plan as q_pareto_customers: range-partition by doc_id
    (sampled boundaries affect placement only, never values),
    per-range totals give driver-side exclusive offsets, each range
    cumsums locally.  No global sort, no driver-side token walk."""
    docs = read_table(f"{sf_dir}/documents.parquet", ["doc_id", "text"])

    class CountTokens:
        def __init__(self):
            self.tok = re.compile(TOKEN_PATTERN)

        def __call__(self, t: pa.Table) -> pa.Table:
            n = [len(self.tok.findall(x or ""))
                 for x in t.column("text").to_pylist()]
            return pa.table({"doc_id": t.column("doc_id"),
                             "n_tokens": pa.array(n, pa.int64())})

    counts = docs.map_batches(_warm(CountTokens),
                              batch_format="pyarrow")

    from . import joins
    from .dedup import _docs_meta_rows
    from .relational import _range_cumsum

    if _docs_meta_rows(sf_dir) <= joins.LOCAL_FOLD_ROWS:
        # driver prefix sum: tokenization stays distributed; the prefix
        # sum over (doc_id, n_tokens) rows is one driver cumsum — the
        # sample/range-totals/per-range exchanges are pure overhead
        # below the keyed exchange's local-fold bound.  (The range
        # exchange is not a keyed fold, so hash_exchange cannot make
        # this call for it.)
        cdf = counts.to_pandas().sort_values("doc_id") \
            .reset_index(drop=True)
        n = cdf["n_tokens"].to_numpy().astype(np.int64)
        cum_prev = np.cumsum(n) - n
        cdf["seq_id"] = cum_prev // seq_len
        cdf["seq_offset"] = cum_prev % seq_len
        return cdf[["doc_id", "n_tokens", "seq_id", "seq_offset"]]

    counts = counts.materialize()

    def sample_ids(t: pa.Table) -> pa.Table:
        ids = np.sort(t.column("doc_id").to_numpy(zero_copy_only=False))
        step = max(1, len(ids) // 64)
        return pa.table({"doc_id": pa.array(ids[::step], pa.int64())})

    samp = np.sort(counts.map_batches(
        sample_ids, batch_format="pyarrow").to_pandas()["doc_id"].to_numpy())
    step = max(1, len(samp) // n_range_buckets)
    bounds = np.unique(samp[step::step]).astype(np.int64)

    def tag_range(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        rb = np.searchsorted(bounds, ids, side="left").astype(np.int32)
        return t.append_column("__rb", pa.array(rb, pa.int32()))

    tagged = counts.map_batches(tag_range, batch_format="pyarrow")
    bt = frame(aggregate(tagged, "__rb", {"total": ("n_tokens", "sum")})) \
        .sort_values("__rb")
    totals = bt["total"].to_numpy().astype(np.int64)
    offset = np.zeros(len(bounds) + 1, np.int64)
    offset[bt["__rb"].to_numpy()] = np.concatenate(([0], np.cumsum(totals)[:-1]))

    def per_range(g: pa.Table) -> pa.Table:
        # a keyed bucket holds whole ranges, each contiguous in doc_id order
        order = pc.sort_indices(g, sort_keys=[("doc_id", "ascending")])
        s = g.take(order)
        n = s.column("n_tokens").combine_chunks() \
            .to_numpy(zero_copy_only=False)
        cum_prev = _range_cumsum(s, n, offset) - n
        return pa.table({
            "doc_id": s.column("doc_id"),
            "n_tokens": s.column("n_tokens"),
            "seq_id": pa.array(cum_prev // seq_len, pa.int64()),
            "seq_offset": pa.array(cum_prev % seq_len, pa.int64()),
        })

    out = joins.keyed(tagged, "__rb", per_range).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# DSIR-style hashed-bigram importance weighting (data selection)
# ---------------------------------------------------------------------------

DSIR_BUCKETS = 4096        # hashed feature dimension (DSIR's 10^4 scale)
DSIR_TARGET_LANG = "en"    # target distribution = the English slice


def t_dsir_importance(sf_dir: str) -> pd.DataFrame:
    """Data Selection via Importance Resampling (Xie et al. 2023) with an
    integer-exact statistic: word bigrams hash into DSIR_BUCKETS buckets;
    the target distribution is the DSIR_TARGET_LANG slice.  Instead of
    DSIR's log-ratio sum (whose float partial sums are exchange-order-
    dependent), each document scores

        target_mass = sum_b occ_b * (tcnt_b + 1)      (int64)
        raw_mass    = sum_b occ_b * (rcnt_b + 1)      (int64)
        importance  = (target_mass * (R + B)) / (raw_mass * (T + B))

    — the arithmetic-mean analogue of DSIR's geometric weight: >1 means
    the document's features are relatively more frequent in the target
    slice.  All masses are int64, so ONE float64 division pair at the
    end is the only float; the oracle reproduces it bit-for-bit.

    ONE keyed exchange on the feature (the t_bigram_lm_score layout):
    every occurrence row of a feature lands in one keyed bucket, so
    bucket-local counts ARE the global tcnt/rcnt and the per-doc partial
    masses fold in the same pass; the per-doc merge is a keyed fold on
    doc_id (doc-exclusive), never a high-cardinality Ray aggregate.  The
    same fold sums each doc's target-slice occurrences (n_tgt), so the
    totals R and T need no second read of the corpus."""
    from .dedup import _gram_hash64
    from .joins import keyed, rename_agg

    word = re.compile(r"[a-z0-9]+")

    def grams(t: pa.Table) -> pa.Table:
        hs_all, ids_all, occ_all, tgt_all = [], [], [], []
        for did, text, lang in zip(t.column("doc_id").to_pylist(),
                                   t.column("text").to_pylist(),
                                   t.column("lang").to_pylist()):
            ws = word.findall((text or "").lower())
            if len(ws) < 2:
                continue
            hs = np.fromiter(
                (_gram_hash64(f"{a} {b}") % DSIR_BUCKETS
                 for a, b in zip(ws, ws[1:])),
                np.uint64, len(ws) - 1)
            uh, cnt = np.unique(hs, return_counts=True)
            hs_all.append(uh)
            ids_all.append(np.full(len(uh), did, np.int64))
            occ_all.append(cnt.astype(np.int64))
            tgt_all.append(np.full(len(uh),
                                   1 if lang == DSIR_TARGET_LANG else 0,
                                   np.int64))
        h = np.concatenate(hs_all) if hs_all else np.empty(0, np.uint64)
        return pa.table({
            "b": pa.array(h.astype(np.int64), pa.int64()),
            "doc_id": pa.array(
                np.concatenate(ids_all) if ids_all
                else np.empty(0, np.int64), pa.int64()),
            "occ": pa.array(
                np.concatenate(occ_all) if occ_all
                else np.empty(0, np.int64), pa.int64()),
            "is_tgt": pa.array(
                np.concatenate(tgt_all) if tgt_all
                else np.empty(0, np.int64), pa.int64()),
        })

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_occ": pa.array([], pa.int64()),
                      "n_tgt": pa.array([], pa.int64()),
                      "tmass": pa.array([], pa.int64()),
                      "rmass": pa.array([], pa.int64())})

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty
        # global per-feature counts (all rows of a feature are in this
        # keyed bucket by construction)
        tocc = pc.multiply(g["occ"], g["is_tgt"])
        cnt = pa.table({"b": g["b"], "r": g["occ"], "t": tocc}) \
            .group_by("b").aggregate([("r", "sum"), ("t", "sum")])
        cnt = rename_agg(cnt, {"r_sum": "rcnt", "t_sum": "tcnt"})
        idx = pc.index_in(g["b"], value_set=cnt.column("b").combine_chunks())
        rc = pc.take(cnt.column("rcnt").combine_chunks(), idx)
        tc = pc.take(cnt.column("tcnt").combine_chunks(), idx)
        tm = pc.multiply(g["occ"], pc.add(tc, pa.scalar(1, pa.int64())))
        rm = pc.multiply(g["occ"], pc.add(rc, pa.scalar(1, pa.int64())))
        f = pa.table({"doc_id": g["doc_id"], "n_occ": g["occ"],
                      "n_tgt": tocc, "tmass": tm, "rmass": rm}) \
            .group_by("doc_id").aggregate([
                ("n_occ", "sum"), ("n_tgt", "sum"), ("tmass", "sum"),
                ("rmass", "sum")])
        return rename_agg(f, {"n_occ_sum": "n_occ", "n_tgt_sum": "n_tgt",
                              "tmass_sum": "tmass", "rmass_sum": "rmass"},
                          ["doc_id", "n_occ", "n_tgt", "tmass", "rmass"])

    gds = read_table(f"{sf_dir}/documents.parquet",
                     columns=["doc_id", "text", "lang"]) \
        .map_batches(grams, batch_format="pyarrow")
    out = frame(aggregate(
        keyed(gds, "b", per_bucket), "doc_id",
        {c: (c, "sum") for c in ("n_occ", "n_tgt", "tmass", "rmass")}))

    # global totals: R = all bigram occurrences, T = the target slice's
    big_r = int(out["n_occ"].sum())
    big_t = int(out["n_tgt"].sum())
    bb = DSIR_BUCKETS
    num = out["tmass"].to_numpy().astype(np.float64) \
        * np.float64(big_r + bb)
    den = out["rmass"].to_numpy().astype(np.float64) \
        * np.float64(big_t + bb)
    out["importance"] = num / den
    return out.sort_values("doc_id").reset_index(drop=True) \
        [["doc_id", "n_occ", "tmass", "rmass", "importance"]]


DSIR_KEEP_FRAC = 4   # keep the top 1/4 by importance


def x_dsir_select(sf_dir: str) -> pd.DataFrame:
    """End-to-end DSIR selection: score every document with
    t_dsir_importance, keep the top 1/DSIR_KEEP_FRAC by importance
    (ties → smallest doc_id), and report the selected per-language mix —
    the visible effect of importance resampling is the target language's
    share rising versus the raw corpus.  The per-doc frame is already a
    driver-side result (the t_* contract); at corpus scale the selection
    becomes a distributed rank threshold (q_value_quantiles_by_type's
    bit-bucket pass over the importance column) followed by a filter —
    same semantics, no driver sort."""
    scores = t_dsir_importance(sf_dir)
    n = len(scores)
    k = -(-n // DSIR_KEEP_FRAC)  # ceil
    top = scores.sort_values(["importance", "doc_id"],
                             ascending=[False, True]).head(k)
    langs = read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "lang"]).to_pandas()
    sel = top.merge(langs, on="doc_id", how="left")
    out = sel.groupby("lang", as_index=False).agg(
        n_selected=("doc_id", "count"))
    out["n_selected"] = out["n_selected"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


def t_lm_perplexity_buckets(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus partition: rank documents by bigram-LM
    fluency (mean corpus bigram frequency, t_bigram_lm_score's
    integer-exact statistic) and cut into head / middle / tail
    tertiles — the standard quality-stratification step before
    sampling training data.  Ordering is the single float division
    total_freq/n_bigrams (identical expression in the oracle) with
    doc_id tie-break; boundaries at ceil(n/3) / ceil(2n/3).  The
    per-doc frame is a driver-side result by the t_* contract; at
    corpus scale the cut becomes a distributed rank threshold (the
    bit-bucket pass of q_value_quantiles_by_type) over the score."""
    scores = t_bigram_lm_score(sf_dir)
    s = scores.copy()
    s["score"] = s["total_freq"].to_numpy().astype(np.float64) \
        / s["n_bigrams"].to_numpy().astype(np.float64)
    s = s.sort_values(["score", "doc_id"],
                      ascending=[False, True]).reset_index(drop=True)
    n = len(s)
    c1 = -(-n // 3)          # ceil(n/3)
    c2 = -(-2 * n // 3)      # ceil(2n/3)
    bucket = np.full(n, "tail", object)
    bucket[:c2] = "middle"
    bucket[:c1] = "head"
    s["bucket"] = bucket
    out = s.groupby("bucket", as_index=False).agg(
        n_docs=("doc_id", "count"),
        total_bigrams=("n_bigrams", "sum"))
    out["n_docs"] = out["n_docs"].astype("int64")
    out["total_bigrams"] = out["total_bigrams"].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


NOVELTY_GRAM_N = 3


def t_gram_novelty(sf_dir: str) -> pd.DataFrame:
    """Corpus novelty per document: the fraction of its distinct
    NOVELTY_GRAM_N-grams whose FIRST occurrence (min doc_id) is this
    document — near-1 for original text, near-0 for recombinations of
    earlier content; the RefinedWeb-style signal for ordering a crawl
    by contribution.  ONE keyed exchange on the gram hash resolves global
    first-occurrence AND folds the per-doc partials in the same pass
    (every row of a gram lands in one bucket, so the bucket-local
    min(doc_id) IS global); the per-doc merge is keyed on doc_id.  Both
    engines hash grams with the shared md5-64 so even hash collisions
    (which would re-assign credit) are identical."""
    from .dedup import _gram_hash64
    from .joins import keyed, rename_agg

    word = re.compile(r"[a-z0-9]+")
    n = NOVELTY_GRAM_N

    def grams(t: pa.Table) -> pa.Table:
        hs_all, ids_all = [], []
        for did, text in zip(t.column("doc_id").to_pylist(),
                             t.column("text").to_pylist()):
            ws = word.findall((text or "").lower())
            if len(ws) < n:
                continue
            hs = {_gram_hash64(" ".join(ws[i:i + n]))
                  for i in range(len(ws) - n + 1)}
            arr = np.fromiter(hs, np.uint64, len(hs))
            hs_all.append(arr)
            ids_all.append(np.full(len(arr), did, np.int64))
        h = np.concatenate(hs_all) if hs_all else np.empty(0, np.uint64)
        d = np.concatenate(ids_all) if ids_all else np.empty(0, np.int64)
        return pa.table({
            "h": pa.array(h, pa.uint64()),
            "doc_id": pa.array(d, pa.int64()),
        })

    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_grams": pa.array([], pa.int64()),
                      "n_novel": pa.array([], pa.int64())})

    def per_bucket(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return empty
        fst = g.group_by("h").aggregate([("doc_id", "min")])
        idx = pc.index_in(g["h"], value_set=fst.column("h").combine_chunks())
        fd = pc.take(fst.column("doc_id_min").combine_chunks(), idx)
        novel = pc.cast(pc.equal(g["doc_id"], fd), pa.int64())
        f = pa.table({"doc_id": g["doc_id"],
                      "n_grams": pa.array(np.ones(g.num_rows, np.int64)),
                      "n_novel": novel}) \
            .group_by("doc_id").aggregate([("n_grams", "sum"),
                                           ("n_novel", "sum")])
        return rename_agg(f, {"n_grams_sum": "n_grams",
                              "n_novel_sum": "n_novel"},
                          ["doc_id", "n_grams", "n_novel"])

    gds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]) \
        .map_batches(grams, batch_format="pyarrow")
    out = frame(aggregate(keyed(gds, "h", per_bucket), "doc_id",
                          {"n_grams": ("n_grams", "sum"),
                           "n_novel": ("n_novel", "sum")}))
    out["novelty"] = out["n_novel"].to_numpy().astype(np.float64) \
        / out["n_grams"].to_numpy().astype(np.float64)
    return out.sort_values("doc_id").reset_index(drop=True)
