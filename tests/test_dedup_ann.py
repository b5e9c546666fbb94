"""Dedup / ANN operator tests with PLANTED duplicates (the driver's sf0.01
documents table has none, so the driver-side dedup checks pass on empty
output — these fixtures make the operators prove non-trivial behavior:
VERDICT round 1, "Exercise dedup on real duplicates")."""

import io
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def planted_docs_dir(tmp_path_factory):
    """documents.parquet with exact dups, near-dups, and unique docs."""
    d = tmp_path_factory.mktemp("planted")
    base = ("the quick brown fox jumps over the lazy dog and then "
            "wanders through the data pipeline looking for shingles")
    near = base.replace("lazy dog", "sleepy dog")  # 1-word change: near-dup
    rows = {
        "doc_id": list(range(1, 11)),
        "text": [
            base, base,                      # 1,2 exact dups
            near,                            # 3 near-dup of 1/2
            base + " extra tail of words",   # 4 weaker near-dup
            "completely different content about arrow record batches",
            "another unrelated document mentioning ray data streaming",
            "third unique doc on shuffle partitioning and skew salting",
            "fourth unique doc, object store spilling under pressure",
            "fifth unique doc: actor pools with warm parser state",
            "sixth unique doc closes out the planted corpus",
        ],
        "lang": ["en"] * 10,
        "source": ["plant"] * 10,
    }
    pq.write_table(pa.table(rows), str(d / "documents.parquet"))
    return str(d)


@pytest.fixture(scope="module")
def planted_embeddings_dir(tmp_path_factory):
    """embeddings.parquet with one planted near-identical vector pair."""
    d = tmp_path_factory.mktemp("planted_emb")
    rng = np.random.RandomState(7)
    n, dim = 40, 16
    m = rng.normal(size=(n, dim))
    m[1] = m[0] + rng.normal(scale=0.01, size=dim)  # vec 0 ~ vec 1
    rows = {
        "vec_id": list(range(n)),
        "embedding": [row.tolist() for row in m],
        "label": [i % 4 for i in range(n)],
    }
    pq.write_table(pa.table(rows), str(d / "embeddings.parquet"))
    return str(d)


def test_exact_dedup_groups_planted(ray_session, planted_docs_dir):
    from pdf_parse_new_ray.functions import dedup

    groups = dedup.d_dup_groups(planted_docs_dir)
    assert len(groups) == 1
    assert groups.loc[0, "keep_doc_id"] == 1
    assert groups.loc[0, "group_size"] == 2


def test_dedup_driver_folds_match_bucketed(ray_session, monkeypatch):
    """The exact-dedup family's driver folds must equal the forced
    md5-bucketed exchanges row for row (sf0.001)."""
    from pdf_parse_new_ray.functions import dedup, joins

    sf = "/root/testdata/sf0.001"
    from pdf_parse_new_ray.functions import text as tx

    queries = [dedup.d_exact_dedup, dedup.d_paragraph_dedup,
               dedup.d_dedup_keep_longest, dedup.d_minhash_pairs,
               dedup.x_neardup_keep_best, tx.t_tfidf_top_terms,
               tx.t_gram_novelty, tx.t_sequence_pack]
    fast = [q(sf) for q in queries]
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    for q, want in zip(queries, fast):
        pd.testing.assert_frame_equal(q(sf), want)


def test_minhash_finds_planted_near_dups(ray_session, planted_docs_dir):
    from pdf_parse_new_ray.functions import dedup

    pairs = dedup.d_minhash_pairs(planted_docs_dir, threshold=0.5)
    got = set(zip(pairs["a"], pairs["b"]))
    assert (1, 2) in got        # exact dup pair (est_jaccard 1.0)
    assert (1, 3) in got and (2, 3) in got  # near-dup cluster
    exact = pairs[(pairs["a"] == 1) & (pairs["b"] == 2)]
    assert float(exact["est_jaccard"].iloc[0]) == 1.0


def test_ngram_jaccard_verifies_planted(ray_session, planted_docs_dir):
    from pdf_parse_new_ray.functions import dedup

    out = dedup.d_ngram_jaccard(planted_docs_dir, threshold=0.3)
    got = {(a, b): j for a, b, j in zip(out["a"], out["b"], out["jaccard"])}
    assert got[(1, 2)] == 1.0           # identical texts
    assert 0.3 <= got[(1, 3)] < 1.0     # near-dup verified below 1


def test_hot_bucket_caps_to_star_pairs(ray_session, tmp_path):
    """A flood of identical docs (> BUCKET_PAIR_CAP) must NOT produce
    O(n^2) pairs: the bucket degrades to star pairs against the min id,
    keeping every member connected to the group root."""
    from pdf_parse_new_ray.functions import dedup

    n = dedup.BUCKET_PAIR_CAP + 44
    rows = {
        "doc_id": list(range(n)),
        "text": ["identical flood document body with enough words to shingle"] * n,
        "lang": ["en"] * n,
        "source": ["flood"] * n,
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    pairs = dedup.d_minhash_pairs(str(tmp_path), threshold=0.5)
    # star fallback: n-1 pairs, all rooted at doc 0 — not n*(n-1)/2
    assert len(pairs) == n - 1
    assert set(pairs["a"]) == {0}
    assert set(pairs["b"]) == set(range(1, n))
    assert (pairs["est_jaccard"] == 1.0).all()


def test_embedding_neardup_planted(ray_session, planted_embeddings_dir):
    from pdf_parse_new_ray.functions import dedup

    out = dedup.d_embedding_neardup(planted_embeddings_dir, threshold=0.8)
    assert list(zip(out["id_a"], out["id_b"]))[0] == (0, 1)
    assert out.loc[0, "cosine"] > 0.99


def test_knn_lsh_recall_vs_bruteforce(ray_session):
    """Distributed LSH top-k holds recall@5 >= 0.9 against exact brute
    force on the sf0.01 embeddings (VERDICT round-1 done criterion)."""
    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.01"
    exact = ann.e_knn_bruteforce(sf)
    approx = ann.e_knn_lsh(sf)
    hits = tot = 0
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx[approx["query_id"] == qid]["vec_id"])
        hits += len(truth & got)
        tot += len(truth)
    assert tot > 0
    assert hits / tot >= 0.9, f"recall {hits / tot:.2f}"


def test_knn_lsh_matches_bruteforce_on_colliders(ray_session, planted_embeddings_dir):
    """Where LSH reports a neighbor, its cosine must equal the exact one
    (scoring is exact; only candidate generation is approximate)."""
    from pdf_parse_new_ray.functions import ann

    exact = ann.e_knn_bruteforce(planted_embeddings_dir, n_queries=3, k=3)
    approx = ann.e_knn_lsh(planted_embeddings_dir, n_queries=3, k=3)
    ex = {(q, v): c for q, v, c in zip(exact["query_id"], exact["vec_id"], exact["cosine"])}
    for q, v, c in zip(approx["query_id"], approx["vec_id"], approx["cosine"]):
        if (q, v) in ex:
            assert abs(ex[(q, v)] - c) < 1e-9


def test_embedding_neardup_lsh_matches_brute(ray_session, planted_embeddings_dir,
                                             monkeypatch):
    """The LSH-bucketed scale path must find the planted near-identical
    pair with exact cosines equal to the brute-force plan — on BOTH the
    driver fold and the forced distributed exchanges."""
    from pdf_parse_new_ray.functions import dedup, joins

    brute = dedup.d_embedding_neardup(planted_embeddings_dir, method="brute")
    lsh = dedup.d_embedding_neardup(planted_embeddings_dir, method="lsh")
    assert list(zip(lsh["id_a"], lsh["id_b"])) == list(zip(brute["id_a"], brute["id_b"]))
    assert (lsh["cosine"] == brute["cosine"]).all()
    assert (0, 1) in set(zip(lsh["id_a"], lsh["id_b"]))
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    dist = dedup.d_embedding_neardup(planted_embeddings_dir, method="lsh")
    pd.testing.assert_frame_equal(lsh, dist)


def test_q3_cogroup_semi_join_matches_broadcast(ray_session, monkeypatch):
    """Forcing the distributed semi-join path (broadcast gate at 0) must
    produce the same q3 result as the broadcast value_set path."""
    from pdf_parse_new_ray.functions import joins, relational

    sf = "/root/testdata/sf0.001"
    base = relational.q3_top_orders(sf)
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    forced = relational.q3_top_orders(sf)
    import pandas as pd

    pd.testing.assert_frame_equal(base, forced)


def test_q5_cogroup_customer_side_matches_broadcast(ray_session, monkeypatch):
    from pdf_parse_new_ray.functions import joins, relational

    sf = "/root/testdata/sf0.001"
    base = relational.q5_nation_revenue(sf)
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    forced = relational.q5_nation_revenue(sf)
    import pandas as pd

    pd.testing.assert_frame_equal(base, forced)


def test_minhash_cogroup_attach_matches_broadcast(ray_session, planted_docs_dir, monkeypatch):
    from pdf_parse_new_ray.functions import dedup

    base = dedup.d_minhash_pairs(planted_docs_dir, threshold=0.5)
    monkeypatch.setattr(dedup, "BROADCAST_PAIR_ROWS", 0)
    forced = dedup.d_minhash_pairs(planted_docs_dir, threshold=0.5)
    import pandas as pd

    pd.testing.assert_frame_equal(base, forced)


def test_anti_join_customers_without_orders(ray_session, tmp_path):
    """The sf tables give every customer an order (the driver check passes
    on empty output), so plant a corpus where the anti-join has real work."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    pq.write_table(pa.table({
        "c_custkey": [1, 2, 3, 4, 5],
        "c_name": [f"Customer#{i}" for i in range(1, 6)],
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": [10, 11, 12, 13],
        "o_custkey": [1, 1, 3, 5],
    }), str(tmp_path / "orders.parquet"))
    out = relational.q_customers_without_orders(str(tmp_path))
    assert list(out["c_custkey"]) == [2, 4]
    assert list(out["c_name"]) == ["Customer#2", "Customer#4"]
    # sf table: empty result with a stable typed schema
    empty = relational.q_customers_without_orders("/root/testdata/sf0.001")
    assert list(empty.columns) == ["c_custkey", "c_name"] and len(empty) == 0


def test_knn_ivf_recall_vs_bruteforce(ray_session):
    """IVF coarse-quantizer top-k holds recall@5 >= 0.9 against exact
    brute force on the sf0.01 embeddings; reported cosines are exact
    (only candidate generation is approximate)."""
    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.01"
    exact = ann.e_knn_bruteforce(sf)
    approx = ann.e_knn_ivf(sf)
    hits = tot = 0
    exact_cos = {(int(r.query_id), int(r.vec_id)): r.cosine
                 for r in exact.itertuples()}
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(approx[approx["query_id"] == qid]["vec_id"])
        hits += len(truth & got)
        tot += len(truth)
    assert tot > 0
    assert hits / tot >= 0.9, f"recall {hits / tot:.2f}"
    for r in approx.itertuples():
        key = (int(r.query_id), int(r.vec_id))
        if key in exact_cos:
            assert abs(r.cosine - exact_cos[key]) < 1e-9


@pytest.fixture(scope="module")
def planted_para_dir(tmp_path_factory):
    """documents.parquet with cross-document repeated PARAGRAPHS."""
    d = tmp_path_factory.mktemp("planted_para")
    boiler = "Subscribe to our newsletter for updates."
    legal = "All rights reserved.\nTerms apply."
    rows = {
        "doc_id": [1, 2, 3, 4],
        "text": [
            f"Unique intro one.\n\n{boiler}\n\nBody text alpha.",
            f"Unique intro two.\n\n{boiler}\n\n{legal}",
            f"{legal}\n\nSomething else entirely.",
            "No shared paragraphs here at all.\n\nJust this doc.",
        ],
        "lang": ["en"] * 4,
        "source": ["plant"] * 4,
    }
    pq.write_table(pa.table(rows), str(d / "documents.parquet"))
    return str(d)


def test_paragraph_dedup_planted(ray_session, planted_para_dir):
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import dedup

    out = dedup.d_paragraph_dedup(planted_para_dir)
    # boilerplate para in docs 1+2; legal para in docs 2+3
    assert len(out) == 2
    assert sorted(out.n_docs) == [2, 2]
    assert sorted(out.n_occurrences) == [2, 2]
    # exact agreement with the SQL oracle on the planted table
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{planted_para_dir}/documents.parquet')")
    ora = con.execute(entry.oracle_sql()["d_paragraph_dedup"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)


def test_repetition_signals_known_values(ray_session, tmp_path):
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import text as tx

    rows = {
        "doc_id": [1, 2, 3],
        "text": [
            "same line\nsame line\nsame line\nother",   # 2/4 dup lines
            "alpha beta alpha beta alpha beta gamma",   # dominant bigram
            "",                                          # degenerate
        ],
        "lang": ["en"] * 3,
        "source": ["t"] * 3,
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = tx.t_repetition_signals(str(tmp_path)).set_index("doc_id")
    assert out.loc[1, "n_lines"] == 4
    assert out.loc[1, "dup_line_frac"] == 0.5
    # "alpha beta" appears 3x of 6 bigrams
    assert out.loc[2, "top_bigram_frac"] == 0.5
    assert out.loc[3, "dup_line_frac"] == 0.0
    assert out.loc[3, "top_bigram_frac"] == 0.0
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    ora = con.execute(entry.oracle_sql()["t_repetition_signals"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.reset_index().sort_index(axis=1), ora.sort_index(axis=1),
        check_dtype=False)


def test_dup_clusters_planted(ray_session, monkeypatch):
    """Connected components over near-dup edges: chain A-B-C merges into
    one cluster; the distributed label-propagation path must agree with
    the driver union-find path."""
    from pdf_parse_new_ray.functions import dedup

    edges = pd.DataFrame({"a": [1, 2, 10, 30, 31],
                          "b": [2, 3, 11, 31, 32]})
    small = dedup.cluster_edges(edges)
    assert dict(zip(small.doc_id, small.cluster)) == {
        1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 30: 30, 31: 30, 32: 30}
    monkeypatch.setattr(dedup, "CLUSTER_BROADCAST_EDGES", 0)
    big = dedup.cluster_edges(edges)
    pd.testing.assert_frame_equal(small, big.astype(small.dtypes.to_dict()))


def test_dup_clusters_from_minhash(ray_session, planted_docs_dir):
    from pdf_parse_new_ray.functions import dedup

    out = dedup.d_dup_clusters(planted_docs_dir, threshold=0.5)
    # docs 1,2 exact dups + 3 near-dup → one cluster rooted at 1
    by = dict(zip(out.doc_id, out.cluster))
    assert by[1] == 1 and by[2] == 1 and by[3] == 1


def test_tfidf_known_values(ray_session, tmp_path):
    import math

    from pdf_parse_new_ray.functions import text as tx

    rows = {
        "doc_id": [1, 2, 3],
        "text": ["apple apple banana", "banana cherry", "cherry cherry date"],
        "lang": ["en"] * 3, "source": ["t"] * 3,
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = tx.t_tfidf_top_terms(str(tmp_path)).set_index("doc_id")
    # doc 1: apple tf=2 df=1 → 2*ln(3); beats banana (1*ln(1.5))
    assert out.loc[1, "term"] == "apple"
    assert abs(out.loc[1, "tfidf"] - round(2 * math.log(3), 6)) < 1e-9
    # doc 2: cherry df=2 vs banana df=2, equal tfidf → term ASC tie-break
    assert out.loc[2, "term"] == "banana"
    # doc 3: date tf=1 df=1 → ln(3) vs cherry 2*ln(1.5)=0.81 → ln(3)=1.10
    assert out.loc[3, "term"] == "date"


def test_rollup_levels_consistent(ray_session):
    from pdf_parse_new_ray.functions import relational

    out = relational.q_rollup_revenue("/root/testdata/sf0.001")
    total = out[out.l_returnflag.isna()]
    assert len(total) == 1
    detail = out[out.l_linestatus.notna()]
    sub = out[out.l_returnflag.notna() & out.l_linestatus.isna()]
    assert abs(detail.revenue.sum() - float(total.revenue.iloc[0])) < 1.0
    assert int(detail.n_items.sum()) == int(total.n_items.iloc[0])
    assert int(sub.n_items.sum()) == int(total.n_items.iloc[0])


def test_scrub_pii_planted(ray_session, tmp_path):
    """PII scrub on planted emails/digits: Ray's Arrow-RE2 path must agree
    exactly with the DuckDB oracle (the sf corpus has no PII, so this is
    the non-vacuous check)."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import text as tx

    rows = {
        "doc_id": [1, 2, 3],
        "text": [
            "contact bob.smith@example.com or call 555 1234 ext 9",
            "no pii here at all",
            "two mails a@b.co c.d@e.org and id 0042",
        ],
        "lang": ["en"] * 3,
        "source": ["t"] * 3,
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = tx.t_scrub_pii(str(tmp_path)).set_index("doc_id")
    assert out.loc[1, "n_emails"] == 1 and out.loc[1, "n_numbers"] == 3
    assert out.loc[1, "scrubbed"] == \
        "contact <EMAIL> or call <NUM> <NUM> ext <NUM>"
    assert out.loc[2, "n_emails"] == 0 and out.loc[2, "n_numbers"] == 0
    # digits inside emails are scrubbed as <EMAIL>, not double-counted
    assert out.loc[3, "n_emails"] == 2 and out.loc[3, "n_numbers"] == 1
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    ora = con.execute(entry.oracle_sql()["t_scrub_pii"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.reset_index().sort_index(axis=1), ora.sort_index(axis=1),
        check_dtype=False)


def test_top_bigrams_known_counts(ray_session, tmp_path):
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import text as tx

    rows = {
        "doc_id": [1, 2],
        "text": ["red fox red fox red", "red fox blue fox"],
        "lang": ["en"] * 2,
        "source": ["t"] * 2,
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = tx.t_top_bigrams(str(tmp_path), k=3)
    # "red fox": 2 (doc1) + 1 (doc2) = 3; "fox red": 2; "blue fox"/"fox
    # blue": 1 each → "blue fox" wins the tie by gram ASC
    assert list(out.gram) == ["red fox", "fox red", "blue fox"]
    assert list(out.n) == [3, 2, 1]
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    sql = entry.oracle_sql()["t_top_bigrams"].replace("LIMIT 20", "LIMIT 3")
    ora = con.execute(sql).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)
    # forcing the gram-bucketed distributed merge must match the driver fold
    import pytest as _pytest

    mp = _pytest.MonkeyPatch()
    try:
        mp.setattr(tx, "DSIR_BROADCAST_ROWS", 0)
        dist = tx.t_top_bigrams(str(tmp_path), k=3)
        pd.testing.assert_frame_equal(out, dist)
    finally:
        mp.undo()


def test_above_median_by_lang_exact(ray_session, tmp_path):
    """Even-count corpus: quantile_disc takes the LOWER middle element —
    the Ray value-count walk must pick the same one as DuckDB."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import text as tx

    texts = ["a" * n for n in (10, 20, 30, 40)]
    rows = {
        "doc_id": [1, 2, 3, 4],
        "text": texts,
        "lang": ["en", "en", "fr", "fr"],
        "source": ["t"] * 4,
        "n_chars": [len(t) for t in texts],
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = tx.t_above_median_by_lang(str(tmp_path))
    # median_disc of (10,20,30,40) = 20 → above: 30(fr), 40(fr)
    assert dict(zip(out.lang, out.n_docs)) == {"fr": 2}
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    ora = con.execute(entry.oracle_sql()["t_above_median_by_lang"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)


def test_running_balance_exact_and_write_dir(ray_session, tmp_path):
    """Integer-cents prefix sum equals the SQL window sum exactly, and the
    write_dir scale hatch streams the same rows to parquet."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import relational

    sf = "/root/testdata/sf0.001"
    out = relational.q_running_balance(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW orders AS SELECT * FROM "
                f"read_parquet('{sf}/orders.parquet')")
    ora = con.execute(entry.oracle_sql()["q_running_balance"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)
    # final running_total per customer == their plain sum
    import pyarrow.parquet as _pq
    last = out.groupby("o_custkey").last()["running_total"]
    sums = con.execute(
        "SELECT o_custkey, SUM(CAST(round(o_totalprice*100) AS BIGINT))/100.0"
        " AS s FROM orders GROUP BY o_custkey ORDER BY o_custkey").fetchdf()
    assert np.allclose(last.sort_index().to_numpy(),
                       sums.set_index("o_custkey")["s"].sort_index().to_numpy())
    d = str(tmp_path / "rb_out")
    metrics = relational.q_running_balance(sf, write_dir=d)
    assert int(metrics.n_rows.iloc[0]) == len(out)
    files = list((tmp_path / "rb_out").glob("*.parquet"))
    assert files
    n = sum(_pq.read_metadata(str(f)).num_rows for f in files)
    assert n == len(out)


def test_doc_sample_deterministic(ray_session, tmp_path):
    """Hash sample is content-independent, reproducible, and agrees with
    the md5-prefix oracle row-for-row."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import text as tx

    n = 64
    rows = {
        "doc_id": list(range(n)),
        "text": [f"doc {i}" for i in range(n)],
        "lang": ["en", "fr"] * (n // 2),
        "source": ["t"] * n,
        "n_chars": [5 + (i % 7) for i in range(n)],
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out1 = tx.t_doc_sample(str(tmp_path))
    out2 = tx.t_doc_sample(str(tmp_path))
    pd.testing.assert_frame_equal(out1, out2)  # deterministic
    assert 0 < len(out1) < n                   # a strict subset
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    ora = con.execute(entry.oracle_sql()["t_doc_sample"]).fetchdf()
    pd.testing.assert_frame_equal(
        out1.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)


def test_rolling_avg_frame_semantics(ray_session, tmp_path):
    """Bounded-frame rolling mean: frame clamps at each user's first rows,
    and the integer-microunit sums agree with the SQL window bit-for-bit."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import relational

    sf = "/root/testdata/sf0.001"
    out = relational.q_rolling_avg(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    ora = con.execute(entry.oracle_sql()["q_rolling_avg"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)
    # hand-check one user: first row's frame is itself
    u = out[out.user_id == out.user_id.iloc[0]]
    ev = con.execute(
        "SELECT value FROM events WHERE user_id = ? ORDER BY ts, event_id",
        [int(u.user_id.iloc[0])]).fetchdf()["value"].to_numpy()
    assert abs(u.rolling_avg.iloc[0] -
               round(ev[0] * 1e6) / 1e6) < 1e-12
    k = min(len(ev) - 1, 7)
    lo = max(0, k - 4)
    expect = sum(round(v * 1e6) for v in ev[lo:k + 1]) / (1e6 * (k + 1 - lo))
    assert abs(u.rolling_avg.iloc[k] - expect) < 1e-12


def test_event_type_pivot_consistent(ray_session):
    """Pivot counts must re-sum to the raw type counts, and agree with
    the conditional-aggregation oracle."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import relational

    sf = "/root/testdata/sf0.001"
    out = relational.q_event_type_pivot(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    ora = con.execute(entry.oracle_sql()["q_event_type_pivot"]).fetchdf()
    pd.testing.assert_frame_equal(
        out.sort_index(axis=1), ora.sort_index(axis=1), check_dtype=False)
    raw = con.execute("SELECT event_type, count(*) AS n FROM events "
                      "GROUP BY event_type").fetchdf()
    for ty, n in zip(raw.event_type, raw.n):
        assert int(out[f"n_{ty}"].sum()) == int(n)

def test_window_join_variants_exact(ray_session):
    """q_event_lag / q_user_first_last / q_customers_with_orders /
    q_orders_above_customer_avg / q_monthly_revenue /
    q_daily_distinct_users equal their SQL oracles exactly at sf0.001
    (LAG nulls on first events, semi-join hits, correlated avg strict
    inequality, calendar truncation, exact distinct counts)."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import relational

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("events", "orders", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    sqls = entry.oracle_sql()
    for name in ("q_event_lag", "q_user_first_last",
                 "q_customers_with_orders", "q_orders_above_customer_avg",
                 "q_monthly_revenue", "q_daily_distinct_users"):
        out = getattr(relational, name)(sf)
        ora = con.execute(sqls[name]).fetchdf()
        assert len(out) > 0, name
        pd.testing.assert_frame_equal(
            out.sort_index(axis=1), ora.sort_index(axis=1),
            check_dtype=False), name
    # lag semantics: every user's first event has null prev_type
    lag = relational.q_event_lag(sf)
    firsts = lag.sort_values(["user_id", "ts", "event_id"]) \
        .drop_duplicates("user_id", keep="first")
    assert firsts["prev_type"].isna().all()
    assert lag["gap_us"].dropna().ge(0).all()

def test_simhash_and_langid_oracled(ray_session):
    """d_simhash (md5-token 64-bit simhash) and t_langid (stopword-ratio
    language ID) equal their DuckDB oracles exactly — these two flipped
    from rows-only to fully SQL-oracled; simhash also keeps its
    near-dup property (planted paraphrase pairs land within a small
    hamming distance, unrelated texts far apart)."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import dedup
    from pdf_parse_new_ray.functions import text as tx

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    sqls = entry.oracle_sql()
    for name, fn in (("d_simhash", dedup.d_simhash),
                     ("t_langid", tx.t_langid)):
        out = fn(sf)
        ora = con.execute(sqls[name]).fetchdf()
        assert len(out) > 0
        pd.testing.assert_frame_equal(
            out.sort_index(axis=1), ora.sort_index(axis=1),
            check_dtype=False), name
    h = dedup.SimHasher()
    a = h.simhash("the quick brown fox jumps over the lazy dog again")
    b = h.simhash("the quick brown fox leaps over the lazy dog again")
    c = h.simhash("completely unrelated text about parquet shuffles")
    assert bin(a ^ b).count("1") < bin(a ^ c).count("1")
    assert h.simhash("") == 0


def test_funnel_strict_ordering(ray_session, tmp_path):
    """A click BEFORE the user's first view must not count toward the
    funnel; a later click does; purchase requires a prior qualified
    click."""
    import pandas as pd

    from pdf_parse_new_ray.functions import relational

    rows = []
    t0 = pd.Timestamp("2024-01-01")

    def ev(uid, typ, minutes):
        rows.append({"event_id": len(rows), "ts": t0 + pd.Timedelta(minutes=minutes),
                     "user_id": uid, "event_type": typ, "value": 1.0,
                     "props": "{}"})

    # user 1: full ordered funnel
    ev(1, "view", 0); ev(1, "click", 5); ev(1, "purchase", 10)
    # user 2: click precedes the only view → stops at view
    ev(2, "click", 0); ev(2, "view", 5)
    # user 3: view + click, purchase BEFORE the click → stops at click
    ev(3, "purchase", 0); ev(3, "view", 1); ev(3, "click", 2)
    # user 4: never views
    ev(4, "click", 0); ev(4, "purchase", 1)
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "events.parquet"))
    out = relational.q_funnel(str(tmp_path))
    got = dict(zip(out["stage"], out["n_users"]))
    assert got == {"view": 3, "click": 2, "purchase": 1}


def test_dedup_keep_longest_policy(ray_session, tmp_path):
    """Per fingerprint the longest doc survives; ties break to the
    smallest doc_id.  (n_chars here is a stored column, so planted
    values need not match len(text).)"""
    from pdf_parse_new_ray.functions import dedup

    rows = {
        "doc_id": [1, 2, 3, 4, 5],
        "text": ["same body", "same body", "same body", "other", "other"],
        "lang": ["en"] * 5,
        "source": ["t"] * 5,
        "n_chars": [10, 30, 30, 7, 7],
    }
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = dedup.d_dedup_keep_longest(str(tmp_path))
    by = {r.fingerprint: r for r in out.itertuples()}
    import hashlib

    same = hashlib.md5(b"same body").hexdigest()
    other = hashlib.md5(b"other").hexdigest()
    assert by[same].keep_doc_id == 2 and by[same].keep_n_chars == 30
    assert by[same].group_size == 3
    assert by[other].keep_doc_id == 4 and by[other].group_size == 2


def test_cohort_retention_weeks(ray_session, tmp_path):
    """Cohort = ISO week (Monday) of a user's first event; offsets count
    whole weeks; a user active twice in one week counts once."""
    import pandas as pd

    from pdf_parse_new_ray.functions import relational

    rows = []

    def ev(uid, day_str):
        rows.append({"event_id": len(rows), "ts": pd.Timestamp(day_str),
                     "user_id": uid, "event_type": "view", "value": 1.0,
                     "props": "{}"})

    # 2024-01-01 is a Monday
    ev(1, "2024-01-02"); ev(1, "2024-01-03")      # week 0 twice → once
    ev(1, "2024-01-09")                            # week 1
    ev(2, "2024-01-10"); ev(2, "2024-01-22")       # cohort wk of Jan 8; +2
    pq.write_table(pa.Table.from_pylist(rows), str(tmp_path / "events.parquet"))
    out = relational.q_cohort_retention(str(tmp_path))
    cells = {(str(r.cohort_week.date()), int(r.week_offset)): int(r.n_users)
             for r in out.itertuples()}
    assert cells == {("2024-01-01", 0): 1, ("2024-01-01", 1): 1,
                     ("2024-01-08", 0): 1, ("2024-01-08", 2): 1}


def test_decontamination_planted(ray_session, tmp_path):
    """Plant a training doc that copies a 13-word span from an eval doc
    (doc_id % 37 == 0); the overlap count must be exact (number of
    distinct shared 13-gram shingles)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import text as tx

    eval_words = " ".join(f"w{i}" for i in range(15))   # 15 words
    clean = " ".join(f"z{i}" for i in range(20))
    contaminated = "intro " + eval_words + " outro"     # 17 words
    pq.write_table(pa.table({
        "doc_id": [37, 1, 2],
        "text": [eval_words, contaminated, clean],
    }), str(tmp_path / "documents.parquet"))
    out = tx.t_decontamination(str(tmp_path))
    assert list(out["doc_id"]) == [1]
    # eval doc has 3 distinct 13-grams; contaminated doc contains all 3
    # of them among its 5 (17-13+1) shingles
    assert list(out["n_grams"]) == [5]
    assert list(out["n_overlap"]) == [3]


def test_c4_filter_planted(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import text as tx

    good = ("All the kings rode out. " * 20).strip()     # 100 words, 20 sents
    short = "Tiny. Text. Here."                           # < 50 words
    brace = good + " {code}"
    lorem = good + " lorem ipsum dolor"
    pq.write_table(pa.table({
        "source": ["a", "a", "b", "b"],
        "text": [good, short, brace, lorem],
    }), str(tmp_path / "documents.parquet"))
    out = tx.t_c4_quality_filter(str(tmp_path))
    assert list(out["source"]) == ["a", "b"]
    assert list(out["n_docs"]) == [2, 2]
    assert list(out["n_kept"]) == [1, 0]
    assert list(out["keep_rate"]) == [0.5, 0.0]


def test_lang_mix_sample_balances(ray_session):
    """Every language down-samples toward the smallest stratum's size;
    thresholds are exact integers so the result is reproducible."""
    from pdf_parse_new_ray.functions import text as tx

    out = tx.t_lang_mix_sample("/root/testdata/sf0.01")
    assert (out["n_sampled"] <= out["n_total"]).all()
    mn = int(out["n_total"].min())
    # sampled counts concentrate near min-count (hash noise is ~sqrt(n))
    assert (abs(out["n_sampled"] - mn) <= 4 * (mn ** 0.5) + 2).all()
    again = tx.t_lang_mix_sample("/root/testdata/sf0.01")
    import pandas as pd
    pd.testing.assert_frame_equal(out, again)


def test_pareto_customers_halves_revenue(ray_session):
    from pdf_parse_new_ray.functions import relational

    out = relational.q_pareto_customers("/root/testdata/sf0.01")
    assert len(out) > 0
    # kept customers are exactly those whose exclusive prefix < 50%:
    # the last kept row crosses the half mark, all others are below it
    assert (out["cum_share"].iloc[:-1] < 0.5 + 1e-9).all() or \
        out["cum_share"].iloc[-1] >= 0.5
    # descending revenue with monotone cumulative share
    assert (out["revenue"].diff().dropna() <= 1e-9).all()
    assert (out["cum_share"].diff().dropna() > 0).all()
    # write_dir scale hatch: streams to parquet, returns metrics only
    import shutil
    shutil.rmtree("/tmp/test_pareto_out", ignore_errors=True)
    m = relational.q_pareto_customers(
        "/root/testdata/sf0.01", write_dir="/tmp/test_pareto_out")
    assert int(m["n_rows"][0]) == len(out)


def test_bloom_semi_join_matches_exact(ray_session, tmp_path):
    """The bloom prune never changes results (false positives are removed
    by the exact cogroup): compare against a no-bloom pandas join on a
    planted table that *forces* bloom false positives by key collision
    density (tiny bloom would be needed; here we just assert equality)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    rng = np.random.default_rng(7)
    n_orders = 500
    keys = np.arange(1, n_orders + 1)
    price = rng.uniform(1000, 500000, n_orders).round(2)
    pq.write_table(pa.table({
        "o_orderkey": keys, "o_totalprice": price,
    }), str(tmp_path / "orders.parquet"))
    li_key = rng.choice(keys, 3000)
    ep = rng.uniform(10, 90000, 3000).round(2)
    disc = rng.choice(np.arange(0, 11) / 100.0, 3000)
    pq.write_table(pa.table({
        "l_orderkey": li_key, "l_extendedprice": ep, "l_discount": disc,
    }), str(tmp_path / "lineitem.parquet"))

    out = relational.q_bloom_semi_join(str(tmp_path))
    df = pd.DataFrame({"k": li_key, "ep": ep, "d": disc})
    hot = set(keys[price > relational.BLOOM_PRICE_MIN])
    df = df[df["k"].isin(hot)]
    units = (np.round(df["ep"] * 100).astype("int64")
             * (100 - np.round(df["d"] * 100).astype("int64")))
    exp = df.assign(u=units).groupby("k").agg(
        n_items=("u", "size"), u=("u", "sum")).reset_index()
    exp["revenue"] = ((exp["u"] + 50) // 100) / 100.0
    exp = exp.rename(columns={"k": "o_orderkey"}) \
        .sort_values("o_orderkey").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out, exp[["o_orderkey", "n_items", "revenue"]],
        check_dtype=False)
    # the above-gate cogroup verify must agree with the fused
    # broadcast verify bit for bit
    from pdf_parse_new_ray.functions import joins

    orig = joins.LOCAL_FOLD_ROWS
    joins.LOCAL_FOLD_ROWS = 0
    try:
        forced = relational.q_bloom_semi_join(str(tmp_path))
    finally:
        joins.LOCAL_FOLD_ROWS = orig
    pd.testing.assert_frame_equal(out, forced)


def test_knn_filtered_respects_predicate(ray_session):
    """Every returned neighbor shares the query's label, and within the
    label stratum the ranking equals exact brute force."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.01"
    out = ann.e_knn_filtered(sf)
    t = pq.read_table(f"{sf}/embeddings.parquet").to_pandas()
    lbl = dict(zip(t["vec_id"], t["label"]))
    for _, r in out.iterrows():
        assert lbl[r["query_id"]] == lbl[r["vec_id"]]
    # exact check for one query via numpy
    q_ids, q, q_labels = ann._query_matrix_with_labels(sf, 1)
    emb = np.stack(t["embedding"].to_numpy())
    norms = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    qv = (q / np.linalg.norm(q, axis=1, keepdims=True))[0]
    cos = norms @ qv
    cand = t[(t["label"].to_numpy() == q_labels[0])
             & (t["vec_id"].to_numpy() != q_ids[0])]
    top = cand.assign(c=cos[cand.index]).sort_values(
        ["c", "vec_id"], ascending=[False, True]).head(5)
    got = out[out["query_id"] == q_ids[0]]
    assert list(got["vec_id"]) == list(top["vec_id"])


def test_centroid_assign_planted(ray_session, tmp_path):
    """Two well-separated planted clusters with one mislabeled point:
    the confusion matrix catches exactly that point."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import ann

    rng = np.random.default_rng(11)
    a = rng.normal(0, 0.05, (20, 8)) + np.r_[np.ones(4), np.zeros(4)]
    b = rng.normal(0, 0.05, (20, 8)) - np.r_[np.zeros(4), np.ones(4)]
    emb = np.vstack([a, b]).astype(np.float32)
    labels = np.array([0] * 20 + [1] * 20, np.int32)
    labels[5] = 1  # a point in cluster A carrying label B
    pq.write_table(pa.table({
        "vec_id": np.arange(40, dtype=np.int64),
        "embedding": pa.array(list(emb), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))
    out = ann.e_centroid_assign(str(tmp_path))
    conf = {(r.label, r.assigned): r.n for r in out.itertuples()}
    # the mislabeled point sits at cluster A, so it is assigned to
    # whichever centroid is nearer — centroid 0 (19 A pts) pulls it in
    assert conf[(0, 0)] == 19
    assert conf[(1, 0)] == 1
    assert conf[(1, 1)] == 20


def test_event_transitions_planted(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    ts = pd.to_datetime([
        "2024-01-01 10:00", "2024-01-01 10:01", "2024-01-01 10:02",
        "2024-01-01 09:00", "2024-01-01 09:30",
    ])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([7, 7, 7, 8, 8], pa.int64()),
        "event_type": ["view", "click", "view", "view", "purchase"],
    }), str(tmp_path / "events.parquet"))
    out = relational.q_event_transitions(str(tmp_path))
    got = {(r.prev_type, r.event_type): r.n for r in out.itertuples()}
    assert got == {("view", "click"): 1, ("click", "view"): 1,
                   ("view", "purchase"): 1}


def test_incremental_dedup_index(ray_session, tmp_path):
    """The sharded index carries state BETWEEN batches: a fingerprint
    accepted in batch 0 (even doc_ids) suppresses its batch-1 twin."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import dedup

    pq.write_table(pa.table({
        "doc_id": [0, 2, 4, 1, 3, 5],
        "text": ["A", "B", "A",     # batch 0: A dup inside the batch
                 "A", "B", "C"],    # batch 1: A,B seen before; C new
    }), str(tmp_path / "documents.parquet"))
    out = dedup.d_incremental_dedup(str(tmp_path))
    rows = {int(r.batch): r for r in out.itertuples()}
    assert rows[0].n_docs == 3 and rows[0].n_unique == 2 \
        and rows[0].n_accepted == 2
    assert rows[1].n_docs == 3 and rows[1].n_unique == 3 \
        and rows[1].n_accepted == 1


def test_incremental_dedup_on_one_cpu(ray_session):
    """d_incremental_dedup finishes on a one-CPU Ray instance, with the
    frame of this session's four CPUs.  Its 16 index shards reserve no
    CPU, so every Ray Data task after them still gets a whole one (at 0.1
    CPU each they held 1.6 CPUs and the next task waited for good)."""
    import subprocess
    import sys

    from pdf_parse_new_ray.functions import dedup

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sf = os.path.join(repo, "perfbench", "data", "sf0.001")
    script = (
        "import sys, ray\n"
        f"sys.path.insert(0, {repo!r})\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False, "
        "logging_level='ERROR')\n"
        "from ray.data import DataContext\n"
        "DataContext.get_current().enable_progress_bars = False\n"
        "from pdf_parse_new_ray.functions import dedup\n"
        f"print(dedup.d_incremental_dedup({sf!r}).to_json())\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=180)
    assert run.returncode == 0, run.stderr[-2000:]
    one_cpu = pd.read_json(io.StringIO(run.stdout.strip().splitlines()[-1]))
    pd.testing.assert_frame_equal(one_cpu, dedup.d_incremental_dedup(sf))


def test_late_data_drop_watermark(ray_session, tmp_path):
    """Per-user watermark: an event more than 10 minutes older than the
    user's running max is dropped; a mildly-late one survives."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    ts = pd.to_datetime([
        "2024-01-01 10:00",   # u7 e1
        "2024-01-01 10:30",   # u7 e2 (max now 10:30)
        "2024-01-01 10:25",   # u7 e3: 5 min late -> within allowance
        "2024-01-01 10:05",   # u7 e4: 25 min late -> DROPPED
        "2024-01-01 10:01",   # u8 e5: other user unaffected
    ])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([7, 7, 7, 7, 8], pa.int64()),
    }), str(tmp_path / "events.parquet"))
    out = relational.q_late_data_drop(str(tmp_path))
    got = {r.window_start: (r.n_on_time, r.n_late_dropped)
           for r in out.itertuples()}
    win = pd.Timestamp("2024-01-01 10:00")
    assert got == {win: (4, 1)}


def test_substring_dedup_planted(ray_session, tmp_path):
    """Two docs share one 15-word span (every shingle inside it goes
    df>=2); a third doc is unique; a 5-word doc is below the shingle
    width and drops out entirely."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import dedup

    span = " ".join(f"w{i}" for i in range(15))          # 15 words
    pq.write_table(pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [span + " alpha beta gamma",             # 4 shingles
                 "intro words here " + span,             # 4 shingles
                 "totally different text " + " ".join(
                     f"u{i}" for i in range(20)),        # unique
                 "too short for any"],                   # < 15 words
    }), str(tmp_path / "documents.parquet"))
    out = dedup.d_substring_dedup(str(tmp_path))
    rows = {int(r.doc_id): r for r in out.itertuples()}
    assert set(rows) == {1, 2, 3}
    # only the exact 15-word span shingle is common to docs 1 and 2
    assert rows[1].n_grams == 4 and rows[1].n_dup == 1
    assert rows[2].n_grams == 4 and rows[2].n_dup == 1
    assert rows[3].n_dup == 0 and rows[3].n_grams > 0
    # the bucketed scale path (broadcast gate forced to 0) must agree
    orig = dedup.SUBSTR_BROADCAST_ROWS
    dedup.SUBSTR_BROADCAST_ROWS = 0
    try:
        forced = dedup.d_substring_dedup(str(tmp_path))
    finally:
        dedup.SUBSTR_BROADCAST_ROWS = orig
    assert out.equals(forced)


def test_bigram_lm_score_planted(ray_session, tmp_path):
    """Exact integer bigram-frequency scoring: 'a b' occurs 3x in the
    corpus (2x in doc 1, 1x in doc 2), so each of its positions scores
    3; singleton bigrams score 1."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import text

    pq.write_table(pa.table({
        "doc_id": [1, 2, 3],
        # doc 1 bigrams: (a b), (b a), (a b)  /  doc 2: (a b), (b c)
        "text": ["a b a b", "a b c", "solo"],
    }), str(tmp_path / "documents.parquet"))
    out = text.t_bigram_lm_score(str(tmp_path))
    rows = {int(r.doc_id): r for r in out.itertuples()}
    assert set(rows) == {1, 2}                 # doc 3 has no bigram
    # doc 1: positions (a b)=3, (b a)=1, (a b)=3 -> total 7 of 3
    assert rows[1].n_bigrams == 3 and rows[1].total_freq == 7
    # doc 2: (a b)=3, (b c)=1 -> total 4 of 2
    assert rows[2].n_bigrams == 2 and rows[2].total_freq == 4
    # the bucketed scale path (broadcast gate forced to 0) must agree
    orig = text.BIGRAM_BROADCAST_ROWS
    text.BIGRAM_BROADCAST_ROWS = 0
    try:
        forced = text.t_bigram_lm_score(str(tmp_path))
    finally:
        text.BIGRAM_BROADCAST_ROWS = orig
    pd_testing_equal = out.equals(forced)
    assert pd_testing_equal, (out, forced)


def test_dsir_broadcast_matches_bucketed(ray_session):
    """The DSIR broadcast fast path (driver-folded dense feature table)
    must reproduce the two-exchange bucketed plan bit for bit."""
    from pdf_parse_new_ray.functions import text

    sf = "/root/testdata/sf0.001"
    base = text.t_dsir_importance(sf)
    orig = text.DSIR_BROADCAST_ROWS
    text.DSIR_BROADCAST_ROWS = 0
    try:
        forced = text.t_dsir_importance(sf)
    finally:
        text.DSIR_BROADCAST_ROWS = orig
    assert base.equals(forced)
    assert len(base) > 0


def test_props_value_stats_vectorized(ray_session, tmp_path):
    """JSON field extraction is null-safe: rows without the key drop
    out of the count, negatives parse, per-type sums are exact."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    ts = pd.to_datetime(["2024-01-01"] * 5)
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
        "event_type": ["view", "view", "click", "view", "click"],
        "value": pa.array([0.0] * 5, pa.float64()),
        "props": ['{"k": 10}', '{"k": -4}', '{"other": 1}',
                  '{"k":7}', '{"k": 0}'],
    }), str(tmp_path / "events.parquet"))
    out = relational.q_props_value_stats(str(tmp_path))
    rows = {r.event_type: r for r in out.itertuples()}
    assert rows["view"].sum_k == 13 and rows["view"].n_k == 3
    assert rows["click"].sum_k == 0 and rows["click"].n_k == 1


def test_heavy_hitters_combiner(ray_session, tmp_path):
    """Batch-local combiner: a hot user with many events collapses to
    one partial row per block; ties order by user_id."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    n_hot, n_cold = 50, 3
    uid = [7] * n_hot + [1, 2, 3] * n_cold
    k = len(uid)
    pq.write_table(pa.table({
        "event_id": pa.array(range(k), pa.int64()),
        "ts": pa.array(pd.to_datetime(["2024-01-01"] * k),
                       pa.timestamp("us")),
        "user_id": pa.array(uid, pa.int64()),
        "event_type": ["view"] * k,
        "value": pa.array([0.0] * k, pa.float64()),
        "props": ["{}"] * k,
    }), str(tmp_path / "events.parquet"))
    out = relational.q_heavy_hitters(str(tmp_path))
    assert list(out["user_id"]) == [7, 1, 2, 3]
    assert list(out["n"]) == [n_hot, n_cold, n_cold, n_cold]


def test_winnowing_planted(ray_session, tmp_path):
    """Winnowing guarantee: two docs sharing a run of >= k + w - 1
    words share at least one selected fingerprint; n_selected <=
    n_windows; short docs drop out."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import text
    from pdf_parse_new_ray.functions.dedup import _gram_hash64

    shared = " ".join(f"s{i}" for i in range(
        text.WINNOW_GRAM_N + text.WINNOW_WINDOW - 1))  # 8 words
    pq.write_table(pa.table({
        "doc_id": [1, 2, 3],
        "text": [shared + " tail one two three four",
                 "lead in words here " + shared,
                 "short doc"],
    }), str(tmp_path / "documents.parquet"))
    out = text.t_winnowing_fingerprints(str(tmp_path))
    assert list(out["doc_id"]) == [1, 2]
    for r in out.itertuples():
        assert 0 < r.n_selected <= r.n_grams - text.WINNOW_WINDOW + 1

    # recompute both docs' selected sets directly: they must intersect
    def sel(t):
        ws = t.lower().split()
        hs = np.fromiter(
            (_gram_hash64(" ".join(ws[i:i + text.WINNOW_GRAM_N]))
             for i in range(len(ws) - text.WINNOW_GRAM_N + 1)),
            np.uint64)
        return set(np.lib.stride_tricks.sliding_window_view(
            hs, text.WINNOW_WINDOW).min(axis=1).tolist())

    a = sel(shared + " tail one two three four")
    b = sel("lead in words here " + shared)
    assert a & b


def test_knn_pq_recall_and_exact_rerank(ray_session):
    """PQ ADC shortlist + exact rerank: recall@5 >= 0.9 vs brute force
    on sf0.01, and every reported cosine equals the exact one (only
    candidate GENERATION is approximate)."""
    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.01"
    exact = ann.e_knn_bruteforce(sf)
    pq_out = ann.e_knn_pq(sf)
    hits = tot = 0
    for qid, g in exact.groupby("query_id"):
        truth = set(g["vec_id"])
        got = set(pq_out[pq_out["query_id"] == qid]["vec_id"])
        hits += len(truth & got)
        tot += len(truth)
    assert tot > 0 and hits / tot >= 0.9, f"recall {hits / tot:.2f}"
    ex = {(q, v): c for q, v, c in zip(
        exact["query_id"], exact["vec_id"], exact["cosine"])}
    overlap = 0
    for q, v, c in zip(pq_out["query_id"], pq_out["vec_id"],
                       pq_out["cosine"]):
        if (q, v) in ex:
            assert abs(ex[(q, v)] - c) < 1e-9
            overlap += 1
    assert overlap > 0


def test_pq_codes_compress_and_roundtrip(ray_session):
    """pq_encode emits one uint8 per subspace (8 bytes per 64-float
    vector) and reconstruction error is bounded well below the unit
    norm; encoding is deterministic."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.01"
    books = ann._train_pq(sf)
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])
    m = ann.emb_matrix(t)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    codes = ann.pq_encode(m, books)
    assert codes.dtype == np.uint8 and codes.shape == (len(m), 8)
    m_sub, n_codes, dsub = books.shape
    recon = np.concatenate(
        [books[s][codes[:, s]] for s in range(m_sub)], axis=1)
    err = np.linalg.norm(m - recon, axis=1)
    assert err.mean() < 0.75           # unit vectors: error well below 1
    assert np.array_equal(codes, ann.pq_encode(m, books))


def test_session_overlap_counts_cross_user(ray_session, tmp_path):
    """Interval join is CROSS-user (time-partitioned, not key-
    partitioned): user 2's event inside user 1's session window counts,
    and a session spanning an hour boundary still counts exactly once
    per event (disjoint event buckets)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    ts = pd.to_datetime([
        "2024-01-01 10:50",   # u1 s1 start (session spans 10:50-11:10,
        "2024-01-01 11:10",   # crossing the 11:00 hour boundary)
        "2024-01-01 10:55",   # u2 single event INSIDE u1's window
        "2024-01-01 14:00",   # u1 s2: isolated
    ])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 1], pa.int64()),
    }), str(tmp_path / "events.parquet"))
    out = relational.q_session_overlap_counts(str(tmp_path))
    rows = {(r.user_id, r.session_id): r.n_overlap
            for r in out.itertuples()}
    # u1 s1 window [10:50, 11:10] holds events 1,2 (own) + 3 (u2) = 3
    assert rows[(1, 1)] == 3
    # u1 s2 [14:00, 14:00] holds only itself
    assert rows[(1, 2)] == 1
    # u2 s1 [10:55, 10:55] holds only itself
    assert rows[(2, 1)] == 1


def test_q13_includes_zero_order_customers(ray_session, tmp_path):
    """The left-join subtlety: customers with no orders land in the
    n_orders=0 bucket (sf tables give everyone orders, so plant one)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    pq.write_table(pa.table({
        "c_custkey": [1, 2, 3, 4, 5],
    }), str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": [10, 11, 12, 13, 14],
        "o_custkey": [1, 1, 3, 3, 3],
    }), str(tmp_path / "orders.parquet"))
    out = relational.q13_order_count_distribution(str(tmp_path))
    got = dict(zip(out["n_orders"], out["n_customers"]))
    assert got == {0: 3, 2: 1, 3: 1}  # custs 2,4,5 -> 0; 1 -> 2; 3 -> 3
    # ordered by n_customers DESC then n_orders DESC
    assert list(out["n_orders"]) == [0, 3, 2]


def test_q18_planted_threshold(ray_session, tmp_path):
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    # order 10: qty 200+150 = 350 > 300 (passes); order 11: 100 (fails)
    pq.write_table(pa.table({
        "l_orderkey": [10, 10, 11],
        "l_quantity": [200.0, 150.0, 100.0],
    }), str(tmp_path / "lineitem.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": [10, 11],
        "o_custkey": [7, 8],
        "o_orderdate": pa.array(pd.to_datetime(["1995-01-01",
                                                "1995-02-02"])),
        "o_totalprice": [1000.0, 500.0],
    }), str(tmp_path / "orders.parquet"))
    pq.write_table(pa.table({
        "c_custkey": [7, 8],
        "c_name": ["Customer#7", "Customer#8"],
    }), str(tmp_path / "customer.parquet"))
    out = relational.q18_large_volume_customers(str(tmp_path))
    assert len(out) == 1
    row = out.iloc[0]
    assert row["o_orderkey"] == 10 and row["c_custkey"] == 7
    assert row["sum_qty"] == 350 and row["c_name"] == "Customer#7"


def test_kmv_exact_below_k_and_estimate_above(ray_session, tmp_path):
    """Below K distinct the sketch IS the exact count; above K the
    (k-1)/h_k estimator must land within the theoretical error band."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    rng = np.random.default_rng(7)
    n_small, n_big = 20, 800
    uid_small = rng.integers(0, n_small, 3000) + 1_000_000
    uid_big = rng.integers(0, n_big, 3000) * 17 + 5_000_000
    pq.write_table(pa.table({
        "event_type": ["small"] * 3000 + ["big"] * 3000,
        "user_id": pa.array(np.concatenate([uid_small, uid_big]),
                            pa.int64()),
    }), str(tmp_path / "events.parquet"))
    out = relational.q_kmv_distinct(str(tmp_path))
    small = out[out["event_type"] == "small"].iloc[0]
    big = out[out["event_type"] == "big"].iloc[0]
    exact_small = len(np.unique(uid_small))
    exact_big = len(np.unique(uid_big))
    assert small["n_sketch"] == exact_small
    assert small["est_distinct"] == float(exact_small)
    assert big["n_sketch"] == relational.KMV_K
    # KMV relative error ~ 1/sqrt(K-2): allow 4 sigma
    assert abs(big["est_distinct"] - exact_big) / exact_big < 0.55


def test_levenshtein_many_vs_duckdb(ray_session):
    """The vectorized multi-pair DP must agree with DuckDB's byte-level
    levenshtein on random strings (incl. multi-byte UTF-8 and empties)."""
    import duckdb
    import numpy as np

    from pdf_parse_new_ray.functions.dedup import _levenshtein_many

    rng = np.random.default_rng(3)
    alphabet = list("abcdef Xé")
    strs = ["".join(rng.choice(alphabet, rng.integers(0, 40)))
            for _ in range(40)] + ["", "a"]
    pairs = [(strs[i], strs[j]) for i in range(0, 40, 3)
             for j in range(1, 42, 5)]
    a = [np.frombuffer(x.encode("utf-8"), np.uint8) for x, _ in pairs]
    b = [np.frombuffer(y.encode("utf-8"), np.uint8) for _, y in pairs]
    got = _levenshtein_many(a, b)
    con = duckdb.connect()
    want = [con.sql("SELECT levenshtein(?, ?)", params=[x, y]).fetchone()[0]
            for x, y in pairs]
    assert got.tolist() == want


def test_levenshtein_pairs_blocking_and_cap(ray_session, tmp_path):
    """Planted near-dups in one block get verified with the right
    distances; a hot block is capped to its LEV_BLOCK_CAP smallest
    doc_ids (deterministic), never all-pairs over the whole block."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import dedup

    base = "the quick brown fox jumps over the lazy dog " * 2
    rows = {"doc_id": [], "text": [], "lang": [], "n_chars": []}
    # two near-identical docs in the same (lang, length) block
    for did, txt in [(1, base), (2, base[:-1] + "x")]:
        rows["doc_id"].append(did)
        rows["text"].append(txt)
        rows["lang"].append("en")
        rows["n_chars"].append(len(txt))
    # a hot block: cap + 10 same-length docs
    hot = dedup.LEV_BLOCK_CAP + 10
    for i in range(hot):
        txt = f"zz{i:04d}" + "y" * 100
        rows["doc_id"].append(100 + i)
        rows["text"].append(txt)
        rows["lang"].append("fr")
        rows["n_chars"].append(len(txt))
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    out = dedup.d_levenshtein_pairs(str(tmp_path))
    near = out[(out["id_a"] == 1) & (out["id_b"] == 2)]
    assert len(near) == 1 and near.iloc[0]["dist"] == 1
    hot_pairs = out[out["id_a"] >= 100]
    cap = dedup.LEV_BLOCK_CAP
    assert len(hot_pairs) == cap * (cap - 1) // 2
    # capped set = smallest doc_ids
    assert hot_pairs["id_b"].max() == 100 + cap - 1


def test_levenshtein_dispatch_equivalence(ray_session, tmp_path):
    """The vectorized coarse-bucket multi-block verify (live plan) must
    emit EXACTLY the (id_a, id_b, dist) rows of the per-block reference
    (tests/dedup_refs.py) — planted near-dups, a hot capped block, many
    small blocks across langs, and docs landing alone in a block."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import dedup_refs
    from pdf_parse_new_ray.functions import dedup

    rng = np.random.default_rng(23)
    rows = {"doc_id": [], "text": [], "lang": [], "n_chars": []}
    did = 0
    for lang in ("en", "fr", "de", "ja"):
        for blk in range(6):
            for _ in range(int(rng.integers(1, 6))):
                txt = "".join(chr(97 + int(c)) for c in
                              rng.integers(0, 26, 64 * blk + 40))
                rows["doc_id"].append(did)
                rows["text"].append(txt)
                rows["lang"].append(lang)
                rows["n_chars"].append(len(txt))
                did += 1
    # hot block past the cap
    for i in range(dedup.LEV_BLOCK_CAP + 7):
        rows["doc_id"].append(did)
        rows["text"].append(f"qq{i:03d}" + "w" * 90)
        rows["lang"].append("en")
        rows["n_chars"].append(95)
        did += 1
    pq.write_table(pa.table(rows), str(tmp_path / "documents.parquet"))
    live = dedup.d_levenshtein_pairs(str(tmp_path))
    leg = dedup_refs.levenshtein_pairs(str(tmp_path))
    assert len(live) > 0
    assert live.reset_index(drop=True).equals(leg.reset_index(drop=True))


def test_q7_cogroup_path_matches_broadcast(ray_session, monkeypatch):
    """Forcing the customer attach onto the distributed cogroup path must
    reproduce the broadcast-path result exactly (same gate-duality check
    as q5), and revenue is the exact integer-cents convention."""
    from pdf_parse_new_ray.functions import joins, relational

    base = relational.q7_nation_pair_revenue("/root/testdata/sf0.001")
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    forced = relational.q7_nation_pair_revenue("/root/testdata/sf0.001")
    assert base.equals(forced)
    assert len(base) > 0
    assert (base["supp_nation"] != base["cust_nation"]).all()


def test_histogram_quantiles_within_bin(ray_session):
    """Each histogram quantile must bracket the exact quantile within one
    bin width (the sketch's accuracy contract)."""
    import duckdb

    from pdf_parse_new_ray.functions import relational

    out = relational.q_histogram_quantiles("/root/testdata/sf0.001")
    con = duckdb.connect()
    for _, row in out.iterrows():
        exact = con.sql(
            "SELECT quantile_disc(o_totalprice, ?) FROM "
            "'/root/testdata/sf0.001/orders.parquet'",
            params=[row["quantile"]]).fetchone()[0]
        width = relational.HIST_BIN_CENTS / 100.0
        assert row["est_price"] <= exact < row["est_price"] + width


def test_copurchase_pairs_planted(ray_session, tmp_path):
    """Known baskets: the pair in 3 orders must outrank the pair in 2;
    same-part repeats inside one order never pair with themselves."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    rows = {"l_orderkey": [], "l_partkey": []}
    for ok, parts in [(1, [7, 9]), (2, [7, 9, 11]), (3, [9, 7]),
                      (4, [11, 9]), (5, [11, 9]), (6, [5, 5])]:
        rows["l_orderkey"].extend([ok] * len(parts))
        rows["l_partkey"].extend(parts)
    pq.write_table(pa.table(rows), str(tmp_path / "lineitem.parquet"))
    out = relational.q_copurchase_pairs(str(tmp_path))
    got = {(a, b): s for a, b, s in
           zip(out["p_a"], out["p_b"], out["support"])}
    assert got == {(7, 9): 3, (9, 11): 3, (7, 11): 1}
    assert (5, 5) not in got


def test_sequence_pack_matches_naive(ray_session):
    """The distributed prefix-sum packing must equal a naive driver-side
    concat-and-chunk over the same token counts."""
    import re

    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import text as tfn

    out = tfn.t_sequence_pack("/root/testdata/sf0.001")
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    tok = re.compile(tfn.TOKEN_PATTERN)
    n = docs["text"].map(lambda x: len(tok.findall(x or ""))).to_numpy()
    cum_prev = np.cumsum(n) - n
    assert (out["doc_id"].to_numpy() == docs["doc_id"].to_numpy()).all()
    assert (out["n_tokens"].to_numpy() == n).all()
    assert (out["seq_id"].to_numpy() == cum_prev // tfn.SEQ_LEN).all()
    assert (out["seq_offset"].to_numpy() == cum_prev % tfn.SEQ_LEN).all()
    assert out.iloc[0]["seq_id"] == 0 and out.iloc[0]["seq_offset"] == 0


def test_decile_stats_invariants(ray_session):
    """Exact global-rank deciles: counts differ by at most 1 across
    deciles, partition covers all orders, min/max are monotone."""
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    out = relational.q_decile_stats("/root/testdata/sf0.001")
    n = pq.read_metadata("/root/testdata/sf0.001/orders.parquet").num_rows
    assert list(out["decile"]) == list(range(relational.NTILE_K))
    assert int(out["n_orders"].sum()) == n
    assert out["n_orders"].max() - out["n_orders"].min() <= 1
    assert (out["min_price"] <= out["max_price"]).all()
    # deciles are rank-ordered: each decile's max <= next decile's min
    assert (out["max_price"].to_numpy()[:-1]
            <= out["min_price"].to_numpy()[1:]).all()


def test_salted_attach_matches_unsalted_on_hot_key(ray_session, tmp_path,
                                                   monkeypatch):
    """A pathologically hot key (90% of fact rows) through the salted
    attach must produce EXACTLY the rows the unsalted attach produces —
    salting changes only the exchange layout."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.functions.joins import (attach_value,
                                                   attach_value_salted)

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)

    hot = [7] * 900 + list(range(100))
    pq.write_table(pa.table({
        "k": pa.array(hot, pa.int64()),
        "row": pa.array(range(1000), pa.int64()),
    }), str(tmp_path / "pairs.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array([7] + list(range(100)), pa.int64()),
        "value": pa.array([70] + [i * 2 for i in range(100)], pa.int64()),
    }), str(tmp_path / "vals.parquet"))
    pairs = rd.read_parquet(str(tmp_path / "pairs.parquet"))
    vals = rd.read_parquet(str(tmp_path / "vals.parquet"))
    cols = [("k", pa.int64()), ("row", pa.int64())]
    a = attach_value(pairs, vals, "k", "v", pa.int64(), cols) \
        .to_pandas().sort_values("row").reset_index(drop=True)
    b = attach_value_salted(
        rd.read_parquet(str(tmp_path / "pairs.parquet")),
        rd.read_parquet(str(tmp_path / "vals.parquet")),
        "k", "v", pa.int64(), cols, n_salts=8) \
        .to_pandas().sort_values("row").reset_index(drop=True)
    assert a.equals(b)
    assert (b[b["k"] == 7]["v"] == 70).all() and len(b) == 1000


def test_attach_exchange_paths_equal(ray_session, tmp_path, monkeypatch):
    """attach_value (plain and salted, with and without the ``post``
    map-side-combine hook) equals a pandas inner merge, including keys
    with no value row (inner-join drop) and an exchange whose buckets
    are mostly empty (6 keys over 64 buckets), both through the exchange
    and folded in-process (the default local-fold bound)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    rng = np.random.default_rng(11)
    n, m = 20_000, 500
    vals_df = pd.DataFrame({"doc_id": np.arange(m, dtype=np.int64),
                            "value": rng.normal(size=m)})
    pq.write_table(pa.Table.from_pandas(vals_df, preserve_index=False),
                   str(tmp_path / "vals.parquet"))
    monkeypatch.setattr(joins, "exchange_buckets", lambda rows: 64)

    def post(t):
        return t.group_by("k").aggregate([("v", "sum")]) \
            .rename_columns(["k", "vsum"])

    def run(fn, **kw):
        pairs = rd.read_parquet(str(tmp_path / "pairs.parquet")) \
            .repartition(8)
        vals = rd.read_parquet(str(tmp_path / "vals.parquet"))
        cols = [("k", pa.int64()), ("row", pa.int64())]
        df = fn(pairs, vals, "k", "v", pa.float64(), cols, **kw).to_pandas()
        if "vsum" in df.columns:  # partials: merge before comparing
            return df.groupby("k")["vsum"].sum().sort_index()
        return df.sort_values(["row"]).reset_index(drop=True)

    # keys 0..2m-1 with values only for 0..m-1 -> half the keys drop;
    # keys 0..5 -> 58 of the 64 buckets are empty
    cases = [(n_keys, bound) for n_keys in (2 * m, 6)
             for bound in (0, joins.LOCAL_FOLD_ROWS)]
    for n_keys, bound in cases:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        pairs_df = pd.DataFrame({
            "k": rng.integers(0, n_keys, n).astype(np.int64),
            "row": np.arange(n, dtype=np.int64)})
        pq.write_table(pa.Table.from_pandas(pairs_df, preserve_index=False),
                       str(tmp_path / "pairs.parquet"))
        want = pairs_df.merge(
            vals_df.rename(columns={"doc_id": "k", "value": "v"}), on="k") \
            .sort_values("row").reset_index(drop=True)
        assert 0 < len(want) < n or n_keys == 6
        assert run(joins.attach_value).equals(want)
        assert run(joins.attach_value_salted, n_salts=4).equals(want)
        got = run(joins.attach_value, post=post)
        ref = want.groupby("k")["v"].sum().sort_index()
        assert (got.index == ref.index).all()
        assert np.allclose(got.to_numpy(), ref.to_numpy())


def _keyed_input(rng, n: int, n_blocks: int):
    """n rows over ~n/20 int keys and their string twins, in n_blocks
    blocks."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    k = rng.integers(0, max(1, n // 20), n).astype(np.int64)
    return rd.from_arrow(pa.table({
        "k": pa.array(k),
        "s": pa.array([f"key-{x}" for x in k], pa.string()),
        "x": pa.array(rng.integers(0, 1000, n).astype(np.int64)),
    })).repartition(n_blocks)


def _multi_key_fold(key: str):
    """A fold that handles any number of keys per call: per-key sum,
    count and the max x (order-free, so equal under any bucketing)."""
    import pyarrow as pa

    def fold(t):
        g = t.group_by(key).aggregate([("x", "sum"), ("x", "count"),
                                       ("x", "max")])
        return pa.table({key: g[key], "sum": g["x_sum"],
                         "n": g["x_count"], "mx": g["x_max"]})

    return fold


def test_keyed_matches_groupby_map_groups(ray_session, monkeypatch):
    """keyed(ds, key, fold) returns the rows of a per-key
    groupby().map_groups reference, for int and string keys, through
    the exchange and folded in-process (the default local-fold
    bound)."""
    import numpy as np

    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.functions.joins import keyed

    ds = _keyed_input(np.random.default_rng(3), 4_000, 6).materialize()
    cases = [(key, bound) for key in ("k", "s")
             for bound in (0, joins.LOCAL_FOLD_ROWS)]
    for key, bound in cases:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        fold = _multi_key_fold(key)
        got = keyed(ds, key, fold).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        want = ds.groupby(key).map_groups(fold, batch_format="pyarrow") \
            .to_pandas().sort_values(key).reset_index(drop=True)
        assert got[key].is_unique and len(got) > 50
        pd.testing.assert_frame_equal(got, want)


def test_keyed_folds_once_at_or_below_the_local_bound(ray_session,
                                                      monkeypatch):
    """At or below joins.LOCAL_FOLD_ROWS input rows (all sides together)
    keyed and attach_value run their fold once, over every row; one row
    above it, once per non-empty bucket."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    ds = _keyed_input(np.random.default_rng(6), 2_000, 4).materialize()
    vals = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(100, dtype=np.int64)),
        "value": pa.array(np.arange(100, dtype=np.int64)),
    })).materialize()
    monkeypatch.setattr(joins, "exchange_buckets", lambda rows: 64)
    keys = pa.array(ds.to_pandas()["k"].to_numpy())
    key_buckets = set(joins._key_buckets(keys, 64).tolist())
    all_buckets = key_buckets | set(joins._key_buckets(
        pa.array(np.arange(100, dtype=np.int64)), 64).tolist())
    assert 1 < len(key_buckets) <= len(all_buckets) <= 64

    def count_call(t):  # one row per call: the rows it saw
        return pa.table({"n": pa.array([t.num_rows], pa.int64())})

    n = ds.count()
    for bound, calls in ((n, 1), (n - 1, len(key_buckets))):
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        out = joins.keyed(ds, "k", count_call).to_pandas()
        assert len(out) == calls and out["n"].sum() == n

    cols = [("k", pa.int64()), ("s", pa.string()), ("x", pa.int64())]
    hits = int(np.isin(keys.to_numpy(), np.arange(100)).sum())
    total = n + 100
    for bound, calls in ((total, 1), (total - 1, len(all_buckets))):
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        out = joins.attach_value(ds, vals, "k", "v", pa.int64(), cols,
                                 post=count_call).to_pandas()
        assert len(out) == calls and out["n"].sum() == hits


def test_keyed_empty_input_calls_no_fold(ray_session, monkeypatch):
    """A zero-row input (no blocks, or only empty blocks) calls no fold
    and returns no rows."""
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.functions.joins import keyed

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)

    def boom(t):
        raise AssertionError("fold called on an empty input")

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert keyed(empty, "k", boom).count() == 0
    filtered = rd.range(100).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow")
    assert keyed(filtered, "id", boom).take_all() == []


def test_keyed_pandas_fold(ray_session, monkeypatch):
    """A fold returning a pandas DataFrame is converted to Arrow."""
    import numpy as np
    import ray

    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.functions.joins import keyed

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)

    ds = _keyed_input(np.random.default_rng(4), 2_000, 4)

    def pandas_fold(t):
        return t.to_pandas().groupby("k", as_index=False)["x"].sum()

    out = keyed(ds, "k", pandas_fold)
    blocks = ray.get([r for b in out.iter_internal_ref_bundles()
                      for r in b.block_refs])
    assert blocks and all(isinstance(b, pa.Table) for b in blocks)
    got = out.to_pandas().sort_values("k").reset_index(drop=True)
    want = ds.to_pandas().groupby("k", as_index=False)["x"].sum()
    pd.testing.assert_frame_equal(got, want)


def test_exchange_block_bundling_same_rows(ray_session, monkeypatch):
    """With _EXCHANGE_MAX_BLOCKS = 2 every split task takes a contiguous
    run of blocks; keyed and attach_value return the same rows as the
    one-block-per-split path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    ds = _keyed_input(np.random.default_rng(5), 3_000, 9).materialize()
    # values for keys 0..99 of the 150: a third of the keys drop
    vals = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(100, dtype=np.int64)),
        "value": pa.array(np.arange(100, dtype=np.int64) * 7),
    })).repartition(3).materialize()
    cols = [("k", pa.int64()), ("s", pa.string()), ("x", pa.int64())]

    def run():
        a = joins.keyed(ds, "s", _multi_key_fold("s")).to_pandas() \
            .sort_values("s").reset_index(drop=True)
        b = joins.attach_value(ds, vals, "k", "v", pa.int64(), cols) \
            .to_pandas().sort_values(["k", "s", "x", "v"]) \
            .reset_index(drop=True)
        return a, b

    unbundled = run()
    monkeypatch.setattr(joins, "_EXCHANGE_MAX_BLOCKS", 2)
    bundled = run()
    for got, want in zip(bundled, unbundled):
        assert len(want) > 0
        pd.testing.assert_frame_equal(got, want)


def test_exchange_buckets_rule(ray_session, monkeypatch):
    """The one bucket-count rule: a power of two, the power-of-two floor
    of the cluster's CPUs at small inputs, growing with rows at 250k per
    bucket, capped at 4096; salted totals are multiples of n_salts."""
    import ray

    from pdf_parse_new_ray.functions import joins

    def pow2(n):
        return n > 0 and n & (n - 1) == 0

    cpus = int(ray.cluster_resources()["CPU"])
    floor = 1 << (cpus.bit_length() - 1)
    assert joins.exchange_buckets(0) == floor
    assert joins.exchange_buckets(1000) == floor

    for cpus, want_small in ((1, 1), (4, 4), (6, 4), (48, 32)):
        monkeypatch.setattr(ray, "cluster_resources",
                            lambda c=cpus: {"CPU": float(c)})
        assert joins.exchange_buckets(0) == want_small
        prev = 0
        for rows in (0, 10**5, 10**6, 10**7, 10**8, 10**9, 10**12):
            n = joins.exchange_buckets(rows)
            assert pow2(n) and prev <= n <= 4096
            assert n >= min(4096, rows // joins.EXCHANGE_ROWS_PER_BUCKET) // 2
            prev = n
        assert joins.exchange_buckets(64 * 250_000) == max(64, want_small)
        assert joins.exchange_buckets(10**12) == 4096
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 10_000.0})
    assert joins.exchange_buckets(0) == 4096

    for n in (1, 2, 4, 64, 4096):
        for n_salts in (1, 2, 3, 4, 8, 16):
            total = joins.salted_buckets(n, n_salts)
            assert total >= n_salts and total % n_salts == 0
            assert pow2(total // n_salts)
            if pow2(n_salts):
                assert total == max(n, n_salts)


def test_attach_bucket_count_only_changes_layout(ray_session, tmp_path,
                                                 monkeypatch):
    """attach_value and attach_value_salted, with and without ``post``,
    return identical rows whether the exchange runs 1, 4 or 64
    buckets."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    rng = np.random.default_rng(5)
    n, m = 5_000, 300
    pq.write_table(pa.table({
        "k": pa.array(rng.integers(0, 2 * m, n), pa.int64()),
        "row": pa.array(np.arange(n), pa.int64()),
    }), str(tmp_path / "pairs.parquet"))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(m), pa.int64()),
        "value": pa.array(rng.normal(size=m)),
    }), str(tmp_path / "vals.parquet"))

    def post(t):
        return t.group_by("k").aggregate([("v", "sum")]) \
            .rename_columns(["k", "vsum"])

    def run(fn, **kw):
        pairs = rd.read_parquet(str(tmp_path / "pairs.parquet")) \
            .repartition(4)
        vals = rd.read_parquet(str(tmp_path / "vals.parquet"))
        cols = [("k", pa.int64()), ("row", pa.int64())]
        df = fn(pairs, vals, "k", "v", pa.float64(), cols, **kw).to_pandas()
        if "vsum" in df.columns:  # partials: merge before comparing
            return df.groupby("k")["vsum"].sum().sort_index()
        return df.sort_values(["row"]).reset_index(drop=True)

    kinds = {"plain": (joins.attach_value, {}),
             "post": (joins.attach_value, {"post": post}),
             "salt": (joins.attach_value_salted, {"n_salts": 4}),
             "salt_post": (joins.attach_value_salted,
                           {"n_salts": 4, "post": post})}
    results = {}
    for k in (1, 4, 64):
        monkeypatch.setattr(joins, "exchange_buckets", lambda rows, k=k: k)
        for kind, (fn, kw) in kinds.items():
            results[k, kind] = run(fn, **kw)
    for kind in kinds:
        want = results[1, kind]
        assert len(want) > 0
        for k in (4, 64):
            got = results[k, kind]
            if kind.endswith("post"):
                assert (got.index == want.index).all()
                assert np.allclose(got.to_numpy(), want.to_numpy())
            else:
                assert got.equals(want)
    assert results[1, "plain"].equals(results[1, "salt"])


def test_trailing_hour_sum_peers_and_fallback(ray_session, tmp_path,
                                              monkeypatch):
    """RANGE semantics: ts peers are included in each other's window,
    the 1h lower bound is inclusive; the int64-overflow fallback path
    (per-user segments) must equal the K-offset fast path exactly."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import relational

    ts = pd.to_datetime([
        "2024-01-01 10:00:00", "2024-01-01 10:00:00",  # peers
        "2024-01-01 10:30:00", "2024-01-01 11:30:00",  # 11:30 drops 10:00s
        "2024-01-01 09:00:00",                          # other user
    ])
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array(ts),
        "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0], pa.float64()),
    }), str(tmp_path / "events.parquet"))
    out = relational.q_trailing_hour_sum(str(tmp_path))
    got = dict(zip(out["event_id"], out["trailing_sum"]))
    # peers at 10:00 see each other (1+2); 10:30 sees 1+2+4;
    # 11:30's inclusive 1h bound keeps 10:30: 4+8
    assert got == {1: 3.0, 2: 3.0, 3: 7.0, 4: 12.0, 5: 16.0}
    fast = relational.q_trailing_hour_sum("/root/testdata/sf0.001")
    monkeypatch.setattr(relational, "_TRAIL_BAND_MAX", 0)
    slow = relational.q_trailing_hour_sum("/root/testdata/sf0.001")
    assert fast.equals(slow) and len(fast) > 0


def _naive_pagerank(edges: list) -> tuple[list, np.ndarray]:
    """(sorted nodes, ranks) of the textbook single-process PageRank on
    ``(src, dst)`` edges: the operator's damping and iterations, one
    Python add per edge, dangling mass spread uniformly."""
    from pdf_parse_new_ray.functions.graph import (PAGERANK_DAMPING,
                                                   PAGERANK_ITERS)

    nodes = sorted({x for e in edges for x in e})
    ix = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out_deg = np.zeros(n)
    for a, _ in edges:
        out_deg[ix[a]] += 1
    rank = np.full(n, 1 / n)
    for _ in range(PAGERANK_ITERS):
        share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                          where=out_deg > 0)
        incoming = np.zeros(n)
        for a, b in edges:
            incoming[ix[b]] += share[ix[a]]
        dangling = rank[out_deg == 0].sum()
        rank = (1 - PAGERANK_DAMPING) / n \
            + PAGERANK_DAMPING * (incoming + dangling / n)
    return nodes, rank


def _edge_dataset(edges: list, path):
    import ray.data as rd

    pq.write_table(pa.table({
        "src": pa.array([a for a, _ in edges], pa.int64()),
        "dst": pa.array([b for _, b in edges], pa.int64()),
    }), str(path))
    return rd.read_parquet(str(path))


def test_pagerank_matches_naive(ray_session, tmp_path):
    """Distributed PageRank equals the naive single-process iteration on
    the same edges (same damping/iterations), and rank mass stays 1.
    Includes a dangling node (no out-edges) to exercise redistribution."""
    from pdf_parse_new_ray.functions.graph import pagerank_edges

    edges = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1)]  # 5 is reachable-only
    edges.append((3, 5))  # node 5 dangles
    got = pagerank_edges(_edge_dataset(edges, tmp_path / "edges.parquet"))
    nodes, rank = _naive_pagerank(edges)
    assert np.allclose(got["rank"].to_numpy(), rank, atol=1e-12)
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    assert list(got["node"]) == nodes


def test_pagerank_random_graph_matches_naive(ray_session, tmp_path):
    """On a seeded 300-edge graph whose nodes 40-49 dangle, the sharded
    rank vector matches the naive iteration to 1e-12 and keeps mass 1,
    and the shards' merged local top-k is the naive top 5."""
    from pdf_parse_new_ray.functions.graph import pagerank_edges

    rng = np.random.RandomState(7)
    src = rng.randint(0, 40, 300).astype(np.int64)
    dst = rng.randint(0, 50, 300).astype(np.int64)  # nodes 40-49 dangle
    keep = src != dst
    edges = list(zip(src[keep].tolist(), dst[keep].tolist()))
    ds = _edge_dataset(edges, tmp_path / "edges.parquet")
    nodes, rank = _naive_pagerank(edges)
    got = pagerank_edges(ds)
    assert list(got["node"]) == nodes
    assert np.allclose(got["rank"].to_numpy(), rank, rtol=0, atol=1e-12)
    assert abs(got["rank"].sum() - 1.0) < 1e-9
    top = pagerank_edges(ds, top_k=5)
    want = pd.DataFrame({"node": nodes, "rank": rank}) \
        .sort_values(["rank", "node"], ascending=[False, True]).head(5)
    assert list(top["node"]) == list(want["node"])
    assert np.allclose(top["rank"].to_numpy(), want["rank"].to_numpy(),
                       rtol=0, atol=1e-12)


def test_pagerank_bit_identical_across_block_layouts(ray_session):
    """The same edges as 1 block and as 7 blocks give bit-identical
    ranks: every float sum adds in an order fixed by the edges, never by
    the block layout or by which task finishes first."""
    import ray.data as rd

    from pdf_parse_new_ray.functions.graph import pagerank_edges

    rng = np.random.RandomState(11)
    edges = pa.table({"src": rng.randint(0, 300, 5000).astype(np.int64),
                      "dst": rng.randint(0, 400, 5000).astype(np.int64)})
    one = pagerank_edges(rd.from_arrow(edges))
    seven = pagerank_edges(rd.from_arrow(edges).repartition(7))
    assert list(one["node"]) == list(seven["node"])
    assert np.array_equal(one["rank"].to_numpy(), seven["rank"].to_numpy())


def test_pagerank_copurchase_runs(ray_session, monkeypatch):
    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.functions.graph import g_pagerank_copurchase

    out = g_pagerank_copurchase("/root/testdata/sf0.001")  # BSP route
    assert len(out) == 20
    assert (out["rank"].to_numpy()[:-1] >= out["rank"].to_numpy()[1:]).all()
    # bound 0 (exchanged stage 1 + cogroup iteration) must reproduce the
    # in-process route (identical iteration formula, float merge-order
    # only)
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    dist = g_pagerank_copurchase("/root/testdata/sf0.001")
    pd.testing.assert_frame_equal(out, dist, check_exact=False, atol=1e-9)


def test_ngram_containment_detects_subset_doc(ray_session, tmp_path):
    """A document that is a strict prefix of another must score
    a_in_b = 1.0 (every gram contained) with b_in_a < 1 — the direction
    signal Jaccard can't express."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import dedup

    words = [f"w{i}" for i in range(40)]
    full = " ".join(words)
    # prefix long enough that the LSH bands collide with near-certainty
    # (J ~ 0.87 -> P(any of 16 bands) ~ 1); containment is exact either way
    prefix = " ".join(words[:35])
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": [prefix, full, "completely different content here now"],
    }), str(tmp_path / "documents.parquet"))
    out = dedup.d_ngram_containment(str(tmp_path))
    row = out[(out["a"] == 1) & (out["b"] == 2)]
    assert len(row) == 1
    assert row.iloc[0]["a_in_b"] == 1.0
    assert row.iloc[0]["b_in_a"] < 1.0
    assert 3 not in set(out["a"]) | set(out["b"])


def test_tpch_tail_cogroup_paths_match_broadcast(ray_session, monkeypatch):
    """q8/q12/q14/q17/q19 attach their part/orders/customer sides through
    joins.lookup, which broadcasts under joins.LOCAL_FOLD_ROWS;
    forcing the bucketed-cogroup scale path must reproduce the broadcast
    result exactly (same exact-integer money, different exchange layout)."""
    import pandas as pd

    from pdf_parse_new_ray.functions import joins, relational

    sf = "/root/testdata/sf0.001"
    base = {
        "q8": relational.q8_market_share(sf),
        "q12": relational.q12_ship_priority(sf),
        "q14": relational.q14_promo_share(sf),
        "q17": relational.q17_small_qty_revenue(sf),
        "q19": relational.q19_disjunct_revenue(sf),
    }
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    pd.testing.assert_frame_equal(base["q8"], relational.q8_market_share(sf))
    pd.testing.assert_frame_equal(base["q12"],
                                  relational.q12_ship_priority(sf))
    pd.testing.assert_frame_equal(base["q14"], relational.q14_promo_share(sf))
    pd.testing.assert_frame_equal(base["q17"],
                                  relational.q17_small_qty_revenue(sf))
    pd.testing.assert_frame_equal(base["q19"],
                                  relational.q19_disjunct_revenue(sf))


def test_q10_topk_boundary_deterministic(ray_session):
    """q10 orders its LIMIT boundary by exact sub-cents then custkey, so
    repeated runs return the identical top-20 set and row order."""
    import pandas as pd

    from pdf_parse_new_ray.functions import relational

    sf = "/root/testdata/sf0.001"
    a = relational.q10_returned_revenue(sf)
    b = relational.q10_returned_revenue(sf)
    assert len(a) <= relational.Q10_TOP_K
    pd.testing.assert_frame_equal(a, b)
    assert (a["revenue"].to_numpy()[:-1] >= a["revenue"].to_numpy()[1:]).all()


def test_kmeans_train_matches_naive_lloyd(ray_session):
    """e_kmeans_train's distributed partial-sum iterations must reproduce
    a single-process Lloyd on the same data and deterministic init
    (cluster sizes exact, inertia to float-merge tolerance)."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.001"
    out = ann.e_kmeans_train(sf)

    t = pq.read_table(f"{sf}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    import pyarrow.compute as pc

    t = t.take(pc.sort_indices(t.column("vec_id")))
    m = ann.emb_matrix(t)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    cents = m[: ann.KMEANS_K].copy()
    counts = inertia = None
    for _ in range(ann.KMEANS_ITERS):
        sims = m @ cents.T
        assign = sims.argmax(axis=1)
        counts = np.bincount(assign, minlength=ann.KMEANS_K)
        inertia = np.zeros(ann.KMEANS_K)
        new = cents.copy()
        for c in range(ann.KMEANS_K):
            sel = m[assign == c]
            if len(sel):
                s = sel.sum(axis=0)
                new[c] = s / np.linalg.norm(s)
                inertia[c] = (2.0 - 2.0 * sims[assign == c, c]).sum()
        cents = new
    assert (out["size"].to_numpy() == counts).all()
    assert np.allclose(out["inertia"].to_numpy(), inertia, atol=1e-4)


def test_cms_estimate_one_sided(ray_session):
    """Count-Min estimates can only overcount: est >= exact for every
    reported heavy hitter, and the candidate set is the exact top-k."""
    from pdf_parse_new_ray.functions import relational

    out = relational.q_cms_heavy_hitters("/root/testdata/sf0.001")
    assert 0 < len(out) <= relational.CMS_TOP_K  # sf0.001 has < k users
    assert (out["est_count"] >= out["exact_count"]).all()


def test_semdedup_planted_pair_collapses(ray_session, planted_embeddings_dir):
    """The planted near-identical pair (vec 0 ~ vec 1) must land in one
    cluster, form one duplicate group, and keep exactly one member —
    the one with the LOWER centroid cosine (SemDeDup keep-low)."""
    from pdf_parse_new_ray.functions import dedup

    out = dedup.d_semdedup(planted_embeddings_dir, n_clusters=4)
    assert len(out) == 40                       # one row per vector
    assert out["vec_id"].is_unique
    a, b = out[out["vec_id"] == 0].iloc[0], out[out["vec_id"] == 1].iloc[0]
    assert a["cluster"] == b["cluster"]
    assert a["keep_ref"] == b["keep_ref"]       # same duplicate group
    assert int(a["keep"]) + int(b["keep"]) == 1  # exactly one survivor
    kept = a if a["keep"] else b
    other = b if a["keep"] else a
    assert kept["centroid_cos"] <= other["centroid_cos"]
    # every group's keeper is a member of the group
    for ref, grp in out.groupby("keep_ref"):
        assert (grp["vec_id"] == ref).any()
        assert grp["keep"].sum() == 1


def test_triangle_count_cogroup_path_matches_broadcast(ray_session,
                                                       monkeypatch):
    """The wedge join at ``joins.LOCAL_FOLD_ROWS`` 0 (exchanged stage 1,
    dedupe, degree census, two orient attaches, wedge cogroup) must
    reproduce the in-process pair-key close of the default bound
    exactly."""
    import pandas as pd

    from pdf_parse_new_ray.functions import graph, joins

    sf = "/root/testdata/sf0.001"
    base = graph.g_triangle_count(sf)
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    wedge_join = graph.g_triangle_count(sf)
    pd.testing.assert_frame_equal(base, wedge_join)
    assert int(base["n_triangles"].iloc[0]) > 0  # non-trivial input


def test_pca_power_iteration_matches_naive(ray_session):
    """The distributed PCA partials must reproduce a single-process power
    iteration on the same init, and converge toward numpy's dominant
    eigenvector of the exact covariance."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pdf_parse_new_ray.functions import ann

    sf = "/root/testdata/sf0.001"
    out = ann.e_pca_power_iteration(sf)
    w = out["weight"].to_numpy()

    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])
    m = ann.emb_matrix(t)
    mean = m.mean(axis=0)
    x = m - mean
    v = np.zeros(x.shape[1])
    v[0] = 1.0
    for _ in range(ann.PCA_ITERS):
        s = x.T @ (x @ v)
        eig = (x @ v) @ (x @ v) / len(x)
        v = s / np.linalg.norm(s)
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    assert np.allclose(w, v, atol=1e-6)
    assert abs(out["eigenvalue"].iloc[0] - eig) < 1e-6
    # and against the exact dominant eigvec (same subspace, tolerance
    # bounded by the eigengap after PCA_ITERS steps)
    cov = x.T @ x / len(x)
    vals, vecs = np.linalg.eigh(cov)
    top = vecs[:, -1]
    # synthetic embeddings have a small eigengap, so after PCA_ITERS
    # steps assert convergence via the Rayleigh quotient (>=95% of the
    # true top eigenvalue) plus substantial alignment
    assert out["eigenvalue"].iloc[0] >= 0.95 * vals[-1]
    assert abs(float(np.abs(top @ w))) > 0.9


def test_tpch_q2_q9_q11_q16_q20_q22_oracled(ray_session, monkeypatch):
    """The adapted TPC-H tail (argmin-per-key join, multi-attach profit
    rollup, global-scalar HAVING, distinct-count with NOT-IN exclusion,
    dominance ratio semi-join, global-avg + anti-join) equals the DuckDB
    oracles exactly at sf0.001 — on the broadcast paths AND with the
    bucketed-cogroup scale paths forced (joins.LOCAL_FOLD_ROWS = 0)."""
    import duckdb

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import joins, relational

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("region", "nation", "part", "supplier", "orders",
              "lineitem", "customer"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    sqls = entry.oracle_sql()
    names = ("q2_min_cost_supplier", "q9_product_type_profit",
             "q11_important_parts", "q16_supplier_cnt",
             "q20_dominant_suppliers", "q21_waiting_suppliers",
             "q22_idle_rich_customers")
    base = {}
    for name in names:
        out = getattr(relational, name)(sf)
        ora = con.execute(sqls[name]).fetchdf()
        assert len(out) > 0, name
        pd.testing.assert_frame_equal(
            out.sort_index(axis=1).reset_index(drop=True),
            ora.sort_index(axis=1).reset_index(drop=True),
            check_dtype=False), name
        base[name] = out
    # scale paths must reproduce the broadcast results bit-for-bit
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    for name in ("q2_min_cost_supplier", "q9_product_type_profit",
                 "q11_important_parts", "q16_supplier_cnt",
                 "q20_dominant_suppliers"):
        pd.testing.assert_frame_equal(base[name],
                                      getattr(relational, name)(sf)), name


def test_lsh_dispatch_equivalence(ray_session):
    """The keyed vectorized pair walk (_bucket_pairs_multi, many fine
    buckets per call) emits EXACTLY the pair set of the per-fine-bucket
    reference (tests/dedup_refs.py), including hot-bucket star-capping
    and the multi-band Max(capped) merge (VERDICT r3 'done' criterion for
    the LSH dispatch rewrite)."""
    import ray.data as rd

    import dedup_refs
    from pdf_parse_new_ray.functions import dedup

    rng = np.random.RandomState(3)
    doc_ids: list[int] = []
    buckets: list[int] = []
    hot_n = dedup.BUCKET_PAIR_CAP + 20
    doc_ids += list(range(hot_n))
    buckets += [111] * hot_n
    next_id = hot_n
    for bk, size in [(500, 2), (501, 3), (502, 7), (503, 1), (504, 1),
                     (505, 17), (506, 1)]:
        doc_ids += list(range(next_id, next_id + size))
        buckets += [bk] * size
        next_id += size
    # docs 0,1 ALSO meet in a cool bucket: the (0,1) pair must surface
    # capped=True (hot bucket) via Max over both bands
    doc_ids += [0, 1]
    buckets += [777, 777]
    # random sprinkle incl. repeated (bucket, doc) rows
    doc_ids += rng.randint(0, next_id, 300).tolist()
    buckets += rng.randint(0, 60, 300).tolist()
    table = pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "bucket": pa.array(np.asarray(buckets, np.uint64), pa.uint64()),
    })
    bands = rd.from_arrow(table).repartition(7)
    new = dedup.lsh_pairs(bands).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    old = dedup_refs.lsh_pairs(table, dedup.BUCKET_PAIR_CAP)
    pd.testing.assert_frame_equal(new, old)
    assert new["capped"].any() and (~new["capped"]).any()
    assert ((new["a"] == 0) & (new["b"] == 1) & new["capped"]).any()


def test_minhash_batched_signatures():
    """The batched reduceat signature path is bit-identical to the
    per-doc signature() reference on empty/short/long/repetitive texts
    (VERDICT r3 'done' criterion for the signature vectorization)."""
    from pdf_parse_new_ray.functions.dedup import MinHasher

    mh = MinHasher()
    texts = ["", "one", "two words", "three word doc",
             "the quick brown fox jumps over the lazy dog repeatedly",
             "a b c a b c a b c", ("word salad " * 300).strip(), None]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    out = mh(t)
    for i, txt in enumerate(texts):
        want = mh.signature(txt or "").tobytes()
        assert out.column("sig")[i].as_py() == want, i


def test_events_driver_fold_forced_paths_equal(ray_session, monkeypatch):
    """Every in-process keyed fold (joins.LOCAL_FOLD_ROWS) / dim-metadata
    driver fold must equal its distributed path exactly: force the gates
    to 0 and re-run the gated queries (heavy hitters, CMS, copurchase
    top-K, decile ranks, the continuous-quantile two-pass) at sf0.001."""
    from pdf_parse_new_ray.functions import joins, relational

    sf = "/root/testdata/sf0.001"
    queries = [relational.q_heavy_hitters, relational.q_cms_heavy_hitters,
               relational.q_copurchase_pairs, relational.q_decile_stats,
               relational.q_value_quantiles_by_type,
               # the keyed window family
               relational.q_sessionization,
               relational.q_asof_view_before_click,
               relational.q_running_balance, relational.q_rolling_avg,
               relational.q_event_lag, relational.q_user_first_last,
               relational.q_orders_above_customer_avg,
               relational.q_event_transitions, relational.q_late_data_drop,
               relational.q_trailing_hour_sum, relational.q_kmv_distinct,
               relational.q_hll_distinct, relational.q_event_type_pivot,
               relational.q_event_age, relational.q_top_orders_per_customer,
               relational.q_user_event_stats,
               relational.q_session_overlap_counts,
               relational.q_customers_without_orders,
               relational.q_customers_with_orders,
               relational.q_cohort_retention]
    fast = [q(sf) for q in queries]
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    for q, want in zip(queries, fast):
        got = q(sf)
        # datetime64 unit (ns vs us) may differ between the driver-read
        # and take_all paths; values must not
        def _us(df):
            df = df.reset_index(drop=True)
            for c in df.columns:
                if str(df[c].dtype).startswith("datetime64"):
                    df[c] = df[c].astype("datetime64[us]")
            return df
        pd.testing.assert_frame_equal(_us(got), _us(want),
                                      check_exact=False, atol=1e-9)
