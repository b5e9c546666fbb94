"""The keyed exchange as a Ray Data plan operator (``joins.HashExchange``):
a query's reads, maps, exchanges and collect run as one job, each bucket
is reduced once, and a finished exchange is not run again when its result
is read a second time; ``joins.aggregate``, the aggregation built on it;
``joins.lookup`` and the triangle count, whose one bound chooses between
a driver-side route and an exchange; and the iterative operators, whose
rounds are raw tasks that start no Ray Data job."""

import collections
import os
import sys

import numpy as np
import pyarrow as pa
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
SF001 = os.path.join(REPO, "perfbench", "data", "sf0.001")


@pytest.fixture
def jobs(monkeypatch):
    """Counts Ray Data executions (one ``StreamingExecutor.execute`` each)
    and reduce submissions per (exchange, reduced bucket)."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from pdf_parse_new_ray.functions import joins

    seen = {"jobs": 0, "reduces": collections.Counter()}
    execute = StreamingExecutor.execute
    submit = joins.HashExchangeOperator._submit_reduce

    def counting_execute(self, *a, **kw):
        seen["jobs"] += 1
        return execute(self, *a, **kw)

    def counting_submit(self, fn_ref, slot, per_side):
        seen["reduces"][(id(self._op), slot)] += 1
        return submit(self, fn_ref, slot, per_side)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    monkeypatch.setattr(joins.HashExchangeOperator, "_submit_reduce",
                        counting_submit)
    return seen


@pytest.fixture
def forced():
    """Every driver-fold and broadcast gate zeroed, as the benchmark's
    forced leg runs them."""
    import bench

    saved = bench._force_distributed_gates()
    try:
        yield
    finally:
        bench._restore_gates(saved)


@pytest.mark.parametrize("query", ["q3_top_orders", "q5_nation_revenue",
                                   "q8_market_share"])
def test_forced_join_runs_as_one_job(ray_session, jobs, forced, query):
    """A forced q3, q5 or q8 starts exactly one Ray Data execution: its
    reads, maps, every exchange and the final collect.  Every reduced
    bucket of every exchange is submitted once, and the query still
    matches its DuckDB oracle."""
    import duckdb

    import __ray_entry__ as entry
    from tools.check_queries import compare

    got = entry.queries()[query](SF001)
    assert jobs["jobs"] == 1
    assert jobs["reduces"] and set(jobs["reduces"].values()) == {1}
    assert len({op for op, _ in jobs["reduces"]}) >= 2  # chained exchanges
    con = duckdb.connect()
    for f in os.listdir(SF001):
        con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * FROM "
                    f"read_parquet('{SF001}/{f}')")
    assert compare(query, got,
                   con.execute(entry.oracle_sql()[query]).fetchdf()) == "OK"


def _oracle_ok(query, got) -> bool:
    import duckdb

    import __ray_entry__ as entry
    from tools.check_queries import compare

    con = duckdb.connect()
    for f in os.listdir(SF001):
        con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * FROM "
                    f"read_parquet('{SF001}/{f}')")
    return compare(query, got,
                   con.execute(entry.oracle_sql()[query]).fetchdf()) == "OK"


@pytest.fixture
def exchanges(monkeypatch):
    """Counts the ``HashExchange`` plan operators built."""
    from pdf_parse_new_ray.functions import joins

    seen = {"n": 0}
    init = joins.HashExchange.__init__

    def counting_init(self, *a, **kw):
        seen["n"] += 1
        init(self, *a, **kw)

    monkeypatch.setattr(joins.HashExchange, "__init__", counting_init)
    return seen


@pytest.mark.parametrize("query,bound", [
    ("e_kmeans_train", None), ("e_pca_power_iteration", None),
    ("g_pagerank_copurchase", None), ("g_pagerank_copurchase", 0)])
def test_iterative_query_runs_as_one_job(ray_session, monkeypatch, tmp_path,
                                         jobs, query, bound):
    """k-means, PCA and PageRank each start exactly one Ray Data job,
    their read (PageRank's pair fold too, exchanged at bound 0); every
    round is raw tasks (``joins.per_block`` or PageRank's shard tasks),
    so a job per round cannot come back unseen.  It reads perfbench's
    sf0.001 tables plus a seeded 500-vector embeddings table, which that
    copy lacks."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from pdf_parse_new_ray.functions import joins

    for f in os.listdir(SF001):
        os.symlink(os.path.join(SF001, f), tmp_path / f)
    emb = np.random.RandomState(5).rand(500, 16).astype(np.float32)
    pq.write_table(pa.table({
        "vec_id": np.arange(500, dtype=np.int64),
        "embedding": pa.array(list(emb), pa.list_(pa.float32()))}),
        tmp_path / "embeddings.parquet")
    if bound is not None:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
    out = entry.queries()[query](str(tmp_path))
    assert len(out) > 0
    assert jobs["jobs"] == 1


@pytest.mark.parametrize("query", ["q5_nation_revenue", "q8_market_share"])
def test_gated_dimension_joins_plan_no_exchange(ray_session, jobs, exchanges,
                                                query):
    """Gated (the shipped bounds), every dimension attach of q5 and q8 is
    a ``joins.lookup`` broadcast: the query plans no ``HashExchange``,
    runs as one Ray Data job and matches its DuckDB oracle."""
    import __ray_entry__ as entry

    got = entry.queries()[query](SF001)
    assert exchanges["n"] == 0
    assert jobs["jobs"] == 1
    assert _oracle_ok(query, got)


def test_lookup_routes_match_at_the_bound(ray_session, monkeypatch, tmp_path,
                                          exchanges):
    """``joins.lookup`` broadcasts a dimension table of exactly
    ``LOCAL_FOLD_ROWS`` rows (no ``HashExchange`` planned) and exchanges
    one of a row more (one ``HashExchange``); both routes give the same
    rows, with a plain attach and with a partial ``post`` combine that the
    caller merges.  ``filters`` drop dim rows on both routes."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    rng = np.random.default_rng(5)
    n_dim = 300
    dim = str(tmp_path / "dim.parquet")
    pq.write_table(pa.table({
        "k": pa.array(np.arange(n_dim), pa.int64()),
        "grp": pa.array(np.arange(n_dim) % 7, pa.int64()),
        "keep": pa.array(np.arange(n_dim) % 5 != 0)}), dim)
    fact = rd.from_arrow(pa.table({
        "fk": pa.array(rng.integers(0, n_dim + 50, 4_000), pa.int64()),
        "x": pa.array(rng.integers(0, 100, 4_000), pa.int64())})) \
        .repartition(4)

    def value(t):
        return pa.table({"doc_id": t["k"], "value": t["grp"]})

    def post(t):  # per-group partial sums of x
        return t.group_by("grp").aggregate([("x", "sum")])

    def run(bound, with_post, filters):
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        before = exchanges["n"]
        out = joins.lookup(
            fact, "fk", dim, ["k", "grp", "keep"], value, "grp", pa.int64(),
            [("fk", pa.int64()), ("x", pa.int64())], filters=filters,
            post=post if with_post else None)
        planned = exchanges["n"] - before
        df = out.to_pandas()
        if with_post:
            df = df.groupby("grp", as_index=False)["x_sum"].sum()
        return planned, df.sort_values(list(df.columns)) \
            .reset_index(drop=True)

    for with_post in (False, True):
        for filters in (None, [("keep", "==", True)]):
            planned_b, broadcast = run(n_dim, with_post, filters)
            planned_x, exchanged = run(n_dim - 1, with_post, filters)
            assert (planned_b, planned_x) == (0, 1)
            pd.testing.assert_frame_equal(broadcast, exchanged)
            assert len(broadcast) > 0
    f = fact.to_pandas()
    hit = f[(f["fk"] < n_dim) & (f["fk"] % 5 != 0)]
    got = run(n_dim, False, [("keep", "==", True)])[1]
    assert len(got) == len(hit) and (got["grp"] == got["fk"] % 7).all()


def test_graph_routes_match_at_the_bound(ray_session, monkeypatch,
                                         exchanges):
    """``LOCAL_FOLD_ROWS`` alone picks the triangle count's route, and
    PageRank has one route that does not read it.  PageRank on the
    sf0.001 co-purchase edges plans no ``HashExchange`` at bounds n
    (the vertex count), n - 1 and 0, and its ranks are bit-identical at
    all three.  The triangle count closes on the driver when the bound
    equals its pair-partial count (no exchange after stage 1) and runs
    the wedge join one below; the frames are equal."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_parse_new_ray.functions import graph, joins

    li = pq.read_table(os.path.join(SF001, "lineitem.parquet"),
                       columns=["l_orderkey", "l_partkey"])
    a, b = graph.order_part_pairs(li)
    edges = rd.from_arrow(pa.table({
        "src": np.concatenate((a, b)), "dst": np.concatenate((b, a))})) \
        .repartition(4).materialize()
    n = len(np.unique(np.concatenate((a, b))))

    def run(bound, fn, *args, **kw):  # -> (exchanges planned, result)
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", bound)
        before = exchanges["n"]
        out = fn(*args, **kw)
        return exchanges["n"] - before, out

    ranks = [run(bound, graph.pagerank_edges, edges)
             for bound in (n, n - 1, 0)]
    assert [planned for planned, _ in ranks] == [0, 0, 0]
    first = ranks[0][1]
    assert len(first) == n and abs(first["rank"].sum() - 1.0) < 1e-9
    for _, other in ranks[1:]:
        assert list(other["node"]) == list(first["node"])
        assert np.array_equal(other["rank"].to_numpy(),
                              first["rank"].to_numpy())

    # lineitem has fewer rows than either bound, so stage 1 folds
    # in-process at both and its partials are the distinct edges
    base = graph.g_triangle_count(SF001)
    n_pairs = int(base["n_edges"].iloc[0])
    assert li.num_rows < n_pairs - 1

    planned_b, closed = run(n_pairs, graph.g_triangle_count, SF001)
    planned_x, joined = run(n_pairs - 1, graph.g_triangle_count, SF001)
    assert planned_b == 1 and planned_x > 1
    pd.testing.assert_frame_equal(closed, joined)
    pd.testing.assert_frame_equal(closed, base)
    assert int(closed["n_triangles"].iloc[0]) > 0


@pytest.mark.parametrize("query", ["t_token_stats", "q_events_daily"])
def test_forced_aggregate_runs_as_one_job(ray_session, jobs, forced, query):
    """A forced ``joins.aggregate`` query (per-batch partials and one
    keyed merge for t_token_stats, the table-order fold for
    q_events_daily) starts exactly one Ray Data execution, reduces each
    bucket once and matches its DuckDB oracle."""
    import duckdb

    import __ray_entry__ as entry
    from tools.check_queries import compare

    got = entry.queries()[query](SF001)
    assert jobs["jobs"] == 1
    assert jobs["reduces"] and set(jobs["reduces"].values()) == {1}
    con = duckdb.connect()
    for f in os.listdir(SF001):
        con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * FROM "
                    f"read_parquet('{SF001}/{f}')")
    assert compare(query, got,
                   con.execute(entry.oracle_sql()[query]).fetchdf()) == "OK"


@pytest.mark.parametrize("local_rows", [None, 0])
def test_aggregate_ops_order_and_empty_input(ray_session, monkeypatch,
                                            local_rows):
    """``joins.aggregate``: count/sum/min/max over two keys equal pandas',
    gated and exchanged; a float sum raises unless given a row order, and
    with one it adds each group in table order whatever the block cut
    (1e16 + 1 - 1e16 + 1 is 1.0 in order, 0.0 merged per block of two);
    a zero-row input keeps the spec's columns through ``joins.frame``."""
    import pandas as pd
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    if local_rows is not None:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", local_rows)
    rng = np.random.default_rng(3)
    t = pa.table({"a": pa.array(rng.integers(0, 5, 3_000), pa.int64()),
                  "b": pa.array(rng.choice(["x", "y"], 3_000)),
                  "v": pa.array(rng.integers(-50, 50, 3_000), pa.int64())})
    got = joins.frame(joins.aggregate(
        rd.from_arrow(t).repartition(6), ["a", "b"],
        {"n": (None, "count"), "s": ("v", "sum"), "lo": ("v", "min"),
         "hi": ("v", "max")})).sort_values(["a", "b"]).reset_index(drop=True)
    want = t.to_pandas().groupby(["a", "b"], as_index=False).agg(
        n=("v", "size"), s=("v", "sum"), lo=("v", "min"), hi=("v", "max"))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    f = pa.table({"k": ["g"] * 4, "x": [1e16, 1.0, -1e16, 1.0],
                  "row": pa.array(np.arange(4), pa.int64())})
    with pytest.raises(Exception, match="float sum"):
        joins.frame(joins.aggregate(rd.from_arrow(f), "k",
                                    {"s": ("x", "sum")}))
    for cut in ([4], [2, 2], [1, 1, 1, 1], [3, 1]):
        blocks = rd.from_arrow([f.slice(sum(cut[:i]), n)
                                for i, n in enumerate(cut)])
        got = joins.frame(joins.aggregate(blocks, "k", {"s": ("x", "sum")},
                                          order="row"))
        assert got["s"].tolist() == [1.0]

    empty = joins.frame(joins.aggregate(
        rd.from_arrow(t.slice(0, 0)), ["a", "b"],
        {"n": (None, "count"), "s": ("v", "sum"), "hi": ("v", "max")}))
    assert len(empty) == 0 and list(empty.columns) == ["a", "b", "n", "s",
                                                       "hi"]


def test_attach_is_one_job_named_in_stats(ray_session, jobs, monkeypatch):
    """Ray-internals guard: the operator is registered with Ray Data's
    planner and resource manager, a two-sided attach_value runs as one
    job, and ``Dataset.stats()`` names the exchange.  A Ray upgrade that
    moves the ``ray.data._internal`` names ``joins`` relies on fails here
    (or at import), never silently."""
    import ray.data as rd
    from ray.data._internal.execution import resource_manager
    from ray.data._internal.planner.planner import Planner

    from pdf_parse_new_ray.functions import joins

    assert Planner._DEFAULT_PLAN_FNS[joins.HashExchange] is \
        joins._plan_exchange
    assert joins.HashExchangeOperator in \
        resource_manager.MATERIALIZING_OPERATORS

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    rng = np.random.default_rng(8)
    pairs = rd.from_arrow(pa.table({
        "k": pa.array(rng.integers(0, 400, 5_000), pa.int64()),
        "x": pa.array(np.arange(5_000), pa.int64())})).repartition(5)
    vals = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(300), pa.int64()),
        "value": pa.array(np.arange(300) * 3, pa.int64())}))
    out = joins.attach_value(pairs.map_batches(lambda t: t), vals, "k", "v",
                             pa.int64(), [("k", pa.int64()),
                                          ("x", pa.int64())])
    df = out.to_pandas()
    assert jobs["jobs"] == 1
    assert "HashExchange" in out.stats()
    assert len(df) == int((pairs.to_pandas()["k"] < 300).sum())
    assert (df["v"] == df["k"] * 3).all()


def test_exchange_result_read_twice_reduces_once(ray_session, jobs,
                                                 monkeypatch):
    """A finished exchange keeps its reduced buckets on its plan operator:
    reading the result again (count, then rows) runs no split or reduce
    task a second time, and gives the same rows."""
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    ds = rd.from_arrow(pa.table({
        "k": pa.array(np.arange(2_000) % 97, pa.int64())})).repartition(4)
    out = joins.keyed(ds, "k", lambda t: t.group_by("k").aggregate(
        [("k", "count")]))
    assert out.count() == 97
    first = dict(jobs["reduces"])
    rows = out.to_pandas()
    assert dict(jobs["reduces"]) == first and set(first.values()) == {1}
    assert len(rows) == 97 and (rows["k_count"].sum() == 2_000)


def test_extract_write_commits_each_partition_once(ray_session, small_corpus,
                                                   tmp_path):
    """extract_documents in write mode, its result consumed once: one
    metrics row and one committed fragment per partition, and no other
    file under any partition directory (a second run of the regroup fold
    would leave the first run's fragments as orphans).  Reading the result
    again writes nothing."""
    from pdf_parse_new_ray.pipelines.extraction import extract_documents
    from pdf_parse_new_ray.state import checkpoint as ckpt

    out = str(tmp_path / "out")
    ds = extract_documents(f"{small_corpus}/documents_interleaved",
                           f"{small_corpus}/media", out_dir=out,
                           n_partitions=8)

    def on_disk():
        return {d: sorted(os.listdir(os.path.join(out, d)))
                for d in os.listdir(out) if d.startswith("part=")}

    rows = ds.take_all()
    assert sorted(r["partition"] for r in rows) == list(range(8))
    assert ckpt.completed_partitions(out) == set(range(8))
    files = on_disk()
    assert sorted(files) == [f"part={k}" for k in range(8)]
    for k in range(8):
        committed = [os.path.basename(p) for p in ckpt.partition_files(out, k)]
        assert len(committed) == 1 and files[f"part={k}"] == committed
    assert ds.count() == 8
    assert on_disk() == files
