"""The keyed exchange as a Ray Data plan operator (``joins.HashExchange``):
a query's reads, maps, exchanges and collect run as one job, each bucket
is reduced once, and a finished exchange is not run again when its result
is read a second time; the map-side split (``joins.AbsorbMaps``), whose
split tasks run the map that feeds an exchange, at the floor bucket count
and then re-split or folded locally as the counted rows ask;
``joins.aggregate``, the aggregation built on it;
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


@pytest.mark.parametrize("query", ["t_token_stats", "q_events_daily",
                                   "d_substring_dedup", "t_bigram_lm_score"])
def test_forced_aggregate_runs_as_one_job(ray_session, jobs, forced, query):
    """A forced ``joins.aggregate`` query (per-batch partials and one
    keyed merge for t_token_stats, the table-order fold for
    q_events_daily, a keyed gram-table fold then the per-doc merge for
    d_substring_dedup and t_bigram_lm_score) starts exactly one Ray Data
    execution, reduces each bucket once and matches its DuckDB oracle."""
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


@pytest.fixture
def dags(monkeypatch):
    """The physical plan of each Ray Data execution: the operators of its
    DAG, as (type name, operator name) pairs."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    seen = []
    execute = StreamingExecutor.execute

    def recording_execute(self, dag, *a, **kw):
        seen.append([(type(op).__name__, op.name)
                     for op in dag.post_order_iter()])
        return execute(self, dag, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", recording_execute)
    return seen


@pytest.fixture
def without_absorb():
    """A context in which ``joins.AbsorbMaps`` is out of Ray Data's
    physical ruleset, so every exchange side keeps its map operator."""
    import contextlib

    from ray.data._internal.logical.optimizers import get_physical_ruleset

    from pdf_parse_new_ray.functions import joins

    @contextlib.contextmanager
    def ctx():
        get_physical_ruleset().remove(joins.AbsorbMaps)
        try:
            yield
        finally:
            get_physical_ruleset().add(joins.AbsorbMaps)

    return ctx


def test_forced_frames_equal_without_absorb(ray_session, forced,
                                            without_absorb):
    """Every forced perfbench query gives the same frame, exactly, with
    the maps absorbed into the exchanges' split tasks and with the rule
    out of the ruleset (each map its own operator, a split wave of its
    own after it)."""
    import pandas as pd

    import __ray_entry__ as entry
    from perfbench.workloads import QUERIES

    sf = os.path.join(REPO, "perfbench", "data", "sf0.01")
    qs = entry.queries()
    with without_absorb():
        want = {q: qs[q](sf) for q in QUERIES}
    for q in QUERIES:
        pd.testing.assert_frame_equal(qs[q](sf), want[q], check_exact=True)


def test_forced_events_daily_runs_no_map_operator(ray_session, forced, dags,
                                                  jobs):
    """Forced, ``q_events_daily`` runs as one job whose only operators are
    the read tasks' input and one exchange, named after the read and the
    ``day`` map its split tasks run; without the rule the map is an
    operator of its own."""
    import __ray_entry__ as entry

    entry.queries()["q_events_daily"](SF001)
    assert jobs["jobs"] == 1
    assert dags == [[("InputDataBuffer", "Input"), (
        "HashExchangeOperator",
        "HashExchange(ReadParquetRows->MapBatches(day))")]]
    assert _oracle_ok("q_events_daily",
                      entry.queries()["q_events_daily"](SF001))


def _keyed_counts(ds):
    from pdf_parse_new_ray.functions import joins

    return joins.frame(joins.keyed(ds, "k", lambda t: t.group_by("k")
                                   .aggregate([("v", "sum")]))) \
        .sort_values("k").reset_index(drop=True)


def _source(n=5_000, keys=700, seed=4):
    import ray.data as rd

    rng = np.random.default_rng(seed)
    t = pa.table({"k": pa.array(rng.integers(0, keys, n), pa.int64()),
                  "v": pa.array(rng.integers(0, 100, n), pa.int64())})
    return t, rd.from_arrow([t.slice(i, 1_000) for i in range(0, n, 1_000)])


def test_resplit_past_the_floor(ray_session, monkeypatch, dags):
    """With ``EXCHANGE_ROWS_PER_BUCKET`` small, the counted rows ask for
    more buckets than the floor the absorbed sides split at: each floor
    bucket is split again.  The keyed fold and the attach give the rows
    they give at the floor, and a salted exchange's re-split keeps each
    shard's salt: every fact row lands once, and every dim row once per
    salt, never replicated again.  So does an exchange whose positive
    bound is below the rows: its absorbed sides are mapped whole, then
    split as any side."""
    import pandas as pd
    import pyarrow.compute as pc
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins

    t, ds = _source()
    keys = np.arange(0, 700, 2)
    vals = pa.table({"doc_id": pa.array(keys, pa.int64()),
                     "value": pa.array(keys * 3, pa.int64())})

    def identity(b):
        return b

    def mapped(src):
        return src.map_batches(identity, batch_format="pyarrow")

    def sizes(facts, dims):  # one row per salted bucket
        d = pa.concat_tables(dims) if dims else vals.slice(0, 0)
        return pa.table({
            "fact": [sum(f.num_rows for f in facts)], "dim": [d.num_rows],
            "dim_keys": [len(pc.unique(d["doc_id"]))]})

    def run():
        counts = _keyed_counts(mapped(ds))
        attached = joins.attach_value(
            mapped(ds), mapped(rd.from_arrow(vals)), "k", "x", pa.int64(),
            [("k", pa.int64()), ("v", pa.int64())]).to_pandas() \
            .sort_values(["k", "v", "x"]).reset_index(drop=True)
        salted = joins.hash_exchange(
            [(mapped(ds), joins.salted_fact_split("k", ["k", "v"], 4)),
             (mapped(rd.from_arrow(vals)),
              joins.salted_dim_split("doc_id", ["doc_id", "value"], 4))],
            sizes, n_salts=4).to_pandas()
        return counts, attached, salted

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    resplits = []
    resplit = joins.HashExchangeOperator._resplit

    def counting_resplit(self, i, j, refs):
        resplits.append((self._floor, self._n_buckets))
        return resplit(self, i, j, refs)

    monkeypatch.setattr(joins.HashExchangeOperator, "_resplit",
                        counting_resplit)
    at_floor = run()
    assert not resplits
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 100)
    whole = run()  # a positive bound: mapped whole, then split
    assert not resplits
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    monkeypatch.setattr(joins, "EXCHANGE_ROWS_PER_BUCKET", 100)
    refined = run()
    assert resplits and all(n > floor for floor, n in resplits)
    assert all(op != "TaskPoolMapOperator" for dag in dags
               for op, _ in dag)
    pd.testing.assert_frame_equal(refined[0], at_floor[0])
    want = t.to_pandas().groupby("k", as_index=False)["v"].sum()
    assert refined[0]["v_sum"].tolist() == want["v"].tolist()
    pd.testing.assert_frame_equal(refined[1], at_floor[1])
    hit = t.to_pandas()
    assert len(refined[1]) == int((hit["k"] % 2 == 0).sum())
    assert (refined[1]["x"] == refined[1]["k"] * 3).all()
    pd.testing.assert_frame_equal(whole[0], at_floor[0])
    pd.testing.assert_frame_equal(whole[1], at_floor[1])
    for salted in (at_floor[2], whole[2], refined[2]):
        assert salted["fact"].sum() == t.num_rows
        assert (salted["dim"] == salted["dim_keys"]).all()
        assert salted["dim"].sum() == 4 * len(keys)
    assert len(refined[2]) > len(at_floor[2])


def test_local_fold_over_shards(ray_session, monkeypatch, jobs, dags):
    """Under ``LOCAL_FOLD_ROWS`` (tested against the rows the absorbed
    split tasks counted, not the read's bundles), the fold runs once on
    the driver over the tables those tasks mapped, whole: no reduce task,
    no map operator, and the frame the exchange gives at bound 0."""
    import pandas as pd
    import pyarrow.compute as pc

    from pdf_parse_new_ray.functions import joins

    t, ds = _source()

    def double(b):
        return b.set_column(1, "v", pc.multiply(b["v"], 2))

    local = _keyed_counts(ds.map_batches(double, batch_format="pyarrow"))
    assert not jobs["reduces"]
    assert [op for op, _ in dags[-1]] == ["InputDataBuffer",
                                          "HashExchangeOperator"]
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    exchanged = _keyed_counts(ds.map_batches(double, batch_format="pyarrow"))
    assert jobs["reduces"]
    pd.testing.assert_frame_equal(local, exchanged)
    want = t.to_pandas().groupby("k", as_index=False)["v"].sum()
    assert (local["v_sum"].to_numpy() == 2 * want["v"].to_numpy()).all()


def test_only_single_consumer_task_pool_maps_are_absorbed(ray_session,
                                                          monkeypatch, dags):
    """An actor-pool map keeps its operator (and the exchange's split
    wave), and so does a task-pool map with a second consumer; a
    single-consumer task-pool map is absorbed.  Results are unchanged."""
    import pandas as pd
    from ray.data._internal.logical.optimizers import LogicalOptimizer
    from ray.data._internal.logical.rules.operator_fusion import (
        FuseOperators)
    from ray.data._internal.planner import create_planner

    from pdf_parse_new_ray.functions import joins

    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    t, ds = _source()
    want = t.to_pandas().groupby("k", as_index=False)["v"].sum()

    class Identity:
        def __call__(self, b):
            return b

    got = _keyed_counts(ds.map_batches(Identity, batch_format="pyarrow",
                                       concurrency=1))
    assert got["v_sum"].tolist() == want["v"].tolist()
    assert ("ActorPoolMapOperator", "MapBatches(Identity)") in dags[-1]

    def plan(second_consumer: bool):
        out = joins.keyed(ds.map_batches(lambda b: b, batch_format="pyarrow"),
                          "k", lambda b: b)
        p = FuseOperators().apply(create_planner().plan(
            LogicalOptimizer().optimize(out._logical_plan)))
        exchange = p.dag
        side = exchange.input_dependencies[0]
        if second_consumer:
            side._output_dependencies.append(exchange)
        joins.AbsorbMaps().apply(p)
        return exchange, side

    exchange, side = plan(second_consumer=True)
    assert exchange.input_dependencies[0] is side
    assert exchange.name == "HashExchange"
    exchange, side = plan(second_consumer=False)
    assert type(exchange.input_dependencies[0]).__name__ == "InputDataBuffer"
    assert exchange.name == "HashExchange(MapBatches(<lambda>))"
    pd.testing.assert_frame_equal(
        _keyed_counts(ds.map_batches(lambda b: b, batch_format="pyarrow")),
        got)


def test_absorb_rule_ray_internals(ray_session, monkeypatch):
    """Ray-internals guard for ``joins.AbsorbMaps``: it is in Ray Data's
    physical ruleset after ``FuseOperators`` and before
    ``ConfigureMapTaskMemoryUsingOutputSize``, and the ``ray.data.
    _internal`` names it reads on a map operator and its transformer
    still exist, so a Ray upgrade that moves them fails here, never
    silently.  ``Dataset.stats()`` names the absorbed map."""
    import ray.data as rd
    from ray.data._internal.execution.interfaces import TaskContext
    from ray.data._internal.logical.optimizers import get_physical_ruleset
    from ray.data._internal.logical.rules.configure_map_task_memory import (
        ConfigureMapTaskMemoryUsingOutputSize)
    from ray.data._internal.logical.rules.operator_fusion import (
        FuseOperators)
    from ray.data.context import DataContext

    from pdf_parse_new_ray.functions import joins

    rules = list(get_physical_ruleset())
    at = rules.index(joins.AbsorbMaps)
    assert rules.index(FuseOperators) < at < \
        rules.index(ConfigureMapTaskMemoryUsingOutputSize)
    assert joins.AbsorbMaps.dependencies() == [FuseOperators]
    assert callable(DataContext._set_current)
    assert callable(TaskContext.set_current) and \
        callable(TaskContext.reset_current)

    maps = []
    init = joins.TaskPoolMapOperator.__init__

    def recording_init(self, *a, **kw):
        init(self, *a, **kw)
        maps.append(self)

    monkeypatch.setattr(joins.TaskPoolMapOperator, "__init__",
                        recording_init)
    monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", 0)
    ds = rd.range(100).map_batches(lambda b: b, batch_format="pyarrow")
    out = joins.keyed(ds, "id", lambda b: b)
    assert sorted(out.to_pandas()["id"]) == list(range(100))
    assert "HashExchange(ReadRange->MapBatches(<lambda>))" in out.stats()
    m = maps[-1]
    assert m._block_ref_bundler._min_rows_per_bundle is None
    assert m.get_additional_split_factor() == 1
    for name in ("_ray_remote_args", "_ray_remote_args_fn",
                 "_map_task_kwargs", "_map_task_kwargs_fns", "_concurrency",
                 "_input_dependencies", "_output_dependencies", "_name"):
        assert hasattr(m, name), name
    tr = m.get_map_transformer()
    assert callable(tr.apply_transform) and \
        callable(tr.set_target_max_block_size)


def test_forced_minhash_reads_and_signs_in_one_operator(ray_session, forced,
                                                        dags):
    """Forced ``d_minhash_pairs``: the documents read and the MinHash map
    run as one fused operator (the map takes Ray's default whole-block
    batch and slices inside), and the query matches its oracle."""
    import __ray_entry__ as entry

    got = entry.queries()["d_minhash_pairs"](SF001)
    ops = [name for dag in dags for _, name in dag]
    assert "ReadParquetRows->MapBatches(_minhash_batch)" in ops
    assert "MapBatches(_minhash_batch)" not in ops
    assert "ReadParquetRows" not in ops
    assert _oracle_ok("d_minhash_pairs", got)


def test_sliced_bounds_each_call():
    """``joins.sliced`` runs its function over slices of at most ``rows``
    rows and concatenates the outputs in order; an empty table is one
    call."""
    from pdf_parse_new_ray.functions import joins

    seen = []

    def double(t):
        seen.append(t.num_rows)
        return pa.table({"x": pa.array(np.asarray(t["x"]) * 2, pa.int64())})

    t = pa.table({"x": pa.array(np.arange(1_000), pa.int64())})
    out = joins.sliced(double, 256)(t)
    assert seen == [256, 256, 256, 232]
    assert out["x"].to_pylist() == list(range(0, 2_000, 2))
    seen.clear()
    assert joins.sliced(double, 256)(t.slice(0, 0)).num_rows == 0
    assert seen == [0]
