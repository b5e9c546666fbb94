"""The row-range table reader (``sources.interleaved.read_table``) and the
query behaviour that depends on block layout: exact q1 sums and empty
``events`` tables."""

import os
import re
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
from bench import _sf_dir  # noqa: E402 - the benchmark's table directory

SF001 = os.path.join(os.path.dirname(_sf_dir()), "sf0.001")
SF0_01 = os.path.join(os.path.dirname(_sf_dir()), "sf0.01")
SF01 = os.path.join(os.path.dirname(_sf_dir()), "sf0.1")


def _table(n: int, start: int = 0) -> pa.Table:
    return pa.table({"k": pa.array(np.arange(start, start + n), pa.int64()),
                     "v": pa.array([f"r{i}" for i in range(start, start + n)],
                                   pa.string()),
                     "w": pa.array(np.arange(start, start + n) * 0.5)})


def _write(path: str, t: pa.Table, row_group_size: int) -> None:
    pq.write_table(t, path, row_group_size=row_group_size)


def _run_tasks(source, monkeypatch):
    """Call each read task in-process, in task order; record the (file,
    row groups) each one decodes."""
    decoded = []

    class Spy(pq.ParquetFile):
        def __init__(self, path, *a, **kw):
            super().__init__(path, *a, **kw)
            self.path = path

        def read_row_groups(self, row_groups, *a, **kw):
            decoded[-1].append((self.path, list(row_groups)))
            return super().read_row_groups(row_groups, *a, **kw)

    monkeypatch.setattr(pq, "ParquetFile", Spy)
    out = []
    for task in source.get_read_tasks(1):
        decoded.append([])
        (block,) = list(task())
        assert block.num_rows == task.metadata.num_rows
        out.append(block)
    return out, decoded


LAYOUTS = {
    # name: (rows per file, row-group size, tasks)
    "one_file_one_group": ([100], 100, 4),
    "several_files": ([30, 0, 45, 25], 1000, 4),
    "more_groups_than_tasks": ([100], 7, 4),
    "fewer_groups_than_tasks": ([100], 50, 4),
    "more_tasks_than_rows": ([3], 1, 4),
    "zero_rows": ([0], 10, 4),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_row_ranges_cover_each_row_once_in_file_order(layout, tmp_path,
                                                      monkeypatch):
    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.sources.interleaved import ParquetRows

    sizes, rg, n_tasks = LAYOUTS[layout]
    files, parts, start = [], [], 0
    for i, n in enumerate(sizes):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        parts.append(_table(n, start))
        _write(files[-1], parts[-1], rg)
        start += n
    whole = pa.concat_tables(parts)

    monkeypatch.setattr(joins, "exchange_buckets", lambda rows: n_tasks)
    source = ParquetRows(files, ["w", "k"])
    assert source.n_tasks == max(1, min(n_tasks, whole.num_rows))
    blocks, decoded = _run_tasks(source, monkeypatch)
    got = pa.concat_tables(blocks)
    # pruned to the asked columns, in the asked order, every row once
    assert got.column_names == ["w", "k"]
    assert got.equals(whole.select(["w", "k"]))
    assert len(blocks) == source.n_tasks
    # a task decodes only the row groups its range overlaps
    first = dict(zip(files, np.cumsum([0] + sizes[:-1])))
    size = dict(zip(files, sizes))
    bounds = np.cumsum([0] + [b.num_rows for b in blocks])
    for lo, hi, reads in zip(bounds[:-1], bounds[1:], decoded):
        for f, groups in reads:
            for g in groups:
                g_lo = first[f] + g * rg
                g_hi = first[f] + min((g + 1) * rg, size[f])
                assert g_lo < hi and g_hi > lo, (layout, f, g, lo, hi)
    # counts and schema come from the footers, with no read
    assert sum(t.metadata.num_rows for t in source.get_read_tasks(1)) \
        == whole.num_rows
    assert source.get_read_tasks(1)[0].schema.names == ["w", "k"]


def test_row_index_numbers_rows_in_table_order(tmp_path, monkeypatch):
    from pdf_parse_new_ray.functions import joins
    from pdf_parse_new_ray.sources.interleaved import ParquetRows

    files = []
    for i, n in enumerate([40, 25]):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        _write(files[-1], _table(n, 40 * i), 9)
    monkeypatch.setattr(joins, "exchange_buckets", lambda rows: 3)
    source = ParquetRows(files, ["k"], row_index="row")
    blocks, _ = _run_tasks(source, monkeypatch)
    got = pa.concat_tables(blocks)
    assert got.column("row").to_pylist() == list(range(65))
    assert got.column("k").to_pylist() == list(range(65))


def test_read_table_on_ray(ray_session, tmp_path):
    """Through Ray: the read runs one task per range (the session's CPUs
    for a small table), every row arrives once, ``count()`` and
    ``schema()`` need no read, and an empty table keeps its columns."""
    from pdf_parse_new_ray.sources.interleaved import read_table

    path = str(tmp_path / "t.parquet")
    _write(path, _table(1000), 128)
    ds = read_table(path, ["k", "v"])
    assert ds.count() == 1000
    assert ds.schema().names == ["k", "v"]
    got = ds.materialize()
    assert got.num_blocks() == int(ray_session.cluster_resources()["CPU"])
    assert sorted(got.to_pandas()["k"]) == list(range(1000))

    empty = str(tmp_path / "e.parquet")
    _write(empty, _table(0), 10)
    e = read_table(empty, ["v"])
    assert e.count() == 0 and e.schema().names == ["v"]
    assert e.materialize().num_blocks() == 1


def test_read_fuses_with_its_map(ray_session, tmp_path):
    """``Dataset.stats()`` of a read plus a map shows one fused
    ``Read...->MapBatches`` operator and no ``SplitBlocks``."""
    from pdf_parse_new_ray.sources.interleaved import read_table

    path = str(tmp_path / "t.parquet")
    _write(path, _table(5000), 5000)

    def double(t: pa.Table) -> pa.Table:
        return t.set_column(0, "k", pa.compute.multiply(t["k"], 2))

    stats = read_table(path, ["k"]).map_batches(
        double, batch_format="pyarrow").materialize().stats()
    ops = re.findall(r"^Operator \d+ (.+?):", stats, re.M)
    assert ops == ["ReadParquetRows->MapBatches(double)"], stats
    assert "SplitBlocks" not in stats


def test_no_direct_parquet_reads_in_functions():
    """Every ``functions/`` table read goes through the one reader."""
    root = os.path.join(REPO, "pdf_parse_new_ray", "functions")
    hits = [f"{name}:{i}" for name in sorted(os.listdir(root))
            if name.endswith(".py")
            for i, line in enumerate(open(os.path.join(root, name)), 1)
            if "rd.read_parquet(" in line]
    assert hits == []


def test_no_ray_groupby_in_functions():
    """Every ``functions/`` aggregation runs on ``joins.keyed`` (plain
    aggregates through ``joins.aggregate``): no Ray Dataset ``groupby``
    sort shuffle and no ``ray.data.aggregate`` import.  Only Ray's call
    shapes match (``.groupby(...)`` chained into ``.aggregate(`` or
    ``.map_groups(``, across line breaks); pandas ``df.groupby(...)
    .agg(...)`` and Arrow ``group_by`` stay."""
    ray_groupby = re.compile(r"\.groupby\((?:[^()]|\([^()]*\))*\)[\s\\]*"
                             r"\.(?:aggregate|map_groups)\(")
    root = os.path.join(REPO, "pdf_parse_new_ray", "functions")
    hits = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            src = open(os.path.join(root, name)).read()
            hits += [f"{name}:{src.count(chr(10), 0, m.start()) + 1}"
                     for pat in (ray_groupby, re.compile(r"ray\.data\.aggregate"))
                     for m in pat.finditer(src)]
    assert hits == []


@pytest.mark.skipif(not os.path.isdir(SF01), reason="needs the sf0.1 tables")
@pytest.mark.parametrize("local_rows", [None, 0])
def test_q1_sums_do_not_depend_on_block_layout(ray_session, monkeypatch,
                                               local_rows):
    """The same sf0.1 lineitem cut into 1, 3, 7 and 8 blocks gives the
    same q1 frame, equal to the DuckDB oracle (a float merge in block
    order put one sum_disc_price cell a cent off for some cuts)."""
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins, relational
    from tools.check_queries import compare

    if local_rows is not None:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", local_rows)
    path = f"{SF01}/lineitem.parquet"

    def cut(k):
        def read(p, columns=None, row_index=None, **kw):
            assert p == path
            t = pq.read_table(p, columns=columns)
            if row_index is not None:  # as read_table: each row's position
                t = t.append_column(row_index, pa.array(
                    np.arange(t.num_rows, dtype=np.int64)))
            b = [t.num_rows * i // k for i in range(k + 1)]
            return rd.from_arrow([t.slice(b[i], b[i + 1] - b[i])
                                  for i in range(k)])
        return read

    frames = []
    for k in (1, 3, 7, 8):
        monkeypatch.setattr(relational, "read_table", cut(k))
        frames.append(relational.q1_pricing_summary(SF01))
    for f in frames[1:]:
        assert f.equals(frames[0])
    assert compare("q1_pricing_summary", frames[0],
                   _oracle(SF01, "q1_pricing_summary")) == "OK"


FLOAT_SUM_QUERIES = ["q_events_daily", "q_customer_nation_balance",
                     "q_price_band_join", "q_rollup_revenue"]


@pytest.mark.parametrize("local_rows", [None, 0])
@pytest.mark.parametrize("sf_dir", [SF001, SF0_01, SF01],
                         ids=["sf0.001", "sf0.01", "sf0.1"])
@pytest.mark.parametrize("query", FLOAT_SUM_QUERIES)
def test_float_sums_do_not_depend_on_block_layout(ray_session, monkeypatch,
                                                  query, sf_dir, local_rows):
    """Each query whose oracle sums floats gives the same frame with its
    table cut into 1, 3, 7 and 8 blocks, gated and with every keyed fold
    exchanging, equal to the DuckDB oracle: each group's values add in
    table order (``joins.aggregate(order=...)``), not per block."""
    if not os.path.isdir(sf_dir):
        pytest.skip(f"needs the {os.path.basename(sf_dir)} tables")
    import ray.data as rd

    from pdf_parse_new_ray.functions import joins, relational
    from tools.check_queries import compare

    if local_rows is not None:
        monkeypatch.setattr(joins, "LOCAL_FOLD_ROWS", local_rows)

    def cut(k):
        def read(p, columns=None, row_index=None, **kw):
            t = pq.read_table(p, columns=columns)
            if row_index is not None:  # as read_table: each row's position
                t = t.append_column(row_index, pa.array(
                    np.arange(t.num_rows, dtype=np.int64)))
            b = [t.num_rows * i // k for i in range(k + 1)]
            return rd.from_arrow([t.slice(b[i], b[i + 1] - b[i])
                                  for i in range(k)])
        return read

    frames = []
    for k in (1, 3, 7, 8):
        monkeypatch.setattr(relational, "read_table", cut(k))
        frames.append(getattr(relational, query)(sf_dir))
    for f in frames[1:]:
        assert f.equals(frames[0])
    assert compare(query, frames[0], _oracle(sf_dir, query)) == "OK"


def _oracle(sf_dir: str, query: str):
    """The query's DuckDB oracle over the tables in ``sf_dir``."""
    import duckdb

    import __ray_entry__ as entry
    from tools.check_queries import TABLES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    return con.execute(entry.oracle_sql()[query]).fetchdf()


EMPTY_EVENTS_QUERIES = [
    "q_heavy_hitters", "q_kmv_distinct", "q_cms_heavy_hitters",
    "q_hll_distinct", "q_value_quantiles_by_type", "q_event_type_pivot",
    "q_user_event_stats", "q_sessionization", "q_session_overlap_counts",
    "q_user_first_last", "q_late_data_drop", "q_trailing_hour_sum",
    "q_events_daily", "q_props_value_stats", "q_hopping_window_counts",
    "q_daily_distinct_users",
]


@pytest.fixture(scope="module")
def empty_events_dir(tmp_path_factory):
    """sf0.001 with an ``events`` table of the same schema and 0 rows."""
    d = tmp_path_factory.mktemp("empty_events")
    for name in os.listdir(SF001):
        if name.endswith(".parquet") and name != "events.parquet":
            os.symlink(os.path.join(SF001, name), d / name)
    ev = pq.read_table(f"{SF001}/events.parquet")
    pq.write_table(ev.slice(0, 0), str(d / "events.parquet"))
    return str(d)


@pytest.mark.parametrize("query", EMPTY_EVENTS_QUERIES)
def test_events_queries_on_an_empty_table(ray_session, empty_events_dir,
                                          query):
    """Each query returns its columns and no rows when ``events`` is
    empty (the oracle's columns on the same input)."""
    import __ray_entry__ as entry
    from tools.check_queries import to_pandas

    out = to_pandas(entry.queries()[query](empty_events_dir))
    assert len(out) == 0
    assert sorted(out.columns) == sorted(
        _oracle(empty_events_dir, query).columns)
