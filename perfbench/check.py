"""Output checks for every timed job.

Extraction: the committed output must hold exactly the oracle's documents,
each with the oracle's span sequence (kind, text, media_ref, offset) and no
error rows.  Queries: every result must equal its DuckDB oracle under the
repository's own canonical comparison (``tools.check_queries.compare``).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.dataset as pds


def compare_docs(got: pa.Table, oracle: pa.Table) -> list[str]:
    """One line per bad document: missing, unexpected, errored, or with a
    span sequence that differs from the oracle's."""
    want = dict(zip(oracle.column("doc_id").to_pylist(),
                    oracle.column("spans").to_pylist()))
    bad: list[str] = []
    seen: set = set()
    n_err = (got.column("n_errors").to_pylist() if "n_errors" in got.column_names
             else [0] * got.num_rows)
    for doc_id, spans, errs in zip(got.column("doc_id").to_pylist(),
                                   got.column("spans").to_pylist(), n_err):
        if doc_id in seen:
            bad.append(f"{doc_id}: duplicated in output")
            continue
        seen.add(doc_id)
        if doc_id not in want:
            bad.append(f"{doc_id}: not in oracle")
        elif errs:
            bad.append(f"{doc_id}: {errs} error span(s)")
        elif spans != want[doc_id]:
            bad.append(f"{doc_id}: {_first_diff(spans, want[doc_id])}")
    bad.extend(f"{d}: missing from output" for d in want if d not in seen)
    return bad


def _first_diff(got: list, want: list) -> str:
    if len(got) != len(want):
        return f"{len(got)} spans, oracle has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            for key in ("kind", "media_ref", "offset", "text"):
                if g.get(key) != w.get(key):
                    return f"span {i} {key} differs ({str(g.get(key))[:40]!r})"
    return "spans differ"


def check_extraction(out_dir: str, corpus_dir: str) -> tuple[int, list[str]]:
    """(documents attempted, mismatch lines) for one committed job."""
    from pdf_parse_new_ray.state import checkpoint as ckpt

    oracle = pds.dataset(f"{corpus_dir}/oracle_docs").to_table()
    try:
        got = ckpt.read_output(out_dir)
    except FileNotFoundError as e:
        return oracle.num_rows, [f"no output: {e}"]
    return oracle.num_rows, compare_docs(got, oracle)


def oracle_frames(tables_dir: str, table_names, sqls: dict[str, str],
                  cache_dir: str | None = None) -> dict:
    """DuckDB oracle result per query over the tables in ``tables_dir``.

    With ``cache_dir``, each result is kept there under a hash of the DuckDB
    version, the SQL and the table files (all it depends on), and read back
    by later runs in the same checkout."""
    import duckdb
    import pandas as pd

    out: dict = {}
    todo = dict(sqls)
    paths: dict = {}
    if cache_dir is not None:
        h = hashlib.sha256(duckdb.__version__.encode())
        for t in table_names:
            with open(os.path.join(tables_dir, f"{t}.parquet"), "rb") as f:
                h.update(f.read())
        for name, sql in sqls.items():
            key = hashlib.sha256(h.digest() + sql.encode()).hexdigest()[:32]
            paths[name] = os.path.join(cache_dir, f"{name}-{key}.pkl")
            if os.path.exists(paths[name]):
                out[name] = pd.read_pickle(paths[name])
                del todo[name]
    if not todo:
        return out
    con = duckdb.connect()
    for t in table_names:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tables_dir}/{t}.parquet')")
    try:
        for name, sql in todo.items():
            out[name] = con.execute(sql).fetchdf()
            if name in paths:
                os.makedirs(cache_dir, exist_ok=True)
                out[name].to_pickle(paths[name] + ".tmp")
                os.replace(paths[name] + ".tmp", paths[name])
    finally:
        con.close()
    return out
