"""Source readers for the interleaved corpus (BASELINE.json input_hint)
and the one table reader of ``functions/``.

The production layout is a Lance table of interleaved text+media documents
(`doc_id, spans: list<struct<kind,text,media_ref,offset>>`) plus a media
table (`media_ref, bytes`).  This container has no `lance` package, so the
readers prefer `ray.data.read_lance` when importable and fall back to the
parquet twin layout the fixture generator writes — same schema, same
pipeline downstream (reference analogue: S1 file read, SURVEY §2.1).

Column pruning happens AT THE READ: pass ``columns`` so only requested
columns leave storage (at 100 TB a full-width read for a 2-column
transform is wrong).

**Row-range reads.**  A parquet table read without an explicit block
count is cut into ``joins.exchange_buckets(rows)`` contiguous row ranges
(rows from the footers, so the count costs no read), one read task
each: the cluster's CPUs until a range would pass 250k rows, the same
rule that sizes every keyed exchange.  ``rd.read_parquet`` reads a
single-file table in one task and splits its output into 2 x CPUs
blocks (``ReadParquet->SplitBlocks(8)`` on 4 CPUs); the split keeps the
read from fusing with the map after it, so a read+map ``materialize()``
of sf0.01 ``orders`` (15k rows) took 131-187 ms there, against 79 ms as
one fused block and 2.5 ms for ``pq.read_table`` (4-vCPU host).  Here
Ray plans the read with exactly as many tasks as blocks, so it adds no
split and fuses with its maps (``ReadParquetRows->MapBatches(...)``),
and an exchange after it runs one split task per range.  Explicit block
counts (the media reads, whose cost is per PDF byte, not per row) still
go through ``rd.read_parquet``.
"""

from __future__ import annotations

import functools
import os
from typing import Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _is_lance(path: str) -> bool:
    return path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions"))


def own_start(ds: rd.Dataset) -> rd.Dataset:
    """Let ``ds``'s operators start all their tasks at once.  Ray 2.49's
    op-resource reservation budgets a new task's output at
    ``target_max_block_size`` until the operator's first task ends, so
    when the object store is small against that size × CPUs (768 MB on 4
    CPUs, say) a map operator runs one task alone before the rest.  The
    switch is set on the Dataset's own context (which Ray shares along a
    chain of Datasets derived from it), never on the global DataContext.
    Lifting it on every ``functions/`` Dataset moved traced
    ``queries_forced`` jobs by only 2-3%; the read split (module
    docstring) was the larger cost there."""
    ds.context.op_resource_reservation_enabled = False
    return ds


def _parquet_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    import pyarrow.dataset as pds

    return sorted(pds.dataset(path, format="parquet").files)


def _read_range(picks: list, skip: Optional[int], start: int, end: int,
                columns: Optional[list[str]], schema: pa.Schema,
                row_index: Optional[str]) -> list[pa.Table]:
    """One :class:`ParquetRows` task: rows ``[start, end)``, decoded from
    the picked ``(file, row groups)``, the first of which starts ``skip``
    rows before ``start``.  A module function, so a read task pickles by
    reference: a closure pickled by value cost about 19 ms of driver time
    per read at each job start (4-vCPU host)."""
    parts = [pq.ParquetFile(f).read_row_groups(gs, columns=columns)
             for f, gs in picks]
    if not parts:
        return [schema.empty_table()]
    t = pa.concat_tables(parts).slice(skip, end - start) \
        .replace_schema_metadata()
    if row_index is not None:
        t = t.append_column(row_index, pa.array(range(start, end), pa.int64()))
    return [t]


class ParquetRows(Datasource):
    """Parquet files read as ``n_tasks`` contiguous row ranges (file
    order, then row order; ``joins.exchange_buckets`` of the row count,
    at most one range per row); a task decodes only the row groups its range
    overlaps and slices them to the range.  Row counts, the schema and an
    in-memory size estimate (the selected columns' uncompressed chunk
    sizes) come from the footers, so ``count()`` and ``schema()`` run no
    task.  A 0-row table reads as one empty block that keeps the schema.
    ``row_index`` names an extra int64 column holding each row's position
    in the table, for folds whose result depends on row order."""

    def __init__(self, files: list[str], columns: Optional[list[str]],
                 row_index: Optional[str] = None):
        self._files, self._columns, self._row_index = files, columns, row_index
        # no schema metadata (the writer's pandas metadata, say): a schema
        # that carries it is unhashable, so Ray's schema dedup would fail
        # on every block and fall back to a full unify
        schema = pq.read_schema(files[0]).remove_metadata()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        keep = set(schema.names)
        if row_index is not None:
            schema = schema.append(pa.field(row_index, pa.int64()))
        self._schema = schema
        # (file index, row group, first global row, rows, estimated bytes)
        self._groups, rows = [], 0
        for fi, f in enumerate(files):
            md = pq.read_metadata(f)
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                size = sum(rg.column(c).total_uncompressed_size
                           for c in range(rg.num_columns)
                           if rg.column(c).path_in_schema.split(".")[0] in keep)
                self._groups.append((fi, g, rows, rg.num_rows, size))
                rows += rg.num_rows
        self._rows = rows
        from ..functions.joins import exchange_buckets

        self.n_tasks = max(1, min(exchange_buckets(rows), rows))

    def estimate_inmemory_data_size(self) -> Optional[int]:
        return sum(g[4] for g in self._groups)

    def get_name(self) -> str:
        return "ParquetRows"

    def _range_task(self, start: int, end: int) -> ReadTask:
        # overlapping row groups per file, the range's offset into the
        # first one, and a size share of each overlapped group
        picks: dict[int, list[int]] = {}
        skip, size = None, 0
        for fi, g, first, n, nbytes in self._groups:
            if first + n <= start or first >= end or not n:
                continue
            if skip is None:
                skip = start - first
            picks.setdefault(fi, []).append(g)
            size += nbytes * (min(end, first + n) - max(start, first)) // n
        files = [self._files[fi] for fi in picks]
        read = functools.partial(
            _read_range, list(zip(files, picks.values())), skip,
            start, end, self._columns, self._schema, self._row_index)
        meta = BlockMetadata(num_rows=end - start, size_bytes=size,
                             input_files=files, exec_stats=None)
        return ReadTask(read, meta, schema=self._schema)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        n = self.n_tasks
        bounds = [self._rows * i // n for i in range(n + 1)]
        return [self._range_task(bounds[i], bounds[i + 1]) for i in range(n)]


def read_table(path: str, columns: Optional[list[str]] = None, *,
               row_index: Optional[str] = None,
               override_num_blocks: Optional[int] = None) -> rd.Dataset:
    """Read a table: Lance if the dataset is Lance-format and the reader is
    available, else parquet.  A parquet read without
    ``override_num_blocks`` runs as :class:`ParquetRows` row ranges (see
    the module docstring), with each row's table position in the column
    ``row_index`` when given; with it, as ``rd.read_parquet`` with that
    block count.  Either way the Dataset starts its operators' tasks together
    (:func:`own_start`)."""
    if _is_lance(path):
        try:
            return rd.read_lance(path, columns=columns)
        except (ImportError, AttributeError):
            raise ImportError(
                "lance dataset at %s but the 'lance' package is not installed" % path)
    if override_num_blocks is not None:
        return own_start(rd.read_parquet(path, columns=columns,
                                         override_num_blocks=override_num_blocks))
    source = ParquetRows(_parquet_files(path), columns, row_index)
    return own_start(rd.read_datasource(source,
                                        override_num_blocks=source.n_tasks))


def write_table(ds: rd.Dataset, path: str, *, format: Optional[str] = None,
                **kwargs):
    """Write-side mirror of :func:`read_table`'s dispatch (VERDICT r4
    item 8): ``format='lance'`` or a ``.lance`` path routes to
    ``Dataset.write_lance`` (streaming, fragment-per-block — the same
    resume-friendly layout as the parquet sink), anything else to
    partitioned ``write_parquet``.  This container has no `lance`
    package, so the Lance branch raises ImportError when the writer is
    missing; the stub-injection test proves path+kwargs reach
    write_lance unchanged."""
    fmt = format or ("lance" if path.endswith(".lance") else "parquet")
    if fmt == "lance":
        writer = getattr(ds, "write_lance", None)
        if writer is None:
            raise ImportError(
                "lance sink at %s but Dataset.write_lance is unavailable "
                "(the 'lance' package is not installed)" % path)
        return writer(path, **kwargs)
    return ds.write_parquet(path, **kwargs)


def read_documents(base: str, *, columns: Optional[list[str]] = None) -> rd.Dataset:
    """The interleaved documents table of a corpus directory."""
    return read_table(os.path.join(base, "documents_interleaved"), columns=columns)


def read_media(base: str, *, columns: Optional[list[str]] = None,
               override_num_blocks: Optional[int] = None) -> rd.Dataset:
    """The media side table (media_ref, bytes, ...)."""
    return read_table(os.path.join(base, "media"), columns=columns,
                      override_num_blocks=override_num_blocks)
