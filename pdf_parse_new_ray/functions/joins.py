"""The keyed exchange of ``functions/``: one raw-task hash shuffle and the
operators built on it.

* :func:`keyed` ``(ds, key_col, fold)`` -- the keyed fold.  Rows are
  hash-bucketed on ``key_col`` and ``fold`` runs once per non-empty
  bucket over ALL rows of that bucket's keys, so a fold that handles many
  keys per call stays one VECTORIZED pass (grouping by the raw key would
  cost one Python call per key -- measured 10x slower at sf0.1).  A
  two-sided cogroup is ``keyed(a.union(b), key, fold)``.
* :func:`attach_value` / :func:`attach_value_salted` -- the keyed lookup
  join (one index_in/take probe per bucket, optional hot-key salting),
  used where a broadcast would ship a fact-table-size lookup.

Both run on :func:`hash_exchange`, the canonical Ray map-reduce shuffle:
each input block splits into one shard object per bucket, and one reduce
task per bucket folds that bucket's shards.  Ray Data's
``groupby().map_groups`` sort shuffle pays a sampling pass, a sort-map and
an ordered sort-reduce for the same colocation, so hash-keyed folds do not
use it.

* **Bucket count.**  The exchange, not its caller, picks it (FP-Hadoop's
  split of the reduce function from how its input is partitioned):
  :func:`exchange_buckets` is the one rule, the largest power of two
  <= min(4096, max(cluster CPUs, input_rows // 250_000)).  An exchange
  costs map blocks x buckets shard objects plus one reduce task per bucket
  whatever the data, so fixed counts were pure overhead on small clusters
  (one lineitem x orders attach at sf0.01 on a 4-vCPU host, reads
  included: 0.47-1.5 s at a fixed 64 buckets, 0.20-0.28 s at 4).
* **Reducers take their shards as top-level task arguments.**  Ray
  resolves those before the task starts.  A reducer that fetched them
  itself with a nested ``ray.get`` would block inside the task, give its
  CPU back to the scheduler and let Ray start extra worker processes.
  Only non-empty shards are passed (each split task also returns its
  per-bucket row counts), and a bucket empty on every side gets no
  reduce task.
* **Block bundling.**  Driver-side metadata is O(split tasks x buckets)
  object refs.  Past ``_EXCHANGE_MAX_BLOCKS`` blocks on a side, each split
  task takes a contiguous run of block refs instead of one block, so the
  split count stays capped and one path runs at every size.
* **Local fold.**  Whether to partition at all is the exchange's call
  too, made once here instead of in every query: when the sides' total
  row count (from the block metadata it already sums for the bucket
  count) is at most ``LOCAL_FOLD_ROWS``, the reduce runs once, in the
  driver process, over every block of each side, with no split or reduce
  task.  Below that size the exchange of a vectorized fold is all
  overhead: its split and reduce tasks and one shard object per block
  and bucket cost more than the fold, and the caller lands the rows on
  the driver anyway.  The bound trades driver memory for fewer tasks,
  and it is read when called, so a test or the bench's forced leg sets
  it to 0 to run the exchange.  The result comes back in as many blocks
  as the exchange would have had buckets, so maps after the fold run as
  widely.  Two callers pass ``local=False``: the extraction pipeline
  (document text stays off the driver, fragment writes stay parallel)
  and ``dedup.d_levenshtein_pairs`` (a CPU-bound per-pair fold that pays
  to spread over the cores at any size).
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd


def rename_agg(t: pa.Table, mapping: dict[str, str],
               order: list[str] | None = None) -> pa.Table:
    """Rename Arrow ``group_by().aggregate()`` output BY NAME (never by
    position — key-vs-aggregate column order is pyarrow-version-dependent)
    and optionally fix the column order."""
    t = t.rename_columns([mapping.get(c, c) for c in t.column_names])
    return t.select(order) if order else t


_BCAST_CACHE: dict = {}


def broadcast_map(ds: rd.Dataset, fn, ref, **mb_kwargs) -> rd.Dataset:
    """Task-mode ``map_batches`` over a broadcast object: ``fn(batch,
    state)`` where ``state = ray.get(ref)`` resolves ONCE per worker
    process through a module cache (a local-object-store ``ray.get`` is a
    zero-copy plasma view).  Replaces a ``(1, N)``-actor pool for trivially
    vectorized per-batch probes — the pool's spin-up dominates bench-scale
    wall time (g_triangle_count measured its 8-actor orient pool at ~3.0 s
    of a 12 s run) and its cap starves wide hosts, while task mode rides
    every core the scheduler owns with identical per-batch work."""
    import ray

    multi = isinstance(ref, (tuple, list))
    key = "+".join(r.hex() if r is not None else "-" for r in ref) \
        if multi else ref.hex()

    def _apply(t: pa.Table) -> pa.Table:
        state = _BCAST_CACHE.get(key)
        if state is None:
            _BCAST_CACHE.clear()  # one live broadcast per worker: bounded
            state = _BCAST_CACHE[key] = (
                tuple(ray.get(r) if r is not None else None for r in ref)
                if multi else ray.get(ref))
        return fn(t, state)

    mb_kwargs.setdefault("batch_format", "pyarrow")
    return ds.map_batches(_apply, **mb_kwargs)


def _bucket_of(keys: pa.ChunkedArray, n_buckets: int) -> pa.Array:
    """Low-bits hash bucket for integer keys (n_buckets is a power of two;
    negative keys hash as their two's-complement bits)."""
    import pyarrow.compute as pc

    k = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    # multiply by an odd constant to decorrelate sequential keys, then mask
    # (plain multiply wraps mod 2^64 — the _checked variant would raise)
    mixed = pc.multiply(pc.cast(k, pa.uint64(), safe=False),
                        pa.scalar(0x9E3779B97F4A7C15, pa.uint64()))
    return pc.cast(pc.bit_wise_and(mixed, pa.scalar(n_buckets - 1, pa.uint64())),
                   pa.int32())


# ---------------------------------------------------------------------------
# Raw-task keyed exchange (map-reduce hash shuffle)
# ---------------------------------------------------------------------------

_EXCHANGE_MAX_BLOCKS = 4096
# inputs of at most this many rows (all sides together) fold in-process
# on the driver instead of exchanging; 0 exchanges every non-empty input
LOCAL_FOLD_ROWS = 2_000_000
EXCHANGE_ROWS_PER_BUCKET = 250_000
_EXCHANGE_MAX_BUCKETS = 4096


def _pow2_floor(n: int) -> int:
    return 1 << (max(1, n).bit_length() - 1)


def exchange_buckets(input_rows: int) -> int:
    """The bucket count of every keyed exchange: the largest power of two
    <= ``min(4096, max(cluster CPUs, input_rows // 250_000))``.

    Each bucket costs one shard object per map block plus one reduce task,
    whatever the data, so buckets beyond the core count only add overhead
    until a bucket would hold more than 250k rows (on a 4-vCPU host the
    forced q3+q5+q8 legs ran slower at 8 and 16 buckets than at 4)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 1))
    return _pow2_floor(min(_EXCHANGE_MAX_BUCKETS,
                           max(cpus, input_rows // EXCHANGE_ROWS_PER_BUCKET)))


def salted_buckets(n_buckets: int, n_salts: int) -> int:
    """Total buckets of a salted exchange: ``n_salts`` sub-buckets under
    each of a power-of-two count of key buckets, at least ``n_buckets``
    overall when that allows (``max(n_buckets, n_salts)`` for power-of-two
    inputs)."""
    return n_salts * _pow2_floor(n_buckets // n_salts)


def _slice_by_bucket(t: pa.Table, bk, n_buckets: int):
    """Stable-sort a table by an int64 bucket array and slice it into
    n_buckets contiguous shards (one per bucket, possibly empty)."""
    import numpy as np

    order = np.argsort(bk, kind="stable")
    t = t.take(pa.array(order))
    counts = np.bincount(bk, minlength=n_buckets)
    offs = np.concatenate([[0], np.cumsum(counts)])
    return tuple(t.slice(int(offs[i]), int(counts[i]))
                 for i in range(n_buckets))


def _ensure_table(t) -> pa.Table:
    if not isinstance(t, pa.Table):  # pandas block from an upstream stage
        t = pa.Table.from_pandas(t, preserve_index=False)
    return t


def _key_buckets(keys, n_buckets: int):
    """Bucket id (int64 numpy) of each key: integers through
    :func:`_bucket_of`, anything else (strings, bytes) through the
    checkpoint store's stable siphash ``partition_column``."""
    import pyarrow.compute as pc

    if pa.types.is_integer(keys.type):
        bk = _bucket_of(keys, n_buckets)
    else:
        from ..state.checkpoint import partition_column

        bk = partition_column(keys, n_buckets)
    return pc.cast(bk, pa.int64()).to_numpy(zero_copy_only=False)


def key_split(key_col: str, columns: list[str] | None = None):
    """Standard per-block split: hash ``key_col`` into the bucket id,
    keep ``columns`` (all columns when None)."""

    def _split(t: pa.Table, n_buckets: int):
        bk = _key_buckets(t.column(key_col), n_buckets)
        return _slice_by_bucket(t if columns is None else t.select(columns),
                                bk, n_buckets)

    return _split


def salted_fact_split(key_col: str, columns: list[str], n_salts: int):
    """Hot-key-salted fact split: each key's rows spread over ``n_salts``
    sub-buckets (salt = row position mod n_salts).  Pair with
    ``salted_dim_split`` on the other side; the total bucket count is a
    multiple of n_salts (:func:`salted_buckets`)."""
    import numpy as np

    def _split(t: pa.Table, n_total: int):
        bk = _key_buckets(t.column(key_col), n_total // n_salts)
        salt = np.arange(t.num_rows, dtype=np.int64) % n_salts
        return _slice_by_bucket(t.select(columns), bk * n_salts + salt,
                                n_total)

    return _split


def salted_dim_split(key_col: str, columns: list[str], n_salts: int):
    """Hot-key-salted dim split: every row replicated to all ``n_salts``
    sub-buckets of its key's bucket (dim replication is n_salts x dim
    size — cheap, the dim is the small side by construction)."""
    import numpy as np

    def _split(t: pa.Table, n_total: int):
        n = t.num_rows
        rep = t.take(pa.array(np.repeat(np.arange(n, dtype=np.int64),
                                        n_salts)))
        bk = _key_buckets(rep.column(key_col), n_total // n_salts)
        salt = np.tile(np.arange(n_salts, dtype=np.int64), n)
        return _slice_by_bucket(rep.select(columns), bk * n_salts + salt,
                                n_total)

    return _split


def _concat(tables: list) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default") \
        if len(tables) > 1 else tables[0]


def _run_split(split_fn, n_buckets: int, *blocks):
    """Split task over a contiguous run of blocks: returns the per-bucket
    row counts, then one shard per bucket."""
    import numpy as np

    # Ray Data passes empty blocks through map_batches UNMAPPED, so an
    # empty block may carry an upstream schema (even lack the key column):
    # drop it before splitting.
    tables = [t for t in map(_ensure_table, blocks) if t.num_rows]
    if not tables:
        return (np.zeros(n_buckets, np.int64),) + (pa.table({}),) * n_buckets
    shards = split_fn(_concat(tables), n_buckets)
    return (np.array([s.num_rows for s in shards], np.int64),) + tuple(shards)


def _run_reduce(fn, sizes: list[int], *tables):
    it = iter(tables)
    return fn(*[[next(it) for _ in range(n)] for n in sizes])


def hash_exchange(sides: list, reduce_fn, n_salts: int = 1,
                  local: bool = True) -> rd.Dataset:
    """Generic keyed cogroup: ``sides = [(dataset, split_fn), ...]`` where
    ``split_fn(table, n_buckets) -> tuple[pa.Table] * n_buckets`` (build
    one with :func:`key_split`).  The sides are executed first; their
    total row count from block metadata sizes the exchange
    (:func:`exchange_buckets`, widened by :func:`salted_buckets` when
    ``n_salts > 1``).  Each side is then hash-partitioned into that many
    aligned buckets; ``reduce_fn(tables_side0, tables_side1, ...) ->
    pa.Table`` runs once per bucket that has rows on some side, over that
    bucket's non-empty shards (a side's list may be empty).  When the
    input has at most ``LOCAL_FOLD_ROWS`` rows it runs once instead, on
    the driver, over each side's non-empty blocks, unsplit; ``local=False``
    keeps the rows off the driver at any size (every bucket empty still
    folds there, over empty lists).  Returns the reduced buckets as a new
    Dataset (blocks stay in plasma).

    A side of more than ``_EXCHANGE_MAX_BLOCKS`` blocks is split in
    contiguous runs of blocks, one split task per run."""
    import ray

    side_refs, rows = [], 0
    for ds, _ in sides:
        bundles = list(ds.materialize().iter_internal_ref_bundles())
        side_refs.append([r for b in bundles for r in b.block_refs])
        rows += sum(b.num_rows() or 0 for b in bundles)
    n_buckets = exchange_buckets(rows)
    if local and rows <= LOCAL_FOLD_ROWS:
        out = reduce_fn(*[
            [t for t in map(_ensure_table, ray.get(refs)) if t.num_rows]
            for refs in side_refs])
        # one block per bucket the exchange would have made, so maps
        # downstream of the fold keep the exchange's parallelism
        step = max(1, -(-out.num_rows // n_buckets))
        return rd.from_arrow([out.slice(i, step) for i in
                              range(0, max(1, out.num_rows), step)])
    if n_salts > 1:
        n_buckets = salted_buckets(n_buckets, n_salts)

    split = ray.remote(_run_split).options(num_returns=n_buckets + 1)
    outs = []  # per side, per split task: [row counts, *shards] refs
    for refs, (_, split_fn) in zip(side_refs, sides):
        split_ref = ray.put(split_fn)
        step = max(1, -(-len(refs) // _EXCHANGE_MAX_BLOCKS))
        outs.append([split.remote(split_ref, n_buckets, *refs[i:i + step])
                     for i in range(0, len(refs), step)])
    all_counts = iter(ray.get([o[0] for side in outs for o in side]))
    splits = [[(next(all_counts), o[1:]) for o in side] for side in outs]

    reduce = ray.remote(_run_reduce)
    fn_ref = ray.put(reduce_fn)
    out_refs = []
    for j in range(n_buckets):
        per_side = [[shards[j] for counts, shards in side if counts[j]]
                    for side in splits]
        if any(per_side):
            out_refs.append(reduce.remote(
                fn_ref, [len(p) for p in per_side],
                *[r for p in per_side for r in p]))
    if not out_refs:
        return rd.from_arrow(reduce_fn(*[[] for _ in sides]))
    return rd.from_arrow_refs(out_refs)


def keyed(ds: rd.Dataset, key_col: str, fold,
          local: bool = True) -> rd.Dataset:
    """The keyed fold: hash-partition ``ds`` on ``key_col`` (integers
    through :func:`_bucket_of`, strings through ``partition_column``) with
    :func:`hash_exchange` and run ``fold(table) -> Table | DataFrame`` once
    per non-empty bucket.  Each call gets every row of its keys (all
    columns of ``ds``, in no particular order) and typically many keys, so
    ``fold`` must handle a multi-key table.  A pandas return is converted
    to Arrow.  A zero-row input calls no fold and returns no rows.  An
    input of at most ``LOCAL_FOLD_ROWS`` rows folds once, on the driver,
    unless ``local=False`` (see :func:`hash_exchange`).

    Two-sided cogroup: ``keyed(a.union(b), key, fold)`` with both sides
    projected to one schema (the fold tells the sides apart by a column)."""

    def _reduce(tables):
        if not tables:
            return pa.table({})
        out = fold(_concat(tables))
        return out if isinstance(out, pa.Table) else _ensure_table(out)

    return hash_exchange([(ds, key_split(key_col))], _reduce, local=local)


def _empty_attach_out(pair_cols, out_name, vtype) -> pa.Table:
    cols = {n: pa.nulls(0, ty) for n, ty in pair_cols}
    cols[out_name] = pa.nulls(0, vtype)
    return pa.table(cols)


def _attach_probe_reduce(key_col, out_name, vtype, pair_cols, post):
    """Per-bucket reducer for the hash_exchange attach: concat each side,
    one vectorized index_in/take probe, inner-join semantics, ``post``
    map-side-combine hook."""
    import pyarrow.compute as pc

    out_names = [n for n, _ in pair_cols] + [out_name]

    def _reduce(pair_tabs, val_tabs):
        if not pair_tabs or not val_tabs:
            out = _empty_attach_out(pair_cols, out_name, vtype)
            return post(out) if post is not None else out
        prs, vals = _concat(pair_tabs), _concat(val_tabs)
        idx = pc.index_in(prs.column(key_col),
                          value_set=vals.column("doc_id").combine_chunks())
        hit = pc.is_valid(idx)
        picked = pc.take(vals.column("value").combine_chunks(),
                         idx.filter(hit))
        out = prs.filter(hit)
        out = pa.table({**{n: out.column(n) for n, _ in pair_cols},
                        out_name: picked}).select(out_names)
        return post(out) if post is not None else out

    return _reduce


def attach_value(pairs: rd.Dataset, values: rd.Dataset, key_col: str,
                 out_name: str, vtype: pa.DataType,
                 pair_cols: list[tuple[str, pa.DataType]],
                 post=None) -> rd.Dataset:
    """Attach ``values``' per-key payload to each row of ``pairs`` whose
    ``key_col`` matches the value row's key.  ``values`` must have columns
    (doc_id, value) with unique int64 doc_id; ``pair_cols`` declares the
    pair table's columns (name, type).  Rows whose key has no value row
    are dropped (inner-join semantics).

    ``post`` (Table -> Table), when given, runs on each bucket's joined
    table BEFORE it leaves the cogroup — the map-side-combine hook: an
    Arrow group_by there collapses the bucket to partial aggregates, so a
    high-cardinality Ray groupby().aggregate() (measured ~12 s for 147k
    groups at sf0.1) never happens; the caller merges the tiny partials.

    Exchange: the raw-task map-reduce :func:`hash_exchange`, which picks
    the bucket count itself (:func:`exchange_buckets` — the cluster's
    cores, more only past 250k rows per bucket; a 4-vCPU host gets 4
    buckets, about half the wall of the old fixed 64 on one sf0.01
    attach — see the module docstring).  The count changes only the layout:
    every bucket and ``post`` call sees all rows of its keys."""
    return attach_value_salted(pairs, values, key_col, out_name, vtype,
                               pair_cols, n_salts=1, post=post)


def attach_value_salted(pairs: rd.Dataset, values: rd.Dataset, key_col: str,
                        out_name: str, vtype: pa.DataType,
                        pair_cols: list[tuple[str, pa.DataType]],
                        n_salts: int = 8, post=None) -> rd.Dataset:
    """``attach_value`` with HOT-KEY SALTING: the fact side spreads each
    key's rows over ``n_salts`` sub-buckets (salt = row position mod
    n_salts, so a hot key's traffic divides by n_salts instead of
    swamping one cogroup task), and the value side replicates each row
    to all n_salts sub-buckets (dim replication is n_salts x dim size —
    cheap, the dim is the small side by construction).  Results are
    IDENTICAL to attach_value; only the exchange layout changes, over
    :func:`salted_buckets` total buckets.  Use when a fact key can be
    pathologically hot (power-law user_ids, viral content ids);
    ``n_salts=1`` is the plain :func:`attach_value`."""
    pcols = [n for n, _ in pair_cols]
    if key_col not in pcols:
        pcols = pcols + [key_col]
    if n_salts > 1:
        splits = (salted_fact_split(key_col, pcols, n_salts),
                  salted_dim_split("doc_id", ["doc_id", "value"], n_salts))
    else:
        splits = (key_split(key_col, pcols),
                  key_split("doc_id", ["doc_id", "value"]))

    return hash_exchange(
        [(pairs, splits[0]), (values, splits[1])],
        _attach_probe_reduce(key_col, out_name, vtype, pair_cols, post),
        n_salts=n_salts)

