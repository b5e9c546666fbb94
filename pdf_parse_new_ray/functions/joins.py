"""The keyed exchange of ``functions/``: one hash shuffle, run as a Ray
Data plan operator, and the operators built on it.

* :func:`keyed` ``(ds, key_col, fold)`` -- the keyed fold.  Rows are
  hash-bucketed on ``key_col`` and ``fold`` runs once per non-empty
  bucket over ALL rows of that bucket's keys, so a fold that handles many
  keys per call stays one VECTORIZED pass (grouping by the raw key would
  cost one Python call per key -- measured 10x slower at sf0.1).  A
  two-sided cogroup is ``keyed(a.union(b), key, fold)``.
* :func:`attach_value` / :func:`attach_value_salted` -- the keyed lookup
  join (one index_in/take probe per bucket, optional hot-key salting),
  used where a broadcast would ship a fact-table-size lookup.
* :func:`lookup` -- attach a DIMENSION table's per-key value to a fact
  Dataset: the one place that chooses broadcast or exchange.  A dim of at
  most ``LOCAL_FOLD_ROWS`` rows (parquet footers, read when called) is
  read on the driver, put once, and probed inside each fact batch
  (:func:`broadcast_map`, the attach's own probe); a larger one runs
  :func:`attach_value`.  So a query carries one plan, not a broadcast
  plan beside a cogroup plan.  The sizing probe behind keeping the route
  (4-vCPU host, 17 TPC-H-shaped queries, medians of 5): at sf0.1 the
  broadcast routes took 4.63 s in all against 7.53 s for the attaches.
* :func:`aggregate` ``(ds, keys, {out: (column, op)})`` -- the one
  aggregation path of ``functions/``: per-batch Arrow ``group_by``
  partials, then one :func:`keyed` merge (FP-Hadoop's intermediate
  combine before the keyed reduce).  A float sum must name a row-order
  column and then adds each group in table order, as the oracle does;
  a partial merge would add in block order, and a change of block layout
  could move a rounded sum across a tie.  :func:`frame` collects a result
  and keeps an empty one's columns.
* :func:`block_refs` / :func:`per_block` -- the one way an iterative
  operator runs its rounds: materialize the input once, then each round
  puts its state once and runs one raw task per block, so no round
  starts a Ray Data job (k-means and PCA; PageRank's shard rounds use
  :func:`split_blocks`, the exchange's split wave).

All run on :func:`hash_exchange`, the canonical Ray map-reduce shuffle:
each input block splits into one shard object per bucket, and one reduce
task per bucket folds that bucket's shards.  Ray Data's ``groupby``
(``aggregate`` or ``map_groups``) is not used: its sort shuffle pays a
sampling pass, a sort-map and an ordered sort-reduce for the same
colocation.  One per-``l_orderkey`` sum (4-vCPU host, medians of 5) took
0.13 s forced and 0.09 s local on ``keyed`` at sf0.01 (0.26 / 0.21 s at
sf0.1), against 1.67-3.57 s at sf0.01 (4.1-27.1 s at sf0.1) for Ray's
``groupby().aggregate`` and ``repartition(keys=)`` under its sort and
``HASH_SHUFFLE`` strategies: 13-130x.  Small low-cardinality aggregates
lose too (sf0.01, medians of 7): ``t_token_stats`` 145 -> 101 ms,
``q_order_priority_counts`` 200 -> 97 ms and ``q_events_daily`` 246 ->
117 ms when moved from Ray's ``groupby().aggregate`` onto
:func:`aggregate`.

* **A plan operator, not a driver loop.**  :func:`hash_exchange` returns a
  lazy Dataset whose plan ends in one :class:`HashExchange`, a bulk N-ary
  operator in the manner of Ray's ``Zip``: it takes every side's blocks,
  then sizes, splits and reduces them with the same tasks as before.  So
  a query's reads, maps, exchanges and final collect run as ONE Ray Data
  job.  The exchange used to ``materialize()`` each side first, one job
  per side at 65-80 ms of fixed cost each; a forced ``queries_forced``
  pass (11 queries, sf0.01, 4-vCPU host) ran 30 Ray Data executions
  before and runs 13 now, with forced q3, q5 and q8 one job each.  The
  operator's tasks are executor tasks, so the scheduling loop never
  blocks on them, and each reducer returns its block's metadata with the
  block, so the output needs no metadata round trip.
* **A result read twice.**  A finished exchange keeps its reduced buckets
  on its plan operator, as a materialized result would be kept, and a
  later plan reads them back: consuming a result again (``count()`` then
  ``to_pandas()``) re-runs the maps after the exchange, never the
  exchange or its fold.  That matters where the fold writes (the
  extraction regroup commits fragments).  Two readers of one unfinished
  result inside ONE plan (a union or a join of two branches that both
  read it) each run it, because Ray Data plans a shared sub-plan once per
  reader: materialize such a result first.
* **Ray internals.**  The operator uses ``ray.data._internal`` names,
  pinned to Ray 2.49.2: ``logical.operators.n_ary_operator.NAry``,
  ``logical.interfaces.LogicalPlan``, ``plan.ExecutionPlan``,
  ``stats.DatasetStats``, ``execution.interfaces.PhysicalOperator`` /
  ``RefBundle``, ``physical_operator.MetadataOpTask``,
  ``base_physical_operator.InternalQueueOperatorMixin``,
  ``input_data_buffer.InputDataBuffer``, and two registrations: an entry
  in ``planner.planner.Planner._DEFAULT_PLAN_FNS`` and one in
  ``execution.resource_manager.MATERIALIZING_OPERATORS`` (which lifts the
  inputs' object-store budget, as for ``Zip``).
  ``tests/test_exchange_plan.py`` fails if an upgrade moves them.

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
  and it is read when the exchange is built, so a test or the bench's
  forced leg sets it to 0 to run the exchange.  The result comes back in as many blocks
  as the exchange would have had buckets, so maps after the fold run as
  widely.  Two callers pass ``local=False``: the extraction pipeline
  (document text stays off the driver, fragment writes stay parallel)
  and ``dedup.d_levenshtein_pairs`` (a CPU-bound per-pair fold that pays
  to spread over the cores at any size).
* **One driver bound.**  :func:`lookup`'s broadcast and the local fold
  spend the same thing, driver memory for fewer tasks: both hold one
  whole input on the driver (a broadcast dim is read there and then put
  once; a folded input is pulled there).  So one bound governs both, and
  zeroing it (the bench's forced leg) runs every exchange a large input
  would run: each keyed fold splits and reduces, each dimension attach
  cogroups.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data._internal.execution import resource_manager as _resource_manager
from ray.data._internal.execution.interfaces import PhysicalOperator, RefBundle
from ray.data._internal.execution.interfaces.physical_operator import (
    MetadataOpTask)
from ray.data._internal.execution.operators.base_physical_operator import (
    InternalQueueOperatorMixin)
from ray.data._internal.execution.operators.input_data_buffer import (
    InputDataBuffer)
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.n_ary_operator import NAry
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.planner.planner import Planner
from ray.data._internal.stats import DatasetStats
from ray.data.block import BlockMetadataWithSchema


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
    wall time (an 8-actor probe pool measured ~3.0 s of a 12 s run) and
    its cap starves wide hosts, while task mode rides every core the
    scheduler owns with identical per-batch work."""
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


def block_refs(ds: rd.Dataset) -> list:
    """The refs of ``ds``'s non-empty blocks, in block order, after ONE
    materialize.  Empty blocks are dropped by their metadata: Ray Data
    passes them through a map unmapped, so one may carry an upstream
    schema (see :func:`_run_split`)."""
    return [r for b in ds.materialize().iter_internal_ref_bundles()
            for r, m in zip(b.block_refs, b.metadata) if m.num_rows != 0]


def _run_per_block(fn, state, block):
    return fn(_ensure_table(block), state)


def per_block(refs: list, fn, state) -> list:
    """``fn(table, state)`` over each block of ``refs`` (from
    :func:`block_refs`), one raw task per block,
    with ``state`` put once: the results, in ref order.

    The round of an iterative operator: its loop calls this once a round
    with that round's state, where a ``map_batches`` pass would start a
    Ray Data job of about 40 ms a round (a raw-task round is about 5 ms,
    4-vCPU host).  Which rows share a block is not stable across runs, so
    a caller that adds float partials sorts them by content first."""
    state_ref = ray.put(state)
    return ray.get([_per_block_task.remote(fn, state_ref, r) for r in refs])


def _bucket_of(keys: pa.ChunkedArray, n_buckets: int) -> pa.Array:
    """Low-bits hash bucket for integer keys (n_buckets is a power of two;
    negative keys hash as their two's-complement bits)."""
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
# the one bound on the rows of one input the driver holds: inputs of at
# most this many rows (all sides together) fold in-process on the driver
# instead of exchanging, and lookup() broadcasts dimension tables of at
# most this many rows; 0 exchanges every non-empty input
LOCAL_FOLD_ROWS = 2_000_000
EXCHANGE_ROWS_PER_BUCKET = 250_000
_EXCHANGE_MAX_BUCKETS = 4096


def _pow2_floor(n: int) -> int:
    return 1 << (max(1, n).bit_length() - 1)


def cluster_cpus() -> int:
    """The CPU count of the Ray cluster the driver is attached to (at
    least 1)."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def exchange_buckets(input_rows: int) -> int:
    """The bucket count of every keyed exchange: the largest power of two
    <= ``min(4096, max(cluster CPUs, input_rows // 250_000))``.

    Each bucket costs one shard object per map block plus one reduce task,
    whatever the data, so buckets beyond the core count only add overhead
    until a bucket would hold more than 250k rows (on a 4-vCPU host the
    forced q3+q5+q8 legs ran slower at 8 and 16 buckets than at 4)."""
    return _pow2_floor(min(_EXCHANGE_MAX_BUCKETS,
                           max(cluster_cpus(),
                               input_rows // EXCHANGE_ROWS_PER_BUCKET)))


def salted_buckets(n_buckets: int, n_salts: int) -> int:
    """Total buckets of a salted exchange: ``n_salts`` sub-buckets under
    each of a power-of-two count of key buckets, at least ``n_buckets``
    overall when that allows (``max(n_buckets, n_salts)`` for power-of-two
    inputs)."""
    return n_salts * _pow2_floor(n_buckets // n_salts)


def _slice_by_bucket(t: pa.Table, bk, n_buckets: int):
    """Stable-sort a table by an int64 bucket array and slice it into
    n_buckets contiguous shards (one per bucket, possibly empty)."""
    order = np.argsort(bk, kind="stable")
    t = t.take(pa.array(order))
    counts = np.bincount(bk, minlength=n_buckets)
    offs = np.concatenate([[0], np.cumsum(counts)])
    return tuple(t.slice(int(offs[i]), int(counts[i]))
                 for i in range(n_buckets))


def _ensure_table(t) -> pa.Table:
    """An Arrow block, without schema metadata: a schema that carries
    metadata (pandas' own, say) is unhashable, so Ray's schema dedup fails
    on it and falls back to a full unify."""
    if not isinstance(t, pa.Table):  # pandas block from an upstream stage
        t = pa.Table.from_pandas(t, preserve_index=False)
    return t.replace_schema_metadata() if t.schema.metadata else t


def _key_buckets(keys, n_buckets: int):
    """Bucket id (int64 numpy) of each key: integers through
    :func:`_bucket_of`, anything else (strings, bytes) through the
    checkpoint store's stable siphash ``partition_column``."""
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
    # Ray Data passes empty blocks through map_batches UNMAPPED, so an
    # empty block may carry an upstream schema (even lack the key column):
    # drop it before splitting.
    tables = [t for t in map(_ensure_table, blocks) if t.num_rows]
    if not tables:
        return (np.zeros(n_buckets, np.int64),) + (pa.table({}),) * n_buckets
    shards = split_fn(_concat(tables), n_buckets)
    return (np.array([s.num_rows for s in shards], np.int64),) + tuple(shards)


def _run_reduce(fn, sizes: list[int], *tables):
    """Reduce task: the bucket's folded block and its Ray Data metadata, so
    the driver builds the output bundle without reading the block."""
    from ray.data.block import BlockExecStats, BlockMetadataWithSchema

    stats = BlockExecStats.builder()
    it = iter(tables)
    out = fn(*[[next(it) for _ in range(n)] for n in sizes])
    return out, BlockMetadataWithSchema.from_block(out, stats=stats.build())


# one remote function each, so each is exported once per job: every new
# ``ray.remote`` is exported again at its first call (about 6 ms each on
# the driver's scheduling loop, 4-vCPU host)
_split_task = ray.remote(_run_split)
_reduce_task = ray.remote(_run_reduce).options(num_returns=2)
_per_block_task = ray.remote(_run_per_block)


def split_blocks(refs: list, split_fn, n_buckets: int) -> list:
    """The split wave of an exchange: one :func:`_run_split` task per
    block of ``refs``, or per contiguous run of blocks past
    ``_EXCHANGE_MAX_BLOCKS`` blocks.  Each task's refs are its per-bucket
    row counts, then one shard per bucket."""
    split = _split_task.options(num_returns=n_buckets + 1)
    split_ref = ray.put(split_fn)
    step = max(1, -(-len(refs) // _EXCHANGE_MAX_BLOCKS))
    return [split.remote(split_ref, n_buckets, *refs[i:i + step])
            for i in range(0, len(refs), step)]


class HashExchange(NAry):
    """Logical plan operator of :func:`hash_exchange`: one input per side.
    ``local_rows`` is ``LOCAL_FOLD_ROWS`` as read when the exchange was
    built, or -1 for ``local=False``.  ``kept`` holds the reduced bundles
    of the last complete run (see :func:`hash_exchange`)."""

    def __init__(self, inputs: list, split_fns: list, reduce_fn,
                 n_salts: int, local_rows: int):
        super().__init__(*inputs)
        self.split_fns, self.reduce_fn = split_fns, reduce_fn
        self.n_salts, self.local_rows = n_salts, local_rows
        self.kept: list | None = None

    def _get_args(self) -> dict:  # Ray's metadata export: plain values
        return {"sides": len(self.split_fns), "n_salts": self.n_salts,
                "local_rows": self.local_rows}


class HashExchangeOperator(InternalQueueOperatorMixin, PhysicalOperator):
    """Physical :class:`HashExchange`, a bulk N-ary operator in the manner
    of Ray's ``ZipOperator``: it buffers each side's bundles and, once
    every input is done, sizes the exchange from their metadata and either
    folds locally or submits the split wave.  Split and reduce tasks are
    tracked as executor tasks, so the scheduling loop never waits on them:
    the last split to finish submits the reduces, and each bucket's bundle
    is emitted, in bucket order, once its reduce is done."""

    def __init__(self, op: HashExchange, inputs: list, ctx):
        super().__init__("HashExchange", inputs, ctx,
                         target_max_block_size=None)
        self._op = op
        self._sides: list[list] = [[] for _ in inputs]
        self._tasks: dict = {}  # task index -> MetadataOpTask
        self._n_tasks = 0
        self._splits: list = []  # per side, per split task: its refs
        self._n_buckets = 0
        self._slots: list = []  # per reduced bucket: its bundle once done
        self._ready = 0  # slots emitted to _out so far
        self._out: deque = deque()

    # -- inputs
    def _add_input_inner(self, refs, input_index: int) -> None:
        self._sides[input_index].append(refs)
        self._metrics.on_input_queued(refs)

    def internal_queue_size(self) -> int:
        return sum(map(len, self._sides))

    def all_inputs_done(self) -> None:
        bundles, self._sides = self._sides, [[] for _ in self._sides]
        for b in (b for side in bundles for b in side):
            self._metrics.on_input_dequeued(b)
        side_refs = [[r for b in side for r in b.block_refs]
                     for side in bundles]
        rows = sum(b.num_rows() or 0 for side in bundles for b in side)
        n_buckets = exchange_buckets(rows)
        op = self._op
        if rows <= op.local_rows:
            self._fold_locally(side_refs, n_buckets)
        else:
            if op.n_salts > 1:
                n_buckets = salted_buckets(n_buckets, op.n_salts)
            self._split(side_refs, n_buckets)
        super().all_inputs_done()

    def _fold_locally(self, side_refs: list, n_buckets: int) -> None:
        out = self._op.reduce_fn(*[
            [t for t in map(_ensure_table, ray.get(refs)) if t.num_rows]
            for refs in side_refs])
        # one block per bucket the exchange would have made, so maps
        # downstream of the fold keep the exchange's parallelism
        step = max(1, -(-out.num_rows // n_buckets))
        self._emit_tables([out.slice(i, step)
                           for i in range(0, max(1, out.num_rows), step)])

    def _emit_tables(self, tables: list) -> None:
        # a reduce over no rows that returns no columns gives no block, so
        # a union with the result keeps one schema
        self._slots = [self._bundle(ray.put(t), BlockMetadataWithSchema
                                    .from_block(t))
                       for t in tables if t.num_columns]
        self._flush()

    # -- split wave, then one reduce per non-empty bucket
    def _track(self, ref, callback) -> None:
        i = self._n_tasks
        self._n_tasks += 1

        def done():
            del self._tasks[i]
            callback()

        self._tasks[i] = MetadataOpTask(i, ref, done)

    def _split(self, side_refs: list, n_buckets: int) -> None:
        self._n_buckets = n_buckets
        self._splits = [split_blocks(refs, split_fn, n_buckets)
                        for refs, split_fn in zip(side_refs,
                                                  self._op.split_fns)]
        for o in (o for side in self._splits for o in side):
            self._track(o[0], self._reduce_when_split)
        self._reduce_when_split()  # no blocks on any side: no split task

    def _reduce_when_split(self) -> None:
        if not self._tasks:
            self._reduce_all()

    def _reduce_all(self) -> None:
        all_counts = iter(ray.get([o[0] for side in self._splits
                                   for o in side]))
        splits = [[(next(all_counts), o[1:]) for o in side]
                  for side in self._splits]
        self._splits = []
        fn_ref = ray.put(self._op.reduce_fn)
        for j in range(self._n_buckets):
            per_side = [[shards[j] for counts, shards in side if counts[j]]
                        for side in splits]
            if any(per_side):
                self._slots.append(None)
                self._submit_reduce(fn_ref, len(self._slots) - 1, per_side)
        if not self._slots:  # every bucket empty on every side
            self._emit_tables([self._op.reduce_fn(
                *[[] for _ in self.input_dependencies])])

    def _submit_reduce(self, fn_ref, slot: int, per_side: list) -> None:
        block, meta = _reduce_task.remote(
            fn_ref, [len(p) for p in per_side],
            *[r for p in per_side for r in p])

        def done():
            self._slots[slot] = self._bundle(block, ray.get(meta))
            self._flush()

        self._track(meta, done)

    # -- outputs
    @staticmethod
    def _bundle(block, meta):
        return RefBundle([(block, meta.metadata)], owns_blocks=False,
                         schema=meta.schema)

    def _flush(self) -> None:
        while self._ready < len(self._slots) and \
                self._slots[self._ready] is not None:
            b = self._slots[self._ready]
            self._ready += 1
            self._out.append(b)
            self._metrics.on_output_queued(b)
        if self._ready == len(self._slots):
            self._op.kept = self._slots

    def has_next(self) -> bool:
        return bool(self._out)

    def _get_next_inner(self):
        b = self._out.popleft()
        self._metrics.on_output_dequeued(b)
        return b

    def get_active_tasks(self) -> list:
        return list(self._tasks.values())

    def get_stats(self) -> dict:
        return {self.name: [m for b in self._slots if b is not None
                            for m in b.metadata]}

    def implements_accurate_memory_accounting(self) -> bool:
        return True


def _plan_exchange(op: HashExchange, inputs: list, ctx):
    if op.kept is not None:  # a finished run: read its buckets back
        return InputDataBuffer(ctx, input_data=op.kept)
    return HashExchangeOperator(op, inputs, ctx)


# Register the operator with Ray Data's planner, and as a materializing
# operator (like Zip and AllToAll, it holds every input before its first
# output, so the resource manager lifts its inputs' object-store budget).
Planner._DEFAULT_PLAN_FNS[HashExchange] = _plan_exchange
_resource_manager.MATERIALIZING_OPERATORS += (HashExchangeOperator,)


def hash_exchange(sides: list, reduce_fn, n_salts: int = 1,
                  local: bool = True) -> rd.Dataset:
    """Generic keyed cogroup: ``sides = [(dataset, split_fn), ...]`` where
    ``split_fn(table, n_buckets) -> tuple[pa.Table] * n_buckets`` (build
    one with :func:`key_split`).  Returns a lazy Dataset whose plan ends in
    one :class:`HashExchange` operator over the sides' plans, so the
    sides, the exchange and whatever the caller chains after it run as
    one Ray Data job.

    When every side is done, their total row count from block metadata
    sizes the exchange (:func:`exchange_buckets`, widened by
    :func:`salted_buckets` when ``n_salts > 1``).  Each side is then
    hash-partitioned into that many aligned buckets; ``reduce_fn(
    tables_side0, tables_side1, ...) -> pa.Table`` runs once per bucket
    that has rows on some side, over that bucket's non-empty shards (a
    side's list may be empty).  When the input has at most
    ``LOCAL_FOLD_ROWS`` rows (read now, when the exchange is built) it runs
    once instead, on the driver, over each side's non-empty blocks,
    unsplit; ``local=False`` keeps the rows off the driver at any size
    (every bucket empty still folds there, over empty lists).

    A side of more than ``_EXCHANGE_MAX_BLOCKS`` blocks is split in
    contiguous runs of blocks, one split task per run.  The reduced
    buckets of a finished run are kept on the plan operator, so consuming
    the result again re-runs only what follows the exchange."""
    op = HashExchange([ds._logical_plan.dag for ds, _ in sides],
                      [split_fn for _, split_fn in sides], reduce_fn,
                      n_salts, LOCAL_FOLD_ROWS if local else -1)
    ctx = sides[0][0].context.copy()
    stats = DatasetStats(metadata={"HashExchange": []},
                         parent=[ds._plan.stats() for ds, _ in sides])
    return rd.Dataset(ExecutionPlan(stats, ctx), LogicalPlan(op, ctx))


def keyed(ds: rd.Dataset, key_col: str, fold, local: bool = True,
          empty: pa.Table | None = None) -> rd.Dataset:
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
    projected to one schema (the fold tells the sides apart by a column).
    A zero-row input gives no block, or the one block ``empty`` when
    given."""

    def _reduce(tables):
        if not tables:
            return pa.table({}) if empty is None else empty
        out = fold(_concat(tables))
        return out if isinstance(out, pa.Table) else _ensure_table(out)

    return hash_exchange([(ds, key_split(key_col))], _reduce, local=local)


def frame(ds: rd.Dataset):
    """The rows of ``ds`` as one pandas DataFrame, in block order.  Unlike
    ``Dataset.to_pandas`` (which skips empty blocks), a result without
    rows keeps the columns of its blocks, so an empty :func:`aggregate`
    still names its columns."""
    import pandas as pd

    tables = [_ensure_table(t) for t in ray.get(
        [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs])]
    return _concat(tables).to_pandas() if tables else pd.DataFrame()


# how each op's partials merge
_MERGE_OPS = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}


def _group(t: pa.Table, keys: list, spec: dict) -> pa.Table:
    """Arrow ``group_by(keys)`` of ``t`` with ``spec = {name: (column,
    op)}`` (a None column counts rows), its outputs named by ``spec``.
    Single-threaded, so each group's sum adds its values in row order."""
    g = t.group_by(keys, use_threads=False).aggregate(
        [([], "count_all") if c is None else (c, op)
         for c, op in spec.values()])
    return rename_agg(g, {"count_all" if c is None else f"{c}_{op}": n
                          for n, (c, op) in spec.items()},
                      keys + list(spec))


def aggregate(ds: rd.Dataset, keys, aggs: dict,
              order: str | None = None) -> rd.Dataset:
    """``GROUP BY keys`` with ``aggs = {output: (column, op)}``, ``op``
    one of count/sum/min/max (``(None, "count")`` counts rows): the one
    aggregation path of ``functions/``.  Returns a lazy Dataset of one
    row per group, the keys then the outputs.

    Each batch collapses to an Arrow ``group_by`` partial, then one
    :func:`keyed` fold on ``keys[0]`` (rows of one group share it) merges
    the partials: counts and sums add, mins and maxes take their min and
    max.  A zero-row input gives one block with no rows but the spec's
    columns (counts int64, sums too without ``order``, the rest
    null-typed, as no input type is known then), which :func:`frame`
    keeps.

    A float sum raises: its partials would add in block order, so a
    rounded result could move with the block layout.  Give ``order``, a
    row-position column (``read_table(row_index=...)``), to add each
    group's values in that order instead, as the oracle does: no partial
    then, and the fold sorts the rows it holds by ``order`` and groups
    them in one pass (Arrow's single-threaded grouped sum adds a group's
    values in row order, as ``np.cumsum`` does)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    empty = pa.table(
        {**{k: pa.nulls(0) for k in keys},
         **{n: pa.nulls(0, pa.int64()) if op == "count" or
            (op == "sum" and order is None) else pa.nulls(0)
            for n, (_, op) in aggs.items()}})
    if order is not None:
        return keyed(ds, keys[0], lambda t: _group(
            t.take(pc.sort_indices(t, [(order, "ascending")])), keys, aggs),
            empty=empty)

    def partial(t: pa.Table) -> pa.Table:
        for c, op in aggs.values():
            if op == "sum" and pa.types.is_floating(t.schema.field(c).type):
                raise TypeError(f"a float sum of {c!r} would add in block "
                                "order: aggregate it with order=")
        return _group(t, keys, aggs)

    merge = {n: (n, _MERGE_OPS[op]) for n, (_, op) in aggs.items()}
    return keyed(ds.map_batches(partial, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True),
                 keys[0], lambda t: _group(t, keys, merge), empty=empty)


def _empty_attach_out(pair_cols, out_name, vtype) -> pa.Table:
    cols = {n: pa.nulls(0, ty) for n, ty in pair_cols}
    cols[out_name] = pa.nulls(0, vtype)
    return pa.table(cols)


def _attach_probe_reduce(key_col, out_name, vtype, pair_cols, post):
    """Per-bucket reducer for the hash_exchange attach: concat each side,
    one vectorized index_in/take probe, inner-join semantics, ``post``
    map-side-combine hook."""
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

    Exchange: the map-reduce :func:`hash_exchange` operator, which picks
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


def lookup(fact: rd.Dataset, key_col: str, table: str, columns: list[str],
           value, out_name: str, vtype: pa.DataType,
           pair_cols: list[tuple[str, pa.DataType]], filters=None,
           post=None) -> rd.Dataset:
    """Attach a dimension table's per-key value to each row of ``fact``:
    :func:`attach_value` with the value side read from the parquet table
    at ``table``, and the one place that chooses between broadcasting
    that side and exchanging both.

    The dim's rows are ``columns`` of ``table`` (which must name every
    column ``filters`` tests), kept by ``filters`` (pyarrow's DNF filter
    list) and turned by ``value(table) -> (doc_id, value)`` into the
    attach's value rows (unique int64 ``doc_id``; ``value`` may drop
    rows, and a fact row whose key has no value row is dropped).  The
    output is ``pair_cols`` of ``fact`` plus ``out_name``, each output
    table passed through ``post`` when given, as in :func:`attach_value`.

    When ``table``'s footers count at most ``LOCAL_FOLD_ROWS`` rows (read
    now, as the local fold reads it), the driver reads the dim, puts the
    value rows once, and each fact batch runs the attach's probe and
    ``post`` in a fused map (:func:`broadcast_map`, Ray's default batch
    size, so the map fuses with the fact's read).  Otherwise the dim is
    read as a Dataset and :func:`attach_value` exchanges both sides.  So
    ``post`` sees a batch's rows on the first route and a bucket's on the
    second: it must be a partial combine whose result the caller merges.
    A leg whose ``post`` needs every row of a key calls
    :func:`attach_value` instead."""
    from ..sources.interleaved import _parquet_files, read_table

    probe = _attach_probe_reduce(key_col, out_name, vtype, pair_cols, post)
    dim_rows = sum(pq.read_metadata(f).num_rows for f in _parquet_files(table))
    if dim_rows <= LOCAL_FOLD_ROWS:
        vals = value(pq.read_table(table, columns=columns, filters=filters))
        return broadcast_map(fact, lambda t, v: probe([t], [v]),
                             ray.put(vals.combine_chunks()))
    where = None if filters is None else pq.filters_to_expression(filters)
    vals = read_table(table, columns).map_batches(
        lambda t: value(t if where is None else t.filter(where)),
        batch_format="pyarrow")
    return attach_value(fact, vals, key_col, out_name, vtype, pair_cols,
                        post=post)
