"""Iterative graph algorithms over edge Datasets — the compute class
(repeated shuffles over a fixed edge relation with an evolving vertex
state) that one-pass relational operators don't cover.

Scale plan shared by the operators here: the EDGE relation is the big
side and never moves after its one materialization; per iteration the
vertex state attaches to edge sources (broadcast when it fits the
byte gate, bucketed cogroup otherwise — the same duality as every
lookup in functions/joins.py) and new vertex state comes back as
per-batch PARTIAL sums merged on the driver or by a keyed fold.  Float
iteration order varies with partitioning, so these are rows-only driver
checks; pytest locks them against a naive single-process reference on
the same edges (np.allclose) plus exact invariants (rank mass = 1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..sources.interleaved import read_table

PAGERANK_DAMPING = 0.85
PAGERANK_ITERS = 10

# above this many vertices the per-iteration rank attach must cogroup
# instead of broadcast (a rank vector, not a parquet dimension table, so
# joins.lookup does not choose here)
PAGERANK_BROADCAST_VERTICES = 5_000_000
# broadcast path: pre-merge per-block dst partials through a keyed fold on
# dst before the driver pull once the vertex count makes the
# vertices × blocks transfer material
PAGERANK_PREMERGE_VERTICES = 100_000


def _vertex_census(edges: rd.Dataset) -> rd.Dataset:
    """Distributed (node, deg) vertex set of a (src, dst) edge Dataset —
    out-degree per node, deg=0 for sink-only nodes.  Per-batch endpoint
    partials merge through ONE keyed fold on the node
    (``joins.aggregate``); the vertex table never lands on the driver."""
    from .joins import aggregate

    def endpoints(t: pa.Table) -> pa.Table:
        src = t.column("src").combine_chunks()
        dst = t.column("dst").combine_chunks()
        return pa.table({
            "node": pa.concat_arrays([src, dst]),
            "deg": pa.array(np.concatenate([
                np.ones(len(src), np.int64),
                np.zeros(len(dst), np.int64)])),
        })

    return aggregate(edges.map_batches(endpoints, batch_format="pyarrow"),
                     "node", {"deg": ("deg", "sum")})


# below this many vertices the per-shard incoming-mass partial is a DENSE
# float64 vector (8 B x n <= 8 MB) cheap enough to return from plain Ray
# tasks, so the whole iteration loop runs as bulk-synchronous raw tasks
# over pre-indexed edge shards — the brief's "raw tasks only where the
# Dataset API can't express the semantics" case: a 10-step iterative
# refinement pays ~0.3-0.4 s of Ray Data operator launch + driver pandas
# merge PER ITERATION (measured 4.5 s of g_pagerank_copurchase's 5 s at
# sf0.1), while a pre-indexed task round is ~30 ms.
PAGERANK_TASK_VERTICES = 1_000_000


@ray.remote
def _pr_prep_shard(block: pa.Table, nodes: np.ndarray):
    """Edge block -> (src_idx, dst_idx) int32 index arrays into the sorted
    vertex census (computed ONCE; iterations then skip the searchsorted)."""
    src = block.column("src").to_numpy(zero_copy_only=False)
    dst = block.column("dst").to_numpy(zero_copy_only=False)
    return (np.searchsorted(nodes, src).astype(np.int32),
            np.searchsorted(nodes, dst).astype(np.int32))


@ray.remote
def _pr_shard_contrib(shard, share: np.ndarray, n: int) -> np.ndarray:
    """One BSP round on one shard: dense incoming-mass partial via a
    single C-loop bincount (deterministic sequential summation)."""
    src_idx, dst_idx = shard
    return np.bincount(dst_idx, weights=share[src_idx], minlength=n)


def pagerank_edges(edges: rd.Dataset, damping: float = PAGERANK_DAMPING,
                   n_iters: int = PAGERANK_ITERS, top_k: int | None = None,
                   force_cogroup: bool = False,
                   force_ray_data: bool = False) -> pd.DataFrame:
    """PageRank over a directed edge Dataset with int64 columns
    (src, dst) — duplicate edges count as parallel edges.  Returns
    (node, rank) sorted by node, rank mass summing to 1 over all nodes
    (``top_k`` instead returns the k highest-rank rows, rank-major).

    Two paths on the shared distributed vertex census, the repo-wide
    broadcast-vs-cogroup duality (functions/joins.py):

    * under ``PAGERANK_BROADCAST_VERTICES``: per iteration ONE pass over
      the (never re-shuffled) edge blocks — each batch looks up src
      ranks from the broadcast rank map and emits per-batch PARTIAL dst
      sums via an Arrow group_by; the partials merge into the next rank
      vector with a driver-side sum bounded by the vertex count.
    * over the gate (or ``force_cogroup``): vertex state never touches
      the driver — ``_pagerank_cogroup`` below.

    Dangling-node mass (nodes with no out-edges) redistributes
    uniformly, keeping total mass exactly 1 like the textbook
    formulation."""
    edges = edges.materialize()
    # normalize the edge block count ONCE before the iteration loop: an
    # upstream exchange can leave many tiny blocks (one per bucket),
    # and every one of the n_iters passes then pays per-block task
    # overhead plus a vertices x blocks partial pull — one coalesce
    # amortizes over all iterations
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    if edges.num_blocks() > cpus * 4:
        edges = edges.repartition(cpus * 2).materialize()
    vs = _vertex_census(edges).materialize()
    n = int(vs.count())
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "rank": pd.Series(dtype="float64")})
    if force_cogroup or n > PAGERANK_BROADCAST_VERTICES:
        return _pagerank_cogroup(edges, vs, n, damping, n_iters, top_k)
    deg = vs.to_pandas()
    order = np.argsort(deg["node"].to_numpy())
    nodes = deg["node"].to_numpy().astype(np.int64)[order]
    out_deg = deg["deg"].to_numpy().astype(np.float64)[order]
    rank = np.full(n, 1.0 / n)

    if not force_ray_data and n <= PAGERANK_TASK_VERTICES:
        # raw-task BSP path: shards prepared once (plasma-resident index
        # arrays), then n_iters rounds of one tiny task per shard; the
        # driver folds <= blocks dense partials per round in waves of 8
        # so peak transfer is bounded at 8 x 8n bytes.
        blocks = edges.get_internal_block_refs()
        nodes_ref = ray.put(nodes)
        shards = [_pr_prep_shard.remote(b, nodes_ref) for b in blocks]
        for _ in range(n_iters):
            share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                              where=out_deg > 0)
            share_ref = ray.put(share)
            futs = [_pr_shard_contrib.remote(s, share_ref, n)
                    for s in shards]
            incoming = np.zeros(n, np.float64)
            while futs:
                done, futs = ray.wait(futs,
                                      num_returns=min(8, len(futs)))
                for v in ray.get(done):
                    incoming += v
            dangling = float(rank[out_deg == 0].sum())
            rank = ((1.0 - damping) / n
                    + damping * (incoming + dangling / n))
        out = pd.DataFrame({"node": nodes, "rank": rank})
        if top_k is not None:
            out = out.sort_values(["rank", "node"],
                                  ascending=[False, True]) \
                .head(top_k).reset_index(drop=True)
        return out

    def contribs_for(rank_ref):
        def contribs(t: pa.Table) -> pa.Table:
            node_arr, share_arr = ray.get(rank_ref)
            src = t.column("src").to_numpy(zero_copy_only=False)
            dst = t.column("dst").to_numpy(zero_copy_only=False)
            w = share_arr[np.searchsorted(node_arr, src)]
            g = pa.table({"dst": pa.array(dst, pa.int64()),
                          "w": pa.array(w, pa.float64())}) \
                .group_by("dst").aggregate([("w", "sum")])
            return g.rename_columns(
                ["w" if c == "w_sum" else c for c in g.column_names])

        return contribs

    def dst_merge(g: pa.Table) -> pa.Table:
        out = g.select(["dst", "w"]).group_by("dst").aggregate([("w", "sum")])
        return out.rename_columns(
            ["w" if c == "w_sum" else c for c in out.column_names])

    # driver transfer of per-block partials is vertices × blocks rows; past
    # this vertex count a keyed merge on dst (16-byte shuffle rows) folds
    # them to ≤ vertices rows before they reach the driver.
    # Below it the transfer is trivially small and the per-iteration
    # shuffle would be pure overhead — same size-gated-plan convention as
    # the extraction join and d_minhash_pairs.
    premerge = n > PAGERANK_PREMERGE_VERTICES

    for _ in range(n_iters):
        share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                          where=out_deg > 0)
        rank_ref = ray.put((nodes, share))
        part_ds = edges.map_batches(contribs_for(rank_ref),
                                    batch_format="pyarrow")
        if premerge:
            from .joins import keyed

            part_ds = keyed(part_ds, "dst", dst_merge)
        part = part_ds.to_pandas()
        agg = part.groupby("dst", as_index=False)["w"].sum()
        incoming = np.zeros(n, np.float64)
        incoming[np.searchsorted(nodes, agg["dst"].to_numpy())] = \
            agg["w"].to_numpy()
        dangling = float(rank[out_deg == 0].sum())
        rank = ((1.0 - damping) / n
                + damping * (incoming + dangling / n))
    out = pd.DataFrame({"node": nodes, "rank": rank})
    if top_k is not None:
        out = out.sort_values(["rank", "node"], ascending=[False, True]) \
            .head(top_k).reset_index(drop=True)
    return out


def _pagerank_cogroup(edges: rd.Dataset, vs: rd.Dataset, n: int,
                      damping: float, n_iters: int,
                      top_k: int | None) -> pd.DataFrame:
    """Over-gate PageRank: vertex state lives in a bucketed Dataset
    (node, deg, rank) and NEVER lands on the driver.  Per iteration:

      1. dangling mass — per-block float partials over the vertex state
         folded to ONE driver scalar (the only driver-side value).
      2. shares (node -> rank/deg for deg>0; every edge src has deg>=1
         so inner-join attach semantics lose nothing) attach to the edge
         relation by ONE src-bucketed cogroup (joins.attach_value) whose
         ``post`` hook collapses each bucket to per-dst partial sums —
         contribution rows leaving a bucket are bounded by the bucket's
         distinct dst count, not its edge count.
      3. the partials cogroup with the vertex state in ONE keyed fold on
         the node; inside each bucket an Arrow group_by folds the
         partials and a vectorized index_in probe writes the new rank
         vector.

    Two keyed exchanges per iteration — the edge relation re-shuffles
    each round (an exchange does not pin a prior partitioning; a
    raw-actor edge shard would save it at the cost of leaving the
    Dataset model).  Partial-sum order varies with partitioning, so
    results are float-stable only to ~1e-12 (same contract as the
    broadcast path's np.allclose pytest lock).

    ``top_k`` finalizes with per-block local top-k + a k×blocks driver
    merge; without it the full (node, rank) frame is pulled — callers
    over the gate should always pass top_k or consume the state
    upstream."""
    from .joins import attach_value, keyed, rename_agg

    base = (1.0 - damping) / n
    # the vertex state stays at one block per keyed bucket: each round's
    # keyed fold emits one block per non-empty bucket, so the block count
    # does not grow across iterations
    vs = vs.map_batches(
        lambda t: t.append_column(
            "rank", pa.array(np.full(t.num_rows, 1.0 / n))),
        batch_format="pyarrow").materialize()

    def dang_partial(t: pa.Table) -> pa.Table:
        r = t.column("rank").to_numpy(zero_copy_only=False)
        d = t.column("deg").to_numpy(zero_copy_only=False)
        return pa.table({"m": pa.array([float(r[d == 0].sum())])})

    def share_rows(t: pa.Table) -> pa.Table:
        d = t.column("deg").to_numpy(zero_copy_only=False)
        r = t.column("rank").to_numpy(zero_copy_only=False)
        keep = d > 0
        return pa.table({
            "doc_id": pa.array(
                t.column("node").to_numpy(zero_copy_only=False)[keep],
                pa.int64()),
            "value": pa.array(r[keep] / d[keep], pa.float64()),
        })

    def post(tbl: pa.Table) -> pa.Table:
        g = pa.table({"dst": tbl["dst"], "w": tbl["share"]}) \
            .group_by("dst").aggregate([("w", "sum")])
        return rename_agg(g, {"w_sum": "w"}, ["dst", "w"])

    def tag_vs(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"], "deg": t["deg"], "rank": t["rank"],
            "__w": pa.nulls(t.num_rows, pa.float64()),
        })

    def tag_parts(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["dst"],
            "deg": pa.nulls(t.num_rows, pa.int64()),
            "rank": pa.nulls(t.num_rows, pa.float64()),
            "__w": t["w"],
        })

    def new_state_for(dangling: float):
        def new_state(g: pa.Table) -> pa.Table:
            is_v = pc.is_valid(g.column("deg"))
            verts = g.filter(is_v)
            parts = g.filter(pc.invert(is_v))
            if verts.num_rows == 0:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "deg": pa.array([], pa.int64()),
                                 "rank": pa.array([], pa.float64())})
            incoming = np.zeros(verts.num_rows, np.float64)
            if parts.num_rows:
                agg = pa.table({"node": parts["node"], "w": parts["__w"]}) \
                    .group_by("node").aggregate([("w", "sum")])
                idx = pc.index_in(
                    verts.column("node"),
                    value_set=agg.column("node").combine_chunks())
                hit = pc.is_valid(idx).to_numpy(zero_copy_only=False)
                incoming[hit] = agg.column("w_sum").to_numpy(
                    zero_copy_only=False)[
                        idx.to_numpy(zero_copy_only=False)[hit]]
            rank_new = base + damping * (incoming + dangling / n)
            return pa.table({"node": verts["node"], "deg": verts["deg"],
                             "rank": pa.array(rank_new, pa.float64())})

        return new_state

    for _ in range(n_iters):
        dangling = float(
            vs.map_batches(dang_partial, batch_format="pyarrow")
            .sum("m") or 0.0)
        shares = vs.map_batches(share_rows, batch_format="pyarrow")
        partials = attach_value(
            edges, shares, "src", "share", pa.float64(),
            [("src", pa.int64()), ("dst", pa.int64())], post=post)
        vs = keyed(vs.map_batches(tag_vs, batch_format="pyarrow")
                   .union(partials.map_batches(tag_parts,
                                               batch_format="pyarrow")),
                   "node", new_state_for(dangling))

    if top_k is not None:
        def local_topk(t: pa.Table) -> pa.Table:
            order = pc.sort_indices(
                t, sort_keys=[("rank", "descending"),
                              ("node", "ascending")])
            return t.take(order.slice(0, top_k)).select(["node", "rank"])

        cand = vs.map_batches(local_topk, batch_format="pyarrow") \
            .to_pandas()
        return cand.sort_values(["rank", "node"],
                                ascending=[False, True]) \
            .head(top_k).reset_index(drop=True)
    return vs.to_pandas().sort_values("node").reset_index(drop=True) \
        .drop(columns=["deg"])


def g_pagerank_copurchase(sf_dir: str) -> pd.DataFrame:
    """PageRank over the co-purchase graph (parts as nodes, one directed
    edge each way per same-order part pair — the q_copurchase_pairs
    relation made symmetric).  Top-20 parts by rank; rows-only checked
    (iterative float), locked against the naive reference in pytest."""
    from .joins import keyed

    # driver fold under the shared lineitem METADATA gate (the triangle /
    # copurchase census fold): the symmetric edge multiset is one lexsort
    # + shift-k walk and 10 BSP rounds are 10 bincounts — the identical
    # iteration formula the raw-task path runs, so ranks agree to float
    # merge-order noise (≤1e-12, the same bound the task-vs-Ray-Data
    # pytest locks).  Distributed plans keep running above the gate and
    # when a forced-path test zeroes any gate.
    import pyarrow.parquet as _pq

    if (_pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
            <= TRIANGLE_DRIVER_ROWS and PAGERANK_TASK_VERTICES
            and PAGERANK_BROADCAST_VERTICES):
        t = _pq.read_table(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_partkey"])
        ok = t["l_orderkey"].to_numpy()
        pk = t["l_partkey"].to_numpy()
        o = np.lexsort((pk, ok))
        ok, pk = ok[o], pk[o]
        nn = len(ok)
        a_l, b_l = [], []
        k = 1
        while True:
            same = ok[:-k] == ok[k:] if k < nn else np.zeros(0, bool)
            if not same.any():
                break
            a, b = pk[:-k][same], pk[k:][same]
            neq = a != b
            a_l.append(a[neq])
            b_l.append(b[neq])
            k += 1
        if not a_l:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "rank": pd.Series(dtype="float64")})
        a = np.concatenate(a_l).astype(np.int64)
        b = np.concatenate(b_l).astype(np.int64)
        src = np.concatenate((a, b))
        dst = np.concatenate((b, a))
        nodes = np.unique(src)  # symmetric: every endpoint is a source
        n = len(nodes)
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        out_deg = np.bincount(si, minlength=n).astype(np.float64)
        rank = np.full(n, 1.0 / n)
        for _ in range(PAGERANK_ITERS):
            share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                              where=out_deg > 0)
            incoming = np.bincount(di, weights=share[si], minlength=n)
            dangling = float(rank[out_deg == 0].sum())
            rank = ((1.0 - PAGERANK_DAMPING) / n
                    + PAGERANK_DAMPING * (incoming + dangling / n))
        pr = pd.DataFrame({"node": nodes, "rank": rank})
        pr = pr.sort_values(["rank", "node"], ascending=[False, True]) \
            .head(20).reset_index(drop=True)
        pr["rank"] = pr["rank"].round(8)
        return pr

    li = read_table(f"{sf_dir}/lineitem.parquet", ["l_orderkey", "l_partkey"])

    def pairs_sym(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("l_orderkey", "ascending"),
                                              ("l_partkey", "ascending")])
        g = g.take(order)
        ok = g.column("l_orderkey").to_numpy(zero_copy_only=False)
        pk = g.column("l_partkey").to_numpy(zero_copy_only=False)
        n = len(ok)
        a_l, b_l = [], []
        k = 1
        while True:
            same = ok[:-k] == ok[k:] if k < n else np.zeros(0, bool)
            if not same.any():
                break
            a, b = pk[:-k][same], pk[k:][same]
            neq = a != b
            a_l.append(a[neq])
            b_l.append(b[neq])
            k += 1
        if not a_l:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64())})
        a = np.concatenate(a_l)
        b = np.concatenate(b_l)
        return pa.table({
            "src": pa.array(np.concatenate((a, b)), pa.int64()),
            "dst": pa.array(np.concatenate((b, a)), pa.int64()),
        })

    edges = keyed(li, "l_orderkey", pairs_sym)
    pr = pagerank_edges(edges)
    pr = pr.sort_values(["rank", "node"], ascending=[False, True]) \
        .head(20).reset_index(drop=True)
    pr["rank"] = pr["rank"].round(8)
    return pr


# ---------------------------------------------------------------------------
# exact triangle counting (degree-oriented wedge join, MR-classic)
# ---------------------------------------------------------------------------

TRIANGLE_BROADCAST_NODES = 5_000_000

# below this many distinct oriented edges the sorted edge-key array
# (8 B/edge — 20M edges = 160 MB) broadcasts via ray.put and wedge
# closure is counted INSIDE the per-source-bucket group function
# (searchsorted membership, one int64 partial per bucket), eliminating
# the wedge-table materialization + wkey cogroup entirely; above it the
# classic MR wedge-join (emit wedges, cogroup with edges) is the scale
# path — the same broadcast-vs-cogroup duality as functions/joins.py
TRIANGLE_BROADCAST_EDGES = 20_000_000

# per-worker-process cache of the broadcast (node, rank) arrays for the
# task-mode orient map (resolved once per worker, not per batch)
_TASK_RANK_CACHE: dict = {}

# below this many pair-partial rows the whole edge set collapses on the
# driver (8 B/key — 20M = 160 MB) and degrees / orientation / sharding
# are one vectorized pass there; wedge closure fans out as raw tasks
# over src-aligned slices of the plasma-resident oriented arrays.  This
# skips THREE keyed exchanges (pair dedupe, degree census, wedge bucket)
# that each cost ~0.5-1 s of fixed exchange time at bench scale — the
# same small-graph duality as the PageRank raw-task BSP path.  Above
# the gate (100 TB corpora) the fully distributed path below runs.
TRIANGLE_DRIVER_PAIRS = 20_000_000
# lineitem-metadata gate for the full driver stage-1 (pair census on the
# driver, the q_copurchase_pairs fold): pairs ≈ 3× rows for ≤7-item
# orders, so 6M rows keeps the distinct-pair array within the same
# memory budget TRIANGLE_DRIVER_PAIRS bounds for the collected partials
TRIANGLE_DRIVER_ROWS = 6_000_000


@ray.remote
def _tri_close_shard(state, lo: int, hi: int) -> int:
    """Wedge closure over one src-aligned slice of the oriented edge
    arrays: shift-k wedge enumeration (src-sorted, dst_rank-minor) with
    immediate sorted-membership counting against the full oriented key
    array — no wedge row ever leaves the task."""
    s_all, d_all, ek = state
    s = s_all[lo:hi]
    d = d_all[lo:hi]
    n = len(s)
    if n == 0 or len(ek) == 0:
        return 0
    total = 0
    k = 1
    while True:
        same = s[:-k] == s[k:] if k < n else np.zeros(0, bool)
        if not same.any():
            break
        wk = d[:-k][same] * (1 << 32) + d[k:][same]
        idx = np.searchsorted(ek, wk)
        idx[idx == len(ek)] = 0
        total += int((ek[idx] == wk).sum())
        k += 1
    return total


def _triangle_driver_close(pair_parts: "rd.Dataset") -> pd.DataFrame:
    """Small-graph fast path: distinct edges, degrees, orientation and
    src-sharding in one driver pass over the collected pair keys; wedge
    closure as raw tasks over plasma-resident slices."""
    kt = pair_parts.map_batches(
        lambda t: pa.table({"k": pc.add(
            pc.multiply(t["a"], pa.scalar(1 << 32, pa.int64())), t["b"])}),
        batch_format="pyarrow").to_pandas()
    keys = np.unique(kt["k"].to_numpy().astype(np.int64))
    return _triangle_close_keys(keys)


def _triangle_close_keys(keys: np.ndarray) -> pd.DataFrame:
    """Orientation + sharded wedge closure over the sorted distinct
    oriented-by-id pair keys (a*2^32+b, a<b)."""
    n_e = len(keys)
    if n_e == 0:
        return pd.DataFrame({"n_nodes": [0], "n_edges": [0],
                             "n_triangles": [0]})
    a = (keys >> 32).astype(np.int64)
    b = (keys & 0xFFFFFFFF).astype(np.int64)
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    deg = (np.bincount(ia, minlength=len(nodes))
           + np.bincount(ib, minlength=len(nodes)))
    # same rank key as the distributed path: degree-major, id-minor
    rk = deg.astype(np.int64) * (1 << 32) + nodes
    ra, rb = rk[ia], rk[ib]
    lo_is_a = ra < rb
    src = np.where(lo_is_a, a, b)
    dst = np.where(lo_is_a, b, a)
    # (src, dst-rank) sort via ONE packed int64 argsort instead of a
    # 2-key lexsort: rank POSITION (dense, < n_nodes < 2^31) orders
    # identically to the rank VALUE (rk is unique per node), and
    # src < 2^31 by the repo-wide pair-encode convention
    rank_pos = np.empty(len(nodes), dtype=np.int64)
    rank_pos[np.argsort(rk)] = np.arange(len(nodes), dtype=np.int64)
    dpos = rank_pos[np.where(lo_is_a, ib, ia)]
    order = np.argsort(src * (1 << 31) + dpos)
    s = np.ascontiguousarray(src[order])
    d = np.ascontiguousarray(dst[order])
    ek = np.sort(src * (1 << 32) + dst)
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    n_shards = max(1, min(n_cpus, n_e // 20_000 + 1))
    pos = (np.arange(1, n_shards) * n_e) // n_shards
    cuts = np.unique(np.concatenate(
        [[0], np.searchsorted(s, s[pos]), [n_e]]))  # align on src runs
    ref = ray.put((s, d, ek))
    futs = [_tri_close_shard.remote(ref, int(lo), int(hi))
            for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    tri = int(sum(ray.get(futs)))
    return pd.DataFrame({"n_nodes": [int(len(nodes))],
                         "n_edges": [int(n_e)],
                         "n_triangles": [tri]})


def g_triangle_count(sf_dir: str) -> pd.DataFrame:
    """Exact triangle count of the co-purchase graph (distinct part
    pairs sharing an order) — the Suri–Vassilvitskii MR shape with
    degree orientation, so every triangle is counted at exactly ONE
    node and wedge fan-out is O(m^1.5) instead of sum(deg^2):

      1. distinct edges: shift-k pair generation keyed on orderkey
         (q_copurchase_pairs stage 1) + a global dedupe keyed on the pair
      2. degrees: per-batch endpoint partials -> node-bounded groupby;
         the (node -> degree) map broadcasts under
         TRIANGLE_BROADCAST_NODES, else it attaches by TWO bucketed
         cogroups (forced in pytest)
      3. wedges: edges oriented low->high (degree, id) rank, keyed on
         the source, per-bucket sorted shift-k emits each wedge (v, w)
         with rank(v) < rank(w), pre-aggregated per bucket
      4. close: wedge multiplicities attach to the oriented-edge set by
         ONE cogroup on the encoded pair key (v*2^32+w — partkeys are
         assumed < 2^31, the repo-wide pair-encode convention); matched
         multiplicities sum to the triangle count

    Returns (n_nodes, n_edges, n_triangles) — all exact int64, oracled
    against DuckDB's three-way self-join."""
    from .joins import aggregate, attach_value, keyed, rename_agg

    # full driver stage-1 under the lineitem METADATA gate (the
    # q_copurchase_pairs fold): the whole distinct-edge census is one
    # lexsort + shift-k walk on the driver, skipping the orderkey
    # sort-shuffle AND the pair-partial collect; distributed stage-1
    # kept above the gate and whenever a forced-path test zeroes any
    # distributed gate
    import pyarrow.parquet as _pq

    if (_pq.read_metadata(f"{sf_dir}/lineitem.parquet").num_rows
            <= TRIANGLE_DRIVER_ROWS and TRIANGLE_DRIVER_PAIRS
            and TRIANGLE_BROADCAST_NODES and TRIANGLE_BROADCAST_EDGES):
        t = _pq.read_table(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_partkey"])
        ok = t["l_orderkey"].to_numpy()
        pk = t["l_partkey"].to_numpy()
        o = np.lexsort((pk, ok))
        ok, pk = ok[o], pk[o]
        n = len(ok)
        keys_l = []
        k = 1
        while True:
            same = ok[:-k] == ok[k:] if k < n else np.zeros(0, bool)
            if not same.any():
                break
            a, b = pk[:-k][same], pk[k:][same]
            neq = a != b  # a < b (pk sorted within order)
            keys_l.append(a[neq].astype(np.int64) * (1 << 32) + b[neq])
            k += 1
        keys = (np.unique(np.concatenate(keys_l)) if keys_l
                else np.array([], np.int64))
        return _triangle_close_keys(keys)

    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])

    def pairs(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("l_orderkey", "ascending"),
                                              ("l_partkey", "ascending")])
        g = g.take(order)
        ok = g.column("l_orderkey").to_numpy(zero_copy_only=False)
        pk = g.column("l_partkey").to_numpy(zero_copy_only=False)
        n = len(ok)
        pa_l, pb_l = [], []
        k = 1
        while True:
            same = ok[:-k] == ok[k:] if k < n else np.zeros(0, bool)
            if not same.any():
                break
            a, b = pk[:-k][same], pk[k:][same]
            neq = a != b
            pa_l.append(a[neq])
            pb_l.append(b[neq])
            k += 1
        if not pa_l:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "__pk": pa.array([], pa.int64())})
        t2 = pa.table({"a": pa.array(np.concatenate(pa_l), pa.int64()),
                       "b": pa.array(np.concatenate(pb_l), pa.int64())})
        t2 = t2.group_by(["a", "b"]).aggregate([])  # local distinct
        key = pc.add(pc.multiply(t2["a"], pa.scalar(1 << 32, pa.int64())),
                     t2["b"])
        return t2.append_column("__pk", key)

    def dedupe(g: pa.Table) -> pa.Table:
        return g.group_by(["a", "b"]).aggregate([])

    pair_parts = keyed(li, "l_orderkey", pairs)
    # small-graph fast path: the pair partials fit the driver — skip the
    # dedupe / census / wedge shuffles entirely (gated off whenever a
    # forced-path test zeroes either distributed gate)
    if (pair_parts.count() <= TRIANGLE_DRIVER_PAIRS
            and TRIANGLE_BROADCAST_NODES and TRIANGLE_BROADCAST_EDGES):
        return _triangle_driver_close(pair_parts)

    edges = keyed(pair_parts, "__pk", dedupe)
    n_edges = edges.count()

    # degree census: per-batch partials merged through ONE keyed fold on
    # the node — the _vertex_census plan
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()])})

    deg_ds = aggregate(edges.map_batches(endpoints, batch_format="pyarrow"),
                       "node", {"deg": (None, "count")})
    n_nodes = deg_ds.count()

    # rank key for orientation: degree-major, id-minor (ids < 2^31)
    def rank_key(dd: np.ndarray, ii: np.ndarray) -> np.ndarray:
        return dd.astype(np.int64) * (1 << 32) + ii.astype(np.int64)

    if n_nodes <= TRIANGLE_BROADCAST_NODES:
        deg = deg_ds.to_pandas()
        nid = deg["node"].to_numpy().astype(np.int64)
        o = np.argsort(nid)
        nid = nid[o]
        rk = rank_key(deg["deg"].to_numpy()[o], nid)
        ref = ray.put((nid, rk))

        # task-mode orient: a trivially vectorized map doesn't warrant an
        # actor pool (spin-up + an 8-actor cap measured ~3.0 s of the 12 s
        # wall); the broadcast (nid, rk) pair resolves once per worker
        # process via the module cache — zero-copy plasma view per ray.get
        def orient_bc(t: pa.Table) -> pa.Table:
            ent = _TASK_RANK_CACHE.get(ref.hex())
            if ent is None:
                _TASK_RANK_CACHE.clear()
                ent = _TASK_RANK_CACHE[ref.hex()] = ray.get(ref)
            nid_w, rk_w = ent
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ra = rk_w[np.searchsorted(nid_w, a)]
            rb = rk_w[np.searchsorted(nid_w, b)]
            src = np.where(ra < rb, a, b)
            dst = np.where(ra < rb, b, a)
            dstr = np.where(ra < rb, rb, ra)
            return pa.table({
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "dst_rank": pa.array(dstr, pa.int64())})

        oriented = edges.map_batches(orient_bc, batch_format="pyarrow")
    else:
        # scale path: degree attaches by two cogroups (deg_a then deg_b);
        # the degree table never lands on the driver
        deg_vals = deg_ds.map_batches(
            lambda t: pa.table({"doc_id": t["node"],
                                "value": pc.cast(t["deg"], pa.int64())}),
            batch_format="pyarrow")
        withda = attach_value(
            edges, deg_vals, "a", "deg_a", pa.int64(),
            [("a", pa.int64()), ("b", pa.int64())])
        withdb = attach_value(
            withda, deg_vals, "b", "deg_b", pa.int64(),
            [("a", pa.int64()), ("b", pa.int64()),
             ("deg_a", pa.int64())])

        def orient(t: pa.Table) -> pa.Table:
            a = t.column("a").to_numpy(zero_copy_only=False)
            b = t.column("b").to_numpy(zero_copy_only=False)
            ra = rank_key(t.column("deg_a").to_numpy(zero_copy_only=False), a)
            rb = rank_key(t.column("deg_b").to_numpy(zero_copy_only=False), b)
            src = np.where(ra < rb, a, b)
            dst = np.where(ra < rb, b, a)
            dstr = np.where(ra < rb, rb, ra)
            return pa.table({"src": pa.array(src, pa.int64()),
                             "dst": pa.array(dst, pa.int64()),
                             "dst_rank": pa.array(dstr, pa.int64())})

        oriented = withdb.map_batches(orient, batch_format="pyarrow")

    oriented = oriented.materialize()

    if n_edges <= TRIANGLE_BROADCAST_EDGES:
        # broadcast closure path: one sorted int64 key per oriented edge
        # (src*2^32+dst); each keyed src bucket emits wedges per shift-k and
        # counts membership hits immediately — constant memory per k,
        # no wedge row ever leaves the worker
        ek_parts = oriented.map_batches(
            lambda t: pa.table({"k": pc.add(
                pc.multiply(t["src"], pa.scalar(1 << 32, pa.int64())),
                t["dst"])}),
            batch_format="pyarrow").to_pandas()
        ekeys = np.sort(ek_parts["k"].to_numpy().astype(np.int64))
        ek_ref = ray.put(ekeys)

        def wedge_close(g: pa.Table) -> pa.Table:
            ek = ray.get(ek_ref)
            if len(ek) == 0:
                return pa.table({"tri": pa.array([0], pa.int64())})
            order = pc.sort_indices(g, sort_keys=[("src", "ascending"),
                                                  ("dst_rank", "ascending")])
            g = g.take(order)
            s = g.column("src").to_numpy(zero_copy_only=False)
            d = g.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
            n = len(s)
            total = 0
            k = 1
            while True:
                same = s[:-k] == s[k:] if k < n else np.zeros(0, bool)
                if not same.any():
                    break
                wk = d[:-k][same] * (1 << 32) + d[k:][same]
                idx = np.searchsorted(ek, wk)
                idx[idx == len(ek)] = 0
                total += int((ek[idx] == wk).sum())
                k += 1
            return pa.table({"tri": pa.array([total], pa.int64())})

        tri = keyed(oriented, "src", wedge_close).sum("tri")
        return pd.DataFrame({"n_nodes": [int(n_nodes)],
                             "n_edges": [int(n_edges)],
                             "n_triangles": [int(tri or 0)]})

    def wedges(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("src", "ascending"),
                                              ("dst_rank", "ascending")])
        g = g.take(order)
        s = g.column("src").to_numpy(zero_copy_only=False)
        d = g.column("dst").to_numpy(zero_copy_only=False)
        n = len(s)
        va, vb = [], []
        k = 1
        while True:
            same = s[:-k] == s[k:] if k < n else np.zeros(0, bool)
            if not same.any():
                break
            va.append(d[:-k][same])   # rank(v) < rank(w) by dst_rank sort
            vb.append(d[k:][same])
            k += 1
        if not va:
            return pa.table({"wkey": pa.array([], pa.int64()),
                             "mult": pa.array([], pa.int64())})
        v = np.concatenate(va).astype(np.int64)
        w = np.concatenate(vb).astype(np.int64)
        t2 = pa.table({"wkey": pa.array(v * (1 << 32) + w, pa.int64()),
                       "mult": pa.array(np.ones(len(v), np.int64))})
        g2 = t2.group_by("wkey").aggregate([("mult", "sum")])
        return rename_agg(g2, {"mult_sum": "mult"}, ["wkey", "mult"])

    wedge_ds = keyed(oriented, "src", wedges)

    edge_keys = oriented.map_batches(
        lambda t: pa.table({
            "doc_id": pc.add(pc.multiply(t["src"],
                                         pa.scalar(1 << 32, pa.int64())),
                             t["dst"]),
            "value": pa.array(np.ones(t.num_rows, np.int64))}),
        batch_format="pyarrow")

    def count_hits(t: pa.Table) -> pa.Table:
        s = pc.sum(t["mult"])
        return pa.table({"tri": pa.array([int(s.as_py() or 0)],
                                         pa.int64())})

    tri = attach_value(
        wedge_ds, edge_keys, "wkey", "present", pa.int64(),
        [("wkey", pa.int64()), ("mult", pa.int64())],
        post=count_hits).sum("tri")

    return pd.DataFrame({"n_nodes": [int(n_nodes)],
                         "n_edges": [int(n_edges)],
                         "n_triangles": [int(tri or 0)]})
