"""Iterative graph algorithms over edge Datasets — the compute class
(repeated shuffles over a fixed edge relation with an evolving vertex
state) that one-pass relational operators don't cover.

Scale plan shared by the operators here: ``joins.LOCAL_FOLD_ROWS`` (read
when called) is the one bound on what the driver holds.  At or under it
the driver keeps the small state (PageRank's n-length rank vector, the
triangle count's distinct pair keys) and fans the per-round work out as
raw tasks over plasma-resident shards; above it the state never lands
on the driver and every step is a keyed exchange (the vertex state
cogroups with the edges each PageRank round; the triangle count runs
the degree-oriented wedge join).  Float iteration order varies with
partitioning, so PageRank results are rows-only driver checks; pytest
locks them against a naive single-process reference on the same edges
(np.allclose) plus exact invariants (rank mass = 1).
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


def same_key_pairs(key: np.ndarray, val: np.ndarray):
    """Every pair of rows of a key-sorted array that share a key, once,
    without a join: for k = 1, 2, ... yields ``(val[i], val[i + k])``
    over each i with ``key[i] == key[i + k]``, and stops at the first k
    that matches nothing (a run of g equal keys takes g - 1 passes)."""
    for k in range(1, len(key)):
        same = key[:-k] == key[k:]
        if not same.any():
            return
        yield val[:-k][same], val[k:][same]


def order_part_pairs(g: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """The co-purchase pairs of a (l_orderkey, l_partkey) table: each
    (a, b) with a < b of two different parts on one order, once per pair
    of its line items (the lineitem self-join's multiplicity), as two
    int64 arrays.  Order keys must be below 2^32 and part keys below
    2^31 (the repo-wide pair-encode convention), so one sort of the
    packed (order, part) key orders the rows (a 2-key Arrow sort took
    0.24 s of 600k rows, the packed sort 0.02 s)."""
    key = np.sort(
        (g.column("l_orderkey").to_numpy(zero_copy_only=False)
         .astype(np.int64) << 31)
        | g.column("l_partkey").to_numpy(zero_copy_only=False)
        .astype(np.int64))
    ok, pk = key >> 31, key & ((1 << 31) - 1)
    a_l, b_l = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for a, b in same_key_pairs(ok, pk):
        neq = a != b  # a < b (sorted) minus same-part repeats
        a_l.append(a[neq])
        b_l.append(b[neq])
    return np.concatenate(a_l), np.concatenate(b_l)


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
                   n_iters: int = PAGERANK_ITERS,
                   top_k: int | None = None) -> pd.DataFrame:
    """PageRank over a directed edge Dataset with int64 columns
    (src, dst) — duplicate edges count as parallel edges.  Returns
    (node, rank) sorted by node, rank mass summing to 1 over all nodes
    (``top_k`` instead returns the k highest-rank rows, rank-major).

    Two routes on the shared distributed vertex census, chosen by the
    one driver bound ``joins.LOCAL_FOLD_ROWS`` (read when called):

    * at most that many vertices: the driver holds the n-length rank
      vector and each round is bulk-synchronous raw tasks over the edge
      shards, indexed into the census once — one bincount per shard,
      ~30 ms a round where a Ray Data job per round costs ~0.3 s.
    * above it: vertex state never touches the driver —
      ``_pagerank_cogroup`` below.

    Dangling-node mass (nodes with no out-edges) redistributes
    uniformly, keeping total mass exactly 1 like the textbook
    formulation."""
    from . import joins

    edges = edges.materialize()
    # normalize the edge block count ONCE before the iteration loop: an
    # upstream exchange can leave many tiny blocks (one per bucket),
    # and every one of the n_iters rounds then pays per-block task
    # overhead — one coalesce amortizes over all iterations
    cpus = joins.cluster_cpus()
    if edges.num_blocks() > cpus * 4:
        edges = edges.repartition(cpus * 2).materialize()
    vs = _vertex_census(edges).materialize()
    n = int(vs.count())
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "rank": pd.Series(dtype="float64")})
    if n > joins.LOCAL_FOLD_ROWS:
        return _pagerank_cogroup(edges, vs, n, damping, n_iters, top_k)
    deg = vs.to_pandas()
    order = np.argsort(deg["node"].to_numpy())
    nodes = deg["node"].to_numpy().astype(np.int64)[order]
    out_deg = deg["deg"].to_numpy().astype(np.float64)[order]
    rank = np.full(n, 1.0 / n)

    # shards prepared once (plasma-resident index arrays), then n_iters
    # rounds of one tiny task per shard; the driver folds the dense
    # partials of a round in waves of 8, so peak transfer is 8 x 8n bytes
    nodes_ref = ray.put(nodes)
    shards = [_pr_prep_shard.remote(b, nodes_ref)
              for b in edges.get_internal_block_refs()]
    for _ in range(n_iters):
        share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                          where=out_deg > 0)
        share_ref = ray.put(share)
        futs = [_pr_shard_contrib.remote(s, share_ref, n) for s in shards]
        incoming = np.zeros(n, np.float64)
        while futs:
            done, futs = ray.wait(futs, num_returns=min(8, len(futs)))
            for v in ray.get(done):
                incoming += v
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
    """Above-bound PageRank: vertex state lives in a bucketed Dataset
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
    BSP route's np.allclose pytest lock).

    ``top_k`` finalizes with per-block local top-k + a k×blocks driver
    merge; without it the full (node, rank) frame is pulled — callers
    above the bound should always pass top_k or consume the state
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

    li = read_table(f"{sf_dir}/lineitem.parquet", ["l_orderkey", "l_partkey"])

    def pairs_sym(g: pa.Table) -> pa.Table:
        a, b = order_part_pairs(g)
        return pa.table({
            "src": pa.array(np.concatenate((a, b)), pa.int64()),
            "dst": pa.array(np.concatenate((b, a)), pa.int64()),
        })

    pr = pagerank_edges(keyed(li, "l_orderkey", pairs_sym), top_k=20)
    pr["rank"] = pr["rank"].round(8)
    return pr


# ---------------------------------------------------------------------------
# exact triangle counting (degree-oriented wedge join, MR-classic)
# ---------------------------------------------------------------------------

@ray.remote
def _tri_close_shard(state, lo: int, hi: int) -> int:
    """Wedge closure over one src-aligned slice of the oriented edge
    arrays: shift-k wedge enumeration (src-sorted, dst_rank-minor) with
    immediate sorted-membership counting against the full oriented key
    array — no wedge row ever leaves the task."""
    s_all, d_all, ek = state
    if len(ek) == 0:
        return 0
    total = 0
    for v, w in same_key_pairs(s_all[lo:hi], d_all[lo:hi]):
        wk = v * (1 << 32) + w
        idx = np.searchsorted(ek, wk)
        idx[idx == len(ek)] = 0
        total += int((ek[idx] == wk).sum())
    return total


def _triangle_close_keys(keys: np.ndarray) -> pd.DataFrame:
    """Orientation + sharded wedge closure over the sorted distinct
    oriented-by-id pair keys (a*2^32+b, a<b): degrees, orientation and
    src-sharding in one driver pass, wedge closure as raw tasks over
    plasma-resident slices."""
    from .joins import cluster_cpus

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
    # same rank key as the wedge join: degree-major, id-minor
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
    n_shards = max(1, min(cluster_cpus(), n_e // 20_000 + 1))
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

      1. pair partials: shift-k pair generation keyed on orderkey
         (q_copurchase_pairs stage 1), distinct per bucket.  When they
         count at most ``joins.LOCAL_FOLD_ROWS`` rows (read when
         called), the driver collects their keys and
         ``_triangle_close_keys`` runs steps 2-4 there.  Otherwise:
      2. distinct edges and degrees: a global dedupe keyed on the pair,
         per-batch endpoint partials -> a node-keyed count
      3. wedges: the degrees attach to both endpoints by two
         ``attach_value`` cogroups, edges orient low->high (degree, id)
         rank, and per-source-bucket sorted shift-k emits each wedge
         (v, w) with rank(v) < rank(w), pre-aggregated per bucket
      4. close: wedge multiplicities attach to the oriented-edge set by
         ONE cogroup on the encoded pair key (v*2^32+w — partkeys are
         assumed < 2^31, the repo-wide pair-encode convention); matched
         multiplicities sum to the triangle count

    Returns (n_nodes, n_edges, n_triangles) — all exact int64, oracled
    against DuckDB's three-way self-join."""
    from . import joins
    from .joins import aggregate, attach_value, keyed, rename_agg

    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])

    def pairs(g: pa.Table) -> pa.Table:
        a, b = order_part_pairs(g)
        key = np.unique((a << 32) | b)  # local distinct
        return pa.table({"a": key >> 32, "b": key & 0xFFFFFFFF,
                         "__pk": key})

    pair_parts = keyed(li, "l_orderkey", pairs).materialize()
    if pair_parts.count() <= joins.LOCAL_FOLD_ROWS:
        keys = [t.column("__pk").to_numpy()
                for t in ray.get(pair_parts.to_arrow_refs())]
        return _triangle_close_keys(
            np.unique(np.concatenate([np.empty(0, np.int64)] + keys)))

    def dedupe(g: pa.Table) -> pa.Table:
        return g.group_by(["a", "b"]).aggregate([])

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

    # orientation: the degree attaches to each endpoint by a cogroup
    # (deg_a then deg_b); the degree table never lands on the driver
    deg_vals = deg_ds.map_batches(
        lambda t: pa.table({"doc_id": t["node"],
                            "value": pc.cast(t["deg"], pa.int64())}),
        batch_format="pyarrow")
    withda = attach_value(
        edges, deg_vals, "a", "deg_a", pa.int64(),
        [("a", pa.int64()), ("b", pa.int64())])
    withdb = attach_value(
        withda, deg_vals, "b", "deg_b", pa.int64(),
        [("a", pa.int64()), ("b", pa.int64()), ("deg_a", pa.int64())])

    def orient(t: pa.Table) -> pa.Table:
        # rank key: degree-major, id-minor (ids < 2^31)
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        ra = t.column("deg_a").to_numpy(zero_copy_only=False) * (1 << 32) + a
        rb = t.column("deg_b").to_numpy(zero_copy_only=False) * (1 << 32) + b
        lo_is_a = ra < rb
        return pa.table({
            "src": pa.array(np.where(lo_is_a, a, b), pa.int64()),
            "dst": pa.array(np.where(lo_is_a, b, a), pa.int64()),
            "dst_rank": pa.array(np.where(lo_is_a, rb, ra), pa.int64())})

    oriented = withdb.map_batches(orient, batch_format="pyarrow") \
        .materialize()

    def wedges(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("src", "ascending"),
                                              ("dst_rank", "ascending")])
        g = g.take(order)
        s = g.column("src").to_numpy(zero_copy_only=False)
        d = g.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        # rank(v) < rank(w) by the dst_rank sort
        wk = np.concatenate([np.empty(0, np.int64)] + [
            v * (1 << 32) + w for v, w in same_key_pairs(s, d)])
        g2 = pa.table({"wkey": pa.array(wk, pa.int64()),
                       "mult": pa.array(np.ones(len(wk), np.int64))}) \
            .group_by("wkey").aggregate([("mult", "sum")])
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
