"""Iterative graph algorithms over edge Datasets — the compute class
(repeated shuffles over a fixed edge relation with an evolving vertex
state) that one-pass relational operators don't cover.

PageRank runs one route at every size: the rank vector is sharded by a
hash of the vertex, the edges are split by src once, and each round is
one raw task per shard that combines its per-dst partials before
sending them to their owner shards (FP-Hadoop's combine before the
keyed reduce).  No vertex state lands on the driver, and every float sum
adds in an order fixed by the edges, so the ranks are the same whatever
the block layout; pytest locks them against a naive single-process
reference on the same edges plus exact invariants (rank mass = 1).

The triangle count reads ``joins.LOCAL_FOLD_ROWS`` (when called), the
one bound on what the driver holds: at or under it the driver keeps the
distinct pair keys and fans the wedge closure out as raw tasks over
plasma-resident slices; above it every step is a keyed exchange (the
degree-oriented wedge join).
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


@ray.remote
def _pr_prep(n_shards: int, *shards):
    """One src bucket of the edges: its edges sorted by (src, dst), so
    every later float sum of the bucket adds in one fixed order; its
    unique srcs with their out-degrees; and its unique dsts routed to
    their owner shards by the split's own hash.  Returns that edge state,
    then the dsts sent to each shard."""
    from .joins import _key_buckets

    t = [s for s in shards if s.num_rows]
    src, dst = (np.concatenate([np.empty(0, np.int64)] + [
        s.column(c).to_numpy(zero_copy_only=False) for s in t])
        .astype(np.int64) for c in ("src", "dst"))
    srcs, src_idx, deg = np.unique(src, return_inverse=True,
                                   return_counts=True)
    dsts, dst_idx = np.unique(dst, return_inverse=True)
    # (src, dst) order by one sort of the packed index pair (a 2-key
    # lexsort took 3x as long on 600k edges)
    order = np.argsort(src_idx * len(dsts) + dst_idx)
    src_idx, dst_idx = src_idx[order], dst_idx[order]
    owner = _key_buckets(pa.array(dsts, pa.int64()), n_shards)
    route = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[route], np.arange(n_shards + 1))
    return ((srcs, deg, src_idx, dst_idx, route, cuts),
            *np.split(dsts[route], cuts[1:-1]))


@ray.remote(num_returns=2)
def _pr_nodes(edge_state, *routed):
    """A shard's vertex table: the srcs of its edge bucket plus the dsts
    routed to it (sinks at out-degree 0), each round's arrays indexed
    into it once.  Returns the shard and its vertex count."""
    srcs, deg, src_idx, dst_idx, route, cuts = edge_state
    nodes = np.unique(np.concatenate((srcs,) + routed))
    src_pos = np.searchsorted(nodes, srcs)
    out_deg = np.zeros(len(nodes))
    out_deg[src_pos] = deg
    recv = [np.searchsorted(nodes, r) for r in routed]
    return (nodes, out_deg, src_pos[src_idx], dst_idx, route, cuts,
            recv), len(nodes)


def _next_rank(shard, rank, n: int, damping: float, msgs) -> np.ndarray:
    """A vertex shard's ranks after one round.  ``msgs`` are every
    shard's dangling-mass partial of the previous round, then the per-dst
    partials each shard sent here, both in shard order; the first round
    gets none (``rank`` None) and starts at the uniform rank."""
    nodes, recv = shard[0], shard[-1]
    if rank is None:
        return np.full(len(nodes), 1.0 / n)
    incoming = np.zeros(len(nodes))
    for idx, part in zip(recv, msgs[len(recv):]):
        incoming[idx] += part
    dangling = sum(msgs[:len(recv)])
    return (1.0 - damping) / n + damping * (incoming + dangling / n)


@ray.remote
def _pr_round(shard, rank, n: int, damping: float, *msgs):
    """One round of one vertex shard (:func:`_next_rank`).  Returns the
    new ranks, their dangling-mass partial, then one per-dst partial per
    owner shard (a single bincount over the sorted edges: the combine
    before the exchange)."""
    nodes, out_deg, edge_src, dst_idx, route, cuts, recv = shard
    rank = _next_rank(shard, rank, n, damping, msgs)
    share = np.divide(rank, out_deg, out=np.zeros_like(rank),
                      where=out_deg > 0)
    part = np.bincount(dst_idx, weights=share[edge_src],
                       minlength=len(route))[route]
    return (rank, float(rank[out_deg == 0].sum()),
            *np.split(part, cuts[1:-1]))


def _top(ranks: pd.DataFrame, k: int) -> pd.DataFrame:
    return ranks.sort_values(["rank", "node"], ascending=[False, True]) \
        .head(k).reset_index(drop=True)


@ray.remote
def _pr_ranks(shard, rank, n: int, damping: float, top_k: int | None,
              *msgs) -> pd.DataFrame:
    """A shard's (node, rank) rows, or its ``top_k`` highest, after the
    last round when given its ``msgs`` (:func:`_next_rank`): that round
    computes ranks only, as no task reads its partials."""
    if msgs:
        rank = _next_rank(shard, rank, n, damping, msgs)
    out = pd.DataFrame({"node": shard[0], "rank": rank})
    return out if top_k is None else _top(out, top_k)


def pagerank_edges(edges: rd.Dataset, damping: float = PAGERANK_DAMPING,
                   n_iters: int = PAGERANK_ITERS,
                   top_k: int | None = None) -> pd.DataFrame:
    """PageRank over a directed edge Dataset with int64 columns
    (src, dst) — duplicate edges count as parallel edges.  Returns
    (node, rank) sorted by node, rank mass summing to 1 over all nodes
    (``top_k`` instead returns the k highest-rank rows, rank-major).
    Dangling-node mass (nodes with no out-edges) redistributes
    uniformly, keeping total mass exactly 1 like the textbook
    formulation.

    One route at every size, with no vertex state on the driver: the
    edges are materialized once (the only Ray Data job) and split by
    ``src`` with the exchange's own split tasks; one prep task per bucket
    and one node task per shard build the vertex shards, of which the
    driver reads only the counts; then each round is one task per shard
    (:func:`_pr_round`), submitted without waiting, and the last round's
    task per shard computes ranks only and returns the shard's rows or
    its local top-k (k x shards rows merged here).
    Every float sum adds in an order fixed by the edges alone, so the
    ranks do not depend on the block layout or on task timing.

    The shard count is the cluster's CPUs floored to a power of two
    (``exchange_buckets(0)``), not a count that grows with the rows:
    each round makes shards^2 small partials, so more shards than cores
    only add per-object overhead (on a 4-vCPU host, 8 shards ran the
    sf0.1 co-purchase graph slower than 4)."""
    from .joins import block_refs, exchange_buckets, key_split, split_blocks

    p = exchange_buckets(0)
    splits = split_blocks(block_refs(edges), key_split("src", ["src", "dst"]),
                          p)
    preps = [_pr_prep.options(num_returns=p + 1).remote(
        p, *[s[1 + k] for s in splits]) for k in range(p)]
    built = [_pr_nodes.remote(prep[0], *[o[1 + k] for o in preps])
             for k, prep in enumerate(preps)]
    shards = [shard for shard, _ in built]
    n = sum(ray.get([count for _, count in built]))
    if n == 0:
        return pd.DataFrame({"node": pd.Series(dtype="int64"),
                             "rank": pd.Series(dtype="float64")})
    step = _pr_round.options(num_returns=p + 2)
    outs = [step.remote(s, None, n, damping) for s in shards]

    def msgs(k):  # what shard k receives from the last wave
        return [o[1] for o in outs] + [o[2 + k] for o in outs]

    for _ in range(n_iters - 1):
        outs = [step.remote(s, outs[k][0], n, damping, *msgs(k))
                for k, s in enumerate(shards)]
    out = pd.concat(ray.get([
        _pr_ranks.remote(s, outs[k][0], n, damping, top_k,
                         *(msgs(k) if n_iters else []))
        for k, s in enumerate(shards)]), ignore_index=True)
    if top_k is not None:
        return _top(out, top_k)
    return out.sort_values("node").reset_index(drop=True)


def g_pagerank_copurchase(sf_dir: str) -> pd.DataFrame:
    """PageRank over the co-purchase graph (parts as nodes, one directed
    edge each way per same-order part pair — the q_copurchase_pairs
    relation made symmetric).  Top-20 parts by rank; rows-only checked
    (iterative float), locked against the naive reference in pytest.
    The lineitem read, the pair fold and the edges' materialize run as
    one Ray Data job; every round is raw tasks (:func:`pagerank_edges`)."""
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
    # the node
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
