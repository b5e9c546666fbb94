"""Sharded incremental dedup index — shared mutable state across
ingestion batches.

This is the one shape the Dataset API genuinely cannot express (the
"shared mutable index" case): a fingerprint set that must SURVIVE
between pipeline runs, so that batch N+1 of a rolling ingestion
suppresses documents already accepted in batches 1..N.  A groupby only
dedups within one dataset; re-shuffling the union of all history per
batch would reprocess the whole corpus every increment.

Design: N small actors, each owning the fingerprints whose
content-derived prefix lands in its shard — the standard sharded-set
layout, so memory and check/add traffic spread across the cluster and
one shard's set stays cache-sized.  Callers batch their probes per
shard (ONE round-trip per shard per map batch, never per row) and the
actor's check_and_add is vectorized over the probe list.  At 100 TB
the shards hold 16-byte digests; 10^9 accepted docs across 256 shards
is ~64 MB of payload per shard.

Reference anchor: the reference keeps nothing between parses (its
SmartPDFParser caches decisions, not content — lib/SmartPDFParser.js:61);
the incremental index is a training-data-pipeline addition per the
brief, not reference parity.
"""

from __future__ import annotations

import ray


# no CPU reserved: a shard holds a set and does no CPU-bound work, and
# 16 shards at 0.1 CPU each left a 1- or 2-CPU node without the whole
# CPU every Ray Data task asks for, so the query after them hung
@ray.remote(num_cpus=0)
class DedupShard:
    """One shard of the fingerprint set.  check_and_add is atomic per
    actor (Ray actors serialize calls), so first-wins is deterministic
    given a deterministic submission order."""

    def __init__(self):
        self._seen: set = set()

    def check_and_add(self, fps: list) -> list:
        """For each fingerprint (in order): True if NEW (accepted and
        added), False if already present.  Duplicates inside one call
        follow the same first-wins rule."""
        seen = self._seen
        out = []
        for fp in fps:
            if fp in seen:
                out.append(False)
            else:
                seen.add(fp)
                out.append(True)
        return out

    def size(self) -> int:
        return len(self._seen)


class ShardedDedupIndex:
    """Driver-side handle: spawns the shard actors and routes
    fingerprint probe batches to them."""

    def __init__(self, n_shards: int = 16):
        self.n_shards = n_shards
        self.shards = [DedupShard.remote() for _ in range(n_shards)]

    def filter_new(self, fps: list) -> list:
        """True per fingerprint iff it is globally new (first
        occurrence across every batch ever probed through this index).
        Routing is by the fingerprint's own hex prefix — content-
        derived, so every process routes identically (Python's str
        hash is per-process salted and must not be used here).  One
        check_and_add RPC per shard per call; list order is preserved,
        so within-call duplicates are first-wins too."""
        by_shard: dict = {}
        for i, fp in enumerate(fps):
            by_shard.setdefault(int(fp[:4], 16) % self.n_shards,
                                []).append(i)
        futures = {s: self.shards[s].check_and_add.remote(
            [fps[i] for i in idxs]) for s, idxs in by_shard.items()}
        out = [False] * len(fps)
        for s, idxs in by_shard.items():
            for i, flag in zip(idxs, ray.get(futures[s])):
                out[i] = flag
        return out

    def sizes(self) -> list:
        return ray.get([s.size.remote() for s in self.shards])
