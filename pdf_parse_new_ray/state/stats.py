"""Merged session-stats surface.

Reference analogue: ``SmartPDFParser.getStats()``
(lib/SmartPDFParser.js:595-628) — one call returning totalParses,
per-method usage/average times, cache-hit counts and an optimization
rate for the current session.  In the distributed engine the same
numbers live in three places: per-actor ``PdfExtractor.metrics``
(driver-local instances), the named progress actor (workers post
batch deltas fire-and-forget), and the per-partition lineage records a
write-mode run persists.  ``collect_stats`` merges whichever of those
the caller has into one getStats-shaped dict.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import checkpoint as ckpt


def collect_stats(out_dir: Optional[str] = None,
                  progress: Optional[str] = None,
                  extractors: Iterable = ()) -> dict:
    """Merge lineage records (``out_dir``), a named progress actor
    (``progress``), and/or local ``PdfExtractor`` instances into the
    reference's getStats shape.

    - ``totalParses``: documents parsed (kernel invocations).
    - ``methodUsage`` / ``averageTimes``: per-method counts and average
      wall seconds — the distributed engine has one method
      (``pdfkernel``) plus the per-partition assemble/write stage when
      lineage is present.
    - ``cacheHits``: warm-doc reuse across work units (the analogue of
      the reference's decision cache).
    - ``optimizationRate``: cacheHits / totalDecisions as a percent
      string, exactly the reference's formula
      (lib/SmartPDFParser.js:613-617).
    """
    docs_parsed = 0
    cache_hits = 0
    pages = 0
    errors = 0
    units = 0
    method_usage: dict[str, int] = {}
    times: dict[str, list[float]] = {}

    for ex in extractors:
        m = getattr(ex, "metrics", None) or {}
        docs_parsed += m.get("docs_parsed", 0)
        cache_hits += m.get("cache_hits", 0)
        pages += m.get("pages", 0)
        errors += m.get("errors", 0)

    if progress is not None:
        import ray

        snap = progress if isinstance(progress, dict) else ray.get(
            ray.get_actor(progress).snapshot.remote())
        docs_parsed += snap.get("docs_parsed", 0)
        cache_hits += snap.get("cache_hits", 0)
        pages += snap.get("pages", 0)
        errors += snap.get("errors", 0)
        units += snap.get("units", 0)

    lineage = ckpt.lineage_records(out_dir) if out_dir else []
    if lineage:
        method_usage["partition_write"] = len(lineage)
        times["partition_write"] = [r.get("wall_s", 0.0) for r in lineage]

    total_units = units or docs_parsed + cache_hits
    method_usage["pdfkernel"] = docs_parsed
    avg_times = {m: (sum(ts) / len(ts) if ts else 0.0)
                 for m, ts in times.items()}
    rate = (f"{cache_hits / total_units * 100:.1f}%"
            if total_units > 0 else "0%")
    return {
        "totalParses": docs_parsed,
        "totalUnits": total_units,
        "pages": pages,
        "errors": errors,
        "methodUsage": method_usage,
        "averageTimes": avg_times,
        "cacheHits": cache_hits,
        "optimizationRate": rate,
        "lineage": {
            "partitions": len(lineage),
            "rows": sum(r.get("rows", 0) for r in lineage),
            "pages": sum(r.get("pages", 0) for r in lineage),
            "errors": sum(r.get("errors", 0) for r in lineage),
            "bytes": sum(r.get("bytes", 0) for r in lineage),
        } if lineage else None,
    }
