"""Importable custom page-render hooks (reference `pagerenderModule`).

The reference lets users swap the page fold for a module-exported function
(`options.pagerenderModule`, index.d.ts:32, loaded in lib/pdf-worker.js:62-72
and lib/pdf-child.js:42-52 so it crosses process boundaries without eval).
Our extraction stage accepts the same contract as a
``'module:function'`` string resolved once per worker
(`stages.extractor._resolve_page_render`).

The hooks below mirror the reference's shipped examples so the behaviors are
exercised end-to-end through the Ray pipeline:

- ``upper_marker_render``  — uppercase + page marker
  (test/examples/09-custom-render.js:17-46)
- ``titles_only_render``   — keep items with fontSize = transform[0] > 12
  (test/examples/10-structured-extraction.js:62-79)
- ``plain_join_render``    — items joined by single newline, no Y heuristic
  (custom-render-module.js:10-41 analogue)
"""

from __future__ import annotations

from ..pdfkernel.api import render_page_text


def upper_marker_render(text_content: dict) -> str:
    """Uppercase body + '--- PAGE ---' marker, like the reference example."""
    base = render_page_text(text_content)
    return f"--- PAGE ---\n{base.upper()}"


def titles_only_render(text_content: dict) -> str:
    """Keep only large-font items (transform[0] > 12), newline-joined."""
    out = []
    for item in text_content["items"]:
        if "str" not in item:
            continue
        tr = item.get("transform")
        if tr is not None and tr[0] > 12:
            out.append(item["str"])
    return "\n".join(out)


def plain_join_render(text_content: dict) -> str:
    """All item strings joined by a newline (no Y-tolerance folding)."""
    return "\n".join(item["str"] for item in text_content["items"] if "str" in item)
