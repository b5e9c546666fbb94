"""pdf-parse compatibility layer: document → Result record.

Parity targets in the reference `lib/pdf-parse.js`:
- `render_page` Y-tolerance line fold (:3-46, Y_TOLERANCE=1.0 at :20, rule :30)
- `max` clamp semantics (:98-99): counter = numPages if max<=0 else min(max, numPages)
- per-page error absorb to "" (:116-119,:131-133)
- sequential join: text = `${text}\n\n${pageText}` — note the LEADING '\n\n'
  before page 1 (:129-135), visible in the golden test/data/01-valid.pdf.txt
- metadata via getMetadata().catch(null) (:91-96)
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .cos import PDFError
from .document import PDFDocument
from .extract import TextExtractor

Y_TOLERANCE = 1.0


def render_page_text(text_content: dict) -> str:
    """Default page fold: newline iff |item.transform[5] − lastY| > 1.0."""
    last_y: Optional[float] = None
    parts: list[str] = []
    for item in text_content["items"]:
        if "str" not in item:  # marked-content items
            continue
        tr = item.get("transform")
        cur_y = tr[5] if tr is not None else (last_y if last_y is not None else 0.0)
        if last_y is not None and abs(cur_y - last_y) > Y_TOLERANCE:
            parts.append("\n")
        parts.append(item["str"])
        last_y = cur_y
    return "".join(parts)


PageRender = Callable[[dict], str]


def parse_pdf(
    data: bytes,
    max_pages: int = 0,
    page_render: Optional[PageRender] = None,
    first_page: int = 1,
    last_page: Optional[int] = None,
) -> dict:
    """Parse a PDF buffer → Result dict (reference index.d.ts:1-16 shape).

    ``first_page``/``last_page`` (1-based, inclusive) extend the reference API
    for page-range split units (SURVEY §4 skew path); the default covers the
    whole document and matches `PDF(dataBuffer)` exactly.
    """
    doc = PDFDocument(data)
    return parse_doc(doc, max_pages=max_pages, page_render=page_render,
                     first_page=first_page, last_page=last_page)


def parse_doc(
    doc: PDFDocument,
    max_pages: int = 0,
    page_render: Optional[PageRender] = None,
    first_page: int = 1,
    last_page: Optional[int] = None,
    extractor: Optional[TextExtractor] = None,
) -> dict:
    info = doc.document_info()
    # parity: r.metadata is the parsed Metadata object (get/getAll/
    # getRaw/has) or None — lib/pdf-parse.js:96 metaData.metadata
    metadata = doc.metadata_obj()
    pages = doc.pages()
    numpages = doc.num_pages
    counter = numpages if max_pages <= 0 else min(max_pages, numpages)
    ext = extractor or TextExtractor(doc)
    render = page_render or (lambda tc: render_page_text(tc))

    # pdf.js getPage(i) is a per-index tree descent; when the flatten is
    # CONSISTENT with numpages the list IS that order (fast path).  A tree
    # whose flatten under-counts (broken interior sibling, truthful
    # /Count — ADVICE r3) falls back to the targeted descent per page so
    # only the broken page absorbs to "".
    consistent = len(pages) >= numpages

    lo = max(1, first_page)
    hi = min(counter, last_page if last_page is not None else counter)
    text = ""
    rendered = 0
    for i in range(lo, hi + 1):
        try:
            page = pages[i - 1] if consistent else doc._page_dict_at(i - 1)
            tc = ext.get_text_content(page)
            page_text = render(tc)
        except Exception:
            page_text = ""  # per-page absorb (lib/pdf-parse.js:131-133)
        text = f"{text}\n\n{page_text}"
        rendered += 1
    return {
        "numpages": numpages,
        "numrender": counter if (first_page == 1 and last_page is None) else rendered,
        "info": info,
        "metadata": metadata,
        "text": text,
        "version": "v4.5.136-parity",
    }


def probe_numpages(data: bytes) -> int:
    """The verified page count (``PDFDocument.num_pages``), with no content
    decode (reference analogue: SmartPDFParser analyzePDF 1-page probe,
    lib/SmartPDFParser.js:310-354).  The skew split cuts by the cheaper
    declared count instead (``stages.split.probe_pages``)."""
    doc = PDFDocument(data)
    return doc.num_pages


def extract_page_texts(doc: PDFDocument, page_indices: list[int],
                       extractor: Optional[TextExtractor] = None,
                       page_render: Optional[PageRender] = None) -> list[str]:
    """Extract specific 0-based pages; errors absorb to '' per page."""
    ext = extractor or TextExtractor(doc)
    render = page_render or (lambda tc: render_page_text(tc))
    out = []
    for idx in page_indices:
        try:
            out.append(render(ext.get_text_content(doc.get_page(idx))))
        except Exception:
            out.append("")
    return out
