"""PDF document structure: header, xref (table + stream), trailer chain,
object fetch (incl. object streams), page tree, document info.

Parity targets in the reference: `class XRef` (build/pdf.worker.js:58062),
`readXRefTable`/`readXRefStream` (:58170-58264), `indexObjects` recovery
(:58331), `get startXRef` (:59432), `get documentInfo` (:59807-59881),
header-with-space tolerance (test/05-versions-space-default.js).
"""

from __future__ import annotations

import math
import re
from typing import Any, Optional

from .cos import Lexer, Name, Parser, PDFError, Ref, StreamObj

_MAX_STARTXREF_SCAN = 2048


def _pdfdoc_decode(b: bytes) -> str:
    """PDF text-string decode: UTF-16BE with BOM, UTF-8 with BOM, else
    PDFDocEncoding (≈latin-1 for our purposes).  Mirrors stringToPDFString."""
    if b[:2] == b"\xfe\xff":
        return b[2:].decode("utf-16-be", "replace")
    if b[:2] == b"\xff\xfe":
        return b[2:].decode("utf-16-le", "replace")
    if b[:3] == b"\xef\xbb\xbf":
        return b[3:].decode("utf-8", "replace")
    return b.decode("latin-1")


def _js_tonumber(txt: str) -> float:
    """ECMAScript ToNumber for a string: trimmed; '' → 0; exact
    'Infinity' (±) only; 0x/0o/0b radix prefixes (unsigned only); else
    decimal; anything else → NaN.  Python float() differs on every one
    of those edges ('inf'/'nan'/'infinity' accepted, hex rejected,
    underscores accepted), so each is spelled out."""
    t = txt.strip()
    if t == "":
        return 0.0
    low = t.lower()
    if low.startswith(("0x", "0o", "0b")) and len(t) > 2:
        try:
            return float(int(t, 0))
        except ValueError:
            return float("nan")
    core = t[1:] if t[0] in "+-" else t
    if core == "Infinity":
        return float("-inf") if t[0] == "-" else float("inf")
    if core.lower() in ("inf", "infinity", "nan") or "_" in t:
        return float("nan")
    try:
        return float(t)
    except ValueError:
        return float("nan")


def _js_toint32(v: float) -> int:
    """ECMAScript ToInt32: NaN/±Infinity → 0, truncate toward zero,
    wrap mod 2^32 into the signed range."""
    if math.isnan(v) or math.isinf(v):
        return 0
    i = int(v) & 0xFFFFFFFF
    return i - 0x100000000 if i >= 0x80000000 else i


class PDFDocument:
    """Parsed PDF with lazy object fetch and a per-document object cache.

    This object is the unit of warm state held by extractor actors (reference
    analogue: PDFDocumentProxy reuse, lib/pdf-parse.js:84-89; SURVEY §2.3 T1).
    """

    def __init__(self, data: bytes):
        if isinstance(data, (bytearray, memoryview)):
            data = bytes(data)
        self.data = data
        self._cache: dict[tuple[int, int], Any] = {}
        self._objstm_cache: dict[int, dict[int, Any]] = {}
        # security handler: None until (and unless) /Encrypt is seen below;
        # must exist before any fetch (xref recovery fetches objects)
        self._crypt = None
        self._encrypt_num: Optional[int] = None
        self.xref: dict[int, tuple] = {}  # num -> ('n', offset, gen) | ('c', stm_num, idx)
        self.trailer: dict = {}
        self.version = self._parse_header()
        self.linearization = self._parse_linearization()
        try:
            self._parse_xref()
        except PDFError:
            self._recover_xref()
        if "Root" not in self.trailer:
            self._recover_xref()
            if "Root" not in self.trailer:
                raise PDFError("no /Root catalog")
        # encrypted documents: build the standard security handler (empty
        # user/owner password — the common permissions-only case).  A real
        # password requirement or unknown scheme raises PDFError, so the
        # old reject path is preserved exactly for truly protected files.
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is not None:
            from .crypto import SecurityHandler

            enc = self.resolve(enc_ref)
            if not isinstance(enc, dict):
                raise PDFError("encrypted PDF with malformed /Encrypt")
            ids = self.resolve(self.trailer.get("ID"))
            id0 = b""
            if isinstance(ids, list) and ids:
                first = self.resolve(ids[0])
                if isinstance(first, bytes):
                    id0 = first
            # the handler is armed only after construction, so the /Encrypt
            # dict itself (fetched above) is never decrypted — its /O /U
            # strings are plaintext by spec.  A malformed dict (wrong types,
            # bogus key material) must keep the PDFError contract.
            try:
                self._crypt = SecurityHandler(enc, id0, self.resolve)
            except PDFError:
                raise
            except Exception as e:  # noqa: BLE001
                raise PDFError(f"malformed encryption dictionary: "
                               f"{type(e).__name__}: {e}") from e
            if isinstance(enc_ref, Ref):
                self._encrypt_num = enc_ref.num
            # drop objects cached before the handler existed (their strings
            # are still ciphertext); the Encrypt dict stays correct because
            # its own object is excluded from decryption anyway
            self._cache.clear()
            self._objstm_cache.clear()
        self._pages: Optional[list[dict]] = None
        # structural validation: the catalog must resolve to a real page tree
        # (reference: getDocument rejects truncated files — test/03-invalid)
        root = self.resolve(self.trailer.get("Root"))
        if not isinstance(root, dict):
            raise PDFError("catalog object missing or invalid")
        pages_node = self.resolve(root.get("Pages"))
        if not isinstance(pages_node, dict):
            raise PDFError("page tree missing or invalid")

    # -- header ---------------------------------------------------------
    def _parse_header(self) -> str:
        # tolerate leading junk and spaces inside the version (test/05);
        # the header position is the stream base pdf.js rebases to
        # (checkHeader's stream.moveStart(), build/pdf.worker.js:59478-59485)
        head = self.data[:1024]
        m = re.search(rb"%PDF-\s*(\d+)\s*\.\s*(\d+)", head)
        if not m:
            raise PDFError("not a PDF: missing %PDF header")
        self._hdr_base = m.start()
        return f"{m.group(1).decode()}.{m.group(2).decode()}"

    # -- linearization ----------------------------------------------------
    def _parse_linearization(self) -> Optional[dict]:
        """pdf.js Linearization.create parity (build/pdf.worker.js:
        14338-14385, getter absorb :59420-59431): the FIRST object at the
        stream base must be `int int obj <<dict>>` with numeric
        /Linearized > 0 to be a candidate; then /L must equal the stream
        length (file length minus the header base) and /H (2- or 4-array
        of positive ints), /O /E /N /T (positive ints, /P >= 0 optional)
        must all validate — ANY failure absorbs to not-linearized (the
        getter logs and nulls; refs inside the dict throw on the
        xref-less parser there, same outcome)."""
        base = self._hdr_base
        try:
            p = Parser(self.data, base, fast=True)
            o1 = p.parse_object()
            o2 = p.parse_object()
            t = p._peek(0)
            if not (isinstance(o1, int) and isinstance(o2, int)
                    and t.kind == "op" and t.value == "obj"):
                return None
            p._next()
            lind = p.parse_object()
        except PDFError:
            return None
        if not isinstance(lind, dict):
            return None
        linz = lind.get("Linearized")
        if isinstance(linz, bool) or not isinstance(linz, (int, float)) \
                or not linz > 0:
            return None

        def gint(name: str, allow_zero: bool = False) -> int:
            v = lind.get(name)
            if isinstance(v, int) and not isinstance(v, bool) \
                    and (v >= 0 if allow_zero else v > 0):
                return v
            raise PDFError(f"invalid linearization {name}")

        try:
            length = gint("L")
            if length != len(self.data) - base:
                raise PDFError("linearization L != stream length")
            hints = lind.get("H")
            if not (isinstance(hints, list) and len(hints) in (2, 4)
                    and all(isinstance(h, int) and not isinstance(h, bool)
                            and h > 0 for h in hints)):
                raise PDFError("invalid linearization hints")
            return {
                "length": length,
                "hints": hints,
                "object_number_first": gint("O"),
                "end_first": gint("E"),
                "num_pages": gint("N"),
                "main_xref_entries_offset": gint("T"),
                "page_first": gint("P", True) if "P" in lind else 0,
            }
        except PDFError:
            return None

    # -- xref -----------------------------------------------------------
    def _find_startxref(self) -> int:
        # linearized branch (pdf.js get startXRef, build/pdf.worker.js:
        # 59432-59446): a VALID linearization switches resolution to
        # scan-past-the-first-`endobj` — the first-page xref section sits
        # right behind the linearization object.  The scan window is the
        # first 1024 bytes from the stream base (find()'s default limit),
        # whitespace after `endobj` is 0x20/0x09/0x0a/0x0d only.
        if self.linearization is not None:
            idx = self.data.find(b"endobj", self._hdr_base,
                                 self._hdr_base + 1024)
            if idx != -1:
                pos = idx + 6
                n = len(self.data)
                while pos < n and self.data[pos] in (0x20, 0x09, 0x0A, 0x0D):
                    pos += 1
                return pos
            return 0  # pdf.js leaves startXRef 0 -> parse fails -> recovery
        tail = self.data[-_MAX_STARTXREF_SCAN:]
        idx = tail.rfind(b"startxref")
        if idx == -1:
            raise PDFError("startxref not found")
        m = re.search(rb"startxref\s+(\d+)", tail[idx:])
        if not m:
            raise PDFError("startxref malformed")
        return int(m.group(1))

    def _parse_xref(self) -> None:
        pos = self._find_startxref()
        seen = set()
        first = True
        while pos is not None and pos not in seen:
            seen.add(pos)
            try:
                if pos < 0 or pos >= len(self.data):
                    raise PDFError("xref offset out of range")
                lx = Lexer(self.data, pos)
                tok = lx.next_token()
                if tok.kind == "op" and tok.value == "xref":
                    trailer = self._read_xref_table(lx)
                else:
                    trailer = self._read_xref_stream(pos)
            except PDFError:
                if first:
                    raise
                # parity: a broken OLDER section is absorbed (pdf.js
                # readXRef catch) — newest entries already landed
                break
            if first:
                # parity: the NEWEST trailer dict is THE trailer — keys
                # never merge across /Prev (pdf.js topDict,
                # build/pdf.worker.js:58542-58603); older sections only
                # contribute xref entries (first-writer-wins)
                self.trailer = dict(trailer)
                first = False
            # hybrid-reference files: /XRefStm points at an xref stream with
            # entries that override the table's free markers
            xrefstm = trailer.get("XRefStm")
            if isinstance(xrefstm, int):
                try:
                    self._read_xref_stream(xrefstm)
                except PDFError:
                    pass
            prev = trailer.get("Prev")
            if isinstance(prev, Ref):  # pdf.js tolerates a Ref here
                prev = prev.num
            pos = prev if isinstance(prev, int) else None

    def _read_xref_table(self, lx: Lexer) -> dict:
        data = self.data
        while True:
            tok = lx.next_token()
            if tok.kind == "op" and tok.value == "trailer":
                break
            if tok.kind != "int":
                raise PDFError("malformed xref table")
            start = tok.value
            tok = lx.next_token()
            if tok.kind != "int":
                raise PDFError("malformed xref subsection")
            count = tok.value
            lx._skip_ws()
            pos = lx.pos
            for i in range(count):
                # entries are nominally 20 bytes but be whitespace-tolerant
                m = re.match(rb"\s*(\d{1,10})\s+(\d{1,5})\s+([nf])", data[pos : pos + 32])
                if not m:
                    raise PDFError("malformed xref entry")
                off, gen, typ = int(m.group(1)), int(m.group(2)), m.group(3)
                if i == 0 and typ == b"f" and start == 1:
                    # pdf.js off-by-one repair: a subsection declared at 1
                    # whose first entry is free really starts at 0
                    start = 0
                num = start + i
                # parity: FREE entries are stored too and BLOCK later
                # sections' entries for the same object — first writer
                # wins for every type (pdf.js readXRefTable :58229; this
                # is what makes a hybrid file's /XRefStm lose to the
                # table's free markers)
                if num not in self.xref:
                    self.xref[num] = (("n", off, gen) if typ == b"n"
                                      else ("f", off, gen))
                pos += m.end()
            lx.pos = pos
        p = Parser(data, lx.pos, resolve=self.resolve, fast=True)
        trailer = p.parse_object()
        if not isinstance(trailer, dict):
            raise PDFError("malformed trailer")
        return trailer

    def _read_xref_stream(self, pos: int) -> dict:
        p = Parser(self.data, pos, resolve=self.resolve, fast=True)
        # expect: num gen obj <<...>> stream — skip leading int/op tokens
        obj = None
        for _ in range(4):
            obj = p.parse_object()
            if isinstance(obj, StreamObj):
                break
        if not isinstance(obj, StreamObj):
            raise PDFError("xref stream expected")
        sd = obj.dict
        if str(sd.get("Type", "")) != "XRef":
            raise PDFError("not an XRef stream")
        w_raw = self.resolve(sd.get("W", []))
        if not isinstance(w_raw, list):
            raise PDFError("XRef stream malformed W")
        w = [self.resolve(x) for x in w_raw]
        if len(w) < 3 or not all(isinstance(x, int) and 0 <= x <= 8 for x in w):
            raise PDFError("XRef stream malformed W")
        size = self.resolve(sd.get("Size", 0))
        if not isinstance(size, int):
            raise PDFError("XRef stream malformed Size")
        index = self.resolve(sd.get("Index", [0, size]))
        if not isinstance(index, list):
            raise PDFError("XRef stream malformed Index")
        raw = obj.get_data(self.resolve)
        ew = sum(w)
        ptr = 0

        def read_field(width: int, default: int) -> int:
            nonlocal ptr
            if width == 0:
                return default
            v = int.from_bytes(raw[ptr : ptr + width], "big")
            ptr += width
            return v

        for k in range(0, len(index) - 1, 2):
            start, count = self.resolve(index[k]), self.resolve(index[k + 1])
            if not (isinstance(start, int) and isinstance(count, int)):
                raise PDFError("XRef stream malformed Index entry")
            for i in range(count):
                if ptr + ew > len(raw):
                    break
                typ = read_field(w[0], 1)
                f2 = read_field(w[1], 0)
                f3 = read_field(w[2], 0)
                num = start + i
                if num in self.xref:
                    continue
                if typ == 0:
                    # parity: stream free entries block later sections too
                    self.xref[num] = ("f", f2, f3)
                elif typ == 1:
                    self.xref[num] = ("n", f2, f3)
                elif typ == 2:
                    self.xref[num] = ("c", f2, f3)
                else:
                    # pdf.js: invalid type aborts the section (FormatError)
                    raise PDFError(f"invalid XRef entry type {typ}")
        return sd

    def _recover_xref(self) -> None:
        """Scan the whole file for `N G obj` markers (reference: XRef.indexObjects,
        build/pdf.worker.js:58331)."""
        for m in re.finditer(rb"(\d+)\s+(\d+)\s+obj\b", self.data):
            num, gen = int(m.group(1)), int(m.group(2))
            self.xref[num] = ("n", m.start(), gen)  # later wins (incremental updates)
        if "Root" not in self.trailer:
            m = re.search(rb"trailer", self.data)
            trailers = [t.start() for t in re.finditer(rb"trailer", self.data)]
            for tpos in reversed(trailers):
                try:
                    p = Parser(self.data, tpos + 7, resolve=self.resolve, fast=True)
                    t = p.parse_object()
                    if isinstance(t, dict) and "Root" in t:
                        for k, v in t.items():
                            self.trailer.setdefault(k, v)
                        break
                except PDFError:
                    continue
            else:
                # last resort: find a Catalog object
                for num in list(self.xref):
                    try:
                        o = self.fetch(Ref(num, 0))
                    except PDFError:
                        continue
                    if isinstance(o, dict) and str(o.get("Type", "")) == "Catalog":
                        self.trailer["Root"] = Ref(num, 0)
                        break
        if not self.xref:
            raise PDFError("xref recovery failed")

    # -- object access --------------------------------------------------
    def resolve(self, obj: Any) -> Any:
        seen = 0
        while isinstance(obj, Ref):
            obj = self.fetch(obj)
            seen += 1
            if seen > 32:
                raise PDFError("reference cycle")
        return obj

    def fetch(self, ref: Ref) -> Any:
        key = (ref.num, ref.gen)
        if key in self._cache:
            return self._cache[key]
        entry = self.xref.get(ref.num)
        if entry is None:
            return None
        if entry[0] == "f" or entry[1] == 0:
            # pdf.js getEntry: a free entry or a zero offset/container is
            # null — never scan-recovered (build/pdf.worker.js:58612-58618)
            return None
        if entry[0] == "n":
            obj = self._fetch_at(ref.num, entry[1])
            # strings/streams of direct objects are encrypted with the
            # indirect object's (num, gen) key; the /Encrypt dict itself is
            # plaintext.  Objects inside object streams are NOT separately
            # decrypted (the container stream already was) — reference rule.
            if self._crypt is not None and ref.num != self._encrypt_num:
                try:
                    obj = self._crypt.decrypt_object(obj, ref.num, entry[2])
                except PDFError:
                    raise
                except Exception as e:  # noqa: BLE001
                    raise PDFError(f"decryption failed: "
                                   f"{type(e).__name__}: {e}") from e
        else:
            obj = self._fetch_compressed(entry[1], entry[2])
        self._cache[key] = obj
        return obj

    def _fetch_at(self, num: int, offset: int) -> Any:
        if offset >= len(self.data):
            return None
        p = Parser(self.data, offset, resolve=self.resolve, fast=True)
        o1 = p.parse_object()
        if not isinstance(o1, int):
            return None
        if o1 != num:
            # stale offset — fall back to scanning (recovery semantics)
            m = re.search(rb"(?<![0-9])" + str(num).encode() + rb"\s+\d+\s+obj\b", self.data)
            if not m:
                return None
            p = Parser(self.data, m.start(), resolve=self.resolve, fast=True)
            p.parse_object()
        p.parse_object()  # gen
        tok = p.parse_object()  # 'obj' keyword comes back as Token op
        from .cos import Token

        if isinstance(tok, Token) and tok.kind == "op" and tok.value == "obj":
            return p.parse_object()
        return tok  # some writers omit… be lenient

    def _fetch_compressed(self, stm_num: int, idx: int) -> Any:
        objs = self._objstm_cache.get(stm_num)
        if objs is None:
            stm = self.fetch(Ref(stm_num, 0))
            if not isinstance(stm, StreamObj):
                raise PDFError("bad object stream")
            data = stm.get_data(self.resolve)
            n = self.resolve(stm.dict.get("N", 0))
            first = self.resolve(stm.dict.get("First", 0))
            hl = Lexer(data, 0)
            pairs = []
            for _ in range(n):
                t1 = hl.next_token()
                t2 = hl.next_token()
                if t1.kind != "int" or t2.kind != "int":
                    break
                pairs.append((t1.value, t2.value))
            objs = {}
            for i, (onum, ooff) in enumerate(pairs):
                try:
                    p = Parser(data, first + ooff, resolve=self.resolve, fast=True)
                    objs[i] = (onum, p.parse_object())
                except PDFError:
                    objs[i] = (onum, None)
            self._objstm_cache[stm_num] = objs
        pair = objs.get(idx)
        return pair[1] if pair else None

    # -- page tree ------------------------------------------------------
    def declared_num_pages(self) -> Optional[int]:
        """The page count the file declares, unverified: the linearization
        dict's /N, else the catalog's /Pages /Count (None when neither is
        a usable count).  Costs no page-tree walk."""
        if self.linearization is not None:
            return self.linearization["num_pages"]
        root = self.resolve(self.trailer["Root"])
        pages = self.resolve(root.get("Pages")) if isinstance(root, dict) else None
        if isinstance(pages, dict):
            count = self.resolve(pages.get("Count"))
            if isinstance(count, int) and count >= 0:
                return count
        return None

    @property
    def num_pages(self) -> int:
        # parity with pdf.js numPages + checkLastPage (build/pdf.worker.js
        # :59501-59511, :59988-60055): the declared count (linearization
        # /N, else the catalog /Count) > 1 is VERIFIED by loading the last
        # page — on failure the actual page-tree size wins (getAllPageDicts →
        # setActualNumPages), absorbing to 1 if the tree itself is broken.
        # A count that UNDER-reports the tree is kept (the last-page fetch
        # succeeds, pdf.js never re-counts).
        n = self.declared_num_pages()
        if n is not None and n <= 1:
            return n
        if n is not None:
            # fast path: an already-flattened consistent tree proves the
            # last page exists without a second descent
            if self._pages is not None and len(self._pages) >= n:
                return n
            # checkLastPage fetches ONLY page n-1 (getPage(numPages-1)):
            # a targeted /Count-skipping descent that never touches
            # sibling subtrees, so a broken interior page (e.g. a
            # decryption failure) does NOT invalidate a truthful count
            # the way a full-tree flatten would (ADVICE r3).
            try:
                self._page_dict_at(n - 1)
                return n
            except PDFError:
                pass
        try:
            actual = len(self.pages())
        except PDFError:
            return 1  # getAllPageDicts failure -> setActualNumPages(1)
        return actual

    def _page_dict_at(self, idx: int) -> dict:
        """Targeted page-tree descent to page index ``idx`` mirroring
        pdf.js Catalog.getPageDict (build/pdf.worker.js catalog): interior
        /Pages nodes whose /Count places the target beyond them are
        skipped WITHOUT resolving their kids, so failures confined to a
        sibling subtree never surface.  Raises PDFError when the index
        cannot be reached."""
        root = self.resolve(self.trailer["Root"])
        pages = self.resolve(root.get("Pages")) if isinstance(root, dict) else None
        if not isinstance(pages, dict):
            raise PDFError("bad page tree")
        INHERIT = ("Resources", "MediaBox", "CropBox", "Rotate")
        remaining = idx
        stack: list[tuple[Any, bool, dict]] = [(pages, True, {})]
        visited = 0
        while stack:
            visited += 1
            if visited > 65536:
                raise PDFError("page tree too large")
            raw, is_root, inherited = stack.pop()
            node = self.resolve(raw)
            if not isinstance(node, dict):
                raise PDFError("bad page tree node")
            t = str(node.get("Type", ""))
            kids = self.resolve(node.get("Kids"))
            if t == "Page" or (t != "Pages" and kids is None):
                if remaining == 0:
                    page = dict(node)
                    for k, v in inherited.items():
                        page.setdefault(k, v)
                    return page
                remaining -= 1
                continue
            if not is_root:
                cnt = self.resolve(node.get("Count"))
                if isinstance(cnt, int) and 0 <= cnt <= remaining:
                    remaining -= cnt   # whole subtree lies before target
                    continue
            if not isinstance(kids, list):
                raise PDFError("bad kids")
            inh = dict(inherited)
            for k in INHERIT:
                if k in node:
                    inh[k] = node[k]
            for kid in reversed(kids):
                stack.append((kid, False, inh))
        raise PDFError("page index out of range")

    def get_page(self, idx: int) -> dict:
        """Page dict at 0-based ``idx`` with pdf.js getPage semantics: the
        flattened tree when it is consistent with num_pages, else the
        targeted /Count-skipping descent — so a failure confined to one
        subtree costs only THAT page (absorbed per-page by the caller),
        never the whole document."""
        pages: Optional[list[dict]] = None
        try:
            pages = self.pages()
        except PDFError:
            pages = None
        if pages is not None and len(pages) >= self.num_pages:
            return pages[idx]
        return self._page_dict_at(idx)

    def pages(self) -> list[dict]:
        """Flattened page dicts in document order, inherited attrs applied."""
        if self._pages is not None:
            return self._pages
        root = self.resolve(self.trailer["Root"])
        if not isinstance(root, dict):
            raise PDFError("bad catalog")
        tree = self.resolve(root.get("Pages"))
        out: list[dict] = []
        INHERIT = ("Resources", "MediaBox", "CropBox", "Rotate")

        def walk(node: Any, inherited: dict, depth: int = 0) -> None:
            if depth > 64 or not isinstance(node, dict):
                return
            t = str(node.get("Type", ""))
            inh = dict(inherited)
            for k in INHERIT:
                if k in node:
                    inh[k] = node[k]
            kids = self.resolve(node.get("Kids"))
            if t == "Page" or (t != "Pages" and kids is None):
                page = dict(node)
                for k, v in inh.items():
                    page.setdefault(k, v)
                out.append(page)
                return
            if isinstance(kids, list):
                for kid in kids:
                    walk(self.resolve(kid), inh, depth + 1)

        walk(tree, {})
        self._pages = out
        return out

    def page_content(self, page: dict) -> bytes:
        """Concatenated decoded content streams of a page — RAW
        concatenation with NO separator byte, exactly like the
        reference's StreamsSequenceStream (build/pdf.worker.js:7869): a
        token split across two /Contents streams rejoins seamlessly, and
        adjacent operators without trailing whitespace merge into one
        (unknown) token.  A failing or non-stream sub-stream is skipped,
        the rest still evaluate (_onSubStreamError with the default
        ignoreErrors=true, :58941-58947)."""
        contents = self.resolve(page.get("Contents"))
        if contents is None:
            return b""
        if isinstance(contents, StreamObj):
            return contents.get_data(self.resolve)
        if isinstance(contents, list):
            parts = []
            for c in contents:
                try:
                    c = self.resolve(c)
                    if isinstance(c, StreamObj):
                        parts.append(c.get_data(self.resolve))
                except Exception:  # noqa: BLE001 — per-substream absorb
                    continue
            return b"".join(parts)
        return b""

    def page_view(self, page: dict) -> list[float]:
        """The reference's `page.view` = CropBox ∩ MediaBox, normalized."""
        box = self.resolve(page.get("CropBox")) or self.resolve(page.get("MediaBox")) or [0, 0, 612, 792]
        box = [float(self.resolve(v)) for v in box]
        x0, x1 = sorted((box[0], box[2]))
        y0, y1 = sorted((box[1], box[3]))
        return [x0, y0, x1, y1]

    def _has_only_document_signatures(self, fields, depth: int = 0) -> bool:
        """pdf.js Catalog._hasOnlyDocumentSignatures (build/pdf.worker.js
        :59513-59536): every field is an invisible (/Rect all-zero)
        signature (/FT /Sig), recursing through /Kids with a depth cap of
        10 (over-cap returns False)."""
        if not isinstance(fields, list):
            return False
        for f in fields:
            field = self.resolve(f)
            if not isinstance(field, dict):
                return False
            if "Kids" in field:
                # pdf.js mutates the shared depth param inside every(),
                # so the count accumulates ACROSS siblings too
                depth += 1
                if depth > 10:
                    return False
                if not self._has_only_document_signatures(
                        self.resolve(field.get("Kids")), depth):
                    return False
                continue
            ft = self.resolve(field.get("FT"))
            rect = self.resolve(field.get("Rect"))
            invisible = isinstance(rect, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and v == 0 for v in rect)
            if not (ft == "Sig" and invisible):
                return False
        return True

    # -- metadata -------------------------------------------------------
    _INFO_STR = ("Title", "Author", "Subject", "Keywords", "Creator", "Producer", "CreationDate", "ModDate")

    def document_info(self) -> dict:
        """Parity with pdf.js documentInfo (build/pdf.worker.js:59807-59881):
        fixed keys + Custom map; plus PDFFormatVersion and structure flags."""
        info: dict[str, Any] = {
            "PDFFormatVersion": self.version,
            "Language": None,
            # parity: pdf.js reports the security handler's filter name
            # (CipherTransformFactory.filterName → documentInfo)
            "EncryptFilterName": "Standard" if self._crypt is not None else None,
            "IsLinearized": self.linearization is not None,
            "IsAcroFormPresent": False,
            "IsXFAPresent": False,
            "IsCollectionPresent": False,
            "IsSignaturesPresent": False,
        }
        try:
            root = self.resolve(self.trailer.get("Root")) or {}
            # parity: a catalog /Version NAME matching /^[1-9]\.\d$/
            # overrides the header version (pdf.js get version
            # :59774-59776, catalog getter :42369-42378); PDF strings
            # (bytes here) don't qualify — Name instanceof check
            catver = self.resolve(root.get("Version"))
            if isinstance(catver, str) and re.fullmatch(r"[1-9]\.\d", catver):
                info["PDFFormatVersion"] = catver
            lang = self.resolve(root.get("Lang"))
            if isinstance(lang, bytes):
                info["Language"] = _pdfdoc_decode(lang)
            # parity with pdf.js formInfo (build/pdf.worker.js
            # :59762-59806): the AcroForm/Collection getters require a
            # NON-EMPTY dict; IsAcroFormPresent needs a non-empty /Fields
            # array AND not only-invisible-document-signatures;
            # IsXFAPresent needs a non-empty array or non-empty stream;
            # IsSignaturesPresent is /SigFlags bit 0 (JS ToNumber'd)
            acro = self.resolve(root.get("AcroForm"))
            if isinstance(acro, dict) and len(acro) > 0:
                fields = self.resolve(acro.get("Fields"))
                has_fields = isinstance(fields, list) and len(fields) > 0
                xfa = self.resolve(acro.get("XFA"))
                info["IsXFAPresent"] = (
                    (isinstance(xfa, list) and len(xfa) > 0)
                    or (isinstance(xfa, StreamObj) and len(xfa.raw) > 0))
                sig = self.resolve(acro.get("SigFlags"))
                if isinstance(sig, bool):
                    sig = int(sig)
                elif isinstance(sig, bytes):
                    # JS `sigFlags & 1` on a string = ToNumber → ToInt32
                    # ('0x3'→3, 'Infinity'/'inf'/'1e999'/garbage→0 — a
                    # crafted (inf) used to escape as OverflowError)
                    sig = _js_toint32(_js_tonumber(sig.decode("latin-1")))
                elif isinstance(sig, float):
                    sig = _js_toint32(sig)  # ToInt32: NaN/±inf→0, truncate
                elif not isinstance(sig, int):
                    sig = 0
                has_sigs = bool(sig & 1)
                only_doc_sigs = has_sigs and \
                    self._has_only_document_signatures(fields)
                info["IsAcroFormPresent"] = has_fields and not only_doc_sigs
                info["IsSignaturesPresent"] = has_sigs
            coll = self.resolve(root.get("Collection"))
            if isinstance(coll, dict) and len(coll) > 0:
                info["IsCollectionPresent"] = True
        except PDFError:
            pass
        try:
            src = self.resolve(self.trailer.get("Info"))
        except PDFError:
            src = None
        if isinstance(src, dict):
            # parity with the documentInfo key loop (build/pdf.worker.js
            # :59830-59877): standard keys accept PDF STRINGS only (a
            # Name is not a string there — wrong-typed keys are SKIPPED,
            # never coerced); /Trapped accepts a Name only (serialized as
            # its {name} object); custom keys accept string/number/
            # boolean/Name, anything else is dropped with a warn
            custom: dict[str, Any] = {}
            for k, v in src.items():
                v = self.resolve(v)
                key = str(k)
                if key in self._INFO_STR:
                    if isinstance(v, bytes):
                        info[key] = _pdfdoc_decode(v)
                elif key == "Trapped":
                    if isinstance(v, Name):
                        info["Trapped"] = {"name": str(v)}
                else:
                    if isinstance(v, bytes):
                        custom[key] = _pdfdoc_decode(v)
                    elif isinstance(v, Name):
                        custom[key] = {"name": str(v)}
                    elif isinstance(v, (bool, int, float)):
                        custom[key] = v
            if custom:
                info["Custom"] = custom
        return info

    def metadata_obj(self):
        """Parsed XMP metadata — parity with the reference catalog getter
        (build/pdf.worker.js:42421-42446): the catalog's RAW /Metadata
        entry must be an indirect Ref; the fetched object must be a
        stream with /Type /Metadata /Subtype /XML; bytes decode as STRICT
        UTF-8 (stringToUTF8String throws on invalid sequences); any
        failure anywhere — including MetadataParser's own throw edges —
        absorbs to None.  (EncryptMetadata=false suppression happens in
        the security handler's Type gate, crypto.decrypt_object.)"""
        from .xmp import parse_xmp

        try:
            root = self.resolve(self.trailer.get("Root")) or {}
            ref = root.get("Metadata") if isinstance(root, dict) else None
            if not isinstance(ref, Ref):
                return None
            md = self.resolve(ref)
            if not isinstance(md, StreamObj) or not isinstance(md.dict, dict):
                return None
            t = self.resolve(md.dict.get("Type"))
            st = self.resolve(md.dict.get("Subtype"))
            if not (isinstance(t, Name) and str(t) == "Metadata"
                    and isinstance(st, Name) and str(st) == "XML"):
                return None
            data = md.get_data(self.resolve).decode("utf-8")  # strict
            if not data:
                return None
            return parse_xmp(data)
        except Exception:  # noqa: BLE001 — reference absorbs to null
            return None

    def metadata_xml(self) -> Optional[str]:
        """Raw (repaired) XMP serialization for the Arrow metadata column
        — Metadata.getRaw() of the parsed object, None when the document
        has no valid metadata stream."""
        m = self.metadata_obj()
        return m.get_raw() if m is not None else None
