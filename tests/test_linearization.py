"""Linearized ("fast web view") document parity.

Expected values locked against the LIVE reference engine via
tools/differential.py's full-surface runner (all variants + the
count-lie cases verified exact at introduction; they stay in the
sweep).  Reference semantics: Linearization.create
build/pdf.worker.js:14338-14385, the startXRef linearized branch
:59432-59446, numPages :59501-59511, checkLastPage self-heal
:59988-60055.
"""

import os

import pytest
from conftest import REF_DATA

from pdf_parse_new_ray.fixtures import pdfgen
from pdf_parse_new_ray.pdfkernel import parse_pdf


def test_valid_linearized_uses_front_xref():
    """A valid linearization dict switches startxref resolution to the
    first-page xref right after the first endobj — the tail startxref
    (which points at the incremental TAIL copy) is ignored."""
    r = parse_pdf(pdfgen.make_linearized_pdf("valid"))
    assert r["text"] == "\n\nLINEAR FRONT"
    assert r["numpages"] == 1
    assert r["info"]["IsLinearized"] is True


def test_linearized_n_overcount_self_heals():
    """numPages comes from the linearization /N — but checkLastPage
    verifies it: /N 2 over a 1-page tree fails the last-page fetch and
    self-heals to the actual tree size (no phantom empty page)."""
    r = parse_pdf(pdfgen.make_linearized_pdf("n-overcount"))
    assert r["text"] == "\n\nLINEAR FRONT"
    assert r["numpages"] == 1 and r["numrender"] == 1


def test_invalid_linearization_absorbs_to_tail_path():
    """Any invalid parameter (L != stream length, bad /H, /Linearized 0)
    absorbs to not-linearized: the tail startxref wins and the
    incremental TAIL copy of the content object is extracted."""
    for variant in ("l-mismatch", "bad-hints", "zero"):
        r = parse_pdf(pdfgen.make_linearized_pdf(variant))
        assert r["text"] == "\n\nLINEAR TAIL", variant
        assert r["info"]["IsLinearized"] is False, variant


def test_count_lie_self_heal_and_zero():
    """Non-linearized checkLastPage: /Count 3 over a 1-page tree heals
    to 1; /Count 0 is accepted as-is (numPages <= 1) and renders
    nothing."""
    r3 = parse_pdf(pdfgen.make_count_lie_pdf(3))
    assert r3["numpages"] == 1 and r3["text"] == "\n\ncount lie page"
    r0 = parse_pdf(pdfgen.make_count_lie_pdf(0))
    assert r0["numpages"] == 0 and r0["text"] == ""


@pytest.mark.skipif(not os.path.exists(os.path.join(REF_DATA, "04-valid.pdf")),
                    reason="reference checkout not available")
def test_reference_04_valid_is_linearized():
    """The reference's own 04-valid.pdf is a real linearized file: the
    flag must surface and the front-xref path must still extract the
    same five pages."""
    data = open("/root/reference/test/data/04-valid.pdf", "rb").read()
    r = parse_pdf(data)
    assert r["info"]["IsLinearized"] is True
    assert r["numpages"] == 5


def test_catalog_version_override():
    """A catalog /Version NAME matching ^[1-9].\\d$ overrides the header
    version in PDFFormatVersion; malformed names keep the header's
    (locked vs the live reference in the sweep's catver-* cases)."""
    assert parse_pdf(pdfgen.make_catalog_version_pdf("1.7"))["info"][
        "PDFFormatVersion"] == "1.7"
    assert parse_pdf(pdfgen.make_catalog_version_pdf("9.9"))["info"][
        "PDFFormatVersion"] == "9.9"
    assert parse_pdf(pdfgen.make_catalog_version_pdf("1.10"))["info"][
        "PDFFormatVersion"] == "1.4"
    assert parse_pdf(pdfgen.make_catalog_version_pdf(None))["info"][
        "PDFFormatVersion"] == "1.4"


def test_forminfo_flags():
    """documentInfo form flags, locked vs the live reference (sweep
    forminfo-* cases): empty AcroForm dicts don't count; a text field
    sets IsAcroFormPresent; an invisible-only document signature sets
    IsSignaturesPresent WITHOUT IsAcroFormPresent; XFA needs a non-empty
    array; Collection needs a non-empty dict."""
    def flags(v):
        i = parse_pdf(pdfgen.make_forminfo_pdf(v))["info"]
        return (i["IsAcroFormPresent"], i["IsXFAPresent"],
                i["IsSignaturesPresent"], i["IsCollectionPresent"])

    assert flags("empty-acroform") == (False, False, False, False)
    assert flags("fields") == (True, False, False, False)
    assert flags("sig-visible") == (True, False, True, False)
    assert flags("sig-invisible-only") == (False, False, True, False)
    assert flags("xfa-array") == (False, True, False, False)
    assert flags("xfa-empty-array") == (False, False, False, False)
    assert flags("collection") == (False, False, False, True)
    assert flags("collection-empty") == (False, False, False, False)


def test_sigflags_string_tonumber():
    """JS `sigFlags & 1` on a PDF STRING is ToNumber → ToInt32, locked vs
    the live reference (sweep forminfo-sig-str-* cases): '(0x3)' counts
    (hex → 3), '(inf)' is NaN in JS, '(Infinity)'/'(1e999)' are ±inf and
    ToInt32 to 0 — none may crash (a naive int(float(s)) raises
    OverflowError on the infinity spellings — ADVICE r3)."""
    def sigs(v):
        return parse_pdf(pdfgen.make_forminfo_pdf(v))["info"][
            "IsSignaturesPresent"]

    assert sigs("sig-str-hex") is True
    assert sigs("sig-str-inf") is False
    assert sigs("sig-str-infinity") is False
    assert sigs("sig-str-1e999") is False


def test_broken_interior_kid_keeps_declared_count():
    """checkLastPage parity (ADVICE r3, sweep broken-kid case): a truthful
    /Count 3 survives a broken interior kid because only page n-1 is
    fetched (the /Count skip never resolves the broken sibling); page 2
    absorbs to "" per-page while pages 1 and 3 extract — a full-tree
    flatten would heal numpages to 2 and shift gamma onto page 2."""
    r = parse_pdf(pdfgen.make_broken_kid_pdf())
    assert r["numpages"] == 3
    assert r["numrender"] == 3
    assert r["text"] == "\n\nalpha page\n\n\n\ngamma page"
    # inherited-resources variant: the descent must accumulate /Resources
    # and /MediaBox from the root Pages node (sweep broken-kid-inherited)
    r = parse_pdf(pdfgen.make_broken_kid_inherited_pdf())
    assert r["numpages"] == 3
    assert r["text"] == "\n\nalpha page\n\n\n\ngamma page"


def test_info_dict_type_gates():
    """Info-dict type gates, locked vs the live reference (sweep
    infotyped-* cases): wrong-typed standard keys are skipped (never
    coerced), /Trapped must be a Name and serializes as {name}, custom
    Names keep the {name} shape, arrays/dicts are dropped."""
    i = parse_pdf(pdfgen.make_info_typed_pdf("trapped-custom"))["info"]
    assert i["Title"] == "T" and i["Trapped"] == {"name": "True"}
    assert i["Custom"] == {"MyNum": 7, "MyReal": 2.5, "MyBool": True,
                           "MyName": {"name": "NmVal"}, "MyStr": "sv"}
    i = parse_pdf(pdfgen.make_info_typed_pdf("wrongtype-std"))["info"]
    assert i["Author"] == "A"
    assert "Title" not in i and "Subject" not in i and "Producer" not in i
    i = parse_pdf(pdfgen.make_info_typed_pdf("trapped-bad"))["info"]
    assert "Trapped" not in i
    assert i["Custom"] == {"Trapped2": {"name": "Unknown"}}
    i = parse_pdf(pdfgen.make_info_typed_pdf("custom-bad"))["info"]
    assert i["Custom"] == {"Good": "ok"}
