"""Command-line surface: `python -m pdf_parse_new_ray <cmd>`.

Commands mirror how a user of the reference library consumes it
(parse one PDF → text) plus the distributed pipeline this engine adds:

  parse   <file.pdf> [--max-pages N]         → text to stdout (Result to stderr)
  probe   <file.pdf>                         → page count only (fast path)
  extract <docs_dir> <media_dir> <out_dir>   → distributed corpus extraction
          [--partitions N] [--no-resume]
  bench   [--scaling]                        → delegates to bench.py

The `extract` command owns its Ray session (library code never calls
ray.init — see __ray_entry__ contract).
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_parse(args) -> int:
    from .pdfkernel import PDFError, parse_pdf

    try:
        data = open(args.file, "rb").read()
        r = parse_pdf(data, max_pages=args.max_pages)
    except (OSError, PDFError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    meta = {k: r[k] for k in ("numpages", "numrender", "version")}
    meta["info"] = r["info"]
    print(json.dumps(meta, default=str), file=sys.stderr)
    sys.stdout.write(r["text"])
    return 0


def _cmd_probe(args) -> int:
    from .pdfkernel import PDFError
    from .pdfkernel.api import probe_numpages

    try:
        print(probe_numpages(open(args.file, "rb").read()))
        return 0
    except (OSError, PDFError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _cmd_extract(args) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from .pipelines.extraction import extract_documents

    metrics = extract_documents(
        args.docs, args.media, out_dir=args.out,
        n_partitions=args.partitions, resume=not args.no_resume,
    ).take_all()
    total = {
        "partitions": len(metrics),
        "n_docs": int(sum(m["n_docs"] for m in metrics)),
        "pages": int(sum(m["pages"] for m in metrics)),
        "errors": int(sum(m["errors"] for m in metrics)),
    }
    print(json.dumps(total))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pdf_parse_new_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="extract text from one PDF")
    sp.add_argument("file")
    sp.add_argument("--max-pages", type=int, default=0)

    sp = sub.add_parser("probe", help="page count only")
    sp.add_argument("file")

    sp = sub.add_parser("extract", help="distributed corpus extraction")
    sp.add_argument("docs")
    sp.add_argument("media")
    sp.add_argument("out")
    sp.add_argument("--partitions", type=int, default=32)
    sp.add_argument("--no-resume", action="store_true")

    sub.add_parser("bench", help="run bench.py (accepts --scaling via extra args)")

    args, extra = p.parse_known_args(argv)
    if args.cmd == "parse":
        return _cmd_parse(args)
    if args.cmd == "probe":
        return _cmd_probe(args)
    if args.cmd == "extract":
        return _cmd_extract(args)
    if args.cmd == "bench":
        import os
        import subprocess

        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench.py")
        return subprocess.call([sys.executable, bench, *extra])
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
