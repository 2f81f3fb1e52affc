"""Job entry point for ``ray job submit`` (and local runs).

    ray job submit --working-dir . -- \\
        python -m dots_ocr_ray.cli extract \\
            --input '/data/pages/*.parquet' --out /data/extracted \\
            --mode parse_all

Only this CLI owns the Ray session (guarded init — under ``ray job
submit`` the cluster connection already exists).  Library code never
calls ray.init (driver contract).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
from dots_ocr_ray.util import make_quiet_hook as _make_quiet
from dots_ocr_ray.util import quiet_ray_data_schema_warnings as _quiet


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        _quiet()
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True, logging_level="ERROR", runtime_env={"worker_process_setup_hook": _make_quiet()})
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _input_files(pattern: str) -> list[str]:
    return sorted(glob.glob(pattern)) if any(c in pattern for c in "*?[") else [pattern]


def _read_input_pages(args: argparse.Namespace):
    """The pages Dataset of ``--input``, by ``--input-format``."""
    if args.input_format == "warc":
        from dots_ocr_ray.sources.warc import read_warc

        return read_warc(args.input)
    import ray.data

    return ray.data.read_parquet(_input_files(args.input))


def cmd_extract(args: argparse.Namespace) -> int:
    from dots_ocr_ray.kernel.extract import ExtractConfig
    from dots_ocr_ray.pipelines.extract import check_fail_gate, extract_shards

    _ensure_ray()
    files = _input_files(args.input)
    if not files:
        print(f"no input files match {args.input}", file=sys.stderr)
        return 2
    config = ExtractConfig(
        mode=args.mode,
        describe_pictures=args.describe_pictures,
        rebuild_directory=args.rebuild_directory,
    )
    metrics = extract_shards(
        files, args.out, config,
        resume=not args.overwrite, max_rows_per_task=args.max_rows_per_task,
    )
    stats = check_fail_gate(metrics, threshold=args.fail_threshold)
    print(json.dumps({"out": args.out, "partitions": metrics.num_rows, **stats}))
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    import ray.data

    from dots_ocr_ray.pipelines.dedup import exact_dedup, minhash_lsh_dedup, simhash_dedup

    _ensure_ray()
    ds = ray.data.read_parquet(args.input, columns=[args.id_col, args.text_col])
    if args.method == "exact":
        out = exact_dedup(ds, text_col=args.text_col, id_col=args.id_col)
    elif args.method == "minhash":
        out = minhash_lsh_dedup(ds, text_col=args.text_col, id_col=args.id_col, threshold=args.threshold)
    else:
        out = simhash_dedup(ds, text_col=args.text_col, id_col=args.id_col)
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out, "rows": out.count(), "method": args.method}))
    return 0


def cmd_prepare(args: argparse.Namespace) -> int:
    from dots_ocr_ray.pipelines.prepare import prepare_training_data

    _ensure_ray()
    pages = _read_input_pages(args)
    bench = None
    if args.decontaminate_bench:
        import ray.data

        bench = ray.data.read_parquet(args.decontaminate_bench)
    counts = prepare_training_data(
        pages,
        args.out,
        dedup=args.dedup,
        chunk_tokens=args.chunk_tokens,
        overlap_tokens=args.overlap_tokens,
        train_fraction=args.train_fraction,
        line_dedup_min_count=args.line_dedup_min_count,
        substring_dedup_k=args.substring_dedup_k,
        decontaminate_bench=bench,
        decontaminate_k=args.decontaminate_k,
        emit_token_ids=args.emit_token_ids,
        vocab_size=args.vocab_size,
        output_format=args.output_format,
    )
    print(json.dumps({"out": args.out, **counts}))
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    from dots_ocr_ray.pipelines.refresh import refresh_corpus

    _ensure_ray()
    pages = _read_input_pages(args)
    counts = refresh_corpus(
        pages,
        args.index,
        args.out,
        minhash_threshold=args.threshold,
        num_perm=args.num_perm,
    )
    print(json.dumps({"out": args.out, "index": args.index, **counts}))
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    import ray.data

    from dots_ocr_ray.pipelines.text_analysis import annotate_documents

    _ensure_ray()
    ds = ray.data.read_parquet(args.input)
    out = annotate_documents(ds, text_col=args.text_col)
    out.write_parquet(args.out)
    print(json.dumps({"out": args.out, "rows": out.count()}))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    """Scanned-page job: page images → layout spans + markdown
    (the image-input twin of ``extract``)."""
    import ray.data

    from dots_ocr_ray.pipelines.scan import read_png_dir, scan_pages
    from dots_ocr_ray.util import bucket_keyed_fold

    _ensure_ray()
    if args.input_format == "png":
        media = read_png_dir(args.input)
    else:
        media = ray.data.read_parquet(args.input, columns=[args.id_col, args.payload_col])
    out = scan_pages(
        media,
        id_col=args.id_col,
        payload_col=args.payload_col,
        deskew=not args.no_deskew,
        max_err=args.max_err,
    ).materialize()  # one execution feeds both the sink and the rollup
    out.write_parquet(args.out)
    statuses = sorted(bucket_keyed_fold(out, "status", {"n": ("count", None)}).take_all(), key=lambda r: r["status"])
    print(json.dumps({"out": args.out, "status_counts": {r["status"]: r["n"] for r in statuses}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="dots_ocr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="run the extraction pipeline over pages shards (one output partition per shard)")
    ex.add_argument("--input", required=True, help="pages parquet or *.warc/*.warc.gz path or glob")
    ex.add_argument("--out", required=True, help="output directory (shared storage on a cluster)")
    ex.add_argument("--mode", default="parse_all", choices=["parse_all", "layout_only", "text_only"])
    ex.add_argument("--fail-threshold", type=float, default=0.1)
    ex.add_argument("--describe-pictures", action="store_true")
    ex.add_argument("--rebuild-directory", action="store_true")
    ex.add_argument("--overwrite", action="store_true", help="ignore existing done markers")
    ex.add_argument("--max-rows-per-task", type=int, default=None,
                    help="split parquet shards above this many rows into row-group runs (straggler guard)")
    ex.set_defaults(fn=cmd_extract)

    sc = sub.add_parser("scan", help="scanned-page job: page images -> layout spans + markdown")
    sc.add_argument("--input", required=True, help="media parquet path/glob, or a *.png glob with --input-format png")
    sc.add_argument("--input-format", default="parquet", choices=["parquet", "png"])
    sc.add_argument("--out", required=True)
    sc.add_argument("--id-col", default="doc_id")
    sc.add_argument("--payload-col", default="payload")
    sc.add_argument("--no-deskew", action="store_true")
    sc.add_argument("--max-err", type=int, default=3, help="per-glyph noise budget for template OCR")
    sc.set_defaults(fn=cmd_scan)

    dd = sub.add_parser("dedup", help="corpus dedup over a documents table")
    dd.add_argument("--input", required=True)
    dd.add_argument("--out", required=True)
    dd.add_argument("--method", default="exact", choices=["exact", "minhash", "simhash"])
    dd.add_argument("--text-col", default="text")
    dd.add_argument("--id-col", default="doc_id")
    dd.add_argument("--threshold", type=float, default=0.8)
    dd.set_defaults(fn=cmd_dedup)

    pr = sub.add_parser("prepare", help="end-to-end training-data prep: extract -> quality -> dedup -> scrub -> chunk -> split")
    pr.add_argument("--input", required=True, help="pages parquet or WARC path/glob")
    pr.add_argument("--input-format", default="parquet", choices=["parquet", "warc"])
    pr.add_argument("--out", required=True)
    pr.add_argument("--dedup", default="exact", choices=["exact", "minhash", "none"])
    pr.add_argument(
        "--line-dedup-min-count",
        type=int,
        default=None,
        help="drop lines appearing >= N times corpus-wide (C4-style); off by default",
    )
    pr.add_argument(
        "--substring-dedup-k",
        type=int,
        default=None,
        help="cut k-token spans repeated corpus-wide (ExactSubstr); off by default",
    )
    pr.add_argument(
        "--decontaminate-bench",
        default=None,
        help="parquet of benchmark docs (needs a 'text' column); any of its "
        "k-gram spans found in the corpus are cut before chunking",
    )
    pr.add_argument("--decontaminate-k", type=int, default=8)
    pr.add_argument("--emit-token-ids", action="store_true",
                    help="build a train-split vocabulary and add a token_ids column")
    pr.add_argument("--vocab-size", type=int, default=1 << 15)
    pr.add_argument("--output-format", default="parquet", choices=["parquet", "jsonl"],
                    help="jsonl: gzip shards per split (content-addressed, idempotent)")
    pr.add_argument("--chunk-tokens", type=int, default=128)
    pr.add_argument("--overlap-tokens", type=int, default=16)
    pr.add_argument("--train-fraction", type=float, default=0.9)
    pr.set_defaults(fn=cmd_prepare)

    rf = sub.add_parser(
        "refresh",
        help="recurring-crawl refresh: gate new pages through the persistent md5+MinHash index, write survivors, append the index",
    )
    rf.add_argument("--input", required=True, help="new crawl pages parquet or WARC path/glob")
    rf.add_argument("--input-format", default="parquet", choices=["parquet", "warc"])
    rf.add_argument("--index", required=True, help="persistent index directory (grows by appended files)")
    rf.add_argument("--out", required=True, help="output directory for surviving documents")
    rf.add_argument("--threshold", type=float, default=0.85)
    rf.add_argument("--num-perm", type=int, default=128)
    rf.set_defaults(fn=cmd_refresh)

    an = sub.add_parser("annotate", help="add lang/quality/token/fingerprint columns")
    an.add_argument("--input", required=True)
    an.add_argument("--out", required=True)
    an.add_argument("--text-col", default="text")
    an.set_defaults(fn=cmd_annotate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
