"""Job-submit entry point: ``python -m upton_ray crawl ...``.

The north_rule requires the whole job to run via ``ray job submit`` on a
fixed-size cluster.  This module is that submission target: it attaches to the
cluster Ray gives the job (``ray.init(address="auto")`` semantics — we only
call ``ray.init`` when no session exists, so the driver/test harness owning a
session is never disturbed), builds a :class:`upton_ray.engine.Crawler` from
flags, streams the crawl, writes its records to the output sink and prints
one JSON line: the record count and rate, the per-round counter totals of
:attr:`upton_ray.engine.CrawlResult.metrics` and round 0's frontier size
and time.

Examples
--------
Local smoke run::

    python -m upton_ray crawl --corpus /tmp/web --buckets 64 \
        --seed 'http://host0.test/index' --selector 'section a' \
        --extractor 'css:h1.article-title' --paginated --pagination-param p \
        --out /tmp/records --stash /tmp/ckpt

On a cluster the same command line is the payload of::

    ray job submit --working-dir . -- python -m upton_ray crawl ...

Resume: re-run with the same ``--stash`` — completed rounds are skipped via
lineage, previously fetched URLs become cache hits via the restored seen set.
Re-crawl selected URLs with ``invalidate`` first (cuckoo deletion path).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# the counters of CrawlResult.metrics the JSON line totals per round
REPORT_COUNTERS = ("fetched", "cache_hits", "slept", "errors",
                   "robots_blocked")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="upton_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("crawl", help="run an index->instance crawl")
    c.add_argument("--corpus", required=True,
                   help="bucketed parquet corpus dir (the in-sandbox web)")
    c.add_argument("--buckets", type=int, default=64)
    c.add_argument("--seed", action="append", default=[],
                   help="index seed URL (repeatable)")
    c.add_argument("--seeds-file", help="file with one seed URL per line")
    c.add_argument("--url-array-file",
                   help="skip round 0: file of instance URLs, one per line")
    c.add_argument("--selector", default="", help="index CSS selector")
    c.add_argument("--extractor", default="identity",
                   help="identity | css:<sel> | list:<sel> | table:<sel>")
    c.add_argument("--paginated", action="store_true")
    c.add_argument("--pagination-param", default="page")
    c.add_argument("--max-pages", type=int, default=2)
    c.add_argument("--sleep", type=float, default=30.0,
                   help="politeness delay per host (reference default 30s)")
    c.add_argument("--real-sleep", action="store_true",
                   help="actually pace fetches (else virtual-clock accounting)")
    c.add_argument("--respect-robots", action="store_true")
    c.add_argument("--fetch-robots", action="store_true",
                   help="probe http://<host>/robots.txt from the web source")
    c.add_argument("--concurrency", type=int, default=8)
    c.add_argument("--batch-size", type=int, default=1024)
    c.add_argument("--seen-shards", type=int, default=8)
    c.add_argument("--approx-seen", action="store_true",
                   help="filters-only URL-seen membership (cuckoo; the "
                        "memory-bound scale config — a rare FP may skip a fetch)")
    c.add_argument("--stash", help="checkpoint dir (enables resume)")
    c.add_argument("--out", required=True, help="output path")
    c.add_argument("--format", choices=["parquet", "csv", "tsv"],
                   default="parquet")

    i = sub.add_parser("invalidate",
                       help="forget URLs in a stash so the next crawl refetches")
    i.add_argument("--stash", required=True)
    i.add_argument("--urls-file", required=True)
    return p


def _read_lines(path: str) -> list[str]:
    with open(path) as f:
        return [ln.strip() for ln in f if ln.strip()]


def cmd_crawl(args) -> int:
    import pyarrow.compute as pc
    import ray

    from upton_ray import sinks
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    if not ray.is_initialized():
        # no explicit address: honor RAY_ADDRESS (set by `ray job submit` /
        # a cluster launcher) and attach to that cluster; only when no
        # address is available does Ray fall back to starting a local one
        ray.init(include_dashboard=False, logging_level="ERROR")

    seeds_urls = list(args.seed)
    if args.seeds_file:
        seeds_urls += _read_lines(args.seeds_file)
    url_array = _read_lines(args.url_array_file) if args.url_array_file else None
    if not seeds_urls and url_array is None:
        print("error: need --seed/--seeds-file or --url-array-file",
              file=sys.stderr)
        return 2

    cfg = CrawlConfig(
        index_selector=args.selector,
        extractor=args.extractor,
        url_array=url_array,
        paginated=args.paginated,
        pagination_param=args.pagination_param,
        pagination_max_pages=args.max_pages,
        sleep_time_between_requests=args.sleep,
        real_sleep=args.real_sleep,
        respect_robots=args.respect_robots,
        fetch_robots=args.fetch_robots,
        debug=True, index_debug=True,
        num_seen_shards=args.seen_shards,
        seen_exact=not args.approx_seen,
        fetch_concurrency=args.concurrency,
        fetch_batch_size=args.batch_size,
        stash_folder=args.stash,
    )
    seeds = [(i, u, cfg.index_selector) for i, u in enumerate(seeds_urls)] or None
    crawler = Crawler(cfg, ("parquet", args.corpus, args.buckets), seeds=seeds)
    t0 = time.time()
    res = crawler.crawl()
    distinct = None
    if args.format == "parquet":
        sinks.write_records_parquet(res.records, args.out)   # already in output order
        import ray.data

        n = ray.data.read_parquet(args.out).count()
        # output-integrity check: a retried write task or a re-executed
        # upstream could silently duplicate rows; the distinct output-order
        # key count catches it for the cost of one local scan
        import duckdb

        # parameter-bound path (a quote in args.out must not break the SQL);
        # read_parquet accepts a bound glob string
        distinct = duckdb.execute(
            "SELECT count(DISTINCT (instance_index, pagination_index, row_no))"
            " FROM read_parquet(?)",
            [os.path.join(args.out, "*.parquet")]).fetchone()[0]
        if distinct != n:
            print(f"warning: output has {n} rows but {distinct} distinct "
                  "record keys — duplicated write detected; re-run or dedup "
                  "on (instance_index, pagination_index, row_no)",
                  file=sys.stderr)
    elif args.format == "csv":
        n = sinks.write_csv(res.records, args.out)
    else:
        n = sinks.write_tsv(res.records, args.out)
    dt = time.time() - t0
    crawler.shutdown()
    out = {"records": n, "sec": round(dt, 3),
           "records_per_sec": round(n / dt, 1) if dt else None,
           "out": args.out, "stash": args.stash,
           "frontier_rows": res.stats["frontier_rows"],
           "round0_s": round(res.stats["round0_s"], 3)}
    m = res.metrics
    for r in (0, 1):
        rows = m.filter(pc.equal(m["round"], r))
        out[f"round{r}"] = {k: int(pc.sum(rows[k]).as_py() or 0)
                            for k in REPORT_COUNTERS}
    if distinct is not None:
        out["distinct_keys"] = distinct
    print(json.dumps(out))
    return 0


def cmd_invalidate(args) -> int:
    """Offline stash edit: drop URLs from seen.parquet and clear round lineage
    so a resumed crawl refetches them (the live-actor path is
    ``SeenSet.invalidate``; this is its durable-checkpoint equivalent)."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    drop = set(_read_lines(args.urls_file))
    seen_p = os.path.join(args.stash, "seen.parquet")
    n = 0
    if os.path.exists(seen_p):
        # per-shard directory layout (or a legacy single file): each file is
        # filtered in place, so memory stays per-shard
        files = ([os.path.join(seen_p, f) for f in sorted(os.listdir(seen_p))
                  if f.endswith(".parquet")] if os.path.isdir(seen_p)
                 else [seen_p])
        vals = __import__("pyarrow").array(sorted(drop))
        for f in files:
            t = pq.read_table(f)
            mask = pc.is_in(t["url"], value_set=vals)
            hits = int(pc.sum(mask).as_py() or 0)
            if hits:
                n += hits
                pq.write_table(t.filter(pc.invert(mask)), f)
    lin = os.path.join(args.stash, "lineage.json")
    if os.path.exists(lin):
        os.remove(lin)     # rounds must re-run; restored seen set skips the rest
    # clear every fetch group's completion marker: the re-walk is all cache
    # hits except the invalidated URLs, so this is cheap and always correct
    # (the group of a URL depends on the crawl's routing, not known here)
    ckpt = os.path.join(args.stash, "fetched_round1")
    if os.path.isdir(ckpt):
        for d in os.listdir(ckpt):
            marker = os.path.join(ckpt, d, "_SUCCESS")
            if d.startswith("bucket=") and os.path.exists(marker):
                os.remove(marker)
    print(json.dumps({"invalidated": n, "stash": args.stash}))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "crawl":
        return cmd_crawl(args)
    return cmd_invalidate(args)


if __name__ == "__main__":
    raise SystemExit(main())
