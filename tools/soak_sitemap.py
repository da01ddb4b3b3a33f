"""Sitemap-seeding soak: expansion at 10^6 and 10^7 <loc> entries over the
generator web's sitemap tree (global root -> per-host sitemap index ->
per-segment files -> article locs), plus an end-to-end sitemap-seeded
crawl compared against the bench's index-seeded law.

Verification is EXACT and distributed: every emitted (seed_id, dom_pos,
url) row is checked against the closed-form rank law (seed ranks are
(depth, parent-rank, pos) discovery order, so host h's file k has rank
1 + n_hosts + h*K + k and must emit exactly the articles
[k*links_per_page, ...) in dom_pos order) — mismatches are counted
inside map_batches, the driver folds ints; per-seed counts prove
coverage and the rank law proves set equality without the driver ever
holding a page URL.  The expansion leg asserts driver max-RSS delta
< 400 MB.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def expansion_leg(n_hosts: int, pages_per_host: int, links_per_page: int):
    import numpy as np
    import pyarrow as pa
    import ray

    from upton_ray.sitemap import expand_levels
    from upton_ray.synth import ScaleParams

    p = ScaleParams(n_hosts=n_hosts, pages_per_host=pages_per_host,
                    links_per_page=links_per_page, zipf_alpha=0.0, seed=42)
    K = p.n_index_pages(0)
    n_locs = sum(p.n_articles(h) for h in range(p.n_hosts))
    root = p.host(0) + "/sitemap_root.xml"

    rss0 = _maxrss_mb()
    t0 = time.time()
    links, n_files = expand_levels(p, root, max_depth=3,
                                   concurrency=8)
    art_re = re.compile(r"^http://h(\d+)\.synth\.example/a/(\d+)\.html$")

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"seed_id": pa.array([], pa.int32()),
                             "cnt": pa.array([], pa.int64()),
                             "bad": pa.array([], pa.int64())})
        seed = b["seed_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dom = b["dom_pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        urls = b["url"].to_pylist()
        fk = seed - 1 - n_hosts          # file ordinal: h*K + k
        h = fk // K
        a = (fk % K) * links_per_page + dom
        bad = 0
        for i, u in enumerate(urls):
            m = art_re.match(u)
            if (not m or int(m.group(1)) != h[i]
                    or int(m.group(2)) != a[i]):
                bad += 1
        g = pa.table({"seed_id": b["seed_id"]}).group_by("seed_id") \
            .aggregate([([], "count_all")])
        return pa.table({
            "seed_id": g["seed_id"],
            "cnt": pa.compute.cast(g["count_all"], pa.int64()),
            "bad": pa.array([bad] + [0] * (g.num_rows - 1), pa.int64())})

    parts = pa.concat_tables([t for t in ray.get(
        links.map_batches(verify, batch_format="pyarrow", batch_size=None)
        .to_arrow_refs()) if t.num_rows])
    wall = time.time() - t0
    d_rss = _maxrss_mb() - rss0

    per_seed = parts.group_by("seed_id").aggregate([("cnt", "sum")])
    cnts = per_seed["cnt_sum"].to_numpy(zero_copy_only=False)
    n_bad = int(pa.compute.sum(parts["bad"]).as_py())
    total = int(cnts.sum())
    assert n_bad == 0, f"{n_bad} rows violate the rank law"
    assert total == n_locs, (total, n_locs)
    assert per_seed.num_rows == n_hosts * K
    assert (cnts == links_per_page).all() or pages_per_host % links_per_page, \
        "uniform segments must all be full"
    assert d_rss < 400, d_rss
    print(f"expansion n_locs={n_locs} files={n_files} wall={wall:.1f}s "
          f"locs/s={int(n_locs / wall)} rank-law EXACT rssΔ={d_rss:.1f}MB",
          flush=True)
    return {"n_locs": n_locs, "n_files": n_files, "wall_s": round(wall, 1),
            "locs_per_s": int(n_locs / wall), "bad_rows": n_bad,
            "driver_rss_delta_mb": round(d_rss, 1)}


def crawl_leg(n_hosts: int, pages_per_host: int):
    """End-to-end sitemap-seeded crawl (generator store): frontier from the
    sitemap tree, then the normal fetch+extract rounds."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import ScaleParams

    p = ScaleParams(n_hosts=n_hosts, pages_per_host=pages_per_host,
                    links_per_page=20, spans_per_page=24,
                    media_fraction=0.25, zipf_alpha=0.3, seed=42)
    n_articles = sum(p.n_articles(h) for h in range(p.n_hosts))
    base = dict(extractor="css:h1.article-title",
                sleep_time_between_requests=0,
                debug=False, index_debug=False,
                num_seen_shards=8, fetch_concurrency=16,
                fetch_batch_size=1024)
    out = {"n_articles": n_articles}
    for mode in ("sitemap", "index"):
        if mode == "sitemap":
            cfg = CrawlConfig(sitemap_url=p.host(0) + "/sitemap_root.xml",
                              sitemap_max_depth=3, **base)
            seeds = None
        else:
            cfg = CrawlConfig(index_selector="section#river section h1 a",
                              paginated=True, pagination_param="p",
                              pagination_max_pages=100_000, **base)
            from upton_ray.synth import index_url
            seeds = [(h, index_url(p, h), cfg.index_selector)
                     for h in range(p.n_hosts)]
        crawler = Crawler(cfg, p, seeds=seeds)
        t0 = time.time()
        res = crawler.crawl(trace=False)
        n_records = res.records.count()
        wall = time.time() - t0
        crawler.shutdown()
        assert n_records == n_articles, (mode, n_records, n_articles)
        out[f"{mode}_wall_s"] = round(wall, 1)
        out[f"{mode}_pages_per_s"] = int(n_articles / wall)
        print(f"crawl[{mode}-seeded] articles={n_articles} wall={wall:.1f}s "
              f"pages/s={int(n_articles / wall)} records EXACT", flush=True)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--legs", default="exp1m,exp10m,crawl")
    args = ap.parse_args()
    legs = set(args.legs.split(","))

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    res = {}
    if "exp1m" in legs:
        res["expansion_1m"] = expansion_leg(500, 2000, 100)
    if "exp10m" in legs:
        res["expansion_10m"] = expansion_leg(1000, 10_000, 200)
    if "crawl" in legs:
        res["crawl_192x320"] = crawl_leg(192, 320)
    print(json.dumps({"soak": "sitemap", "results": res}))
    ray.shutdown()


if __name__ == "__main__":
    main()
