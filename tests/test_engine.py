"""End-to-end conformance: the distributed engine must reproduce the
sequential oracle's observable trace on every scenario — crawl order
(index list + record order), extracted values, URL-seen set, sleep counts —
on the production crawl: the pages and counters every crawl returns."""

import os

import pytest

from tests.conftest import crawl_seen, crawl_sleeps, index_order
from upton_ray.engine import Crawler
from upton_ray.oracle import UptonOracle
from upton_ray.scenarios import scenario_configs
from upton_ray.synth import BASE, HEADLINES

CFGS = scenario_configs()

CONFORMANCE = ["basic", "relative", "list", "table", "paginated",
               "paginated_error", "paginated_sleeps", "dedup_stash",
               "nocache_refetch", "instance_error", "continuation",
               "sitemap"]


@pytest.mark.parametrize("name", CONFORMANCE)
def test_scenario_matches_oracle(name, ray_session, fixture_web):
    import copy

    cfg = CFGS[name]
    oracle = UptonOracle(copy.deepcopy(cfg), fixture_web).scrape()
    res = Crawler(cfg, fixture_web).crawl()

    assert res.documents() == oracle.documents, f"{name}: documents differ"
    if cfg.url_array is None:
        assert index_order(cfg, fixture_web) == oracle.index_urls, \
            f"{name}: index order differs"
    assert crawl_seen(res) == oracle.seen, f"{name}: URL-seen set differs"
    assert crawl_sleeps(res) == oracle.sleeps, f"{name}: sleep count differs"


@pytest.mark.parametrize("name", CONFORMANCE)
def test_scenario_counters_match_oracle(name, ray_session, fixture_web):
    """The report counters equal the golden ones: the crawl's sleeps and
    network fetches are the oracle's (neither logs a sitemap-file or robots
    probe read), its errors are the oracle's network fetches that answered
    an error, and each round's rows are its pages' rows."""
    import copy

    import pyarrow.compute as pc

    from upton_ray.fetch import FETCHED_OUT, INDEX_PAGES
    from upton_ray.shuffle import collect

    cfg = CFGS[name]
    oracle = UptonOracle(copy.deepcopy(cfg), fixture_web).scrape()
    res = Crawler(cfg, fixture_web).crawl()
    m = res.metrics

    def total(col, rows=m):
        return int(pc.sum(rows[col]).as_py() or 0)

    assert total("slept") == oracle.sleeps
    assert total("fetched") == len(oracle.fetch_log)
    overlay = cfg.status_overlay or {}
    assert total("errors") == sum(overlay.get(u, 200) != 200
                                  for u in oracle.fetch_log), \
        f"{name}: errors count network error answers only"
    pages = {0: collect(res.index_pages, INDEX_PAGES).num_rows,
             1: collect(res.pages, FETCHED_OUT).num_rows}
    for r, n in pages.items():
        assert total("rows", m.filter(pc.equal(m["round"], r))) == n, \
            f"{name}: round {r} rows"
    assert set(m["round"].to_pylist()) <= {0, 1}


def test_robots_blocks_without_fetch(ray_session, fixture_web):
    cfg = CFGS["robots"]
    res = Crawler(cfg, fixture_web).crawl()
    # sixfacts blocked -> empty record, never fetched, no sleep for it
    assert res.documents() == [HEADLINES["webinar"], "", HEADLINES["prosecutor"], ""]
    assert BASE + "sixfacts.html" not in crawl_seen(res)
    assert sum(res.metrics["robots_blocked"].to_pylist()) == 1


def test_csv_sink_matches_oracle_rows(ray_session, fixture_web, tmp_path):
    import csv

    from upton_ray import sinks

    for name in ("basic", "table", "list"):
        cfg = CFGS[name]
        oracle = UptonOracle(cfg, fixture_web)
        expected = oracle.scrape_to_rows()
        res = Crawler(cfg, fixture_web).crawl()
        f = tmp_path / f"{name}.csv"
        sinks.write_csv(res.records, str(f))
        with open(f, newline="") as fh:
            got = [row for row in csv.reader(fh)]
        exp = [[str(c) for c in row] for row in expected]
        assert got == exp, name


def test_checkpoint_resume_skips_fetches(ray_session, fixture_web, tmp_path):
    import copy

    import pyarrow.parquet as pq

    stash = str(tmp_path / "stash")
    cfg = copy.deepcopy(CFGS["basic"])
    cfg.stash_folder = stash
    cfg.index_debug = True

    r1 = Crawler(cfg, fixture_web).crawl()
    assert crawl_sleeps(r1) == 5
    assert os.path.exists(os.path.join(stash, "seen.parquet"))
    assert os.path.exists(os.path.join(stash, "lineage.json"))
    # metrics.parquet holds the crawl's counters: round 0 and round 1
    m = pq.read_table(os.path.join(stash, "metrics.parquet"))
    assert m.equals(r1.metrics) and set(m["round"].to_pylist()) == {0, 1}

    # resume: a fresh crawler over the same stash refetches NOTHING
    cfg2 = copy.deepcopy(cfg)
    r2 = Crawler(cfg2, fixture_web).crawl()
    assert r2.documents() == r1.documents()
    assert crawl_sleeps(r2) == 0, "resume must hit the stash, not the network"
    assert crawl_seen(r2) == set()


def test_lazy_records_dataset(ray_session, fixture_web):
    """crawl() returns a lazy Dataset; consuming it yields sorted records.
    Its counters hold one round-0 row per index task and one round-1 row
    per fetch group."""
    cfg = CFGS["basic"]
    res = Crawler(cfg, fixture_web).crawl()
    t = res.records_table()
    assert t.num_rows == 4
    assert t["record"].to_pylist()[0] == [HEADLINES["webinar"]]
    m = res.metrics
    assert m.num_rows > 0 and set(m["round"].to_pylist()) == {0, 1}
    assert sum(m["rows"].to_pylist()) == 1 + 4   # index page + instances


def test_seen_set_survives_large_batches(ray_session):
    """Stash fetch-once across many duplicate URLs and batches."""
    import numpy as np

    from upton_ray.seen import SeenSet

    s = SeenSet(num_shards=4)
    urls = [f"http://h{i % 50}.org/p{i % 200}" for i in range(1000)]
    new1 = s.check_and_add(urls)
    assert new1.sum() == len(set(urls))
    new2 = s.check_and_add(urls)
    assert new2.sum() == 0
    assert s.size() == len(set(urls))
    assert s.contains(np.array(["http://h0.org/p0", "http://nope.org/x"],
                               dtype=object)).tolist() == [True, False]


def test_canonicalize_seen_merges_query_orderings(ray_session):
    """Opt-in canonical seen keys: ?a=1&b=2 and ?b=2&a=1 share one fetch;
    reference default keeps them distinct (upton_downloader_spec: distinct
    query strings are distinct cache keys)."""
    span = [{"kind": "html body h1.article-title", "text": "t",
             "media_ref": "", "offset": 0}]
    web = {"http://h.test/p?a=1&b=2": span, "http://h.test/p?b=2&a=1": span}
    urls = list(web)

    from upton_ray.config import CrawlConfig

    for canon, expected_fetches in ((False, 2), (True, 1)):
        cfg = CrawlConfig(url_array=urls, extractor="css:h1.article-title",
                          sleep_time_between_requests=0,
                          canonicalize_seen=canon, num_seen_shards=2,
                          fetch_concurrency=2)
        res = Crawler(cfg, web).crawl()
        assert sum(res.metrics["fetched"].to_pylist()) == expected_fetches, \
            f"canonicalize_seen={canon}"
        assert res.records_table().num_rows == 2, "rows always kept"


def test_custom_index_successor_hook(ray_session):
    """P1 override (subclass hook upton.rb:149): a path-based pagination
    successor replaces the query-param scheme entirely."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import _sp

    def link(href, i):
        return _sp("section#river/section/h1/a", f"t{href}", href, i)

    web = {
        "http://s.test/page/1.html": [link("http://s.test/a.html", 0)],
        "http://s.test/page/2.html": [link("http://s.test/b.html", 0)],
        # page/3 missing -> empty fetch terminates the chain
        "http://s.test/a.html": [_sp("h1.article-title", "A", "", 0)],
        "http://s.test/b.html": [_sp("h1.article-title", "B", "", 0)],
    }
    cfg = CrawlConfig(
        index_url="http://s.test/page/1.html",
        index_selector="section#river section h1 a",
        extractor="css:h1.article-title",
        next_index_page_url=lambda url, i: f"http://s.test/page/{i}.html",
        sleep_time_between_requests=0,
        num_seen_shards=1, fetch_concurrency=1)
    c = Crawler(cfg, web)
    try:
        res = c.crawl()
        assert res.documents() == ["A", "B"]
        assert "http://s.test/page/2.html" in crawl_seen(res)
    finally:
        c.shutdown()


def test_instance_index_matches_oracle_per_seed(ray_session):
    """Seed bases + within-seed ranks give Upton's numbering: on a
    multi-host web walked by several round-0 tasks, every record's
    (instance_index, instance_url) is the sequential oracle's, run seed by
    seed in seed_id order, whatever order the seeds are listed in."""
    import copy

    import pyarrow.compute as pc

    from upton_ray import synth
    from upton_ray.config import CrawlConfig

    p = synth.ScaleParams(n_hosts=6, pages_per_host=12, links_per_page=5,
                          spans_per_page=4, zipf_alpha=0.8, seed=11)
    web = {u: synth.gen_page(p, u) for u in synth.all_urls(p)}
    sel = "section#river section h1 a"
    cfg = CrawlConfig(
        index_selector=sel, extractor="css:h1.article-title",
        paginated=True, pagination_param="p", pagination_max_pages=1000,
        sleep_time_between_requests=0, num_seen_shards=2,
        fetch_concurrency=2, fetch_batch_size=8)
    # seed ids neither dense nor in host order
    seeds = [((h * 5) % p.n_hosts * 10 + 3, synth.index_url(p, h), sel)
             for h in range(p.n_hosts)]

    want, base = [], 0
    for _, url, _ in sorted(seeds):
        c = copy.deepcopy(cfg)
        c.index_url = url
        res = UptonOracle(c, web).scrape()
        want += [(base + r["instance_index"], r["instance_url"])
                 for r in res.records_rows]
        base += len(res.index_urls)

    c = Crawler(copy.deepcopy(cfg), web, seeds=seeds)
    try:
        res = c.crawl()
        t = res.records_table()
        m = res.metrics
    finally:
        c.shutdown()
    assert m.filter(pc.equal(m["round"], 0)).num_rows >= 2
    assert list(zip(t["instance_index"].to_pylist(),
                    t["instance_url"].to_pylist())) == want
    assert len(want) == sum(p.n_articles(h) for h in range(p.n_hosts))


def test_repeated_seed_id_fails_closed(ray_session):
    """instance_index orders links by (seed_id, page_no, dom_pos): two seeds
    sharing an id would give their links the same indices, so the crawler
    refuses them up front, naming the id."""
    from upton_ray.config import CrawlConfig

    sel = "a"
    seeds = [(0, "http://h0.test/", sel), (1, "http://h1.test/", sel),
             (0, "http://h2.test/", sel)]
    with pytest.raises(ValueError, match=r"\[0\]"):
        Crawler(CrawlConfig(index_selector=sel, debug=False), {},
                seeds=seeds)
    Crawler(CrawlConfig(index_selector=sel, debug=False), {},
            seeds=[(i, u, s) for i, (_, u, s) in enumerate(seeds)])


def test_attach_instance_index_fails_closed_on_unknown_seed():
    """The attach adds the seed's base to the link's rank within its seed
    in (page_no, dom_pos) order and keeps the rows' order; a link of a
    seed with no base raises ValueError (never index 0)."""
    import numpy as np
    import pyarrow as pa

    from upton_ray.engine import _attach_instance_index

    seeds = np.array([0, 4], dtype=np.int32)
    bases = np.array([0, 3], dtype=np.int64)

    def links(rows):
        s, p, d = zip(*rows) if rows else ((), (), ())
        return pa.table({"seed_id": pa.array(s, pa.int32()),
                         "page_no": pa.array(p, pa.int32()),
                         "dom_pos": pa.array(d, pa.int32())})

    got = _attach_instance_index(
        links([(4, 1, 0), (0, 1, 0), (4, 0, 1), (0, 0, 0), (4, 0, 0),
               (0, 0, 1)]), seeds, bases)
    assert got["instance_index"].to_pylist() == [5, 2, 4, 0, 3, 1]
    assert _attach_instance_index(links([]), seeds, bases).num_rows == 0
    for rows in ([(0, 0, 0), (2, 0, 0)], [(5, 0, 0)], [(-1, 0, 0)]):
        with pytest.raises(ValueError, match=f"seed {rows[-1][0]} has links "
                                             "but no instance_index base"):
            _attach_instance_index(links(rows), seeds, bases)


def test_seed_split_across_blocks_fails_closed(ray_session):
    """A seed's links come from one block (one walker call walks its whole
    chain): a seed whose links arrive in two blocks has no single base, so
    the numbering refuses it, naming the seed."""
    import pyarrow as pa
    import ray.data

    from upton_ray.config import CrawlConfig

    def block(seed, pages):
        n = len(pages)
        return pa.table({"seed_id": pa.array([seed] * n, pa.int32()),
                         "page_no": pa.array(pages, pa.int32()),
                         "dom_pos": pa.array([0] * n, pa.int32()),
                         "url": [f"http://h.test/{seed}/{q}" for q in pages]})

    c = Crawler(CrawlConfig(index_selector="a", debug=False), {},
                seeds=[(1, "http://h.test/", "a"), (7, "http://h.test/", "a")])
    ok, _ = c._assign_instance_index(ray.data.from_arrow(
        [block(7, [0]), block(1, [0, 1])]))
    assert sorted(ok.to_pandas()["instance_index"]) == [0, 1, 2]
    with pytest.raises(ValueError, match="seed 7 has links in two blocks"):
        c._assign_instance_index(ray.data.from_arrow(
            [block(7, [0]), block(1, [0]), block(7, [1])]))


def _scan_hot_hosts(urls, threshold: int) -> list:
    """Hot hosts by a driver-side scan of a whole frontier."""
    from collections import Counter

    import numpy as np

    from upton_ray.urlops import hosts_of

    n = Counter(hosts_of(np.array(urls, dtype=object)).tolist())
    return sorted(h for h, c in n.items() if c > threshold)


@pytest.mark.parametrize("name", ["basic", "paginated", "paginated_error",
                                  "dedup_stash", "sitemap"])
def test_stats_equal_frontier_scan(name, ray_session, fixture_web):
    """Every crawl returns what round 0 knows, from the round-0 rollup or
    the URL list: a crawl's stats equal a scan of the round-0 frontier
    (rows, index pages or sitemap files, hot hosts)."""
    import copy

    import pyarrow as pa

    from upton_ray.shuffle import collect
    from upton_ray.sitemap import expand_levels

    cfg = copy.deepcopy(CFGS[name])
    cfg.hot_host_threshold = 1
    c = Crawler(copy.deepcopy(cfg), fixture_web)
    stats = c.crawl().stats
    c.shutdown()

    urls = (list(cfg.url_array) if cfg.url_array is not None
            else index_order(cfg, fixture_web))
    want = {"frontier_rows": len(urls), "hot_hosts": _scan_hot_hosts(urls, 1)}
    if cfg.sitemap_url:
        want["sitemap_files"] = expand_levels(
            fixture_web, cfg.sitemap_url, cfg.sitemap_max_depth)[1]
    elif cfg.url_array is None:
        c = Crawler(copy.deepcopy(cfg), fixture_web)
        f = collect(c.get_index()[0], pa.schema([]))
        c.shutdown()
        want["index_pages"] = len(set(zip(f["seed_id"].to_pylist(),
                                          f["page_no"].to_pylist())))
    assert want["hot_hosts"], "the threshold makes a host hot"
    assert stats.pop("round0_s") >= 0
    assert stats == want


def _paced_hot_crawl(debug: bool):
    from upton_ray.config import CrawlConfig

    urls = [f"http://big.test/a/{i}" for i in range(30)] \
        + [f"http://h{j}.test/p/{i}" for j in range(3) for i in range(4)]
    web = {u: [{"kind": "html body h1.article-title", "text": u,
                "media_ref": "", "offset": 0}] for u in urls}
    cfg = CrawlConfig(
        url_array=urls, extractor="css:h1.article-title",
        sleep_time_between_requests=0.001, real_sleep=True, max_sleep=0.002,
        debug=debug, hot_host_threshold=10, hot_host_salts=4,
        num_seen_shards=2, fetch_concurrency=2, fetch_batch_size=16)
    return Crawler(cfg, web), len(urls)


def test_paced_hot_host_crawl_starts_no_actor(ray_session, monkeypatch):
    """A paced hot-host crawl with a seen set leases from its first seen
    shard: after the Crawler is built, the crawl starts no actor of the
    engine's (Ray Data may start its own), and shutdown kills each shard
    once."""
    import ray
    import ray.actor

    c, n = _paced_hot_crawl(debug=True)
    started, killed = [], []
    remote, kill = ray.actor.ActorClass._remote, ray.kill

    def counting_remote(self, *a, **kw):
        cls = self.__ray_metadata__.modified_class
        if cls.__module__.startswith("upton_ray"):
            started.append(cls.__name__)
        return remote(self, *a, **kw)

    def counting_kill(actor, **kw):
        killed.append(actor._actor_id.hex())
        return kill(actor, **kw)

    monkeypatch.setattr(ray.actor.ActorClass, "_remote", counting_remote)
    monkeypatch.setattr(ray, "kill", counting_kill)
    assert c.crawl().records_table().num_rows == n
    assert started == [], "the crawl started an actor"
    assert c.pacer is c.seen.shards[0]
    _, granted, _ = ray.get(c.pacer.state.remote())
    assert granted == {"big.test": 30}
    shards = [s._actor_id.hex() for s in c.seen.shards]
    c.shutdown()
    assert sorted(killed) == sorted(shards), "each shard killed once"


def test_paced_hot_host_crawl_without_seen_set(ray_session, monkeypatch):
    """Without a seen set the crawl starts one shard to lease from, where
    the hot hosts are known, and shutdown kills it once."""
    import ray

    c, n = _paced_hot_crawl(debug=False)
    assert c.seen is None and c.pacer is None
    assert c.crawl().records_table().num_rows == n
    _, granted, _ = ray.get(c.pacer.state.remote())
    assert granted == {"big.test": 30}
    killed, kill = [], ray.kill
    monkeypatch.setattr(ray, "kill", lambda a, **kw: (
        killed.append(a._actor_id.hex()), kill(a, **kw)))
    pacer = c.pacer._actor_id.hex()
    c.shutdown()
    c.shutdown()
    assert killed == [pacer]
