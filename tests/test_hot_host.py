"""Hot-host splitting: a skewed host is salted across several fetch shards
while its politeness budget stays globally shared through the HostPacer
token-bucket actor (north_rule skew handling)."""

import numpy as np
import ray

from upton_ray.urlops import hosts_of, shard_hashes


def _web(urls):
    return {u: [{"kind": "html body h1.article-title", "text": f"t{i}",
                 "media_ref": "", "offset": 0}] for i, u in enumerate(urls)}


def test_salted_routing_spreads_hot_host():
    """The routing key (salted) must scatter a hot host over >1 shard while
    cold hosts stay on exactly one shard each."""
    hot = [f"http://big.test/a/{i}" for i in range(64)]
    hs = hosts_of(np.array(hot, dtype=object))
    keys = np.array([f"{h}#s{j % 8}" for j, h in enumerate(hs)], dtype=object)
    shards = set(shard_hashes(keys, 4).tolist())
    assert len(shards) > 1, "salting must spread the hot host across shards"


def test_hot_host_shares_global_budget(ray_session):
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    delay = 0.001
    hot_urls = [f"http://big.test/a/{i}" for i in range(60)]
    cold_urls = [f"http://h{j}.test/p/{i}" for j in range(3) for i in range(5)]
    urls = hot_urls + cold_urls
    cfg = CrawlConfig(
        url_array=urls, extractor="css:h1.article-title",
        sleep_time_between_requests=delay, real_sleep=True, max_sleep=0.002,
        debug=True, host_sharded_fetch=True,
        hot_host_threshold=10, hot_host_salts=8,
        num_seen_shards=2, fetch_concurrency=4, fetch_batch_size=32)
    c = Crawler(cfg, _web(urls))
    t = c.crawl().records_table()
    assert t.num_rows == len(urls), "every URL yields exactly one record"

    assert c.pacer is not None, "a hot host must engage the shared pacer"
    _, granted, leases = ray.get(c.pacer.state.remote())
    spans = ray.get(c.pacer.spans.remote())
    assert granted == {"big.test": len(hot_urls)}, \
        "every hot-host fetch consumes exactly one global token"
    # the shared window spans AT LEAST the full budget (leases never overlap;
    # scheduling gaps may stretch it): k sub-queues never multiply the
    # host's fetch rate
    first, last = spans["big.test"]
    assert (last - first) >= len(hot_urls) * delay - 1e-6
    assert leases["big.test"] >= 1
    c.shutdown()


def test_no_pacer_below_threshold(ray_session):
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    urls = [f"http://h{j}.test/p/{i}" for j in range(4) for i in range(5)]
    cfg = CrawlConfig(
        url_array=urls, extractor="css:h1.article-title",
        sleep_time_between_requests=0.001, real_sleep=True, max_sleep=0.002,
        debug=True, host_sharded_fetch=True,
        hot_host_threshold=10, num_seen_shards=2, fetch_concurrency=2,
        fetch_batch_size=16)
    c = Crawler(cfg, _web(urls))
    t = c.crawl().records_table()
    assert t.num_rows == len(urls)
    assert c.pacer is None, "uniform frontier must not pay the pacer RPC"
    c.shutdown()


def test_hot_host_continuations_consume_pacer_tokens(ray_session):
    """Instance-continuation fetches of a hot host lease from the shared
    budget too (no politeness bypass on the sequential path): one token per
    instance fetch and one per continuation."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    hot_urls = [f"http://big.test/a/{i}.html" for i in range(12)]
    cold_urls = [f"http://h{j}.test/p/{i}.html" for j in range(3)
                 for i in range(2)]
    urls = hot_urls + cold_urls
    pages = urls + [u.replace(".html", "_page_1.html") for u in urls]
    cfg = CrawlConfig(
        url_array=urls, extractor="css:h1.article-title",
        next_instance_page_url=lambda url, i: url.replace(
            ".html", f"_page_{i}.html") if i <= 1 and "_page_" not in url
            else "",
        sleep_time_between_requests=0.001, real_sleep=True, max_sleep=0.002,
        debug=True, host_sharded_fetch=True, hot_host_threshold=5,
        num_seen_shards=2, fetch_concurrency=2, fetch_batch_size=16)
    c = Crawler(cfg, _web(pages))
    t = c.crawl().records_table()
    assert t.num_rows == 2 * len(urls), "instance + its continuation page"
    assert c.pacer is not None, "a hot host must engage the shared pacer"
    _, granted, _ = ray.get(c.pacer.state.remote())
    assert granted == {"big.test": 2 * len(hot_urls)}
    c.shutdown()
