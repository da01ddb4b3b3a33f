"""Hot-host splitting: a skewed host is salted across several fetch shards
while its politeness budget stays globally shared through leases from the
crawl's first seen shard (``SeenShard.lease``; north_rule skew handling)."""

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
        debug=True,
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
        debug=True,
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
        debug=True, hot_host_threshold=5,
        num_seen_shards=2, fetch_concurrency=2, fetch_batch_size=16)
    c = Crawler(cfg, _web(pages))
    t = c.crawl().records_table()
    assert t.num_rows == 2 * len(urls), "instance + its continuation page"
    assert c.pacer is not None, "a hot host must engage the shared pacer"
    _, granted, _ = ray.get(c.pacer.state.remote())
    assert granted == {"big.test": 2 * len(hot_urls)}
    c.shutdown()


def test_hot_host_requests_span_the_full_budget(ray_session):
    """Politeness measured on the wire: a salted hot host's requests, timed
    server-side, never come faster than the shared budget allows.  Every
    shard has cold work as well as its hot share; a leased window must be
    scheduled as soon as it opens, not after the shard's cold hosts, or the
    late shares of different shards overlap and the hot host's requests
    bunch up."""
    import json
    import threading
    import time
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    delay, n_hot, n_cold, shards = 0.05, 60, 41, 2
    hot_urls = [f"http://big.test/a/{i}" for i in range(n_hot)]
    # one cold host per fetch shard, each longer than a hot share
    cold_hosts: dict[int, str] = {}
    j = 0
    while len(cold_hosts) < shards:
        h = f"c{j}.test"
        shard = int(shard_hashes(np.array([h], dtype=object), shards)[0])
        cold_hosts.setdefault(shard, h)
        j += 1
    cold_urls = [f"http://{h}/p/{i}" for h in cold_hosts.values()
                 for i in range(n_cold)]
    pages = _web(cold_urls + hot_urls)
    hot_hits: list[float] = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            url = "http://" + self.path.lstrip("/")
            if url.startswith("http://big.test/"):
                hot_hits.append(time.monotonic())
            body = json.dumps(pages.get(url, [])).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    root = f"http://127.0.0.1:{srv.server_port}/"
    url_map = {f"http://{h}/": f"{root}{h}/"
               for h in ["big.test", *cold_hosts.values()]}
    cfg = CrawlConfig(
        url_array=cold_urls + hot_urls, extractor="css:h1.article-title",
        sleep_time_between_requests=delay, real_sleep=True, max_sleep=0.005,
        debug=False,
        hot_host_threshold=n_cold + 1, hot_host_salts=8,
        num_seen_shards=1, fetch_concurrency=shards)
    c = Crawler(cfg, ("http", {"url_map": url_map, "timeout": 5.0,
                               "max_retries": 1}))
    try:
        t = c.crawl().records_table()
    finally:
        c.shutdown()
        srv.shutdown()
    assert t.num_rows == n_hot + len(cold_urls)
    assert len(hot_hits) == n_hot, "one GET per hot URL"
    span = max(hot_hits) - min(hot_hits)
    assert span >= 0.9 * (n_hot - 1) * delay, \
        f"hot host fetched {n_hot} pages in {span:.3f} s"
