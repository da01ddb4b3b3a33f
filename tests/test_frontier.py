"""Unit tests for politeness scheduling, hot-host salting, robots filtering
(pure python — no Ray session needed)."""

import numpy as np

from tests.conftest import crawl_seen
from upton_ray.frontier import HostScheduler, RobotsCache, salt_hosts


def hosts(urls):
    from upton_ray.urlops import hosts_of

    return hosts_of(np.array(urls, dtype=object))


class TestHostScheduler:
    def test_order_interleaves_hosts(self):
        s = HostScheduler(crawl_delay=1.0)
        urls = np.array(
            ["http://a.com/1", "http://a.com/2", "http://a.com/3",
             "http://b.com/1", "http://b.com/2"], dtype=object)
        order = s.order_batch(urls)
        got_hosts = [hosts([urls[i]])[0] for i in order]
        # earliest-deadline-first: a and b alternate until b runs out
        assert got_hosts[:4] != ["a.com"] * 4
        assert sorted(order.tolist()) == [0, 1, 2, 3, 4]

    def test_order_preserves_within_host_order(self):
        s = HostScheduler(crawl_delay=1.0)
        urls = np.array([f"http://a.com/{i}" for i in range(5)], dtype=object)
        order = s.order_batch(urls)
        assert order.tolist() == [0, 1, 2, 3, 4]

    def test_wait_turn_advances_deadline(self):
        s = HostScheduler(crawl_delay=10.0, real_sleep=False)
        w1 = s.wait_turn("a.com")
        w2 = s.wait_turn("a.com")
        assert w1 == 0.0
        assert w2 > 0.0          # second hit inside the delay window waits
        assert s.wait_turn("b.com") == 0.0   # other hosts unaffected

    def test_per_host_delay_override(self):
        s = HostScheduler(crawl_delay=1.0, per_host_delay={"slow.com": 100.0})
        s.wait_turn("slow.com")
        assert s.next_allowed["slow.com"] >= 100.0

    def test_leased_host_interleaves_with_unseen_hosts(self):
        """A host whose deadline is the current monotonic instant (a hot
        host's freshly leased window) is due now, like a never-fetched host:
        it interleaves with them instead of waiting behind all of them."""
        import time

        s = HostScheduler(crawl_delay=1.0, real_sleep=True)
        urls = np.array(
            [f"http://a.com/{i}" for i in range(3)]
            + [f"http://b.com/{i}" for i in range(3)]
            + [f"http://hot.com/{i}" for i in range(3)], dtype=object)
        s.next_allowed["hot.com"] = time.monotonic()
        order = s.order_batch(urls)
        got_hosts = [hosts([urls[i]])[0] for i in order]
        assert got_hosts[:3] == ["a.com", "b.com", "hot.com"]
        assert sorted(order.tolist()) == list(range(9))


class TestSaltHosts:
    def test_only_hot_hosts_salted(self):
        hs = np.array(["hot.com"] * 10 + ["cold.com"] * 2, dtype=object)
        out = salt_hosts(hs, frozenset({"hot.com"}), num_salts=3,
                         row_ids=np.arange(12))
        assert all(h.startswith("hot.com#s") for h in out[:10])
        assert list(out[10:]) == ["cold.com", "cold.com"]

    def test_salts_spread_round_robin(self):
        hs = np.array(["hot.com"] * 9, dtype=object)
        out = salt_hosts(hs, frozenset({"hot.com"}), num_salts=3,
                         row_ids=np.arange(9))
        assert len(set(out)) == 3

    def test_no_hot_hosts_is_identity(self):
        hs = np.array(["a.com", "b.com"], dtype=object)
        out = salt_hosts(hs, frozenset(), num_salts=3, row_ids=np.arange(2))
        assert out is hs


    def test_group_ids_do_not_depend_on_batching(self):
        """A resumed frontier is re-read with other batch boundaries; every
        row must still route to the fetch group it had before."""
        from upton_ray.engine import fetch_group_ids

        urls = np.array([f"http://hot.com/{i}" for i in range(40)]
                        + [f"http://c{i % 3}.com/{i}" for i in range(20)],
                        dtype=object)
        rows = np.random.default_rng(0).permutation(len(urls))
        urls, ids = urls[rows], rows.astype(np.int64)
        hot = frozenset({"hot.com"})

        def routed(cuts):
            return np.concatenate([
                fetch_group_ids(urls[a:b], ids[a:b], 4, hot, 8)
                for a, b in zip(cuts[:-1], cuts[1:])])

        one = routed([0, 60])
        is_hot = np.array([u.startswith("http://hot.com/") for u in urls])
        assert len(set(one[is_hot].tolist())) > 1, "the hot host is split"
        assert (routed([0, 7, 33, 34, 60]) == one).all()
        assert (routed(list(range(61))) == one).all()


class TestRobotsCache:
    def test_prefix_blocking(self):
        rc = RobotsCache({"x.com": ["/private", "/tmp"]})
        urls = np.array(["http://x.com/private/1", "http://x.com/public/1",
                         "http://y.com/private/1", "http://x.com/tmp"],
                        dtype=object)
        assert rc.allowed_mask(urls).tolist() == [False, True, True, False]

    def test_empty_rules_allow_all(self):
        rc = RobotsCache({})
        urls = np.array(["http://x.com/a"], dtype=object)
        assert rc.allowed_mask(urls).tolist() == [True]

    def test_host_without_path(self):
        rc = RobotsCache({"x.com": ["/"]})
        urls = np.array(["http://x.com"], dtype=object)
        assert rc.allowed_mask(urls).tolist() == [False]


def test_parse_robots_txt_groups_and_delay():
    from upton_ray.frontier import parse_robots_txt

    body = """
# comment
User-agent: googlebot
Disallow: /private
Crawl-delay: 2

User-agent: upton
User-agent: *
Disallow: /secret   # trailing comment
Disallow: /tmp
Crawl-delay: 0.5
"""
    dis, delay = parse_robots_txt(body)                     # falls to *
    assert dis == ["/secret", "/tmp"] and delay == 0.5
    dis_g, delay_g = parse_robots_txt(body, agent="googlebot")
    assert dis_g == ["/private"] and delay_g == 2.0
    dis_u, delay_u = parse_robots_txt(body, agent="upton")  # shared group
    assert dis_u == ["/secret", "/tmp"] and delay_u == 0.5
    assert parse_robots_txt("User-agent: *\nDisallow:") == ([], None)


def test_robots_txt_drives_fetch_state():
    """robots.txt bodies parse into disallow rules + per-host crawl delays
    inside the fetch state (T3 + per-host T2)."""
    from upton_ray.config import CrawlConfig
    from upton_ray.fetch import _FetchState

    cfg = CrawlConfig(
        respect_robots=True, sleep_time_between_requests=1.0,
        robots_txt={"a.test": "User-agent: *\nDisallow: /no\nCrawl-delay: 5",
                    "b.test": "User-agent: *\nDisallow:"},
        debug=False, index_debug=False)
    st = _FetchState(cfg, {}, None)
    ok = st.robots.allowed_mask(np.array(
        ["http://a.test/no/x", "http://a.test/yes", "http://b.test/no"],
        dtype=object))
    assert ok.tolist() == [False, True, True]
    assert st.sched.host_delay("a.test") == 5.0, "Crawl-delay overrides"
    assert st.sched.host_delay("b.test") == 1.0, "default politeness delay"


def test_fetch_robots_from_web(ray_session):
    """T3 completion: robots.txt bodies come from the crawled web itself
    (distributed probe), not only from a pre-supplied table — a disallowed
    path is blocked without fetch, and Crawl-delay feeds per-host pacing."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import _sp

    web = {
        "http://r.test/robots.txt": [
            _sp("pre", "User-agent: *\nDisallow: /secret\nCrawl-delay: 2", "", 0)],
        "http://r.test/index.html": [
            _sp("section#river/section/h1/a", "ok", "a.html", 0),
            _sp("section#river/section/h1/a", "no", "secret/b.html", 1)],
        "http://r.test/a.html": [_sp("h1.article-title", "Allowed", "", 0)],
        "http://r.test/secret/b.html": [
            _sp("h1.article-title", "Blocked", "", 0)],
    }
    cfg = CrawlConfig(
        index_url="http://r.test/index.html",
        index_selector="section#river section h1 a",
        extractor="css:h1.article-title",
        respect_robots=True, fetch_robots=True,
        sleep_time_between_requests=0,
        num_seen_shards=1, fetch_concurrency=1)
    c = Crawler(cfg, web)
    try:
        res = c.crawl()
        # /secret blocked without fetch -> empty record kept positionally
        assert res.documents() == ["Allowed", ""]
        assert "http://r.test/secret/b.html" not in crawl_seen(res)
        assert cfg.robots_txt["r.test"].startswith("User-agent")
        # pre-supplied bodies are operator overrides: not clobbered
        cfg2 = CrawlConfig(
            index_url="http://r.test/index.html",
            index_selector="section#river section h1 a",
            extractor="css:h1.article-title",
            respect_robots=True, fetch_robots=True,
            robots_txt={"r.test": "User-agent: *\nDisallow:"},
            sleep_time_between_requests=0,
            num_seen_shards=1, fetch_concurrency=1)
        c2 = Crawler(cfg2, web)
        try:
            res2 = c2.crawl()
            assert res2.documents() == ["Allowed", "Blocked"]
        finally:
            c2.shutdown()
    finally:
        c.shutdown()


def test_fetch_robots_https_scheme(ray_session):
    """An https-only host stores robots under https:// — the probe must
    derive the scheme from the seed URL (and fall back to the other scheme)
    instead of always asking http://."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import _sp

    web = {
        "https://s.test/robots.txt": [
            _sp("pre", "User-agent: *\nDisallow: /secret", "", 0)],
        "https://s.test/index.html": [
            _sp("section#river/section/h1/a", "ok", "a.html", 0),
            _sp("section#river/section/h1/a", "no", "secret/b.html", 1)],
        "https://s.test/a.html": [_sp("h1.article-title", "Allowed", "", 0)],
        "https://s.test/secret/b.html": [
            _sp("h1.article-title", "Blocked", "", 0)],
    }

    def cfg():
        return CrawlConfig(
            index_url="https://s.test/index.html",
            index_selector="section#river section h1 a",
            extractor="css:h1.article-title",
            respect_robots=True, fetch_robots=True,
            sleep_time_between_requests=0,
            num_seen_shards=1, fetch_concurrency=1)

    c = Crawler(cfg(), web)
    try:
        res = c.crawl()
        assert res.documents() == ["Allowed", ""]
        assert "https://s.test/secret/b.html" not in crawl_seen(res)
        assert cfg_robots_body(c).startswith("User-agent")
    finally:
        c.shutdown()

    # http-seeded host whose robots happens to live under https:// is still
    # found via the cross-scheme fallback probe
    web2 = {("http" + k[5:] if not k.endswith("robots.txt") else k): v
            for k, v in web.items()}
    cfg2 = CrawlConfig(
        index_url="http://s.test/index.html",
        index_selector="section#river section h1 a",
        extractor="css:h1.article-title",
        respect_robots=True, fetch_robots=True,
        sleep_time_between_requests=0,
        num_seen_shards=1, fetch_concurrency=1)
    c2 = Crawler(cfg2, web2)
    try:
        res2 = c2.crawl()
        assert res2.documents() == ["Allowed", ""]
    finally:
        c2.shutdown()


def cfg_robots_body(c) -> str:
    return c.cfg.robots_txt["s.test"]
