"""Real-HTTP fetch path: HttpWebStore + html_to_spans conformance.

The reference's raison d'être is RestClient GETs
(/root/reference/lib/upton/downloader.rb:46-68).  These tests stand up a
REAL localhost HTTP server and drive the same golden RSpec-conformance
scenarios through :class:`upton_ray.fetch.HttpWebStore` that the dict /
parquet stores pass — plus the HTML parse leg (htmlspans) and the
downloader semantics (error statuses → empty page, LRU stash, bounded
retry)."""

import copy
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tests.conftest import crawl_seen, crawl_sleeps, index_order
from upton_ray.htmlspans import html_to_spans
from upton_ray.oracle import UptonOracle
from upton_ray.scenarios import scenario_configs
from upton_ray.synth import BASE

CFGS = scenario_configs()
# same pure fetch/extract scenarios the parquet-store conformance runs
NAMES = ["basic", "relative", "list", "table", "paginated",
         "paginated_error", "instance_error", "dedup_stash", "continuation"]


@pytest.fixture(scope="module")
def http_web(fixture_web):
    """Serve the RSpec fixture web over localhost HTTP as JSON span docs
    (404 for anything not in the corpus)."""
    web = fixture_web

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            url = BASE + self.path.lstrip("/")
            spans = web.get(url)
            if spans is None:
                self.send_error(404)
                return
            body = json.dumps(spans).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):      # silence per-request stderr lines
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield ("http", {"url_map": {BASE: f"http://127.0.0.1:{srv.server_port}/"},
                    "timeout": 5.0, "max_retries": 1})
    srv.shutdown()


@pytest.mark.parametrize("name", NAMES)
def test_scenario_over_http(name, ray_session, fixture_web, http_web):
    """The golden crawls byte-match the sequential oracle when every page
    body arrives via a real HTTP GET."""
    from upton_ray.engine import Crawler

    cfg = CFGS[name]
    oracle = UptonOracle(copy.deepcopy(cfg), fixture_web).scrape()
    res = Crawler(cfg, http_web).crawl()
    assert res.documents() == oracle.documents, f"{name}: documents differ"
    if cfg.url_array is None:
        assert index_order(cfg, http_web) == oracle.index_urls, \
            f"{name}: index order differs"
    assert crawl_seen(res) == oracle.seen, f"{name}: URL-seen set differs"
    assert crawl_sleeps(res) == oracle.sleeps, f"{name}: sleep count differs"


def test_store_equivalence_and_lru(http_web, fixture_web):
    """Store-level contract: every fixture page round-trips the network
    identically to the dict store; misses are None; the LRU absorbs the
    walkers' page_len + lookup_table double hit (ONE GET per URL)."""
    from upton_ray.fetch import DictWebStore, make_store

    http_store = make_store(http_web)
    dict_store = DictWebStore(fixture_web)
    urls = sorted(fixture_web)
    for u in urls:
        assert http_store.lookup_one(u) == dict_store.lookup_one(u), u
    n_after_first = http_store.n_requests
    assert n_after_first == len(urls)
    # second pass (page_len + lookup_table) is served from the LRU
    for u in urls:
        assert http_store.page_len(u) == dict_store.page_len(u)
    tab = http_store.lookup_table(urls)
    assert len(tab) == len(urls)
    assert http_store.n_requests == n_after_first
    # a miss GETs (404), returns None, and is cached as a miss too
    assert http_store.lookup_one(BASE + "nope.html") is None
    assert http_store.page_len(BASE + "nope.html") is None
    assert http_store.n_requests == n_after_first + 1


def _serve(handler_cls):
    srv = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


def test_keepalive_connection_pooling():
    """An HTTP/1.1 server gets ONE TCP connection for a whole sequence of
    GETs (the round-5 pooling fix: urllib used to open one per GET); an
    HTTP/1.0 server that closes per response still round-trips correctly,
    one connection per GET, with exact n_requests accounting."""
    from upton_ray.fetch import HttpWebStore

    conn_count = {"n": 0}

    class KeepAlive(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):                      # one call per TCP connection
            conn_count["n"] += 1
            super().setup()

        def do_GET(self):
            body = json.dumps(
                [{"kind": "p", "text": self.path,
                  "media_ref": "", "offset": 0}]).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = _serve(KeepAlive)
    try:
        base = f"http://127.0.0.1:{srv.server_port}"
        store = HttpWebStore(cache_pages=2)   # tiny LRU: no cache hits
        for i in range(8):
            got = store.lookup_one(f"{base}/p{i}.html")
            assert got == [{"kind": "p", "text": f"/p{i}.html",
                            "media_ref": "", "offset": 0}]
        assert store.n_requests == 8
        assert conn_count["n"] == 1, \
            f"keep-alive server should see 1 pooled conn, saw {conn_count}"
    finally:
        srv.shutdown()

    class CloseEach(KeepAlive):
        protocol_version = "HTTP/1.0"         # server closes every response

    conn_count["n"] = 0
    srv = _serve(CloseEach)
    try:
        base = f"http://127.0.0.1:{srv.server_port}"
        store = HttpWebStore(cache_pages=2)
        for i in range(4):
            assert store.lookup_one(f"{base}/q{i}.html") is not None
        # will_close drops the pooled entry up front: exactly one
        # connection per GET and never a stale-reuse error/extra count
        assert store.n_requests == 4
        assert conn_count["n"] == 4
    finally:
        srv.shutdown()


def test_multi_host_batch_is_host_sharded():
    """lookup_table fans cache-miss hosts across threads (auto
    max_workers = distinct hosts) while each host's GETs stay sequential
    on its own pooled connection — order within a host is pinned by the
    server-side request log."""
    from upton_ray.fetch import HttpWebStore

    logs = []

    def make_handler(log):
        class H(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                log.append(self.path)
                body = json.dumps(
                    [{"kind": "p", "text": self.path,
                      "media_ref": "", "offset": 0}]).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass
        return H

    srvs = []
    for _ in range(3):
        log = []
        logs.append(log)
        srvs.append(_serve(make_handler(log)))
    try:
        urls = []
        for srv in srvs:
            urls += [f"http://127.0.0.1:{srv.server_port}/a{i}.html"
                     for i in range(5)]
        store = HttpWebStore()                # max_workers=None -> auto
        tab = store.lookup_table(urls)
        assert len(tab) == len(urls)
        got = [row[0]["text"] for row in tab.to_pylist()]
        assert got == [f"/a{i}.html" for _ in srvs for i in range(5)]
        assert store.n_requests == len(urls)
        for log in logs:                      # per-host sequential order
            assert log == [f"/a{i}.html" for i in range(5)]
    finally:
        for srv in srvs:
            srv.shutdown()


def test_batch_larger_than_lru_fetches_each_url_once():
    """Regression: a sharded batch BIGGER than ``cache_pages`` must not
    round-trip its prefetched results through the LRU — doing so evicted
    the batch's own prefetches and re-fetched them sequentially (measured
    0.85x sequential on an RTT-bound 8-host batch before the fix).  Exact
    n_requests accounting is the proof: one GET per distinct URL."""
    from upton_ray.fetch import HttpWebStore

    logs = []

    def make_handler(log):
        class H(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                log.append(self.path)
                body = json.dumps(
                    [{"kind": "p", "text": self.path,
                      "media_ref": "", "offset": 0}]).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):
                pass
        return H

    srvs = []
    for _ in range(3):
        log = []
        logs.append(log)
        srvs.append(_serve(make_handler(log)))
    try:
        urls = []
        for srv in srvs:
            urls += [f"http://127.0.0.1:{srv.server_port}/b{i}.html"
                     for i in range(8)]
        store = HttpWebStore(cache_pages=4)   # LRU << batch size
        tab = store.lookup_table(urls)
        assert len(tab) == len(urls)
        got = [row[0]["text"] for row in tab.to_pylist()]
        assert got == [f"/b{i}.html" for _ in srvs for i in range(8)]
        assert store.n_requests == len(urls), \
            "prefetched results must not be re-fetched via LRU eviction"
        for log in logs:                      # still one GET per URL
            assert log == [f"/b{i}.html" for i in range(8)]
    finally:
        for srv in srvs:
            srv.shutdown()


def test_connection_error_maps_to_empty_page():
    """Unreachable host: bounded retry, then the empty page — never an
    exception out of the fetch stage (downloader.rb timeout analog, but
    BOUNDED per T4)."""
    from upton_ray.fetch import HttpWebStore

    store = HttpWebStore(timeout=0.2, max_retries=1)
    assert store.lookup_one("http://127.0.0.1:9/unreachable") is None
    assert store.n_requests == 2        # initial + 1 retry


def test_html_crawl_over_http(ray_session):
    """End-to-end over real HTML bodies: a mini index → instance crawl whose
    pages are served as text/html and parsed by html_to_spans on fetch."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    pages = {
        "/index.html": """<html><body>
            <div id="header"><a href="/">Home</a></div>
            <section id="river">
              <section><h1><a href="art1.html">First story</a></h1></section>
              <section><h1><a href="art2.html">Second story</a></h1></section>
            </section>
            <div id="footer"><a href="about.html">About</a></div>
            </body></html>""",
        "/art1.html": """<html><body>
            <h1 class="article-title">Headline One</h1>
            <p>Body one.</p></body></html>""",
        "/art2.html": """<html><body>
            <h1 class="article-title">Headline Two</h1>
            <p>Body two.</p></body></html>""",
    }

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            body = pages.get(self.path)
            if body is None:
                self.send_error(404)
                return
            data = body.encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *a):
            pass

    srv = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        base = f"http://127.0.0.1:{srv.server_port}/"
        cfg = CrawlConfig(index_selector="section#river section h1 a",
                          extractor="css:h1.article-title",
                          sleep_time_between_requests=0,
                          num_seen_shards=2, fetch_concurrency=2)
        c = Crawler(cfg, ("http", {}),
                    seeds=[(0, base + "index.html",
                            "section#river section h1 a")])
        res = c.crawl()
        t = res.records_table()   # consume BEFORE shutdown (lazy Dataset)
        c.shutdown()
        got = sorted(zip(t["instance_url"].to_pylist(),
                         [r[0] if r else "" for r in
                          t["record"].to_pylist()]))
        assert got == [(base + "art1.html", "Headline One"),
                       (base + "art2.html", "Headline Two")]
    finally:
        srv.shutdown()


# ------------------------------------------------------- html_to_spans unit


def test_html_to_spans_paths_and_kinds():
    spans = html_to_spans("""
        <html><head><title>t</title><script>var x=1;</script></head><body>
        <section id="river"><section><h1><a href="a.html">Story</a></h1>
        </section></section>
        <div id="jamb" class="wNarrow"><div id="most-commented"><ul>
          <li><a href="b.html">Items <b>bold</b> tail</a></li>
        </ul></div></div>
        <h1 class="article-title">Headline</h1>
        <p>  Some   text  </p>
        <img src="assets/x.jpg">
        <a>nil href kept</a>
        </body></html>""")
    by_kind = {s["kind"]: s for s in spans}
    # html/body/head dropped; full element paths; anchors carry inner text
    a1 = by_kind["section#river/section/h1/a"]
    assert a1["text"] == "Story" and a1["media_ref"] == "a.html"
    a2 = by_kind["div#jamb.wNarrow/div#most-commented/ul/li/a"]
    assert a2["text"] == "Items bold tail" and a2["media_ref"] == "b.html"
    assert by_kind["h1.article-title"]["text"] == "Headline"
    assert by_kind["p"]["text"] == "Some text"     # whitespace collapsed
    assert by_kind["media.img"]["media_ref"] == "assets/x.jpg"
    assert by_kind["a"]["media_ref"] == ""         # nil-href row KEPT (Q2)
    assert "title" in by_kind                      # head content visible? no:
    # (title sits under head → dropped segment, but its text is still a
    # span with kind "title"; script content must NOT appear anywhere)
    assert not any("var x" in s["text"] for s in spans)
    # offsets strictly increasing from 0
    assert [s["offset"] for s in spans] == list(range(len(spans)))


def test_html_to_spans_table_ordinals():
    spans = html_to_spans("""
        <table class="wikitable"><tr><th>Decoy</th></tr></table>
        <table class="wikitable">
          <tr><th>H1</th><th>H2</th></tr>
          <tr><td>a</td><td>b</td></tr>
        </table>""")
    kinds = [s["kind"] for s in spans]
    assert "table.wikitable[1]/tr[1]/th[1]" in kinds
    assert "table.wikitable[2]/tr[1]/th[2]" in kinds
    assert "table.wikitable[2]/tr[2]/td[2]" in kinds
    cell = {s["kind"]: s["text"] for s in spans}
    assert cell["table.wikitable[2]/tr[2]/td[1]"] == "a"


def test_html_to_spans_malformed_never_raises():
    spans = html_to_spans("<div><p>unclosed<a href='x'>link")
    texts = {s["text"] for s in spans}
    assert "unclosed" in texts and "link" in texts


def test_multi_host_live_politeness(ray_session):
    """VERDICT r4 item 3 (close): pacer accounting holds over LIVE HTTP
    across hosts — per-host request spacing at the server respects the
    politeness budget, while distinct hosts proceed concurrently (total
    wall far below the global-serial bound)."""
    import time as _time

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import _article, _page

    hosts = [f"http://h{i}.example/" for i in range(3)]
    n_art = 6
    web = {}
    for hi, h in enumerate(hosts):
        idx = []
        for a in range(n_art):
            slug = f"h{hi}a{a}"
            web[h + f"{slug}.html"] = _article(slug, f"Headline {slug}")
            idx.append(("section#river/section/h1/a",
                        f"Headline {slug}", f"{slug}.html"))
        web[h + "index.html"] = _page(*idx)

    lock = threading.Lock()
    hits: list[tuple[str, float]] = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            # path = /h<i>.example/<page> (the url_map prefix keeps the
            # original host name as the first segment)
            _, hseg, name = self.path.split("/", 2)
            url = f"http://{hseg}/" + name
            with lock:
                hits.append((hseg, _time.monotonic()))
            spans = web.get(url)
            if spans is None:
                self.send_error(404)
                return
            body = json.dumps(spans).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = _serve(Handler)
    try:
        url_map = {h: f"http://127.0.0.1:{srv.server_port}/h{i}.example/"
                   for i, h in enumerate(hosts)}
        delay = 0.2
        cfg = CrawlConfig(
            index_selector="section#river section h1 a",
            extractor="css:h1.article-title",
            sleep_time_between_requests=delay,
            real_sleep=True, max_sleep=delay,
            debug=False)
        seeds = [(i, h + "index.html", cfg.index_selector)
                 for i, h in enumerate(hosts)]
        src = ("http", {"url_map": url_map, "timeout": 5.0,
                        "max_retries": 1})
        t0 = _time.monotonic()
        res = Crawler(cfg, src, seeds=seeds).crawl()
        docs = res.documents()
        wall = _time.monotonic() - t0

        assert sorted(docs) == sorted(
            f"Headline h{hi}a{a}" for hi in range(3) for a in range(n_art))
        assert crawl_sleeps(res) == 3 * (1 + n_art)   # reference accounting: one
        # politeness sleep per fetched page (index + each article)

        per_host_pages = 1 + n_art                 # index + articles
        assert len(hits) == 3 * per_host_pages     # LRU: ONE GET per URL

        # per-host pacing at the SERVER: consecutive GETs of one host are
        # spaced by the politeness budget (generous jitter margins)
        for hseg in {h for h, _ in hits}:
            ts = sorted(t for h, t in hits if h == hseg)
            gaps = [b - a for a, b in zip(ts, ts[1:])]
            assert len(gaps) == per_host_pages - 1
            assert min(gaps) >= 0.25 * delay, (hseg, gaps)
            med = sorted(gaps)[len(gaps) // 2]
            assert med >= 0.5 * delay, (hseg, gaps)

        # hosts overlap ON THE WIRE: judge concurrency from the server-side
        # hit timeline, not the driver wall — the crawl pays ~2 s of fixed
        # Ray overhead (groupby setup, record collect) that does not scale
        # with pages and once swamped a wall-based bound (first committed
        # form of this test).  Judge it against the OBSERVED per-host spans
        # rather than the nominal paced time: CPU contention stretches every
        # host's paced stream equally (one full-suite run saw 3.8 s against
        # a nominal 3.15 s bound while the hosts still overlapped perfectly),
        # so absolute-time bounds flake under load but the span/sum ratio is
        # load-invariant — serialized execution gives span >= sum of host
        # spans, full overlap gives span ~= max host span + start skew.
        all_ts = sorted(t for _, t in hits)
        span = all_ts[-1] - all_ts[0]
        host_spans = {h: (max(t for hh, t in hits if hh == h)
                          - min(t for hh, t in hits if hh == h))
                      for h, _ in hits}
        assert span < 0.75 * sum(host_spans.values()), (span, host_spans)
        assert span < 1.8 * max(host_spans.values()), (span, host_spans)
        # every host's fetch window overlaps every other's
        firsts = {h: min(t for hh, t in hits if hh == h) for h, _ in hits}
        lasts = {h: max(t for hh, t in hits if hh == h) for h, _ in hits}
        assert max(firsts.values()) < min(lasts.values()), (firsts, lasts)
        # the timeline actually interleaves hosts (serial would switch
        # hosts exactly twice across the whole timeline)
        order = [h for h, _ in sorted(hits, key=lambda p: p[1])]
        switches = sum(a != b for a, b in zip(order, order[1:]))
        assert switches > per_host_pages, (switches, order)
        # and the span respects the single-host paced floor
        assert span >= 0.6 * (per_host_pages - 1) * delay, span
        assert wall >= span
    finally:
        srv.shutdown()


def test_first_instance_fetch_keeps_delay_after_index(ray_session):
    """Per-host politeness across the round boundary, on the wire: round 1
    starts with walkers of its own, so its first GET of a host must still
    come a full delay after round 0's last GET of that host (the reference
    sleeps after every fetch)."""
    import time as _time

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import _article, _page

    host, delay = "http://h0.example/", 0.4
    web = {host + f"a{a}.html": _article(f"a{a}", f"Headline {a}")
           for a in range(2)}
    web[host + "index.html"] = _page(*[
        ("section#river/section/h1/a", f"Headline {a}", f"a{a}.html")
        for a in range(2)])
    hits: list[float] = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            hits.append(_time.monotonic())
            _, hseg, name = self.path.split("/", 2)
            body = json.dumps(web.get(f"http://{hseg}/" + name, [])).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = _serve(Handler)
    try:
        cfg = CrawlConfig(
            index_selector="section#river section h1 a",
            extractor="css:h1.article-title",
            sleep_time_between_requests=delay, real_sleep=True,
            max_sleep=delay, debug=False)
        src = ("http", {"url_map": {host: f"http://127.0.0.1:"
                                          f"{srv.server_port}/h0.example/"},
                        "timeout": 5.0, "max_retries": 1})
        # the second crawl runs on warm worker processes, where the round
        # boundary is shortest
        for _ in range(2):
            hits.clear()
            c = Crawler(cfg, src,
                        seeds=[(0, host + "index.html", cfg.index_selector)])
            t = c.crawl().records_table()
            c.shutdown()
            assert t.num_rows == 2
            assert len(hits) == 3, "the index page and two articles"
            gaps = [b - a for a, b in zip(hits, hits[1:])]
            assert min(gaps) >= 0.9 * delay, gaps
    finally:
        srv.shutdown()


def test_partial_lookups_take_only_their_pins():
    """A lookup takes only the prefetched pins of the URLs it asks for:
    after paced prefetches, two partial lookups (the walker looks bodies
    up inside its politeness waits) still make one GET per URL."""
    from upton_ray.fetch import HttpWebStore

    log: list = []

    class H(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            log.append(self.path)
            body = json.dumps([{"kind": "p", "text": self.path,
                                "media_ref": "", "offset": 0}]).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = _serve(H)
    try:
        urls = [f"http://127.0.0.1:{srv.server_port}/p{i}.html"
                for i in range(6)]
        store = HttpWebStore(cache_pages=2)   # LRU smaller than the pins
        for u in urls:
            store.prefetch(u)
        first = store.lookup_table(urls[:2]).to_pylist()
        rest = store.lookup_table(urls[2:]).to_pylist()
        assert [r[0]["text"] for r in first + rest] == \
            [f"/p{i}.html" for i in range(6)]
        assert log == [f"/p{i}.html" for i in range(6)], "one GET per URL"
        assert store.n_requests == len(urls)
    finally:
        srv.shutdown()


def test_paced_cache_hit_waits_for_its_fetch():
    """A paced batch that holds a cache hit of a URL it fetches later over
    the network sends that GET only at the URL's paced slot, once: the hit
    takes the fetch's body instead of being looked up ahead of the wait."""
    import time as _time

    from tests.test_fetch_kernel import StubSeen
    from upton_ray.config import CrawlConfig
    from upton_ray.fetch import InstanceWalker

    import pyarrow as pa

    hits: list = []

    class H(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):
            hits.append((self.path, _time.monotonic()))
            body = json.dumps([{"kind": "p", "text": self.path,
                                "media_ref": "", "offset": 0}]).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *a):
            pass

    srv = _serve(H)
    try:
        delay = 0.2
        urls = ["http://a.test/2", "http://a.test/1", "http://a.test/1"]
        cfg = CrawlConfig(url_array=urls, sleep_time_between_requests=delay,
                          real_sleep=True, max_sleep=delay, debug=True)
        src = ("http", {"url_map": {"http://a.test/": f"http://127.0.0.1:"
                                                      f"{srv.server_port}/"},
                        "timeout": 5.0, "max_retries": 1})
        batch = pa.table({"instance_index": pa.array([0, 1, 2], pa.int64()),
                          "url": urls})
        pages = InstanceWalker(cfg, src, StubSeen())(batch)
        assert [s[0]["text"] for s in pages["spans"].to_pylist()] == \
            ["/2", "/1", "/1"]
        assert pages["from_resource"].to_pylist() == [True, True, False]
        assert [p for p, _ in hits] == ["/2", "/1"], "one GET per URL"
        gap = hits[1][1] - hits[0][1]
        assert gap >= 0.9 * delay, gap
    finally:
        srv.shutdown()
