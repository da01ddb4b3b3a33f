"""The fetch kernel (``_FetchState.fetch``) under both walkers, with an
in-process seen set: one status rule for index pages, instance pages and
continuations, and one seen-set round trip per continuation level."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from upton_ray.config import CrawlConfig
from upton_ray.fetch import IndexWalker, InstanceWalker, fetch_counters

GOOD, BAD = "http://a.test/good.html", "http://a.test/bad.html"


class StubSeen:
    """The seen-handle methods the walkers call, over two Python sets;
    ``calls`` counts the round trips."""

    def __init__(self):
        self.seen, self.bad, self.calls = set(), set(), Counter()

    def check_and_add(self, urls):
        self.calls["check_and_add"] += 1
        out = []
        for u in urls:
            out.append(u not in self.seen)
            self.seen.add(u)
        return np.array(out, dtype=bool)

    def record_bad(self, urls):
        self.calls["record_bad"] += 1
        self.bad.update(urls)

    def bad_mask(self, urls):
        self.calls["bad_mask"] += 1
        return np.array([u in self.bad for u in urls], dtype=bool)

    def dump_bad(self):
        self.calls["dump_bad"] += 1
        return sorted(self.bad)


def _web(urls):
    return {u: [{"kind": "h1", "text": u, "media_ref": "", "offset": 0}]
            for u in urls}


def _facts(pages: pa.Table, url_col: str) -> list:
    lens = pc.list_value_length(pages["spans"]).to_pylist()
    return list(zip(pages[url_col].to_pylist(),
                    pages["from_resource"].to_pylist(),
                    pages["status"].to_pylist(), [n > 0 for n in lens]))


def _errors(pages: pa.Table) -> int:
    return fetch_counters(pages, 1, 0)["errors"][0].as_py()


def _cont(url, i):
    return (url.replace(".html", f"_page_{i}.html")
            if "_page_" not in url else "")


def test_cache_hits_read_status_zero():
    """A cache hit reads status 0 wherever it happens, an error answer is
    counted once (at its network fetch), and each page stays empty or full:
    a cached error page is empty, a cached good page is full."""
    overlay = {BAD: 404, GOOD.replace(".html", "_page_1.html"): 500}
    web = _web([GOOD, BAD, GOOD.replace(".html", "_page_1.html"),
                BAD.replace(".html", "_page_1.html")])

    # round 0: two seeds per index page, so each page's second walk hits
    cfg = CrawlConfig(index_url=GOOD, index_selector="a", index_debug=True,
                      status_overlay=overlay)
    seeds = pa.table({"seed_id": pa.array([0, 1, 2, 3], pa.int32()),
                      "url": [GOOD, GOOD, BAD, BAD],
                      "selector": ["a"] * 4})
    pages = IndexWalker(cfg, web, StubSeen())(seeds)
    assert _facts(pages, "url") == [
        (GOOD, True, 200, True), (GOOD, False, 0, True),
        (BAD, True, 404, False), (BAD, False, 0, False)]
    assert pages["slept"].to_pylist() == [True, False, True, False]
    assert _errors(pages) == 1

    # round 1, with one continuation level: GOOD's continuation answers
    # 500, BAD's main page 404 (so BAD has no continuation)
    cfg = CrawlConfig(url_array=[GOOD], status_overlay=overlay,
                      next_instance_page_url=_cont)
    batch = pa.table({"instance_index": pa.array([0, 1, 2, 3], pa.int64()),
                      "url": [GOOD, GOOD, BAD, BAD]})
    pages = InstanceWalker(cfg, web, StubSeen())(batch)
    page1 = GOOD.replace(".html", "_page_1.html")
    assert _facts(pages, "instance_url") == [
        (GOOD, True, 200, True), (GOOD, False, 0, True),
        (BAD, True, 404, False), (BAD, False, 0, False),
        (page1, True, 500, False), (page1, False, 0, False)]
    assert pages["slept"].to_pylist() == pages["from_resource"].to_pylist()
    assert _errors(pages) == 2

    # a good continuation page read from the stash is full and reads 0
    web2 = _web([GOOD, page1])
    pages = InstanceWalker(CrawlConfig(url_array=[GOOD],
                                       next_instance_page_url=_cont),
                           web2, StubSeen())(batch.slice(0, 2))
    assert _facts(pages, "instance_url")[2:] == [
        (page1, True, 200, True), (page1, False, 0, True)]
    assert _errors(pages) == 0


def test_continuations_batch_their_seen_rpcs():
    """N instances with one continuation each: the walker asks the seen set
    twice (the main batch and one continuation level), not N + 1 times."""
    n = 6
    urls = [f"http://h{i % 3}.test/p{i}.html" for i in range(n)]
    web = _web(urls + [u.replace(".html", "_page_1.html") for u in urls])
    seen = StubSeen()
    cfg = CrawlConfig(url_array=urls, next_instance_page_url=_cont)
    batch = pa.table({"instance_index": pa.array(range(n), pa.int64()),
                      "url": urls})
    pages = InstanceWalker(cfg, web, seen)(batch)
    assert pages.num_rows == 2 * n
    assert pages["pagination_index"].to_pylist() == [0] * n + [1] * n
    assert all(pc.list_value_length(pages["spans"]).to_pylist())
    assert seen.calls["check_and_add"] == 2
    assert seen.calls["bad_mask"] == 0, "no cache hit, no bad-set lookup"


def test_index_walker_snapshots_bad_set_only_when_index_pages_stash():
    """An index page is a cache hit only when ``index_debug`` stashes index
    pages, so only then does an IndexWalker pull the bad set; stashing
    instance pages alone (``debug``) pulls nothing."""
    web = _web([GOOD])
    seeds = pa.table({"seed_id": pa.array([0], pa.int32()), "url": [GOOD],
                      "selector": ["a"]})
    for index_debug, dumps in ((False, 0), (True, 1)):
        seen = StubSeen()
        cfg = CrawlConfig(index_url=GOOD, index_selector="a", debug=True,
                          index_debug=index_debug)
        pages = IndexWalker(cfg, web, seen)(seeds)
        assert pages.num_rows == 1
        assert seen.calls["dump_bad"] == dumps, index_debug
