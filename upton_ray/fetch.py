"""Fetch stage: web stores (the in-sandbox "HTTP") and the two fetch walkers.

The reference's downloader (/root/reference/lib/upton/downloader.rb) does one
HTTP GET per URL with a filesystem stash; errors map to the empty page
(404/500/503/invalid -> "", timeout -> retry; downloader.rb:50-68).  Here:

* a *web store* stands in for the network: a point lookup of ``doc_id == url``
  into the span-document corpus (dict / partitioned parquet / pure generator);
* the *stash* is the sharded :class:`upton_ray.seen.SeenSet` (fetch-once
  accounting) — since the sandbox web is immutable, a "cache read" is an
  idempotent re-lookup that must NOT count as a network fetch nor sleep
  (quirk Q8, upton.rb:219-224);
* *politeness* is the per-host deadline heap (:mod:`upton_ray.frontier`);
* *errors* map to empty span lists with the row kept positionally (M7/M8).
  ``cfg.status_overlay`` is status-only fault injection: a listed URL
  answers with its status at once, with no retry.  The bounded timeout
  retry (``max_retries``; the reference's ``retry`` is infinite) lives in
  :class:`HttpWebStore`, the store that talks to a real network.

Every page goes through one batched kernel, :meth:`_FetchState.fetch` (the
reference's ``get_page``, upton.rb:206-225): one seen-set check, the error
answers, one politeness loop and one body lookup.  Its status rule: a row's
``status`` is the answer of its network fetch, 0 when none happened (a
cache hit, also of a stashed error page; a robots-blocked row; an empty
URL), so a fetch counter means the same in every round.

``IndexWalker`` runs the inherently-sequential per-seed pagination chain (P2:
early-stop on empty page) — parallel across seeds, sequential within one.
``InstanceWalker`` fetches frontier batches vectorized, including the
depth-limited instance-continuation quirk (P4/Q5, upton.rb:321-334), one
level of every chain per kernel call.
Both run as plain Ray tasks through :func:`per_process`: each worker process
builds a stage's walker (store/scheduler/robots state) once and reuses it
for every later batch, with no actor pool to start per crawl.
"""

from __future__ import annotations

import time
import uuid
from collections import Counter, OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from upton_ray import schema, synth
from upton_ray.config import CrawlConfig
from upton_ray.frontier import HostScheduler, RobotsCache
from upton_ray.urlops import (host_of, hosts_of, next_index_page_url,
                              resolve_url)

EMPTY_SPANS: list = []
LOOKUP_CHUNK = 16     # bodies looked up at once inside a politeness wait
HOST_MEMO_SIZE = 65536   # hosts a ParquetWebStore keeps the bucket of

# the rows InstanceWalker emits: one per fetched instance page
FETCHED_OUT = pa.schema([
    ("instance_index", pa.int64()), ("pagination_index", pa.int32()),
    ("instance_url", pa.string()), ("spans", schema.SPANS),
    ("from_resource", pa.bool_()), ("slept", pa.bool_()),
    ("status", pa.int32()), ("robots_blocked", pa.bool_()),
])

# the rows a crawl keeps of IndexWalker's output: one per fetched index page
INDEX_PAGES = pa.schema([
    ("url", pa.string()), ("from_resource", pa.bool_()),
    ("slept", pa.bool_()), ("status", pa.int32()),
])


# ----------------------------------------------------------------- web stores


class DictWebStore:
    """In-memory corpus ({url: [span]}), broadcast once via ray.put and shared
    zero-copy-ish by every fetch worker. For fixture webs and small runs."""

    def __init__(self, web: dict[str, list[dict]]):
        self.web = web

    def lookup_one(self, url: str):
        return self.web.get(url)

    def page_len(self, url: str):
        spans = self.web.get(url)
        return None if spans is None else len(spans)

    def lookup_table(self, urls) -> pa.Array:
        return schema.spans_array([self.web.get(u) or EMPTY_SPANS for u in urls])


class GeneratorWebStore:
    """Pure-function corpus: page spans are regenerated from the URL
    (synth.gen_page). Storage-free stand-in for network fetch at any scale."""

    def __init__(self, params: synth.ScaleParams):
        self.params = params

    def lookup_one(self, url: str):
        return synth.gen_page(self.params, url)

    def page_len(self, url: str):
        spans = synth.gen_page(self.params, url)
        return None if spans is None else len(spans)

    def lookup_table(self, urls) -> pa.Array:
        return schema.spans_array(
            [synth.gen_page(self.params, u) or EMPTY_SPANS for u in urls])


class ParquetWebStore:
    """Point lookups into a parquet/lance corpus of WEB-schema documents.

    Expects the corpus laid out by :func:`upton_ray.sinks.write_web`
    (hash-bucketed by host, files sorted by doc_id) so a batch lookup only
    scans the buckets its URLs live in (predicate pushdown on the bucket
    partition column + doc_id row-group stats).
    """

    def __init__(self, path: str, num_buckets: int, cache_buckets: int = 4):
        import pyarrow.dataset as pads

        self.ds = pads.dataset(path, format="parquet", partitioning="hive")
        self.num_buckets = num_buckets
        # per-walker LRU of loaded buckets: the frontier arrives in seed (host)
        # order, so consecutive batches hit the same bucket(s); at 10^10 scale
        # shrink bucket size (more buckets), not this cache
        self._cache: dict[int, tuple[pa.Table, dict]] = {}
        self._cache_max = cache_buckets
        self._host_bucket: dict[str, int] = {}

    def _buckets(self, urls: np.ndarray) -> np.ndarray:
        from upton_ray.urlops import shard_hashes

        return shard_hashes(hosts_of(urls), self.num_buckets)

    def _bucket_of(self, url: str) -> int:
        """:meth:`_buckets` of one URL, memoized per host (up to
        ``HOST_MEMO_SIZE`` hosts): round 0's chain walks probe one page at
        a time."""
        h = host_of(url) if isinstance(url, str) else ""
        b = self._host_bucket.get(h)
        if b is None:
            if len(self._host_bucket) >= HOST_MEMO_SIZE:
                self._host_bucket.clear()
            b = self._host_bucket[h] = int(self._buckets(
                np.array([url], dtype=object))[0])
        return b

    def _bucket_pool(self, b: int) -> tuple[pa.Array, dict, "np.ndarray"]:
        """(spans pool with trailing empty-sentinel row, url->row index) for a
        bucket; built once and LRU-cached per walker."""
        import pyarrow.dataset as pads

        hit = self._cache.pop(b, None)
        if hit is None:
            t = self.ds.to_table(filter=pads.field("bucket") == int(b),
                                 columns=["doc_id", "spans"]).combine_chunks()
            spans_col = t["spans"]
            if isinstance(spans_col, pa.ChunkedArray):
                spans_col = spans_col.combine_chunks()
            pool = pa.concat_arrays([spans_col, schema.spans_array([EMPTY_SPANS])])
            lens = pc.list_value_length(pool).to_numpy(zero_copy_only=False)
            hit = (pool, {u: i for i, u in enumerate(t["doc_id"].to_pylist())}, lens)
        self._cache[b] = hit           # re-insert = most-recently-used
        while len(self._cache) > self._cache_max:
            self._cache.pop(next(iter(self._cache)))
        return hit

    def lookup_table(self, urls) -> pa.Array:
        arr = np.asarray(urls, dtype=object)
        if len(arr) == 0:
            return schema.spans_array([])
        buckets = self._buckets(arr)
        uniq = np.unique(buckets)
        if len(uniq) == 1:
            pool, pos, _ = self._bucket_pool(int(uniq[0]))
            miss = len(pool) - 1
            idx = np.fromiter((pos.get(u, miss) for u in arr),
                              dtype=np.int64, count=len(arr))
            return pool.take(pa.array(idx))
        order = np.empty(len(arr), dtype=np.int64)
        out_parts = []
        for b in uniq:
            rows = np.flatnonzero(buckets == b)
            pool, pos, _ = self._bucket_pool(int(b))
            miss = len(pool) - 1
            idx = np.fromiter((pos.get(u, miss) for u in arr[rows]),
                              dtype=np.int64, count=len(rows))
            out_parts.append((rows, pool.take(pa.array(idx))))
        # stitch per-bucket results back to input order
        taken = pa.concat_arrays([p[1].combine_chunks()
                                  if isinstance(p[1], pa.ChunkedArray) else p[1]
                                  for p in out_parts])
        offs = 0
        for rows, part in out_parts:
            order[rows] = np.arange(offs, offs + len(rows))
            offs += len(rows)
        return taken.take(pa.array(order))

    def lookup_one(self, url: str):
        pool, pos, _ = self._bucket_pool(self._bucket_of(url))
        i = pos.get(url)
        if i is None:
            return None
        return pool[i].as_py() or None

    def page_len(self, url: str):
        """Span count of a page without materializing it (None = not in web)."""
        pool, pos, lens = self._bucket_pool(self._bucket_of(url))
        i = pos.get(url)
        return None if i is None else int(lens[i])


class LanceWebStore(ParquetWebStore):
    """Point lookups into a Lance corpus (north_rule's preferred format):
    identical layout contract to the parquet store — same logical schema,
    same host-hash ``bucket`` column — with Lance's scanner doing the bucket
    filter.  ``lance.dataset(...).to_table(columns=…, filter=…)`` accepts
    the same pyarrow expression the parquet path uses, so the bucket-pool /
    LRU machinery is shared wholesale.  Requires the ``lance`` package
    (absent in this sandbox; tests/test_sinks_lance.py importorskips)."""

    def __init__(self, path: str, num_buckets: int, cache_buckets: int = 4):
        import lance

        self.ds = lance.dataset(path)
        self.num_buckets = num_buckets
        self._cache = {}
        self._cache_max = cache_buckets
        self._host_bucket = {}


class HttpWebStore:
    """A REAL network fetch: one HTTP GET per URL — the reference's core
    capability (lib/upton/downloader.rb:46-68), absent from this engine
    until round 4.  Same store interface as the corpus stores, so every
    walker / politeness / robots / stash mechanism applies unchanged.

    Semantics mirror the reference downloader:

    * 404 / 500 / 503 (any HTTP error status) → the empty page
      (``None`` here; the walkers map it to an empty span list with the
      row kept positionally — M8, downloader.rb:50-57);
    * timeouts / connection errors → BOUNDED retry with backoff
      (``max_retries``; the reference's bare ``retry`` is unbounded —
      T4 deliberately bounds it), then the empty page;
    * response bodies become span documents: ``application/json`` bodies
      are parsed as the native span-row list, anything else goes through
      :func:`upton_ray.htmlspans.html_to_spans` (the Nokogiri-parse
      analog, upton.rb:281);
    * a small per-store LRU (the downloader's stash analog) absorbs the
      walkers' ``page_len`` probe + ``lookup_table`` double hit without
      a second GET; ``n_requests`` counts true network GETs for tests.

    Connections are POOLED per (scheme, host): one persistent keep-alive
    ``http.client`` connection per host per store, reused across GETs
    (VERDICT r4: urllib opened a fresh TCP connection per GET).  A
    response that announces ``Connection: close`` drops the pooled entry
    so HTTP/1.0 servers cost nothing extra; a stale keep-alive socket
    (server idled out between batches) gets ONE free immediate reconnect
    that consumes neither a retry nor an ``n_requests`` count.

    Batch GETs are host-sharded: ``lookup_table`` groups its cache misses
    by host and fetches hosts in parallel while staying STRICTLY
    SEQUENTIAL within each host (the reference is sequential; per-host
    pacing/politeness stays with the walkers' host scheduler, and a
    host's pooled connection is only ever owned by one worker thread).
    ``max_workers=None`` (default) sizes the pool to the batch's distinct
    hosts, capped at 16 — i.e. the host-shard width; ``max_workers=1``
    forces the reference's fully sequential order.

    ``url_map`` rewrites URL prefixes before the GET (test plumbing: a
    fixture web keyed by ``http://www.example.com/`` can be served from
    ``http://127.0.0.1:<port>/``) — crawl outputs still carry the
    original URLs.
    """

    MAX_HOST_WORKERS = 16                 # auto max_workers cap

    def __init__(self, url_map: dict[str, str] | None = None,
                 timeout: float = 10.0, max_retries: int = 3,
                 cache_pages: int = 256, max_workers: int | None = None):
        import threading

        self.url_map = dict(url_map or {})
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_workers = max_workers    # None = auto (distinct hosts)
        self._cache: dict[str, list | None] = {}
        self._cache_max = cache_pages
        self._pinned: dict[str, list | None] = {}   # paced prefetches
        self._conns: dict[tuple, object] = {}   # (scheme, netloc) -> conn
        self._n_lock = threading.Lock()
        self.n_requests = 0

    def _target(self, url: str) -> str:
        for pre, to in self.url_map.items():
            if url.startswith(pre):
                return to + url[len(pre):]
        return url

    def _count(self, delta: int = 1):
        with self._n_lock:
            self.n_requests += delta

    def _http_get(self, target: str, redirects: int = 5):
        """One GET over the per-host pooled connection; returns
        (body, content_type) or None for the empty page.  Error model
        mirrors the old urllib path exactly: HTTP status >= 400 -> None,
        invalid URL -> None, timeout/conn errors -> bounded retry with
        the same backoff schedule, then None."""
        import http.client
        import time as _time
        from urllib.parse import urljoin, urlsplit

        parts = urlsplit(target)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            return None               # invalid URL: empty page
                                      # (downloader.rb:58-68 analog)
        key = (parts.scheme, parts.netloc)
        path = parts.path or "/"
        if parts.query:
            path += "?" + parts.query
        attempt = 0
        free_reconnect = True         # stale pooled socket costs nothing
        while attempt <= self.max_retries:
            conn = self._conns.pop(key, None)
            made_fresh = conn is None
            if made_fresh:
                cls = (http.client.HTTPSConnection
                       if parts.scheme == "https"
                       else http.client.HTTPConnection)
                conn = cls(parts.netloc, timeout=self.timeout)
            try:
                self._count()     # counts ATTEMPTS (a refused connection
                                  # is a network event; retries re-count)
                if conn.sock is None:
                    # connect eagerly so TCP_NODELAY applies to every
                    # request: on a persistent connection Nagle + the
                    # peer's delayed ACK serializes small request/response
                    # pairs at ~25 GETs/s (~40 ms each — measured by
                    # tools/http_bench.py before this fix)
                    import socket as _socket

                    conn.connect()
                    conn.sock.setsockopt(_socket.IPPROTO_TCP,
                                         _socket.TCP_NODELAY, 1)
                conn.request("GET", path,
                             headers={"Connection": "keep-alive"})
                resp = conn.getresponse()
                body = resp.read()    # drain fully so the conn is reusable
            except (http.client.HTTPException, ConnectionError,
                    TimeoutError, OSError):
                conn.close()
                if not made_fresh and free_reconnect:
                    # keep-alive socket the server idled out between
                    # batches: reconnect immediately; neither a retry
                    # nor a real network GET
                    free_reconnect = False
                    self._count(-1)
                    continue
                if attempt < self.max_retries:
                    _time.sleep(min(0.1 * (2 ** attempt), 2.0))
                attempt += 1
                continue
            if resp.will_close:       # HTTP/1.0 or Connection: close
                conn.close()
            else:
                self._conns[key] = conn
            status = resp.status
            loc = resp.headers.get("Location")
            if 300 <= status < 400 and loc and redirects > 0:
                return self._http_get(urljoin(target, loc), redirects - 1)
            if status >= 400:
                return None           # 404/500/503/...: the empty page
            return body, resp.headers.get("Content-Type", "")
        return None                   # retries exhausted: empty page

    def _get(self, url: str):
        import json

        got = self._http_get(self._target(url))
        if got is None:
            return None
        body, ctype = got
        text = body.decode("utf-8", errors="replace")
        if "json" in ctype or text[:1] in ("[", "{"):
            try:
                spans = json.loads(text)
                if isinstance(spans, list):
                    return spans
            except ValueError:
                pass
        from upton_ray.sitemap import sitemap_xml_to_spans, sniff_sitemap

        if "xml" in ctype or sniff_sitemap(text):
            sm = sitemap_xml_to_spans(text)
            if sm is not None:
                return sm
        from upton_ray.htmlspans import html_to_spans

        return html_to_spans(text)

    def _fetch(self, url: str):
        hit = url in self._cache
        spans = self._cache.pop(url) if hit else self._get(url)
        self._cache[url] = spans          # re-insert = most-recently-used
        while len(self._cache) > self._cache_max:
            self._cache.pop(next(iter(self._cache)))
        return spans

    def lookup_one(self, url: str):
        return self._fetch(url)

    def prefetch(self, url: str):
        """Paced per-URL fetch (the walkers call this right after the
        host's politeness ``wait_turn``, so the GET goes on the wire at
        the paced instant instead of in the batched burst).  The result
        is PINNED until the next :meth:`lookup_table` assembles it —
        exempt from LRU eviction, because a fetch batch may exceed
        ``cache_pages`` and would otherwise evict its own prefetches.  A
        lookup takes only the pins of the URLs it asks for."""
        spans = (self._fetch(url) if url in self._cache
                 else self._get(url))
        self._pinned[url] = spans
        return spans

    def page_len(self, url: str):
        spans = self._fetch(url)
        return None if spans is None else len(spans)

    def lookup_table(self, urls) -> pa.Array:
        urls = list(urls)
        # batch-local results: prefetched spans are assembled from here,
        # NOT round-tripped through the LRU — a batch larger than
        # ``cache_pages`` would evict its own prefetches and silently
        # re-fetch them one by one (measured: an RTT-bound 8-host batch
        # ran at 0.85x sequential before this fix).  Politeness-paced
        # :meth:`prefetch` results arrive the same way (pinned).
        got: dict[str, list | None] = {
            u: self._pinned.pop(u) for u in dict.fromkeys(urls)
            if u in self._pinned}
        missing = list(dict.fromkeys(
            u for u in urls if u not in got and u not in self._cache))
        if len(missing) > 1 and (self.max_workers is None
                                 or self.max_workers > 1):
            from concurrent.futures import ThreadPoolExecutor
            from urllib.parse import urlsplit

            # host-sharded: hosts in parallel, sequential WITHIN a host
            # (one thread owns a host's pooled connection at a time; the
            # reference's sequential order is preserved per host)
            by_host: dict[str, list[str]] = {}
            for u in missing:
                by_host.setdefault(
                    urlsplit(self._target(u)).netloc, []).append(u)
            cap = (self.MAX_HOST_WORKERS if self.max_workers is None
                   else self.max_workers)
            workers = min(cap, len(by_host))
            if workers > 1:
                def host_seq(us):
                    return [(u, self._get(u)) for u in us]

                with ThreadPoolExecutor(workers) as ex:
                    for res in ex.map(host_seq, by_host.values()):
                        got.update(res)
                # still feed the LRU (bounded) so the walkers'
                # page_len probe right after this batch stays free
                self._cache.update(got)
                while len(self._cache) > self._cache_max:
                    self._cache.pop(next(iter(self._cache)))
        return schema.spans_array(
            [(got[u] if u in got else self._fetch(u)) or EMPTY_SPANS
             for u in urls])


def make_store(web_source):
    """web_source: dict | synth.ScaleParams |
    ("parquet" | "lance", path, num_buckets) | ("http", options_dict), or an
    ObjectRef to one of them (a broadcast corpus: fetched once per store)."""
    if isinstance(web_source, ray.ObjectRef):
        web_source = ray.get(web_source)
    if isinstance(web_source, dict):
        return DictWebStore(web_source)
    if isinstance(web_source, synth.ScaleParams):
        return GeneratorWebStore(web_source)
    if web_source[0] == "http":
        return HttpWebStore(**(web_source[1] if len(web_source) > 1 else {}))
    kind, path, buckets = web_source
    if kind == "lance":
        return LanceWebStore(path, buckets)
    assert kind == "parquet"
    return ParquetWebStore(path, buckets)


# ------------------------------------------------------------------ walkers


def _assemble(n: int, parts: list) -> pa.Array:
    """Spans of ``n`` rows from ``(positions, spans)`` parts; a row in no
    part gets the empty page."""
    pool = pa.concat_arrays(
        [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
         for _, p in parts] + [schema.spans_array([EMPTY_SPANS])])
    take = np.full(n, len(pool) - 1, dtype=np.int64)
    if parts:
        take[np.concatenate([np.asarray(i, dtype=np.int64)
                             for i, _ in parts])] = np.arange(len(pool) - 1)
    return pool.take(pa.array(take))


class _FetchState:
    """Per-walker fetch machinery (store + stash + politeness + robots +
    hot-host leases) and :meth:`fetch`, the one kernel every page goes
    through."""

    def __init__(self, cfg: CrawlConfig, web_source, seen_handle,
                 pacer=None, hot_hosts: frozenset = frozenset()):
        self.cfg = cfg
        self.store = make_store(web_source)
        self.seen = seen_handle           # SeenSet handle or None
        rules = dict(cfg.robots) if cfg.respect_robots else {}
        per_host_delay: dict = {}
        if cfg.respect_robots and cfg.robots_txt:
            from upton_ray.frontier import parse_robots_txt

            for h, body in cfg.robots_txt.items():
                dis, delay = parse_robots_txt(body)
                rules.setdefault(h, []).extend(dis)
                if delay is not None:
                    per_host_delay[h] = delay
        self.sched = HostScheduler(
            cfg.sleep_time_between_requests,
            real_sleep=cfg.real_sleep, max_sleep=cfg.max_sleep,
            per_host_delay=per_host_delay)
        self.robots = RobotsCache(rules)
        self.statuses = cfg.status_overlay or {}
        # skew handling: hot hosts are split into salted sub-queues on several
        # workers, so they lease from ONE global bucket (a SeenShard actor)
        # instead of this worker's local heap
        self.pacer = pacer
        self.hot_hosts = hot_hosts

    def seen_key(self, urls):
        """Seen-set keys: raw URLs (reference-exact) or canonical form when
        cfg.canonicalize_seen — so http://h/p?a=1&b=2 and ?b=2&a=1 share one
        fetch."""
        if not self.cfg.canonicalize_seen:
            return urls
        from upton_ray.urlops import canonicalize_urls

        return canonicalize_urls(urls)

    def _lease_batch(self, urls) -> None:
        """Seed the local EDF deadlines from the GLOBAL pacer for these
        network fetches' hot hosts (one RPC per host per batch — their
        queues may live on several workers, so the local heap alone can't
        be authoritative).  The pacer returns a clock-domain-free WAIT; the
        ordinary wait_turn loop then paces the leased window honestly in
        this worker's wall-clock."""
        if self.pacer is None or not self.hot_hosts:
            return
        cnt = Counter(h for h in hosts_of(urls) if h in self.hot_hosts)
        if not cnt:
            return
        items = list(cnt.items())
        waits = ray.get([self.pacer.lease.remote(h, c, self.sched.host_delay(h))
                         for h, c in items])
        mono = time.monotonic()
        for (h, _c), wait in zip(items, waits):
            self.sched.next_allowed[h] = max(self.sched.next_allowed[h],
                                             mono + wait)

    def fetch(self, urls: np.ndarray, stash: bool, known_empty=None):
        """Fetch ``urls`` (an object array, none empty) as the reference's
        ``get_page`` does each one (upton.rb:206-225): a stash check, a
        network fetch on a miss, a politeness wait per network fetch (Q8),
        and an error answer read as the empty page (M8).

        Returns ``(spans, from_resource, status)`` aligned with ``urls``;
        a row's ``slept`` is its ``from_resource``.  ``status`` is the
        answer of the row's network fetch, 0 when there was none (a cache
        hit, also of a stashed error page).  A row's body is empty when its
        fetch answered an error, when it hits a stashed error page, or when
        ``known_empty`` says so; every other body is looked up once (on a
        paced batch, a cache hit of a URL the batch fetches takes that
        fetch's body)."""
        n = len(urls)
        seen = self.seen if stash else None
        from_res = (seen.check_and_add(self.seen_key(urls))
                    if seen is not None and n else np.ones(n, dtype=bool))
        net = np.flatnonzero(from_res)
        status = np.zeros(n, dtype=np.int32)
        status[net] = ([self.statuses.get(u, 200) for u in urls[net]]
                       if self.statuses else 200)
        err = from_res & (status != 200)
        empty = err.copy() if known_empty is None else err | known_empty
        if seen is not None:
            # error pages are stashed as empty bodies (downloader.rb:86-98):
            # record them so later cache hits of the same URL stay empty
            if err.any():
                seen.record_bad(self.seen_key(urls[err]))
            hits = np.flatnonzero(~from_res & ~empty)
            if len(hits):
                empty[hits[seen.bad_mask(self.seen_key(urls[hits]))]] = True

        parts: list = []              # (positions, spans) looked up so far
        src = None                    # row -> row whose body it takes
        if self.cfg.real_sleep and self.sched.delay and len(net):
            # earliest-deadline-first over this worker's heap (hot hosts
            # start at their leased window); a body is looked up once
            # cached or fetched at its slot
            sched = self.sched
            self._lease_batch(urls[net])
            prefetch = getattr(self.store, "prefetch", None)
            ready = np.flatnonzero(~from_res & ~empty)
            # a cache hit of a URL this batch fetches over the network takes
            # that fetch's body: looked up ahead, its GET would go on the
            # wire before the fetch's politeness wait
            fetched = dict(zip(urls[net], net))
            dup = np.array([u in fetched for u in urls[ready]], dtype=bool)
            if dup.any():
                src = np.arange(n)
                src[ready[dup]] = [fetched[u] for u in urls[ready[dup]]]
            ready = ready[~dup].tolist()
            chunk_s = 0.0                 # the last lookup chunk's time
            for j in net[sched.order_batch(urls[net])]:
                h = host_of(urls[j])
                # look bodies up inside the politeness wait while the slot
                # is further away than one chunk's lookup
                while ready and (sched.next_allowed[h]
                                 - time.monotonic() > chunk_s):
                    t, chunk = time.monotonic(), ready[:LOOKUP_CHUNK]
                    del ready[:LOOKUP_CHUNK]
                    parts.append((chunk, self.store.lookup_table(urls[chunk])))
                    chunk_s = time.monotonic() - t
                sched.wait_turn(h)
                if not empty[j]:
                    if prefetch is not None:
                        prefetch(urls[j])     # wire-paced GET (network stores)
                    ready.append(j)
        else:
            ready = np.flatnonzero(~empty)
        if len(ready):
            parts.append((ready, self.store.lookup_table(urls[ready])))
        spans = _assemble(n, parts)
        return (spans if src is None else spans.take(pa.array(src))), \
            from_res, status


# per-worker-process stage objects (walkers, probes). LRU-bounded: a walker's
# store can hold several decoded corpus buckets, and spent crawls' walkers
# must not pile up.
_PROCESS_CACHE: OrderedDict = OrderedDict()
PROCESS_CACHE_SIZE = 4


def per_process(factory, *args, **kwargs):
    """A picklable ``map_batches`` function: each worker process builds
    ``factory(*args, **kwargs)`` once (fresh token per call, so a crawl never
    inherits an earlier crawl's walker) and calls it on every batch."""
    token = uuid.uuid4().hex

    def call(batch: pa.Table) -> pa.Table:
        obj = _PROCESS_CACHE.pop(token, None)
        if obj is None:
            obj = factory(*args, **kwargs)
        _PROCESS_CACHE[token] = obj          # re-insert = most recently used
        while len(_PROCESS_CACHE) > PROCESS_CACHE_SIZE:
            _PROCESS_CACHE.popitem(last=False)
        return obj(batch)

    return call


def fetch_counters(pages: pa.Table, round_: int, partition: int) -> pa.Table:
    """One :data:`schema.METRICS` row of counters over one task's or fetch
    group's pages (:data:`FETCHED_OUT` or :data:`INDEX_PAGES` rows; index
    pages are never robots-blocked)."""
    def total(a) -> int:
        return int(pc.sum(a).as_py() or 0)

    status = pages["status"]
    n_fetched = total(pages["from_resource"])
    blocked = (total(pages["robots_blocked"])
               if "robots_blocked" in pages.column_names else 0)
    return pa.Table.from_pydict({
        "round": [round_], "partition": [partition], "rows": [pages.num_rows],
        "fetched": [n_fetched], "cache_hits": [pages.num_rows - n_fetched],
        "slept": [total(pages["slept"])],
        "errors": [total(pc.and_(pc.not_equal(status, 200),
                                 pc.not_equal(status, 0)))],
        "robots_blocked": [blocked],
    }, schema=schema.METRICS)


def make_group_walker(cfg, web_source, seen_handle,
                      ckpt_dir: str | None = None, pacer=None,
                      hot_hosts: frozenset = frozenset()):
    """The body of one round-1 group task (see ``Crawler.fetch_instances``):
    ``walk(groups, *slices)`` walks the fetch groups ``groups`` one after
    another over ONE InstanceWalker per worker process (the
    :func:`per_process` cache), so bucket caches persist across them.
    ``slices`` holds every group's frontier slices, group after group, each
    group's in block order; a group with no row is skipped, writes nothing
    and has no counters row.

    Returns ``(pages, counters)``: the groups' fetched pages and one
    :func:`fetch_counters` row per walked group.  With ``ckpt_dir``, each
    group checkpoints its own pages to ``<ckpt_dir>/bucket=<g>/`` and drops
    a ``_SUCCESS`` marker — the per-partition lineage unit: a crashed run
    leaves markers only for completed groups, and the next run walks just
    the rest — and ``pages`` is empty (the page data stays on disk, so the
    barrier the engine takes over the counters never holds the crawl's
    spans in the object store; extraction re-reads the checkpoint files)."""

    walker = per_process(InstanceWalker, cfg, web_source, seen_handle,
                         pacer=pacer, hot_hosts=hot_hosts)

    def checkpoint(g: int, out: pa.Table) -> None:
        import os

        import pyarrow.parquet as pq

        from upton_ray.urlops import stash_filenames

        d = os.path.join(ckpt_dir, f"bucket={g}")
        os.makedirs(d, exist_ok=True)
        # stash_key = the reference's per-page stash filename
        # (downloader.rb:122-139; readable mode via cfg.readable_filenames)
        out_ck = out.append_column("stash_key", pa.array(
            stash_filenames(out["instance_url"].to_pylist(),
                            cfg.readable_filenames,
                            cfg.stash_folder or ""), pa.string()))
        # fixed filename: a Ray task retry overwrites instead of duplicating
        pq.write_table(out_ck, os.path.join(d, "data-0.parquet"))
        open(os.path.join(d, "_SUCCESS"), "w").close()

    def walk(groups: list, *slices: pa.Table):
        per = len(slices) // len(groups)
        pages, counters = [], [schema.METRICS.empty_table()]
        for k, g in enumerate(groups):
            parts = [s for s in slices[k * per:(k + 1) * per] if s.num_rows]
            if not parts:
                continue
            out = walker(pa.concat_tables(parts))
            counters.append(fetch_counters(out, 1, g))
            if ckpt_dir is None:
                pages.append(out)
            else:
                checkpoint(g, out)
        return (pa.concat_tables(pages, promote_options="permissive")
                if pages else FETCHED_OUT.empty_table(),
                pa.concat_tables(counters))

    return walk


class IndexWalker:
    """Round-0 stage: one sequential pagination chain per seed (P2/P5).

    In: batch of seed rows (seed_id, url, selector).
    Out: one row per fetched index page:
    (seed_id, page_no, base, selector, spans, url, from_resource, slept,
    status), where ``url`` is the page's resolved fetch URL; a crawl keeps
    the :data:`INDEX_PAGES` columns beside its links.

    The chain control flow (early stop on empty page — Q7) only needs each
    page's SPAN COUNT and static error status, so the walk uses a light
    ``page_len`` probe; the task's pages then go through ONE
    :meth:`_FetchState.fetch` (stash ``cfg.index_debug``), which paces a
    paced walk and looks the bodies up — one batched seen-set round trip
    per task, no per-page RPC or Python span materialization.  ``status``
    follows the kernel's rule: 0 for a page read from the stash.
    """

    def __init__(self, cfg: CrawlConfig, web_source, seen_handle=None):
        self.st = _FetchState(cfg, web_source, seen_handle)
        self.cfg = cfg
        # error pages are stashed as empty bodies; the bad set is static
        # within a run (statuses come from cfg) so snapshot it once per
        # walker — only when index pages are stash-gated, since no other
        # index page is ever a cache hit
        self.local_bad: set = set()
        if seen_handle is not None and cfg.index_debug:
            self.local_bad = set(seen_handle.dump_bad())

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        st = self.st
        rows = {k: [] for k in ("seed_id", "page_no", "base", "selector",
                                "fetch_url", "force_empty")}
        for row in batch.to_pylist():
            seed_url, selector = row["url"], row["selector"]
            # get_index_pages loop (upton.rb:295-311): stop on "" successor,
            # repeated URL, or after fetching an empty page (Q7)
            prev_url = None
            pagination_index = cfg.pagination_start_index
            page_no = 0
            while True:
                if cfg.next_index_page_url is not None:   # P1 override hook
                    nxt = cfg.next_index_page_url(seed_url, pagination_index)
                else:
                    nxt = next_index_page_url(
                        seed_url, pagination_index, paginated=cfg.paginated,
                        pagination_param=cfg.pagination_param,
                        pagination_max_pages=cfg.pagination_max_pages)
                if nxt == "":
                    break
                nxt = resolve_url(nxt, seed_url)
                if nxt == prev_url:
                    break
                force_empty = (st.statuses.get(nxt, 200) != 200
                               or nxt in self.local_bad)
                n_spans = 0 if force_empty else (st.store.page_len(nxt) or 0)
                rows["seed_id"].append(row["seed_id"])
                rows["page_no"].append(page_no)
                rows["base"].append(seed_url)   # Q3: resolve base is the SEED url
                rows["selector"].append(selector)
                rows["fetch_url"].append(nxt)
                rows["force_empty"].append(force_empty)
                prev_url = nxt
                pagination_index += cfg.pagination_interval
                page_no += 1
                if n_spans == 0:
                    break

        # EDF order across the block's chains: one chain's politeness wait
        # absorbs the others' fetches, so the block costs its longest
        # chain's floor, not the sum of chains
        spans, from_resource, status = st.fetch(
            np.array(rows["fetch_url"], dtype=object), cfg.index_debug,
            np.array(rows["force_empty"], dtype=bool))
        # round 1 starts once every round-0 task has returned, with walkers
        # of its own: wait out this block's last deadlines so no host's
        # first instance fetch follows its index page sooner than its delay
        st.sched.wait_all()
        return pa.table({
            "seed_id": pa.array(rows["seed_id"], pa.int32()),
            "page_no": pa.array(rows["page_no"], pa.int32()),
            "base": pa.array(rows["base"], pa.string()),
            "selector": pa.array(rows["selector"], pa.string()),
            "spans": spans,
            "url": pa.array(rows["fetch_url"], pa.string()),
            "from_resource": pa.array(from_resource),
            "slept": pa.array(from_resource),   # politeness per network fetch (Q8)
            "status": pa.array(status, pa.int32()),
        })


class InstanceWalker:
    """Round-1 stage: batched instance fetch (P6) + continuation quirk (P4/Q5).

    In: frontier batch (instance_index:int64, url:string nullable).
    Out: one row per fetched instance page:
    (instance_index, pagination_index, instance_url, spans, from_resource,
     slept, status, robots_blocked).

    The batch, and then each continuation level, goes through the same
    masks (empty URL, robots) and one :meth:`_FetchState.fetch` (stash
    ``cfg.debug``).  ``status`` follows the kernel's rule: 0 for a row
    with no network fetch (a cache hit, a robots-blocked row or an empty
    URL).
    """

    def __init__(self, cfg: CrawlConfig, web_source, seen_handle=None,
                 pacer=None, hot_hosts: frozenset = frozenset()):
        self.st = _FetchState(cfg, web_source, seen_handle, pacer, hot_hosts)
        self.cfg = cfg

    def _fetch_rows(self, iidx, depth: int, urls) -> pa.Table:
        """FETCHED_OUT rows of one level: ``urls`` (may hold None or "",
        the M7 nil-url guard) at ``pagination_index`` ``depth``."""
        n = len(urls)
        valid = np.array([u is not None and u != "" for u in urls], dtype=bool)
        ok = valid.copy()
        ok[valid] = self.st.robots.allowed_mask(urls[valid])
        rows = np.flatnonzero(ok)
        spans, fetched, status = self.st.fetch(urls[rows], self.cfg.debug)
        from_resource = np.zeros(n, dtype=bool)
        from_resource[rows] = fetched
        statuses = np.zeros(n, dtype=np.int32)
        statuses[rows] = status
        return pa.table({
            "instance_index": pa.array(iidx, pa.int64()),
            "pagination_index": pa.array(np.full(n, depth, dtype=np.int32)),
            "instance_url": pa.array([u or "" for u in urls], pa.string()),
            "spans": spans if len(rows) == n else _assemble(n, [(rows, spans)]),
            "from_resource": pa.array(from_resource),
            "slept": pa.array(from_resource),
            "status": pa.array(statuses),
            "robots_blocked": pa.array(valid & ~ok),
        })

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_numpy(zero_copy_only=False)
        iidx = batch["instance_index"].to_numpy(zero_copy_only=False)
        levels = [self._fetch_rows(iidx, 0, urls)]
        succ = self.cfg.next_instance_page_url
        # instance pagination (P4), one level of every live chain at a time.
        # Quirk Q5: pagination_index is never incremented in the loop
        # (upton.rb:326), so each step asks succ(instance_url, 0+1) and a
        # chain stops when its successor repeats — a stateless successor
        # yields at most depth 2
        first = prev = urls
        while succ is not None:
            lens = pc.list_value_length(levels[-1]["spans"]).to_numpy(
                zero_copy_only=False)
            live = np.flatnonzero(lens > 0)
            nxt = np.array([succ(first[i], 1) for i in live], dtype=object)
            keep = np.array([u != p and u != "" for u, p in zip(nxt, prev[live])],
                            dtype=bool)
            if not keep.any():
                break
            first, prev, iidx = first[live[keep]], nxt[keep], iidx[live[keep]]
            levels.append(self._fetch_rows(iidx, len(levels), prev))
        return (pa.concat_tables(levels).combine_chunks() if len(levels) > 1
                else levels[0])
