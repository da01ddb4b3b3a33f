"""Crawl stages run as plain Ray tasks over a per-process cache
(upton_ray.fetch.per_process): the cache's build/evict/fresh-per-crawl law
in-process, no actors started by index or sitemap frontier builds, and the
driver collect running each block's UDF exactly once."""

import os

import numpy as np
import pyarrow as pa
import pytest

from upton_ray import fetch
from upton_ray.scenarios import scenario_configs

CFGS = scenario_configs()


class _Probe:
    built = 0

    def __init__(self, tag):
        _Probe.built += 1
        self.tag = tag

    def __call__(self, batch):
        return batch.append_column("tag", pa.array([self.tag] * batch.num_rows))


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(fetch, "_PROCESS_CACHE", type(fetch._PROCESS_CACHE)())
    _Probe.built = 0
    return fetch._PROCESS_CACHE


def test_per_process_builds_once_per_token(empty_cache):
    f = fetch.per_process(_Probe, "a")
    batch = pa.table({"x": [1, 2]})
    for _ in range(3):
        assert f(batch)["tag"].to_pylist() == ["a", "a"]
    assert _Probe.built == 1
    assert len(empty_cache) == 1


def test_per_process_evicts_least_recently_used(empty_cache):
    batch = pa.table({"x": [1]})
    fs = [fetch.per_process(_Probe, i)
          for i in range(fetch.PROCESS_CACHE_SIZE + 1)]
    for f in fs[:-1]:
        f(batch)
    fs[0](batch)                 # touch the oldest: fs[1] is now the LRU
    fs[-1](batch)
    assert len(empty_cache) == fetch.PROCESS_CACHE_SIZE
    assert _Probe.built == fetch.PROCESS_CACHE_SIZE + 1
    fs[0](batch)                 # still cached
    assert _Probe.built == fetch.PROCESS_CACHE_SIZE + 1
    fs[1](batch)                 # evicted: rebuilt
    assert _Probe.built == fetch.PROCESS_CACHE_SIZE + 2


def test_each_crawl_gets_a_fresh_walker(empty_cache, fixture_web):
    """Two group walkers over the same arguments (two crawls) never share
    a cached InstanceWalker, so no crawl inherits another's seen handle,
    config or scheduler state."""
    cfg = CFGS["list"]
    group = pa.table({"instance_index": pa.array([0], pa.int64()),
                      "url": pa.array(cfg.url_array, pa.string())})
    outs = [fetch.make_group_walker(cfg, fixture_web, None)([0], group)[0]
            for _ in range(2)]
    assert outs[0].equals(outs[1])
    walkers = list(empty_cache.values())
    assert len(walkers) == 2
    assert all(isinstance(w, fetch.InstanceWalker) for w in walkers)
    assert walkers[0] is not walkers[1]


def _actors() -> int:
    from ray._private import state

    return len(state.actors())


def test_index_and_sitemap_frontiers_start_no_actors(ray_session,
                                                     fixture_web):
    """Index walking and sitemap expansion run as tasks: after a warm-up
    crawl (Ray Data's own process-wide actors), a new Crawler's frontier
    build adds no actor beyond the seen shards its constructor made."""
    from upton_ray.engine import Crawler

    def frontier(name):
        c = Crawler(CFGS[name], fixture_web)
        c.seen.size()            # the shard actors are registered and up
        before = _actors()
        f = (c._frontier_from_sitemaps() if name == "sitemap"
             else c.get_index()[0])
        assert f.materialize().count() > 0
        added = _actors() - before
        c.shutdown()
        return added

    frontier("paginated")        # warm-up
    assert frontier("paginated") == 0
    assert frontier("sitemap") == 0


def test_collect_runs_each_block_once(ray_session, tmp_path):
    """A lazy Dataset's UDF runs once per block under collect (a bare
    to_arrow_refs re-runs the plan to fetch the schema)."""
    import ray

    from upton_ray.shuffle import collect

    d = str(tmp_path)

    def mark(b: pa.Table) -> pa.Table:
        import uuid

        open(os.path.join(d, uuid.uuid4().hex), "w").close()
        return b

    ds = ray.data.from_arrow([pa.table({"x": [i]}) for i in range(6)]) \
        .map_batches(mark, batch_format="pyarrow", batch_size=None)
    t = collect(ds, pa.schema([("x", pa.int64())]))
    assert sorted(t["x"].to_pylist()) == list(range(6))
    assert len(os.listdir(d)) == 6


# ------------------------------------------------ round 1 as plain tasks


def _raylet_children() -> dict:
    """pid -> process title of every process the session's raylet started
    (its worker processes: ``ray::IDLE``, ``ray::<task>``, actors)."""
    import ray

    raylet = ray._private.worker._global_node.all_processes[
        "raylet"][0].process.pid
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            if ppid == raylet:
                with open(f"/proc/{d}/cmdline") as f:
                    out[int(d)] = f.read().split("\0")[0]
        except (OSError, IndexError, ValueError):
            pass              # exited while being read
    return out


def test_warm_bucketed_crawl_starts_no_worker(ray_session, tmp_path):
    """A second crawl of a bucketed corpus, in a warm session, starts no
    Ray worker process.  Its 16 fetch groups walk in at most one task per
    CPU slot: a walker blocked in a seen-set ``ray.get`` releases its CPU,
    so any queued group task would be leased to a new worker process."""
    import threading

    from upton_ray import sinks, synth
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    p = synth.ScaleParams(n_hosts=24, pages_per_host=12, links_per_page=5,
                          spans_per_page=6, seed=5)
    corpus = str(tmp_path / "corpus")
    sinks.write_web(synth.scale_web(p, parallelism=2), corpus,
                    num_buckets=16)
    sel = "section#river section h1 a"
    seeds = [(h, synth.index_url(p, h), sel) for h in range(p.n_hosts)]
    want = sum(p.n_articles(h) for h in range(p.n_hosts))

    def crawler():
        c = Crawler(CrawlConfig(
            index_selector=sel, extractor="css:h1.article-title",
            paginated=True, pagination_param="p", pagination_max_pages=100,
            debug=True, index_debug=True, num_seen_shards=2,
            fetch_concurrency=2), ("parquet", corpus, 16), seeds=seeds)
        c.seen.size()            # the shard actors are up before counting
        return c

    c = crawler()                # warm-up: the session's worker pool
    assert c.crawl().records_table().num_rows == want
    c.shutdown()

    c = crawler()
    before = set(_raylet_children())
    seen: dict = {}
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            for pid, title in _raylet_children().items():
                seen.setdefault(pid, set()).add(title)
            stop.wait(0.005)

    th = threading.Thread(target=sample)
    th.start()
    try:
        n = c.crawl().records_table().num_rows
    finally:
        stop.set()
        th.join()
        c.shutdown()
    assert n == want
    started = {pid: t for pid, t in seen.items() if pid not in before}
    assert not started, f"the crawl started worker processes: {started}"


def test_paced_group_walks_overlap(ray_session):
    """Paced fetch groups walk at the same time: 8 hosts over
    ``fetch_concurrency=4`` host shards finish well under the serial
    floor, the sum over groups of each group's own floor (its busiest
    host's pages x delay)."""
    import time

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler, fetch_group_ids

    delay, pages, n_groups = 0.05, 12, 4
    urls = [f"http://h{h}.test/p/{i}" for i in range(pages) for h in range(8)]
    g = fetch_group_ids(np.array(urls, dtype=object),
                        np.arange(len(urls)), n_groups, frozenset(), 1)
    # hosts of one group interleave, so a group's floor is one host's
    serial_floor = len(set(g.tolist())) * pages * delay
    assert serial_floor >= 3 * pages * delay, "hosts spread over >=3 groups"
    c = Crawler(CrawlConfig(
        url_array=urls, extractor="css:h1.article-title",
        sleep_time_between_requests=delay, real_sleep=True, max_sleep=delay,
        debug=False, fetch_concurrency=n_groups), _web(urls))
    frontier = c._frontier_from_url_array().materialize()
    t0 = time.perf_counter()
    fetched = c.fetch_instances(frontier).materialize()
    took = time.perf_counter() - t0
    assert fetched.count() == len(urls)
    assert took < 0.6 * serial_floor, \
        f"groups took {took:.2f} s, serial floor {serial_floor:.2f} s"


def _web(urls):
    return {u: [{"kind": "html body h1.article-title", "text": f"t{i}",
                 "media_ref": "", "offset": 0}] for i, u in enumerate(urls)}


def _url_cfg(urls, **kw):
    from upton_ray.config import CrawlConfig

    return CrawlConfig(url_array=urls, extractor="css:h1.article-title",
                       debug=True, num_seen_shards=1, **kw)


def test_empty_frontier_fetches_nothing(ray_session, tmp_path):
    """A crawl with no frontier row, with and without a checkpoint: no
    record, no counter row, and no group directory."""
    from upton_ray.engine import Crawler

    c = Crawler(_url_cfg([]), {})
    assert c.crawl().records_table().num_rows == 0
    c.shutdown()
    stash = str(tmp_path / "stash")
    c = Crawler(_url_cfg([], fetch_concurrency=3, stash_folder=stash), {})
    res = c.crawl()
    assert res.records_table().num_rows == 0
    assert res.metrics.num_rows == 0
    ckpt = os.path.join(stash, "fetched_round1")
    assert not os.path.exists(ckpt) or not os.listdir(ckpt)
    c.shutdown()


def test_frontier_of_empty_blocks_fetches_nothing(ray_session):
    """A frontier whose every block has no row walks no group."""
    import ray

    from upton_ray.engine import FETCHED_OUT, Crawler

    empty = pa.table({"url": pa.array([], pa.string()),
                      "instance_index": pa.array([], pa.int64())})
    frontier = ray.data.from_arrow_refs([ray.put(empty), ray.put(empty)])
    c = Crawler(_url_cfg([], fetch_concurrency=2), {})
    fetched = c.fetch_instances(frontier)
    assert fetched.count() == 0
    assert fetched.schema().names == FETCHED_OUT.names
    c.shutdown()


def test_checkpointed_empty_group_writes_nothing(ray_session, tmp_path):
    """A checkpointed crawl whose frontier leaves a fetch group without a
    row writes no ``bucket=<g>/`` directory for it and no counter row;
    every other group completes, and a resume fetches nothing again."""
    from upton_ray.engine import Crawler, fetch_group_ids

    n_groups = 4
    urls = [f"http://h{h}.test/p/{i}" for h in range(2) for i in range(3)]
    g = set(fetch_group_ids(np.array(urls, dtype=object),
                            np.arange(len(urls)), n_groups, frozenset(),
                            1).tolist())
    assert len(g) < n_groups, "some group has no row"
    stash = str(tmp_path / "stash")
    cfg = _url_cfg(urls, fetch_concurrency=n_groups, stash_folder=stash)
    c = Crawler(cfg, _web(urls))
    res = c.crawl()
    assert res.records_table().num_rows == len(urls)
    assert sorted(res.metrics["partition"].to_pylist()) == sorted(g)
    c.shutdown()
    ckpt = os.path.join(stash, "fetched_round1")
    assert sorted(os.listdir(ckpt)) == sorted(f"bucket={b}" for b in g)

    c = Crawler(_url_cfg(urls, fetch_concurrency=n_groups,
                         stash_folder=stash), _web(urls))
    res = c.crawl()
    t = res.records_table()
    assert t.num_rows == len(urls)
    assert res.metrics.num_rows == 0, "the resume walks no group again"
    assert sorted(os.listdir(ckpt)) == sorted(f"bucket={b}" for b in g)
    c.shutdown()


def test_crawl_resolves_no_round1_counter(ray_session, monkeypatch):
    """crawl() takes no ``ray.get`` on a round-1 counter object: an
    uncheckpointed, paced URL-list crawl (no round-0 barrier) hands its
    group tasks' counter refs to the CrawlResult unresolved, and reading
    ``metrics`` afterwards gives the full counters."""
    import ray

    from upton_ray.engine import Crawler

    urls = [f"http://h{h}.test/p/{i}" for i in range(6) for h in range(4)]
    c = Crawler(_url_cfg(urls, sleep_time_between_requests=0.05,
                         real_sleep=True, max_sleep=0.05,
                         fetch_concurrency=2), _web(urls))
    got, get = [], ray.get

    def spy(refs, *a, **kw):
        got.extend(refs if isinstance(refs, list) else [refs])
        return get(refs, *a, **kw)

    monkeypatch.setattr(ray, "get", spy)
    res = c.crawl()
    monkeypatch.undo()
    assert res.counters and not set(res.counters) & set(got)
    m = res.metrics
    assert set(m["round"].to_pylist()) == {1}
    for k in ("rows", "fetched", "slept"):
        assert sum(m[k].to_pylist()) == len(urls), k
    assert res.records_table().num_rows == len(urls)
    c.shutdown()


def test_robots_crawl_maps_batches_once(ray_session, monkeypatch):
    """An uncheckpointed crawl's only Ray Data map is record extraction,
    with the robots probe on: the probe runs as plain tasks."""
    import ray.data

    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.extract import ExtractRecords
    from upton_ray.synth import _sp

    web = {
        "http://r.test/robots.txt": [
            _sp("pre", "User-agent: *\nDisallow: /secret", "", 0)],
        "http://r.test/index.html": [
            _sp("section#river/section/h1/a", "ok", "a.html", 0),
            _sp("section#river/section/h1/a", "no", "secret/b.html", 1)],
        "http://r.test/a.html": [_sp("h1.article-title", "Allowed", "", 0)],
        "http://r.test/secret/b.html": [
            _sp("h1.article-title", "Blocked", "", 0)],
    }
    c = Crawler(CrawlConfig(
        index_url="http://r.test/index.html",
        index_selector="section#river section h1 a",
        extractor="css:h1.article-title",
        respect_robots=True, fetch_robots=True,
        sleep_time_between_requests=0,
        num_seen_shards=1, fetch_concurrency=1), web)
    fns, map_batches = [], ray.data.Dataset.map_batches

    def spy(self, fn, *a, **kw):
        fns.append(fn)
        return map_batches(self, fn, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    res = c.crawl()
    monkeypatch.undo()
    assert len(fns) == 1 and isinstance(fns[0], ExtractRecords), fns
    assert c.cfg.robots_txt["r.test"].startswith("User-agent")
    assert res.documents() == ["Allowed", ""]
    c.shutdown()
