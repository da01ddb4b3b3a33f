"""Crawl stages run as plain Ray tasks over a per-process cache
(upton_ray.fetch.per_process): the cache's build/evict/fresh-per-crawl law
in-process, no actors started by index or sitemap frontier builds, and the
driver collect running each block's UDF exactly once."""

import os

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
                      "url": pa.array(cfg.url_array, pa.string()),
                      "bucket": pa.array([0], pa.int32())})
    outs = [fetch.make_group_walker(cfg, fixture_web, None)(group)
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
