import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True,
                 logging_level="ERROR")
    yield
    from tools.check_queries import shutdown

    shutdown()


@pytest.fixture(scope="session")
def fixture_web():
    from upton_ray.synth import fixture_web as fw

    return fw()


def crawl_seen(res) -> set:
    """The URL-seen set of a crawl (the reference's stash keys): the URLs of
    its index and instance pages that came from the network."""
    import pyarrow.compute as pc

    from upton_ray.fetch import FETCHED_OUT, INDEX_PAGES
    from upton_ray.shuffle import collect

    p = collect(res.pages, FETCHED_OUT)
    i = collect(res.index_pages, INDEX_PAGES)
    return (set(pc.filter(p["instance_url"], p["from_resource"]).to_pylist())
            | set(pc.filter(i["url"], i["from_resource"]).to_pylist()))


def crawl_sleeps(res) -> int:
    """The politeness sleeps of a crawl: the ``slept`` sum of its counters."""
    import pyarrow.compute as pc

    return int(pc.sum(res.metrics["slept"]).as_py() or 0)


def index_order(cfg, web_source) -> list:
    """Upton's ``get_index`` output for ``cfg``: the URLs of a fresh
    Crawler's round-0 frontier (index pages or sitemap), in
    ``instance_index`` order."""
    import copy

    import pyarrow as pa

    from upton_ray.engine import Crawler
    from upton_ray.shuffle import collect

    c = Crawler(copy.deepcopy(cfg), web_source)
    try:
        f = (c._frontier_from_sitemaps() if cfg.sitemap_url
             else c.get_index()[0])
        t = collect(f, pa.schema([("url", pa.string()),
                                  ("instance_index", pa.int64())]))
    finally:
        c.shutdown()
    return t.sort_by("instance_index")["url"].to_pylist()
