"""RSpec-conformance scenarios over the PARQUET web store: the bucketed
corpus path (point lookups with predicate pruning + bucket LRU) must
reproduce the sequential oracle exactly, like the dict-web path does —
quirks included (empty pages, nil hrefs, error-terminated pagination)."""

import copy

import pytest

from tests.conftest import crawl_seen, crawl_sleeps, index_order
from upton_ray.oracle import UptonOracle
from upton_ray.scenarios import scenario_configs

CFGS = scenario_configs()
# scenarios whose web interaction is pure fetch/extract (status_overlay and
# sleep accounting work identically; continuation uses successor URLs that
# are absent from the corpus — also covered)
NAMES = ["basic", "relative", "list", "table", "paginated",
         "paginated_error", "instance_error", "dedup_stash", "continuation"]


@pytest.fixture(scope="module")
def parquet_web(ray_session, fixture_web, tmp_path_factory):
    import pyarrow as pa
    import ray.data

    from upton_ray import schema, sinks

    t = pa.table({
        "doc_id": pa.array(list(fixture_web.keys()), pa.string()),
        "spans": schema.spans_array(list(fixture_web.values())),
    })
    path = str(tmp_path_factory.mktemp("pqweb") / "corpus")
    sinks.write_web(ray.data.from_arrow(t), path, num_buckets=4)
    return ("parquet", path, 4)


@pytest.mark.parametrize("name", NAMES)
def test_scenario_on_parquet_store(name, ray_session, fixture_web, parquet_web):
    from upton_ray.engine import Crawler

    cfg = CFGS[name]
    oracle = UptonOracle(copy.deepcopy(cfg), fixture_web).scrape()
    res = Crawler(cfg, parquet_web).crawl()
    assert res.documents() == oracle.documents, f"{name}: documents differ"
    if cfg.url_array is None:
        assert index_order(cfg, parquet_web) == oracle.index_urls, \
            f"{name}: index order differs"
    assert crawl_seen(res) == oracle.seen, f"{name}: URL-seen set differs"
    assert crawl_sleeps(res) == oracle.sleeps, f"{name}: sleep count differs"


def test_generator_store_matches_parquet_store(ray_session, tmp_path):
    """The storage-free GeneratorWebStore (pages regenerated from the URL —
    the any-scale stand-in for network fetch) must crawl identically to the
    materialized parquet corpus of the same params."""
    from upton_ray import sinks, synth
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler

    p = synth.ScaleParams(n_hosts=4, pages_per_host=12, links_per_page=5,
                          spans_per_page=8, media_fraction=0.25,
                          zipf_alpha=0.3, seed=13)
    corpus = str(tmp_path / "corpus")
    sinks.write_web(synth.scale_web(p, parallelism=4), corpus, num_buckets=4)

    def cfg():
        return CrawlConfig(
            index_selector="section#river section h1 a",
            extractor="css:h1.article-title",
            paginated=True, pagination_param="p", pagination_max_pages=1000,
            sleep_time_between_requests=0, debug=True, index_debug=True,
            num_seen_shards=2, fetch_concurrency=2, fetch_batch_size=64)

    seeds = [(h, synth.index_url(p, h), "section#river section h1 a")
             for h in range(p.n_hosts)]

    def rows(web_source):
        c = Crawler(cfg(), web_source, seeds=seeds)
        t = c.crawl().records_table()
        c.shutdown()
        return list(zip(t["instance_index"].to_pylist(),
                        t["pagination_index"].to_pylist(),
                        t["row_no"].to_pylist(),
                        [tuple(r) for r in t["record"].to_pylist()]))

    assert rows(p) == rows(("parquet", corpus, 4))


def test_bucket_memo_agrees_with_buckets(parquet_web, fixture_web):
    """The per-host bucket memo behind ``lookup_one`` and ``page_len``
    gives every URL the bucket that the vectorized ``_buckets`` gives it,
    on a first probe and a memoized one, for mixed-case, port and
    host-less URLs too; and the lookups answer as before."""
    import numpy as np

    from upton_ray import fetch

    store = fetch.make_store(parquet_web)
    urls = list(fixture_web) + ["http://Example.COM/a", "http://example.com/b",
                                "https://example.com:8080/c", "no-scheme",
                                ""]
    want = store._buckets(np.array(urls, dtype=object)).tolist()
    for _ in range(2):
        assert [store._bucket_of(u) for u in urls] == want
    for u, spans in fixture_web.items():
        assert store.page_len(u) == len(spans)
        assert (store.lookup_one(u) or []) == (spans or [])
    assert store.page_len("http://absent.test/x") is None
