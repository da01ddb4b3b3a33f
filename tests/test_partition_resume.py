"""Per-partition lineage: a crashed run resumes by re-walking ONLY the
fetch groups ("buckets") without a _SUCCESS marker; completed groups stream
from checkpoint as cache reads (no fetch, no sleep) and final records are
identical.  Every crawl test runs over two crawls of one corpus: an unpaced
crawl, whose fetch groups are the corpus buckets, and a paced crawl, whose
fetch groups are host shards with a salted hot host."""

import os
import shutil
from dataclasses import dataclass

import pytest


@dataclass
class Crawl:
    kind: str
    corpus: str
    seeds: list
    cfg: object          # stash folder -> CrawlConfig
    stash: str
    golden: object

    def crawler(self, stash=None, **overrides):
        from upton_ray.engine import Crawler

        cfg = self.cfg(stash or self.stash)
        for k, v in overrides.items():
            setattr(cfg, k, v)
        return Crawler(cfg, ("parquet", self.corpus, 4), seeds=self.seeds)


@pytest.fixture(scope="module")
def crawled(ray_session, tmp_path_factory):
    from upton_ray import sinks, synth
    from upton_ray.config import CrawlConfig

    p = synth.ScaleParams(n_hosts=6, pages_per_host=15, links_per_page=5,
                          spans_per_page=8, media_fraction=0.25,
                          zipf_alpha=0.3, seed=11)
    root = tmp_path_factory.mktemp("presume")
    corpus = str(root / "corpus")
    sinks.write_web(synth.scale_web(p, parallelism=4), corpus, num_buckets=4)
    seeds = [(h, synth.index_url(p, h), "section#river section h1 a")
             for h in range(p.n_hosts)]
    shapes = {
        "bucketed": dict(sleep_time_between_requests=0, fetch_concurrency=2),
        # host 0 links 20 articles, the others at most 17: one hot host
        "paced": dict(sleep_time_between_requests=0.002, real_sleep=True,
                      max_sleep=0.002, hot_host_threshold=18,
                      fetch_concurrency=3),
    }
    crawls = []
    for kind, shape in shapes.items():
        def cfg(stash, shape=shape):
            return CrawlConfig(
                index_selector="section#river section h1 a",
                extractor="css:h1.article-title",
                paginated=True, pagination_param="p",
                pagination_max_pages=1000, debug=True, index_debug=True,
                num_seen_shards=2, fetch_batch_size=256, stash_folder=stash,
                **shape)

        crawl = Crawl(kind, corpus, seeds, cfg, str(root / f"stash-{kind}"),
                      None)
        c = crawl.crawler()
        crawl.golden = c.crawl().records_table()
        assert (c.pacer is not None) == (kind == "paced"), \
            "only the paced crawl salts and paces a hot host"
        c.shutdown()
        crawls.append(crawl)
    return crawls


def _key_rows(t):
    return list(zip(t["instance_index"].to_pylist(),
                    t["pagination_index"].to_pylist(),
                    t["row_no"].to_pylist(),
                    [tuple(r) for r in t["record"].to_pylist()]))


def _groups(ckpt):
    return sorted(d for d in os.listdir(ckpt) if d.startswith("bucket="))


def test_marker_per_completed_bucket(crawled):
    import json

    for crawl in crawled:
        ckpt = os.path.join(crawl.stash, "fetched_round1")
        assert _groups(ckpt), f"{crawl.kind}: group checkpoint must exist"
        assert sorted(os.listdir(ckpt)) == _groups(ckpt), \
            f"{crawl.kind}: nothing but group dirs in the checkpoint"
        lin = json.load(open(os.path.join(crawl.stash, "lineage.json")))
        for d in _groups(ckpt):
            assert os.path.exists(os.path.join(ckpt, d, "_SUCCESS"))
            assert f"round1/{d}" in lin, "per-partition lineage entry missing"
        n_groups = 4 if crawl.kind == "bucketed" else 3
        assert lin["round1"] == {"n_groups": n_groups}


def test_crashed_bucket_rewalks_alone(crawled):
    import pyarrow.parquet as pq

    for crawl in crawled:
        ckpt = os.path.join(crawl.stash, "fetched_round1")
        victim = _groups(ckpt)[0]
        # simulate a crash mid-group: data present but no completion marker
        os.remove(os.path.join(ckpt, victim, "_SUCCESS"))

        c = crawl.crawler()
        res = c.crawl()
        t = res.records_table()
        assert _key_rows(t) == _key_rows(crawl.golden), \
            f"{crawl.kind}: resume must reproduce records"

        m = pq.read_table(os.path.join(crawl.stash,
                                       "metrics.parquet")).to_pandas()
        assert res.metrics.to_pandas().equals(m)
        assert int(m["fetched"].sum()) == 0, \
            "re-walk is all cache hits (seen set)"
        v = int(victim.split("=")[1])
        assert list(m["partition"]) == [v] and int(m["rows"].sum()) > 0, \
            f"{crawl.kind}: only the crashed group may do work this run"
        assert os.path.exists(os.path.join(ckpt, victim, "_SUCCESS")), \
            "re-walk must restore the marker"
        c.shutdown()


def test_fully_resumed_run_does_no_work(crawled):
    import pyarrow.parquet as pq

    for crawl in crawled:
        c = crawl.crawler()
        res = c.crawl()
        assert _key_rows(res.records_table()) == _key_rows(crawl.golden)
        m = pq.read_table(os.path.join(crawl.stash,
                                       "metrics.parquet")).to_pandas()
        assert int(m["rows"].sum()) == 0, f"{crawl.kind}: no group walked"
        c.shutdown()


def test_resumed_crawl_fetches_nothing(crawled):
    """Completed groups are read back as cache reads: a resumed crawl
    neither fetches nor sleeps for a page an earlier run stashed."""
    from tests.conftest import crawl_seen, crawl_sleeps

    for crawl in crawled:
        c = crawl.crawler()
        res = c.crawl()
        c.shutdown()
        assert _key_rows(res.records_table()) == _key_rows(crawl.golden)
        assert crawl_sleeps(res) == 0, f"{crawl.kind}: resume must not sleep"
        assert crawl_seen(res) == set()


def test_group_count_mismatch_fails_closed(crawled, tmp_path):
    """A resume that would route to another group count (here a changed
    fetch_concurrency on the paced crawl) is refused, not re-routed."""
    crawl = crawled[1]
    stash = str(tmp_path / "stash")
    shutil.copytree(crawl.stash, stash)
    c = crawl.crawler(stash, fetch_concurrency=5)
    with pytest.raises(ValueError, match="with 3 fetch groups.*routes to 5"):
        c.crawl()
    c.shutdown()


def test_repeated_crash_resume_never_duplicates(crawled, tmp_path):
    """Regression guard for the once-observed exact-2x duplicated write on a
    resume run: crash (marker removed / partial group dir) before EVERY
    group in turn, resume each time, and assert the written output always
    has distinct_keys == records — a _SUCCESS-marked group must never
    re-emit its rows alongside the checkpoint read."""
    import pyarrow.parquet as pq

    from upton_ray import sinks

    for crawl in crawled:
        stash = str(tmp_path / f"stash-{crawl.kind}")
        shutil.copytree(crawl.stash, stash)
        ckpt = os.path.join(stash, "fetched_round1")
        golden_keys = sorted(_key_rows(crawl.golden))

        for i, victim in enumerate(_groups(ckpt)):
            if i % 2 == 0:
                # crash between data write and marker write
                os.remove(os.path.join(ckpt, victim, "_SUCCESS"))
            else:
                # crash before the group wrote anything
                shutil.rmtree(os.path.join(ckpt, victim))
            c = crawl.crawler(stash)
            res = c.crawl()
            out = str(tmp_path / f"out-{crawl.kind}-{i}")
            sinks.write_records_parquet(res.records, out)
            t = pq.read_table(out)
            keys = [(a, b, r) for a, b, r in zip(
                t["instance_index"].to_pylist(),
                t["pagination_index"].to_pylist(),
                t["row_no"].to_pylist())]
            assert len(keys) == len(set(keys)) == len(golden_keys), \
                f"{crawl.kind} resume {i} (victim {victim}) duplicated " \
                "or lost rows"
            assert sorted(_key_rows(t)) == golden_keys
            m = pq.read_table(os.path.join(stash,
                                           "metrics.parquet")).to_pandas()
            v = int(victim.split("=")[1])
            assert set(m[m["rows"] > 0]["partition"]) <= {v}, \
                "a _SUCCESS-marked group re-emitted rows during resume"
            c.shutdown()


def test_checkpoint_carries_stash_key(crawled):
    """Each checkpointed page row carries the reference's stash filename
    (downloader.rb:122-139): md5(url).html by default."""
    import pyarrow.parquet as pq

    from upton_ray.urlops import md5_hash

    for crawl in crawled:
        ckpt = os.path.join(crawl.stash, "fetched_round1")
        d = _groups(ckpt)[0]
        t = pq.read_table(os.path.join(ckpt, d, "data-0.parquet"))
        assert "stash_key" in t.column_names
        urls = t["instance_url"].to_pylist()
        keys = t["stash_key"].to_pylist()
        assert keys == [md5_hash(u) + ".html" for u in urls]


def test_checkpoint_readable_filenames(ray_session, tmp_path, crawled):
    """cfg.readable_filenames switches the checkpoint stash_key to the
    sanitized human-readable form (downloader.rb:131-139) and the crawl
    output is unchanged."""
    import pyarrow.parquet as pq

    from upton_ray.urlops import readable_filename

    for crawl in crawled:
        stash2 = str(tmp_path / f"stash_readable-{crawl.kind}")
        c = crawl.crawler(stash2, readable_filenames=True)
        t = c.crawl().records_table()
        c.shutdown()
        assert _key_rows(t) == _key_rows(crawl.golden)
        ckpt = os.path.join(stash2, "fetched_round1")
        tk = pq.read_table(os.path.join(ckpt, _groups(ckpt)[0],
                                        "data-0.parquet"))
        urls = tk["instance_url"].to_pylist()
        keys = tk["stash_key"].to_pylist()
        assert keys == [readable_filename(u, stash2) for u in urls]
        assert all(k.endswith(".html") for k in keys)


def test_connected_components_crash_resume(ray_session, tmp_path):
    """Iterative-op crash resume (VERDICT r4 item 10): kill the BSP loop
    between supersteps, resume from the label checkpoint, and get labels
    identical to an uninterrupted run — the iterative analog of the
    crawl's bucket-granular restart."""
    import pyarrow as pa
    import pytest as _pytest

    from upton_ray import datapipe

    sf = "/root/testdata/sf0.001"

    def rows(ds):
        t = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        return list(zip(t["doc_id"], t["label"]))

    golden = rows(datapipe.connected_components(sf, num_partitions=4))

    ckpt = str(tmp_path / "cc_labels")
    with _pytest.raises(RuntimeError, match="injected crash"):
        datapipe.connected_components(sf, num_partitions=4,
                                      label_checkpoint=ckpt,
                                      _crash_after=2)
    # the crash left complete superstep checkpoints behind
    done = sorted(d for d in os.listdir(ckpt)
                  if os.path.exists(os.path.join(ckpt, d, "_SUCCESS")))
    assert done == ["step-00000", "step-00001"]

    resumed = datapipe.connected_components(sf, num_partitions=4,
                                            label_checkpoint=ckpt)
    assert rows(resumed) == golden
    # the resumed run continued PAST the crash point (appended steps),
    # it did not restart from superstep 0
    after = sorted(d for d in os.listdir(ckpt)
                   if os.path.exists(os.path.join(ckpt, d, "_SUCCESS")))
    assert after[0] == "step-00000" and len(after) > 2
    assert after[2] == "step-00002"

    # partition-count mismatch is refused loudly, never silently rerun
    with _pytest.raises(ValueError, match="partitions"):
        datapipe.connected_components(sf, num_partitions=8,
                                      label_checkpoint=ckpt)


def test_resume_routes_from_lineage_hot_hosts(crawled, tmp_path,
                                              monkeypatch):
    """A ``_SUCCESS``-deleted resume of the paced crawl routes with the hot
    hosts its round0 lineage unit recorded: round 0 does not run again,
    nothing scans the frontier, and the records are the golden ones."""
    import json

    from upton_ray import engine

    crawl = crawled[1]
    stash = str(tmp_path / "stash")
    shutil.copytree(crawl.stash, stash)
    ckpt = os.path.join(stash, "fetched_round1")
    os.remove(os.path.join(ckpt, _groups(ckpt)[0], "_SUCCESS"))
    round0 = json.load(open(os.path.join(stash, "lineage.json")))["round0"]
    assert round0["hot_hosts"], "the paced crawl has a hot host"

    routed = []
    walker = engine.make_group_walker

    def spy(*a, **kw):
        routed.append(kw["hot_hosts"])
        return walker(*a, **kw)

    def no_round0(self, links):
        raise AssertionError("the resume ran round 0 again")

    monkeypatch.setattr(engine, "make_group_walker", spy)
    monkeypatch.setattr(engine.Crawler, "_assign_instance_index", no_round0)
    c = crawl.crawler(stash)
    res = c.crawl()
    assert _key_rows(res.records_table()) == _key_rows(crawl.golden)
    assert routed == [frozenset(round0["hot_hosts"])]
    assert res.stats["hot_hosts"] == round0["hot_hosts"]
    assert c.pacer is c.seen.shards[0]
    c.shutdown()
