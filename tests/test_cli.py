"""CLI (`python -m upton_ray crawl`) — the ray-job-submit payload — smoke +
resume + invalidate behavior over a tiny bucketed corpus."""

import json
import os

import pytest


@pytest.fixture(scope="module")
def tiny_corpus(ray_session, tmp_path_factory):
    from upton_ray import sinks, synth

    p = synth.ScaleParams(n_hosts=4, pages_per_host=12, links_per_page=5,
                          spans_per_page=8, media_fraction=0.25,
                          zipf_alpha=0.3, seed=7)
    path = str(tmp_path_factory.mktemp("web") / "corpus")
    sinks.write_web(synth.scale_web(p, parallelism=4), path, num_buckets=4)
    seeds = [synth.index_url(p, h) for h in range(p.n_hosts)]
    return path, seeds


def run_cli(argv, capsys):
    from upton_ray.cli import main

    rc = main(argv)
    out = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(out[-1])


def _round1_fetched(stash) -> int:
    import pyarrow.parquet as pq

    m = pq.read_table(os.path.join(stash, "metrics.parquet")).to_pandas()
    return int(m[m["round"] == 1]["fetched"].sum())


def test_cli_crawl_parquet_and_resume(tiny_corpus, tmp_path, capsys):
    corpus, seeds = tiny_corpus
    stash = str(tmp_path / "stash")
    out1 = str(tmp_path / "rec1")
    argv = ["crawl", "--corpus", corpus, "--buckets", "4",
            "--selector", "section#river section h1 a",
            "--extractor", "css:h1.article-title",
            "--paginated", "--pagination-param", "p",
            "--max-pages", "1000", "--sleep", "0",
            "--concurrency", "2", "--seen-shards", "2",
            "--stash", stash]
    for s in seeds:
        argv += ["--seed", s]
    rc, res = run_cli(argv + ["--out", out1], capsys)
    assert rc == 0 and res["records"] > 0
    assert os.path.exists(os.path.join(stash, "lineage.json"))
    # the printed report is the run's counters
    assert res["round1"]["fetched"] == _round1_fetched(stash) > 0
    assert res["round0"]["fetched"] > 0 and res["frontier_rows"] > 0

    # resume over the same stash: identical record count, no refetch
    out2 = str(tmp_path / "rec2")
    rc, res2 = run_cli(argv + ["--out", out2], capsys)
    assert rc == 0 and res2["records"] == res["records"]
    assert res2["round1"]["fetched"] == _round1_fetched(stash) == 0
    assert res2["frontier_rows"] == res["frontier_rows"]

    import pyarrow.parquet as pq

    m = pq.read_table(os.path.join(stash, "metrics.parquet")).to_pandas()
    assert m["fetched"].sum() == 0, "resumed run must be all cache hits"


def test_cli_invalidate_then_refetch(tiny_corpus, tmp_path, capsys):
    corpus, seeds = tiny_corpus
    stash = str(tmp_path / "stash")
    base = ["crawl", "--corpus", corpus, "--buckets", "4",
            "--selector", "section#river section h1 a",
            "--extractor", "css:h1.article-title",
            "--paginated", "--pagination-param", "p", "--max-pages", "1000",
            "--sleep", "0", "--concurrency", "2", "--seen-shards", "2",
            "--stash", stash, "--seed", seeds[0]]
    rc, res = run_cli(base + ["--out", str(tmp_path / "a")], capsys)
    assert rc == 0 and res["records"] > 0

    import pyarrow.parquet as pq

    seen = pq.read_table(os.path.join(stash, "seen.parquet"))
    victims = [u for u in seen["url"].to_pylist()][:3]
    urls_file = tmp_path / "victims.txt"
    urls_file.write_text("\n".join(victims))
    rc, inv = run_cli(["invalidate", "--stash", stash,
                       "--urls-file", str(urls_file)], capsys)
    assert rc == 0 and inv["invalidated"] == 3

    rc, res2 = run_cli(base + ["--out", str(tmp_path / "b")], capsys)
    assert rc == 0 and res2["records"] == res["records"]
    m = pq.read_table(os.path.join(stash, "metrics.parquet")).to_pandas()
    refetched = int(m["fetched"].sum())
    assert 0 < refetched <= 3, "only invalidated instance URLs refetch"
