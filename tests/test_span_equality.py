"""Per-row span-sequence equality (input_hint invariant): every fetched
page's span list must equal the source document's spans tuple-for-tuple —
(kind, text, media_ref, order) — through the whole distributed path
(routing, seen-set, Arrow batching, checkpoint sentinel-take)."""

import pyarrow as pa
import pyarrow.compute as pc

from upton_ray.scenarios import scenario_configs
from upton_ray.shuffle import collect


def _tuples(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def test_span_sequences_match_source_documents(ray_session, fixture_web):
    from upton_ray.engine import Crawler

    cfg = scenario_configs()["basic"]
    crawler = Crawler(cfg, fixture_web)
    frontier, _ = crawler.get_index()
    fetched = crawler.fetch_instances(frontier.materialize()).materialize()
    rows = pa.concat_tables(
        [t for t in __import__("ray").get(fetched.to_arrow_refs())
         if t.num_columns > 0]).to_pylist()
    assert rows, "no fetched rows"
    for r in rows:
        expected = fixture_web.get(r["instance_url"]) or []
        got = r["spans"] or []
        assert _tuples(got) == _tuples(expected), \
            f"span sequence differs for {r['instance_url']}"
    crawler.shutdown()


def test_span_sequences_survive_parquet_store_and_checkpoint(
        ray_session, fixture_web, tmp_path):
    import ray
    import ray.data

    from upton_ray import schema, sinks
    from upton_ray.engine import Crawler

    t = pa.table({
        "doc_id": pa.array(list(fixture_web.keys()), pa.string()),
        "spans": schema.spans_array(list(fixture_web.values())),
    })
    corpus = str(tmp_path / "corpus")
    sinks.write_web(ray.data.from_arrow(t), corpus, num_buckets=4)

    cfg = scenario_configs()["basic"]
    cfg.stash_folder = str(tmp_path / "stash")
    crawler = Crawler(cfg, ("parquet", corpus, 4))
    frontier, _ = crawler.get_index()
    fetched = crawler.fetch_instances(frontier.materialize())
    rows = collect(fetched, pa.schema([])).to_pylist()
    assert rows
    for r in rows:
        expected = fixture_web.get(r["instance_url"]) or []
        assert _tuples(r["spans"] or []) == _tuples(expected), \
            f"span sequence differs for {r['instance_url']} (parquet+ckpt path)"
    crawler.shutdown()
