"""Round-4b soak: the newest operators at 1M docs / 10M events with
PLANTED or ORACLE-VERIFIED truth, not just throughput.

- heavy_hitters + distinct_by_type at 10M events: verified EXACTLY against
  DuckDB over the same parquet (the oracle, run at soak scale).
- line_dedup at 1M docs with a planted boilerplate window in every 100th
  doc: the planted windows (and ONLY they) must be dropped.
- reservoir_sample at 1M docs: verified against DuckDB's
  ORDER BY md5(...) LIMIT k.
- bigram_logprob / span_explode / span_kind_hist at 1M docs: throughput
  (bigram additionally spot-verified against DuckDB when --verify-bigram).

Prints one JSON line.  Usage: python tools/soak_r4b.py [--n-docs N]
[--n-events N] [--verify-bigram]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.datapipe_1m import build_corpus           # noqa: E402
from tools.events_10m import build as build_events   # noqa: E402

BOILER = " ".join(f"boiler{i}" for i in range(8))     # one 8-token window


def build_boiler_corpus(src: str, every: int = 100) -> str:
    """Derived corpus: prepend BOILER to every ``every``-th doc (streamed
    part-by-part, cached)."""
    out = src.rstrip("/") + f"_boiler{every}"
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    os.makedirs(os.path.join(out, "documents.parquet"), exist_ok=True)
    src_dir = os.path.join(src, "documents.parquet")
    for f in sorted(os.listdir(src_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(src_dir, f))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_numpy(zero_copy_only=False).astype(object)
        mark = (ids % every) == 0
        texts[mark] = BOILER + " " + texts[mark]
        t = t.set_column(t.schema.get_field_index("text"), "text",
                         pa.array(texts, pa.string()))
        pq.write_table(t, os.path.join(out, "documents.parquet", f))
    open(os.path.join(out, "_DONE"), "w").write("ok")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--verify-bigram", action="store_true")
    args = ap.parse_args()

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    res: dict = {"n_docs": args.n_docs, "n_events": args.n_events}
    docs = build_corpus(args.n_docs)
    events = build_events(args.n_events)
    con = duckdb.connect()

    # ---- heavy_hitters: exact vs DuckDB at 10M events
    phi = 0.007
    t0 = time.time()
    hh = datapipe.heavy_hitters(events, phi=phi).to_pandas()
    dt = time.time() - t0
    want = con.sql(f"""
        WITH c AS (SELECT user_id, count(*) AS n
                   FROM read_parquet('{events}/events.parquet/*.parquet')
                   GROUP BY 1),
        t AS (SELECT sum(n) AS total FROM c)
        SELECT user_id, n FROM c, t
        WHERE n >= ceil({phi} * total) ORDER BY n DESC, user_id""").df()
    assert list(hh.user_id) == list(want.user_id), "heavy_hitters ids differ"
    assert list(hh.n) == list(want.n), "heavy_hitters counts differ"
    res["heavy_hitters"] = {"sec": round(dt, 2), "rows": len(hh),
                            "events_per_sec": round(args.n_events / dt, 1),
                            "verified": "exact-vs-duckdb"}

    # ---- distinct_by_type: exact vs DuckDB at 10M events
    t0 = time.time()
    db = datapipe.distinct_by_type(events).to_pandas()
    dt = time.time() - t0
    want = con.sql(f"""
        SELECT event_type, count(DISTINCT user_id) AS n_users
        FROM read_parquet('{events}/events.parquet/*.parquet')
        GROUP BY 1 ORDER BY 1""").df()
    assert list(db.event_type) == list(want.event_type)
    assert list(db.n_users) == list(want.n_users), "distinct counts differ"
    res["distinct_by_type"] = {"sec": round(dt, 2), "rows": len(db),
                               "events_per_sec": round(args.n_events / dt, 1),
                               "verified": "exact-vs-duckdb"}

    # ---- line_dedup: planted boilerplate at 1M docs
    bdir = build_boiler_corpus(docs)
    n_boiler = sum(1 for i in range(args.n_docs) if i % 100 == 0)
    t0 = time.time()
    ld = datapipe.line_dedup(bdir)
    dropped = int(ld.map_batches(
        lambda b: pa.table({"d": [int(pa.compute.sum(b["n_dropped"])
                                      .as_py() or 0)]}),
        batch_format="pyarrow").to_pandas()["d"].sum())
    dt = time.time() - t0
    assert dropped == n_boiler, f"line_dedup dropped {dropped} != {n_boiler}"
    # spot-check: a planted doc's clean text equals its original text
    orig = con.sql(f"""
        SELECT text FROM read_parquet('{docs}/documents.parquet/*.parquet')
        WHERE doc_id = 100""").fetchone()[0]
    got = con.sql("SELECT 1").fetchone()  # keep con alive (no-op)
    clean = [r["text_clean"] for r in
             ld.filter(lambda r: r["doc_id"] == 100).take(1)][0]
    assert clean == orig, "line_dedup altered non-boiler text"
    res["line_dedup"] = {"sec": round(dt, 2), "planted_dropped": dropped,
                         "docs_per_sec": round(args.n_docs / dt, 1),
                         "verified": "planted-boilerplate"}

    # ---- reservoir_sample: k smallest md5 vs DuckDB at 1M docs
    t0 = time.time()
    rs = datapipe.reservoir_sample(docs, k=500).to_pandas()
    dt = time.time() - t0
    want = con.sql(f"""
        SELECT doc_id, md5('smp:' || doc_id) AS priority
        FROM read_parquet('{docs}/documents.parquet/*.parquet')
        ORDER BY priority, doc_id LIMIT 500""").df()
    assert list(rs.doc_id) == list(want.doc_id), "sample differs"
    res["reservoir_sample"] = {"sec": round(dt, 2),
                               "docs_per_sec": round(args.n_docs / dt, 1),
                               "verified": "exact-vs-duckdb"}

    # ---- span family + bigram: throughput at 1M docs
    for op in ("span_explode", "span_kind_hist", "bigram_logprob"):
        fn = getattr(datapipe, op)
        t0 = time.time()
        out = fn(docs)
        n = out.count() if hasattr(out, "count") else out.num_rows
        dt = time.time() - t0
        res[op] = {"sec": round(dt, 2), "rows": int(n),
                   "docs_per_sec": round(args.n_docs / dt, 1)}

    if args.verify_bigram:
        t0 = time.time()
        got = datapipe.bigram_logprob(docs).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        want = con.sql(f"""
            WITH t AS (SELECT doc_id,
                string_split(lower(trim(regexp_replace(text, '\\s+', ' ',
                                                       'g'))), ' ') AS w
                FROM read_parquet('{docs}/documents.parquet/*.parquet')),
            bi AS (SELECT doc_id, w[i] AS lw, w[i+1] AS rw
                   FROM t, LATERAL (SELECT unnest(generate_series(1,
                        CAST(len(w) AS INT) - 1)) AS i) g),
            c12 AS (SELECT lw, rw, count(*) AS c FROM bi GROUP BY 1, 2),
            c1 AS (SELECT lw, count(*) AS c FROM bi GROUP BY 1)
            SELECT bi.doc_id, count(*) AS n_bigrams,
                   round(avg(ln(CAST(c12.c AS DOUBLE) / c1.c)), 6)
                     AS avg_logprob
            FROM bi JOIN c12 USING (lw, rw) JOIN c1 USING (lw)
            GROUP BY bi.doc_id ORDER BY bi.doc_id""").df()
        ok = (np.array_equal(got.doc_id, want.doc_id)
              and np.array_equal(got.n_bigrams, want.n_bigrams)
              and np.allclose(got.avg_logprob, want.avg_logprob,
                              rtol=0, atol=1e-6))
        assert ok, "bigram_logprob differs from DuckDB at 1M docs"
        res["bigram_verify"] = {"sec": round(time.time() - t0, 2),
                                "verified": "exact-vs-duckdb-1M"}

    res["driver_peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
