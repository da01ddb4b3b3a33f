"""Round-5c operator soak: semdedup @ 1M vectors, quality_classifier +
zipf_fit @ 1M docs — the same planted-ground-truth / oracle-verified /
driver-RSS-flat evidence bar as the other family soaks.

- semdedup: the embeddings_1m corpus plants ~25k near-dup pairs
  (cosine > 0.999); at threshold=0.999 the screen must drop EXACTLY one
  member of every CO-CELL planted pair and nothing else (random 64-dim
  gaussian pairs never clear 0.999).  Pairs whose jittered copy crosses a
  k-means Voronoi boundary are invisible to the in-cell screen — the
  method's documented recall trade — and must stay under 0.5% of planted.
- quality_classifier: weak label = doc contains 'wdup0' (~5% base rate);
  the label column is verified EXACTLY against DuckDB, and the learned
  model must reach recall 1.0 (the marker feature separates) with
  accuracy >= 0.98 (precision is hash-collision-bounded by design:
  ~11 of 50k vocab words share the marker's 4096-dim bucket).
- zipf_fit: slope/intercept/n_terms vs DuckDB regr_slope/regr_intercept
  over the same top-1000 rank table, atol 1e-9.

Prints one JSON line.  Usage: python tools/soak_r5c.py [--ops a,b,...]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.datapipe_1m import build_corpus            # noqa: E402
from tools.embeddings_1m import build as build_emb    # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops",
                    default="semdedup,quality_classifier,zipf_fit,media")
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    args = ap.parse_args()
    ops = set(args.ops.split(","))

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    res: dict = {}

    if "semdedup" in ops:
        corpus = build_emb(args.n_vecs)
        # planted pairs: within each 125k part, ids (i, i+half) for marked i
        pairs = []
        written, bucket = 0, 125_000
        while written < args.n_vecs:
            rows = min(bucket, args.n_vecs - written)
            half = rows // 2
            loc = np.flatnonzero((np.arange(half) + written) % 20 == 0)
            pairs += [(written + i, written + i + half) for i in loc]
            written += rows
        rss0 = _maxrss_mb()
        t0 = time.time()
        out = datapipe.semdedup(corpus, k=64, threshold=0.999,
                                train_sample=8192)
        df = out.to_pandas()
        dt = time.time() - t0
        delta = _maxrss_mb() - rss0
        keep = dict(zip(df.vec_id, df.keep))
        cell = dict(zip(df.vec_id, df.cell))
        n_drop = int((~df.keep).sum())
        # SemDeDup's documented recall trade: a pair whose jittered copy
        # lands across a Voronoi boundary is invisible to the in-cell
        # screen (the paper accepts this; measured 19/25k = 0.08% here).
        co_cell = [(a, b) for a, b in pairs if cell[a] == cell[b]]
        split_cell = len(pairs) - len(co_cell)
        bad_pair = sum(1 for a, b in co_cell if keep[a] == keep[b])
        assert len(df) == args.n_vecs, len(df)
        assert bad_pair == 0, f"{bad_pair} co-cell pairs not exactly-one-kept"
        assert n_drop == len(co_cell), (n_drop, len(co_cell))
        assert split_cell <= 0.005 * len(pairs), \
            f"{split_cell}/{len(pairs)} planted pairs split cells"
        # output collect is 1M small rows (~30 MB) — the gate allows it,
        # but the operator itself must not fold vectors onto the driver
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["semdedup"] = {
            "sec": round(dt, 2), "n_vecs": args.n_vecs,
            "planted_pairs": len(pairs), "co_cell_pairs": len(co_cell),
            "boundary_missed": split_cell, "dropped": n_drop,
            "vecs_per_sec": round(args.n_vecs / dt, 1),
            "driver_rss_delta_mb": round(delta, 1)}

    if "quality_classifier" in ops or "zipf_fit" in ops:
        corpus = build_corpus(args.n_docs)
        con = duckdb.connect()
        con.sql("PRAGMA memory_limit='48GB'")
        con.sql("PRAGMA threads=16")
        con.sql(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{corpus}/documents.parquet/*.parquet')")

    if "quality_classifier" in ops:
        rss0 = _maxrss_mb()
        t0 = time.time()
        out = datapipe.quality_classifier(corpus, label_term="wdup0")
        df = out.to_pandas()
        dt = time.time() - t0
        delta = _maxrss_mb() - rss0
        t1 = time.time()
        want = con.sql(r"""
            SELECT doc_id,
                   CASE WHEN list_contains(string_split(
                        lower(trim(regexp_replace(text, '\s+', ' ', 'g'))),
                        ' '), 'wdup0') THEN 1 ELSE 0 END AS label
            FROM documents ORDER BY doc_id""").df()
        oracle_s = time.time() - t1
        got = df.sort_values("doc_id").reset_index(drop=True)
        assert (got.label.values == want.label.values).all(), \
            "label column diverges from DuckDB"
        acc = float((got.pred == got.label).mean())
        recall = float(got.pred[got.label == 1].mean())
        assert recall >= 0.999, recall
        assert acc >= 0.98, acc
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["quality_classifier"] = {
            "sec": round(dt, 2), "n_docs": args.n_docs,
            "accuracy": round(acc, 4), "recall": round(recall, 4),
            "precision": round(float(
                (got.label[got.pred == 1] == 1).mean()), 4),
            "docs_per_sec": round(args.n_docs / dt, 1),
            "oracle_label_s": round(oracle_s, 1),
            "driver_rss_delta_mb": round(delta, 1)}

    if "zipf_fit" in ops:
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = datapipe.zipf_fit(corpus).to_pandas()
        dt = time.time() - t0
        delta = _maxrss_mb() - rss0
        t1 = time.time()
        want = con.sql(r"""
            WITH tok AS (
              SELECT unnest(string_split(
                lower(trim(regexp_replace(text, '\s+', ' ', 'g'))), ' '))
                AS term FROM documents),
            c AS (SELECT term, CAST(count(*) AS BIGINT) AS n
                  FROM tok WHERE term <> '' GROUP BY term),
            r AS (SELECT n, row_number() OVER (ORDER BY n DESC, term)
                    AS rank FROM c ORDER BY n DESC, term LIMIT 1000)
            SELECT regr_slope(ln(n), ln(rank)) AS slope,
                   regr_intercept(ln(n), ln(rank)) AS intercept,
                   CAST(count(*) AS BIGINT) AS n_terms FROM r""").df()
        oracle_s = time.time() - t1
        assert int(got.n_terms[0]) == int(want.n_terms[0])
        assert abs(got.slope[0] - want.slope[0]) < 1e-9, \
            (got.slope[0], want.slope[0])
        assert abs(got.intercept[0] - want.intercept[0]) < 1e-9
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["zipf_fit"] = {
            "sec": round(dt, 2), "n_docs": args.n_docs,
            "slope": round(float(got.slope[0]), 6),
            "oracle_s": round(oracle_s, 1),
            "driver_rss_delta_mb": round(delta, 1)}

    if "media" in ops:
        corpus = build_corpus(args.n_docs)
        con = duckdb.connect()
        con.sql("PRAGMA memory_limit='48GB'")
        con.sql("PRAGMA threads=16")
        con.sql(f"CREATE OR REPLACE VIEW documents AS SELECT * FROM "
                f"read_parquet('{corpus}/documents.parquet/*.parquet')")
        import __ray_entry__ as e
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = datapipe.media_phash_dedup(corpus).to_pandas() \
            .sort_values("phash").reset_index(drop=True)
        dt = time.time() - t0
        delta = _maxrss_mb() - rss0
        t1 = time.time()
        want = con.sql(e.oracle_sql()["media_phash_dedup"]).df()
        oracle_s = time.time() - t1
        assert got.equals(want.astype(got.dtypes.to_dict())), \
            "media_phash_dedup diverges from the gate oracle at 1M"
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["media_phash_dedup"] = {
            "sec": round(dt, 2), "n_docs": args.n_docs,
            "dup_groups": int(len(got)),
            "docs_per_sec": round(args.n_docs / dt, 1),
            "oracle_s": round(oracle_s, 1),
            "driver_rss_delta_mb": round(delta, 1)}

    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
