"""Round-5 operator soak: the new ops at 10^6-10^7 rows with at-scale
ORACLE-VERIFIED truth (the same evidence bar as tools/soak_window.py /
soak_r4*.py set for earlier families):

- trailing_window_sum @ 10M events (hot user ~1M rows): full 10M-row frame
  EXACT int64 vs DuckDB's RANGE BETWEEN INTERVAL window.
- inter_event_stats @ 10M events: all ~50k user rows byte-/bit-exact vs
  DuckDB (mean is int/int division, compared exactly).
- triangle_count + degree_distribution @ 1M-node link graph (random holes):
  exact counts vs DuckDB's join/histogram oracles.
- vocab_coverage + top_terms_per_lang @ 1M docs: exact vs DuckDB over the
  same parquet directory.
- knn_graph @ 50k x 64 vectors: 128 sampled query rows verified against a
  numpy brute-force argsort (the full oracle is quadratic; sampling checks
  every pipeline stage end to end).

Prints one JSON line.  Usage: python tools/soak_r5.py [--ops a,b,...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.datapipe_1m import build_corpus          # noqa: E402
from tools.events_10m import build as build_events  # noqa: E402

GRAPH_CACHE = "/tmp/upton_ray_graph1m"


def build_graph_docs(n: int = 1_000_000, holes: int = 50_000,
                     seed: int = 13) -> str:
    out = os.path.join(GRAPH_CACHE, f"{n}-{holes}-{seed}")
    if not os.path.exists(os.path.join(out, "_DONE")):
        os.makedirs(out, exist_ok=True)
        rng = np.random.RandomState(seed)
        drop = rng.choice(n, holes, replace=False)
        present = np.setdiff1d(np.arange(n, dtype=np.int64), drop)
        d = os.path.join(out, "documents.parquet")
        os.makedirs(d, exist_ok=True)
        for i in range(0, len(present), 250_000):
            pq.write_table(
                pa.table({"doc_id": pa.array(present[i:i + 250_000],
                                             pa.int64())}),
                os.path.join(d, f"part-{i // 250_000:04d}.parquet"))
        open(os.path.join(out, "_DONE"), "w").write("")
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", default="trailing_window_sum,inter_event_stats,"
                                     "triangles,vocab,knn")
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    args = ap.parse_args()
    ops = set(args.ops.split(","))

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    con = duckdb.connect()
    con.sql("PRAGMA memory_limit='48GB'")
    con.sql("PRAGMA threads=16")
    res: dict = {}

    import resource

    def _maxrss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _rss_gate(op: str, rss0: float) -> float:
        """Driver-RSS flatness gate (VERDICT r4 item 7) — measured around
        the OPERATOR run (up to materialize/count), before the
        verification pull (which intentionally drags the full result onto
        the driver to compare against DuckDB)."""
        delta = _maxrss_mb() - rss0
        assert delta < 400, f"driver RSS grew {delta:.0f} MB during {op}"
        return round(delta, 1)

    if "trailing_window_sum" in ops or "inter_event_stats" in ops:
        events = build_events(args.n_events)
        eglob = f"{events}/events.parquet/*.parquet"

    if "trailing_window_sum" in ops:
        rss0 = _maxrss_mb()
        t0 = time.time()
        mat = datapipe.trailing_window_sum(events).materialize()
        dt = time.time() - t0
        rss_delta = _rss_gate("trailing_window_sum", rss0)
        got = mat.to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        want = con.sql(f"""
            SELECT event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts
                       RANGE BETWEEN INTERVAL 3600 SECOND PRECEDING
                             AND CURRENT ROW) AS BIGINT) AS win_cents
            FROM read_parquet('{eglob}') ORDER BY event_id""").df()
        assert len(got) == len(want) == args.n_events
        assert (got["win_cents"].to_numpy()
                == want["win_cents"].to_numpy()).all(), \
            "trailing_window_sum mismatch at 10M"
        res["trailing_window_sum"] = {
            "sec": round(dt, 1), "rows": len(got),
            "events_per_sec": round(args.n_events / dt, 1), "exact": True,
            "driver_rss_delta_mb": rss_delta}
        print("# trailing_window_sum:", json.dumps(
            res["trailing_window_sum"]))

    if "inter_event_stats" in ops:
        rss0 = _maxrss_mb()
        t0 = time.time()
        mat = datapipe.inter_event_stats(events).materialize()
        dt = time.time() - t0
        rss_delta = _rss_gate("inter_event_stats", rss0)
        got = mat.to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        want = con.sql(f"""
            WITH g AS (
              SELECT user_id,
                     epoch_us(ts) - lag(epoch_us(ts)) OVER
                        (PARTITION BY user_id ORDER BY ts, event_id) AS gap
              FROM read_parquet('{eglob}'))
            SELECT user_id, CAST(count(gap) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_us,
                   CAST(max(gap) AS BIGINT) AS max_gap_us,
                   CAST(sum(gap) AS DOUBLE) / count(gap) AS mean_gap_us
            FROM g GROUP BY user_id HAVING count(gap) > 0
            ORDER BY user_id""").df()
        assert len(got) == len(want)
        for c in ("n_gaps", "min_gap_us", "max_gap_us", "mean_gap_us"):
            assert (got[c].to_numpy() == want[c].to_numpy()).all(), c
        res["inter_event_stats"] = {
            "sec": round(dt, 1), "users": len(got), "exact": True,
            "driver_rss_delta_mb": rss_delta}
        print("# inter_event_stats:", json.dumps(res["inter_event_stats"]))

    if "triangles" in ops:
        gdir = build_graph_docs()
        dglob = f"{gdir}/documents.parquet/*.parquet"
        rss0 = _maxrss_mb()
        t0 = time.time()
        tri = datapipe.triangle_count(gdir, num_partitions=16)
        dt = time.time() - t0
        rss_tri = _rss_gate("triangle_count", rss0)
        want_tri = con.sql(f"""
            WITH ids AS (SELECT doc_id FROM read_parquet('{dglob}')),
            e AS (SELECT d.doc_id AS a, d.doc_id + t.k AS b
                  FROM ids d, (VALUES (1), (2), (3)) t(k)
                  WHERE EXISTS (SELECT 1 FROM ids i
                                WHERE i.doc_id = d.doc_id + t.k))
            SELECT count(*) AS n FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b""").df()["n"][0]
        got_tri = int(tri["n_triangles"][0].as_py())
        assert got_tri == int(want_tri), (got_tri, want_tri)
        t1 = time.time()
        dd = datapipe.degree_distribution(gdir, num_partitions=16) \
            .to_pandas().sort_values("degree").reset_index(drop=True)
        dt2 = time.time() - t1
        want_dd = con.sql(f"""
            WITH ids AS (SELECT doc_id FROM read_parquet('{dglob}')),
            e AS (SELECT d.doc_id AS a, d.doc_id + t.k AS b
                  FROM ids d, (VALUES (1), (2), (3)) t(k)
                  WHERE EXISTS (SELECT 1 FROM ids i
                                WHERE i.doc_id = d.doc_id + t.k)),
            deg AS (SELECT node, count(*) AS dg FROM (
                      SELECT a AS node FROM e
                      UNION ALL SELECT b AS node FROM e) GROUP BY 1),
            alln AS (SELECT d.doc_id, coalesce(deg.dg, 0) AS dg
                     FROM ids d LEFT JOIN deg ON deg.node = d.doc_id)
            SELECT CAST(dg AS BIGINT) AS degree,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM alln GROUP BY 1 ORDER BY 1""").df()
        assert dd.values.tolist() == want_dd.values.tolist()
        res["graph_1m"] = {
            "triangles": got_tri, "tri_sec": round(dt, 1),
            "degree_sec": round(dt2, 1), "exact": True,
            "driver_rss_delta_mb": rss_tri}
        print("# graph_1m:", json.dumps(res["graph_1m"]))

    if "vocab" in ops:
        docs = build_corpus(args.n_docs)
        dglob = f"{docs}/documents.parquet/*.parquet"
        norm = (r"lower(trim(regexp_replace(text, '\s+', ' ', 'g')))")
        rss0 = _maxrss_mb()
        t0 = time.time()
        vc = datapipe.vocab_coverage(docs).to_pandas() \
            .sort_values("top_n").reset_index(drop=True)
        dt = time.time() - t0
        rss_vc = _rss_gate("vocab_coverage", rss0)
        want_vc = con.sql(f"""
            WITH tok AS (SELECT unnest(string_split({norm}, ' ')) AS term
                         FROM read_parquet('{dglob}')),
            t2 AS (SELECT term, count(*) AS c FROM tok
                   WHERE term <> '' GROUP BY 1),
            r AS (SELECT c, row_number() OVER (ORDER BY c DESC, term) AS rk
                  FROM t2),
            tot AS (SELECT CAST(sum(c) AS BIGINT) AS s FROM t2)
            SELECT CAST(n.top_n AS BIGINT) AS top_n,
                   CAST(sum(r.c) AS BIGINT) AS covered,
                   tot.s AS total,
                   CAST(sum(r.c) AS DOUBLE) / tot.s AS coverage
            FROM (VALUES (100), (1000), (10000)) n(top_n)
            JOIN r ON r.rk <= n.top_n CROSS JOIN tot
            GROUP BY n.top_n, tot.s ORDER BY top_n""").df()
        assert vc.values.tolist() == want_vc.values.tolist()
        t1 = time.time()
        tt = datapipe.top_terms_per_lang(docs).to_pandas() \
            .sort_values(["lang", "rank"]).reset_index(drop=True)
        dt2 = time.time() - t1
        want_tt = con.sql(f"""
            WITH tok AS (SELECT lang,
                                unnest(string_split({norm}, ' ')) AS term
                         FROM read_parquet('{dglob}')),
            t2 AS (SELECT lang, term, count(*) AS c FROM tok
                   WHERE term <> '' GROUP BY 1, 2),
            r AS (SELECT lang, term, c,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY c DESC, term) AS rk
                  FROM t2)
            SELECT lang, term, CAST(c AS BIGINT) AS n,
                   CAST(rk AS BIGINT) AS rank
            FROM r WHERE rk <= 5 ORDER BY lang, rank""").df()
        assert tt.values.tolist() == want_tt.values.tolist()
        res["vocab_1m"] = {"coverage_sec": round(dt, 1),
                           "top_terms_sec": round(dt2, 1),
                           "total_tokens": int(vc["total"][0]),
                           "exact": True,
                           "driver_rss_delta_mb": rss_vc}
        print("# vocab_1m:", json.dumps(res["vocab_1m"]))

    if "knn" in ops:
        kdir = "/tmp/upton_ray_knn50k"
        if not os.path.exists(os.path.join(kdir, "_DONE")):
            os.makedirs(kdir, exist_ok=True)
            rng = np.random.RandomState(99)
            M = rng.randn(50_000, 64).astype(np.float32)
            pq.write_table(pa.table({
                "vec_id": pa.array(np.arange(50_000), pa.int64()),
                "embedding": pa.array([v.tolist() for v in M],
                                      pa.list_(pa.float32()))}),
                os.path.join(kdir, "embeddings.parquet"))
            open(os.path.join(kdir, "_DONE"), "w").write("")
        rss0 = _maxrss_mb()
        t0 = time.time()
        g = datapipe.knn_graph(kdir, k=5, num_blocks=32).to_pandas()
        dt = time.time() - t0
        rss_knn = _rss_gate("knn_graph", rss0)
        assert len(g) == 50_000 * 5
        M = pq.read_table(os.path.join(kdir, "embeddings.parquet")) \
            ["embedding"].combine_chunks().flatten() \
            .to_numpy(zero_copy_only=False).astype(np.float64) \
            .reshape(50_000, 64)
        X = M / np.linalg.norm(M, axis=1, keepdims=True)
        rng = np.random.RandomState(7)
        sample = rng.choice(50_000, 128, replace=False)
        sims = X[sample] @ X.T
        for row, src in enumerate(sample):
            sims[row, src] = -np.inf
            order = np.lexsort((np.arange(50_000), -sims[row]))[:5]
            mine = g[g["src_id"] == src].sort_values("rank")
            assert mine["dst_id"].tolist() == order.tolist(), src
        res["knn_50k"] = {"sec": round(dt, 1), "rows": len(g),
                          "sampled_exact": 128,
                          "driver_rss_delta_mb": rss_knn}
        print("# knn_50k:", json.dumps(res["knn_50k"]))

    if "r5b" in ops:
        # the six newest oracle-bearing ops at 1M docs, verified against
        # the SAME oracle_sql() the driver gate uses — the documents view
        # simply points at the 1M corpus instead of the sf tables
        import __ray_entry__ as entrymod
        from tools.check_queries import canon, to_pandas
        docs = build_corpus(args.n_docs)
        dglob = f"{docs}/documents.parquet/*.parquet"
        conb = duckdb.connect()
        conb.sql("PRAGMA memory_limit='48GB'")
        conb.sql("PRAGMA threads=16")
        conb.sql(f"CREATE VIEW documents AS "
                 f"SELECT * FROM read_parquet('{dglob}')")
        oracles = entrymod.oracle_sql()
        qs = entrymod.queries()
        for name in ("gopher_rules", "normalize_text", "host_cap",
                     "media_ref_dedup", "perplexity_buckets",
                     "hits_scores"):
            rss0 = _maxrss_mb()
            t0 = time.time()
            out = qs[name](docs)
            if hasattr(out, "materialize"):
                out = out.materialize()
            dt = time.time() - t0
            rss_d = _rss_gate(name, rss0)
            got = to_pandas(out)
            t1 = time.time()
            want = conb.sql(oracles[name]).df()
            oracle_dt = time.time() - t1
            assert sorted(got.columns) == sorted(want.columns), name
            assert len(got) == len(want), (name, len(got), len(want))
            g, x = canon(got), canon(want)
            num = g.select_dtypes(include=[np.number]).columns
            for c in g.columns:
                if c in num:
                    assert np.allclose(g[c].to_numpy(dtype=float),
                                       x[c].to_numpy(dtype=float),
                                       rtol=0, atol=1e-9,
                                       equal_nan=True), (name, c)
                else:
                    assert (g[c].to_numpy() == x[c].to_numpy()).all(), \
                        (name, c)
            res[name] = {"sec": round(dt, 1), "rows": len(got),
                         "docs_per_sec": round(args.n_docs / dt, 1),
                         "oracle_sec": round(oracle_dt, 1),
                         "exact_1e9": True,
                         "driver_rss_delta_mb": rss_d}
            print(f"# {name}:", json.dumps(res[name]))

    ray.shutdown()
    print(json.dumps(res))


if __name__ == "__main__":
    main()
