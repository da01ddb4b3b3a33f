"""Round-5g soak: feature_corr at 10^7 events (oracle replayed at scale),
link_reciprocity at 10^6 docs (oracle self-join replayed at scale), and
embedding_pca at 10^6 vectors (rows-only op -> invariant gate: per-axis
projection variance equals the op's eigenvalues and the axes are
uncorrelated/centered, all checked through DISTRIBUTED moment partials —
those invariants break if any covariance/projection fold is wrong).

Every leg asserts driver max-RSS delta < 400 MB (bracketing the Ray side
only — the in-process DuckDB oracle allocates legitimately).  Prints one
JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.check_queries import canon, to_pandas       # noqa: E402
from tools.datapipe_1m import build_corpus             # noqa: E402
from tools.embeddings_1m import build as build_vecs    # noqa: E402
from tools.events_10m import build as build_events     # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    ap.add_argument("--legs", default="corr,recip,pca")
    args = ap.parse_args()
    legs = set(args.legs.split(","))

    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as e
    from upton_ray import datapipe

    oracles = e.oracle_sql()
    res: dict = {}

    def oracle_leg(name, fn, corpus, table, n_rows):
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = to_pandas(fn(corpus))
        wall = time.time() - t0
        d_rss = _maxrss_mb() - rss0
        con = duckdb.connect()
        con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                    f"read_parquet('{corpus}/{table}.parquet/*')")
        exp = con.execute(oracles[name]).df()
        con.close()
        g, x = canon(got), canon(exp)
        assert len(g) == len(x) and sorted(g.columns) == sorted(x.columns)
        status = "OK"
        for c in g.columns:
            if g[c].dtype.kind in "fc":
                if not np.allclose(g[c].to_numpy(float), x[c].to_numpy(float),
                                   rtol=0, atol=1e-9):
                    status = f"VALUES differ in {c}"
            elif not (g[c].to_numpy() == x[c].to_numpy()).all():
                status = f"VALUES differ in {c}"
        res[name] = {"n_rows": n_rows, "wall_s": round(wall, 1),
                     "rows_per_s": int(n_rows / wall), "out_rows": len(got),
                     "gate": status,
                     "driver_rss_delta_mb": round(d_rss, 1)}
        print(f"{name:18s} n={n_rows:9d} wall={wall:7.1f}s "
              f"out={len(got):7d} {status} rssΔ={d_rss:.1f}MB", flush=True)
        assert status == "OK", (name, status)
        assert d_rss < 400, (name, d_rss)

    if "corr" in legs:
        ev = build_events(args.n_events)
        oracle_leg("feature_corr", datapipe.feature_corr, ev, "events",
                   args.n_events)
    if "sessions" in legs:
        ev = build_events(args.n_events)
        oracle_leg("session_stats", datapipe.session_stats, ev, "events",
                   args.n_events)
    if "recip" in legs:
        docs = build_corpus(args.n_docs)
        oracle_leg("link_reciprocity", datapipe.link_reciprocity, docs,
                   "documents", args.n_docs)
    if "pca" in legs:
        vecs = build_vecs(args.n_vecs)
        rss0 = _maxrss_mb()
        t0 = time.time()
        ds = datapipe.embedding_pca(vecs)

        def mom(b: pa.Table) -> pa.Table:
            P = np.stack([b["p0"].to_numpy(zero_copy_only=False),
                          b["p1"].to_numpy(zero_copy_only=False)], axis=1)
            return pa.table({
                "n": pa.array([P.shape[0]], pa.int64()),
                "s0": pa.array([P[:, 0].sum()]),
                "s1": pa.array([P[:, 1].sum()]),
                "q00": pa.array([(P[:, 0] ** 2).sum()]),
                "q11": pa.array([(P[:, 1] ** 2).sum()]),
                "q01": pa.array([(P[:, 0] * P[:, 1]).sum()])})

        parts = pa.concat_tables([t for t in ray.get(
            ds.map_batches(mom, batch_format="pyarrow", batch_size=None)
            .to_arrow_refs()) if t.num_rows])
        wall = time.time() - t0
        d_rss = _maxrss_mb() - rss0
        n = sum(parts["n"].to_pylist())
        s0, s1 = sum(parts["s0"].to_pylist()), sum(parts["s1"].to_pylist())
        v0 = sum(parts["q00"].to_pylist()) / n - (s0 / n) ** 2
        v1 = sum(parts["q11"].to_pylist()) / n - (s1 / n) ** 2
        c01 = sum(parts["q01"].to_pylist()) / n - (s0 / n) * (s1 / n)
        # independent eigenvalues from the raw table via a fresh moment fold
        emb = datapipe._table(vecs, "embeddings", ["embedding"])

        def cv(b: pa.Table) -> pa.Table:
            M = datapipe._emb_matrix(b)
            return pa.table({"n": pa.array([M.shape[0]], pa.int64()),
                             "s": pa.array([M.sum(axis=0)],
                                           pa.list_(pa.float64())),
                             "ss": pa.array([(M.T @ M).ravel()],
                                            pa.list_(pa.float64()))})

        cparts = [t for t in ray.get(
            emb.map_batches(cv, batch_format="pyarrow", batch_size=None)
            .to_arrow_refs()) if t.num_rows]
        cn = sum(int(x) for t in cparts for x in t["n"].to_pylist())
        cs = sum(np.asarray(x) for t in cparts for x in t["s"].to_pylist())
        css = sum(np.asarray(x) for t in cparts for x in t["ss"].to_pylist())
        d = len(cs)
        mu = cs / cn
        cov = css.reshape(d, d) / cn - np.outer(mu, mu)
        ev_top = np.linalg.eigvalsh(cov)[::-1][:2]
        ok = (abs(v0 - ev_top[0]) < 1e-6 * max(1, ev_top[0])
              and abs(v1 - ev_top[1]) < 1e-6 * max(1, ev_top[1])
              and abs(c01) < 1e-6
              and abs(s0 / n) < 1e-9 and abs(s1 / n) < 1e-9)
        res["embedding_pca"] = {
            "n_rows": args.n_vecs, "wall_s": round(wall, 1),
            "rows_per_s": int(args.n_vecs / wall),
            "var_matches_eigs": bool(ok),
            "proj_var": [v0, v1], "top_eigs": ev_top.tolist(),
            "axis_cov": c01,
            "driver_rss_delta_mb": round(d_rss, 1)}
        print(f"embedding_pca      n={args.n_vecs:9d} wall={wall:7.1f}s "
              f"var==eigs:{ok} rssΔ={d_rss:.1f}MB", flush=True)
        assert ok
        assert d_rss < 400, d_rss

    print(json.dumps({"soak": "r5g", "results": res}))
    ray.shutdown()


if __name__ == "__main__":
    main()
