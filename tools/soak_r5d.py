"""Round-5d soak: substring_dedup + temperature_resample at 10^6 docs —
the last two operators without at-scale evidence (every other family is
soaked at 1M-10M rows with planted truth; BASELINE.md).

- substring_dedup over the datapipe_1m corpus (60-token docs, 10% planted
  near-dups = source doc with token 0 swapped to 'wdup0'): the planted
  coverage law is exact — every dup AND its source share all 55 5-grams
  that avoid position 0, whose intervals union to tokens [1, 60), so both
  members must report n_dup_tok == 59 and every other doc 0 (5-gram
  collisions between random 60-token docs over a 50k vocab are
  measure-zero).  Run the default broadcast path at 1M; prove the
  distributed (gram-keyed semi-join + interval-union reduce) path equal
  on the same corpus at --dist-docs (default 250k: its occurrence
  exchange is the corpus's whole gram table, the documented cost).
- temperature_resample at 1M docs: the md5-draw law replays
  bit-identically in DuckDB — compare (source, n_docs, n_kept) EXACTLY
  against the gate's own oracle SQL re-pointed at the 1M corpus.

Both legs assert driver max-RSS delta < 400 MB.  Prints one JSON line.
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

from tools.datapipe_1m import build_corpus    # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _planted_dup_ids(n_docs: int, bucket_rows: int = 62_500) -> np.ndarray:
    """Replays datapipe_1m's planting law: marked ids i (i%10==0 in the
    part's first half) copy i+half's tokens with token0 swapped."""
    out = []
    written = 0
    while written < n_docs:
        rows = min(bucket_rows, n_docs - written)
        ids = np.arange(written, written + rows, dtype=np.int64)
        half = rows // 2
        mark = ids[:half][(ids[:half] % 10) == 0]
        out.append(mark)
        out.append(mark + half)
        written += rows
    return np.sort(np.concatenate(out))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--dist-docs", type=int, default=250_000)
    ap.add_argument("--ops", default="substring,substring_dist,temperature")
    args = ap.parse_args()
    ops = set(args.ops.split(","))

    import duckdb
    import pyarrow as pa  # noqa: F401
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from upton_ray import datapipe

    res: dict = {}

    def check_coverage(df, n_docs):
        dup_ids = _planted_dup_ids(n_docs)
        df = df.set_index("doc_id").sort_index()
        assert len(df) == n_docs
        assert (df["n_tok"] == 60).all()
        got_dup = df.index[df["n_dup_tok"] > 0].to_numpy()
        assert np.array_equal(np.sort(got_dup), dup_ids), \
            (len(got_dup), len(dup_ids))
        assert (df.loc[dup_ids, "n_dup_tok"] == 59).all()
        return len(dup_ids)

    if "substring" in ops:
        corpus = build_corpus(args.n_docs)
        rss0 = _maxrss_mb()
        t0 = time.time()
        df = datapipe.substring_dedup(corpus).to_pandas()
        wall = time.time() - t0
        delta = _maxrss_mb() - rss0
        n_dup = check_coverage(df, args.n_docs)
        # the verification's own to_pandas collect is the only driver
        # payload; gate the op's fold, not the checker: allow the 1M-row
        # frame (~24 MB) + the broadcast dup-set the driver measures
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["substring_dedup"] = {
            "n_docs": args.n_docs, "path": "broadcast",
            "n_planted_dup_docs": int(n_dup),
            "coverage_law_exact": True, "wall_s": round(wall, 1),
            "docs_per_s": round(args.n_docs / wall),
            "driver_rss_delta_mb": round(delta, 1)}

    if "substring_dist" in ops:
        corpus = build_corpus(args.dist_docs)
        rss0 = _maxrss_mb()
        t0 = time.time()
        df = datapipe.substring_dedup(
            corpus, force_distributed=True).to_pandas()
        wall = time.time() - t0
        delta = _maxrss_mb() - rss0
        n_dup = check_coverage(df, args.dist_docs)
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["substring_dedup_distributed"] = {
            "n_docs": args.dist_docs, "path": "distributed",
            "n_planted_dup_docs": int(n_dup),
            "coverage_law_exact": True, "wall_s": round(wall, 1),
            "docs_per_s": round(args.dist_docs / wall),
            "driver_rss_delta_mb": round(delta, 1)}

    if "temperature" in ops:
        import __ray_entry__ as e
        corpus = build_corpus(args.n_docs)
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = datapipe.temperature_resample(corpus).to_pandas()
        wall = time.time() - t0
        delta = _maxrss_mb() - rss0
        con = duckdb.connect()
        con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                    f"read_parquet('{corpus}/documents.parquet/*')")
        exp = con.execute(e.oracle_sql()["temperature_resample"]).df() \
            .sort_values("source").reset_index(drop=True)[got.columns]
        for c in got.columns:
            exp[c] = exp[c].astype(got[c].dtype)
        import pandas as pd
        pd.testing.assert_frame_equal(
            got.sort_values("source").reset_index(drop=True), exp)
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["temperature_resample"] = {
            "n_docs": args.n_docs, "oracle": "DuckDB exact (bit-identical draws)",
            "n_sources": int(len(got)),
            "wall_s": round(wall, 1),
            "docs_per_s": round(args.n_docs / wall),
            "driver_rss_delta_mb": round(delta, 1)}

    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
