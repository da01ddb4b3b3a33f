"""Million-vector soak for the similarity-search family — the third scale
leg after tools/crawl_10m.py (crawl) and tools/datapipe_1m.py (text prep).

Builds (once, cached under /tmp) a deterministic 1M x 64-dim embedding
table in the testdata schema with a planted 5% near-dup family (each dup
= its source vector + tiny noise, cosine > 0.999), then times brute /
IVF / PQ ANN and SRP-LSH near-dup detection over it.

Usage: python tools/embeddings_1m.py [--n-vecs N] [--ops op1,...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CACHE_ROOT = "/tmp/upton_ray_emb1m"
DIM = 64


def build(n_vecs: int, seed: int = 11, dup_frac: float = 0.05,
          bucket_rows: int = 125_000) -> str:
    key = hashlib.md5(f"{n_vecs}-{seed}-{dup_frac}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT, key)
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    tmp = out + ".build"
    emb_dir = os.path.join(tmp, "embeddings.parquet")
    os.makedirs(emb_dir, exist_ok=True)
    rng = np.random.RandomState(seed)
    written = 0
    part = 0
    while written < n_vecs:
        rows = min(bucket_rows, n_vecs - written)
        m = rng.standard_normal((rows, DIM)).astype(np.float32)
        # plant near-dups WITHIN the part: ~dup_frac of the first half
        # copies its partner in the second half plus tiny noise
        half = rows // 2
        loc = np.flatnonzero(
            (np.arange(half) + written) % int(1 / dup_frac) == 0)
        m[loc] = m[loc + half] + rng.standard_normal(
            (len(loc), DIM)).astype(np.float32) * 1e-3
        t = pa.table({
            "vec_id": pa.array(np.arange(written, written + rows,
                                         dtype=np.int64), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(m.ravel(), pa.float32()), DIM).cast(
                pa.list_(pa.float32())),
            "label": pa.array(rng.randint(0, 16, rows), pa.int32()),
        })
        pq.write_table(t, os.path.join(emb_dir, f"part-{part:04d}.parquet"))
        written += rows
        part += 1
    open(os.path.join(tmp, "_DONE"), "w").write("ok")
    os.rename(tmp, out)
    return out


def planted_pairs(n_vecs: int, dup_frac: float = 0.05,
                  bucket_rows: int = 125_000) -> set:
    """The exact (src, dup) near-dup pairs :func:`build` plants: inside
    each part, marked row i of the first half copies row i + half."""
    pairs = set()
    written = 0
    while written < n_vecs:
        rows = min(bucket_rows, n_vecs - written)
        half = rows // 2
        loc = np.flatnonzero(
            (np.arange(half) + written) % int(1 / dup_frac) == 0)
        for i in loc:
            pairs.add((int(written + i), int(written + i + half)))
        written += rows
    return pairs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    ap.add_argument("--ops", default="ann_topk,ann_ivf,ann_pq,"
                                     "embedding_dedup_lsh")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    t0 = time.time()
    corpus = build(args.n_vecs)
    build_s = round(time.time() - t0, 1)

    from upton_ray import datapipe

    from tools.soak import counted, rss_gated

    results = {}
    for op in args.ops.split(","):
        fn = getattr(datapipe, op)
        # ru_maxrss counts plasma-mmapped SHARED pages the driver touches
        # while materializing block metadata for the ~11.5M spurious SRP
        # candidates of embedding_dedup_lsh (~530 MB at 1M vectors,
        # object-store resident, not driver heap); its distributed verify
        # measures 0 MB of driver growth — the 1200 MB bound guards
        # against a return of the old driver-side candidate/vector
        # materialization.  The other ops are timed, not gated.
        bound = 1200.0 if op == "embedding_dedup_lsh" else float("inf")
        (out, n), dt, delta = rss_gated(op, lambda: counted(fn(corpus)),
                                        bound)
        results[op] = {"sec": round(dt, 2), "rows": int(n),
                       "vecs_per_sec": round(args.n_vecs / dt, 1),
                       "driver_rss_delta_mb": delta}
        if op == "embedding_dedup_lsh":
            # exact planted-family recovery (the verify is distributed:
            # the driver never holds candidates or vectors)
            want = planted_pairs(args.n_vecs)
            got = set(zip(out["vec_a"].to_pylist(), out["vec_b"].to_pylist()))
            assert got == want, (
                f"lsh recovery mismatch: {len(got)} found vs {len(want)} "
                f"planted; missing={len(want - got)} "
                f"spurious={len(got - want)}")
            results[op]["planted_recovered"] = len(want)
    print(json.dumps({"n_vecs": args.n_vecs, "corpus_build_s": build_s,
                      "ops": results}))
    ray.shutdown()


if __name__ == "__main__":
    main()
