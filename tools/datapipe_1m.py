"""Million-document soak for the training-data pipeline family — the
datapipe counterpart of tools/crawl_10m.py (which soaks only the crawl).

Builds (once, cached under /tmp) a deterministic 1M-doc corpus in the
testdata documents schema — ~60-token docs over a 50k-word vocabulary,
with a planted 10% near-dup family (each dup = its source doc with one
token swapped, so MinHash candidates are real) — then times the headline
dedup / prep operators over it and prints one JSON line.

Usage: python tools/datapipe_1m.py [--n-docs N] [--ops op1,op2,...]
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

CACHE_ROOT = "/tmp/upton_ray_datapipe1m"


def build_corpus(n_docs: int, seed: int = 7, tokens_per_doc: int = 60,
                 dup_frac: float = 0.10, bucket_rows: int = 62_500) -> str:
    """Deterministic corpus in the documents schema; cached by params."""
    key = hashlib.md5(
        f"{n_docs}-{seed}-{tokens_per_doc}-{dup_frac}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT, key)
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    tmp = out + ".build"
    os.makedirs(tmp, exist_ok=True)
    rng = np.random.RandomState(seed)
    vocab = np.array([f"w{i:05d}" for i in range(50_000)])
    langs = np.array(["en", "de", "fr", "es"])
    sources = np.array([f"src{i:02d}" for i in range(32)])

    n_dup = int(n_docs * dup_frac)
    files = []
    written = 0
    part = 0
    while written < n_docs:
        rows = min(bucket_rows, n_docs - written)
        ids = np.arange(written, written + rows, dtype=np.int64)
        toks = vocab[rng.randint(0, len(vocab),
                                 size=(rows, tokens_per_doc))]
        # near-dup family: doc_id < n_dup copies doc_id + n_dup's tokens
        # (same seed-stream means we can only plant dups WITHIN a part:
        # pair doc i with doc i+rows//2 inside the part when i is marked)
        half = rows // 2
        mark = ids[:half][(ids[:half] % 10) == 0]  # ~10% of first half
        loc = (mark - written).astype(np.int64)
        toks[loc] = toks[loc + half]
        toks[loc, 0] = "wdup0"                     # one-token perturbation
        texts = np.array([" ".join(r) for r in toks], dtype=object)
        t = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs[rng.randint(0, 4, rows)], pa.string()),
            "source": pa.array(sources[rng.randint(0, 32, rows)],
                               pa.string()),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        })
        f = os.path.join(tmp, f"part-{part:04d}.parquet")
        pq.write_table(t, f)
        files.append(f)
        written += rows
        part += 1
    # single documents.parquet dir layout the datapipe ops expect: they
    # read f"{sf_dir}/documents.parquet" — make it a DIRECTORY of parts
    doc_dir = os.path.join(tmp, "documents.parquet")
    os.makedirs(doc_dir, exist_ok=True)
    for f in files:
        os.rename(f, os.path.join(doc_dir, os.path.basename(f)))
    open(os.path.join(tmp, "_DONE"), "w").write("ok")
    os.rename(tmp, out)
    return out


def planted_pairs(n_docs: int, bucket_rows: int = 62_500) -> set:
    """The exact (src, dup) near-dup pairs build_corpus plants — ground
    truth for the minhash recovery assertion."""
    pairs = set()
    written = 0
    while written < n_docs:
        rows = min(bucket_rows, n_docs - written)
        half = rows // 2
        ids = np.arange(written, written + half, dtype=np.int64)
        for m in ids[(ids % 10) == 0]:
            pairs.add((int(m), int(m + half)))
        written += rows
    return pairs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--ops", default="dedup_exact,minhash_dedup,"
                                     "repetition_score,prepare_corpus,"
                                     "token_count")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    t0 = time.time()
    corpus = build_corpus(args.n_docs)
    build_s = round(time.time() - t0, 1)

    from upton_ray import datapipe

    from tools.soak import counted, rss_gated

    results = {}
    for op in args.ops.split(","):
        fn = getattr(datapipe, op)
        # minhash_dedup's candidate pairs and shingle sets must never land
        # on the driver (its verify is distributed), so its driver
        # high-water mark is gated; the other ops are timed, not gated
        bound = 400.0 if op == "minhash_dedup" else float("inf")
        (out, n), dt, delta = rss_gated(op, lambda: counted(fn(corpus)),
                                        bound)
        results[op] = {"sec": round(dt, 2), "rows": int(n),
                       "docs_per_sec": round(args.n_docs / dt, 1),
                       "driver_rss_delta_mb": delta}
        print(f"# {op}: {json.dumps(results[op])}", flush=True)
        if op == "minhash_dedup":
            # ground-truth recovery: the verified output must be EXACTLY
            # the planted near-dup family
            want = planted_pairs(args.n_docs)
            got = set(zip(out["doc_a"].to_pylist(), out["doc_b"].to_pylist()))
            assert got == want, (
                f"minhash recovery mismatch: {len(got)} found vs "
                f"{len(want)} planted; missing={len(want - got)} "
                f"spurious={len(got - want)}")
            results[op]["planted_recovered"] = len(want)
            print(f"# planted recovery OK: {len(want)} pairs", flush=True)
    print(json.dumps({"n_docs": args.n_docs, "corpus_build_s": build_s,
                      "ops": results}))
    ray.shutdown()


if __name__ == "__main__":
    main()
