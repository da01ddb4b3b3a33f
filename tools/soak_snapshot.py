"""snapshot_dedup soak at 10^6 docs — planted-ground-truth, exact-set
verified, driver-RSS-flat (the family evidence bar).

Corpus: doc_ids 0..n-1; the op's own split law (md5(doc_id) % 10 < 7 →
prior snapshot) is replayed HERE in the builder, so the planted truth is
known exactly: every old doc gets a unique page body; of the new docs,
``dup_frac`` re-crawl an old doc's body verbatim (round-robin over old
ids) and the rest are fresh.  Expected survivors = exactly the fresh new
docs.

Verified:
- survivor doc_id set EXACTLY equals the planted fresh set;
- the bloom screen is load-bearing at scale: with the auto-sized bitmap
  the candidate fraction of new docs ~= true re-crawl fraction (FPR
  contributes < 1%), asserted via the op's primitives on the same corpus;
- driver max-RSS delta < 400 MB.

Prints one JSON line.  Usage: python tools/soak_snapshot.py [--n-docs N]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CACHE_ROOT = "/tmp/upton_ray_snapshot1m"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _splits(ids: np.ndarray, modulus: int = 10) -> np.ndarray:
    return np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                     % modulus for i in ids], np.int64)


def build_corpus(n_docs: int, dup_frac: float = 0.2,
                 bucket_rows: int = 125_000) -> tuple[str, dict]:
    """Returns (dir, truth) — truth holds the planted old/new/dup counts
    and the exact fresh-survivor id set (as a sorted numpy array)."""
    key = hashlib.md5(f"{n_docs}-{dup_frac}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT, key)
    meta = os.path.join(out, "truth.npz")
    if os.path.exists(os.path.join(out, "_DONE")):
        z = np.load(meta)
        return out, {"fresh": z["fresh"], "n_old": int(z["n_old"]),
                     "n_dup": int(z["n_dup"])}
    tmp = out + ".build"
    doc_dir = os.path.join(tmp, "documents.parquet")
    os.makedirs(doc_dir, exist_ok=True)

    ids_all = np.arange(n_docs, dtype=np.int64)
    sp = _splits(ids_all)
    old_ids = ids_all[sp < 7]
    new_ids = ids_all[sp >= 7]
    # every k-th new doc re-crawls an old body (round-robin partner)
    k = max(2, int(round(1.0 / max(dup_frac, 1e-9))))
    dup_mask = (np.arange(len(new_ids)) % k) == 0
    partners = old_ids[np.arange(int(dup_mask.sum())) % len(old_ids)]
    partner_of = dict(zip(new_ids[dup_mask].tolist(), partners.tolist()))
    fresh = np.sort(new_ids[~dup_mask])

    part = 0
    for lo in range(0, n_docs, bucket_rows):
        ids = ids_all[lo:lo + bucket_rows]
        texts = []
        for i in ids:
            if i in partner_of:
                texts.append(f"snapshot page body {partner_of[i]} "
                             f"crawl content block")
            elif sp[i] < 7:
                texts.append(f"snapshot page body {i} crawl content block")
            else:
                texts.append(f"fresh page body {i} new this crawl")
        t = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
            "source": pa.array([f"src{int(i) % 32:02d}" for i in ids],
                               pa.string()),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        })
        pq.write_table(t, os.path.join(doc_dir, f"part-{part:04d}.parquet"))
        part += 1
    np.savez(os.path.join(tmp, "truth.npz"), fresh=fresh,
             n_old=len(old_ids), n_dup=int(dup_mask.sum()))
    os.rename(tmp, out)
    open(os.path.join(out, "_DONE"), "w").close()
    return out, {"fresh": fresh, "n_old": len(old_ids),
                 "n_dup": int(dup_mask.sum())}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--dup-frac", type=float, default=0.2)
    ap.add_argument("--ops", default="exact,minhash,embedding")
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    args = ap.parse_args()
    ops = set(args.ops.split(","))

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from upton_ray import datapipe

    corpus, truth = build_corpus(args.n_docs, args.dup_frac)
    results = {}

    if "embedding" in ops:
        # planted truth on the embeddings_1m corpus: pairs (i, i+half)
        # inside each 125k part for marked i, cos > 0.999.  A pair is
        # relevant here iff it CROSSES the md5 split; its new-side member
        # must come back with n_partners == 1.  Within-side planted pairs
        # and all random pairs (P(cos >= 0.95) ~ 3e-32 at d=64) must not.
        from tools.embeddings_1m import build as build_emb
        corpus_e = build_emb(args.n_vecs)
        pairs = []
        written, bucket = 0, 125_000
        while written < args.n_vecs:
            rows = min(bucket, args.n_vecs - written)
            half = rows // 2
            loc = np.flatnonzero((np.arange(half) + written) % 20 == 0)
            pairs += [(written + i, written + i + half) for i in loc]
            written += rows
        flat = np.array(pairs, np.int64)
        sp_a = _splits(flat[:, 0])
        sp_b = _splits(flat[:, 1])
        cross = (sp_a < 7) != (sp_b < 7)
        new_member = np.where(sp_a[cross] >= 7,
                              flat[cross, 0], flat[cross, 1])
        expected = np.sort(new_member)
        rss0 = _maxrss_mb()
        t0 = time.time()
        out = datapipe.snapshot_embedding_dedup(corpus_e)
        wall = time.time() - t0
        rss_delta = _maxrss_mb() - rss0
        got = np.sort(out["vec_id"].to_numpy(zero_copy_only=False))
        assert np.array_equal(got, expected), (len(got), len(expected))
        import pyarrow.compute as _pc
        assert _pc.min(out["n_partners"]).as_py() == 1
        assert _pc.max(out["n_partners"]).as_py() == 1
        assert rss_delta < 400, f"driver RSS grew {rss_delta:.0f} MB"
        results["snapshot_embedding_dedup"] = {
            "n_vecs": args.n_vecs, "n_planted_pairs": int(len(flat)),
            "n_cross_pairs": int(cross.sum()), "n_matched": int(len(got)),
            "exact_set_match": True, "wall_s": round(wall, 1),
            "vecs_per_s": round(args.n_vecs / wall),
            "driver_rss_delta_mb": round(rss_delta, 1)}

    if "minhash" in ops:
        # planted truth for the NEAR-dup variant on the same corpus: every
        # re-crawled new doc is a verbatim copy of its round-robin old
        # partner (jacc = 1.0); distinct page bodies never clear 0.8.
        # Expected: exactly the planted-dup new-id set, n_partners == 1,
        # max_jacc == 1.0 for every row.
        ids_all = np.arange(args.n_docs, dtype=np.int64)
        sp = _splits(ids_all)
        new_ids = ids_all[sp >= 7]
        planted = np.sort(np.setdiff1d(new_ids, truth["fresh"],
                                       assume_unique=True))
        rss0 = _maxrss_mb()
        t0 = time.time()
        out = datapipe.snapshot_minhash_dedup(corpus)
        wall = time.time() - t0
        rss_delta = _maxrss_mb() - rss0
        got = np.sort(out["doc_id"].to_numpy(zero_copy_only=False))
        assert np.array_equal(got, planted), \
            (len(got), len(planted))
        import pyarrow.compute as _pc
        assert _pc.min(out["n_partners"]).as_py() == 1
        assert _pc.max(out["n_partners"]).as_py() == 1
        assert _pc.min(out["max_jacc"]).as_py() == 1.0
        assert rss_delta < 400, f"driver RSS grew {rss_delta:.0f} MB"
        results["snapshot_minhash_dedup"] = {
            "n_docs": args.n_docs, "n_planted_dup": int(len(planted)),
            "n_matched": int(len(got)), "exact_set_match": True,
            "wall_s": round(wall, 1),
            "docs_per_s": round(args.n_docs / wall),
            "driver_rss_delta_mb": round(rss_delta, 1)}

    if "exact" not in ops:
        print(json.dumps(results))
        ray.shutdown()
        return

    rss0 = _maxrss_mb()
    t0 = time.time()
    ds = datapipe.snapshot_dedup(corpus)
    got_parts = [t for t in ray.get(ds.to_arrow_refs())
                 if t.num_columns and t.num_rows]
    got_ids = np.sort(np.concatenate(
        [t["doc_id"].to_numpy(zero_copy_only=False) for t in got_parts])
        if got_parts else np.array([], np.int64))
    wall = time.time() - t0
    rss_delta = _maxrss_mb() - rss0

    assert len(got_ids) == len(truth["fresh"]), \
        (len(got_ids), len(truth["fresh"]))
    assert np.array_equal(got_ids, truth["fresh"]), "survivor set mismatch"
    assert rss_delta < 400, f"driver RSS grew {rss_delta:.0f} MB"

    # bloom screen effectiveness on this corpus, via the op's primitives:
    # rebuild the auto-sized bloom over the old fps and probe the new fps
    n_old = truth["n_old"]
    m_bits = 1 << max(13, int(np.ceil(np.log2(max(32 * n_old, 1)))))
    ids_all = np.arange(args.n_docs, dtype=np.int64)
    sp = _splits(ids_all)
    import duckdb
    con = duckdb.connect()
    fps = con.execute(
        f"SELECT doc_id, md5(lower(trim(regexp_replace(text, '\\s+', ' ', "
        f"'g')))) AS fp FROM read_parquet('{corpus}/documents.parquet/*')"
    ).arrow()
    order = np.argsort(fps["doc_id"].to_numpy(zero_copy_only=False))
    hexes = np.asarray(fps["fp"].to_pylist(), object)[order]
    bm = np.zeros(m_bits // 8, np.uint8)
    h1o, h2o = datapipe._bloom_hashes(list(hexes[sp < 7]))
    datapipe._bloom_set(bm, h1o, h2o, 4)
    h1n, h2n = datapipe._bloom_hashes(list(hexes[sp >= 7]))
    cand_frac = float(datapipe._bloom_test(bm, h1n, h2n, 4).mean())
    true_dup_frac = truth["n_dup"] / max(int((sp >= 7).sum()), 1)
    assert cand_frac < true_dup_frac + 0.01, (cand_frac, true_dup_frac)

    results["snapshot_dedup"] = {}
    print(json.dumps({
        "results": results,
        "op": "snapshot_dedup", "n_docs": args.n_docs,
        "n_old": n_old, "n_new": int((sp >= 7).sum()),
        "n_planted_dup": truth["n_dup"],
        "n_survivors": int(len(got_ids)),
        "exact_set_match": True,
        "auto_m_bits": m_bits,
        "bloom_candidate_frac": round(cand_frac, 5),
        "true_dup_frac": round(true_dup_frac, 5),
        "wall_s": round(wall, 1),
        "docs_per_s": round(args.n_docs / wall),
        "driver_rss_delta_mb": round(rss_delta, 1),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
