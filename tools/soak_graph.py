"""1M-node soak for the iterative graph family: connected_components and
pagerank over the holes graph (tools/soak_r5.build_graph_docs — 1M doc ids
with 50k random holes, so component structure and link existence are
non-trivial), verified against independent single-process numpy references:

- connected_components: hash-min BSP labels vs a numpy min-label +
  pointer-jumping fixpoint over the SAME edge relation (u -> u+k, u+skip*k
  where both endpoints exist).  Exact label equality for all nodes, plus
  the shortcut=True variant must be identical.
- pagerank: the engine's per-iteration round-12 / output round-6 semantics
  mirrored exactly (same edge rule 3d+1..3d+3 + d//2 backlink, same
  teleport); compared at 1.5e-6 (one final-digit flip of the 6dp output is
  the only tolerated divergence — float association differs between the
  partitioned fold and numpy's bincount).

Both assert the driver-RSS flatness gate.  Prints one JSON line.
Usage: python tools/soak_graph.py [--ops cc,pagerank] [--n-nodes N]
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

from tools.soak_r5 import build_graph_docs   # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _present_ids(corpus: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(corpus, "documents.parquet"),
                      columns=["doc_id"])
    return np.sort(t["doc_id"].to_numpy(zero_copy_only=False))


def _edges(u: np.ndarray, deltas) -> tuple[np.ndarray, np.ndarray]:
    """Dense-index edge list (i -> j) for u -> u+delta where both exist."""
    ei, ej = [], []
    for d in deltas:
        t = u + d
        pos = np.searchsorted(u, t)
        ok = (pos < len(u)) & (u[np.minimum(pos, len(u) - 1)] == t)
        ei.append(np.flatnonzero(ok))
        ej.append(pos[ok])
    return np.concatenate(ei), np.concatenate(ej)


def cc_reference(u: np.ndarray, k: int, skip: int) -> np.ndarray:
    """Min-label propagation + pointer jumping in numpy (independent of the
    engine's BSP partitioning).  Labels are dense indices; returns the
    MIN NODE ID of each node's component, matching the engine's label."""
    ei, ej = _edges(u, (k, skip * k))
    lab = np.arange(len(u), dtype=np.int64)
    while True:
        m = lab.copy()
        np.minimum.at(m, ei, lab[ej])
        np.minimum.at(m, ej, lab[ei])
        while True:                        # pointer jumping to the root
            mm = m[m]
            if np.array_equal(mm, m):
                break
            m = mm
        if np.array_equal(m, lab):
            break
        lab = m
    return u[lab]


def pagerank_reference(u: np.ndarray, iters: int, damping: float,
                       branching: int) -> np.ndarray:
    """Mirror of datapipe.pagerank's per-iteration semantics in one numpy
    process: same edge rule, same out-degree weighting, same round-12 per
    iteration and round-6 output."""
    n = len(u)
    srcs, tgts = [], []
    for i in range(1, branching + 1):
        t = u * branching + i
        pos = np.searchsorted(u, t)
        ok = (pos < n) & (u[np.minimum(pos, n - 1)] == t)
        srcs.append(np.flatnonzero(ok))
        tgts.append(pos[ok])
    t = u // 2
    pos = np.searchsorted(u, t)
    ok = (u >= 1) & (pos < n) & (u[np.minimum(pos, n - 1)] == t)
    srcs.append(np.flatnonzero(ok))
    tgts.append(pos[ok])
    src = np.concatenate(srcs)
    tgt = np.concatenate(tgts)
    od = np.bincount(src, minlength=n).astype(np.float64)
    r = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    nz = od > 0
    for _ in range(iters):
        w = np.zeros(n)
        w[nz] = damping * r[nz] / od[nz]
        s = np.bincount(tgt, weights=w[src], minlength=n)
        r = np.round(teleport + s, 12)
    return np.round(r, 6)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ops", default="cc,cc_shortcut,pagerank")
    ap.add_argument("--n-nodes", type=int, default=1_000_000)
    args = ap.parse_args()
    ops = set(args.ops.split(","))

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    corpus = build_graph_docs(args.n_nodes)
    u = _present_ids(corpus)
    res: dict = {}

    if "cc" in ops or "cc_shortcut" in ops:
        t0 = time.time()
        want = cc_reference(u, k=25, skip=3)
        ref_s = time.time() - t0
        n_comp = len(np.unique(want))
        for name, kwargs in (("cc", {}), ("cc_shortcut", {"shortcut": True})):
            if name not in ops:
                continue
            rss0 = _maxrss_mb()
            t0 = time.time()
            got = datapipe.connected_components(corpus, **kwargs).to_pandas()
            dt = time.time() - t0
            delta = _maxrss_mb() - rss0
            got = got.sort_values(got.columns[0]).reset_index(drop=True)
            node_col, lab_col = got.columns[0], got.columns[1]
            assert np.array_equal(got[node_col].to_numpy(), u), "node set"
            assert np.array_equal(got[lab_col].to_numpy(), want), \
                f"{name}: labels diverge from the numpy reference"
            assert delta < 400, f"driver RSS grew {delta:.0f} MB"
            res[name] = {"sec": round(dt, 2), "n_nodes": len(u),
                         "n_components": int(n_comp),
                         "reference_s": round(ref_s, 2),
                         "driver_rss_delta_mb": round(delta, 1)}

    if "pagerank" in ops:
        t0 = time.time()
        want = pagerank_reference(u, iters=5, damping=0.85, branching=3)
        ref_s = time.time() - t0
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = datapipe.pagerank(corpus).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        dt = time.time() - t0
        delta = _maxrss_mb() - rss0
        assert np.array_equal(got["doc_id"].to_numpy(), u), "node set"
        diff = np.abs(got["pr"].to_numpy() - want)
        assert diff.max() <= 1.5e-6, f"max |pr diff| = {diff.max()}"
        n_exact = int((diff == 0).sum())
        assert delta < 400, f"driver RSS grew {delta:.0f} MB"
        res["pagerank"] = {
            "sec": round(dt, 2), "n_nodes": len(u),
            "max_abs_diff": float(diff.max()),
            "rows_bit_exact": n_exact,
            "reference_s": round(ref_s, 2),
            "driver_rss_delta_mb": round(delta, 1)}

    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
