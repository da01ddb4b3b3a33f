"""Ten-million-event soak for the windowed / sessionized / join family —
the fourth scale leg (crawl: crawl_10m, text: datapipe_1m, vectors:
embeddings_1m).

Builds (once, cached under /tmp) a deterministic 10M-row event log in the
testdata schema — 50k users, zipf-ish activity with one hot user owning
~10% of events, timestamps over 30 days with whole-second tie runs — then
times the event operators and prints one JSON line.

Usage: python tools/events_10m.py [--n-events N] [--ops op1,...]
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

CACHE_ROOT = "/tmp/upton_ray_events10m"
TYPES = np.array(["click", "view", "purchase", "signup", "error"])


def build(n_events: int, seed: int = 23, n_users: int = 50_000,
          hot_frac: float = 0.10, bucket_rows: int = 1_250_000) -> str:
    key = hashlib.md5(
        f"{n_events}-{seed}-{n_users}-{hot_frac}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT, key)
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    tmp = out + ".build"
    ev_dir = os.path.join(tmp, "events.parquet")
    os.makedirs(ev_dir, exist_ok=True)
    rng = np.random.RandomState(seed)
    t0 = np.datetime64("2025-01-01T00:00:00", "us")
    span_s = 30 * 86400
    written = 0
    part = 0
    while written < n_events:
        rows = min(bucket_rows, n_events - written)
        users = rng.randint(0, n_users, rows).astype(np.int64)
        users[rng.random(rows) < hot_frac] = 1          # hot user
        secs = rng.randint(0, span_s, rows).astype("timedelta64[s]")
        ts = t0 + secs                                   # whole-second ties
        t = pa.table({
            "event_id": pa.array(np.arange(written, written + rows,
                                           dtype=np.int64), pa.int64()),
            "ts": pa.array(ts.astype("datetime64[us]"),
                           pa.timestamp("us")),
            "user_id": pa.array(users, pa.int64()),
            "event_type": pa.array(TYPES[rng.randint(0, 5, rows)],
                                   pa.string()),
            "value": pa.array(rng.random(rows) * 1000.0, pa.float64()),
            "props": pa.array(["{}"] * rows, pa.string()),
        })
        pq.write_table(t, os.path.join(ev_dir, f"part-{part:04d}.parquet"))
        written += rows
        part += 1
    open(os.path.join(tmp, "_DONE"), "w").write("ok")
    os.rename(tmp, out)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--ops", default="events_window,events_sliding,"
                                     "sessionize,asof_join_events,"
                                     "funnel_conversion,group_zscore,"
                                     "pivot_events,value_quantiles")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    t0 = time.time()
    corpus = build(args.n_events)
    build_s = round(time.time() - t0, 1)

    from upton_ray import datapipe

    from tools.soak import counted, rss_gated

    results = {}
    for op in args.ops.split(","):
        fn = getattr(datapipe, op)
        (out, n), dt, delta = rss_gated(op, lambda: counted(fn(corpus)))
        results[op] = {"sec": round(dt, 2), "rows": int(n),
                       "driver_rss_delta_mb": delta,
                       "events_per_sec": round(args.n_events / dt, 1)}
    print(json.dumps({"n_events": args.n_events, "corpus_build_s": build_s,
                      "ops": results}))
    ray.shutdown()


if __name__ == "__main__":
    main()
