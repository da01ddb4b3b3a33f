"""Ten-million-row relational soak — the join / window / profile family
at ~70× gate scale: 10M orders x 1M customers in the testdata schemas,
with o_custkey zipf-skewed (one customer owns ~5% of orders) so the
skew-join path has something real to route.

Usage: python tools/relational_10m.py [--n-orders N] [--ops op1,...]
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

CACHE_ROOT = "/tmp/upton_ray_rel10m"
SEGS = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                 "MACHINERY"])
PRIO = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                 "5-LOW"])


def build(n_orders: int, seed: int = 31, n_cust_frac: int = 10,
          hot_frac: float = 0.05, bucket_rows: int = 1_250_000) -> str:
    n_cust = n_orders // n_cust_frac
    key = hashlib.md5(
        f"{n_orders}-{seed}-{n_cust}-{hot_frac}".encode()).hexdigest()[:12]
    out = os.path.join(CACHE_ROOT, key)
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    tmp = out + ".build"
    rng = np.random.RandomState(seed)

    cdir = os.path.join(tmp, "customer.parquet")
    os.makedirs(cdir, exist_ok=True)
    for part, lo in enumerate(range(0, n_cust, bucket_rows)):
        rows = min(bucket_rows, n_cust - lo)
        ck = np.arange(lo, lo + rows, dtype=np.int64)
        pq.write_table(pa.table({
            "c_custkey": pa.array(ck, pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in ck],
                               pa.string()),
            "c_nationkey": pa.array(rng.randint(0, 25, rows).astype(
                np.int32), pa.int32()),
            "c_acctbal": pa.array(np.round(rng.random(rows) * 9999.99, 2),
                                  pa.float64()),
            "c_mktsegment": pa.array(SEGS[rng.randint(0, 5, rows)],
                                     pa.string()),
        }), os.path.join(cdir, f"part-{part:04d}.parquet"))

    odir = os.path.join(tmp, "orders.parquet")
    os.makedirs(odir, exist_ok=True)
    t0 = np.datetime64("1995-01-01", "D")
    for part, lo in enumerate(range(0, n_orders, bucket_rows)):
        rows = min(bucket_rows, n_orders - lo)
        ok = np.arange(lo, lo + rows, dtype=np.int64)
        cust = rng.randint(0, n_cust, rows).astype(np.int64)
        cust[rng.random(rows) < hot_frac] = 1            # hot customer
        pq.write_table(pa.table({
            "o_orderkey": pa.array(ok, pa.int64()),
            "o_custkey": pa.array(cust, pa.int64()),
            "o_orderstatus": pa.array(
                np.array(["O", "F", "P"])[rng.randint(0, 3, rows)],
                pa.string()),
            "o_totalprice": pa.array(
                np.round(rng.random(rows) * 499999.99, 2), pa.float64()),
            "o_orderdate": pa.array(
                (t0 + rng.randint(0, 2000, rows).astype("timedelta64[D]")
                 ).astype("datetime64[us]"), pa.timestamp("us")),
            "o_orderpriority": pa.array(PRIO[rng.randint(0, 5, rows)],
                                        pa.string()),
        }), os.path.join(odir, f"part-{part:04d}.parquet"))

    ndir = os.path.join(tmp, "nation.parquet")
    os.makedirs(ndir, exist_ok=True)
    pq.write_table(pa.table({
        "n_nationkey": pa.array(np.arange(25, dtype=np.int32), pa.int32()),
        "n_name": pa.array([f"NATION{i:02d}" for i in range(25)],
                           pa.string()),
    }), os.path.join(ndir, "part-0000.parquet"))

    open(os.path.join(tmp, "_DONE"), "w").write("ok")
    os.rename(tmp, out)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-orders", type=int, default=10_000_000)
    ap.add_argument("--ops", default="customer_orders_join,"
                                     "customers_no_orders,"
                                     "top_orders_per_customer,"
                                     "nation_year_rollup,table_profile")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    t0 = time.time()
    corpus = build(args.n_orders)
    build_s = round(time.time() - t0, 1)

    from upton_ray import datapipe

    from tools.soak import counted, rss_gated

    results = {}
    for op in args.ops.split(","):
        fn = getattr(datapipe, op)
        (out, n), dt, delta = rss_gated(op, lambda: counted(fn(corpus)))
        results[op] = {"sec": round(dt, 2), "rows": int(n),
                       "driver_rss_delta_mb": delta,
                       "orders_per_sec": round(args.n_orders / dt, 1)}
    print(json.dumps({"n_orders": args.n_orders, "corpus_build_s": build_s,
                      "ops": results}))
    ray.shutdown()


if __name__ == "__main__":
    main()
