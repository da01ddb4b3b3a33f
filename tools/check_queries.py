"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf and compare against oracle_sql() via DuckDB
(row count + column names + order-insensitive value comparison).

Usage: python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            res = res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def canon(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(got, exp) -> str:
    """The gate's comparison of a query result with its oracle's: "OK", or
    what differs.  Rows are matched order-insensitively (:func:`canon`);
    integer columns must be equal, other numeric columns equal to within
    atol=1e-9 (NaN equals NaN), everything else equal as strings."""
    import numpy as np

    if len(got) == 0 and len(exp) == 0:
        # Dataset.to_pandas drops columns on an all-empty result; an
        # empty frame matching an empty oracle is a pass either way
        return "OK"
    if sorted(got.columns) != sorted(exp.columns):
        return f"COLS {sorted(got.columns)} != {sorted(exp.columns)}"
    if len(got) != len(exp):
        return f"ROWS {len(got)} != {len(exp)}"
    g, x = canon(got), canon(exp)
    num = g.select_dtypes(include=[np.number]).columns
    for c in g.columns:
        gc, xc = g[c].to_numpy(), x[c].to_numpy()
        if gc.dtype.kind in "iu" and xc.dtype.kind in "iu":
            ok = np.array_equal(gc, xc)
        elif c in num:
            ok = np.allclose(g[c].to_numpy(dtype=float),
                             x[c].to_numpy(dtype=float),
                             rtol=0, atol=1e-9, equal_nan=True)
        else:
            ok = bool((gc == xc).all())
        if not ok:
            bad = gc != xc
            i = int(np.flatnonzero(bad)[0]) if bad.any() else 0
            return (f"VALUES differ in {c} @canon-row {i}: "
                    f"{g[c].iloc[i]!r} != {x[c].iloc[i]!r}")
    return "OK"


def shutdown() -> None:
    """``ray.shutdown()`` after Ray Data's driver threads drain.  A plan
    the driver stopped reading early (a ``take_batch``) leaves its
    ``map_tp_transforming_worker`` threads alive; one that touches the core
    worker while it shuts down ends the process with status 1 after every
    result is in.  Collecting the abandoned iterators ends them."""
    import gc
    import threading

    import ray

    gc.collect()
    for t in threading.enumerate():
        if t.name.startswith("map_tp_transforming_worker"):
            t.join(timeout=10)
    ray.shutdown()


def main():
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            failures.append((name, f"query raised: {ex!r}"))
            print(f"{name:24s} ERROR {ex!r}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"{name:24s} rows={len(got):7d}  (rows-only) {dt:6.2f}s")
            continue
        status = compare(got, con.sql(oracles[name]).df())
        print(f"{name:24s} rows={len(got):7d}  {status} {dt:6.2f}s")
        if status != "OK":
            failures.append((name, status))
    if failures:
        print("\nFAILURES:")
        for n, s in failures:
            print(" ", n, s)
    else:
        print("\nall queries match")
    # the verdict is out first, should the teardown still fail
    sys.stdout.flush()
    shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
