"""Window/attribution soak: running_total, event_lag, first_last_touch at
10M events (50k users, one hot user owning ~10% of rows) with
ORACLE-VERIFIED truth at scale:

- running_total: full 10M-row frame exact (int64 cents) vs DuckDB's
  SUM ... OVER (ROWS UNBOUNDED PRECEDING).
- event_lag: full 10M-row frame exact (null pattern + int64 gaps) vs
  DuckDB's lag().
- first_last_touch: all 50k user rows byte-exact vs DuckDB.

The hot user routes ~1M rows through the residual path (its run spans
many post-sort blocks), so this soaks the interior/edge split under the
skew it exists for.  Prints one JSON line.

Usage: python tools/soak_window.py [--n-events N]
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

from tools.events_10m import build as build_events   # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-events", type=int, default=10_000_000)
    args = ap.parse_args()

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    res: dict = {"n_events": args.n_events}
    events = build_events(args.n_events)
    eglob = f"{events}/events.parquet/*.parquet"
    con = duckdb.connect()
    con.sql("PRAGMA memory_limit='48GB'")
    con.sql("PRAGMA threads=16")

    # ---- running_total: full frame, exact int64
    t0 = time.time()
    rt = datapipe.running_total(events).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        SELECT event_id,
               SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING) AS run_cents
        FROM read_parquet('{eglob}')
        ORDER BY event_id""").df()
    assert len(rt) == len(want) == args.n_events
    assert np.array_equal(rt["run_cents"].to_numpy(),
                          want["run_cents"].to_numpy()), "running_total"
    res["running_total"] = {"sec": round(dt, 1),
                            "rows_per_sec": round(args.n_events / dt),
                            "verified": "full frame exact (int64)"}
    del rt, want

    # ---- event_lag: full frame, null pattern + exact gaps
    t0 = time.time()
    el = datapipe.event_lag(events).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        SELECT event_id,
               datediff('microsecond',
                        lag(ts) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id), ts) AS gap_us
        FROM read_parquet('{eglob}')
        ORDER BY event_id""").df()
    assert len(el) == len(want) == args.n_events
    g = el["gap_us"].to_numpy(dtype=float)
    w = want["gap_us"].to_numpy(dtype=float)
    assert np.array_equal(np.isnan(g), np.isnan(w)), "event_lag nulls"
    assert np.array_equal(g[~np.isnan(g)], w[~np.isnan(w)]), "event_lag gaps"
    n_users = int(np.isnan(g).sum())
    res["event_lag"] = {"sec": round(dt, 1),
                        "rows_per_sec": round(args.n_events / dt),
                        "n_users": n_users,
                        "verified": "full frame exact (nulls + int64 gaps)"}
    del el, want, g, w

    # ---- rolling_avg: full frame (int sum / int count => exact doubles)
    t0 = time.time()
    ra = datapipe.rolling_avg(events).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        SELECT event_id,
               round(AVG(CAST(round(value * 100) AS BIGINT)) OVER (
                   PARTITION BY user_id ORDER BY ts, event_id
                   ROWS BETWEEN 3 PRECEDING AND CURRENT ROW), 6)
                 AS avg_cents
        FROM read_parquet('{eglob}')
        ORDER BY event_id""").df()
    assert len(ra) == len(want) == args.n_events
    assert np.allclose(ra["avg_cents"].to_numpy(),
                       want["avg_cents"].to_numpy(),
                       rtol=0, atol=1e-9), "rolling_avg"
    res["rolling_avg"] = {"sec": round(dt, 1),
                          "rows_per_sec": round(args.n_events / dt),
                          "verified": "full frame to 1e-9"}
    del ra, want

    # ---- first_last_touch: all users byte-exact
    t0 = time.time()
    fl = datapipe.first_last_touch(events).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        WITH w AS (
          SELECT user_id,
                 first_value(event_type) OVER uw AS first_touch,
                 last_value(event_type) OVER uw AS last_touch
          FROM read_parquet('{eglob}')
          WINDOW uw AS (PARTITION BY user_id ORDER BY ts, event_id
                        ROWS BETWEEN UNBOUNDED PRECEDING
                             AND UNBOUNDED FOLLOWING))
        SELECT user_id, first_touch, last_touch,
               CAST(count(*) AS BIGINT) AS n_events
        FROM w GROUP BY 1, 2, 3 ORDER BY user_id""").df()
    assert len(fl) == len(want) == n_users
    for c in ("user_id", "first_touch", "last_touch", "n_events"):
        assert fl[c].tolist() == want[c].tolist(), f"first_last_touch {c}"
    hot = int(fl.set_index("user_id")["n_events"][1])
    res["first_last_touch"] = {
        "sec": round(dt, 1), "rows_per_sec": round(args.n_events / dt),
        "hot_user_events": hot,
        "verified": f"all {n_users} user rows byte-exact"}

    res["driver_peak_rss_gb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6, 2)
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
