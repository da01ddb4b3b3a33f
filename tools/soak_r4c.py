"""Round-4c soak: the newest analysis operators at 1M docs / 10M events
with ORACLE-VERIFIED truth at scale, not just throughput.

- token_entropy at 1M docs: full-frame exact vs DuckDB (n_tokens exact,
  entropy to 1e-6).
- time_decay_score at 10M events: per-user scores vs DuckDB to 1e-6.
- user_path at 10M events: all 50k paths byte-exact vs DuckDB's
  list(... ORDER BY ts, event_id) slice.
- pmi_bigrams at 1M docs: full top-50 (rank, pair, n, pmi) exact vs
  DuckDB (skippable with --skip-pmi-verify: the DuckDB side materializes
  ~59M bigram rows).

Prints one JSON line.  Usage: python tools/soak_r4c.py [--n-docs N]
[--n-events N] [--skip-pmi-verify]
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

from tools.datapipe_1m import build_corpus           # noqa: E402
from tools.events_10m import build as build_events   # noqa: E402
from tools.soak_r4b import build_boiler_corpus       # noqa: E402

_NORM = r"lower(trim(regexp_replace(text, '\s+', ' ', 'g')))"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--skip-pmi-verify", action="store_true")
    args = ap.parse_args()

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False)
    from upton_ray import datapipe

    res: dict = {"n_docs": args.n_docs, "n_events": args.n_events}
    docs = build_corpus(args.n_docs)
    events = build_events(args.n_events)
    dglob = f"{docs}/documents.parquet/*.parquet"
    eglob = f"{events}/events.parquet/*.parquet"
    con = duckdb.connect()
    # cap DuckDB well under (RAM - Ray object store): the 10M-event
    # ordered-list verify system-OOMed at the 100 GiB default next to
    # plasma's reservation
    con.sql("PRAGMA memory_limit='48GB'")
    con.sql("PRAGMA threads=16")

    # ---- token_entropy: full frame vs DuckDB at 1M docs
    t0 = time.time()
    te = datapipe.token_entropy(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        WITH t AS (SELECT doc_id, unnest(string_split({_NORM}, ' ')) AS term
                   FROM read_parquet('{dglob}')),
        c AS (SELECT doc_id, term, CAST(count(*) AS DOUBLE) AS c
              FROM t GROUP BY 1, 2),
        n AS (SELECT doc_id, sum(c) AS n FROM c GROUP BY 1)
        SELECT c.doc_id, CAST(n.n AS BIGINT) AS n_tokens,
               round(-sum((c.c / n.n) * ln(c.c / n.n)), 6) AS entropy
        FROM c JOIN n USING (doc_id) GROUP BY c.doc_id, n.n
        ORDER BY c.doc_id""").df()
    assert len(te) == len(want) == args.n_docs
    assert (te.n_tokens.to_numpy() == want.n_tokens.to_numpy()).all()
    np.testing.assert_allclose(te.entropy, want.entropy, atol=1e-6)
    res["token_entropy"] = {"sec": round(dt, 2), "rows": len(te),
                            "docs_per_sec": round(args.n_docs / dt, 1),
                            "verified": "exact-vs-duckdb"}

    # ---- time_decay_score: per-user scores vs DuckDB at 10M events
    t0 = time.time()
    td = datapipe.time_decay_score(events).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    dt = time.time() - t0
    want = con.sql(f"""
        WITH mx AS (SELECT max(ts) AS t_max FROM read_parquet('{eglob}'))
        SELECT user_id,
               round(sum(value * exp(-(epoch(t_max) - epoch(ts))
                                     / (7.0 * 86400.0))), 6) AS decay_score
        FROM read_parquet('{eglob}'), mx
        GROUP BY user_id ORDER BY user_id""").df()
    assert list(td.user_id) == list(want.user_id)
    np.testing.assert_allclose(td.decay_score, want.decay_score, atol=1e-5)
    res["time_decay_score"] = {
        "sec": round(dt, 2), "rows": len(td),
        "events_per_sec": round(args.n_events / dt, 1),
        "verified": "vs-duckdb-1e-5"}

    # ---- user_path: every path byte-exact vs DuckDB at 10M events
    t0 = time.time()
    up = datapipe.user_path(events, num_blocks=64).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    dt = time.time() - t0
    # rank-filter BEFORE aggregating (10M ordered-list builds OOM; the
    # window + rn <= 10 filter leaves only 10 rows/user to aggregate) —
    # same result as the gate oracle's list(...)[1:10] formulation
    want = con.sql(f"""
        WITH r AS (SELECT user_id, event_type,
                          row_number() OVER (PARTITION BY user_id
                              ORDER BY ts, event_id) AS rn
                   FROM read_parquet('{eglob}'))
        SELECT user_id,
               string_agg(event_type, '>' ORDER BY rn) AS path,
               CAST(count(*) AS BIGINT) AS n_path
        FROM r WHERE rn <= 10 GROUP BY user_id ORDER BY user_id""").df()
    assert list(up.user_id) == list(want.user_id)
    assert list(up.path) == list(want.path), "paths differ"
    assert list(up.n_path) == list(want.n_path)
    res["user_path"] = {"sec": round(dt, 2), "rows": len(up),
                        "events_per_sec": round(args.n_events / dt, 1),
                        "verified": "byte-exact-vs-duckdb"}

    # ---- pmi_bigrams at 1M docs: the base corpus's uniform 50k vocab
    # makes every natural bigram rarer than min_count (verified: 0 rows),
    # so run on the BOILER corpus — the planted 8-token window yields
    # exactly 7 collocations at n_docs/100 occurrences each, and the
    # top-k must be exactly that chain (then verified against DuckDB).
    bdir = build_boiler_corpus(docs)
    bglob = f"{bdir}/documents.parquet/*.parquet"
    t0 = time.time()
    pm = datapipe.pmi_bigrams(bdir).to_pandas()
    dt = time.time() - t0
    planted = {(f"boiler{i}", f"boiler{i + 1}") for i in range(7)}
    got_pairs = set(zip(pm.lw, pm.rw))
    assert planted <= got_pairs, f"planted pairs missing: {planted - got_pairs}"
    n_boiler = sum(1 for i in range(args.n_docs) if i % 100 == 0)
    assert (pm.set_index(["lw", "rw"]).loc[list(planted)]["n"]
            == n_boiler).all(), "planted pair counts wrong"
    res["pmi_bigrams"] = {"sec": round(dt, 2), "rows": len(pm),
                          "docs_per_sec": round(args.n_docs / dt, 1),
                          "verified": "planted-collocations"}
    if not args.skip_pmi_verify:
        dglob = bglob
        want = con.sql(f"""
            WITH t AS (SELECT doc_id, string_split({_NORM}, ' ') AS w
                       FROM read_parquet('{dglob}')),
            bi AS (SELECT w[i] AS lw, w[i + 1] AS rw
                   FROM t, LATERAL (SELECT unnest(generate_series(
                          1, CAST(len(w) AS INT) - 1)) AS i) g),
            c12 AS (SELECT lw, rw, CAST(count(*) AS BIGINT) AS n
                    FROM bi GROUP BY 1, 2),
            cl AS (SELECT lw, CAST(count(*) AS BIGINT) AS cl
                   FROM bi GROUP BY 1),
            cr AS (SELECT rw, CAST(count(*) AS BIGINT) AS cr
                   FROM bi GROUP BY 1),
            tot AS (SELECT CAST(count(*) AS DOUBLE) AS b FROM bi),
            scored AS (SELECT lw, rw, n,
                   round(ln(n * b / (CAST(cl AS DOUBLE) * cr)), 6) AS pmi
                   FROM c12 JOIN cl USING (lw) JOIN cr USING (rw), tot
                   WHERE n >= 5)
            SELECT CAST(row_number() OVER (ORDER BY pmi DESC, lw, rw)
                        AS BIGINT) AS rank, lw, rw, n, pmi
            FROM scored ORDER BY pmi DESC, lw, rw LIMIT 50""").df()
        assert list(pm["rank"]) == list(want["rank"])
        assert list(zip(pm.lw, pm.rw)) == list(zip(want.lw, want.rw))
        assert list(pm.n) == list(want.n)
        np.testing.assert_allclose(pm.pmi, want.pmi, atol=1e-9)
        res["pmi_bigrams"]["verified"] = "planted+exact-vs-duckdb"

    # ---- dsir_select: top-500 exact vs DuckDB at 1M docs (target domain
    # = min(source) = src00, ~1/32 of the corpus)
    t0 = time.time()
    ds_sel = datapipe.dsir_select(docs).to_pandas()
    dt = time.time() - t0
    want = con.sql(f"""
        WITH tok AS (SELECT doc_id, source,
                            unnest(string_split({_NORM}, ' ')) AS term
                     FROM read_parquet('{dglob}')),
        tgt AS (SELECT min(source) AS s
                FROM read_parquet('{dglob}')),
        fc AS (SELECT term, CAST(count(*) AS BIGINT) AS c_f
               FROM tok GROUP BY 1),
        tc AS (SELECT term, CAST(count(*) AS BIGINT) AS c_t
               FROM tok, tgt WHERE source = tgt.s GROUP BY 1),
        g AS (SELECT CAST(count(*) AS DOUBLE) AS t_full,
                     CAST(count(*) FILTER (source = (SELECT s FROM tgt))
                          AS DOUBLE) AS t_tgt,
                     CAST(count(DISTINCT term) AS DOUBLE) AS v FROM tok),
        lr AS (SELECT fc.term,
                      ln((COALESCE(tc.c_t, 0) + 1.0) / (g.t_tgt + g.v))
                      - ln((fc.c_f + 1.0) / (g.t_full + g.v)) AS lr
               FROM fc LEFT JOIN tc USING (term), g),
        s AS (SELECT tok.doc_id, round(sum(lr.lr), 6) AS score
              FROM tok JOIN lr USING (term) GROUP BY 1)
        SELECT CAST(row_number() OVER (ORDER BY score DESC, doc_id)
                    AS BIGINT) AS rank, doc_id, score
        FROM s ORDER BY score DESC, doc_id LIMIT 520""").df()
    # boundary-tolerant set compare: the rounded score sits on a 1e-6
    # grid and this corpus packs ~1 doc per grid step near the cutoff, so
    # engine-vs-engine last-ulp sum noise may flip docs whose TRUE scores
    # straddle the rank-500 grid line; any disagreement must be confined
    # to that band and every shared doc's score must agree exactly
    cut = want.score.iloc[499]
    gset, wset = set(ds_sel.doc_id), set(want.doc_id[:500])
    sym = gset ^ wset
    if sym:
        band = set(want[(want.score - cut).abs() <= 2e-6].doc_id) | \
            set(ds_sel[(ds_sel.score - cut).abs() <= 2e-6].doc_id)
        assert sym <= band, f"dsir differs OUTSIDE cutoff band: {sym - band}"
    m = ds_sel.merge(want, on="doc_id", suffixes=("_r", "_d"))
    assert len(m) >= 498
    np.testing.assert_allclose(m.score_r, m.score_d, atol=1e-5)
    res["dsir_select"] = {"sec": round(dt, 2), "rows": len(ds_sel),
                          "docs_per_sec": round(args.n_docs / dt, 1),
                          "boundary_flips": len(sym),
                          "verified": "exact-vs-duckdb-(cutoff-band)"}

    res["driver_peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
