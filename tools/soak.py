"""Soak harness: run named legs at 10^6-10^7 rows and verify every one.

Usage: python tools/soak.py [--n-docs N] [--n-events N] [--n-vecs N]
                            LEG [LEG ...]

Corpora (built once by their builders, cached under /tmp):

* docs   -- ``tools/datapipe_1m.build_corpus(--n-docs)``; ``source_overlap``
  and ``substring_dedup_distributed`` run on n/4 docs, the JPEG ops on n/5
  (their DuckDB or exchange side grows faster than the corpus);
* events -- ``tools/events_10m.build(--n-events)``;
* vecs   -- ``tools/embeddings_1m.build(--n-vecs)``; ``knn_graph`` runs on
  its own n/20 x 64 table (its brute-force check is quadratic);
* derived document corpora: the holes graph (n ids, n/20 holes), the
  boilerplate-prefixed docs, the first-token-stripped docs and the
  snapshot split (``build_snapshot_corpus``).

Two kinds of leg:

* **gate replay** (every op in ``GATE_LEGS``): ``queries()[op]`` -- the
  gate's own call -- runs on the corpus, DuckDB runs ``oracle_sql()[op]``
  over a view of the same parquet registered under the gate's table name,
  and ``tools/check_queries.compare`` judges the pair exactly as the gate
  does;
* **planted truth or reference**: the ops no oracle can express keep their
  own check -- a planted set, a numpy reference or a closed-form law.

Each leg's Ray side runs under one driver max-RSS gate (growth < 400 MB):
no op may fold corpus-sized data onto the driver.  Verification that pulls
the result onto the driver runs after the gate.  Legs fail independently;
the last stdout line is one JSON object with a record per leg, and the
exit status is 1 if any leg failed.  ``RAY_GRAFT_CPUS`` (default 32) sets
the Ray session's CPUs when this script starts the session.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.check_queries import compare, to_pandas            # noqa: E402
from tools.datapipe_1m import build_corpus, planted_pairs     # noqa: E402
from tools.embeddings_1m import build as build_vecs           # noqa: E402
from tools.embeddings_1m import planted_pairs as planted_vec_pairs  # noqa: E402
from tools.events_10m import build as build_events            # noqa: E402

RSS_BOUND_MB = 400.0
GRAPH_CACHE = "/tmp/upton_ray_graph1m"
SNAPSHOT_CACHE = "/tmp/upton_ray_snapshot1m"
KNN_CACHE = "/tmp/upton_ray_knn"
SNAPSHOT_DUP_FRAC = 0.2


# ------------------------------------------------------------ the RSS gate


def maxrss_mb() -> float:
    """The driver's high-water RSS in MB (Linux reports ru_maxrss in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_gated(name: str, fn, bound_mb: float = RSS_BOUND_MB):
    """Run ``fn()`` and fail if the driver's max RSS grew by ``bound_mb``
    or more meanwhile.  Returns (result, wall seconds, growth in MB)."""
    rss0 = maxrss_mb()
    t0 = time.time()
    out = fn()
    wall = time.time() - t0
    delta = maxrss_mb() - rss0
    assert delta < bound_mb, f"driver RSS grew {delta:.0f} MB during {name}"
    return out, wall, round(delta, 1)


def counted(out):
    """(out, row count): counting runs a lazy Dataset's plan."""
    return out, (out.count() if hasattr(out, "count") else out.num_rows)


# ------------------------------------------------- soak-only corpus builders


BOILER = " ".join(f"boiler{i}" for i in range(8))     # one 8-token window


def build_boiler_corpus(src: str, every: int = 100) -> str:
    """Derived corpus: prepend BOILER to every ``every``-th doc (streamed
    part-by-part, cached)."""
    out = src.rstrip("/") + f"_boiler{every}"
    if os.path.exists(os.path.join(out, "_DONE")):
        return out
    os.makedirs(os.path.join(out, "documents.parquet"), exist_ok=True)
    src_dir = os.path.join(src, "documents.parquet")
    for f in sorted(os.listdir(src_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(src_dir, f))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_numpy(zero_copy_only=False).astype(object)
        mark = (ids % every) == 0
        texts[mark] = BOILER + " " + texts[mark]
        t = t.set_column(t.schema.get_field_index("text"), "text",
                         pa.array(texts, pa.string()))
        pq.write_table(t, os.path.join(out, "documents.parquet", f))
    open(os.path.join(out, "_DONE"), "w").write("ok")
    return out


def _strip_first_token(src_dir: str) -> str:
    """Derived corpus with each text's FIRST token removed (distributed,
    cached): the datapipe_1m planted near-dup families differ only at
    token 0, so stripping it makes them exact leading-prefix duplicates."""
    out = src_dir + ".nohead"
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
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


def build_graph_docs(n: int = 1_000_000, holes: int = 50_000,
                     seed: int = 13) -> str:
    out = os.path.join(GRAPH_CACHE, f"{n}-{holes}-{seed}")
    if not os.path.exists(os.path.join(out, "_DONE")):
        os.makedirs(out, exist_ok=True)
        rng = np.random.RandomState(seed)
        drop = rng.choice(n, holes, replace=False)
        present = np.setdiff1d(np.arange(n, dtype=np.int64), drop)
        d = os.path.join(out, "documents.parquet")
        os.makedirs(d, exist_ok=True)
        for i in range(0, len(present), 250_000):
            pq.write_table(
                pa.table({"doc_id": pa.array(present[i:i + 250_000],
                                             pa.int64())}),
                os.path.join(d, f"part-{i // 250_000:04d}.parquet"))
        open(os.path.join(out, "_DONE"), "w").write("")
    return out


def build_knn_vectors(n: int) -> str:
    """n x 64 gaussian vectors (seed 99) in one embeddings.parquet file."""
    kdir = os.path.join(KNN_CACHE, str(n))
    if not os.path.exists(os.path.join(kdir, "_DONE")):
        os.makedirs(kdir, exist_ok=True)
        rng = np.random.RandomState(99)
        M = rng.randn(n, 64).astype(np.float32)
        pq.write_table(pa.table({
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([v.tolist() for v in M],
                                  pa.list_(pa.float32()))}),
            os.path.join(kdir, "embeddings.parquet"))
        open(os.path.join(kdir, "_DONE"), "w").write("")
    return kdir


def _splits(ids: np.ndarray, modulus: int = 10) -> np.ndarray:
    return np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                     % modulus for i in ids], np.int64)


def build_snapshot_corpus(n_docs: int, dup_frac: float = SNAPSHOT_DUP_FRAC,
                          bucket_rows: int = 125_000) -> tuple[str, dict]:
    """Snapshot-split corpus: the op's own split law (md5(doc_id) % 10 < 7
    -> prior snapshot) is replayed here, so the planted truth is known
    exactly: every old doc gets a unique page body; of the new docs,
    ``dup_frac`` re-crawl an old doc's body verbatim (round-robin over old
    ids) and the rest are fresh.  Returns (dir, truth) -- truth holds the
    planted old/new/dup counts and the exact fresh-survivor id set (as a
    sorted numpy array)."""
    key = hashlib.md5(f"{n_docs}-{dup_frac}".encode()).hexdigest()[:12]
    out = os.path.join(SNAPSHOT_CACHE, key)
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


# ---------------------------------------------------------------- the soak


class Soak:
    """One soak run: sizes, lazily built corpora, the gate's queries and
    oracles, and one DuckDB connection for every oracle-side check."""

    TABLE = {"events": "events", "vecs": "embeddings"}   # else documents

    def __init__(self, n_docs: int, n_events: int, n_vecs: int):
        import duckdb

        import __ray_entry__ as entry

        self.n_docs, self.n_events, self.n_vecs = n_docs, n_events, n_vecs
        self.queries, self.oracles = entry.queries(), entry.oracle_sql()
        self.con = duckdb.connect()
        # well under RAM minus the Ray object store: the 10M-event ordered
        # list oracle system-OOMed at DuckDB's default next to plasma
        self.con.sql("PRAGMA memory_limit='48GB'")
        self.con.sql("PRAGMA threads=16")
        self._built: dict = {}
        n = n_docs
        self._builders = {
            "docs": lambda: build_corpus(n),
            "docs/4": lambda: build_corpus(n // 4),
            "docs/5": lambda: build_corpus(n // 5),
            "events": lambda: build_events(n_events),
            "vecs": lambda: build_vecs(n_vecs),
            "knn": lambda: build_knn_vectors(n_vecs // 20),
            "graph": lambda: build_graph_docs(n, holes=n // 20),
            "boiler": lambda: build_boiler_corpus(self.corpus("docs")),
            "nohead": lambda: _strip_first_token(self.corpus("docs")),
            "snapshot": lambda: build_snapshot_corpus(n),
        }
        self._sizes = {"docs/4": n // 4, "docs/5": n // 5,
                       "events": n_events, "vecs": n_vecs,
                       "knn": n_vecs // 20}

    def corpus(self, kind: str):
        if kind not in self._built:
            self._built[kind] = self._builders[kind]()
        return self._built[kind]

    def size(self, kind: str) -> int:
        return self._sizes.get(kind, self.n_docs)

    def run(self, name: str, fn, kind: str):
        """The Ray side of a leg under the RSS gate: ``fn()`` and, for a
        lazy Dataset, its materialize (a driver-side table passes
        through).  Returns (result, the leg's record)."""
        def ray_side():
            out = fn()
            return out.materialize() if hasattr(out, "materialize") else out

        out, wall, delta = rss_gated(name, ray_side)
        n = self.size(kind)
        return out, {"n_rows": n, "wall_s": round(wall, 1),
                     "rows_per_s": int(n / max(wall, 1e-9)),
                     "driver_rss_delta_mb": delta}

    def view(self, kind: str) -> None:
        """Register the corpus as a DuckDB view under its gate table name."""
        table = self.TABLE.get(kind, "documents")
        self.con.sql(f"CREATE OR REPLACE VIEW {table} AS SELECT * FROM "
                     f"read_parquet('{self.corpus(kind)}/{table}.parquet/*')")

    def replay(self, op: str, kind: str):
        """The gate replayed at scale.  Returns (result frame, record)."""
        corpus = self.corpus(kind)
        out, rec = self.run(op, lambda: self.queries[op](corpus), kind)
        got = to_pandas(out)
        self.view(kind)
        t0 = time.time()
        exp = self.con.sql(self.oracles[op]).df()
        rec["oracle_s"] = round(time.time() - t0, 1)
        rec["out_rows"] = len(got)
        rec["gate"] = compare(got, exp)
        assert rec["gate"] == "OK", (op, rec["gate"])
        if op in ORDERED_BY:
            keys, asc = ORDERED_BY[op]
            want = got.sort_values(keys, ascending=asc, kind="stable")
            assert got.index.equals(want.index), f"{op} rows out of order"
        if len(got) == 1:
            rec["values"] = got.to_dict("records")[0]
        return got, rec


# op -> corpus of its gate replay
GATE_LEGS = {
    **dict.fromkeys([
        "running_total", "event_lag", "rolling_avg", "first_last_touch",
        "heavy_hitters", "distinct_by_type", "time_decay_score", "user_path",
        "trailing_window_sum", "inter_event_stats", "feature_corr",
        "session_stats"], "events"),
    **dict.fromkeys([
        "reservoir_sample", "bigram_logprob", "token_entropy", "dsir_select",
        "vocab_coverage", "top_terms_per_lang", "gopher_rules",
        "normalize_text", "host_cap", "media_ref_dedup",
        "perplexity_buckets", "hits_scores", "zipf_fit",
        "media_phash_dedup", "temperature_resample", "soft_dedup",
        "group_split", "ks_drift", "recrawl_priority", "anchor_text",
        "dup_rate", "char_classes", "media_resize_real", "media_caption",
        "link_reciprocity"], "docs"),
    "source_overlap": "docs/4",
    "media_jpeg_real": "docs/5",
    "frame_sample_real": "docs/5",
    # the dup families differ only at token 0, so stripping it turns every
    # planted near-dup pair into an exact prefix duplicate
    "prefix_dup": "nohead",
    "triangle_count": "graph",
    "degree_distribution": "graph",
    "embedding_quantize": "vecs",
}

# ops whose driver-side output table has a documented row order, checked
# on top of the gate's order-insensitive compare: (columns, ascending)
ORDERED_BY = {
    "heavy_hitters": (["n", "user_id"], [False, True]),
    "distinct_by_type": (["event_type"], [True]),
    "reservoir_sample": (["priority", "doc_id"], [True, True]),
    "pmi_bigrams": (["rank"], [True]),
}

LEGS: dict = {op: (lambda s, op=op, kind=kind: s.replay(op, kind)[1])
              for op, kind in GATE_LEGS.items()}


def leg(name: str):
    def register(fn):
        LEGS[name] = fn
        return fn
    return register


def _throughput(s: Soak, op: str) -> dict:
    """Throughput only: the span ops have no at-scale truth to check."""
    out, rec = s.run(op, lambda: s.queries[op](s.corpus("docs")), "docs")
    rec["out_rows"] = counted(out)[1]
    return rec


LEGS["span_explode"] = lambda s: _throughput(s, "span_explode")
LEGS["span_kind_hist"] = lambda s: _throughput(s, "span_kind_hist")


# ------------------------------------------------------- planted-truth legs


def _n_boiler(n_docs: int) -> int:
    return (n_docs + 99) // 100          # doc ids 0, 100, 200, ...


@leg("line_dedup")
def _line_dedup(s: Soak) -> dict:
    """Every 100th doc carries the planted 8-token window: exactly those
    windows are dropped, and a planted doc's clean text is its original."""
    from upton_ray import datapipe

    bdir = s.corpus("boiler")
    ld, rec = s.run("line_dedup", lambda: datapipe.line_dedup(bdir), "docs")
    dropped = int(ld.sum("n_dropped") or 0)
    assert dropped == _n_boiler(s.n_docs), (dropped, _n_boiler(s.n_docs))
    orig = s.con.sql(
        f"SELECT text FROM read_parquet('{s.corpus('docs')}/documents."
        f"parquet/*') WHERE doc_id = 100").fetchone()[0]
    clean = ld.filter(lambda r: r["doc_id"] == 100).take(1)[0]["text_clean"]
    assert clean == orig, "line_dedup altered non-boiler text"
    rec["planted_dropped"] = dropped
    return rec


def _pmi(s: Soak, replay: bool) -> dict:
    """pmi_bigrams on the boilerplate corpus: the base corpus's uniform 50k
    vocab keeps every natural bigram under min_count, and the planted
    window yields exactly 7 collocations at n_docs/100 occurrences each."""
    if replay:
        got, rec = s.replay("pmi_bigrams", "boiler")
    else:
        bdir = s.corpus("boiler")
        out, rec = s.run("pmi_bigrams",
                         lambda: s.queries["pmi_bigrams"](bdir), "docs")
        got = to_pandas(out)
    planted = [(f"boiler{i}", f"boiler{i + 1}") for i in range(7)]
    missing = set(planted) - set(zip(got.lw, got.rw))
    assert not missing, f"planted pairs missing: {missing}"
    assert (got.set_index(["lw", "rw"]).loc[planted]["n"]
            == _n_boiler(s.n_docs)).all(), "planted pair counts wrong"
    rec["planted_pairs"] = len(planted)
    return rec


LEGS["pmi_bigrams"] = lambda s: _pmi(s, replay=True)
LEGS["pmi_planted"] = lambda s: _pmi(s, replay=False)


@leg("semdedup")
def _semdedup(s: Soak) -> dict:
    """Planted near-dup pairs (cosine > 0.999): at threshold 0.999 the
    in-cell screen drops exactly one member of every co-cell pair and
    nothing else; pairs split across a Voronoi boundary are the method's
    documented recall trade and stay under 0.5% of the planted pairs."""
    from upton_ray import datapipe

    vecs = s.corpus("vecs")
    pairs = sorted(planted_vec_pairs(s.n_vecs))
    out, rec = s.run("semdedup", lambda: datapipe.semdedup(
        vecs, k=64, threshold=0.999, train_sample=8192), "vecs")
    df = to_pandas(out)
    keep = dict(zip(df.vec_id, df.keep))
    cell = dict(zip(df.vec_id, df.cell))
    n_drop = int((~df.keep).sum())
    co_cell = [(a, b) for a, b in pairs if cell[a] == cell[b]]
    split_cell = len(pairs) - len(co_cell)
    bad_pair = sum(1 for a, b in co_cell if keep[a] == keep[b])
    assert len(df) == s.n_vecs, len(df)
    assert bad_pair == 0, f"{bad_pair} co-cell pairs not exactly-one-kept"
    assert n_drop == len(co_cell), (n_drop, len(co_cell))
    assert split_cell <= 0.005 * len(pairs), \
        f"{split_cell}/{len(pairs)} planted pairs split cells"
    rec.update(planted_pairs=len(pairs), co_cell_pairs=len(co_cell),
               boundary_missed=split_cell, dropped=n_drop)
    return rec


@leg("quality_classifier")
def _quality_classifier(s: Soak) -> dict:
    """Weak label = the doc contains 'wdup0' (~5% base rate): the label
    column equals DuckDB's, and the model reaches recall 1.0 (the marker
    separates) with accuracy >= 0.98 (precision is bounded by the ~11 vocab
    words sharing the marker's hash bucket)."""
    from upton_ray import datapipe

    docs = s.corpus("docs")
    out, rec = s.run("quality_classifier", lambda: datapipe.quality_classifier(
        docs, label_term="wdup0"), "docs")
    got = to_pandas(out).sort_values("doc_id").reset_index(drop=True)
    s.view("docs")
    want = s.con.sql(r"""
        SELECT doc_id,
               CASE WHEN list_contains(string_split(
                    lower(trim(regexp_replace(text, '\s+', ' ', 'g'))),
                    ' '), 'wdup0') THEN 1 ELSE 0 END AS label
        FROM documents ORDER BY doc_id""").df()
    assert (got.label.values == want.label.values).all(), \
        "label column diverges from DuckDB"
    acc = float((got.pred == got.label).mean())
    recall = float(got.pred[got.label == 1].mean())
    assert recall >= 0.999, recall
    assert acc >= 0.98, acc
    rec.update(accuracy=round(acc, 4), recall=round(recall, 4),
               precision=round(float(
                   (got.label[got.pred == 1] == 1).mean()), 4))
    return rec


def _substring(s: Soak, kind: str, **kw) -> dict:
    """The planted coverage law is exact: every near-dup and its source
    share all 55 5-grams that avoid token 0, whose intervals cover tokens
    [1, 60), so both report n_dup_tok == 59 and every other doc 0."""
    from upton_ray import datapipe

    corpus = s.corpus(kind)
    n = s.size(kind)
    out, rec = s.run("substring_dedup",
                     lambda: datapipe.substring_dedup(corpus, **kw), kind)
    df = to_pandas(out).set_index("doc_id").sort_index()
    dup_ids = np.sort(np.array([i for p in planted_pairs(n) for i in p],
                               np.int64))
    assert len(df) == n
    assert (df["n_tok"] == 60).all()
    got_dup = df.index[df["n_dup_tok"] > 0].to_numpy()
    assert np.array_equal(np.sort(got_dup), dup_ids), \
        (len(got_dup), len(dup_ids))
    assert (df.loc[dup_ids, "n_dup_tok"] == 59).all()
    rec["n_planted_dup_docs"] = len(dup_ids)
    return rec


LEGS["substring_dedup"] = lambda s: _substring(s, "docs")
LEGS["substring_dedup_distributed"] = lambda s: _substring(
    s, "docs/4", force_distributed=True)


@leg("embedding_pca")
def _embedding_pca(s: Soak) -> dict:
    """Rows-only op, invariant check through distributed moment folds: the
    per-axis projection variances equal the covariance's top eigenvalues,
    and the axes are centered and uncorrelated."""
    from upton_ray import datapipe
    from upton_ray.shuffle import collect

    vecs = s.corpus("vecs")
    ds, rec = s.run("embedding_pca", lambda: datapipe.embedding_pca(vecs),
                    "vecs")
    f64 = pa.float64()

    def mom(b: pa.Table) -> pa.Table:
        P = np.stack([b["p0"].to_numpy(zero_copy_only=False),
                      b["p1"].to_numpy(zero_copy_only=False)], axis=1)
        return pa.table({
            "n": pa.array([P.shape[0]], pa.int64()),
            "s0": pa.array([P[:, 0].sum()], f64),
            "s1": pa.array([P[:, 1].sum()], f64),
            "q00": pa.array([(P[:, 0] ** 2).sum()], f64),
            "q11": pa.array([(P[:, 1] ** 2).sum()], f64),
            "q01": pa.array([(P[:, 0] * P[:, 1]).sum()], f64)})

    parts = collect(ds.map_batches(mom, batch_format="pyarrow",
                                   batch_size=None),
                    pa.schema([("n", pa.int64())] + [
                        (c, f64) for c in ("s0", "s1", "q00", "q11", "q01")]))
    n = sum(parts["n"].to_pylist())
    s0, s1 = sum(parts["s0"].to_pylist()), sum(parts["s1"].to_pylist())
    v0 = sum(parts["q00"].to_pylist()) / n - (s0 / n) ** 2
    v1 = sum(parts["q11"].to_pylist()) / n - (s1 / n) ** 2
    c01 = sum(parts["q01"].to_pylist()) / n - (s0 / n) * (s1 / n)

    # independent eigenvalues from the raw table via a fresh moment fold
    def cv(b: pa.Table) -> pa.Table:
        M = datapipe._emb_matrix(b)
        return pa.table({"n": pa.array([M.shape[0]], pa.int64()),
                         "s": pa.array([M.sum(axis=0)], pa.list_(f64)),
                         "ss": pa.array([(M.T @ M).ravel()], pa.list_(f64))})

    emb = datapipe._table(vecs, "embeddings", ["embedding"])
    cparts = collect(emb.map_batches(cv, batch_format="pyarrow",
                                     batch_size=None),
                     pa.schema([("n", pa.int64()), ("s", pa.list_(f64)),
                                ("ss", pa.list_(f64))]))
    cn = sum(cparts["n"].to_pylist())
    cs = sum(np.asarray(x) for x in cparts["s"].to_pylist())
    css = sum(np.asarray(x) for x in cparts["ss"].to_pylist())
    d = len(cs)
    mu = cs / cn
    cov = css.reshape(d, d) / cn - np.outer(mu, mu)
    ev_top = np.linalg.eigvalsh(cov)[::-1][:2]
    ok = (abs(v0 - ev_top[0]) < 1e-6 * max(1, ev_top[0])
          and abs(v1 - ev_top[1]) < 1e-6 * max(1, ev_top[1])
          and abs(c01) < 1e-6
          and abs(s0 / n) < 1e-9 and abs(s1 / n) < 1e-9)
    rec.update(var_matches_eigs=bool(ok), proj_var=[v0, v1],
               top_eigs=ev_top.tolist(), axis_cov=c01)
    assert ok, rec
    return rec


@leg("knn_graph")
def _knn_graph(s: Soak) -> dict:
    """128 sampled query rows against a numpy brute-force argsort (the
    full oracle is quadratic; sampling checks every stage end to end)."""
    from upton_ray import datapipe

    kdir = s.corpus("knn")
    n = s.size("knn")
    out, rec = s.run("knn_graph", lambda: datapipe.knn_graph(
        kdir, k=5, num_blocks=32), "knn")
    g = to_pandas(out)
    assert len(g) == n * 5
    M = pq.read_table(os.path.join(kdir, "embeddings.parquet")) \
        ["embedding"].combine_chunks().flatten() \
        .to_numpy(zero_copy_only=False).astype(np.float64).reshape(n, 64)
    X = M / np.linalg.norm(M, axis=1, keepdims=True)
    sample = np.random.RandomState(7).choice(n, min(128, n), replace=False)
    sims = X[sample] @ X.T
    for row, src in enumerate(sample):
        sims[row, src] = -np.inf
        order = np.lexsort((np.arange(n), -sims[row]))[:5]
        mine = g[g["src_id"] == src].sort_values("rank")
        assert mine["dst_id"].tolist() == order.tolist(), src
    rec["sampled_exact"] = len(sample)
    return rec


# ---------------------------------------------- graph legs (numpy references)


def _present_ids(corpus: str) -> np.ndarray:
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


def _cc(s: Soak, name: str, **kw) -> dict:
    """Hash-min BSP labels equal the numpy fixpoint's for every node over
    the holes graph (edges u -> u+25, u+75 where both endpoints exist)."""
    from upton_ray import datapipe

    corpus = s.corpus("graph")
    u = _present_ids(corpus)
    t0 = time.time()
    want = cc_reference(u, k=25, skip=3)
    ref_s = time.time() - t0
    out, rec = s.run(name, lambda: datapipe.connected_components(
        corpus, **kw), "graph")
    got = to_pandas(out)
    got = got.sort_values(got.columns[0]).reset_index(drop=True)
    assert np.array_equal(got[got.columns[0]].to_numpy(), u), "node set"
    assert np.array_equal(got[got.columns[1]].to_numpy(), want), \
        f"{name}: labels diverge from the numpy reference"
    rec.update(n_nodes=len(u), n_components=len(np.unique(want)),
               reference_s=round(ref_s, 2))
    return rec


LEGS["connected_components"] = lambda s: _cc(s, "connected_components")
LEGS["connected_components_shortcut"] = lambda s: _cc(
    s, "connected_components_shortcut", shortcut=True)


@leg("pagerank")
def _pagerank(s: Soak) -> dict:
    """The engine's per-iteration round-12 / output round-6 semantics
    mirrored in numpy; one final-digit flip of the 6dp output (1.5e-6) is
    the only tolerated divergence -- float association differs between
    the partitioned fold and numpy's bincount."""
    from upton_ray import datapipe

    corpus = s.corpus("graph")
    u = _present_ids(corpus)
    t0 = time.time()
    want = pagerank_reference(u, iters=5, damping=0.85, branching=3)
    ref_s = time.time() - t0
    out, rec = s.run("pagerank", lambda: datapipe.pagerank(corpus), "graph")
    got = to_pandas(out).sort_values("doc_id").reset_index(drop=True)
    assert np.array_equal(got["doc_id"].to_numpy(), u), "node set"
    diff = np.abs(got["pr"].to_numpy() - want)
    assert diff.max() <= 1.5e-6, f"max |pr diff| = {diff.max()}"
    rec.update(n_nodes=len(u), max_abs_diff=float(diff.max()),
               rows_bit_exact=int((diff == 0).sum()),
               reference_s=round(ref_s, 2))
    return rec


# ------------------------------------------------------------ snapshot legs


@leg("snapshot_dedup")
def _snapshot_dedup(s: Soak) -> dict:
    """Survivors are exactly the planted fresh docs, and the auto-sized
    bloom screen is load-bearing: its candidate fraction of the new docs
    stays within 1% of the true re-crawl fraction."""
    from upton_ray import datapipe
    from upton_ray.shuffle import collect

    corpus, truth = s.corpus("snapshot")
    out, rec = s.run("snapshot_dedup",
                     lambda: datapipe.snapshot_dedup(corpus), "docs")
    got = collect(out.select_columns(["doc_id"]),
                  pa.schema([("doc_id", pa.int64())]))
    got_ids = np.sort(got["doc_id"].to_numpy(zero_copy_only=False))
    assert np.array_equal(got_ids, truth["fresh"]), \
        ("survivor set mismatch", len(got_ids), len(truth["fresh"]))

    # rebuild the auto-sized bloom over the old fps and probe the new fps
    n_old = truth["n_old"]
    m_bits = 1 << max(13, int(np.ceil(np.log2(max(32 * n_old, 1)))))
    sp = _splits(np.arange(s.n_docs, dtype=np.int64))
    fps = s.con.execute(
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
    rec.update(n_old=n_old, n_new=int((sp >= 7).sum()),
               n_planted_dup=truth["n_dup"], n_survivors=len(got_ids),
               auto_m_bits=m_bits,
               bloom_candidate_frac=round(cand_frac, 5),
               true_dup_frac=round(true_dup_frac, 5))
    return rec


@leg("snapshot_minhash_dedup")
def _snapshot_minhash(s: Soak) -> dict:
    """Every re-crawled new doc is a verbatim copy of its old partner
    (jaccard 1.0) and distinct bodies never clear 0.8: exactly the planted
    re-crawl ids come back, each with one partner at max_jacc 1.0."""
    from upton_ray import datapipe

    corpus, truth = s.corpus("snapshot")
    ids_all = np.arange(s.n_docs, dtype=np.int64)
    new_ids = ids_all[_splits(ids_all) >= 7]
    planted = np.sort(np.setdiff1d(new_ids, truth["fresh"],
                                   assume_unique=True))
    out, rec = s.run("snapshot_minhash_dedup",
                     lambda: datapipe.snapshot_minhash_dedup(corpus), "docs")
    got = np.sort(out["doc_id"].to_numpy(zero_copy_only=False))
    assert np.array_equal(got, planted), (len(got), len(planted))
    assert pc.min(out["n_partners"]).as_py() == 1
    assert pc.max(out["n_partners"]).as_py() == 1
    assert pc.min(out["max_jacc"]).as_py() == 1.0
    rec.update(n_planted_dup=len(planted), n_matched=len(got))
    return rec


@leg("snapshot_embedding_dedup")
def _snapshot_embedding(s: Soak) -> dict:
    """A planted vector pair (cos > 0.999) matters iff it crosses the md5
    snapshot split: its new-side member comes back with n_partners == 1;
    within-side pairs and random pairs (P(cos >= 0.95) ~ 3e-32 at d=64)
    must not."""
    from upton_ray import datapipe

    vecs = s.corpus("vecs")
    flat = np.array(sorted(planted_vec_pairs(s.n_vecs)), np.int64)
    sp_a, sp_b = _splits(flat[:, 0]), _splits(flat[:, 1])
    cross = (sp_a < 7) != (sp_b < 7)
    expected = np.sort(np.where(sp_a[cross] >= 7,
                                flat[cross, 0], flat[cross, 1]))
    out, rec = s.run("snapshot_embedding_dedup",
                     lambda: datapipe.snapshot_embedding_dedup(vecs), "vecs")
    got = np.sort(out["vec_id"].to_numpy(zero_copy_only=False))
    assert np.array_equal(got, expected), (len(got), len(expected))
    assert pc.min(out["n_partners"]).as_py() == 1
    assert pc.max(out["n_partners"]).as_py() == 1
    rec.update(n_planted_pairs=len(flat), n_cross_pairs=int(cross.sum()),
               n_matched=len(got))
    return rec


# ------------------------------------------------------------- sitemap legs


def _sitemap_expand(n_hosts: int, pages_per_host: int,
                    links_per_page: int) -> dict:
    """Expansion over the generator web's sitemap tree (root -> per-host
    index -> per-segment files -> article locs), checked row by row against
    the closed-form rank law inside map_batches: host h's file k has seed
    rank 1 + n_hosts + h*K + k and emits exactly the articles
    [k*links_per_page, ...) in dom_pos order.  The driver folds only
    per-seed counts, which prove coverage."""
    from upton_ray.shuffle import collect
    from upton_ray.sitemap import expand_levels
    from upton_ray.synth import ScaleParams

    p = ScaleParams(n_hosts=n_hosts, pages_per_host=pages_per_host,
                    links_per_page=links_per_page, zipf_alpha=0.0, seed=42)
    K = p.n_index_pages(0)
    n_locs = sum(p.n_articles(h) for h in range(p.n_hosts))
    art_re = re.compile(r"^http://h(\d+)\.synth\.example/a/(\d+)\.html$")
    out_schema = pa.schema([("seed_id", pa.int32()), ("cnt", pa.int64()),
                            ("bad", pa.int64())])

    def verify(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        seed = b["seed_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        dom = b["dom_pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        fk = seed - 1 - n_hosts          # file ordinal: h*K + k
        h = fk // K
        a = (fk % K) * links_per_page + dom
        bad = 0
        for i, u in enumerate(b["url"].to_pylist()):
            m = art_re.match(u)
            if (not m or int(m.group(1)) != h[i]
                    or int(m.group(2)) != a[i]):
                bad += 1
        g = pa.table({"seed_id": b["seed_id"]}).group_by("seed_id") \
            .aggregate([([], "count_all")])
        return pa.table({
            "seed_id": g["seed_id"],
            "cnt": pc.cast(g["count_all"], pa.int64()),
            "bad": pa.array([bad] + [0] * (g.num_rows - 1), pa.int64())})

    def run():
        links, n_files = expand_levels(p, p.host(0) + "/sitemap_root.xml",
                                       max_depth=3, concurrency=8)
        return collect(links.map_batches(verify, batch_format="pyarrow",
                                         batch_size=None), out_schema), n_files

    (parts, n_files), wall, delta = rss_gated("sitemap expansion", run)
    per_seed = parts.group_by("seed_id").aggregate([("cnt", "sum")])
    cnts = per_seed["cnt_sum"].to_numpy(zero_copy_only=False)
    n_bad = int(pc.sum(parts["bad"]).as_py())
    assert n_bad == 0, f"{n_bad} rows violate the rank law"
    assert int(cnts.sum()) == n_locs, (int(cnts.sum()), n_locs)
    assert per_seed.num_rows == n_hosts * K
    assert (cnts == links_per_page).all() or pages_per_host % links_per_page, \
        "uniform segments must all be full"
    return {"n_locs": n_locs, "n_files": n_files, "wall_s": round(wall, 1),
            "locs_per_s": int(n_locs / wall), "bad_rows": n_bad,
            "driver_rss_delta_mb": delta}


LEGS["sitemap_expand"] = lambda s: _sitemap_expand(
    max(1, s.n_docs // 2000), 2000, 100)
LEGS["sitemap_expand_wide"] = lambda s: _sitemap_expand(
    max(1, s.n_events // 10_000), 10_000, 200)


@leg("sitemap_crawl")
def _sitemap_crawl(s: Soak, n_hosts: int = 192,
                   pages_per_host: int = 320) -> dict:
    """End-to-end sitemap-seeded crawl (generator store) against the
    index-seeded crawl of the same web: both yield every article."""
    from upton_ray.config import CrawlConfig
    from upton_ray.engine import Crawler
    from upton_ray.synth import ScaleParams, index_url

    p = ScaleParams(n_hosts=n_hosts, pages_per_host=pages_per_host,
                    links_per_page=20, spans_per_page=24,
                    media_fraction=0.25, zipf_alpha=0.3, seed=42)
    n_articles = sum(p.n_articles(h) for h in range(p.n_hosts))
    base = dict(extractor="css:h1.article-title",
                sleep_time_between_requests=0,
                debug=False, index_debug=False,
                num_seen_shards=8, fetch_concurrency=16,
                fetch_batch_size=1024)
    out = {"n_articles": n_articles}
    for mode in ("sitemap", "index"):
        if mode == "sitemap":
            cfg = CrawlConfig(sitemap_url=p.host(0) + "/sitemap_root.xml",
                              sitemap_max_depth=3, **base)
            seeds = None
        else:
            cfg = CrawlConfig(index_selector="section#river section h1 a",
                              paginated=True, pagination_param="p",
                              pagination_max_pages=100_000, **base)
            seeds = [(h, index_url(p, h), cfg.index_selector)
                     for h in range(p.n_hosts)]
        crawler = Crawler(cfg, p, seeds=seeds)
        t0 = time.time()
        n_records = crawler.crawl().records.count()
        wall = time.time() - t0
        crawler.shutdown()
        assert n_records == n_articles, (mode, n_records, n_articles)
        out[f"{mode}_wall_s"] = round(wall, 1)
        out[f"{mode}_pages_per_s"] = int(n_articles / wall)
    return out


# --------------------------------------------------------------------- main


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(
        description="Run soak legs and verify each; see the module "
                    "docstring for the corpora and the two kinds of leg.")
    ap.add_argument("legs", nargs="+", choices=sorted(LEGS), metavar="LEG",
                    help="one or more of: " + ", ".join(sorted(LEGS)))
    ap.add_argument("--n-docs", type=int, default=1_000_000)
    ap.add_argument("--n-events", type=int, default=10_000_000)
    ap.add_argument("--n-vecs", type=int, default=1_000_000)
    args = ap.parse_args(argv)

    import ray

    own_session = not ray.is_initialized()
    if own_session:
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    soak = Soak(args.n_docs, args.n_events, args.n_vecs)
    results = {}
    for name in args.legs:
        try:
            rec = LEGS[name](soak)
            rec["pass"] = True
        except Exception as ex:   # one leg's failure must not hide the rest
            traceback.print_exc()
            rec = {"pass": False, "error": repr(ex)[:500]}
        results[name] = rec
        print(f"# {name}: {json.dumps(rec, default=str)}", flush=True)
    if own_session:
        ray.shutdown()
    print(json.dumps({"n_docs": args.n_docs, "n_events": args.n_events,
                      "n_vecs": args.n_vecs, "legs": results}, default=str))
    return results


if __name__ == "__main__":
    sys.exit(0 if all(r["pass"] for r in main().values()) else 1)
