"""Round-5g operators: feature_corr (per-type two-pass Pearson vs event
time), link_reciprocity (bidirectional-edge fraction of the arithmetic
link graph) and embedding_pca (distributed covariance + top-k projection).

feature_corr / link_reciprocity are oracle-checked by the sf gate; here
their semantics are pinned on planted structure (a perfectly linear and a
perfectly anti-linear stratum; the hand-derivable single reciprocal pair).
embedding_pca is rows-only on the gate, so its exactness contract lives
here: orthonormal components, projection variance == top eigenvalues of
the exact covariance, deterministic sign, mean-centering.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from upton_ray import datapipe
from upton_ray.shuffle import collect

SF = "/root/testdata/sf0.001"


def _write_events(tmp_path, ts_us, user_id, event_type, value):
    n = len(ts_us)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(np.asarray(ts_us, np.int64), pa.timestamp("us")),
        "user_id": pa.array(np.asarray(user_id, np.int64), pa.int64()),
        "event_type": pa.array(list(event_type), pa.string()),
        "value": pa.array(np.asarray(value, np.float64), pa.float64()),
        "props": pa.array(["{}"] * n, pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")


def _write_embeddings(tmp_path, vecs):
    n = len(vecs)
    t = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, np.int32), pa.int32()),
    })
    pq.write_table(t, tmp_path / "embeddings.parquet")


# --------------------------------------------------------------- feature_corr


def test_feature_corr_planted_linear(ray_session, tmp_path):
    """value = a*t + b within a type -> corr exactly +/-1; a constant-lag
    anticorrelated type -> -1."""
    base = 1_700_000_000_000_000
    ts = [base + i * 1_000_000 for i in range(8)] * 2
    et = ["up"] * 8 + ["down"] * 8
    val = [2.0 * i + 5 for i in range(8)] + [100 - 3.0 * i for i in range(8)]
    _write_events(tmp_path, ts, [1] * 16, et, val)
    out = {r["event_type"]: r
           for r in datapipe.feature_corr(str(tmp_path)).to_pylist()}
    assert out["up"]["n"] == 8 and out["down"]["n"] == 8
    assert abs(out["up"]["corr"] - 1.0) < 1e-12
    assert abs(out["down"]["corr"] + 1.0) < 1e-12


def test_feature_corr_matches_duckdb_sf(ray_session):
    import duckdb

    import __ray_entry__ as e
    got = datapipe.feature_corr(SF).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{SF}/events.parquet')")
    exp = con.execute(e.oracle_sql()["feature_corr"]).df()
    assert (got.n.values == exp.n.values).all()
    np.testing.assert_allclose(got["corr"].values, exp["corr"].values,
                               rtol=0, atol=1e-12)


# ----------------------------------------------------------- link_reciprocity


def test_link_reciprocity_law(ray_session):
    """In the d -> 3d+1..3d+3 / d -> d//2 graph the ONLY reciprocal pair is
    (0, 1): 0->1 is a child edge and 1->0 the backlink.  (3u+j = 2u or
    2u+1 forces u = 0.)"""
    out = datapipe.link_reciprocity(SF).to_pylist()[0]
    assert out["n_reciprocal"] == 2          # both directions of (0, 1)
    assert out["reciprocity"] == 2 / out["n_edges"]


# -------------------------------------------------------------- embedding_pca


def _fetch(ds):
    return collect(ds, pa.schema([]))


def test_embedding_pca_exact_contract(ray_session, tmp_path):
    """Projections equal the exact-covariance eigendecomposition: per-axis
    variance == top eigenvalues, axes uncorrelated, projections centered."""
    rng = np.random.RandomState(3)
    # anisotropic cloud: dominant variance along a known direction
    base = rng.standard_normal((400, 6)) * [5.0, 2.0, 1, 0.5, 0.2, 0.1]
    _write_embeddings(tmp_path, base.astype(np.float32))
    out = _fetch(datapipe.embedding_pca(str(tmp_path))) \
        .sort_by("vec_id").to_pandas()
    P = out[["p0", "p1"]].to_numpy()
    M = np.asarray(pq.read_table(
        tmp_path / "embeddings.parquet")["embedding"].to_pylist(),
        np.float64)
    cov = np.cov(M, rowvar=False, bias=True)
    evals = np.linalg.eigvalsh(cov)[::-1]
    # per-axis projection variance == top-2 eigenvalues
    np.testing.assert_allclose(P.var(axis=0, ddof=0), evals[:2],
                               rtol=1e-9, atol=1e-12)
    # axes uncorrelated and centered
    assert abs(np.cov(P.T, bias=True)[0, 1]) < 1e-9
    np.testing.assert_allclose(P.mean(axis=0), [0, 0], atol=1e-9)
    assert P[:, 0].var() >= P[:, 1].var()


def test_embedding_pca_deterministic_sign(ray_session, tmp_path):
    """Two runs produce identical output (sign fixed by largest-|loading|
    coordinate), so the op is replayable."""
    rng = np.random.RandomState(7)
    _write_embeddings(tmp_path, rng.standard_normal((100, 4))
                      .astype(np.float32))
    a = _fetch(datapipe.embedding_pca(str(tmp_path))) \
        .sort_by("vec_id").to_pandas()
    b = _fetch(datapipe.embedding_pca(str(tmp_path))) \
        .sort_by("vec_id").to_pandas()
    assert (a.values == b.values).all()


# -------------------------------------------------------------- session_stats


def test_session_stats_planted(ray_session, tmp_path):
    """Hand-built sessions: user 1 has a 2-event session and a bounce
    (35-minute gap); user 2 has one 3-event session."""
    MIN = 60 * 1_000_000
    base = 1_700_000_000_000_000
    ts = [base, base + 5 * MIN, base + 45 * MIN,           # user 1: [2], [1]
          base, base + MIN, base + 2 * MIN]                # user 2: [3]
    _write_events(tmp_path, ts, [1, 1, 1, 2, 2, 2],
                  ["a"] * 6, [1.0] * 6)
    out = {r["user_id"]: r for r in _fetch(
        datapipe.session_stats(str(tmp_path))).to_pylist()}
    assert out[1] == {"user_id": 1, "n_sessions": 2, "n_bounce": 1,
                      "bounce_rate": 0.5, "avg_session_events": 1.5}
    assert out[2] == {"user_id": 2, "n_sessions": 1, "n_bounce": 0,
                      "bounce_rate": 0.0, "avg_session_events": 3.0}


# --------------------------------------------------------------- char_classes


def test_char_classes_planted(ray_session, tmp_path):
    _write_docs_cc(tmp_path, ["ab12  !", ""])
    rows = {r["doc_id"]: r for r in _fetch(
        datapipe.char_classes(str(tmp_path))).to_pylist()}
    r0 = rows[0]
    assert r0["n_chars_raw"] == 7
    assert r0["alpha_frac"] == 2 / 7 and r0["digit_frac"] == 2 / 7
    assert r0["space_frac"] == 2 / 7 and r0["other_frac"] == 1 / 7
    r1 = rows[1]          # empty doc: 0-length, all fractions 0
    assert r1["n_chars_raw"] == 0 and r1["alpha_frac"] == 0.0
    assert r1["other_frac"] == 0.0


def _write_docs_cc(tmp_path, texts):
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s0"] * len(texts), pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


# ----------------------------------------------------------------- prefix_dup


def test_prefix_dup_planted(ray_session, tmp_path):
    """Docs 0/2 share their first 8 tokens but differ after; doc 1 is
    unique; docs 3/4 are short and identical (prefix = whole text)."""
    shared = "a b c d e f g h"
    _write_docs_cc(tmp_path, [shared + " tail one", "unique doc",
                              shared + " tail two", "tiny", "TINY  "])
    out = sorted((r["rep_doc_id"], r["n_docs"]) for r in _fetch(
        datapipe.prefix_dup(str(tmp_path))).to_pylist())
    assert out == [(0, 2), (3, 2)]


# -------------------------------------------------------- incremental_profile


def test_incremental_profile_only_new_partitions(ray_session, tmp_path):
    """A grown partitioned corpus re-profiles ONLY the new file: cached
    summaries are byte-untouched (mtime check), the merged result equals
    a from-scratch recompute, and a stale cache key can't survive a file
    rewrite (mtime in the key)."""
    import os
    import time as _time

    import pyarrow.parquet as pqt

    corpus = tmp_path / "documents.parquet"
    corpus.mkdir()
    cache = str(tmp_path / "cache")

    def write_part(name, ids, texts, nchars):
        pqt.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
            "source": pa.array([f"s{i % 2}" for i in ids], pa.string()),
            "n_chars": pa.array(nchars, pa.int64()),
        }), corpus / name)

    write_part("part-0.parquet", [0, 1, 2], ["a", "b", "c"], [5, 9, 7])
    write_part("part-1.parquet", [3, 4], ["d", "e"], [1, 20])
    out1 = datapipe.incremental_profile(str(tmp_path), cache_dir=cache)
    rows1 = {r["col"]: r for r in out1.to_pylist()}
    assert rows1["doc_id"] == {"col": "doc_id", "n": 5, "nulls": 0,
                               "min_s": "0", "max_s": "4"}
    assert rows1["n_chars"]["min_s"] == "1" and \
        rows1["n_chars"]["max_s"] == "20"
    cached = {f: os.path.getmtime(os.path.join(cache, f))
              for f in os.listdir(cache)}
    assert len(cached) == 2

    _time.sleep(0.02)
    write_part("part-2.parquet", [9], ["z"], [100])
    out2 = datapipe.incremental_profile(str(tmp_path), cache_dir=cache)
    rows2 = {r["col"]: r for r in out2.to_pylist()}
    assert rows2["doc_id"]["n"] == 6 and rows2["doc_id"]["max_s"] == "9"
    assert rows2["n_chars"]["max_s"] == "100"
    after = {f: os.path.getmtime(os.path.join(cache, f))
             for f in os.listdir(cache)}
    assert len(after) == 3
    for f, m in cached.items():       # old partitions never re-profiled
        assert after[f] == m
    # rewriting a partition invalidates its key (mtime-in-key)
    _time.sleep(0.02)
    write_part("part-2.parquet", [9], ["z"], [42])
    out3 = datapipe.incremental_profile(str(tmp_path), cache_dir=cache)
    rows3 = {r["col"]: r for r in out3.to_pylist()}
    assert rows3["n_chars"]["max_s"] == "42"


# -------------------------------------------------------------- media_caption


def test_media_caption_law(ray_session, tmp_path):
    """Caption = last 12-token window; empty body falls back to the
    title slice; caption_seq = n_p."""
    _write_docs_cc(tmp_path, [
        " ".join(f"w{i}" for i in range(25)),   # 25 toks -> 3 windows
        "short doc",                            # 1 window
        "",                                     # empty -> title ("")
    ])
    rows = {r["doc_id"]: r for r in _fetch(
        datapipe.media_caption(str(tmp_path))).to_pylist()}
    assert rows[0]["caption"] == "w24" and rows[0]["caption_seq"] == 3
    assert rows[0]["media_ref"] == "assets/0.img"
    assert rows[1]["caption"] == "short doc" and rows[1]["caption_seq"] == 1
    assert rows[2]["caption"] == "" and rows[2]["caption_seq"] == 0
