"""Round-5f operators: anchor_text (inlink anchor aggregation over the
arithmetic link graph), embedding_quantize (int8 scalar quantization with
reconstruction MSE) and dup_rate (per-source exact duplicate-rate
diagnostic).

All three are oracle-checked by the sf gate; here the semantics are pinned
on planted structure: hand-computable anchor votes on a tiny graph (incl.
the count-desc/anchor-asc tie-break), exact codes and zero-MSE on a
two-level planted embedding table, and exact dup rates for hand-built
duplicate clusters.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from upton_ray import datapipe
from upton_ray.shuffle import collect

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts, sources=None, doc_ids=None):
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(doc_ids if doc_ids is not None
                           else np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources if sources is not None
                           else ["s0"] * n, pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


def _write_embeddings(tmp_path, vecs, vec_ids=None):
    n = len(vecs)
    t = pa.table({
        "vec_id": pa.array(vec_ids if vec_ids is not None
                           else np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array(np.zeros(n, np.int32), pa.int32()),
    })
    pq.write_table(t, tmp_path / "embeddings.parquet")


def _fetch(x):
    if isinstance(x, pa.Table):
        return x
    return collect(x, pa.schema([]))


# ---------------------------------------------------------------- anchor_text


def test_anchor_text_planted_graph(ray_session, tmp_path):
    """4 docs, graph: 0->1,2,3 (children; 3*0+1..3), 1->4? (no, n=4), plus
    backlinks 1->0, 2->1, 3->1.  Anchors are the source's first two
    normalized tokens."""
    _write_docs(tmp_path, ["Alpha  beta gamma", "bravo x", "charlie y",
                           "delta z"])
    out = _fetch(datapipe.anchor_text(str(tmp_path))).sort_by("doc_id")
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    # doc 0: one inlink (backlink from 1), anchor "bravo x"
    assert rows[0] == {"doc_id": 0, "n_inlinks": 1,
                       "top_anchor": "bravo x", "top_count": 1}
    # doc 1: inlinks from 0 (child) + 2,3 (backlinks 2//2=1, 3//2=1)
    assert rows[1]["n_inlinks"] == 3
    # counts: "alpha beta" x1, "charlie y" x1, "delta z" x1 -> anchor-asc tie
    assert rows[1]["top_anchor"] == "alpha beta"
    assert rows[1]["top_count"] == 1
    # docs 2,3: one child inlink each from 0
    for d in (2, 3):
        assert rows[d] == {"doc_id": d, "n_inlinks": 1,
                           "top_anchor": "alpha beta", "top_count": 1}
    # doc with zero inlinks emits no row (only 0..3 exist, all linked)
    assert set(rows) == {0, 1, 2, 3}


def test_anchor_text_tie_break_count_desc(ray_session, tmp_path):
    """Two sources vote the same anchor on one target; a third votes a
    lexicographically-smaller anchor once — count wins over lex order."""
    # docs 2,3 backlink to 1 (2//2=1, 3//2=1); doc 0's children are 1,2,3.
    _write_docs(tmp_path, ["aaa a", "ignored", "zzz same", "zzz same"])
    out = _fetch(datapipe.anchor_text(str(tmp_path)))
    r1 = [r for r in out.to_pylist() if r["doc_id"] == 1][0]
    # votes on doc 1: "aaa a" (child from 0), "zzz same" x2 (backlinks)
    assert r1["n_inlinks"] == 3
    assert r1["top_anchor"] == "zzz same"
    assert r1["top_count"] == 2


def test_anchor_text_single_token_and_empty(ray_session, tmp_path):
    """One-token and empty texts produce the token itself / "" as anchor."""
    _write_docs(tmp_path, ["solo", "   ", "x y z"])
    out = _fetch(datapipe.anchor_text(str(tmp_path)))
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[1]["top_anchor"] == "solo"      # child edge 0->1
    assert rows[0]["top_anchor"] == ""          # backlink 1->0, empty anchor


# --------------------------------------------------------- embedding_quantize


def test_embedding_quantize_exact_codes(ray_session, tmp_path):
    """Values planted exactly on quantization grid points reconstruct with
    zero error and known codes."""
    # dim ranges: d0 in [0, 255] -> scale 1.0, d1 in [0, 510] -> scale 2.0
    vecs = [[0.0, 0.0], [255.0, 510.0], [1.0, 2.0], [254.0, 508.0]]
    _write_embeddings(tmp_path, vecs)
    out = _fetch(datapipe.embedding_quantize(str(tmp_path))) \
        .sort_by("vec_id").to_pylist()
    assert [r["code_sum"] for r in out] == [0, 255 + 255, 1 + 1, 254 + 254]
    assert all(abs(r["mse"]) < 1e-12 for r in out)


def test_embedding_quantize_constant_dim(ray_session, tmp_path):
    """A constant dimension (mx == mn) gets code 0 and exact reconstruction
    (recon == mn), not a divide-by-zero."""
    vecs = [[7.0, 1.0], [7.0, 3.0]]
    _write_embeddings(tmp_path, vecs)
    out = _fetch(datapipe.embedding_quantize(str(tmp_path))) \
        .sort_by("vec_id").to_pylist()
    # d0 constant -> code 0, err 0; d1: codes 0 and 255, err 0 at endpoints
    assert [r["code_sum"] for r in out] == [0, 255]
    assert all(abs(r["mse"]) < 1e-12 for r in out)


def test_embedding_quantize_matches_duckdb_sf(ray_session):
    """Codes bit-equal and MSE within 1e-12 of DuckDB on the real sf table."""
    import duckdb

    import __ray_entry__ as e
    got = _fetch(datapipe.embedding_quantize(SF)).sort_by("vec_id")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{SF}/embeddings.parquet')")
    exp = con.execute(e.oracle_sql()["embedding_quantize"]).arrow()
    assert got["code_sum"].to_pylist() == exp["code_sum"].to_pylist()
    np.testing.assert_allclose(got["mse"].to_numpy(),
                               exp["mse"].to_numpy(), rtol=0, atol=1e-12)


# ------------------------------------------------------------------- dup_rate


def test_dup_rate_planted_clusters(ray_session, tmp_path):
    """Hand-built duplicate clusters per source; normalization-equivalent
    texts count as duplicates."""
    texts = ["same  text", "same text", "Same TEXT",   # s0: 3 docs, 1 distinct
             "a", "b", "a"]                            # s1: 3 docs, 2 distinct
    _write_docs(tmp_path, texts, sources=["s0"] * 3 + ["s1"] * 3)
    out = _fetch(datapipe.dup_rate(str(tmp_path))).to_pylist()
    by = {r["source"]: r for r in out}
    assert by["s0"]["n_docs"] == 3 and by["s0"]["n_distinct"] == 1
    assert abs(by["s0"]["dup_rate"] - 2 / 3) < 1e-15
    assert by["s1"]["n_docs"] == 3 and by["s1"]["n_distinct"] == 2
    assert abs(by["s1"]["dup_rate"] - 1 / 3) < 1e-15


def test_dup_rate_all_unique(ray_session, tmp_path):
    _write_docs(tmp_path, [f"doc {i}" for i in range(10)])
    out = _fetch(datapipe.dup_rate(str(tmp_path))).to_pylist()
    assert out == [{"source": "s0", "n_docs": 10, "n_distinct": 10,
                    "dup_rate": 0.0}]
