"""Round-5e operators: soft_dedup (duplicate down-weighting), group_split
(leakage-safe source-keyed split), source_overlap (cross-source shingle
containment), ks_drift (two-sample KS between snapshot splits) and
recrawl_priority (per-host change rate -> recrawl rank).

All five are oracle-checked by the sf gate; here the semantics are pinned
on planted structure: exact weights for hand-built duplicate clusters, the
no-source-spans-two-splits invariant, a hand-computable containment
matrix, KS = 0 on identical distributions / 1 on disjoint ones, and the
volatile-host-first rank law.
"""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from upton_ray import datapipe
from upton_ray.shuffle import block_refs, collect

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


# ----------------------------------------------------------------- soft_dedup


def test_soft_dedup_planted_clusters(ray_session, tmp_path):
    """A 3-doc cluster (identical after normalization), a 2-doc cluster,
    and a singleton get weights 1/3, 1/2, 1 exactly — and every doc_id
    survives (soft: down-weight, never drop)."""
    texts = ["same  text\there", "same text here", "  SAME TEXT HERE ",
             "other doc", "other   DOC",
             "unique snowflake"]
    _write_docs(tmp_path, texts)
    out = pa.concat_tables(
        [b for b in soft_out(tmp_path)]).sort_by("doc_id")
    w = out["weight"].to_pylist()
    assert out["doc_id"].to_pylist() == [0, 1, 2, 3, 4, 5]
    assert w == [1 / 3, 1 / 3, 1 / 3, 1 / 2, 1 / 2, 1.0]


def soft_out(tmp_path):
    ds = datapipe.soft_dedup(str(tmp_path))
    import ray
    return [pa.Table.from_pandas(b.to_pandas())
            for b in ray.get(block_refs(ds))]


def test_soft_dedup_weight_mass_is_distinct_count(ray_session):
    """sum(weight) == number of DISTINCT normalized texts: each cluster
    contributes exactly 1 regardless of its size."""
    out = collect(datapipe.soft_dedup(SF), pa.schema([]))
    n_distinct = datapipe.dedup_exact(SF).count()
    assert abs(sum(out["weight"].to_pylist()) - n_distinct) < 1e-9
    assert out.num_rows == 500          # nothing dropped


# ---------------------------------------------------------------- group_split


def test_group_split_no_source_spans_two_splits(ray_session):
    out = collect(datapipe.group_split(SF), pa.schema([]))
    srcs = out["source"].to_pylist()
    assert len(srcs) == len(set(srcs))      # one row per source
    # split law replayable off-engine
    for s, sp in zip(srcs, out["split"].to_pylist()):
        assert sp == int(hashlib.md5(s.encode()).hexdigest()[:8], 16) % 10
    assert sum(out["n_docs"].to_pylist()) == 500


def test_group_split_vs_hash_split_leakage(ray_session, tmp_path):
    """The per-doc split (hash_split) scatters one source across splits;
    group_split never does — the leakage contract, shown on one corpus."""
    texts = [f"doc number {i} body" for i in range(40)]
    _write_docs(tmp_path, texts, sources=["host_a"] * 20 + ["host_b"] * 20)
    g = collect(datapipe.group_split(str(tmp_path)), pa.schema([]))
    assert g.num_rows == 2              # one split row per source
    per_doc = collect(datapipe.hash_split(str(tmp_path)), pa.schema([]))
    assert len(set(per_doc["split"].to_pylist())) > 1   # per-doc scatters


# -------------------------------------------------------------- source_overlap


def test_source_overlap_planted_containment(ray_session, tmp_path):
    """src_a's only doc is a verbatim passage from src_b's doc ->
    containment(a in b) = 1.0; b holds extra shingles so
    containment(b in a) < 1.  src_c shares nothing -> no (c, *) rows."""
    passage = "alpha bravo charlie delta echo"          # 3 shingles
    texts = [passage,
             passage + " foxtrot golf hotel",           # superset: 6 shingles
             "zulu yankee xray whiskey victor"]
    _write_docs(tmp_path, texts, sources=["a", "b", "c"])
    out = datapipe.source_overlap(str(tmp_path))
    rows = {(r["src_a"], r["src_b"]): r for r in out.to_pylist()}
    assert set(rows) == {("a", "b"), ("b", "a")}
    assert rows[("a", "b")]["overlap"] == 3
    assert rows[("a", "b")]["containment"] == 1.0
    assert rows[("b", "a")]["overlap"] == 3
    assert rows[("b", "a")]["containment"] == 0.5
    # symmetric overlap counts, asymmetric containment
    assert rows[("a", "b")]["overlap"] == rows[("b", "a")]["overlap"]


def test_source_overlap_short_doc_fallback(ray_session, tmp_path):
    """<3-token docs fall back to the whole-text shingle (the shingles()
    and SQL CASE law) — two identical 2-token docs in different sources
    still overlap."""
    _write_docs(tmp_path, ["tiny doc", "tiny doc"], sources=["a", "b"])
    out = datapipe.source_overlap(str(tmp_path))
    rows = {(r["src_a"], r["src_b"]): r for r in out.to_pylist()}
    assert rows[("a", "b")]["overlap"] == 1
    assert rows[("a", "b")]["containment"] == 1.0


# ------------------------------------------------------------------- ks_drift


def test_ks_drift_bounds_and_counts(ray_session):
    out = datapipe.ks_drift(SF)
    r = out.to_pylist()[0]
    assert r["n_old"] + r["n_new"] == 500
    assert 0.0 <= r["ks_stat"] <= 1.0


def test_ks_drift_identical_and_disjoint(ray_session, tmp_path):
    """Identical length distributions across the split -> KS ~ 0 (exactly
    0 when the split halves each length bin evenly); disjoint supports ->
    KS = 1.  doc_ids are chosen so the split law puts each text in the
    intended side."""
    # find ids whose split-law side is old (<7) / new (>=7)
    old_ids = [i for i in range(4000)
               if int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
               % 10 < 7][:64]
    new_ids = [i for i in range(4000)
               if int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
               % 10 >= 7][:64]
    # identical: same multiset of lengths on both sides
    texts = ["x" * (10 + (k % 8)) for k in range(64)]
    _write_docs(tmp_path, texts + texts, doc_ids=old_ids + new_ids)
    r = datapipe.ks_drift(str(tmp_path)).to_pylist()[0]
    assert r["n_old"] == 64 and r["n_new"] == 64
    assert r["ks_stat"] == 0.0
    # disjoint: old lengths all < every new length
    texts_old = ["x" * (5 + (k % 4)) for k in range(64)]
    texts_new = ["x" * (100 + (k % 4)) for k in range(64)]
    _write_docs(tmp_path, texts_old + texts_new, doc_ids=old_ids + new_ids)
    r = datapipe.ks_drift(str(tmp_path)).to_pylist()[0]
    assert r["ks_stat"] == 1.0


# ------------------------------------------------------------ recrawl_priority


def test_recrawl_priority_rank_law(ray_session, tmp_path):
    """hot host: every page 'changes' (normalization alters it); cold
    host: none do; mixed: half -> ranks 1, 3, 2 with host tiebreak, and
    the rates are exact."""
    hot = ["Page  %d" % i for i in range(4)]          # double space + upper
    cold = ["page %d" % i for i in range(4)]          # already normalized
    mixed = ["stable page %d" % i for i in range(2)] + \
            ["Changed  %d" % i for i in range(2)]
    _write_docs(tmp_path, hot + cold + mixed,
                sources=["hot"] * 4 + ["cold"] * 4 + ["mixed"] * 4)
    out = datapipe.recrawl_priority(str(tmp_path))
    rows = {r["host"]: r for r in out.to_pylist()}
    assert rows["hot"]["change_rate"] == 1.0
    assert rows["cold"]["change_rate"] == 0.0
    assert rows["mixed"]["change_rate"] == 0.5
    assert rows["hot"]["priority_rank"] == 1
    assert rows["mixed"]["priority_rank"] == 2
    assert rows["cold"]["priority_rank"] == 3
    assert rows["hot"]["n_pages"] == 4 and rows["hot"]["n_changed"] == 4
