"""Round-5d operators: substring_dedup (Lee-et-al ExactSubstr coverage)
and temperature_resample (alpha-temperature source mixing).

Both are oracle-checked by the sf gate; here the semantics are pinned on
planted structure: exact covered-token counts for hand-built duplicate
passages (including interval-union overlap and the <n-token edge), the
broadcast/distributed path equivalence, and the head-frac / tail-clamp
rate law for the resampler, cross-checked against DuckDB on the same
synthetic table.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tests.test_spans_hitters import _collect
from upton_ray import datapipe

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts, sources=None):
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources if sources is not None
                           else ["s0"] * n, pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


# ------------------------------------------------------------ substring_dedup


PASSAGE = "alpha bravo charlie delta echo foxtrot golf"      # 7 tokens


def _planted_docs():
    """doc0/doc1 share PASSAGE (7 tokens, grams at pos 0..2 all dup);
    doc2 embeds it mid-text; doc3 is unique filler; doc4 is short (<5
    tokens -> no grams ever); doc5 repeats a 5-gram twice WITHIN itself
    only (within-doc repeat must NOT mark it duplicated)."""
    uniq = ("zulu yankee xray whiskey victor uniform tango sierra "
            "romeo quebec papa oscar november mike lima kilo")
    inner = "one two three four five"
    return [
        PASSAGE,                                             # 0
        PASSAGE + " hotel india juliett",                    # 1
        "pre1 pre2 " + PASSAGE + " post1 post2",             # 2
        uniq,                                                # 3
        "tiny doc here",                                     # 4
        inner + " sep " + inner,                             # 5
    ]


def test_substring_dedup_planted_coverage(ray_session, tmp_path):
    _write_docs(tmp_path, _planted_docs())
    got = _collect(datapipe.substring_dedup(str(tmp_path))) \
        .set_index("doc_id").sort_index()
    # docs 0-2: the shared 7 tokens are fully covered (grams at positions
    # 0..2 union to [0, 7)); nothing else in them is duplicated
    assert got.loc[0, "n_tok"] == 7 and got.loc[0, "n_dup_tok"] == 7
    assert got.loc[1, "n_tok"] == 10 and got.loc[1, "n_dup_tok"] == 7
    assert got.loc[2, "n_tok"] == 11 and got.loc[2, "n_dup_tok"] == 7
    # unique doc, short doc, and the within-doc-only repeat: zero coverage
    assert got.loc[3, "n_dup_tok"] == 0
    assert got.loc[4, "n_tok"] == 3 and got.loc[4, "n_dup_tok"] == 0
    assert got.loc[5, "n_dup_tok"] == 0


def test_substring_dedup_paths_agree_and_match_oracle(ray_session, tmp_path):
    _write_docs(tmp_path, _planted_docs())
    import __ray_entry__ as e
    bc = _collect(datapipe.substring_dedup(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    dist = _collect(datapipe.substring_dedup(str(tmp_path),
                                             force_distributed=True)) \
        .sort_values("doc_id").reset_index(drop=True)[bc.columns]
    assert bc.equals(dist)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{tmp_path}/documents.parquet'")
    exp = con.sql(e.oracle_sql()["substring_dedup"]).df() \
        .sort_values("doc_id").reset_index(drop=True)[bc.columns]
    assert bc.astype("int64").equals(exp.astype("int64"))


def test_substring_dedup_distributed_with_no_gram(ray_session, tmp_path):
    """No doc has n tokens, so the duplicated-gram set is an empty
    Dataset with no schema: the distributed path still gives the
    broadcast path's rows (every n_dup_tok 0)."""
    _write_docs(tmp_path, ["", "alpha", "beta", "  ", "gamma"] * 4 + ["x"])
    bc = _collect(datapipe.substring_dedup(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    dist = _collect(datapipe.substring_dedup(str(tmp_path),
                                             force_distributed=True)) \
        .sort_values("doc_id").reset_index(drop=True)[bc.columns]
    assert len(bc) == 21 and (bc["n_dup_tok"] == 0).all()
    assert bc.equals(dist)


def test_substring_dedup_overlap_not_double_counted(ray_session, tmp_path):
    # two docs sharing an 8-token run: 4 dup grams whose intervals overlap;
    # union must be 8 tokens, not 4 * 5 = 20
    run = "a b c d e f g h"
    _write_docs(tmp_path, [run + " tail1 tail2", run + " other ending"])
    got = _collect(datapipe.substring_dedup(str(tmp_path))) \
        .set_index("doc_id")
    assert got.loc[0, "n_dup_tok"] == 8
    assert got.loc[1, "n_dup_tok"] == 8


def test_substring_dedup_sf_gate_shape(ray_session):
    got = _collect(datapipe.substring_dedup(SF))
    assert len(got) == 500
    assert (got.n_dup_tok <= got.n_tok).all()
    assert (got.n_dup_tok >= 0).all()


# ------------------------------------------------------- temperature_resample


def test_temperature_rates_head_frac_tail_clamp(ray_session, tmp_path):
    # 160 docs of s_big, 10 of s_small: rate(big) = frac = 0.5,
    # rate(small) = min(1, 0.5 * sqrt(16)) = 1 -> the whole tail survives
    texts = ["w%d x y" % i for i in range(170)]
    src = ["s_big"] * 160 + ["s_small"] * 10
    _write_docs(tmp_path, texts, src)
    got = datapipe.temperature_resample(str(tmp_path)).to_pandas() \
        .set_index("source")
    assert got.loc["s_small", "n_kept"] == 10
    # head keeps ~frac of its docs (md5 draw, exact value deterministic)
    kept = got.loc["s_big", "n_kept"]
    assert 0 < kept < 160
    again = datapipe.temperature_resample(str(tmp_path)).to_pandas() \
        .set_index("source")
    assert got.equals(again)


def test_temperature_resample_matches_oracle(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    srcs = ["s%d" % (i % 7) for i in range(300)]
    texts = ["tok%d filler" % rng.randint(0, 50) for _ in range(300)]
    _write_docs(tmp_path, texts, srcs)
    import __ray_entry__ as e
    got = datapipe.temperature_resample(str(tmp_path)).to_pandas() \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"'{tmp_path}/documents.parquet'")
    exp = con.sql(e.oracle_sql()["temperature_resample"]).df() \
        .reset_index(drop=True)[got.columns]
    assert got.astype({"n_docs": "int64", "n_kept": "int64"}).equals(
        exp.astype({"n_docs": "int64", "n_kept": "int64"}))


def test_temperature_alpha_one_is_uniform_rate(ray_session, tmp_path):
    # alpha=1 -> exponent 0: every source keeps with rate = frac exactly
    texts = ["a b c"] * 30
    src = ["s0"] * 20 + ["s1"] * 10
    _write_docs(tmp_path, texts, src)
    got = datapipe.temperature_resample(str(tmp_path), alpha=1.0,
                                        frac=1.0).to_pandas()
    # frac=1, alpha=1 -> rate 1 everywhere: everything kept
    assert (got.n_kept == got.n_docs).all()
