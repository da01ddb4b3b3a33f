"""Blank documents against the oracles: each text op keeps its oracle's
empty-document contract.  No testdata corpus has an empty or
whitespace-only document, so the sf gate never sees one.

- the sf0.001 corpus with three documents of one source blanked (``""``,
  ``"   "`` and ``"\\n\\t"``), for the shingle ops, ``simhash``, the tf-idf
  and term-count ops;
- a 66-document corpus, 3 of them blank, small enough that the term ''
  reaches ``term_frequencies``' top 20, and every ``tfidf_top_term`` path;
- the sf0.001 corpus with one null text, for the n-gram and shingle ops:
  a null text is a document with no token.
"""

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import __ray_entry__ as entry
from tests.test_round5f_ops import SF
from tools.check_queries import compare, to_pandas

BLANK = {1: "", 21: "   ", 41: "\n\t"}      # all three in source src1


def _oracle(sf_dir: str, name: str):
    con = duckdb.connect()
    for f in os.listdir(sf_dir):
        if f.endswith(".parquet"):
            con.sql(f"CREATE VIEW {f[:-8]} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{f}')")
    return con.sql(entry.oracle_sql()[name]).df()


def _sf_with_texts(d, texts: dict) -> str:
    """sf0.001 in ``d`` with the texts of the doc ids in ``texts``
    replaced."""
    for f in os.listdir(SF):
        if f.endswith(".parquet") and f != "documents.parquet":
            os.symlink(f"{SF}/{f}", d / f)
    t = pq.read_table(f"{SF}/documents.parquet")
    ids = t["doc_id"].to_pylist()
    assert {t["source"][ids.index(i)].as_py() for i in texts} == {"src1"}
    text = [texts.get(i, x) for i, x in zip(ids, t["text"].to_pylist())]
    pq.write_table(t.set_column(t.column_names.index("text"), "text",
                                pa.array(text, pa.string())),
                   d / "documents.parquet")
    return str(d)


@pytest.fixture(scope="module")
def blank_sf(tmp_path_factory):
    return _sf_with_texts(tmp_path_factory.mktemp("blank_sf"), BLANK)


@pytest.fixture(scope="module")
def null_sf(tmp_path_factory):
    return _sf_with_texts(tmp_path_factory.mktemp("null_sf"), {21: None})


@pytest.mark.parametrize("name", [
    "ngram_jaccard", "source_overlap", "simhash", "tfidf_top_term",
    "minhash_dedup", "contamination_check", "decontaminate_large",
    "ngram_containment", "term_frequencies"])
def test_blank_docs_match_oracle(ray_session, blank_sf, name):
    got = to_pandas(entry.queries()[name](blank_sf))
    assert compare(got, _oracle(blank_sf, name)) == "OK"


@pytest.mark.parametrize("name", [
    "dup_ngrams", "substring_dedup", "repetition_score", "ngram_jaccard",
    "source_overlap", "minhash_dedup", "contamination_check",
    "decontaminate_large", "ngram_containment"])
def test_null_text_match_oracle(ray_session, null_sf, name):
    got = to_pandas(entry.queries()[name](null_sf))
    assert compare(got, _oracle(null_sf, name)) == "OK"


def test_null_text_distributed_substring_dedup(ray_session, null_sf):
    from upton_ray import datapipe

    got = to_pandas(datapipe.substring_dedup(null_sf, force_distributed=True))
    assert compare(got, _oracle(null_sf, "substring_dedup")) == "OK"


@pytest.fixture(scope="module")
def small_blank(tmp_path_factory):
    """63 docs 't0 ... t9 u<i>' and 3 blank ones: '' (n=3) ranks 11th."""
    d = tmp_path_factory.mktemp("small_blank")
    body = " ".join(f"t{j}" for j in range(10))
    text = [f"{body} u{i:02d}" for i in range(63)] + ["", "  ", "\t"]
    n = len(text)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()), "text": text,
        "lang": ["en"] * n, "source": ["src0"] * n,
        "n_chars": pa.array([len(x) for x in text], pa.int64())}),
        d / "documents.parquet")
    return str(d)


@pytest.mark.parametrize("name,kw", [
    ("term_frequencies", {}), ("tfidf_top_term", {}),
    ("tfidf_top_term", {"broadcast_limit_bytes": 0})])
def test_small_blank_corpus_term_ops(ray_session, small_blank, name, kw):
    from upton_ray import datapipe

    got = to_pandas(getattr(datapipe, name)(small_blank, **kw))
    want = _oracle(small_blank, name)
    assert "" in set(want["term" if name == "term_frequencies"
                          else "top_term"])
    assert compare(got, want) == "OK"
