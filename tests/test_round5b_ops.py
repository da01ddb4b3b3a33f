"""Round-5b curation operators: planted-structure behavioral tests.

Each op also has an oracle_sql() entry (the sf-gate covers engine-vs-DuckDB
equality); these pin the SEMANTICS on hand-built inputs where the right
answer is known by construction — Gopher keep/drop boundaries, whitespace
normalization edge cases, the per-host cap tiebreak, and the shared-asset
collapse counts."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tests.test_spans_hitters import _collect
from upton_ray import datapipe


def _write_docs(tmp_path, texts, sources=None, n_chars=None):
    n = len(texts)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "source": pa.array(sources if sources is not None
                           else ["src00"] * n, pa.string()),
        "n_chars": pa.array(n_chars if n_chars is not None
                            else [len(t) for t in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


def test_gopher_rules_boundaries(ray_session, tmp_path):
    good = " ".join(["word"] * 60)            # 60 words, mwl 4.0, all alpha
    short = " ".join(["word"] * 10)           # fails the 50-word floor
    symbols = " ".join(["word"] * 50) + " " + " ".join(["#"] * 10)
    numeric = " ".join(["12345"] * 60)        # alpha_ratio 0 -> drop
    _write_docs(tmp_path, [good, short, symbols, numeric, ""])
    got = _collect(datapipe.gopher_rules(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["n_words"].tolist() == [60, 10, 60, 60, 0]
    assert got["keep"].tolist() == [True, False, False, False, False]
    assert abs(got["mean_word_len"][0] - 4.0) < 1e-12
    # 10 of 60 words are '#': symbol_ratio = 10/60 > 0.1
    assert abs(got["symbol_ratio"][2] - 10 / 60) < 1e-12
    assert got["alpha_ratio"][3] == 0.0
    assert np.isnan(got["mean_word_len"][4])


def test_normalize_text_whitespace_and_case(ray_session, tmp_path):
    _write_docs(tmp_path, ["  Hello\t\tWORLD \n x ", "", "\t \n", "AbC"])
    got = _collect(datapipe.normalize_text(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    assert got["norm_text"].tolist() == ["hello world x", "", "", "abc"]
    assert got["n_norm"].tolist() == [13, 0, 0, 3]


def test_host_cap_rank_and_tiebreak(ray_session, tmp_path):
    # host A: 5 docs, lengths 9,9,7,5,3 (tie on 9 -> lower doc_id first);
    # host B: 2 docs (both kept, k=3 never truncates)
    _write_docs(tmp_path,
                ["x"] * 7,
                sources=["A", "A", "A", "A", "A", "B", "B"],
                n_chars=[9, 9, 7, 5, 3, 4, 8])
    got = _collect(datapipe.host_cap(str(tmp_path), k=3)) \
        .sort_values(["source", "rk"]).reset_index(drop=True)
    assert got[got.source == "A"]["doc_id"].tolist() == [0, 1, 2]
    assert got[got.source == "A"]["rk"].tolist() == [1, 2, 3]
    assert got[got.source == "B"]["doc_id"].tolist() == [6, 5]
    assert got[got.source == "B"]["n_chars"].tolist() == [8, 4]


def test_media_ref_dedup_collision_counts(ray_session, tmp_path):
    # modulus 5 over doc_ids 0..11: refs 0,1 appear 3x; 2,3,4 appear 2x
    _write_docs(tmp_path, ["t"] * 12)
    got = _collect(datapipe.media_ref_dedup(str(tmp_path), modulus=5)) \
        .sort_values("media_ref").reset_index(drop=True)
    assert len(got) == 5
    byref = dict(zip(got["media_ref"], zip(got["n_docs"],
                                           got["first_doc"])))
    assert byref["assets/0.img"] == (3, 0)
    assert byref["assets/1.img"] == (3, 1)
    assert byref["assets/4.img"] == (2, 4)


def test_unigram_logprob_broadcast_equals_partitioned(ray_session,
                                                      tmp_path):
    # the v2 vocab-broadcast fast path and the partitioned fallback
    # (forced via broadcast_limit_bytes=0) must produce identical rows
    rng = np.random.RandomState(3)
    vocab = [f"t{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, rng.randint(1, 30)))
             for _ in range(200)] + ["", "   "]
    _write_docs(tmp_path, texts)
    fast = _collect(datapipe.unigram_logprob(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    slow = _collect(datapipe.unigram_logprob(str(tmp_path),
                                             broadcast_limit_bytes=0)) \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(fast) == 200                     # empty docs emit no row
    assert fast["doc_id"].tolist() == slow["doc_id"].tolist()
    assert np.allclose(fast["logprob"].to_numpy(),
                       slow["logprob"].to_numpy(), rtol=0, atol=0)


def test_tfidf_broadcast_equals_partitioned(ray_session, tmp_path):
    rng = np.random.RandomState(11)
    vocab = [f"t{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, rng.randint(1, 25)))
             for _ in range(150)] + ["", "  "]
    _write_docs(tmp_path, texts)
    fast = _collect(datapipe.tfidf_top_term(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    slow = _collect(datapipe.tfidf_top_term(str(tmp_path),
                                            broadcast_limit_bytes=0)) \
        .sort_values("doc_id").reset_index(drop=True)
    # the oracle's string_split: each blank doc's one term is ''
    assert len(fast) == 152
    assert fast["top_term"].tolist()[150:] == ["", ""]
    assert fast.values.tolist() == slow.values.tolist()
