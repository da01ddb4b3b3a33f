"""Edge-case tests for the round-4 interleaved-span / passage-dedup /
heavy-hitter operators:

- span_explode: empty / short / multi-paragraph docs produce exactly the
  docweb.article_spans sequence (kind, text, media_ref, order — the
  input_hint per-row invariant), checked span-by-span against the
  sequential derivation.
- line_dedup: planted boilerplate windows are removed corpus-wide while
  unique text survives; empty docs stay empty; oracle parity on a fixture.
- heavy_hitters: exact two-pass recovery on a skewed fixture where
  per-block Misra-Gries compression genuinely discards counters, plus the
  uniform-block edge (compression drops everything; total must survive).
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _collect(out):
    if not isinstance(out, pa.Table):
        from upton_ray.shuffle import collect
        out = collect(out, pa.schema([]))
    return out.to_pandas()


def _write_docs(tmp_path, ids, texts, sources=None):
    n = len(ids)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources or ["src0"] * n, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


def _write_events(tmp_path, user_ids):
    n = len(user_ids)
    t = pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array([np.datetime64("2026-01-01", "us")] * n,
                       pa.timestamp("us")),
        "user_id": pa.array(user_ids, pa.int64()),
        "event_type": pa.array(["view"] * n, pa.string()),
        "value": pa.array([1.0] * n, pa.float64()),
        "props": pa.array(["{}"] * n, pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")


# ------------------------------------------------------------- span_explode


def test_span_explode_matches_sequential_derivation(ray_session, tmp_path):
    from upton_ray import datapipe
    from upton_ray.docweb import article_spans

    texts = ["",                                   # empty: title+media only
             "one two",                            # single short p span
             " ".join(f"t{i}" for i in range(30)),  # 3 p spans (12/12/6)
             "x" * 100]                            # title truncates at 48
    _write_docs(tmp_path, [5, 7, 11, 13], texts)
    out = _collect(datapipe.span_explode(str(tmp_path))) \
        .sort_values(["doc_id", "seq"]).reset_index(drop=True)

    for doc_id, text in zip([5, 7, 11, 13], texts):
        want = article_spans(doc_id, text)
        got = out[out.doc_id == doc_id]
        assert len(got) == len(want)
        for row, sp in zip(got.itertuples(), want):
            assert (row.kind, row.span_text, row.media_ref,
                    row.span_offset) == \
                (sp["kind"], sp["text"], sp["media_ref"], sp["offset"])
            assert row.seq == sp["offset"]         # order == offset here


def test_span_explode_empty_doc_has_no_p_span(ray_session, tmp_path):
    from upton_ray import datapipe

    _write_docs(tmp_path, [1], [""])
    out = _collect(datapipe.span_explode(str(tmp_path)))
    assert list(out.kind) == ["h1.article-title", "media.img"]
    assert list(out.media_ref) == ["", "assets/1.img"]


# --------------------------------------------------------------- line_dedup


def test_line_dedup_removes_planted_boilerplate(ray_session, tmp_path):
    from upton_ray import datapipe

    boiler = " ".join(f"b{i}" for i in range(8))   # one exact 8-token window
    texts = [boiler + " " + " ".join(f"u{d}w{i}" for i in range(8))
             for d in range(5)]                    # boiler appears 5x
    texts.append("")                               # empty doc
    texts.append(" ".join(f"solo{i}" for i in range(8)))
    _write_docs(tmp_path, list(range(7)), texts)

    out = _collect(datapipe.line_dedup(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    for d in range(5):                             # boiler window dropped
        assert out.loc[d, "n_dropped"] == 1
        assert out.loc[d, "n_kept"] == 1
        assert out.loc[d, "text_clean"] == \
            " ".join(f"u{d}w{i}" for i in range(8))
    assert out.loc[5, "text_clean"] == ""          # empty stays empty
    assert out.loc[5, "n_kept"] == 0 and out.loc[5, "n_dropped"] == 0
    assert out.loc[6, "n_dropped"] == 0            # unique text survives


def test_line_dedup_matches_duckdb_oracle(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]           # tiny vocab => repeats
    texts = [" ".join(rng.choice(vocab, size=int(n)))
             for n in rng.integers(0, 40, size=60)]
    _write_docs(tmp_path, list(range(60)), texts)

    got = _collect(datapipe.line_dedup(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.sql(e.oracle_sql()["line_dedup"]).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want[got.columns.tolist()])


# ------------------------------------------------------------ heavy_hitters


def test_heavy_hitters_exact_on_skewed_fixture(ray_session, tmp_path):
    from upton_ray import datapipe

    # 3 hot users (300 events each) + 2000 singleton users: per-block MG
    # with k = ceil(2/phi) = 200 counters MUST compress (2900 events,
    # >2000 distinct), yet the hot users survive and are counted exactly.
    users = [1] * 300 + [2] * 300 + [3] * 300 + list(range(100, 2100))
    rng = np.random.default_rng(3)
    rng.shuffle(users)
    _write_events(tmp_path, users)

    out = datapipe.heavy_hitters(str(tmp_path), phi=0.01).to_pandas()
    assert list(out.user_id) == [1, 2, 3]
    assert list(out.n) == [300, 300, 300]          # exact, not MG lower bound


def test_heavy_hitters_uniform_blocks_keep_total(ray_session, tmp_path):
    from upton_ray import datapipe

    # perfectly uniform: every user appears exactly 4x; with phi such that
    # k < distinct users every block compresses to (almost) nothing, but N
    # must still reach the driver so the threshold is right and the result
    # is empty rather than wrong.
    users = list(range(500)) * 4
    _write_events(tmp_path, users)
    out = datapipe.heavy_hitters(str(tmp_path), phi=0.01).to_pandas()
    assert len(out) == 0                           # 4 < ceil(0.01*2000)=20


def test_mg_compress_guarantee():
    from upton_ray.datapipe import _mg_compress

    rng = np.random.default_rng(11)
    keys = np.arange(1000)
    counts = rng.integers(1, 50, size=1000).astype(np.int64)
    counts[7] = 5000                               # one true heavy hitter
    k = 64
    ck, cc = _mg_compress(keys, counts, k)
    assert len(ck) <= k
    assert 7 in ck                                 # heavy key survives
    # undercount bounded by the subtracted pivot: <= N/(k+1)
    sub = dict(zip(ck, cc))
    assert counts[7] - sub[7] <= counts.sum() // (k + 1) + 1
