"""Edge-case tests for the round-4 corpus-mixing / vocab-gate operators:

- interleave_sources: stride-scheduled weighted interleave — oracle match
  on a skewed fixture, plus the mixture property itself (a prefix of the
  merged stream holds sources ~proportionally to their weights).
- oov_rate: empty / whitespace-only / all-OOV docs.
- source_gate: a source whose mean sits EXACTLY on the global mean is kept
  (>= boundary), and the float arithmetic agrees with DuckDB bit-for-bit.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_spans_hitters import _collect


def _con(tmp_path):
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')")
    return con


def _write_docs(tmp_path, ids, texts=None, sources=None, n_chars=None):
    n = len(ids)
    t = pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts or ["w"] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(sources or ["src0"] * n, pa.string()),
        "n_chars": pa.array(n_chars or [1] * n, pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")


def test_interleave_matches_oracle_on_skewed_sources(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    # src1 (w=2) has 12 docs, src0 (w=1) has 3, src3 (w=4) has 1
    ids, srcs = [], []
    k = 0
    for s, cnt in [("src1", 12), ("src0", 3), ("src3", 1)]:
        for _ in range(cnt):
            ids.append(k); srcs.append(s); k += 1
    _write_docs(tmp_path, ids, sources=srcs)

    got = _collect(datapipe.interleave_sources(str(tmp_path))) \
        .sort_values("pos").reset_index(drop=True)
    con = _con(tmp_path)
    want = con.sql(e.oracle_sql()["interleave_sources"]).df() \
        .sort_values("pos").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["pri"]) == list(want["pri"])
    assert list(got["source"]) == list(want["source"])


def test_interleave_prefix_proportions(ray_session, tmp_path):
    from upton_ray import datapipe

    # 3 equal-size sources with weights 1 (src0), 2 (src1), 4 (src3):
    # an early prefix should hold them ~1:2:4
    ids, srcs = [], []
    k = 0
    for s in ["src0", "src1", "src3"]:
        for _ in range(40):
            ids.append(k); srcs.append(s); k += 1
    _write_docs(tmp_path, ids, sources=srcs)

    got = _collect(datapipe.interleave_sources(str(tmp_path))) \
        .sort_values("pos").reset_index(drop=True)
    prefix = got.head(35)["source"].value_counts()
    # stride scheduling: in any prefix before exhaustion, counts follow
    # weights exactly up to rounding (5 slots per 12-LCM cycle per weight 1)
    assert prefix["src3"] > prefix["src1"] > prefix["src0"]
    assert prefix["src3"] == 2 * prefix["src1"] == 4 * prefix["src0"]


def test_oov_rate_edge_docs(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    texts = (["alpha beta gamma"] * 10          # in-vocab body
             + ["", "   ",                        # token-less: dropped
                "zzz qqq",                        # all-OOV
                "alpha zzz"])                     # half-OOV
    _write_docs(tmp_path, list(range(len(texts))), texts=texts)

    got = _collect(datapipe.oov_rate(str(tmp_path), vocab_k=3)) \
        .sort_values("doc_id").reset_index(drop=True)
    sql = e.oracle_sql()["oov_rate"].replace("LIMIT 32", "LIMIT 3")
    con = _con(tmp_path)
    want = con.sql(sql).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert 10 not in got["doc_id"].values and 11 not in got["doc_id"].values
    assert list(got["n_tokens"]) == list(want["n_tokens"])
    assert list(got["oov_cnt"]) == list(want["oov_cnt"])
    assert np.allclose(got["oov_rate"], want["oov_rate"], atol=0)
    row = got[got["doc_id"] == 12].iloc[0]
    assert row["oov_cnt"] == 2 and row["oov_rate"] == 1.0


def test_source_gate_keeps_exact_boundary_source(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    # src0 mean = 15 == global mean 15 (kept, >=); src1 mean 10 dropped;
    # src2 mean 20 kept
    _write_docs(tmp_path, [0, 1, 2],
                sources=["src0", "src1", "src2"],
                n_chars=[15, 10, 20])

    got = _collect(datapipe.source_gate(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    con = _con(tmp_path)
    want = con.sql(e.oracle_sql()["source_gate"]).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"]) == [0, 2]
    assert list(got["source"]) == list(want["source"])
    assert np.allclose(got["src_mean"], want["src_mean"], atol=0)


def _write_events(tmp_path, rows):
    import datetime as dt
    base = dt.datetime(2024, 1, 1)
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + dt.timedelta(seconds=r[1]) for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([1.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")


def test_event_dedup_boundary_and_ties(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    # user 1 / click: t=0 keep, t=5 drop (<=10s), t=10 drop (gap 5),
    #                 t=21 keep (gap 11 > 10)
    # user 1 / view : independent stream, t=3 keep
    # user 2 / click: tie at t=0 (two events, same ts) -> second dropped
    #                 (lag diff 0, not > 10)
    # exact-boundary: user 3, gaps of exactly 10s -> dropped (strict >)
    rows = [(0, 0, 1, "click"), (1, 5, 1, "click"), (2, 10, 1, "click"),
            (3, 21, 1, "click"), (4, 3, 1, "view"),
            (5, 0, 2, "click"), (6, 0, 2, "click"),
            (7, 0, 3, "buy"), (8, 10, 3, "buy"), (9, 20, 3, "buy")]
    _write_events(tmp_path, rows)

    got = _collect(datapipe.event_dedup(str(tmp_path))) \
        .sort_values("event_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"read_parquet('{tmp_path}/events.parquet')")
    want = con.sql(e.oracle_sql()["event_dedup"]).df() \
        .sort_values("event_id").reset_index(drop=True)
    assert list(got["event_id"]) == list(want["event_id"]) == [0, 3, 4, 5, 7]


def test_decontaminate_large_short_and_empty_docs(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    texts = [
        "the cat sat on the mat",   # 0 train
        "the cat sat on a rug",     # 1 heldout: shares 'the cat sat' -> 1
        "tiny doc",                 # 2 train: whole-text shingle
        "tiny doc",                 # 3 heldout: exact short match -> 1
        "",                         # 4 train: no shingles
        "completely different words here now",  # 5 heldout: no overlap
        "the cat sat quietly on the mat today",  # 6 train
        "on the mat the cat sat on the mat",     # 7 heldout: several
    ]
    _write_docs(tmp_path, list(range(len(texts))), texts=texts)

    got = _collect(datapipe.decontaminate_large(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    con = _con(tmp_path)
    want = con.sql(e.oracle_sql()["decontaminate_large"]).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["n_overlap"]) == list(want["n_overlap"])
    assert 5 not in got["doc_id"].values          # clean doc absent
    assert got[got["doc_id"] == 3]["n_overlap"].iloc[0] == 1


@pytest.mark.parametrize("op", ["length_rank", "length_ntile",
                                "percentile_rank"])
def test_length_window_matches_oracle_with_ties(ray_session, tmp_path, op):
    """The (n_chars desc, doc_id) window ops against their SQL oracle on a
    corpus whose n_chars values tie in runs, so doc_id decides the order."""
    import __ray_entry__ as e
    from upton_ray import datapipe

    rng = np.random.RandomState(5)
    ids = [int(i) for i in rng.permutation(np.arange(100, 123))]
    _write_docs(tmp_path, ids,
                n_chars=[int(c) for c in rng.choice([3, 7, 7, 9], len(ids))])

    got = _collect(getattr(datapipe, op)(str(tmp_path))) \
        .sort_values("doc_id").reset_index(drop=True)
    con = _con(tmp_path)
    want = con.sql(e.oracle_sql()[op]).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(got) == len(ids)
    for col in want.columns:
        assert list(got[col]) == list(want[col]), col
