"""Regression tests for the round-3 ADVICE findings (all fixed round 4):

1. unigram_logprob: empty/whitespace-only docs — the Ray explode drops ''
   tokens, and the oracle now filters term <> '' so both sides agree.
2. detect_hot_keys: string-typed key with all-empty partitions must not
   crash on a hardcoded int64 empty fallback.
3. _hash_reduce_part: a partition task invoked with ZERO tables (dataset
   materialized to zero blocks) returns a zero-column table, not IndexError.
4. pivot_events: an unknown event_type raises a clear ValueError instead of
   a bare list.index crash inside the reduce task.
"""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from upton_ray.shuffle import collect


def test_unigram_logprob_empty_doc_matches_oracle(ray_session, tmp_path):
    import __ray_entry__ as e
    from upton_ray import datapipe

    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["the cat sat", "", "   ", "the dog sat"],
                         pa.string()),
    })
    pq.write_table(docs, tmp_path / "documents.parquet")

    out = datapipe.unigram_logprob(str(tmp_path))
    if not isinstance(out, pa.Table):
        out = collect(out, pa.schema([]))
    got = out.to_pandas().sort_values("doc_id").reset_index(drop=True)

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.sql(e.oracle_sql()["unigram_logprob"]).df() \
        .sort_values("doc_id").reset_index(drop=True)

    # empty docs (2, 3) appear on NEITHER side; values match exactly
    assert list(got["doc_id"]) == list(want["doc_id"]) == [1, 4]
    assert np.allclose(got["logprob"], want["logprob"], atol=0)


def test_detect_hot_keys_string_key(ray_session):
    import ray

    from upton_ray.shuffle import detect_hot_keys

    # one dominant string key; 4 reduce partitions leave some partitions
    # empty, which used to emit an int64-typed empty table and crash the
    # driver-side concat on schema mismatch
    t = pa.table({"k": pa.array(["hot"] * 90 + ["c%d" % i for i in range(10)],
                                pa.string())})
    ds = ray.data.from_arrow(t)
    hot = detect_hot_keys(ds, "k", threshold=0.5)
    assert hot.to_pylist() == ["hot"]

    # empty dataset path: no keys, no crash (schema may be gone entirely
    # when the dataset materializes to zero blocks)
    empty = detect_hot_keys(ds.filter(lambda r: False), "k", threshold=0.5)
    assert len(empty) == 0


def test_hash_reduce_part_zero_tables(ray_session):
    import ray

    from upton_ray.shuffle import _hash_reduce_part

    out = ray.get(_hash_reduce_part.remote(lambda t: t))
    assert out.num_columns == 0 and out.num_rows == 0


def test_pivot_events_unknown_type_raises(ray_session, tmp_path):
    from upton_ray import datapipe

    t = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "event_type": pa.array(["click", "hover", "view"], pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    with pytest.raises(Exception) as ei:
        ds = datapipe.pivot_events(str(tmp_path))
        if not isinstance(ds, pa.Table):
            collect(ds, pa.schema([]))
    assert "unknown event_type" in str(ei.value)
