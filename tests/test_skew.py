"""Adversarial-skew conformance (VERDICT r2 item 3): the dedup / window /
join operators run against a corpus with degenerate strata — a byte-identical
duplicate cluster covering 40% of documents, a near-dup family just above the
0.8 threshold, and one user owning ~30% of all events with whole-second
timestamp tie runs — and must (a) visibly engage their cap accounting
(minhash) and (b) stay value-identical to the DuckDB oracle (sessionize,
as-of, exact dedup). This converts the "survives skew" design arguments into
pinned measurements.
"""

import logging

import duckdb
import numpy as np
import pandas as pd
import pytest

from upton_ray import datapipe
from upton_ray.skew import skew_dir


@pytest.fixture(scope="module")
def skew(ray_session):
    path, layout = skew_dir(n_docs=1500, n_events=12_000, seed=7)
    return path, layout


def _oracle(sql_key: str, corpus: str) -> pd.DataFrame:
    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("documents", "events"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{corpus}/{t}.parquet')")
    return con.sql(e.oracle_sql()[sql_key]).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _assert_matches_oracle(res, sql_key: str, corpus: str) -> None:
    got, want = _canon(_to_df(res)), _canon(_oracle(sql_key, corpus))
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-9, atol=1e-9)


def test_minhash_cap_triggers_and_family_survives(skew, caplog):
    """The 600-doc identical cluster overflows max_bucket in EVERY band →
    the drop accounting must fire (logged count), no cluster-cluster pair
    explosion reaches the output, and the near-dup family (whose buckets are
    small) still pairs with the base — recall survives the cap."""
    path, layout = skew
    lo, hi = layout["cluster_ids"]
    flo, fhi = layout["family_ids"]
    with caplog.at_level(logging.WARNING, logger="upton_ray.datapipe"):
        t = datapipe.minhash_dedup(path, max_bucket=256)
    assert any("dropped" in r.message for r in caplog.records), \
        "oversized-bucket accounting must log its drops"
    df = t.to_pandas()
    in_cluster = lambda s: (s >= lo) & (s < hi)  # noqa: E731
    assert not (in_cluster(df["doc_a"]) & in_cluster(df["doc_b"])).any(), \
        "capped cluster must not emit O(cluster^2) pairs"
    # base pairs with every variant (jacc ≈ 0.854 ≥ 0.8); verify exactly
    base = flo
    got_variants = set(df.loc[df["doc_a"] == base, "doc_b"]) \
        | set(df.loc[df["doc_b"] == base, "doc_a"])
    assert set(range(flo + 1, fhi)) <= got_variants
    # every emitted pair is exactly verified ≥ threshold
    assert (df["jacc"] >= 0.8).all()


def test_dedup_exact_collapses_cluster(skew):
    """Exact dedup is the RIGHT scale path for identical docs: the 40%
    cluster collapses to one keeper (min doc_id), oracle-checked."""
    path, layout = skew
    res = _to_df(datapipe.dedup_exact(path))
    _assert_matches_oracle(res, "dedup_exact", path)
    lo, hi = layout["cluster_ids"]
    winners = set(res["doc_id"])
    assert lo in winners
    assert not winners & set(range(lo + 1, hi)), \
        "only the min doc_id of the identical cluster survives"


def test_sessionize_hot_user_matches_oracle(skew):
    """One user owns ~30% of events (with equal-second tie runs): the
    sorted-sweep + residual-groupby path must stay value-identical to the
    SQL window oracle."""
    path, layout = skew
    _assert_matches_oracle(datapipe.sessionize(path), "sessionize", path)


def test_asof_join_hot_user_matches_oracle(skew):
    path, _ = skew
    _assert_matches_oracle(datapipe.asof_join_events(path),
                           "asof_join_events", path)


def test_sessionize_block_boundary_torture(skew):
    """Judge item 5: force high block counts so the hot user's sorted run
    straddles ≥ 3 blocks (middle blocks are single-user → whole-block
    residual path) and equal-ts ties land on block edges. Output must be
    identical at every block count."""
    path, _ = skew
    want = _canon(_to_df(datapipe.sessionize(path, num_blocks=1)))
    for nb in (3, 16, 64):
        got = _canon(_to_df(datapipe.sessionize(path, num_blocks=nb)))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=False, rtol=1e-9)


def test_asof_block_boundary_torture(skew):
    path, _ = skew
    want = _canon(_to_df(datapipe.asof_join_events(path, num_blocks=1)))
    for nb in (3, 16, 64):
        got = _canon(_to_df(datapipe.asof_join_events(path, num_blocks=nb)))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_family_jaccard_construction():
    """Pin the corpus construction itself: base-variant 3-shingle Jaccard
    sits in [0.8, 0.9) (above threshold, not trivially identical) and
    variant-variant pairs sit below 0.8."""
    from upton_ray.datapipe import jaccard, shingles
    from upton_ray.skew import _near_dup_family

    fam = _near_dup_family(4)
    sets = [set(shingles(t)) for t in fam]
    for v in range(1, len(fam)):
        assert 0.8 <= jaccard(sets[0], sets[v]) < 0.9
    for a in range(1, len(fam)):
        for b in range(a + 1, len(fam)):
            assert jaccard(sets[a], sets[b]) < 0.8


def test_hot_user_share(skew):
    import pyarrow.parquet as pq

    path, layout = skew
    users = pq.read_table(f"{path}/events.parquet",
                          columns=["user_id"])["user_id"].to_numpy()
    share = float(np.mean(users == layout["hot_user"]))
    assert 0.25 < share < 0.35


def test_skew_join_hot_user_matches_oracle(skew):
    """The 30%-hot-user event log through skew_join: the hot key must be
    DETECTED (routed to the broadcast map-side path) and the joined result
    must be value-identical to the plain DuckDB join."""
    import pyarrow as pa
    import ray

    from upton_ray.shuffle import collect, detect_hot_keys, skew_join

    corpus, layout = skew
    ev = ray.data.read_parquet(f"{corpus}/events.parquet",
                               columns=["event_id", "user_id", "value"],
                               override_num_blocks=6)
    hot = detect_hot_keys(ev, "user_id", threshold=0.1)
    assert layout["hot_user"] in hot.to_pylist()

    users = sorted(set(collect(ev, pa.schema([]))["user_id"].to_pylist()))
    dim = pa.table({"user_id": pa.array(users, pa.int64()),
                    "tier": pa.array([f"t{u % 3}" for u in users])})
    out = collect(skew_join(
        ev, ray.data.from_arrow(dim).repartition(2), "user_id",
        hot_threshold=0.1, num_partitions=4), pa.schema([]))

    con = duckdb.connect()
    con.sql(f"CREATE VIEW e AS SELECT * FROM "
            f"read_parquet('{corpus}/events.parquet')")
    con.register("d", dim)
    exp = con.sql("SELECT e.event_id, e.user_id, d.tier FROM e "
                  "JOIN d USING (user_id)").df()
    got = out.select(["event_id", "user_id", "tier"]).to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp))


def test_grouped_top_n_hot_group(skew):
    """grouped_top_n under skew: the hot user owns ~30% of events, but the
    per-block combiner bounds the shuffle to n rows per group per block —
    result must equal the window oracle exactly."""
    import pyarrow as pa
    import ray

    from upton_ray.shuffle import grouped_top_n

    corpus, layout = skew
    ev = ray.data.read_parquet(f"{corpus}/events.parquet",
                               columns=["event_id", "user_id", "value"],
                               override_num_blocks=6)
    out = pa.concat_tables(ray.get(grouped_top_n(
        ev, ["user_id"],
        [("value", "descending"), ("event_id", "ascending")], 3,
        rn_col="rn", num_partitions=4).to_arrow_refs()))
    con = duckdb.connect()
    con.sql(f"CREATE VIEW e AS SELECT * FROM "
            f"read_parquet('{corpus}/events.parquet')")
    exp = con.sql("""
        SELECT event_id, user_id, value, rn FROM (
            SELECT *, ROW_NUMBER() OVER (PARTITION BY user_id
                ORDER BY value DESC, event_id) AS rn FROM e)
        WHERE rn <= 3""").df()
    got = out.select(["event_id", "user_id", "value", "rn"]).to_pandas()
    pd.testing.assert_frame_equal(_canon(got), _canon(exp))
