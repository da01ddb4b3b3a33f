"""Unit tests for upton_ray.shuffle — the manual hash-partitioned reduce,
the grouped aggregate and the generic equi-join built on it, and the block
prefix scan."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from upton_ray.shuffle import (block_scan, collect, group_agg, hash_join,
                               hash_reduce, key_hash)


def _sum_by(t: pa.Table, key="k", val="v") -> dict:
    g = t.group_by(key).aggregate([(val, "sum")])
    return dict(zip(g[key].to_pylist(), g[f"{val}_sum"].to_pylist()))


def _make_reduce_fn():
    def fn(t: pa.Table) -> pa.Table:
        import pyarrow as pa
        if "k" not in t.column_names:
            return pa.table({"k": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        g = t.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": g["k"], "v": g["v_sum"]})
    return fn


@pytest.mark.parametrize("num_partitions", [1, 3, 8])
def test_hash_reduce_matches_groupby(ray_session, num_partitions):
    rng = np.random.RandomState(7)
    k = rng.randint(0, 50, size=5000)
    v = rng.randint(0, 1000, size=5000)
    src = pa.table({"k": pa.array(k, pa.int64()),
                    "v": pa.array(v, pa.int64())})
    ds = ray.data.from_arrow(src).repartition(6)
    out = pa.concat_tables(
        ray.get(hash_reduce(ds, ["k"], _make_reduce_fn(),
                            num_partitions=num_partitions).to_arrow_refs()))
    assert _sum_by(out) == _sum_by(src)
    # every key appears exactly once — partitions are disjoint
    assert len(set(out["k"].to_pylist())) == out.num_rows


def test_hash_reduce_multi_key_and_strings(ray_session):
    src = pa.table({
        "a": pa.array(["x", "y", "x", "y", "x"] * 40),
        "b": pa.array([1, 1, 2, 2, 1] * 40, pa.int64()),
        "v": pa.array(list(range(200)), pa.int64())})
    ds = ray.data.from_arrow(src).repartition(5)

    def fn(t):
        if "a" not in t.column_names:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.int64()),
                             "v": pa.array([], pa.int64())})
        g = t.group_by(["a", "b"]).aggregate([("v", "sum")])
        return pa.table({"a": g["a"], "b": g["b"], "v": g["v_sum"]})

    out = pa.concat_tables(
        ray.get(hash_reduce(ds, ["a", "b"], fn).to_arrow_refs()))
    exp = src.group_by(["a", "b"]).aggregate([("v", "sum")])
    got = {(a, b): v for a, b, v in zip(out["a"].to_pylist(),
                                        out["b"].to_pylist(),
                                        out["v"].to_pylist())}
    want = {(a, b): v for a, b, v in zip(exp["a"].to_pylist(),
                                         exp["b"].to_pylist(),
                                         exp["v_sum"].to_pylist())}
    assert got == want


def test_hash_reduce_empty_input(ray_session):
    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                       "v": pa.array([], pa.int64())}))
    out = pa.concat_tables(
        ray.get(hash_reduce(ds, ["k"], _make_reduce_fn()).to_arrow_refs()))
    assert out.num_rows == 0


_AGGS = {"s": ("v", "sum"), "lo": ("v", "min"), "hi": ("v", "max"),
         "n": ("v", "count"), "rows": (None, "count_all"),
         "fs": ("f", "sum"), "smin": ("ks", "min")}


def _agg_src(n=3000, seed=11) -> pa.Table:
    rng = np.random.RandomState(seed)
    ki = rng.randint(0, 40, n)
    ks = np.array([f"s{i}" for i in rng.randint(0, 25, n)], object)
    v = rng.randint(-500, 500, n)
    return pa.table({
        "ki": pa.array(ki, pa.int64(), mask=rng.rand(n) < 0.05),
        "kf": pa.array(rng.randint(0, 30, n) / 4.0, pa.float64()),
        "ks": pa.array(ks, pa.string(), mask=rng.rand(n) < 0.05),
        "v": pa.array(v, pa.int64(), mask=rng.rand(n) < 0.1),
        # integer-valued floats: every summation order is exact
        "f": pa.array(rng.randint(0, 100, n).astype(np.float64)),
    })


def _single_pass(src: pa.Table, keys, aggs) -> pa.Table:
    g = src.group_by(keys).aggregate(
        [([] if c is None else c, f) for c, f in aggs.values()])
    cols = [g[k] for k in keys] + [
        g["count_all" if c is None else f"{c}_{f}"] for c, f in aggs.values()]
    return pa.table(cols, names=list(keys) + list(aggs))


def _rows(t, keys) -> list:
    """A table's (or a list of row dicts') rows, sorted by ``keys``."""
    return sorted(t if isinstance(t, list) else t.to_pylist(),
                  key=lambda r: tuple((r[k] is None, r[k] or 0)
                                      if not isinstance(r[k], str)
                                      else (r[k] is None, r[k]) for k in keys))


@pytest.mark.parametrize("keys", [["ki"], ["kf"], ["ks"], ["ki", "ks"]])
def test_group_agg_matches_single_pass(ray_session, keys):
    """Partial per block, merge per partition == one pass over the whole
    table: int, float, string and two-column keys, null keys as one
    group, sum/min/max/count/count_all (counts int64)."""
    src = _agg_src()
    ds = ray.data.from_arrow(src).repartition(7)
    out = collect(group_agg(ds, keys, _AGGS, num_partitions=5),
                  pa.schema([]))
    exp = _single_pass(src, keys, _AGGS)
    assert out.schema == exp.schema
    assert out.schema.field("n").type == pa.int64()
    assert out.schema.field("rows").type == pa.int64()
    assert _rows(out, keys) == _rows(exp, keys)


def _dict_agg(src: pa.Table, keys, aggs) -> list:
    """Plain-Python grouped aggregate (nulls skipped, all-null sum None)."""
    groups: dict = {}
    for r in src.to_pylist():
        groups.setdefault(tuple(r[k] for k in keys), []).append(r)
    out = []
    for key, rs in groups.items():
        row = dict(zip(keys, key))
        for name, (c, f) in aggs.items():
            vals = [r[c] for r in rs if c is not None and r[c] is not None]
            row[name] = {"sum": lambda: sum(vals) if vals else None,
                         "min": lambda: min(vals, default=None),
                         "max": lambda: max(vals, default=None),
                         "count": lambda: len(vals),
                         "count_all": lambda: len(rs)}[f]()
        out.append(row)
    return out


def test_group_agg_nullable_string_key_first(ray_session):
    """A nullable string key BEFORE an int key: pyarrow 16's own
    ``group_by(["ks", "ki"])`` splits some (ks, ki) groups in two here, so
    the reference is a Python dict.  One row per distinct pair, in the
    caller's key order."""
    src = _agg_src()
    keys = ["ks", "ki"]
    out = collect(group_agg(ray.data.from_arrow(src).repartition(7), keys,
                            _AGGS, num_partitions=5), pa.schema([]))
    want = _dict_agg(src, keys, _AGGS)
    assert out.column_names == keys + list(_AGGS)
    assert out.num_rows == len(want)
    assert _rows(out, keys) == _rows(want, keys)


def test_group_agg_post_runs_per_partition(ray_session):
    src = _agg_src()
    ds = ray.data.from_arrow(src).repartition(4)

    def big(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["rows"], 80)).select(["ki", "rows"])

    out = collect(group_agg(ds, ["ki"], {"rows": (None, "count_all")},
                            num_partitions=3, post=big), pa.schema([]))
    exp = _single_pass(src, ["ki"], {"rows": (None, "count_all")})
    exp = exp.filter(pc.greater(exp["rows"], 80))
    assert _rows(out, ["ki"]) == _rows(exp, ["ki"])


def test_group_agg_empty_and_stale_blocks(ray_session):
    """Zero-row blocks with a stale (pre-map) schema and zero-column
    blocks mix with live ones: the result covers the live rows only, and
    every partition — those with no rows included — comes out typed,
    post-step applied."""
    stale = pa.table({"x": pa.array([], pa.string())})
    live = [pa.table({"k": pa.array([1, 2, 1], pa.int64()),
                      "v": pa.array([1.0, 2.0, 3.0])}),
            pa.table({"k": pa.array([2, 3], pa.int64()),
                      "v": pa.array([4.0, 5.0])}),
            pa.table({"k": pa.array([], pa.int64()),
                      "v": pa.array([], pa.float64())})]
    ds = ray.data.from_arrow_refs(
        [ray.put(stale), ray.put(pa.table({}))] + [ray.put(t) for t in live])

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("tag",
                               pa.array(["p"] * t.num_rows, pa.string()))

    out = group_agg(ds, ["k"], {"s": ("v", "sum"), "m": ("v", "max")},
                    num_partitions=8, post=tag)
    blocks = ray.get(out.materialize().to_arrow_refs())
    want = pa.schema([("k", pa.int64()), ("s", pa.float64()),
                      ("m", pa.float64()), ("tag", pa.string())])
    assert len(blocks) == 8
    assert all(b.schema == want for b in blocks)
    t = pa.concat_tables(blocks).sort_by("k")
    assert t["k"].to_pylist() == [1, 2, 3]
    assert t["s"].to_pylist() == [4.0, 6.0, 5.0]
    assert t["m"].to_pylist() == [3.0, 4.0, 5.0]


@pytest.mark.parametrize("kw", [{"batch_size": None}, {}, {"batch_size": 1}],
                         ids=["None", "default", "1"])
def test_map_batches_never_sees_an_empty_block(ray_session, kw):
    """Ray Data does not call a ``map_batches`` function on a zero-row
    block (stale schema or not) or a zero-column one, whatever the batch
    size, and not at all when every block is empty.  So no function that
    only ``map_batches`` runs (``group_agg``'s partial, the datapipe row
    maps) guards against one; reduces and remote tasks still do."""
    stale = pa.table({"x": pa.array([], pa.string())})
    live = pa.table({"k": pa.array([1, 2, 3], pa.int64())})

    def live_only(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or b.num_columns == 0:
            raise AssertionError(f"called on an empty block: {b.schema}")
        return b

    def never(b: pa.Table) -> pa.Table:
        raise AssertionError("called on an all-empty input")

    for fn, blocks, want in (
            (live_only, [stale, pa.table({}), live], [1, 2, 3]),
            (never, [stale, pa.table({}), stale.slice(0, 0)], [])):
        ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks])
        out = collect(ds.map_batches(fn, batch_format="pyarrow", **kw),
                      live.schema)
        assert sorted(out["k"].to_pylist()) == want


def test_group_agg_empty_input_typed_by_collect(ray_session):
    """No block with a row anywhere: every partition is a zero-column
    block, which collect's fallback schema types."""
    fallback = pa.schema([("k", pa.int64()), ("n", pa.int64())])
    for ds in (ray.data.from_arrow_refs([ray.put(pa.table({"x": pa.array(
                   [], pa.string())})), ray.put(pa.table({}))]),
               ray.data.from_arrow(fallback.empty_table())):
        t = collect(group_agg(ds, ["k"], {"n": (None, "count_all")}),
                    fallback)
        assert t.num_rows == 0 and t.schema == fallback


def test_group_agg_rejects_non_mergeable(ray_session):
    ds = ray.data.from_arrow(pa.table({"k": [1], "v": [1.0]}))
    with pytest.raises(ValueError):
        group_agg(ds, ["k"], {"m": ("v", "mean")})


def test_key_hash_deterministic_and_order_free(ray_session):
    t = pa.table({"k": pa.array([5, 1, 5, 9], pa.int64())})
    h = key_hash(t, ["k"])
    assert h[0] == h[2]                    # same key -> same hash
    t2 = pa.table({"k": pa.array([9, 5], pa.int64())})
    h2 = key_hash(t2, ["k"])
    assert h2[1] == h[0] and h2[0] == h[3]  # row position irrelevant


def _join_case(ray_session, how, exp_rows):
    left = pa.table({"k": pa.array([1, 2, 3, 3], pa.int64()),
                     "x": pa.array(["a", "b", "c", "d"])})
    right = pa.table({"k": pa.array([2, 3, 4], pa.int64()),
                      "y": pa.array([20, 30, 40], pa.int64())})
    out = pa.concat_tables(ray.get(hash_join(
        ray.data.from_arrow(left).repartition(2),
        ray.data.from_arrow(right).repartition(2),
        "k", how=how, num_partitions=3).to_arrow_refs()))
    assert out.column_names == ["k", "x", "y"]
    assert out.num_rows == exp_rows
    return out.sort_by([("k", "ascending"), ("x", "ascending")])


def test_hash_join_inner(ray_session):
    out = _join_case(ray_session, "inner", 3)
    assert out["k"].to_pylist() == [2, 3, 3]
    assert out["x"].to_pylist() == ["b", "c", "d"]
    assert out["y"].to_pylist() == [20, 30, 30]


def test_hash_join_left_outer(ray_session):
    out = _join_case(ray_session, "left outer", 4)
    assert out["k"].to_pylist() == [1, 2, 3, 3]
    assert out["y"].to_pylist() == [None, 20, 30, 30]


def test_hash_join_full_outer(ray_session):
    out = _join_case(ray_session, "full outer", 5)
    assert set(out["k"].to_pylist()) == {1, 2, 3, 4}


def test_hash_join_name_collision_suffix(ray_session):
    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "v": pa.array([10, 20], pa.int64())})
    right = pa.table({"k": pa.array([1, 2], pa.int64()),
                      "v": pa.array([100, 200], pa.int64())})
    out = pa.concat_tables(ray.get(hash_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        "k").to_arrow_refs())).sort_by("k")
    assert out.column_names == ["k", "v", "v_r"]
    assert out["v"].to_pylist() == [10, 20]
    assert out["v_r"].to_pylist() == [100, 200]


def test_hash_join_matches_duckdb_on_random(ray_session):
    import duckdb

    rng = np.random.RandomState(11)
    left = pa.table({"k": pa.array(rng.randint(0, 40, 300), pa.int64()),
                     "x": pa.array(rng.randint(0, 10**6, 300), pa.int64())})
    right = pa.table({"k": pa.array(rng.randint(0, 40, 200), pa.int64()),
                      "y": pa.array(rng.randint(0, 10**6, 200), pa.int64())})
    out = pa.concat_tables(ray.get(hash_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
        "k", num_partitions=5).to_arrow_refs()))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute("SELECT l.k, l.x, r.y FROM l JOIN r USING (k) "
                      "ORDER BY k, x, y").arrow()
    got = out.sort_by([("k", "ascending"), ("x", "ascending"),
                       ("y", "ascending")])
    assert got["k"].to_pylist() == exp["k"].to_pylist()
    assert got["x"].to_pylist() == exp["x"].to_pylist()
    assert got["y"].to_pylist() == exp["y"].to_pylist()


# ---------------------------------------------------------------- skew join

def _skewed_pair(rng, n_left=2000, hot_frac=0.4):
    """Left table where key 7 owns hot_frac of the rows; right is a dim."""
    k = rng.randint(0, 60, n_left)
    k[rng.random(n_left) < hot_frac] = 7
    left = pa.table({"k": pa.array(k, pa.int64()),
                     "x": pa.array(rng.randint(0, 10**6, n_left), pa.int64())})
    right = pa.table({"k": pa.array(np.arange(0, 50), pa.int64()),
                      "name": pa.array([f"dim-{i}" for i in range(50)])})
    return left, right


def test_detect_hot_keys(ray_session):
    from upton_ray.shuffle import detect_hot_keys

    rng = np.random.RandomState(3)
    left, _ = _skewed_pair(rng)
    ds = ray.data.from_arrow(left).repartition(6)
    hot = detect_hot_keys(ds, "k", threshold=0.2)
    assert hot.to_pylist() == [7]
    # uniform input: nothing clears a 20% bar
    uni = pa.table({"k": pa.array(rng.randint(0, 60, 2000), pa.int64())})
    assert len(detect_hot_keys(ray.data.from_arrow(uni).repartition(6),
                               "k", threshold=0.2)) == 0


@pytest.mark.parametrize("how", ["inner", "left outer"])
def test_skew_join_matches_duckdb(ray_session, how):
    import duckdb

    from upton_ray.shuffle import skew_join

    rng = np.random.RandomState(5)
    left, right = _skewed_pair(rng)
    out = pa.concat_tables(ray.get(skew_join(
        ray.data.from_arrow(left).repartition(5),
        ray.data.from_arrow(right).repartition(2),
        "k", how=how, hot_threshold=0.2, num_partitions=4).to_arrow_refs()))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    jt = "JOIN" if how == "inner" else "LEFT JOIN"
    exp = con.execute(
        f"SELECT l.k, l.x, r.name FROM l {jt} r USING (k) "
        "ORDER BY k, x, name NULLS FIRST").arrow()
    got = out.sort_by([("k", "ascending"), ("x", "ascending"),
                       ("name", "ascending")])
    assert got.column_names == ["k", "x", "name"]
    for c in ("k", "x", "name"):
        assert got[c].to_pylist() == exp[c].to_pylist(), (how, c)


def test_skew_join_uniform_falls_back(ray_session):
    import duckdb

    from upton_ray.shuffle import skew_join

    rng = np.random.RandomState(9)
    left = pa.table({"k": pa.array(rng.randint(0, 60, 1000), pa.int64()),
                     "x": pa.array(np.arange(1000), pa.int64())})
    right = pa.table({"k": pa.array(np.arange(0, 60), pa.int64()),
                      "name": pa.array([f"d{i}" for i in range(60)])})
    out = pa.concat_tables(ray.get(skew_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right), "k",
        hot_threshold=0.2).to_arrow_refs()))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute("SELECT count(*) c, sum(l.x) s FROM l JOIN r USING (k)"
                      ).fetchone()
    assert (out.num_rows, pc.sum(out["x"]).as_py()) == exp


def test_skew_join_rejects_right_outer(ray_session):
    from upton_ray.shuffle import skew_join

    t = ray.data.from_arrow(pa.table({"k": pa.array([1], pa.int64())}))
    with pytest.raises(ValueError):
        skew_join(t, t, "k", how="full outer")


def test_hash_join_semi_anti(ray_session):
    left = pa.table({"k": pa.array([1, 2, 3, 3, 4], pa.int64()),
                     "x": pa.array(["a", "b", "c", "d", "e"])})
    right = pa.table({"k": pa.array([2, 3, 3], pa.int64()),
                      "y": pa.array([20, 30, 31], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)
    semi = pa.concat_tables(ray.get(hash_join(
        lds, rds, "k", how="left semi",
        num_partitions=3).to_arrow_refs())).sort_by([
            ("k", "ascending"), ("x", "ascending")])
    assert semi.column_names == ["k", "x"]
    assert semi["x"].to_pylist() == ["b", "c", "d"]   # no dup from 2 matches
    anti = pa.concat_tables(ray.get(hash_join(
        lds, rds, "k", how="left anti",
        num_partitions=3).to_arrow_refs())).sort_by("k")
    assert anti.column_names == ["k", "x"]
    assert anti["x"].to_pylist() == ["a", "e"]


def test_hash_join_with_a_schemaless_empty_side(ray_session):
    """A group_agg over no rows has no schema (zero-column blocks): it
    joins as its key columns.  Semi and anti joins against it keep the
    left rows' columns; a join of two such sides has no row."""
    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "x": pa.array(["a", "b"])})
    lds = ray.data.from_arrow(left)
    none = group_agg(ray.data.from_arrow(pa.table(
        {"k": pa.array([], pa.int64())})), ["k"], {"n": (None, "count_all")})
    assert none.materialize().schema() is None
    semi = collect(hash_join(lds, none, "k", how="left semi"), left.schema)
    assert semi.num_rows == 0
    anti = collect(hash_join(lds, none, "k", how="left anti"), left.schema)
    assert anti.column_names == ["k", "x"]
    assert anti.sort_by("k").to_pylist() == left.to_pylist()
    assert collect(hash_join(none, none, "k"), left.schema).num_rows == 0


def test_grouped_top_n_matches_duckdb(ray_session):
    import duckdb

    from upton_ray.shuffle import grouped_top_n

    rng = np.random.RandomState(13)
    t = pa.table({"g": pa.array(rng.randint(0, 30, 800), pa.int64()),
                  "v": pa.array(rng.randint(0, 50, 800), pa.int64()),
                  "id": pa.array(np.arange(800), pa.int64())})
    out = pa.concat_tables(ray.get(grouped_top_n(
        ray.data.from_arrow(t).repartition(5), ["g"],
        [("v", "descending"), ("id", "ascending")], 3,
        rn_col="rn", num_partitions=4).to_arrow_refs()))
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute("""
        SELECT g, v, id, rn FROM (
            SELECT *, ROW_NUMBER() OVER (
                PARTITION BY g ORDER BY v DESC, id) AS rn FROM t)
        WHERE rn <= 3 ORDER BY g, rn""").arrow()
    got = out.sort_by([("g", "ascending"), ("rn", "ascending")])
    for c in ("g", "v", "id", "rn"):
        assert got[c].to_pylist() == exp[c].to_pylist(), c


def test_grouped_top_n_empty_and_stale_blocks(ray_session):
    """4 groups over 8 partitions, mixed with zero-row, stale-schema and
    zero-column input blocks: every output block is typed, rank int64, and
    the rows are the live rows' top 2 per group.  An input with no rows
    yields zero-column blocks, which collect's fallback schema types."""
    from upton_ray.shuffle import grouped_top_n

    stale = pa.table({"x": pa.array([], pa.string())})   # pre-map schema
    live = pa.table({"g": pa.array([0, 1, 2, 3, 0, 1, 2, 0], pa.int64()),
                     "v": pa.array([5., 4., 3., 2., 9., 1., 7., 5.]),
                     "id": pa.array(np.arange(8), pa.int64())})
    ds = ray.data.from_arrow_refs(
        [ray.put(stale), ray.put(pa.table({})), ray.put(live.slice(0, 3)),
         ray.put(live.slice(0, 0)), ray.put(live.slice(3))])
    keys = [("v", "descending"), ("id", "ascending")]
    out = grouped_top_n(ds, ["g"], keys, 2, rn_col="rank", num_partitions=8)
    blocks = ray.get(out.materialize().to_arrow_refs())
    want = live.schema.append(pa.field("rank", pa.int64()))
    assert len(blocks) == 8
    assert all(b.schema == want for b in blocks)
    got = pa.concat_tables(blocks).sort_by([("g", "ascending"),
                                            ("rank", "ascending")])
    assert list(zip(got["g"].to_pylist(), got["id"].to_pylist(),
                    got["rank"].to_pylist())) == [
        (0, 4, 1), (0, 0, 2), (1, 1, 1), (1, 5, 2), (2, 6, 1), (2, 2, 2),
        (3, 3, 1)]

    for empty in (ray.data.from_arrow_refs([ray.put(stale),
                                            ray.put(pa.table({}))]),
                  ray.data.from_arrow(live.slice(0, 0))):
        out = grouped_top_n(empty, ["g"], keys, 2, rn_col="rank")
        blocks = ray.get(out.materialize().to_arrow_refs())
        assert all(b.num_columns == 0 or b.schema == want for b in blocks)
        t = collect(out, want)
        assert t.num_rows == 0 and t.schema == want


def test_grouped_top_n_string_groups_and_small_groups(ray_session):
    from upton_ray.shuffle import grouped_top_n

    t = pa.table({"g": pa.array(["a", "a", "b", "c", "c", "c"]),
                  "v": pa.array([5, 9, 1, 3, 2, 8], pa.int64())})
    out = pa.concat_tables(ray.get(grouped_top_n(
        ray.data.from_arrow(t).repartition(3), ["g"],
        [("v", "descending")], 2, rn_col="rn").to_arrow_refs()))
    got = {(g, rn): v for g, v, rn in zip(out["g"].to_pylist(),
                                          out["v"].to_pylist(),
                                          out["rn"].to_pylist())}
    assert got == {("a", 1): 9, ("a", 2): 5, ("b", 1): 1,
                   ("c", 1): 8, ("c", 2): 3}


# ------------------------------------------------------- co-bucketed layout

def test_write_bucketed_layout_and_join(ray_session, tmp_path):
    import os

    import duckdb

    from upton_ray.shuffle import bucketed_join, key_hash, write_bucketed

    rng = np.random.RandomState(21)
    left = pa.table({"k": pa.array(rng.randint(0, 100, 1200), pa.int64()),
                     "x": pa.array(rng.randint(0, 10**6, 1200), pa.int64())})
    right = pa.table({"k": pa.array(rng.randint(0, 100, 400), pa.int64()),
                      "y": pa.array(rng.randint(0, 10**6, 400), pa.int64())})
    B = 8
    pl, pr = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(ray.data.from_arrow(left).repartition(4), ["k"], pl, B)
    write_bucketed(ray.data.from_arrow(right).repartition(3), ["k"], pr, B)

    # layout: every bucket dir holds only rows whose key hashes to it
    import pyarrow.parquet as pq
    seen_rows = 0
    for i in range(B):
        d = os.path.join(pl, f"__bucket={i}")
        if not os.path.isdir(d):
            continue
        t = pq.read_table(d, columns=["k"])
        seen_rows += t.num_rows
        h = key_hash(t, ["k"]) % np.uint64(B)
        assert (h == i).all(), i
    assert seen_rows == left.num_rows

    out = pa.concat_tables(ray.get(bucketed_join(
        pl, pr, "k", num_buckets=B).to_arrow_refs()))
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.execute("SELECT l.k, l.x, r.y FROM l JOIN r USING (k) "
                      "ORDER BY k, x, y").arrow()
    got = out.sort_by([("k", "ascending"), ("x", "ascending"),
                       ("y", "ascending")])
    for c in ("k", "x", "y"):
        assert got[c].to_pylist() == exp[c].to_pylist(), c


def test_bucketed_join_left_outer_with_empty_bucket(ray_session, tmp_path):
    from upton_ray.shuffle import bucketed_join, write_bucketed

    left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "x": pa.array(["a", "b", "c"])})
    right = pa.table({"k": pa.array([2], pa.int64()),
                      "y": pa.array([20], pa.int64())})
    B = 16   # most buckets empty on both sides
    pl, pr = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(ray.data.from_arrow(left), ["k"], pl, B)
    write_bucketed(ray.data.from_arrow(right), ["k"], pr, B)
    out = pa.concat_tables(ray.get(bucketed_join(
        pl, pr, "k", how="left outer",
        num_buckets=B).to_arrow_refs())).sort_by("k")
    assert out["k"].to_pylist() == [1, 2, 3]
    assert out["y"].to_pylist() == [None, 20, None]


def test_hash_join_null_keys_sql_semantics(ray_session):
    """SQL semantics: NULL keys never match (inner drops them; left outer
    keeps the left rows unmatched) — and the hash ROUTING of null keys
    must not lose rows."""
    left = pa.table({"k": pa.array([1, None, 2, None], pa.int64()),
                     "x": pa.array(["a", "b", "c", "d"])})
    right = pa.table({"k": pa.array([None, 2], pa.int64()),
                      "y": pa.array([99, 20], pa.int64())})
    lds = ray.data.from_arrow(left).repartition(2)
    rds = ray.data.from_arrow(right).repartition(2)
    inner = pa.concat_tables(ray.get(hash_join(
        lds, rds, "k", num_partitions=3).to_arrow_refs()))
    assert inner.num_rows == 1
    assert inner["x"].to_pylist() == ["c"]
    lo = pa.concat_tables(ray.get(hash_join(
        lds, rds, "k", how="left outer",
        num_partitions=3).to_arrow_refs()))
    assert lo.num_rows == 4
    got = {x: (k, y) for k, x, y in zip(lo["k"].to_pylist(),
                                        lo["x"].to_pylist(),
                                        lo["y"].to_pylist())}
    assert got == {"a": (1, None), "b": (None, None),
                   "c": (2, 20), "d": (None, None)}


def test_grouped_top_n_null_groups(ray_session):
    """SQL PARTITION BY semantics: all NULL group keys form ONE group."""
    import duckdb

    from upton_ray.shuffle import grouped_top_n

    t = pa.table({"g": pa.array([1, None, 1, None, None, 2], pa.int64()),
                  "v": pa.array([5, 9, 7, 3, 8, 1], pa.int64())})
    out = pa.concat_tables(ray.get(grouped_top_n(
        ray.data.from_arrow(t).repartition(3), ["g"],
        [("v", "descending")], 2, rn_col="rn",
        num_partitions=3).to_arrow_refs()))
    con = duckdb.connect()
    con.register("t", t)
    exp = con.execute("""
        SELECT g, v, rn FROM (SELECT *, ROW_NUMBER() OVER (
            PARTITION BY g ORDER BY v DESC) AS rn FROM t)
        WHERE rn <= 2 ORDER BY g NULLS FIRST, rn""").arrow()
    got = out.sort_by([("g", "ascending"), ("rn", "ascending")])
    # align null-first ordering
    gotl = sorted(zip(got["g"].to_pylist(), got["v"].to_pylist(),
                      got["rn"].to_pylist()),
                  key=lambda r: (r[0] is not None, r[0], r[2]))
    expl = list(zip(exp["g"].to_pylist(), exp["v"].to_pylist(),
                    exp["rn"].to_pylist()))
    assert gotl == expl


@pytest.mark.parametrize("how,nrows", [("inner", 3), ("left outer", 5),
                                       ("left semi", 3), ("left anti", 2)])
def test_broadcast_join(ray_session, how, nrows):
    from upton_ray.shuffle import broadcast_join

    left = pa.table({"k": pa.array([1, 2, 3, 3, 4], pa.int64()),
                     "v": pa.array([10, 20, 30, 31, 40], pa.int64())})
    right = pa.table({"k": pa.array([2, 3], pa.int64()),
                      "v": pa.array([200, 300], pa.int64())})
    out = pa.concat_tables(ray.get(broadcast_join(
        ray.data.from_arrow(left).repartition(3), right, "k",
        how=how).to_arrow_refs()))
    assert out.num_rows == nrows
    if how == "inner":
        s = out.sort_by([("k", "ascending"), ("v", "ascending")])
        assert s.column_names == ["k", "v", "v_r"]
        assert s["v_r"].to_pylist() == [200, 300, 300]
    if how == "left anti":
        assert sorted(out["k"].to_pylist()) == [1, 4]
        assert out.column_names == ["k", "v"]
    with pytest.raises(ValueError):
        broadcast_join(ray.data.from_arrow(left), right, "k",
                       how="full outer")


def test_bucketed_lookup_prunes_reads(ray_session, tmp_path):
    """Point lookup touches ONLY the requested keys' bucket dirs — proven
    behaviorally: deleting every other bucket directory changes nothing."""
    import os
    import shutil

    from upton_ray.shuffle import bucketed_lookup, key_hash, write_bucketed

    rng = np.random.RandomState(31)
    t = pa.table({"k": pa.array(np.arange(500), pa.int64()),
                  "x": pa.array(rng.randint(0, 10**6, 500), pa.int64())})
    B = 16
    p = str(tmp_path / "t")
    write_bucketed(ray.data.from_arrow(t).repartition(4), ["k"], p, B)

    want = pa.table({"k": pa.array([3, 77, 431], pa.int64())})
    out1 = pa.concat_tables(ray.get(bucketed_lookup(
        p, ["k"], want, B).to_arrow_refs())).sort_by("k")
    assert out1["k"].to_pylist() == [3, 77, 431]
    exp = {k: x for k, x in zip(t["k"].to_pylist(), t["x"].to_pylist())}
    assert out1["x"].to_pylist() == [exp[3], exp[77], exp[431]]

    needed = set((key_hash(want, ["k"]) % np.uint64(B)).astype(int))
    for i in range(B):
        if i not in needed:
            shutil.rmtree(os.path.join(p, f"__bucket={i}"),
                          ignore_errors=True)
    out2 = pa.concat_tables(ray.get(bucketed_lookup(
        p, ["k"], want, B).to_arrow_refs())).sort_by("k")
    assert out2.equals(out1)


def test_hash_reduce_coalesces_many_blocks(ray_session):
    """With more blocks than max_split_tasks, blocks are pre-coalesced in
    concat tasks — result identical, far fewer split tasks."""
    rng = np.random.RandomState(17)
    src = pa.table({"k": pa.array(rng.randint(0, 40, 3000), pa.int64()),
                    "v": pa.array(rng.randint(0, 100, 3000), pa.int64())})
    ds = ray.data.from_arrow(src).repartition(24)
    out = pa.concat_tables(
        ray.get(hash_reduce(ds, ["k"], _make_reduce_fn(),
                            num_partitions=4,
                            max_split_tasks=3).to_arrow_refs()))
    assert _sum_by(out) == _sum_by(src)
    assert len(set(out["k"].to_pylist())) == out.num_rows


def test_exchange_block_count_slice_sizing():
    """Exchange block counts keep B x P slices ~1 MB (above Ray's direct-call
    inline threshold: smaller slices land in the DRIVER's in-process store)
    while each coalesced block stays under the worker bound."""
    from upton_ray.shuffle import (_exchange_block_count, _MAX_BLOCK_BYTES,
                                   _SLICE_TARGET_BYTES)

    # tiny dataset: single block
    assert _exchange_block_count(10_000, 8, 1024) == 1
    assert _exchange_block_count(0, 8, 1024) == 1

    # the measured 10M-doc shape: ~520 MB of payload-bearing pairs at P=80
    # previously split into 80x80 ~80 KB slices -> must now target ~1 MB
    B = _exchange_block_count(520_000_000, 80, 1024)
    assert 520_000_000 / (B * 80) >= _SLICE_TARGET_BYTES / 2
    assert 520_000_000 / B <= _MAX_BLOCK_BYTES

    # block never exceeds the worker bound even when slices would be huge
    B = _exchange_block_count(10 * _MAX_BLOCK_BYTES, 2, 1024)
    assert 10 * _MAX_BLOCK_BYTES / B <= _MAX_BLOCK_BYTES

    # respects the task cap
    assert _exchange_block_count(10**14, 512, 1024) == 1024


def test_hash_reduce_auto_partitions(ray_session):
    """num_partitions=None scales with input bytes (floor 8) and gives the
    same results as the fixed default."""
    import ray.data
    from upton_ray.shuffle import hash_reduce

    t = pa.table({"k": pa.array(list(range(100)) * 20, pa.int64()),
                  "v": pa.array(range(2000), pa.int64())})

    def agg(part: pa.Table) -> pa.Table:
        g = part.group_by("k").aggregate([("v", "sum")])
        return pa.table({"k": g["k"], "s": g["v_sum"]})

    ds = ray.data.from_arrow(t).repartition(4)
    fixed = hash_reduce(ds, ["k"], agg).to_pandas()
    auto = hash_reduce(ds, ["k"], agg, num_partitions=None).to_pandas()
    f = fixed.sort_values("k").reset_index(drop=True)
    a = auto.sort_values("k").reset_index(drop=True)
    assert f.equals(a)
    assert len(f) == 100


def _scan_fn():
    def fn(t: pa.Table, base: int, total: int, tag: str) -> pa.Table:
        import numpy as np
        import pyarrow as pa
        if "i" not in t.column_names:
            raise AssertionError("block_scan passed a schema-less block")
        w = t["w"].to_numpy()
        n = t.num_rows
        return pa.table({
            "i": t["i"],
            "rank": pa.array(base + np.arange(n), pa.int64()),
            "run": pa.array(base + np.cumsum(w) - w, pa.int64()),
            "total": pa.array(np.full(n, total), pa.int64()),
            "tag": pa.array([tag] * n, pa.string())})
    return fn


def test_block_scan_matches_cumsum(ray_session, tmp_path):
    rng = np.random.RandomState(3)
    blocks, start = [], 0
    for n in [5, 0, 7, 0, 1, 4]:
        blocks.append(pa.table({
            "i": pa.array(np.arange(start, start + n), pa.int64()),
            "w": pa.array(rng.randint(0, 9, n), pa.int64())}))
        start += n
    blocks.insert(2, pa.table({}))              # schema-less empty block
    ds = ray.data.from_arrow_refs([ray.put(b) for b in blocks])
    src = pa.concat_tables([b for b in blocks if b.num_columns])
    w = src["w"].to_numpy()

    for weight, want, total in ((None, np.arange(len(w)), len(w)),
                                ("w", np.cumsum(w) - w, int(w.sum()))):
        refs = block_scan(ds, _scan_fn(), "x", weight=weight).to_arrow_refs()
        assert len(refs) == 4       # fn ran once per non-empty block
        out = pa.concat_tables(ray.get(refs))
        assert out["i"].to_pylist() == src["i"].to_pylist()
        col = "rank" if weight is None else "run"
        assert out[col].to_pylist() == want.tolist()
        assert set(out["total"].to_pylist()) == {total}
        assert set(out["tag"].to_pylist()) == {"x"}


def test_block_scan_empty_input(ray_session, tmp_path):
    typed = pa.table({"i": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64())})
    pq.write_table(typed, tmp_path / "empty.parquet")
    out_names = ["i", "rank", "run", "total", "tag"]
    # a zero-row block that kept its columns, and a sort of an empty read
    # (which drops them: the type then comes from the plan)
    for ds in (ray.data.from_arrow(typed),
               ray.data.read_parquet(str(tmp_path / "empty.parquet"))
               .sort("i")):
        out = block_scan(ds, _scan_fn(), "x", weight="w").materialize()
        assert out.count() == 0
        assert out.schema().names == out_names
    none = block_scan(ray.data.from_arrow_refs([ray.put(pa.table({}))]),
                      _scan_fn(), "x").materialize()
    assert none.count() == 0
