"""The driver collect: every Dataset reaches the driver through
``shuffle.collect`` / ``shuffle.block_refs``, which run its plan once.

- static: ``to_arrow_refs`` is referenced only in ``upton_ray/shuffle.py``
  (a bare ``to_arrow_refs`` on a plan that has not run executes it, then
  starts it again for the schema and cancels that run mid-task), and
  ``take_all`` and ``take_batch`` nowhere in ``upton_ray/`` (the leading
  embedding rows are one parquet read, ``datapipe._emb_head``);
- runtime: no ``to_arrow_refs`` call on an unexecuted plan while a sample
  of driver-collecting operators runs, and no limit-1 execution (a lazy
  schema read, a Dataset-level aggregate, a one-row take) in the joins and
  the global folds;
- the collect rule itself: blocks with no columns or no rows are dropped,
  the rest concatenate with permissive promotion, an empty result is
  typed by the fallback schema;
- the ANN top-k ops merge their per-block candidates remotely: the
  largest table one of them collects is queries x k rows, whatever the
  block count;
- ``incremental_profile`` refuses its node-local default cache on a
  multi-node cluster;
- the crawl modules start no actor class of their own: ``engine.py``,
  ``fetch.py``, ``frontier.py`` and ``sitemap.py`` define no
  ``@ray.remote`` class (the crawl's only actors are its seen shards).
"""

import ast
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from tests.test_round5f_ops import SF
from upton_ray import datapipe
from upton_ray.shuffle import collect

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "upton_ray")


def _attr_users(attr: str) -> set:
    users = set()
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name)) as f:
            tree = ast.parse(f.read())
        if any(isinstance(n, ast.Attribute) and n.attr == attr
               for n in ast.walk(tree)):
            users.add(name)
    return users


def test_to_arrow_refs_only_in_shuffle():
    assert _attr_users("to_arrow_refs") == {"shuffle.py"}


def test_no_take_all_in_package():
    assert _attr_users("take_all") == set()
    assert _attr_users("take_batch") == set()


def _is_ray_remote(dec) -> bool:
    fn = dec.func if isinstance(dec, ast.Call) else dec
    return isinstance(fn, ast.Attribute) and fn.attr == "remote" \
        and getattr(fn.value, "id", None) == "ray"


def test_crawl_modules_define_no_actor_class():
    actors = []
    for name in ("engine.py", "fetch.py", "frontier.py", "sitemap.py"):
        with open(os.path.join(PKG, name)) as f:
            tree = ast.parse(f.read())
        actors += [f"{name}:{n.name}" for n in ast.walk(tree)
                   if isinstance(n, ast.ClassDef)
                   and any(map(_is_ray_remote, n.decorator_list))]
    assert actors == []


def _calls(tree, skip: str):
    """The Call nodes of ``tree`` outside the function named ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_shingles_only_from_the_kernel():
    """Shingle sets come only from ``datapipe._shingle_rows`` and tokens
    only from ``datapipe._split``: nothing in ``upton_ray/`` calls
    ``shingles`` (the scalar reference the tests compare with) outside its
    own definition, and ``datapipe.py`` makes no whitespace ``.split()``
    of a Python string."""
    shingle_users, splits = set(), []
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PKG, name)) as f:
            tree = ast.parse(f.read())
        for call in _calls(tree, "shingles"):
            fn = call.func
            callee = fn.attr if isinstance(fn, ast.Attribute) \
                else getattr(fn, "id", None)
            if callee == "shingles":
                shingle_users.add(name)
            if (name == "datapipe.py" and callee == "split"
                    and not call.args and not call.keywords):
                splits.append(call.lineno)
    assert shingle_users == set()
    assert splits == []


def test_collect_drops_empty_blocks_and_types_empty_result(ray_session):
    import ray

    stale = pa.table({"x": pa.array([], pa.string())})   # pre-map schema
    ds = ray.data.from_arrow_refs([
        ray.put(stale), ray.put(pa.table({})),
        ray.put(pa.table({"x": pa.array([1, 2], pa.int32())})),
        ray.put(pa.table({"x": pa.array([3], pa.int64())}))])
    t = collect(ds, pa.schema([("x", pa.int64())]))
    assert t.schema == pa.schema([("x", pa.int64())])
    assert t["x"].to_pylist() == [1, 2, 3]

    fallback = pa.schema([("x", pa.int64()), ("y", pa.string())])
    empty = ray.data.from_arrow_refs([ray.put(stale), ray.put(pa.table({}))])
    t = collect(empty, fallback)
    assert t.num_rows == 0 and t.schema == fallback


@pytest.mark.parametrize("op", [
    "embedding_quantize", "snapshot_dedup", "ann_topk",
    "approx_distinct_users", "distinct_by_type", "sample_stratified"])
def test_no_collect_on_unexecuted_plan(ray_session, monkeypatch, op):
    from ray.data import Dataset
    from ray.data.dataset import MaterializedDataset

    lazy = []
    real = Dataset.to_arrow_refs

    def spy(self, *a, **kw):
        if not isinstance(self, MaterializedDataset) \
                and not self._plan.has_computed_output():
            lazy.append(str(self))
        return real(self, *a, **kw)

    monkeypatch.setattr(Dataset, "to_arrow_refs", spy)
    out = getattr(datapipe, op)(SF)
    if not isinstance(out, pa.Table):
        out = collect(out, pa.schema([]))
    assert out.num_rows > 0
    assert lazy == []


@pytest.mark.parametrize("op,sf", [
    ("customer_orders_join", SF), ("user_events_join", SF),
    ("nation_revenue", SF), ("time_decay_score", SF), ("dsir_select", SF),
    ("hits_scores", SF), ("sample_stratified", SF),
    # sf0.01 has candidate pairs (none verifies), so the verify and its
    # width read run; sf0.001 has none
    ("embedding_dedup_lsh", "/root/testdata/sf0.01")])
def test_no_limit_one_execution(ray_session, monkeypatch, op, sf):
    """Each of these runs a LimitOperator[limit=1] execution of its own:
    ``schema()`` on an unexecuted plan (the joins' schema reads), a
    Dataset-level ``min``/``max``/``sum`` (an aggregate and a limit-1
    fetch) and a one-row ``take_batch``.  None may happen."""
    from ray.data import Dataset
    from ray.data.dataset import MaterializedDataset

    seen = []

    def lazy(ds):
        return not isinstance(ds, MaterializedDataset) \
            and not ds._plan.has_computed_output()

    real_schema, real_agg = Dataset.schema, Dataset.aggregate
    real_take = Dataset.take_batch

    def schema(self, *a, **kw):
        if lazy(self):
            seen.append(("schema", str(self)))
        return real_schema(self, *a, **kw)

    def aggregate(self, *a, **kw):
        seen.append(("aggregate", str(self)))
        return real_agg(self, *a, **kw)

    def take_batch(self, batch_size=20, *a, **kw):
        if batch_size == 1:
            seen.append(("take_batch(1)", str(self)))
        return real_take(self, batch_size, *a, **kw)

    monkeypatch.setattr(Dataset, "schema", schema)
    monkeypatch.setattr(Dataset, "aggregate", aggregate)
    monkeypatch.setattr(Dataset, "take_batch", take_batch)
    out = getattr(datapipe, op)(sf)
    if not isinstance(out, pa.Table):
        collect(out, pa.schema([]))
    assert seen == []


@pytest.fixture(scope="module")
def emb_parts(tmp_path_factory):
    """An embeddings.parquet DIRECTORY of 8 part files of 4096 rows: 8
    read blocks, each one 4096-row ANN batch."""
    d = tmp_path_factory.mktemp("parts") / "embeddings.parquet"
    d.mkdir()
    rng = np.random.RandomState(3)
    for i in range(8):
        pq.write_table(pa.table({
            "vec_id": pa.array(np.arange(i * 4096, (i + 1) * 4096),
                               pa.int64()),
            "embedding": pa.array(rng.randn(4096, 16).tolist(),
                                  pa.list_(pa.float32()))}),
            d / f"part-{i}.parquet")
    return str(d.parent)


@pytest.mark.parametrize("op,kw,bound", [
    ("ann_topk", {}, 10), ("ann_ivf", {"nprobe": 8}, 10),
    ("ann_pq", {}, 10), ("ann_pq_rerank", {"k_prime": 20}, 20),
    ("ann_lsh", {"n_bands": 2, "band_bits": 6, "n_flip": 6}, 10),
    ("rrf_fuse", {"k_each": 10}, 10)])
def test_ann_collects_queries_times_k(ray_session, monkeypatch, emb_parts,
                                      op, kw, bound):
    """The per-block candidates meet on a remote query-keyed top-k, so no
    collect holds more than n_queries x k rows (8 x that before)."""
    sizes = []

    def spy(ds, fallback_schema):
        t = collect(ds, fallback_schema)
        sizes.append(t.num_rows)
        return t

    monkeypatch.setattr(datapipe, "collect", spy)
    out = getattr(datapipe, op)(emb_parts, n_queries=4, **kw)
    assert out.num_rows == 40
    assert sizes and max(sizes) <= 4 * bound, sizes


@pytest.mark.parametrize("n", [0, 4, 5000, 9000, 40000])
def test_emb_head_is_take_batch(ray_session, monkeypatch, emb_parts, n):
    """The leading rows of an 8-file directory, across file boundaries
    and past the end, as the Ray plan's ``take_batch`` returns them when
    it keeps block order (without ``preserve_order`` a later file's block
    can come first)."""
    import ray

    monkeypatch.setattr(ray.data.DataContext.get_current().execution_options,
                        "preserve_order", True)
    got = datapipe._emb_head(emb_parts, n)
    want = datapipe._emb(emb_parts).take_batch(n, batch_format="pyarrow") \
        if n else got.slice(0, 0)
    assert got.num_rows == min(n, 8 * 4096)
    assert got.equals(want)


def test_column_agg_matches_pyarrow(ray_session):
    import ray

    from upton_ray.shuffle import column_agg

    t = pa.table({"v": pa.array([3.5, -1.0, None, 7.25], pa.float64()),
                  "s": pa.array(["b", "a", None, "c"], pa.string())})
    ds = ray.data.from_arrow_refs([ray.put(t.slice(0, 2)),
                                   ray.put(t.slice(2, 0)),
                                   ray.put(pa.table({})),
                                   ray.put(t.slice(2, 2))])
    assert column_agg(ds, "v", "sum", pa.float64()) == 9.75
    assert column_agg(ds, "v", "max", pa.float64()) == 7.25
    assert column_agg(ds, "s", "min", pa.string()) == "a"
    empty = ray.data.from_arrow_refs([ray.put(t.slice(0, 0))])
    assert column_agg(empty, "v", "max", pa.float64()) is None


def test_incremental_profile_default_cache_refused_multi_node(
        ray_session, monkeypatch, tmp_path):
    import ray

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "source": pa.array(["a", "b"], pa.string()),
        "n_chars": pa.array([3, 4], pa.int64())}),
        tmp_path / "documents.parquet")
    monkeypatch.setattr(ray, "nodes", lambda: [
        {"NodeID": "a", "Alive": True}, {"NodeID": "b", "Alive": True},
        {"NodeID": "c", "Alive": False}])
    with pytest.raises(ValueError, match="cache_dir"):
        datapipe.incremental_profile(str(tmp_path))
    # an explicit (shared) cache_dir is the supported multi-node setup
    out = datapipe.incremental_profile(str(tmp_path),
                                       cache_dir=str(tmp_path / "cache"))
    assert out["n"].to_pylist() == [2, 2, 2]
