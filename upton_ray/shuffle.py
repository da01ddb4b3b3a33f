"""Manual hash-partitioned exchange primitives: :func:`hash_reduce` (the
engine's lightweight alternative to ``Dataset.groupby``), the grouped
aggregate :func:`group_agg` on it, and the operator family built on them —
:func:`hash_join` (large-large equi-join, inner/outer/semi/anti),
:func:`skew_join` (hot keys broadcast map-side, cold keys shuffled),
:func:`grouped_top_n` (distributed ROW_NUMBER window),
:func:`detect_hot_keys` — plus :func:`block_scan`, the exclusive prefix
scan over a sorted Dataset's blocks that every global rank / running-sum
window op uses — and :func:`collect` / :func:`block_refs`, the only two
ways a Dataset's blocks reach the driver: both run the plan exactly once.

``Dataset.groupby`` (hash or sort strategy alike) carries a large fixed cost
per operation: measured on this sandbox (238k-row 8-block table, 32 cpus),
``groupby().sum()`` costs 4.3-5.5 s where the same all-to-all exchange done
as plain Ray tasks costs 0.07 s.  So the policy is:

- a keyed sum / count / min / max over BOUNDED keys (one row per key per
  block after the partial — terms, hosts, windows, sources) is a
  :func:`group_agg`: the per-block partial and the merge of the partials
  live there once, with the empty-partition rule;
- a keyed top-k or group-local rank is a :func:`grouped_top_n` (per-block
  cut, one co-partition, exact rank there), or its per-table cut
  :func:`_first_n_per_group` inside a reduce that already holds whole
  groups;
- any other reduce whose input is already partial-aggregated or fits a
  partition (joins, pair expansion, verifiers) is a :func:`hash_reduce`
  with its own reduce function;
- corpus-keyed shuffles whose partitions may not fit a worker (exact dedup
  over raw fingerprints) stay on ``Dataset.groupby``'s external machinery
  on purpose.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_HASH_COMBINE = np.uint64(0x100000001B3)        # FNV prime; any odd mixer


def key_hash(t: pa.Table, key_cols) -> np.ndarray:
    """Deterministic uint64 partitioning hash over one or more key columns
    (SipHash per column via pd.util.hash_array, mixed).  Only used to ROUTE
    rows — different keys landing in one partition are re-separated by the
    reduce's own group_by, so mixer collisions cannot affect results.

    Null keys are filled with the type's zero BEFORE hashing: without
    this, an int64 block containing any null converts to float64 while a
    null-free block stays int64, and ``hash_array`` hashes 2 and 2.0
    differently — the same key would route to different partitions
    depending on its block's null content (nulls never MATCH anyway —
    the local joins keep SQL semantics — they only need a consistent
    routing home)."""
    h = None
    for name in key_cols:
        c = t[name]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if c.null_count:
            if pa.types.is_integer(c.type) or pa.types.is_floating(c.type):
                c = pc.fill_null(c, 0)
            elif pa.types.is_boolean(c.type):
                c = pc.fill_null(c, False)
            elif (pa.types.is_string(c.type)
                  or pa.types.is_large_string(c.type)):
                c = pc.fill_null(c, "")
        hc = pd.util.hash_array(
            c.to_numpy(zero_copy_only=False), categorize=False)
        h = hc if h is None else (h * _HASH_COMBINE) ^ hc
    return h


def block_refs(ds, nonempty: bool = False) -> list:
    """Object refs of a Dataset's Arrow blocks, for callers that hand them
    to remote tasks.  Materializes first: on a plan that has not run,
    ``to_arrow_refs`` runs it, then starts it a second time for the schema
    and cancels that run mid-task — which can trip a Ray CHECK abort.
    With ``nonempty``, blocks that the block metadata gives no rows are
    left out (nothing is fetched to tell)."""
    mds = ds.materialize()
    refs = mds.to_arrow_refs()
    if not nonempty:
        return refs
    rows = [m.num_rows for bundle in mds.iter_internal_ref_bundles()
            for _, m in bundle.blocks]
    return [r for r, n in zip(refs, rows) if n != 0]


def collect(ds, fallback_schema: pa.Schema) -> pa.Table:
    """The driver collect: run ``ds``'s plan once and concatenate its
    blocks into one Arrow table.  Blocks with no columns (an empty
    exchange partition) or no rows (which may carry a stale pre-map
    schema) are dropped, the rest are concatenated with permissive type
    promotion, and a Dataset with no rows yields
    ``fallback_schema.empty_table()``, so an empty result is always typed."""
    tables = [t for t in ray.get(block_refs(ds))
              if t.num_columns > 0 and t.num_rows > 0]
    if not tables:
        return fallback_schema.empty_table()
    return pa.concat_tables(tables, promote_options="permissive")


def column_agg(ds, col: str, how: str, type_: pa.DataType):
    """Global ``min``, ``max`` or ``sum`` (``how``) of one column: each
    block folds to one row in a map pass and the driver folds those
    (:func:`collect`).  ``Dataset.min/max/sum`` instead run an all-to-all
    aggregate under a ``LimitOperator[limit=1]`` that fetches its one row.
    None when the column holds no value."""
    fold = getattr(pc, how)

    def part(b: pa.Table) -> pa.Table:
        return pa.table({col: pa.array([fold(b[col]).as_py()], type_)})

    rows = collect(ds.map_batches(part, batch_format="pyarrow",
                                  batch_size=None), pa.schema([(col, type_)]))
    return fold(rows[col]).as_py()


def split_by(t: pa.Table, part: np.ndarray, P: int) -> tuple:
    """Slice ``t`` into P tables by ``part`` (one int per row, in
    ``[0, P)``): one stable argsort, P zero-copy slices, rows in their
    input order within each slice."""
    idx = np.argsort(part, kind="stable")
    srt = t.take(pa.array(idx, pa.int64()))
    bounds = np.searchsorted(part[idx], np.arange(P + 1))
    return tuple(srt.slice(bounds[i], bounds[i + 1] - bounds[i])
                 for i in range(P))


@ray.remote
def _hash_split(t: pa.Table, key_cols, P: int):
    """Slice one block into P hash partitions (:func:`split_by`)."""
    if P == 1:      # num_returns=1: return the bare block, not a 1-tuple
        return t
    if t.num_rows == 0:
        return tuple(t for _ in range(P))
    return split_by(t, (key_hash(t, key_cols) % np.uint64(P)).astype(np.int64),
                    P)


@ray.remote
def _hash_reduce_part(fn, *tabs):
    # a dataset that materializes to ZERO blocks gives every reduce task
    # an empty tabs tuple — emit a zero-column table (downstream consumers
    # already skip those) instead of crashing on tabs[0]
    if not tabs:
        return pa.table({})
    # empty upstream blocks can carry a stale (pre-map) schema — drop them;
    # if the whole partition is empty, reduce any non-zero-column table so
    # fn still sees the real column set
    live = [t for t in tabs if t.num_rows > 0]
    if not live:
        live = [next((t for t in tabs if t.num_columns > 0), tabs[0])]
    return fn(pa.concat_tables(live))


# target bytes of one reduce partition when num_partitions=None (auto)
_REDUCE_PARTITION_BYTES = 128 * 1024 * 1024


def _exchange(ds, key_cols, part, args, num_partitions: int | None,
              max_split_tasks: int) -> list:
    """The all-to-all under :func:`hash_reduce`, :func:`group_agg` and
    :func:`hash_partition_refs`: every input block is split by key-hash
    into P slices (one task per block), then remote ``part(*args,
    *slices)`` runs once per partition over that partition's slices, in
    block order.  Returns the P output refs."""
    mat = ds.materialize()
    if num_partitions is None:
        num_partitions = int(min(512, max(
            8, mat.size_bytes() // _REDUCE_PARTITION_BYTES)))
    refs = _coalesce_refs(mat.to_arrow_refs(), min(
        max_split_tasks,
        _exchange_block_count(mat.size_bytes(), num_partitions,
                              max_split_tasks)))
    splits = [_hash_split.options(num_returns=num_partitions)
              .remote(r, list(key_cols), num_partitions) for r in refs]
    if num_partitions == 1:     # num_returns=1 yields a bare ref
        splits = [[s] for s in splits]
    return [part.remote(*args, *[s[i] for s in splits])
            for i in range(num_partitions)]


def hash_reduce(ds, key_cols, reduce_fn, num_partitions: int | None = 8,
                max_split_tasks: int = 1024):
    """Manual hash-partitioned reduce: every input block is split by
    key-hash into P slices (one task per block), then P reduce tasks apply
    ``reduce_fn`` to their partition's concatenated slices.  Returns a
    Dataset over the P outputs.

    This moves EXACTLY the same bytes as ``Dataset.groupby`` (an all-to-all
    on the key hash) but skips its sort machinery and per-op actor spin-up
    (see module docstring for measurements).  Contract (same as groupby's
    reduce): one partition's rows fit one worker; callers pass
    partial-aggregated inputs (one row per key per block) so that holds by
    construction.  At cluster scale raise ``num_partitions`` to ~total
    cores.  The B x P object fan-out is the classic map-shuffle quadratic;
    when B exceeds ``max_split_tasks`` the blocks are first coalesced in
    a tree of concat tasks so at most that many split tasks (and
    ``max_split_tasks`` x P objects) ever exist; B is also sized so each
    split SLICE stays ~1 MB (plasma, not driver heap — see
    :func:`_exchange_block_count`).

    ``num_partitions=None`` auto-scales P to ~128 MB partitions (clamped to
    [8, 512]) — for exchanges whose input grows with the corpus (e.g. the
    LSH band-bucket table at 32 rows/doc): a fixed P=8 put 40M-row
    partitions in single reduce tasks at the 10M-doc soak and serialized
    the whole stage."""
    return ray.data.from_arrow_refs(_exchange(
        ds, key_cols, _hash_reduce_part, (reduce_fn,), num_partitions,
        max_split_tasks))


# partial aggregate -> how its partials merge
_MERGE = {"sum": "sum", "count": "sum", "count_all": "sum",
          "min": "min", "max": "max"}


def _agg_table(t: pa.Table, keys: list, aggs: dict) -> pa.Table:
    """``t.group_by(keys)`` with ``aggs`` (out column -> (column, func)),
    as keys then the out columns, under their out names.  String keys are
    grouped last: pyarrow 16's ``group_by`` splits groups when a nullable
    string key comes before another key."""
    def is_str(k: str) -> bool:
        ty = t.schema.field(k).type
        return pa.types.is_string(ty) or pa.types.is_large_string(ty)

    g = t.group_by(sorted(keys, key=is_str)).aggregate(
        [([] if c is None else c, f) for c, f in aggs.values()])
    return pa.table(
        [g[k] for k in keys]
        + [g["count_all" if c is None else f"{c}_{f}"]
           for c, f in aggs.values()],
        names=keys + list(aggs))


@ray.remote
def _group_agg_part(keys, merge, post, *tabs):
    # a partition's typed slices are the partials; a slice without every
    # partial column is a stale or zero-column block that never ran the
    # partial.  No typed slice anywhere: no block of the input had a row.
    cols = set(keys) | set(merge)
    typed = [t for t in tabs if cols <= set(t.column_names)]
    if not typed:
        return pa.table({})
    live = [t for t in typed if t.num_rows > 0] or typed[:1]
    out = _agg_table(pa.concat_tables(live), keys, merge)
    return out if post is None else post(out)


def group_agg(ds, keys, aggs: dict, num_partitions: int | None = 8,
              post=None):
    """Keyed algebraic aggregate over bounded keys: one row per distinct
    ``keys`` value, with a column per ``aggs`` entry (out column ->
    ``(column, func)``, func one of ``sum``, ``count``, ``min``, ``max``,
    or ``count_all`` with column ``None``).  Counts are int64.

    Partial: ``group_by(keys).aggregate`` over each whole block, a
    ``map_batches(batch_size=None)`` that fuses with the caller's row map
    before it.  Merge: the partials meet on :func:`hash_reduce`'s exchange
    (``num_partitions`` passed through), where sums and counts sum, mins
    min and maxes max, over the partition's slices in block order.
    ``post`` (optional) runs on each merged partition inside its reduce
    task — the row-local step: rename, cast, rounding, a filter, a
    per-partition top-k.

    Empty partitions are typed here, once: a partition with no rows
    yields the merge of a typed zero-row partial (then ``post``).  When
    no block ran the partial (the input had no rows) every partition is
    a zero-column block, which :func:`collect`'s fallback schema types."""
    keys = list(keys)
    bad = [f for _c, f in aggs.values() if f not in _MERGE]
    if bad:
        raise ValueError(f"group_agg merges {sorted(_MERGE)}, not {bad}")
    merge = {n: (n, _MERGE[f]) for n, (_c, f) in aggs.items()}
    # map_batches never runs the partial on an empty or stale block
    return ray.data.from_arrow_refs(_exchange(
        ds.map_batches(lambda b: _agg_table(b, keys, aggs),
                       batch_format="pyarrow", batch_size=None),
        keys, _group_agg_part, (keys, merge, post), num_partitions, 1024))


@ray.remote
def _block_size(t: pa.Table, weight: str | None) -> tuple[int, int]:
    if weight is None or t.num_rows == 0:
        return t.num_rows, t.num_rows
    return t.num_rows, int(pc.sum(t[weight]).as_py() or 0)


@ray.remote
def _block_apply(fn, t: pa.Table, base: int, total: int, *args):
    return fn(t, base, total, *args)


def block_scan(ds, fn, *args, weight: str | None = None):
    """Exclusive prefix scan over the blocks of an already-sorted Dataset:
    ``fn(table, base, total, *args)`` runs once per non-empty block, where
    ``base`` is the weight of every row before the block in Dataset order
    and ``total`` the weight of all rows.  A row's weight is 1, or its
    ``weight`` column value.  So ``base + arange(num_rows)`` is each row's
    global 0-based rank, and ``base + cumsum(w) - w`` its exclusive running
    sum.

    One tiny task per block returns ``(num_rows, weight)``: two ints per
    block are all that reach the driver, never a row.  Blocks with no rows
    (or no columns, as a sort may emit) never reach ``fn``.  An input with
    no rows returns ``fn`` applied to a typed empty table — a sort drops
    the columns of an all-empty input, so the type comes from a zero-row
    block that kept them or from the plan's schema — and a zero-column
    Dataset when neither knows it."""
    plan_schema = ds.schema(fetch_if_missing=False)     # never executes
    refs = block_refs(ds)
    sizes = np.array(ray.get([_block_size.remote(r, weight) for r in refs]),
                     dtype=np.int64).reshape(-1, 2)
    bases = np.r_[0, np.cumsum(sizes[:, 1])][:-1]
    total = int(sizes[:, 1].sum())
    outs = [_block_apply.remote(fn, r, int(b), total, *args)
            for r, n, b in zip(refs, sizes[:, 0], bases) if n > 0]
    if outs:
        return ray.data.from_arrow_refs(outs)
    empty = next((t for t in ray.get(refs) if t.num_columns > 0), None)
    if empty is None:
        if plan_schema is None:
            return ray.data.from_arrow(pa.table({}))
        empty = pa.schema(list(zip(plan_schema.names,
                                   plan_schema.types))).empty_table()
    return ray.data.from_arrow(fn(empty, 0, 0, *args))


@ray.remote
def _concat_blocks(*tabs):
    live = [t for t in tabs if t.num_rows > 0]
    return pa.concat_tables(live) if live else tabs[0]


@ray.remote
def _table_nbytes(t: pa.Table) -> int:
    return t.nbytes


def _coalesce_refs(refs, max_split_tasks: int):
    if len(refs) <= max_split_tasks:
        return list(refs)
    group = -(-len(refs) // max_split_tasks)        # ceil: blocks per task
    return [_concat_blocks.remote(*refs[i:i + group])
            for i in range(0, len(refs), group)]


# worker memory bound for one coalesced exchange block
_MAX_BLOCK_BYTES = 256 * 1024 * 1024
# target bytes for one B x P split slice — comfortably above Ray's ~100 KB
# direct-call threshold so slices land in plasma, not the driver
_SLICE_TARGET_BYTES = 1_000_000


def _exchange_block_count(total_bytes: int, P: int,
                          max_split_tasks: int) -> int:
    """Split-stage block count whose P-way slices average ~1 MB.

    Every object of a driver-orchestrated exchange is OWNED by the driver,
    and Ray returns task outputs below the ~100 KB direct-call threshold
    into the owner's in-process store — so a B x P fan-out of tiny slices
    silently copies the whole exchanged volume into driver heap (the 10M-doc
    near-dup soak's RSS gate caught exactly this: the payload-bearing
    verify slices averaged ~80 KB and grew the driver ~1 GB).  Keeping
    slices ~1 MB keeps them in plasma; the floor keeps any single coalesced
    block under the worker-memory bound."""
    if total_bytes <= 0:
        return 1
    b = max(1, total_bytes // (P * _SLICE_TARGET_BYTES))
    b = max(b, -(-total_bytes // _MAX_BLOCK_BYTES))     # block fits a worker
    return int(min(b, max_split_tasks))


def hash_partition_refs(ds, key_cols, num_partitions: int,
                        max_split_tasks: int = 1024):
    """Hash-partition a Dataset by ``key_cols`` into exactly P tables and
    return their object refs (partition ``i`` holds every row whose
    ``key_hash % P == i``).  The building block for PARTITION-ONCE /
    PROBE-MANY plans: pay the all-to-all on the big side a single time,
    then co-partition any number of probe sides against the same refs
    (used by the distributed near-dup verify stages, which attach each
    candidate pair's two payloads in two successive probe passes without
    re-exchanging the payload table).  Same memory contract as
    :func:`hash_reduce`: one partition fits one worker."""
    return _exchange(ds, key_cols, _concat_blocks, (), num_partitions,
                     max_split_tasks)


def hash_join(left, right, on, how: str = "inner",
              num_partitions: int = 8, suffix: str = "_r"):
    """Generic LARGE-LARGE equi-join of two Datasets on column(s) ``on`` —
    the engine's join primitive (Ray Data has none): both sides are tagged,
    unioned, and hash co-partitioned ONCE on the key (:func:`hash_reduce`);
    each partition holds every row of both sides for its keys and joins
    them with a local pyarrow hash join.  One all-to-all, no global sort,
    no edge residuals.  ``how``: inner / left outer / right outer / full
    outer / left semi / left anti (pyarrow names; semi and anti emit the
    left side's columns only).  Non-key columns sharing a name get
    ``suffix`` on the right side.  Same memory contract as any hash-partitioned join:
    one partition (rows of both sides for its key range) fits one worker —
    pre-aggregate or raise ``num_partitions`` for skewed/huge keys."""
    keys = [on] if isinstance(on, str) else list(on)
    # read each schema once, from a materialized side: on a plan that has
    # not run, schema() runs a limit-1 prefix of it first
    left, right = left.materialize(), right.materialize()
    ls, rs = left.schema(), right.schema()
    # a side with no row may have no schema (every block lost its columns,
    # as group_agg over no rows leaves them): it joins as its key columns,
    # typed by the other side, and adds no column of its own.  With no
    # schema on either side there is no row to join.
    if ls is None and rs is None:
        return left
    ls = ls or pa.schema([(k, rs.types[rs.names.index(k)]) for k in keys])
    rs = rs or pa.schema([(k, ls.types[ls.names.index(k)]) for k in keys])
    lcols, rcols = ls.names, rs.names
    rmap = {c: (c if (c in keys or c not in lcols) else c + suffix)
            for c in rcols}

    # unify schemas: left columns then right's non-key columns (renamed);
    # each side fills the other's columns with typed nulls
    lt = dict(zip(lcols, ls.types))
    rt = {rmap[c]: t for c, t in zip(rcols, rs.types)}
    out_cols = list(lt) + [c for c in rt if c not in lt]

    def widen(b: pa.Table, mine: dict, mapping=None) -> pa.Table:
        if mapping:
            b = b.rename_columns([mapping[c] for c in b.column_names])
        arrs, names = [], []
        for c in out_cols:
            names.append(c)
            if c in b.column_names:
                arrs.append(b[c])
            else:
                arrs.append(pa.nulls(b.num_rows, lt.get(c) or rt.get(c)))
        return pa.Table.from_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in arrs], names=names) \
            .append_column("__side", pa.array(
                np.full(b.num_rows, 0 if mapping is None else 1, np.int8)))

    tagged = left.map_batches(
        lambda b: widen(b, lt), batch_format="pyarrow").union(
        right.map_batches(
            lambda b: widen(b, rt, rmap), batch_format="pyarrow"))

    l_only = [c for c in lt if c not in keys]
    r_only = [c for c in rt if c not in lt]
    emit = list(lt) if how in ("left semi", "left anti") else out_cols

    def part_join(t: pa.Table) -> pa.Table:
        if "__side" not in t.column_names:      # all-empty partition
            return pa.Table.from_arrays(
                [pa.array([], lt.get(c) or rt.get(c)) for c in emit],
                names=emit)
        side = t["__side"]
        lp = t.filter(pc.equal(side, 0)).select(keys + l_only)
        rp = t.filter(pc.equal(side, 1)).select(keys + r_only)
        return lp.join(rp, keys, join_type=how).select(emit)

    return hash_reduce(tagged, keys, part_join,
                       num_partitions=num_partitions)


def _first_n_per_group(t: pa.Table, group_cols, sort_keys, n: int,
                       rn_col: str | None = None) -> pa.Table:
    """Sort one table by group then sort keys and keep each group's first
    ``n`` rows (vectorized: adjacent-row group-change scan, no per-group
    loop).  ``rn_col`` optionally appends the 1-based rank within the
    group — only meaningful when ``t`` holds ALL of a group's candidates."""
    if t.num_rows == 0:
        return t if rn_col is None else t.append_column(
            rn_col, pa.array([], pa.int64()))
    srt = t.sort_by([(c, "ascending") for c in group_cols]
                    + list(sort_keys))
    new = np.zeros(srt.num_rows, bool)
    new[0] = True
    for c in group_cols:
        col = srt[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # null-aware adjacent compare: all NULLs are ONE group (SQL
        # GROUP BY semantics) — a raw to_numpy turns int64-with-null into
        # float64 whose NaN != NaN would split every null into its own
        a = col.to_numpy(zero_copy_only=False)
        diff = a[1:] != a[:-1]
        if col.null_count:
            isnull = pc.is_null(col).to_numpy(zero_copy_only=False)
            both_null = isnull[1:] & isnull[:-1]
            diff = (diff & ~both_null) | (isnull[1:] != isnull[:-1])
        new[1:] |= diff
    starts = np.flatnonzero(new)
    gid = np.cumsum(new) - 1
    pos = np.arange(srt.num_rows) - starts[gid]
    out = srt.filter(pa.array(pos < n))
    if rn_col is not None:
        out = out.append_column(
            rn_col, pa.array(pos[pos < n] + 1, pa.int64()))
    return out


def grouped_top_n(ds, group_cols, sort_keys, n: int,
                  rn_col: str | None = None, num_partitions: int = 8):
    """Top-``n`` rows per group, ordered by ``sort_keys`` (list of
    ``(col, "ascending"|"descending")``) — the distributed window function
    ``ROW_NUMBER() OVER (PARTITION BY group ORDER BY keys) <= n``.  Shape:
    a per-block combiner keeps each group's local top ``n`` (so at most
    ``n`` rows per group per block shuffle), then one hash co-partition
    re-runs the same scan over each group's surviving candidates — where
    the rank is exact, so ``rn_col`` (int64) is attached there.

    Empty partitions follow :func:`group_agg`'s rule: a partition with no
    rows yields the typed empty output, and when no block has a row every
    partition is a zero-column block, which :func:`collect`'s fallback
    schema types."""
    group_cols = list(group_cols)

    def partial(b: pa.Table) -> pa.Table:
        return _first_n_per_group(b, group_cols, sort_keys, n)

    def final(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return t
        return _first_n_per_group(t, group_cols, sort_keys, n, rn_col)

    return hash_reduce(ds.map_batches(partial, batch_format="pyarrow",
                    batch_size=None),
                       group_cols, final, num_partitions=num_partitions)


def detect_hot_keys(ds, key: str, threshold: float = 0.05,
                    top_per_block: int = 64) -> pa.Array:
    """Find keys owning at least ``threshold`` of ``ds``'s rows, without a
    full-cardinality count: each block contributes its top ``top_per_block``
    key counts (a combiner — bounded regardless of key cardinality), the
    partials are hash-summed, and the driver keeps keys whose summed count
    clears the bar.  The truncation only ever UNDER-counts, so a detected
    key is truly frequent; a key hot in few blocks may be missed — callers
    use this to route work (broadcast vs shuffle), where a miss costs
    balance, never correctness.  Returns the (small) key array."""
    ds = ds.materialize()
    total = ds.count()
    sch = ds.schema()
    # real key type, not a hardcoded int64 (schema() is None only for a
    # zero-block dataset, where no better answer exists)
    ktype = sch.types[sch.names.index(key)] if sch is not None else pa.int64()
    if total == 0:
        return pa.array([], ktype)

    def top_counts(b: pa.Table) -> pa.Table:
        g = b.select([key]).group_by([key]).aggregate([([], "count_all")])
        if g.num_rows > top_per_block:
            cnt = g["count_all"].to_numpy()
            idx = np.argpartition(cnt, len(cnt) - top_per_block)
            g = g.take(pa.array(idx[-top_per_block:], pa.int64()))
        return g

    counts = collect(group_agg(
        ds.map_batches(top_counts, batch_format="pyarrow", batch_size=None),
        [key], {"count_all": ("count_all", "sum")}, num_partitions=4),
        pa.schema([(key, ktype), ("count_all", pa.int64())]))
    bar = threshold * total
    return counts.filter(pc.greater_equal(counts["count_all"], bar))[key] \
        .combine_chunks()


def skew_join(left, right, on: str, how: str = "inner",
              hot_threshold: float = 0.05, num_partitions: int = 8,
              suffix: str = "_r", top_per_block: int = 64):
    """Skew-resistant equi-join: keys owning >= ``hot_threshold`` of the
    LEFT side (:func:`detect_hot_keys`) are joined map-side against a
    broadcast of the right side's rows for those keys (`ray.put` once, read
    per task — never re-shipped per batch); everything else goes through the
    ordinary hash co-partitioned :func:`hash_join`.  This keeps a hot key
    from concentrating its whole row mass in one shuffle partition — the
    failure mode of any hash-partitioned join at scale.

    Contract: the RIGHT side is dimension-like on the hot keys (its rows
    for them fit one broadcast object).  ``how`` is inner or ``left outer``
    only — right/full outer would need the broadcast side's unmatched rows
    emitted exactly once globally, which the map-side path cannot do.
    Single key column (skew detection is per-key); multi-key joins take
    :func:`hash_join` directly."""
    if how not in ("inner", "left outer"):
        raise ValueError(f"skew_join supports inner/left outer, got {how!r}")
    left = left.materialize()
    hot = detect_hot_keys(left, on, hot_threshold, top_per_block)
    if len(hot) == 0:
        return hash_join(left, right, on, how=how,
                         num_partitions=num_partitions, suffix=suffix)

    right = right.materialize()
    lcols = left.schema().names
    rcols = right.schema().names
    rmap = {c: (c if (c == on or c not in lcols) else c + suffix)
            for c in rcols}
    out_cols = lcols + [rmap[c] for c in rcols if rmap[c] not in lcols]

    # broadcast the right side's hot rows (small by contract)
    right_hot = pa.concat_tables(ray.get(
        [_filter_keys.remote(r, on, hot, True)
         for r in block_refs(right)]))
    right_hot = right_hot.rename_columns(
        [rmap[c] for c in right_hot.column_names])
    hot_ref = ray.put(right_hot)
    hot_keys_ref = ray.put(hot)

    def map_side(b: pa.Table) -> pa.Table:
        keys = ray.get(hot_keys_ref)
        mine = b.filter(pc.is_in(b[on], value_set=keys))
        return mine.join(ray.get(hot_ref), on, join_type=how) \
            .select(out_cols)

    hot_joined = left.map_batches(map_side, batch_format="pyarrow")

    def drop_hot(b: pa.Table) -> pa.Table:
        keys = ray.get(hot_keys_ref)
        return b.filter(pc.invert(pc.is_in(b[on], value_set=keys)))

    cold = hash_join(
        left.map_batches(drop_hot, batch_format="pyarrow"),
        right.map_batches(drop_hot, batch_format="pyarrow"),
        on, how=how, num_partitions=num_partitions, suffix=suffix)
    return hot_joined.union(cold.map_batches(
        lambda b: b.select(out_cols), batch_format="pyarrow"))


@ray.remote
def _filter_keys(t: pa.Table, key: str, keys: pa.Array, keep: bool):
    m = pc.is_in(t[key], value_set=keys)
    return t.filter(m if keep else pc.invert(m))


def broadcast_join(left, right: pa.Table, on, how: str = "inner",
                   suffix: str = "_r"):
    """Map-side join of a Dataset against a SMALL in-memory right side:
    the table is ``ray.put`` ONCE and every task joins its batch against
    it locally — zero shuffle, the dimension-lookup pattern
    (nation_revenue et al.) as a generic primitive.  ``how`` is inner /
    left outer / left semi / left anti — the types a map-side pass can
    emit exactly; right/full outer need global unmatched-row accounting
    and belong to :func:`hash_join`."""
    if how not in ("inner", "left outer", "left semi", "left anti"):
        raise ValueError(f"broadcast_join cannot do {how!r} map-side")
    keys = [on] if isinstance(on, str) else list(on)
    # read the schema from the materialized input: on a plan that has not
    # run, schema() runs a limit-1 prefix of it first
    left = left.materialize()
    lcols = left.schema().names
    right = right.rename_columns(
        [c if (c in keys or c not in lcols) else c + suffix
         for c in right.column_names])
    ref = ray.put(right)

    def fn(b: pa.Table) -> pa.Table:
        return b.join(ray.get(ref), keys, join_type=how)

    return left.map_batches(fn, batch_format="pyarrow")


def write_bucketed(ds, key_cols, path: str, num_buckets: int = 16) -> None:
    """Materialize a Dataset as hash-bucketed hive-partitioned parquet on
    ``key_cols`` — the shuffle-once, reuse-many layout.  Two tables written
    with the same keys and bucket count are co-partitioned ON DISK, so any
    later join / groupby / dedup on those keys runs bucket-by-bucket with
    zero further exchange (:func:`bucketed_join`); and because each bucket
    is its own ``__bucket=i/`` directory, a crashed writer or reader
    resumes per bucket, never per table."""
    key_cols = list(key_cols)

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = (key_hash(b, key_cols) % np.uint64(num_buckets)).astype(
            np.int32)
        return b.append_column("__bucket", pa.array(bk, pa.int32()))

    ds.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        path, partition_cols=["__bucket"])


def bucketed_join(path_l: str, path_r: str, on, how: str = "inner",
                  num_buckets: int = 16, suffix: str = "_r"):
    """Join two :func:`write_bucketed` layouts (same keys, same
    ``num_buckets``) bucket-by-bucket: one Ray task per bucket reads the
    matching partition directory of each side and runs the local pyarrow
    join.  NO shuffle happens here — the exchange was paid once at write
    time, which is the right trade whenever one co-bucketed table joins
    against many consumers (the fact-table pattern at 100 TB)."""
    import pyarrow.parquet as _pq

    keys = [on] if isinstance(on, str) else list(on)
    sl = _pq.read_schema(_first_file(path_l))
    sr = _pq.read_schema(_first_file(path_r))
    lcols = [c for c in sl.names if c != "__bucket"]
    rcols = [c for c in sr.names if c != "__bucket"]
    rmap = {c: (c if (c in keys or c not in lcols) else c + suffix)
            for c in rcols}

    @ray.remote
    def join_bucket(i: int) -> pa.Table:
        def read(path, cols, schema):
            d = os.path.join(path, f"__bucket={i}")
            if os.path.isdir(d):
                return _pq.read_table(d, columns=cols)
            return schema.empty_table().select(cols)
        lt = read(path_l, lcols, sl)
        rt = read(path_r, rcols, sr).rename_columns(
            [rmap[c] for c in rcols])
        return lt.join(rt, keys, join_type=how)

    return ray.data.from_arrow_refs(
        [join_bucket.remote(i) for i in range(num_buckets)])


def bucketed_lookup(path: str, key_cols, values: pa.Table,
                    num_buckets: int = 16):
    """Point lookups against a :func:`write_bucketed` layout: hash the
    requested keys, read ONLY their bucket directories, and semi-join each
    against the request — the read touches O(buckets hit / num_buckets) of
    the table, the same pruning the crawl engine's ParquetWebStore does
    for fetch.  Pruning is behavioral, not advisory: no other bucket
    directory is opened at all (pinned in tests by deleting them)."""
    import pyarrow.parquet as _pq

    keys = list(key_cols)
    schema = _pq.read_schema(_first_file(path))
    bks = np.unique((key_hash(values, keys)
                     % np.uint64(num_buckets)).astype(np.int64))
    vref = ray.put(values.select(keys))

    @ray.remote
    def grab(i: int) -> pa.Table:
        d = os.path.join(path, f"__bucket={i}")
        if not os.path.isdir(d):
            return schema.empty_table()
        return _pq.read_table(d).join(ray.get(vref), keys,
                                      join_type="left semi")

    return ray.data.from_arrow_refs([grab.remote(int(i)) for i in bks])


def _first_file(path: str) -> str:
    for root, _dirs, files in sorted(os.walk(path)):
        for f in sorted(files):
            if f.endswith(".parquet"):
                return os.path.join(root, f)
    raise FileNotFoundError(f"no parquet files under {path}")
