"""Crawler: the Ray-Data round loop (SURVEY.md §3.4).

Round 0 (index): seed blocks -> IndexWalker tasks, at most
``fetch_concurrency``, each over a contiguous run of blocks (per-seed
sequential pagination chains, P2; vectorized link extraction, M1/M2) ->
deterministic
``instance_index`` assignment (the order Upton's sequential loop would have
produced: seed order, then index-page order, then DOM position).

Round 1 (instances): frontier Dataset -> fetch-group tasks (one split task
per frontier block slices it by fetch group; at most one group task per CPU
slot walks its groups one after another, each through an InstanceWalker:
stash gate via the sharded seen-set, politeness, robots, continuation
quirk) -> ExtractRecords (the user scrape block) -> records
sorted by (instance_index, pagination_index, row_no) — Upton's exact output
order (upton.rb:337-345) restored by an explicit sort rather than by
sequential execution.  A fetch group (called "bucket" in the checkpoint
layout and the lineage) is a corpus bucket on an unpaced crawl of a bucketed
corpus and a host shard otherwise (see ``Crawler.fetch_instances``).

Every crawl returns the pages its walkers emitted and their counters
(:class:`CrawlResult`): each round-0 task returns one :data:`schema.METRICS`
row for its index pages and each round-1 group task one row per fetch
group, as object refs that are resolved only when the report is read.

Checkpointing: when ``cfg.stash_folder`` is set, the frontier is written
and read back, each fetch group writes its pages to
``fetched_round1/bucket=<g>/`` plus a ``_SUCCESS`` marker, the counter rows
of the run become ``metrics.parquet``, and the seen set is dumped.  A re-run
restores the seen set, skips the round-0 walk and every completed group,
and walks only the rest — exactly the reference's stash-driven resume
semantics (downloader.rb:70-98): a stashed page is never fetched, or slept
for, again.

Scale notes (10^10-URL design point, tested single-node):
* the only rows the driver fetches are (a) round 0's rollup, which each
  round-0 task returns beside its links: one link-count row per seed (per
  sitemap file on a sitemap crawl), one int per task — its index pages
  with a link — and, only with ``hot_host_threshold`` set, one link-count
  row per (task, host), for the seed bases, frontier size and hot hosts;
  (b) a sitemap level's child-file rows; and (c) one counters row per
  round-0 task and per fetch group: with a checkpoint at the round-1
  barrier, otherwise when :attr:`CrawlResult.metrics` is read;
* round 0, the ``instance_index`` attach, the sitemap probes and round 1
  run as plain Ray tasks over a per-process walker cache
  (:func:`upton_ray.fetch.per_process`): each worker process builds a
  stage's walker once, so no crawl starts an actor pool.  No stage has more
  tasks in flight than CPU slots: a walker blocked in a seen-set
  ``ray.get`` releases its CPU, and the raylet would start a new worker
  process for a queued task;
* round 1 routes rows to fetch groups inside its split tasks — one argsort
  per block (:func:`upton_ray.shuffle.split_by`), no Ray Data shuffle; the
  walker batches its seen-set RPCs;
* an uncheckpointed crawl's only Ray Data execution is record extraction
  plus the final sort.

``Crawler.crawl`` is the only crawl path.  Its one inter-round BARRIER
(round 0 completes before round 1 fetches) is deliberate: Upton's
``instance_index`` is a global prefix-sum over per-seed link counts, and
a fetch group gathers its rows from every frontier block.  Under real
politeness pacing a cold ``sitemap_polite`` crawl (perfbench, 1-core host,
``num_cpus=2``) reaches ~0.87 of its skew floor, the hottest host's pages
× delay (``frontier.hottest_host_floor_fraction``): round 0, the group
walk's start and the record stages cost the rest.  Removing it would
mean assigning indices post-hoc from the records themselves; that belongs
inside ``crawl()`` and must keep its checkpoint, seeding and hot-host
splitting.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from upton_ray import schema
from upton_ray.config import CrawlConfig
from upton_ray.extract import ExtractRecords, extract_links_batch
from upton_ray.fetch import (FETCHED_OUT, INDEX_PAGES, IndexWalker,
                             fetch_counters, make_group_walker, make_store,
                             per_process)
from upton_ray.frontier import salt_hosts
from upton_ray.seen import SeenSet, SeenShard
from upton_ray.shuffle import _agg_table, block_refs, collect, split_by
from upton_ray.urlops import hosts_of, shard_hashes


# the round-0 rollup of one links block: its links per seed and, with
# hot-host splitting on, its links per host
SEED_COUNTS = pa.schema([("seed_id", pa.int32()), ("size", pa.int64())])
HOST_COUNTS = pa.schema([("host", pa.string()), ("size", pa.int64())])

# CPU share of one paced round-1 group task: a paced walk mostly waits
PACED_GROUP_CPUS = 0.25
# rows per frontier block of a URL-list crawl (one split task each)
URL_BLOCK_ROWS = 65_536


def _bucket_count(web_ref) -> int | None:
    """Bucket count of a BUCKETED corpus source (("parquet"|"lance", path,
    n_buckets)), None for every other store — the ("http", opts) source is
    a tuple too but has no bucket layout to route by."""
    if isinstance(web_ref, tuple) and web_ref[0] in ("parquet", "lance"):
        return web_ref[2]
    return None


def fetch_group_ids(urls: np.ndarray, row_ids: np.ndarray, n_groups: int,
                    hot_hosts: frozenset, salts: int) -> np.ndarray:
    """Round-1 fetch group per frontier row: the shard of its host, or of
    its salted sub-queue for a hot host.  Depends on the row alone, so any
    batching of the same frontier routes it the same way."""
    return shard_hashes(salt_hosts(hosts_of(urls), hot_hosts, salts, row_ids),
                        n_groups)


RECORDS_OUT = pa.schema([
    ("instance_index", pa.int64()), ("pagination_index", pa.int32()),
    ("row_no", pa.int32()), ("instance_url", pa.string()),
    ("record", pa.list_(pa.string())), ("doc_kind", pa.string()),
])


def _counter_rows(refs: list) -> pa.Table:
    """The :data:`schema.METRICS` rows behind ``refs``, by (round,
    partition)."""
    return pa.concat_tables([schema.METRICS.empty_table()] + ray.get(refs)) \
        .sort_by([("round", "ascending"), ("partition", "ascending")])


@dataclass
class CrawlResult:
    records: object       # records Dataset (lazy), sorted in output order
    pages: object         # round-1 FETCHED_OUT Dataset the records come from
    index_pages: object   # round-0 INDEX_PAGES Dataset (empty: no round 0)
    counters: list        # object refs of this run's METRICS rows
    stats: dict = field(default_factory=dict)

    @property
    def metrics(self) -> pa.Table:
        """This run's counters, one :data:`schema.METRICS` row per round-0
        task and per walked fetch group, resolved on read."""
        return _counter_rows(self.counters)

    def records_table(self) -> pa.Table:
        t = collect(self.records, RECORDS_OUT)
        return t.sort_by([("instance_index", "ascending"),
                          ("pagination_index", "ascending"),
                          ("row_no", "ascending")])

    def records_rows(self) -> list[dict]:
        return self.records_table().to_pylist()

    def documents(self) -> list:
        """Reassemble Upton ``scrape()`` documents from exploded record rows."""
        docs: list = []
        cur_key = None
        for r in self.records_rows():
            key = (r["instance_index"], r["pagination_index"])
            if r["doc_kind"] == "none":
                docs.append(None)
                cur_key = key
            elif r["doc_kind"] == "scalar":
                docs.append(r["record"][0])
                cur_key = key
            elif r["doc_kind"] == "list":
                docs.append(list(r["record"]))
                cur_key = key
            else:  # table: one document accumulating its rows
                if key != cur_key:
                    docs.append([list(r["record"])])
                    cur_key = key
                else:
                    docs[-1].append(list(r["record"]))
        return docs


def _no_index_pages():
    """The index pages of a crawl without a round-0 walk."""
    return ray.data.from_arrow(INDEX_PAGES.empty_table())


def _attach_instance_index(links: pa.Table, seeds: np.ndarray,
                           bases: np.ndarray) -> pa.Table:
    """``instance_index`` = the base of the link's seed (``bases`` aligned
    with the sorted ``seeds``) + the link's rank within its seed in
    (page_no, dom_pos) order; the rows keep their order.  A link whose seed
    has no base raises ``ValueError``."""
    s = links["seed_id"].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(seeds, s)
    found = pos < len(seeds)
    found[found] = seeds[pos[found]] == s[found]
    if not found.all():
        raise ValueError(f"seed {int(s[~found][0])} has links but no "
                         "instance_index base in the round-0 rollup")
    o = np.lexsort((links["dom_pos"].to_numpy(zero_copy_only=False),
                    links["page_no"].to_numpy(zero_copy_only=False), s))
    rank = np.empty(len(s), dtype=np.int64)
    rank[o] = np.arange(len(s)) - np.searchsorted(s[o], s[o])
    return links.append_column("instance_index",
                               pa.array(bases[pos] + rank, pa.int64()))


def _rollup(links: pa.Table, threshold: Optional[int]) -> tuple:
    """One links block's rollup: its :data:`SEED_COUNTS` rows, its count of
    index pages with a link, and its :data:`HOST_COUNTS` rows — none unless
    ``threshold`` turns hot-host splitting on."""
    def count(t: pa.Table, keys: list) -> pa.Table:
        return _agg_table(t, keys, {"size": (None, "count_all")})

    hosts = HOST_COUNTS.empty_table()
    if threshold:
        hosts = count(pa.table({"host": pa.array(hosts_of(
            links["url"].to_numpy(zero_copy_only=False)), pa.string())}),
            ["host"])
    return (count(links, ["seed_id"]),
            count(links, ["seed_id", "page_no"]).num_rows, hosts)


def _hot_hosts(t: pa.Table, threshold: Optional[int]) -> list:
    """Sorted hosts of ``t`` (``host``, ``size``) whose sizes sum to more
    than ``threshold``; none when hot-host splitting is off."""
    if not threshold:
        return []
    g = t.group_by("host").aggregate([("size", "sum")])
    return sorted(g.filter(pc.greater(g["size_sum"], threshold))["host"]
                  .to_pylist())


@ray.remote(num_cpus=0.5, num_returns=4)
def _index_task(walk, blocks: list, partition: int,
                threshold: Optional[int]):
    """One round-0 task: ``walk`` (a :func:`per_process` IndexWalker) runs
    each seed block's pagination chains, one call per block, so a walker's
    bucket cache sees one bucket's seeds at a time.  Returns the blocks'
    links, their :func:`_rollup`, the :data:`INDEX_PAGES` rows and their
    counters row."""
    pages = [walk(b) for b in blocks]
    links = pa.concat_tables([extract_links_batch(p) for p in pages])
    index_pages = pa.concat_tables([p.select(INDEX_PAGES.names)
                                    for p in pages])
    return (links, _rollup(links, threshold), index_pages,
            fetch_counters(index_pages, 0, partition))


_rollup_task = ray.remote(_rollup)
_attach_task = ray.remote(_attach_instance_index)


@ray.remote
def _split_groups(block: pa.Table, n_groups: int, hot_hosts: frozenset,
                  salts: int):
    """One frontier block sliced into its ``n_groups`` fetch groups
    (:func:`fetch_group_ids`), each slice in block order."""
    g = fetch_group_ids(block["url"].to_numpy(zero_copy_only=False),
                        block["instance_index"].to_numpy(zero_copy_only=False),
                        n_groups, hot_hosts, salts)
    parts = split_by(block, g, n_groups)
    return parts if n_groups > 1 else parts[0]


@ray.remote(num_returns=2)
def _group_task(walk, groups: list, *slices):
    """One round-1 group task: ``walk`` is :func:`make_group_walker`'s."""
    return walk(groups, *slices)


class Crawler:
    """One crawl run. ``web_source`` is a dict web, a synth.ScaleParams
    generator, or ("parquet", path, num_buckets) — see upton_ray.fetch."""

    def __init__(self, cfg: CrawlConfig, web_source,
                 seeds: Optional[list[tuple[int, str, str]]] = None):
        self.cfg = cfg
        if isinstance(web_source, dict):
            self.web_ref = ray.put(web_source)   # broadcast once, not per task
        else:
            self.web_ref = web_source
        if seeds is None and cfg.index_url is not None:
            seeds = [(0, cfg.index_url, cfg.index_selector)]
        # instance_index orders links by (seed_id, page_no, dom_pos): two
        # seeds sharing an id would number their links twice over
        ids = Counter(s[0] for s in seeds or [])
        repeated = sorted(i for i, n in ids.items() if n > 1)
        if repeated:
            raise ValueError(f"seed ids must be unique, repeated: {repeated}")
        self.seeds = seeds
        self.pacer = None    # the seen shard hot hosts lease from, if any
        # round 0's facts: frontier_rows, index_pages (with a link) or
        # sitemap_files, hot_hosts; crawl() adds round0_s
        self.stats: dict = {}
        # object refs of the METRICS rows of the tasks this crawl ran
        self.counters: list = []
        if cfg.stash_folder and not cfg.seen_exact:
            # fail fast: filter-only shards can't enumerate their URLs, so a
            # seen checkpoint would persist an empty set and a resumed crawl
            # would silently refetch (and re-emit) everything
            raise ValueError(
                "stash_folder (resumable crawl) requires seen_exact=True: "
                "approximate-mode seen sets cannot be checkpointed")
        self.seen: Optional[SeenSet] = None
        if cfg.debug or cfg.index_debug:
            self.seen = SeenSet(cfg.num_seen_shards,
                                capacity_per_shard=cfg.seen_capacity_per_shard,
                                approximate=not cfg.seen_exact)
            self._restore_seen()

    def shutdown(self) -> None:
        """Release the seen-set shard actors (call after consuming results)."""
        if self.seen is not None:
            self.seen.kill()          # the pacer, if any, is one of them
        elif self.pacer is not None:
            ray.kill(self.pacer, no_restart=True)
        self.seen = self.pacer = None

    # ------------------------------------------------------------ checkpoint

    def _ckpt(self, name: str) -> Optional[str]:
        if not self.cfg.stash_folder:
            return None
        os.makedirs(self.cfg.stash_folder, exist_ok=True)
        return os.path.join(self.cfg.stash_folder, name)

    def _lineage(self) -> dict:
        p = self._ckpt("lineage.json")
        if not p or not os.path.exists(p):
            return {}
        with open(p) as f:
            return json.load(f)

    def _mark_done(self, unit: str, **info) -> None:
        p = self._ckpt("lineage.json")
        if not p:
            return
        done = self._lineage()
        done[unit] = info
        with open(p, "w") as f:
            json.dump(done, f)

    def _restore_seen(self) -> None:
        """Stream the seen checkpoint back into the shard actors one file /
        row-group at a time — the driver never holds the full URL set (and
        re-routing by hash means the shard count may change between runs).
        Accepts both the per-shard directory layout and the legacy single
        file."""
        p = self._ckpt("seen.parquet")
        if not (p and os.path.exists(p) and self.seen is not None):
            return
        files = ([os.path.join(p, f) for f in sorted(os.listdir(p))
                  if f.endswith(".parquet")] if os.path.isdir(p) else [p])
        for f in files:
            pf = pq.ParquetFile(f)
            for batch in pf.iter_batches(batch_size=65536):
                t = pa.Table.from_batches([batch])
                self.seen.restore(
                    t.filter(pc.equal(t["bad"], False))["url"].to_pylist(),
                    t.filter(pc.equal(t["bad"], True))["url"].to_pylist())

    def _dump_seen(self) -> None:
        p = self._ckpt("seen.parquet")
        if p and self.seen is not None:
            if os.path.isfile(p):
                os.remove(p)   # upgrade a legacy single-file checkpoint
            # shards write their own files in parallel — O(shard) memory
            # everywhere, nothing URL-sized on the driver
            self.seen.checkpoint(p)

    # --------------------------------------------------------------- round 0

    def get_index(self):
        """Round 0: seeds -> index pages -> ordered frontier Dataset with
        columns (url, seed_id, page_no, dom_pos, instance_index).  Returns
        (frontier, index_pages): the :data:`INDEX_PAGES` Dataset is empty
        when a checkpointed frontier is read back.  Each task's counters
        row joins :attr:`counters`."""
        cfg = self.cfg
        assert self.seeds, "no index seeds configured"
        ckpt = self._ckpt("frontier.parquet")
        if self._frontier_done(ckpt):
            return ray.data.read_parquet(ckpt), _no_index_pages()

        blocks = self._seed_blocks()
        walk = per_process(IndexWalker, cfg, self.web_ref, self.seen)
        # one task per contiguous run of blocks, at most fetch_concurrency
        runs = np.array_split(np.arange(len(blocks)),
                              min(cfg.fetch_concurrency, len(blocks)))
        outs = [_index_task.remote(walk, [blocks[i] for i in run], j,
                                   cfg.hot_host_threshold)
                for j, run in enumerate(runs)]
        self.counters += [o[3] for o in outs]
        # round-0 output is ~1/links_per_page of the crawl
        links = ray.data.from_arrow_refs([o[0] for o in outs])
        frontier, facts = self._assign_instance_index(
            links, rollup=[o[1] for o in outs])
        return (self._save_frontier(frontier, ckpt, **facts),
                ray.data.from_arrow_refs([o[2] for o in outs]))

    def _frontier_done(self, ckpt: Optional[str]) -> bool:
        """True when an earlier run checkpointed the frontier; the round0
        lineage unit's facts (hot hosts included) become :attr:`stats`."""
        done = self._lineage().get("round0", {}) if ckpt else {}
        if "hot_hosts" not in done or not os.path.exists(ckpt):
            return False
        self.stats.update(done)
        return True

    def _save_frontier(self, frontier, ckpt: Optional[str], **facts):
        """Round 0's end: ``facts`` go to :attr:`stats`; a checkpoint writes
        and reads back the frontier, then saves the round0 lineage unit
        (with ``facts``) and the seen set."""
        self.stats.update(facts)
        if not ckpt:
            return frontier
        if os.path.exists(ckpt):
            shutil.rmtree(ckpt)   # stale partial output from a crashed run
        frontier.write_parquet(ckpt)
        self._mark_done("round0", **facts)
        self._dump_seen()
        return ray.data.read_parquet(ckpt)

    def _assign_instance_index(self, links, rollup: Optional[list] = None):
        """Deterministic ``instance_index``: Upton's sequential numbering
        (seed order, then index-page order, then DOM position), computed
        distributed.  ``links`` is a materialized Dataset; ``rollup`` holds
        a :func:`_rollup` object ref per task that made links — round 0's
        tasks — or, when None, one task per block of ``links`` makes them.
        Returns (frontier, facts): frontier_rows, index_pages and
        hot_hosts.

        A seed's links all come from one block: its whole pagination chain
        is walked in one IndexWalker call, and a sitemap file is read by
        one probe.  ``dom_pos`` is dense from 0 within each page, so a
        link's index is the link count of the seeds with a smaller
        ``seed_id`` — its seed's base — plus its rank within its seed in
        (page_no, dom_pos) order.  The driver gets one row per seed, one
        int per block and, with hot-host splitting on, one row per (block,
        host); it broadcasts the bases, and one task per links block adds
        the ranks.  A seed that arrives from two blocks raises
        ``ValueError``."""
        threshold = self.cfg.hot_host_threshold
        refs = block_refs(links)
        if rollup is None:
            rollup = [_rollup_task.remote(r, threshold) for r in refs]
        parts = ray.get(rollup)
        counts = pa.concat_tables([SEED_COUNTS.empty_table()]
                                  + [p[0] for p in parts]).sort_by("seed_id")
        seeds = counts["seed_id"].to_numpy()
        sizes = counts["size"].to_numpy()
        twice = seeds[1:][seeds[1:] == seeds[:-1]]
        if len(twice):
            raise ValueError(f"seed {int(twice[0])} has links in two blocks: "
                             "its instance_index base would be ambiguous")
        bases = np.cumsum(sizes) - sizes          # exclusive prefix sum
        seeds_ref, bases_ref = ray.put(seeds), ray.put(bases)
        return ray.data.from_arrow_refs(
            [_attach_task.remote(r, seeds_ref, bases_ref) for r in refs]), {
            "frontier_rows": int(sizes.sum()),
            "index_pages": sum(p[1] for p in parts),
            "hot_hosts": _hot_hosts(pa.concat_tables(
                [HOST_COUNTS.empty_table()] + [p[2] for p in parts]),
                threshold)}

    def _frontier_from_sitemaps(self):
        """Sitemap-seeded frontier (cfg.sitemap_url): expand the sitemap /
        sitemap-index tree level-by-level (upton_ray.sitemap.expand_levels,
        each level a few probe tasks over the store), then the same
        instance_index prefix-sum as index-page links.  Checkpoints under
        the round0 lineage marker exactly like get_index, so a crashed run
        resumes without re-expanding."""
        cfg = self.cfg
        ckpt = self._ckpt("frontier.parquet")
        if self._frontier_done(ckpt):
            return ray.data.read_parquet(ckpt)
        from upton_ray.sitemap import expand_levels

        links, n_files = expand_levels(
            self.web_ref, cfg.sitemap_url, max_depth=cfg.sitemap_max_depth,
            concurrency=cfg.fetch_concurrency)
        frontier, facts = self._assign_instance_index(links)
        del facts["index_pages"]        # sitemap files with a <loc>
        return self._save_frontier(frontier, ckpt, sitemap_files=n_files,
                                   **facts)

    # --------------------------------------------------------------- round 1

    def _frontier_from_url_array(self):
        urls = list(self.cfg.url_array)
        hosts = pa.array(hosts_of(np.array(urls, dtype=object)), pa.string())
        self.stats.update(frontier_rows=len(urls), hot_hosts=_hot_hosts(
            pa.table({"host": hosts, "size": np.ones(len(urls), np.int64)}),
            self.cfg.hot_host_threshold))
        t = pa.table({
            "url": pa.array(urls, pa.string()),
            "instance_index": pa.array(np.arange(len(urls), dtype=np.int64)),
        })
        return ray.data.from_arrow(
            [t.slice(i, URL_BLOCK_ROWS)
             for i in range(0, len(urls), URL_BLOCK_ROWS)] or [t])

    def fetch_instances(self, frontier):
        """Round 1 of :meth:`crawl`: frontier Dataset -> fetched instance-page
        Dataset, as plain Ray tasks.

        A frontier row's fetch group — the "bucket" of the checkpoint layout
        and of the lineage — is :func:`fetch_group_ids` over ``n_groups``.
        An unpaced crawl of a bucketed corpus uses the corpus bucket count,
        so each corpus bucket is decoded once, by one task (the
        frontier-routing shuffle, SURVEY.md §7.3: it moves only (url, ints)
        rows, the cheap side).  Every other crawl uses
        ``cfg.fetch_concurrency`` host shards, so a host's politeness heap
        lives in one task; a paced crawl splits round 0's hot hosts
        (:attr:`stats`) into salted sub-queues that lease from one seen
        shard (:meth:`upton_ray.seen.SeenShard.lease`).

        One split task per non-empty frontier block slices it into its
        groups; then at most one group task per CPU slot walks the groups,
        each task its share one after another (:meth:`_walk_groups`).

        Each group task's counter rows join :attr:`counters`, unresolved.
        With a checkpoint, each group writes ``fetched_round1/bucket=<g>/``
        plus ``_SUCCESS``, and :attr:`counters` become ``metrics.parquet``.
        Groups an earlier run completed are not walked again: their pages
        are read back as cache reads."""
        cfg = self.cfg
        paced = cfg.real_sleep and cfg.sleep_time_between_requests > 0
        n_buckets = None if paced else _bucket_count(self.web_ref)
        n_groups = n_buckets or cfg.fetch_concurrency
        ckpt = self._ckpt("fetched_round1")
        done = self._done_groups(ckpt, n_groups) if ckpt else set()
        outs = self._walk_groups(frontier, n_groups, n_buckets, paced, done,
                                 ckpt)
        self.counters += [c for _, c in outs]
        if not ckpt:
            return (ray.data.from_arrow_refs([p for p, _ in outs]) if outs
                    else ray.data.from_arrow(FETCHED_OUT.empty_table()))
        walked = _counter_rows([c for _, c in outs])["partition"].to_pylist()
        for g in walked:
            self._mark_done(f"round1/bucket={g}")
        if walked:
            self._dump_seen()
        pq.write_table(_counter_rows(self.counters),
                       self._ckpt("metrics.parquet"))
        return self._read_groups(ckpt, walked, sorted(done))

    def _walk_groups(self, frontier, n_groups: int, n_buckets, paced: bool,
                     done: set, ckpt: Optional[str]) -> list:
        """The group walk of :meth:`fetch_instances`, minus the groups in
        ``done``: a (pages, counters) pair of object refs per group task.

        A task takes ``num_cpus`` of a CPU: a whole one, more on a bucketed
        corpus (each task decodes whole buckets into heap, so ~16 decode at
        once: measured 26 s -> 5 s on the 1M-page bench at 32 CPUs), and
        ``PACED_GROUP_CPUS`` on a paced crawl.  No more tasks start than
        there are such slots: a walker blocked in a seen-set ``ray.get``
        releases its CPU, and a queued task would then start a new worker
        process.  Task ``j`` walks every ``T``-th group."""
        cfg = self.cfg
        blocks = block_refs(frontier, nonempty=True)
        todo = [g for g in range(n_groups) if g not in done]
        if not blocks or not todo:
            return []
        hot_hosts = frozenset(self.stats.get("hot_hosts", ()) if paced
                              else ())
        if hot_hosts and self.pacer is None:
            self.pacer = (self.seen.shards[0] if self.seen is not None
                          else SeenShard.remote())
        split = _split_groups.options(num_returns=n_groups)
        splits = [split.remote(b, n_groups, hot_hosts,
                               max(1, cfg.hot_host_salts)) for b in blocks]
        if n_groups == 1:          # num_returns=1 yields a bare ref
            splits = [[s] for s in splits]
        cpus = ray.cluster_resources().get("CPU", 8)
        num_cpus = (max(1.0, cpus / 16.0) if n_buckets
                    else PACED_GROUP_CPUS if paced else 1.0)
        n_tasks = min(len(todo), max(1, int(cpus // num_cpus)))
        walk = make_group_walker(cfg, self.web_ref, self.seen, ckpt_dir=ckpt,
                                 pacer=self.pacer, hot_hosts=hot_hosts)
        task = _group_task.options(num_cpus=num_cpus)
        return [task.remote(walk, groups,
                            *[s[g] for g in groups for s in splits])
                for groups in (todo[j::n_tasks] for j in range(n_tasks))]

    def _done_groups(self, ckpt: str, n_groups: int) -> set:
        """Fetch groups of ``ckpt`` that an earlier run completed.  A group's
        ``_SUCCESS`` marker, written after its data file, is the
        per-partition lineage unit: a crash mid-group leaves no marker, so
        only that group re-walks.  Everything else in ``ckpt`` (partial
        groups, files of another layout) is removed so the re-walk starts
        clean.  The round1 lineage entry records the group count the
        checkpoint was written with; a crawl routing to a different count
        would map hosts to other groups (lost or twice-fetched pages), so it
        is refused."""
        had = self._lineage().get("round1", {}).get("n_groups", n_groups)
        if had != n_groups:
            raise ValueError(
                f"round-1 checkpoint {ckpt} was written with {had} fetch "
                f"groups, this crawl routes to {n_groups}: resume with the "
                "same settings or use a new stash folder")
        self._mark_done("round1", n_groups=n_groups)
        done = set()
        for d in os.listdir(ckpt) if os.path.isdir(ckpt) else []:
            p = os.path.join(ckpt, d)
            if d.startswith("bucket=") and \
                    os.path.exists(os.path.join(p, "_SUCCESS")):
                done.add(int(d.split("=", 1)[1]))
            elif os.path.isdir(p):
                shutil.rmtree(p)
            else:
                os.remove(p)
        return done

    @staticmethod
    def _read_groups(ckpt: str, walked: list, earlier: list):
        """Checkpointed pages of the groups this run ``walked``, as fetched,
        and of the groups an ``earlier`` run completed, as cache reads: this
        run fetched nothing for them and slept for nothing."""
        def read(groups):
            return ray.data.read_parquet(
                [os.path.join(ckpt, f"bucket={g}", "data-0.parquet")
                 for g in groups], columns=FETCHED_OUT.names)

        def as_cached(b: pa.Table) -> pa.Table:
            no = pa.array(np.zeros(b.num_rows, dtype=bool))
            return b.set_column(b.schema.get_field_index("from_resource"),
                                "from_resource", no) \
                .set_column(b.schema.get_field_index("slept"), "slept", no)

        parts = [read(walked)] if walked else []
        if earlier:
            parts.append(read(earlier).map_batches(as_cached,
                                                   batch_format="pyarrow"))
        if not parts:
            return ray.data.from_arrow(FETCHED_OUT.empty_table())
        return parts[0] if len(parts) == 1 else parts[0].union(parts[1])

    def _seed_blocks(self) -> list:
        """Seed tables, one per walker call.  For a bucketed parquet corpus,
        seeds are grouped by their host's bucket, so each block touches ONE
        bucket and the per-walker bucket cache actually hits (without this,
        every chain re-decodes a full bucket — the dominant cost at scale);
        blocks come in bucket order, so a task's contiguous run of them
        decodes each of its buckets once."""
        cfg = self.cfg
        seeds_t = pa.table({
            "seed_id": pa.array([s[0] for s in self.seeds], pa.int32()),
            "url": pa.array([s[1] for s in self.seeds], pa.string()),
            "selector": pa.array([s[2] for s in self.seeds], pa.string()),
        })
        n_seeds = len(self.seeds)
        conc = min(cfg.fetch_concurrency, max(1, n_seeds))
        n_buckets = _bucket_count(self.web_ref)
        if not n_buckets:
            n_blocks = min(n_seeds, conc * 4) or 1
            step = (n_seeds + n_blocks - 1) // n_blocks
            return [seeds_t.slice(i, step) for i in range(0, n_seeds, step)]
        hb = shard_hashes(hosts_of(np.array([s[1] for s in self.seeds],
                                            dtype=object)), n_buckets)
        order = np.lexsort((seeds_t["seed_id"].to_numpy(), hb))
        seeds_t = seeds_t.take(pa.array(order))
        hb_sorted = hb[order]
        cuts = [0] + (np.flatnonzero(np.diff(hb_sorted)) + 1).tolist() \
            + [n_seeds]
        max_chains = max(4, n_seeds // max(1, conc * 2))
        return [seeds_t.slice(i, min(max_chains, b - i))
                for a, b in zip(cuts[:-1], cuts[1:])
                for i in range(a, b, max_chains)]

    def extract_records(self, fetched):
        # instance (not class): runs in the task pool — extraction is stateless,
        # the instance just pre-splits the extractor spec once
        return fetched.map_batches(
            ExtractRecords(self.cfg.extractor),
            batch_format="pyarrow",
            batch_size=self.cfg.fetch_batch_size,
        )

    # ------------------------------------------------------------------ runs

    def _load_robots_from_web(self) -> None:
        """T3 completion: probe ``http://<host>/robots.txt`` for every seed
        host THROUGH THE WEB SOURCE (plain probe tasks over chunks of the
        host list; one (host, body) row per host reaches the driver — the
        host list is always the small side) and merge the bodies into
        ``cfg.robots_txt`` for the fetch workers to parse.  Pre-supplied
        entries win — they act as operator overrides."""
        cfg = self.cfg
        urls = ([s[1] for s in (self.seeds or [])]
                + list(cfg.url_array or []))
        # each host keeps the scheme of the seed that introduced it — an
        # https-only corpus stores robots under https://, so a fixed http://
        # probe would silently find no rules; the other scheme stays as the
        # fallback probe
        str_urls = [u for u in urls if isinstance(u, str)]
        host_scheme: dict[str, str] = {}
        if str_urls:
            # one vectorized hosts_of over every URL — a per-URL call costs
            # a numpy array construction each on 10^7-URL crawls
            hs = hosts_of(np.array(str_urls, dtype=object))
            for u, h in zip(str_urls, hs):
                if h and h not in host_scheme:
                    host_scheme[h] = "https" \
                        if u.lower().startswith("https:") else "http"
        hosts = sorted(h for h in host_scheme if h not in cfg.robots_txt)
        if not hosts:
            return
        web_ref = self.web_ref

        class RobotsProbe:
            def __init__(self):
                self.store = make_store(web_ref)

            def __call__(self, batch: pa.Table) -> pa.Table:
                out_h, out_b = [], []
                for h, scheme in zip(batch["host"].to_pylist(),
                                     batch["scheme"].to_pylist()):
                    other = "https" if scheme == "http" else "http"
                    spans = (self.store.lookup_one(
                                 f"{scheme}://{h}/robots.txt")
                             or self.store.lookup_one(
                                 f"{other}://{h}/robots.txt"))
                    if spans:
                        out_h.append(h)
                        out_b.append("\n".join(
                            s["text"] for s in spans if s["text"]))
                return pa.table({"host": pa.array(out_h, pa.string()),
                                 "body": pa.array(out_b, pa.string())})

        probe = ray.remote(num_cpus=0.5)(per_process(RobotsProbe))
        t = pa.table({"host": pa.array(hosts),
                      "scheme": pa.array([host_scheme[h] for h in hosts])})
        # one probe task per 256 hosts, up to 4; more once one would
        # probe over 1024
        size = min(1024, -(-len(hosts) // min(4, len(hosts) // 256 + 1)))
        found = pa.concat_tables(ray.get(
            [probe.remote(t.slice(i, size))
             for i in range(0, len(hosts), size)]))
        for h, b in zip(found["host"].to_pylist(), found["body"].to_pylist()):
            cfg.robots_txt[h] = b

    def crawl(self) -> CrawlResult:
        """One crawl: round 0 (index pages, a sitemap or the URL list), the
        round-1 fetch groups and record extraction.  Returns the lazy
        records plan with the pages and the counters behind it; it waits
        for no round-1 counter."""
        cfg = self.cfg
        self.counters = []
        if cfg.respect_robots and cfg.fetch_robots:
            self._load_robots_from_web()
        t0 = time.perf_counter()
        if cfg.url_array is not None:
            frontier, index_pages = (self._frontier_from_url_array(),
                                     _no_index_pages())
        elif cfg.sitemap_url:
            frontier, index_pages = (self._frontier_from_sitemaps(),
                                     _no_index_pages())
        else:
            frontier, index_pages = self.get_index()
        self.stats["round0_s"] = time.perf_counter() - t0
        pages = self.fetch_instances(frontier)
        records = self.extract_records(pages).sort(
            ["instance_index", "pagination_index", "row_no"])
        return CrawlResult(records=records, pages=pages,
                           index_pages=index_pages,
                           counters=list(self.counters),
                           stats=dict(self.stats))
