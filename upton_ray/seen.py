"""Partitioned URL-seen set: the distributed re-expression of the reference's
filesystem stash keyed by MD5(url) (/root/reference/lib/upton/downloader.rb:70-143).

Design (SURVEY.md §2.4 T1): N shard actors, routed by a stable string hash of
the url.  Each shard holds ONE membership structure, fixed at construction:

* exact mode (the default): a Python set of the URLs — exact answers, an
  enumerable checkpoint, and plain set removal for re-crawl invalidation;
* approximate mode (``seen_exact=False``, the 10^10-URL memory config): a
  deletable :class:`Cuckoo` filter alone, trading a bounded false-positive
  rate (a skipped fetch) for ~25x less memory.  It cannot be checkpointed.

``check_and_add`` is the one batch RPC the fetch stage needs: it returns, per
url, whether the url was NEW (and atomically marks it seen).  Duplicates
*within* one call count once — matching stash semantics where the first fetch
writes the cache file and the second read hits it.

Exact shards checkpoint their sets (parquet, one file per shard) for crawl
resume.  A shard also keeps the URLs whose stashed body is an error page
(``bad``), a fact separate from membership.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

def _hash2(urls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(urls, dtype=object)
    h1 = pd.util.hash_array(arr, categorize=False)
    h2 = pd.util.hash_array(arr, hash_key="upton_ray_seen_2", categorize=False)
    return h1, h2


class Cuckoo:
    """Numpy cuckoo filter — the deletable approximate-membership structure
    of an approximate-mode shard (north_star: "cuckoo fallback for
    deletions"): unlike a bloom it can forget an invalidated URL.

    4-slot buckets of uint16 fingerprints (0 = empty); partial-key cuckoo
    hashing: bucket2 = bucket1 XOR hash(fingerprint).  At 10^10 URLs this is
    ~2.25 bytes/key/shard vs ~60+ for a Python set — the memory scale path;
    exact mode, which conformance needs, holds a set instead.
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int = 1_000_000):
        n_buckets = 1
        while n_buckets * self.SLOTS < capacity * 1.05:
            n_buckets *= 2
        self.m = n_buckets                      # power of two -> mask indexing
        self.table = np.zeros((n_buckets, self.SLOTS), dtype=np.uint16)
        self.count = 0
        # overfull-table safety net: fingerprints _insert_one couldn't place
        # (MAX_KICKS exhausted) land here so membership NEVER false-negatives
        # on an added key — a dropped insert would mean a permanent refetch
        # loop in approximate mode.  Bounded: non-empty only past ~95% load,
        # where the filter should have been sized larger anyway (n_spilled
        # makes saturation visible to operators).
        self.spill: set[tuple[int, int]] = set()   # (bucket1, fp)

    def _fp_and_buckets(self, h1: np.ndarray, h2: np.ndarray):
        fp = (h2 % np.uint64(65535) + np.uint64(1)).astype(np.uint16)
        i1 = (h1 & np.uint64(self.m - 1)).astype(np.int64)
        # bucket2 derived from (bucket1, fp) only — so membership/deletion can
        # recover both candidate buckets from a stored fingerprint alone
        i2 = (i1 ^ (fp.astype(np.uint64) * np.uint64(0x5BD1E995)
                    & np.uint64(self.m - 1)).astype(np.int64))
        return fp, i1, i2

    def _alt(self, i: int, fp: int) -> int:
        return i ^ int(np.uint64(fp) * np.uint64(0x5BD1E995)
                       & np.uint64(self.m - 1))

    def _spill_key(self, i: int, fp: int) -> tuple[int, int]:
        """Canonical (bucket, fp) key: the lower of the two candidate
        buckets, so lookups from either bucket find the spilled entry."""
        return (min(i, self._alt(i, fp)), fp)

    def _insert_one(self, i1: int, i2: int, fp: int,
                    rng: np.random.Generator) -> tuple[int, int] | None:
        """None on success; on an overfull table, the HOMELESS (bucket, fp)
        — note kicks displace OTHER fingerprints, so the unplaced one is
        generally not the one being inserted."""
        for i in (i1, i2):
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return None
        i = i1
        for _ in range(self.MAX_KICKS):
            slot = int(rng.integers(self.SLOTS))
            fp, self.table[i, slot] = int(self.table[i, slot]), fp
            i = self._alt(i, fp)
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return None
        return (i, fp)    # table overfull — add() spills this fingerprint

    def add(self, h1: np.ndarray, h2: np.ndarray) -> int:
        """Insert all items; unplaceable fingerprints go to the spill set so
        membership stays complete. Returns the number spilled."""
        fp, i1, i2 = self._fp_and_buckets(h1, h2)
        rng = np.random.default_rng(0xC0FFEE ^ self.count)
        spilled = 0
        for a, b, f in zip(i1, i2, fp):
            homeless = self._insert_one(int(a), int(b), int(f), rng)
            if homeless is not None:
                key = self._spill_key(*homeless)
                # count only a genuinely-new spill entry: past saturation the
                # same homeless fingerprint can recur, and set.add is a no-op
                # while delete decrements once per key — unconditional
                # increments would drift count above true occupancy
                if key not in self.spill:
                    self.spill.add(key)
                    self.count += 1
                    spilled += 1
        return spilled

    @property
    def n_spilled(self) -> int:
        return len(self.spill)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        fp, i1, i2 = self._fp_and_buckets(h1, h2)
        f = fp[:, None]
        out = ((self.table[i1] == f).any(axis=1)
               | (self.table[i2] == f).any(axis=1))
        if self.spill:
            for n in np.flatnonzero(~out):
                if (min(int(i1[n]), int(i2[n])), int(fp[n])) in self.spill:
                    out[n] = True
        return out

    def delete(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Remove one copy of each item's fingerprint; True where found."""
        fp, i1, i2 = self._fp_and_buckets(h1, h2)
        out = np.zeros(len(fp), dtype=bool)
        for n, (a, b, f) in enumerate(zip(i1, i2, fp)):
            key = (min(int(a), int(b)), int(f))
            if key in self.spill:
                self.spill.discard(key)
                self.count -= 1
                out[n] = True
                continue
            for i in (int(a), int(b)):
                row = self.table[i]
                hit = np.flatnonzero(row == f)
                if len(hit):
                    row[hit[0]] = 0
                    self.count -= 1
                    out[n] = True
                    break
        return out


@ray.remote(num_cpus=0)
class SeenShard:
    """One shard of the URL-seen set.

    Exact mode holds a ``set[str]`` of URLs and nothing else; approximate
    mode holds a :class:`Cuckoo` filter sized by ``capacity`` and nothing
    else — the filter IS the membership surface, so a false positive (rate
    set by ``capacity``) skips a fetch of a genuinely-new URL. Every
    membership method branches on the mode once.  A shard is also the
    crawl's politeness bucket for split hot hosts (:meth:`lease`)."""

    def __init__(self, capacity: int = 1_000_000, approximate: bool = False):
        self.approximate = approximate
        self.cuckoo = Cuckoo(capacity) if approximate else None
        self.exact: set[str] | None = None if approximate else set()
        self.n_seen = 0              # approximate mode's size (a filter has no len)
        self.bad: set[str] = set()   # URLs whose stashed body is empty (error pages)
        # per hot host: window end, first window start, fetches, leases
        self.next_allowed: dict[str, float] = {}
        self.first_start: dict[str, float] = {}
        self.granted: dict[str, int] = {}
        self.leases: dict[str, int] = {}

    def lease(self, host: str, n: int, delay: float) -> float:
        """Grant a window of ``n`` fetches of a hot host; return the WAIT
        (seconds) until it opens.  A hot host's salted sub-queues lease
        here from several workers; windows never overlap, so its global
        rate stays <= 1/delay.  Only this actor's clock is read: worker
        clocks on a multi-node cluster can skew."""
        import time

        t = time.time()
        start = max(self.next_allowed.get(host, t), t)
        self.first_start.setdefault(host, start)
        self.next_allowed[host] = start + n * delay
        self.granted[host] = self.granted.get(host, 0) + n
        self.leases[host] = self.leases.get(host, 0) + 1
        return start - t

    def state(self):
        return (dict(self.next_allowed), dict(self.granted),
                dict(self.leases))

    def spans(self):
        """Per-host (first_start, next_allowed): the busy window, of
        length granted x delay."""
        return {h: (self.first_start[h], self.next_allowed[h])
                for h in self.first_start}

    def invalidate(self, urls: list[str]) -> int:
        """Re-crawl invalidation: forget these URLs (and their error-page
        marks) so the next crawl refetches them. Returns the number of
        distinct URLs that were seen."""
        self.bad.difference_update(urls)
        if self.approximate:
            if not urls:
                return 0
            n = int(self.cuckoo.delete(
                *_hash2(np.asarray(urls, dtype=object))).sum())
            self.n_seen -= n
            return n
        before = len(self.exact)
        self.exact.difference_update(urls)
        return before - len(self.exact)

    def check_and_add(self, urls: list[str]) -> np.ndarray:
        """Per-url: True if NEW (first sighting, now marked seen)."""
        if self.approximate:
            if not urls:
                return np.zeros(0, dtype=bool)
            arr = np.asarray(urls, dtype=object)
            h1, h2 = _hash2(arr)
            # new = filter-negative AND first occurrence in this call (the
            # filter is probed for the whole batch before any add, so
            # intra-call duplicates would otherwise all read "new")
            first = ~pd.Series(arr).duplicated().to_numpy()
            new = first & ~self.cuckoo.contains(h1, h2)
            if new.any():
                self.cuckoo.add(h1[new], h2[new])
            self.n_seen += int(new.sum())
            return new
        new = np.empty(len(urls), dtype=bool)
        exact = self.exact
        for i, u in enumerate(urls):
            is_new = u not in exact
            new[i] = is_new
            if is_new:
                exact.add(u)
        return new

    def contains(self, urls: list[str]) -> np.ndarray:
        if self.approximate:
            if not urls:
                return np.zeros(0, dtype=bool)
            return self.cuckoo.contains(*_hash2(np.asarray(urls, dtype=object)))
        return np.array([u in self.exact for u in urls], dtype=bool)

    def add(self, urls: list[str]) -> int:
        if self.approximate:
            h1, h2 = _hash2(np.asarray(urls, dtype=object))
            fresh = ~self.cuckoo.contains(h1, h2)
            if fresh.any():
                self.cuckoo.add(h1[fresh], h2[fresh])
            self.n_seen += int(fresh.sum())
            return self.n_seen
        self.exact.update(urls)
        return len(self.exact)

    def record_bad(self, urls: list[str]) -> None:
        self.bad.update(urls)

    def bad_mask(self, urls: list[str]) -> np.ndarray:
        if not self.bad:
            return np.zeros(len(urls), dtype=bool)
        return np.array([u in self.bad for u in urls], dtype=bool)

    def size(self) -> int:
        return self.n_seen if self.approximate else len(self.exact)

    def dump_bad(self) -> list[str]:
        return sorted(self.bad)

    def dump_parquet(self, path: str) -> int:
        """Write this shard's (url, bad) rows to its OWN parquet file —
        checkpointing scales with the shard, never the driver (which would
        otherwise hold the full URL set). Atomic via tmp+rename."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        urls = sorted(self.exact)
        bad = sorted(self.bad)
        t = pa.table({
            "url": pa.array(urls + bad, pa.string()),
            "bad": pa.array([False] * len(urls) + [True] * len(bad))})
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        import os

        os.replace(tmp, path)
        return t.num_rows


@ray.remote(num_cpus=0)
class IdShard:
    """One shard of a distributed int64-id membership set (the "does this
    doc exist" gate for graph expansion, e.g. :func:`datapipe.crawl_bfs`).

    Unlike :class:`SeenShard` (string URLs in a set or a cuckoo) this is
    int-native: ids are ingested as numpy arrays by distributed map_batches
    tasks — the driver never reads the id column — then finalized into ONE
    sorted array per shard (searchsorted membership, ~8 B/id/shard). A
    parallel ``claimed`` bitmap aligned to the sorted array gives the
    check-and-claim gate (exists AND first claimer) with zero extra key
    storage."""

    def __init__(self):
        self.parts: list[np.ndarray] = []
        self.ids = np.empty(0, dtype=np.int64)
        self.claimed = np.zeros(0, dtype=bool)
        self.final = False

    def add(self, ids: np.ndarray) -> int:
        assert not self.final, "IdShard.add after finalize"
        self.parts.append(np.asarray(ids, dtype=np.int64))
        return len(ids)

    def finalize(self) -> int:
        if not self.final:
            self.ids = (np.unique(np.concatenate(self.parts))
                        if self.parts else np.empty(0, dtype=np.int64))
            self.parts = []
            self.claimed = np.zeros(len(self.ids), dtype=bool)
            self.final = True
        return len(self.ids)

    def contains(self, ids: np.ndarray) -> np.ndarray:
        q = np.asarray(ids, dtype=np.int64)
        if len(self.ids) == 0 or len(q) == 0:
            return np.zeros(len(q), dtype=bool)
        pos = np.searchsorted(self.ids, q)
        inb = pos < len(self.ids)
        out = np.zeros(len(q), dtype=bool)
        out[inb] = self.ids[pos[inb]] == q[inb]
        return out

    def claim(self, ids: np.ndarray) -> np.ndarray:
        """Per-id: True iff the id EXISTS in the set and this call is its
        first claim (atomic within the actor). Intra-call duplicates count
        once — same contract as SeenShard.check_and_add."""
        q = np.asarray(ids, dtype=np.int64)
        hit = self.contains(q)
        out = np.zeros(len(q), dtype=bool)
        if hit.any():
            pos = np.searchsorted(self.ids, q[hit])
            new = ~self.claimed[pos]
            # first occurrence within this call wins; later duplicates see
            # the bitmap already set because np assignment below is ordered
            first = np.zeros(len(pos), dtype=bool)
            _, first_idx = np.unique(pos, return_index=True)
            first[first_idx] = True
            ok = new & first
            self.claimed[pos[ok]] = True
            out[np.flatnonzero(hit)[ok]] = True
        return out

    def size(self) -> int:
        return len(self.ids)


class IdMembership:
    """Picklable handle over :class:`IdShard` actors — batched routed RPCs,
    same shape as :class:`SeenSet` but for int64 ids. Populate it
    DISTRIBUTEDLY (call :meth:`add` from inside map_batches tasks over the
    id column), then :meth:`finalize` once before membership queries."""

    #: multiplicative mix so arithmetic id patterns (e.g. BFS children
    #: 3d+1..3d+3) spread across shards instead of landing modulo-striped
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, num_shards: int = 4):
        self.num_shards = num_shards
        self.shards = [IdShard.remote() for _ in range(num_shards)]

    def _route(self, ids: np.ndarray) -> np.ndarray:
        h = ids.astype(np.uint64) * self._MIX
        return ((h >> np.uint64(33)) % np.uint64(self.num_shards)).astype(
            np.int64)

    def _scatter(self, method: str, ids) -> np.ndarray:
        arr = np.asarray(ids, dtype=np.int64)
        if len(arr) == 0:
            return np.zeros(0, dtype=bool)
        shard_ids = self._route(arr)
        out = np.zeros(len(arr), dtype=bool)
        futs, idxs = [], []
        for s in np.unique(shard_ids):
            idx = np.flatnonzero(shard_ids == s)
            futs.append(getattr(self.shards[s], method).remote(arr[idx]))
            idxs.append(idx)
        for idx, res in zip(idxs, ray.get(futs)):
            out[idx] = res
        return out

    def add(self, ids) -> None:
        arr = np.asarray(ids, dtype=np.int64)
        if len(arr) == 0:
            return
        shard_ids = self._route(arr)
        ray.get([self.shards[s].add.remote(arr[shard_ids == s])
                 for s in np.unique(shard_ids)])

    def finalize(self) -> int:
        return sum(ray.get([s.finalize.remote() for s in self.shards]))

    def contains(self, ids) -> np.ndarray:
        return self._scatter("contains", ids)

    def claim(self, ids) -> np.ndarray:
        return self._scatter("claim", ids)

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def kill(self) -> None:
        for sh in self.shards:
            ray.kill(sh, no_restart=True)
        self.shards = []


class SeenSet:
    """Driver/worker-side handle: routes url batches to shard actors.

    The handle is picklable (actor handles serialize), so fetch-stage actors
    can hold one and issue batched membership RPCs from inside map_batches.
    """

    def __init__(self, num_shards: int = 8, capacity_per_shard: int = 1_000_000,
                 approximate: bool = False):
        self.num_shards = num_shards
        self.approximate = approximate
        self.shards = [SeenShard.remote(capacity_per_shard, approximate)
                       for _ in range(num_shards)]

    def _route(self, urls: np.ndarray) -> np.ndarray:
        h = pd.util.hash_array(np.asarray(urls, dtype=object), categorize=False)
        return (h % np.uint64(self.num_shards)).astype(np.int64)

    def _per_shard(self, method: str, urls) -> list[tuple[np.ndarray, object]]:
        """Call shard ``method`` once per shard with that shard's slice of
        ``urls``, all RPCs in flight together. Returns (positions in
        ``urls``, result) per shard."""
        arr = np.asarray(urls, dtype=object)
        if len(arr) == 0:
            return []
        shard_ids = self._route(arr)
        idxs = [np.flatnonzero(shard_ids == s) for s in np.unique(shard_ids)]
        futs = [getattr(self.shards[shard_ids[idx[0]]], method).remote(
                    arr[idx].tolist()) for idx in idxs]
        return list(zip(idxs, ray.get(futs)))

    def _mask(self, method: str, urls) -> np.ndarray:
        """Per-url bool answer of shard ``method``, in input order."""
        out = np.zeros(len(urls), dtype=bool)
        for idx, res in self._per_shard(method, urls):
            out[idx] = res
        return out

    def check_and_add(self, urls) -> np.ndarray:
        """Batched fetch-once gate; preserves input order. True = new."""
        return self._mask("check_and_add", urls)

    def contains(self, urls) -> np.ndarray:
        return self._mask("contains", urls)

    def add(self, urls) -> None:
        self._per_shard("add", urls)

    def record_bad(self, urls) -> None:
        self._per_shard("record_bad", urls)

    def invalidate(self, urls) -> int:
        """Re-crawl invalidation: forget these URLs on their shards so the
        next crawl fetches them fresh. Returns the number of distinct URLs
        that were actually seen."""
        return sum(n for _, n in self._per_shard("invalidate", urls))

    def bad_mask(self, urls) -> np.ndarray:
        return self._mask("bad_mask", urls)

    def dump_bad(self) -> list[str]:
        out: list[str] = []
        for part in ray.get([s.dump_bad.remote() for s in self.shards]):
            out.extend(part)
        return out

    def restore(self, urls, bad) -> None:
        self.add(urls)
        self.record_bad(bad)

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def checkpoint(self, dir_path: str) -> int:
        """Each shard writes its own parquet file under ``dir_path`` in
        parallel; the driver never holds the URL set. Returns total rows.

        Approximate mode refuses to checkpoint: filter-only shards hold no
        enumerable URL set, so a dump would silently persist an EMPTY seen
        set and a later restore would refetch the whole crawl (or worse,
        re-emit records a resumed run already wrote). Exact mode clears any
        previous shard files first — a shrunk ``num_shards`` must not leave
        stale higher-numbered shards to be re-ingested by the next restore."""
        if self.approximate:
            raise ValueError(
                "cannot checkpoint an approximate-mode SeenSet: filter-only "
                "membership is not enumerable; use seen_exact=True for "
                "resumable crawls")
        import os

        os.makedirs(dir_path, exist_ok=True)
        for f in os.listdir(dir_path):
            if f.endswith(".parquet"):
                os.remove(os.path.join(dir_path, f))
        return sum(ray.get([
            s.dump_parquet.remote(os.path.join(dir_path, f"shard-{i}.parquet"))
            for i, s in enumerate(self.shards)]))

    def kill(self) -> None:
        """Release the shard actors."""
        for sh in self.shards:
            ray.kill(sh, no_restart=True)
        self.shards = []
