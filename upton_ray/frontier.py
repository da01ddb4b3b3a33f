"""Frontier scheduling: per-host politeness with a min-heap of deadlines.

The reference's politeness is a single global ``sleep 30`` after every network
fetch (/root/reference/lib/upton.rb:220-223) — the degenerate one-host case.
The engine generalizes it (north_star): each fetch worker holds a min-heap of
``(next_allowed_time, host)`` and schedules the batch's URLs so that no host
is hit more often than its crawl-delay, while different hosts interleave
freely.  Cluster-wide per-host correctness comes from routing a host's URLs to
one fetch group (host-hash sharding; ``Crawler.fetch_instances``).  A hot
host (round 0's ``Crawler.stats``) is salted into sub-queues that lease its
windows from one seen shard (:meth:`upton_ray.seen.SeenShard.lease`).
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from upton_ray.urlops import hosts_of


class HostScheduler:
    """Per-host pacing state held inside one fetch worker (actor).

    ``order_batch`` returns the indices of a URL batch in fetch order
    (earliest-deadline-first across hosts); ``wait_turn`` blocks (capped) until
    the host's next-allowed time and advances it.
    """

    def __init__(self, crawl_delay: float, *, real_sleep: bool = False,
                 max_sleep: float = 0.05, per_host_delay: dict | None = None):
        self.delay = crawl_delay
        self.real_sleep = real_sleep
        self.max_sleep = max_sleep
        self.per_host_delay = per_host_delay or {}
        self.next_allowed: dict[str, float] = defaultdict(float)
        self.virtual_clock = 0.0      # advances even when not actually sleeping
        self.total_slept = 0.0

    def host_delay(self, host: str) -> float:
        return self.per_host_delay.get(host, self.delay)

    def order_batch(self, urls: np.ndarray) -> np.ndarray:
        """Earliest-deadline-first order over the batch's hosts (min-heap).

        Deadlines live in one clock domain, the one ``wait_turn`` uses
        (``time.monotonic()`` in real-sleep mode, the virtual clock
        otherwise): a host's first deadline is ``max(next_allowed, now)``.
        A never-fetched host (``next_allowed`` 0.0) and a hot host whose
        leased window opens now therefore tie instead of the leased host
        sorting after every cold one."""
        hosts = hosts_of(urls)
        heap: list[tuple[float, int, str]] = []
        pending: dict[str, list[int]] = defaultdict(list)
        for i, h in enumerate(hosts):
            pending[h].append(i)
        now = time.monotonic() if self.real_sleep else self.virtual_clock
        for h, idxs in pending.items():
            heapq.heappush(heap, (max(self.next_allowed[h], now), idxs[0], h))
        out = np.empty(len(urls), dtype=np.int64)
        pos = {h: 0 for h in pending}
        t = 0
        while heap:
            deadline, _, h = heapq.heappop(heap)
            idxs = pending[h]
            out[t] = idxs[pos[h]]
            t += 1
            pos[h] += 1
            if pos[h] < len(idxs):
                heapq.heappush(heap, (deadline + self.host_delay(h), idxs[pos[h]], h))
        return out

    def wait_turn(self, host: str) -> float:
        """Advance the host's deadline; really sleep only when configured.
        Real mode waits out the FULL deadline (in ``max_sleep`` chunks, so a
        shutdown isn't stuck in one long sleep) — an under-slept wait would
        break the politeness guarantee wall-clock. Returns the wait imposed."""
        d = self.host_delay(host)
        now = time.monotonic() if self.real_sleep else self.virtual_clock
        wait = max(0.0, self.next_allowed[host] - now)
        if self.real_sleep:
            while now < self.next_allowed[host]:
                time.sleep(min(self.next_allowed[host] - now, self.max_sleep))
                now = time.monotonic()
        self.virtual_clock = max(self.virtual_clock, now) + 0.0
        self.next_allowed[host] = max(now, self.next_allowed[host]) + d
        self.total_slept += wait
        return wait

    def wait_all(self) -> None:
        """Real mode: block (in ``max_sleep`` chunks) until every host's
        next-allowed time has passed — the reference sleeps after each
        fetch, so a fetch that starts after this returns, in any walker,
        keeps every host's delay."""
        if not (self.real_sleep and self.next_allowed):
            return
        end = max(self.next_allowed.values())
        now = time.monotonic()
        while now < end:
            time.sleep(min(end - now, self.max_sleep))
            now = time.monotonic()


def salt_hosts(hosts: np.ndarray, hot_hosts, num_salts: int,
               row_ids) -> np.ndarray:
    """Skew handling: the routing key per row — the host itself, or
    ``host#s<row_id % num_salts>`` for hosts in the globally-detected hot
    set (north_rule hot-host splitting).  ``row_ids`` are the rows'
    ``instance_index``: a row's salt depends on the row alone, never on the
    batch it arrives in, so a re-read frontier routes every URL to the same
    fetch group.  Salted sub-queues of one host still share that host's
    token bucket: pacing leases from :meth:`upton_ray.seen.SeenShard.lease`
    keyed by the TRUE host, never the salted key."""
    if not hot_hosts:
        return hosts
    h = pa.array(hosts, pa.string())
    hot = pc.is_in(h, value_set=pa.array(sorted(hot_hosts), pa.string()))
    salt = pa.array(np.asarray(row_ids, dtype=np.int64) % num_salts)
    salted = pc.binary_join_element_wise(h, pc.cast(salt, pa.string()), "#s")
    return pc.if_else(hot, salted, h).to_numpy(zero_copy_only=False)


def parse_robots_txt(text: str, agent: str = "*") -> tuple[list, float | None]:
    """Minimal robots.txt parser (the reference has no robots handling at
    all — engine extension T3): returns (disallow_prefixes, crawl_delay) for
    the best-matching User-agent group, falling back to ``*``.

    Understands the de-facto format: ``User-agent`` lines open a group
    (consecutive agent lines share one group), ``Disallow`` adds a path
    prefix (empty value = allow all), ``Crawl-delay`` sets seconds between
    fetches, ``#`` comments anywhere."""
    groups: dict[str, tuple[list, float | None]] = {}
    cur: list[str] = []
    in_rules = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            if in_rules:
                cur = []
                in_rules = False
            a = val.lower() or "*"
            cur.append(a)
            groups.setdefault(a, ([], None))
        elif key in ("disallow", "crawl-delay") and cur:
            in_rules = True
            for a in cur:
                dis, delay = groups[a]
                if key == "disallow":
                    if val:
                        dis.append(val)
                else:
                    try:
                        delay = float(val)
                    except ValueError:
                        pass
                groups[a] = (dis, delay)
    return groups.get(agent.lower()) or groups.get("*") or ([], None)


class RobotsCache:
    """Per-worker robots.txt decisions (engine extension; absent in reference —
    SURVEY.md §2.4 T3). Rules come from a broadcast {host: [disallow_prefix]}
    table; a real deployment would fetch/parse robots.txt per host and cache
    it here with the same interface."""

    def __init__(self, rules: dict[str, list[str]]):
        self.rules = rules

    def allowed_mask(self, urls: np.ndarray) -> np.ndarray:
        out = np.ones(len(urls), dtype=bool)
        if not self.rules:
            return out
        hosts = hosts_of(urls)
        for i, (u, h) in enumerate(zip(urls, hosts)):
            prefixes = self.rules.get(h)
            if prefixes:
                # path of the url
                j = u.find("/", u.find("://") + 3)
                path = u[j:] if j >= 0 else "/"
                out[i] = not any(path.startswith(p) for p in prefixes)
        return out
