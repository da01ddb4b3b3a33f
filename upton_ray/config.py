"""CrawlConfig — run configuration mirroring the reference Scraper accessors
(/root/reference/lib/upton.rb:37-39,78-114) plus the engine's distributed knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


@dataclass
class CrawlConfig:
    # --- reference-visible configuration (upton.rb defaults at :78-114) ---
    index_url: Optional[str] = None
    index_selector: str = ""
    url_array: Optional[Sequence[str]] = None   # explicit instance list (S1)
    verbose: bool = False
    debug: bool = True                 # stash instance pages (T1)
    index_debug: bool = False          # stash index pages
    sleep_time_between_requests: float = 30.0   # politeness budget (T2)
    paginated: bool = False
    pagination_param: str = "page"
    pagination_max_pages: int = 2
    pagination_start_index: int = 1
    pagination_interval: int = 1
    readable_filenames: bool = False
    stash_folder: Optional[str] = None  # checkpoint dir (engine: Lance/parquet tables)

    # extraction UDF: "identity" | "css:<sel>" | "list:<sel>" | "table:<sel>"
    # or a callable (spans, url, instance_index, pagination_index) -> record
    extractor: object = "identity"

    # instance-pagination successor (P3; default none — upton.rb:127-129)
    next_instance_page_url: Optional[Callable[[str, int], str]] = None
    # index-pagination successor override (P1; subclass hook upton.rb:149 —
    # custom index sources / nonstandard pagination). None = the standard
    # query-param successor driven by the pagination_* fields
    next_index_page_url: Optional[Callable[[str, int], str]] = None

    # --- engine extensions (absent in the reference; north_rule requirements) ---
    # sitemap seeding (upton_ray.sitemap): expand a sitemap / sitemap-index
    # tree into the instance frontier. Seed precedence: url_array >
    # sitemap_url > index_url. Sitemap-file fetches are frontier
    # CONSTRUCTION (like the robots probe): unpaced, unstashed, outside
    # sleep accounting — the politeness budget governs page fetches.
    sitemap_url: Optional[str] = None
    sitemap_max_depth: int = 3
    robots: dict = field(default_factory=dict)   # host -> list of disallowed prefixes
    robots_txt: dict = field(default_factory=dict)  # host -> raw robots.txt body
    respect_robots: bool = False
    # fetch http://<host>/robots.txt from the web source itself at crawl
    # start (distributed probe, one result row per host) instead of — or in
    # addition to — the pre-supplied robots/robots_txt tables
    fetch_robots: bool = False
    # url -> http status: status-only fault injection.  A listed URL answers
    # with that status at once (a non-200 one yields the empty page, M8);
    # nothing is retried.  The bounded timeout retry (T4) is
    # HttpWebStore(max_retries=...).
    status_overlay: dict = field(default_factory=dict)
    canonicalize_seen: bool = False    # key the seen set by canonical URL form
                                       # (reference semantics: raw URL keys —
                                       # distinct query-string orderings are
                                       # distinct cache entries)
    real_sleep: bool = False           # tests/bench count sleeps instead of sleeping
                                       # (real_sleep with a delay > 0 = a paced
                                       # crawl: fetch groups are host shards)
    max_sleep: float = 0.05            # cap on actual sleep when real_sleep

    # --- skew handling (north_rule: hot-host splitting, shared token bucket) ---
    hot_host_threshold: Optional[int] = None  # frontier URLs per host; None = off
                                              # (paced crawls only)
    hot_host_salts: int = 8                   # sub-queues per hot host

    # --- distributed shape ---
    seen_exact: bool = True   # False = filters-only membership (10^10-URL
                              # memory config; a filter FP may skip a fetch)
    num_seen_shards: int = 8
    seen_capacity_per_shard: int = 1_000_000   # cuckoo sizing (approximate mode only)
    # round-0 walk / sitemap task concurrency, and the round-1 fetch group
    # count of every crawl but an unpaced one over a bucketed corpus (which
    # walks one group per corpus bucket; Crawler.fetch_instances)
    fetch_concurrency: int = 4
    fetch_batch_size: int = 256
