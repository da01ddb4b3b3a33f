"""Sitemap-seeded crawling (engine extension; the sitemaps.org protocol).

The reference has no sitemap support (its seeds are ``index_url`` /
``url_array``, lib/upton.rb:78-114); a web-scale crawler gets most of its
frontier from sitemaps, so the engine grows a third seed source:
``CrawlConfig.sitemap_url``.  Expansion contract (deterministic, documented
so the conformance golden can pin it):

* A sitemap page in the span data model is a span document whose entries
  are ``(kind=LOC_KIND, media_ref=<page url>)`` for ``<urlset>`` URL
  entries and ``(kind=CHILD_KIND, media_ref=<child sitemap url>)`` for
  ``<sitemapindex>`` children.  Fixture webs encode sitemaps directly as
  these spans; :class:`upton_ray.fetch.HttpWebStore` converts real sitemap
  XML via :func:`sitemap_xml_to_spans` (wired into its decode step, the
  same seam that turns HTML into spans).
* Expansion is level-by-level to ``sitemap_max_depth``: seed pages are
  ordered by (depth, parent-rank, position-in-parent) — the order a
  sequential reader visiting each level's files in discovery order
  produces.  Relative ``<loc>`` values resolve against the sitemap's URL
  (M2 semantics).  A sitemap URL already expanded is skipped (cycle
  guard); the FILE set is driver-held and protocol-bounded (<=50k children
  per index), while the extracted page URLs stay a distributed Dataset and
  feed the same instance_index prefix-sum as index-page links.

Scale shape: each level is plain Ray tasks, one per chunk of at most 512
of the level's file URLs (each worker process opens the store once).  A
task returns two objects: its ``<loc>`` rows, already in the link schema,
and its child-file rows.  The driver fetches only the child rows (files,
never page URLs); the loc objects of every level become the links Dataset
(``from_arrow_refs``) without the driver ever seeing a page URL.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import ray
import ray.data

LOC_KIND = "urlset/url/loc"
CHILD_KIND = "sitemapindex/sitemap/loc"

LINKS = pa.schema([("seed_id", pa.int32()), ("page_no", pa.int32()),
                   ("dom_pos", pa.int32()), ("url", pa.string())])
_CHILD_ROWS = pa.schema([("rank", pa.int64()), ("pos", pa.int32()),
                         ("url", pa.string())])

_SM_SNIFF = re.compile(r"<\s*(urlset|sitemapindex)\b", re.I)


def sniff_sitemap(text: str) -> bool:
    """True if the body looks like a sitemap (root tag anywhere — a long
    comment/license prolog before <urlset> is spec-legal, so no prefix
    window).  Shared by the fetch path; one regex, one owner."""
    return _SM_SNIFF.search(text) is not None


def sitemap_xml_to_spans(xml: str) -> list[dict] | None:
    """Real sitemap XML -> span rows, or None if the body is not a sitemap
    (caller falls through to the HTML parser).  Namespace-agnostic: tags
    match on local name, the protocol's only structure that matters here
    (``urlset/url/loc`` and ``sitemapindex/sitemap/loc``)."""
    if not sniff_sitemap(xml):
        return None
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(xml)
    except ET.ParseError:
        return None
    local = root.tag.rsplit("}", 1)[-1].lower()
    if local == "urlset":
        entry_tag, kind = "url", LOC_KIND
    elif local == "sitemapindex":
        entry_tag, kind = "sitemap", CHILD_KIND
    else:
        return None
    spans, off = [], 0
    for child in root:
        if child.tag.rsplit("}", 1)[-1].lower() != entry_tag:
            continue
        for sub in child:
            if sub.tag.rsplit("}", 1)[-1].lower() == "loc":
                loc = (sub.text or "").strip()
                if loc:
                    spans.append({"kind": kind, "text": "",
                                  "media_ref": loc, "offset": off})
                    off += 1
                break
    return spans


def make_sitemap_probe(web_ref):
    """Probe of a chunk of one level's sitemap files (rank:int64, the
    file's discovery order; url:string); each worker process opens the
    store once (:func:`upton_ray.fetch.per_process`).  Returns the resolved
    ``<loc>`` rows as :data:`LINKS` (seed_id = rank, dom_pos = position
    among the file's locs) and the child rows as :data:`_CHILD_ROWS`."""
    from upton_ray.fetch import make_store, per_process
    from upton_ray.urlops import resolve_url

    class SitemapProbe:
        def __init__(self):
            self.store = make_store(web_ref)

        def __call__(self, batch: pa.Table) -> tuple[pa.Table, pa.Table]:
            out = {LOC_KIND: ([], [], []), CHILD_KIND: ([], [], [])}
            for rank, sm_url in zip(batch["rank"].to_pylist(),
                                    batch["url"].to_pylist()):
                spans = self.store.lookup_one(sm_url) or []
                # SEPARATE counters per kind: dom_pos must be dense over
                # the loc rows alone (the instance_index prefix-sum adds
                # base + dom_pos, so a gap from an interleaved child row
                # would collide the next file's first index), and child
                # ordering likewise counts only children
                pos = {LOC_KIND: 0, CHILD_KIND: 0}
                for s in spans:
                    k = s["kind"]
                    if k not in pos:
                        continue
                    loc = s["media_ref"]
                    if not loc:
                        continue
                    try:
                        resolved = resolve_url(loc, sm_url)
                    except Exception:
                        continue
                    ranks, poss, urls = out[k]
                    ranks.append(rank)
                    poss.append(pos[k])
                    urls.append(resolved)
                    pos[k] += 1
            ranks, poss, urls = out[LOC_KIND]
            return (pa.table([ranks, np.zeros(len(ranks), np.int32), poss,
                              urls], schema=LINKS),
                    pa.table(list(out[CHILD_KIND]), schema=_CHILD_ROWS))

    return per_process(SitemapProbe)


def expand_levels(web_ref, seed_url: str, max_depth: int = 3,
                  concurrency: int = 2):
    """Expand a sitemap (or sitemap-index tree) into a link Dataset with
    the (seed_id, page_no, dom_pos, url) schema of
    :func:`upton_ray.extract.extract_links_batch`, ready for the engine's
    instance_index prefix-sum.  Returns (links_ds, n_files).  A level's
    files split over ``concurrency`` probe tasks, more if one gets >512."""
    probe = ray.remote(num_cpus=0.5, num_returns=2)(
        make_sitemap_probe(web_ref))
    pending: list[tuple[int, str]] = [(0, seed_url)]
    visited = {seed_url}
    loc_refs = []
    n_files = 1
    for _depth in range(max_depth):
        if not pending:
            break
        files = pa.table({
            "rank": pa.array([r for r, _ in pending], pa.int64()),
            "url": pa.array([u for _, u in pending], pa.string())})
        size = min(512, -(-len(pending) // max(1, concurrency)))
        refs = [probe.remote(files.slice(i, size))
                for i in range(0, len(pending), size)]
        loc_refs += [locs for locs, _ in refs]
        # child FILES come to the driver (protocol-bounded), page URLs never
        kids = pa.concat_tables(ray.get([k for _, k in refs])).sort_by(
            [("rank", "ascending"), ("pos", "ascending")])
        pending = []
        for u in kids["url"].to_pylist():
            if u not in visited:
                visited.add(u)
                n_files += 1
                pending.append((n_files - 1, u))
    if not loc_refs:          # max_depth <= 0: empty frontier, not a crash
        return ray.data.from_arrow(LINKS.empty_table()), n_files
    return ray.data.from_arrow_refs(loc_refs), n_files
