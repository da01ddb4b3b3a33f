"""Extraction stages: link discovery and record extraction over span batches.

Page-level semantics replicate the reference exactly:

* link discovery  = ``parse_index``            (/root/reference/lib/upton.rb:281-288)
* "css:<sel>"     = Nokogiri ``.css(sel).text`` (concatenated text of ALL matches;
  "" when none — quirk Q1)                     (spec/upton_spec.rb:59-62)
* "list:<sel>"    = ``Upton::Utils.list``      (/root/reference/lib/upton/utils.rb:35-40)
* "table:<sel>"   = ``Upton::Utils.table`` incl. the header quirks Q6
  (all-``th`` header row; empty row for the header ``tr``) (utils.rb:20-30)

The batch-level entry points are vectorized over zero-copy Arrow span batches
(``pc.list_flatten`` / ``pc.list_parent_indices`` + numpy): css, identity and
list records come from one Arrow list kernel (``pc.binary_join`` over each
page's matched texts); per-row Python is confined to table and callable
extractors.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from upton_ray import schema
from upton_ray.selector import cell_of, kind_match_mask, selector_regex
from upton_ray.urlops import _ABS_SCHEME

import re as _re

# ------------------------------------------------------------- page level


def match_spans(spans: list[dict], selector: str) -> list[dict]:
    rx = selector_regex(selector)
    if rx is None:
        return []
    crx = _re.compile(rx)
    return [s for s in spans if crx.search(s["kind"])]


def extract_links_page(spans: list[dict], selector: str) -> list[str | None]:
    """Hrefs of matching link spans in offset order; spans without an href
    (media_ref == "") yield None, kept positionally (quirk Q2)."""
    return [s["media_ref"] if s["media_ref"] else None for s in match_spans(spans, selector)]


def extract_css_text(spans: list[dict], selector: str) -> str:
    return "".join(s["text"] for s in match_spans(spans, selector))


def extract_list_texts(spans: list[dict], selector: str) -> list[str]:
    return [s["text"] for s in match_spans(spans, selector)]


def extract_table_rows(spans: list[dict], selector: str) -> list[list[str]]:
    """Utils.table semantics: row 0 = texts of all th under the matched table
    (document order); then one row per tr = texts of its tds (header tr -> [])."""
    rx = selector_regex(selector, prefix=True)
    if rx is None:
        return [[]]
    crx = _re.compile(rx)
    cells = [s for s in spans if crx.search(s["kind"])]
    header: list[str] = []
    rows: dict[int, list[str]] = {}
    order: list[int] = []
    for s in cells:
        tag, tr = cell_of(s["kind"])
        if tr and tr not in rows:
            rows[tr] = []
            order.append(tr)
        if tag == "th":
            header.append(s["text"])
        elif tag == "td" and tr:
            rows[tr].append(s["text"])
    return [header] + [rows[tr] for tr in order]


def apply_extractor(extractor, spans: list[dict], url: str,
                    instance_index: int, pagination_index: int):
    """The user scrape block (M3). Returns (doc_kind, rows) where rows is a
    list of list[str]; scalar documents are a single 1-element row."""
    if callable(extractor):
        out = extractor(spans, url, instance_index, pagination_index)
        if out is None:
            return "none", [[]]
        if isinstance(out, str):
            return "scalar", [[out]]
        if out and isinstance(out[0], (list, tuple)):
            return "table", [list(map(str, r)) for r in out]
        return "list", [list(map(str, out))]
    if extractor == "identity":
        # reference identity block returns the raw page HTML (upton.rb:49);
        # span-world equivalent: the page's text content, newline-joined
        return "scalar", [["\n".join(s["text"] for s in spans if s["text"])]]
    kind, _, sel = extractor.partition(":")
    if kind == "css":
        return "scalar", [[extract_css_text(spans, sel)]]
    if kind == "list":
        return "list", [extract_list_texts(spans, sel)]
    if kind == "table":
        return "table", extract_table_rows(spans, sel)
    raise ValueError(f"unknown extractor {extractor!r}")


# ------------------------------------------------------------- batch level


def _parents_and_flat(spans_col) -> tuple[np.ndarray, pa.Array]:
    """(parent row index per span, flattened span struct array) — zero-copy."""
    if isinstance(spans_col, pa.ChunkedArray):
        spans_col = spans_col.combine_chunks()
    parents = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
    return parents, pc.list_flatten(spans_col)


def _rank_within_parent(parents: np.ndarray) -> np.ndarray:
    """For a sorted parent-index array, the 0-based rank of each element
    within its parent group (vectorized)."""
    if len(parents) == 0:
        return np.zeros(0, dtype=np.int32)
    starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
    group_start = np.repeat(starts, np.diff(np.r_[starts, len(parents)]))
    return (np.arange(len(parents)) - group_start).astype(np.int32)


class _BaseResolver:
    """Row-wise URL resolution against per-row bases, with per-base memoization
    (Q3: every link on a seed's index pages resolves against that seed's URL)."""

    def __init__(self):
        self._cache: dict[str, tuple[str, str]] = {}

    def _parts(self, base: str) -> tuple[str, str]:
        hit = self._cache.get(base)
        if hit is None:
            sp = urlsplit(base)
            origin = f"{sp.scheme}://{sp.netloc}"
            base_dir = base[: base.rfind("/") + 1] if "/" in sp.path else origin + "/"
            hit = (origin, base_dir)
            self._cache[base] = hit
        return hit

    def resolve(self, hrefs: np.ndarray, bases: np.ndarray) -> np.ndarray:
        out = np.empty(len(hrefs), dtype=object)
        for i, (h, base) in enumerate(zip(hrefs, bases)):
            if h is None:
                out[i] = None
            elif _ABS_SCHEME.match(h):
                out[i] = h
            elif h == "":
                out[i] = base
            else:
                origin, base_dir = self._parts(base)
                if h.startswith("//"):
                    out[i] = base.split(":", 1)[0] + ":" + h
                elif h.startswith("/"):
                    out[i] = origin + h
                elif h[0] not in "?#." and ".." not in h and "/./" not in h:
                    out[i] = base_dir + h
                else:
                    out[i] = urljoin(base, h)
        return out


def extract_links_batch(batch: pa.Table) -> pa.Table:
    """Index-page link discovery (M1+M2), vectorized.

    Input columns: seed_id:int32, page_no:int32, base:string (the seed
    @index_url), selector:string (constant per seed), spans.
    Output: seed_id, page_no, dom_pos, url (nullable — quirk Q2).
    """
    n = batch.num_rows
    if n == 0:
        return pa.table({"seed_id": pa.array([], pa.int32()),
                         "page_no": pa.array([], pa.int32()),
                         "dom_pos": pa.array([], pa.int32()),
                         "url": pa.array([], pa.string())})
    parents, flat = _parents_and_flat(batch["spans"])
    kinds = flat.field("kind")
    media = flat.field("media_ref")

    selectors = batch["selector"].to_numpy(zero_copy_only=False)
    uniq = np.unique(selectors)
    mask = np.zeros(len(parents), dtype=bool)
    for sel in uniq:
        sel_rows = np.flatnonzero(selectors == sel)
        row_mask = np.zeros(n, dtype=bool)
        row_mask[sel_rows] = True
        mask |= kind_match_mask(kinds, sel) & row_mask[parents]

    midx = np.flatnonzero(mask)
    mparents = parents[midx]
    dom_pos = _rank_within_parent(mparents)
    hrefs = media.take(pa.array(midx)).to_numpy(zero_copy_only=False)
    hrefs = np.where(hrefs == "", None, hrefs)
    bases = batch["base"].to_numpy(zero_copy_only=False)[mparents]
    urls = _BaseResolver().resolve(hrefs, bases)

    seed_ids = batch["seed_id"].to_numpy(zero_copy_only=False)[mparents]
    page_nos = batch["page_no"].to_numpy(zero_copy_only=False)[mparents]
    return pa.table({
        "seed_id": pa.array(seed_ids, pa.int32()),
        "page_no": pa.array(page_nos, pa.int32()),
        "dom_pos": pa.array(dom_pos, pa.int32()),
        "url": pa.array(urls, pa.string()),
    })


def _matched_texts(spans_col: pa.ChunkedArray, n: int, kind: str,
                   sel: str) -> pa.ListArray:
    """Each row's matched span texts in span-offset order, as a
    ``list<string>`` array of length ``n``: css/list match ``sel`` against
    the span kind, identity keeps every non-empty text.  A null ``spans`` row
    yields ``[]``; a null span text reads as ``""``."""
    # chunk by chunk, without combining the span column: only the matched
    # texts are copied; list_parent_indices numbers rows across chunks
    parents = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(spans_col)
    texts = pc.fill_null(pc.struct_field(flat, "text"), "")
    if kind == "identity":
        mask = pc.not_equal(texts, "").to_numpy(zero_copy_only=False)
    else:
        mask = kind_match_mask(pc.struct_field(flat, "kind"), sel)
    # parents are sorted, so row i's matches are one contiguous run
    offsets = np.searchsorted(parents[mask], np.arange(n + 1))
    values = texts.filter(pa.array(mask)).combine_chunks()
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


class ExtractRecords:
    """Record-extraction stage (the user scrape block, M3-M5) as a callable
    class for ``map_batches``: selector paths are normalized once per actor.

    Input columns: instance_index:int64, pagination_index:int32,
    instance_url:string, spans. Output: RECORDS schema rows (table documents
    exploded to one row per table row — the CSV dispatch of upton.rb:173-180).
    css, identity and list run as one Arrow list kernel per batch; per-row
    Python is confined to table and callable extractors.
    """

    def __init__(self, extractor):
        self.extractor = extractor
        self._named = isinstance(extractor, str)
        if self._named and extractor != "identity":
            self._kind, _, self._sel = extractor.partition(":")
        elif self._named:
            self._kind, self._sel = "identity", ""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if self._named and self._kind in ("css", "identity", "list"):
            return self._vector(batch)
        # table/callable: per-row python over (small) matched span sets
        spans_py = batch["spans"].to_pylist()
        urls = batch["instance_url"].to_pylist()
        iis = batch["instance_index"].to_pylist()
        pis = batch["pagination_index"].to_pylist()
        out = {k: [] for k in ("instance_index", "pagination_index", "row_no",
                               "instance_url", "record", "doc_kind")}
        for i in range(n):
            kind, rows = apply_extractor(self.extractor, spans_py[i] or [],
                                         urls[i], iis[i], pis[i])
            for rno, row in enumerate(rows):
                out["instance_index"].append(iis[i])
                out["pagination_index"].append(pis[i])
                out["row_no"].append(rno)
                out["instance_url"].append(urls[i])
                out["record"].append(row)
                out["doc_kind"].append(kind)
        return pa.table({
            "instance_index": pa.array(out["instance_index"], pa.int64()),
            "pagination_index": pa.array(out["pagination_index"], pa.int32()),
            "row_no": pa.array(out["row_no"], pa.int32()),
            "instance_url": pa.array(out["instance_url"], pa.string()),
            "record": pa.array(out["record"], pa.list_(pa.string())),
            "doc_kind": pa.array(out["doc_kind"], pa.string()),
        })

    def _vector(self, batch: pa.Table) -> pa.Table:
        """css/identity/list: one record per page from the matched-text
        lists — the list itself (list), or its concatenation as a scalar
        (css joins with "", identity with a newline)."""
        n = batch.num_rows
        lists = _matched_texts(batch["spans"], n, self._kind, self._sel)
        if self._kind == "list":
            rec, doc_kind = lists, "list"
        else:
            joined = pc.binary_join(lists, "" if self._kind == "css" else "\n")
            rec = pa.ListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int32)), joined)
            doc_kind = "scalar"
        return pa.table({
            "instance_index": batch["instance_index"],
            "pagination_index": batch["pagination_index"],
            "row_no": pa.array(np.zeros(n, dtype=np.int32)),
            "instance_url": batch["instance_url"],
            "record": rec,
            "doc_kind": pa.array([doc_kind] * n, pa.string()),
        })


def records_table_from_rows(rows: list[dict]) -> pa.Table:
    return pa.table({
        "instance_index": pa.array([r["instance_index"] for r in rows], pa.int64()),
        "pagination_index": pa.array([r["pagination_index"] for r in rows], pa.int32()),
        "row_no": pa.array([r["row_no"] for r in rows], pa.int32()),
        "instance_url": pa.array([r["instance_url"] for r in rows], pa.string()),
        "record": pa.array([r["record"] for r in rows], pa.list_(pa.string())),
        "doc_kind": pa.array([r["doc_kind"] for r in rows], pa.string()),
    })
