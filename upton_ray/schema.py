"""pyarrow schemas for every table the engine reads or writes.

The `web` schema is the BASELINE.json ``input_hint`` shape (interleaved
text+media span documents).  The rest are the engine's own state /
checkpoint tables (frontier, seen, records, lineage, metrics) — the Ray-Data
re-expression of the reference's filesystem stash
(/root/reference/lib/upton/downloader.rb:70-143).
"""

from __future__ import annotations

import pyarrow as pa

# interleaved text+media span — the atom of a document
SPAN = pa.struct(
    [
        ("kind", pa.string()),       # element path tag, e.g. "section#river/section/h1/a"
        ("text", pa.string()),       # visible text ("" for pure media)
        ("media_ref", pa.string()),  # href target for link spans / asset URI for media
        ("offset", pa.int32()),      # document order, 0-based, strictly increasing
    ]
)

SPANS = pa.list_(SPAN)

# the crawlable corpus: one row per page (the in-sandbox stand-in for the web)
WEB = pa.schema([("doc_id", pa.string()), ("spans", SPANS)])

# crawl seeds (reference ctor args: index URL + selector, or a bare URL list;
# /root/reference/lib/upton.rb:65-114)
SEEDS = pa.schema(
    [
        ("seed_id", pa.int32()),
        ("url", pa.string()),
        ("selector", pa.string()),
        ("kind", pa.string()),  # "index" | "url_list"
    ]
)

# frontier rows: URLs discovered and awaiting fetch, with full order provenance
FRONTIER = pa.schema(
    [
        ("url", pa.string()),          # may be null (anchor without href — kept positionally)
        ("seed_id", pa.int32()),
        ("page_no", pa.int32()),       # index page ordinal (pagination round), 0-based
        ("dom_pos", pa.int32()),       # position within the index page, 0-based
        ("instance_index", pa.int64()),  # global sequential position (Upton's instance_index)
        ("host", pa.string()),
        ("host_shard", pa.int32()),
    ]
)

# fetched pages checkpoint (the stash, re-expressed as a table;
# /root/reference/lib/upton/downloader.rb:86-98)
FETCHED = pa.schema(
    [
        ("url_hash", pa.string()),   # md5 hex of the absolute URL (downloader.rb:128)
        ("url", pa.string()),
        ("spans", SPANS),
        ("fetch_round", pa.int32()),
        ("status", pa.int32()),
        ("from_resource", pa.bool_()),
        ("engine_version", pa.string()),
    ]
)

# extracted records: one row per (instance page, record row after explosion)
RECORDS = pa.schema(
    [
        ("instance_index", pa.int64()),
        ("pagination_index", pa.int32()),
        ("row_no", pa.int32()),        # explosion position for table-documents, else 0
        ("instance_url", pa.string()),
        ("record", pa.list_(pa.string())),  # scalar record = 1-element list
        ("is_table_row", pa.bool_()),
    ]
)

# per-partition lineage: which (round, partition) units completed — resume gate
LINEAGE = pa.schema(
    [
        ("round", pa.int32()),
        ("partition", pa.int32()),
        ("status", pa.string()),   # "done"
        ("rows_out", pa.int64()),
    ]
)

# per-partition counters (the engine's structured replacement for @verbose
# puts), mergeable by summing: one row per round-0 task over its index pages
# and per round-1 fetch group over its instance pages — the rows of
# CrawlResult.metrics and of the checkpoint's metrics.parquet
METRICS = pa.schema(
    [
        ("round", pa.int32()),       # 0 = index pages, 1 = instance pages
        ("partition", pa.int32()),   # round-0 task / round-1 fetch group
        ("rows", pa.int64()),        # page rows the partition emitted
        ("fetched", pa.int64()),
        ("cache_hits", pa.int64()),
        ("slept", pa.int64()),       # politeness sleeps (reference: upton.rb:220-223)
        ("errors", pa.int64()),
        ("robots_blocked", pa.int64()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def spans_array(list_of_span_lists: list[list[dict]]) -> pa.Array:
    """Build a list<SPAN> array from python span dicts."""
    return pa.array(list_of_span_lists, type=SPANS)
