"""Sinks: ordered CSV/TSV record output and the partitioned corpus writer.

CSV/TSV replicate ``scrape_to_csv`` / ``scrape_to_tsv``
(/root/reference/lib/upton.rb:169-199): nil documents are compacted out, and a
document whose first element is itself a list ("table" documents) explodes to
one CSV row per inner list, while list/scalar documents are single rows.
Rows are written in Upton's output order (instance_index, pagination_index,
row_no).  CSV is an inherently single-writer text format, so the writer
streams sorted batches through one file handle; the scale path is
``write_records_parquet`` (partitioned, resumable).
"""

from __future__ import annotations

import csv
import os

import pyarrow as pa

from upton_ray.urlops import hosts_of, shard_hashes


def _record_rows(records_ds):
    """Yield CSV rows from a records Dataset in Upton order."""
    records_ds = records_ds.sort(["instance_index", "pagination_index", "row_no"])
    for b in records_ds.iter_batches(batch_format="pyarrow", batch_size=4096):
        kinds = b["doc_kind"].to_pylist()
        recs = b["record"].to_pylist()
        for kind, rec in zip(kinds, recs):
            if kind == "none":
                continue   # compact (upton.rb:174)
            yield rec


def write_csv(records_ds, filename: str, *, delimiter: str = ",") -> int:
    n = 0
    with open(filename, "w", newline="") as f:
        w = csv.writer(f, delimiter=delimiter)
        for row in _record_rows(records_ds):
            w.writerow(row)
            n += 1
    return n


def write_tsv(records_ds, filename: str) -> int:
    return write_csv(records_ds, filename, delimiter="\t")


def write_records_parquet(records_ds, path: str) -> None:
    """Scale sink: partitioned parquet in output order columns (resumable —
    one directory of files, skipped partitions re-derivable from lineage)."""
    records_ds.write_parquet(path)


try:  # optional lance support (gated: not installed in this sandbox)
    import lance  # noqa: F401

    HAVE_LANCE = True
except ImportError:
    HAVE_LANCE = False


def write_web(web_ds, path: str, *, num_buckets: int = 16,
              fmt: str = "parquet") -> None:
    """Corpus writer for the web store: hash-bucket by host so fetch
    point-lookups prune to one bucket.

    ``fmt="lance"`` writes a Lance dataset (the preferred format per the
    design / BASELINE.json north_rule) via ``Dataset.write_lance``;
    ``fmt="parquet"`` writes hive-partitioned parquet on the ``bucket``
    column.  Both carry the SAME logical schema + bucket column, so
    :class:`upton_ray.fetch.ParquetWebStore` / ``LanceWebStore`` share one
    layout contract.  The sandbox lacks the lance package, so the lance
    branch is exercised only where it's installed
    (tests/test_sinks_lance.py importorskips)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        hs = hosts_of(batch["doc_id"].to_numpy(zero_copy_only=False))
        return batch.append_column(
            "bucket", pa.array(shard_hashes(hs, num_buckets), pa.int32()))

    bucketed = web_ds.map_batches(add_bucket, batch_format="pyarrow")
    if fmt == "lance":
        if not HAVE_LANCE:
            raise NotImplementedError(
                "lance is not installed in this environment; "
                "use fmt='parquet' (same layout contract)")
        bucketed.write_lance(path)
        return
    os.makedirs(path, exist_ok=True)
    bucketed.write_parquet(path, partition_cols=["bucket"])
