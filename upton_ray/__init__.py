"""upton_ray — a Ray-Data-native URL-frontier + fetch-scheduler + selector-extraction engine.

A from-scratch rebuild of the capabilities of propublica/upton (reference at
/root/reference, v0.3.6) on Ray Data: seed index pages feed a sharded frontier,
a partitioned URL-seen set and politeness-aware fetch actors, with
CSS-selector-style extraction run as ``map_batches`` over zero-copy Arrow
batches of interleaved text+media spans.

The input data model (per BASELINE.json input_hint) is a table of documents:

    doc_id: string            # absolute URL
    spans:  list<struct<kind: string, text: string, media_ref: string, offset: int32>>

Nothing here is a port: the reference is a sequential single-thread Ruby gem;
this package expresses every stage as Ray Data transforms (map_batches over
pyarrow batches, per-process cached walkers for stateful stages, groupby
for the wide steps).
"""

from upton_ray.config import CrawlConfig
from upton_ray.engine import Crawler

__version__ = "0.1.0"

__all__ = ["CrawlConfig", "Crawler", "__version__"]
