"""A crawlable web derived deterministically from the testdata ``documents``
table — the bridge between the crawl engine and the driver's TPC-H-ish
corpus (TESTDATA.md).

Derivation (mirrorable in SQL for the correctness oracle):

* each document row becomes an article page
  ``http://src{N}.docs.example/d/{doc_id}.html`` where N comes from the
  ``source`` column ("src14" -> 14);
* the article's ``h1.article-title`` span text is the first 48 characters of
  ``text``; the body is the token stream chunked into ``p`` spans of 12
  tokens; one ``media.img`` span references ``assets/{doc_id}.img``;
* each host serves paginated index pages
  ``http://src{N}.docs.example/index.html?page=K`` listing its documents in
  ``doc_id`` order, 10 links per page (relative hrefs ``d/{doc_id}.html``).

Crawling every host's index with the standard river selector therefore visits
every document in (host N asc, doc_id asc) order — which is what the DuckDB
oracle expresses with a window function (see __ray_entry__.oracle_sql).
"""

from __future__ import annotations

import pyarrow.parquet as pq

from upton_ray.config import CrawlConfig
from upton_ray.shuffle import collect, group_agg
from upton_ray.synth import _sp

TITLE_LEN = 48
LINKS_PER_PAGE = 10
TOKENS_PER_P = 12

INDEX_SELECTOR = "section#river section h1 a"


def host_of_source(source: str) -> str:
    return f"src{source[3:]}.docs.example"


def article_url(source: str, doc_id: int) -> str:
    return f"http://{host_of_source(source)}/d/{doc_id}.html"


def article_spans(doc_id: int, text: str) -> list[dict]:
    spans = [_sp("h1.article-title", text[:TITLE_LEN], "", 0)]
    toks = text.split()
    off = 1
    for i in range(0, len(toks), TOKENS_PER_P):
        spans.append(_sp("p", " ".join(toks[i:i + TOKENS_PER_P]), "", off))
        off += 1
    spans.append(_sp("media.img", "", f"assets/{doc_id}.img", off))
    return spans


def web_from_documents(sf_dir: str) -> tuple[dict, list[tuple[int, str, str]]]:
    """(web dict, seeds) from ``{sf_dir}/documents.parquet``.

    Driver-side construction is fine at test scales (the table is the small
    side); the bench-scale path generates the corpus distributed
    (synth.scale_web) and reads it back through ParquetWebStore.
    """
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "source"])
    by_host: dict[int, list[tuple[int, str]]] = {}
    web: dict[str, list[dict]] = {}
    for doc_id, text, source in zip(t["doc_id"].to_pylist(),
                                    t["text"].to_pylist(),
                                    t["source"].to_pylist()):
        n = int(source[3:])
        by_host.setdefault(n, []).append((doc_id, text))
        web[article_url(source, doc_id)] = article_spans(doc_id, text)

    seeds: list[tuple[int, str, str]] = []
    for seed_id, n in enumerate(sorted(by_host)):
        docs = sorted(by_host[n])
        host = f"src{n}.docs.example"
        seeds.append((seed_id, f"http://{host}/index.html", INDEX_SELECTOR))
        n_pages = (len(docs) + LINKS_PER_PAGE - 1) // LINKS_PER_PAGE
        for p in range(1, n_pages + 1):
            chunk = docs[(p - 1) * LINKS_PER_PAGE: p * LINKS_PER_PAGE]
            spans = [_sp("section#river/section/h1/a", text[:TITLE_LEN],
                         f"d/{doc_id}.html", i)
                     for i, (doc_id, text) in enumerate(chunk)]
            web[f"http://{host}/index.html?page={p}"] = spans
        # page n_pages+1 does not exist -> empty fetch terminates pagination
    return web, seeds


def write_docweb_store(sf_dir: str, path: str, num_buckets: int = 16) -> None:
    """Distributed construction of the documents-derived web as a bucketed
    parquet corpus — the scale path for :func:`web_from_documents` (whose
    driver-side dict is only for gate-scale tables).  Article pages stream
    through ``map_batches``; index pages come from one ``groupby(source)``
    (each host's pagination needs its full doc list in doc_id order); both
    land in the same hash-bucketed store the fetch stage point-looks-up."""
    import pyarrow as pa
    import ray.data

    from upton_ray import schema, sinks

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "source"],
                                 override_num_blocks=8)

    def article_rows(b: pa.Table) -> pa.Table:
        urls, spans = [], []
        for doc_id, text, source in zip(b["doc_id"].to_pylist(),
                                        b["text"].to_pylist(),
                                        b["source"].to_pylist()):
            urls.append(article_url(source, doc_id))
            spans.append(article_spans(doc_id, text))
        return pa.table({"doc_id": pa.array(urls, pa.string()),
                         "spans": schema.spans_array(spans)})

    def index_rows(group: pa.Table) -> pa.Table:
        source = group["source"][0].as_py()
        host = host_of_source(source)
        ds = sorted(zip(group["doc_id"].to_pylist(),
                        group["text"].to_pylist()))
        urls, spans = [], []
        n_pages = (len(ds) + LINKS_PER_PAGE - 1) // LINKS_PER_PAGE
        for p in range(1, n_pages + 1):
            chunk = ds[(p - 1) * LINKS_PER_PAGE: p * LINKS_PER_PAGE]
            urls.append(f"http://{host}/index.html?page={p}")
            spans.append([_sp("section#river/section/h1/a", text[:TITLE_LEN],
                              f"d/{doc_id}.html", i)
                          for i, (doc_id, text) in enumerate(chunk)])
        return pa.table({"doc_id": pa.array(urls, pa.string()),
                         "spans": schema.spans_array(spans)})

    articles = docs.map_batches(article_rows, batch_format="pyarrow")
    indexes = docs.groupby("source").map_groups(index_rows,
                                                batch_format="pyarrow")
    sinks.write_web(articles.union(indexes), path, num_buckets=num_buckets)


def docweb_seeds(sf_dir: str) -> list[tuple[int, str, str]]:
    """Seed list (one per host) from the distinct sources — a tiny aggregate
    (one row per host reaches the driver, never the documents)."""
    import pyarrow as pa
    import ray.data

    src = collect(group_agg(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                              columns=["source"]),
        ["source"], {"n": (None, "count_all")}),
        pa.schema([("source", pa.string()), ("n", pa.int64())]))
    hosts = sorted(int(s[3:]) for s in src["source"].to_pylist())
    return [(i, f"http://src{n}.docs.example/index.html", INDEX_SELECTOR)
            for i, n in enumerate(hosts)]


def crawl_config() -> CrawlConfig:
    return CrawlConfig(
        index_selector=INDEX_SELECTOR,
        extractor="css:h1.article-title",
        paginated=True, pagination_param="page", pagination_max_pages=10_000,
        sleep_time_between_requests=0,
        fetch_batch_size=1024,
        # gate-scale web (<=5k docs): a small actor footprint beats pool
        # startup; the synthetic-corpus bench exercises the wide shape
        num_seen_shards=2, fetch_concurrency=2,
    )


def crawl_documents(sf_dir: str, *, as_dataset: bool = False,
                    use_store: bool | None = None, store_buckets: int = 16):
    """Flagship pipeline: crawl the documents-derived web end-to-end and
    return (instance_index, instance_url, title) in crawl order.

    ``use_store=True`` routes through the distributed bucketed parquet store
    (:func:`write_docweb_store` + ParquetWebStore point lookups) instead of
    the driver-built dict; ``None`` auto-selects the store above 200k docs
    (the dict is broadcast whole — fine only while the table is the small
    side).  Both paths produce identical records (pinned in tests).

    Oracle (DuckDB): row_number over (host N, doc_id) + substring title —
    see __ray_entry__.oracle_sql()["crawl_documents"].
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    from upton_ray.engine import Crawler

    if use_store is None:
        use_store = _pq.read_metadata(
            f"{sf_dir}/documents.parquet").num_rows > 200_000
    if use_store:
        import hashlib as _hl
        import os as _os

        # cache key is CONTENT-derived (rows + size + mtime + bucket count),
        # not just the path: a regenerated documents.parquet at the same path
        # must miss, and two racing builders converge via build-into-temp +
        # atomic rename (a directory that exists is always complete)
        src = f"{sf_dir}/documents.parquet"
        st = _os.stat(src)
        n_rows = _pq.read_metadata(src).num_rows
        key = _hl.md5(
            f"{sf_dir}|{n_rows}|{st.st_size}|{st.st_mtime_ns}|{store_buckets}"
            .encode()).hexdigest()[:16]
        path = f"/tmp/upton_ray_docweb/{key}"
        if not _os.path.isdir(path):
            _os.makedirs("/tmp/upton_ray_docweb", exist_ok=True)
            tmp = f"{path}.build-{_os.getpid()}"
            write_docweb_store(sf_dir, tmp, num_buckets=store_buckets)
            try:
                _os.rename(tmp, path)
            except OSError:       # lost the build race; winner's copy is
                import shutil as _sh   # content-identical by construction

                _sh.rmtree(tmp, ignore_errors=True)
        web: object = ("parquet", path, store_buckets)
        seeds = docweb_seeds(sf_dir)
    else:
        web, seeds = web_from_documents(sf_dir)
    crawler = Crawler(crawl_config(), web, seeds=seeds)
    try:
        res = crawler.crawl()
        ds = res.records.map_batches(
            lambda b: pa.table({
                "instance_index": b["instance_index"],
                "instance_url": b["instance_url"],
                # first record element, "" for empty — vectorized (the
                # former per-row to_pylist loop was the one Python loop on
                # this path, flagged by the r3 audit)
                "title": pc.binary_join(
                    pc.list_slice(b["record"], 0, 1), pa.scalar("")),
            }), batch_format="pyarrow")
        if as_dataset:
            return ds
        t = collect(ds, pa.schema([
            ("instance_index", pa.int64()), ("instance_url", pa.string()),
            ("title", pa.string())]))
        return t.sort_by([("instance_index", "ascending")])
    finally:
        if not as_dataset:
            crawler.shutdown()
