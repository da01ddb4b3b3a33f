"""Sitemap seeding (upton_ray/sitemap.py): XML -> span conversion, the
level-order expansion law, cycle/depth guards, and the HttpWebStore decode
branch.  End-to-end conformance vs the sequential oracle is the "sitemap"
scenario in test_engine.py; the driver gate pins the golden records
(crawl_sitemap)."""

import pyarrow as pa

from upton_ray.shuffle import collect
from upton_ray.sitemap import (CHILD_KIND, LOC_KIND, expand_levels,
                               sitemap_xml_to_spans)

URLSET_XML = """<?xml version="1.0" encoding="UTF-8"?>
<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <url><loc>http://h.test/a.html</loc><lastmod>2026-01-01</lastmod></url>
  <url><loc> http://h.test/b.html </loc></url>
  <url><priority>0.5</priority></url>
</urlset>"""

INDEX_XML = """<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">
  <sitemap><loc>http://h.test/sm1.xml</loc></sitemap>
  <sitemap><loc>sm2.xml</loc></sitemap>
</sitemapindex>"""


def test_urlset_xml_to_spans():
    spans = sitemap_xml_to_spans(URLSET_XML)
    assert [s["kind"] for s in spans] == [LOC_KIND, LOC_KIND]
    assert [s["media_ref"] for s in spans] == [
        "http://h.test/a.html", "http://h.test/b.html"]   # whitespace trim
    assert [s["offset"] for s in spans] == [0, 1]


def test_sitemapindex_xml_to_spans():
    spans = sitemap_xml_to_spans(INDEX_XML)
    assert [s["kind"] for s in spans] == [CHILD_KIND, CHILD_KIND]
    assert [s["media_ref"] for s in spans] == [
        "http://h.test/sm1.xml", "sm2.xml"]


def test_non_sitemap_returns_none():
    assert sitemap_xml_to_spans("<html><body>hi</body></html>") is None
    assert sitemap_xml_to_spans("<urlset oops") is None   # unparseable


def _sm(kind, *urls):
    return [{"kind": kind, "text": "", "media_ref": u, "offset": i}
            for i, u in enumerate(urls)]


def test_expand_levels_order_and_cycle_guard(ray_session):
    """Level order (depth, parent-rank, pos); a cycle back to the root is
    expanded once; relative children resolve against the sitemap URL."""
    B = "http://s.test/"
    web = {
        B + "root.xml": _sm(CHILD_KIND, B + "a.xml", "b.xml", B + "root.xml"),
        B + "a.xml": _sm(LOC_KIND, B + "p1", B + "p2"),
        B + "b.xml": _sm(LOC_KIND, "p3") + _sm(CHILD_KIND, B + "a.xml"),
    }
    links, n_files = expand_levels(web, B + "root.xml", max_depth=4)
    t = collect(links, pa.schema([])).to_pylist()
    t.sort(key=lambda r: (r["seed_id"], r["dom_pos"]))
    assert [(r["seed_id"], r["dom_pos"], r["url"]) for r in t] == [
        (1, 0, B + "p1"), (1, 1, B + "p2"), (2, 0, B + "p3")]
    assert n_files == 3   # root, a, b — the self-link never re-expands


def test_expand_levels_depth_cap(ray_session):
    """A chain deeper than max_depth stops cleanly."""
    B = "http://d.test/"
    web = {
        B + "l0.xml": _sm(CHILD_KIND, B + "l1.xml"),
        B + "l1.xml": _sm(CHILD_KIND, B + "l2.xml"),
        B + "l2.xml": _sm(LOC_KIND, B + "deep"),
    }
    links, n_files = expand_levels(web, B + "l0.xml", max_depth=2)
    rows = collect(links, pa.schema([])).num_rows
    assert rows == 0      # l2 is below the cap; nothing extracted
    links3, _ = expand_levels(web, B + "l0.xml", max_depth=3)
    rows3 = collect(links3, pa.schema([]))
    assert rows3["url"].to_pylist() == [B + "deep"]


def test_http_store_decodes_real_sitemap_xml():
    """HttpWebStore._get routes sitemap XML through sitemap_xml_to_spans
    (exercised store-level via the decode seam, no server needed)."""
    from upton_ray.fetch import HttpWebStore

    store = HttpWebStore()
    store._http_get = lambda target, redirects=5: (
        URLSET_XML.encode(), "application/xml")
    spans = store._get("http://h.test/sitemap.xml")
    assert [s["kind"] for s in spans] == [LOC_KIND, LOC_KIND]
    # an HTML body with a sniff-negative prefix still goes to the HTML parser
    store._http_get = lambda target, redirects=5: (
        b"<html><body><h1 class='t'>x</h1></body></html>", "text/html")
    spans = store._get("http://h.test/page.html")
    assert spans and spans[0]["kind"].endswith("h1.t")


def test_expand_levels_mixed_kind_file_dense_dom_pos(ray_session):
    """A file interleaving CHILD and LOC entries must number its locs
    DENSELY (dom_pos counts per kind): the instance_index prefix-sum
    adds base + dom_pos, so a kind-shared counter would collide the next
    file's first index (code-review finding, round-5 continuation)."""
    B = "http://mx.test/"
    web = {
        B + "r.xml": _sm(CHILD_KIND, B + "a.xml")
        + [{"kind": LOC_KIND, "text": "", "media_ref": B + "p0",
            "offset": 1},
           {"kind": LOC_KIND, "text": "", "media_ref": B + "p1",
            "offset": 2}],
        B + "a.xml": _sm(LOC_KIND, B + "p2"),
    }
    links, _ = expand_levels(web, B + "r.xml", max_depth=3)
    rows = sorted((r["seed_id"], r["dom_pos"], r["url"])
                  for r in collect(links, pa.schema([])).to_pylist())
    assert rows == [(0, 0, B + "p0"), (0, 1, B + "p1"), (1, 0, B + "p2")]


def test_expand_levels_depth_zero_empty_not_crash(ray_session):
    B = "http://z.test/"
    web = {B + "r.xml": _sm(LOC_KIND, B + "p0")}
    links, n_files = expand_levels(web, B + "r.xml", max_depth=0)
    assert collect(links, pa.schema([])).num_rows == 0
    assert n_files == 1


def test_sniff_sitemap_no_prefix_window():
    """A urlset behind >4 KB of comment prolog still sniffs (spec-legal;
    the old 4096-char window missed it)."""
    from upton_ray.sitemap import sniff_sitemap
    xml = "<!--" + "x" * 8000 + "--><urlset><url><loc>http://h/p</loc></url></urlset>"
    assert sniff_sitemap(xml)
    spans = sitemap_xml_to_spans(xml)
    assert spans is None or spans  # ET may reject the comment — sniff must not


def test_expand_levels_collects_no_page_url(ray_session, monkeypatch):
    """Driver contract: only child-sitemap rows are pulled to the driver;
    each probe task returns its loc rows and its child rows apart, so no
    page URL ever reaches it (every table the driver fetches is
    recorded)."""
    import ray

    B = "http://dc.test/"
    pages = {B + f"p{i}" for i in range(6)}
    web = {
        B + "root.xml": _sm(CHILD_KIND, B + "a.xml", B + "b.xml")
        + _sm(LOC_KIND, B + "p0"),
        B + "a.xml": _sm(LOC_KIND, B + "p1", B + "p2"),
        B + "b.xml": _sm(LOC_KIND, B + "p3", B + "p4")
        + _sm(CHILD_KIND, B + "c.xml"),
        B + "c.xml": _sm(LOC_KIND, B + "p5"),
    }
    seen_urls: list = []
    real_get = ray.get

    def recording_get(refs, *a, **kw):
        got = real_get(refs, *a, **kw)
        for t in (got if isinstance(got, list) else [got]):
            if isinstance(t, pa.Table) and "url" in t.column_names:
                seen_urls.extend(t["url"].to_pylist())
        return got

    monkeypatch.setattr(ray, "get", recording_get)
    links, n_files = expand_levels(web, B + "root.xml", max_depth=4)
    monkeypatch.undo()
    assert n_files == 4
    assert set(seen_urls) == {B + "a.xml", B + "b.xml", B + "c.xml"}
    assert not pages & set(seen_urls)
    got = sorted(r["url"] for r in collect(links, pa.schema([])).to_pylist())
    assert got == sorted(pages)


def test_expand_levels_order_over_many_chunks(ray_session):
    """A level of 1100 files runs as several probe tasks (at most 512 files
    each): the links keep the (rank, pos) contract of a sequential reader,
    the next level's files are ranked in (parent rank, pos) order across
    the chunks, and a cycle from the last chunk back to the root is
    skipped."""
    B = "http://many.test/"
    n = 1100
    kids = [f"f{i}.xml" for i in range(n)]
    web = {B + "root.xml": _sm(CHILD_KIND, *kids)}
    grand = []
    for i in range(n):
        spans = _sm(LOC_KIND, f"p{i}a", B + f"p{i}b")
        if i % 250 == 0:
            spans += _sm(CHILD_KIND, f"g{i}.xml")
            grand.append(i)
            web[B + f"g{i}.xml"] = _sm(LOC_KIND, f"q{i}")
        web[B + f"f{i}.xml"] = spans
    web[B + f"f{n - 1}.xml"] += _sm(CHILD_KIND, B + "root.xml")
    links, n_files = expand_levels(web, B + "root.xml", max_depth=3,
                                   concurrency=2)
    assert n_files == 1 + n + len(grand)
    want = [(i + 1, 0, B + f"p{i}a") for i in range(n)] \
        + [(i + 1, 1, B + f"p{i}b") for i in range(n)] \
        + [(n + 1 + k, 0, B + f"q{i}") for k, i in enumerate(grand)]
    got = collect(links, pa.schema([])).sort_by(
        [("seed_id", "ascending"), ("dom_pos", "ascending")])
    assert set(got["page_no"].to_pylist()) == {0}
    assert list(zip(got["seed_id"].to_pylist(), got["dom_pos"].to_pylist(),
                    got["url"].to_pylist())) == sorted(want)
