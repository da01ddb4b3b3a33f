"""Selector-model and page-level extractor tests (parse_index semantics,
Utils.list/table quirks — spec/unit/parsing_spec.rb and spec/upton_spec.rb)."""

import pyarrow as pa

from upton_ray import synth
from upton_ray.extract import (extract_css_text, extract_links_page,
                               extract_list_texts, extract_table_rows,
                               match_spans)
from upton_ray.selector import (kind_match_mask, match_kind,
                                normalize_selector, selector_regex)
from upton_ray.synth import (BASE, EAST_TIMOR_HEADER, EAST_TIMOR_ROWS,
                             HEADLINES, MOST_COMMENTED)


class TestSelectorModel:
    def test_normalize_css(self):
        assert normalize_selector("section#river section h1 a") == \
            "section#river/section/h1/a"

    def test_normalize_xpath_class_idiom(self):
        sel = ('//table[contains(concat(" ", normalize-space(@class), " "),'
               ' " wikitable ")][2]')
        assert normalize_selector(sel) == "table.wikitable[2]"

    def test_descendant_gap(self):
        # .compact-list a.title-link matches through the intermediate li
        assert match_kind(".compact-list/li.compact-item/a.title-link",
                          ".compact-list a.title-link")

    def test_class_only_part_matches_tagged_segment(self):
        assert match_kind("ul.compact-list/a.title-link", ".compact-list a.title-link")

    def test_bare_tag_matches_classed_segment(self):
        assert match_kind("h1.item/a.title-link", "h1.item a")

    def test_no_match_on_partial_class(self):
        assert not match_kind("div.compact-list-extra/a.title-link",
                              ".compact-list a.title-link")

    def test_last_part_anchored(self):
        # selector names the element itself, not its ancestors
        assert not match_kind("section#river/section/h1", "section#river section h1 a")

    def test_empty_selector_matches_nothing(self):
        assert selector_regex("") is None
        assert not match_kind("anything", "")

    def test_vectorized_mask(self):
        kinds = pa.array(["h1.article-title", "p", "div/h1.article-title", "h1.other"])
        mask = kind_match_mask(kinds, "h1.article-title")
        assert mask.tolist() == [True, False, True, False]


class TestParseIndex:
    """spec/unit/parsing_spec.rb semantics over span documents."""

    HTML_SPANS = [
        {"kind": "h1.item/a", "text": "Thing 1", "media_ref": "http://example.com/thing/1", "offset": 0},
        {"kind": "h1.item/a", "text": "Thing 2", "media_ref": "http://example.com/thing/2", "offset": 1},
        # an <a> with data-href but no href -> media_ref "" -> None kept
        {"kind": "h2.bad-item/a", "text": "Thing 2", "media_ref": "", "offset": 2},
    ]

    def test_returns_list(self):
        assert extract_links_page(self.HTML_SPANS, "h1#not-actually-existing") == []

    def test_finds_elements(self):
        assert len(extract_links_page(self.HTML_SPANS, "h1.item a")) == 2

    def test_returns_hrefs(self):
        assert extract_links_page(self.HTML_SPANS, "h1.item a")[0] == \
            "http://example.com/thing/1"

    def test_nil_href_kept(self):
        assert extract_links_page(self.HTML_SPANS, "h2.bad-item a") == [None]


class TestPageExtractors:
    def setup_method(self):
        self.web = synth.fixture_web()

    def test_css_text_concatenates_matches(self):
        spans = self.web[BASE + "webinar.html"]
        assert extract_css_text(spans, "h1.article-title") == HEADLINES["webinar"]

    def test_css_text_empty_when_no_match(self):
        spans = self.web[BASE + "discussion.html"]
        assert extract_css_text(spans, "h1.article-title") == ""

    def test_list_golden(self):
        spans = self.web[BASE + "propublica.html"]
        assert extract_list_texts(spans, "#jamb.wNarrow #most-commented li a") == \
            MOST_COMMENTED

    def test_table_golden_with_header_quirks(self):
        spans = self.web[BASE + "easttimor.html"]
        sel = ('//table[contains(concat(" ", normalize-space(@class), " "),'
               ' " wikitable ")][2]')
        got = extract_table_rows(spans, sel)
        assert got[0] == EAST_TIMOR_HEADER + ["1", "2", "3", "4"]  # all-th header
        assert got[1] == []                                        # header tr quirk
        assert got[2:] == EAST_TIMOR_ROWS

    def test_table_selector_skips_decoy(self):
        spans = self.web[BASE + "easttimor.html"]
        sel = ('//table[contains(concat(" ", normalize-space(@class), " "),'
               ' " wikitable ")][2]')
        flat = [c for row in extract_table_rows(spans, sel) for c in row]
        assert "should-not-appear" not in flat

    def test_river_links_in_dom_order(self):
        spans = self.web[BASE + "propublica.html"]
        got = extract_links_page(spans, "section#river section h1 a")
        assert got == ["webinar.html", "discussion.html",
                       "prosecutor.html", "sixfacts.html"]

    def test_match_spans_preserves_offset_order(self):
        spans = self.web[BASE + "propublica.html"]
        ms = match_spans(spans, "#jamb.wNarrow #most-commented li a")
        offs = [s["offset"] for s in ms]
        assert offs == sorted(offs)


class TestWidenedSelectors:
    """Child combinators, attribute selectors, :nth-of-type, general XPath
    (Nokogiri accepts all of these: lib/upton.rb:283, utils.rb:21,36)."""

    def test_child_combinator_requires_adjacency(self):
        assert match_kind("section#river/section/h1/a",
                          "section#river > section > h1 > a")
        assert not match_kind("section#river/div/section/h1/a",
                              "section#river > section > h1 > a")
        # descendant still allows gaps
        assert match_kind("section#river/div/section/h1/a",
                          "section#river section h1 a")

    def test_attribute_selectors_map_to_class_and_id(self):
        assert match_kind("a.title-link", "a[class~=title-link]")
        # class order is irrelevant (Nokogiri semantics)
        assert match_kind("a.other.title-link", "a[class~=title-link]")
        assert match_kind("section#river/h1/a", "section[id=river] h1 a")
        assert match_kind("a.title-link", 'a[class="title-link"]')
        assert not match_kind("a.title-linkx", "a[class~=title-link]")

    def test_unsupported_attribute_raises(self):
        import pytest

        with pytest.raises(ValueError):
            selector_regex("a[href]")
        with pytest.raises(ValueError):
            selector_regex("a[data-x=1]")

    def test_nth_of_type_is_kind_ordinal(self):
        assert match_kind("table.wikitable[2]/tr[3]/td[1]",
                          "tr:nth-of-type(3) > td")
        assert not match_kind("table.wikitable[2]/tr[4]/td[1]",
                              "tr:nth-of-type(3) > td")

    def test_general_xpath_axes(self):
        assert match_kind("table.wikitable[2]/tr[3]/td[1]", "//table//td")
        assert match_kind("table.wikitable[2]/tr[3]/td[1]", "//table/tr/td")
        assert not match_kind("table.wikitable[2]/tr[3]/td[1]", "//table/td")
        assert match_kind("table.wikitable[2]/tr[3]/td[1]", "//table/tr[3]/td")
        assert match_kind("h1.article-title",
                          "//h1[contains(@class, 'article-title')]")
        assert match_kind("section#river/h1", "//section[@id='river']/h1")

    def test_rooted_xpath_anchors_at_path_start(self):
        assert match_kind("body/div/p", "/body/div/p")
        assert not match_kind("x/body/div/p", "/body/div/p")
        assert match_kind("x/body/div/p", "//body/div/p")

    def test_wildcard(self):
        assert match_kind("li.x", "*")
        assert match_kind("li.x/a", "* > a")

    def test_legacy_wikitable_idiom_still_compiles(self):
        sel = ('//table[contains(concat(" ", normalize-space(@class), " "),'
               ' " wikitable ")][2]')
        assert match_kind("table.wikitable[2]", sel)
        assert not match_kind("table.wikitable[1]", sel)
        assert match_kind("table.wikitable[2]/tr[3]/td[1]", sel, prefix=True)


def test_css_adv_scenario_matches_basic_golden(ray_session, fixture_web):
    """End-to-end: the widened-selector crawl reproduces the basic golden."""
    from upton_ray.engine import Crawler
    from upton_ray.scenarios import scenario_configs
    from upton_ray.synth import HEADLINES

    res = Crawler(scenario_configs()["css_adv"], fixture_web).crawl()
    assert res.documents() == [HEADLINES["webinar"], "",
                               HEADLINES["prosecutor"], HEADLINES["sixfacts"]]


_KERNEL_EXTRACTORS = ["css:h1.article-title", "identity",
                      "list:#jamb.wNarrow #most-commented li a",
                      "list:h1.article-title"]


def _kernel_pages() -> list:
    """Fixture and scale-web pages plus the edge rows the batch kernel must
    reproduce: empty page, no match, a repeated title (concatenation order),
    a null ``spans`` row and a matched null span text."""
    sp = synth._sp
    web = synth.fixture_web()
    p = synth.ScaleParams(n_hosts=3, pages_per_host=20)
    scale = [synth.gen_page(p, f"{p.host(h)}/a/{a}.html")
             for h in range(3) for a in range(20)]
    return list(web.values()) + scale + [
        [],
        [sp("p", "no title here", "", 0)],
        [sp("h1.article-title", "First ", "", 0), sp("p", "body", "", 1),
         sp("h1.article-title", "Second", "", 2)],
        None,
        [sp("h1.article-title", None, "", 0), sp("p", None, "", 1),
         sp("h1.article-title", "After null", "", 2)],
    ]


def _kernel_batch(pages: list) -> pa.Table:
    from upton_ray import schema

    n = len(pages)
    return pa.table({
        "instance_index": pa.array(range(n), pa.int64()),
        "pagination_index": pa.array([1 + i % 2 for i in range(n)], pa.int32()),
        "instance_url": pa.array([f"{BASE}p{i}.html" for i in range(n)]),
        "spans": pa.array(pages, schema.SPANS),
    })


def _reference_records(ext, pages: list) -> pa.Table:
    """apply_extractor page by page; a null span text reads as ""."""
    from upton_ray.extract import apply_extractor, records_table_from_rows

    rows = []
    for i, page in enumerate(pages):
        spans = [{**s, "text": s["text"] or ""} for s in page or []]
        url = f"{BASE}p{i}.html"
        kind, recs = apply_extractor(ext, spans, url, i, 1 + i % 2)
        rows += [{"instance_index": i, "pagination_index": 1 + i % 2,
                  "row_no": r, "instance_url": url, "record": rec,
                  "doc_kind": kind} for r, rec in enumerate(recs)]
    return records_table_from_rows(rows)


def test_batch_kernel_matches_page_reference():
    """ExtractRecords' Arrow list kernel (css, identity, list) equals the
    page-level apply_extractor table for table, on one chunk, on a two-chunk
    ``spans`` column and on empty batches; the schema is RECORDS_OUT."""
    from upton_ray.engine import RECORDS_OUT
    from upton_ray.extract import ExtractRecords

    pages = _kernel_pages()
    batch = _kernel_batch(pages)
    half = len(pages) // 2
    two_chunks = pa.concat_tables([batch.slice(0, half), batch.slice(half)])
    assert two_chunks["spans"].num_chunks == 2
    for ext in _KERNEL_EXTRACTORS:
        want = _reference_records(ext, pages)
        for b in (batch, two_chunks):
            got = ExtractRecords(ext)(b)
            assert got.schema.equals(RECORDS_OUT), ext
            assert got.equals(want), ext
        for e in (batch.slice(0, 0), pa.Table.from_batches([], batch.schema)):
            empty = ExtractRecords(ext)(e)         # one empty chunk / none
            assert empty.schema.equals(RECORDS_OUT) and empty.num_rows == 0

    got = ExtractRecords("css:h1.article-title")(batch).to_pylist()
    assert got[-3]["record"] == ["First Second"]      # matches in span order
    assert got[-2]["record"] == [""]                  # null spans row
    assert got[-1]["record"] == ["After null"]        # null text reads as ""
