"""Mirror loading and link extraction."""

import threading
from contextlib import contextmanager
from functools import partial
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest

from navminer.corpus import (CorpusError, FileResolver, HttpResolver, LinkRef,
                             PageReadError, extract_links, load_corpus, retrieve_page)
from navminer.normalize import to_xhtml

from conftest import DEMO_PAGE_COUNT, write_mirror


def test_single_page_no_links(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>solo</body></html>"})
    corpus = load_corpus(root, max_depth=3)
    assert set(corpus.pages) == {"index.html"}
    assert corpus.pages["index.html"].depth == 0


def test_two_page_cycle_terminates(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a></body></html>',
        "a.html": '<html><body><a href="index.html">home</a></body></html>',
    })
    corpus = load_corpus(root, max_depth=5)
    assert set(corpus.pages) == {"index.html", "a.html"}
    assert corpus.pages["a.html"].depth == 1


def test_extract_links_filters_and_orders(tmp_path):
    resolver = FileResolver(tmp_path)
    doc = to_xhtml(
        "<html><body>"
        '<a href="a.html">first</a>'
        '<a href="mailto:x@y.example">mail</a>'
        '<a href="http://external.example/">out</a>'
        '<a href="javascript:void(0)">js</a>'
        '<a href="#top">frag</a>'
        "</body></html>"
    )
    links = extract_links(doc, "index.html", resolver)
    assert links == [LinkRef("index.html", "a.html", "first")]


def test_extract_links_dedupes_and_strips_fragments(tmp_path):
    resolver = FileResolver(tmp_path)
    doc = to_xhtml(
        "<html><body>"
        '<a href="b.html">one</a>'
        '<a href="b.html">again</a>'
        '<a href="b.html#sec">section</a>'
        "</body></html>"
    )
    links = extract_links(doc, "index.html", resolver)
    assert [l.target for l in links] == ["b.html"]


def test_extract_links_no_anchors():
    resolver = FileResolver(".")
    assert extract_links(to_xhtml("<html><body>quiet</body></html>"),
                         "index.html", resolver) == []


def test_extract_links_sees_forms_and_frames(tmp_path):
    resolver = FileResolver(tmp_path)
    doc = to_xhtml(
        "<html><body>"
        '<form action="submit.html" method="get"></form>'
        '<iframe src="inner.html"></iframe>'
        "</body></html>"
    )
    assert [l.target for l in extract_links(doc, "index.html", resolver)] == \
        ["submit.html", "inner.html"]


def test_relative_resolution_and_escape_rejection(tmp_path):
    resolver = FileResolver(tmp_path)
    assert resolver.resolve("sub/page.html", "../other.html") == "other.html"
    assert resolver.resolve("sub/page.html", "deeper/x.html") == "sub/deeper/x.html"
    assert resolver.resolve("page.html", "../../outside.html") is None
    assert resolver.resolve("page.html", "a%20b.html") == "a b.html"


def test_names_starting_with_two_dots_stay_in_the_mirror(tmp_path):
    root = write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="..data.html">data</a>'
                      '<a href="../x.html">out</a></body></html>',
        "..data.html": "<html><body>data</body></html>",
    })
    write_mirror(tmp_path, {"x.html": "<html><body>outside</body></html>"})
    resolver = FileResolver(tmp_path / "site")
    assert resolver.resolve("index.html", "..data.html") == "..data.html"
    assert resolver.resolve("sub/page.html", "..data.html") == "sub/..data.html"
    assert resolver.resolve("index.html", "../x.html") is None
    assert resolver.resolve("index.html", "..") is None
    corpus = load_corpus(root, max_depth=2)
    assert set(corpus.pages) == {"index.html", "..data.html"}
    assert corpus.dangling == []


def test_query_string_is_part_of_the_locator(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="page.html?id=1">one</a>'
                      '<a href="page.html?id=2">two</a></body></html>',
        "page.html?id=1": "<html><body>first</body></html>",
        "page.html?id=2": "<html><body>second</body></html>",
    })
    corpus = load_corpus(root, max_depth=2)
    assert {"page.html?id=1", "page.html?id=2"} <= set(corpus.pages)


def test_max_depth_zero_keeps_only_root(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a></body></html>',
        "a.html": "<html><body>deep</body></html>",
    })
    corpus = load_corpus(root, max_depth=0)
    assert set(corpus.pages) == {"index.html"}


def test_unreadable_root_is_fatal(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.html", max_depth=1)


def test_markup_free_root_is_fatal(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "no tags here"})
    with pytest.raises(CorpusError):
        load_corpus(root, max_depth=1)


def test_missing_linked_page_recorded_as_dangling(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="gone.html">x</a>'
                      '<a href="a.html">a</a></body></html>',
        "a.html": "<html><body>fine</body></html>",
    })
    corpus = load_corpus(root, max_depth=2)
    assert corpus.dangling == ["gone.html"]
    assert set(corpus.pages) == {"index.html", "a.html"}


def test_markup_free_linked_page_excluded(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="plain.html">p</a></body></html>',
        "plain.html": "words only",
    })
    corpus = load_corpus(root, max_depth=2)
    assert corpus.excluded == ["plain.html"]
    assert "plain.html" not in corpus.pages


def test_retrieve_page_cache_semantics(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a></body></html>',
        "a.html": "<html><body>target</body></html>",
    })
    corpus = load_corpus(root, max_depth=2)
    link = corpus.links("index.html")[0]
    first = retrieve_page(link, corpus)
    second = retrieve_page(link, corpus)
    assert first is second
    assert first.text == (tmp_path / "a.html").read_text()
    assert retrieve_page(LinkRef("index.html", "gone.html"), corpus) is None


def test_depth_equals_shortest_chain(demo_corpus):
    assert demo_corpus.pages["cat-fish.html"].depth == 1
    assert demo_corpus.pages["items/item-f5.html"].depth == 2
    assert demo_corpus.pages["cart/add-f5.html"].depth == 3
    assert demo_corpus.pages["checkout.html"].depth == 4


def test_demo_corpus_page_count(demo_corpus):
    assert len(demo_corpus.pages) == DEMO_PAGE_COUNT
    assert demo_corpus.dangling == ["faq-archive.html"]


def test_directory_root_finds_index(demo_root):
    corpus = load_corpus(demo_root.parent, max_depth=0)
    assert corpus.root == "index.html"


@contextmanager
def serving(handler):
    """A loopback HTTP server on a free port, yielding its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


def test_http_mode_same_authority_only(tmp_path):
    write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a>'
                      '<a href="http://elsewhere.example/x.html">ext</a></body></html>',
        "a.html": '<html><body><a href="index.html">home</a></body></html>',
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=3, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/a.html"}


def test_http_redirect_off_the_site_is_dangling(tmp_path):
    write_mirror(tmp_path / "other", {"x.html": "<html><body>elsewhere</body></html>"})
    write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="a.html">a</a>'
                      '<a href="jump.html">jump</a></body></html>',
        "a.html": "<html><body>here</body></html>",
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path / "other"))) as other:
        class Redirecting(SimpleHTTPRequestHandler):
            def do_GET(self):
                if self.path != "/jump.html":
                    return super().do_GET()
                self.send_response(302)
                self.send_header("Location", f"{other}/x.html")
                self.end_headers()

        with serving(partial(Redirecting, directory=str(tmp_path / "site"))) as base:
            corpus = load_corpus(f"{base}/index.html", max_depth=3, delay=0.0)
            assert set(corpus.pages) == {f"{base}/index.html", f"{base}/a.html"}
            assert corpus.dangling == [f"{base}/jump.html"]


def test_http_scheme_change_on_the_same_host_loads(monkeypatch):
    requests = pytest.importorskip("requests")
    resolver = HttpResolver("http://site.test/index.html", delay=0.0)
    # a direct https link from an http root stays on the site
    assert resolver.resolve("http://site.test/index.html",
                            "https://site.test/p.html") == "https://site.test/p.html"
    final_url = {}

    def fake_get(url, timeout):
        return SimpleNamespace(status_code=200, url=final_url[url],
                               content=b"<html><body>ok</body></html>")

    monkeypatch.setattr(requests, "get", fake_get)
    final_url["https://site.test/p.html"] = "https://site.test/p.html"
    assert "ok" in resolver.fetch("https://site.test/p.html")
    # an http -> https upgrade redirect on the same host is still the site
    final_url["http://site.test/index.html"] = "https://site.test/index.html"
    assert "ok" in resolver.fetch("http://site.test/index.html")
    # a redirect to another host is not
    final_url["http://site.test/jump.html"] = "https://elsewhere.test/x.html"
    with pytest.raises(PageReadError, match="off the site"):
        resolver.fetch("http://site.test/jump.html")
