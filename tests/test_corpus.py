"""Mirror loading and link extraction."""

import email.message
import gc
import io
import logging
import random
import sys
import tracemalloc
import types
import urllib.request
from collections import deque
from functools import partial
from http.server import BaseHTTPRequestHandler, SimpleHTTPRequestHandler
from urllib.parse import quote, urljoin
from urllib.response import addinfourl

import pytest

from navminer import corpus as corpus_module
from navminer.cli import main
from navminer.corpus import (_HREF_TRIM, DEFAULT_REDIRECT_LIMIT, Corpus, CorpusError,
                             FileResolver, HttpResolver, Page, PageId, PageReadError,
                             extract_links, load_corpus, logger)
from navminer.navmodel import token_seq
from navminer.normalize import _LINK_ATTRS, Document, EmptyDocumentError, Tag, to_xhtml

from conftest import (DEMO_CORPUS, DEMO_PAGE_COUNT, assert_packed, mirror_pages,
                      random_document, random_link_markup, random_mirror, serving, tree_of,
                      walk_tree, write_mirror)


def extract_links_walk(doc: Document, base: PageId, resolver) -> list[PageId]:
    """The tree-walking ``extract_links`` that the parser's record of link
    values replaced, kept as its oracle."""
    links: list[PageId] = []
    seen: set[PageId] = set()
    for element, _, closing in walk_tree(tree_of(doc)):
        if closing or element.__class__ is str or element.name not in _LINK_ATTRS:
            continue
        attr_name = _LINK_ATTRS[element.name]
        value = next((v for k, v in element.attrs if k == attr_name), None)
        target = None if value is None else resolver.resolve(base, value)
        if target is not None and target not in seen:
            seen.add(target)
            links.append(target)
        elif target is None and value and value.strip():
            logger.debug("unresolvable reference %r on %s", value, base)
    return links


def test_single_page_no_links(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>solo</body></html>"})
    corpus = load_corpus(root, max_depth=3, delay=0.0)
    assert set(corpus.pages) == {"index.html"}
    assert corpus.pages["index.html"].depth == 0


def test_two_page_cycle_terminates(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a></body></html>',
        "a.html": '<html><body><a href="index.html">home</a></body></html>',
    })
    corpus = load_corpus(root, max_depth=5, delay=0.0)
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
    assert links == ["a.html"]


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
    assert links == ["b.html"]


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
    assert extract_links(doc, "index.html", resolver) == \
        ["submit.html", "inner.html"]


SITE = "http://site.test/"


def _http_id(resolver: HttpResolver, base: PageId, href: str) -> PageId | None:
    """What ``resolver``, for the site at ``SITE``, makes of ``href`` on
    page ``base``, written as a filesystem id: the site prefix dropped."""
    target = resolver.resolve(SITE + base, href)
    return None if target is None else target.removeprefix(SITE)


def test_relative_resolution_and_escape_rejection(tmp_path):
    resolver, http = FileResolver(tmp_path), HttpResolver(SITE, delay=0.0)
    assert resolver.resolve("sub/page.html", "../other.html") == "other.html"
    assert resolver.resolve("sub/page.html", "deeper/x.html") == "sub/deeper/x.html"
    assert resolver.resolve("page.html", "../../outside.html") is None
    assert resolver.resolve("page.html", "a%20b.html") == "a b.html"
    # a query is kept as written, and only the path part is joined, as urljoin does
    for base, href, expected in (
            ("items/p.html", "q.html?u=../../x", "items/q.html?u=../../x"),
            ("index.html", "search.html?u=http://x", "search.html?u=http://x"),
            ("items/p.html", "?x=1", "items/p.html?x=1"),
            ("items/p.html?u=a/b", "q.html", "items/q.html"),
            ("items/p.html", "sub?", "items/sub"),
            ("items/p.html", "q.html?a%20b", "items/q.html?a b"),
            ("items/p.html?id=1", "?", "items/p.html"),  # RFC 3986 §5.2.2
            ("items/p.html?id=1", "?#top", "items/p.html"),
            ("items/p.html", "q\n.html?a\tb\r", "items/q.html?ab"),
            # C0 controls and whitespace are trimmed at both ends, as a URL parser does
            ("p.html", "\x01a.html", "a.html"),
            ("p.html", "a.html\x01", "a.html"),
            ("items/p.html", "\x00 q.html?x=1\x1f\u3000", "items/q.html?x=1"),
            ("p.html", "a\x01b.html", "a\x01b.html")):
        assert resolver.resolve(base, href) == expected, (base, href)
        assert _http_id(http, base, href) == expected, (base, href)


def _random_base(rng) -> PageId:
    path = rng.choice(["index.html", "p.html", "items/p.html", "a/b/c.html"])
    if rng.random() < 0.4:
        path += "?" + rng.choice(["id=1", "u=a/b", "u=../x", "u=http://x", "a?b", ""])
    return path


_C0_OR_SPACE = "".join(map(chr, range(0x21)))


def _random_href(rng) -> str:
    segments = [rng.choice([".", "..", "items", "sub", "x.html", "q.html", "a%20b.html"])
                for _ in range(rng.randint(0, 3))]
    path = ("/" if rng.random() < 0.25 else "") + "/".join(segments)
    if segments and rng.random() < 0.2:
        path += "/"
    href = path
    if rng.random() < 0.5:
        href += "?" + rng.choice(["", "id=2", "u=a/b", "u=../../x", "u=http://x",
                                  "a?b", "u=//x"])
    if rng.random() < 0.15:
        href += "#" + rng.choice(["", "top", "a/b"])
    href = rng.choice([href] * 8 + [
        "#top", "mailto:a@b.test", "http://other.test/x.html", "//other.test/x.html",
        SITE + path.lstrip("/"), "//site.test/" + path.lstrip("/")])
    for _ in range(rng.choice([0, 0, 0, 1, 2])):  # tabs and newlines: a URL parser drops them
        at = rng.randint(0, len(href))
        href = href[:at] + rng.choice("\t\n\r") + href[at:]
    if rng.random() < 0.2:  # C0 controls and spaces at the ends: a URL parser trims them
        href = "".join(rng.choices(_C0_OR_SPACE, k=rng.randint(0, 2))) + href + \
            "".join(rng.choices(_C0_OR_SPACE, k=rng.randint(0, 2)))
    return href


def _generated_pairs() -> list[tuple[PageId, str]]:
    """20,000 generated (page, href) pairs, the same on every call."""
    rng = random.Random(230)
    return [(_random_base(rng), _random_href(rng)) for _ in range(20_000)]


def test_file_and_http_resolution_agree(tmp_path):
    """The two resolvers, over an empty mirror and a site, give the same id
    for generated links, tabs and newlines among them and C0 controls and
    spaces at their ends, except in three classes, each of which occurs:
    (a) a link above the root, which a URL clamps to the root;
    (b) a target that ends in "/" or names the root or a directory, which a
        URL keeps as a directory where an empty mirror has a plain name;
    (c) a same-host absolute URL, which a mirror cannot hold."""
    resolver, http = FileResolver(tmp_path), HttpResolver(SITE, delay=0.0)
    classes = {"agree": 0, "a": 0, "b": 0, "c": 0}
    noisy = trimmed = 0
    for base, href in _generated_pairs():
        got, url = resolver.resolve(base, href), _http_id(http, base, href)
        clean = href.replace("\t", "").replace("\n", "").replace("\r", "")
        noisy += clean != href
        trimmed += clean != clean.strip(_C0_OR_SPACE)
        clean = clean.strip(_C0_OR_SPACE)
        path = clean.split("#", 1)[0].partition("?")[0]
        if got == url:
            kind = "agree"
        elif clean.startswith((SITE, "//site.test/")):
            kind = "c"
            assert got is None and url is not None
        elif got is None:
            kind = "a"
            assert ".." in path.split("/") and url is not None
        else:
            kind = "b"
            got_path, _, got_query = got.partition("?")
            url_path, _, url_query = url.partition("?")
            assert url_path in ("", got_path + "/") and got_query == url_query
            assert got_path == "." or url_path
        classes[kind] += 1
    assert all(classes.values()), classes
    assert classes["agree"] > 10_000, classes
    assert noisy > 5_000
    assert trimmed > 2_000


# pages of one directory, with and without a query, and hrefs for them:
# most without a path (each names the page it is on), a few with one
_SAME_DIRECTORY_BASES = ("items/p.html", "items/q.html", "items/p.html?id=1",
                         "items/q.html?u=a/b", "index.html", "p.html?id=2", "moved.html")
_SAME_DIRECTORY_HREFS = ("", "?", "?x=1", "#top", "?#f", "?x=1#f", " ?y", "http:",
                         "http:?y", "http:#f", "https:", ";p", "x.html", "../q.html", ".",
                         "./", "sub/")

# where a page's redirects ended, over HTTP: into another directory, to a
# directory, to another query and to another scheme and port on the site
_REDIRECTED = {"moved.html": "items/new/", "a/b/c.html": "a/b/c/",
               "p.html?id=1": "p.html?id=3", "items/q.html": "https://site.test:443/items/q.html"}


def test_a_warm_resolver_equals_a_fresh_resolver_per_link(tmp_path, monkeypatch):
    """A resolver remembers what each href with a path resolves to, per
    directory of the page it is on (over HTTP, of the URL the page's
    redirects ended at).  One resolver per mode, resolving the generated
    pairs and pages of one directory with mostly path-less hrefs, all
    shuffled, gives for each what a fresh resolver gives; over HTTP some
    pages were redirected, in both."""
    write_mirror(tmp_path, {"index.html": "i", "items/index.html": "i", "a/b/index.htm": "i"})
    (tmp_path / "sub").mkdir()  # a directory without an index page
    pairs = _generated_pairs()
    pairs += [(base, href) for base in _SAME_DIRECTORY_BASES
              for href in _SAME_DIRECTORY_HREFS] * 3
    random.Random(231).shuffle(pairs)
    monkeypatch.setattr(corpus_module, "_opener", lambda netloc: None)  # no fetch here

    def http_resolver():
        resolver = HttpResolver(SITE, delay=0.0)
        resolver._final_url.update({SITE + page: urljoin(SITE, url)
                                    for page, url in _REDIRECTED.items()})
        return resolver

    for fresh, base_of in ((partial(FileResolver, tmp_path), str),
                           (http_resolver, lambda base: SITE + base)):
        warm, targets = fresh(), set()
        for base, href in pairs:
            target = warm.resolve(base_of(base), href)
            assert target == fresh().resolve(base_of(base), href), (base, href)
            targets.add(target)
        assert len(targets) > 100


class _MemoFree:
    """Oracle: a resolver that remembers nothing between links."""

    def resolve(self, base, href):
        self._memo.clear()
        return super().resolve(base, href)


class _MemoFreeFiles(_MemoFree, FileResolver):
    pass


class _MemoFreeHttp(_MemoFree, HttpResolver):
    pass


def _loaded(root) -> tuple:
    """What a load of ``root`` found: each page's depth and links, the
    dangling and the excluded targets."""
    corpus = load_corpus(root, max_depth=10, delay=0.0)
    return ({page_id: (page.depth, page.links) for page_id, page in corpus.pages.items()},
            corpus.dangling, corpus.excluded)


def test_random_mirrors_load_alike_with_and_without_the_resolution_memo(tmp_path,
                                                                         monkeypatch):
    """Random mirrors with subdirectories, ``../`` and root-relative links,
    links to directories, queries and escapes load the same pages, links,
    dangling and excluded targets with the resolvers' memos and with every
    link resolved afresh: from the files, and over HTTP for a few.  Deep
    and long pages are among the loaded ones, and empty files among the
    excluded."""
    rng = random.Random(2301)
    loaded = dangling = large = empty = 0
    for index in range(24):
        root = random_mirror(tmp_path / str(index), rng, rng.randint(4, 30), (1, 6))
        remembered = _loaded(root)
        if index < 4:
            with serving(partial(SimpleHTTPRequestHandler, directory=str(root.parent))) as url:
                over_http = _loaded(f"{url}/index.html")
                with monkeypatch.context() as patch:
                    patch.setattr(corpus_module, "HttpResolver", _MemoFreeHttp)
                    assert _loaded(f"{url}/index.html") == over_http, index
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "FileResolver", _MemoFreeFiles)
            assert _loaded(root) == remembered, index
        loaded += len(remembered[0])
        dangling += len(remembered[1])
        large += sum(name in remembered[0] for name in ("deep.html", "long.html"))
        empty += "files/empty.html" in remembered[2]
    assert loaded > 200 and dangling > 100 and large > 2 and empty > 0


def load_page_at_a_time(root, max_depth: int) -> Corpus:
    """The loader that fetched, parsed and link-scanned each page before
    it fetched the next, kept as the oracle of the batched
    ``load_corpus``."""
    resolver, root_id = corpus_module._open_root(root, 0.0)
    strings: dict = {}
    tags: dict = {}
    corpus = Corpus(root=root_id, pages={})

    def load(page_id, depth, referrer):
        document = to_xhtml(resolver.fetch(page_id), strings, tags)
        links = tuple(extract_links(document, page_id, resolver))
        corpus.pages[page_id] = Page(depth, document, links, referrer)

    load(root_id, 0, None)
    queue = deque([root_id])
    known = {root_id}
    dangling = set()
    while queue:
        page_id = queue.popleft()
        page = corpus.pages[page_id]
        if page.depth >= max_depth:
            continue
        for target in page.links:
            if target in known:
                continue
            known.add(target)
            try:
                load(target, page.depth + 1, page_id)
            except PageReadError as exc:
                logger.warning("dangling link: %s", str(exc))
                dangling.add(target)
            except EmptyDocumentError:
                logger.warning("excluded (no markup): %s", target)
                corpus.excluded.append(target)
            else:
                queue.append(target)
    corpus.dangling = sorted(dangling)
    return corpus


def _recorded_load(load, root, max_depth, monkeypatch, caplog) -> tuple:
    """What ``load`` of ``root`` gives: each page's id, depth, referrer,
    links and document in load order, the dangling and excluded targets,
    every page fetched, in order, and every record logged."""
    fetched = []

    def recording(fetch):
        def recorded(self, page_id):
            fetched.append(page_id)
            return fetch(self, page_id)
        return recorded

    caplog.clear()
    with monkeypatch.context() as patch, caplog.at_level(logging.DEBUG, logger=logger.name):
        for resolver in (FileResolver, HttpResolver):
            patch.setattr(resolver, "fetch", recording(resolver.fetch))
        corpus = load(root, max_depth)
    return ([(page_id, page.depth, page.referrer, page.links, page.document)
             for page_id, page in corpus.pages.items()],
            corpus.dangling, corpus.excluded, fetched,
            [(record.levelname, record.getMessage()) for record in caplog.records])


@pytest.mark.parametrize("batch", [1, 2, 5, corpus_module.FETCH_BATCH])
def test_a_batched_load_equals_the_page_at_a_time_oracle(tmp_path, monkeypatch, caplog, batch):
    """Random mirrors at crawl depths 0-3, from the files and over HTTP
    for a few, load the same pages in the same order (depth, referrer,
    links and document each), the same dangling and excluded targets,
    with the same fetches in the same order and the same log records, in
    batches of one page, of a few and of ``FETCH_BATCH``."""
    monkeypatch.setattr(corpus_module, "FETCH_BATCH", batch)
    rng = random.Random(2900 + batch)
    load = partial(load_corpus, delay=0.0)
    loaded = dangling = excluded = warnings = 0
    for index in range(12):
        root = random_mirror(tmp_path / str(index), rng, rng.randint(4, 40), (1, 8))
        for max_depth in range(4):
            batched = _recorded_load(load, root, max_depth, monkeypatch, caplog)
            oracle = _recorded_load(load_page_at_a_time, root, max_depth, monkeypatch, caplog)
            assert batched == oracle, (index, max_depth)
            loaded += len(batched[0])
            dangling += len(batched[1])
            excluded += len(batched[2])
            warnings += sum(level == "WARNING" for level, _ in batched[4])
        if index < 2:
            with serving(partial(SimpleHTTPRequestHandler, directory=str(root.parent))) as url:
                for max_depth in (1, 3):
                    batched = _recorded_load(load, f"{url}/index.html", max_depth,
                                             monkeypatch, caplog)
                    oracle = _recorded_load(load_page_at_a_time, f"{url}/index.html",
                                            max_depth, monkeypatch, caplog)
                    assert batched == oracle, (index, max_depth)
                    loaded += len(batched[0])
    assert loaded > 300 and dangling > 150 and excluded > 2 and warnings > 150


def test_a_load_holds_at_most_a_batch_of_unparsed_pages(tmp_path, monkeypatch):
    """A root linking three batches' worth of pages, each linking a page
    of its own: the pages fetched and not yet parsed never outnumber
    ``FETCH_BATCH``, also while the root's links are only partly
    followed, and every page loads."""
    bound = corpus_module.FETCH_BATCH
    count = 3 * bound
    site = {"index.html": "<html><body>" + "".join(f'<a href="p{i}.html">{i}</a>'
                                                   for i in range(count)) + "</body></html>"}
    for i in range(count):
        site[f"p{i}.html"] = f'<html><body><a href="q{i}.html">q</a></body></html>'
        site[f"q{i}.html"] = "<html><body>leaf</body></html>"
    root = write_mirror(tmp_path, site)
    unparsed = []
    most = 0

    def fetching(self, page_id):
        unparsed.append(page_id)
        return fetch(self, page_id)

    def parsing(text, strings, tags):
        nonlocal most
        most = max(most, len(unparsed))
        unparsed.pop()
        return parse(text, strings, tags)

    fetch, parse = FileResolver.fetch, corpus_module.to_xhtml
    monkeypatch.setattr(FileResolver, "fetch", fetching)
    monkeypatch.setattr(corpus_module, "to_xhtml", parsing)
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert len(corpus.pages) == 1 + 2 * count and unparsed == []
    assert 1 < most <= bound


def test_no_read_error_outlives_a_load(tmp_path):
    """The unreadable pages of a load leave their messages and nothing
    else: once the load returns, no ``PageReadError`` is left, without a
    garbage collection, so none sits in a reference cycle either."""
    root = write_mirror(tmp_path, {
        "index.html": "<html><body>" + "".join(f'<a href="gone{i}.html">x</a>' for i in range(5))
                      + '<a href="a.html">a</a></body></html>',
        "a.html": '<html><body><a href="gone9.html">x</a></body></html>',
    })
    gc.collect()
    gc.disable()
    try:
        before = {id(obj) for obj in gc.get_objects() if isinstance(obj, PageReadError)}
        corpus = load_corpus(root, max_depth=2, delay=0.0)
        after = [obj for obj in gc.get_objects()
                 if isinstance(obj, PageReadError) and id(obj) not in before]
    finally:
        gc.enable()
    assert len(corpus.dangling) == 6 and after == []


def test_an_href_is_trimmed_of_c0_controls_and_whitespace():
    """Both resolvers trim one set at an href's ends: the C0 controls and
    space, which the WHATWG URL parser trims, and whatever ``str.strip``
    trims."""
    whitespace = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert set(_HREF_TRIM) == set(_C0_OR_SPACE) | whitespace


def test_tabs_and_newlines_in_an_href_are_dropped(tmp_path):
    """As a URL parser does, so a file-mode load finds the page an HTTP
    crawl of the same mirror would."""
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a\nb.html">ab</a><a href="c\td.html">cd</a>'
                      '<a href="\r\nsub/\te.html">e</a></body></html>',
        "ab.html": "<html><body>ab</body></html>",
        "cd.html": "<html><body>cd</body></html>",
        "sub/e.html": "<html><body>e</body></html>",
    })
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "ab.html", "cd.html", "sub/e.html"}
    assert corpus.pages["index.html"].links == ("ab.html", "cd.html", "sub/e.html")
    assert corpus.dangling == []


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
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "..data.html"}
    assert corpus.dangling == []


def test_links_to_the_mirror_root_are_back_references(tmp_path):
    root = write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="/">home</a><a href="./">here</a>'
                      '<a href="items/x.html">x</a></body></html>',
        "items/x.html": '<html><body><a href="..">up</a><a href="../">up</a></body></html>',
    })
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "items/x.html"}
    assert corpus.pages["index.html"].links == ("index.html", "items/x.html")
    assert corpus.pages["items/x.html"].links == ("index.html",)
    assert corpus.dangling == []
    resolver = FileResolver(tmp_path / "site")
    for base, href in (("index.html", "/"), ("index.html", "./"), ("index.html", "."),
                       ("items/x.html", ".."), ("items/x.html", "../"),
                       ("items/x.html", "/")):
        assert resolver.resolve(base, href) == "index.html", (base, href)
    assert resolver.resolve("items/x.html", "./") == "items"  # no index: dangling
    assert resolver.resolve("index.html", "..") is None
    assert resolver.resolve("index.html", "../") is None


def test_a_root_link_without_a_root_index_is_dangling(tmp_path):
    write_mirror(tmp_path, {"page.html": '<html><body><a href="/">home</a></body></html>'})
    corpus = load_corpus(tmp_path / "page.html", max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"page.html"}
    assert corpus.dangling == ["."]


def test_query_string_is_part_of_the_locator(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="page.html?id=1">one</a>'
                      '<a href="page.html?id=2">two</a></body></html>',
        "page.html?id=1": "<html><body>first</body></html>",
        "page.html?id=2": "<html><body>second</body></html>",
    })
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert {"page.html?id=1", "page.html?id=2"} <= set(corpus.pages)


def test_max_depth_zero_keeps_only_root(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a></body></html>',
        "a.html": "<html><body>deep</body></html>",
    })
    corpus = load_corpus(root, max_depth=0, delay=0.0)
    assert set(corpus.pages) == {"index.html"}


def test_unreadable_root_is_fatal(tmp_path):
    with pytest.raises(CorpusError):
        load_corpus(tmp_path / "missing.html", max_depth=1, delay=0.0)


def test_markup_free_root_is_fatal(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "no tags here"})
    with pytest.raises(CorpusError):
        load_corpus(root, max_depth=1, delay=0.0)


def test_missing_linked_page_recorded_as_dangling(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="gone.html">x</a>'
                      '<a href="a.html">a</a></body></html>',
        "a.html": "<html><body>fine</body></html>",
    })
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert corpus.dangling == ["gone.html"]
    assert set(corpus.pages) == {"index.html", "a.html"}


def test_a_kept_dangling_link_warning_holds_no_exception(tmp_path, caplog):
    """A handler that keeps its records (pytest's capture here, or a
    ``MemoryHandler``) keeps whatever a record references.  An exception
    would bring its traceback, and with it ``load_corpus``'s frame and the
    whole load; so the warning carries the message alone."""
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="gone.html">x</a></body></html>',
    })
    with caplog.at_level(logging.WARNING, logger=logger.name):
        assert load_corpus(root, max_depth=2, delay=0.0).dangling == ["gone.html"]
    assert [record.getMessage().split(":")[0] for record in caplog.records] == ["dangling link"]
    assert "gone.html" in caplog.records[0].getMessage()
    for record in caplog.records:
        assert record.exc_info is None and record.exc_text is None
        assert not [arg for arg in record.args
                    if isinstance(arg, (BaseException, types.TracebackType))]


def test_markup_free_linked_page_excluded(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="plain.html">p</a></body></html>',
        "plain.html": "words only",
    })
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert corpus.excluded == ["plain.html"]
    assert "plain.html" not in corpus.pages


# linked files that are not text; the PDF's bytes hold tag-like runs
_PDF = (b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n1 0 obj\n<< /Type /Catalog >>\nstream\n"
        b"<x\x00\x01\x02<q r=1>\x9c\x03<body>\nendstream\nendobj\n%%EOF\n")
_PNG = b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\x00\x00\x00\x01<a\x08b>"


def _mirror_linking_binaries(root):
    write_mirror(root, {
        "index.html": '<html><body><a href="doc.pdf">pdf</a><img src="img.png">'
                      '<a href="img.png">png</a><a href="a.html">a</a></body></html>',
        "a.html": "<html><body>text</body></html>",
    })
    (root / "doc.pdf").write_bytes(_PDF)
    (root / "img.png").write_bytes(_PNG)
    return root / "index.html"


def test_binary_linked_files_are_excluded(tmp_path, capsys):
    root = _mirror_linking_binaries(tmp_path / "site")
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "a.html"}
    assert corpus.excluded == ["doc.pdf", "img.png"]
    assert corpus.dangling == []
    # end to end: neither file becomes a node, and the run succeeds
    assert main(["--root", str(root), "--out", str(tmp_path / "out")]) == 0
    assert "pages: 2  nodes: 2" in capsys.readouterr().out


def test_binary_root_is_fatal(tmp_path):
    root = _mirror_linking_binaries(tmp_path)
    for name in ("doc.pdf", "img.png"):
        with pytest.raises(CorpusError, match="no markup"):
            load_corpus(root.parent / name, max_depth=1, delay=0.0)


def test_symlink_leaving_the_mirror_is_dangling(tmp_path):
    root = write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="leak.html">leak</a>'
                      '<a href="alias.html">alias</a><a href="sub/up.html">up</a>'
                      '<a href="out/secret.html">dir</a></body></html>',
        "a.html": "<html><body>inside</body></html>",
        "sub/keep.txt": "",
    })
    write_mirror(tmp_path / "outside", {"secret.html": "<html><body>secret</body></html>"})
    site = tmp_path / "site"
    (site / "leak.html").symlink_to("../outside/secret.html")
    (site / "alias.html").symlink_to("a.html")
    (site / "sub" / "up.html").symlink_to("../a.html")
    (site / "out").symlink_to(tmp_path / "outside", target_is_directory=True)
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "alias.html", "sub/up.html"}
    assert corpus.dangling == ["leak.html", "out/secret.html"]


def test_nul_in_a_link_is_dangling(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a%00.html">nul</a></body></html>',
    })
    assert load_corpus(root, max_depth=2, delay=0.0).dangling == ["a\x00.html"]


def test_directory_href_with_a_slash_loads_its_index(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="sub/">sub</a></body></html>',
        "sub/index.html": '<html><body><a href="page.html">p</a></body></html>',
        "sub/page.html": "<html><body>leaf</body></html>",
    })
    corpus = load_corpus(root, max_depth=3, delay=0.0)
    assert set(corpus.pages) == {"index.html", "sub/index.html", "sub/page.html"}
    assert corpus.dangling == []


def test_directory_href_without_a_slash_loads_its_index(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="sub">sub</a>'
                      '<a href="sub/index.html">same</a></body></html>',
        "sub/index.html": '<html><body><a href="../index.html">home</a></body></html>',
    })
    corpus = load_corpus(root, max_depth=3, delay=0.0)
    assert set(corpus.pages) == {"index.html", "sub/index.html"}
    assert corpus.pages["index.html"].links == ("sub/index.html",)
    assert corpus.dangling == []


def test_directory_href_without_an_index_is_dangling(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><a href="bare/">b</a><a href="bare">c</a></body></html>',
        "bare/notes.html": "<html><body>unlisted</body></html>",
    })
    corpus = load_corpus(root, max_depth=3, delay=0.0)
    assert set(corpus.pages) == {"index.html"}
    assert corpus.dangling == ["bare"]


def test_depth_equals_shortest_chain(demo_corpus):
    assert demo_corpus.pages["cat-fish.html"].depth == 1
    assert demo_corpus.pages["items/item-f5.html"].depth == 2
    assert demo_corpus.pages["cart/add-f5.html"].depth == 3
    assert demo_corpus.pages["checkout.html"].depth == 4


def test_demo_corpus_page_count(demo_corpus):
    assert len(demo_corpus.pages) == DEMO_PAGE_COUNT
    assert demo_corpus.dangling == ["faq-archive.html"]


def test_directory_root_finds_index(demo_root):
    corpus = load_corpus(demo_root.parent, max_depth=0, delay=0.0)
    assert corpus.root == "index.html"


def test_http_mode_same_authority_only(tmp_path):
    write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a>'
                      '<a href="http://elsewhere.example/x.html">ext</a></body></html>',
        "a.html": '<html><body><a href="index.html">home</a></body></html>',
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=3, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/a.html"}


def test_http_ids_drop_a_default_port_and_give_an_empty_path_a_slash():
    """RFC 3986 §6.2.3: ``http://host``, ``http://host/``, ``http://host:80/``
    and ``http://host:/`` are one page."""
    resolver = HttpResolver("http://Host.test:80", delay=0.0)
    root = "http://host.test/"
    for url in ("http://host.test", "HTTP://HOST.test:80", "http://host.test:/", root):
        assert resolver.normalize(url) == root
    assert resolver.normalize("https://host.test:443") == "https://host.test/"
    assert resolver.normalize("https://host.test:80/a.html") == "https://host.test:80/a.html"
    assert resolver.normalize("http://host.test:8080") == "http://host.test:8080/"
    for href in ("/", "./", "http://host.test", "http://host.test:80", "//host.test:80/"):
        assert resolver.resolve(root, href) == root
    # an explicit default port is the same site, in both directions
    assert resolver.resolve(root, "http://host.test/a.html") == "http://host.test/a.html"
    assert resolver.resolve(root, "https://host.test:443/a.html") == "https://host.test/a.html"
    assert HttpResolver("http://host.test/", delay=0.0).resolve(
        root, "http://host.test:80/a.html") == "http://host.test/a.html"
    # another port is another site
    assert resolver.resolve(root, "http://host.test:8080/a.html") is None
    assert resolver.resolve(root, "https://host.test:80/a.html") is None
    assert HttpResolver("http://host.test:8080/", delay=0.0).resolve(
        "http://host.test:8080/", "http://host.test/a.html") is None


def test_http_root_without_a_path_is_one_page(tmp_path):
    write_mirror(tmp_path, {
        "index.html": '<html><body><a href="a.html">a</a><a href="/">home</a></body></html>',
        "a.html": '<html><body><a href="/">home</a><a href="./">here</a></body></html>',
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(base, max_depth=3, delay=0.0)
        assert corpus.root == f"{base}/"
        assert set(corpus.pages) == {f"{base}/", f"{base}/a.html"}
        assert corpus.pages[f"{base}/a.html"].links == (f"{base}/",)
        assert corpus.dangling == []


def test_http_unparsable_href_is_unresolvable(tmp_path, caplog):
    write_mirror(tmp_path, {
        "index.html": '<html><body><a href="http://[oops/x.html">bad</a>'
                      '<a href="a.html">a</a></body></html>',
        "a.html": "<html><body>fine</body></html>",
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        with caplog.at_level("DEBUG", logger=logger.name):
            corpus = load_corpus(f"{base}/index.html", max_depth=2, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/a.html"}
        assert corpus.dangling == []
        assert "unresolvable reference 'http://[oops/x.html'" in caplog.text
        assert main(["--root", f"{base}/index.html", "--delay", "0",
                     "--out", str(tmp_path / "out")]) == 0


def test_http_binary_linked_files_are_excluded(tmp_path):
    _mirror_linking_binaries(tmp_path)
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=2, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/a.html"}
        assert corpus.excluded == [f"{base}/doc.pdf", f"{base}/img.png"]
        with pytest.raises(CorpusError, match="no markup"):
            load_corpus(f"{base}/img.png", max_depth=1, delay=0.0)


def test_http_redirect_off_the_site_is_dangling(tmp_path):
    write_mirror(tmp_path / "other", {"x.html": "<html><body>elsewhere</body></html>"})
    write_mirror(tmp_path / "site", {
        "index.html": '<html><body><a href="a.html">a</a>'
                      '<a href="jump.html">jump</a></body></html>',
        "a.html": "<html><body>here</body></html>",
    })
    foreign_requests = []

    class Recording(SimpleHTTPRequestHandler):
        def do_GET(self):
            foreign_requests.append(self.path)
            return super().do_GET()

    with serving(partial(Recording, directory=str(tmp_path / "other"))) as other:
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
    assert foreign_requests == []  # the redirect was refused, not followed


class FakeSite(urllib.request.BaseHandler):
    """Answers every http(s) request of an opener it is added to, before
    urllib's own handlers: a 301 to ``moved[url]`` (without a Location
    when that is None) or else a page.  Records each URL requested."""

    handler_order = 100

    def __init__(self, moved: dict):
        self.moved = moved
        self.requested = []

    def http_open(self, request):
        url = request.full_url
        self.requested.append(url)
        headers = email.message.Message()
        if url in self.moved:
            if self.moved[url] is not None:
                headers["Location"] = self.moved[url]
            response = addinfourl(io.BytesIO(b""), headers, url, 301)
        else:
            response = addinfourl(io.BytesIO(b"<html><body>ok</body></html>"), headers, url, 200)
        response.msg = "fake"
        return response

    https_open = http_open


def _fake_site(moved: dict) -> tuple[HttpResolver, FakeSite]:
    resolver = HttpResolver("http://site.test/index.html", delay=0.0)
    site = FakeSite(moved)
    resolver._opener.add_handler(site)
    return resolver, site


def test_http_scheme_change_on_the_same_host_loads():
    moved = {}  # url -> Location of its 301
    resolver, site = _fake_site(moved)
    requested = site.requested
    # a direct https link from an http root stays on the site
    assert resolver.resolve("http://site.test/index.html",
                            "https://site.test/p.html") == "https://site.test/p.html"
    assert "ok" in resolver.fetch("https://site.test/p.html")
    # an http -> https upgrade redirect on the same host is still the site
    moved["http://site.test/index.html"] = "https://site.test/index.html"
    assert "ok" in resolver.fetch("http://site.test/index.html")
    # a redirect to another host is not, and is not requested
    moved["http://site.test/jump.html"] = "https://elsewhere.test/x.html"
    with pytest.raises(PageReadError, match="off the site"):
        resolver.fetch("http://site.test/jump.html")
    assert "https://elsewhere.test/x.html" not in requested
    # a same-host redirect loop ends once one URL repeats too often
    moved["http://site.test/loop.html"] = "/loop.html"
    with pytest.raises(PageReadError, match="infinite loop"):
        resolver.fetch("http://site.test/loop.html")
    loop_limit = urllib.request.HTTPRedirectHandler.max_repeats
    assert requested.count("http://site.test/loop.html") == loop_limit + 1


def test_http_redirect_to_an_explicit_default_port_stays_on_the_site():
    resolver, site = _fake_site({"http://site.test/a.html": "http://site.test:80/b.html",
                                 "http://site.test/c.html": "https://SITE.test:443/d.html",
                                 "http://site.test/e.html": "http://site.test:8080/f.html"})
    assert "ok" in resolver.fetch("http://site.test/a.html")
    assert "ok" in resolver.fetch("http://site.test/c.html")
    with pytest.raises(PageReadError, match="off the site to http://site.test:8080/f.html"):
        resolver.fetch("http://site.test/e.html")
    assert site.requested == ["http://site.test/a.html", "http://site.test:80/b.html",
                              "http://site.test/c.html", "https://SITE.test:443/d.html",
                              "http://site.test/e.html"]


def test_http_redirect_chain_loads_up_to_the_limit():
    def chain(hops):
        return {f"http://site.test/{hop}.html": f"/{hop + 1}.html" for hop in range(hops)}

    resolver, site = _fake_site(chain(DEFAULT_REDIRECT_LIMIT))
    assert "ok" in resolver.fetch("http://site.test/0.html")
    assert len(site.requested) == DEFAULT_REDIRECT_LIMIT + 1
    resolver, site = _fake_site(chain(DEFAULT_REDIRECT_LIMIT + 1))
    with pytest.raises(PageReadError, match="infinite loop"):
        resolver.fetch("http://site.test/0.html")
    assert len(site.requested) == DEFAULT_REDIRECT_LIMIT + 1


def test_http_off_site_hop_after_a_same_site_hop_is_never_requested():
    resolver, site = _fake_site({"http://site.test/a.html": "/b.html",
                                 "http://site.test/b.html": "https://elsewhere.test/x.html",
                                 "http://site.test/c.html": "ftp://site.test/x.html"})
    with pytest.raises(PageReadError, match="off the site to https://elsewhere.test/x.html"):
        resolver.fetch("http://site.test/a.html")
    with pytest.raises(PageReadError, match="off the site to ftp://site.test/x.html"):
        resolver.fetch("http://site.test/c.html")
    assert site.requested == ["http://site.test/a.html", "http://site.test/b.html",
                              "http://site.test/c.html"]


def test_http_redirect_without_location_dangles():
    resolver, site = _fake_site({"http://site.test/a.html": None})
    with pytest.raises(PageReadError, match="301"):
        resolver.fetch("http://site.test/a.html")
    assert site.requested == ["http://site.test/a.html"]


def test_http_links_on_a_redirected_page_resolve_against_its_final_url(tmp_path):
    """``SimpleHTTPRequestHandler`` answers ``/sub`` with a 301 to ``/sub/``:
    the ``p.html`` that ``sub/index.html`` links is ``/sub/p.html``."""
    write_mirror(tmp_path, {
        "index.html": '<html><body><a href="sub">sub</a></body></html>',
        "sub/index.html": '<html><body><a href="p.html">p</a></body></html>',
        "sub/p.html": "<html><body>p</body></html>",
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=3, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/sub", f"{base}/sub/p.html"}
        assert corpus.dangling == []
    corpus = load_corpus(str(tmp_path), max_depth=3, delay=0.0)
    assert set(corpus.pages) == {"index.html", "sub/index.html", "sub/p.html"}


def test_http_percent_escaped_names_load(tmp_path):
    """Page names with a space, a non-ASCII letter, a bare ``%`` and a
    literal ``%41`` load over HTTP from their percent-encoded links: the
    request carries each name's own bytes, encoded once."""
    names = ["b c.html", "dé.html", "100%.html", "a%41.html"]
    write_mirror(tmp_path, {
        "index.html": "<html><body>" + "".join(
            f'<a href="{quote(name)}">{index}</a>' for index, name in enumerate(names))
        + "</body></html>",
        **{name: f"<html><body>{index}</body></html>" for index, name in enumerate(names)},
    })
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=2, delay=0.0)
        assert set(corpus.pages) == {f"{base}/{name}" for name in ["index.html", *names]}
        assert corpus.dangling == []


def test_http_redirect_location_keeps_its_escapes():
    # a header arrives latin-1 decoded: these are the bytes of "dé"
    resolver, site = _fake_site({"http://site.test/old.html": "/a%41 d\xc3\xa9.html"})
    assert "ok" in resolver.fetch("http://site.test/old.html")
    assert site.requested == ["http://site.test/old.html", "http://site.test/a%41%20d%C3%A9.html"]


def test_http_fetch_goes_through_the_environment_proxy(monkeypatch):
    asked = []

    class Proxy(BaseHTTPRequestHandler):
        def do_GET(self):
            asked.append(self.path)
            body = b"<html><body>proxied</body></html>"
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):
            pass

    with serving(Proxy) as proxy:
        for name in ("no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", proxy)
        # nothing listens on the site's port: only the proxy can answer
        resolver = HttpResolver("http://127.0.0.1:9/index.html", delay=0.0)
        assert "proxied" in resolver.fetch("http://127.0.0.1:9/a b.html")
    assert asked == ["http://127.0.0.1:9/a%20b.html"]


class BadAnswers(BaseHTTPRequestHandler):
    """Three pages that fail in transport; every other path is the root."""

    def do_GET(self):
        if self.path == "/truncated.html":
            self.send_response(200)
            self.send_header("Content-Length", "1000")
            self.end_headers()
            self.wfile.write(b"<html><body>")  # 12 of the 1000 bytes
        elif self.path == "/silent.html":
            pass  # the connection closes without an answer
        elif self.path == "/garbage.html":
            self.wfile.write(b"this is not HTTP\r\n\r\n")
        else:
            body = ('<html><body><a href="truncated.html">t</a><a href="silent.html">s</a>'
                    '<a href="garbage.html">g</a></body></html>').encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        self.close_connection = True

    def log_message(self, format, *args):
        pass


def test_http_transport_failures_are_dangling(tmp_path):
    with serving(BadAnswers) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=2, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html"}
        assert corpus.dangling == [f"{base}/{name}" for name in
                                   ("garbage.html", "silent.html", "truncated.html")]
        assert main(["--root", f"{base}/index.html", "--delay", "0",
                     "--out", str(tmp_path / "out")]) == 0


def test_loaded_demo_corpus_with_mms_tokens_stays_small(demo_root):
    """Pages kept as their events, with slotted tags, interned names and
    interned tokens: the demo mirror's 29 pages and MMS token tuples hold
    about 68 KB, under 80 KB (about 100 KB with an element tree per
    page)."""
    def load():
        corpus = load_corpus(demo_root, max_depth=10, delay=0.0)
        for page_id in corpus.pages:
            token_seq(corpus, page_id, "MMS")
        return corpus

    load()  # the first load fills module-level caches; those are not the corpus
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpus.pages) == DEMO_PAGE_COUNT
    assert held < 80_000


@pytest.fixture(scope="module")
def loads(benchmark_mirrors):
    """A load of the demo and one of the benchmark catalog."""
    return [load_corpus(directory / "index.html", max_depth=10, delay=0.0)
            for directory in (DEMO_CORPUS, benchmark_mirrors[0])]


def test_page_documents_hold_tuples_and_no_list(loads):
    for corpus in loads:
        for page_id, page in corpus.pages.items():
            assert_packed(page.document, page_id)


def _shared_parts(document):
    """What a load shares of one page: its tags, their attributes and
    attribute values, and its text runs."""
    for part in document.parts:
        if part.__class__ is Tag:
            yield part
            yield part.attrs
            yield from (value for _, value in part.attrs)
        else:
            yield part


def _text_runs(corpus):
    return {part: part for page in corpus.pages.values() for part in page.document.parts
            if part.__class__ is str and len(part) > 1}


def test_equal_values_and_text_runs_of_one_load_are_one_object(loads):
    for corpus in loads:
        shared: dict = {}
        parts = 0
        for page in corpus.pages.values():
            for part in _shared_parts(page.document):
                assert shared.setdefault(part, part) is part
                parts += 1
        assert parts > 2 * len(shared)
    # the sharing lasts as long as the load: another has copies of its own
    before = _text_runs(loads[0])
    after = _text_runs(load_corpus(DEMO_CORPUS / "index.html", max_depth=10, delay=0.0))
    assert before.keys() == after.keys()
    assert not any(after[text] is before[text] for text in before)


def test_values_and_text_runs_are_not_interned(loads):
    """Interned strings can outlive the trees holding them, so only names
    are interned.  Strings made of name characters alone may be interned
    as constants of loaded code, and single characters are cached, so
    the samples are longer and hold other characters."""
    for corpus in loads:
        parts = [part for page in corpus.pages.values() for part in page.document.parts]
        value = next(v for part in parts if part.__class__ is Tag for _, v in part.attrs
                     if len(v) > 1 and not v.replace("_", "a").isalnum())
        text = next(part for part in parts if part.__class__ is str and len(part) > 1
                    and not part.replace("_", "a").isalnum())
        for sample in (value, text):
            copy = "".join(list(sample))
            assert copy == sample and copy is not sample
            assert sys.intern(copy) is not sample


def test_the_loaded_benchmark_catalog_stays_small(benchmark_mirrors):
    """Pages kept as their events, with tags, values, text runs and shapes
    shared per load: the 614 catalog pages and their 28 shapes hold
    about 1.01 MB, under 1.2 MB (2.17 MB with an element tree per
    page)."""
    root = benchmark_mirrors[0] / "index.html"
    load_corpus(root, max_depth=10, delay=0.0)  # module-level caches fill first
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(root, max_depth=10, delay=0.0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpus.pages) == 614
    assert held < 1_200_000
    shapes = {id(page.document.shape) for page in corpus.pages.values()}
    assert len(shapes) == len({page.document.shape for page in corpus.pages.values()}) == 28


def test_extract_links_equals_the_tree_walking_oracle(tmp_path, benchmark_mirrors):
    """On the demo, benchmark and random mirrors (empty, deep and long
    pages among them), on random link markup and on random documents."""
    rng = random.Random(2401)
    mirrors = [random_mirror(tmp_path / f"mirror{index}", rng, rng.randint(4, 30), (1, 6)).parent
               for index in range(12)]
    checked = empty = large = 0
    for directory in (DEMO_CORPUS, *benchmark_mirrors, *mirrors):
        resolver = FileResolver(directory)
        for page_id, text in mirror_pages(directory):
            try:
                doc = to_xhtml(text)
            except EmptyDocumentError:
                empty += 1
                continue
            assert extract_links(doc, page_id, resolver) == \
                extract_links_walk(doc, page_id, resolver), page_id
            checked += 1
            large += page_id in ("deep.html", "long.html")
    assert checked > 800 and empty > 0 and large > 2
    rng = random.Random(211)
    resolver = FileResolver(tmp_path)
    docs = [to_xhtml(random_link_markup(rng)) for _ in range(300)]
    docs += [random_document(rng, rng.randint(0, 4)) for _ in range(300)]
    found = 0
    for doc in docs:
        links = extract_links(doc, "dir/index.html", resolver)
        assert links == extract_links_walk(doc, "dir/index.html", resolver)
        found += len(links)
    assert found > 250


def _image_map_site(root):
    return write_mirror(root, {
        "index.html": '<html><body><img src="m.gif" usemap="#m"><map name="m">'
                      '<area shape="rect" coords="0,0,9,9" href="mapped.html">'
                      '<area shape="default" nohref></map></body></html>',
        "mapped.html": "<html><body>reachable through the image map alone</body></html>",
    })


def test_image_map_areas_are_links(tmp_path):
    root = _image_map_site(tmp_path)
    corpus = load_corpus(root, max_depth=2, delay=0.0)
    assert set(corpus.pages) == {"index.html", "mapped.html"}
    assert corpus.pages["index.html"].links == ("mapped.html",)
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        corpus = load_corpus(f"{base}/index.html", max_depth=2, delay=0.0)
        assert set(corpus.pages) == {f"{base}/index.html", f"{base}/mapped.html"}


def _byte_order_mark_site(root):
    """Two copies of a page, one saved with a UTF-8 byte order mark, and
    the page saved as UTF-16."""
    page = '<html><body><p>caf\xe9</p><a href="bom.html">1</a><a href="utf16.html">2</a>' \
           '</body></html>'
    root.mkdir(exist_ok=True)
    (root / "index.html").write_bytes(page.encode("utf-8"))
    (root / "bom.html").write_bytes(b"\xef\xbb\xbf" + page.encode("utf-8"))
    (root / "utf16.html").write_bytes(page.encode("utf-16"))
    return root / "index.html"


def test_a_page_with_a_byte_order_mark_parses_like_the_page_without(tmp_path):
    root = _byte_order_mark_site(tmp_path)
    with serving(partial(SimpleHTTPRequestHandler, directory=str(tmp_path))) as base:
        for locator, prefix in ((root, ""), (f"{base}/index.html", f"{base}/")):
            corpus = load_corpus(locator, max_depth=2, delay=0.0)
            plain, bom = prefix + "index.html", prefix + "bom.html"
            assert set(corpus.pages) == {plain, bom}
            assert corpus.pages[bom].document == corpus.pages[plain].document
            assert token_seq(corpus, bom, "STS") == token_seq(corpus, plain, "STS")
            assert corpus.excluded == [prefix + "utf16.html"]  # binary, as before
