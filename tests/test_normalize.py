"""Repair, pretty-printing and text stripping."""

import ast
import random
import re
import sys
from dataclasses import dataclass
from html import escape
from html.parser import HTMLParser

import pytest

from navminer import normalize
from navminer.cli import main
from navminer.normalize import (_BINARY_BYTE, _RAW_TEXT_TAGS, _RUN, _SNIFF_CHARS, _STRICT_TAG,
                                IMPLIED_END, VOID_ELEMENTS, Document, EmptyDocumentError, LineText,
                                Tag, _escape_attr, pretty_print, stripped_lines, to_xhtml)

from conftest import (DEMO_CORPUS, REPO_ROOT, Element, all_elements, assert_packed,
                      document_of, elements_of, link_values, mirror_pages, random_document,
                      random_link_markup, shape_of, tags_of, tree_of, walk_tree, write_mirror)


# oracles: the text form for round trips, and the copying form of stripped_lines
def serialize(doc: Document) -> str:
    """Round-trippable text form of a Document (the pretty-print)."""
    lines = pretty_print(doc).lines
    return "\n".join(lines) + "\n" if lines else ""


def remove_textual_content(doc: Document) -> Document:
    """Drop every text node; element structure and attributes stay put."""
    open_copies: list[Element] = []
    for node, _, closing in walk_tree(tree_of(doc)):
        if closing:
            root = open_copies.pop()
            root.children = tuple(root.children)
        elif node.__class__ is not str:
            copy = Element(node.name, node.attrs, [], node.self_closing)
            if open_copies:
                open_copies[-1].children.append(copy)
            open_copies.append(copy)
    return document_of(root)


@dataclass(slots=True)
class Text:
    """The oracle builders' text run, a wrapper that merges in place;
    ``_oracle_tree`` hands the run on as its plain ``str``."""

    content: str


class _ListTreeBuilder(HTMLParser):
    """Oracle: the tree builder before pages became their events, and
    before trees were packed.  Every element owns a list of attributes
    and a list of children, a text run is a ``Text`` and values are kept
    as parsed, one object per occurrence."""

    # the raw-text elements the builder pins on every CPython
    CDATA_CONTENT_ELEMENTS = ("script", "style")
    RCDATA_CONTENT_ELEMENTS = ()

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.top: list[Element | Text] = []
        self.stack: list[Element] = []
        self.elements: list[Element] = []  # in creation order, which is document order
        self.open_count: dict[str, int] = {}  # tag name -> elements of it on the stack

    def updatepos(self, i, j):
        # the base class counts lines here only for getpos(), which
        # nothing reads; skipping the count saves about 3.5% of the parse
        # of the benchmark's catalog pages (0.5% of its long table pages)
        return j

    def _append(self, node):
        target = self.stack[-1].children if self.stack else self.top
        if isinstance(node, Text) and target and isinstance(target[-1], Text):
            # adjacent runs (e.g. split around a dropped comment) merge
            target[-1].content = target[-1].content + " " + node.content
        else:
            target.append(node)

    def _pop(self):
        self.open_count[self.stack.pop().name] -= 1

    def _close_implied(self, tag):
        while self.stack and tag in IMPLIED_END.get(self.stack[-1].name, ()):
            self._pop()

    @staticmethod
    def _clean_attrs(attrs):
        seen = set()
        cleaned = []
        for name, value in attrs:
            if name in seen:  # HTML5 keeps the first duplicate
                continue
            seen.add(name)
            cleaned.append((sys.intern(name), value if value is not None else ""))
        return cleaned

    def handle_starttag(self, tag, attrs):
        self._close_implied(tag)
        tag = sys.intern(tag)
        element = Element(tag, self._clean_attrs(attrs), [])
        self.elements.append(element)
        if tag in VOID_ELEMENTS:
            element.self_closing = True
            self._append(element)
        else:
            self._append(element)
            self.stack.append(element)
            self.open_count[tag] = self.open_count.get(tag, 0) + 1

    def handle_startendtag(self, tag, attrs):
        self._close_implied(tag)
        element = Element(sys.intern(tag), self._clean_attrs(attrs), [], self_closing=True)
        self.elements.append(element)
        self._append(element)

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        if self.open_count.get(tag):
            while self.stack[-1].name != tag:
                self._pop()
            self._pop()
        # else: stray close tag, dropped

    def handle_data(self, data):
        if self.stack and self.stack[-1].name in _RAW_TEXT_TAGS:
            return  # script/style bodies are not structure
        collapsed = " ".join(data.split())
        if collapsed:
            self._append(Text(collapsed))


class _StackScanBuilder(HTMLParser):
    """Oracle: the tree builder that finds a close tag's element by
    scanning the whole open stack (O(depth) per close tag)."""

    # the raw-text elements the builder pins on every CPython
    CDATA_CONTENT_ELEMENTS = ("script", "style")
    RCDATA_CONTENT_ELEMENTS = ()

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.top = []
        self.stack = []

    @property
    def elements(self):
        """The elements in document order, derived from the finished tree
        rather than recorded while building."""
        return [node for node, _ in _preorder(self.top) if node.__class__ is Element]

    def _append(self, node):
        target = self.stack[-1].children if self.stack else self.top
        if isinstance(node, Text) and target and isinstance(target[-1], Text):
            target[-1].content = target[-1].content + " " + node.content
        else:
            target.append(node)

    def _close_implied(self, tag):
        while self.stack and tag in IMPLIED_END.get(self.stack[-1].name, ()):
            self.stack.pop()

    @staticmethod
    def _clean_attrs(attrs):
        seen = set()
        cleaned = []
        for name, value in attrs:
            if name in seen:
                continue
            seen.add(name)
            cleaned.append((name, value if value is not None else ""))
        return cleaned

    def handle_starttag(self, tag, attrs):
        self._close_implied(tag)
        element = Element(tag, self._clean_attrs(attrs), [])
        if tag in VOID_ELEMENTS:
            element.self_closing = True
            self._append(element)
        else:
            self._append(element)
            self.stack.append(element)

    def handle_startendtag(self, tag, attrs):
        self._close_implied(tag)
        self._append(Element(tag, self._clean_attrs(attrs), [], self_closing=True))

    def handle_endtag(self, tag):
        if tag in VOID_ELEMENTS:
            return
        if tag in [e.name for e in self.stack]:
            while self.stack and self.stack.pop().name != tag:
                pass

    def handle_data(self, data):
        if self.stack and self.stack[-1].name in ("script", "style"):
            return
        collapsed = " ".join(data.split())
        if collapsed:
            self._append(Text(collapsed))


def _oracle_tree(text, builder_class):
    """``to_xhtml`` as it was before pages became their events, with one
    of the list builders: the repaired tree, its text runs as ``str``,
    and the link values read off the elements the builder created."""
    if _BINARY_BYTE.search(text, 0, _SNIFF_CHARS):
        raise EmptyDocumentError("binary data, not markup")
    builder = builder_class()
    builder.feed(text)
    builder.close()
    if not builder.elements:
        raise EmptyDocumentError("no recognizable markup")
    top = builder.top
    root = top[0] if len(top) == 1 else Element("html", [], list(top))
    for node, _ in _preorder([root]):
        if node.__class__ is Element:
            node.children = tuple(child.content if child.__class__ is Text else child
                                  for child in node.children)
    return root, link_values(builder.elements)


def _preorder(nodes):
    """Every node under ``nodes`` with its depth, in document order, on an
    explicit stack; for trees of either representation (text runs as
    ``Text`` or ``str``, lists or tuples)."""
    stack = [(node, 0) for node in reversed(nodes)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if node.__class__ is Element:
            stack.extend((child, depth + 1) for child in reversed(node.children))


def _tree_events(root):
    """Every node of an oracle's tree with its depth, in document order:
    a text run as its ``str``, an element as its name, attributes as a
    tuple and ``self_closing``.  Equal for two trees exactly when they
    are equal up to lists for tuples."""
    return [(depth, node) if node.__class__ is str
            else (depth, node.name, tuple(node.attrs), node.self_closing)
            for node, depth in _preorder([root])]


def _events(doc):
    """``_tree_events`` of the tree a document's events describe, read
    off the shape and the parts in one pass."""
    parts = iter(doc.parts)
    events = []
    depth = 0
    for event in doc.shape:
        if event is None:
            depth -= 1
            continue
        part = next(parts)
        if part.__class__ is str:
            events.append((depth, part))
        else:
            events.append((depth, part.name, part.attrs, part.self_closing))
            depth += 1
    return events


def _canonical(doc):
    """``_events`` and the link values: equal to an oracle's
    ``_tree_events`` and link values exactly when the document's events
    describe the oracle's tree and its ``hrefs`` are the oracle's."""
    return _events(doc), tuple(doc.hrefs)


def _oracle_canonical(text, builder_class):
    """``_canonical`` of an oracle's parse of ``text``."""
    root, hrefs = _oracle_tree(text, builder_class)
    return _tree_events(root), hrefs


def _parse_both(text):
    """``to_xhtml`` and the stack-scan oracle's parse, as ``_events``
    lists, or None when it finds no markup."""
    results = []
    for parse in (lambda markup: _events(to_xhtml(markup)),
                  lambda markup: _oracle_canonical(markup, _StackScanBuilder)[0]):
        try:
            results.append(parse(text))
        except EmptyDocumentError:
            results.append(None)
    return results


_MARKUP_TAGS = ("div", "p", "span", "b", "i", "ul", "li", "table", "thead", "tbody",
                "tr", "td", "th", "dl", "dt", "dd", "select", "option", "form",
                "br", "img", "hr", "input", "script", "h2")


def _random_malformed_markup(rng: random.Random) -> str:
    """Unclosed tags, stray and interleaved closes, void closes,
    self-closing forms and text, in random order."""
    parts = []
    for _ in range(rng.randint(0, 80)):
        tag = rng.choice(_MARKUP_TAGS)
        roll = rng.random()
        if roll < 0.45:
            attr = f' class="{rng.choice("xyz")}"' if rng.random() < 0.3 else ""
            parts.append(f"<{tag}{attr}>")
        elif roll < 0.8:
            parts.append(f"</{tag}>")
        elif roll < 0.88:
            parts.append(f"<{tag}/>")
        else:
            parts.append(rng.choice(("word", " ", "a < b", "&amp;")))
    return "".join(parts)


def _assert_hrefs_are_the_walk(doc, where):
    """``doc.hrefs`` is the oracle's reading of its tree, value object for
    value object."""
    expected = link_values(elements_of(tree_of(doc)))
    assert doc.hrefs.__class__ is tuple, where
    assert doc.hrefs == expected, where
    assert all(a is b for a, b in zip(doc.hrefs, expected)), where


def test_the_recorded_hrefs_are_the_walk_of_the_tree_random():
    """Unclosed tags, stray closes, implied ends, void and self-closing
    tags, several top-level nodes and adjacent text, link tags with none,
    one or two of the link attributes and duplicate and bare ones: the
    parser's link values are those of the tree's link elements in walk
    order, object for object."""
    rng = random.Random(208)
    synthetic_roots = merged_texts = hrefs = 0
    texts = [_random_malformed_markup(rng) for _ in range(1500)]
    texts += [random_link_markup(rng) for _ in range(1500)]
    texts += [_random_shape_markup(rng) for _ in range(1500)]
    texts += ["<p>one</p> two <p>three", "a<b>x</b><!-- c -->b<i/>c", "<br><br/>tail"]
    for text in texts:
        try:
            doc = to_xhtml(text)
        except EmptyDocumentError:
            continue
        _assert_hrefs_are_the_walk(doc, text)
        synthetic_roots += doc.shape[0] == "html"  # the generators write no <html>
        merged_texts += any("word word" in part for part in doc.parts if part.__class__ is str)
        hrefs += len(doc.hrefs)
    assert synthetic_roots > 100 and merged_texts > 10 and hrefs > 3000


# link values the parser must record or skip: a duplicate link attribute,
# a bare href, an href inside a script, image map areas, a form without
# an action, a form that closes a paragraph implicitly, link tags closed
# by an ancestor's close and by the end of the page, several top-level
# nodes and frames; each with the values it records
_LINK_CASES = {
    '<a href="x.html" href="y.html">1</a><a name="n" href="z.html">2</a>': ("x.html", "z.html"),
    "<a href>bare</a><a href=''>empty</a><a>none</a>": ("", ""),
    "<script>s = '<a href=\"s.html\">';</script><a href=\"t.html\">t</a>": ("t.html",),
    '<map><area href="m.html"><area nohref><area href="n.html"/></map>': ("m.html", "n.html"),
    '<form><input name="q"></form><form action="f.html" action="g.html"></form>': ("f.html",),
    '<p>a<form action="p.html"><p>b<a href="q.html">c<p>d': ("p.html", "q.html"),
    '<div><a href="u.html">u</div><a href="v.html">v': ("u.html", "v.html"),
    '<a href="1.html">1</a> text <a href="2.html">2</a><area href="3.html">': (
        "1.html", "2.html", "3.html"),
    '<iframe src="i.html"></iframe><frameset><frame src="f.html"></frameset>': (
        "i.html", "f.html"),
    '<IFRAME SRC="j.html" src="k.html">x</IFRAME><img src="no.png"><link href="no.css">': (
        "j.html",),
}


def test_the_recorded_hrefs_of_fixed_cases_and_demo_and_benchmark_pages(benchmark_mirrors):
    """The parser's link values equal the oracle's walk of the tree: on
    the link cases above, which record the values beside them, and on the
    tag memo's cases, both parsed in both orders and each twice with one
    memo, so that every tag is tokenized once and replayed once; on the
    demo and benchmark pages, parsed with one memo as a load parses them;
    and on the pretty-print of random documents."""
    for cases in (list(_LINK_CASES) + list(_TAG_MEMO_CASES),
                  list(_TAG_MEMO_CASES)[::-1] + list(_LINK_CASES)[::-1]):
        strings, tags = {}, _CountingMemo()
        for text in cases * 2:
            doc = to_xhtml(text, strings, tags)
            _assert_hrefs_are_the_walk(doc, text)
            if text in _LINK_CASES:
                assert doc.hrefs == _LINK_CASES[text], text
        assert tags.hits > 100
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        strings, tags = {}, {}
        hrefs = 0
        for page_id, text in mirror_pages(directory):
            doc = to_xhtml(text, strings, tags)
            _assert_hrefs_are_the_walk(doc, page_id)
            hrefs += len(doc.hrefs)
        assert hrefs > 20, directory
    rng = random.Random(224)
    for _ in range(300):
        text = serialize(random_document(rng, rng.randint(0, 4)))
        _assert_hrefs_are_the_walk(to_xhtml(text), text)


_SHAPE_TAGS = ("div", "p", "span", "ul", "li", "dl", "dt", "dd", "table", "tbody", "tr",
               "td", "select", "option", "a", "br", "img", "input", "hr")
_SHAPE_ATTRS = ("class", "id", "href", "checked")
# text, text split by a comment, raw-text bodies holding tags, a bare "<"
_SHAPE_PIECES = ("word", " ", "word<!-- c -->word", "<!-- c -->", "a < b", "&amp;",
                 "<script>if (a<b) { x = '<p>'; }</script>", "<style>p > b {}</style>",
                 "<script></script>", "<style/>")


_START_TAG_ATTRS = re.compile(r"<\w+((?: \w+(?:=\"\w\")?)+)/?>")
_ATTR_NAME = re.compile(r" (\w+)")


def _random_shape_markup(rng: random.Random) -> str:
    """Open tags with up to three attributes (duplicate and bare names
    among them), stray and implied closes, void and ``/>`` tags, text,
    comments splitting text and script/style bodies, in random order and
    often several at the top level."""
    parts = []
    for _ in range(rng.randint(0, 60)):
        tag = rng.choice(_SHAPE_TAGS)
        attrs = "".join(
            f" {name}" if name == "checked" else f' {name}="{rng.choice("xy")}"'
            for name in rng.choices(_SHAPE_ATTRS, k=rng.choice((0, 0, 1, 2, 3))))
        roll = rng.random()
        if roll < 0.4:
            parts.append(f"<{tag}{attrs}>")
        elif roll < 0.6:
            parts.append(f"</{tag}>")
        elif roll < 0.7:
            parts.append(f"<{tag}{attrs}/>")
        else:
            parts.append(rng.choice(_SHAPE_PIECES))
    return "".join(parts)


def test_the_recorded_shape_is_the_walk_of_the_tree_random():
    """``Document.shape`` as the parser records it equals the walk of the
    list-builder oracle's tree on 11,500 random malformed markups:
    implied ends, stray closes, several top-level nodes, void and ``/>``
    tags, duplicate and bare attributes, merged text runs and
    script/style bodies all occur."""
    rng = random.Random(216)
    texts = [_random_shape_markup(rng) for _ in range(10_000)]
    texts += [_random_malformed_markup(rng) for _ in range(500)]
    texts += [_random_tokenizer_markup(rng) for _ in range(500)]
    texts += [_random_whitespace_markup(rng) for _ in range(500)] + list(_WHITESPACE_CASES)
    seen = dict.fromkeys(("root", "duplicate", "merged", "raw", "void"), 0)
    parsed = 0
    for text in texts:
        try:
            doc = to_xhtml(text)
        except EmptyDocumentError:
            continue
        assert doc.shape == shape_of(_oracle_tree(text, _ListTreeBuilder)[0]), text
        parsed += 1
        seen["root"] += doc.shape[0] == "html"  # the generators write no <html>
        seen["duplicate"] += any(len(set(names)) < len(names) for names in (
            _ATTR_NAME.findall(attrs) for attrs in _START_TAG_ATTRS.findall(text)))
        seen["merged"] += "word word" in text.replace("<!-- c -->", " ") and any(
            "word word" in part for part in doc.parts if part.__class__ is str)
        tags = tags_of(doc)
        seen["raw"] += any(tag.name in _RAW_TEXT_TAGS for tag in tags)
        seen["void"] += any(tag.self_closing for tag in tags)
    assert parsed > 10_000
    assert min(seen.values()) > 1000, seen


def test_the_recorded_shape_of_demo_and_benchmark_pages(benchmark_mirrors):
    """The list-builder oracle holds on every page of the demo and
    benchmark mirrors, and the pages parsed with one dict share one shape
    object per distinct shape: 12 for the 29 demo pages, 28 for the 614
    catalog pages, and the 9 long table pages have a shape each.  The
    open events of elements with attributes are shared too."""
    distinct = []
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        strings: dict = {}
        shapes: dict = {}
        events: dict = {}
        for page_id, text in mirror_pages(directory):
            doc = to_xhtml(text, strings)
            assert doc.shape == shape_of(_oracle_tree(text, _ListTreeBuilder)[0]), page_id
            assert shapes.setdefault(doc.shape, doc.shape) is doc.shape, page_id
            opened = [event for event in doc.shape if event.__class__ is tuple]
            assert opened, page_id
            assert all(events.setdefault(event, event) is event for event in opened), page_id
        distinct.append(len(shapes))
    assert distinct == [12, 28, 9]


# start tags on each side of the builder's implied-end rules and its
# attribute cleaning: an empty stack, an open element no tag closes
# implicitly, closers that exclude the tag, runs of elements that close
# their predecessor, one bare attribute and a duplicate
_START_TAG_CASES = ["<p>a</p><p>b", "<li>a</li><li>b", "<p><b>x", "<li><p>a<span>b",
                    "<ul><li>a<li>b<li><p>c<li>d</ul><li>e",
                    "<table><tr><td>a<td>b<th>c<tr><th>d<td>e<tr><td>f</table>",
                    "<select><option>a<option>b<optgroup><option>c<option>d</select>",
                    "<form><input disabled><input disabled><p>x</form>",
                    "<p><a href=x href=y>l</a><a href=x>m</a><a href=y href=x>n</a>"]


def test_packed_trees_equal_the_list_builder_oracle(benchmark_mirrors):
    """A page's events, shared values and tags describe the tree the list
    builder builds, and print and link alike: on random malformed,
    tokenizer-path and whitespace-run markup, on the fixed start-tag
    cases, and on the demo and benchmark pages, parsed with one shared
    dict as a load parses its pages, the events, shape and link values
    equal the oracle's tree's, and both printers print what
    ``_walk_lines`` prints of it.  Elements a page leaves open are closed
    too, and no list is left in a document."""
    rng = random.Random(210)
    texts = [_random_malformed_markup(rng) for _ in range(1500)]
    texts += [_random_tokenizer_markup(rng) for _ in range(500)]
    texts += [_random_whitespace_markup(rng) for _ in range(1000)] + list(_WHITESPACE_CASES)
    texts += _START_TAG_CASES
    texts += [text for directory in (DEMO_CORPUS, *benchmark_mirrors)
              for _, text in mirror_pages(directory)]
    strings: dict = {}
    parsed = 0
    for text in texts:
        try:
            root, hrefs = _oracle_tree(text, _ListTreeBuilder)
        except EmptyDocumentError:
            root = None
        try:
            doc = to_xhtml(text, strings)
        except EmptyDocumentError:
            doc = None
        assert (doc is None) == (root is None), text[:300]
        if doc is None:
            continue
        assert _canonical(doc) == (_tree_events(root), hrefs), text[:300]
        assert doc.shape == shape_of(root), text[:300]
        _assert_printed_alike(doc, root, text[:300])
        assert_packed(to_xhtml(text), text[:300])
        parsed += 1
    assert parsed > 1500


# open elements a start tag can close implicitly, and self-closing tags,
# void and not, some of which close those elements themselves
_IMPLIED_END_CONTEXTS = ("<p>a", "<ul><li>a", "<dl><dt>a", "<dl><dd>a",
                         "<table><tr><td>a", "<table><thead><tr><th>a",
                         "<select><option>a", "<div><p>a<b>x")
_SELF_CLOSING_TAGS = ("<br/>", "<div/>", "<input/>", "<img/>", '<div class="c"/>',
                      '<input type="submit"/>', "<p/>", "<li/>", "<dd/>", "<td/>",
                      "<tr/>", "<tbody/>", "<option/>")


def test_self_closing_tags_in_and_around_implied_ends_match_the_list_builder():
    """A self-closing tag closes what its start tag would and opens
    nothing: what follows it is its sibling, as the oracle builds it."""
    texts = [before + context + tag + "tail" + after
             for context in _IMPLIED_END_CONTEXTS for tag in _SELF_CLOSING_TAGS
             for before in ("", tag) for after in ("", tag, "<li>z", "</p>after")]
    for text in texts:
        assert _canonical(to_xhtml(text)) == _oracle_canonical(text, _ListTreeBuilder), text
    assert tree_of(to_xhtml("<p>a<div/>b")).children[1:] == (Element("div", (), (), True), "b")


def test_documents_compare_by_tree():
    """Equal shapes and equal parts, tag by tag and text by text, are an
    equal tree; the link values are read off the tags and not compared."""
    doc = to_xhtml("<div><p>x</p></div>")
    assert doc == Document(doc.shape, doc.parts, ())
    assert doc != to_xhtml("<div><p>y</p></div>")
    assert doc != to_xhtml('<div><p class="c">x</p></div>')
    assert doc != to_xhtml("<div><p>x</p><br></div>")


class _LineCountingBuilder(normalize._TreeBuilder):
    """Oracle: the tree builder with the stdlib's line counting back."""

    updatepos = HTMLParser.updatepos


_TOKENIZER_PIECES = (
    "<div>", "</div>", "<p>", "<b>", "</b>", "<br>", "<br/>", "<img\nsrc='x.gif'\n/>",
    '<a\n  href="a.html"\n  class="x">', "</a\n>", "text", "\n", "  line\nbreak  ",
    "<!-- comment -->", "<!--\nmulti\nline\n-->", "<!---->", "<!DOCTYPE html>",
    "<!doctype html\nPUBLIC 'x'>", "<![CDATA[x < y]]>", "<![if !IE]>", "<?php echo 1; ?>",
    "<?xml version='1.0'?>", "&amp;", "&#60;", "&#x3C;", "&copy", "&nosuch;", "&#;",
    "<", "< p>", "a < b", "<>", "</>", "</ div>", "<!>", "<!x>",
    "<script>if (a < b) { s = '</div>'; }\n</script>", "<style>p > b {}</style>",
    "<script>unterminated <b>", "<textarea><b>raw?</b></textarea>", "<title>t&amp;t</title>",
)
_TOKENIZER_TAILS = ("", "", '<div class="never', "<!-- open comment", "<", "</di",
                    "<![CDATA[open", "<?pi", "&am", "<a href='x")


def _random_tokenizer_markup(rng: random.Random) -> str:
    """Markup that takes the stdlib tokenizer down every path that moves
    its position: comments, declarations, CDATA, processing instructions,
    character references, tags over several lines, a bare ``<``, raw text
    and input that ends inside a tag."""
    pieces = [rng.choice(_TOKENIZER_PIECES) for _ in range(rng.randint(0, 40))]
    return "".join(pieces) + rng.choice(_TOKENIZER_TAILS)


def _parsed(text, strings=None, tags=None, builder=normalize._TreeBuilder):
    """The tree and link values (``_canonical``) and the shape
    ``to_xhtml`` gives ``text`` with ``builder``, or None when it finds
    no markup."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(normalize, "_TreeBuilder", builder)
        try:
            doc = to_xhtml(text, strings, tags)
        except EmptyDocumentError:
            return None
    return _canonical(doc), doc.shape


def test_skipping_the_line_count_changes_no_tree_random():
    rng = random.Random(209)
    texts = [_random_tokenizer_markup(rng) for _ in range(2000)]
    texts += [_random_whitespace_markup(rng) for _ in range(1000)] + list(_WHITESPACE_CASES)
    for text in texts:
        assert _parsed(text) == _parsed(text, builder=_LineCountingBuilder), text


def test_the_tree_builder_counts_no_lines():
    builder = normalize._TreeBuilder()
    builder.feed("<div>\n<p>\none</p>\n</div>")
    builder.close()
    assert builder.getpos() == (1, 0)
    counting = _LineCountingBuilder()
    counting.feed("<div>\n<p>\none</p>\n</div>")
    counting.close()
    assert counting.getpos() == (4, 6)


class _StdlibTags(normalize._TreeBuilder):
    """Oracle: the tree builder with every tag tokenized by the stdlib,
    its tag memo never read or filled."""

    parse_starttag = HTMLParser.parse_starttag
    parse_endtag = HTMLParser.parse_endtag


def _entries(value):
    """A memo value as the entries of its tags: a run's tuple of them, or
    one tag's entry, a start tag's tuple that begins with its ``Tag`` or
    an end tag's name."""
    return value if value.__class__ is tuple and value[0].__class__ is not Tag else (value,)


class _CountingMemo(dict):
    """A tag memo that counts the tags replayed from the lookups it
    answers (``hits``), a run's tags each, and the runs among them."""

    hits = runs = 0

    def get(self, key, default=None):
        value = dict.get(self, key, default)
        if value is not None:
            tags = len(_entries(value))
            self.hits += tags
            self.runs += tags > 1
        return value


def _single_tags(tags):
    """The memo's keys of one tag each, not of a run."""
    return [key for key, value in tags.items() if len(_entries(value)) == 1]


def _loose_quoted_keys(tags):
    """The memo's start-tag keys of one tag that hold a quote but are not
    of the strict form with one ">", at the end.  A start tag is looked
    up by its text up to the first ">" before the strict check, which is
    exact only when no such key is ever stored."""
    return [key for key in _single_tags(tags) if key[1] != "/" and ('"' in key or "'" in key)
            and (_STRICT_TAG.fullmatch(key) is None or key.count(">") != 1)]


def _raw_text_openers(tags):
    """The memo's keys, of one tag or of a run, that replay a start tag
    opening a script or style element: a replay would skip the stdlib's
    raw-text mode."""
    return [key for key, value in tags.items() if any(
        entry.__class__ is tuple and entry[0].name in _RAW_TEXT_TAGS
        and not entry[0].self_closing for entry in _entries(value))]


def test_the_tag_memo_equals_the_stdlib_tokenizer_random():
    """Start and end tags replayed from the memo build what the stdlib's
    tokenizing builds, tree, link values and shape, on 4,000 random
    markups from every generator above.  They are fed in batches of 50
    that share one memo and one strings dict, as a load's pages do, so a
    tag first tokenized in one context is replayed in another: after
    implied ends, beside raw-text bodies that hold the same text, near a
    tag cut off at the end.  No stored entry, of one tag or of a run,
    opens a raw-text element, and every quoted start tag stored alone has
    the strict form.  ``hits`` counts the tags replayed from either,
    ``stored`` the entries of one tag."""
    rng = random.Random(219)
    generators = (_random_shape_markup, _random_malformed_markup,
                  _random_tokenizer_markup, _random_whitespace_markup)
    hits = stored = 0
    for _ in range(80):
        strings, tags = {}, _CountingMemo()
        for _ in range(50):
            text = rng.choice(generators)(rng)
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text
        assert _raw_text_openers(tags) == []
        assert _loose_quoted_keys(tags) == []
        hits += tags.hits
        stored += len(_single_tags(tags))
    assert hits > 2 * stored > 10_000


# tags the memo must replay exactly or not at all: tag texts inside
# raw-text bodies and the same texts outside, the escapable raw-text
# elements, upper case, charrefs, duplicate and bare attributes, "/>" and
# void tags, implied ends before a replayed tag, tags cut off at the end
# of the input and odd tag texts
_TAG_MEMO_CASES = (
    '<div class="x"><script>s = \'<div class="x">\'; </div> <p></script>a</div>',
    "<div>b</div><script></div><p>c</p></script></div>",
    "<div><style>div > p { }</div></style><div><p>d</div></div>",
    "<SCRIPT>x = '<b>';</SCRIPT><b>e</b>",
    "<title>f &amp; <b>g</b></title><b>h</b>",
    "<textarea><div>i</div></textarea><div>j</div>",
    '<DIV CLASS="A">k</DIV><div class="A">l</div><Div Class="A">m</dIV>',
    '<a href="q?a=1&amp;b=2">n</a><a href="q?a=1&b=2">o</a><a title=\'&lt;&#62;&copy\'>p</a>',
    "<input disabled disabled=x><input disabled><input disabled=''>",
    "<a href=x href=y>q</a><a href=x>r</a><a href=y href=x>s</a>",
    "<br><br/><br /><img src=i><img src=i/><div/><div />t<div>u</div>",
    "<ul><li>v<li>w<li><p>x<li>y</ul>", "<p>z<p>a<div>b</div><p>c",
    "<table><tr><td>d<td>e<tr><td>f</table>",
    '<div>g<div class="never', "<p>h<a href=x", "<div>i<div",
    '<div"x>j</div"x><div"x>', "<a>k</a b><a>l</a b>", "<b>m</>n</ >o</b>",
    # replayed start tags that imply ends, one open element or several
    "<ul><li>a<li>b</ul><ol><li>c<li>d<li>e</ol>",
    "<table><tr><th>f<td>g<th>h<td>i</table>",
    "<table><tr><td>j<tr><td>k<tr><th>l<tr></table>",
    "<div><p>m<div>n</div><p>o<div>p</div></div>",
    "<select><optgroup><option>q<option>r<optgroup><option>s</select>",
    "<dl><dt>t<dd>u<dt>v<dd>w</dl>",
    # replayed end tags that close several elements, or none at all
    "<div><b><i>x</div><div><b><i>y</div><div><span><b>z</div>",
    "<b>a</b></b></i><b>b</b></b></li><p>c</p></p></div>",
    "<ul><li><p>d</ul><ul><li><p>e</ul></ul>",
    # a quote left open before the first ">": the tag ends there only
    # when no later quote closes it, so, outside the strict form, it is
    # parsed by the stdlib every time and never stored
    "<p>q<a d = 'x>y</a>", "<p>q<a d = 'x>y</a> z'<b>",
    '<p>a<b c="d>e</b></p>', '<p>a<b c="d>e</b>"</p>',
    # an end tag with a quote: the end-tag scan of CPython's 2025 parser
    # fixes reads a quoted value past the first ">" when a quote follows
    "<div><b>x</b c=  'y><i>w</i></div>", "<div><b>x</b c=  'y>z'><i>q</i></div>",
)


def test_the_tag_memo_equals_the_stdlib_tokenizer_on_fixed_cases():
    """The cases above, in both orders and each twice, with one memo:
    the second time every tag text has been seen.  Tags are replayed, and
    no script or style start tag is ever stored."""
    for cases in (_TAG_MEMO_CASES, _TAG_MEMO_CASES[::-1]):
        strings, tags = {}, _CountingMemo()
        for text in cases * 2:
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text
        assert tags.hits > 100
        assert [key for key in tags if key.lower().startswith(("<script", "<style"))] == []
        assert {'<div class="x">', "</div>", "<li>", "</a b>"} <= tags.keys()


def test_a_tag_memo_miss_scans_its_start_tag_once(monkeypatch):
    """A start tag the memo has not seen is scanned for its end once, by
    the stdlib's own ``parse_starttag`` and no one else, whether it is of
    the strict form (the divs) or not (the anchors, with spaces around
    "=").  A replay of the strict form is not scanned.  A quoted tag
    outside it is never stored: the stdlib parses it, with its one scan,
    every time."""
    scans = []
    scan = HTMLParser.check_for_whole_start_tag

    def counting(parser, i):
        scans.append(i)
        return scan(parser, i)

    monkeypatch.setattr(HTMLParser, "check_for_whole_start_tag", counting)
    text = "".join(f'<div id="d{n}"><a href = "{n}.html" class="c{n}">{n}</a></div>'
                   for n in range(20))
    expected = _parsed(text, builder=_StdlibTags)
    tags: dict = {}
    scans.clear()
    assert _parsed(text, {}, tags) == expected  # every tag a miss
    assert len(scans) == len(set(scans)) == 40
    scans.clear()
    assert _parsed(text, {}, tags) == expected  # every tag a replay
    assert len(scans) == len(set(scans)) == 20
    assert all(text.startswith("<a", i) for i in scans)


# start tags without a quote: their memo key is the text up to the
# first ">", looked up without the stdlib's scan for the end.  Odd
# spacing, bare and empty values, "/" in and before the end, upper case,
# a "<" inside the tag and a tag cut off at the end of the input
_QUOTE_FREE_ODD_TAGS = (
    "<a / b>", "<a =b>", "<a b=>", "<br/>", "<p/ >", "<a\tb\nc>", "<a b=c/>", "<A B=C>",
    "<a <b>", "<a b=c d>", "<img src=x/>", "<a/b>", "<div class=x>", "<a b=c",
)


def _quote_free_odd_markups():
    """Each odd tag alone, twice in a row, between text runs, where it
    may imply the end of a paragraph or list item, and at the end."""
    for tag in _QUOTE_FREE_ODD_TAGS:
        yield tag
        yield f"{tag}{tag}x"
        yield f"<div>x{tag}y</div>{tag}z"
        yield f"<p>{tag}a</a></p><ul><li>{tag}<li>b</ul>"
        yield f"<div><a href=h.html>x</a>{tag}"


def test_a_memo_filled_by_one_pass_replays_the_stdlib_on_a_second():
    """A markup parsed twice with one memo: the first pass tokenizes its
    tags and the second replays every one it stored, quote-free start
    tags looked up by their text up to the first ">".  Both build what
    the stdlib's tokenizing builds, on 4,000 random markups and on the odd
    quote-free tags above."""
    rng = random.Random(227)
    generators = (_random_shape_markup, _random_malformed_markup,
                  _random_tokenizer_markup, _random_whitespace_markup)
    texts = [rng.choice(generators)(rng) for _ in range(4000)]
    hits = 0
    for text in [*texts, *_quote_free_odd_markups()]:
        tags = _CountingMemo()
        expected = _parsed(text, builder=_StdlibTags)
        assert _parsed(text, {}, tags) == expected, text
        tags.hits = 0
        assert _parsed(text, {}, tags) == expected, text
        hits += tags.hits
    assert hits > 40_000


def test_a_start_tag_outside_the_strict_form_is_scanned_on_every_pass(monkeypatch):
    """The stdlib's own scan for the end of a start tag, in its
    ``parse_starttag``, is the only one, and runs once per tag the memo
    has not seen.  A replay of a quote-free tag or of one of the strict
    form scans nothing, in a run or alone.  A quoted tag outside the
    strict form (``<p title = "t0">``), where a quoted ">" might not end
    it, is never stored: the stdlib parses it, scanning it once, on every
    pass.  The anchors, seen once, keep their runs out of the memo on the
    first pass; the second pass stores those runs and the third replays
    them."""
    scans = []
    scan = HTMLParser.check_for_whole_start_tag

    def counting(parser, i):
        scans.append(i)
        return scan(parser, i)

    monkeypatch.setattr(HTMLParser, "check_for_whole_start_tag", counting)
    text = "".join(f'<div class=d{n}><a href="{n}.html" class=c>{n}</a><br/>'
                   f'<p title = "t{n}">x</p></div>' for n in range(20))
    expected = _parsed(text, builder=_StdlibTags)
    tags = _CountingMemo()
    scans.clear()
    assert _parsed(text, {}, tags) == expected
    # each distinct text scanned once: 20 divs, 20 anchors and one br as
    # misses, and the 20 paragraphs the stdlib parses on every pass
    assert len(scans) == len(set(scans)) == 61
    for _ in range(2):
        scans.clear()
        assert _parsed(text, {}, tags) == expected
        assert len(scans) == 20  # the paragraphs alone
        assert all(text.startswith("<p", i) for i in scans)
    assert '<div class=d0><a href="0.html" class=c>' in tags
    assert tags.runs >= 20


def test_the_tag_memo_equals_the_stdlib_tokenizer_on_demo_and_benchmark_pages(
        benchmark_mirrors):
    """Each mirror's pages parsed with one memo, as a load parses them,
    build what the stdlib's tokenizing builds.  Most of their tags are
    replays, and most of their runs: more than ten tags replayed per
    single-tag entry, more than ten run replays per run entry."""
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        strings, tags = {}, _CountingMemo()
        for page_id, text in mirror_pages(directory):
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), page_id
        assert _raw_text_openers(tags) == []
        singles = len(_single_tags(tags))
        assert tags.hits > 10 * singles, directory
        assert tags.runs > 10 * (len(tags) - singles), directory


# quote-free tags for runs: implied ends, stray and multi-level closes,
# void, "/>" and odd tags, links, and the raw-text openers and closers
_RUN_TAGS = (
    "<div>", "</div>", "<p>", "</p>", "<ul>", "</ul>", "<li>", "</li>", "<table>",
    "</table>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "<dl>", "<dt>", "<dd>", "<h1>",
    "<select>", "<option>", "<b>", "</b>", "<i>", "</i>", "<span>", "</span>", "<P CLASS=x>",
    "<a href=x.html>", "</a>", "</a b>", "<area href=y.html>", "<form action=f.html>",
    "<iframe src=g.html>", "<br>", "<br/>", "</br>", "<img>", "<img src=i.png>", "</img>",
    "<div/>", "<a/b>", "<a =b>", "<p/ >", "<script>", "</script>", "<SCRIPT>",
    "<script/>", "<style>", "</style>", "<Style media=x>",
)
# ASCII whitespace keeps a run going; the rest ends it
_RUN_SPACES = ("", "", "", " ", "\n  ", "\t", "\r\n", "\x0c")
_RUN_BREAKS = ("\xa0", "\u3000", "x", " text ", "<!-- c -->", '<a href="q.html">', "&amp;")
# binary-data bytes, and so only past the first KB of a page: "\v" ends
# a run, and "<b\x00>" is a tag in one that CPython before 3.13.13 reads
# as text
_LATE_RUN_BREAKS = ("\x0b", "\x1c", "<b\x00>")


def _random_runs(rng: random.Random) -> list[str]:
    """A dozen runs of one to ten of the tags above, apart by ASCII
    whitespace: the templates of a batch of markups."""
    return ["".join(rng.choice(_RUN_TAGS) + rng.choice(_RUN_SPACES)
                    for _ in range(rng.randint(1, 10))).rstrip() for _ in range(12)]


def _random_run_markup(rng: random.Random, runs: list[str]) -> str:
    """The runs of a batch in random order, mostly apart by other
    whitespace, text, comments and quoted tags, else by ASCII whitespace,
    which joins two into one; the last run often ends the input, and half
    the time the markup starts past a first KB that holds nothing, so a
    binary-data byte can end a run."""
    breaks = _RUN_BREAKS
    late = rng.random() < 0.5
    if late:
        breaks += _LATE_RUN_BREAKS
    parts = []
    for _ in range(rng.randint(0, 20)):
        parts.append(rng.choice(runs))
        parts.append(rng.choice(_RUN_SPACES) if rng.random() < 0.3 else rng.choice(breaks))
    markup = "".join(parts[:-1] if rng.random() < 0.5 else parts)
    return "<!--" + " " * _SNIFF_CHARS + "-->" + markup if late else markup


def test_a_run_of_tags_equals_the_stdlib_tokenizer_random():
    """Runs of quote-free tags replayed from the memo build what the
    stdlib's tokenizing builds, tree, link values and shape, on 3,000
    random markups in batches of 50 that share one memo and one set of
    runs, as a load's pages share their templates: a run first seen in
    one stack context is replayed in another.  No stored run opens a
    raw-text element."""
    rng = random.Random(231)
    runs = 0
    for _ in range(60):
        strings, tags, batch = {}, _CountingMemo(), _random_runs(rng)
        for _ in range(50):
            text = _random_run_markup(rng, batch)
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text
        assert _raw_text_openers(tags) == []
        runs += tags.runs
    assert runs > 3_000


def _run_of(count):
    """A run of ``count`` tags apart by newlines: start tags, then half
    as many ``</i>``."""
    opens = ["<div>", "<p>", "<b>", "<i>"] * count
    return "\n".join(opens[:count - count // 2] + ["</i>"] * (count // 2))


# runs across implied ends, met again in another context; stray and
# multi-level closes; void, "/>" and odd tags; runs that start or end
# with a raw-text element; runs of 7, 8 and 9 tags, and runs that end
# the input
_RUN_CASES = (
    "<ul><li>a</li>\n<li>b<li>\n<li>c</ul>", "<ol></li>\n<li>d</ol>",
    "<table><tr><td>e</td> <td><td>f</td></tr>\n<tr><th><td>g</table>",
    "<div></td> <td>h</div>", "<p>i<p>\n<div></div><p>\n<ul><li>j</ul>",
    "<dl><dt><dd>\n<dt>k</dl>", "<select><option><option>\n<option>l</select>",
    "<div><b><i>m</div></div></b>\n</i><span>n</span></span>",
    "</a b></a b><a>o</a b>\n</a b>", "<br/><br/>\n<img><img src=i.png></img></br><br>",
    "<p>p<div/><a/b><p/ >q</p>", "<script></div><p></script><p>r", "<SCRIPT><p></SCRIPT>\n<p>s",
    "<div>\n<p><script>a<b></script></p></div>", "<ul><li><style>li > a {}</style></ul>",
    "<div><script/>\n<b>t</b></div>", "<div><style></style></div><p><style>",
    _run_of(7), _run_of(8), _run_of(9), _run_of(9) + "u", _run_of(16),
    "<div><p>v</p></div>\n</body></html>", "<p>w</p><div><b",
    # other whitespace between tags ends a run and changes nothing
    "<ul>\xa0<li>x</li>\u3000<li>y</ul>", "<ul> <li>x</li> <li>y</ul>",
    "<!--" + " " * _SNIFF_CHARS + "--><ul>\x0b<li>z</li>\x0b<li>z</ul>",
    "<!--" + " " * _SNIFF_CHARS + "--><ul> <li>z</li> <li>z</ul>",
)


def test_a_run_of_tags_equals_the_stdlib_tokenizer_on_fixed_cases():
    """The cases above, in both orders and each twice, with one memo:
    the second time every run has been seen.  Runs are replayed, and none
    holds a script or style opener."""
    for cases in (_RUN_CASES, _RUN_CASES[::-1]):
        strings, tags = {}, _CountingMemo()
        for text in cases * 2:
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text
        assert tags.runs > 30
        assert _raw_text_openers(tags) == []
        assert {"<li>\n<li>", "</td> <td><td>", "<br/><br/>\n<img><img src=i.png></img></br><br>",
                "<div><script/>\n<b>", "</p></div>\n</body></html>"} <= tags.keys()
        assert max(len(_entries(value)) for value in tags.values()) == 8


def test_whitespace_other_than_ascii_ends_a_run_and_changes_nothing():
    """No-break space, ideographic space and vertical tab between tags
    end a run, and the page parses as with a space there."""
    for space in ("\xa0", "\u3000", "\x0b"):
        assert _RUN.match(f"</li>{space}<li>") is None
        late = "<!--" + " " * _SNIFF_CHARS + "-->"
        assert _parsed(f"{late}<ul>{space}<li>a</li>{space}<li>b</ul>", {}, {}) == \
            _parsed(f"{late}<ul> <li>a</li> <li>b</ul>")
    assert _RUN.match("</li> \t\n\r\x0c<li>").group() == "</li> \t\n\r\x0c<li>"


def test_a_run_is_stored_only_when_each_tag_ended_at_its_first_gt(monkeypatch):
    """A tokenizer that ends a quote-free tag past its first ">" is not
    trusted: here a stdlib whose ``parse_starttag`` reads a ``wide`` tag
    and the tag after it as one.  Such a tag is stored neither alone,
    under a text a run could share, nor in a run, and the builder with
    its memo builds what that stdlib's tokenizing builds, also where a
    run starts at the ``wide`` tag."""
    stdlib = HTMLParser.parse_starttag

    def wide(parser, i):
        end = stdlib(parser, i)
        if end > 0 and parser.rawdata.startswith("<wide", i):
            return parser.rawdata.find(">", end) + 1
        return end

    monkeypatch.setattr(HTMLParser, "parse_starttag", wide)
    monkeypatch.setattr(_StdlibTags, "parse_starttag", wide)
    strings, tags = {}, {}
    for text in ("<div><wide><b>x</b></div>\n" * 3, "y<wide><b>z", "<div><wide>\n<b>y"):
        for _ in range(2):
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text


# odd tags: half of random pieces (names, spaces, tabs, "=", "==", both
# quotes, "/", ">" and bare values), half of attributes of the strict
# form apart by ASCII whitespace, now and then with a piece put in
_ODD_TAG_OPENERS = ("<a", "<p", "<li", "<a ", "<BR", "</a", "</p")
_ODD_PIECES = ("b", "c", "x", " ", " ", "\t", "=", "=", "==", "'", "'", '"', '"', "/", ">", "v")
_ODD_ATTRS = ("b", "c=v", "b='x y'", 'c="x y"', "d='a\"b'", 'd="a\'b"', "e=c/", "f=''", 'g=""',
              "h=&amp;")
# what a page goes on with: nothing, a later quote of either kind, with
# and without a ">" after it
_ODD_LATER = ("", "x'", 'x"', "x' y>z", 'x" y>z', "<i title='t'>w</i>", '<i title="t">w</i>')
# the loose form ("every quote is closed") replays these at their first
# ">", where the stdlib reads on to a later quote
_LOOSE_COUNTEREXAMPLES = ("<a b=c=\"x y ='z\">", "<a ='c='abx>")


def _random_odd_tag(rng: random.Random) -> str:
    """An odd tag: up to ten random pieces, or up to three attributes of
    the strict form with, half the time, a piece or two put in."""
    if rng.random() < 0.5:
        pieces = [rng.choice(_ODD_PIECES) for _ in range(rng.randint(0, 10))]
    else:
        pieces = []
        for _ in range(rng.randint(0, 3)):
            pieces += [rng.choice((" ", " ", "\t", "\n")), rng.choice(_ODD_ATTRS)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            pieces.insert(rng.randint(0, len(pieces)), rng.choice(_ODD_PIECES))
    return rng.choice(_ODD_TAG_OPENERS) + "".join(pieces) + rng.choice((">", ">", "/>", " />"))


def _random_odd_tag_page(rng: random.Random) -> str:
    """Odd tags, mostly in runs apart by ASCII whitespace, among text and
    plain tags."""
    parts = ["<div>"]
    for _ in range(rng.randint(1, 10)):
        parts.append(_random_odd_tag(rng))
        parts.append(rng.choice(("", "", " ", "\n  ", "t", "</a>", "<b>", "</li>")))
    return "".join(parts)


class _QuotedMemo(_CountingMemo):
    """A tag memo that also counts the tags it replays from keys that hold
    a quote: alone from keys of the strict form (``quoted``), and in runs
    (``quoted_in_runs``)."""

    quoted = quoted_in_runs = 0

    def get(self, key, default=None):
        value = _CountingMemo.get(self, key, default)
        if value is not None and ('"' in key or "'" in key):
            tags = len(_entries(value))
            if tags > 1:
                self.quoted_in_runs += tags
            elif _STRICT_TAG.fullmatch(key) is not None:
                self.quoted += 1
        return value


def test_odd_quoted_tags_equal_the_stdlib_tokenizer_whatever_follows():
    """Odd start and end tags, in runs, build what the stdlib's
    tokenizing builds, whatever the page goes on with: 600 random pages
    of about 5,000 tags, 3,300 of them odd, in batches of 10 that share
    one memo, each page twice and under every ending above (a later
    quote, with or without a ">" after it, or none), so that a tag stored
    under one ending is replayed under another.  Quoted tags of the
    strict form are replayed alone and in runs, and no other quoted start
    tag is stored.  With a form that only asks that every quote be
    closed, the memo replays some of these tags at their first ">" where
    the stdlib reads on."""
    rng = random.Random(239)
    quoted = quoted_in_runs = count = 0
    for _ in range(60):
        strings, tags = {}, _QuotedMemo()
        pages = [_random_odd_tag_page(rng) for _ in range(10)]
        count += sum(page.count("<") for page in pages)
        for page in pages * 2:
            for later in _ODD_LATER:
                text = page + later + "<b>end</b>"
                assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text
        assert _loose_quoted_keys(tags) == []
        quoted += tags.quoted
        quoted_in_runs += tags.quoted_in_runs
    assert count > 4_500
    # strict replays alone: 3,064 on CPython 3.11.7, 3,053 on 3.13.13
    assert quoted > 2_500 and quoted_in_runs > 10_000, (quoted, quoted_in_runs)


def test_the_loose_form_counterexamples_equal_the_stdlib_tokenizer():
    """``<a b=c="x y ='z">`` and ``<a ='c='abx>`` close every quote they
    open before their first ">", but the stdlib reads a quoted value past
    that ">" when a quote comes later on the page.  Each, alone and in a
    run, with and without a later quote, in both orders, with one memo:
    built as the stdlib's tokenizing builds them."""
    pages = []
    for tag in _LOOSE_COUNTEREXAMPLES:
        for body in (f"<div>{tag}x</div>", f"<div>\n{tag}\n<b>x</b></div>"):
            pages += [body + "<p>y</p>", body + "<p title='y'>z</p>", body + "x' >y"]
    for order in (pages, pages[::-1]):
        strings, tags = {}, {}
        for text in order * 2:
            assert _parsed(text, strings, tags) == _parsed(text, builder=_StdlibTags), text


class _CountingRuns:
    """The run pattern, counting the tags of the runs it matches."""

    def __init__(self):
        self.tags = 0

    def match(self, text, pos):
        run = _RUN.match(text, pos)
        if run is not None:
            self.tags += run.group().count(">")
        return run


def test_the_run_pattern_reads_each_tag_at_most_eight_times(monkeypatch):
    """Each parse reads at most eight tags through the run pattern per
    tag of its page: the cap of eight tags a run keeps it linear, also
    where every run stops at a raw-text opener and the next parse starts
    one tag on.  Once with a fresh memo and once with one that has seen
    the page."""
    counting = _CountingRuns()
    monkeypatch.setattr(normalize, "_RUN", counting)
    rng = random.Random(233)
    pages = ["<script></script>" * 2000, "<p><b>" * 2000, "<div>" * 10_000 + "</div>" * 10_000,
             "<style></style>\n<p>" * 1000, "<b><script></script></b>" * 1000,
             *(_random_run_markup(rng, _random_runs(rng)) * 20 for _ in range(20))]
    for page in pages:
        tags: dict = {}
        for _ in range(2):
            counting.tags = 0
            _parsed(page, {}, tags)
            assert counting.tags <= 8 * page.count("<"), page[:80]
    assert counting.tags > 0


def test_isspace_and_split_agree_on_every_code_point():
    """The builder drops an all-whitespace run on ``isspace()`` before it
    collapses runs with ``split()``; the two share one whitespace test."""
    assert all(ch.isspace() == (ch.split() == []) for ch in map(chr, range(sys.maxunicode + 1)))


_WHITESPACE = (" ", "\n\t ", "\xa0", "\u2028", "\u3000", " \xa0\u2028\u3000\r\n")
# binary-data bytes, and so only past the first KB of a page
_LATE_WHITESPACE = ("\x1c", "\x1d\x1e", "\x1f", " \x1c\x0b\x0c\x1f ")
_WHITESPACE_PIECES = _WHITESPACE + (
    "<div>", "</div>", "<p>", "<b>", "</b>", "x", "two\xa0words", "\u3000y\u2028",
    "<!-- c -->", "<!---->", "<script>", "</script>", "<style>", "</style>", "<pre>",
    "</pre>", "<textarea>", "</textarea>", "</br>", "</img>", "<br>", '<img src="i">',
)


def _random_whitespace_markup(rng: random.Random) -> str:
    """Whitespace-only runs of every kind among tags, comments and the
    raw-text and preformatted elements, with stray void close tags; half
    the time past a first KB that holds nothing, so the binary-data
    whitespace can appear."""
    pieces = list(_WHITESPACE_PIECES)
    late = rng.random() < 0.5
    if late:
        pieces += _LATE_WHITESPACE * 3
    markup = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 40)))
    return "<!--" + " " * _SNIFF_CHARS + "-->" + markup if late else markup


# whitespace-only runs, also in raw-text and preformatted elements and
# past the first KB, runs merged around comments and stray void closes,
# with the root's children each parses to
_WHITESPACE_CASES = {
    "<pre> \n </pre>": (),
    "<textarea>\u3000</textarea>": (),
    "<script>\u2028</script>": (),
    "<style>\xa0 \x0c</style>": (),
    "<p>a<!-- c --> \xa0 <!-- d -->b</p>": ("a b",),
    "<div></br></img>x</br></div>": ("x",),
    "<!--" + " " * _SNIFF_CHARS + "--><p>\x1c\x1f</p>": (),
}


def test_whitespace_only_runs_and_stray_void_closes_leave_nothing():
    for markup, children in _WHITESPACE_CASES.items():
        assert tree_of(to_xhtml(markup)).children == children, repr(markup)


def test_an_attribute_value_is_shared_with_every_other_use():
    """In either order of the pages, the value of a lone attribute, of one
    among several and an equal text run are one object, and equal
    lone-attribute tuples are one tuple."""
    markups = ['<p title="one value">x</p>', '<p id="i" title="one value">x</p>',
               "<p>one value</p>", '<p title="one value"/>', '<p title="one value">y</p>']
    for order in (markups, markups[::-1]):
        strings: dict = {}
        roots = [tree_of(to_xhtml(markup, strings)) for markup in order]
        values = [root.attrs[-1][1] if root.attrs else root.children[0] for root in roots]
        assert values == ["one value"] * 5
        assert all(value is values[0] for value in values)
        lone = [root.attrs for root in roots if len(root.attrs) == 1]
        assert len(lone) == 3 and all(attrs is lone[0] for attrs in lone)


def test_a_utf8_byte_order_mark_is_dropped():
    from navminer.normalize import decode_markup

    page = "<html><body><p>caf\xe9</p></body></html>"
    with_bom = decode_markup(b"\xef\xbb\xbf" + page.encode("utf-8"))
    assert with_bom == page
    assert to_xhtml(with_bom) == to_xhtml(page)
    assert decode_markup(b"\xef\xbb\xbf" + page.encode("latin-1")).startswith("\xef\xbb\xbf<html>")
    # a UTF-16 page decodes to Latin-1 with NULs: binary, as before
    with pytest.raises(EmptyDocumentError):
        to_xhtml(decode_markup(page.encode("utf-16")))


def test_open_count_builder_matches_stack_scan_oracle_random():
    rng = random.Random(205)
    for _ in range(1500):
        text = _random_malformed_markup(rng)
        mine, oracle = _parse_both(text)
        assert mine == oracle, text


def test_open_count_builder_matches_stack_scan_oracle_on_demo_pages():
    pages = sorted(DEMO_CORPUS.rglob("*.html"))
    assert pages
    for page in pages:
        mine, oracle = _parse_both(page.read_text(encoding="utf-8"))
        assert mine is not None and mine == oracle, page


def test_deep_and_stray_closes_match_oracle():
    for text in ("<div>" * 3000 + "</div>" * 3000,
                 "<div>" * 3000 + "</p>" * 3000 + "</div>",
                 "<ul>" + "<li><b>" * 500 + "</ul>" + "</b>" * 600):
        mine, oracle = _parse_both(text)
        assert mine == oracle


def test_tree_nodes_have_no_instance_dict():
    doc = to_xhtml("<div>text<br></div>")
    assert [part.__class__ for part in doc.parts] == [Tag, str, Tag]
    for node in (doc, *tags_of(doc)):
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_pages_share_one_copy_of_each_tag_and_attribute_name():
    first, second = (to_xhtml((DEMO_CORPUS / name).read_text(encoding="utf-8"))
                     for name in ("items/item-d1.html", "items/item-f5.html"))

    def first_named(doc, name):
        return next(tag for tag in tags_of(doc) if tag.name == name)

    # names of more than one character: CPython shares single characters anyway
    for tag, attr in (("body", None), ("form", "action"), ("div", "class")):
        a, b = first_named(first, tag), first_named(second, tag)
        assert a.name is b.name
        if attr is not None:
            assert [k for k, _ in a.attrs if k == attr][0] is \
                [k for k, _ in b.attrs if k == attr][0]


def test_binary_data_in_the_first_kb_is_not_markup():
    for byte in [*range(0x00, 0x09), 0x0B, *range(0x0E, 0x1B), *range(0x1C, 0x20)]:
        with pytest.raises(EmptyDocumentError):
            to_xhtml("<html><body>" + chr(byte) + "</body></html>")
    with pytest.raises(EmptyDocumentError):
        to_xhtml("\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR<b>x</b>")
    # tab, newline, form feed, carriage return and escape are text
    assert to_xhtml("<p>a\tb\n\x0c\r\x1b</p>").parts[0].name == "p"
    # only the first 1,024 characters are sniffed
    assert to_xhtml("<p>" + "x" * 1021 + "\x00</p>").parts[0].name == "p"
    with pytest.raises(EmptyDocumentError):
        to_xhtml("<p>" + "x" * 1020 + "\x00</p>")


def test_unclosed_tag_equals_closed_form():
    assert to_xhtml("<p>hello") == to_xhtml("<p>hello</p>")


def test_wellformed_page_is_fixpoint():
    text = '<html><body><p class="x">hi</p><ul><li>a</li></ul></body></html>'
    doc = to_xhtml(text)
    assert to_xhtml(serialize(doc)) == doc


def test_misnested_tags_repair_to_wellformed_fixpoint():
    doc = to_xhtml("<b><i>x</b></i>")
    # single root, properly nested, and repair is idempotent
    root = tree_of(doc)
    assert root.name == "b"
    inner = root.children[0]
    assert isinstance(inner, Element) and inner.name == "i"
    assert to_xhtml(serialize(doc)) == doc


def test_stray_close_tag_dropped():
    assert to_xhtml("<div></span>x</div>") == to_xhtml("<div>x</div>")


def test_implied_end_keeps_rows_as_siblings():
    table = tree_of(to_xhtml("<table><tr><td>a<td>b<tr><td>c</table>"))
    rows = [c for c in table.children if isinstance(c, Element)]
    assert [r.name for r in rows] == ["tr", "tr"]
    assert [c.name for c in rows[0].children] == ["td", "td"]


def test_unclosed_paragraph_closed_by_next_paragraph():
    root = tree_of(to_xhtml("<div><p>one<p>two</p></div>"))
    names = [c.name for c in root.children if isinstance(c, Element)]
    assert names == ["p", "p"]


def test_void_elements_do_not_swallow_siblings():
    root = tree_of(to_xhtml('<div><img src="x.gif"><p>text</p></div>'))
    names = [c.name for c in root.children if isinstance(c, Element)]
    assert names == ["img", "p"]
    img = root.children[0]
    assert img.self_closing


def test_duplicate_attributes_keep_first():
    doc = to_xhtml('<div class="a" class="b"></div>')
    assert doc.parts[0].attrs == (("class", "a"),)


def test_bare_attribute_value_is_empty_string():
    doc = to_xhtml("<input disabled>")
    assert ("disabled", "") in doc.parts[0].attrs


def test_script_and_comment_bodies_dropped():
    root = tree_of(to_xhtml("<div><script>var x = '<p>';</script><!-- note -->ok</div>"))
    kinds = [type(c).__name__ for c in root.children]
    assert kinds == ["Element", "str"]
    assert root.children[1] == "ok"


# elements the stdlib tokenizer reads as raw text since its 2025 fixes,
# and as markup before them; each holds a link to g.html
_PINNED_RAW_TEXT_CASES = (
    '<iframe src="f.html">fb <a href="g.html">g</a></iframe>',
    '<div><iframe src="f.html">fb <a href="g.html">g</a></div>',
    '<xmp><a href="g.html">g</a></xmp>',
    '<noembed><a href="g.html">g</a></noembed>',
    '<noframes><a href="g.html">g</a></noframes>',
    '<title>t &amp; <a href="g.html">g</a></title>',
    '<textarea>t <a href="g.html">g</a></textarea>',
)
_HTML5_RAW_TEXT_OPENS = ("<iframe", "<xmp", "<noembed", "<noframes", "<title", "<textarea")


def test_only_script_and_style_bodies_are_raw_text():
    """Every supported CPython reads these bodies as markup, as the
    tokenizer did before its 2025 fixes, so the link inside is recorded
    and an unclosed iframe leaves the rest of the page markup.  The start
    tags are stored in the tag memo: no raw-text mode is entered."""
    for markup in _PINNED_RAW_TEXT_CASES:
        tags: dict = {}
        doc = to_xhtml(markup, {}, tags)
        assert doc.hrefs[-1] == "g.html", markup
        assert '<a href="g.html">' in pretty_print(doc).lines, markup
        assert any(key.startswith(_HTML5_RAW_TEXT_OPENS) for key in tags), markup
    assert to_xhtml(_PINNED_RAW_TEXT_CASES[0]).hrefs == ("f.html", "g.html")
    assert normalize._TreeBuilder.CDATA_CONTENT_ELEMENTS == tuple(sorted(_RAW_TEXT_TAGS))


def test_a_marked_section_the_stdlib_cannot_scan_is_a_bogus_comment():
    """``<![`` without a keyword, or with an unknown one, reads as a
    comment up to the next ``>``, where older stdlib tokenizers raise
    AssertionError; the sections they scan keep their events."""
    cases = {
        '<p>a<![ x <a href="b.html">b</a></p>': "<p>a b</p>",
        '<div><![ if IE ]><a href="c.html">c</a><![ endif ]></div>':
            '<div><a href="c.html">c</a></div>',
        '<div><![foo[ z ]]><a href="e.html">e</a></div>': '<div><a href="e.html">e</a></div>',
        "<p>a<![CDATA[x < y]]>b</p>": "<p>a b</p>",
        '<div><![if !IE]><a href="d.html">d</a><![endif]></div>':
            '<div><a href="d.html">d</a></div>',
    }
    for markup, plain in cases.items():
        assert to_xhtml(markup) == to_xhtml(plain), markup
    assert to_xhtml(next(iter(cases))).hrefs == ()


def test_a_linked_page_with_an_unscannable_marked_section_runs(tmp_path, capsys):
    root = write_mirror(tmp_path / "mirror", {
        "index.html": '<html><body><a href="b.html">b</a></body></html>',
        "b.html": '<html><body><![ if IE ]><a href="index.html">home</a><![ endif ]>'
                  "<p>x<![ x</p></body></html>",
    })
    assert main(["--root", str(root), "--out", str(tmp_path / "out")]) == 0
    assert "pages: 2  nodes: 2  components: 1" in capsys.readouterr().out


def test_no_markup_raises():
    with pytest.raises(EmptyDocumentError):
        to_xhtml("just plain words, no tags at all")


def test_multiple_top_level_elements_get_single_root():
    doc = to_xhtml("<div>a</div><div>b</div>")
    root = tree_of(doc)
    assert root.name == "html"
    assert len([c for c in root.children if isinstance(c, Element)]) == 2
    assert to_xhtml(serialize(doc)) == doc


def test_pretty_print_empty_html_two_lines():
    assert pretty_print(to_xhtml("<html></html>")).lines == ["<html>", "</html>"]


def test_pretty_print_table_five_lines():
    printed = pretty_print(to_xhtml("<table><tr><td/></tr></table>"))
    assert printed.lines == ["<table>", "<tr>", "<td/>", "</tr>", "</table>"]
    assert printed.depths == [0, 1, 2, 1, 0]


def test_pretty_print_deterministic():
    text = '<div id="d"><p>one</p><p>two</p></div>'
    assert pretty_print(to_xhtml(text)).lines == pretty_print(to_xhtml(text)).lines


def test_pretty_print_roundtrip_up_to_whitespace():
    text = '<div class="c"><p>hello <b>bold</b> tail</p><ul><li>x</li></ul></div>'
    doc = to_xhtml(text)
    assert to_xhtml(serialize(doc)) == doc


def test_strip_examples():
    doc = to_xhtml("<p>hello<b>x</b></p>")
    stripped = remove_textual_content(doc)
    assert stripped == to_xhtml("<p><b></b></p>")
    # a text-free document is a fixpoint
    assert remove_textual_content(stripped) == stripped


def _count_elements(root):
    return len(all_elements(root))


def _count_texts(root):
    total = 0
    for element in all_elements(root):
        total += sum(isinstance(c, str) for c in element.children)
    return total


def test_strip_preserves_elements_and_attributes_random():
    rng = random.Random(200)
    for _ in range(30):
        doc = random_document(rng)
        stripped = remove_textual_content(doc)
        assert _count_texts(tree_of(stripped)) == 0
        assert _count_elements(tree_of(stripped)) == _count_elements(tree_of(doc))
        for before, after in zip(all_elements(tree_of(doc)), all_elements(tree_of(stripped))):
            assert before.attrs == after.attrs


def test_line_count_equals_tag_count_after_stripping():
    rng = random.Random(201)
    for _ in range(20):
        doc = remove_textual_content(random_document(rng))
        lines = pretty_print(doc).lines
        tags = sum(1 if e.self_closing and not e.children else 2
                   for e in all_elements(tree_of(doc)))
        assert len(lines) == tags


def test_idempotent_repair_random():
    rng = random.Random(202)
    for _ in range(25):
        text = serialize(random_document(rng))
        doc = to_xhtml(text)
        assert to_xhtml(serialize(doc)) == doc


def test_latin1_fallback():
    from navminer.normalize import decode_markup

    data = "<p>caf\xe9</p>".encode("latin-1")
    assert "caf\xe9" in decode_markup(data)


def test_each_element_opens_exactly_one_line_in_document_order():
    rng = random.Random(207)
    for _ in range(60):
        root = tree_of(random_document(rng, depth=4))
        for element in all_elements(root):
            element.self_closing = rng.random() < 0.2
        doc = document_of(root)
        elements = elements_of(root)
        for printed in (pretty_print(doc), stripped_lines(doc)):
            assert len(printed.opens) == len(printed.lines)
            opened = [tag for tag in printed.opens if tag is not None]
            assert len(opened) == len(elements)
            assert all(a is b for a, b in zip(opened, tags_of(doc)))
            assert [(t.name, t.attrs, t.self_closing) for t in opened] == \
                [(e.name, e.attrs, e.self_closing) for e in elements]
            for line, tag in zip(printed.lines, printed.opens):
                if tag is not None:
                    assert line.lstrip().startswith("<" + tag.name)
                else:
                    assert not line.lstrip().startswith("<") or line.lstrip().startswith("</")


# whitespace around text as a page may hold it: ASCII, Unicode spaces and
# separators, and character references to them
_SPACE_PIECES = (" ", "\t", "\n", "\r", "\x0c", "\xa0", "\u2003", "\u3000", "\u2028",
                 "\x85", "&nbsp;", "&#x2003;", "&#9;", "&#32;")


def _padded_text_markup(rng: random.Random) -> str:
    """Random markup whose text runs start and end in whitespace."""
    def pad():
        return "".join(rng.choice(_SPACE_PIECES) for _ in range(rng.randint(1, 3)))

    parts = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.35:
            parts.append(f"<{rng.choice(_MARKUP_TAGS)}>")
        elif roll < 0.6:
            parts.append(f"</{rng.choice(_MARKUP_TAGS)}>")
        else:
            parts.append(pad() + rng.choice(("word", "a b", "&amp;", "x\u2003y")) + pad())
    return "".join(parts)


def _assert_no_line_is_indented(doc, where):
    for text in (pretty_print(doc), stripped_lines(doc)):
        assert all(line == line.lstrip() for line in text.lines), where


def test_no_line_starts_with_whitespace_random():
    """``components.lcs_pairs`` compares lines exactly, so a line moved to
    another depth aligns only because no line carries its indentation:
    not a tag line, and not a text line whatever whitespace the page put
    before the text."""
    rng = random.Random(209)
    for _ in range(100):
        _assert_no_line_is_indented(random_document(rng, depth=4), "random document")
    texts = 0
    for _ in range(500):
        markup = _padded_text_markup(rng)
        try:
            doc = to_xhtml(markup)
        except EmptyDocumentError:
            continue
        _assert_no_line_is_indented(doc, markup)
        texts += sum(part.__class__ is str for part in doc.parts)
    assert texts > 1000


def test_no_line_of_demo_and_benchmark_pages_starts_with_whitespace(benchmark_mirrors):
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        for page_id, text in mirror_pages(directory):
            _assert_no_line_is_indented(to_xhtml(text), page_id)


def test_printed_lines_are_indented_two_spaces_a_depth():
    text = pretty_print(to_xhtml("<table><tr><td>x</td></tr></table>"))
    assert text.printed() == ["<table>", "  <tr>", "    <td>", "      x", "    </td>",
                              "  </tr>", "</table>"]
    assert text.printed_size() == len("\n".join(text.printed()) + "\n")


def _open_line(element: Element) -> str:
    parts = [element.name]
    for name, value in element.attrs:
        parts.append(f'{name}="{_escape_attr(value)}"')
    return "<" + " ".join(parts) + ("/>" if element.self_closing else ">")


def _walk_lines(root: Element, with_text: bool) -> LineText:
    """Oracle: the printer as a loop over a walk of the tree, recording
    the elements lines open.  A self-closing element prints one line,
    whatever the tree puts below it; the parser never puts anything
    there."""
    lines: list[str] = []
    opens: list[Element | None] = []
    depths: list[int] = []
    append, opened, indent = lines.append, opens.append, depths.append
    for node, depth, closing in walk_tree(root):
        if node.__class__ is str:
            if with_text:
                append(escape(node, False) if "&" in node or "<" in node or ">" in node
                       else node)
                opened(None)
                indent(depth)
            continue
        if closing:
            if not node.self_closing:
                append(f"</{node.name}>")
                opened(None)
                indent(depth)
        else:
            append(_open_line(node))
            opened(node)
            indent(depth)
    return LineText(lines, opens, depths)


def _assert_printed_alike(doc, root, where):
    """Both printers print ``doc`` as ``_walk_lines`` prints ``root``, line
    for line and depth for depth, and record ``doc``'s own tags where the
    oracle records elements of the same name, attributes and flag."""
    tags = tags_of(doc)
    for printer, with_text in ((pretty_print, True), (stripped_lines, False)):
        expected, actual = _walk_lines(root, with_text), printer(doc)
        assert actual.__class__ is LineText
        assert actual.lines == expected.lines, where
        assert actual.depths == expected.depths, where
        opened = [tag for tag in actual.opens if tag is not None]
        assert [tag is None for tag in actual.opens] == \
            [element is None for element in expected.opens], where
        assert len(opened) == len(tags) and all(a is b for a, b in zip(opened, tags)), where
        assert [(t.name, t.attrs, t.self_closing) for t in opened] == \
            [(e.name, tuple(e.attrs), e.self_closing)
             for e in expected.opens if e is not None], where


def test_printers_equal_the_walk_oracle(benchmark_mirrors):
    """``pretty_print`` and ``stripped_lines`` print what a loop over a
    walk of the tree prints, line for line and depth for depth, and
    record the tags of the lines that open elements: on random
    documents whose elements are self-closing at random, with no,
    text-only, element and mixed children; on parsed random markup, with
    text to escape, against the list builder's tree; on a 10,000-deep
    chain; on lone roots; and on the demo and benchmark pages."""
    rng = random.Random(211)
    cases = []  # (document, the tree the oracle prints)
    kinds = set()  # the child classes of each self-closing element
    for _ in range(300):
        root = tree_of(random_document(rng, depth=rng.randint(0, 5)))
        for element in all_elements(root):  # the parser never does this
            element.self_closing = rng.random() < 0.3
            if element.self_closing:
                kinds.add(frozenset(child.__class__ for child in element.children))
        cases.append((document_of(root), root))
    assert kinds == {frozenset(), frozenset({str}), frozenset({Element}),
                     frozenset({str, Element})}
    texts = [_random_shape_markup(rng) for _ in range(300)]
    texts.append("<html><body>" + "<div>x" * 10_000)
    texts += [text for directory in (DEMO_CORPUS, *benchmark_mirrors)
              for _, text in mirror_pages(directory)]
    for text in texts:
        try:
            cases.append((to_xhtml(text), _oracle_tree(text, _ListTreeBuilder)[0]))
        except EmptyDocumentError:
            pass
    cases += [(document_of(root), root) for root in (
        Element("br", self_closing=True), Element("html"),
        Element("p", (("class", "a&b"),), ("x < y",), True),
        Element("p", (), ("x", Element("b")), True))]
    escaped = 0
    for doc, root in cases:
        _assert_printed_alike(doc, root, _walk_lines(root, True).lines[:20])
        escaped += any("&amp;" in line or "&lt;" in line for line in pretty_print(doc).lines)
    deep = to_xhtml(texts[300])
    assert max(pretty_print(deep).depths) == 10_002
    assert escaped > 50


def test_stripped_lines_equals_pretty_print_of_stripped_copy():
    rng = random.Random(204)
    for _ in range(60):
        root = tree_of(random_document(rng, depth=4))
        for element in all_elements(root):  # the parser never does this
            element.self_closing = rng.random() < 0.2
        doc = document_of(root)
        assert stripped_lines(doc).lines == pretty_print(remove_textual_content(doc)).lines
    pages = sorted(DEMO_CORPUS.rglob("*.html"))
    assert pages
    for page in pages:
        doc = to_xhtml(page.read_text(encoding="utf-8"))
        assert stripped_lines(doc).lines == pretty_print(remove_textual_content(doc)).lines


def test_deeply_nested_page_runs(tmp_path, capsys):
    root = write_mirror(tmp_path / "mirror", {
        "index.html": "<html><body>" + "<div>x" * 10_000 + '<a href="b.html">b</a>',
        "b.html": "<html><body><p>end",
    })
    out = tmp_path / "out"
    assert main(["--root", str(root), "--out", str(out), "--verbose"]) == 0
    assert "pages: 2  nodes: 2  components: 1" in capsys.readouterr().out
    assert len(list((out / "schemas").glob("*.dtd"))) == 2


def _callee(call):
    """Name of a function called directly or as a method of ``self``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
        return func.attr
    return None


def test_package_has_no_recursive_function_and_no_elementtree():
    """Deep input must not meet Python's recursion limit: a page is one
    pass over its events, and every tree is walked on an explicit stack
    (``navmodel.walk``'s), so no function calls itself by name."""
    package = REPO_ROOT / "src" / "navminer"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(n.startswith("xml.etree") for n in names), path.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {_callee(call) for call in ast.walk(node) if isinstance(call, ast.Call)}
                assert node.name not in called, f"{path.name}: {node.name} calls itself"
