"""HTML repair and canonical serialization.

Real-world pages are full of unclosed tags, stray close tags and bare
attributes.  Everything downstream (schema inference, token distances,
line diffs) assumes a well-formed tree, so all markup enters the
pipeline through ``to_xhtml``, which parses with error recovery and
yields a normalized, deterministic element tree.  The only promises the
repair makes are well-formedness, determinism and idempotence: feeding
a repaired tree's serialization back through the parser reproduces the
same tree.

Every page tree stays alive for the whole run, and the pages of one
site are built from a few templates, so a tree is kept as small as the
information in it allows.  ``Element`` and ``Document`` are slotted (no
per-node ``__dict__``).  An element's ``attrs`` and ``children`` are
exact-size tuples, and an element without attributes or children holds
the one shared ``()``; only the elements the parser still has open own
a growing list.  A text run is a plain ``str`` child.  Tag and
attribute names are interned, so every page shares one copy of each.
Attribute values and text runs are shared through the ``strings`` dict
``to_xhtml`` is handed, one copy per distinct value for as long as the
caller keeps the dict (``corpus.load_corpus`` keeps one per load), and
so are the tuples built of them alone: an element's attributes, and the
children of a text-only element (adjacent text runs merge, so that is
one run).  Values and text are not interned: interned strings can stay
resident after the trees holding them are released.

The builder also lists every element it creates, and creation order is
document order, so ``Document.elements`` hands schema inference and
link extraction each element once without a walk of the tree.  It
skips the stdlib tokenizer's line counting, which only serves
``getpos``, and keeps each tag's own work small: a whitespace-only text
run (most runs of a template's indentation) is dropped before it is
collapsed, a tag without attributes skips their cleaning, and a close
tag pops and seals its elements in one loop.

The builder records each page's shape as well (``Document.shape``): the
repaired tree's events in document order, an element's name (with its
attribute names) where it opens, ``None`` where it closes and ``1`` for
each text run.  Two pages of one shape have the same names, nesting,
attribute names and text positions, which is all their schema and
tag-stream tokens depend on, so ``navmodel`` caches tokens per shape and
analyses each shape once.  Shapes, and the open events of elements with
attributes, are shared through ``strings`` like the values, so a load
holds one object per distinct shape: the 614 pages of the benchmark
catalog (``perfbench/mirrors.py``, seeds 5, 51 and 101) have 28.

A UTF-8 byte order mark is dropped when the bytes are decoded, so a
page saved with one parses like the same page without.

Input whose first KB holds a binary-data control byte (a linked PDF or
image, say) is not markup and is refused like a page without tags.

The one-tag-per-line text of ``pretty_print`` and ``stripped_lines`` is
this module's format alone: each ``LineText`` also records the element
every line opens, so later stages read elements and never parse the
lines back.  A line is kept without its indentation and its depth
beside it, so a deep page's lines stay linear in its size rather than
quadratic in its depth; ``LineText.printed`` is the one place that
indents a line, and ``LineText.printed_size`` the one place that counts
the printed bytes.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from html import escape
from html.parser import HTMLParser
from sys import intern

logger = logging.getLogger(__name__)

# HTML5 void elements: never pushed on the open stack.
VOID_ELEMENTS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
})

_P_CLOSERS = frozenset({
    "address", "article", "aside", "blockquote", "div", "dl", "fieldset",
    "footer", "form", "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr",
    "main", "nav", "ol", "p", "pre", "section", "table", "ul",
})

# Start tags that implicitly close the element currently open (a small
# subset of the HTML5 implied-end-tag rules; enough to keep table rows
# and list items siblings instead of nesting when close tags are
# missing).  Keyed by the open element, valued by the incoming tags
# that close it.
IMPLIED_END = {
    "p": _P_CLOSERS,
    "li": frozenset({"li"}),
    "dt": frozenset({"dt", "dd"}),
    "dd": frozenset({"dt", "dd"}),
    "tr": frozenset({"tr"}),
    "td": frozenset({"td", "th", "tr"}),
    "th": frozenset({"td", "th", "tr"}),
    "thead": frozenset({"tbody", "tfoot"}),
    "tbody": frozenset({"tbody", "tfoot"}),
    "option": frozenset({"option", "optgroup"}),
}

_RAW_TEXT_TAGS = frozenset({"script", "style"})

# the WHATWG binary data bytes: a file with one of these in its first
# 1,024 characters is not a text document
_BINARY_BYTE = re.compile("[\x00-\x08\x0b\x0e-\x1a\x1c-\x1f]")
_SNIFF_CHARS = 1024


class EmptyDocumentError(ValueError):
    """No element structure could be recovered from the input."""


@dataclass(slots=True)
class Element:
    name: str
    attrs: tuple[tuple[str, str], ...] = ()
    # text runs are ``str`` children; a list only while the parser has
    # the element open
    children: tuple[Element | str, ...] = ()
    self_closing: bool = False


@dataclass(slots=True)
class Document:
    root: Element
    # every element of the tree in document order (``walk``'s opening
    # order), recorded by the parser; an index over ``root``, so equality
    # compares the trees alone
    elements: list[Element] = field(compare=False, repr=False)
    # the tree's structure as a flat tuple of events in document order,
    # recorded by the parser: an element's name opening it (a tuple of
    # the name and its attribute names when it has attributes), ``None``
    # closing it and ``1`` for a text run.  Equal shapes mean equal names,
    # nesting, attribute names and text positions; like ``elements`` it is
    # derived from ``root`` and not compared
    shape: tuple = field(compare=False, repr=False)


@dataclass
class LineText:
    """One tag (or text run) per line, as produced by ``pretty_print``,
    with the element each line opens (``None`` on close and text lines)
    and the line's depth, which ``printed`` turns into indentation."""

    lines: list[str]  # without their indentation
    opens: list[Element | None]
    depths: list[int]

    def printed(self) -> list[str]:
        """The lines as printed: two spaces of indentation per depth."""
        return ["  " * depth + line for depth, line in zip(self.depths, self.lines)]

    def printed_size(self) -> int:
        """Byte length of the printed lines with a newline after each.
        The indentation is counted, not built: it makes a deep page's
        text quadratic in its depth."""
        return len("\n".join(self.lines).encode()) + 1 + 2 * sum(self.depths)


class _TreeBuilder(HTMLParser):
    """Tolerant tree construction on top of the stdlib tokenizer."""

    def __init__(self, strings: dict | None = None):
        super().__init__(convert_charrefs=True)
        # values, text runs and tuples of them: one copy of each
        self.strings = {} if strings is None else strings
        self.top: list[Element | str] = []
        self.stack: list[Element] = []
        self.target = self.top  # the children of the innermost open element
        self.elements: list[Element] = []  # in creation order, which is document order
        self.open_count: dict[str, int] = {}  # tag name -> elements of it on the stack
        self.shape: list = []  # the events of Document.shape, as the tree grows
        self.event = self.shape.append

    def updatepos(self, i, j):
        # the base class counts lines here only for getpos(), which
        # nothing reads; skipping the count saves about 3.5% of the parse
        # of the benchmark's catalog pages (0.5% of its long table pages)
        return j

    def close(self):
        super().close()
        for element in self.stack:  # left open by the page
            self._seal(element)

    def _seal(self, element):
        """Turn a closed element's children into their tuple."""
        self.event(None)
        children = tuple(element.children)
        if len(children) == 1 and children[0].__class__ is str:  # text only
            children = self.strings.setdefault(children, children)
        element.children = children

    def _close_implied(self, tag):
        stack = self.stack
        depth = len(stack)
        while stack and tag in IMPLIED_END.get(stack[-1].name, ()):
            element = stack.pop()
            self.open_count[element.name] -= 1
            self._seal(element)
        if len(stack) != depth:
            self.target = stack[-1].children if stack else self.top

    def _clean_attrs(self, tag, attrs):
        """The attributes of a tag that has some, as one shared tuple;
        records the tag's open event on the way."""
        share = self.strings.setdefault
        seen = set()
        cleaned = []
        names = [tag]
        for name, value in attrs:
            if name in seen:  # HTML5 keeps the first duplicate
                continue
            seen.add(name)
            name = intern(name)
            names.append(name)
            cleaned.append((name, "" if value is None else share(value, value)))
        names = tuple(names)
        self.event(share(names, names))
        cleaned = tuple(cleaned)
        return share(cleaned, cleaned)

    def handle_starttag(self, tag, attrs, self_closing=False):
        self._close_implied(tag)
        tag = intern(tag)
        if attrs:
            attrs = self._clean_attrs(tag, attrs)  # records the open event
        else:
            attrs = ()
            self.event(tag)
        if self_closing or tag in VOID_ELEMENTS:
            element = Element(tag, attrs, (), True)
            self.target.append(element)
            self.event(None)
        else:
            element = Element(tag, attrs, [])
            self.target.append(element)
            self.stack.append(element)
            self.target = element.children
            self.open_count[tag] = self.open_count.get(tag, 0) + 1
        self.elements.append(element)

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs, self_closing=True)

    def handle_endtag(self, tag):
        # void names never enter open_count, so a void close tag is stray
        open_count = self.open_count
        if not open_count.get(tag):
            return  # stray close tag, dropped
        stack, seal = self.stack, self._seal
        while True:
            element = stack.pop()
            name = element.name
            open_count[name] -= 1
            seal(element)
            if name == tag:
                break
        self.target = stack[-1].children if stack else self.top

    def handle_data(self, data):
        if data.isspace():
            return  # collapses to nothing: split() has the same whitespace
        if self.stack and self.stack[-1].name in _RAW_TEXT_TAGS:
            return  # script/style bodies are not structure
        text = " ".join(data.split())
        if not text:
            return
        target = self.target
        if target and target[-1].__class__ is str:
            # adjacent runs (e.g. split around a dropped comment) merge
            text = target[-1] + " " + text
            target[-1] = self.strings.setdefault(text, text)
        else:
            target.append(self.strings.setdefault(text, text))
            self.event(1)


def to_xhtml(text: str, strings: dict | None = None) -> Document:
    """Repair one page's possibly faulty markup into a well-formed Document.

    An attribute value or text run (or a tuple of attributes or of a
    lone text run, or a page shape or one of its open events) equal to a
    key of ``strings`` is that key's object, and a new one becomes a
    key, so the pages parsed with one dict share one copy of each; by
    default a page has a dict of its own."""
    if _BINARY_BYTE.search(text, 0, _SNIFF_CHARS):
        raise EmptyDocumentError("binary data, not markup")
    builder = _TreeBuilder(strings)
    builder.feed(text)
    builder.close()
    # every element hangs below a top-level one, so none at all means
    # no top-level element either
    if not builder.elements:
        raise EmptyDocumentError("no recognizable markup")
    top, shape = builder.top, builder.shape
    if len(top) == 1:  # the one top-level node, so an element
        root, elements = top[0], builder.elements
    else:  # several top-level nodes: give the tree a single root
        root = Element("html", (), tuple(top))
        elements = [root, *builder.elements]
        shape = ("html", *shape, None)
    shape = tuple(shape)
    return Document(root, elements, builder.strings.setdefault(shape, shape))


def decode_markup(data: bytes) -> str:
    """UTF-8 first, a byte order mark dropped; Latin-1 as the lossless
    fallback for legacy corpora."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def _escape_attr(value: str) -> str:
    return escape(value, False).replace('"', "&quot;")


def _open_tag(element: Element, self_close: bool = False) -> str:
    parts = [element.name]
    for name, value in element.attrs:
        parts.append(f'{name}="{_escape_attr(value)}"')
    return "<" + " ".join(parts) + ("/>" if self_close else ">")


def walk(root):
    """Depth-first walk of an element or nav node tree on an explicit stack.

    Yields ``(node, depth, closing)``: each node once opening, in
    document order, and each node with ``children`` (not a text run, a
    ``str``) again, closing, after its subtree.  A node's children are
    read only after the caller has seen it open, so the caller may fill
    them in then.
    """
    yield root, 0, False
    stack = [(root, iter(root.children))]
    depth = 1  # of the children under stack[-1]
    while depth:
        node, children = stack[-1]
        for child in children:
            yield child, depth, False
            if child.__class__ is not str:
                stack.append((child, iter(child.children)))
                depth += 1
                break
        else:
            stack.pop()
            depth -= 1
            yield node, depth, True


def _lines(root: Element, with_text: bool) -> LineText:
    lines: list[str] = []
    opens: list[Element | None] = []
    depths: list[int] = []
    append, opened, indent = lines.append, opens.append, depths.append
    close_tags: dict[str, str] = {}  # tag name -> its close line, built once
    for node, depth, closing in walk(root):
        if node.__class__ is str:
            if with_text:
                append(escape(node, False))
                opened(None)
                indent(depth)
            continue
        one_line = node.self_closing and not (
            node.children if with_text
            else any(c.__class__ is not str for c in node.children))
        if closing:
            if not one_line:
                line = close_tags.get(node.name)
                if line is None:
                    line = close_tags[node.name] = f"</{node.name}>"
                append(line)
                opened(None)
                indent(depth)
        else:
            if node.attrs:
                append(_open_tag(node, self_close=one_line))
            else:
                append("<" + node.name + ("/>" if one_line else ">"))
            opened(node)
            indent(depth)
    return LineText(lines, opens, depths)


def pretty_print(doc: Document) -> LineText:
    """Serialize with one tag per line, children one depth (two spaces
    of indentation) below their parent.

    Elements parsed from a self-closing (or void) source tag stay on a
    single line; everything else gets an open and a close line, even
    when childless.
    """
    return _lines(doc.root, with_text=True)


def stripped_lines(doc: Document) -> LineText:
    """Text-free pretty-print, the input form the line diff works on:
    the pretty-print of ``doc`` with every text node dropped."""
    return _lines(doc.root, with_text=False)
