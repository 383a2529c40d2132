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

The builder also records the value of each link attribute, in document
order (``Document.hrefs``): ``a`` and ``area`` link by ``href``,
``form`` by ``action``, ``frame`` and ``iframe`` by ``src``
(``_LINK_ATTRS``), and the value is the attribute's cleaned one, the
first of duplicates and ``""`` for a bare attribute.  Link extraction
reads these values alone, without a walk of the tree.  The builder
skips the stdlib tokenizer's line counting, which only serves
``getpos``, and keeps each tag's own work small: a whitespace-only text
run (most runs of a template's indentation) is dropped before it is
collapsed, a tag without attributes skips their cleaning, and a close
tag pops and seals its elements in one loop.

The pages of a site come from a few templates, so their tags repeat
their exact text: the 619 page files of the benchmark catalog
(``perfbench/mirrors.py``, seed 101) hold 16,989 start tags with 970
distinct texts and 16,368 end tags with 18.  The builder therefore
tokenizes each distinct tag text once per ``tags`` dict ``to_xhtml`` is
handed (``corpus.load_corpus`` keeps one per load, beside ``strings``).
The dict is keyed by a tag's exact source text: a start tag's up to the
end ``check_for_whole_start_tag`` finds, an end tag's up to its first
``>``.  A start key begins with ``<`` and a letter, an end key with
``</``, so the two never collide.  A miss goes to the stdlib's own
``parse_starttag`` or ``parse_endtag``, and what the stdlib dispatched is
stored when it was one tag: for a start tag the interned name, the
shared attribute tuple, the open event, whether the element closes at
once, the names of the open elements it closes implicitly (its entry
in ``_IMPLIED_BY``, the inverse of ``IMPLIED_END``) and its link value,
for an end tag its interned name.  A hit replays that in
``parse_starttag`` or ``parse_endtag`` itself, without a ``handle_*``
call: a start tag runs the implied-end loop only when the innermost open
element is one it closes, then builds its element and records its link
value; an end tag that names the innermost open element pops and seals
it in place, and one that closes several elements, or is stray, goes
through ``handle_endtag``.  A miss scans its
start tag for the end once: ``check_for_whole_start_tag`` hands the
stdlib's ``parse_starttag`` the end the memo lookup found.  This
is no second tokenizer: a stored entry is what the stdlib made of the
identical text, and when the stdlib dispatches a tag it reads nothing
past the tag's closing ``>``.  Raw text stays the stdlib's: a start tag
that enters raw-text mode (``script``, ``style``) is never stored, and
end tags are looked up only outside that mode, so ``</div>`` in a
script stays text.  A tag that is not replayed records its link value in
``handle_starttag``, so one entering raw-text mode records it too.

The builder records each page's shape as well (``Document.shape``): the
repaired tree's events in document order, an element's name (with its
attribute names) where it opens, ``None`` where it closes and ``1`` for
each text run.  Two pages of one shape have the same names, nesting,
attribute names and text positions.  The shape feeds the schema and
tag-stream tokens, which ``schema`` reads from it and from nothing else,
so ``navmodel`` caches tokens per shape and analyses each shape once.
Shapes, and the open events of elements with attributes, are shared
through ``strings`` like the values, so a load holds one object per
distinct shape: the 614 pages of the benchmark catalog
(``perfbench/mirrors.py``, seeds 5, 51 and 101) have 28.

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
the printed bytes.  The printer keeps its own explicit stack rather than
driving ``walk``: one entry per open element, the iterator over its
children and its close line, and an element whose children are one
text run prints its open, text and close lines without an entry.  The
open and close lines of attribute-less tags are built once per tag name
per call.
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

# the inverse of IMPLIED_END: an incoming tag -> the open elements it
# closes; a tag missing here closes none
_IMPLIED_BY = {tag: frozenset(name for name, closers in IMPLIED_END.items() if tag in closers)
               for tag in frozenset().union(*IMPLIED_END.values())}

_RAW_TEXT_TAGS = frozenset({"script", "style"})

# the attribute that carries a link's target, per tag: what
# ``Document.hrefs`` records
_LINK_ATTRS = {"a": "href", "area": "href", "form": "action", "frame": "src", "iframe": "src"}

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
    # the tree's structure as a flat tuple of events in document order,
    # recorded by the parser: an element's name opening it (a tuple of
    # the name and its attribute names when it has attributes), ``None``
    # closing it and ``1`` for a text run.  Equal shapes mean equal names,
    # nesting, attribute names and text positions, all that ``schema``'s
    # tokens read; derived from ``root``, so equality compares the trees
    # alone
    shape: tuple = field(compare=False, repr=False)
    # the value of each link element's link attribute (``_LINK_ATTRS``)
    # in document order, recorded by the parser for link extraction; not
    # compared either
    hrefs: tuple[str, ...] = field(compare=False, repr=False)


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

    def __init__(self, strings: dict | None = None, tags: dict | None = None):
        super().__init__(convert_charrefs=True)
        # values, text runs and tuples of them: one copy of each
        self.strings = {} if strings is None else strings
        # a tag's exact source text -> what it does: a start tag's
        # ``opened``, an end tag's name
        self.tags = {} if tags is None else tags
        # what handle_starttag last built: the interned name, the shared
        # attributes, the open event, whether the element closes at once,
        # the open elements the tag closes implicitly (_IMPLIED_BY) and
        # its link value, None when it has none
        self.opened = None
        self.closed = None  # the name handle_endtag was last called with
        self.scanned = None  # (position, end) of the start tag the stdlib is parsing
        self.top: list[Element | str] = []
        self.stack: list[Element] = []
        self.target = self.top  # the children of the innermost open element
        self.hrefs: list[str] = []  # the values of Document.hrefs, in document order
        self.open_count: dict[str, int] = {}  # tag name -> elements of it on the stack
        self.shape: list = []  # the events of Document.shape, as the tree grows
        self.event = self.shape.append

    def parse_starttag(self, i):
        # the stdlib's scan; the override below only answers its repeat
        end = HTMLParser.check_for_whole_start_tag(self, i)
        if end >= 0:
            opened = self.tags.get(self.rawdata[i:end])
            if opened is not None:  # the text was tokenized before: replay it
                tag, attrs, event, closed, implies, href = opened
                stack = self.stack
                if stack and stack[-1].name in implies:
                    self._close_implied(tag)
                # what handle_starttag builds, inline
                self.event(event)
                if closed:
                    element = Element(tag, attrs, (), True)
                    self.target.append(element)
                    self.event(None)
                else:
                    element = Element(tag, attrs, [])
                    self.target.append(element)
                    stack.append(element)
                    self.target = element.children
                    open_count = self.open_count
                    open_count[tag] = open_count.get(tag, 0) + 1
                if href is not None:
                    self.hrefs.append(href)
                return end
        self.opened = None
        self.scanned = i, end  # the stdlib's parse_starttag scans the tag again
        end = HTMLParser.parse_starttag(self, i)
        self.scanned = None
        # one start tag dispatched, and no raw-text mode (script, style)
        # to enter, which a replay would skip
        if self.opened is not None and self.cdata_elem is None:
            self.tags[self.rawdata[i:end]] = self.opened
        return end

    def check_for_whole_start_tag(self, i):
        # the end parse_starttag found, when it asks for the same tag
        scanned = self.scanned
        if scanned is not None and scanned[0] == i:
            return scanned[1]
        return HTMLParser.check_for_whole_start_tag(self, i)

    def parse_endtag(self, i):
        if self.cdata_elem is not None:  # "</div>" in a script is text
            return HTMLParser.parse_endtag(self, i)
        rawdata = self.rawdata
        end = rawdata.find(">", i + 2) + 1
        name = self.tags.get(rawdata[i:end])
        if name is not None:
            stack = self.stack
            if stack and stack[-1].name == name:  # closes the innermost element
                element = stack.pop()
                self.open_count[name] -= 1
                # ``_seal``, inline
                self.event(None)
                children = tuple(element.children)
                if len(children) == 1 and children[0].__class__ is str:  # text only
                    children = self.strings.setdefault(children, children)
                element.children = children
                self.target = stack[-1].children if stack else self.top
            else:
                self.handle_endtag(name)
            return end
        self.closed = None
        k = HTMLParser.parse_endtag(self, i)
        if k == end and self.closed is not None:
            self.tags[rawdata[i:end]] = intern(self.closed)
        return k

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
        """The attributes of a tag that has some, as one shared tuple,
        and the tag's shared open event."""
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
        cleaned = tuple(cleaned)
        return share(cleaned, cleaned), share(names, names)

    def handle_starttag(self, tag, attrs, self_closing=False):
        self._close_implied(tag)
        tag = intern(tag)
        attrs, event = self._clean_attrs(tag, attrs) if attrs else ((), tag)
        closed = self_closing or tag in VOID_ELEMENTS  # the element opens nothing
        link = _LINK_ATTRS.get(tag)  # None for a tag that links nothing
        href = next((v for k, v in attrs if k == link), None)
        if href is not None:
            self.hrefs.append(href)
        self.opened = (tag, attrs, event, closed, _IMPLIED_BY.get(tag, ()), href)
        self.event(event)
        if closed:
            element = Element(tag, attrs, (), True)
            self.target.append(element)
            self.event(None)
        else:
            element = Element(tag, attrs, [])
            self.target.append(element)
            self.stack.append(element)
            self.target = element.children
            self.open_count[tag] = self.open_count.get(tag, 0) + 1

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs, self_closing=True)

    def handle_endtag(self, tag):
        self.closed = tag
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


def to_xhtml(text: str, strings: dict | None = None, tags: dict | None = None) -> Document:
    """Repair one page's possibly faulty markup into a well-formed Document.

    An attribute value or text run (or a tuple of attributes or of a
    lone text run, or a page shape or one of its open events) equal to a
    key of ``strings`` is that key's object, and a new one becomes a
    key, so the pages parsed with one dict share one copy of each.
    ``tags`` memoizes what each distinct tag text parses to, so the pages
    parsed with one dict tokenize each tag text once; it holds objects
    shared through ``strings`` and belongs with that dict.  By default a
    page has dicts of its own."""
    if _BINARY_BYTE.search(text, 0, _SNIFF_CHARS):
        raise EmptyDocumentError("binary data, not markup")
    builder = _TreeBuilder(strings, tags)
    builder.feed(text)
    builder.close()
    top, shape = builder.top, builder.shape
    # every element hangs below a top-level one, so a page without a
    # top-level element has none at all
    if all(node.__class__ is str for node in top):
        raise EmptyDocumentError("no recognizable markup")
    if len(top) == 1:  # the one top-level node, an element
        root = top[0]
    else:  # several top-level nodes: give the tree a single root
        root = Element("html", (), tuple(top))
        shape = ("html", *shape, None)
    shape = tuple(shape)
    return Document(root, builder.strings.setdefault(shape, shape), tuple(builder.hrefs))


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
    open_tags: dict[str, str] = {}  # tag name -> its attribute-less open line, built once
    close_tags: dict[str, str] = {}  # tag name -> its close line, built once
    # one entry per open element: the iterator over its children still to
    # print and its close line; the bottom entry iterates over the root
    # alone and closes nothing, so the children of stack[-1] print at
    # depth len(stack) - 1
    stack = [(iter((root,)), None)]
    while stack:
        children, close = stack[-1]
        depth = len(stack) - 1
        for node in children:
            if node.__class__ is str:
                if with_text:
                    append(escape(node, False) if "&" in node or "<" in node or ">" in node
                           else node)
                    opened(None)
                    indent(depth)
                continue
            name, kids = node.name, node.children
            if node.self_closing and not (
                    kids if with_text else any(c.__class__ is not str for c in kids)):
                append(_open_tag(node, self_close=True) if node.attrs else "<" + name + "/>")
                opened(node)
                indent(depth)
                continue
            if node.attrs:
                append(_open_tag(node))
            else:
                line = open_tags.get(name)
                if line is None:
                    line = open_tags[name] = f"<{name}>"
                append(line)
            opened(node)
            indent(depth)
            line = close_tags.get(name)
            if line is None:
                line = close_tags[name] = f"</{name}>"
            if len(kids) == 1 and kids[0].__class__ is str:  # one text run: no push
                if with_text:
                    text = kids[0]
                    append(escape(text, False) if "&" in text or "<" in text or ">" in text
                           else text)
                    opened(None)
                    indent(depth + 1)
                append(line)
                opened(None)
                indent(depth)
                continue
            stack.append((iter(kids), line))
            break
        else:
            stack.pop()
            if close is not None:
                append(close)
                opened(None)
                indent(depth - 1)
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
