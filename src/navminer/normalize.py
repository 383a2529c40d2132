"""HTML repair and canonical serialization.

Real-world pages are full of unclosed tags, stray close tags and bare
attributes.  Everything downstream (schema inference, token distances,
line diffs) assumes a well-formed page, so all markup enters the
pipeline through ``to_xhtml``, which parses with error recovery into a
normalized, deterministic ``Document``.  The only promises the repair
makes are well-formedness, determinism and idempotence: feeding a
repaired page's serialization back through the parser reproduces the
same page.

A page is kept as its parse events in document order; no tree is
built.  ``Document.shape`` holds one event per open, close and text
run: an element's name (with its attribute names) where it opens,
``None`` where it closes and ``1`` for each text run.
``Document.parts`` holds what the shape leaves out, one entry per open
and text event: the ``Tag`` the element opens with, and the ``str`` of
the text run.  Together they are the repaired tree.  Two pages of one
shape have the same names, nesting, attribute names and text
positions.  The shape feeds the schema and tag-stream tokens, which
``schema`` reads from it and from nothing else, so ``navmodel`` caches
tokens per shape and analyses each shape once.

Every page stays alive for the whole run, and the pages of one site are
built from a few templates, so a page is kept as small as the
information in it allows.  A ``Tag`` is slotted and frozen: a name, the
attributes as a tuple of ``(name, value)`` pairs (the one shared ``()``
when there are none), whether the element closes at once (a void
element or ``/>``) and the lines it prints as.  Tag and attribute names
are interned, so every page shares one copy of each.  Attribute values,
text runs, attribute tuples, tags, open events and shapes are shared
through the ``strings`` dict ``to_xhtml`` is handed, one copy of each
for as long as the caller keeps the dict (``corpus.load_corpus`` keeps
one per load): the 614 pages of the benchmark catalog
(``perfbench/mirrors.py``, seeds 5, 51 and 101) have 28 shapes.  A page
then owns little more than its ``parts`` tuple.  Values and text are
not interned: interned strings can stay resident after the pages
holding them are released.

The builder keeps a stack of the open elements' names.  It also records
the value of each link attribute, in document order
(``Document.hrefs``): ``a`` and ``area`` link by ``href``, ``form`` by
``action``, ``frame`` and ``iframe`` by ``src`` (``_LINK_ATTRS``), and
the value is the attribute's cleaned one, the first of duplicates and
``""`` for a bare attribute.  Link extraction reads these values alone.
The builder skips the stdlib tokenizer's line counting, which only
serves ``getpos``, and keeps each tag's own work small: a
whitespace-only text run (most runs of a template's indentation) is
dropped before it is collapsed, and a tag without attributes skips
their cleaning.

The pages of a site come from a few templates, so their tags repeat
their exact text: the 614 page files of the benchmark catalog
(``perfbench/mirrors.py``, seed 101) hold 16,796 start tags with 963
distinct texts and 16,196 end tags with 18.  The builder therefore
tokenizes each distinct tag text once per ``tags`` dict ``to_xhtml`` is
handed (``corpus.load_corpus`` keeps one per load, beside ``strings``).
The dict is keyed by a tag's exact source text: a start tag's up to the
end the stdlib's scan (``check_for_whole_start_tag``) finds, an end
tag's up to its first ``>``.  A start key begins with ``<`` and a
letter, an end key with ``</``, so the two never collide.  A start tag
whose text up to its first ``>`` holds no quote is looked up by that
text without the scan: the stdlib's scan (``locatestarttagend_tolerant``
before CPython's 2025 parser fixes, ``locatetagend`` since) and its
attribute parse consume a ``>`` only inside a quoted value, so on such
text they read nothing past that ``>``, and a stored entry is what the
stdlib made of exactly that text.  About 70% of start tags are
quote-free (11,650 of the catalog's 16,796).  A quoted one is scanned
and then looked up by the text up to the end the scan found.  A miss
goes to the stdlib's own ``parse_starttag`` or ``parse_endtag``, and
what the stdlib dispatched is stored when it was one tag that ended
where the lookup reads it (a quote-free one at its first ``>``): for a
start tag its ``Tag``, built on the miss, the open event, the names of
the open elements it closes implicitly (its entry in ``_IMPLIED_BY``,
the inverse of ``IMPLIED_END``) and its link value, for an end tag its
interned name.  ``_replay`` replays a hit without a ``handle_*`` call:
a start tag runs the implied-end loop only when the innermost open
element is one it closes, then records its events and link value; an
end tag that names
the innermost open element closes it in place, and one that closes
several elements, or is stray, goes through ``handle_endtag``.  A miss
scans its start tag for the end once: ``check_for_whole_start_tag``
hands the stdlib's ``parse_starttag`` the end the scan before the lookup
found.  This is no second tokenizer: a stored entry is what the stdlib
made of the identical text, and when the stdlib dispatches a tag it
reads nothing past the tag's closing ``>``.  Raw text stays the
stdlib's: a start tag that enters raw-text mode (``script``, ``style``)
is never stored, and end tags are looked up only outside that mode, so
``</div>`` in a script stays text.  The builder pins the raw-text
elements to those two on every CPython; the 2025 fixes made ``iframe``,
``xmp``, ``noembed``, ``noframes``, ``textarea`` and ``title`` raw text
too, which hid their links.  A tag that is not replayed records its link
value in ``handle_starttag``, so one entering raw-text mode records it
too.

Templates repeat whole stretches of tags too: 24,824 of the catalog's
32,992 tags arrive in 8,480 runs of two to eight quote-free tags apart
by ASCII whitespace alone (``_RUN``: ``</td>\n  <td>``,
``</li></ul></div>``), which have 21 distinct texts.  At a start or end
tag outside raw-text mode the builder matches ``_RUN`` and looks the
run's text up in the same dict (it holds two or more ``>`` and no
quote, so it is no tag's key): a hit replays the entries of all its
tags in order, one turn of the stdlib's loop for the whole run.  A miss
parses the run's tags one by one as above and stores a tuple of their
entries when each tag was stored or replayed, so that each ended at its
first ``>`` and entered no raw-text mode; otherwise the parse goes on
where the stdlib stopped.  This is
exact for the reason a tag's replay is: the stdlib dispatches a
complete quote-free tag without reading past its first ``>`` or looking
at the builder's stack, the whitespace-only text between the tags is
dropped first thing in ``handle_data``, and everything that depends on
the stack is done again at each replay.  A run stops at eight tags to
keep the parse linear: a run that stops at a tag it cannot store (a
``script`` opener, say) is matched again from the next tag on, and an
uncapped match would read the rest of the run each time, quadratic on
``<script></script>`` repeated.

A UTF-8 byte order mark is dropped when the bytes are decoded, so a
page saved with one parses like the same page without.

Input whose first KB holds a binary-data control byte (a linked PDF or
image, say) is not markup and is refused like a page without tags.

The one-tag-per-line text of ``pretty_print`` and ``stripped_lines`` is
this module's format alone: each ``LineText`` also records the ``Tag``
every line opens, so later stages read tags and never parse the lines
back.  A line is kept without its indentation and its depth beside it,
so a deep page's lines stay linear in its size rather than quadratic in
its depth; ``LineText.printed`` is the one place that indents a line,
and ``LineText.printed_size`` the one place that counts the printed
bytes.  The printer is one pass over the shape and the parts with a
stack of close lines: an open event prints its tag's open line and
pushes its close line, a close event pops and prints one, and a text
run prints its escaped text.  A self-closing tag prints as one line and
has no close line.
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

# a run of 2 to 8 quote-free tags apart by ASCII whitespace alone; the
# cap keeps the parse linear
_RUN = re.compile(r"""</?[a-zA-Z][^<>"']*>(?:[ \t\n\r\f]*</?[a-zA-Z][^<>"']*>){1,7}""")

# the attribute that carries a link's target, per tag: what
# ``Document.hrefs`` records
_LINK_ATTRS = {"a": "href", "area": "href", "form": "action", "frame": "src", "iframe": "src"}

# the WHATWG binary data bytes: a file with one of these in its first
# 1,024 characters is not a text document
_BINARY_BYTE = re.compile("[\x00-\x08\x0b\x0e-\x1a\x1c-\x1f]")
_SNIFF_CHARS = 1024


class EmptyDocumentError(ValueError):
    """No element structure could be recovered from the input."""


@dataclass(frozen=True, slots=True)
class Tag:
    """The start tag an element opens with, and the lines it prints as:
    ``close`` is None for a tag that closes at once (a void element or
    ``/>``), whose ``open`` line ends in ``/>``."""

    name: str
    attrs: tuple[tuple[str, str], ...]
    self_closing: bool
    # derived from the fields above, so not compared
    open: str = field(compare=False)
    close: str | None = field(compare=False)


def _tag(name: str, attrs: tuple[tuple[str, str], ...], self_closing: bool) -> Tag:
    """The tag of an element named ``name`` (interned) with the cleaned
    ``attrs``, and its printed lines."""
    line = "<" + " ".join([name, *[f'{key}="{_escape_attr(value)}"' for key, value in attrs]])
    if self_closing:
        return Tag(name, attrs, True, line + "/>", None)
    return Tag(name, attrs, False, line + ">", intern("</" + name + ">"))


@dataclass(slots=True)
class Document:
    # the events of the repaired tree in document order, recorded by the
    # parser: an element's name opening it (a tuple of the name and its
    # attribute names when it has attributes), ``None`` closing it and
    # ``1`` for a text run.  Equal shapes mean equal names, nesting,
    # attribute names and text positions, all that ``schema``'s tokens
    # read
    shape: tuple = field(repr=False)
    # per open event its ``Tag``, per text run its ``str``, in event order
    parts: tuple[Tag | str, ...]
    # the value of each link element's link attribute (``_LINK_ATTRS``)
    # in document order, recorded by the parser for link extraction;
    # read off the parts, so not compared
    hrefs: tuple[str, ...] = field(compare=False, repr=False)


@dataclass
class LineText:
    """One tag (or text run) per line, as produced by ``pretty_print``,
    with the tag each line opens (``None`` on close and text lines) and
    the line's depth, which ``printed`` turns into indentation."""

    lines: list[str]  # without their indentation
    opens: list[Tag | None]
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
    """Tolerant tree repair on top of the stdlib tokenizer, recording the
    repaired tree's events."""

    # the raw-text elements of the stdlib tokenizer before its 2025
    # fixes, which took iframe, xmp, noembed, noframes, textarea and
    # title for raw text too: their bodies, links included, stay markup
    CDATA_CONTENT_ELEMENTS = ("script", "style")
    RCDATA_CONTENT_ELEMENTS = ()

    def __init__(self, strings: dict | None = None, tags: dict | None = None):
        super().__init__(convert_charrefs=True)
        # values, text runs, tags and tuples of them: one copy of each
        self.strings = {} if strings is None else strings
        # a tag's exact source text -> what it does, its entry: a start
        # tag's ``opened``, an end tag's name; a run's -> its tags' entries
        self.tags = {} if tags is None else tags
        # what handle_starttag last recorded: the shared tag, its open
        # event, the open elements it closes implicitly (_IMPLIED_BY) and
        # its link value, None when it has none
        self.opened = None
        self.closed = None  # the name handle_endtag was last called with
        self.scanned = None  # (position, end) of the start tag the stdlib is parsing
        self.stack: list[str] = []  # the names of the open elements, innermost last
        self.tops = 0  # the nodes at the top level: one, an element, is the root
        self.hrefs: list[str] = []  # the values of Document.hrefs, in document order
        self.open_count: dict[str, int] = {}  # tag name -> elements of it on the stack
        self.shape: list = []  # the events of Document.shape
        self.parts: list = []  # the entries of Document.parts
        self.event = self.shape.append
        self.part = self.parts.append

    def parse_starttag(self, i):
        run = _RUN.match(self.rawdata, i)
        return self._starttag(i)[0] if run is None else self._run(run)

    def parse_endtag(self, i):
        if self.cdata_elem is not None:  # "</div>" in a script is text
            return HTMLParser.parse_endtag(self, i)
        run = _RUN.match(self.rawdata, i)
        return self._endtag(i)[0] if run is None else self._run(run)

    def _run(self, run):
        """Parse the run of tags ``_RUN`` matched; return where the parse
        goes on."""
        key = run.group()
        entries = self.tags.get(key)
        if entries is not None:
            self._replay(entries)
            return run.end()
        # its tags one by one, stored together when each was stored or
        # replayed: then it ended at its first ">" and entered no raw-text
        # mode; else the parse goes on where the stdlib stopped
        rawdata = self.rawdata
        i, stop = run.span()
        entries = ()
        while True:
            i, entry = self._endtag(i) if rawdata[i + 1] == "/" else self._starttag(i)
            if entry is None:
                return i
            entries += (entry,)
            if i == stop:
                self.tags[key] = entries
                return stop
            i = rawdata.find("<", i)

    def _starttag(self, i):
        """Parse the start tag at ``i``; return its end and its memo
        entry, None when it is not stored."""
        rawdata = self.rawdata
        end = rawdata.find(">", i + 1) + 1
        text = rawdata[i:end]  # "" when no ">" follows
        # only a quoted value can hold a ">" that does not end the tag
        quoted = '"' in text or "'" in text
        opened = None if quoted else self.tags.get(text)
        if opened is None:
            # the stdlib's scan; the override below only answers its repeat
            end = HTMLParser.check_for_whole_start_tag(self, i)
            if quoted and end >= 0:
                opened = self.tags.get(rawdata[i:end])
        if opened is not None:  # the text was tokenized before: replay it
            self._replay((opened,))
            return end, opened
        self.opened = None
        self.scanned = i, end  # the stdlib's parse_starttag scans the tag again
        end = HTMLParser.parse_starttag(self, i)
        self.scanned = None
        # one start tag dispatched, no raw-text mode (script, style) to
        # enter, which a replay would skip, and a quote-free tag ended at
        # its first ">", where the lookup above reads it
        if self.opened is None or self.cdata_elem is not None or (
                not quoted and end != i + len(text)):
            return end, None
        opened = self.tags[rawdata[i:end]] = self.opened
        return end, opened

    def check_for_whole_start_tag(self, i):
        # the end parse_starttag found, when it asks for the same tag
        scanned = self.scanned
        if scanned is not None and scanned[0] == i:
            return scanned[1]
        return HTMLParser.check_for_whole_start_tag(self, i)

    def _endtag(self, i):
        """Parse the end tag at ``i`` outside raw-text mode, as
        ``_starttag`` does a start tag."""
        rawdata = self.rawdata
        end = rawdata.find(">", i + 2) + 1
        name = self.tags.get(rawdata[i:end])
        if name is not None:
            self._replay((name,))
            return end, name
        self.closed = None
        k = HTMLParser.parse_endtag(self, i)
        if k != end or self.closed is None:
            return k, None
        name = self.tags[rawdata[i:end]] = intern(self.closed)
        return k, name

    def _replay(self, entries):
        """Record what the tags of the memo entries ``entries``
        dispatched, without a ``handle_*`` call."""
        stack, open_count, event = self.stack, self.open_count, self.event
        for entry in entries:
            if entry.__class__ is str:  # an end tag
                if stack and stack[-1] == entry:  # closes the innermost element
                    stack.pop()
                    open_count[entry] -= 1
                    event(None)
                else:
                    self.handle_endtag(entry)
                continue
            tag, opens, implies, href = entry
            if stack and stack[-1] in implies:
                self._close_implied(tag.name)
            # what handle_starttag records, inline
            if not stack:
                self.tops += 1
            event(opens)
            self.part(tag)
            if tag.self_closing:
                event(None)
            else:
                name = tag.name
                stack.append(name)
                open_count[name] = open_count.get(name, 0) + 1
            if href is not None:
                self.hrefs.append(href)

    def parse_marked_section(self, i, report=1):
        # "<![ x" or "<![ if IE ]>": a section _markupbase cannot scan
        # raises AssertionError on CPython before its 2025 parser fixes;
        # read it as a bogus comment up to the next ">", as they do
        try:
            return HTMLParser.parse_marked_section(self, i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)

    def updatepos(self, i, j):
        # the base class counts lines here only for getpos(), which
        # nothing reads; skipping the count saves about 3.5% of the parse
        # of the benchmark's catalog pages (0.5% of its long table pages)
        return j

    def close(self):
        super().close()
        self.shape += [None] * len(self.stack)  # the elements the page left open

    def _close_implied(self, tag):
        stack = self.stack
        while stack and tag in IMPLIED_END.get(stack[-1], ()):
            self.open_count[stack.pop()] -= 1
            self.event(None)

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
        name = intern(tag)
        attrs, event = self._clean_attrs(name, attrs) if attrs else ((), name)
        closed = self_closing or name in VOID_ELEMENTS  # the element opens nothing
        tag = _tag(name, attrs, closed)
        tag = self.strings.setdefault(tag, tag)
        link = _LINK_ATTRS.get(name)  # None for a tag that links nothing
        href = next((v for k, v in attrs if k == link), None)
        if href is not None:
            self.hrefs.append(href)
        self.opened = (tag, event, _IMPLIED_BY.get(name, ()), href)
        if not self.stack:
            self.tops += 1
        self.event(event)
        self.part(tag)
        if closed:
            self.event(None)
        else:
            self.stack.append(name)
            self.open_count[name] = self.open_count.get(name, 0) + 1

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs, self_closing=True)

    def handle_endtag(self, tag):
        self.closed = tag
        # void names never enter open_count, so a void close tag is stray
        open_count = self.open_count
        if not open_count.get(tag):
            return  # stray close tag, dropped
        stack, event = self.stack, self.event
        while True:
            name = stack.pop()
            open_count[name] -= 1
            event(None)
            if name == tag:
                break

    def handle_data(self, data):
        if data.isspace():
            return  # collapses to nothing: split() has the same whitespace
        stack = self.stack
        if stack and stack[-1] in _RAW_TEXT_TAGS:
            return  # script/style bodies are not structure
        text = " ".join(data.split())
        if not text:
            return
        if self.shape and self.shape[-1] == 1:
            # adjacent runs (e.g. split around a dropped comment) merge
            text = self.parts[-1] + " " + text
            self.parts[-1] = self.strings.setdefault(text, text)
        else:
            if not stack:
                self.tops += 1
            self.event(1)
            self.part(self.strings.setdefault(text, text))


def to_xhtml(text: str, strings: dict | None = None, tags: dict | None = None) -> Document:
    """Repair one page's possibly faulty markup into a well-formed Document.

    An attribute value or text run (or a tuple of attributes, a tag, a
    page shape or one of its open events) equal to a key of ``strings``
    is that key's object, and a new one becomes a key, so the pages
    parsed with one dict share one copy of each.  ``tags`` memoizes what
    each distinct tag text parses to, so the pages parsed with one dict
    tokenize each tag text once; it holds objects shared through
    ``strings`` and belongs with that dict.  By default a page has dicts
    of its own."""
    if _BINARY_BYTE.search(text, 0, _SNIFF_CHARS):
        raise EmptyDocumentError("binary data, not markup")
    builder = _TreeBuilder(strings, tags)
    builder.feed(text)
    builder.close()
    shape, parts = builder.shape, builder.parts
    # every element opens below a top-level one, so a page without a
    # top-level element has none at all
    if all(part.__class__ is str for part in parts):
        raise EmptyDocumentError("no recognizable markup")
    if builder.tops > 1:  # several top-level nodes: give the page a single root
        shape = ["html", *shape, None]
        parts = [_HTML, *parts]
    shape = tuple(shape)
    return Document(builder.strings.setdefault(shape, shape), tuple(parts),
                    tuple(builder.hrefs))


def decode_markup(data: bytes) -> str:
    """UTF-8 first, a byte order mark dropped; Latin-1 as the lossless
    fallback for legacy corpora."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return data.decode("latin-1")


def _escape_attr(value: str) -> str:
    return escape(value, False).replace('"', "&quot;")


# the root given to a page of several top-level nodes
_HTML = _tag("html", (), False)


def _lines(doc: Document, with_text: bool) -> LineText:
    lines: list[str] = []
    opens: list[Tag | None] = []
    depths: list[int] = []
    append, opened, indent = lines.append, opens.append, depths.append
    closes: list[str | None] = []  # the close line of each open element, innermost last
    push, pop = closes.append, closes.pop
    part = iter(doc.parts).__next__
    depth = 0
    for event in doc.shape:
        if event is None:
            depth -= 1
            line = pop()
            if line is not None:
                append(line)
                opened(None)
                indent(depth)
            continue
        node = part()
        if node.__class__ is str:
            if with_text:
                append(escape(node, False) if "&" in node or "<" in node or ">" in node
                       else node)
                opened(None)
                indent(depth)
            continue
        append(node.open)
        opened(node)
        indent(depth)
        push(node.close)
        depth += 1
    return LineText(lines, opens, depths)


def pretty_print(doc: Document) -> LineText:
    """Serialize with one tag per line, children one depth (two spaces
    of indentation) below their parent.

    Elements parsed from a self-closing (or void) source tag stay on a
    single line; everything else gets an open and a close line, even
    when childless.
    """
    return _lines(doc, with_text=True)


def stripped_lines(doc: Document) -> LineText:
    """Text-free pretty-print, the input form the line diff works on:
    the pretty-print of ``doc`` with every text run dropped."""
    return _lines(doc, with_text=False)
