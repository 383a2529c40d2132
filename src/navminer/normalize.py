"""HTML repair and canonical serialization.

Real-world pages are full of unclosed tags, stray close tags and bare
attributes.  Everything downstream (schema inference, token distances,
line diffs) assumes a well-formed page, so all markup enters the
pipeline through ``to_xhtml``, which parses with error recovery into a
normalized, deterministic ``Document``.  The repair promises
well-formedness, determinism and idempotence: feeding a repaired page's
serialization back through the parser reproduces the same page.

A page is kept as its parse events in document order, not as a tree:
``Document.shape`` (names, nesting, attribute names and text positions,
all that ``schema``'s tokens read) and ``Document.parts`` (each open
event's ``Tag``, each text run's ``str``).  Every page stays alive for
the whole run, so tag and attribute names are interned, and values,
text runs, attribute tuples, tags, open events and shapes are shared
through the ``strings`` dict ``to_xhtml`` is handed (one per load).
Values and text are not interned: interned strings can stay resident
after the pages holding them are released.

The pages of a site come from a few templates, so their tags repeat
their exact text.  The ``tags`` dict ``to_xhtml`` is handed (one per
load, beside ``strings``) maps a tag's text to its entry, what the
stdlib dispatched for it: for a start tag its ``Tag``, open event, the
names of the open elements it closes implicitly (``_IMPLIED_BY``) and
its link value; for an end tag its interned name.  ``_replay`` replays
an entry without a ``handle_*`` call and does again at each replay
everything that depends on the builder's stack, so a stored entry is
what the stdlib made of its key's text wherever it comes.

One key rule: a tag is keyed by its text up to its first ``>``, and its
entry is stored only when the stdlib dispatched one tag that ended
there and entered no raw-text mode.  A start tag is looked up first.
On a miss, a quoted text outside the strict form (``_STRICT``) goes to
the stdlib's ``parse_starttag`` and is never stored, and so is never
replayed; an end tag with a quote is never stored either.  Looking up
first is exact because strictness is a property of the text alone:
every stored key with a quote passed the check.  A start key begins
with ``<`` and a letter, an end key with ``</``, and a run's key (below)
holds two ``>`` or more, so no two kinds of key collide.

The strict form has ASCII names, attributes apart by ASCII whitespace,
each value right after its ``=``, either ``"..."`` or ``'...'`` with no
``<``, ``>`` or its own quote inside, or bare, without whitespace,
quotes, ``<``, ``>``, ``=`` or a backtick, and ``>`` or ``/>`` at the
end.  The stdlib's scan (``locatestarttagend_tolerant`` before CPython's
2025 parser fixes, ``locatetagend`` since) and its attribute parse
(``attrfind_tolerant``) consume a ``>`` only inside a quoted value, and
on this form they open one only at the form's own opening quotes and
close it at the matching quote, so they read nothing past its ``>``.  A
form that only asks that every quote be closed is not exact: in ``<a
b=c="x y ='z">`` the stdlib reads the bare value ``c="x``, then opens a
value at ``'z`` and, when the page holds a ``'`` later on, reads past
the ``>`` to it.  The end-tag scan of the 2025 fixes reads a quoted
value past the first ``>`` too (``</b c=  'y>z'>``).

Templates repeat whole stretches of tags too.  A run of two to eight
quote-free or strict tags apart by ASCII whitespace alone (``_RUN``) is
looked up by its text, and a hit replays the entries of all its tags in
order.  A miss parses the tags one by one and stores the tuple of their
entries when each was stored or replayed; the whitespace between them
is dropped first thing in ``handle_data``.  A run that holds a quoted
tag seen for the first time is not stored: such a tag is most often one
page's own link, and its run would not come again.  A run stops at
eight tags to keep the parse linear: a run that stops at a tag it
cannot store is matched again from the next tag on, and an uncapped
match would read the rest of the run each time.

Raw text stays the stdlib's: a start tag that enters raw-text mode is
never stored, no run starts at one, and end tags are looked up only
outside that mode, so ``</div>`` in a script stays text.  The builder
pins the raw-text elements to ``script`` and ``style`` on every CPython;
the 2025 fixes made ``iframe``, ``xmp``, ``noembed``, ``noframes``,
``textarea`` and ``title`` raw text too, which hid their links.

A UTF-8 byte order mark is dropped when the bytes are decoded.  Input
whose first KB holds a binary-data control byte (a linked PDF or image,
say) is not markup and is refused like a page without tags.

The one-tag-per-line text of ``pretty_print`` and ``stripped_lines`` is
this module's format alone: each ``LineText`` records the ``Tag`` every
line opens, so later stages never parse the lines back, and keeps each
line's depth instead of its indentation, so a deep page's lines stay
linear in its size.
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

# the strict start-tag form, on which the stdlib reads nothing past the
# ">" (the module docstring says why)
_STRICT = (r"""<[a-zA-Z][-.:a-zA-Z0-9_]*(?:[ \t\n\r\f]+[a-zA-Z_:][-.:a-zA-Z0-9_]*"""
           r"""(?:=(?:"[^"<>]*"|'[^'<>]*'|[^\s"'<>=`]+))?)*[ \t\n\r\f]*/?>""")
_STRICT_TAG = re.compile(_STRICT)
# a run of 2 to 8 tags, each quote-free or a start tag of the strict
# form, apart by ASCII whitespace alone and not starting at a raw-text
# opener; a match starts at a "<", so its first whitespace is empty, and
# the cap keeps the parse linear
_RUN_TAG = rf"""(?:</?[a-zA-Z][^<>"']*>|{_STRICT})"""
_RUN = re.compile(rf"""(?!<(?i:script|style)[\t\n\r\f />])(?:[ \t\n\r\f]*{_RUN_TAG}){{2,8}}""")

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
        # a tag's source text up to its first ">" -> what it does, its
        # entry: a start tag's ``opened``, an end tag's name; a run's text
        # -> its tags' entries
        self.tags = {} if tags is None else tags
        # what handle_starttag last recorded: the shared tag, its open
        # event, the open elements it closes implicitly (_IMPLIED_BY) and
        # its link value, None when it has none
        self.opened = None
        self.closed = None  # the name handle_endtag was last called with
        self.first_seen = False  # a quoted start tag was stored since a run's parse began
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
        # mode; else the parse goes on where the stdlib stopped.  A run
        # that holds a quoted tag seen for the first time is not stored:
        # that tag is most often a page's own link, which comes once
        rawdata = self.rawdata
        i, stop = run.span()
        entries = ()
        self.first_seen = False
        while True:
            i, entry = self._endtag(i) if rawdata[i + 1] == "/" else self._starttag(i)
            if entry is None:
                return i
            entries += (entry,)
            if i == stop:
                if not self.first_seen:
                    self.tags[key] = entries
                return stop
            i = rawdata.find("<", i)

    def _starttag(self, i):
        """Parse the start tag at ``i``; return its end and its memo
        entry, None when it is not stored."""
        rawdata = self.rawdata
        end = rawdata.find(">", i + 1) + 1
        text = rawdata[i:end]  # "" when no ">" follows
        opened = self.tags.get(text)
        if opened is not None:  # the text was tokenized before: replay it
            self._replay((opened,))
            return end, opened
        # only a quoted value can hold a ">" that does not end the tag,
        # and the strict form has none; any other quoted tag is left to the
        # stdlib and never stored
        quoted = '"' in text or "'" in text
        if quoted and _STRICT_TAG.fullmatch(text) is None:
            return HTMLParser.parse_starttag(self, i), None
        self.opened = None
        end = HTMLParser.parse_starttag(self, i)
        # one start tag dispatched, ended at its first ">", where the
        # lookup reads it, and no raw-text mode (script, style) to enter,
        # which a replay would skip
        if self.opened is None or end != i + len(text) or self.cdata_elem is not None:
            return end, None
        opened = self.tags[text] = self.opened
        if quoted:
            self.first_seen = True
        return end, opened

    def _endtag(self, i):
        """Parse the end tag at ``i`` outside raw-text mode, as
        ``_starttag`` does a start tag."""
        rawdata = self.rawdata
        end = rawdata.find(">", i + 2) + 1
        text = rawdata[i:end]
        name = self.tags.get(text)
        if name is not None:
            self._replay((name,))
            return end, name
        self.closed = None
        k = HTMLParser.parse_endtag(self, i)
        # a quoted one is never stored, so never replayed: the end-tag
        # scan of CPython's 2025 parser fixes reads a quoted value past
        # the first ">" ("</b c=  'y>z'>")
        if k != end or self.closed is None or '"' in text or "'" in text:
            return k, None
        name = self.tags[text] = intern(self.closed)
        return k, name

    def _replay(self, entries):
        """Record what the tags of the memo entries ``entries``
        dispatched; ``handle_starttag`` records a start tag's entry here
        too, so a tokenized and a replayed start tag take one path."""
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
        name = intern(tag)
        attrs, event = self._clean_attrs(name, attrs) if attrs else ((), name)
        closed = self_closing or name in VOID_ELEMENTS  # the element opens nothing
        tag = _tag(name, attrs, closed)
        tag = self.strings.setdefault(tag, tag)
        link = _LINK_ATTRS.get(name)  # None for a tag that links nothing
        href = next((v for k, v in attrs if k == link), None)
        self.opened = (tag, event, _IMPLIED_BY.get(name, ()), href)
        self._replay((self.opened,))

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
