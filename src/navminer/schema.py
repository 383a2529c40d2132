"""Per-page content-model inference and token serialization.

A page's schema records, for every element name, how its children are
arranged and which attributes it carries.  Runs of a repeated child
collapse to a single item, so a table with two rows and a table with
seven rows of the same shape produce the *same* schema.  That is the
property the structural distance relies on: pages that render the same
kind of screen with different amounts of repeated content compare as
identical.

Inference rules, applied per element name over all of its instances in
one document:

* no children and no text anywhere      -> EMPTY
* text but never element children      -> PCDATA
* both text and element children       -> MIXED over the child-name set
* element children only                -> collapse each instance's child
  sequence (consecutive identical names become one item, flagged
  ``plus``); if all collapsed sequences agree, declare SEQUENCE; if they
  agree except for items missing from some instances (unambiguous
  alignment), missing items are flagged ``star``; otherwise fall back to
  CHOICE-STAR over the union of child names.

An attribute is REQUIRED when every instance of the element carries it,
IMPLIED otherwise.  Attribute *values* never enter the schema.

Both token formats are read from the page's shape
(``normalize.Document.shape``) alone, never from its tree: one pass over
the shape's events with a stack of the open elements gives each
element instance's child names, text flag and attribute names, or the
open and close tokens.  The shape is then the whole input of both, and
``navmodel`` caches their tokens per distinct shape, so a run infers
each element's content model once per shape.

The token stream of ``serialize_schema`` is this module's format alone:
the distance compares it, the clustering caches it per page shape and
the verbose DTD dump (``dtd_text``) renders it directly, so no other module
reads a token apart or needs the ``Schema`` object back.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .normalize import Document

EMPTY = "EMPTY"
PCDATA = "PCDATA"
MIXED = "MIXED"
SEQUENCE = "SEQUENCE"
CHOICE_STAR = "CHOICE-STAR"

PLUS = "plus"
STAR = "star"

REQUIRED = "REQUIRED"
IMPLIED = "IMPLIED"

TokenSeq = tuple  # ordered atomic symbols; only built here


@dataclass(frozen=True)
class ContentModel:
    kind: str
    items: tuple[tuple[str, str], ...] = ()  # (child name, repetition flag)


@dataclass
class Schema:
    declarations: dict[str, ContentModel] = field(default_factory=dict)
    # element name -> ((attribute name, REQUIRED|IMPLIED), ...) sorted by name
    attributes: dict[str, tuple[tuple[str, str], ...]] = field(default_factory=dict)


def _collapse(seq: tuple[str, ...]) -> tuple[str, ...]:
    out: list[str] = []
    for child in seq:
        if not out or out[-1] != child:
            out.append(child)
    return tuple(out)


def _embed_left(seq, spine):
    positions = []
    k = 0
    for item in seq:
        while k < len(spine) and spine[k] != item:
            k += 1
        if k == len(spine):
            return None
        positions.append(k)
        k += 1
    return positions


def _embed_right(seq, spine):
    mirrored = _embed_left(seq[::-1], spine[::-1])
    return None if mirrored is None else [len(spine) - 1 - k for k in reversed(mirrored)]


def _infer_model(seqs: list[tuple[str, ...]], has_text: bool) -> ContentModel:
    child_names = sorted({c for s in seqs for c in s})
    if not child_names:
        return ContentModel(PCDATA) if has_text else ContentModel(EMPTY)
    if has_text:
        return ContentModel(MIXED, tuple((n, STAR) for n in child_names))
    collapsed = {_collapse(s) for s in seqs}
    if len(collapsed) == 1:
        seq = next(iter(collapsed))
        return ContentModel(SEQUENCE, tuple((n, PLUS) for n in seq))
    # one observed sequence may contain all the others: use it as the
    # spine and mark items missing from some instances as star
    spines = [s for s in collapsed if all(_embed_left(t, s) is not None for t in collapsed)]
    if len(spines) == 1:
        spine = spines[0]
        covered = [0] * len(spine)
        for seq in collapsed:
            left = _embed_left(seq, spine)
            right = _embed_right(seq, spine)
            if left != right:
                break  # ambiguous alignment
            for k in left:
                covered[k] += 1
        else:
            items = tuple(
                (name, PLUS if covered[k] == len(collapsed) else STAR)
                for k, name in enumerate(spine)
            )
            return ContentModel(SEQUENCE, items)
    return ContentModel(CHOICE_STAR, tuple((n, STAR) for n in child_names))


def extract_schema(doc: Document) -> Schema:
    """Infer the schema of one well-formed document from its shape."""
    sequences: dict[str, list[tuple[str, ...]]] = {}  # one child-name sequence per instance
    has_text: set[str] = set()
    with_attrs: dict[tuple, int] = {}  # open event with attribute names -> its instances
    names: list[str] = []  # the open elements
    kids: list[list[str]] = [[]]  # their child names; the bottom entry takes the root's

    for event in doc.shape:
        if event is None:
            name = names.pop()
            seq = tuple(kids.pop())
            seqs = sequences.get(name)
            if seqs is None:
                sequences[name] = [seq]
            else:
                seqs.append(seq)
        elif event.__class__ is int:  # a text run
            has_text.add(names[-1])
        else:
            if event.__class__ is tuple:
                with_attrs[event] = with_attrs.get(event, 0) + 1
                event = event[0]
            kids[-1].append(event)
            kids.append([])
            names.append(event)

    attr_counts: dict[str, dict[str, int]] = {}
    for event, count in with_attrs.items():
        counts = attr_counts.setdefault(event[0], {})
        for attr_name in event[1:]:
            counts[attr_name] = counts.get(attr_name, 0) + count

    schema = Schema()
    for name in sorted(sequences):
        seqs = sequences[name]
        schema.declarations[name] = _infer_model(seqs, name in has_text)
        specs = tuple(
            (attr, REQUIRED if count == len(seqs) else IMPLIED)
            for attr, count in sorted(attr_counts.get(name, {}).items())
        )
        if specs:
            schema.attributes[name] = specs
    return schema


def serialize_schema(schema: Schema) -> TokenSeq:
    """Canonical token stream: declarations in lexicographic name order.

    Token granularity is one token per name or marker, so the distance
    between two schemas counts structural differences rather than
    character counts.  Each attribute contributes exactly two tokens.
    Tokens are interned: pages share one copy of each.
    """
    tokens: list[str] = []
    for name in sorted(schema.declarations):
        model = schema.declarations[name]
        tokens.append("elem:" + name)
        tokens.append("model:" + model.kind)
        for child, flag in model.items:
            tokens.append("child:" + child)
            tokens.append("rep:" + flag)
        for attr, use in schema.attributes.get(name, ()):
            tokens.append("attr:" + attr)
            tokens.append("use:" + use)
    return tuple(map(sys.intern, tokens))


def sts_serialize(doc: Document) -> TokenSeq:
    """Baseline substrate: the tag tree as open/close tokens, text
    ignored, read from the document's shape; interned, like
    ``serialize_schema``'s."""
    intern = sys.intern
    tokens: list[str] = []
    names: list[str] = []  # the open elements
    for event in doc.shape:
        if event is None:
            tokens.append(intern("close:" + names.pop()))
        elif event.__class__ is not int:  # not a text run
            name = event if event.__class__ is str else event[0]
            names.append(name)
            tokens.append(intern("open:" + name))
    return tuple(tokens)


_FLAG_SUFFIX = {PLUS: "+", STAR: "*"}


def _element_decl(name: str, kind: str, items: list[tuple[str, str]]) -> str:
    if kind == EMPTY:
        body = "EMPTY"
    elif kind == PCDATA:
        body = "(#PCDATA)"
    elif kind == MIXED:
        body = "(#PCDATA | " + " | ".join(c for c, _ in items) + ")*"
    elif kind == SEQUENCE:
        body = "(" + ", ".join(c + _FLAG_SUFFIX[f] for c, f in items) + ")"
    else:
        body = "(" + " | ".join(c for c, _ in items) + ")*"
    return f"<!ELEMENT {name} {body}>"


def dtd_text(tokens: TokenSeq) -> str:
    """DTD-flavoured dump of a page's ``serialize_schema`` tokens, for the
    verbose debug output.

    Tokens come in pairs: ``elem``/``model`` opens an element's
    declaration, the ``child``/``rep`` pairs after it are its content
    model's items and the ``attr``/``use`` pairs its attributes.
    """
    lines: list = []  # an element's declaration stays a tuple until its items are read
    for head, tail in zip(tokens[::2], tokens[1::2]):
        tag, _, value = head.partition(":")
        detail = tail.partition(":")[2]
        if tag == "elem":
            name, items = value, []
            lines.append((name, detail, items))
        elif tag == "child":
            items.append((value, detail))
        else:
            lines.append(f"<!ATTLIST {name} {value} CDATA #{detail}>")
    return "".join((line if isinstance(line, str) else _element_decl(*line)) + "\n"
                   for line in lines)
