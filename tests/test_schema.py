"""Schema inference and canonical token serialization."""

import random
from collections import Counter

import pytest

from navminer.normalize import Document, Element, to_xhtml, walk
from navminer.schema import (CHOICE_STAR, EMPTY, IMPLIED, MIXED, PCDATA, PLUS,
                             REQUIRED, SEQUENCE, STAR, ContentModel, Schema,
                             _infer_model, dtd_text, extract_schema,
                             serialize_schema, sts_serialize)
from navminer.similarity import levenshtein, similarity

from conftest import (DEMO_CORPUS, document_of, mirror_pages, mutate_document,
                      random_document, twin_docs_with_repeated_block)


def extract_schema_walk(doc: Document) -> Schema:
    """The tree-walking ``extract_schema`` that the shape pass replaced,
    kept as its oracle."""
    sequences: dict[str, list[tuple[str, ...]]] = {}
    has_text: dict[str, bool] = {}
    attr_counts: dict[str, Counter] = {}
    instances: Counter = Counter()

    for element, _, closing in walk(doc.root):
        if closing or element.__class__ is str:
            continue
        name = element.name
        instances[name] += 1
        seq = tuple(c.name for c in element.children if c.__class__ is not str)
        sequences.setdefault(name, []).append(seq)
        if len(seq) != len(element.children):
            has_text[name] = True
        counts = attr_counts.setdefault(name, Counter())
        for attr_name, _ in element.attrs:
            counts[attr_name] += 1

    schema = Schema()
    for name in sorted(sequences):
        schema.declarations[name] = _infer_model(sequences[name], has_text.get(name, False))
        specs = tuple(
            (attr, REQUIRED if count == instances[name] else IMPLIED)
            for attr, count in sorted(attr_counts[name].items())
        )
        if specs:
            schema.attributes[name] = specs
    return schema


def sts_serialize_walk(doc: Document) -> tuple:
    """The tree-walking ``sts_serialize`` that the shape pass replaced,
    kept as its oracle."""
    return tuple(("close:" if closing else "open:") + node.name
                 for node, _, closing in walk(doc.root) if node.__class__ is not str)


def is_closed(schema: Schema) -> bool:
    """Every child name mentioned by a content model has a declaration."""
    declared = set(schema.declarations)
    return all(
        child in declared
        for model in schema.declarations.values()
        for child, _ in model.items
    )


def _table(rows: int) -> str:
    return ("<html><body><table>"
            + "<tr><td>x</td><td>y</td></tr>" * rows
            + "</table></body></html>")


def test_row_count_does_not_change_schema():
    two, seven = extract_schema(to_xhtml(_table(2))), extract_schema(to_xhtml(_table(7)))
    assert two == seven
    assert serialize_schema(two) == serialize_schema(seven)


def test_row_count_changes_syntax_tree_tokens():
    a, b = sts_serialize(to_xhtml(_table(2))), sts_serialize(to_xhtml(_table(7)))
    assert len(a) != len(b)
    assert similarity(a, b) < 1.0


def test_single_empty_element():
    schema = extract_schema(to_xhtml("<html></html>"))
    assert schema.declarations == {"html": ContentModel(EMPTY)}


def test_list_collapses_to_repeated_item():
    schema = extract_schema(to_xhtml("<ul><li>a</li><li>b</li></ul>"))
    assert schema.declarations["ul"] == ContentModel(SEQUENCE, (("li", PLUS),))
    assert schema.declarations["li"] == ContentModel(PCDATA)


def test_single_item_list_same_schema_as_longer_list():
    one = extract_schema(to_xhtml("<ul><li>a</li></ul>"))
    four = extract_schema(to_xhtml("<ul><li>a</li><li>b</li><li>c</li><li>d</li></ul>"))
    assert one == four


def test_mixed_content():
    schema = extract_schema(to_xhtml("<p>some <b>bold</b> text</p>"))
    assert schema.declarations["p"] == ContentModel(MIXED, (("b", STAR),))


def test_choice_star_on_disagreeing_sequences():
    doc = to_xhtml("<div><tr><td>x</td></tr><tr><th>h</th></tr></div>")
    schema = extract_schema(doc)
    assert schema.declarations["tr"] == ContentModel(
        CHOICE_STAR, (("td", STAR), ("th", STAR)))


def test_optional_item_flagged_star_on_unambiguous_spine():
    doc = to_xhtml("<div><tr><td>x</td><th>h</th></tr><tr><td>y</td></tr></div>")
    schema = extract_schema(doc)
    assert schema.declarations["tr"] == ContentModel(
        SEQUENCE, (("td", PLUS), ("th", STAR)))


def test_attribute_required_vs_implied():
    doc = to_xhtml('<div><a href="x" class="c">1</a><a href="y">2</a></div>')
    schema = extract_schema(doc)
    assert schema.attributes["a"] == (("class", IMPLIED), ("href", REQUIRED))


def test_attribute_order_does_not_matter():
    a = extract_schema(to_xhtml('<p class="c" id="i">x</p>'))
    b = extract_schema(to_xhtml('<p id="i" class="c">x</p>'))
    assert serialize_schema(a) == serialize_schema(b)


def test_indentation_does_not_matter():
    flat = to_xhtml("<div><p>a</p><p>b</p></div>")
    indented = to_xhtml("<div>\n  <p>a</p>\n  <p>b</p>\n</div>")
    assert serialize_schema(extract_schema(flat)) == serialize_schema(extract_schema(indented))


def test_empty_schema_serializes_to_empty_sequence():
    assert serialize_schema(Schema()) == ()


def test_one_attribute_difference_costs_two_tokens():
    base = to_xhtml('<div><a href="x">1</a></div>')
    extra = to_xhtml('<div><a href="x" title="t">1</a></div>')
    a = serialize_schema(extract_schema(base))
    b = serialize_schema(extract_schema(extra))
    assert levenshtein(a, b) == 2


def test_sts_tokens_for_minimal_page():
    assert sts_serialize(to_xhtml("<html></html>")) == ("open:html", "close:html")


def test_sts_equal_documents_equal_tokens():
    a = to_xhtml("<div><p>one</p></div>")
    b = to_xhtml("<div><p>two</p></div>")  # text is ignored
    assert sts_serialize(a) == sts_serialize(b)


def test_extracted_schemas_are_closed():
    rng = random.Random(300)
    from conftest import random_document

    for _ in range(40):
        assert is_closed(extract_schema(random_document(rng)))


def test_duplicating_identical_block_keeps_schema():
    rng = random.Random(301)
    for _ in range(25):
        doc_k, doc_k1 = twin_docs_with_repeated_block(rng)
        assert extract_schema(doc_k) == extract_schema(doc_k1)
        assert serialize_schema(extract_schema(doc_k)) == serialize_schema(extract_schema(doc_k1))
        assert similarity(sts_serialize(doc_k), sts_serialize(doc_k1)) < 1.0


def test_dtd_dump_mentions_every_element():
    doc = to_xhtml('<html><body><ul><li>x</li></ul><img src="i.gif"></body></html>')
    text = dtd_text(serialize_schema(extract_schema(doc)))
    for name in ("html", "body", "ul", "li", "img"):
        assert f"<!ELEMENT {name} " in text
    assert "<!ATTLIST img src CDATA #REQUIRED>" in text


def dtd_text_of_schema(schema: Schema) -> str:
    """The renderer ``dtd_text`` replaced, which read the ``Schema``
    object instead of its tokens; kept as its oracle."""
    suffix = {PLUS: "+", STAR: "*"}
    lines = []
    for name in sorted(schema.declarations):
        model = schema.declarations[name]
        if model.kind == EMPTY:
            body = "EMPTY"
        elif model.kind == PCDATA:
            body = "(#PCDATA)"
        elif model.kind == MIXED:
            body = "(#PCDATA | " + " | ".join(c for c, _ in model.items) + ")*"
        elif model.kind == SEQUENCE:
            body = "(" + ", ".join(c + suffix[f] for c, f in model.items) + ")"
        else:
            body = "(" + " | ".join(c for c, _ in model.items) + ")*"
        lines.append(f"<!ELEMENT {name} {body}>")
        for attr, use in schema.attributes.get(name, ()):
            lines.append(f"<!ATTLIST {name} {attr} CDATA #{use}>")
    return "\n".join(lines) + ("\n" if lines else "")


def test_dtd_text_of_tokens_equals_schema_renderer_oracle():
    rng = random.Random(206)
    docs = [random_document(rng, rng.randint(0, 4)) for _ in range(300)]
    docs += [to_xhtml(path.read_bytes().decode("utf-8"))
             for path in sorted(DEMO_CORPUS.rglob("*.html"))]
    docs.append(to_xhtml('<svg:g x:a="1"><svg:path/></svg:g>'))
    kinds = set()
    for doc in docs:
        schema = extract_schema(doc)
        kinds.update(model.kind for model in schema.declarations.values())
        assert dtd_text(serialize_schema(schema)) == dtd_text_of_schema(schema)
    assert kinds == {EMPTY, PCDATA, MIXED, SEQUENCE, CHOICE_STAR}
    assert dtd_text(()) == dtd_text_of_schema(Schema()) == ""


def test_equal_tokens_of_different_pages_are_one_object():
    def tokens(name):
        doc = to_xhtml((DEMO_CORPUS / name).read_text(encoding="utf-8"))
        return serialize_schema(extract_schema(doc)), sts_serialize(doc)

    # two item pages with the same schema and the same tag tree
    for mine, theirs in zip(tokens("items/item-d1.html"), tokens("items/item-f2.html")):
        assert mine == theirs
        assert all(a is b for a, b in zip(mine, theirs))
    # pages of different kinds still share the tokens they have in common
    for mine, theirs in zip(tokens("items/item-d1.html"), tokens("cat-fish.html")):
        first = {token: token for token in mine}
        shared = [token for token in theirs if token in first]
        assert shared
        assert all(first[token] is token for token in shared)


def _revalued(element: Element) -> Element:
    """A copy of ``element`` with other attribute values and other text:
    the tree differs, its shape does not."""
    return Element(element.name, tuple((name, value + "!") for name, value in element.attrs),
                   tuple(child + " more" if child.__class__ is str else _revalued(child)
                         for child in element.children), element.self_closing)


def test_documents_of_one_shape_have_equal_tokens(benchmark_mirrors):
    """Equal shapes give equal MMS and STS tokens, which is what lets
    ``navmodel.token_seq`` cache them per shape: over the demo and
    benchmark pages, random documents and copies of them that differ in
    every attribute value and text run."""
    rng = random.Random(216)
    docs = [random_document(rng, rng.randint(0, 5)) for _ in range(400)]
    docs += [document_of(_revalued(doc.root)) for doc in docs]
    docs += [mutate_document(rng, doc) for doc in docs[:400]]
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        docs += [to_xhtml(text) for _, text in mirror_pages(directory)]
    by_shape: dict = {}
    for doc in docs:
        tokens = serialize_schema(extract_schema(doc)), sts_serialize(doc)
        assert by_shape.setdefault(doc.shape, (doc, tokens))[1] == tokens, doc.shape
    shared = sum(by_shape[doc.shape][0] is not doc and by_shape[doc.shape][0] != doc
                 for doc in docs)
    assert shared > 900


def _odd_documents() -> list[Document]:
    """Hand-built trees the parser never makes, and parsed pages at its
    edges: adjacent text runs, a repeated attribute name, self-closing
    elements with children and a synthetic ``html`` root."""
    a, b = Element("a", (("href", "x"), ("href", "y"))), Element("a", (("href", "z"),))
    trees = [
        Element("p", (), ("one", "two", Element("b", (), ("x", "y")), "three")),
        Element("div", (), (a, b, Element("a"))),
        Element("div", (), (Element("br", (("c", "1"),), ("t", Element("i")), True),
                            Element("br", (), (), True))),
        Element("img", (("src", "s"), ("src", "t")), (Element("img", (), ("x",), True),), True),
        Element("html", (), (Element("html", (), ("x",)), "y", Element("html"))),
    ]
    docs = [document_of(tree) for tree in trees]
    docs += [to_xhtml(text) for text in (
        '<p a="1" b="2">x<p a="3">y<br c="4"></p><p b=5 b=6/>',
        "text before<div>a<!-- c -->b</div>text after<div/>",
        "<b>one</b><i>two</i>", "x<br>y<br/>z",
        "<div><img src=a>t</img><br>u</br></div>")]
    assert any(len(doc.root.children) > 1 and doc.root.name == "html" for doc in docs[-4:])
    return docs


@pytest.fixture(scope="module")
def oracle_documents(benchmark_mirrors) -> list[Document]:
    """Random documents, mutated copies of them, the demo and benchmark
    pages and the odd documents above."""
    rng = random.Random(210)
    docs = [random_document(rng, rng.randint(0, 5)) for _ in range(300)]
    docs += [mutate_document(rng, doc) for doc in docs[:200]]
    for directory in (DEMO_CORPUS, *benchmark_mirrors):
        docs += [to_xhtml(text) for _, text in mirror_pages(directory)]
    docs += _odd_documents()
    assert len(docs) > 950
    return docs


def test_extract_schema_equals_the_tree_walking_oracle(oracle_documents):
    for doc in oracle_documents:
        assert extract_schema(doc) == extract_schema_walk(doc)


def test_sts_serialize_equals_the_tree_walking_oracle(oracle_documents):
    for doc in oracle_documents:
        assert sts_serialize(doc) == sts_serialize_walk(doc)
