"""Repair, pretty-printing and text stripping."""

import ast
import random

import pytest

from navminer.cli import main
from navminer.normalize import (Document, EmptyDocumentError, Element, Text,
                                pretty_print, stripped_lines, to_xhtml, walk)

from conftest import DEMO_CORPUS, REPO_ROOT, all_elements, random_document, write_mirror


# oracles: the text form for round trips, and the copying form of stripped_lines
def serialize(doc: Document) -> str:
    """Round-trippable text form of a Document (the pretty-print)."""
    return pretty_print(doc).text


def remove_textual_content(doc: Document) -> Document:
    """Drop every text node; element structure and attributes stay put."""
    open_copies: list[Element] = []
    for node, _, closing in walk(doc.root):
        if closing:
            root = open_copies.pop()
        elif node.__class__ is not Text:
            copy = Element(node.name, list(node.attrs), [], node.self_closing)
            if open_copies:
                open_copies[-1].children.append(copy)
            open_copies.append(copy)
    return Document(root)


def test_unclosed_tag_equals_closed_form():
    assert to_xhtml("<p>hello") == to_xhtml("<p>hello</p>")


def test_wellformed_page_is_fixpoint():
    text = '<html><body><p class="x">hi</p><ul><li>a</li></ul></body></html>'
    doc = to_xhtml(text)
    assert to_xhtml(serialize(doc)) == doc


def test_misnested_tags_repair_to_wellformed_fixpoint():
    doc = to_xhtml("<b><i>x</b></i>")
    # single root, properly nested, and repair is idempotent
    assert doc.root.name == "b"
    inner = doc.root.children[0]
    assert isinstance(inner, Element) and inner.name == "i"
    assert to_xhtml(serialize(doc)) == doc


def test_stray_close_tag_dropped():
    assert to_xhtml("<div></span>x</div>") == to_xhtml("<div>x</div>")


def test_implied_end_keeps_rows_as_siblings():
    doc = to_xhtml("<table><tr><td>a<td>b<tr><td>c</table>")
    table = doc.root
    rows = [c for c in table.children if isinstance(c, Element)]
    assert [r.name for r in rows] == ["tr", "tr"]
    assert [c.name for c in rows[0].children] == ["td", "td"]


def test_unclosed_paragraph_closed_by_next_paragraph():
    doc = to_xhtml("<div><p>one<p>two</p></div>")
    names = [c.name for c in doc.root.children if isinstance(c, Element)]
    assert names == ["p", "p"]


def test_void_elements_do_not_swallow_siblings():
    doc = to_xhtml('<div><img src="x.gif"><p>text</p></div>')
    names = [c.name for c in doc.root.children if isinstance(c, Element)]
    assert names == ["img", "p"]
    img = doc.root.children[0]
    assert img.self_closing


def test_duplicate_attributes_keep_first():
    doc = to_xhtml('<div class="a" class="b"></div>')
    assert doc.root.attrs == [("class", "a")]


def test_bare_attribute_value_is_empty_string():
    doc = to_xhtml("<input disabled>")
    assert ("disabled", "") in doc.root.attrs


def test_script_and_comment_bodies_dropped():
    doc = to_xhtml("<div><script>var x = '<p>';</script><!-- note -->ok</div>")
    kinds = [type(c).__name__ for c in doc.root.children]
    assert kinds == ["Element", "Text"]
    assert doc.root.children[1].content == "ok"


def test_no_markup_raises():
    with pytest.raises(EmptyDocumentError):
        to_xhtml("just plain words, no tags at all")


def test_multiple_top_level_elements_get_single_root():
    doc = to_xhtml("<div>a</div><div>b</div>")
    assert doc.root.name == "html"
    assert len([c for c in doc.root.children if isinstance(c, Element)]) == 2
    assert to_xhtml(serialize(doc)) == doc


def test_pretty_print_empty_html_two_lines():
    assert pretty_print(to_xhtml("<html></html>")).lines == ["<html>", "</html>"]


def test_pretty_print_table_five_lines():
    lines = pretty_print(to_xhtml("<table><tr><td/></tr></table>")).lines
    assert lines == ["<table>", "  <tr>", "    <td/>", "  </tr>", "</table>"]


def test_pretty_print_deterministic():
    text = '<div id="d"><p>one</p><p>two</p></div>'
    assert pretty_print(to_xhtml(text)).lines == pretty_print(to_xhtml(text)).lines


def test_pretty_print_roundtrip_up_to_whitespace():
    text = '<div class="c"><p>hello <b>bold</b> tail</p><ul><li>x</li></ul></div>'
    doc = to_xhtml(text)
    assert to_xhtml(pretty_print(doc).text) == doc


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
        total += sum(isinstance(c, Text) for c in element.children)
    return total


def test_strip_preserves_elements_and_attributes_random():
    rng = random.Random(200)
    for _ in range(30):
        doc = random_document(rng)
        stripped = remove_textual_content(doc)
        assert _count_texts(stripped.root) == 0
        assert _count_elements(stripped.root) == _count_elements(doc.root)
        for before, after in zip(all_elements(doc.root), all_elements(stripped.root)):
            assert before.attrs == after.attrs


def test_line_count_equals_tag_count_after_stripping():
    rng = random.Random(201)
    for _ in range(20):
        doc = remove_textual_content(random_document(rng))
        lines = pretty_print(doc).lines
        tags = sum(1 if e.self_closing and not e.children else 2
                   for e in all_elements(doc.root))
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


def _walk_reference(node, depth=0):
    """The recursive definition ``walk`` must agree with."""
    events = [(node, depth, False)]
    if not isinstance(node, Text):
        for child in node.children:
            events.extend(_walk_reference(child, depth + 1))
        events.append((node, depth, True))
    return events


def _ids(events):
    return [(id(node), depth, closing) for node, depth, closing in events]


def test_walk_matches_recursive_reference_random():
    rng = random.Random(203)
    for _ in range(40):
        doc = random_document(rng, depth=rng.randint(0, 5))
        assert _ids(walk(doc.root)) == _ids(_walk_reference(doc.root))


def test_walk_reads_children_after_yielding_the_node():
    root = Element("a")
    seen = []
    for node, depth, closing in walk(root):
        seen.append((node.name, depth, closing))
        if not closing and depth < 2:  # grow the tree while walking it
            node.children = [Element(node.name + "0"), Element(node.name + "1")]
    opening = [name for name, _, closing in seen if not closing]
    assert opening == ["a", "a0", "a00", "a01", "a1", "a10", "a11"]
    assert seen[-1] == ("a", 0, True)


def test_stripped_lines_equals_pretty_print_of_stripped_copy():
    rng = random.Random(204)
    for _ in range(60):
        doc = random_document(rng, depth=4)
        for element in all_elements(doc.root):  # the parser never does this
            element.self_closing = rng.random() < 0.2
        assert stripped_lines(doc) == pretty_print(remove_textual_content(doc))
    pages = sorted(DEMO_CORPUS.rglob("*.html"))
    assert pages
    for page in pages:
        doc = to_xhtml(page.read_text(encoding="utf-8"))
        assert stripped_lines(doc) == pretty_print(remove_textual_content(doc))


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
    """Deep input must not meet Python's recursion limit: every tree is
    walked by ``walk``, so no function calls itself by name."""
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
