"""One-sided diffing and element inventories."""

import random
import tracemalloc

import pytest

from navminer import load_corpus
from navminer.components import (CandidateComponent, Fragment, diff_oneway,
                                 extract_candidates, identify_elements,
                                 lcs_pairs)
from navminer.navmodel import build_nav_tree
from navminer.normalize import LineText, stripped_lines, to_xhtml
from navminer.report import analyse

from conftest import DEMO_THRESHOLD, mutate_document, random_document, write_mirror


def lines_of(text: str) -> LineText:
    return stripped_lines(to_xhtml(text))


def lcs_pairs_dp(a: list[str], b: list[str]) -> list[tuple[int, int]]:
    """The full-table LCS that ``lcs_pairs`` replaced, kept as its oracle:
    an (n+1)x(m+1) list of ints and the same canonical backtrack, lines
    compared exactly as given."""
    la, lb = len(a), len(b)
    start = 0
    while start < la and start < lb and a[start] == b[start]:
        start += 1
    end = 0
    while end < la - start and end < lb - start and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1

    ma = a[start:la - end]
    mb = b[start:lb - end]
    n, m = len(ma), len(mb)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row = dp[i]
        above = dp[i - 1]
        ai = ma[i - 1]
        for j in range(1, m + 1):
            if ai == mb[j - 1]:
                row[j] = above[j - 1] + 1
            else:
                up = above[j]
                left = row[j - 1]
                row[j] = up if up >= left else left

    middle: list[tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        if ma[i - 1] == mb[j - 1]:
            middle.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif dp[i - 1][j] > dp[i][j - 1]:
            i -= 1
        elif dp[i - 1][j] < dp[i][j - 1]:
            j -= 1
        elif ma[i - 1] > mb[j - 1]:
            i -= 1
        else:
            j -= 1
    middle.reverse()

    pairs = [(k, k) for k in range(start)]
    pairs.extend((start + pi, start + pj) for pi, pj in middle)
    pairs.extend((la - end + k, lb - end + k) for k in range(end))
    return pairs


def assert_same_as_dp(a: list[str], b: list[str]):
    assert lcs_pairs(a, b) == lcs_pairs_dp(a, b)
    assert lcs_pairs(b, a) == lcs_pairs_dp(b, a)


def table_lines(rng: random.Random, rows: int, editable: bool) -> list[str]:
    """A long table page: the section view, or its edit form with an
    input cell on every seventh row and a different wrapper, so the
    common head and tail trim cannot skip the table."""
    body = ["<tr><th>Key</th><th>Value</th></tr>"]
    for r in range(rows):
        edit = '<td><input name="v" type="text"></td>' if editable and r % 7 == 6 else ""
        body.append(f'<tr class="r{rng.randrange(3)}"><td>{r}</td><td>x</td>{edit}</tr>')
    table = '<table class="t">' + "".join(body) + "</table>"
    if editable:
        page = f'<form action="s.html"><h2>Edit</h2>{table}<input type="submit"></form>'
    else:
        page = f'<div class="view"><a class="edit" href="e.html">Edit</a>{table}</div>'
    return lines_of(f"<html><head><title>t</title></head><body>{page}</body></html>").lines


def diff_oneway_scan(a: LineText, b: LineText) -> list[Fragment]:
    """The set-and-scan ``diff_oneway`` that cutting at the alignment's
    gaps replaced, kept as its oracle: every target line is tested
    against the set of aligned target indices."""
    aligned_b = {j for _, j in lcs_pairs(a.lines, b.lines)}
    fragments: list[Fragment] = []
    run_start = None
    for j in range(len(b.lines) + 1):
        inserted = j < len(b.lines) and j not in aligned_b
        if inserted and run_start is None:
            run_start = j
        elif not inserted and run_start is not None:
            fragments.append(Fragment(b.lines[run_start:j], b.opens[run_start:j],
                                      b.depths[run_start:j], run_start))
            run_start = None
    return fragments


def assert_diff_same_as_scan(a: LineText, b: LineText):
    assert diff_oneway(a, b) == diff_oneway_scan(a, b)
    assert diff_oneway(b, a) == diff_oneway_scan(b, a)


def lcs_length_recursive(a, b) -> int:
    """Independent maximality oracle for small inputs (memoized definition)."""
    memo = {}

    def go(i, j):
        if i == 0 or j == 0:
            return 0
        key = (i, j)
        if key not in memo:
            if a[i - 1] == b[j - 1]:
                memo[key] = go(i - 1, j - 1) + 1
            else:
                memo[key] = max(go(i - 1, j), go(i, j - 1))
        return memo[key]

    return go(len(a), len(b))


def test_equal_inputs_yield_no_fragments():
    a = lines_of("<div><p>x</p><ul><li>i</li></ul></div>")
    assert diff_oneway(a, a) == []


def test_inserted_div_is_one_fragment():
    skeleton = "<html><head><title>t</title></head><body><p>x</p></body></html>"
    grown = ("<html><head><title>t</title></head><body><p>x</p>"
             "<div class=\"new\"><b>n</b></div></body></html>")
    fragments = diff_oneway(lines_of(skeleton), lines_of(grown))
    assert len(fragments) == 1
    assert [l.strip() for l in fragments[0].lines] == \
        ['<div class="new">', "<b>", "</b>", "</div>"]


def test_source_only_material_is_discarded():
    a = lines_of("<div><p>gone</p><span>kept</span></div>")
    b = lines_of("<div><span>kept</span></div>")
    assert diff_oneway(a, b) == []


def test_indentation_depth_never_counts_as_change():
    a = lines_of("<div><span>x</span></div>")
    b = lines_of("<div><p><span>x</span></p></div>")
    fragments = diff_oneway(a, b)
    # only the wrapping <p> lines are new; the re-indented span aligns
    assert [l.strip() for f in fragments for l in f.lines] == ["<p>", "</p>"]


def test_alignment_is_symmetric_and_maximal_random():
    rng = random.Random(500)
    for _ in range(60):
        doc = random_document(rng, 2)
        other = mutate_document(rng, doc) if rng.random() < 0.7 else random_document(rng, 2)
        a = stripped_lines(doc).lines
        b = stripped_lines(other).lines
        pairs = lcs_pairs(a, b)
        ka = [x.lstrip() for x in a]
        kb = [x.lstrip() for x in b]
        # valid alignment: strictly increasing on both sides, equal keys
        assert all(ka[i] == kb[j] for i, j in pairs)
        assert all(i1 < i2 and j1 < j2
                   for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]))
        # maximal: same length as the independent LCS oracle
        assert len(pairs) == lcs_length_recursive(ka, kb)
        # symmetric: the mirror run produces the mirrored pair set
        assert lcs_pairs(b, a) == [(j, i) for i, j in pairs]


def test_diff_contract_random_pairs():
    rng = random.Random(501)
    for _ in range(60):
        doc = random_document(rng, 2)
        other = mutate_document(rng, doc)
        a, b = stripped_lines(doc), stripped_lines(other)
        forward = diff_oneway(a, b)
        backward = diff_oneway(b, a)
        b_keys = [x.lstrip() for x in b.lines]
        for fragment in forward:
            for offset, line in enumerate(fragment.lines):
                assert b_keys[fragment.start + offset] == line.lstrip()
        # one alignment, two disjoint reports
        aligned = lcs_pairs(a.lines, b.lines)
        reported_b = {fragment.start + k
                      for fragment in forward for k in range(len(fragment.lines))}
        reported_a = {fragment.start + k
                      for fragment in backward for k in range(len(fragment.lines))}
        assert reported_b == set(range(len(b.lines))) - {j for _, j in aligned}
        assert reported_a == set(range(len(a.lines))) - {i for i, _ in aligned}


def test_identify_elements_select_and_textareas():
    component = CandidateComponent("a", "b", [])
    component.fragments = diff_oneway(
        lines_of("<div></div>"),
        lines_of("<div><select><option>x</option></select>"
                 "<textarea>1</textarea><textarea>2</textarea></div>"))
    counts = identify_elements(component)
    assert counts["Select"] == 1
    assert counts["Textarea"] == 2


def test_identify_elements_buttons_and_hidden_input():
    component = CandidateComponent("a", "b", [])
    component.fragments = diff_oneway(
        lines_of("<div></div>"),
        lines_of('<div><form><input type="submit"><button>go</button>'
                 '<input type="hidden"><input type="text"><input></form></div>'))
    counts = identify_elements(component)
    assert counts["Button"] == 2
    assert counts["Text"] == 2  # explicit text type + missing type defaults to text
    assert counts["Form"] == 1


def test_empty_component_has_all_zero_inventory():
    counts = identify_elements(CandidateComponent("a", "b", []))
    assert set(counts) == {"Button", "Text", "Textarea", "Select", "Link",
                           "Image", "Table", "Form", "Other"}
    assert all(v == 0 for v in counts.values())


def _inventory(markup: str) -> dict[str, int]:
    component = CandidateComponent("a", "b", diff_oneway(
        lines_of("<div></div>"), lines_of(f"<div>{markup}</div>")))
    return identify_elements(component)


def test_inventory_reads_the_type_attribute_not_a_suffix_of_another():
    counts = _inventory('<input data-type="submit" type="text">'
                        '<input aria-type="hidden" type="text">')
    assert (counts["Button"], counts["Text"]) == (0, 2)
    # the first type attribute counts, as the parser keeps it
    assert _inventory('<input type="Hidden" type="submit">')["Button"] == 0


def test_inventory_counts_every_opened_element_the_parser_accepts(caplog):
    counts = _inventory('<a x<y="1" href="q">go</a><my_widget><img src="i.gif"></my_widget>')
    assert (counts["Link"], counts["Image"], counts["Other"]) == (1, 1, 1)
    assert sum(counts.values()) == 3
    assert not caplog.records


def test_fragments_carry_the_elements_their_lines_open():
    b = lines_of('<div><form><input type="text"><p>x</p></form></div>')
    for fragment in diff_oneway(lines_of("<div></div>"), b):
        assert len(fragment.opens) == len(fragment.lines)
        for line, element in zip(fragment.lines, fragment.opens):
            assert (element is None) == line.lstrip().startswith("</")
            assert element is None or line.lstrip().startswith("<" + element.name)


def _chain_mirror(tmp_path):
    def page(title, target=None):
        anchor = f'<a href="{target}">next</a>' if target else "<span>end</span>"
        return (f"<html><head><title>{title}</title></head><body>"
                f"<h1>{title}</h1>{anchor}</body></html>")

    return write_mirror(tmp_path, {
        "index.html": page("one", "b.html"),
        "b.html": page("two", "c.html"),
        "c.html": page("three"),
    })


def test_chain_of_three_yields_two_components(tmp_path):
    corpus = load_corpus(_chain_mirror(tmp_path), max_depth=5, delay=0.0)
    _, components = analyse(corpus, 1.0, "MMS")
    assert [(c.source, c.target) for c in components] == \
        [("index.html", "b.html"), ("b.html", "c.html")]


def test_single_node_tree_yields_no_components(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>x</body></html>"})
    corpus = load_corpus(root, max_depth=5, delay=0.0)
    assert analyse(corpus, 0.9, "MMS")[1] == []


def test_unreduced_tree_is_rejected(tmp_path):
    root = write_mirror(tmp_path, {"index.html": "<html><body>x</body></html>"})
    corpus = load_corpus(root, max_depth=5, delay=0.0)
    tree = build_nav_tree(corpus, 0.9, "MMS")
    with pytest.raises(ValueError):
        extract_candidates(tree)


def test_identical_representatives_yield_empty_edge(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": '<html><body><span>same</span><a href="twin.html">t</a></body></html>',
        "twin.html": '<html><body><span>other</span><a href="twin.html">t</a></body></html>',
    })
    corpus = load_corpus(root, max_depth=5, delay=0.0)
    _, components = analyse(corpus, 0.9, "MMS")
    assert len(components) == 1
    assert components[0].fragments == []  # stripped forms are line-identical


def test_demo_index_to_category_component(demo_corpus):
    """The index -> category edge carries exactly the category-specific
    markup: the home anchor and the items table, minus the five anchor
    close lines the alignment shares with the index page's own links."""
    component = analyse(demo_corpus, DEMO_THRESHOLD, "MMS")[1][0]
    assert (component.source, component.target) == ("index.html", "cat-fish.html")

    target_lines = [l.strip() for l in stripped_lines(
        demo_corpus.pages["cat-fish.html"].document).lines]
    # hand-derived: the category middle spans the home anchor through
    # </table>; index aligns the skeleton around it plus five </a> lines
    middle = target_lines[8:-4]
    assert middle[0] == '<a class="home" href="index.html">'
    assert middle[-1] == "</table>"
    expected = sorted(middle)
    for _ in range(5):
        expected.remove("</a>")

    got = sorted(l.strip() for f in component.fragments for l in f.lines)
    assert got == expected
    # nothing from the shared skeleton leaks into the component
    skeleton = {"<html>", "<head>", "<title>", "</title>", "</head>", "<body>",
                "<h1>", "</h1>", '<div class="footer">', "</div>", "</body>", "</html>"}
    assert not skeleton & set(got)
    assert component.inventory["Table"] == 1
    assert component.inventory["Link"] == 6  # home anchor + five item anchors


def _random_line_lists(rng: random.Random) -> tuple[list[str], list[str]]:
    shape = rng.choice(("few", "many", "equal", "disjoint", "edited"))
    size = 1 if shape == "equal" else rng.randint(1, 3) if shape == "few" else rng.randint(2, 30)
    alphabet = [f"<t{k}>" for k in range(size)]
    other = [f"<u{k}>" for k in range(size)] if shape == "disjoint" else alphabet

    def indent(line):
        return rng.choice(("", " ", "  ", "\t")) + line

    a = [indent(rng.choice(alphabet)) for _ in range(rng.randint(0, 40))]
    if shape == "edited":  # long shared head and tail with edits inside
        b = [indent(line.lstrip()) for line in a]
        for _ in range(rng.randint(0, 4)):
            if b and rng.random() < 0.5:
                del b[rng.randrange(len(b))]
            else:
                b.insert(rng.randint(0, len(b)), indent(f"<t{rng.randint(0, 5)}>"))
    else:
        b = [indent(rng.choice(other)) for _ in range(rng.randint(0, 40))]
    if rng.random() < 0.1:
        a, b = ([], b) if rng.random() < 0.5 else (a, [])
    return a, b


def test_lcs_pairs_equals_dp_oracle_on_random_line_lists():
    rng = random.Random(503)
    for _ in range(3000):
        assert_same_as_dp(*_random_line_lists(rng))


def test_lcs_pairs_equals_dp_oracle_on_demo_edges(demo_corpus):
    edges = set()
    for method in ("MMS", "STS"):
        _, components = analyse(demo_corpus, DEMO_THRESHOLD, method)
        edges.update((c.source, c.target) for c in components)
    assert len(edges) >= 10
    for source, target in sorted(edges):
        assert_same_as_dp(stripped_lines(demo_corpus.pages[source].document).lines,
                          stripped_lines(demo_corpus.pages[target].document).lines)


def test_lcs_pairs_equals_dp_oracle_short_against_long():
    """An index page against a section page: about 30 lines against 900
    that share only a few, so the backtrack walks long runs along a row
    (and, in the other order, up a column)."""
    rng = random.Random(506)
    long = table_lines(rng, 147, False)
    assert len(long) > 850
    pool = sorted(set(long))
    for _ in range(12):
        short = [rng.choice(pool) if rng.random() < 0.2 else f"<li{rng.randrange(4)}>"
                 for _ in range(rng.randint(5, 40))]
        assert_same_as_dp(short, long)


def test_lcs_pairs_equals_dp_oracle_wider_than_a_word_with_ties():
    """Line lists of 65-160 lines from two or three lines, or a shuffle
    of one list against another: ties at most cells."""
    rng = random.Random(507)
    for case in range(80):
        alphabet = [f"<t{k}>" for k in range(rng.randint(2, 3))]
        a = [rng.choice(alphabet) for _ in range(rng.randint(65, 160))]
        if case % 4 == 0:
            b = a[:]
            rng.shuffle(b)
        else:
            b = [rng.choice(alphabet) for _ in range(rng.randint(65, 160))]
        assert_same_as_dp(a, b)


def test_lcs_pairs_equals_dp_oracle_on_a_long_table_pair():
    rng = random.Random(504)
    view, edit = table_lines(rng, 147, False), table_lines(rng, 147, True)
    assert 850 <= len(view) < len(edit) <= 1000
    assert_same_as_dp(view, edit)


def test_diff_of_two_long_pages_stays_small_in_memory():
    """Two pages of about 3.5k lines each.  The full table of ints took
    about 180 MB and 2 s for this pair; one int of m bits per line of a
    takes about n*m/8 bytes, 1.5 MB."""
    rng = random.Random(505)
    view_lines, edit_lines = table_lines(rng, 590, False), table_lines(rng, 540, True)
    view = LineText(view_lines, [None] * len(view_lines), [0] * len(view_lines))
    edit = LineText(edit_lines, [None] * len(edit_lines), [0] * len(edit_lines))
    assert 3400 <= min(len(view.lines), len(edit.lines))
    tracemalloc.start()
    try:
        fragments = diff_oneway(view, edit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20
    inputs = [l.strip() for f in fragments for l in f.lines]
    assert inputs.count('<input name="v" type="text"/>') >= 540 // 7


def _edges(corpus, methods, threshold) -> list[tuple[str, str]]:
    """The (source, target) representatives of every edge of the reduced
    trees of ``corpus``, one per method."""
    edges = set()
    for method in methods:
        _, components = analyse(corpus, threshold, method)
        edges.update((c.source, c.target) for c in components)
    return sorted(edges)


def test_diff_oneway_equals_the_scan_oracle_on_random_pairs():
    """Random documents against their edits and against each other, and
    random line lists: empty sides, no shared line, and equal heads and
    tails around edits, so runs start at line 0 and end at the last."""
    rng = random.Random(508)
    for _ in range(300):
        doc = random_document(rng, 2)
        other = mutate_document(rng, doc) if rng.random() < 0.7 else random_document(rng, 2)
        assert_diff_same_as_scan(stripped_lines(doc), stripped_lines(other))
    for _ in range(3000):
        a, b = _random_line_lists(rng)
        assert_diff_same_as_scan(LineText(a, [None] * len(a), list(range(len(a)))),
                                 LineText(b, [None] * len(b), list(range(len(b)))))


def test_diff_oneway_equals_the_scan_oracle_on_demo_and_longpage_edges(
        demo_corpus, benchmark_mirrors):
    """Every edge of the demo's reduced trees, MMS and STS, and the eight
    edges of the benchmark's long-page mirror: index to section and
    section to edit page, where the alignment pairs hundreds of lines."""
    longpage = load_corpus(benchmark_mirrors[1] / "index.html", max_depth=10, delay=0.0)
    cases = [(demo_corpus, _edges(demo_corpus, ("MMS", "STS"), DEMO_THRESHOLD)),
             (longpage, _edges(longpage, ("MMS",), 0.95))]
    assert len(cases[0][1]) >= 10 and len(cases[1][1]) == 8
    for corpus, edges in cases:
        for source, target in edges:
            assert_diff_same_as_scan(stripped_lines(corpus.pages[source].document),
                                     stripped_lines(corpus.pages[target].document))
