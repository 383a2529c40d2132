"""Tree construction, refinement and reduction."""

import random
from collections import deque
from pathlib import Path

import pytest

from navminer import load_corpus, navmodel
from navminer.corpus import Corpus
from navminer.navmodel import (METHODS, NavNode, _cluster_ordered, build_nav_tree,
                               collect_partition, pair_similarity, reduce_to_snp,
                               refine_clusters, token_seq, walk)
from navminer.normalize import pretty_print, to_xhtml
from navminer.report import Config, analyse, run_pipeline
from navminer.schema import extract_schema, serialize_schema, sts_serialize
from navminer.similarity import clone_pair, similarity, transclos

from conftest import (DEMO_THRESHOLD, mirror_pages, partition_is_valid, perfbench_mirrors,
                      random_document, random_mirror, refines, write_mirror)

GOLDEN_TREE = Path(__file__).parent / "data" / "demo_tree.txt"


def leaf(title, marker="span"):
    return (f"<html><head><title>{title}</title></head><body>"
            f"<h1>{title}</h1><{marker}>tail</{marker}></body></html>")


def linking(title, targets):
    anchors = "".join(f'<a href="{t}">{t}</a>' for t in targets)
    return (f"<html><head><title>{title}</title></head><body>"
            f"<h1>{title}</h1>{anchors}</body></html>")


def build(root, threshold=0.9, method="MMS", max_depth=10):
    corpus = load_corpus(root, max_depth=max_depth, delay=0.0)
    return corpus, build_nav_tree(corpus, threshold, method)


def analysed(root, threshold=0.9, method="MMS"):
    """The load of the mirror at ``root`` and its reduced tree."""
    corpus = load_corpus(root, max_depth=10, delay=0.0)
    return corpus, analyse(corpus, threshold, method)[0]


def test_root_without_links_is_single_node(tmp_path):
    root = write_mirror(tmp_path, {"index.html": leaf("alone")})
    _, tree = build(root)
    assert tree.root.members == ("index.html",)
    assert tree.root.children == []


def test_similar_pages_cluster_distinct_page_stays_alone(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html", "c.html", "d.html"]),
        "b.html": leaf("b"),
        "c.html": leaf("c"),
        "d.html": "<html><body><form><select><option>x</option></select>"
                  "</form></body></html>",
    })
    _, tree = build(root)
    members = [set(child.members) for child in tree.root.children]
    assert members == [{"b.html", "c.html"}, {"d.html"}]


def test_threshold_one_on_distinct_pages_gives_link_tree(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html", "c.html", "d.html"]),
        "b.html": leaf("b", "span"),
        "c.html": leaf("c", "b"),
        "d.html": leaf("d", "i"),
    })
    _, tree = build(root, threshold=1.0)
    assert [child.members for child in tree.root.children] == \
        [("b.html",), ("c.html",), ("d.html",)]


def test_already_visited_page_becomes_backref(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["a.html"]),
        "a.html": linking("a", ["index.html"]),
    })
    _, tree = build(root)
    child = tree.root.children[0]
    assert child.members == ("a.html",)
    assert child.children == []
    assert child.backrefs == ("index.html",)


def test_page_reached_twice_is_owned_once(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["x.html", "y.html"]),
        "x.html": linking("x", ["shared.html"]),
        "y.html": linking("y", ["shared.html"]),
        "shared.html": leaf("shared"),
    })
    _, tree = build(root)
    owners = [depth for node, depth, closing in walk(tree.root)
              if not closing and "shared.html" in node.members]
    assert owners == [2]
    partition = collect_partition(tree)
    assert partition_is_valid(partition)


def test_every_loaded_page_is_in_exactly_one_node(tmp_path):
    """The crawl's depth limit is the only one: on random mirrors, loaded at
    depths 0-4 with dense links and at the default depth with sparse ones,
    the nodes of the built and of the refined tree partition exactly the
    loaded pages, under both methods.  Deep and long pages are among the
    loaded ones, and empty files among the excluded."""
    rng = random.Random(2206)
    large = empty = 0
    for index in range(40):
        if index < 20:
            root = random_mirror(tmp_path / str(index), rng, rng.randint(6, 30), (1, 6))
            depths = range(5)
        else:
            root = random_mirror(tmp_path / str(index), rng, rng.randint(6, 60), (1, 3))
            depths = (Config.max_depth,)  # the default
        for depth in depths:
            corpus = load_corpus(root, max_depth=depth, delay=0.0)
            for method in METHODS:
                tree = build_nav_tree(corpus, 0.8, method)
                for partition in (collect_partition(tree),
                                  collect_partition(refine_clusters(tree))):
                    assert partition_is_valid(partition), (index, depth, method)
                    assert partition.universe == frozenset(corpus.pages), (index, depth, method)
        large += sum(name in corpus.pages for name in ("deep.html", "long.html"))
        empty += "files/empty.html" in corpus.excluded
    assert large > 2 and empty > 0


def _crawl_referrers(corpus) -> dict:
    """The page whose link first reaches each loaded page in a
    breadth-first walk of ``Page.links`` from the root, None for the
    root: the crawl's referrer, recounted from the links alone."""
    referrers = {corpus.root: None}
    queue = deque([corpus.root])
    while queue:
        page_id = queue.popleft()
        for target in corpus.pages[page_id].links:
            if target in corpus.pages and target not in referrers:
                referrers[target] = page_id
                queue.append(target)
    return referrers


def test_each_page_is_owned_by_its_crawl_referrers_node(tmp_path):
    """On random mirrors loaded at crawl depths 0-4, every page but the
    root is a member of a child of the node its crawl referrer is in,
    under both methods."""
    rng = random.Random(2601)
    links = 0
    for index in range(20):
        root = random_mirror(tmp_path / str(index), rng, rng.randint(6, 30), (1, 6))
        for depth in range(5):
            corpus = load_corpus(root, max_depth=depth, delay=0.0)
            referrers = _crawl_referrers(corpus)
            assert referrers == {p: page.referrer for p, page in corpus.pages.items()}
            links += sum(len(page.links) for page in corpus.pages.values())
            for method in METHODS:
                tree, _ = analyse(corpus, 0.8, method)
                parents = {p: node.members for node in tree.nodes()
                           for child in node.children for p in child.members}
                assert tree.root.members == (corpus.root,)
                assert set(parents) == set(corpus.pages) - {corpus.root}
                for page_id, parent in parents.items():
                    assert referrers[page_id] in parent, (index, depth, method, page_id)
    assert links > 2500


def test_a_higher_threshold_refines_a_lower_one_on_random_mirrors(tmp_path):
    """Criterion 6 over the whole tree: on random mirrors, under both
    methods, each step up the threshold grid 0.05-1.0 gives a partition
    of the pages that refines the one below it."""
    rng = random.Random(2602)
    grid = [step / 20 for step in range(1, 21)]
    split = 0
    for index in range(40):
        root = random_mirror(tmp_path / str(index), rng, rng.randint(6, 30), (1, 6))
        corpus = load_corpus(root, max_depth=Config.max_depth, delay=0.0)
        for method in METHODS:
            partitions = [collect_partition(analyse(corpus, t, method)[0]) for t in grid]
            for t, low, high in zip(grid[1:], partitions, partitions[1:]):
                assert refines(high, low), (index, method, t)
            split += len(partitions[-1].clusters) > len(partitions[0].clusters)
    assert split > 60


def test_no_pair_of_pages_is_compared_twice_in_a_run(tmp_path, monkeypatch):
    """A run of the benchmark's seed-101 catalog compares each pair of
    pages at most once, under both methods."""
    root = perfbench_mirrors().catalog(tmp_path, 101, 12, 25).root
    compared = []

    def recording(corpus, method, a, b):
        compared.append(frozenset((a, b)))
        return pair_similarity(corpus, method, a, b)

    monkeypatch.setattr(navmodel, "pair_similarity", recording)
    for method, threshold in (("MMS", 0.95), ("STS", 0.8)):
        compared.clear()
        run_pipeline(Config(root=str(root), threshold=threshold, method=method,
                            out_dir=str(tmp_path / method)))
        assert compared and len(set(compared)) == len(compared), method


def _figure_mirror(tmp_path):
    return write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html", "c.html"]),
        "b.html": linking("b", ["f.html", "g.html"]),
        "c.html": linking("c", ["h.html"]),
        "f.html": leaf("f"),
        "g.html": leaf("g"),
        "h.html": leaf("h"),
    })


def test_build_joins_the_pages_a_cluster_owns(tmp_path):
    """f and g, owned by b, and h, owned by c, are clustered together
    under the node {b, c}, in crawl order."""
    _, tree = build(_figure_mirror(tmp_path))
    cluster = tree.root.children[0]
    assert cluster.members == ("b.html", "c.html")
    assert [c.members for c in cluster.children] == [("f.html", "g.html", "h.html")]


def test_refine_joins_next_level_across_cluster_members(tmp_path):
    corpus, tree = build(_figure_mirror(tmp_path))
    refined = refine_clusters(tree)
    cluster = refined.root.children[0]
    assert [set(c.members) for c in cluster.children] == [{"f.html", "g.html", "h.html"}]


def test_refine_leaves_singleton_nodes_alone(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html"]),
        "b.html": linking("b", ["f.html", "g.html"]),
        "f.html": leaf("f"),
        "g.html": leaf("g"),
    })
    corpus, tree = build(root)
    refined = refine_clusters(tree)
    assert [c.members for c in refined.root.children] == \
        [c.members for c in tree.root.children]
    b_node = refined.root.children[0]
    assert [set(c.members) for c in b_node.children] == [{"f.html", "g.html"}]


def test_refine_keeps_dissimilar_sets_apart(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html", "c.html"]),
        "b.html": linking("b", ["f.html"]),
        "c.html": linking("c", ["h.html"]),
        "f.html": leaf("f", "b"),
        "h.html": "<html><body><form><select><option>x</option></select>"
                  "</form></body></html>",
    })
    _, tree = build(root)
    refined = refine_clusters(tree)
    cluster = refined.root.children[0]
    assert [set(c.members) for c in cluster.children] == [{"f.html"}, {"h.html"}]


def test_reduce_picks_largest_member(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["small.html", "large.html"]),
        "small.html": leaf("s"),
        "large.html": ("<html><head><title>L</title></head><body><h1>L</h1>"
                       "<span>tail</span><span>more</span><span>even more</span>"
                       "</body></html>"),
    })
    _, snp = analysed(root, threshold=0.5)
    cluster = snp.root.children[0]
    assert set(cluster.members) == {"large.html", "small.html"}
    assert cluster.representative == "large.html"


def test_reduce_tie_breaks_to_smaller_page_id(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["bb.html", "aa.html"]),
        "bb.html": leaf("x"),
        "aa.html": leaf("y"),  # byte-identical size to bb.html
    })
    corpus, snp = analysed(root)
    cluster = snp.root.children[0]
    from navminer.navmodel import page_size

    assert page_size(corpus, "aa.html") == page_size(corpus, "bb.html")
    assert cluster.representative == "aa.html"


def test_reduce_never_changes_shape(tmp_path):
    _, tree = build(_figure_mirror(tmp_path))
    refined = refine_clusters(tree)
    before = [(node.members, len(node.children)) for node in refined.nodes()]
    snp = reduce_to_snp(refined)
    after = [(node.members, len(node.children)) for node in snp.nodes()]
    assert before == after
    assert all(node.representative in node.members for node in snp.nodes())


def test_rejects_unknown_method(tmp_path):
    root = write_mirror(tmp_path, {"index.html": leaf("a")})
    corpus = load_corpus(root, max_depth=1, delay=0.0)
    with pytest.raises(ValueError):
        build_nav_tree(corpus, 0.9, "XXX")


def _layout(node, indent=0):
    line = " " * indent + "[" + " ".join(sorted(node.members)) + "]"
    return "\n".join([line] + [_layout(c, indent + 2) for c in node.children])


def test_demo_corpus_matches_golden_tree(demo_corpus):
    tree, _ = analyse(demo_corpus, DEMO_THRESHOLD, "MMS")
    assert _layout(tree.root) + "\n" == GOLDEN_TREE.read_text(encoding="utf-8")


def test_demo_partition_is_valid_for_both_methods(demo_corpus):
    for method in ("MMS", "STS"):
        partition = collect_partition(analyse(demo_corpus, 0.8, method)[0])
        assert partition_is_valid(partition)
        assert partition.universe == frozenset(demo_corpus.pages)


def cluster_all_pairs(corpus, method, pages, threshold):
    """The all-pairs clustering loop ``_cluster_ordered`` replaced, kept as
    the oracle: every pair compared, clusters and members in discovery
    order."""
    if not pages:
        return []
    order = {p: i for i, p in enumerate(pages)}
    pairs = set()
    for i, p in enumerate(pages):
        for q in pages[i + 1:]:
            if similarity(token_seq(corpus, p, method),
                          token_seq(corpus, q, method)) >= threshold:
                pairs.add(clone_pair(p, q))
    partition = transclos(pairs, set(pages))
    clusters = [tuple(sorted(c, key=order.__getitem__)) for c in partition.clusters]
    clusters.sort(key=lambda c: order[c[0]])
    return clusters


def test_cluster_ordered_matches_all_pairs_oracle(demo_corpus):
    rng = random.Random(405)
    pages = sorted(demo_corpus.pages)
    for method in ("MMS", "STS"):
        for _ in range(8):
            sample = rng.sample(pages, rng.randint(0, len(pages)))
            for threshold in (0.0, 0.5, 0.8, 0.95, 1.0):
                assert _cluster_ordered(demo_corpus, method, sample, threshold) == \
                    cluster_all_pairs(demo_corpus, method, sample, threshold)


def test_a_lone_page_is_its_own_cluster_without_tokens(demo_root):
    """Fewer than two pages are clustered as the oracle clusters them, and
    no token sequence is computed for them."""
    corpus = load_corpus(demo_root, max_depth=10, delay=0.0)
    for method in METHODS:
        for pages in ([], ["index.html"], ["items/item-d1.html"]):
            assert _cluster_ordered(corpus, method, pages, 0.9) == [tuple(pages)] * len(pages)
            assert corpus.memo == {}
            assert cluster_all_pairs(corpus, method, pages, 0.9) == [tuple(pages)] * len(pages)


def test_memo_grows_with_shapes_not_pairs(tmp_path):
    """50 clustered leaves of one template share one shape object, and the
    memo holds one entry for it: ``(method, shape)``."""
    items = [f"item-{i:02d}.html" for i in range(50)]
    pages = {"index.html": linking("home", items)}
    pages.update({name: leaf(name) for name in items})
    corpus, tree = analysed(write_mirror(tmp_path, pages))
    assert [set(c.members) for c in tree.root.children] == [set(items)]
    shape = corpus.pages[items[0]].document.shape
    assert all(corpus.pages[name].document.shape is shape for name in items)
    assert list(corpus.memo) == [("MMS", shape)]
    assert next(iter(corpus.memo))[1] is shape


def test_token_seq_memo_holds_one_entry_per_method_and_shape(tmp_path):
    """An index and 50 leaves of one template have two shapes, so the memo
    holds one token tuple per method and shape, keyed ``(method, shape)``."""
    items = [f"item-{i:02d}.html" for i in range(50)]
    pages = {"index.html": linking("home", items)}
    pages.update({name: leaf(name) for name in items})
    root = write_mirror(tmp_path, pages)
    corpus = load_corpus(root, max_depth=10, delay=0.0)
    for method in ("STS", "MMS"):
        for page_id in corpus.pages:
            token_seq(corpus, page_id, method)
    shapes = {page.document.shape for page in corpus.pages.values()}
    assert len(shapes) == 2
    assert set(corpus.memo) == {(method, shape) for method in ("MMS", "STS")
                                for shape in shapes}


def test_token_seq_is_the_direct_computation(demo_corpus, benchmark_mirrors):
    """Every demo and benchmark page's cached tokens, under both methods,
    are those computed from the page itself, and each distinct shape is
    one memo entry per method."""
    corpora = [demo_corpus] + [load_corpus(directory / "index.html", max_depth=10, delay=0.0)
                               for directory in benchmark_mirrors]
    for corpus in corpora:
        corpus = Corpus(corpus.root, corpus.pages)  # a memo of its own
        for method in ("MMS", "STS"):
            for page_id, page in corpus.pages.items():
                direct = (serialize_schema(extract_schema(page.document)) if method == "MMS"
                          else sts_serialize(page.document))
                assert token_seq(corpus, page_id, method) == direct, (method, page_id)
        assert len(corpus.memo) == 2 * len({p.document.shape for p in corpus.pages.values()})
    assert [len({p.document.shape for p in c.pages.values()}) for c in corpora] == [12, 28, 9]


def _indented_byte_count(doc) -> int:
    """Oracle for ``page_size``: the pretty-print with each line indented
    two spaces a depth and ended by a newline, as bytes."""
    printed = pretty_print(doc)
    return sum(len(("  " * depth + line + "\n").encode("utf-8"))
               for line, depth in zip(printed.lines, printed.depths))


def test_page_size_is_the_indented_byte_count(demo_corpus, benchmark_mirrors):
    from navminer.corpus import Corpus, Page
    from navminer.navmodel import page_size

    table = to_xhtml("<table><tr><td/></tr></table>")
    rng = random.Random(212)
    docs = [table, to_xhtml("<p>caf\xe9 €<b>\U0001f600</b></p>")]
    docs += [random_document(rng, rng.randint(0, 5)) for _ in range(200)]
    docs += [page.document for page in demo_corpus.pages.values()]
    for directory in benchmark_mirrors:
        docs += [to_xhtml(text) for _, text in mirror_pages(directory)]
    corpus = Corpus("0", {str(index): Page(0, doc, (), None) for index, doc in enumerate(docs)})
    for page_id, page in corpus.pages.items():
        assert page_size(corpus, page_id) == _indented_byte_count(page.document), page_id
    assert page_size(corpus, "0") == len("<table>\n  <tr>\n    <td/>\n  </tr>\n</table>\n")


def _walk_reference(node, depth=0):
    """The recursive definition ``walk`` must agree with."""
    events = [(node, depth, False)]
    for child in node.children:
        events.extend(_walk_reference(child, depth + 1))
    events.append((node, depth, True))
    return events


def _ids(events):
    return [(id(node), depth, closing) for node, depth, closing in events]


def _random_nodes(rng, depth):
    """A random node tree, up to ``depth`` levels below its root."""
    node = NavNode((f"p{rng.randrange(100)}.html",))
    if depth > 0:
        node.children = [_random_nodes(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return node


def test_walk_matches_recursive_reference_random():
    rng = random.Random(203)
    for _ in range(40):
        root = _random_nodes(rng, rng.randint(0, 5))
        assert _ids(walk(root)) == _ids(_walk_reference(root))


def test_walk_reads_children_after_yielding_the_node():
    root = NavNode(("a",))
    seen = []
    for node, depth, closing in walk(root):
        name = node.members[0]
        seen.append((name, depth, closing))
        if not closing and depth < 2:  # grow the tree while walking it
            node.children = [NavNode((name + "0",)), NavNode((name + "1",))]
    opening = [name for name, _, closing in seen if not closing]
    assert opening == ["a", "a0", "a00", "a01", "a1", "a10", "a11"]
    assert seen[-1] == ("a", 0, True)
