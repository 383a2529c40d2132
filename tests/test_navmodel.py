"""Tree construction, refinement and reduction."""

import random
from pathlib import Path

import pytest

from navminer import load_corpus
from navminer.corpus import Corpus
from navminer.navmodel import (_cluster_ordered, build_nav_tree, collect_partition,
                               reduce_to_snp, refine_clusters, token_seq)
from navminer.normalize import pretty_print, to_xhtml, walk
from navminer.schema import extract_schema, serialize_schema, sts_serialize
from navminer.similarity import clone_pair, similarity, transclos

from conftest import (DEMO_THRESHOLD, mirror_pages, partition_is_valid, random_document,
                      write_mirror)

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
    return corpus, build_nav_tree(corpus.root, corpus, threshold, method, max_depth)


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


def _figure_mirror(tmp_path):
    return write_mirror(tmp_path, {
        "index.html": linking("home", ["b.html", "c.html"]),
        "b.html": linking("b", ["f.html", "g.html"]),
        "c.html": linking("c", ["h.html"]),
        "f.html": leaf("f"),
        "g.html": leaf("g"),
        "h.html": leaf("h"),
    })


def test_build_keeps_per_page_child_sets(tmp_path):
    _, tree = build(_figure_mirror(tmp_path))
    cluster = tree.root.children[0]
    assert set(cluster.members) == {"b.html", "c.html"}
    assert [set(c.members) for c in cluster.children] == [{"f.html", "g.html"}, {"h.html"}]


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
    _, tree = build(root, threshold=0.5)
    snp = reduce_to_snp(refine_clusters(tree))
    cluster = snp.root.children[0]
    assert set(cluster.members) == {"large.html", "small.html"}
    assert cluster.representative == "large.html"


def test_reduce_tie_breaks_to_smaller_page_id(tmp_path):
    root = write_mirror(tmp_path, {
        "index.html": linking("home", ["bb.html", "aa.html"]),
        "bb.html": leaf("x"),
        "aa.html": leaf("y"),  # byte-identical size to bb.html
    })
    corpus, tree = build(root)
    snp = reduce_to_snp(refine_clusters(tree))
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


def test_rejects_unknown_method_and_missing_root(tmp_path):
    root = write_mirror(tmp_path, {"index.html": leaf("a")})
    corpus = load_corpus(root, max_depth=1, delay=0.0)
    with pytest.raises(ValueError):
        build_nav_tree(corpus.root, corpus, 0.9, "XXX", 1)
    with pytest.raises(ValueError):
        build_nav_tree("nope.html", corpus, 0.9, "MMS", 1)


def _layout(node, indent=0):
    line = " " * indent + "[" + " ".join(sorted(node.members)) + "]"
    return "\n".join([line] + [_layout(c, indent + 2) for c in node.children])


def test_demo_corpus_matches_golden_tree(demo_corpus):
    tree = build_nav_tree(demo_corpus.root, demo_corpus, DEMO_THRESHOLD, "MMS", 10)
    tree = refine_clusters(tree)
    assert _layout(tree.root) + "\n" == GOLDEN_TREE.read_text(encoding="utf-8")


def test_demo_partition_is_valid_for_both_methods(demo_corpus):
    for method in ("MMS", "STS"):
        tree = build_nav_tree(demo_corpus.root, demo_corpus, 0.8, method, 10)
        tree = refine_clusters(tree)
        partition = collect_partition(tree)
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


def test_memo_grows_with_shapes_not_pairs(tmp_path):
    """50 clustered leaves of one template share one shape object, and the
    memo holds one entry for it: ``(method, shape)``."""
    items = [f"item-{i:02d}.html" for i in range(50)]
    pages = {"index.html": linking("home", items)}
    pages.update({name: leaf(name) for name in items})
    corpus, tree = build(write_mirror(tmp_path, pages))
    refine_clusters(tree)
    assert [set(c.members) for c in tree.root.children] == [set(items)]
    shape = corpus.pages[items[0]].document.shape
    assert all(corpus.pages[name].document.shape is shape for name in items)
    assert list(corpus.memo) == [("MMS", shape)]
    assert next(iter(corpus.memo))[1] is shape


def test_mms_tokens_infer_each_content_model_once_per_corpus(tmp_path):
    """The pages' schemas share their corpus's content models: an index
    and 50 leaves of one template have two shapes, so two schemas are
    extracted, and 5 distinct inputs are inferred.  STS infers none, the
    memo keys are ``(method, shape)``, one per method and distinct shape,
    and a new load starts with no models."""
    items = [f"item-{i:02d}.html" for i in range(50)]
    pages = {"index.html": linking("home", items)}
    pages.update({name: leaf(name) for name in items})
    root = write_mirror(tmp_path, pages)
    corpus = load_corpus(root, max_depth=10, delay=0.0)
    for page_id in corpus.pages:
        token_seq(corpus, page_id, "STS")
    assert corpus.models == {}
    for page_id in corpus.pages:
        token_seq(corpus, page_id, "MMS")
    # html and head (one input each on every page), body (one on the
    # index, one on the leaves) and the text-only instances of title, h1,
    # span and the index's a (one input for all four)
    assert len(corpus.models) == 5
    shapes = {page.document.shape for page in corpus.pages.values()}
    assert len(shapes) == 2
    assert set(corpus.memo) == {(method, shape) for method in ("MMS", "STS")
                                for shape in shapes}
    assert load_corpus(root, max_depth=10, delay=0.0).models == {}


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
    corpus = Corpus("0", {str(index): Page(0, doc, ()) for index, doc in enumerate(docs)})
    for page_id, page in corpus.pages.items():
        assert page_size(corpus, page_id) == _indented_byte_count(page.document), page_id
    assert page_size(corpus, "0") == len("<table>\n  <tr>\n    <td/>\n  </tr>\n</table>\n")
