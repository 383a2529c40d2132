"""Level-by-level clustering of linked pages into a navigational tree.

The tree is grown in one pass from the corpus's root page, over the
pages the crawl loaded and nothing else.  Ownership is the crawl's: a
page is owned by its referrer (``corpus.Page.referrer``), the first
page, in breadth-first load order, that links to it.  A node's children
are the clusters (clone pairs + transitive closure) of the pages its
members own, taken in crawl order; every other loaded link target of a
member, the root included, is a back-reference.  Each loaded page but
the root has one referrer, loaded before it, so every loaded page is a
member of exactly one node, and each page is clustered once, so a
build compares each pair of pages at most once.  Clustering is strictly
per level: linked pages are only ever compared with the other pages
owned by the same node, never with the whole corpus.  Pages with
identical token sequences are grouped without a comparison and a pair
already joined through other pages is skipped
(``similarity.spanning_clone_pairs``); the clusters are those of
comparing every pair.  Every member list and child list comes out in
crawl order.

Because ownership does not depend on the threshold, a higher threshold
refines a lower one over the whole tree: a node at the higher threshold
lies inside one node at the lower, so it owns a subset of that node's
pages, and single linkage on a subset at a higher threshold refines
single linkage on the superset at a lower one (Gower & Ross 1969).  The
induction runs from the root, which is one node at every threshold.

The build clusters each node's owned pages jointly, so there is nothing
left for a separate refinement pass to re-cluster: ``refine_clusters``
returns the tree it is given.  It stays, called by ``report.analyse``,
because the benchmark's tracer (``perfbench/tracer.py``) fails a run in
which one of the functions it wraps sees no call.  Reduction finally
picks one representative per node (the largest member page), which
turns the tree into the simplified navigational path used for
differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import schema as schema_mod
from .corpus import Corpus, PageId
from .normalize import pretty_print
from .similarity import Partition, similarity, spanning_clone_pairs, transclos

METHODS = ("MMS", "STS")


def walk(root):
    """Depth-first walk of a node tree on an explicit stack.

    Yields ``(node, depth, closing)``: each node once opening, in
    pre-order, and again, closing, after its subtree.  A node's children
    are read only after the caller has seen it open, so the caller may
    fill them in then.
    """
    yield root, 0, False
    stack = [(root, iter(root.children))]  # the children of stack[-1] are at depth len(stack)
    while stack:
        node, children = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            yield node, len(stack), True
        else:
            yield child, len(stack), False
            stack.append((child, iter(child.children)))


@dataclass
class NavNode:
    members: tuple[PageId, ...]  # crawl order
    children: list[NavNode] = field(default_factory=list)
    backrefs: tuple[PageId, ...] = ()  # link targets owned by other nodes
    representative: PageId | None = None


@dataclass
class NavTree:
    root: NavNode
    corpus: Corpus
    method: str
    threshold: float

    def nodes(self) -> list[NavNode]:
        """Every node, parents before children, siblings in order."""
        return [node for node, _, closing in walk(self.root) if not closing]


def token_seq(corpus: Corpus, page_id: PageId, method: str):
    """Distance substrate for one page, cached on the corpus per page
    shape: the tokens of both methods are read from ``Document.shape``
    alone, so the key is their whole input and the pages of one shape
    share one token tuple, computed once."""
    doc = corpus.pages[page_id].document
    key = (method, doc.shape)
    seq = corpus.memo.get(key)
    if seq is None:
        if method == "MMS":
            seq = schema_mod.serialize_schema(schema_mod.extract_schema(doc))
        else:
            seq = schema_mod.sts_serialize(doc)
        corpus.memo[key] = seq
    return seq


def pair_similarity(corpus: Corpus, method: str, a: PageId, b: PageId) -> float:
    """Similarity of two pages' token sequences, not cached: a build
    clusters each page once, and compares each pair at most once."""
    return similarity(token_seq(corpus, a, method), token_seq(corpus, b, method))


def page_size(corpus: Corpus, page_id: PageId) -> int:
    """Byte length of the pretty-printed normalized page, indentation and
    a newline after each line included, not cached: reduction sizes each
    page once."""
    return pretty_print(corpus.pages[page_id].document).printed_size()


def _cluster_ordered(corpus, method, pages, threshold) -> list[tuple[PageId, ...]]:
    """Clone-pair clustering of ``pages``, clusters and members kept in
    the order of ``pages``.  A lone page is its own cluster, and its
    tokens are not read."""
    if len(pages) < 2:
        return [(page,) for page in pages]
    order = {p: i for i, p in enumerate(pages)}
    seqs = {p: token_seq(corpus, p, method) for p in pages}
    pairs = spanning_clone_pairs(pages, seqs, threshold,
                                 lambda p, q: pair_similarity(corpus, method, p, q))
    partition = transclos(pairs, set(pages))
    clusters = [tuple(sorted(c, key=order.__getitem__)) for c in partition.clusters]
    clusters.sort(key=lambda c: order[c[0]])
    return clusters


def build_nav_tree(corpus: Corpus, threshold: float, method: str) -> NavTree:
    """The navigational tree of ``corpus``, grown from ``corpus.root``
    over the loaded pages alone: each node, in depth-first order, gets
    one child per cluster of the pages its members own, and, as its
    back-references, the loaded link targets of its members that lie
    outside it and that the linking member does not own (the root, which
    no page owns, among them)."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    pages = corpus.pages
    owned: dict[PageId, list[PageId]] = {}  # referrer -> its pages, in crawl order
    for page_id, page in pages.items():
        if page.referrer is not None:
            owned.setdefault(page.referrer, []).append(page_id)
    root = NavNode((corpus.root,))
    # walk reads a node's children after yielding it, so each node is
    # grown before its subtree
    for node, _, closing in walk(root):
        if closing:
            continue
        union = [q for p in node.members for q in owned.get(p, ())]
        node.children = [NavNode(cluster)
                         for cluster in _cluster_ordered(corpus, method, union, threshold)]
        member_set = set(node.members)
        node.backrefs = tuple(sorted({t for p in node.members for t in pages[p].links
                                      if t in pages and pages[t].referrer != p
                                      and t not in member_set}))
    return NavTree(root, corpus, method, threshold)


def refine_clusters(tree: NavTree) -> NavTree:
    """The tree as built: ``build_nav_tree`` already clusters the pages
    a multi-page node's members own jointly, so there is nothing to
    refine.  The name and its call in ``report.analyse`` stay while the
    benchmark's tracer (``perfbench/tracer.py``) fails a run in which a
    function it wraps sees no call."""
    return tree


def reduce_to_snp(tree: NavTree) -> NavTree:
    """Pick each node's representative: the largest member page, ties
    broken towards the lexicographically smaller id.  Shape, members
    and children stay untouched."""
    corpus = tree.corpus
    for node in tree.nodes():
        node.representative = min(node.members,
                                  key=lambda p: (-page_size(corpus, p), p))
    return tree


def collect_partition(tree: NavTree) -> Partition:
    """All node member sets across the tree, as one corpus partition."""
    clusters = [frozenset(node.members) for node in tree.nodes()]
    universe = frozenset().union(*clusters)
    clusters.sort(key=lambda c: sorted(c))
    return Partition(tuple(clusters), universe)
