"""Level-by-level clustering of linked pages into a navigational tree.

The tree is built depth-first from the corpus's root page, over the
pages the crawl loaded and nothing else: the crawl's ``max_depth`` is
the only depth limit, and the links of every page placed in the tree
are expanded, so every loaded page is a member of exactly one node.
Expanding a node means reading the links of its member pages: loaded
targets seen for the first time are clustered (clone pairs + transitive
closure, per parent page) and attached as child nodes; targets owned by
an earlier node become back-references.  Clustering is strictly per
level: linked pages are only ever compared with the other pages linked
from the same node, never with the whole corpus.  Pages with identical token
sequences are grouped without a comparison and a pair already joined
through other pages is skipped (``similarity.spanning_clone_pairs``);
the clusters are those of comparing every pair.

Refinement then grows the tree again root-down, in the same loop
(``_grow``), from the build's records: for every node with two or more
member pages it re-clusters the union of the members' outgoing pages
jointly, replacing the per-page child sets.  Reduction finally picks
one representative per node (the largest member page), which turns the
refined tree into the simplified navigational path used for
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
    members: tuple[PageId, ...]  # discovery order
    children: list[NavNode] = field(default_factory=list)
    backrefs: tuple[PageId, ...] = ()  # link targets owned by other nodes
    representative: PageId | None = None


@dataclass
class NavTree:
    root: NavNode
    corpus: Corpus
    method: str
    threshold: float
    # per-page discovery records from the build, reused by refinement
    page_children: dict[PageId, list[tuple[PageId, ...]]] = field(default_factory=dict)
    page_backrefs: dict[PageId, tuple[PageId, ...]] = field(default_factory=dict)

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
    """Similarity of two pages' token sequences, not cached: within one
    clustering call a pair is compared at most once, but refinement
    re-clusters a node's child targets and may compare a pair again."""
    return similarity(token_seq(corpus, a, method), token_seq(corpus, b, method))


def page_size(corpus: Corpus, page_id: PageId) -> int:
    """Byte length of the pretty-printed normalized page, indentation and
    a newline after each line included, not cached: reduction sizes each
    page once."""
    return pretty_print(corpus.pages[page_id].document).printed_size()


def _cluster_ordered(corpus, method, pages, threshold) -> list[tuple[PageId, ...]]:
    """Clone-pair clustering of ``pages``, clusters and members kept in
    discovery order.  A lone page is its own cluster, and its tokens are
    not read."""
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


def _grow(members, clusters_of, page_backrefs) -> NavNode:
    """A tree grown from a root node of ``members``: each node, in
    depth-first order, gets one child per cluster of
    ``clusters_of(its members)`` and, as its back-references, those of
    its members' back-references that point outside it."""
    root = NavNode(members)
    # walk reads a node's children after yielding it, so each node is
    # grown before its subtree, in depth-first order
    for node, _, closing in walk(root):
        if closing:
            continue
        node.children = [NavNode(cluster) for cluster in clusters_of(node.members)]
        member_set = set(node.members)
        node.backrefs = tuple(sorted({t for p in node.members for t in page_backrefs[p]
                                      if t not in member_set}))
    return root


def build_nav_tree(corpus: Corpus, threshold: float, method: str) -> NavTree:
    """Depth-first construction of the navigational tree from
    ``corpus.root``, over the loaded pages alone.

    The links of every page placed in the tree are expanded, once, when
    its node is grown: a target seen for the first time joins a child
    cluster, a later one is a back-reference.  The crawl's depth limit
    is the only one, so every loaded page is a member of exactly one node.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    pages = corpus.pages
    visited = {corpus.root}
    page_children: dict[PageId, list[tuple[PageId, ...]]] = {}
    page_backrefs: dict[PageId, tuple[PageId, ...]] = {}

    def expand(members) -> list[tuple[PageId, ...]]:
        for page_id in members:
            new: list[PageId] = []
            back: list[PageId] = []
            for target in pages[page_id].links:
                if target not in pages:
                    continue  # dangling, excluded or beyond the crawl depth
                if target in visited:
                    back.append(target)
                else:
                    visited.add(target)
                    new.append(target)
            page_backrefs[page_id] = tuple(back)
            page_children[page_id] = _cluster_ordered(corpus, method, new, threshold)
        return [cluster for page_id in members for cluster in page_children[page_id]]

    root = _grow((corpus.root,), expand, page_backrefs)
    return NavTree(root, corpus, method, threshold, page_children, page_backrefs)


def refine_clusters(tree: NavTree) -> NavTree:
    """Refinement, grown root-down from the build's records: the union of
    a multi-page node's outgoing pages is re-clustered jointly, with the
    tree's method and threshold, and replaces its per-page child sets.
    No page is expanded again, so ownership stays the build's."""
    corpus, method, threshold = tree.corpus, tree.method, tree.threshold
    page_children = tree.page_children

    def joint(members) -> list[tuple[PageId, ...]]:
        if len(members) == 1:
            return page_children[members[0]]
        union = [q for p in members for cluster in page_children[p] for q in cluster]
        return _cluster_ordered(corpus, method, union, threshold)

    root = _grow(tree.root.members, joint, tree.page_backrefs)
    return NavTree(root, corpus, method, threshold, page_children, tree.page_backrefs)


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
