"""Level-by-level clustering of linked pages into a navigational tree.

The tree is built depth-first from the root page.  Expanding a node
means extracting the links of its member pages: targets seen for the
first time are clustered (clone pairs + transitive closure, per parent
page) and attached as child nodes; targets owned by an earlier node
become back-references.  Clustering is strictly per level: linked
pages are only ever compared with the other pages linked from the same
node, never with the whole corpus.  Pages with identical token
sequences are grouped without a comparison and a pair already joined
through other pages is skipped (``similarity.spanning_clone_pairs``);
the clusters are those of comparing every pair.

Refinement then walks the tree root-down and, for every node with two
or more member pages, re-clusters the union of the members' outgoing
pages jointly, replacing the per-page child sets.  Reduction finally
picks one representative per node (the largest member page), which
turns the refined tree into the simplified navigational path used for
differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import schema as schema_mod
from .corpus import Corpus, PageId
from .normalize import pretty_print, walk
from .similarity import Partition, similarity, spanning_clone_pairs, transclos

METHODS = ("MMS", "STS")


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
    shape: the tokens of both methods depend on nothing but the tree's
    names, nesting, attribute names and text positions, which
    ``Document.shape`` records, so the pages of one shape share one
    token tuple, computed once."""
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
    discovery order."""
    if not pages:
        return []
    order = {p: i for i, p in enumerate(pages)}
    seqs = {p: token_seq(corpus, p, method) for p in pages}
    pairs = spanning_clone_pairs(pages, seqs, threshold,
                                 lambda p, q: pair_similarity(corpus, method, p, q))
    partition = transclos(pairs, set(pages))
    clusters = [tuple(sorted(c, key=order.__getitem__)) for c in partition.clusters]
    clusters.sort(key=lambda c: order[c[0]])
    return clusters


def _node_backrefs(members, page_backrefs) -> tuple[PageId, ...]:
    member_set = set(members)
    targets = {t for p in members for t in page_backrefs.get(p, ()) if t not in member_set}
    return tuple(sorted(targets))


def build_nav_tree(root: PageId, corpus: Corpus, threshold: float,
                   method: str, max_depth: int) -> NavTree:
    """Depth-first construction of the navigational tree.

    A page's links are expanded only on its first visit; later
    appearances anywhere in the tree are recorded as back-references.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if root not in corpus.pages:
        raise ValueError(f"root {root!r} not in corpus")

    visited = {root}
    page_children: dict[PageId, list[tuple[PageId, ...]]] = {}
    page_backrefs: dict[PageId, tuple[PageId, ...]] = {}

    def expand_page(page_id: PageId, depth: int):
        new: list[PageId] = []
        back: list[PageId] = []
        if depth < max_depth:
            for target in corpus.pages[page_id].links:
                if target not in corpus.pages:
                    continue  # dangling or beyond the crawl depth, logged at load
                if target in visited:
                    back.append(target)
                else:
                    visited.add(target)
                    new.append(target)
        page_backrefs[page_id] = tuple(back)
        page_children[page_id] = _cluster_ordered(corpus, method, new, threshold)

    root_node = NavNode((root,))
    # walk reads a node's children after yielding it, so each node is
    # expanded before its subtree, in depth-first order
    for node, depth, closing in walk(root_node):
        if closing:
            continue
        for page_id in node.members:
            expand_page(page_id, depth)
        node.children = [NavNode(cluster)
                         for page_id in node.members for cluster in page_children[page_id]]
        node.backrefs = _node_backrefs(node.members, page_backrefs)
    return NavTree(root_node, corpus, method, threshold, page_children, page_backrefs)


def refine_clusters(tree: NavTree) -> NavTree:
    """Root-down refinement: the union of a multi-page node's outgoing
    pages is re-clustered jointly, with the tree's method and threshold,
    and replaces its per-page child sets."""
    corpus, method, threshold = tree.corpus, tree.method, tree.threshold
    root = NavNode(tree.root.members)
    for node, _, closing in walk(root):
        if closing:
            continue
        members = node.members
        if len(members) >= 2:
            union = [q for p in members for c in tree.page_children.get(p, []) for q in c]
            clusters = _cluster_ordered(corpus, method, union, threshold)
        else:
            clusters = tree.page_children.get(members[0], [])
        node.children = [NavNode(c) for c in clusters]
        node.backrefs = _node_backrefs(members, tree.page_backrefs)
    return NavTree(root, corpus, method, threshold, tree.page_children, tree.page_backrefs)


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
    universe = frozenset().union(*clusters) if clusters else frozenset()
    clusters.sort(key=lambda c: sorted(c))
    return Partition(tuple(clusters), universe)
