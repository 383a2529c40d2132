"""Token-sequence edit distance, clone pairs, transitive-closure clustering,
with the program's one union-find (``find``) and one shared head/tail
trim (``shared_ends``, which ``components.lcs_pairs`` uses too).

The edit distance is bit-parallel (Myers 1999, "A fast bit-vector
algorithm for approximate string matching based on dynamic
programming", in the global form of Hyyro 2001, "Explaining and
extending the bit-parallel approximate string matching algorithm of
Myers"): after the trim, one DP column over the shorter sequence is two
ints with one bit per token, and each token of the longer one updates
them with 17 int operations, so a comparison costs one step per
token, not one per DP cell.
"""

from __future__ import annotations

from dataclasses import dataclass

PageId = str


def shared_ends(a, b) -> tuple[int, int]:
    """Lengths of the longest common head of ``a`` and ``b`` and of the
    longest common tail of what follows that head."""
    la, lb = len(a), len(b)
    start = 0
    while start < la and start < lb and a[start] == b[start]:
        start += 1
    end = 0
    while end < la - start and end < lb - start and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1
    return start, end


def find(parent, node):
    """Root of ``node`` in the union-find forest ``parent`` (a list or a
    dict, mapping each node to its parent), halving the path on the way."""
    while parent[node] != node:
        parent[node] = parent[parent[node]]
        node = parent[node]
    return node


def levenshtein(a, b) -> int:
    """Minimum number of token insertions, deletions and substitutions
    transforming sequence ``a`` into ``b``."""
    start, end = shared_ends(a, b)  # a shared head and tail never cost anything
    a = a[start:len(a) - end]
    b = b[start:len(b) - end]
    n, m = len(a), len(b)
    if n > m:
        a, b, n, m = b, a, m, n
    if n == 0:
        return m
    match: dict = {}  # token -> bit j set where a[j] is that token
    for j, token in enumerate(a):
        match[token] = match.get(token, 0) | (1 << j)
    full = (1 << n) - 1
    # bit i of vp (vn): the column's cell i + 1 is one more (less) than cell i
    vp, vn = full, 0
    for token in b:
        x = match.get(token, 0)
        d0 = (((x & vp) + vp) ^ vp) | x | vn
        hp = vn | ~(d0 | vp)
        hn = (d0 & vp) << 1
        hp = (hp << 1) | 1  # row 0 is 0, 1, 2, ...: it always grows by one
        vp = (hn | ~(d0 | hp)) & full  # ~ sets every bit above the column too
        vn = hp & d0  # d0's bit n is a carry out of vp's top bit, where hp has none
    # the last column is m at row 0 plus its vertical steps
    return m + vp.bit_count() - vn.bit_count()


def similarity(a, b) -> float:
    """Normalized similarity in [0, 1]: 1 - distance / max length.

    Two empty sequences are identical, hence 1.0.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longest


def clone_pair(a: PageId, b: PageId) -> tuple[PageId, PageId]:
    """Canonical unordered form of a pair."""
    return (a, b) if a <= b else (b, a)


def spanning_clone_pairs(pages, seqs, threshold: float, compare) -> list[tuple[PageId, PageId]]:
    """Clone pairs spanning the same components as comparing every pair
    of ``pages`` (a pair is a clone when its similarity meets the
    threshold), at most one pair per merge, found with far fewer
    comparisons.

    Pages with identical sequences (similarity 1.0) are joined to the
    first page carrying that sequence without a comparison; only those
    first pages are compared, with ``compare(p, q)`` (the similarity of
    ``seqs[p]`` and ``seqs[q]``), and a pair already in one
    union-find component is skipped.  Components do not depend on the
    order in which pairs are joined, so ``transclos`` of the result gives
    exactly the partition of the all-pairs comparison.
    """
    if not threshold <= 1.0:
        return []  # nothing reaches a threshold above 1, not even equal pages
    firsts: dict = {}  # sequence -> first page carrying it
    pairs = []
    for page in dict.fromkeys(pages):
        first = firsts.setdefault(seqs[page], page)
        if first != page:
            pairs.append(clone_pair(first, page))
    reps = list(firsts.values())
    parent = list(range(len(reps)))
    for i, p in enumerate(reps):
        for j in range(i + 1, len(reps)):
            root_i, root_j = find(parent, i), find(parent, j)
            if root_i != root_j and compare(p, reps[j]) >= threshold:
                parent[root_j] = root_i
                pairs.append(clone_pair(p, reps[j]))
    return pairs


@dataclass(frozen=True)
class Partition:
    clusters: tuple[frozenset[PageId], ...]
    universe: frozenset[PageId]


def transclos(pairs, universe) -> Partition:
    """Clusters are the connected components of the clone graph; pages
    without a pair become singletons.  The cluster count is emergent."""
    universe = frozenset(universe)
    parent = {page: page for page in universe}
    for a, b in pairs:
        if a not in parent or b not in parent:
            raise ValueError(f"pair ({a}, {b}) outside the universe")
        parent[find(parent, b)] = find(parent, a)
    clusters: dict[PageId, set[PageId]] = {}
    for page in universe:
        clusters.setdefault(find(parent, page), set()).add(page)
    return Partition(tuple(sorted(map(frozenset, clusters.values()), key=sorted)), universe)
