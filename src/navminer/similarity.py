"""Token-sequence edit distance, clone pairs, transitive-closure clustering,
with the program's one union-find (``find``) and one shared head/tail
trim (``shared_ends``, which ``components.lcs_pairs`` uses too)."""

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
    if n == 0:
        return m
    if m == 0:
        return n
    if n > m:
        a, b, n, m = b, a, m, n
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        bi = b[i - 1]
        cur = [i] * (n + 1)
        for j in range(1, n + 1):
            d = prev[j - 1]
            if a[j - 1] != bi:
                d += 1
            up = prev[j] + 1
            if up < d:
                d = up
            left = cur[j - 1] + 1
            if left < d:
                d = left
            cur[j] = d
        prev = cur
    return prev[n]


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
