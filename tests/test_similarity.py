"""Edit distance, clone pairs, transitive closure."""

import itertools
import random
import sys
from functools import lru_cache

import pytest

from navminer import load_corpus
from navminer.navmodel import token_seq
from navminer.report import analyse
from navminer.similarity import (PageId, clone_pair, levenshtein, shared_ends, similarity,
                                 spanning_clone_pairs, transclos)

from conftest import partition_is_valid, perfbench_mirrors, refines


def levenshtein_dp(a, b) -> int:
    """The row-by-row DP that ``levenshtein`` replaced, kept as its
    oracle: one list of n + 1 ints per token of the longer sequence, no
    trim."""
    n, m = len(a), len(b)
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


# the all-pairs oracle for spanning_clone_pairs
def find_clone_pairs(pages, seqs, threshold: float) -> set[tuple[PageId, PageId]]:
    """Pairwise comparison over ``pages``; a pair is a clone when its
    similarity meets the threshold."""
    items = list(dict.fromkeys(pages))
    pairs: set[tuple[PageId, PageId]] = set()
    for i, p in enumerate(items):
        for q in items[i + 1:]:
            if similarity(seqs[p], seqs[q]) >= threshold:
                pairs.add(clone_pair(p, q))
    return pairs


@lru_cache(maxsize=None)
def lev_recursive(a: str, b: str) -> int:
    """The textbook recursive definition, the independent oracle."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(lev_recursive(a[1:], b) + 1,
               lev_recursive(a, b[1:]) + 1,
               lev_recursive(a[1:], b[1:]) + cost)


def bfs_components(universe, pairs):
    """Independent connected-components oracle."""
    adjacency = {node: set() for node in universe}
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    components = set()
    for node in universe:
        if node in seen:
            continue
        component = {node}
        queue = [node]
        while queue:
            current = queue.pop(0)
            for neighbour in adjacency[current]:
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        components.add(frozenset(component))
    return components


def test_levenshtein_basics():
    assert levenshtein((), ()) == 0
    assert levenshtein(("a", "b"), ("a", "b")) == 0
    assert levenshtein((), ("x",) * 5) == 5
    assert levenshtein(("x",) * 4, ()) == 4


def test_shared_ends_never_overlap():
    assert shared_ends("xay", "xby") == (1, 1)
    assert shared_ends("aaa", "aa") == (2, 0)  # the tail is taken from what follows the head
    assert shared_ends("abab", "ab") == (2, 0)
    assert shared_ends("ab", "bab") == (0, 2)
    rng = random.Random(405)
    for _ in range(300):
        a, b = random_seq(rng, "ab", 6), random_seq(rng, "ab", 6)
        start, end = shared_ends(a, b)
        assert start + end <= min(len(a), len(b))
        assert a[:start] == b[:start] and a[len(a) - end:] == b[len(b) - end:]


def test_levenshtein_kitten_sitting():
    assert levenshtein(tuple("kitten"), tuple("sitting")) == 3


def test_levenshtein_matches_recursive_oracle_small():
    seqs = ["".join(p) for length in range(5) for p in itertools.product("ab", repeat=length)]
    for a in seqs:
        for b in seqs:
            assert levenshtein(a, b) == lev_recursive(a, b)


def random_seq(rng, alphabet="abc", max_len=12):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def _random_token_pair(rng: random.Random, shape: str) -> tuple[tuple, tuple]:
    """Two token sequences of 0-200 tokens from a 1- to 8-token alphabet."""
    alphabet = [f"<t{k}>" for k in range(rng.randint(1, 8))]
    other = [f"<u{k}>" for k in range(len(alphabet))] if shape == "disjoint" else alphabet
    longest = rng.choice((16, 100, 200))

    def seq(tokens, longest=longest):
        return tuple(rng.choice(tokens) for _ in range(rng.randint(0, longest)))

    a, b = seq(alphabet), seq(other)
    if shape == "ends":  # a long shared head and tail around short middles
        head, tail = seq(alphabet, 80), seq(alphabet, 80)
        a, b = head + seq(alphabet, 20) + tail, head + seq(alphabet, 20) + tail
    elif shape == "empty":
        a = ()
    elif shape == "edited":  # a few edits of one sequence
        edited = list(a)
        for _ in range(rng.randint(0, 6)):
            if edited and rng.random() < 0.5:
                del edited[rng.randrange(len(edited))]
            else:
                edited.insert(rng.randint(0, len(edited)), rng.choice(alphabet))
        b = tuple(edited)
    return a, b


def test_levenshtein_equals_dp_oracle_random():
    """Masks wider than a machine word, tiny alphabets, long shared ends,
    one empty side and disjoint alphabets, in both argument orders."""
    rng = random.Random(406)
    shapes = ("random", "ends", "empty", "disjoint", "edited")
    wide = 0
    for case in range(3000):
        a, b = _random_token_pair(rng, shapes[case % len(shapes)])
        expected = levenshtein_dp(a, b)
        assert levenshtein(a, b) == expected, (a, b)
        assert levenshtein(b, a) == expected, (a, b)
        start, end = shared_ends(a, b)
        wide += min(len(a), len(b)) - start - end > 64
    assert wide > 250


def test_levenshtein_equals_dp_oracle_on_every_catalog_sts_comparison(tmp_path, monkeypatch):
    """The comparisons the benchmark's ``catalog-sts`` run makes at seed
    101, and beyond them every pair of the distinct STS sequences of the
    catalog pages a build clusters (all but the root)."""
    root = perfbench_mirrors().catalog(tmp_path, 101, 12, 25).root
    corpus = load_corpus(root, max_depth=10, delay=0.0)
    module = sys.modules[levenshtein.__module__]
    compared = []

    def recording(a, b):
        compared.append((a, b))
        return levenshtein(a, b)

    monkeypatch.setattr(module, "levenshtein", recording)
    analyse(corpus, 0.8, "STS")
    assert len(compared) == 49
    seqs = sorted({token_seq(corpus, page_id, "STS") for page_id in corpus.pages
                   if page_id != corpus.root})
    pairs = list(itertools.combinations(seqs, 2))
    assert len(pairs) == 351
    assert {frozenset(pair) for pair in compared} <= {frozenset(pair) for pair in pairs}
    for a, b in pairs:
        assert levenshtein(a, b) == levenshtein_dp(a, b)


def test_levenshtein_of_5000_tokens_in_closed_form():
    """Distances known without a DP, which would fill 25M cells here."""
    n = 5000
    a = tuple(f"<t{k}>" for k in range(n))
    every_third = tuple(f"<x{k}>" if k % 3 == 1 else token for k, token in enumerate(a))
    assert levenshtein(a, every_third) == len(range(1, n, 3))  # substitutions
    assert levenshtein(a, a[::2]) == n // 2  # distinct tokens: deletions only
    assert levenshtein(a, tuple(f"<u{k}>" for k in range(n))) == n  # disjoint
    assert levenshtein(("<a>", "<b>") * (n // 2), ("<b>", "<a>") * (n // 2)) == 2


def test_levenshtein_metric_properties():
    rng = random.Random(400)
    for _ in range(300):
        a, b, c = (random_seq(rng) for _ in range(3))
        dab, dba = levenshtein(a, b), levenshtein(b, a)
        assert dab == dba
        assert (dab == 0) == (a == b)
        assert levenshtein(a, c) <= dab + levenshtein(b, c)


def test_similarity_normalization():
    assert similarity((), ()) == 1.0
    assert similarity(("a",) * 3, ("a",) * 3) == 1.0
    assert similarity((), ("a",) * 7) == 0.0
    a = ("t",) * 100
    b = ("t",) * 98 + ("u", "u")
    assert similarity(a, b) == pytest.approx(0.98)


def test_find_clone_pairs_all_identical():
    pages = ["p1", "p2", "p3", "p4"]
    seqs = {p: ("x", "y") for p in pages}
    assert len(find_clone_pairs(pages, seqs, 1.0)) == 6


def test_find_clone_pairs_threshold_one_requires_equality():
    seqs = {"a": ("x",) * 4, "b": ("x",) * 3 + ("y",), "c": ("y",) * 4}
    assert find_clone_pairs(["a", "b", "c"], seqs, 1.0) == set()


def test_find_clone_pairs_non_transitive_chain():
    seqs = {
        "a": ("x",) * 10,
        "b": ("x",) * 9 + ("y",),
        "c": ("x",) * 8 + ("y", "y"),
    }
    assert similarity(seqs["a"], seqs["b"]) == pytest.approx(0.9)
    assert similarity(seqs["b"], seqs["c"]) == pytest.approx(0.9)
    assert similarity(seqs["a"], seqs["c"]) == pytest.approx(0.8)
    pairs = find_clone_pairs(["a", "b", "c"], seqs, 0.85)
    assert pairs == {("a", "b"), ("b", "c")}


def test_find_clone_pairs_order_independent():
    rng = random.Random(401)
    pages = [f"p{i}" for i in range(8)]
    seqs = {p: tuple(random_seq(rng, max_len=6)) for p in pages}
    expected = find_clone_pairs(pages, seqs, 0.5)
    for _ in range(5):
        shuffled = pages[:]
        rng.shuffle(shuffled)
        assert find_clone_pairs(shuffled, seqs, 0.5) == expected


def test_transclos_chained_pairs_merge():
    pairs = {clone_pair("a", "b"), clone_pair("b", "c"), clone_pair("d", "e")}
    partition = transclos(pairs, {"a", "b", "c", "d", "e"})
    assert set(partition.clusters) == {frozenset("abc"), frozenset("de")}


def test_transclos_no_pairs_all_singletons():
    partition = transclos(set(), {"a", "b"})
    assert set(partition.clusters) == {frozenset("a"), frozenset("b")}


def test_transclos_rejects_pair_outside_universe():
    for pair in (("a", "z"), ("z", "a"), ("z", "z")):
        with pytest.raises(ValueError, match="outside the universe"):
            transclos([("a", "b"), pair], {"a", "b"})


def test_transclos_matches_bfs_oracle_random():
    """Pairs in any order and form: self-pairs, repeats and both
    orientations of a pair."""
    rng = random.Random(402)
    for _ in range(100):
        n = rng.randint(1, 12)
        universe = {f"n{i}" for i in range(n)}
        nodes = sorted(universe)
        pairs = [(a, b) if rng.random() < 0.5 else (b, a)
                 for a in nodes for b in nodes
                 if a < b and rng.random() < 0.2]
        pairs += [(a, a) for a in nodes if rng.random() < 0.2]
        pairs += rng.sample(pairs, len(pairs) // 3)
        pairs += [(b, a) for a, b in rng.sample(pairs, len(pairs) // 3)]
        rng.shuffle(pairs)
        partition = transclos(pairs, universe)
        assert partition_is_valid(partition)
        assert set(partition.clusters) == bfs_components(universe, pairs)
        assert list(partition.clusters) == sorted(partition.clusters, key=sorted)
        assert partition.universe == universe


def test_threshold_monotonicity_on_random_token_sets():
    rng = random.Random(403)
    for _ in range(20):
        pages = [f"p{i}" for i in range(7)]
        seqs = {p: tuple(random_seq(rng, max_len=8)) for p in pages}
        partitions = [transclos(find_clone_pairs(pages, seqs, t / 10), set(pages))
                      for t in range(11)]
        for low, high in zip(partitions, partitions[1:]):
            assert refines(high, low)


def test_spanning_clone_pairs_matches_all_pairs_oracle():
    rng = random.Random(404)
    for _ in range(60):
        pages = [f"p{i}" for i in range(rng.randint(0, 14))]
        pool = [tuple(random_seq(rng, max_len=6)) for _ in range(rng.randint(1, 5))]
        pool.append(())
        seqs = {p: rng.choice(pool) for p in pages}
        rng.shuffle(pages)
        for threshold in (0.0, 0.5, 0.8, 0.95, 1.0):
            oracle = transclos(find_clone_pairs(pages, seqs, threshold), pages)
            pairs = spanning_clone_pairs(pages, seqs, threshold,
                                         lambda p, q: similarity(seqs[p], seqs[q]))
            assert transclos(pairs, pages) == oracle
            assert len(pairs) == len(pages) - len(oracle.clusters)  # a spanning forest
            assert all(similarity(seqs[a], seqs[b]) >= threshold for a, b in pairs)


def test_spanning_clone_pairs_skips_duplicates_and_joined_pairs():
    pages = [f"p{i}" for i in range(30)]
    seqs = {p: ("x",) * (i % 4) for i, p in enumerate(pages)}
    compared = []

    def compare(p, q):
        compared.append((p, q))
        return similarity(seqs[p], seqs[q])

    pairs = spanning_clone_pairs(pages, seqs, 0.0, compare)
    # only the first page of each of the 4 sequences is compared; once p0
    # has joined p1, p2 and p3, the pairs among those three are skipped
    assert compared == [("p0", "p1"), ("p0", "p2"), ("p0", "p3")]
    assert transclos(pairs, pages) == transclos(find_clone_pairs(pages, seqs, 0.0), pages)


def test_spanning_clone_pairs_above_one_joins_nothing():
    seqs = {"a": ("x",), "b": ("x",)}
    assert spanning_clone_pairs(["a", "b"], seqs, 1.5,
                                lambda p, q: similarity(seqs[p], seqs[q])) == []
    assert find_clone_pairs(["a", "b"], seqs, 1.5) == set()
