"""Edit distance, clone pairs, transitive closure."""

import itertools
import random
from functools import lru_cache

import pytest

from navminer.similarity import (Partition, clone_pair, find_clone_pairs,
                                 levenshtein, similarity, spanning_clone_pairs,
                                 transclos)


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


def test_levenshtein_kitten_sitting():
    assert levenshtein(tuple("kitten"), tuple("sitting")) == 3


def test_levenshtein_matches_recursive_oracle_small():
    seqs = ["".join(p) for length in range(5) for p in itertools.product("ab", repeat=length)]
    for a in seqs:
        for b in seqs:
            assert levenshtein(a, b) == lev_recursive(a, b)


def random_seq(rng, alphabet="abc", max_len=12):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


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
    with pytest.raises(ValueError):
        transclos({("a", "z")}, {"a", "b"})


def test_transclos_matches_bfs_oracle_random():
    rng = random.Random(402)
    for _ in range(100):
        n = rng.randint(1, 12)
        universe = {f"n{i}" for i in range(n)}
        nodes = sorted(universe)
        pairs = {clone_pair(a, b)
                 for a in nodes for b in nodes
                 if a < b and rng.random() < 0.2}
        partition = transclos(pairs, universe)
        assert partition.is_valid()
        assert set(partition.clusters) == bfs_components(universe, pairs)


def _refines(fine: Partition, coarse: Partition) -> bool:
    return all(any(cluster <= other for other in coarse.clusters)
               for cluster in fine.clusters)


def test_threshold_monotonicity_on_random_token_sets():
    rng = random.Random(403)
    for _ in range(20):
        pages = [f"p{i}" for i in range(7)]
        seqs = {p: tuple(random_seq(rng, max_len=8)) for p in pages}
        partitions = [transclos(find_clone_pairs(pages, seqs, t / 10), set(pages))
                      for t in range(11)]
        for low, high in zip(partitions, partitions[1:]):
            assert _refines(high, low)


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
