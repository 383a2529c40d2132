"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from contextlib import contextmanager
from functools import lru_cache

from navminer import load_corpus
from navminer.components import diff_oneway, lcs_pairs
from navminer.evaluate import evaluate, load_reference, metrics_from_counts
from navminer.navmodel import (build_nav_tree, collect_partition,
                               reduce_to_snp, refine_clusters)
from navminer.normalize import stripped_lines
from navminer.report import Config, run_pipeline
from navminer.schema import extract_schema, serialize_schema, sts_serialize
from navminer.similarity import clone_pair, levenshtein, similarity, transclos

from conftest import (DEMO_CORPUS, DEMO_REFERENCE, DEMO_THRESHOLD,
                      mutate_document, partition_is_valid, random_document, refines,
                      twin_docs_with_repeated_block)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.1f}s]")


def _snp(corpus, threshold, method):
    tree = build_nav_tree(corpus, threshold, method)
    return reduce_to_snp(refine_clusters(tree))


def test_criterion_1_metric_arithmetic():
    reported = [
        ((6, 3), (66, 54)),
        ((9, 4), (69, 82)),
        ((7, 8), (46, 63)),
        ((7, 1), (87, 63)),
        ((11, 0), (100, 100)),
        ((9, 2), (82, 82)),
    ]
    with criterion(1, "metric arithmetic regression", 1.0):
        for (rcr, icr), (precision, recall) in reported:
            got_p, got_r = metrics_from_counts(rcr, icr, 11)
            assert abs(got_p - precision) <= 1, (rcr, icr, got_p, precision)
            assert abs(got_r - recall) <= 1, (rcr, icr, got_r, recall)


def test_criterion_2_bundled_corpus_end_to_end():
    with criterion(2, "bundled corpus: MMS perfect, STS strictly worse", 10.0):
        corpus = load_corpus(DEMO_CORPUS / "index.html", max_depth=10, delay=0.0)
        reference = load_reference(DEMO_REFERENCE)

        mms = evaluate(collect_partition(_snp(corpus, DEMO_THRESHOLD, "MMS")), reference)
        assert (mms.precision, mms.recall) == (100, 100), mms

        best = (0, 0)
        for step in range(0, 101):
            sts = evaluate(collect_partition(_snp(corpus, step / 100, "STS")), reference)
            assert not (sts.precision == 100 and sts.recall == 100), \
                f"STS perfect at threshold {step / 100}"
            best = max(best, (sts.precision, sts.recall),
                       key=lambda pr: pr[0] + pr[1])
        assert best[0] < 100 or best[1] < 100
        print(f"  MMS@{DEMO_THRESHOLD}: 100/100; best STS over grid: "
              f"{best[0]}/{best[1]}")


@lru_cache(maxsize=None)
def _lev_recursive(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    cost = 0 if a[0] == b[0] else 1
    return min(_lev_recursive(a[1:], b) + 1,
               _lev_recursive(a, b[1:]) + 1,
               _lev_recursive(a[1:], b[1:]) + cost)


def test_criterion_3_levenshtein_oracle():
    with criterion(3, "edit distance vs recursive oracle", 30.0):
        seqs = ["".join(p)
                for length in range(7)
                for p in itertools.product("abc", repeat=length)]
        assert len(seqs) == 1093
        for i, a in enumerate(seqs):
            for b in seqs[i:]:  # unordered pairs; symmetry is checked below
                assert levenshtein(a, b) == _lev_recursive(a, b)

        rng = random.Random(903)
        for _ in range(1000):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            c = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            assert levenshtein(a, b) == levenshtein(b, a)
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_criterion_4_transclos_oracle():
    with criterion(4, "transitive closure vs BFS oracle", 5.0):
        rng = random.Random(904)
        for _ in range(100):
            n = rng.randint(1, 12)
            universe = [f"n{i}" for i in range(n)]
            pairs = {clone_pair(a, b)
                     for a in universe for b in universe
                     if a < b and rng.random() < 0.25}
            partition = transclos(pairs, set(universe))
            assert partition_is_valid(partition)

            # independent BFS components
            adjacency = {node: set() for node in universe}
            for a, b in pairs:
                adjacency[a].add(b)
                adjacency[b].add(a)
            expected = set()
            seen = set()
            for node in universe:
                if node in seen:
                    continue
                component, queue = {node}, [node]
                while queue:
                    for neighbour in adjacency[queue.pop(0)]:
                        if neighbour not in component:
                            component.add(neighbour)
                            queue.append(neighbour)
                seen |= component
                expected.add(frozenset(component))
            assert set(partition.clusters) == expected


def test_criterion_5_schema_invariance():
    with criterion(5, "schema invariant under block duplication", 30.0):
        rng = random.Random(905)
        for _ in range(50):
            doc_k, doc_k1 = twin_docs_with_repeated_block(rng)
            schema_k, schema_k1 = extract_schema(doc_k), extract_schema(doc_k1)
            assert schema_k == schema_k1
            tokens_k = serialize_schema(schema_k)
            tokens_k1 = serialize_schema(schema_k1)
            assert tokens_k == tokens_k1
            assert similarity(tokens_k, tokens_k1) == 1.0
            assert similarity(sts_serialize(doc_k), sts_serialize(doc_k1)) < 1.0


def test_criterion_6_threshold_monotonicity():
    with criterion(6, "higher threshold refines lower on bundled corpus", 30.0):
        corpus = load_corpus(DEMO_CORPUS / "index.html", max_depth=10, delay=0.0)
        grid = [step / 10 for step in range(1, 11)]
        partitions = [collect_partition(_snp(corpus, t, "MMS")) for t in grid]
        for partition in partitions:
            assert partition_is_valid(partition)
        for low, high in zip(partitions, partitions[1:]):
            assert refines(high, low)


def test_criterion_7_diff_contract():
    with criterion(7, "diff contract on random document pairs", 60.0):
        rng = random.Random(907)
        for index in range(200):
            doc = random_document(rng, 2)
            if index % 4 == 0:
                other = random_document(rng, 2)
            else:
                other = mutate_document(rng, doc)
            a, b = stripped_lines(doc), stripped_lines(other)

            assert diff_oneway(a, a) == []
            forward = diff_oneway(a, b)
            backward = diff_oneway(b, a)
            b_keys = [line.lstrip() for line in b.lines]
            for fragment in forward:
                for offset, line in enumerate(fragment.lines):
                    assert b_keys[fragment.start + offset] == line.lstrip()
            aligned = lcs_pairs(a.lines, b.lines)
            reported_b = {fragment.start + k
                          for fragment in forward for k in range(len(fragment.lines))}
            reported_a = {fragment.start + k
                          for fragment in backward for k in range(len(fragment.lines))}
            # the two one-sided reports partition both sides around one alignment
            assert reported_b == set(range(len(b.lines))) - {j for _, j in aligned}
            assert reported_a == set(range(len(a.lines))) - {i for i, _ in aligned}


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical artifacts across runs", 30.0):
        outputs = []
        for run in ("one", "two"):
            cfg = Config(root=str(DEMO_CORPUS / "index.html"),
                         threshold=DEMO_THRESHOLD, method="MMS",
                         out_dir=str(tmp_path / run),
                         reference=str(DEMO_REFERENCE))
            result = run_pipeline(cfg)
            outputs.append({name: (result.out_dir / name).read_bytes()
                            for name in ("navmodel.dot", "navmodel.xml")})
        assert outputs[0]["navmodel.dot"] == outputs[1]["navmodel.dot"]
        assert outputs[0]["navmodel.xml"] == outputs[1]["navmodel.xml"]
