"""Reference-classification scoring."""

import pytest

from navminer.evaluate import (EvaluationError, ReferenceClassification,
                               evaluate, load_reference, metrics_from_counts)
from navminer.similarity import Partition


def partition_of(*clusters):
    sets = tuple(frozenset(c) for c in clusters)
    return Partition(sets, frozenset().union(*sets))


def reference_of(**classes):
    return ReferenceClassification({k: frozenset(v) for k, v in classes.items()})


def test_perfect_match():
    ref = reference_of(one={"a"}, two={"b", "c"}, three={"d"})
    found = partition_of({"a"}, {"b", "c"}, {"d"})
    result = evaluate(found, ref)
    assert (result.rcr, result.icr, result.precision, result.recall) == (3, 0, 100, 100)


def test_seven_of_eleven_with_one_wrong_cluster():
    # 7/8 = 87.5 -> 87 and 7/11 = 63.6 -> 63, truncated
    assert metrics_from_counts(7, 1, 11) == (87, 63)


def test_no_clusters_is_all_zero():
    assert metrics_from_counts(0, 0, 11) == (0, 0)


def test_partial_overlap_is_not_a_match():
    ref = reference_of(pair={"a", "b"}, solo={"c"})
    found = partition_of({"a"}, {"b"}, {"c"})
    result = evaluate(found, ref)
    assert result.rcr == 1  # only {c}
    assert result.icr == 2


def test_merged_clusters_count_as_incorrect():
    ref = reference_of(one={"a"}, two={"b"})
    found = partition_of({"a", "b"})
    result = evaluate(found, ref)
    assert (result.rcr, result.icr) == (0, 1)
    assert result.precision == 0 and result.recall == 0


def test_pages_outside_reference_ignored_with_warning(caplog):
    ref = reference_of(pair={"a", "b"})
    found = partition_of({"a", "b", "zz"}, {"qq"})
    with caplog.at_level("WARNING"):
        result = evaluate(found, ref)
    assert result.rcr == 1 and result.icr == 0
    assert any("outside the reference" in r.message for r in caplog.records)


def test_invariant_under_renaming_and_reordering():
    ref_a = reference_of(one={"a"}, two={"b", "c"})
    ref_b = reference_of(zzz={"b", "c"}, qqq={"a"})
    found_1 = partition_of({"a"}, {"b", "c"})
    found_2 = partition_of({"b", "c"}, {"a"})
    assert evaluate(found_1, ref_a) == evaluate(found_2, ref_b)


def test_empty_reference_rejected():
    with pytest.raises(EvaluationError):
        evaluate(partition_of({"a"}), ReferenceClassification({}))


def test_load_reference_roundtrip(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_text(
        "# comment line\n"
        "Home: index.html\n"
        "Pair: a.html, b.html\n",
        encoding="utf-8")
    ref = load_reference(path)
    assert ref.classes == {"Home": frozenset({"index.html"}),
                           "Pair": frozenset({"a.html", "b.html"})}
    assert ref.universe == frozenset({"index.html", "a.html", "b.html"})


def test_load_reference_drops_a_byte_order_mark(tmp_path):
    """An editor may save the file with a UTF-8 BOM; it is not part of
    the first line, a comment or a class name."""
    for first in ("# comment line\n", ""):
        path = tmp_path / "ref.txt"
        path.write_text("\ufeff" + first + "Home: index.html\nPair: a.html, b.html\n",
                        encoding="utf-8")
        assert load_reference(path).classes == {"Home": frozenset({"index.html"}),
                                                "Pair": frozenset({"a.html", "b.html"})}


@pytest.mark.parametrize("text", [
    "Home index.html\n",            # missing colon
    "Home:\n",                      # empty member list
    "A: x.html\nA: y.html\n",       # duplicate class name
    "A: x.html\nB: x.html\n",       # overlapping classes
    "",                             # empty file
])
def test_load_reference_rejects_bad_files(tmp_path, text):
    path = tmp_path / "ref.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EvaluationError):
        load_reference(path)
