"""The benchmark's call tracer still finds every function it wraps.

``perfbench/tracer.py`` patches named navminer functions from outside and
fails when one is gone or a run no longer calls it.  Running it here on
the demo mirror and on the benchmark's catalog (MMS and STS) and longpage
shapes makes a refactor that drops a traced name, or stops calling one
on a shape the benchmark runs, fail in the test suite, not only in a
benchmark run.
"""

import importlib
import sys

import pytest

from conftest import DEMO_CORPUS, DEMO_REFERENCE, REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
tracer = importlib.import_module("tracer")


def _traced_run(cfg):
    """``run_pipeline`` under the tracer, and its per-layer metrics, which
    fail when a wrapper the run must pass through saw no call."""
    report = importlib.import_module("navminer.report")
    trace = tracer.Tracer()
    trace.install()
    try:
        result = report.run_pipeline(cfg)  # the module attribute, which install patched
    finally:
        trace.uninstall()
    return result, tracer.layer_metrics(trace.take(), result,
                                        tracer.required_spans(cfg.method, "file"))


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_tracer_reads_every_layer_of_a_demo_run(method, tmp_path):
    report = importlib.import_module("navminer.report")
    cfg = report.Config(root=str(DEMO_CORPUS), threshold=0.95, method=method,
                        out_dir=str(tmp_path / "out"), reference=str(DEMO_REFERENCE))
    result, metrics = _traced_run(cfg)
    assert metrics["corpus.pages"] == len(result.corpus.pages)
    assert metrics["navmodel.nodes"] == len(result.tree.nodes())
    assert metrics["similarity.levenshtein_calls"] > 0


# (mirror of ``benchmark_mirrors``, method, threshold) as the benchmark's
# catalog-mms, catalog-sts and longpage-diff workloads run them
BENCHMARK_SHAPES = [(0, "MMS", 0.95), (0, "STS", 0.8), (1, "MMS", 0.95)]


@pytest.mark.parametrize("mirror, method, threshold", BENCHMARK_SHAPES,
                         ids=["catalog-mms", "catalog-sts", "longpage-diff"])
def test_tracer_reads_every_layer_of_a_benchmark_shape(mirror, method, threshold,
                                                       benchmark_mirrors, tmp_path):
    report = importlib.import_module("navminer.report")
    directory = benchmark_mirrors[mirror]
    cfg = report.Config(root=str(directory / "index.html"), threshold=threshold,
                        method=method, out_dir=str(tmp_path / "out"),
                        reference=str(directory.parent / "reference.txt"))
    result, metrics = _traced_run(cfg)
    assert metrics["corpus.pages"] == len(result.corpus.pages)
    assert metrics["navmodel.nodes"] == len(result.tree.nodes())
    assert result.evaluation.precision == result.evaluation.recall == 100
