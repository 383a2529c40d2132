"""The benchmark's call tracer still finds every function it wraps.

``perfbench/tracer.py`` patches named navminer functions from outside and
fails when one is gone or a run no longer calls it.  Running it here on
the demo mirror makes a refactor that drops a traced name fail in the
test suite, not only in a benchmark run.
"""

import importlib
import sys

import pytest

from conftest import DEMO_CORPUS, DEMO_REFERENCE, REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
tracer = importlib.import_module("tracer")


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_tracer_reads_every_layer_of_a_demo_run(method, tmp_path):
    report = importlib.import_module("navminer.report")
    cfg = report.Config(root=str(DEMO_CORPUS), threshold=0.95, method=method,
                        out_dir=str(tmp_path / "out"), reference=str(DEMO_REFERENCE))
    trace = tracer.Tracer()
    trace.install()
    try:
        result = report.run_pipeline(cfg)  # the module attribute, which install patched
    finally:
        trace.uninstall()
    metrics = tracer.layer_metrics(trace.take(), result, tracer.required_spans(method, "file"))
    assert metrics["corpus.pages"] == len(result.corpus.pages)
    assert metrics["navmodel.nodes"] == len(result.tree.nodes())
    assert metrics["similarity.levenshtein_calls"] > 0
