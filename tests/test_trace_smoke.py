"""The benchmark's call tracer still finds every function it wraps.

``perfbench/tracer.py`` patches named navminer functions from outside and
fails when one is gone or a run no longer calls it.  Running it here on
the demo mirror, from disk and over loopback HTTP, and on the benchmark's
catalog (MMS and STS) and longpage shapes makes a refactor that drops a
traced name, or stops calling one on a shape the benchmark runs, fail in
the test suite, not only in a benchmark run.
"""

import importlib
import sys
from functools import partial
from http.server import SimpleHTTPRequestHandler

import pytest

from conftest import DEMO_CORPUS, DEMO_REFERENCE, REPO_ROOT, serving

sys.path.insert(0, str(REPO_ROOT / "perfbench"))
tracer = importlib.import_module("tracer")


def _traced_run(cfg, mode="file"):
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
                                        tracer.required_spans(cfg.method, mode))


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_tracer_reads_every_layer_of_a_demo_run(method, tmp_path):
    report = importlib.import_module("navminer.report")
    cfg = report.Config(root=str(DEMO_CORPUS), threshold=0.95, method=method,
                        out_dir=str(tmp_path / "out"), reference=str(DEMO_REFERENCE))
    result, metrics = _traced_run(cfg)
    assert metrics["corpus.pages"] == len(result.corpus.pages)
    assert metrics["navmodel.nodes"] == len(result.tree.nodes())
    assert metrics["similarity.levenshtein_calls"] > 0


class _QuietHandler(SimpleHTTPRequestHandler):
    def log_message(self, format, *args):
        pass


def _url_reference(base: str, path) -> None:
    """The demo reference with every page id prefixed by ``base``, as
    HTTP mode names the pages."""
    lines = []
    for line in DEMO_REFERENCE.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, pages = line.split(":", 1)
            line = f"{name}: " + ", ".join(f"{base}/{page.strip()}" for page in pages.split(","))
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("method", ["MMS", "STS"])
def test_tracer_reads_every_layer_of_a_demo_run_over_http(method, tmp_path):
    report = importlib.import_module("navminer.report")
    on_disk = report.run_pipeline(report.Config(
        root=str(DEMO_CORPUS), threshold=0.95, method=method,
        out_dir=str(tmp_path / "disk"), reference=str(DEMO_REFERENCE)))
    with serving(partial(_QuietHandler, directory=str(DEMO_CORPUS))) as base:
        _url_reference(base, tmp_path / "reference.txt")
        cfg = report.Config(root=f"{base}/index.html", threshold=0.95, method=method,
                            out_dir=str(tmp_path / "out"),
                            reference=str(tmp_path / "reference.txt"), http_delay=0.0)
        result, metrics = _traced_run(cfg, "http")
    assert metrics["corpus.pages"] == len(result.corpus.pages) == len(on_disk.corpus.pages)
    assert metrics["navmodel.nodes"] == len(result.tree.nodes())
    assert result.evaluation == on_disk.evaluation  # STS is worse on the demo, over HTTP too
    if method == "MMS":
        assert result.evaluation.precision == result.evaluation.recall == 100


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
