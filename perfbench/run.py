"""End-to-end and per-layer benchmark for navminer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a navminer checkout; the program is imported from
``src/``.  The run generates the workload's mirror from ``--seed`` under
``perfbench/work/``, then runs whole ``run_pipeline`` calls one after
another, each with a fresh corpus (program caches cold, as for a
command-line user), until ``--seconds`` have passed.  Every repetition is
checked: page, dangling, node and component counts against the
generator's shape, precision and recall of 100 against the generator's
reference classes, and artifact bytes identical across repetitions (the
SHA-256 is printed, so two versions of the program can be compared).
Times are CPU seconds scaled by a calibration load run beside each timed
call; ``calibration.py`` says why.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions, reports the
per-layer metrics of the traced ones (times as medians) and the tracing
overhead, and writes the last traced repetition's spans to
``perfbench/work/<workload>/spans.tsv``.

Exit codes: 0 all repetitions correct, 1 an output check failed (the
JSON is still printed), 2 no navminer source beside the benchmark, 3 the
tracer could not vouch for its counters.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

sys.path.insert(0, str(BENCH_DIR))
import mirrors  # noqa: E402
from calibration import Calibration, process_clock  # noqa: E402

# fresh-interpreter imports timed for setup_s, after one untimed import
# that may compile bytecode
SETUP_TRIALS = 7


@dataclass(frozen=True)
class Workload:
    make: Callable[[Path, int], mirrors.Mirror]  # (out dir, seed) -> mirror
    method: str
    threshold: float
    http: bool = False


# Layer shares are from traced runs of the seed program (tracing inflates
# the layers it calls most often):
#   catalog-mms   612 pages; refine compares 89,778 schema pairs, all but
#                 12 between identical sequences; similarity+navmodel ~79%
#   catalog-sts   the same mirror through raw tag streams: 27 distinct
#                 sequences, 3.3M DP cells, no schema work; ~87%
#   longpage-diff 4 section/edit pairs of 110-row tables, 3.5M LCS cells;
#                 components ~84%, clustering compares 6 pairs
#   mirror-http   126 pages over loopback HTTP; corpus ~68%, fetch ~62%
WORKLOADS = {
    "catalog-mms": Workload(lambda out, seed: mirrors.catalog(out, seed, 12, 25), "MMS", 0.95),
    "catalog-sts": Workload(lambda out, seed: mirrors.catalog(out, seed, 12, 25), "STS", 0.8),
    "longpage-diff": Workload(lambda out, seed: mirrors.longpage(out, seed, 4, 110), "MMS", 0.95),
    "mirror-http": Workload(lambda out, seed: mirrors.catalog(out, seed, 4, 15), "MMS", 0.95,
                            http=True),
}


class CheckFailed(Exception):
    pass


def setup_seconds(cal: Calibration) -> float:
    """Median CPU time of a fresh interpreter importing the program, as
    the interpreter itself counts it when the imports are done."""
    cmd = [sys.executable, "-c", "import time, navminer, navminer.cli; print(time.process_time())"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def trial() -> float:
        return float(subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout)

    trial()
    return statistics.median(cal.scaled(trial) for _ in range(SETUP_TRIALS))


class Server:
    """The mirror served over loopback by a child interpreter on a free port.

    The child stops when its standard input closes, so it cannot outlive
    this process even when this process is killed."""

    def __init__(self, directory: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve.py"), str(directory)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError(f"mirror server did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line)}/"

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def artifact_digest(files: list[Path], out_dir: Path, prefix: str) -> str:
    """SHA-256 over the artifacts' paths and bytes, with an HTTP mirror's
    locator prefix masked so digests compare across server ports."""
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0")
        data = path.read_bytes()
        digest.update(data.replace(prefix.encode(), b"mirror:") if prefix else data)
        digest.update(b"\0")
    return digest.hexdigest()


def check(result, mirror: mirrors.Mirror, prefix: str) -> None:
    ev = result.evaluation
    got = {"pages": len(result.corpus.pages), "dangling": list(result.corpus.dangling),
           "nodes": len(result.tree.nodes()), "components": len(result.components),
           "scores": (ev.rcr, ev.icr, ev.precision, ev.recall) if ev else None}
    want = {"pages": mirror.pages, "dangling": [prefix + page for page in mirror.dangling],
            "nodes": mirror.nodes, "components": mirror.components,
            "scores": (len(mirror.classes), 0, 100, 100)}
    for key in want:
        if got[key] != want[key]:
            raise CheckFailed(f"{key}: got {got[key]!r}, want {want[key]!r}")


@dataclass
class Runs:
    attempted: int = 0
    failed: int = 0
    plain_s: list[float] = field(default_factory=list)  # untraced, calibrated
    scales: list[float] = field(default_factory=list)  # calibration factor per plain_s
    traced_s: list[float] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # per-layer metrics per traced run
    digests: set[str] = field(default_factory=set)
    scores: tuple[int, int] = (0, 0)  # precision and recall of the last repetition


def measure(report, tracer, cfg, mirror, prefix, cal, trace, seconds) -> Runs:
    """Repetitions until ``seconds`` have passed; with a tracer every
    second one is traced."""
    required = tracer.required_spans(cfg.method, "http" if prefix else "file")
    runs = Runs()
    deadline = time.perf_counter() + seconds
    while runs.attempted < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace is not None and runs.attempted % 2 == 1
        runs.attempted += 1
        gc.collect()
        if traced:
            trace.install()
        try:
            result, elapsed, scale = cal.timed(report.run_pipeline, cfg)
            check(result, mirror, prefix)
        except Exception as exc:  # a failed repetition is counted, not fatal
            print(f"repetition {runs.attempted} failed: {exc!r}", file=sys.stderr)
            runs.failed += 1
            continue
        finally:
            if traced:
                trace.uninstall()
        runs.digests.add(artifact_digest(result.files, Path(cfg.out_dir), prefix))
        runs.scores = (result.evaluation.precision, result.evaluation.recall)
        if traced:
            runs.layers.append(tracer.layer_metrics(trace.take(), result, required))
            runs.traced_s.append(elapsed)
        else:
            runs.plain_s.append(elapsed)
            runs.scales.append(scale)
        del result
    if len(runs.digests) > 1:
        print(f"artifacts differ between repetitions: {sorted(runs.digests)}", file=sys.stderr)
        runs.failed = runs.attempted
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "navminer" / "__init__.py").is_file():
        print(f"no navminer source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    from navminer import report  # called through the module, so tracing can patch it

    logging.getLogger("navminer").setLevel(logging.ERROR)  # dangling-link warnings
    # one core for this process and its children, so calibration and the
    # timed call always share the core whose speed the scaling measures
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    work = BENCH_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    mirror = workload.make(work, args.seed)
    server = Server(mirror.root.parent) if workload.http else None
    try:
        cal = Calibration([process_clock(server.proc.pid)] if server else [])
        setup_s = None if args.trace else setup_seconds(cal)
        prefix = server.url if server else ""
        if prefix:
            mirror.write_reference(prefix)
        cfg = report.Config(root=prefix + mirror.root.name if prefix else str(mirror.root),
                            threshold=workload.threshold, method=workload.method,
                            out_dir=str(work / "out"), reference=str(mirror.reference),
                            http_delay=0.0)
        trace = tracer.Tracer() if args.trace else None
        runs = measure(report, tracer, cfg, mirror, prefix, cal, trace, args.seconds)
        if trace:
            trace.dump(work / "spans.tsv")
    except tracer.TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 3
    finally:
        if server:
            server.close()

    correct = runs.failed == 0 and bool(runs.plain_s) and (not trace or bool(runs.layers))
    metrics: dict[str, tuple[float, str]] = {}
    if correct and not trace:
        run_s = statistics.median(runs.plain_s)
        metrics = {
            "run_s": (run_s, "s"),
            "pages_per_s": (mirror.pages / run_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
            "precision_pct": (float(runs.scores[0]), "%"),
            "recall_pct": (float(runs.scores[1]), "%"),
            "ok_pct": (100.0 * (runs.attempted - runs.failed) / runs.attempted, "%"),
        }
    elif correct:
        for name in runs.layers[0]:
            values = [layer[name] for layer in runs.layers]
            unit = tracer.UNITS[name]
            metrics[name] = (statistics.median(values) if unit in ("s", "%") else values[-1], unit)
        plain, traced = statistics.median(runs.plain_s), statistics.median(runs.traced_s)
        metrics["trace.run_s"] = (traced, "s")
        metrics["trace.untraced_run_s"] = (plain, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")

    print(f"workload {args.workload} seed {args.seed}: {runs.attempted} repetition(s), "
          f"{runs.failed} failed (failed_share {runs.failed / max(runs.attempted, 1):.3f}), "
          f"{mirror.pages} pages, method {workload.method} at {workload.threshold}")
    print("repetition seconds, untraced: " + " ".join(f"{t:.3f}" for t in runs.plain_s)
          + ("; traced: " + " ".join(f"{t:.3f}" for t in runs.traced_s) if trace else ""))
    if runs.scales:
        print(f"calibration scale median {statistics.median(runs.scales):.3f}, untraced "
              f"unscaled median {statistics.median(t / k for t, k in zip(runs.plain_s, runs.scales)):.4f} s")
    if runs.digests:
        print("artifacts sha256 " + " ".join(sorted(runs.digests)))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": runs.attempted, "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
