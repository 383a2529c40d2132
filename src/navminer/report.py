"""Pipeline orchestration and artifact emission.

One run goes mirror -> normalized pages -> per-page schemas -> clustered
navigational tree -> reduced tree -> per-edge candidate components ->
(optional) evaluation against a reference classification.
Artifacts land in the output directory:

    navmodel.dot              cluster tree for Graphviz
    navmodel.xml              machine-readable model + components + scores
    components/edge-NNN.html  one browsable fragment file per tree edge
    report/index.html         static index over the component files
    dangling.txt              unresolvable link targets, one per line
    schemas/<page>.dtd        per-page schema dumps (verbose mode only),
                              named by the percent-encoded page id (a
                              long one cut short and ended by its hash)

Everything set-like is sorted before emission, so identical inputs and
configuration produce byte-identical artifacts.

A run writes its artifacts into a hidden ``.navminer-*`` directory in
the output directory and moves them into place only once all are
written, each top-level entry with one rename; the previous run's
``components/``, ``report/`` and ``schemas/`` are replaced whole.  A run
that fails leaves the previous run's output as it was.
"""

from __future__ import annotations

import html as html_escape
import logging
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import quote

from . import navmodel
from .components import KINDS, CandidateComponent, extract_candidates
from .corpus import Corpus, CorpusError, load_corpus
from .evaluate import EvaluationError, EvaluationResult, evaluate, load_reference
from .navmodel import (NavTree, build_nav_tree, collect_partition, reduce_to_snp, refine_clusters,
                       walk)
from .schema import dtd_text

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    root: str
    threshold: float = 0.95
    max_depth: int = 10
    method: str = "MMS"
    out_dir: str = "out"
    reference: str | None = None
    verbose: bool = False
    http_delay: float = 0.1

    def validate(self):
        if not self.root:
            raise ConfigError("root locator is required")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if self.max_depth < 0:
            raise ConfigError(f"max_depth {self.max_depth} is negative")
        if self.method not in navmodel.METHODS:
            raise ConfigError(f"method must be one of {', '.join(navmodel.METHODS)}")
        if not (math.isfinite(self.http_delay) and self.http_delay >= 0):
            raise ConfigError(f"http delay {self.http_delay} is not a finite non-negative number")


@dataclass
class PipelineResult:
    corpus: Corpus
    tree: NavTree
    components: list[CandidateComponent]
    evaluation: EvaluationResult | None
    out_dir: Path
    files: list[Path] = field(default_factory=list)


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(tree: NavTree) -> str:
    """Graphviz digraph: one box per node labeled with its representative
    and member count; solid edges follow the tree, dashed edges are
    back-references."""
    ids: dict[int, str] = {}
    owner: dict[str, str] = {}
    lines = ["digraph navmodel {", "  node [shape=box];"]
    order = tree.nodes()
    for index, node in enumerate(order):
        if node.representative is None:
            raise ValueError("tree is not reduced: representative missing")
        ids[id(node)] = f"n{index}"
        for page in node.members:
            owner[page] = f"n{index}"
        label = f"{node.representative} ({len(node.members)})"
        lines.append(f"  n{index} [label={_dot_quote(label)}];")
    solid = set()
    for node in order:
        for child in node.children:
            solid.add((ids[id(node)], ids[id(child)]))
            lines.append(f"  {ids[id(node)]} -> {ids[id(child)]};")
    dashed = set()
    for node in order:
        for target in node.backrefs:
            if target in owner:
                dashed.add((ids[id(node)], owner[target]))
    # a back-reference that retraces a tree edge adds nothing visually
    for source, target in sorted(dashed - solid):
        lines.append(f"  {source} -> {target} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _component_file(index: int) -> str:
    return f"components/edge-{index:03d}.html"


# ElementTree's attribute escaping, in one pass
_XML_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                                   "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})


def _xml_tag(depth: int, name: str, attrs: dict[str, str], empty: bool = False) -> str:
    parts = "".join(f' {key}="{value.translate(_XML_ATTR_ESCAPES)}"'
                    for key, value in attrs.items())
    return "  " * depth + f"<{name}{parts}{' />' if empty else '>'}"


def emit_xml(tree: NavTree, components: list[CandidateComponent],
             evaluation: EvaluationResult | None = None) -> str:
    """Well-formed XML with the node tree, the per-edge components and
    the optional evaluation block, one element per line and children
    indented two spaces (the layout of ElementTree's ``indent``)."""
    lines = ["<navmodel>"]
    for node, depth, closing in walk(tree.root):
        empty = not node.children and not node.backrefs
        if not closing:
            lines.append(_xml_tag(depth + 1, "node", {
                "representative": node.representative or "",
                "members": " ".join(sorted(node.members)),
            }, empty))
        elif not empty:
            lines.extend(_xml_tag(depth + 2, "backref", {"target": target}, True)
                         for target in node.backrefs)
            lines.append("  " * (depth + 1) + "</node>")

    lines.append(_xml_tag(1, "components", {}, not components))
    for index, component in enumerate(components):
        lines.append(_xml_tag(2, "component", {
            "source": component.source,
            "target": component.target,
            "file": _component_file(index),
            "fragments": str(len(component.fragments)),
        }))
        lines.append(_xml_tag(3, "inventory", {
            kind.lower(): str(component.inventory.get(kind, 0)) for kind in KINDS}, True))
        lines.append("    </component>")
    if components:
        lines.append("  </components>")
    if evaluation is not None:
        lines.append(_xml_tag(1, "evaluation", {
            name: str(getattr(evaluation, name)) for name in ("rcr", "icr", "precision", "recall")
        }, True))
    lines.append("</navmodel>")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + "\n".join(lines) + "\n"


def _edge_html(index: int, component: CandidateComponent) -> str:
    title = f"edge {index:03d}: {component.source} -> {component.target}"
    body: list[str] = []
    for number, fragment in enumerate(component.fragments, 1):
        body.append(f"<!-- fragment {number}: target lines "
                    f"{fragment.start + 1}-{fragment.start + len(fragment.lines)} -->")
        body.extend(fragment.printed())
    joined = "\n".join(body)
    return (f"<html>\n<head>\n<title>{html_escape.escape(title)}</title>\n</head>\n"
            f"<body>\n{joined}\n</body>\n</html>\n")


def _inventory_summary(component: CandidateComponent) -> str:
    parts = [f"{kind}: {component.inventory[kind]}"
             for kind in KINDS if component.inventory.get(kind)]
    return ", ".join(parts) if parts else "empty"


def _report_index(components: list[CandidateComponent], evaluation) -> str:
    rows = []
    for index, component in enumerate(components):
        rows.append(
            "<tr>"
            f'<td><a href="../{_component_file(index)}">edge-{index:03d}</a></td>'
            f"<td>{html_escape.escape(component.source)}</td>"
            f"<td>{html_escape.escape(component.target)}</td>"
            f"<td>{len(component.fragments)}</td>"
            f"<td>{html_escape.escape(_inventory_summary(component))}</td>"
            "</tr>"
        )
    eval_block = ""
    if evaluation is not None:
        eval_block = (f"<p>Evaluation: RCR {evaluation.rcr}, ICR {evaluation.icr}, "
                      f"precision {evaluation.precision}%, recall {evaluation.recall}%</p>\n")
    table = ("<table border=\"1\">\n<tr><th>Component</th><th>Source</th>"
             "<th>Target</th><th>Fragments</th><th>Inventory</th></tr>\n"
             + "\n".join(rows) + "\n</table>\n")
    return ("<html>\n<head>\n<title>Navigational model report</title>\n</head>\n<body>\n"
            "<h1>Candidate components along the navigational path</h1>\n"
            + eval_block + table + "</body>\n</html>\n")


def _dtd_name(page_id: str) -> str:
    """The page id percent-encoded, so distinct ids get distinct names.
    One longer than 200 bytes keeps its first 150 and ends in ``~`` and
    the id's SHA-256, 215 bytes in all: it fits the usual 255-byte file
    name limit and cannot equal a short name."""
    name = quote(page_id, safe="")
    if len(name) <= 200:  # quote's output is ASCII: one byte a character
        return name
    import hashlib  # loads OpenSSL, which a short name never needs

    return name[:150] + "~" + hashlib.sha256(page_id.encode("utf-8")).hexdigest()


def _build_artifacts(cfg: Config, result: PipelineResult) -> dict[str, str]:
    artifacts = {
        "navmodel.dot": emit_dot(result.tree),
        "navmodel.xml": emit_xml(result.tree, result.components, result.evaluation),
        "dangling.txt": "".join(line + "\n" for line in result.corpus.dangling),
        "report/index.html": _report_index(result.components, result.evaluation),
    }
    for index, component in enumerate(result.components):
        artifacts[_component_file(index)] = _edge_html(index, component)
    if cfg.verbose:
        for page_id in sorted(result.corpus.pages):
            # cached per shape, and by an MMS run for every page it
            # clustered with another
            tokens = navmodel.token_seq(result.corpus, page_id, "MMS")
            artifacts[f"schemas/{_dtd_name(page_id)}.dtd"] = dtd_text(tokens)
    return artifacts


# the output directories a run owns: each is replaced whole, or removed
# when the run has nothing for it, so no stale file of an earlier run stays
_OWNED_DIRS = ("components", "report", "schemas")


def _write_artifacts(out_dir: Path, artifacts: dict[str, str]) -> list[Path]:
    """Write every artifact into a fresh directory inside ``out_dir``, then
    swap each top-level entry in with ``os.replace``, the old owned
    directories moved aside and deleted with it.  A write that fails
    leaves the previous run's output as it was."""
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out_dir, prefix=".navminer-"))
    try:
        for rel_path in sorted(artifacts):
            path = staging / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(artifacts[rel_path], encoding="utf-8")
        entries = sorted({rel_path.split("/", 1)[0] for rel_path in artifacts})
        for name in entries:  # before anything moves: nothing of the wrong kind in the way
            target = out_dir / name
            wants_dir = (staging / name).is_dir()
            if os.path.lexists(target) and target.is_dir() != wants_dir:
                kind = "a directory" if wants_dir else "a file"
                raise OSError(f"{target} is in the way: not {kind}")
        aside = staging / ".old"  # no artifact name starts with a dot
        aside.mkdir()
        for name in _OWNED_DIRS:
            if (out_dir / name).is_dir():
                os.replace(out_dir / name, aside / name)
        for name in entries:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [out_dir / rel_path for rel_path in sorted(artifacts)]


def run_pipeline(cfg: Config) -> PipelineResult:
    """Execute the whole pipeline and write all artifacts.

    Raises ConfigError for a bad configuration, an unreadable or malformed
    reference file or an output directory that cannot be written, and
    CorpusError when the mirror cannot be loaded; none of the run's
    artifact files is left behind in any of these cases, and an earlier
    run's output stays as it was.  The reference is read before the crawl.
    """
    cfg.validate()
    reference = None
    if cfg.reference:
        try:
            reference = load_reference(cfg.reference)
        except (OSError, UnicodeDecodeError, EvaluationError) as exc:
            raise ConfigError(f"reference {cfg.reference}: {exc}") from exc
    corpus = load_corpus(cfg.root, max_depth=cfg.max_depth, delay=cfg.http_delay)
    logger.info("loaded %d page(s), %d dangling link(s)",
                len(corpus.pages), len(corpus.dangling))

    tree = build_nav_tree(corpus, cfg.threshold, cfg.method)
    tree = refine_clusters(tree)
    tree = reduce_to_snp(tree)
    components = extract_candidates(tree)

    evaluation = None
    if reference is not None:
        evaluation = evaluate(collect_partition(tree), reference)
        logger.info("evaluation: rcr=%d icr=%d precision=%d%% recall=%d%%",
                    evaluation.rcr, evaluation.icr, evaluation.precision, evaluation.recall)

    result = PipelineResult(corpus, tree, components, evaluation, Path(cfg.out_dir))
    artifacts = _build_artifacts(cfg, result)
    try:
        result.files = _write_artifacts(result.out_dir, artifacts)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {result.out_dir}: {exc}") from exc
    return result


__all__ = [
    "Config", "ConfigError", "CorpusError", "PipelineResult",
    "emit_dot", "emit_xml", "run_pipeline",
]
