"""Scoring a clustering against a hand-made reference classification.

A reference class counts as correctly retrieved (RCR) when some found
cluster equals it exactly; every found cluster that equals no reference
class is incorrectly retrieved (ICR).  Precision and recall are integer
percentages, truncated.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path

from .similarity import PageId, Partition

logger = logging.getLogger(__name__)


class EvaluationError(ValueError):
    pass


@dataclass
class ReferenceClassification:
    classes: dict[str, frozenset[PageId]]

    @property
    def universe(self) -> frozenset[PageId]:
        out: set[PageId] = set()
        for members in self.classes.values():
            out |= members
        return frozenset(out)


@dataclass
class EvaluationResult:
    rcr: int
    icr: int
    precision: int  # percent
    recall: int  # percent


_CLASS_LINE = re.compile(r"^([^:#]+):(.*)$")


def load_reference(path) -> ReferenceClassification:
    """Parse the plain-text reference format: ``ClassName: page1, page2``
    (a UTF-8 byte order mark dropped)."""
    classes: dict[str, frozenset[PageId]] = {}
    seen: set[PageId] = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _CLASS_LINE.match(line)
        if match is None:
            raise EvaluationError(f"{path}:{lineno}: expected 'ClassName: page, ...'")
        name = match.group(1).strip()
        members = frozenset(p.strip() for p in match.group(2).split(",") if p.strip())
        if not name or not members:
            raise EvaluationError(f"{path}:{lineno}: empty class name or member list")
        if name in classes:
            raise EvaluationError(f"{path}:{lineno}: duplicate class {name!r}")
        if members & seen:
            raise EvaluationError(f"{path}:{lineno}: classes overlap on {sorted(members & seen)}")
        seen |= members
        classes[name] = members
    if not classes:
        raise EvaluationError(f"{path}: reference classification is empty")
    return ReferenceClassification(classes)


def metrics_from_counts(rcr: int, icr: int, n_classes: int) -> tuple[int, int]:
    """Truncated integer percentages for (precision, recall)."""
    precision = 100 * rcr // (rcr + icr) if rcr + icr > 0 else 0
    recall = 100 * rcr // n_classes if n_classes > 0 else 0
    return precision, recall


def evaluate(found: Partition, ref: ReferenceClassification) -> EvaluationResult:
    """Score the found clusters against the reference classes.

    Pages outside the reference are ignored with a warning; clusters
    reduced to nothing by that filter are not scored.
    """
    if not ref.classes:
        raise EvaluationError("reference classification is empty")
    universe = ref.universe
    outside = set(found.universe) - set(universe)
    if outside:
        logger.warning("ignoring %d page(s) outside the reference: %s",
                       len(outside), ", ".join(sorted(outside)))
    clusters = {c & universe for c in found.clusters} - {frozenset()}
    ref_sets = set(ref.classes.values())
    rcr = sum(1 for members in ref_sets if members in clusters)
    icr = sum(1 for cluster in clusters if cluster not in ref_sets)
    precision, recall = metrics_from_counts(rcr, icr, len(ref.classes))
    return EvaluationResult(rcr, icr, precision, recall)
