"""Call tracing for navminer, installed from outside the program.

``Tracer.install`` replaces the functions listed in ``TARGETS`` with
wrappers that record one span per call: name, start, end and the span
that was open when the call began.  Spans live in flat arrays in memory
and are turned into per-layer metrics after each repetition; nothing
inside the program is edited.

Two traps decide how the patching is done:

* ``navminer.similarity`` is the ``similarity`` function re-exported by
  the package, not the module, so modules are reached through
  ``importlib.import_module``.
* Modules import each other's functions by name (``navmodel.similarity``,
  ``navmodel.pair_similarity``, ``corpus.to_xhtml``, ...).  Every module
  attribute that is the original function object is replaced, and
  ``install`` fails if any reference to an original survives.

A counter must never read zero because a wrapper was bypassed:
``layer_metrics`` fails when a wrapper the run must pass through saw no
call, or when a count disagrees with what the run returned.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

LAYERS = ("corpus", "normalize", "schema", "similarity", "navmodel", "components",
          "evaluate", "report")

# (layer, attribute path in the layer's module, what the wrapper keeps for
# the counters: the call's positional arguments, its result, or nothing)
TARGETS = (
    ("corpus", "load_corpus", "result"),
    ("corpus", "FileResolver.fetch", "result"),
    ("corpus", "HttpResolver.fetch", "result"),
    ("corpus", "extract_links", "result"),
    ("normalize", "to_xhtml", None),
    ("normalize", "pretty_print", "result"),
    ("normalize", "stripped_lines", None),
    ("schema", "extract_schema", None),
    ("schema", "serialize_schema", "result"),
    ("schema", "sts_serialize", "result"),
    ("similarity", "similarity", None),
    ("similarity", "levenshtein", "args"),
    ("similarity", "transclos", None),
    ("navmodel", "build_nav_tree", None),
    ("navmodel", "refine_clusters", None),
    ("navmodel", "reduce_to_snp", None),
    ("navmodel", "pair_similarity", None),
    ("navmodel", "token_seq", "result"),
    ("navmodel", "page_size", None),
    ("navmodel", "collect_partition", None),
    ("components", "extract_candidates", "result"),
    ("components", "lcs_pairs", "args"),
    ("components", "diff_oneway", "result"),
    ("components", "identify_elements", None),
    ("evaluate", "load_reference", None),
    ("evaluate", "evaluate", None),
    ("report", "run_pipeline", None),
    ("report", "emit_dot", None),
    ("report", "emit_xml", None),
)

_FETCHERS = {"file": "corpus.FileResolver.fetch", "http": "corpus.HttpResolver.fetch"}
_SERIALIZERS = {"MMS": ("schema.extract_schema", "schema.serialize_schema"),
                "STS": ("schema.sts_serialize",)}


class TraceError(RuntimeError):
    """The tracer cannot vouch for its counters."""


def required_spans(method: str, mode: str) -> set[str]:
    """Wrapped functions every run with this method and mirror mode calls."""
    names = {f"{layer}.{path}" for layer, path, _ in TARGETS}
    names -= set(_FETCHERS.values()) - {_FETCHERS[mode]}
    names -= {n for m, group in _SERIALIZERS.items() if m != method for n in group}
    return names


@dataclass
class Profile:
    """Spans of one repetition, folded per span name."""

    count: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)  # seconds inside the span
    own: Counter = field(default_factory=Counter)  # seconds not covered by child spans
    edges: Counter = field(default_factory=Counter)  # (parent name, child name) -> calls
    kept: dict = field(default_factory=dict)  # span name -> captured args or results
    spans: int = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.kept: dict[str, list] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self.last_spans: tuple = ([], [], [], [])

    def _wrap(self, name: str, func, capture):
        name_id = len(self.names)
        self.names.append(name)
        kept = self.kept.setdefault(name, [])
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if capture == "args":
                kept.append(args)
            elif capture == "result":
                kept.append(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target everywhere the program can reach it."""
        if self._patches:
            raise TraceError("tracer already installed")
        modules = {layer: importlib.import_module(f"navminer.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("navminer"), *modules.values()]
        originals = set()
        for layer, path, capture in TARGETS:
            name = f"{layer}.{path}"
            owner = modules[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if not callable(original):
                raise TraceError(f"navminer.{name} is gone; its layer metrics cannot be read")
            wrapper = self._wrappers.get(name)
            if wrapper is None:  # reinstalling reuses the wrappers of the first install
                wrapper = self._wrappers[name] = self._wrap(name, original, capture)
            originals.add(id(original))
            if outer:  # a method: the class object is shared by every importer
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        for holder in holders:
            for key, value in vars(holder).items():
                if id(value) in originals:
                    raise TraceError(f"{holder.__name__}.{key} still refers to the untraced function")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> Profile:
        """Fold and clear the spans recorded since the last call."""
        profile = Profile()
        names, name_ids, parents = self.names, self.name_ids, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[index]
                profile.edges[names[name_ids[parent]], names[name_ids[index]]] += 1
        for index, name_id in enumerate(name_ids):
            name = names[name_id]
            profile.count[name] += 1
            profile.total[name] += durations[index]
            profile.own[name] += durations[index] - covered[index]
        profile.spans = len(durations)
        profile.kept = {name: list(values) for name, values in self.kept.items()}
        self.last_spans = (list(name_ids), list(parents), array("d", self.starts),
                           array("d", self.ends))
        for values in self.kept.values():
            values.clear()
        for arr in (self.name_ids, self.starts, self.ends, self.parents):
            del arr[:]
        return profile

    def dump(self, path) -> None:
        """Write the spans of the last folded repetition as TSV:
        id, parent id, name, start and end in seconds from the first span."""
        name_ids, parents, starts, ends = self.last_spans
        origin = starts[0] if starts else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            out.writelines(
                f"{i}\t{p}\t{self.names[n]}\t{s - origin:.7f}\t{e - origin:.7f}\n"
                for i, (n, p, s, e) in enumerate(zip(name_ids, parents, starts, ends)))


def _check_seen(profile: Profile, required: set[str]) -> None:
    missing = sorted(name for name in required if not profile.count[name])
    if missing:
        raise TraceError("no call passed through the wrappers of " + ", ".join(missing)
                         + "; their counters would read 0")


def _trimmed(a, b) -> tuple[int, int]:
    """Lengths left after dropping the common head and tail, the way
    ``levenshtein`` and ``lcs_pairs`` trim (found by bisection on slices)."""
    la, lb = len(a), len(b)
    lo, hi = 0, min(la, lb)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = lo
    lo, hi = 0, min(la, lb) - start
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid:] == b[lb - mid:]:
            lo = mid
        else:
            hi = mid - 1
    return la - start - lo, lb - start - lo


def _pair_cells(pairs) -> tuple[int, int]:
    """(identical pairs, DP cells after trimming) over (a, b) argument pairs.

    Sequences are compared once per distinct value pair: the pipeline
    hands the same cached sequence objects to many calls."""
    index: dict[int, int] = {}
    values: dict = {}
    cells: dict[tuple[int, int], int] = {}
    identical = total = 0
    for a, b in pairs:
        ia = index.get(id(a))
        if ia is None:
            ia = index[id(a)] = values.setdefault(a, len(values))
        ib = index.get(id(b))
        if ib is None:
            ib = index[id(b)] = values.setdefault(b, len(values))
        if ia == ib:
            identical += 1
            continue
        key = (ia, ib)
        count = cells.get(key)
        if count is None:
            n, m = _trimmed(a, b)
            count = cells[key] = n * m
        total += count
    return identical, total


def layer_metrics(profile: Profile, result, required: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, ``result`` being what
    ``run_pipeline`` returned.  Seconds are wall seconds inside spans;
    shares are of the ``run_pipeline`` span.  Raises ``TraceError`` when a
    wrapper in ``required`` saw no call or a counter disagrees with the
    result."""
    _check_seen(profile, required)
    total, count, own, kept = profile.total, profile.count, profile.own, profile.kept
    fetched = kept["corpus.FileResolver.fetch"] + kept["corpus.HttpResolver.fetch"]
    serialized = kept["schema.serialize_schema"] + kept["schema.sts_serialize"]
    seqs = {id(seq): seq for seq in kept["navmodel.token_seq"]}
    identical, dp_cells = _pair_cells(kept["similarity.levenshtein"])
    lcs_lines = [([line.lstrip() for line in a], [line.lstrip() for line in b])
                 for a, b in kept["components.lcs_pairs"]]
    computed = sum(n for (parent, child), n in profile.edges.items()
                   if parent == "navmodel.pair_similarity" and child == "similarity.similarity")
    m = {
        "corpus.fetch_s": total["corpus.FileResolver.fetch"] + total["corpus.HttpResolver.fetch"],
        "corpus.fetch_calls": count["corpus.FileResolver.fetch"] + count["corpus.HttpResolver.fetch"],
        "corpus.fetch_bytes": sum(len(text.encode("utf-8")) for text in fetched),
        "corpus.extract_links_s": total["corpus.extract_links"],
        "corpus.load_self_s": own["corpus.load_corpus"],
        "corpus.pages": len(result.corpus.pages),
        "corpus.links": sum(len(links) for links in kept["corpus.extract_links"]),
        "corpus.dangling": len(result.corpus.dangling),
        "normalize.parse_s": total["normalize.to_xhtml"],
        "normalize.parse_calls": count["normalize.to_xhtml"],
        "normalize.pretty_print_s": total["normalize.pretty_print"],
        "normalize.stripped_lines_s": total["normalize.stripped_lines"],
        "normalize.lines_out": sum(len(text.lines) for text in kept["normalize.pretty_print"]),
        "schema.extract_s": total["schema.extract_schema"],
        "schema.serialize_s": total["schema.serialize_schema"] + total["schema.sts_serialize"],
        "schema.tokens_mean": statistics.fmean(map(len, serialized)) if serialized else 0.0,
        "similarity.levenshtein_calls": count["similarity.levenshtein"],
        "similarity.identical_pairs": identical,
        "similarity.dp_cells": dp_cells,
        "similarity.levenshtein_s": total["similarity.levenshtein"],
        "similarity.transclos_s": total["similarity.transclos"],
        "navmodel.build_self_s": own["navmodel.build_nav_tree"],
        "navmodel.refine_self_s": own["navmodel.refine_clusters"],
        "navmodel.reduce_s": total["navmodel.reduce_to_snp"],
        "navmodel.pair_similarity_calls": count["navmodel.pair_similarity"],
        "navmodel.pair_cache_hits": count["navmodel.pair_similarity"] - computed,
        "navmodel.token_seq_calls": count["navmodel.token_seq"],
        "navmodel.distinct_token_seqs": len(set(seqs.values())),
        "navmodel.memo_entries": len(result.corpus.memo),
        "navmodel.nodes": len(result.tree.nodes()),
        "components.extract_s": total["components.extract_candidates"],
        "components.edges": sum(map(len, kept["components.extract_candidates"])),
        "components.lcs_s": total["components.lcs_pairs"],
        "components.lcs_cells": sum(n * m for n, m in (_trimmed(a, b) for a, b in lcs_lines)),
        "components.fragment_lines": sum(len(f.lines) for frags in kept["components.diff_oneway"]
                                         for f in frags),
        "components.identify_s": total["components.identify_elements"],
        "evaluate.score_s": total["evaluate.evaluate"] + total["evaluate.load_reference"],
        "report.files": len(result.files),
        "report.artifact_bytes": sum(path.stat().st_size for path in result.files),
    }
    layer_own = Counter()
    for name, seconds in own.items():
        layer_own[name.split(".", 1)[0]] += seconds
    m["report.emit_s"] = layer_own["report"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_own[layer]
        m[f"{layer}.share_pct"] = 100.0 * layer_own[layer] / total["report.run_pipeline"]
    m["trace.spans"] = profile.spans
    if m["corpus.fetch_calls"] < m["corpus.pages"] + m["corpus.dangling"]:
        raise TraceError("the fetch wrappers missed calls")
    if m["normalize.parse_calls"] < m["corpus.pages"]:
        raise TraceError("the parse wrapper missed calls")
    if m["components.edges"] != len(result.components):
        raise TraceError("the component wrapper missed calls")
    return m


# every per-layer metric with its unit, in report order; the trace.*
# times come from the benchmark's own clock, not from spans
UNITS = {
    "corpus.fetch_s": "s", "corpus.fetch_calls": "count", "corpus.fetch_bytes": "B",
    "corpus.extract_links_s": "s", "corpus.load_self_s": "s", "corpus.pages": "count",
    "corpus.links": "count", "corpus.dangling": "count",
    "normalize.parse_s": "s", "normalize.parse_calls": "count", "normalize.pretty_print_s": "s",
    "normalize.stripped_lines_s": "s", "normalize.lines_out": "count",
    "schema.extract_s": "s", "schema.serialize_s": "s", "schema.tokens_mean": "tokens",
    "similarity.levenshtein_calls": "count", "similarity.identical_pairs": "count",
    "similarity.dp_cells": "count", "similarity.levenshtein_s": "s", "similarity.transclos_s": "s",
    "navmodel.build_self_s": "s", "navmodel.refine_self_s": "s", "navmodel.reduce_s": "s",
    "navmodel.pair_similarity_calls": "count", "navmodel.pair_cache_hits": "count",
    "navmodel.token_seq_calls": "count", "navmodel.distinct_token_seqs": "count",
    "navmodel.memo_entries": "count", "navmodel.nodes": "count",
    "components.extract_s": "s", "components.edges": "count", "components.lcs_s": "s",
    "components.lcs_cells": "count", "components.fragment_lines": "count",
    "components.identify_s": "s",
    "evaluate.score_s": "s",
    "report.emit_s": "s", "report.files": "count", "report.artifact_bytes": "B",
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("share_pct", "%"))},
    "trace.spans": "count", "trace.run_s": "s", "trace.untraced_run_s": "s",
    "trace.overhead_pct": "%",
}
