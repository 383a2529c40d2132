"""Candidate UI components: one-sided line diffs along the reduced tree.

Going from page A to page B usually changes only a fraction of the
markup.  After stripping text and pretty-printing, a longest-common-
subsequence alignment of the two line lists isolates exactly the lines
that are new on the B side: those contiguous runs are the fragments of
a candidate component.  Lines that only exist on the A side are
discarded; the question is what *appears*, not what goes away.

The ``LineText`` lines come without their indentation, so a line that
only moved to another depth still aligns, and lines are compared
exactly as given.  A fragment is a slice of the target's ``LineText``:
its lines, their depths and the tags they open.  The alignment comes
in ascending order, so the fragments are cut at its gaps, and no
target line is tested on its own.

The alignment table is bit-parallel: one int per line of A, one bit per
line of B, built a machine word at a time instead of cell by cell, and
read back one bit per step.  The backtrack over it is the canonical one
of the full table, so the fragments are those of the classic DP.

A component's inventory counts the elements its fragments open, from
the tags ``normalize`` recorded while printing, by tag name and, for an
``input``, by its first ``type`` attribute (``text`` when it has none);
no line is parsed back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import PageId
from .navmodel import NavTree, walk
from .normalize import LineText, Tag, stripped_lines
from .similarity import shared_ends

KINDS = ("Button", "Text", "Textarea", "Select", "Link", "Image", "Table", "Form", "Other")


@dataclass
class Fragment(LineText):
    """Lines ``start`` onwards of the target's stripped ``LineText``."""

    start: int


@dataclass
class CandidateComponent:
    source: PageId
    target: PageId
    fragments: list[Fragment]
    inventory: dict[str, int] = field(default_factory=dict)


def lcs_pairs(a: list[str], b: list[str]) -> list[tuple[int, int]]:
    """Longest-common-subsequence alignment as (index-in-a, index-in-b)
    pairs of equal lines.

    The table is bit-parallel (Allison and Dix; Hyyro, "Bit-parallel
    LCS-length computation revisited", 2004): row ``i`` is one int whose
    bits are ``b``'s columns, and ``dp[i][j]`` is ``j`` minus the set
    bits of the row's lowest ``j``, so the table takes n*m/8 bytes.
    The backtrack over it is canonical and symmetric: running it on
    (b, a) yields the mirrored pair set, which keeps the two one-sided
    diffs of a page pair consistent with a single alignment.

    The backtrack keeps the current cell's value and reads single bits:
    bit ``j - 1`` of row ``i`` says whether the left neighbour is one
    less.  Only when it is not does the cell above matter; that one is
    counted once per row and kept up to date bit by bit along it, and a
    run of left steps is skipped with masks: to the row's next match
    when the cell above is smaller, and to the next zero bit of row
    ``i`` or ``i - 1`` while the two tie, comparing only lines there.
    """
    la, lb = len(a), len(b)
    start, end = shared_ends(a, b)
    ma = a[start:la - end]
    mb = b[start:lb - end]
    n, m = len(ma), len(mb)
    wanted = set(ma)  # only lines of ma look their mask up
    match: dict[str, int] = {}  # line -> bit j set where mb[j] is that line
    for j, line in enumerate(mb):
        if line in wanted:
            match[line] = match.get(line, 0) | (1 << j)
    full = (1 << m) - 1
    rows = [full]  # a zero bit j in row i: dp[i][j + 1] == dp[i][j] + 1
    v = full
    for line in ma:
        u = v & match.get(line, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)

    # on the backtrack's path dp[i][j] is the length minus the pairs found
    length = m - v.bit_count()
    middle: list[tuple[int, int]] = []
    i, j = n, m
    up_row = up = 0  # up is dp[i - 1][j] while stepping left along row up_row
    while i > 0 and j > 0:
        if ma[i - 1] == mb[j - 1]:
            middle.append((start + i - 1, start + j - 1))  # indices in a and b
            i -= 1
            j -= 1
        elif not rows[i] >> (j - 1) & 1:  # dp[i][j - 1] < dp[i][j] == dp[i - 1][j]
            i -= 1
        else:  # dp[i][j - 1] == dp[i][j], and dp[i - 1][j] is the same or one less
            if up_row != i:
                up_row, up = i, j - (rows[i - 1] & ((1 << j) - 1)).bit_count()
            if up < length - len(middle):
                # dp[i - 1][c] stays below dp[i][c] == dp[i][j] along the row
                # until the row's next match: jump there
                j = (match[ma[i - 1]] & ((1 << (j - 1)) - 1)).bit_length()
            elif ma[i - 1] > mb[j - 1]:  # tie: drop the larger line, keeps it symmetric
                i -= 1
            else:
                # a run of ties: step left while the next cell (i, c) is a tie
                # too and mb[c - 1] is larger; a cell that is no match is one
                # until bit c - 1 of row i or bit c of row i - 1 is zero
                line = ma[i - 1]
                look = rows[i] ^ full | (rows[i - 1] ^ full) >> 1
                lo = (look & ((1 << (j - 1)) - 1)).bit_length()
                j -= 1
                while j > lo and line < mb[j - 1]:
                    j -= 1
                up -= not rows[i - 1] >> j & 1
    middle.reverse()

    pairs = [(k, k) for k in range(start)]
    pairs += middle
    pairs.extend((la - end + k, lb - end + k) for k in range(end))
    return pairs


def diff_oneway(a: LineText, b: LineText) -> list[Fragment]:
    """Maximal runs of b-lines that are not part of the alignment with a.

    The alignment's b indices ascend, so the runs are its gaps: one
    wherever the next aligned index skips lines, and one after the last
    aligned line when b goes on."""
    lines, opens, depths = b.lines, b.opens, b.depths
    fragments: list[Fragment] = []
    run_start = 0  # the first b line after the last aligned one
    for _, j in lcs_pairs(a.lines, lines):
        if j > run_start:
            fragments.append(Fragment(lines[run_start:j], opens[run_start:j],
                                      depths[run_start:j], run_start))
        run_start = j + 1
    if run_start < len(lines):
        fragments.append(Fragment(lines[run_start:], opens[run_start:], depths[run_start:],
                                  run_start))
    return fragments


_KIND_OF_TAG = {
    "button": "Button",
    "textarea": "Textarea",
    "select": "Select",
    "a": "Link",
    "img": "Image",
    "table": "Table",
    "form": "Form",
}


def _classify(tag: Tag) -> str | None:
    """Map one opened element's tag to its inventory kind; None means not
    counted."""
    if tag.name == "input":
        input_type = next((value for name, value in tag.attrs if name == "type"),
                          "text").lower()
        if input_type in ("submit", "button", "reset"):
            return "Button"
        if input_type == "hidden":
            return None  # non-visual
        if input_type in ("text", "password"):
            return "Text"
        return "Other"
    return _KIND_OF_TAG.get(tag.name, "Other")


def identify_elements(component: CandidateComponent) -> dict[str, int]:
    """Tally the elements the component's fragment lines open."""
    counts = {kind: 0 for kind in KINDS}
    for fragment in component.fragments:
        for tag in filter(None, fragment.opens):  # close lines open nothing
            kind = _classify(tag)
            if kind is not None:
                counts[kind] += 1
    return counts


def extract_candidates(snp: NavTree) -> list[CandidateComponent]:
    """One candidate component per edge of the reduced tree, walking the
    tree depth-first and diffing parent representative -> child
    representative."""
    pages = snp.corpus.pages
    lines: dict[PageId, LineText] = {}  # a representative is diffed as target and as source

    def lines_of(page_id: PageId) -> LineText:
        cached = lines.get(page_id)
        if cached is None:
            cached = lines[page_id] = stripped_lines(pages[page_id].document)
        return cached

    out: list[CandidateComponent] = []
    path: list = []  # the open nodes from the root down
    for node, _, closing in walk(snp.root):
        if closing:
            path.pop()
            continue
        if node.representative is None:
            raise ValueError("tree is not reduced: representative missing")
        if path:
            source, target = path[-1].representative, node.representative
            fragments = diff_oneway(lines_of(source), lines_of(target))
            component = CandidateComponent(source, target, fragments)
            component.inventory = identify_elements(component)
            out.append(component)
        path.append(node)
    return out
