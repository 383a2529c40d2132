"""Timing in calibrated CPU seconds, steady on a core whose speed drifts.

The speed of a shared core drifts by up to 1.6x within seconds, far more
than the changes the benchmark must resolve, and the host takes the core
away now and then.  ``Calibration.timed`` therefore counts CPU time, not
wall time, and brackets the call with a fixed calibration load: the
call's CPU time is scaled by ``REFERENCE_S`` over the mean CPU time of
the two calibrations, so times are reported in seconds of a machine on
which the calibration load takes ``REFERENCE_S``.  Windows a fraction of
a second apart on one core run at nearly the same speed, so the scaling
cancels most of the drift.

The load mimics the pipeline's own mix: tree construction on the stdlib
HTML tokenizer, tag-stream serialization, edit distances (most trimmed
to nothing, some filling a small table) and tuple-keyed memo inserts.
It is fixed: it must not change between two versions of the program
being compared.
"""

from __future__ import annotations

import time
from html.parser import HTMLParser

REFERENCE_S = 0.05
ROUNDS = 12

_ROWS = "".join(f'<tr class="r{i % 3}"><td>{i}</td><td><a href="p{i}.html">item {i}</a> '
                f"<b>x</b></td></tr>\n" for i in range(40))
_DOC = (f"<html><head><title>t</title></head><body><div class='a'><table>{_ROWS}</table>"
        "</div></body></html>")


class _TreeParser(HTMLParser):
    def reset(self):
        super().reset()
        self.root = ("root", [], [])
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = (tag, [(k, v or "") for k, v in attrs], [])
        self.stack[-1][2].append(node)
        self.stack.append(node)

    def handle_endtag(self, tag):
        if len(self.stack) > 1:
            self.stack.pop()

    def handle_data(self, data):
        text = " ".join(data.split())
        if text:
            self.stack[-1][2].append(text)


def _tokens(node, out: list) -> None:
    if isinstance(node, str):
        return
    out.append("open:" + node[0])
    for child in node[2]:
        _tokens(child, out)
    out.append("close:" + node[0])


def _distance(a, b) -> int:
    la, lb = len(a), len(b)
    start = 0
    while start < la and start < lb and a[start] == b[start]:
        start += 1
    end = 0
    while end < la - start and end < lb - start and a[la - 1 - end] == b[lb - 1 - end]:
        end += 1
    a, b = a[start:la - end], b[start:lb - end]
    if not a or not b:
        return len(a) + len(b)
    prev = list(range(len(a) + 1))
    for i, bi in enumerate(b, 1):
        cur = [i] * (len(a) + 1)
        for j, aj in enumerate(a, 1):
            cur[j] = min(prev[j - 1] + (aj != bi), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


def _round() -> int:
    parser = _TreeParser()
    parser.feed(_DOC)
    parser.close()
    tokens: list[str] = []
    _tokens(parser.root, tokens)
    a = tuple(tokens)
    b = a[:40] + a[60:40:-1] + a[60:]  # a reversed run: a 20x20 table after trimming
    memo = {}
    total = 0
    for i in range(40):
        total += _distance(a, a) + (_distance(a, b) if i % 8 == 0 else 0)
        memo["sim", "MMS", (f"p{i}", f"q{i}")] = total
    return total + len(memo)


def process_clock(pid: int) -> int:
    """Clock id of the CPU time of process ``pid`` (Linux)."""
    return ((~pid) << 3) | 2


def _cpu(clocks) -> float:
    return sum(time.clock_gettime(clock) for clock in clocks)


class Calibration:
    """Times calls by the CPU time of this process plus any extra process
    clocks, such as a server the timed call waits on."""

    def __init__(self, extra_clocks=()):
        self.clocks = (time.CLOCK_PROCESS_CPUTIME_ID, *extra_clocks)

    @staticmethod
    def calibrate() -> float:
        """CPU time of the fixed calibration load."""
        start = time.process_time()
        for _ in range(ROUNDS):
            _round()
        return time.process_time() - start

    def timed(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, its CPU time in calibrated seconds,
        and the scale factor applied."""
        before = self.calibrate()
        start = _cpu(self.clocks)
        result = fn(*args, **kwargs)
        elapsed = _cpu(self.clocks) - start
        scale = 2 * REFERENCE_S / (before + self.calibrate())
        return result, elapsed * scale, scale

    def scaled(self, measure) -> float:
        """Seconds returned by ``measure()``, in calibrated seconds."""
        before = self.calibrate()
        seconds = measure()
        return seconds * 2 * REFERENCE_S / (before + self.calibrate())
