"""In-memory spans around calls into swhid's modules, plus small stat helpers.

The tracer wraps public functions from outside the package: the calls the
benchmark makes into a layer, and the names one swhid module imported from
another (``swhid.ingest.manifest_of`` is model work done for ingest). A span
is (id, name, start, end, parent, op); spans of one benchmark op share op.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._op_root: Optional[int] = None
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span; a top-level call starts a new op."""
        stack = self._stack()
        top = not stack and threading.current_thread() is threading.main_thread()
        if stack:
            parent = stack[-1]
        else:
            parent = None if top else self._op_root
        span_id = next(self._ids)
        if top:
            self._op += 1
            self._op_root = span_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self._op))

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that records a span per call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self, name: str, op: Optional[int] = None) -> List[float]:
        return [e - s for _, n, s, e, _, o in self.spans if n == name and (op is None or o == op)]

    def last_op(self) -> int:
        return self._op

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def low(values: Sequence[float]) -> float:
    """The 10th percentile (nearest rank): the op's time when the host was quiet.

    On a shared 2-vCPU Xeon VM, other tenants' load slowed every op by up
    to 1.7x for a fraction of a second to 30 s at a time, so a median
    follows their duty cycle while the low tail follows the program.
    """
    ordered = sorted(values)
    return ordered[len(ordered) // 10]


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """Highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for label, p in (("p99.9", 99.9), ("p99", 99.0), ("p95", 95.0), ("p90", 90.0)):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return label, ordered[rank - 1]
    return "p50", median(ordered)


def proc_io() -> Dict[str, int]:
    """This process's /proc/self/io counters (rchar, wchar, syscr, ...)."""
    with open("/proc/self/io") as fh:
        return {k: int(v) for k, v in (line.split(":") for line in fh)}
