"""Spans recorded by the benchmark around its calls into each layer.

A span is ``(name, start, end, parent, request id)``.  Spans live in
memory while a run measures and are written out once, when it ends.
The program under test is not instrumented: every span brackets a call
the benchmark itself makes into a public function of ``repro``.

A layer's *self time* is the wall time of its spans minus the part of
each span that its child spans cover, so the self times of all span
names add up to the wall time of the root spans.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder.  With ``enabled=False`` every call is a
    no-op, so workload code calls it unconditionally."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: one ``[name, start, end, parent, rid]`` list per span
        self.spans: List[list] = []
        self._local = threading.local()
        self._mu = threading.Lock()  # span ids are indexes into ``spans``

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> Optional[int]:
        """Open a span as a child of this thread's innermost open span."""
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = self.spans[parent][4]
        with self._mu:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, rid])
        stack.append(sid)
        return sid

    def end(self, sid: Optional[int]) -> None:
        if sid is None:
            return
        self.spans[sid][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        sid = self.begin(name, rid)
        try:
            yield sid
        finally:
            self.end(sid)

    # -- analysis ------------------------------------------------------
    def closed(self) -> List[list]:
        return [s for s in self.spans if s[2] is not None]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        children = defaultdict(list)
        for sid, (_n, start, end, parent, _r) in enumerate(self.spans):
            if end is not None and parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _p, _r) in enumerate(self.spans):
            if end is None:
                continue
            totals[name] += (end - start) - _covered(children[sid])
        return dict(totals)

    def root_wall(self) -> float:
        """Summed wall time of the root spans."""
        return sum(e - s for _n, s, e, p, _r in self.closed() if p is None)

    def write(self, path: Path) -> None:
        """Write every closed span as one JSON list (once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {"id": sid, "name": n, "start": s - t0, "end": e - t0,
             "parent": p, "rid": r}
            for sid, (n, s, e, p, r) in enumerate(self.spans)
            if e is not None
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")))


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
