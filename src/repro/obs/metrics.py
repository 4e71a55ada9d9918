"""A dependency-free metrics registry: counters, gauges, histograms.

The observability layer the distributed seams (artifact store, bound
server, fleet controller/worker) report through.  Three instrument
kinds, one registry, zero dependencies beyond the stdlib:

* :class:`Counter` — monotonically non-decreasing totals (requests,
  cache hits, lease expiries).  ``inc`` rejects negative deltas, so a
  scrape can always be diffed against an earlier scrape.
* :class:`Gauge` — point-in-time values that move both ways (queue
  depth, leased cells).
* :class:`Histogram` — observations bucketed against **fixed** upper
  edges chosen at creation (request latencies).  Fixed edges make two
  snapshots of the same registry state byte-identical and let scrapes
  from different processes be merged bucket-by-bucket.

Instruments are addressed by name; the convention used across the repo
is ``<subsystem>.<what>`` with an optional ``{label}`` suffix for one
dimension, e.g. ``store.hits`` or ``http.requests{GET /health}`` (see
:func:`labeled`).  :meth:`MetricsRegistry.snapshot` returns a plain
JSON-safe mapping and :meth:`MetricsRegistry.snapshot_json` its
canonical encoding (sorted keys, compact separators, non-finite floats
rejected) — the byte-stable view ``GET /metrics`` serves.

Doctest::

    >>> from repro.obs import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> reg.counter("store.hits").inc()
    >>> reg.counter("store.hits").inc(2)
    >>> reg.gauge("queue.depth").set(7)
    >>> h = reg.histogram("lat_s", edges=(0.1, 1.0))
    >>> h.observe(0.05); h.observe(5.0)
    >>> snap = reg.snapshot()
    >>> snap["counters"]["store.hits"], snap["gauges"]["queue.depth"]
    (3, 7)
    >>> snap["histograms"]["lat_s"]["buckets"]
    [1, 0, 1]
    >>> reg.snapshot_json() == reg.snapshot_json()   # byte-stable
    True
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_EDGES_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_SCHEMA",
    "dumps_snapshot",
    "labeled",
]

OBS_SCHEMA = "repro-obs/1"

#: Default latency bucket edges (seconds): 100 µs .. 10 s, roughly
#: logarithmic.  Chosen once so every server's latency histograms are
#: mergeable and comparable across processes and PRs.
DEFAULT_LATENCY_EDGES_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

Number = Union[int, float]


def labeled(name: str, label: str) -> str:
    """The repo's one-dimension label convention:
    ``labeled("http.latency_s", "GET /health")`` ->
    ``"http.latency_s{GET /health}"``."""
    return f"{name}{{{label}}}"


def dumps_snapshot(payload) -> str:
    """Canonical JSON for snapshot payloads: sorted keys, compact
    separators, non-finite floats rejected — same state, same bytes."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class Counter:
    """A monotonically non-decreasing total."""

    __slots__ = ("name", "_mu", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._mu = lock
        self._value: Number = 0

    def inc(self, delta: Number = 1) -> None:
        if delta < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (delta {delta})"
            )
        with self._mu:
            self._value += delta

    @property
    def value(self) -> Number:
        with self._mu:
            return self._value


class Gauge:
    """A point-in-time value; moves both ways."""

    __slots__ = ("name", "_mu", "_value")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._mu = lock
        self._value: Number = 0

    def set(self, value: Number) -> None:
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name!r} must stay finite")
        with self._mu:
            self._value = value

    def inc(self, delta: Number = 1) -> None:
        with self._mu:
            self._value += delta

    def dec(self, delta: Number = 1) -> None:
        self.inc(-delta)

    @property
    def value(self) -> Number:
        with self._mu:
            return self._value


class Histogram:
    """Observations bucketed against fixed, strictly increasing upper
    edges; ``buckets`` has ``len(edges) + 1`` slots (the last one is the
    overflow bucket)."""

    __slots__ = ("name", "edges", "_mu", "_buckets", "_count", "_sum",
                 "_min", "_max")

    def __init__(
        self,
        name: str,
        edges: Sequence[float],
        lock: threading.Lock,
    ) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if any(not math.isfinite(e) for e in edges):
            raise ValueError(f"histogram {name!r} edges must be finite")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"histogram {name!r} edges must be strictly increasing"
            )
        self.name = name
        self.edges = edges
        self._mu = lock
        self._buckets = [0] * (len(edges) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: Number) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram {self.name!r} must stay finite")
        idx = len(self.edges)  # overflow slot
        for i, edge in enumerate(self.edges):
            if value <= edge:
                idx = i
                break
        with self._mu:
            self._buckets[idx] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._mu:
            return self._count

    def view(self) -> Dict:
        with self._mu:
            return {
                "edges": list(self.edges),
                "buckets": list(self._buckets),
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
            }


class MetricsRegistry:
    """Get-or-create instrument registry, thread-safe throughout.

    One owner per registry: the fleet controller owns one, and the
    bound server serves the one its artifact store owns, so one
    ``/metrics`` scrape shows the whole process.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._mu:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name, threading.Lock())
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._mu:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name, threading.Lock())
            return inst

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_LATENCY_EDGES_S,
    ) -> Histogram:
        with self._mu:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(
                    name, edges, threading.Lock()
                )
            elif inst.edges != tuple(float(e) for e in edges):
                raise ValueError(
                    f"histogram {name!r} already registered with edges "
                    f"{inst.edges}"
                )
            return inst

    def counter_values(self, prefix: str = "") -> Dict[str, Number]:
        """Current values of the counters whose names start with
        ``prefix``; creates none."""
        with self._mu:
            counters = [c for n, c in self._counters.items()
                        if n.startswith(prefix)]
        return {c.name: c.value for c in counters}

    def snapshot(self) -> Dict:
        """A JSON-safe view of every instrument (plain ints/floats,
        names sorted by :func:`dumps_snapshot` at encode time)."""
        with self._mu:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "schema": OBS_SCHEMA,
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": {n: h.view() for n, h in histograms.items()},
        }

    def snapshot_json(self) -> str:
        """The canonical (byte-stable) encoding of :meth:`snapshot`."""
        return dumps_snapshot(self.snapshot())
