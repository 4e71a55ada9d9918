"""``service-mixed``: the bound server under a closed loop of tenants.

A run is a series of sessions.  Each session starts a ``repro serve``
child on an empty store, and two client threads each send 1,000
requests, the next as soon as the previous reply arrives (tenants are
sweep cells that wait for each answer).  Requests are drawn from a
seeded catalog of ``/v1/{compiled,schedule,bound,pebble}`` queries with
Zipf-skewed popularity, so after warm-up hits (store reads) dominate
while first requests compute and write.  About 1% of requests scrape
``GET /metrics`` or ``GET /stats``.  The catalog's shape (160 queries,
Zipf exponent 0.8, the endpoint cycle, the 1% scrape share) is assumed
traffic: no tenant traffic has been recorded to derive it from.

A session serves a fixed number of requests, so the server's memory,
read at its end, describes the same amount of work whatever the
server's speed.  Rates and latency percentiles are taken over the
requests of all sessions (about 10,000 in a 30 s run), each request's
time scaled by its session's host-speed factor.  The server leaks a
SQLite connection per request; ``service.leak_kb_per_req`` and
``service.fds_per_req`` report that growth.

After each session's timed loop a seeded sample of the served queries
is fetched again and compared byte for byte with the library's
``fresh_*`` computation of the same query.  A non-2xx response or a
transport error fails its request and counts as lasting the whole
session, so it misses every latency limit.
"""

from __future__ import annotations

import re
import sys
import threading
import time

import numpy as np
from repro.evaluation.manifest import dumps_canonical
from repro.service import ServiceClient
from repro.store import (
    artifact_key,
    compiled_spec,
    fresh_bound,
    fresh_compiled_payload,
    fresh_schedule,
    fresh_spill,
    unpack_arrays,
)

from .common import (
    Run,
    child_env,
    median,
    open_fds,
    peak_rss_mb,
    percentile,
    private_rss_mb,
    start_until_ready,
    stop,
)

CLIENTS = 2
#: requests each client sends per session; the server's memory is read
#: after these 2,000 requests
REQUESTS_PER_CLIENT = 1000
CATALOG_SIZE = 160
ZIPF_S = 0.8
SCRAPE_SHARE = 0.01
SAMPLE_PER_ENDPOINT = 1
#: endpoint of catalog rank ``i`` is ``ENDPOINTS[i % 7]`` and its graph
#: family cycles with ``i // 7``: every seed sends the same mix of
#: endpoints and families, and the seed only picks sizes and seeds
ENDPOINTS = ("bound", "compiled", "schedule", "pebble", "bound",
             "compiled", "schedule")
GRAPHS = ("chain", "tree", "diamond", "grid", "butterfly", "pyramid",
          "outer", "forest")
PEBBLE_WORKLOADS = ("star", "chains", "forest")


def _graph(builder, rng, tiny):
    """Seeded (params, seed) of one query target of family ``builder``."""
    def pick(lo, hi):
        return int(rng.integers(lo, hi + 1)) // (2 if tiny else 1)

    params = {
        "chain": lambda: {"length": pick(48, 80)},
        "tree": lambda: {"num_leaves": pick(48, 80), "arity": 2},
        "diamond": lambda: {"width": pick(8, 12), "depth": pick(8, 12)},
        "grid": lambda: {"shape": [pick(6, 9), pick(6, 9)],
                         "timesteps": 2},
        "butterfly": lambda: {"log_n": 4 + int(rng.integers(0, 2))},
        "pyramid": lambda: {"base": pick(12, 20)},
        "outer": lambda: {"n": pick(6, 10)},
        "forest": lambda: {"components": 3, "component_size": pick(8, 12)},
    }[builder]()
    seed = int(rng.integers(0, 1000)) if builder == "forest" else 0
    return params, seed


def make_catalog(seed: int, tiny: bool):
    """Seeded list of ``(path, body)`` queries, most popular first."""
    rng = np.random.default_rng([seed, 1])
    size = 28 if tiny else CATALOG_SIZE
    catalog = []
    seen = set()
    i = 0
    while len(catalog) < size:
        endpoint = ENDPOINTS[len(catalog) % len(ENDPOINTS)]
        family = i // len(ENDPOINTS)
        i += 1
        if endpoint == "pebble":
            params = {
                "workload": PEBBLE_WORKLOADS[family % 3],
                "ops": int(rng.integers(16, 33 if tiny else 65)),
                "chains": int(rng.integers(6, 11)),
                "length": int(rng.integers(12, 21)),
                "policy": ("lru", "belady")[int(rng.integers(0, 2))],
            }
            body = {"params": params, "seed": int(rng.integers(0, 1000))}
        else:
            builder = GRAPHS[family % len(GRAPHS)]
            params, gseed = _graph(builder, rng, tiny)
            body = {"builder": builder, "params": params, "seed": gseed}
            if endpoint == "schedule":
                body["kind"] = ("dfs", "minlive")[int(rng.integers(0, 2))]
            elif endpoint == "bound":
                body["s"] = int(rng.integers(2, 9))
        key = dumps_canonical([endpoint, body], indent=None)
        if key not in seen:  # a repeat draws again for the same rank
            seen.add(key)
            catalog.append((f"/v1/{endpoint}", body))
    return catalog


def zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_S
    return np.cumsum(weights) / weights.sum()


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def expected_response(path: str, body: dict) -> dict:
    """The response a correct server gives for ``body``, computed with
    the library's ``fresh_*`` functions (no store), minus ``cached``."""
    builder, params, seed = body.get("builder"), body.get("params"), \
        int(body.get("seed", 0))
    if path == "/v1/compiled":
        payload = fresh_compiled_payload(builder, params, seed)
        _arrays, meta = unpack_arrays(payload)
        return {"key": artifact_key("compiled",
                                    compiled_spec(builder, params, seed)),
                "n": meta["n"], "m": meta["m"], "nbytes": len(payload)}
    if path == "/v1/schedule":
        spec = compiled_spec(builder, params, seed)
        spec["schedule"] = body["kind"]
        ids = fresh_schedule(builder, params, seed, body["kind"])
        return {"key": artifact_key("schedule", spec), "kind": body["kind"],
                "length": int(ids.size), "ids": ids.tolist()}
    if path == "/v1/bound":
        spec = compiled_spec(builder, params, seed)
        spec.update(s=body["s"], method="wavefront", max_candidates=32)
        return {"key": artifact_key("bound", spec),
                **fresh_bound(builder, params, seed, s=body["s"])}
    return fresh_spill(params, seed)


def check_response(path: str, body: dict, response: dict) -> str:
    """Failure message unless ``response`` is byte-equal (canonical
    JSON, ``cached`` flag aside) to the fresh computation."""
    got = {k: v for k, v in response.items() if k != "cached"}
    want = expected_response(path, body)
    if dumps_canonical(got, indent=None) != dumps_canonical(want, indent=None):
        return f"{path} {dumps_canonical(body, indent=None)}: served " \
               f"{dumps_canonical(got, indent=None)[:200]} != fresh " \
               f"{dumps_canonical(want, indent=None)[:200]}"
    return ""


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
def start_server(run: Run, index: int, log):
    """Start ``repro serve`` on a fresh store; returns (seconds until
    ``/health`` answered, process, client)."""
    argv = [sys.executable, "-m", "repro.cli", "serve",
            "--db", str(run.work / f"store{index}.db"), "--port", "0"]
    t0 = time.perf_counter()
    _s, proc, line = start_until_ready(argv, child_env(run.root, run.work),
                                       run.root, "repro service listening",
                                       log)
    url = re.search(r"http://\S+", line).group(0)
    client = ServiceClient(url, timeout_s=60.0)
    try:
        client.health()
    except BaseException:
        stop(proc)
        raise
    return time.perf_counter() - t0, proc, client


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Tenant(threading.Thread):
    """One closed-loop client: it sends ``count`` requests, each as soon
    as the reply to the previous one arrived."""

    def __init__(self, run, session, index, url, catalog, cdf, count):
        super().__init__(name=f"tenant{index}", daemon=True)
        self.run_ = run
        self.session = session
        self.index = index
        self.client = ServiceClient(url, timeout_s=60.0)
        self.catalog = catalog
        self.cdf = cdf
        self.count = count
        self.rng = np.random.default_rng([run.seed, 2, session, index])
        #: (path, catalog index or -1, seconds, ok, cached, traced)
        self.results = []
        self.error = None

    def run(self):  # noqa: D401 - threading.Thread API
        try:
            self._loop()
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc

    def _loop(self):
        bench = self.run_
        for n in range(self.count):
            tracer = bench.tracer_for(n)
            rid = f"s{self.session}.t{self.index}.{n}"
            if self.rng.random() < SCRAPE_SHARE:
                idx = -1
                path = "/metrics" if self.rng.random() < 0.5 else "/stats"
                name = "obs.scrape" if path == "/metrics" else \
                    "service.request"
            else:
                idx = int(np.searchsorted(self.cdf, self.rng.random()))
                path, body = self.catalog[idx]
                name = "service.request"
            t0 = time.perf_counter()
            ok, cached = True, None
            with tracer.span("bench.request", rid):
                with tracer.span(name, rid):
                    try:
                        if idx < 0:
                            self.client.get(path)
                        else:
                            cached = self.client.post(path, body)["cached"]
                    except Exception:  # counted as a failed request
                        ok = False
            self.results.append((path, idx, time.perf_counter() - t0, ok,
                                 cached, tracer.enabled))


def session(run: Run, index: int, catalog, cdf, log) -> dict:
    """Start a server on an empty store, drive it with the closed loop,
    check a sample of what it served, stop it; returns the session's
    figures, times scaled to the reference box's speed."""
    run.clock.mark()
    start_s, proc, client = start_server(run, index, log)
    try:
        start_s = run.clock.scale(start_s)
        base_mb, base_fds = private_rss_mb(proc.pid), open_fds(proc.pid)
        tenants = [Tenant(run, index, i, client.base_url, catalog, cdf,
                          REQUESTS_PER_CLIENT // (10 if run.tiny else 1))
                   for i in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in tenants:
            t.start()
        for t in tenants:  # a hung server fails the run within 120 s
            t.join(max(t0 + 120 - time.perf_counter(), 0.0))
        wall = time.perf_counter() - t0
        factor = run.clock.scale(wall) / wall
        for t in tenants:
            if t.is_alive() or t.error is not None:
                raise RuntimeError(f"{t.name} did not finish: {t.error}")
        server_mb, fds = private_rss_mb(proc.pid), open_fds(proc.pid)
        stats = client.stats()["store"]
        results = [r for t in tenants for r in t.results]
        sample_checks(run, index, client, catalog, results)
    finally:
        stop(proc)
    return {"start_s": start_s, "wall": wall, "factor": factor,
            "results": results, "stats": stats, "server_mb": server_mb,
            "leak_kb": (server_mb - base_mb) * 1024 / len(results),
            "fds": (fds - base_fds) / len(results)}


def main(run: Run) -> None:
    catalog = make_catalog(run.seed, run.tiny)
    cdf = zipf_cdf(len(catalog))
    sessions = []
    started = time.perf_counter()
    with open(run.work / "server.log", "w") as log:
        while not run.expired(started, len(sessions)):
            sessions.append(session(run, len(sessions), catalog, cdf, log))
    summarize(run, sessions)


def sample_checks(run, index, client, catalog, results):
    """Re-fetch a seeded sample of served queries (now store hits) and
    compare each with a fresh computation."""
    served = sorted({r[1] for r in results if r[3] and r[1] >= 0})
    rng = np.random.default_rng([run.seed, 3, index])
    by_path = {}
    for idx in rng.permutation(served).tolist():
        by_path.setdefault(catalog[idx][0], []).append(idx)
    for path, indices in sorted(by_path.items()):
        for idx in indices[:SAMPLE_PER_ENDPOINT]:
            body = dict(catalog[idx][1])
            if path == "/v1/schedule":
                body["include_ids"] = True
            try:
                response = client.post(path, body)
                problem = check_response(path, catalog[idx][1], response)
            except Exception as exc:  # a failed check, not a crash
                problem = f"{path}: {type(exc).__name__}: {exc}"
            run.record(not problem, problem)


def summarize(run, sessions):
    """Figures of the run, over the requests of every session.  Each
    request's time is scaled by its session's host-speed factor.  A
    failed request counts as lasting its whole session: it misses any
    latency limit, and the figure stays a finite number."""
    lat, hits, misses, scrapes = [], [], [], []
    served = 0
    for s in sessions:
        f = s["factor"]
        for path, idx, w, ok, cached, traced in s["results"]:
            run.record(ok, "" if ok else f"{path} request failed")
            lat.append((w if ok else s["wall"]) * f)
            if not ok:
                continue
            served += 1
            if cached:  # store hits are compared for the tracing overhead
                hits.append(w * f)
                run.unit_done(traced, w * f)
            elif idx >= 0:
                misses.append(w * f)
            elif path == "/metrics":
                scrapes.append(w * f)
    rate = served / sum(s["wall"] * s["factor"] for s in sessions)
    p50, p99 = median(lat), percentile(lat, 99)
    counters = {k: sum(s["stats"]["counters"][k] for s in sessions)
                for k in ("hits", "misses", "puts")}
    lookups = counters["hits"] + counters["misses"]
    server_mb = median([s["server_mb"] for s in sessions])
    run.e2e["setup_s"] = median([s["start_s"] for s in sessions])
    run.e2e["peak_rss_mb"] = peak_rss_mb() + server_mb
    run.e2e["work_per_s"] = rate
    run.e2e["op_ms"] = p50 * 1e3
    run.layers.update({
        "service.requests": len(lat),
        "service.errors": len(lat) - served,
        "service.hit_p50_ms": median(hits) * 1e3 if hits else 0.0,
        "service.miss_p50_ms": median(misses) * 1e3 if misses else 0.0,
        "service.p99_ms": p99 * 1e3,
        "service.leak_kb_per_req": median([s["leak_kb"] for s in sessions]),
        "service.fds_per_req": median([s["fds"] for s in sessions]),
        "store.hit_rate": counters["hits"] / lookups if lookups else 0.0,
        "store.hits": counters["hits"],
        "store.misses": counters["misses"],
        "store.puts": counters["puts"],
        "store.db_bytes": median([s["stats"]["db_bytes"] for s in sessions]),
        "obs.scrape_ms": median(scrapes) * 1e3 if scrapes else 0.0,
    })
    run.report.update({
        "service.req_per_s": (rate, "req/s"),
        "service.p50_ms": (p50 * 1e3, "ms"),
        "service.p99_ms": (p99 * 1e3, "ms"),
        "service.sessions": (len(sessions), "count"),
        "service.requests": (len(lat), "count"),
        "service.beyond_p99": (sum(1 for x in lat if x > p99), "count"),
        "service.hit_share": (len(hits) / max(len(hits) + len(misses), 1),
                              "ratio"),
        "service.server_private_mb": (server_mb, "MB"),
        "wall.work_per_s": (served / sum(s["wall"] for s in sessions),
                            "req/s"),
    })
