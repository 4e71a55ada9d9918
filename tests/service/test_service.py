"""Tests for the memoized bound server (:mod:`repro.service`): endpoint
contracts, error mapping, concurrent single-flight behavior, and two
clients sharing one store."""

import os
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceError, make_server
from repro.store.analysis import fresh_bound, fresh_schedule, fresh_spill


@pytest.fixture
def server(tmp_path):
    srv = make_server(tmp_path / "svc.db", port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        thread.join(5.0)
        srv.service.close()
        srv.server_close()


@pytest.fixture
def client(server):
    return ServiceClient(f"http://127.0.0.1:{server.server_port}")


class TestIntrospection:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["store"].endswith("svc.db")

    @pytest.mark.parametrize("jump_s", [1e9, -1e9])
    def test_uptime_ignores_wall_clock_jumps(self, server, monkeypatch,
                                             jump_s):
        """Every uptime runs on the monotonic clock: a 1e9 s wall-clock
        step either way leaves it small and non-negative."""
        service = server.service
        monkeypatch.setattr(time, "time", lambda: time.monotonic() + jump_s)
        for view in (service.health(), service.stats(),
                     service.metrics_view()):
            assert 0 <= view["uptime_s"] < 1e6

    def test_stats_reports_traffic_and_store(self, client):
        client.bound(builder="chain", params={"length": 8}, s=2)
        client.bound(builder="chain", params={"length": 8}, s=2)
        stats = client.stats()
        assert stats["requests"]["POST /v1/bound"] == 2
        store = stats["store"]
        assert store["journal_mode"] == "wal"
        assert store["entries"] >= 2  # compiled + bound
        assert store["counters"]["puts"] >= 2
        assert 0 < store["hit_rate"] <= 1


class TestEndpoints:
    def test_bound_cold_then_warm(self, client):
        cold = client.bound(builder="diamond",
                            params={"width": 3, "depth": 3}, s=2)
        warm = client.bound(builder="diamond",
                            params={"width": 3, "depth": 3}, s=2)
        assert cold["cached"] is False and warm["cached"] is True
        expected = fresh_bound("diamond", {"width": 3, "depth": 3}, s=2)
        assert warm["value"] == cold["value"] == expected["value"]
        assert warm["key"] == cold["key"] and len(cold["key"]) == 64

    def test_bound_methods(self, client):
        analytical = client.bound(builder="butterfly",
                                  params={"log_n": 3}, s=2,
                                  method="analytical")
        assert analytical["value"] == fresh_bound(
            "butterfly", {"log_n": 3}, s=2, method="analytical"
        )["value"]
        hong_kung = client.bound(builder="chain", params={"length": 12},
                                 s=2, method="hong_kung", u_upper=40.0)
        assert hong_kung["value"] == fresh_bound(
            "chain", {"length": 12}, s=2, method="hong_kung", u_upper=40.0
        )["value"]

    def test_compiled(self, client):
        r = client.compiled(builder="grid",
                            params={"shape": [4, 4], "timesteps": 2})
        assert r["cached"] is False
        assert r["n"] > 0 and r["m"] > 0 and r["nbytes"] > 0
        assert client.compiled(
            builder="grid", params={"shape": [4, 4], "timesteps": 2}
        )["cached"] is True

    def test_schedule_with_ids(self, client):
        r = client.schedule(builder="chain", params={"length": 6},
                            kind="dfs", include_ids=True)
        expected = fresh_schedule("chain", {"length": 6}, kind="dfs")
        assert r["length"] == len(expected)
        assert r["ids"] == [int(i) for i in expected]
        # ids are omitted unless asked for
        r2 = client.schedule(builder="chain", params={"length": 6})
        assert "ids" not in r2 and r2["cached"] is True

    def test_pebble(self, client):
        params = {"workload": "star", "ops": 8, "degree": 3}
        r = client.pebble(params=params)
        expected = fresh_spill(params)
        assert r["moves"] == expected["moves"]
        assert r["io"] == expected["io"]
        assert client.pebble(params=params)["cached"] is True


class TestErrors:
    def test_unknown_builder_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.bound(builder="nope")
        assert exc.value.status == 400
        assert "unknown builder" in exc.value.message

    def test_unknown_param_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.compiled(builder="chain", params={"bogus": 1})
        assert exc.value.status == 400

    def test_missing_u_upper_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.bound(builder="chain", method="hong_kung")
        assert exc.value.status == 400
        assert "u_upper" in exc.value.message

    def test_pebble_workers_param_is_400(self, client):
        """``workers`` is not a spill param: refused as unknown."""
        with pytest.raises(ServiceError) as exc:
            client.pebble(params={"workload": "star", "workers": 2})
        assert exc.value.status == 400
        assert "unknown param 'workers'" in exc.value.message

    @pytest.mark.parametrize("workload", ["star", "chains"])
    def test_pebble_kernel_backend_is_400(self, client, workload):
        """``kernel`` is not a backend name; the refusal names the
        valid ones."""
        with pytest.raises(ServiceError) as exc:
            client.pebble(params={"workload": workload, "backend": "kernel"})
        assert exc.value.status == 400
        assert "('batched', 'dict')" in exc.value.message

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get("/v1/nothing")
        assert exc.value.status == 404

    def test_malformed_json_is_400(self, client):
        import urllib.request

        req = urllib.request.Request(
            client.base_url + "/v1/bound",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400


class TestConcurrency:
    def test_identical_concurrent_requests_single_flight(self, server,
                                                         client):
        """N identical in-flight bound queries compute once; the rest
        wait on the single-flight lock and read the published bytes."""
        results = []
        errors = []

        def worker():
            try:
                results.append(
                    client.bound(builder="grid",
                                 params={"shape": [6, 6], "timesteps": 2},
                                 s=4)
                )
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not errors
        assert len({r["value"] for r in results}) == 1
        assert len({r["key"] for r in results}) == 1
        counters = server.service.store.counters
        # one compiled + one bound artifact computed, everyone else hit
        assert counters["puts"] == 2
        assert sum(1 for r in results if not r["cached"]) <= 2

    def test_two_clients_share_one_store(self, server):
        """The CI concurrent-clients smoke: two independent clients see
        each other's artifacts through the shared store."""
        base = f"http://127.0.0.1:{server.server_port}"
        a, b = ServiceClient(base), ServiceClient(base)
        cold = a.bound(builder="tree", params={"num_leaves": 8}, s=2)
        warm = b.bound(builder="tree", params={"num_leaves": 8}, s=2)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["value"] == cold["value"]
        assert warm["key"] == cold["key"]


class TestConnectionLifetime:
    def test_request_threads_leave_no_connections_behind(self, server,
                                                         client):
        """Every request runs on its own thread; each must hand its store
        connection back, so fds and open connections stay flat."""
        fd_dir = "/proc/self/fd"
        if not os.path.isdir(fd_dir):
            pytest.skip("needs /proc/self/fd to count open files")
        store = server.service.store

        def traffic(n):
            for _ in range(n):
                client.bound(builder="chain", params={"length": 8}, s=2)
                client.stats()

        traffic(5)
        fds = len(os.listdir(fd_dir))
        conns = len(store._all_conns)
        traffic(60)  # 120 request threads
        # Releases land after the response, so a few requests may
        # overlap and park spare connections in the idle pool.
        assert len(store._all_conns) <= conns + store.idle_pool_size
        assert len(os.listdir(fd_dir)) <= fds + 3 * store.idle_pool_size

    def test_released_connection_is_reused_across_threads(self, tmp_path):
        from repro.store.db import ArtifactStore

        with ArtifactStore(tmp_path / "s.db") as store:
            key = "cd" * 32
            store.put(key, b"bytes", kind="bound")

            def use_and_release():
                assert store.get(key) == b"bytes"
                store.release_connection()

            for _ in range(10):
                t = threading.Thread(target=use_and_release)
                t.start()
                t.join(10.0)
            # the constructing thread's connection plus one pooled one
            assert len(store._all_conns) == 2
            assert len(store._idle_conns) == 1

    def test_release_after_close_is_a_no_op(self, tmp_path):
        from repro.store.db import ArtifactStore

        store = ArtifactStore(tmp_path / "s.db")
        got, closed, errors = threading.Event(), threading.Event(), []

        def request_thread():
            try:
                store.get("ef" * 32)
                got.set()
                closed.wait(10.0)
                store.release_connection()  # server shut down meanwhile
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        t = threading.Thread(target=request_thread)
        t.start()
        got.wait(10.0)
        store.close()
        closed.set()
        t.join(10.0)
        assert not errors
        assert store._all_conns == [] and store._idle_conns == []
