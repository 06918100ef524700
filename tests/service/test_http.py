"""Tests for the stdlib HTTP adapter (:mod:`repro.service.http`).

Boots a real server on an OS-assigned port inside each scenario's event
loop and drives it with a raw ``asyncio.open_connection`` client — the
same stdlib-only stack the CI smoke job uses.
"""

import asyncio
import json

import pytest

from repro.service.core import DiversificationService, ServiceConfig
from repro.service.http import ServiceServer


async def http(port, method, path, payload=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = json.dumps(payload).encode() if payload is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ")[1])
    return status, json.loads(body_blob)


def scenario(coro_func, **config_overrides):
    """Boot a fresh service+server, run the scenario, tear down."""

    async def main():
        service = DiversificationService(ServiceConfig(**config_overrides))
        server = ServiceServer(service, port=0)
        await server.start()
        try:
            return await coro_func(service, server.port)
        finally:
            await server.stop()

    return asyncio.run(main())


DIVERSIFY = {"workload": "synthetic", "params": {"n": 40}, "k": 5}


class TestRoutes:
    def test_healthz(self):
        async def go(service, port):
            return await http(port, "GET", "/healthz")

        status, payload = scenario(go)
        assert status == 200
        assert payload["status"] == "ok"
        assert "synthetic" in payload["workloads"]

    def test_diversify(self):
        async def go(service, port):
            return await http(port, "POST", "/diversify", DIVERSIFY)

        status, payload = scenario(go)
        assert status == 200
        assert payload["feasible"] is True
        assert len(payload["rows"]) == 5
        assert len(payload["indices"]) == 5
        assert payload["cache"] == "computed"
        assert payload["elapsed_ms"] is not None

    def test_concurrent_duplicates_coalesce(self):
        async def go(service, port):
            results = await asyncio.gather(
                *[http(port, "POST", "/diversify", DIVERSIFY) for _ in range(8)]
            )
            _, stats = await http(port, "GET", "/stats")
            return results, stats, service

        results, stats, service = scenario(go)
        assert all(status == 200 for status, _ in results)
        assert len({json.dumps(body["value"]) for _, body in results}) == 1
        # over real sockets a request may land after the leader finished
        # (TTL hit rather than coalesce), but the engine must have built
        # exactly one kernel and run exactly one selection
        assert stats["requests"]["computed"] == 1
        provenance = [body["cache"] for _, body in results]
        assert provenance.count("computed") == 1
        assert all(p in ("computed", "coalesced", "cached") for p in provenance)
        assert stats["requests"]["coalesced"] + stats["result_cache"]["hits"] == 7
        assert stats["tenants"]["default"]["kernel_cache"]["misses"] == 1

    def test_sweep(self):
        async def go(service, port):
            return await http(
                port, "POST", "/sweep",
                {**DIVERSIFY, "ks": [2, 3], "lams": [0.2, 0.8]},
            )

        status, payload = scenario(go)
        assert status == 200
        assert len(payload["cells"]) == 4
        assert all(cell["feasible"] for cell in payload["cells"])

    def test_delta(self):
        async def go(service, port):
            first = await http(
                port, "POST", "/diversify", {"workload": "streaming", "k": 5}
            )
            moved = await http(
                port, "POST", "/delta",
                {"workload": "streaming", "events": 2, "k": 5},
            )
            return first, moved

        (s1, body1), (s2, body2) = scenario(go)
        assert s1 == 200 and s2 == 200
        assert len(body2["events"]) == 2
        assert body2["selection"]["feasible"] is True
        assert body2["kernel"]["patches"] == 1

    def test_stats_latency_sections(self):
        async def go(service, port):
            await http(port, "POST", "/diversify", DIVERSIFY)
            return await http(port, "GET", "/stats")

        status, stats = scenario(go)
        assert status == 200
        assert stats["latency"]["diversify"]["count"] == 1
        assert stats["latency"]["diversify"]["p95_ms"] is not None
        assert stats["config"]["result_ttl"] == 30.0


class TestErrorMapping:
    def test_unknown_route_404(self):
        async def go(service, port):
            return await http(port, "GET", "/nope")

        status, payload = scenario(go)
        assert status == 404
        assert "error" in payload

    def test_unknown_workload_404(self):
        async def go(service, port):
            return await http(port, "POST", "/diversify", {"workload": "nope"})

        status, payload = scenario(go)
        assert status == 404
        assert "unknown workload" in payload["error"]

    def test_bad_request_400(self):
        async def go(service, port):
            return (
                await http(port, "POST", "/diversify", {"workload": "synthetic",
                                                        "zap": 1}),
                await http(port, "POST", "/diversify", {"workload": "synthetic",
                                                        "k": "three"}),
                await http(port, "POST", "/delta", {"workload": "synthetic",
                                                    "events": 1}),
            )

        (s1, _), (s2, _), (s3, body3) = scenario(go)
        assert s1 == 400
        assert s2 == 400
        assert s3 == 400  # static workload has no update feed
        assert "update feed" in body3["error"]

    @pytest.mark.parametrize(
        ("workload", "params", "expected"),
        [
            ("synthetic", {"n": "abc"}, "'n' of workload 'synthetic' must be an integer"),
            ("corpus", {"num_docs": 0}, "'num_docs' of workload 'corpus' must be >= 1"),
            ("synthetic", {"n": -5}, "'n' of workload 'synthetic' must be >= 1"),
            ("corpus", {"seed": -1}, "'seed' of workload 'corpus' must be >= 0"),
        ],
        ids=["non-integer-size", "zero-corpus-size", "negative-size", "negative-seed"],
    )
    def test_bad_workload_param_400(self, workload, params, expected):
        """Malformed registry params are rejected up front, naming the
        parameter, instead of failing inside a generator (a 500) or
        silently building an infeasible instance."""

        async def go(service, port):
            return await http(
                port, "POST", "/diversify", {"workload": workload, "params": params}
            )

        status, payload = scenario(go)
        assert status == 400
        assert expected in payload["error"]

    def test_method_not_allowed_405(self):
        async def go(service, port):
            return (
                await http(port, "GET", "/diversify"),
                await http(port, "POST", "/healthz", {}),
            )

        (s1, _), (s2, _) = scenario(go)
        assert s1 == 405
        assert s2 == 405

    def test_quota_429(self):
        async def go(service, port):
            return await http(
                port, "POST", "/diversify", {"workload": "synthetic", "k": 9999}
            )

        status, payload = scenario(go, max_k=100)
        assert status == 429
        assert "max_k" in payload["error"]

    def test_malformed_json_400(self):
        async def go(service, port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = b"{not json"
            writer.write(
                (
                    "POST /diversify HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return int(raw.split(b" ")[1])

        assert scenario(go) == 400
