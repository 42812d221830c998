"""HTTP front end: protocol, taxonomy, quotas, shedding, stats."""

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro import compress, decompress
from repro.serve import CompressionService, HttpConfig, HttpFrontend, TokenBucket
from repro.serve.http import parse_hostport


# -- raw asyncio test client -------------------------------------------------

async def _request(port, method, path, headers=None, body=b""):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        hdrs = {"connection": "close", "content-length": str(len(body))}
        if headers:
            hdrs.update(headers)
        lines = [f"{method} {path} HTTP/1.1", "host: test"]
        lines += [f"{k}: {v}" for k, v in hdrs.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        resp = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            k, _, v = line.decode("latin-1").partition(":")
            resp[k.strip().lower()] = v.strip()
        payload = await reader.readexactly(int(resp.get("content-length", 0)))
        return status, resp, payload
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


@contextlib.asynccontextmanager
async def _frontend(service, **cfg_kwargs):
    cfg_kwargs.setdefault("port", 0)
    fe = HttpFrontend(service, HttpConfig(**cfg_kwargs))
    await fe.start()
    try:
        yield fe
    finally:
        await fe.stop()


@pytest.fixture(scope="module")
def service():
    with CompressionService(workers=2, backend="thread") as svc:
        yield svc


# -- pure units --------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_empty(self):
        t = [0.0]
        b = TokenBucket(rate=1.0, burst=3.0, clock=lambda: t[0])
        assert all(b.try_acquire() for _ in range(3))
        assert not b.try_acquire()
        assert b.retry_after() == pytest.approx(1.0)

    def test_refill_over_time(self):
        t = [0.0]
        b = TokenBucket(rate=2.0, burst=2.0, clock=lambda: t[0])
        assert b.try_acquire(2.0)
        assert not b.try_acquire()
        t[0] = 0.5  # 1 token back
        assert b.try_acquire()
        assert not b.try_acquire()

    def test_burst_caps_refill(self):
        t = [0.0]
        b = TokenBucket(rate=100.0, burst=2.0, clock=lambda: t[0])
        t[0] = 1000.0
        assert b.try_acquire(2.0)
        assert not b.try_acquire(1.0)

    def test_zero_rate_retry_after(self):
        b = TokenBucket(rate=0.0, burst=1.0, clock=lambda: 0.0)
        assert b.try_acquire()
        assert b.retry_after() == 60.0


class TestParseHostport:
    @pytest.mark.parametrize("spec,expect", [
        (":8080", ("127.0.0.1", 8080)),
        ("0.0.0.0:9001", ("0.0.0.0", 9001)),
        ("9090", ("127.0.0.1", 9090)),
        ("myhost:", ("myhost", 8080)),
        ("myhost", ("myhost", 8080)),
        ("", ("127.0.0.1", 8080)),
    ])
    def test_specs(self, spec, expect):
        assert parse_hostport(spec) == expect


# -- end-to-end protocol -----------------------------------------------------

class TestRoundtrip:
    def test_compress_then_decompress_matches_library(self, service):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(20_000).astype(np.float32)

        async def go():
            async with _frontend(service) as fe:
                st, hdrs, blob = await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3",
                    headers={"x-dtype": "float32", "x-shape": "20000"},
                    body=data.tobytes(),
                )
                assert st == 200
                assert hdrs["content-type"] == "application/octet-stream"
                assert int(hdrs["x-uncompressed-bytes"]) == data.nbytes
                st2, hdrs2, raw = await _request(
                    fe.port, "POST", "/v1/decompress", body=bytes(blob)
                )
                assert st2 == 200
                assert hdrs2["x-dtype"] == "float32"
                assert hdrs2["x-shape"] == "20000"
                return bytes(blob), raw

        blob, raw = asyncio.run(go())
        # the HTTP path produces the same stream the library does
        ref = compress(data, rel=1e-3)
        assert bytes(np.asarray(ref, dtype=np.uint8).tobytes()) == blob
        recon = np.frombuffer(raw, dtype=np.float32)
        assert np.array_equal(recon, decompress(ref))

    def test_healthz_and_keepalive(self, service):
        async def go():
            async with _frontend(service) as fe:
                # two requests over one connection
                reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)
                try:
                    for _ in range(2):
                        writer.write(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n")
                        await writer.drain()
                        status = (await reader.readline()).split()[1]
                        assert status == b"200"
                        n = 0
                        while True:
                            line = await reader.readline()
                            if line in (b"\r\n", b""):
                                break
                            if line.lower().startswith(b"content-length"):
                                n = int(line.split(b":")[1])
                        assert await reader.readexactly(n) == b"ok\n"
                finally:
                    writer.close()
                    with contextlib.suppress(Exception):
                        await writer.wait_closed()

        asyncio.run(go())

    def test_stats_endpoint_matches_registry(self, service):
        async def go():
            async with _frontend(service) as fe:
                st, hdrs, body = await _request(fe.port, "GET", "/v1/stats")
                assert st == 200
                assert hdrs["content-type"] == "application/json"
                return json.loads(body)

        snap = asyncio.run(go())
        ref = service.stats_snapshot()
        assert set(snap) == set(ref)
        assert snap["counters"]["http.requests"] >= 1
        assert set(snap["cache"]) == set(ref["cache"])
        # the served snapshot is the same registry, one tick earlier
        for name in ref["counters"]:
            if not name.startswith("http."):
                assert snap["counters"][name] == ref["counters"][name]


class TestTaxonomy400:
    @pytest.mark.parametrize("path,headers,body", [
        ("/v1/compress", {}, b"\x00" * 16),  # no error bound
        ("/v1/compress?rel=1e-3&abs=1.0", {}, b"\x00" * 16),  # both bounds
        ("/v1/compress?rel=banana", {}, b"\x00" * 16),
        ("/v1/compress?rel=1e-3", {"x-dtype": "notadtype"}, b"\x00" * 16),
        ("/v1/compress?rel=1e-3", {"x-shape": "4,x"}, b"\x00" * 16),
        ("/v1/compress?rel=1e-3", {"x-shape": "9999"}, b"\x00" * 16),  # mismatch
        ("/v1/compress?rel=1e-3", {}, b"\x00" * 7),  # ragged float32 body
        ("/v1/compress?rel=1e-3", {"x-deadline-ms": "soon"}, b"\x00" * 16),
        ("/v1/decompress", {}, b""),  # empty body
    ])
    def test_client_errors_are_labelled(self, service, path, headers, body):
        async def go():
            async with _frontend(service) as fe:
                return await _request(fe.port, "POST", path, headers, body)

        st, hdrs, payload = asyncio.run(go())
        assert st == 400
        assert hdrs["content-type"] == "application/json"
        err = json.loads(payload)
        assert err["error"] == "client"
        assert err["detail"]

    def test_mode_for_codec_without_one_is_client_error(self):
        """``?mode=`` is validated against the configured codec's options,
        not dropped when the codec has no mode."""
        body = np.linspace(0, 1, 256, dtype=np.float32).tobytes()

        async def go():
            with CompressionService(workers=1, codec="fzgpu") as svc:
                async with _frontend(svc) as fe:
                    bad = await _request(
                        fe.port, "POST", "/v1/compress?rel=1e-3&mode=plain", body=body
                    )
                    good = await _request(
                        fe.port, "POST", "/v1/compress?rel=1e-3", body=body
                    )
                    return bad, good

        (st, _, payload), (st_ok, _, _) = asyncio.run(go())
        assert st == 400
        err = json.loads(payload)
        assert err["error"] == "client"
        assert "mode" in err["detail"]
        assert st_ok == 200

    def test_garbage_stream_is_client_error(self, service):
        async def go():
            async with _frontend(service) as fe:
                return await _request(
                    fe.port, "POST", "/v1/decompress", body=b"not a stream"
                )

        st, _, payload = asyncio.run(go())
        assert st == 400
        assert json.loads(payload)["error"] == "client"

    def test_unknown_route_and_bad_method(self, service):
        async def go():
            async with _frontend(service) as fe:
                r404 = await _request(fe.port, "GET", "/v1/nope")
                r405 = await _request(fe.port, "GET", "/v1/compress?rel=1e-3")
                r405s = await _request(fe.port, "POST", "/v1/stats")
                rbad = await _request(fe.port, "POST", "/v1/compress",
                                      headers={"content-length": "wat"})
                return r404, r405, r405s, rbad

        r404, r405, r405s, rbad = asyncio.run(go())
        assert r404[0] == 404 and json.loads(r404[2])["error"] == "client"
        assert r405[0] == 405
        assert r405s[0] == 405
        assert rbad[0] == 400

    def test_oversized_body_is_413(self, service):
        async def go():
            async with _frontend(service, max_body_bytes=64) as fe:
                return await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3", body=b"\x00" * 128
                )

        st, _, payload = asyncio.run(go())
        assert st == 413
        assert json.loads(payload)["error"] == "client"


class TestOverload:
    def test_tenant_quota_isolated_429(self, service):
        async def go():
            async with _frontend(service, tenant_rate=0.001,
                                 tenant_burst=2.0) as fe:
                data = np.zeros(16, dtype=np.float32).tobytes()
                results = []
                for _ in range(3):
                    results.append(await _request(
                        fe.port, "POST", "/v1/compress?rel=1e-3",
                        headers={"x-tenant": "alice"}, body=data,
                    ))
                other = await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3",
                    headers={"x-tenant": "bob"}, body=data,
                )
                return results, other

        results, other = asyncio.run(go())
        assert [r[0] for r in results] == [200, 200, 429]
        st, hdrs, payload = results[2]
        assert json.loads(payload)["error"] == "quota"
        assert float(hdrs["retry-after"]) > 0
        # bob has his own bucket: unaffected by alice's exhaustion
        assert other[0] == 200

    def test_admission_control_503(self, service):
        async def go():
            async with _frontend(service, max_inflight=0) as fe:
                return await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3",
                    body=np.zeros(16, dtype=np.float32).tobytes(),
                )

        st, hdrs, payload = asyncio.run(go())
        assert st == 503
        assert json.loads(payload)["error"] == "backpressure"
        assert float(hdrs["retry-after"]) > 0

    def test_mixed_deadlines_concurrently(self, service):
        """Concurrent clients: expired deadlines shed 503, live ones 200."""
        data = np.arange(4096, dtype=np.float32).tobytes()

        async def go():
            async with _frontend(service) as fe:
                def req(deadline_ms):
                    return _request(
                        fe.port, "POST", "/v1/compress?rel=1e-3",
                        headers={"x-deadline-ms": deadline_ms}, body=data,
                    )

                outs = await asyncio.gather(
                    req("0"), req("30000"), req("0"), req("30000"), req("-5"),
                )
                snap = await _request(fe.port, "GET", "/v1/stats")
                return outs, json.loads(snap[2])

        outs, snap = asyncio.run(go())
        statuses = [o[0] for o in outs]
        assert statuses == [503, 200, 503, 200, 503]
        for o in (outs[0], outs[2], outs[4]):
            assert json.loads(o[2])["error"] == "deadline"
            assert "retry-after" in o[1]
        assert snap["counters"]["http.deadline_sheds"] >= 3
        assert snap["counters"]["http.errors.deadline"] >= 3
        assert snap["counters"]["http.status.503"] >= 3

    def test_default_deadline_applies_when_no_header(self, service):
        async def go():
            async with _frontend(service, default_deadline_ms=0.0) as fe:
                return await _request(
                    fe.port, "POST", "/v1/compress?rel=1e-3",
                    body=np.zeros(16, dtype=np.float32).tobytes(),
                )

        st, _, payload = asyncio.run(go())
        assert st == 503
        assert json.loads(payload)["error"] == "deadline"
