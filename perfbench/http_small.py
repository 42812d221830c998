"""``http-small``: an open loop of small requests against an HTTP server
process.

Requests are due at a fixed 40 req/s, spread over 2 keep-alive
connections (one client thread each).  Request ``i`` is due at a seeded
point of its slot ``[i, i + 1) / 40 s``: the rate holds exactly, but the
arrivals do not lock in phase with the service's 20 ms poll loops, which
would otherwise set each run's latency quantiles by its start phase.
Each request is timed from its due time, not from when it was sent, so a
stall also charges the requests queued behind it; how late the generator
ran is reported as ``client.lateness_p99_ms`` and ``client.backlog_max``.

Bodies are float32 slices of log-uniform 4-256 KiB.  Half the requests
compress and half decompress.  A fixed share (``REPEAT_SHARE``) of the
decompress bodies resend a stream already sent and so hit the decode
cache; the rest are fresh.  All bodies are built before the clock
starts.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time

import numpy as np

import inputs
from common import MIB, REL, WORK, bound_violation, child_env, quantile, stream_eb_abs
from layers import ms_p, registry_metrics, serve_span_metrics
from phase import Phase
from server import SERVICE

HERE = os.path.dirname(os.path.abspath(__file__))
RATE = 40.0  # requests due per second
CONNECTIONS = 2
LIMIT_S = 0.050  # latency limit behind slo_met_frac
BODY_BYTES = (4 << 10, 256 << 10)  # log-uniform
SIZE_STRATA = 8
_GOLDEN = (math.sqrt(5) - 1) / 2
REPEAT_SHARE = 0.25  # of decompress requests: resend an earlier stream
#: a repeat resends a stream due at least this many requests earlier, so
#: its first decode has finished and been cached
REPEAT_GAP = 8
READY_TIMEOUT_S = 60.0


class _Server:
    """The server child process (``server.py``)."""

    def __init__(self, trace_out=None):
        cmd = [sys.executable, os.path.join(HERE, "server.py")]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), cwd=os.path.dirname(HERE),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"server did not become ready (got {line!r})")
        self.port = int(line.split()[1])

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()


class _Request:
    __slots__ = ("kind", "body", "original", "expected", "repeat",
                 "due", "sent", "done", "status", "resp", "headers", "error")

    def __init__(self, kind, body, original, expected=None, repeat=False):
        self.kind = kind  # "c" or "d"
        self.body = body
        self.original = original  # the float32 slice behind the body
        self.expected = expected  # library decode of a decompress body
        self.repeat = repeat
        self.due = self.sent = self.done = 0.0
        self.status = 0
        self.resp = b""
        self.headers = {}
        self.error = ""


class HttpSmall:
    name = "http-small"

    def prepare(self, seed: int, seconds: float) -> dict:
        from repro import codecs

        fields = inputs.float32_fields()
        rng = np.random.default_rng([seed, 0x4774])
        n = int(RATE * seconds)
        kinds = np.array(["c", "d"] * ((n + 1) // 2))[:n]
        rng.shuffle(kinds)
        # each kind draws its fresh bodies in shuffled blocks holding one
        # (field, size stratum) of every combination, and each field hands
        # out offsets along a golden-ratio sequence behind a seeded shift,
        # so the field, size and region mix -- and with it ratio -- is the
        # same for every seed
        cells = {"c": [], "d": []}
        offset = list(rng.uniform(0, 1, len(fields)))
        self.requests = []
        sizes = []
        lo, hi = (math.log(b) for b in BODY_BYTES)
        width = (hi - lo) / SIZE_STRATA
        for i, kind in enumerate(kinds):
            earlier = [
                r for r in self.requests[: max(0, i - REPEAT_GAP)]
                if r.kind == "d" and not r.repeat
            ]
            if kind == "d" and earlier and rng.random() < REPEAT_SHARE:
                src = earlier[int(rng.integers(len(earlier)))]
                self.requests.append(
                    _Request("d", src.body, src.original, src.expected, repeat=True)
                )
                continue
            if not cells[kind]:
                cells[kind] = [(f, k) for f in range(len(fields)) for k in range(SIZE_STRATA)]
                rng.shuffle(cells[kind])
            f, k = cells[kind].pop()
            base = fields[f]
            nelems = int(math.exp(rng.uniform(lo + k * width, lo + (k + 1) * width))) // 4
            offset[f] = (offset[f] + _GOLDEN) % 1.0
            start = int(offset[f] * (base.nelems - nelems))
            arr = base.read_flat(start, nelems)
            sizes.append(arr.nbytes)
            if kind == "c":
                self.requests.append(_Request("c", arr.tobytes(), arr))
            else:
                stream = codecs.encode(arr, "cuszp2", rel=REL)
                self.requests.append(
                    _Request("d", stream.tobytes(), arr, codecs.decode(stream))
                )
        # seeded arrival point within each request's slot
        self.slot_offsets = rng.uniform(0.0, 1.0, n)
        self.repeat_share = sum(r.repeat for r in self.requests) / max(
            1, sum(r.kind == "d" for r in self.requests)
        )
        return {
            "rate_per_s": RATE,
            "connections": CONNECTIONS,
            "requests": n,
            "body_KiB_p50": float(np.median(sizes)) / 1024 if sizes else 0.0,
            "repeat_share_of_decompress": self.repeat_share,
            "service": SERVICE,
        }

    def setup(self, traced: bool):
        trace_out = None
        if traced:
            os.makedirs(WORK, exist_ok=True)
            trace_out = os.path.join(WORK, f"server-trace-{os.getpid()}.json")
        server = _Server(trace_out)
        server.get_json("/v1/stats")  # front end answers
        return server

    def close(self, server) -> None:
        server.close()

    def _client(self, port: int, mine, backlog: list) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            for k, r in enumerate(mine):
                now = time.perf_counter()
                if now < r.due:
                    time.sleep(r.due - now)
                r.sent = time.perf_counter()
                # requests of this connection already due but not sent
                backlog.append(sum(1 for q in mine[k:] if q.due <= r.sent))
                if r.kind == "c":
                    path = f"/v1/compress?rel={REL}"
                    hdrs = {"X-Dtype": "float32"}
                else:
                    path, hdrs = "/v1/decompress", {}
                try:
                    conn.request("POST", path, body=r.body, headers=hdrs)
                    resp = conn.getresponse()
                    r.resp = resp.read()
                    r.status = resp.status
                    r.headers = {k.lower(): v for k, v in resp.getheaders()}
                except (OSError, http.client.HTTPException) as e:
                    r.error = f"{type(e).__name__}: {e}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                r.done = time.perf_counter()
        finally:
            conn.close()

    def _check(self, r: _Request):
        """Diagnosis of a wrong answer, or None."""
        from repro import codecs
        from repro.serve import chunked

        if r.kind == "c":
            stream = np.frombuffer(r.resp, dtype=np.uint8)
            if chunked.is_chunked(stream):
                recon = chunked.decompress_chunked(stream)
            else:
                recon = codecs.decode(stream)
            return bound_violation(r.original, recon.reshape(r.original.shape),
                                   stream_eb_abs(stream))
        shape = tuple(int(s) for s in r.headers.get("x-shape", "").split(",") if s)
        got = np.frombuffer(r.resp, dtype=r.headers.get("x-dtype", "float32"))
        if got.size != r.expected.size or not np.array_equal(got.reshape(shape), r.expected):
            return "HTTP decode != library decode of the same stream"
        return bound_violation(r.original, got.reshape(r.original.shape),
                               stream_eb_abs(np.frombuffer(r.body, dtype=np.uint8)))

    def measure(self, server, seconds: float, traced: bool) -> Phase:
        n = int(RATE * seconds)
        reqs = [
            _Request(r.kind, r.body, r.original, r.expected, r.repeat)
            for r in self.requests[:n]
        ]
        stats0 = server.get_json("/v1/stats")
        t0 = time.perf_counter() + 0.05
        for i, r in enumerate(reqs):
            r.due = t0 + (i + self.slot_offsets[i]) / RATE
        backlogs = [[] for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(
                target=self._client,
                args=(server.port, reqs[k::CONNECTIONS], backlogs[k]),
            )
            for k in range(CONNECTIONS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        ph = Phase()
        ph.wall_s = max(r.done for r in reqs) - t0
        sent_lat = {"c": [], "d": []}
        for r in reqs:
            ph.attempted += 1
            lat = r.done - r.due
            if r.error or r.status != 200:
                ph.fail(r.error or f"HTTP {r.status}: {r.resp[:200]!r}")
                continue
            bad = self._check(r)
            if bad:
                ph.fail(f"{r.kind} request: {bad}", wrong=True)
                continue
            ph.ops += 1
            ph.slo_ok += lat <= LIMIT_S
            sent_lat[r.kind].append(r.done - r.sent)
            if r.kind == "c":
                ph.c_lat.append(lat)
                ph.c_time += lat
                ph.c_bytes += len(r.body)
                ph.ratio_in += len(r.body)
                ph.ratio_out += len(r.resp)
            else:
                ph.d_lat.append(lat)
                ph.d_time += lat
                ph.d_bytes += len(r.resp)

        # open loop: MiB/s is what was served per second of the run, which
        # matches the offered load while the server keeps up (latency is
        # what the percentiles report)
        ph.summary = {
            "compress_MiBps": ph.c_bytes / MIB / ph.wall_s,
            "decompress_MiBps": ph.d_bytes / MIB / ph.wall_s,
        }
        lateness = [r.sent - r.due for r in reqs]
        flat_backlog = [b for bl in backlogs for b in bl]
        q = max(1, len(reqs) // 4)
        growing = (
            quantile(lateness[-q:], 0.99) > LIMIT_S
            and max(lateness[-q:]) > 2 * max(lateness[:q]) + 1.0 / RATE
        )
        if growing:
            print("warning: http-small backlog grew during the run; its latency "
                  "figures describe an overloaded generator", file=sys.stderr)
        ph.info = {
            "requests": n,
            "latency_samples": {"compress": len(ph.c_lat), "decompress": len(ph.d_lat)},
            # per-request latencies in ms, in due order, for offline study
            "latency_ms": {
                "compress": [round(x * 1000, 2) for x in ph.c_lat],
                "decompress": [round(x * 1000, 2) for x in ph.d_lat],
            },
            "repeat_share_of_decompress": self.repeat_share,
            "backlog_growing": growing,
        }
        ph.layer.update({
            "client.lateness_p99_ms": ms_p(lateness, 0.99),
            "client.backlog_max": float(max(flat_backlog, default=0)),
            "client.backlog_growing": float(growing),
        })
        if traced:
            stats1 = server.get_json("/v1/stats")
            server.close()  # writes the span summary
            with open(server.trace_out) as f:
                summary = json.load(f)
            os.unlink(server.trace_out)
            op_s = sum(r.done - r.sent for r in reqs if r.status == 200)
            ph.layer.update(registry_metrics(stats1, stats0))
            ph.layer.update(serve_span_metrics(summary["totals"], summary["requests"], op_s))
            ph.layer["cache.probe_s"] = summary["cache_probe_s"]
            svc_lat = summary["requests"]["service.compress"] + summary["requests"]["service.decompress"]
            ph.layer["http.overhead_p50_ms"] = ms_p(
                sent_lat["c"] + sent_lat["d"], 0.5
            ) - ms_p(svc_lat, 0.5)
            c1, c0 = stats1["counters"], stats0["counters"]
            ph.layer["http.rejects"] = sum(
                c1.get(k, 0.0) - c0.get(k, 0.0)
                for k in ("http.quota_rejects", "http.admission_rejects",
                          "http.deadline_sheds")
            )
        return ph
