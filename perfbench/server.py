"""The ``http-small`` server process: ``CompressionService`` behind
``HttpFrontend`` (process backend, 1 worker, shm transport).

    python3 perfbench/server.py [--trace-out PATH]

Binds an ephemeral port on 127.0.0.1, serves one warm-up round trip to
itself through the service, then prints ``READY <port>`` and serves
until SIGTERM.  With ``--trace-out`` the service records spans and the
``content_key`` probe is timed; on SIGTERM the span totals and the
per-request breakdown are written to PATH as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from common import REL, stop_resource_tracker  # noqa: E402
from layers import CallTimers, request_breakdown, span_totals  # noqa: E402

SERVICE = {"workers": 1, "backend": "process", "transport": "shm"}
#: far above the offered 40 req/s: the benchmark measures latency, and
#: the default quota (50 req/s, burst 20) could refuse a late burst
TENANT = {"tenant_rate": 1000.0, "tenant_burst": 1000.0}


async def _serve(frontend, stop: asyncio.Event) -> None:
    await frontend.start()
    print(f"READY {frontend.port}", flush=True)
    await stop.wait()
    await frontend.stop()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    from repro.obs import Tracer
    from repro.serve import CompressionService, HttpConfig, HttpFrontend, ServiceConfig
    from repro.serve import service as service_mod

    tracer = Tracer() if args.trace_out else None
    svc = CompressionService(ServiceConfig(**SERVICE), tracer=tracer)
    timers = CallTimers()
    try:
        x = np.linspace(0.0, 1.0, 1 << 14, dtype=np.float32)
        svc.decompress(svc.compress(x, rel=REL).result(60), cache=False).result(60)
        if tracer is not None:
            tracer.clear()
            probe = timers.wrap(service_mod, "content_key")
        frontend = HttpFrontend(svc, HttpConfig(host="127.0.0.1", port=0, **TENANT))

        loop = asyncio.new_event_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        try:
            loop.run_until_complete(_serve(frontend, stop))
        finally:
            loop.close()
    finally:
        timers.restore()
        svc.close()
        stop_resource_tracker()
    if tracer is not None:
        roots = tracer.roots()
        out = {
            "totals": span_totals(roots),
            "requests": request_breakdown(roots),
            "cache_probe_s": probe["s"],
        }
        tmp = args.trace_out + ".tmp"
        with open(tmp, "w") as f:
            json.dump(out, f)
        os.replace(tmp, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
