"""Per-layer accounting for traced runs, measured from outside the program.

Two instruments, both applied only in a ``--trace 1`` run:

* the spans the program already records (``repro.obs`` tracers: codec
  stages, chunk tasks, ``scheduler.wait``, ``pool.task.*``,
  ``service.*``, ``store.*``), summed by name;
* :class:`CallTimers`, which wraps a public function or method for the
  length of the traced phase and accumulates the time spent in it (for
  layers without spans: ``RandomAccessor`` decode/rewrite,
  ``content_key``, ``DecodeCache.get``).

Span timestamps are ``time.perf_counter`` values.  On Linux that is
``CLOCK_MONOTONIC``, shared by every process on the host, so a worker's
``pool.task.*`` start can be compared with the parent's
``scheduler.wait`` end to give the dispatch wait.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Dict, Iterable, List

from common import MIB, quantile

#: per-layer span names the program emits, by metric suffix
CORE_STAGES = {
    "quantize_s": "codec.quantize",
    "predict_s": "codec.predict",
    "fle_s": "codec.fle",
    "scan_s": "codec.scan",
    "pack_s": "codec.pack",
    "fle_decode_s": "codec.fle_decode",
    "undiff_s": "codec.undiff",
    "dequantize_s": "codec.dequantize",
}


class CallTimers:
    """Wrap ``owner.attr`` callables with wall-clock accumulators.

    ``wrap`` returns the accumulator dict (``s``, ``calls``, and a
    ``hits`` count when ``count_hits`` is set: calls that returned a value
    other than ``None``).  ``restore`` puts the originals back.
    """

    def __init__(self):
        self._saved: List[tuple] = []

    def wrap(self, owner, attr: str, count_hits: bool = False) -> dict:
        orig = getattr(owner, attr)
        acc = {"s": 0.0, "calls": 0, "hits": 0}

        @functools.wraps(orig)
        def timed(*a, **kw):
            t0 = time.perf_counter()
            try:
                out = orig(*a, **kw)
            finally:
                acc["s"] += time.perf_counter() - t0
                acc["calls"] += 1
            if count_hits and out is not None:
                acc["hits"] += 1
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, timed)
        return acc

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _walk(spans: Iterable):
    todo = list(spans)
    while todo:
        s = todo.pop()
        yield s
        todo.extend(s.children)


def span_totals(roots) -> dict:
    """Seconds and counts by span name, plus the computed bytes the core
    codec moved (input read + output written per compress/decompress)."""
    secs: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    moved = 0
    for s in _walk(roots):
        secs[s.name] += s.duration_s
        counts[s.name] += 1
        if s.name in ("codec.compress", "codec.decompress"):
            moved += int(s.attrs.get("bytes_in", 0)) + int(s.attrs.get("bytes_out", 0))
    return {"secs": dict(secs), "counts": dict(counts), "core_bytes_moved": moved}


def request_breakdown(roots) -> dict:
    """Per ``service.*`` request: latency, scheduler waits, dispatch
    waits (``scheduler.wait`` end to the worker's ``pool.task.*`` start)
    and the number of pool tasks (chunks) it fanned out to."""
    out = {
        "service.compress": [], "service.decompress": [],
        "wait": [], "dispatch": [], "tasks_per_compress": [],
    }
    for r in roots:
        if r.name not in ("service.compress", "service.decompress"):
            continue
        out[r.name].append(r.duration_s)
        waits = sorted(c.t1 for c in r.children if c.name == "scheduler.wait")
        out["wait"].extend(
            c.duration_s for c in r.children if c.name == "scheduler.wait"
        )
        tasks = [s for s in _walk([r]) if s.name.startswith("pool.task.")]
        for t in tasks:
            before = [w for w in waits if w <= t.t0]
            if before:
                out["dispatch"].append(t.t0 - before[-1])
        if r.name == "service.compress":
            out["tasks_per_compress"].append(len(tasks))
    return out


def core_metrics(tot: dict, op_wall_s: float) -> dict:
    """The ``core.*`` and ``codecs.*`` metrics from :func:`span_totals`."""
    secs = tot["secs"]
    busy_c = secs.get("codec.compress", 0.0)
    busy_d = secs.get("codec.decompress", 0.0)
    m = {
        "core.compress_busy_s": busy_c,
        "core.decompress_busy_s": busy_d,
        "core.bytes_moved_computed": tot["core_bytes_moved"] / MIB,
        "core.busy_share": (busy_c + busy_d) / op_wall_s if op_wall_s > 0 else 0.0,
        # plugin time minus the core time nested inside it; 0 where the
        # plugin layer is not on the path (serve tasks call the core)
        "codecs.encode_self_s": max(secs.get("codec.cuszp2.compress", 0.0) - busy_c, 0.0)
        if "codec.cuszp2.compress" in secs else 0.0,
        "codecs.decode_self_s": max(secs.get("codec.cuszp2.decompress", 0.0) - busy_d, 0.0)
        if "codec.cuszp2.decompress" in secs else 0.0,
    }
    for suffix, span in CORE_STAGES.items():
        m["core." + suffix] = secs.get(span, 0.0)
    return m


def ms_p(values, q: float) -> float:
    return 1000.0 * quantile(values, q)


def registry_metrics(snap: dict, snap0: dict) -> dict:
    """Per-layer metrics read from a ``stats_snapshot()`` (or the
    ``GET /v1/stats`` body); counters are taken as deltas against
    ``snap0``, the snapshot at the start of the traced phase."""

    def c(name: str) -> float:
        return snap["counters"].get(name, 0.0) - snap0["counters"].get(name, 0.0)

    def cache(name: str) -> float:
        return snap["cache"].get(name, 0) - snap0["cache"].get(name, 0)

    hist = snap["histograms"]
    shm_disp = c("pool.transport.dispatch_shm_bytes")
    shm_res = c("pool.transport.result_shm_bytes")
    pickled = c("pool.transport.dispatch_pickled_bytes") + c(
        "pool.transport.result_pickled_bytes"
    )
    hits, misses = cache("hits"), cache("misses")
    dispatches = c("scheduler.dispatches")
    degraded = sum(
        c(k) for k in snap["counters"] if k.startswith("resilience.degraded.")
    )
    return {
        "service.compress_latency_p50_ms": 1000 * hist.get("service.compress_latency_s", {}).get("p50_s", 0.0),
        "service.compress_latency_p99_ms": 1000 * hist.get("service.compress_latency_s", {}).get("p99_s", 0.0),
        "service.decompress_latency_p50_ms": 1000 * hist.get("service.decompress_latency_s", {}).get("p50_s", 0.0),
        "service.decompress_latency_p99_ms": 1000 * hist.get("service.decompress_latency_s", {}).get("p99_s", 0.0),
        "scheduler.batch_size_mean": c("scheduler.submitted") / dispatches if dispatches else 0.0,
        "pool.tasks": c("pool.tasks"),
        "pool.utilization": snap["gauges"].get("pool.utilization", {}).get("value", 0.0),
        "pool.resubmissions": c("pool.resubmissions"),
        "shm.dispatch_bytes": shm_disp,
        "shm.result_bytes": shm_res,
        "shm.pickled_bytes": pickled,
        "shm.fallbacks": snap["gauges"].get("pool.transport.fallbacks", {}).get("value", 0.0),
        "shm.zero_copy_share": (shm_disp + shm_res) / (shm_disp + shm_res + pickled)
        if shm_disp + shm_res + pickled else 0.0,
        "resilience.retries": c("resilience.retries"),
        "resilience.degraded": degraded,
        "resilience.corrupt_results": c("resilience.corrupt_results"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": cache("evictions"),
    }


def serve_span_metrics(tot: dict, req: dict, op_s: float) -> dict:
    """Core, scheduler, dispatch and fan-out metrics from a service
    tracer's span trees (worker spans included via ship-back), given
    :func:`span_totals`, :func:`request_breakdown` and the callers'
    summed op time."""
    m = core_metrics(tot, op_s)
    m["scheduler.wait_p50_ms"] = ms_p(req["wait"], 0.50)
    m["scheduler.wait_p99_ms"] = ms_p(req["wait"], 0.99)
    m["pool.dispatch_wait_p50_ms"] = ms_p(req["dispatch"], 0.50)
    tpc = req["tasks_per_compress"]
    m["chunked.chunks_per_request"] = sum(tpc) / len(tpc) if tpc else 0.0
    top = sum(req["service.compress"]) + sum(req["service.decompress"])
    m["trace.unattributed_frac"] = max(1.0 - top / op_s, 0.0) if op_s > 0 else 0.0
    return m
