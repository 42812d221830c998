"""``bulk-codec`` and ``bulk-serve``: large windows, closed loop, one caller.

Both run the same inputs: pairs of rounds, each round one fresh window
at a seeded offset in every base field.  In the first round of a pair
the four fields take the sizes 16, 32, 48 and 64 MiB (less a seeded
jitter under 1 MiB) in a seeded order, rotated by one place per pair; in
the second, each field takes 80 MiB minus its first size.  So every pair
holds the same sizes and gives every field the same bytes, and every
four pairs give every field every size, which keeps the field mix -- and
with it ``ratio``, the MiB/s figures and the peak memory -- the same from
seed to seed.  A run measures whole pairs.

The fields differ ~2.5x in speed and a run holds only a few windows of
each, too few for a pooled tail percentile.  The end-to-end figures are
therefore built from per-field medians:

* ``compress_MiBps`` -- the four fields' median MiB/s combined at equal
  bytes (the harmonic mean);
* ``compress_p50_ms`` / ``compress_p95_ms`` -- the 50th / 95th
  percentile over the fields' median latency per 16 MiB of input, so p95
  reads as (nearly) the slowest field's typical 16 MiB;
* ``ratio`` -- total input bytes over total compressed bytes;
* ``ops_per_s`` -- operations per second of operation time.

The ``decompress_*`` figures mirror these.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import inputs
from common import MIB, REL, bound_violation, child_env, median, quantile, stream_eb_abs
from layers import (
    CallTimers,
    core_metrics,
    registry_metrics,
    request_breakdown,
    serve_span_metrics,
    span_totals,
)
from phase import Phase

SIZES_MIB = (16, 32, 48, 64)
UNIT_BYTES = 16 << 20
#: a window op slower than this counts against ``slo_met_frac``: far
#: beyond a healthy op (< 1 s here), it flags stalls rather than speed
OP_LIMIT_S = 10.0

_SETUP_SNIPPET = (
    "import numpy as np\n"
    "from repro import codecs\n"
    "x = np.linspace(0.0, 1.0, 1 << 16, dtype=np.float32)\n"
    "codecs.decode(codecs.encode(x, 'cuszp2', rel=1e-3))\n"
)


class _Windows:
    """Seeded plan of bulk windows; no (field, offset, size) repeats."""

    def __init__(self, seed: int):
        self.fields = inputs.bulk_fields()
        self.rng = np.random.default_rng([seed, 0xB01C])
        self.order = self.rng.permutation(SIZES_MIB)
        self.pairs = 0
        self.seen = set()
        self.sizes = []

    def pair(self):
        """Yield ``(field key, window)`` for two rounds."""
        # rotating one seeded order gives every field every size once in
        # each four pairs (a Latin square)
        order = np.roll(self.order, self.pairs)
        self.pairs += 1
        first = [m - self.rng.uniform(0, 1) for m in order]
        total = SIZES_MIB[0] + SIZES_MIB[-1]
        for sizes in (first, [total - s for s in first]):
            for base, mib in zip(self.fields, sizes):
                while True:
                    arr, start = inputs.window(base, int(mib * MIB), self.rng)
                    key = (base.key, start, arr.shape[0])
                    if key not in self.seen:
                        break
                self.seen.add(key)
                self.sizes.append(round(arr.nbytes / MIB, 1))
                yield base.key, arr


def _summary(per_field: dict, ph: Phase) -> dict:
    """End-to-end figures from per-field samples (see module docstring)."""
    out = {}
    for side in ("compress", "decompress"):
        s_per_mib = [median(v[side]) for v in per_field.values()]
        unit = [x * UNIT_BYTES / MIB * 1000.0 for x in s_per_mib]
        out[f"{side}_MiBps"] = len(s_per_mib) / sum(s_per_mib) if s_per_mib else 0.0
        out[f"{side}_p50_ms"] = quantile(unit, 0.50)
        out[f"{side}_p95_ms"] = quantile(unit, 0.95)
    op_s = ph.c_time + ph.d_time
    out["ops_per_s"] = ph.ops / op_s if op_s else 0.0
    return out


class _Bulk:
    """The shared closed loop: compress a window, decompress the result,
    check, repeat until ``seconds`` have passed at a pair boundary."""

    name = ""

    def prepare(self, seed: int, seconds: float) -> dict:
        self.seed = seed
        return {"fields": inputs.describe_fields(), "window_MiB": list(SIZES_MIB)}

    def measure(self, handle, seconds: float, traced: bool) -> Phase:
        ph = Phase()
        plan = _Windows(self.seed)
        per_field = defaultdict(lambda: {"compress": [], "decompress": []})
        t_start = time.perf_counter()
        while True:
            for key, w in plan.pair():
                ph.attempted += 2
                try:
                    t0 = time.perf_counter()
                    stream = self.compress(handle, w)
                    t1 = time.perf_counter()
                    d = self.decompress(handle, stream)
                    t2 = time.perf_counter()
                except Exception as e:  # noqa: BLE001 - counted, run goes on
                    ph.fail(f"{key}: {type(e).__name__}: {e}")
                    ph.fail(f"{key}: decompress not attempted")
                    continue
                mib = w.nbytes / MIB
                per_field[key]["compress"].append((t1 - t0) / mib)
                per_field[key]["decompress"].append((t2 - t1) / mib)
                ph.c_time += t1 - t0
                ph.d_time += t2 - t1
                ph.c_bytes += w.nbytes
                ph.d_bytes += d.nbytes
                ph.ratio_in += w.nbytes
                ph.ratio_out += stream.size
                ph.ops += 2
                ph.slo_ok += (t1 - t0 <= OP_LIMIT_S) + (t2 - t1 <= OP_LIMIT_S)
                bad = self.check(w, stream, d)
                if bad:
                    ph.fail(f"{key}: {bad}", wrong=True)
            if time.perf_counter() - t_start >= seconds:
                break
        ph.wall_s = time.perf_counter() - t_start
        ph.summary = _summary(per_field, ph)
        ph.info = {"windows": len(plan.sizes), "window_MiB": plan.sizes}
        return ph


class BulkCodec(_Bulk):
    """The library codec alone: ``repro.codecs.encode`` / ``decode``."""

    name = "bulk-codec"

    def prepare(self, seed: int, seconds: float) -> dict:
        # this process's first codec call (imports, first allocations)
        # stays outside the clock, like the set-up's own round trip
        warm = inputs.bulk_fields()[0].read_flat(0, 1 << 18)
        self.decompress(None, self.compress(None, warm))
        return super().prepare(seed, seconds)

    def setup(self, traced: bool):
        # set-up of a library user: a fresh interpreter importing the
        # codec and running its first (small) round trip
        subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET], check=True, env=child_env(),
            timeout=120,
        )
        return None

    def close(self, handle) -> None:
        pass

    def compress(self, handle, w):
        from repro import codecs

        return codecs.encode(w, "cuszp2", rel=REL)

    def decompress(self, handle, stream):
        from repro import codecs

        return codecs.decode(stream)

    def check(self, w, stream, d):
        return bound_violation(w, d, stream_eb_abs(stream))

    def measure(self, handle, seconds: float, traced: bool) -> Phase:
        from repro import obs

        if not traced:
            return super().measure(handle, seconds, traced)
        # the codec runs on this thread: an ambient tracer sees its spans
        tracer = obs.activate(obs.Tracer())
        try:
            ph = super().measure(handle, seconds, traced)
        finally:
            obs.deactivate()
        op_s = ph.c_time + ph.d_time
        roots = tracer.roots()
        ph.layer.update(core_metrics(span_totals(roots), op_s))
        # the check's own decode of the stream header is not op time:
        # only the plugin roots count as attributed
        top = sum(r.duration_s for r in roots if r.name.startswith("codec.cuszp2."))
        ph.layer["trace.unattributed_frac"] = max(1.0 - top / op_s, 0.0)
        return ph


class BulkServe(_Bulk):
    """The same windows through an in-process ``CompressionService``."""

    name = "bulk-serve"
    #: chunks below the smallest window, so every request fans out
    SERVICE = {"workers": 2, "backend": "process", "transport": "shm",
               "chunk_bytes": 4 << 20}

    def prepare(self, seed: int, seconds: float) -> dict:
        return dict(super().prepare(seed, seconds), service=self.SERVICE)

    def setup(self, traced: bool):
        from repro.obs import Tracer
        from repro.serve import CompressionService, ServiceConfig

        svc = CompressionService(
            ServiceConfig(**self.SERVICE), tracer=Tracer() if traced else None
        )
        try:
            # ready = workers up and one request served end to end
            x = np.linspace(0.0, 1.0, 1 << 16, dtype=np.float32)
            svc.decompress(svc.compress(x, rel=REL).result(60), cache=False).result(60)
        except BaseException:
            svc.close(cancel_pending=True)
            raise
        if traced:
            svc.tracer.clear()
        return svc

    def close(self, svc) -> None:
        svc.close()

    def compress(self, svc, w):
        return svc.compress(w, rel=REL).result(120)

    def decompress(self, svc, stream):
        return svc.decompress(stream).result(120)

    def check(self, w, stream, d):
        from repro import codecs
        from repro.serve import chunked

        # the library decode of the service's own stream
        if chunked.is_chunked(stream):
            ref = chunked.decompress_chunked(stream)
        else:
            ref = codecs.decode(stream)
        if not np.array_equal(d, ref):
            return "service decode != library decode of the same stream"
        return bound_violation(w, d, stream_eb_abs(stream))

    def measure(self, svc, seconds: float, traced: bool) -> Phase:
        from repro.serve import service as service_mod

        if not traced:
            return super().measure(svc, seconds, traced)
        timers = CallTimers()
        probe = timers.wrap(service_mod, "content_key")
        snap0 = svc.stats_snapshot()
        try:
            ph = super().measure(svc, seconds, traced)
        finally:
            timers.restore()
        roots = svc.tracer.roots()
        ph.layer.update(registry_metrics(svc.stats_snapshot(), snap0))
        ph.layer.update(serve_span_metrics(
            span_totals(roots), request_breakdown(roots), ph.c_time + ph.d_time
        ))
        ph.layer["cache.probe_s"] = probe["s"]
        return ph
