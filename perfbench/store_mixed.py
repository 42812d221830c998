"""``store-mixed``: small random slice ops on a ``CompressedStore`` that
lives off its spill tier.

16 arrays of 4 MiB (float32 windows of the three float32 base fields,
assigned round-robin so the mix is the same for every seed) under a
resident budget below their compressed working set, so touching a cold
array spills another one and faults it back in.  One caller, closed
loop: 80% 16 KiB reads and 20% 16 KiB writes at seeded positions, with a
``flush_all()`` every 100 ops.  Write values are copied from elsewhere in
the same array, so they stay inside its value range.

``compress_*`` metrics describe the writes and ``decompress_*`` the
reads; ``ratio`` is the store's logical over compressed bytes after the
run.  Every read is checked against a mirror of what was written.
"""

from __future__ import annotations

import os
import shutil
import time
from types import SimpleNamespace

import numpy as np

import inputs
from common import REL, WORK, bound_violation
from layers import CallTimers, core_metrics, ms_p, span_totals
from phase import Phase

ARRAYS = 16
ARRAY_BYTES = 4 << 20
OP_ELEMS = (16 << 10) // 4
READ_SHARE = 0.8
FLUSH_EVERY = 100
#: below the ~6.6 MiB compressed working set of the 16 arrays, so the
#: coldest arrays live on the spill tier
BUDGET_BYTES = 5 << 20
LIMIT_S = 0.050  # latency limit behind slo_met_frac


class StoreMixed:
    name = "store-mixed"

    def prepare(self, seed: int, seconds: float) -> dict:
        fields = inputs.float32_fields()
        rng = np.random.default_rng([seed, 0x5709])
        n = ARRAY_BYTES // 4
        self.seed = seed
        # systematic sampling: the arrays of one field sit at evenly
        # spaced offsets behind one seeded shift, so every seed samples
        # the whole field and the compressed working set stays put
        shifts = rng.uniform(0, 1, len(fields))
        self.arrays = []
        for i in range(ARRAYS):
            f, j = i % len(fields), i // len(fields)
            base = fields[f]
            count = len(range(f, ARRAYS, len(fields)))
            span = (base.nelems - n) // count
            self.arrays.append(base.read_flat(int((j + shifts[f]) * span), n))
        return {
            "arrays": ARRAYS,
            "array_MiB": ARRAY_BYTES / (1 << 20),
            "op_KiB": OP_ELEMS * 4 / 1024,
            "read_share": READ_SHARE,
            "flush_every": FLUSH_EVERY,
            "budget_MiB": BUDGET_BYTES / (1 << 20),
        }

    def setup(self, traced: bool):
        from repro.serve.stats import MetricsRegistry
        from repro.store import CompressedStore

        spill = os.path.join(WORK, f"store-spill-{os.getpid()}")
        shutil.rmtree(spill, ignore_errors=True)
        os.makedirs(spill)
        registry = MetricsRegistry()
        store = CompressedStore(budget_bytes=BUDGET_BYTES, spill_dir=spill, stats=registry)
        eb = [store.put(f"a{i}", arr, rel=REL).eb_abs for i, arr in enumerate(self.arrays)]
        return SimpleNamespace(store=store, registry=registry, spill=spill, eb=eb)

    def close(self, h) -> None:
        h.store.close()
        shutil.rmtree(h.spill, ignore_errors=True)

    def measure(self, h, seconds: float, traced: bool) -> Phase:
        from repro import obs
        from repro.core.random_access import RandomAccessor
        from repro.serve.cache import DecodeCache

        store, registry = h.store, h.registry
        ph = Phase()
        rng = np.random.default_rng([self.seed, 0x0905])
        mirror = [a.copy() for a in self.arrays]
        names = [f"a{i}" for i in range(ARRAYS)]
        n = mirror[0].size
        snap0 = registry.snapshot()
        timers = CallTimers()
        tracer = None
        if traced:
            ra = timers.wrap(RandomAccessor, "decode_blocks")
            rw = timers.wrap(RandomAccessor, "rewrite_blocks")
            cache = timers.wrap(DecodeCache, "get", count_hits=True)
            tracer = obs.activate(obs.Tracer())
        read_self = []
        flush_s = 0.0
        t_start = time.perf_counter()
        try:
            while True:
                i = int(rng.integers(ARRAYS))
                lo = int(rng.integers(0, n - OP_ELEMS + 1))
                hi = lo + OP_ELEMS
                ph.attempted += 1
                if rng.random() < READ_SHARE:
                    ra_before = ra["s"] if traced else 0.0
                    t0 = time.perf_counter()
                    try:
                        got = store[names[i]][lo:hi]
                    except Exception as e:  # noqa: BLE001 - counted
                        ph.fail(f"read a{i}[{lo}:{hi}]: {type(e).__name__}: {e}")
                        continue
                    lat = time.perf_counter() - t0
                    if traced:
                        read_self.append(lat - (ra["s"] - ra_before))
                    ph.d_lat.append(lat)
                    ph.d_time += lat
                    ph.d_bytes += got.nbytes
                    bad = bound_violation(mirror[i][lo:hi], got, h.eb[i])
                    if bad:
                        ph.fail(f"read a{i}[{lo}:{hi}]: {bad}", wrong=True)
                        continue
                else:
                    src = int(rng.integers(0, n - OP_ELEMS + 1))
                    vals = mirror[i][src : src + OP_ELEMS].copy()
                    t0 = time.perf_counter()
                    try:
                        store[names[i]][lo:hi] = vals
                    except Exception as e:  # noqa: BLE001 - counted
                        ph.fail(f"write a{i}[{lo}:{hi}]: {type(e).__name__}: {e}")
                        continue
                    lat = time.perf_counter() - t0
                    mirror[i][lo:hi] = vals
                    ph.c_lat.append(lat)
                    ph.c_time += lat
                    ph.c_bytes += vals.nbytes
                ph.ops += 1
                ph.slo_ok += lat <= LIMIT_S
                if (len(ph.c_lat) + len(ph.d_lat)) % FLUSH_EVERY == 0:
                    t0 = time.perf_counter()
                    store.flush_all()
                    flush_s += time.perf_counter() - t0
                    ph.ops += 1
                    if time.perf_counter() - t_start >= seconds:
                        break
        finally:
            if tracer is not None:
                obs.deactivate()
            timers.restore()
        ph.wall_s = time.perf_counter() - t_start
        snap = registry.snapshot()
        ph.ratio_in = sum(a.nbytes for a in mirror)
        # faults spilled arrays back in; measured after the snapshot
        ph.ratio_out = sum(store[name].compressed_nbytes for name in names)
        ph.info = {
            "ops": ph.ops,
            "latency_samples": {"write": len(ph.c_lat), "read": len(ph.d_lat)},
            # per-op latencies in ms, in op order, for offline study
            "latency_ms": {
                "write": [round(x * 1000, 3) for x in ph.c_lat],
                "read": [round(x * 1000, 3) for x in ph.d_lat],
            },
        }
        if traced:
            c = lambda k: snap["counters"].get(k, 0.0) - snap0["counters"].get(k, 0.0)  # noqa: E731
            op_s = ph.c_time + ph.d_time + flush_s
            roots = tracer.roots()
            tot = span_totals(roots)
            ph.layer.update(core_metrics(tot, op_s))
            top = sum(r.duration_s for r in roots)
            ph.layer.update({
                "core.random_access_s": ra["s"],
                "core.rewrite_s": rw["s"],
                "store.read_self_p50_ms": ms_p(read_self, 0.5),
                "store.random_access_share": ra["s"] / ph.d_time if ph.d_time else 0.0,
                "store.spills": c("store.spills"),
                "store.faults": c("store.faults"),
                "store.spill_bytes": c("store.spill_bytes"),
                "store.fault_bytes": c("store.fault_bytes"),
                "store.cache_hit_ratio": cache["hits"] / cache["calls"] if cache["calls"] else 0.0,
                "store.flush_s": flush_s,
                "store.resident_MiB_max": snap["gauges"].get("store.resident_bytes", {}).get("max", 0.0) / (1 << 20),
                "trace.unattributed_frac": max(1.0 - top / op_s, 0.0) if op_s else 0.0,
            })
        return ph
