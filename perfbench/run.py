"""One command for the repository's benchmark.

    python3 perfbench/run.py --workload bulk-codec --seed 1 --seconds 10 --trace 0

Runs one workload (see perfbench/README.md for why each exists and which
layer metric should move which end-to-end metric), checks every output,
prints each metric by name with its unit, writes a JSON report with the
host fingerprint under ``.perfbench_work/reports/``, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``; the per-layer
metrics with ``--trace 1``).  Exits 1 on any wrong answer and 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    cpu_ticks,
    fingerprint,
    median,
    peak_rss_mib,
    shm_segments,
    steal_share,
    stop_resource_tracker,
    teardown_leaks,
)

#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUPS = 5
#: steal share of CPU time above which a run warns that its timings
#: describe a contended host
STEAL_WARN = 0.05


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _workloads() -> dict:
    import bulk
    import http_small
    import store_mixed

    return {
        w.name: w
        for w in (bulk.BulkCodec(), bulk.BulkServe(), http_small.HttpSmall(),
                  store_mixed.StoreMixed())
    }


def run(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and tear down one workload.  Returns the measured
    phase, the input description, and the ``setup_s`` / ``peak_rss_MiB``
    figures of an untraced run."""
    info = workload.prepare(seed, seconds)
    shm_before = shm_segments()
    if not trace:
        setup_s = []
        handle = None
        for _ in range(SETUPS):
            if handle is not None:
                workload.close(handle)
            t0 = time.perf_counter()
            handle = workload.setup(False)
            setup_s.append(time.perf_counter() - t0)
        ticks = cpu_ticks()
        try:
            phase = workload.measure(handle, seconds, False)
            rss = peak_rss_mib()
        finally:
            workload.close(handle)
        phase.info["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
        phase.info["setup_s_samples"] = setup_s
        extra = {"setup_s": median(setup_s), "peak_rss_MiB": rss}
    else:
        # the untraced half is the reference for trace.overhead_frac
        handle = workload.setup(False)
        try:
            base = workload.measure(handle, seconds / 2, False)
        finally:
            workload.close(handle)
        handle = workload.setup(True)
        try:
            phase = workload.measure(handle, seconds / 2, True)
        finally:
            workload.close(handle)
        phase.attempted += base.attempted
        phase.failed += base.failed
        phase.wrong += base.wrong
        ref = base.op_cost_s()
        phase.layer["trace.overhead_frac"] = phase.op_cost_s() / ref - 1.0 if ref else 0.0
        extra = {}
    leaks = teardown_leaks(shm_before)
    stop_resource_tracker()
    for leak in leaks:
        phase.fail(f"teardown: {leak}")
    phase.info["leaks"] = leaks
    return phase, info, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = _spec()
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads)}",
              file=sys.stderr)
        return 2
    import inputs

    inputs.ensure_fields()
    wl = workloads[args.workload]
    phase, info, extra = run(wl, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        wanted = spec["per_layer"]
        values = phase.layer
    else:
        wanted = spec["end_to_end"]
        values = dict(phase.end_to_end(), **extra)
    metrics = {}
    for m in wanted:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{args.workload:12s} {m['name']:36s} {v:14.6g} {m['unit']}")
    for why in phase.wrong[:20]:
        print(f"WRONG: {why}", file=sys.stderr)
    correct = not phase.wrong

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(args.seed, info),
        "run": phase.info,
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "wrong": phase.wrong,
        "metrics": metrics,
    }
    rdir = os.path.join(WORK, "reports")
    os.makedirs(rdir, exist_ok=True)
    rpath = os.path.join(rdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(rpath, "w") as f:
        json.dump(report, f, indent=2, default=str)
    host = report["host"]
    steal = phase.info.get("cpu_steal_share", 0.0)
    if steal > STEAL_WARN:
        print(f"warning: the hypervisor withheld {steal:.0%} of CPU time during the "
              "measurement; timings describe a contended host", file=sys.stderr)
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} llc={host['llc']} "
        f"numpy={host['numpy']} numba={host['numba']} "
        f"kernel_backend={host['kernel_backend']} commit={host['git_commit']} "
        f"src={host['src_sha256_16']} seed={args.seed} cpu_steal={steal:.1%}  "
        f"report: {os.path.relpath(rpath, ROOT)}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(phase.attempted, 1),
        "failed": phase.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
