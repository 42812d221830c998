"""Shared helpers: checkout layout, statistics, correctness, process tree.

Everything here runs in the benchmark's own process and only observes
the program: it reads ``/proc`` for memory and process-tree state and
``/dev/shm`` for leaked transport segments.
"""

from __future__ import annotations

import glob
import hashlib
import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for cached inputs, store spill files and run reports;
#: listed in the repository's .gitignore
WORK = os.path.join(ROOT, ".perfbench_work")

REL = 1e-3
MIB = float(1 << 20)
SHM_GLOB = "/dev/shm/reproshm-*"


def child_env() -> dict:
    """Environment for child interpreters: the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- statistics ---------------------------------------------------------------


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``numpy.percentile``'s default), 0.0
    for an empty sample."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    xs = list(values)
    return statistics.median(xs) if xs else 0.0


# -- correctness ----------------------------------------------------------------


def bound_violation(original, recon, eb_abs: float) -> Optional[str]:
    """``None`` when every point of ``recon`` is within ``eb_abs`` of
    ``original``, else a diagnosis.

    The slack matches the qa roundtrip oracle: the bound plus half an ULP
    of the largest reconstructed magnitude in the reconstruction's native
    dtype (the final cast of ``q * 2eb`` may round that far).
    """
    import numpy as np

    if original.shape != recon.shape or original.dtype != recon.dtype:
        return (
            f"decoded {recon.dtype}{recon.shape}, expected "
            f"{original.dtype}{original.shape}"
        )
    a = original.reshape(-1)
    b = recon.reshape(-1)
    if a.size == 0:
        return None
    # blockwise so a 64 MiB window does not need a float64 copy of itself
    step = 1 << 20
    worst = 0.0
    for lo in range(0, a.size, step):
        err = np.abs(a[lo : lo + step].astype(np.float64) - b[lo : lo + step])
        worst = max(worst, float(err.max()))
    native_max = max(float(np.abs(b.max())), float(np.abs(b.min())))
    half_ulp = 0.5 * float(np.spacing(b.dtype.type(native_max)))
    limit = eb_abs * (1 + 1e-12) + half_ulp
    if worst > limit:
        return f"error bound violated: max |x-x'| = {worst:g} > {limit:g}"
    return None


def stream_eb_abs(buf) -> float:
    """The absolute error bound a CSZ2 stream or CSZ2CHNK container was
    encoded with (read back, not recomputed: bounds are float32-rounded)."""
    from repro.core import stream as core_stream
    from repro.serve import chunked

    if chunked.is_chunked(buf):
        return float(chunked.ChunkedStream.from_bytes(buf).manifest.eb_abs)
    header, _, _ = core_stream.split(buf)
    return float(header.eb_abs)


# -- process tree, memory and leaks ------------------------------------------


def _ppid_map() -> Dict[int, int]:
    out = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as f:
                data = f.read()
        except OSError:
            continue
        # comm may contain spaces: the ppid is the second field after ')'
        rest = data.rsplit(")", 1)[-1].split()
        out[int(stat.split("/")[2])] = int(rest[1])
    return out


def descendants(pid: Optional[int] = None) -> List[int]:
    """Live descendant pids of ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    ppid = _ppid_map()
    kids: Dict[int, List[int]] = {}
    for p, pp in ppid.items():
        kids.setdefault(pp, []).append(p)
    out, todo = [], [root]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Peak resident set of this process plus every live descendant
    (worker and server children), summed per process."""
    pids = [os.getpid()] + descendants()
    return sum(_vm_hwm_kib(p) for p in pids) / 1024.0


def shm_segments() -> set:
    return set(glob.glob(SHM_GLOB))


def _is_resource_tracker(pid: int) -> bool:
    """Python's ``multiprocessing`` resource tracker: one helper per
    interpreter that uses shared memory, alive until the interpreter
    exits (it unlinks what a crashed owner leaves behind)."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return b"multiprocessing.resource_tracker" in f.read()
    except OSError:
        return False


def teardown_leaks(shm_before: set, wait_s: float = 5.0) -> List[str]:
    """What a workload left behind: new ``/dev/shm/reproshm-*`` segments
    and live worker or server processes.  Waits briefly for exiting
    children."""
    deadline = time.monotonic() + wait_s
    while True:
        kids = [
            p for p in descendants() if _is_live(p) and not _is_resource_tracker(p)
        ]
        segs = sorted(shm_segments() - shm_before)
        if (not kids and not segs) or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    return [f"shm segment {s}" for s in segs] + [f"live child pid {p}" for p in kids]


def stop_resource_tracker() -> None:
    """Stop this interpreter's ``multiprocessing`` resource tracker, if
    shared memory started one, and wait for it to exit, so a run leaves
    no process behind.  (The tracker has no public stop call.)"""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _is_live(pid: int) -> bool:
    """False for zombies (exited, not yet reaped) and vanished pids."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[-1].split()[0] != "Z"
    except OSError:
        return False


# -- provenance -------------------------------------------------------------------


def cpu_ticks() -> tuple:
    """``(steal, total)`` jiffies of the host's CPUs from ``/proc/stat``:
    time a hypervisor withheld from this machine, which shows up as
    slower ops on a shared host."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(t0: tuple, t1: tuple) -> float:
    total = t1[1] - t0[1]
    return (t1[0] - t0[0]) / total if total > 0 else 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    best = ""
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(d, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        best = f"L{level} {size}"
    return best or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(seed: int, inputs: dict) -> dict:
    import numpy as np
    from repro.core.backends import resolve_backend

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": resolve_backend("auto").name,
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "seed": seed,
        "inputs": inputs,
    }
