"""What one measured phase of a workload records, and the end-to-end
metrics derived from it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from common import MIB, quantile


@dataclass
class Phase:
    #: compress-side ops: codec/service/HTTP compress, or store writes
    c_lat: List[float] = field(default_factory=list)  # latencies, s
    #: decompress-side ops: codec/service/HTTP decompress, or store reads
    d_lat: List[float] = field(default_factory=list)
    c_time: float = 0.0  # summed wall time of compress-side ops
    d_time: float = 0.0
    c_bytes: int = 0  # input bytes of compress-side ops
    d_bytes: int = 0  # output bytes of decompress-side ops
    ratio_in: int = 0  # logical bytes behind ``ratio``
    ratio_out: int = 0  # compressed bytes behind ``ratio``
    ops: int = 0  # completed operations, flushes included
    attempted: int = 0
    failed: int = 0  # failed, refused, wrong, or (added later) leaked
    slo_ok: int = 0  # succeeded within the workload's latency limit
    wall_s: float = 0.0  # measured wall time
    wrong: List[str] = field(default_factory=list)  # wrong-answer diagnoses
    layer: Dict[str, float] = field(default_factory=dict)  # traced metrics
    info: dict = field(default_factory=dict)  # provenance for the report
    #: end-to-end figures a workload computes its own way (bulk.py)
    summary: Dict[str, float] = field(default_factory=dict)

    def fail(self, why: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong.append(why)

    def op_cost_s(self) -> float:
        """Op time per MiB moved; compared between the untraced and traced
        halves of a ``--trace 1`` run, which see the same inputs."""
        nbytes = self.c_bytes + self.d_bytes
        return (self.c_time + self.d_time) * MIB / nbytes if nbytes else 0.0

    def end_to_end(self) -> Dict[str, float]:
        att = max(self.attempted, 1)
        out = {
            "ok_frac": 1.0 - self.failed / att,
            "slo_met_frac": self.slo_ok / att,
            "ops_per_s": self.ops / self.wall_s if self.wall_s > 0 else 0.0,
            "compress_MiBps": self.c_bytes / MIB / self.c_time if self.c_time else 0.0,
            "decompress_MiBps": self.d_bytes / MIB / self.d_time if self.d_time else 0.0,
            "ratio": self.ratio_in / self.ratio_out if self.ratio_out else 0.0,
            "compress_p50_ms": 1000.0 * quantile(self.c_lat, 0.50),
            "compress_p95_ms": 1000.0 * quantile(self.c_lat, 0.95),
            "decompress_p50_ms": 1000.0 * quantile(self.d_lat, 0.50),
            "decompress_p95_ms": 1000.0 * quantile(self.d_lat, 0.95),
        }
        out.update(self.summary)
        return out
