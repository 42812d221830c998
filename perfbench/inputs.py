"""Seeded inputs: windows of four large synthetic fields.

The base fields are generated once per checkout from the program's own
dataset registry (fixed per-slab seeds, so every checkout holds the same
bytes) and cached as raw files under ``.perfbench_work/fields``.
Generation runs in a child interpreter: it peaks near 0.5 GiB and takes
tens of seconds, and neither may leak into ``peak_rss_MiB``,
``setup_s`` or a timed region.  A run's ``--seed`` picks which windows
it reads, so the same seed gives the same inputs.

Windows are read with ``numpy.fromfile`` rather than a memory map, so a
run's resident set holds the windows it uses and no file pages.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from common import MIB, WORK, child_env

FIELD_DIR = os.path.join(WORK, "fields")

#: (dataset, field, slabs, first-axis scale of one slab).  A slab is the
#: registry field with its first axis multiplied by ``scale``; slabs of
#: one field differ only in seed.  Every field holds more than 64 MiB so
#: the largest bulk window still has offsets to choose from.
BULK_FIELDS = (
    ("Miranda", "density", 5, 8),  # 5 x 18 MiB float32, smooth, low ratio
    ("NYX", "baryon_density", 5, 8),  # heavy-tailed, many zero blocks
    ("HACC", "xx", 4, 16),  # 1-D particle stream, 4 x 24 MiB
    ("S3D", "T", 3, 8),  # float64, 3 x 36 MiB
)
#: http-small and store-mixed bodies are float32 slices
FLOAT32_FIELDS = tuple(f for f in BULK_FIELDS if f[0] != "S3D")


@dataclass(frozen=True)
class BaseField:
    key: str
    dtype: np.dtype
    row_shape: Tuple[int, ...]
    rows: int

    @property
    def row_elems(self) -> int:
        return int(np.prod(self.row_shape, dtype=np.int64)) if self.row_shape else 1

    @property
    def row_bytes(self) -> int:
        return self.row_elems * self.dtype.itemsize

    @property
    def path(self) -> str:
        return os.path.join(FIELD_DIR, self.key + ".bin")

    def read_rows(self, start: int, rows: int) -> np.ndarray:
        """Rows ``[start, start + rows)`` as a fresh writable array."""
        out = np.fromfile(
            self.path, dtype=self.dtype, count=rows * self.row_elems,
            offset=start * self.row_bytes,
        )
        return out.reshape((rows,) + self.row_shape)

    def read_flat(self, start: int, n: int) -> np.ndarray:
        """Elements ``[start, start + n)`` of the flattened field."""
        return np.fromfile(
            self.path, dtype=self.dtype, count=n,
            offset=start * self.dtype.itemsize,
        )

    @property
    def nelems(self) -> int:
        return self.rows * self.row_elems


def _key(ds: str, field: str) -> str:
    return f"{ds}_{field}"


def _generate(ds: str, field: str, slabs: int, scale: int) -> None:
    from repro.datasets import generators
    from repro.datasets.registry import get_dataset

    spec_ds = get_dataset(ds)
    spec = spec_ds.field(field)
    fn = generators.GENERATORS[spec.generator]
    shape = (spec.shape[0] * scale,) + tuple(spec.shape[1:])
    path = os.path.join(FIELD_DIR, _key(ds, field) + ".bin")
    tmp = path + f".tmp{os.getpid()}"
    with open(tmp, "wb") as f:
        for i in range(slabs):
            seed = zlib.crc32(f"{ds}/{field}/{i}".encode()) & 0x7FFFFFFF
            if spec.generator == "particle":
                slab = fn(int(np.prod(shape)), seed=seed, dtype=spec_ds.dtype, **spec.params)
            else:
                slab = fn(shape, seed=seed, dtype=spec_ds.dtype, **spec.params)
            slab.tofile(f)
            del slab
    meta = {
        "dtype": np.dtype(spec_ds.dtype).name,
        "row_shape": list(shape[1:]),
        "rows": shape[0] * slabs,
    }
    with open(path + ".json.tmp", "w") as f:
        json.dump(meta, f)
    os.replace(tmp, path)
    os.replace(path + ".json.tmp", path + ".json")


def ensure_fields() -> None:
    """Generate any missing base field in a child interpreter."""
    missing = [
        f for f in BULK_FIELDS
        if not os.path.exists(os.path.join(FIELD_DIR, _key(f[0], f[1]) + ".bin.json"))
    ]
    if not missing:
        return
    os.makedirs(FIELD_DIR, exist_ok=True)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--generate"],
        check=True, env=child_env(), timeout=600,
    )


def load(ds: str, field: str) -> BaseField:
    key = _key(ds, field)
    with open(os.path.join(FIELD_DIR, key + ".bin.json")) as f:
        meta = json.load(f)
    return BaseField(key, np.dtype(meta["dtype"]), tuple(meta["row_shape"]), meta["rows"])


def bulk_fields():
    return [load(ds, f) for ds, f, _, _ in BULK_FIELDS]


def float32_fields():
    return [load(ds, f) for ds, f, _, _ in FLOAT32_FIELDS]


def window(base: BaseField, nbytes: int, rng: np.random.Generator) -> Tuple[np.ndarray, int]:
    """A window of about ``nbytes`` whole rows at a seeded offset;
    returns the array and its first row."""
    rows = max(1, min(base.rows, int(nbytes // base.row_bytes)))
    start = int(rng.integers(0, base.rows - rows + 1))
    return base.read_rows(start, rows), start


def describe_fields() -> dict:
    return {
        b.key: {
            "dtype": b.dtype.name,
            "row_shape": list(b.row_shape),
            "rows": b.rows,
            "MiB": round(b.rows * b.row_bytes / MIB, 1),
        }
        for b in bulk_fields()
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--generate"]:
        sys.exit("usage: inputs.py --generate")
    os.makedirs(FIELD_DIR, exist_ok=True)
    for ds, field, slabs, scale in BULK_FIELDS:
        if not os.path.exists(os.path.join(FIELD_DIR, _key(ds, field) + ".bin.json")):
            _generate(ds, field, slabs, scale)
