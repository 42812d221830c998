"""Chunked streaming engine: bounded-memory codec over group-aligned chunks.

Arbitrarily large fields are split into chunks, and each chunk is
compressed into its *own* self-contained stream by a registered
:mod:`repro.codecs` plugin.  For the core codec the boundaries land on
checksum-group boundaries (:func:`repro.core.stream.chunk_spans`) and
each chunk is a format-v2 stream.  Three properties follow:

* **bounded memory** -- compression touches one chunk of input and one
  chunk of output at a time, so peak RSS tracks the chunk size, not the
  field size;
* **bit-identical output** (core codec) -- its blocks are independent
  (each block's first element is stored raw, differences never cross
  block boundaries) and the error bound is resolved *once against the
  whole field*, so decoding the chunks and concatenating reproduces
  exactly the bytes the monolithic stream would decode to;
* **worker parallelism** -- a chunk is a complete codec job with no shared
  state, which is what lets :mod:`repro.serve.pool` fan chunks out over
  processes.

The chunk streams plus a manifest serialize into a ``CSZ2CHNK`` container
(:meth:`ChunkedStream.to_bytes`) that round-trips through files and
sockets; each chunk remains individually decodable (and individually
retransmittable, see :func:`repro.collective.send_resilient_chunked`).
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import codecs as _codecs
from repro.core import stream as _stream
from repro.core.compressor import DEFAULT_BLOCK
from repro.core.compressor import decompress as _decompress
from repro.core.errors import InvalidInputError, StreamFormatError
from repro.core.quantize import ErrorBound, validate_input
from repro.obs import trace as obs_trace

from .pool import register_task

CHUNK_MAGIC = b"CSZ2CHNK"
CONTAINER_VERSION = 1
_FIXED_FMT = "<8sHHIQ"  # magic, version, reserved, nchunks, meta_len
_FIXED_SIZE = struct.calcsize(_FIXED_FMT)
_CRC_SIZE = 4

RAW_MAGIC = b"CSZ2RAW1"
_RAW_FMT = "<8sHHQ"  # magic, version, reserved, meta_len
_RAW_SIZE = struct.calcsize(_RAW_FMT)

#: Default chunk size: large enough to amortize per-chunk header overhead
#: to noise, small enough that a handful of in-flight chunks stay cheap.
DEFAULT_CHUNK_BYTES = 32 << 20


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

def plan_chunks(
    shape: Tuple[int, ...],
    itemsize: int,
    predictor_ndim: int = 1,
    block: int = DEFAULT_BLOCK,
    group_blocks: int = _stream.DEFAULT_GROUP_BLOCKS,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_elems: Optional[int] = None,
) -> Tuple[List[Tuple[int, int]], str]:
    """Chunk spans for a field of ``shape``.

    Returns ``(spans, axis)`` where ``axis`` is ``"flat"`` (spans are
    element ranges of the flattened field; 1-D predictor) or ``"rows"``
    (spans are ranges of axis-0 rows aligned to the Lorenzo tile, so 2-D/
    3-D tiles never straddle a chunk).
    """
    nelems = 1
    for s in shape:
        nelems *= int(s)
    if nelems == 0:
        raise InvalidInputError("cannot chunk an empty field")
    if chunk_elems is None:
        chunk_elems = max(chunk_bytes // itemsize, 1)
    if predictor_ndim == 1:
        return _stream.chunk_spans(nelems, chunk_elems, block, group_blocks), "flat"
    if len(shape) != predictor_ndim:
        raise InvalidInputError(
            f"{predictor_ndim}-D predictor requires a {predictor_ndim}-D field, "
            f"got shape {tuple(shape)}"
        )
    t = round(block ** (1.0 / predictor_ndim))
    rowsize = nelems // shape[0]
    rows_per = max(chunk_elems // rowsize // t, 1) * t
    spans = [(lo, min(lo + rows_per, shape[0])) for lo in range(0, shape[0], rows_per)]
    return spans, "rows"


# ---------------------------------------------------------------------------
# Manifest + container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkEntry:
    """One chunk's extent in the field and in the container."""

    nelems: int  # elements ("flat") or axis-0 rows ("rows")
    nbytes: int  # compressed stream bytes
    crc32: int  # CRC32 of the chunk's stream bytes
    #: True when the chunk is a raw-passthrough payload (``CSZ2RAW1``):
    #: the resilience chain exhausted every compressed tier and stored
    #: the chunk uncompressed.  Flagged here so degradation is visible
    #: in the container itself, not just in service metrics.
    raw: bool = False


@dataclass(frozen=True)
class ChunkManifest:
    """Everything needed to reassemble (or partially decode) the field."""

    shape: Tuple[int, ...]
    dtype: str
    mode: str
    predictor_ndim: int
    block: int
    group_blocks: int
    eb_abs: float
    axis: str  # "flat" | "rows"
    entries: Tuple[ChunkEntry, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "shape": list(self.shape),
                "dtype": self.dtype,
                "mode": self.mode,
                "predictor_ndim": self.predictor_ndim,
                "block": self.block,
                "group_blocks": self.group_blocks,
                # hex round-trips the float exactly (JSON decimal may not)
                "eb_abs": float(self.eb_abs).hex(),
                "axis": self.axis,
                # the "raw" key is emitted only when set, keeping the JSON
                # (and the golden container fixtures) byte-identical for
                # fully compressed streams
                "chunks": [
                    dict(
                        {"nelems": e.nelems, "nbytes": e.nbytes, "crc32": e.crc32},
                        **({"raw": True} if e.raw else {}),
                    )
                    for e in self.entries
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ChunkManifest":
        d = json.loads(text)
        return cls(
            shape=tuple(d["shape"]),
            dtype=d["dtype"],
            mode=d["mode"],
            predictor_ndim=int(d["predictor_ndim"]),
            block=int(d["block"]),
            group_blocks=int(d["group_blocks"]),
            eb_abs=float.fromhex(d["eb_abs"]),
            axis=d["axis"],
            entries=tuple(
                ChunkEntry(
                    int(c["nelems"]), int(c["nbytes"]), int(c["crc32"]),
                    raw=bool(c.get("raw", False)),
                )
                for c in d["chunks"]
            ),
        )


class ChunkedStream:
    """A compressed field as independent chunk streams plus a manifest."""

    def __init__(self, manifest: ChunkManifest, chunks: Sequence[np.ndarray]):
        if len(chunks) != len(manifest.entries):
            raise StreamFormatError(
                f"manifest lists {len(manifest.entries)} chunks, got {len(chunks)}"
            )
        self.manifest = manifest
        self.chunks = [np.asarray(c, dtype=np.uint8) for c in chunks]

    @property
    def nchunks(self) -> int:
        return len(self.chunks)

    @property
    def compressed_bytes(self) -> int:
        return sum(c.size for c in self.chunks)

    @property
    def container_bytes(self) -> int:
        meta = self.manifest.to_json().encode()
        return _FIXED_SIZE + len(meta) + _CRC_SIZE + self.compressed_bytes

    def decompress(self, pool=None) -> np.ndarray:
        return decompress_chunked(self, pool=pool)

    # -- differential-testing seam ------------------------------------------
    #
    # repro.qa compares chunked output against the monolithic codec chunk
    # by chunk; these accessors expose the container's internals without
    # going through a full reassembling decode.

    def verify(self) -> List[int]:
        """CRC-check every chunk stream against its manifest entry; returns
        the indices of damaged chunks (empty = container intact)."""
        bad = []
        for i, (entry, chunk) in enumerate(zip(self.manifest.entries, self.chunks)):
            if (
                int(chunk.size) != entry.nbytes
                or (zlib.crc32(chunk.tobytes()) & 0xFFFFFFFF) != entry.crc32
            ):
                bad.append(i)
        return bad

    def decode_chunk(self, i: int) -> np.ndarray:
        """Decode chunk ``i`` in isolation (flat elements for axis="flat",
        axis-0 rows for axis="rows")."""
        return decompress_chunk(self.chunks[i])

    def element_spans(self) -> List[Tuple[int, int]]:
        """Flat element range ``[lo, hi)`` each chunk covers in the field."""
        m = self.manifest
        nelems = 1
        for s in m.shape:
            nelems *= int(s)
        per_row = nelems // m.shape[0] if m.axis == "rows" else 1
        spans, pos = [], 0
        for e in m.entries:
            n = e.nelems * per_row
            spans.append((pos, pos + n))
            pos += n
        return spans

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> np.ndarray:
        meta = self.manifest.to_json().encode()
        head = struct.pack(
            _FIXED_FMT, CHUNK_MAGIC, CONTAINER_VERSION, 0, self.nchunks, len(meta)
        )
        prefix = head + meta
        crc = struct.pack("<I", zlib.crc32(prefix) & 0xFFFFFFFF)
        return np.concatenate(
            [np.frombuffer(prefix + crc, dtype=np.uint8)] + self.chunks
        )

    @classmethod
    def from_bytes(cls, buf) -> "ChunkedStream":
        if not isinstance(buf, np.ndarray):
            buf = np.frombuffer(bytes(buf), dtype=np.uint8)
        if buf.dtype != np.uint8:
            raise StreamFormatError(f"container must be uint8 bytes, got {buf.dtype}")
        if buf.size < _FIXED_SIZE:
            raise StreamFormatError(
                f"container is {buf.size} bytes, the fixed header needs {_FIXED_SIZE}"
            )
        magic, version, _res, nchunks, meta_len = struct.unpack(
            _FIXED_FMT, buf[:_FIXED_SIZE].tobytes()
        )
        if magic != CHUNK_MAGIC:
            raise StreamFormatError(
                f"bad magic {magic!r} at byte offset 0 (expected {CHUNK_MAGIC!r}); "
                "not a chunked cuSZp2 container"
            )
        if version != CONTAINER_VERSION:
            raise StreamFormatError(f"unsupported container version {version}")
        meta_end = _FIXED_SIZE + meta_len
        if buf.size < meta_end + _CRC_SIZE:
            raise StreamFormatError("container truncated inside the manifest")
        (crc,) = struct.unpack(
            "<I", buf[meta_end : meta_end + _CRC_SIZE].tobytes()
        )
        if crc != (zlib.crc32(buf[:meta_end].tobytes()) & 0xFFFFFFFF):
            raise StreamFormatError("container manifest failed its CRC32 check")
        manifest = ChunkManifest.from_json(buf[_FIXED_SIZE:meta_end].tobytes().decode())
        if len(manifest.entries) != nchunks:
            raise StreamFormatError(
                f"fixed header declares {nchunks} chunks, manifest lists "
                f"{len(manifest.entries)}"
            )
        chunks = []
        pos = meta_end + _CRC_SIZE
        for i, entry in enumerate(manifest.entries):
            end = pos + entry.nbytes
            if buf.size < end:
                raise StreamFormatError(
                    f"container truncated inside chunk {i}: bytes [{pos}, {end}) "
                    f"needed, container ends at {buf.size}"
                )
            chunks.append(buf[pos:end])
            pos = end
        return cls(manifest, chunks)


def is_chunked(buf) -> bool:
    """Does ``buf`` start with the chunked-container magic?"""
    if isinstance(buf, np.ndarray):
        head = buf[: len(CHUNK_MAGIC)].tobytes()
    else:
        head = bytes(buf[: len(CHUNK_MAGIC)])
    return head == CHUNK_MAGIC


# ---------------------------------------------------------------------------
# Raw passthrough (graceful-degradation floor)
# ---------------------------------------------------------------------------

def is_raw(buf) -> bool:
    """Does ``buf`` start with the raw-passthrough magic?"""
    if isinstance(buf, np.ndarray):
        head = buf[: len(RAW_MAGIC)].tobytes()
    else:
        head = bytes(buf[: len(RAW_MAGIC)])
    return head == RAW_MAGIC


def raw_to_bytes(data: np.ndarray) -> np.ndarray:
    """Store ``data`` uncompressed in a self-describing ``CSZ2RAW1``
    container (the last rung of the degradation chain: correctness with a
    compression ratio of ~1).  The payload carries its own CRC32 so
    transport corruption of a degraded result is still detected."""
    data = np.ascontiguousarray(data)
    payload = data.tobytes()
    meta = json.dumps(
        {
            "shape": list(data.shape),
            "dtype": np.dtype(data.dtype).name,
            "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        }
    ).encode()
    head = struct.pack(_RAW_FMT, RAW_MAGIC, 1, 0, len(meta))
    return np.frombuffer(head + meta + payload, dtype=np.uint8)


def raw_from_bytes(buf) -> np.ndarray:
    """Decode a ``CSZ2RAW1`` container back to its array (CRC-checked)."""
    if not isinstance(buf, np.ndarray):
        buf = np.frombuffer(bytes(buf), dtype=np.uint8)
    if buf.size < _RAW_SIZE:
        raise StreamFormatError(
            f"raw container is {buf.size} bytes, the header needs {_RAW_SIZE}"
        )
    magic, version, _res, meta_len = struct.unpack(
        _RAW_FMT, buf[:_RAW_SIZE].tobytes()
    )
    if magic != RAW_MAGIC:
        raise StreamFormatError(f"bad raw-container magic {magic!r}")
    if version != 1:
        raise StreamFormatError(f"unsupported raw-container version {version}")
    meta_end = _RAW_SIZE + meta_len
    if buf.size < meta_end:
        raise StreamFormatError("raw container truncated inside its metadata")
    try:
        meta = json.loads(buf[_RAW_SIZE:meta_end].tobytes().decode())
        shape = tuple(int(s) for s in meta["shape"])
        dtype = np.dtype(meta["dtype"])
        crc = int(meta["crc32"])
    except (ValueError, KeyError, TypeError) as e:
        raise StreamFormatError(f"raw container metadata unparseable: {e!r}") from None
    payload = buf[meta_end:].tobytes()
    nelems = 1
    for s in shape:
        nelems *= s
    if len(payload) != nelems * dtype.itemsize:
        raise StreamFormatError(
            f"raw container payload is {len(payload)} bytes, metadata "
            f"declares {nelems * dtype.itemsize}"
        )
    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
        from repro.core.errors import IntegrityError

        raise IntegrityError("raw container payload failed its CRC32 check")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


# ---------------------------------------------------------------------------
# Pool task functions (registered by name so process workers resolve them)
# ---------------------------------------------------------------------------

@register_task("chunk.compress")
def compress_chunk(arg: dict) -> np.ndarray:
    """Compress one chunk (or a whole small field) through a registered
    :mod:`repro.codecs` plugin.  The task dict is ``{"data": ndarray,
    "codec": name, "opts": {...}}`` with the options already validated on
    the caller's thread and a bounded plugin's REL bound already resolved
    to ``abs`` against the whole field; ``opts`` carries the kernel-backend
    name too, so process workers make the coordinating session's backend
    choice (every backend is byte-identical, so a mixed fleet would still
    be correct -- just unintentional)."""
    data = arg["data"]
    with obs_trace.maybe_span(
        "chunk.compress", bytes_in=int(data.nbytes), codec=arg["codec"]
    ) as sp:
        out = _codecs.encode(data, arg["codec"], **arg["opts"])
        if sp is not None:
            sp.set(bytes_out=int(out.size))
        return out


@register_task("chunk.decompress")
def decompress_chunk(arg) -> np.ndarray:
    """Decompress one self-contained chunk stream (or decode a
    raw-passthrough chunk emitted by the degradation chain).  ``arg`` is
    either the stream bytes themselves or a dict
    ``{"stream": ..., "kernel_backend": ...}`` carrying the worker's
    kernel-backend choice.

    Streams that are neither raw containers nor core CSZ2 sniff through
    the :mod:`repro.codecs` plugin registry, so a service decodes any
    registered codec's output without being told which codec made it."""
    kernel_backend = "auto"
    if isinstance(arg, dict):
        kernel_backend = arg.get("kernel_backend", "auto")
        arg = arg["stream"]
    nbytes = int(arg.size) if isinstance(arg, np.ndarray) else len(arg)
    with obs_trace.maybe_span("chunk.decompress", bytes_in=nbytes) as sp:
        if is_raw(arg):
            out = raw_from_bytes(arg)
        elif _is_csz2(arg):
            out = _decompress(arg, kernel_backend=kernel_backend)
        else:
            out = _codecs.decode(arg)
        if sp is not None:
            sp.set(bytes_out=int(out.nbytes))
        return out


def _is_csz2(buf) -> bool:
    head = buf[:4] if isinstance(buf, np.ndarray) else np.frombuffer(
        bytes(buf[:4]), dtype=np.uint8
    )
    return head.size >= 4 and bytes(head[:4]) == _stream.MAGIC


# ---------------------------------------------------------------------------
# Request preparation, planning and assembly (shared with the service)
# ---------------------------------------------------------------------------

def resolve_request(
    data: np.ndarray,
    codec,
    opts: dict,
    rel: Optional[float] = None,
    abs: Optional[float] = None,  # noqa: A002 - mirrors repro.compress
) -> Tuple[dict, float]:
    """Validate a compress request on the caller's thread.

    Returns ``(opts, eb_abs)``: the plugin's validated options (defaults
    filled) and the absolute bound.  A bounded plugin's REL bound is
    resolved to ``abs`` once against the *whole* field, so every chunk
    compresses under the same bound; fixed-rate plugins ignore ``rel`` /
    ``abs`` and record ``eb_abs`` 0.0."""
    plugin = _codecs.resolve(codec)
    opts = dict(opts)
    eb_abs = 0.0
    if plugin.bounded:
        if (rel is None) == (abs is None):
            raise InvalidInputError("specify exactly one of rel= or abs=")
        eb = ErrorBound.relative(rel) if rel is not None else ErrorBound.absolute(abs)
        eb_abs = eb.resolve(validate_input(data))
        opts["abs"] = eb_abs
    return plugin.validate_options(opts), eb_abs


def _layout(opts: dict) -> Tuple[str, int, int, int]:
    """``(mode, predictor_ndim, block, group_blocks)`` for the chunk plan
    and manifest, from a codec's validated options.  A codec without such
    an option gets the neutral value: no mode, the flat predictor, and
    the finest alignment the planner allows (8-element granules)."""
    return (
        opts.get("mode", ""),
        opts.get("predictor_ndim", 1),
        opts.get("block", 8),
        opts.get("group_blocks", 1),
    )


def split(
    data: np.ndarray,
    opts: dict,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_elems: Optional[int] = None,
):
    """Plan ``data``'s chunks under validated codec options and return
    ``(spans, axis, views)``; the views are zero-copy slices."""
    _mode, ndim, block, group_blocks = _layout(opts)
    spans, axis = plan_chunks(
        data.shape,
        data.dtype.itemsize,
        predictor_ndim=ndim,
        block=block,
        group_blocks=group_blocks,
        chunk_bytes=chunk_bytes,
        chunk_elems=chunk_elems,
    )
    if axis == "flat":
        flat = data.reshape(-1)
        return spans, axis, [flat[lo:hi] for lo, hi in spans]
    return spans, axis, [data[lo:hi] for lo, hi in spans]


def assemble(
    data: np.ndarray, spans, axis: str, streams, eb_abs: float, opts: dict
) -> ChunkedStream:
    """Wrap per-chunk streams (raw-passthrough chunks flagged) and their
    manifest into a :class:`ChunkedStream`."""
    mode, ndim, block, group_blocks = _layout(opts)
    entries = tuple(
        ChunkEntry(
            nelems=hi - lo,
            nbytes=int(s.size),
            crc32=zlib.crc32(s.tobytes()) & 0xFFFFFFFF,
            raw=is_raw(s),
        )
        for (lo, hi), s in zip(spans, streams)
    )
    manifest = ChunkManifest(
        shape=tuple(data.shape),
        dtype=np.dtype(data.dtype).name,
        mode=mode,
        predictor_ndim=ndim,
        block=block,
        group_blocks=group_blocks,
        eb_abs=eb_abs,
        axis=axis,
        entries=entries,
    )
    return ChunkedStream(manifest, streams)


def reassemble(manifest: ChunkManifest, parts) -> np.ndarray:
    """Join decoded chunks back into the field ``manifest`` describes."""
    if manifest.axis == "flat":
        out = np.concatenate([p.reshape(-1) for p in parts])
    else:
        out = np.concatenate(parts, axis=0)
    if out.dtype != np.dtype(manifest.dtype):  # pragma: no cover - defensive
        raise StreamFormatError(
            f"chunks decoded to {out.dtype}, manifest says {manifest.dtype}"
        )
    return out.reshape(manifest.shape)


# ---------------------------------------------------------------------------
# Engine entry points
# ---------------------------------------------------------------------------

def compress_chunked(
    data: np.ndarray,
    rel: Optional[float] = None,
    abs: Optional[float] = None,  # noqa: A002 - mirrors repro.compress
    mode: str = "outlier",
    block: int = DEFAULT_BLOCK,
    predictor_ndim: int = 1,
    group_blocks: int = _stream.DEFAULT_GROUP_BLOCKS,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    chunk_elems: Optional[int] = None,
    pool=None,
    kernel_backend: str = "auto",
) -> ChunkedStream:
    """Compress ``data`` chunk by chunk into a :class:`ChunkedStream`.

    The REL bound is resolved against the *whole* field before chunking
    (each chunk is then compressed under the same ABS bound), so the
    decoded result is bit-identical to the monolithic codec's.  Pass a
    :class:`~repro.serve.pool.WorkerPool` to compress chunks in parallel.
    """
    data = np.asarray(data)
    opts, eb_abs = resolve_request(
        data,
        "cuszp2",
        {
            "mode": mode,
            "block": block,
            "predictor_ndim": predictor_ndim,
            "group_blocks": group_blocks,
            "kernel_backend": kernel_backend,
        },
        rel=rel,
        abs=abs,
    )
    spans, axis, views = split(data, opts, chunk_bytes, chunk_elems)
    args = [{"data": v, "codec": "cuszp2", "opts": opts} for v in views]
    if pool is not None:
        streams = pool.map("chunk.compress", args)
    else:
        streams = [compress_chunk(a) for a in args]
    return assemble(data, spans, axis, streams, eb_abs, opts)


def decompress_chunked(obj, pool=None, kernel_backend: str = "auto") -> np.ndarray:
    """Decode a :class:`ChunkedStream` (or serialized container) back to
    the original field shape; chunks decode independently (optionally in
    parallel over ``pool``)."""
    chunked = obj if isinstance(obj, ChunkedStream) else ChunkedStream.from_bytes(obj)
    if kernel_backend != "auto":
        args = [{"stream": c, "kernel_backend": kernel_backend} for c in chunked.chunks]
    else:
        args = list(chunked.chunks)
    if pool is not None:
        parts = pool.map("chunk.decompress", args)
    else:
        parts = [decompress_chunk(c) for c in args]
    return reassemble(chunked.manifest, parts)
