"""ServiceConfig.codec: every plugin takes the service's one compress path."""

import numpy as np
import pytest

from repro import codecs
from repro.core.errors import InvalidInputError
from repro.serve.chunked import ChunkedStream, is_chunked, is_raw, raw_from_bytes
from repro.serve.service import CompressionService, ServiceConfig


@pytest.fixture
def field(rng):
    return np.cumsum(rng.normal(size=6_000)).astype(np.float32).reshape(60, 100)


def _max_err(recon, field):
    return float(np.abs(recon.astype(np.float64) - field.astype(np.float64)).max())


class TestCodecRouting:
    @pytest.mark.parametrize("codec", ["cusz", "fzgpu", "cuszx"])
    def test_bounded_codec_roundtrip(self, field, codec):
        with CompressionService(workers=2, codec=codec) as svc:
            blob = svc.compress(field, rel=1e-3).result(timeout=30)
            assert codecs.sniff(blob) == codec
            recon = svc.decompress(blob).result(timeout=30)
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype
        eb = 1e-3 * float(field.max() - field.min())
        err = np.abs(recon.astype(np.float64) - field.astype(np.float64)).max()
        assert err <= eb * (1 + 1e-6)

    def test_fixed_rate_codec_with_opts(self, field):
        cfg = ServiceConfig(
            workers=1, codec="cuzfp", codec_opts=(("rate", 16.0),)
        )
        with CompressionService(cfg) as svc:
            blob = svc.compress(field).result(timeout=30)
            recon = svc.decompress(blob).result(timeout=30)
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype
        # rate 16 on float32: ~2x, well below raw
        assert blob.size < field.nbytes

    @pytest.mark.parametrize("codec,opts,shape", [
        ("cusz", (), (60, 100)),
        ("cuszx", (), (60, 100)),
        ("cuzfp", (("rate", 16.0),), (60, 100)),
        ("fzgpu", (("predictor_ndim", 3),), (12, 20, 25)),
    ])
    def test_fan_out(self, rng, codec, opts, shape):
        """Above ``chunk_bytes`` any codec fans out: a CSZ2CHNK container
        whose chunks are that codec's own streams of the chunk slices."""
        field = np.cumsum(rng.normal(size=shape), axis=-1).astype(np.float32)
        cfg = ServiceConfig(workers=2, codec=codec, codec_opts=opts, chunk_bytes=8 << 10)
        with CompressionService(cfg) as svc:
            blob = svc.compress(field, rel=1e-3).result(timeout=60)
            recon = svc.decompress(blob).result(timeout=60)
        assert is_chunked(blob)
        chunked = ChunkedStream.from_bytes(blob)
        assert chunked.nchunks > 1
        assert [codecs.sniff(c) for c in chunked.chunks] == [codec] * chunked.nchunks
        m = chunked.manifest
        assert m.axis == ("rows" if len(shape) == 3 else "flat")
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype
        if codecs.resolve(codec).bounded:
            assert _max_err(recon, field) <= m.eb_abs
        else:
            assert m.eb_abs == 0.0
        # each chunk is exactly what the plugin makes of its slice
        kw = dict(opts, **({"abs": m.eb_abs} if m.eb_abs else {}))
        flat, per_row = field.reshape(-1), field[0].size
        for i, (lo, hi) in enumerate(chunked.element_spans()):
            part = flat[lo:hi] if m.axis == "flat" else field[lo // per_row : hi // per_row]
            assert np.array_equal(chunked.chunks[i], codecs.encode(part, codec, **kw))

    def test_fan_out_degrades_chunks_to_raw_alone(self, field):
        """Per-chunk raw degradation reaches non-default codecs: the
        failed chunks are stored raw and flagged in the manifest, the
        others stay compressed, and the whole decodes in bound."""
        from repro.faults.chaos import ChaosConfig, ChaosWorkerPool

        chaos = ChaosConfig(seed=3, crash_rate=0.5)
        with CompressionService(
            workers=1, warmup=False, codec="fzgpu", chunk_bytes=4 << 10,
            degrade_inline=False, retry_max_attempts=1, max_respawns=1000,
            pool_wrapper=lambda p: ChaosWorkerPool(p, chaos),
        ) as svc:
            blob = svc.compress(field, abs=1e-2).result(timeout=60)
        chunked = ChunkedStream.from_bytes(blob)
        flags = [e.raw for e in chunked.manifest.entries]
        assert flags == [is_raw(c) for c in chunked.chunks]
        assert any(flags) and not all(flags)
        for c, raw in zip(chunked.chunks, flags):
            if not raw:
                assert codecs.sniff(c) == "fzgpu"
        flat = field.reshape(-1)
        for (lo, hi), c, raw in zip(chunked.element_spans(), chunked.chunks, flags):
            if raw:  # lossless
                assert np.array_equal(raw_from_bytes(c), flat[lo:hi])
        recon = chunked.decompress()
        assert recon.shape == field.shape
        assert _max_err(recon, field) <= 1e-2

    def test_codec_opts_set_the_core_block(self, field):
        """The core codec's block size comes from ``codec_opts``."""
        eb = 1e-3 * float(field.max() - field.min())
        cfg = ServiceConfig(workers=1, codec="cuszp2", codec_opts=(("block", 64),))
        with CompressionService(cfg) as svc:
            blob = svc.compress(field, abs=eb).result(timeout=30)
        assert np.array_equal(blob, codecs.encode(field, "cuszp2", abs=eb, block=64))

    def test_abs_bound_rides_through(self, field):
        with CompressionService(workers=1, codec="fzgpu") as svc:
            blob = svc.compress(field, abs=1e-2).result(timeout=30)
            recon = svc.decompress(blob).result(timeout=30)
        assert np.abs(recon.astype(np.float64) - field.astype(np.float64)).max() <= 1e-2 * (1 + 1e-6)

    def test_default_service_decodes_foreign_streams(self, field):
        """Decoding always sniffs: a cuszp2 service decodes any
        registered plugin's stream."""
        stream = bytes(codecs.encode(field, "fzgpu", abs=1e-3))
        with CompressionService(workers=1) as svc:
            recon = svc.decompress(stream).result(timeout=30)
        assert recon.shape == field.shape

    def test_codec_service_still_decodes_csz2(self, field):
        """And the reverse: a plugin-configured service decodes core
        CSZ2 streams produced elsewhere."""
        from repro.core import compress as core_compress

        stream = core_compress(field, rel=1e-3)
        with CompressionService(workers=1, codec="cusz") as svc:
            recon = svc.decompress(stream).result(timeout=30)
        assert recon.shape == field.shape


class TestCodecValidation:
    def test_unknown_codec_fails_fast(self, field):
        with CompressionService(workers=1, codec="nope") as svc:
            with pytest.raises(InvalidInputError, match="unknown codec"):
                svc.compress(field, rel=1e-3)

    def test_bad_codec_opt_fails_fast(self, field):
        with CompressionService(
            workers=1, codec="cusz", codec_opts=(("bogus", 1),)
        ) as svc:
            with pytest.raises(InvalidInputError, match="has no option"):
                svc.compress(field, rel=1e-3)

    def test_bounded_codec_requires_exactly_one_bound(self, field):
        with CompressionService(workers=1, codec="cusz") as svc:
            with pytest.raises(InvalidInputError, match="exactly one"):
                svc.compress(field)
            with pytest.raises(InvalidInputError, match="exactly one"):
                svc.compress(field, rel=1e-3, abs=1e-3)

    def test_mode_refused_by_codec_without_one(self, field):
        """A per-request ``mode`` is an option like any other: a codec
        that has none refuses it instead of dropping it."""
        with CompressionService(workers=1, codec="fzgpu") as svc:
            with pytest.raises(InvalidInputError, match="no option 'mode'"):
                svc.compress(field, rel=1e-3, mode="plain")
            # the config's default mode is not forced on it
            assert codecs.sniff(svc.compress(field, rel=1e-3).result(timeout=30)) == "fzgpu"

    def test_metrics_account_codec_requests(self, field):
        with CompressionService(workers=1, codec="cuszx") as svc:
            svc.compress(field, rel=1e-3).result(timeout=30)
            snap = svc.stats_snapshot()
        assert snap["counters"]["service.requests"] >= 1
        assert snap["counters"]["service.bytes_in"] >= field.nbytes


class TestCodecResilience:
    def test_corrupt_csz2_results_caught_for_cuszp(self, field):
        """cuszp emits checksummed CSZ2 streams, so chaos-corrupted
        ship-backs fail the CRC check and are retried rather than
        returned."""
        from repro.faults.chaos import ChaosConfig, ChaosWorkerPool

        chaos = ChaosConfig(seed=5, corrupt_rate=0.4)
        with CompressionService(
            workers=1, warmup=False, codec="cuszp",
            pool_wrapper=lambda p: ChaosWorkerPool(p, chaos),
        ) as svc:
            blobs = [svc.compress(field, rel=1e-3).result(timeout=60) for _ in range(8)]
            assert svc.stats.counter("resilience.corrupt_results").value > 0
        eb = 1e-3 * float(field.max() - field.min())
        for blob in blobs:
            assert codecs.sniff(blob) == "cuszp2"  # cuszp writes core CSZ2
            assert _max_err(codecs.decode(blob), field) <= eb * (1 + 1e-6)
