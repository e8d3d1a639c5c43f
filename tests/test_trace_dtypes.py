"""Address-dtype pinning: traces must stay int64 end to end.

The paper-scale experiments shrink footprints, but nothing in the trace
layer may assume addresses fit 32 bits: synthetic generators are pinned
to ``int64`` and the simulation engines must agree bit-for-bit on traces
whose addresses live above 4 GiB (where an accidental int32 intermediate
would wrap).
"""

import numpy as np

from repro.mem import engines
from repro.mem.cache import Cache, CacheConfig
from repro.mem.mtc import MinimalTrafficCache, MTCConfig
from repro.trace import synth
from repro.trace.model import MemTrace
from repro.trace.qpt import split_doublewords
from repro.workloads.registry import all_workloads

FOUR_GIB = 1 << 32


def stats_key(stats):
    return (
        stats.accesses,
        stats.read_hits,
        stats.write_hits,
        stats.fetch_bytes,
        stats.writeback_bytes,
        stats.writethrough_bytes,
        stats.flush_writeback_bytes,
    )


def test_synth_generators_emit_int64_addresses():
    high = 5 * FOUR_GIB  # a base no int32 pipeline survives
    rng = np.random.default_rng(1)
    pairs = {
        "sweep": synth.sweep(high, 64),
        "column_sweep": synth.column_sweep(high, rows=8, row_words=8),
        "interleaved": synth.interleaved_sweep(
            [high, high + FOUR_GIB], length_words=32
        ),
        "random_probes": synth.random_probes(rng, high, 64, 100),
        "zipf_probes": synth.zipf_probes(rng, high, 64, 100),
        "pointer_chain": synth.pointer_chain(rng, high, 32, 2, 100),
        "matmul": synth.tiled_matrix_multiply(
            high, high + FOUR_GIB, high + 2 * FOUR_GIB, n=8, tile=4
        ),
        "fft": synth.fft_butterflies(high, 16),
        "stencil": synth.stencil_sweeps(high, n=8),
        "quicksort": synth.quicksort_scans(high, 64),
        "fft2d": synth.fft2d_passes(high, rows=8, cols=8),
        "merge_sort": synth.merge_sort_passes(high, 32),
    }
    for name, stream in pairs.items():
        addresses, writes = stream.take()
        assert addresses.dtype == np.int64, name
        assert int(addresses.min()) >= high, name
        trace = synth.to_trace(stream, name=name)
        assert trace.addresses.dtype == np.int64, name


def test_workload_traces_are_int64():
    for workload in all_workloads("SPEC92"):
        trace = workload.generate(seed=0, max_refs=2000)
        assert trace.addresses.dtype == np.int64, workload.name
        assert trace.is_write.dtype == np.bool_, workload.name


def test_qpt_expansion_preserves_wide_addresses():
    trace = split_doublewords(
        [7 * FOUR_GIB, 7 * FOUR_GIB + 16], [False, True], [8, 4]
    )
    assert trace.addresses.dtype == np.int64
    assert int(trace.addresses.min()) >= 7 * FOUR_GIB
    # The 8-byte access expands to two adjacent words.
    assert len(trace) == 3


def test_engines_agree_above_four_gib():
    """Engines stay bit-identical when the footprint sits above 4 GiB."""
    rng = np.random.default_rng(17)
    n = 4000
    offsets = rng.integers(0, 2048, size=n) * 4
    addrs = (9 * FOUR_GIB) + offsets
    trace = MemTrace(addrs, rng.random(n) < 0.3, name="high-memory")
    assert int(trace.addresses.max()) > 8 * FOUR_GIB

    for assoc in (1, 4):
        config = CacheConfig(
            size_bytes=2048, block_bytes=32, associativity=assoc
        )
        scalar = Cache(config).simulate(trace, engine="scalar")
        fast = Cache(config).simulate(trace, engine="vector")
        assert stats_key(scalar) == stats_key(fast), assoc

    family = engines.direct_mapped_family(trace, [1024, 4096], block_bytes=32)
    for size in (1024, 4096):
        per_size = Cache(
            CacheConfig(size_bytes=size, block_bytes=32)
        ).simulate(trace, engine="scalar")
        assert stats_key(family[size]) == stats_key(per_size), size

    mtc_config = MTCConfig(size_bytes=1024)
    scalar = MinimalTrafficCache(mtc_config).simulate(trace, engine="scalar")
    fast = MinimalTrafficCache(
        MTCConfig(size_bytes=1024)
    ).simulate(trace, engine="vector")
    assert stats_key(scalar) == stats_key(fast)
