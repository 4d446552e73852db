"""Device-generation layer: registry, per-device coalescing rules,
Fermi occupancy limit tables, cache hierarchy, and cross-device
functional bit-identity.

The functional contract of the simulator is device-independent: a
kernel computes the same bits whatever profile it runs on — only the
*performance* accounting (transactions, cycles, occupancy) moves with
the generation.  These tests pin both halves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    CACHED_LINE,
    STRICT_SEGMENT,
    DEFAULT_DEVICE,
    device_by_name,
    device_names,
    geforce_8800_gtx,
    gtx_480,
    register_device,
    rtx_3090,
)
from repro.sim.memsys import CacheHierarchy, coalesce_half_warp
from repro.sim.occupancy import compute_occupancy


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

class TestRegistry:
    def test_known_names_resolve(self):
        for name in device_names():
            spec = device_by_name(name)
            assert spec.num_sms > 0

    def test_expected_profiles_registered(self):
        assert {"geforce_8800_gtx", "geforce_8800_gts", "geforce_8600_gts",
                "gtx_480", "rtx_3090"} <= set(device_names())

    def test_default_device_is_the_papers(self):
        assert device_by_name("geforce_8800_gtx").name == DEFAULT_DEVICE.name

    def test_unknown_name_raises_with_menu(self):
        with pytest.raises(KeyError, match="gtx_480"):
            device_by_name("no_such_device")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_device("gtx_480", gtx_480)

    def test_overwrite_allows_replacement(self):
        register_device("gtx_480", gtx_480, overwrite=True)
        assert device_by_name("gtx_480").generation == "fermi"


# ----------------------------------------------------------------------
# Generation capabilities travel with the spec
# ----------------------------------------------------------------------

class TestGenerationCapabilities:
    def test_g80_is_strict_half_warp(self):
        spec = geforce_8800_gtx()
        assert spec.coalescing_rule == STRICT_SEGMENT
        assert spec.coalesce_group == 16
        assert not spec.has_cached_global_loads
        assert spec.shared_access_group == 16

    def test_fermi_is_cached_full_warp(self):
        spec = gtx_480()
        assert spec.coalescing_rule == CACHED_LINE
        assert spec.coalesce_group == 32
        assert spec.has_cached_global_loads
        assert spec.cache_line_bytes == 128
        assert spec.shared_access_group == 32

    def test_fermi_shared_l1_split(self):
        spec = gtx_480()
        assert spec.shared_mem_per_sm + spec.l1_cache_bytes_per_sm \
            == spec.shared_l1_total_bytes
        flipped = spec.with_shared_split(16 * 1024)
        assert flipped.shared_mem_per_sm == 16 * 1024
        assert flipped.l1_cache_bytes_per_sm == 48 * 1024
        with pytest.raises(ValueError):
            spec.with_shared_split(spec.shared_l1_total_bytes)  # no L1 left
        with pytest.raises(ValueError):
            spec.with_shared_split(100)   # L1 not a whole line count

    def test_issue_width_scales_with_sps(self):
        assert geforce_8800_gtx().timing.issue_cycles_per_warp_inst == 4.0
        assert gtx_480().timing.issue_cycles_per_warp_inst == 1.0
        assert rtx_3090().timing.issue_cycles_per_warp_inst == 0.25


# ----------------------------------------------------------------------
# Coalescing classifier honors the device's rule and granularity
# ----------------------------------------------------------------------

def _group_access(spec, addresses):
    addrs = np.asarray(addresses, dtype=np.int64)
    active = np.ones(spec.coalesce_group, dtype=bool)
    return coalesce_half_warp(addrs, active, 4, spec)


class TestCoalescingRules:
    def test_group_length_is_enforced(self):
        spec = gtx_480()
        with pytest.raises(ValueError):
            _group_access(spec, np.arange(16) * 4)   # half-warp on Fermi

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           device=st.sampled_from(["geforce_8800_gtx", "gtx_480"]))
    def test_identity_mapping_always_coalesces(self, seed, device):
        """Thread k -> word k of an aligned segment coalesces under
        both rules."""
        spec = device_by_name(device)
        rng = np.random.default_rng(seed)
        segment = spec.coalesce_group * 4
        base = int(rng.integers(0, 1024)) * segment
        res = _group_access(spec, base + np.arange(spec.coalesce_group) * 4)
        assert res.coalesced
        assert res.transactions == 1

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_permutation_discriminates_the_rules(self, seed):
        """A shuffled warp within one aligned region: uncoalesced under
        the strict per-half-warp segment rule, free under the cached
        full-warp line rule."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(32)
        if np.array_equal(perm, np.arange(32)):
            perm = perm[::-1].copy()
        addrs = perm * 4   # a permutation of one 128 B region at 0

        fermi = gtx_480()
        res = coalesce_half_warp(addrs, np.ones(32, bool), 4, fermi)
        assert res.coalesced
        assert res.transactions == 1          # one 128 B line
        assert res.bus_bytes == fermi.cache_line_bytes

        g80 = geforce_8800_gtx()
        for half in (addrs[:16], addrs[16:]):
            r = coalesce_half_warp(half, np.ones(16, bool), 4, g80)
            if np.array_equal(np.sort(half), half):
                continue   # a half happened to stay in thread order
            assert not r.coalesced
            assert r.transactions == int(np.ones(16, bool).sum())

    @settings(max_examples=50, deadline=None)
    @given(stride_lines=st.integers(1, 8))
    def test_cached_transactions_count_distinct_lines(self, stride_lines):
        spec = gtx_480()
        line = spec.cache_line_bytes
        addrs = np.arange(32, dtype=np.int64) * stride_lines * line
        res = coalesce_half_warp(addrs, np.ones(32, bool), 4, spec)
        assert res.transactions == 32          # one line per thread
        assert res.coalesced is False
        assert res.bus_bytes == 32 * line

    def test_strict_segment_words_set_the_segment(self):
        """The segment is ``coalesce_group`` words wide — honored, not
        hard-coded to 64 B."""
        spec = geforce_8800_gtx()
        assert spec.coalesce_segment_words == 16
        base = spec.coalesce_segment_bytes    # aligned to one segment
        res = _group_access(spec, base + np.arange(16) * 4)
        assert res.coalesced and res.bus_bytes == spec.coalesce_segment_bytes
        # misaligned by one word: every lane serializes
        res = _group_access(spec, base + 4 + np.arange(16) * 4)
        assert not res.coalesced and res.transactions == 16


# ----------------------------------------------------------------------
# Occupancy limit tables (Fermi goldens; G80 unchanged elsewhere)
# ----------------------------------------------------------------------

class TestFermiOccupancy:
    def test_limit_table_24x24_tile(self):
        spec = gtx_480()
        limits = spec.occupancy_limit_table(576, 9, 4608)
        assert limits == {"blocks": 8, "threads": 2, "warps": 2,
                          "registers": 5, "shared": 10}
        occ = compute_occupancy(576, 9, 4608, spec)
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "threads"

    def test_limit_table_32x32_tile(self):
        spec = gtx_480()
        occ = compute_occupancy(1024, 9, 8192, spec)
        assert occ.blocks_per_sm == 1
        assert occ.limiter == "threads"

    def test_warp_ceiling_can_bind(self):
        # 64-thread blocks, tiny resources: 48-warp ceiling binds at
        # 24 blocks > 8-block cap -> blocks; with 192 threads the warp
        # ceiling (8 blocks) equals the block cap, threads allows 8.
        spec = gtx_480()
        limits = spec.occupancy_limit_table(96, 4, 0)
        assert limits["warps"] == 16
        assert limits["blocks"] == 8

    def test_register_allocation_is_warp_granular(self):
        spec = gtx_480()
        # 33 regs x 32 lanes = 1056 -> rounds to 1088 per warp (gran 64)
        limits = spec.occupancy_limit_table(512, 33, 0)
        per_warp = -(-33 * 32 // 64) * 64
        assert limits["registers"] == spec.registers_per_sm \
            // (per_warp * 16)

    def test_g80_table_has_no_warp_entry(self):
        limits = geforce_8800_gtx().occupancy_limit_table(256, 10, 0)
        assert "warps" not in limits
        assert limits["threads"] == 3


# ----------------------------------------------------------------------
# Cache hierarchy
# ----------------------------------------------------------------------

class TestCacheHierarchy:
    def test_repeat_access_hits_l1(self):
        spec = gtx_480()
        h = CacheHierarchy(spec)
        addrs = np.arange(32, dtype=np.int64) * 4
        active = np.ones(32, bool)
        first = h.access(addrs, active)
        again = h.access(addrs, active)
        assert first.l1_misses == 1 and first.dram_lines == 1
        assert again.l1_hits == 1 and again.dram_lines == 0

    def test_l2_catches_l1_evictions(self):
        spec = gtx_480()
        h = CacheHierarchy(spec)
        active = np.ones(32, bool)
        l1_lines = spec.l1_cache_bytes_per_sm // spec.cache_line_bytes
        # touch enough distinct lines to wrap L1 (direct-mapped), then
        # re-touch the first line: L1 misses but L2 still holds it
        for i in range(l1_lines + 1):
            h.access(np.full(32, i * spec.cache_line_bytes, np.int64),
                     active)
        out = h.access(np.zeros(32, np.int64), active)
        assert out.l1_misses == 1
        assert out.l2_hits == 1
        assert out.dram_lines == 0

    def test_only_cached_devices_build_a_hierarchy(self):
        from repro.apps.matmul import MatMul
        for name, expect in (("geforce_8800_gtx", False),
                             ("gtx_480", True)):
            app = MatMul(device_by_name(name))
            run = app.run({"n": 32, "variant": "tiled", "tile": 16,
                           "trace_blocks": 1}, functional=False)
            trace = run.launches[0].trace
            has_l1 = (trace.l1_hits + trace.l1_misses) > 0
            assert has_l1 == expect


# ----------------------------------------------------------------------
# Cross-device functional bit-identity
# ----------------------------------------------------------------------

SWEEP_DEVICES = ("geforce_8800_gtx", "geforce_8800_gts", "gtx_480")


class TestCrossDeviceBitIdentity:
    @pytest.mark.parametrize("variant", ["naive", "tiled",
                                         "tiled_unrolled", "prefetch"])
    def test_matmul_bits_do_not_move_with_the_device(self, variant):
        from repro.apps.matmul import MatMul
        outputs = []
        for name in SWEEP_DEVICES:
            app = MatMul(device_by_name(name))
            run = app.run({"n": 64, "variant": variant, "tile": 16,
                           "trace_blocks": 1}, functional=True)
            outputs.append(run.outputs)
        for other in outputs[1:]:
            assert set(outputs[0]) == set(other)
            for key in outputs[0]:
                np.testing.assert_array_equal(outputs[0][key], other[key])

    def test_saxpy_bits_do_not_move_with_the_device(self):
        from repro.apps.registry import get_app
        outputs = []
        for name in SWEEP_DEVICES:
            app = get_app("saxpy", device_by_name(name))
            run = app.run(app.default_workload("test"), functional=True)
            outputs.append(run.outputs)
        for other in outputs[1:]:
            for key in outputs[0]:
                np.testing.assert_array_equal(outputs[0][key], other[key])


# ----------------------------------------------------------------------
# Cross-device retuning
# ----------------------------------------------------------------------

class TestDeviceTileSizes:
    def test_g80_reproduces_the_figure4_sweep(self):
        from repro.sim.autotuner import device_tile_sizes
        assert device_tile_sizes(geforce_8800_gtx()) == (4, 8, 12, 16)

    def test_fermi_admits_larger_tiles(self):
        from repro.sim.autotuner import device_tile_sizes
        assert device_tile_sizes(gtx_480()) == (4, 8, 12, 16, 24, 32)
        assert device_tile_sizes(rtx_3090()) == (4, 8, 12, 16, 24, 32)

    def test_autotuner_space_grows_with_the_device(self):
        from repro.sim.autotuner import MatmulAutotuner
        g80 = MatmulAutotuner(spec=geforce_8800_gtx())
        fermi = MatmulAutotuner(spec=gtx_480())
        assert len(g80.space()) == 13
        assert len(fermi.space()) == 19
