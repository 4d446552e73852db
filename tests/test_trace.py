"""Tests for KernelTrace aggregation, scaling and derived metrics."""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import (
    ArrayAccessStats,
    InstrClass,
    KernelTrace,
    flops_of,
    is_global_memory,
    is_sfu,
)


def sample_trace(fma=10.0, lds=5.0, ldg=3.0, sync=1.0):
    t = KernelTrace()
    t.record_instr(InstrClass.FMA, fma, fma * 32)
    t.record_instr(InstrClass.LD_SHARED, lds, lds * 32)
    t.record_instr(InstrClass.LD_GLOBAL, ldg, ldg * 32)
    t.record_instr(InstrClass.SYNC, sync, sync * 32)
    t.record_global_access("x", warp_accesses=6, transactions=8,
                           bus_bytes=512, useful_bytes=384,
                           coalesced_accesses=5)
    t.record_shared_conflict(10.0)
    t.record_cache("const", hits=7, misses=3)
    t.blocks_traced = 1
    t.threads_traced = 256
    return t


class TestInstrHelpers:
    def test_flops_of(self):
        assert flops_of(InstrClass.FMA) == 2
        assert flops_of(InstrClass.FADD) == 1
        assert flops_of(InstrClass.IALU) == 0
        assert flops_of(InstrClass.SFU) == 1

    def test_class_predicates(self):
        assert is_global_memory(InstrClass.LD_GLOBAL)
        assert is_global_memory(InstrClass.ATOM_GLOBAL)
        assert not is_global_memory(InstrClass.LD_SHARED)
        assert is_sfu(InstrClass.SFU) and is_sfu(InstrClass.FDIV)
        assert not is_sfu(InstrClass.FMA)

    def test_identity_hash_survives_pickling(self):
        # InstrClass hashes by identity; members unpickle as the same
        # singletons, so Counter-keyed traces round-trip in-process and
        # rebuild their keys in another process
        assert all(hash(c) == object.__hash__(c) for c in InstrClass)
        t = sample_trace()
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(t, protocol=proto))
            assert back == t and back.summary() == t.summary()
            assert all(k is InstrClass[k.name] for k in back.warp_insts)
            assert back.warp_insts[InstrClass.FMA] == 10.0
        probe = ("import pickle, sys; t = pickle.loads(sys.stdin.buffer.read());"
                 "from repro.trace import InstrClass;"
                 "print(t.warp_insts[InstrClass.SYNC], t.flops)")
        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe],
                             input=pickle.dumps(t), capture_output=True,
                             env=env, check=True).stdout.decode().split()
        assert out == ["1.0", str(t.flops)]


class TestRecording:
    def test_flop_accounting(self):
        t = sample_trace()
        assert t.flops == 10 * 32 * 2

    def test_sync_counted(self):
        assert sample_trace().syncs == 1.0

    def test_fma_fraction(self):
        t = sample_trace()
        assert t.fma_fraction == pytest.approx(10 / 19)

    def test_memory_to_compute_ratio(self):
        t = sample_trace()
        assert t.memory_to_compute_ratio == pytest.approx(3 / 16)

    def test_coalesced_fraction(self):
        t = sample_trace()
        # 8 transactions, 5 of them from coalesced accesses
        assert t.coalesced_fraction == pytest.approx(1 - 3 / 8)

    def test_per_array_stats(self):
        s = sample_trace().per_array["x"]
        assert s.transactions_per_access == pytest.approx(8 / 6)
        assert s.bus_efficiency == pytest.approx(384 / 512)

    def test_cache_recording(self):
        t = sample_trace()
        assert t.const_hits == 7 and t.const_misses == 3
        t.record_cache("l2", 2, 1)       # a real level on cached devices
        assert t.l2_hits == 2 and t.l2_misses == 1
        with pytest.raises(ValueError):
            t.record_cache("l3", 1, 1)

    def test_instruction_mix_normalized(self):
        mix = sample_trace().instruction_mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix["fma"] == pytest.approx(10 / 19)

    def test_empty_trace_metrics(self):
        t = KernelTrace()
        assert t.fma_fraction == 0.0
        assert t.coalesced_fraction == 1.0
        assert t.memory_to_compute_ratio == 0.0
        assert t.instruction_mix() == {}

    def test_pure_memory_trace_ratio_inf(self):
        t = KernelTrace()
        t.record_instr(InstrClass.LD_GLOBAL, 4, 128)
        assert t.memory_to_compute_ratio == float("inf")


class TestMergeAndScale:
    def test_merge_adds_everything(self):
        a, b = sample_trace(), sample_trace()
        a.merge(b)
        assert a.warp_insts[InstrClass.FMA] == 20
        assert a.flops == 2 * 10 * 32 * 2
        assert a.global_bus_bytes == 1024
        assert a.per_array["x"].transactions == 16
        assert a.shared_conflict_cycles == 20.0
        assert a.const_hits == 14
        assert a.blocks_traced == 2

    def test_merge_distinct_arrays(self):
        a = sample_trace()
        b = KernelTrace()
        b.record_global_access("y", 1, 1, 64, 64, 1)
        a.merge(b)
        assert set(a.per_array) == {"x", "y"}

    @settings(max_examples=30, deadline=None)
    @given(factor=st.floats(0.1, 100.0))
    def test_scaling_is_linear(self, factor):
        t = sample_trace()
        s = t.scaled(factor)
        assert s.total_warp_insts == pytest.approx(
            t.total_warp_insts * factor)
        assert s.flops == pytest.approx(t.flops * factor)
        assert s.global_bus_bytes == pytest.approx(
            t.global_bus_bytes * factor)
        assert s.syncs == pytest.approx(t.syncs * factor)

    @settings(max_examples=30, deadline=None)
    @given(factor=st.floats(0.1, 100.0))
    def test_scaling_preserves_ratios(self, factor):
        t = sample_trace()
        s = t.scaled(factor)
        assert s.fma_fraction == pytest.approx(t.fma_fraction)
        assert s.coalesced_fraction == pytest.approx(t.coalesced_fraction)
        assert s.memory_to_compute_ratio == pytest.approx(
            t.memory_to_compute_ratio)
        assert s.per_array["x"].bus_efficiency == pytest.approx(
            t.per_array["x"].bus_efficiency)

    def test_scale_then_merge_equals_merge_then_scale(self):
        a1, a2 = sample_trace(), sample_trace()
        merged = KernelTrace()
        merged.merge(a1)
        merged.merge(a2)
        merged_scaled = merged.scaled(3.0)

        s1, s2 = a1.scaled(3.0), a2.scaled(3.0)
        scaled_merged = KernelTrace()
        scaled_merged.merge(s1)
        scaled_merged.merge(s2)
        assert merged_scaled.total_warp_insts == pytest.approx(
            scaled_merged.total_warp_insts)
        assert merged_scaled.global_bus_bytes == pytest.approx(
            scaled_merged.global_bus_bytes)

    def test_summary_keys(self):
        s = sample_trace().summary()
        for key in ("warp_insts", "flops", "fma_fraction",
                    "global_transactions", "coalesced_fraction"):
            assert key in s


class TestArrayAccessStats:
    def test_empty_stats(self):
        s = ArrayAccessStats("z")
        assert s.transactions_per_access == 0.0
        assert s.bus_efficiency == 1.0

    def test_scaled(self):
        s = ArrayAccessStats("z", 2, 4, 256, 128, 1).scaled(2.0)
        assert s.warp_accesses == 4 and s.transactions == 8
        assert s.bus_efficiency == pytest.approx(0.5)
