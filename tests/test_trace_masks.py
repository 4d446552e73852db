"""Per-mask issue accounting: the traced block and the static census
read one :class:`~repro.cuda.context.MaskStats` record per mask-stack
entry instead of reducing the mask on every instruction.  Both must
count exactly what a per-instruction recomputation from the current
mask counts — warps with an active lane, active lanes, partial warps
against the base mask, and per-branch divergence."""

import contextlib

import numpy as np
import pytest

from repro.analysis.interp import interpret
from repro.analysis.targets import LintTarget, garr
from repro.arch import DEFAULT_DEVICE
from repro.cuda import Device, Dim3, kernel
from repro.cuda.context import BlockContext, mask_stats
from repro.trace import KernelTrace

#: 48 threads: one full warp and one half-populated warp on the G80
BLOCK = 48


@kernel("trace_masks_probe", regs_per_thread=8)
def trace_masks_probe(ctx, out):
    tx = ctx.tx
    v = ctx.cvt(tx, np.float32)
    with ctx.masked(tx < 40):                  # splits the second warp
        v = ctx.merge(ctx.fmul(v, 2.0), v)
        with ctx.masked(tx % 2 == 0):          # nested: both warps split
            v = ctx.merge(ctx.fadd(v, 1.0), v)
            ctx.address_ops(3)
        with ctx.masked(tx != 5):              # second warp keeps its
            v = ctx.merge(ctx.fadd(v, 2.0), v)  # parent lanes, not base's
        with ctx.masked(tx >= 64):             # all-false: the sync is dead
            ctx.sync()
            v = ctx.merge(ctx.fadd(v, 3.0), v)
    ctx.sync()
    n = 0
    while ctx.any_active(tx > n * 12):         # divergent while loop
        with ctx.masked(tx > n * 12):
            v = ctx.merge(ctx.fmul(v, 0.5), v)
            ctx.loop_tail()
        n += 1
    ctx.st_global(out, tx, v)


def _lane_counts(mask, ws):
    return [int(mask[w:w + ws].sum()) for w in range(0, mask.size, ws)]


class OracleContext(BlockContext):
    """Recounts every instruction and branch from the current mask, one
    warp at a time, into ``ref``; the base class traces nothing."""

    def __init__(self, block):
        super().__init__(DEFAULT_DEVICE, Dim3(1), Dim3(block), (0, 0, 0))
        self.ref = KernelTrace()
        ws = self.spec.warp_size
        self._base = _lane_counts(np.ones(block, dtype=bool), ws)

    def _emit(self, cls, count=1, **_kw):
        counts = _lane_counts(self.mask, self.spec.warp_size)
        warps = sum(1 for c in counts if c)
        if count == 0 or warps == 0:
            return
        partial = sum(1 for c, b in zip(counts, self._base) if 0 < c < b)
        if partial:
            self.ref.record_divergent_issue(partial * count)
        self.ref.record_instr(cls, warps * count, sum(counts) * count)

    @contextlib.contextmanager
    def masked(self, cond):
        ws = self.spec.warp_size
        cond = np.broadcast_to(np.asarray(cond, dtype=bool), self.mask.shape)
        parent = _lane_counts(self.mask, ws)
        taken = _lane_counts(self.mask & cond, ws)
        skipped = _lane_counts(self.mask & ~cond, ws)
        warps = sum(1 for c in parent if c)
        if warps:
            self.ref.record_branch(warps, sum(
                1 for t, s in zip(taken, skipped) if t and s))
        with super().masked(cond):
            yield


def _instr_fields(trace):
    return {
        "warp_insts": dict(trace.warp_insts),
        "thread_insts": dict(trace.thread_insts),
        "flops": trace.flops,
        "divergent_issue": trace.divergence_serialized_warp_insts,
        "branch_warps": trace.branch_warps,
        "divergent_branch_warps": trace.divergent_branch_warps,
        "syncs": trace.syncs,
    }


def _oracle():
    ctx = OracleContext(BLOCK)
    trace_masks_probe.fn(ctx, _out())
    return _instr_fields(ctx.ref)


def _out():
    return Device().alloc(BLOCK, np.float32, "out")


def test_oracle_exercises_every_case():
    ref = _oracle()
    # partial warps, divergent branches and a multi-trip divergent
    # loop all occur, so the comparisons below are not vacuous
    assert ref["divergent_issue"] > 0
    assert ref["divergent_branch_warps"] > 0
    assert ref["syncs"] == 2                   # the dead sync is not counted


def test_block_context_matches_per_instruction_recount():
    trace = KernelTrace()
    ctx = BlockContext(DEFAULT_DEVICE, Dim3(1), Dim3(BLOCK), (0, 0, 0),
                       trace=trace)
    trace_masks_probe.fn(ctx, _out())
    assert len(ctx._mask_stack) == 1
    assert _instr_fields(trace) == _oracle()


def test_census_matches_per_instruction_recount():
    target = LintTarget(trace_masks_probe, (1, 1, 1), (BLOCK, 1, 1),
                        (garr("out", BLOCK),))
    _recorder, ctx = interpret(target, (0, 0, 0), DEFAULT_DEVICE)
    assert len(ctx._mask_stack) == 1
    assert _instr_fields(ctx.census) == _oracle()


@pytest.mark.parametrize("block", [32, 48, 100])
def test_stats_record_matches_recount(block):
    rng = np.random.default_rng(block)
    ws = DEFAULT_DEVICE.warp_size
    base = mask_stats(np.ones(block, dtype=bool), ws)
    for _ in range(20):
        parent = rng.random(block) < 0.7
        cond = rng.random(block) < 0.5
        ps = mask_stats(parent, ws, base)
        cs = mask_stats(parent & cond, ws, base)
        counts = _lane_counts(parent & cond, ws)
        full = _lane_counts(np.ones(block, dtype=bool), ws)
        assert cs.counts.tolist() == counts
        assert cs.warps == sum(1 for c in counts if c)
        assert cs.lanes == int((parent & cond).sum())
        assert cs.partial == sum(1 for c, b in zip(counts, full)
                                 if 0 < c < b)
        skipped = _lane_counts(parent & ~cond, ws)
        assert ps.divergent_warps(cs) == sum(
            1 for t, s in zip(counts, skipped) if t and s)
