"""The kernel DSL: warp-synchronous, trace-emitting block execution.

Kernels in this reproduction are Python functions of the form::

    def kernel(ctx: BlockContext, a: DeviceArray, b: DeviceArray, ...):
        tx, ty = ctx.tx, ctx.ty
        ...

executed **once per thread block** with every per-thread quantity held
as a NumPy vector over the block's threads (SIMD within the block,
mirroring the SPMD-on-SIMD execution the paper describes in Section 3).
Every architectural event is routed through a ``ctx`` method:

* ``fma/fadd/fmul/...`` — arithmetic, counted per warp-instruction and
  computed for real on the NumPy vectors;
* ``ld_global/st_global`` — global accesses: the per-thread addresses
  go through the G80 coalescing model and the transaction statistics
  land in the :class:`~repro.trace.trace.KernelTrace`;
* ``ld_shared/st_shared`` — scratchpad accesses with bank-conflict
  detection;
* ``ld_const/ld_tex`` — cached read-only paths;
* ``sfu_sin/sfu_cos/...`` — SFU transcendentals;
* ``sync`` — ``__syncthreads``;
* ``masked(cond)`` — divergent control flow: instructions inside the
  context only issue for warps that still have an active thread, so
  SIMD divergence penalties (Section 3/5) appear in the trace.

The same execution serves two purposes: it mutates real device arrays
(functional correctness, checked against NumPy references in the test
suite) and it emits the dynamic instruction/memory trace that the
performance models consume (the paper's PTX-inspection methodology).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arch.device import DeviceSpec
from ..trace.instr import InstrClass
from ..trace.trace import KernelTrace
from ..sim.memsys import (
    DirectMappedCache,
    block_bank_conflicts,
    coalesce_block_access,
    const_broadcast_cycles,
)
from .dim3 import Dim3
from .memory import (
    ConstantArray,
    CudaModelError,
    DeviceArray,
    SharedArray,
    TextureArray,
)

ArrayLike = Union[np.ndarray, float, int]


# ----------------------------------------------------------------------
# Rule metadata for the ctx.* vocabulary
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CtxOp:
    """Static classification of one ``ctx.*`` operation.

    The static analyzer (:mod:`repro.analysis`) drives its abstract
    interpretation of kernel source from this table instead of
    hard-coding the DSL surface: ``category`` decides how a call is
    modeled (arithmetic, memory event, barrier, divergence, ...) and
    ``result`` the kind of value it produces.  A new ctx method only
    needs an entry here to become analyzable.
    """

    category: str   # farith | iarith | sfu | cvt | select | merge |
    #                 global_ld | global_st | global_atomic |
    #                 shared_ld | shared_st | const_ld | tex_ld |
    #                 alloc | sync | masked | query | meta | identity
    result: str = "none"   # float | int | value | bool | shared | ctx | none


#: every public ``ctx`` method, classified for the static analyzer
CTX_OPS: Dict[str, CtxOp] = {
    # arithmetic (one warp instruction each)
    "fma": CtxOp("farith", "float"),
    "fadd": CtxOp("farith", "float"),
    "fsub": CtxOp("farith", "float"),
    "fmul": CtxOp("farith", "float"),
    "fdiv": CtxOp("farith", "float"),
    "fmin": CtxOp("farith", "float"),
    "fmax": CtxOp("farith", "float"),
    "iadd": CtxOp("iarith", "int"),
    "isub": CtxOp("iarith", "int"),
    "imul": CtxOp("iarith", "int"),
    "iand": CtxOp("iarith", "int"),
    "ior": CtxOp("iarith", "int"),
    "ixor": CtxOp("iarith", "int"),
    "ishl": CtxOp("iarith", "int"),
    "ishr": CtxOp("iarith", "int"),
    "cvt": CtxOp("cvt", "value"),
    "select": CtxOp("select", "value"),
    "merge": CtxOp("merge", "value"),
    # SFU transcendentals
    "sfu_sin": CtxOp("sfu", "float"),
    "sfu_cos": CtxOp("sfu", "float"),
    "sfu_rsqrt": CtxOp("sfu", "float"),
    "sfu_sqrt": CtxOp("sfu", "float"),
    "sfu_exp": CtxOp("sfu", "float"),
    "sfu_log": CtxOp("sfu", "float"),
    "sfu_rcp": CtxOp("sfu", "float"),
    # memory spaces
    "ld_global": CtxOp("global_ld", "value"),
    "st_global": CtxOp("global_st"),
    "atom_global_add": CtxOp("global_atomic"),
    "ld_shared": CtxOp("shared_ld", "value"),
    "st_shared": CtxOp("shared_st"),
    "ld_const": CtxOp("const_ld", "value"),
    "ld_tex": CtxOp("tex_ld", "value"),
    "shared_alloc": CtxOp("alloc", "shared"),
    # control
    "sync": CtxOp("sync"),
    "masked": CtxOp("masked", "ctx"),
    "any_active": CtxOp("query", "bool"),
    # bookkeeping the vectorized execution performs implicitly
    "loop_tail": CtxOp("meta"),
    "address_ops": CtxOp("meta"),
    # thread-identity helpers (methods; the tx/ty/... attrs are data)
    "global_tid_x": CtxOp("identity", "int"),
    "global_tid_y": CtxOp("identity", "int"),
    "global_tid": CtxOp("identity", "int"),
}

#: data attributes of a :class:`BlockContext` that kernels may read.
#: Like :data:`CTX_OPS` for methods, this is the authoritative list the
#: static tooling works from — the grid compiler
#: (:mod:`repro.compile`) lowers each of these to the equivalent
#: whole-grid identity value and refuses kernels touching anything
#: else on ``ctx``.
CTX_ATTRS: Tuple[str, ...] = (
    "tx", "ty", "tz", "tid", "bx", "by", "bz", "block_linear",
    "nthreads", "threads_per_block", "nwarps", "blockDim", "gridDim",
    "mask", "spec", "kernel_name",
)


class BlockContext:
    """Execution context of one thread block (see module docstring)."""

    def __init__(
        self,
        spec: DeviceSpec,
        grid: Dim3,
        block: Dim3,
        block_coord: Tuple[int, int, int],
        trace: Optional[KernelTrace] = None,
        caches: Optional[Dict[str, DirectMappedCache]] = None,
        stream: Optional[list] = None,
        kernel_name: str = "",
    ) -> None:
        self.spec = spec
        self.gridDim = grid
        self.blockDim = block
        self.bx, self.by, self.bz = block_coord
        #: name of the kernel this block belongs to; used to correlate
        #: runtime CudaModelErrors with static-analyzer findings
        self.kernel_name = kernel_name

        T = block.size
        tid = np.arange(T, dtype=np.int64)
        self.tid = tid
        self.tx = tid % block.x
        self.ty = (tid // block.x) % block.y
        self.tz = tid // (block.x * block.y)
        self.nthreads = T
        #: threads of ONE block — equals ``nthreads`` here, but stays
        #: per-block under batched execution, where ``nthreads`` widens
        #: to all lanes of the batch; index math that means "block
        #: size" must use this, not ``nthreads``
        self.threads_per_block = T
        self.nwarps = -(-T // spec.warp_size)

        self.trace = trace
        self.caches = caches or {}
        #: ordered instruction stream for the event-driven warp
        #: simulator (populated when the launch records streams)
        self.stream = stream
        self._mask_stack: List[np.ndarray] = [np.ones(T, dtype=bool)]
        #: lazily-computed per-warp lane counts of the base mask (the
        #: reference for divergence-serialization accounting)
        self._base_lane_counts: Optional[np.ndarray] = None
        self._smem_words = 0
        self.shared_arrays: List[SharedArray] = []

    def _where(self) -> str:
        """Error-message prefix naming the kernel and block geometry so
        runtime failures correlate with static-analyzer findings."""
        name = self.kernel_name or "<kernel>"
        b = self.blockDim
        return (f"{name} [block {b.x}x{b.y}x{b.z}, "
                f"blockIdx ({self.bx},{self.by},{self.bz})]")

    # ------------------------------------------------------------------
    # Thread identity helpers
    # ------------------------------------------------------------------
    @property
    def block_linear(self) -> int:
        """Linear block index within the grid."""
        return self.gridDim.linear(self.bx, self.by, self.bz)

    def global_tid_x(self) -> np.ndarray:
        """``blockIdx.x * blockDim.x + threadIdx.x`` for every thread."""
        return self.bx * self.blockDim.x + self.tx

    def global_tid_y(self) -> np.ndarray:
        return self.by * self.blockDim.y + self.ty

    def global_tid(self) -> np.ndarray:
        """Grid-wide linear thread id (x fastest, matching CUDA)."""
        block_threads = self.blockDim.size
        return self.block_linear * block_threads + self.tid

    # ------------------------------------------------------------------
    # Mask / divergence machinery
    # ------------------------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1]

    def _active_warps(self, mask: np.ndarray) -> int:
        ws = self.spec.warp_size
        pad = (-mask.shape[0]) % ws
        if pad:
            mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
        return int(mask.reshape(-1, ws).any(axis=1).sum())

    def _warp_lane_counts(self, mask: np.ndarray) -> np.ndarray:
        """Active-lane count per warp (warp-size padded)."""
        ws = self.spec.warp_size
        pad = (-mask.shape[0]) % ws
        if pad:
            mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
        return mask.reshape(-1, ws).sum(axis=1)

    def _partial_warps(self, mask: np.ndarray) -> int:
        """Warps issuing under ``mask`` with fewer active lanes than
        the block's base mask gives them — the lanes a divergent
        branch idled (pure block-geometry padding is excluded)."""
        if self._base_lane_counts is None:
            self._base_lane_counts = self._warp_lane_counts(
                self._mask_stack[0])
        counts = self._warp_lane_counts(mask)
        return int(((counts > 0)
                    & (counts < self._base_lane_counts)).sum())

    def _divergent_warps(self, parent: np.ndarray,
                         cond: np.ndarray) -> int:
        """Warps whose ``parent``-active lanes disagree on ``cond`` —
        those warps execute both sides of the branch serially."""
        taken = self._warp_lane_counts(parent & cond)
        skipped = self._warp_lane_counts(parent & ~cond)
        return int(((taken > 0) & (skipped > 0)).sum())

    def _emit(self, cls: InstrClass, count: int = 1,
              mask: Optional[np.ndarray] = None,
              mem: Optional[Tuple[float, float]] = None,
              divergent_warps: int = 0) -> None:
        if self.trace is None or count == 0:
            return
        m = self.mask if mask is None else mask
        warps = self._active_warps(m)
        if warps == 0:
            return
        partial = 0
        if len(self._mask_stack) > 1:
            partial = self._partial_warps(m)
            if partial:
                self.trace.record_divergent_issue(partial * count)
        self.trace.record_instr(cls, warps * count, int(m.sum()) * count)
        if self.stream is not None:
            from ..sim.warpsim import StreamEvent
            txn_w, bytes_w = mem if mem else (0.0, 0.0)
            self.stream.extend(
                StreamEvent(cls, warps, txn_w, bytes_w,
                            divergent_warps, partial)
                for _ in range(count))

    @contextlib.contextmanager
    def masked(self, cond: np.ndarray):
        """Divergent branch: execute the body only where ``cond`` holds.

        Emits the predicate-set and branch instructions; instructions
        inside issue for every warp that still has an active lane, so
        a warp whose threads disagree pays for both paths when the
        kernel also executes the complementary :meth:`masked` region —
        exactly the SIMD divergence cost of Section 3.
        """
        cond = np.broadcast_to(np.asarray(cond, dtype=bool), (self.nthreads,))
        divergent = 0
        if self.trace is not None:
            parent = self.mask
            warps = self._active_warps(parent)
            if warps:
                divergent = self._divergent_warps(parent, cond)
                self.trace.record_branch(warps, divergent)
        self._emit(InstrClass.SETP)
        self._emit(InstrClass.BRANCH, divergent_warps=divergent)
        self._mask_stack.append(self.mask & cond)
        try:
            yield
        finally:
            self._mask_stack.pop()

    def merge(self, new: np.ndarray, old: np.ndarray) -> np.ndarray:
        """Predicated write-back for register values inside a
        :meth:`masked` region: active lanes take ``new``, inactive
        lanes keep ``old``.  Free at the ISA level (results are
        committed under the active mask), hence no instruction is
        recorded.  Any accumulator updated inside divergent control
        flow must go through this — a plain assignment would clobber
        the inactive lanes with whatever the vectorized evaluation
        produced for them.
        """
        return np.where(self.mask, self._bc(new), self._bc(old))

    def any_active(self, cond: np.ndarray) -> bool:
        """True if any active thread satisfies ``cond`` (host-side loop
        control for divergent ``while`` loops)."""
        cond = np.broadcast_to(np.asarray(cond, dtype=bool), (self.nthreads,))
        return bool((self.mask & cond).any())

    # ------------------------------------------------------------------
    # Arithmetic (each op = one warp instruction per active warp)
    # ------------------------------------------------------------------
    def _bc(self, v: ArrayLike, dtype=None) -> np.ndarray:
        a = np.asarray(v, dtype=dtype)
        if a.ndim == 0:
            a = np.broadcast_to(a, (self.nthreads,))
        return a

    def fma(self, a: ArrayLike, b: ArrayLike, c: ArrayLike) -> np.ndarray:
        """Fused multiply-add ``a * b + c`` (2 flops/thread)."""
        self._emit(InstrClass.FMA)
        return (self._bc(a, np.float32) * self._bc(b, np.float32)
                + self._bc(c, np.float32)).astype(np.float32)

    def fadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FADD)
        return (self._bc(a, np.float32) + self._bc(b, np.float32)).astype(np.float32)

    def fsub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FADD)
        return (self._bc(a, np.float32) - self._bc(b, np.float32)).astype(np.float32)

    def fmul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FMUL)
        return (self._bc(a, np.float32) * self._bc(b, np.float32)).astype(np.float32)

    def fdiv(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Floating divide — multi-cycle, executed on the SFU pipe."""
        self._emit(InstrClass.FDIV)
        return (self._bc(a, np.float32) / self._bc(b, np.float32)).astype(np.float32)

    def fmin(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FCMP)
        return np.minimum(self._bc(a, np.float32), self._bc(b, np.float32))

    def fmax(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.FCMP)
        return np.maximum(self._bc(a, np.float32), self._bc(b, np.float32))

    def iadd(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) + self._bc(b, np.int64)

    def isub(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) - self._bc(b, np.int64)

    def imul(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """32-bit integer multiply (slower than FP MAD on the G80)."""
        self._emit(InstrClass.IMUL)
        return self._bc(a, np.int64) * self._bc(b, np.int64)

    def iand(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) & self._bc(b, np.int64)

    def ior(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) | self._bc(b, np.int64)

    def ixor(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return self._bc(a, np.int64) ^ self._bc(b, np.int64)

    def ishl(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return (self._bc(a, np.int64) << self._bc(b, np.int64))

    def ishr(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        self._emit(InstrClass.IALU)
        return (self._bc(a, np.int64) >> self._bc(b, np.int64))

    def cvt(self, a: ArrayLike, dtype) -> np.ndarray:
        """Type conversion / register move."""
        self._emit(InstrClass.CVT)
        return self._bc(a).astype(dtype)

    def select(self, cond: ArrayLike, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Predicated select (no divergence — one instruction)."""
        self._emit(InstrClass.SETP)
        cond = self._bc(cond, bool)
        av, bv = self._bc(a), self._bc(b)
        out_dtype = np.result_type(av.dtype, bv.dtype)
        return np.where(cond, av, bv).astype(out_dtype)

    # ------------------------------------------------------------------
    # SFU transcendentals (Section 3.2: sin/cos/rsqrt on the SFUs)
    # ------------------------------------------------------------------
    def _sfu(self, fn: Callable[[np.ndarray], np.ndarray], x: ArrayLike
             ) -> np.ndarray:
        self._emit(InstrClass.SFU)
        with np.errstate(divide="ignore", invalid="ignore"):
            return fn(self._bc(x, np.float32)).astype(np.float32)

    def sfu_sin(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(np.sin, x)

    def sfu_cos(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(np.cos, x)

    def sfu_rsqrt(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: 1.0 / np.sqrt(v), x)

    def sfu_sqrt(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(np.sqrt, x)

    def sfu_exp(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(np.exp, x)

    def sfu_log(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: np.log(np.maximum(v, 1e-30)), x)

    def sfu_rcp(self, x: ArrayLike) -> np.ndarray:
        return self._sfu(lambda v: 1.0 / v, x)

    # ------------------------------------------------------------------
    # Loop bookkeeping (the instructions unrolling removes, Section 4.3)
    # ------------------------------------------------------------------
    def loop_tail(self, induction_updates: int = 1) -> None:
        """Account the per-iteration loop overhead: ``induction_updates``
        integer increments plus the compare and backward branch.  A
        fully unrolled loop simply never calls this."""
        self._emit(InstrClass.IALU, induction_updates)
        self._emit(InstrClass.SETP)
        self._emit(InstrClass.BRANCH)

    def address_ops(self, count: int = 1) -> None:
        """Account explicit address-calculation instructions that the
        vectorized functional execution performs implicitly."""
        self._emit(InstrClass.IALU, count)

    # ------------------------------------------------------------------
    # Shared memory
    # ------------------------------------------------------------------
    def shared_alloc(self, shape, dtype=np.float32,
                     name: str = "smem") -> SharedArray:
        """Allocate a per-block shared array, metered against the SM's
        16 KB (a block that oversubscribes cannot launch at all)."""
        arr = SharedArray(name, tuple(np.atleast_1d(shape)), np.dtype(dtype),
                          self._smem_words)
        self._smem_words += max(1, arr.itemsize // 4) * arr.size
        if self.smem_bytes > self.spec.shared_mem_per_sm:
            raise CudaModelError(
                f"{self._where()}: shared memory overflow: block requests "
                f"{self.smem_bytes} B > {self.spec.shared_mem_per_sm} B "
                f"per SM")
        self.shared_arrays.append(arr)
        return arr

    @property
    def smem_bytes(self) -> int:
        return self._smem_words * 4

    def _flat_index(self, index: ArrayLike) -> np.ndarray:
        idx = np.asarray(index)
        if idx.ndim == 0:
            idx = np.broadcast_to(idx, (self.nthreads,))
        if idx.shape[0] != self.nthreads:
            raise CudaModelError(
                f"index vector has {idx.shape[0]} lanes, block has "
                f"{self.nthreads} threads")
        # no copy when the caller already passed int64 lanes — every
        # consumer treats the flat index as read-only
        return idx.astype(np.int64, copy=False)

    def ld_shared(self, sh: SharedArray, index: ArrayLike) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        self._emit(InstrClass.LD_SHARED)
        self._record_bank_conflicts(sh, idx, mask)
        safe = np.where(mask, np.clip(idx, 0, sh.size - 1), 0)
        return sh.data[safe]

    def st_shared(self, sh: SharedArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        idx = self._flat_index(index)
        mask = self.mask
        self._emit(InstrClass.ST_SHARED)
        self._record_bank_conflicts(sh, idx, mask)
        vals = self._bc(value, sh.data.dtype)
        if idx[mask].size and (idx[mask].min() < 0 or idx[mask].max() >= sh.size):
            raise CudaModelError(
                f"{self._where()}: shared store out of bounds on "
                f"{sh.name!r}: indices span [{int(idx[mask].min())}, "
                f"{int(idx[mask].max())}] vs size {sh.size}")
        sh.data[idx[mask]] = vals[mask]

    def _record_bank_conflicts(self, sh: SharedArray, idx: np.ndarray,
                               mask: np.ndarray) -> None:
        if self.trace is None:
            return
        accesses, degree = block_bank_conflicts(
            sh.word_indices(idx), mask, self.spec)
        # each extra serialization pass costs one access group's share
        # of the warp issue time (a half-warp on 16-bank devices)
        group_share = self.spec.shared_access_group / self.spec.warp_size
        extra = (degree - accesses) * (
            self.spec.timing.issue_cycles_per_warp_inst * group_share)
        if extra:
            self.trace.record_shared_conflict(extra)

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def ld_global(self, arr: DeviceArray, index: ArrayLike) -> np.ndarray:
        if arr.space != "global":
            raise CudaModelError(
                f"ld_global on {arr.space!r} array {arr.name!r}")
        idx = self._flat_index(index)
        mask = self.mask
        arr.check_bounds(idx, mask)
        mem = self._record_global(arr, idx, mask, kind="ld")
        self._emit(InstrClass.LD_GLOBAL, mem=mem)
        safe = np.where(mask, idx, 0)
        return arr.data[safe]

    def st_global(self, arr: DeviceArray, index: ArrayLike,
                  value: ArrayLike) -> None:
        if arr.space != "global":
            raise CudaModelError(
                f"st_global on {arr.space!r} array {arr.name!r}")
        idx = self._flat_index(index)
        mask = self.mask
        arr.check_bounds(idx, mask)
        mem = self._record_global(arr, idx, mask, kind="st")
        self._emit(InstrClass.ST_GLOBAL, mem=mem)
        vals = self._bc(value, arr.data.dtype)
        arr.data[idx[mask]] = vals[mask]

    def atom_global_add(self, arr: DeviceArray, index: ArrayLike,
                        value: ArrayLike) -> None:
        """Atomic add: functional via ``np.add.at``; performance-wise a
        fully serialized (uncoalesced) read-modify-write per thread."""
        idx = self._flat_index(index)
        mask = self.mask
        arr.check_bounds(idx, mask)
        self._emit(InstrClass.ATOM_GLOBAL)
        if self.trace is not None:
            n = int(mask.sum())
            group = self.spec.coalesce_group
            self.trace.record_global_access(
                arr.name,
                warp_accesses=-(-n // group),
                transactions=n,
                bus_bytes=n * self.spec.min_transaction_bytes,
                useful_bytes=n * arr.itemsize,
                coalesced_accesses=0,
                kind="atom",
            )
        vals = self._bc(value, arr.data.dtype)
        np.add.at(arr.data, idx[mask], vals[mask])

    def _record_global(self, arr: DeviceArray, idx: np.ndarray,
                       mask: np.ndarray, kind: str = "ld",
                       ) -> Optional[Tuple[float, float]]:
        if self.trace is None:
            return None
        addresses = arr.addresses(idx)
        wa, txn, bus, useful, coal = coalesce_block_access(
            addresses, mask, arr.itemsize, self.spec)
        request_bus = bus
        hierarchy = self.caches.get("global")
        if hierarchy is not None:
            # Cached global path: only lines missing in every level
            # occupy the DRAM bus; the transaction count (issue-side
            # cost) is the classifier's verdict either way.
            out = hierarchy.access(addresses, mask, arr.itemsize)
            if hierarchy.l1 is not None:
                self.trace.record_cache("l1", out.l1_hits, out.l1_misses)
            if hierarchy.l2 is not None:
                self.trace.record_cache("l2", out.l2_hits, out.l2_misses)
            bus = out.dram_lines * hierarchy.line_bytes
        self.trace.record_global_access(arr.name, wa, txn, bus, useful, coal,
                                        kind=kind,
                                        request_bus_bytes=request_bus)
        warps = max(self._active_warps(mask), 1)
        return (txn / warps, bus / warps)

    # ------------------------------------------------------------------
    # Cached read-only paths
    # ------------------------------------------------------------------
    def _cached_load(self, arr: DeviceArray, index: ArrayLike,
                     space: str, cls: InstrClass) -> np.ndarray:
        idx = self._flat_index(index)
        mask = self.mask
        arr.check_bounds(idx, mask)
        self._emit(cls)
        if self.trace is not None and space == "const":
            extra = const_broadcast_cycles(idx, mask, self.spec)
            if extra:
                self.trace.record_shared_conflict(extra)
        if self.trace is not None:
            cache = self.caches.get(space)
            if cache is not None:
                hits, misses = cache.access(arr.addresses(idx), mask)
                self.trace.record_cache(space, hits, misses)
                if misses:
                    # each missed line is one 32 B fill from DRAM
                    line = cache.line_bytes
                    self.trace.record_global_access(
                        arr.name,
                        warp_accesses=0,
                        transactions=misses,
                        bus_bytes=misses * line,
                        useful_bytes=misses * line,
                        coalesced_accesses=0,
                        kind="fill",
                    )
        safe = np.where(mask, idx, 0)
        return arr.data[safe]

    def ld_const(self, arr: ConstantArray, index: ArrayLike) -> np.ndarray:
        if arr.space != "const":
            raise CudaModelError(
                f"ld_const on {arr.space!r} array {arr.name!r}")
        return self._cached_load(arr, index, "const", InstrClass.LD_CONST)

    def ld_tex(self, arr: TextureArray, index: ArrayLike) -> np.ndarray:
        if arr.space != "tex":
            raise CudaModelError(f"ld_tex on {arr.space!r} array {arr.name!r}")
        return self._cached_load(arr, index, "tex", InstrClass.LD_TEX)

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """``__syncthreads()`` — block-wide barrier.

        Divergent barriers (a barrier inside a :meth:`masked` region
        that only *some* threads reach) deadlock real hardware; we
        reject them loudly instead.  A barrier under an all-false mask
        is dead code — no thread of this block reaches it (the
        block-uniform false branch), so nothing waits and nothing
        deadlocks.
        """
        if len(self._mask_stack) > 1 and not self.mask.all():
            if not self.mask.any():
                return          # unreachable for every thread: no-op
            raise CudaModelError(
                f"{self._where()}: __syncthreads() inside divergent "
                f"control flow")
        self._emit(InstrClass.SYNC)
