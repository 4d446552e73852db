"""Abstract interpreter: executes kernel source for one sample block.

The analyzer does not pattern-match source text.  It *runs* the kernel
the same way the simulator does — once per thread block with per-
thread NumPy vectors — but against a :class:`LintContext` that records
memory/barrier events instead of touching data, and with every value a
kernel cannot know statically (loaded data) represented by the
:class:`~repro.analysis.symbolic.SymVal` domain.  Because the sample
block's coordinates and the target's scalar arguments are concrete,
nearly all index arithmetic evaluates to exact per-lane vectors; the
rules in :mod:`repro.analysis.rules` then replay the event stream.

Dispatch over the ``ctx.*`` vocabulary is driven by
:data:`repro.cuda.context.CTX_OPS` — the context and the analyzer
share one description of the DSL surface.

Approximations (all deliberate, documented in DESIGN.md):

* ``ctx.select``/``ctx.merge``/``np.where`` under an *unknown*
  condition take the primary (new-value) branch and union taints;
* a data-dependent ``while`` runs its body twice;
* a data-dependent Python ``if`` runs both branches on forked scopes
  and merges, under an unknown divergence mask;
* ``for`` loops are bounded by :data:`LOOP_CAP` iterations.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arch.device import DEFAULT_DEVICE, DeviceSpec
from ..cuda.context import CTX_OPS
from ..cuda.dim3 import Dim3, as_dim3
from ..sim.memsys import (
    block_bank_conflicts, coalesce_block_access, const_broadcast_cycles)
from ..trace.instr import InstrClass
from ..trace.trace import KernelTrace
from .symbolic import (
    AnalysisLimit,
    BLOCK_COORD,
    NTHREADS,
    SymVal,
    as_sym,
    is_varying,
    taints_of,
)
from .targets import LintArray, LintTarget

#: iteration bound for concrete loops (largest shipped loop is the
#: 256-iteration SAD accumulation in h264; rc5 mixes for 78)
LOOP_CAP = 512

#: iterations to run a data-dependent while loop for
UNKNOWN_WHILE_ITERS = 2

#: op-name -> instruction class for the static census, mirroring the
#: per-method _emit calls of :class:`~repro.cuda.context.BlockContext`
#: (fsub accounts as FADD, fmin/fmax as FCMP, exactly like the DSL)
CENSUS_FARITH: Dict[str, InstrClass] = {
    "fma": InstrClass.FMA,
    "fadd": InstrClass.FADD,
    "fsub": InstrClass.FADD,
    "fmul": InstrClass.FMUL,
    "fdiv": InstrClass.FDIV,
    "fmin": InstrClass.FCMP,
    "fmax": InstrClass.FCMP,
}

#: memory (op, space) -> instruction class for the static census
CENSUS_MEM: Dict[Tuple[str, str], InstrClass] = {
    ("ld", "global"): InstrClass.LD_GLOBAL,
    ("st", "global"): InstrClass.ST_GLOBAL,
    ("atom", "global"): InstrClass.ATOM_GLOBAL,
    ("ld", "shared"): InstrClass.LD_SHARED,
    ("st", "shared"): InstrClass.ST_SHARED,
    ("ld", "const"): InstrClass.LD_CONST,
    ("ld", "tex"): InstrClass.LD_TEX,
}


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------

@dataclass
class MemEvent:
    """One memory access site execution (ld/st/atom, any space)."""

    line: int
    op: str                       # ld | st | atom
    space: str                    # global | shared | const | tex
    array: str
    index: object                 # SymVal or native snapshot
    itemsize: int
    size: Optional[int]           # element count when known
    mask: Optional[np.ndarray]    # concrete active-lane superset
    mask_exact: bool              # mask is exactly known
    mask_divergent: bool          # enclosing control flow diverges
    word_offset: int = 0          # shared only: first word of the array
    word_scale: int = 1           # shared only: words per element
    #: barrier interval: incremented at every __syncthreads(); two
    #: shared accesses in the same interval are concurrent (no
    #: happens-before edge orders them across threads)
    interval: int = 0


@dataclass
class SyncEvent:
    line: int
    divergent: bool
    #: the barrier interval this sync closes
    interval: int = 0


@dataclass
class AllocEvent:
    line: int
    name: str
    nbytes: int
    shape_taints: frozenset = frozenset()


@dataclass
class HazardEvent:
    """A construct that breaks :class:`BatchedExecutor` assumptions."""

    line: int
    kind: str      # scalar-coerce | scalar-range | python-if-coord |
    #                nthreads-index | nthreads-shared-shape | shared-data
    detail: str


@dataclass
class Recorder:
    """Collects the event stream of one sample-block execution."""

    events: List[object] = field(default_factory=list)
    notes: List[Tuple[int, str]] = field(default_factory=list)
    live_regs_max: int = 0
    current_line: int = 0
    live_counter: Optional[Callable[[], int]] = None
    _hazard_seen: set = field(default_factory=set)

    def emit(self, event) -> None:
        self.events.append(event)
        if self.live_counter is not None:
            self.live_regs_max = max(self.live_regs_max, self.live_counter())

    def hazard(self, kind: str, detail: str,
               line: Optional[int] = None) -> None:
        line = self.current_line if line is None else line
        key = (kind, line)
        if key in self._hazard_seen:
            return
        self._hazard_seen.add(key)
        self.events.append(HazardEvent(line, kind, detail))

    def note(self, message: str, line: Optional[int] = None) -> None:
        line = self.current_line if line is None else line
        if (line, message) not in self.notes and len(self.notes) < 20:
            self.notes.append((line, message))


# ----------------------------------------------------------------------
# Stand-ins handed to the interpreted kernel
# ----------------------------------------------------------------------

class OpaqueData:
    """Result of reading a shared array's raw ``.data`` attribute."""

    def __init__(self, owner: "LintShared") -> None:
        self._owner = owner

    def __getitem__(self, _index):
        kind = "int" if self._owner.dtype.kind in "iu" else "float"
        return SymVal.opaque(kind)

    def __setitem__(self, _index, _value) -> None:
        pass


class LintShared:
    """Shared-array stand-in produced by ``ctx.shared_alloc``."""

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: np.dtype,
                 word_offset: int, recorder: Recorder) -> None:
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.word_offset = word_offset
        self._recorder = recorder

    @property
    def size(self) -> int:
        out = 1
        for dim in self.shape:
            out *= dim
        return out

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def data(self) -> OpaqueData:
        self._recorder.hazard(
            "shared-data",
            f"raw .data access on shared array {self.name!r} bypasses the "
            f"lane model")
        return OpaqueData(self)


class _MaskedCM:
    """Context manager returned by the lint ``ctx.masked``."""

    def __init__(self, ctx: "LintContext", cond) -> None:
        self._ctx = ctx
        self._cond = cond

    def __enter__(self) -> None:
        # BlockContext.masked issues the predicate-set and branch under
        # the parent mask, before divergence takes effect
        self._ctx._census_branch(self._cond)
        self._ctx._census_emit(InstrClass.SETP)
        self._ctx._census_emit(InstrClass.BRANCH)
        self._ctx._push_mask(self._cond)

    def __exit__(self, *_exc) -> bool:
        self._ctx._pop_mask()
        return False


class LintContext:
    """Event-recording stand-in for
    :class:`~repro.cuda.context.BlockContext`.

    Method dispatch is generated from :data:`CTX_OPS`; a DSL method
    with no entry there simply does not exist here, which keeps the
    metadata table honest.
    """

    def __init__(self, spec: DeviceSpec, grid: Dim3, block: Dim3,
                 coord: Tuple[int, int, int], recorder: Recorder) -> None:
        self.spec = spec
        self.gridDim = grid
        self.blockDim = block
        self._recorder = recorder

        T = block.size
        tid = np.arange(T, dtype=np.int64)
        self.tid = tid
        self.tx = tid % block.x
        self.ty = (tid // block.x) % block.y
        self.tz = tid // (block.x * block.y)
        self.threads_per_block = T
        self.nwarps = -(-T // spec.warp_size)
        bx, by, bz = coord
        self.bx = SymVal.concrete(bx, "int", frozenset({BLOCK_COORD}))
        self.by = SymVal.concrete(by, "int", frozenset({BLOCK_COORD}))
        self.bz = SymVal.concrete(bz, "int", frozenset({BLOCK_COORD}))
        self.block_linear = SymVal.concrete(
            grid.linear(bx, by, bz), "int", frozenset({BLOCK_COORD}))
        #: widens to the whole batch under BatchedExecutor — tainted
        self.nthreads = SymVal.concrete(T, "int", frozenset({NTHREADS}))

        # (active-lane superset, exactly known?, divergent?)
        self._mask_stack: List[Tuple[np.ndarray, bool, bool]] = [
            (np.ones(T, dtype=bool), True, False)]
        #: current barrier interval (bumped by every __syncthreads())
        self._sync_interval = 0
        self._smem_words = 0
        self.shared_arrays: List[LintShared] = []
        #: static instruction census of this sample block — warp-level
        #: instruction counts recorded exactly the way BlockContext's
        #: _emit does, so :mod:`repro.analysis.census` can compare them
        #: against dynamic LaunchProfiler trace counters one-for-one
        self.census = KernelTrace()

        for op_name, op in CTX_OPS.items():
            if op.category == "identity":
                continue
            setattr(self, op_name, _bind_dispatch(self, op_name, op))

    # -- identity helpers (mirror BlockContext) -------------------------
    def global_tid_x(self):
        return self.bx * self.blockDim.x + self.tx

    def global_tid_y(self):
        return self.by * self.blockDim.y + self.ty

    def global_tid(self):
        return self.block_linear * self.blockDim.size + self.tid

    # -- mask machinery -------------------------------------------------
    @property
    def mask(self) -> np.ndarray:
        return self._mask_stack[-1][0]

    def _push_mask(self, cond) -> None:
        parent, parent_exact, parent_div = self._mask_stack[-1]
        sym = as_sym(cond)
        value = sym.concrete_value()
        if value is None:
            # unknown condition: active set is some subset of parent
            self._mask_stack.append((parent, False, True))
            return
        m = parent & np.broadcast_to(
            np.asarray(value, dtype=bool), parent.shape)
        divergent = parent_div or not bool(m.all())
        self._mask_stack.append((m, parent_exact, divergent))

    def _pop_mask(self) -> None:
        self._mask_stack.pop()

    def push_unknown_branch(self) -> None:
        """Divergence frame for a data-dependent Python ``if``."""
        parent, _exact, _div = self._mask_stack[-1]
        self._mask_stack.append((parent, False, True))

    def pop_unknown_branch(self) -> None:
        self._mask_stack.pop()

    def _mask_state(self) -> Tuple[np.ndarray, bool, bool]:
        return self._mask_stack[-1]

    # -- event helpers --------------------------------------------------
    @property
    def smem_bytes(self) -> int:
        return self._smem_words * 4

    def _line(self) -> int:
        return self._recorder.current_line

    # -- census (static instruction/byte accounting) --------------------
    def _census_lane_counts(self, mask: np.ndarray) -> np.ndarray:
        """Active-lane count per warp (mask padded to warp_size)."""
        ws = self.spec.warp_size
        pad = (-mask.shape[0]) % ws
        m = np.concatenate([mask, np.zeros(pad, dtype=bool)]) if pad \
            else mask
        return m.reshape(-1, ws).sum(axis=1)

    def _census_branch(self, cond) -> None:
        """Mirror of BlockContext.masked's branch bookkeeping: count the
        warps whose parent-active lanes disagree on ``cond``.  An
        unknown *thread-varying* condition (a data-dependent per-lane
        predicate) is charged pessimistically as all-warps-divergent;
        an unknown scalar is uniform — every lane agrees."""
        parent = self._mask_state()[0]
        counts = self._census_lane_counts(parent)
        warps = int((counts > 0).sum())
        if warps == 0:
            return
        sym = as_sym(cond)
        value = sym.concrete_value()
        if value is None:
            divergent = warps if is_varying(sym) else 0
        else:
            cvec = parent & np.broadcast_to(
                np.asarray(value, dtype=bool), parent.shape)
            taken = self._census_lane_counts(cvec)
            skipped = self._census_lane_counts(parent & ~cvec)
            divergent = int(((taken > 0) & (skipped > 0)).sum())
        self.census.record_branch(warps, divergent)

    def _census_emit(self, cls: InstrClass, count: int = 1) -> None:
        """Mirror of BlockContext._emit: one warp instruction per warp
        with any active lane, under the current divergence mask.  A
        partial-mask warp (divergence in effect) still occupies a full
        issue slot — counted toward the serialized-divergence total."""
        if count == 0:
            return
        mask = self._mask_state()[0]
        counts = self._census_lane_counts(mask)
        warps = int((counts > 0).sum())
        if warps == 0:
            return
        if len(self._mask_stack) > 1:
            base = self._census_lane_counts(self._mask_stack[0][0])
            partial = int(((counts > 0) & (counts < base)).sum())
            if partial:
                self.census.record_divergent_issue(partial * count)
        self.census.record_instr(cls, warps * count,
                                 int(mask.sum()) * count)

    def _census_global(self, name: str, index_sym: SymVal, itemsize: int,
                       mask: np.ndarray, kind: str = "ld") -> None:
        """Static coalescing outcome of one global access event, using
        the same :func:`coalesce_block_access` the simulator applies to
        real addresses (so the device's coalescing rule is honoured).
        A data-dependent index (a gather/scatter) is charged
        pessimistically: one transaction per active thread at the
        minimum bus granularity."""
        nthreads = mask.shape[0]
        value = index_sym.concrete_value()
        if value is not None:
            lanes = np.broadcast_to(np.asarray(value, dtype=np.int64),
                                    (nthreads,))
            wa, txn, bus, useful, coal = coalesce_block_access(
                lanes * itemsize, mask, itemsize, self.spec)
        else:
            n = int(mask.sum())
            if n == 0:
                return
            group = self.spec.coalesce_group
            wa = -(-n // group)
            txn = n
            bus = n * max(itemsize, self.spec.min_transaction_bytes)
            useful = n * itemsize
            coal = 0
        self.census.record_global_access(name, wa, txn, bus, useful, coal,
                                         kind=kind)

    def _census_shared(self, array: "LintShared", index_sym: SymVal,
                       mask: np.ndarray) -> None:
        """Static bank-conflict serialization cycles, mirroring
        BlockContext._record_bank_conflicts for concrete indices."""
        value = index_sym.concrete_value()
        if value is None:
            return
        nthreads = mask.shape[0]
        words = (np.broadcast_to(np.asarray(value, dtype=np.int64),
                                 (nthreads,))
                 * max(1, array.itemsize // 4) + array.word_offset)
        accesses, degree = block_bank_conflicts(words, mask, self.spec)
        group_share = self.spec.shared_access_group / self.spec.warp_size
        extra = (degree - accesses) * (
            self.spec.timing.issue_cycles_per_warp_inst * group_share)
        if extra:
            self.census.record_shared_conflict(extra)

    def _census_const(self, index_sym: SymVal, mask: np.ndarray) -> None:
        """Constant-cache broadcast serialization: threads of a
        coalescing group reading different words serialize one
        word/cycle."""
        value = index_sym.concrete_value()
        if value is None:
            return
        words = np.broadcast_to(np.asarray(value, dtype=np.int64),
                                mask.shape)
        extra = const_broadcast_cycles(words, mask, self.spec)
        if extra:
            self.census.record_shared_conflict(extra)

    def _record_access(self, op: str, space: str, array, index) -> None:
        mask, exact, divergent = self._mask_state()
        if isinstance(array, LintShared):
            name = array.name
            itemsize = array.itemsize
            size = array.size
            word_offset = array.word_offset
            word_scale = max(1, itemsize // 4)
        elif isinstance(array, LintArray):
            name = array.name
            itemsize = array.itemsize
            size = array.size
            word_offset = 0
            word_scale = 1
        else:
            raise AnalysisLimit(
                f"{op}_{space} on a non-array value {type(array).__name__}")
        index_sym = as_sym(index)
        if NTHREADS in index_sym.taints:
            self._recorder.hazard(
                "nthreads-index",
                f"ctx.nthreads feeds the index of {name!r} (widens under "
                f"batched execution; use ctx.threads_per_block)")
        self._recorder.emit(MemEvent(
            line=self._line(), op=op, space=space, array=name,
            index=index_sym, itemsize=itemsize, size=size,
            mask=mask.copy(), mask_exact=exact, mask_divergent=divergent,
            word_offset=word_offset, word_scale=word_scale,
            interval=self._sync_interval))
        self._census_emit(CENSUS_MEM[(op, space)])
        if space == "global":
            self._census_global(name, index_sym, itemsize, mask,
                                kind="atom" if op == "atom" else op)
        elif space == "shared":
            self._census_shared(array, index_sym, mask)
        elif space == "const":
            self._census_const(index_sym, mask)

    def _loaded_value(self, array) -> SymVal:
        if isinstance(array, LintShared):
            integer = array.dtype.kind in "iu"
        else:
            integer = array.is_integer
        return SymVal.unknown_int() if integer else SymVal.opaque("float")

    # -- CTX_OPS dispatch -----------------------------------------------
    def dispatch(self, name: str, op, *args, **kwargs):
        cat = op.category
        if cat in ("farith", "sfu"):
            self._census_emit(CENSUS_FARITH.get(name, InstrClass.SFU))
            taints = frozenset().union(*(taints_of(a) for a in args)) \
                if args else frozenset()
            varying = any(is_varying(a) for a in args)
            return SymVal.opaque("float", taints, varying)
        if cat == "iarith":
            self._census_emit(InstrClass.IMUL if name == "imul"
                              else InstrClass.IALU)
            return _int_arith(name, *args)
        if cat == "cvt":
            self._census_emit(InstrClass.CVT)
            value, dtype = args[0], args[1] if len(args) > 1 else np.float32
            return as_sym(value).astype(dtype)
        if cat == "select":
            self._census_emit(InstrClass.SETP)
            cond, new, old = args
            return _select(cond, new, old)
        if cat == "merge":
            new, old = args
            mask, exact, _div = self._mask_state()
            if exact:
                return _select(SymVal.concrete(mask, "bool"), new, old)
            return _select(SymVal.opaque("bool"), new, old)
        if cat == "global_ld":
            arr, index = args
            self._record_access("ld", "global", arr, index)
            return self._loaded_value(arr)
        if cat == "global_st":
            arr, index = args[0], args[1]
            self._record_access("st", "global", arr, index)
            return None
        if cat == "global_atomic":
            arr, index = args[0], args[1]
            self._record_access("atom", "global", arr, index)
            return self._loaded_value(arr)
        if cat == "shared_ld":
            sh, index = args
            self._record_access("ld", "shared", sh, index)
            return self._loaded_value(sh)
        if cat == "shared_st":
            sh, index = args[0], args[1]
            self._record_access("st", "shared", sh, index)
            return None
        if cat == "const_ld":
            arr, index = args
            self._record_access("ld", "const", arr, index)
            return self._loaded_value(arr)
        if cat == "tex_ld":
            arr, index = args
            self._record_access("ld", "tex", arr, index)
            return self._loaded_value(arr)
        if cat == "alloc":
            return self._shared_alloc(*args, **kwargs)
        if cat == "sync":
            _mask, exact, divergent = self._mask_state()
            self._recorder.emit(SyncEvent(self._line(),
                                          divergent=divergent or not exact,
                                          interval=self._sync_interval))
            self._sync_interval += 1
            self._census_emit(InstrClass.SYNC)
            return None
        if cat == "masked":
            return _MaskedCM(self, args[0])
        if cat == "query":      # any_active
            cond = as_sym(args[0])
            value = cond.concrete_value()
            if value is None:
                return SymVal.opaque("bool", cond.taints, True)
            mask = self._mask_state()[0]
            return bool(np.any(np.broadcast_to(
                np.asarray(value, dtype=bool), mask.shape) & mask))
        if cat == "meta":       # loop_tail / address_ops
            count = int(args[0]) if args else 1
            self._census_emit(InstrClass.IALU, count)
            if name == "loop_tail":
                self._census_emit(InstrClass.SETP)
                self._census_emit(InstrClass.BRANCH)
            return None
        raise AnalysisLimit(f"unmodeled ctx op {name!r} ({cat})")

    def _shared_alloc(self, shape, dtype=np.float32,
                      name: str = "smem") -> LintShared:
        dims: List[int] = []
        shape_taints: frozenset = frozenset()
        shape_seq = shape if isinstance(shape, (tuple, list)) else (shape,)
        for dim in shape_seq:
            if isinstance(dim, SymVal):
                shape_taints |= dim.taints
                value = dim.concrete_value()
                if value is None or dim.varying:
                    raise AnalysisLimit("shared_alloc shape is data-"
                                        "dependent")
                dims.append(int(np.asarray(value)))
            else:
                dims.append(int(dim))
        if NTHREADS in shape_taints:
            self._recorder.hazard(
                "nthreads-shared-shape",
                f"shared array {name!r} sized by ctx.nthreads (widens "
                f"under batched execution)")
        np_dtype = np.dtype(_np_dtype(dtype))
        arr = LintShared(name, tuple(dims), np_dtype, self._smem_words,
                         self._recorder)
        self._smem_words += max(1, np_dtype.itemsize // 4) * arr.size
        self._recorder.emit(AllocEvent(
            self._line(), name, arr.size * np_dtype.itemsize, shape_taints))
        self.shared_arrays.append(arr)
        return arr


def _bind_dispatch(ctx: LintContext, name: str, op):
    def bound(*args, **kwargs):
        return ctx.dispatch(name, op, *args, **kwargs)
    bound.__name__ = name
    return bound


def _int_arith(name: str, a, b):
    if name == "iadd":
        return as_sym(a) + b
    if name == "isub":
        return as_sym(a) - b
    if name == "imul":
        return as_sym(a) * b
    if name == "iand":
        return as_sym(a) & b
    if name == "ior":
        return as_sym(a) | b
    if name == "ixor":
        return as_sym(a) ^ b
    if name == "ishl":
        return as_sym(a) << b
    if name == "ishr":
        return as_sym(a) >> b
    raise AnalysisLimit(f"unknown integer op {name!r}")


def _select(cond, new, old):
    """``where(cond, new, old)`` in the abstract domain.

    Unknown condition: if both branches are provably the same value,
    keep it; otherwise take the *primary* (new) branch, mark varying
    and union taints — interior-block behaviour, good enough for the
    index structure the classifiers need.
    """
    c = as_sym(cond)
    cv = c.concrete_value()
    n, o = as_sym(new), as_sym(old)
    taints = c.taints | n.taints | o.taints
    if cv is not None:
        nv, ov = n.concrete_value(), o.concrete_value()
        if nv is not None and ov is not None:
            result = np.where(np.asarray(cv, dtype=bool), nv, ov)
            kind = "float" if (n.kind == "float" or o.kind == "float") \
                else n.kind
            return SymVal(result, None, kind, taints,
                          is_varying(result) or n.varying or o.varying)
        cond_arr = np.asarray(cv, dtype=bool)
        if bool(np.all(cond_arr)):
            return SymVal(n.lanes, n.terms, n.kind, taints, n.varying)
        if not bool(np.any(cond_arr)):
            return SymVal(o.lanes, o.terms, o.kind, taints, o.varying)
        primary = n if nv is not None or ov is None else o
        return SymVal(primary.lanes, primary.terms, primary.kind, taints,
                      True)
    if n.same_expr(o):
        return SymVal(n.lanes, n.terms, n.kind, taints, n.varying)
    return SymVal(n.lanes, n.terms, n.kind, taints, True)


# ----------------------------------------------------------------------
# NumPy shim
# ----------------------------------------------------------------------

_CASTER_NAMES = ("int8", "int16", "int32", "int64", "uint8", "uint16",
                 "uint32", "uint64", "float16", "float32", "float64")


class NpCaster:
    """Stand-in for ``np.int64`` & friends: usable both as a dtype and
    as a scalar-coercion call (the batch-safety flashpoint)."""

    def __init__(self, np_type, recorder: Recorder) -> None:
        self.np_type = np_type
        self._recorder = recorder

    def __call__(self, value):
        if isinstance(value, SymVal):
            if value.is_scalar and (value.taints & {BLOCK_COORD, NTHREADS}):
                which = "block coordinate" \
                    if BLOCK_COORD in value.taints else "ctx.nthreads"
                self._recorder.hazard(
                    "scalar-coerce",
                    f"np.{self.np_type.__name__}() on a scalar derived "
                    f"from the {which} (becomes a vector under batched "
                    f"execution)")
            return value.astype(self.np_type)
        return self.np_type(value)


def _np_dtype(dtype):
    return dtype.np_type if isinstance(dtype, NpCaster) else dtype


class NpShim:
    """The ``np`` the interpreted kernel sees: concrete where possible,
    abstract where a value is symbolic, recording batch hazards."""

    def __init__(self, recorder: Recorder, nthreads: int) -> None:
        self._recorder = recorder
        self._nthreads = nthreads

    # shape arguments may legitimately be ctx.nthreads — drop taints
    def _shape(self, shape):
        if isinstance(shape, SymVal):
            value = shape.concrete_value()
            if value is None or shape.varying:
                raise AnalysisLimit("data-dependent array shape")
            return int(np.asarray(value))
        if isinstance(shape, (tuple, list)):
            return tuple(self._shape(s) for s in shape)
        return shape

    def zeros(self, shape, dtype=np.float64):
        return np.zeros(self._shape(shape), dtype=_np_dtype(dtype))

    def ones(self, shape, dtype=np.float64):
        return np.ones(self._shape(shape), dtype=_np_dtype(dtype))

    def empty(self, shape, dtype=np.float64):
        return np.zeros(self._shape(shape), dtype=_np_dtype(dtype))

    def arange(self, *args, **kwargs):
        args = tuple(int(a) if isinstance(a, SymVal) else a for a in args)
        if "dtype" in kwargs:
            kwargs["dtype"] = _np_dtype(kwargs["dtype"])
        return np.arange(*args, **kwargs)

    def full(self, shape, fill, dtype=None):
        shape = self._shape(shape)
        np_dtype = _np_dtype(dtype)
        if not isinstance(fill, SymVal):
            return np.full(shape, fill,
                           **({"dtype": np_dtype} if dtype is not None
                              else {}))
        value = fill.concrete_value()
        if value is None:
            return SymVal.opaque(fill.kind, fill.taints, fill.varying)
        lanes = np.broadcast_to(np.asarray(value), (shape,)
                                if isinstance(shape, int) else shape).copy()
        if np_dtype is not None:
            lanes = lanes.astype(np_dtype)
        return SymVal(lanes, None, fill.kind, fill.taints, fill.varying)

    def broadcast_to(self, value, shape):
        shape = self._shape(shape)
        if not isinstance(value, SymVal):
            return np.broadcast_to(value, shape)
        cv = value.concrete_value()
        if cv is None:
            return SymVal.opaque(value.kind, value.taints, value.varying)
        lanes = np.broadcast_to(np.asarray(cv), shape)
        return SymVal(lanes, None, value.kind, value.taints, value.varying)

    def asarray(self, value, dtype=None):
        if isinstance(value, SymVal):
            return value if dtype is None else value.astype(_np_dtype(dtype))
        return np.asarray(value, dtype=_np_dtype(dtype)) \
            if dtype is not None else np.asarray(value)

    array = asarray

    def where(self, cond, a, b):
        if not any(isinstance(v, SymVal) for v in (cond, a, b)):
            return np.where(cond, a, b)
        return _select(cond, a, b)

    def _minmax(self, func, *args):
        if not any(isinstance(v, SymVal) for v in args):
            return func(*args)
        syms = [as_sym(a) for a in args]
        taints = frozenset().union(*(s.taints for s in syms))
        varying = any(s.varying for s in syms)
        values = [s.concrete_value() for s in syms]
        if all(v is not None for v in values):
            out = values[0]
            for v in values[1:]:
                out = func(out, v)
            kind = "float" if any(s.kind == "float" for s in syms) else "int"
            return SymVal(out, None, kind, taints, varying)
        primary = syms[0]
        return SymVal(primary.lanes, primary.terms, primary.kind, taints,
                      True)

    def minimum(self, a, b):
        return self._minmax(np.minimum, a, b)

    def maximum(self, a, b):
        return self._minmax(np.maximum, a, b)

    def clip(self, a, lo, hi):
        return self._minmax(np.clip, a, lo, hi)

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _CASTER_NAMES:
            return NpCaster(getattr(np, name), self._recorder)
        attr = getattr(np, name)
        if callable(attr) and not isinstance(attr, type):
            recorder = self._recorder

            def generic(*args, **kwargs):
                if not any(isinstance(a, SymVal) for a in args):
                    return attr(*args, **kwargs)
                taints = frozenset().union(
                    *(taints_of(a) for a in args))
                varying = any(is_varying(a) for a in args)
                values = [a.concrete_value() if isinstance(a, SymVal)
                          else a for a in args]
                if all(v is not None for v in values):
                    try:
                        result = attr(*values, **kwargs)
                        kind = "float" \
                            if np.asarray(result).dtype.kind == "f" else (
                                "bool" if np.asarray(result).dtype.kind
                                == "b" else "int")
                        return SymVal(result, None, kind, taints, varying)
                    except Exception:
                        pass
                recorder.note(f"np.{name} on a symbolic value went opaque")
                return SymVal.opaque("float", taints, varying)

            generic.__name__ = name
            return generic
        return attr        # np.pi, np.inf, np.newaxis, dtypes, ...


# ----------------------------------------------------------------------
# The interpreter
# ----------------------------------------------------------------------

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value) -> None:
        self.value = value


class Scope:
    """Lexical scope frame (function locals, chained to the def site)."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.vars: Dict[str, object] = {}
        self.parent = parent


class InterpFunc:
    """A function defined (or reached) inside the kernel, interpreted
    rather than called."""

    def __init__(self, node: ast.FunctionDef, scope: Scope,
                 globals_dict: dict, line_offset: int) -> None:
        self.node = node
        self.scope = scope
        self.globals = globals_dict
        self.line_offset = line_offset

    @property
    def name(self) -> str:
        return self.node.name


class KernelInterp:
    """Runs one kernel function for one sample block coordinate."""

    MAX_DEPTH = 8

    def __init__(self, target: LintTarget, coord: Tuple[int, int, int],
                 spec: DeviceSpec = DEFAULT_DEVICE) -> None:
        self.target = target
        self.spec = spec
        self.recorder = Recorder()
        grid = as_dim3(tuple(target.grid))
        block = as_dim3(tuple(target.block))
        self.ctx = LintContext(spec, grid, block, coord, self.recorder)
        self.shim = NpShim(self.recorder, block.size)
        self.scopes: List[Scope] = []
        self.recorder.live_counter = self._live_count
        self._builtins = self._make_builtins()
        self._depth = 0

    # -- public entry ---------------------------------------------------
    def run(self) -> Recorder:
        fn = self.target.kernel.fn
        try:
            lines, start = inspect.getsourcelines(fn)
        except (OSError, TypeError):
            self.recorder.note("kernel source unavailable", line=0)
            return self.recorder
        tree = ast.parse(textwrap.dedent("".join(lines)))
        fdef = next(n for n in tree.body
                    if isinstance(n, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)))
        closure = {}
        if fn.__closure__:
            closure = dict(zip(fn.__code__.co_freevars,
                               [c.cell_contents for c in fn.__closure__]))
        root = Scope()
        root.vars.update(closure)
        func = InterpFunc(fdef, root, fn.__globals__, start - 1)
        args = (self.ctx,) + tuple(self.target.args)
        try:
            self._call_interp(func, args, {})
        except AnalysisLimit as exc:
            self.recorder.note(f"analysis stopped: {exc}")
        return self.recorder

    # -- plumbing -------------------------------------------------------
    def _live_count(self) -> int:
        seen = set()
        count = 0
        for scope in reversed(self.scopes):
            for name, value in scope.vars.items():
                if name in seen:
                    continue
                seen.add(name)
                if is_varying(value) if isinstance(value, (SymVal,)) \
                        else (isinstance(value, np.ndarray)
                              and value.ndim > 0 and value.size > 1):
                    count += 1
        return count

    def _make_builtins(self) -> dict:
        recorder = self.recorder

        def lint_range(*args):
            out = []
            for a in args:
                if isinstance(a, SymVal):
                    if a.taints & {BLOCK_COORD, NTHREADS}:
                        which = "ctx.nthreads" if NTHREADS in a.taints \
                            else "a block coordinate"
                        recorder.hazard(
                            "scalar-range",
                            f"Python loop bound derived from {which} "
                            f"(breaks batched execution)")
                    out.append(int(a))
                else:
                    out.append(a)
            return range(*out)

        def lint_int(value=0):
            if isinstance(value, SymVal):
                if value.is_scalar and (value.taints
                                        & {BLOCK_COORD, NTHREADS}):
                    recorder.hazard(
                        "scalar-coerce",
                        "int() on a scalar derived from block-varying "
                        "state (breaks batched execution)")
                return int(value)
            return int(value)

        def lint_float(value=0.0):
            if isinstance(value, SymVal):
                return float(value)
            return float(value)

        def lint_bool(value=False):
            return bool(value)

        def lint_divmod(a, b):
            if isinstance(a, SymVal) or isinstance(b, SymVal):
                return (as_sym(a) // b, as_sym(a) % b)
            return divmod(a, b)

        def lint_minmax(func):
            def inner(*args):
                if len(args) == 1:
                    args = tuple(args[0])
                if not any(isinstance(a, SymVal) for a in args):
                    return func(args)
                syms = [as_sym(a) for a in args]
                if all(s.is_concrete and s.is_scalar for s in syms):
                    taints = frozenset().union(*(s.taints for s in syms))
                    values = [np.asarray(s.lanes) for s in syms]
                    result = func(values)
                    return SymVal(result, None, syms[0].kind, taints, False)
                raise AnalysisLimit(f"{func.__name__}() over symbolic "
                                    f"vectors")
            return inner

        return {
            "range": lint_range, "int": lint_int, "float": lint_float,
            "bool": lint_bool, "divmod": lint_divmod,
            "min": lint_minmax(min), "max": lint_minmax(max),
            "abs": abs, "len": len, "enumerate": enumerate, "zip": zip,
            "reversed": reversed, "sum": sum, "tuple": tuple,
            "list": list, "print": lambda *a, **k: None,
            "True": True, "False": False, "None": None,
        }

    def _intercept(self, value):
        if value is np:
            return self.shim
        return value

    # -- function calls -------------------------------------------------
    def _call_interp(self, func: InterpFunc, args: Sequence[object],
                     kwargs: Dict[str, object]):
        if self._depth >= self.MAX_DEPTH:
            raise AnalysisLimit("interpreted call depth exceeded")
        node = func.node
        params = [a.arg for a in node.args.args]
        scope = Scope(parent=func.scope)
        defaults = node.args.defaults
        if defaults:
            offset = len(params) - len(defaults)
            for i, default in enumerate(defaults):
                scope.vars[params[offset + i]] = self._eval(
                    default, scope, func)
        if len(args) > len(params):
            raise AnalysisLimit(
                f"{func.name}() takes {len(params)} args, got {len(args)}")
        for name, value in zip(params, args):
            scope.vars[name] = value
        for name, value in kwargs.items():
            if name not in params:
                raise AnalysisLimit(f"{func.name}() got unexpected "
                                    f"keyword {name!r}")
            scope.vars[name] = value
        self._depth += 1
        self.scopes.append(scope)
        try:
            self._exec_block(node.body, scope, func)
        except _Return as ret:
            return ret.value
        finally:
            self.scopes.pop()
            self._depth -= 1
        return None

    def _call_native_function(self, fn, args, kwargs):
        """Interpret a plain Python function reached through a closure
        (e.g. a rotate helper defined in a kernel factory)."""
        try:
            lines, start = inspect.getsourcelines(fn)
        except (OSError, TypeError):
            raise AnalysisLimit(
                f"cannot interpret opaque callable {fn!r}") from None
        tree = ast.parse(textwrap.dedent("".join(lines)))
        fdef = next(n for n in tree.body if isinstance(n, ast.FunctionDef))
        closure = {}
        if fn.__closure__:
            closure = dict(zip(fn.__code__.co_freevars,
                               [c.cell_contents for c in fn.__closure__]))
        root = Scope()
        root.vars.update(closure)
        func = InterpFunc(fdef, root, fn.__globals__, start - 1)
        return self._call_interp(func, args, kwargs)

    # -- statement execution --------------------------------------------
    def _exec_block(self, body: Sequence[ast.stmt], scope: Scope,
                    func: InterpFunc) -> None:
        for stmt in body:
            self._exec_stmt(stmt, scope, func)

    def _exec_stmt(self, stmt: ast.stmt, scope: Scope,
                   func: InterpFunc) -> None:
        self.recorder.current_line = stmt.lineno + func.line_offset
        try:
            self._exec_stmt_inner(stmt, scope, func)
        except AnalysisLimit as exc:
            self.recorder.note(f"skipped {type(stmt).__name__}: {exc}")

    def _exec_stmt_inner(self, stmt: ast.stmt, scope: Scope,
                         func: InterpFunc) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, scope, func)
            for tgt in stmt.targets:
                self._assign(tgt, value, scope, func)
        elif isinstance(stmt, ast.AugAssign):
            current = self._eval_target_load(stmt.target, scope, func)
            value = self._eval(stmt.value, scope, func)
            result = self._binop(type(stmt.op), current, value)
            self._assign(stmt.target, result, scope, func)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target,
                             self._eval(stmt.value, scope, func),
                             scope, func)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, scope, func)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, scope, func)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, scope, func)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, scope, func)
        elif isinstance(stmt, ast.With):
            self._exec_with(stmt, scope, func)
        elif isinstance(stmt, ast.FunctionDef):
            scope.vars[stmt.name] = InterpFunc(
                stmt, scope, func.globals, func.line_offset)
        elif isinstance(stmt, ast.Return):
            value = None if stmt.value is None \
                else self._eval(stmt.value, scope, func)
            raise _Return(value)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, (ast.Pass, ast.Import, ast.ImportFrom,
                               ast.Global, ast.Nonlocal, ast.Assert)):
            pass
        else:
            raise AnalysisLimit(f"unsupported statement "
                                f"{type(stmt).__name__}")

    def _exec_if(self, stmt: ast.If, scope: Scope,
                 func: InterpFunc) -> None:
        test = self._eval(stmt.test, scope, func)
        if isinstance(test, SymVal):
            value = test.concrete_value()
            if value is None or test.varying:
                self._exec_if_unknown(stmt, test, scope, func)
                return
            test = bool(np.asarray(value))
        if test:
            self._exec_block(stmt.body, scope, func)
        else:
            self._exec_block(stmt.orelse, scope, func)

    def _exec_if_unknown(self, stmt: ast.If, test: SymVal, scope: Scope,
                         func: InterpFunc) -> None:
        """Data-dependent Python ``if``: run both arms on forked
        variable bindings under an unknown divergence mask, then merge
        (identical values survive, conflicting ones go opaque)."""
        if test.taints & {BLOCK_COORD, NTHREADS}:
            self.recorder.hazard(
                "python-if-coord",
                "Python branch on a value derived from block coordinates "
                "(control flow diverges across batched blocks)")
        base = dict(scope.vars)
        self.ctx.push_unknown_branch()
        try:
            self._exec_block(stmt.body, scope, func)
        finally:
            self.ctx.pop_unknown_branch()
        then_vars = scope.vars
        scope.vars = dict(base)
        self.ctx.push_unknown_branch()
        try:
            self._exec_block(stmt.orelse, scope, func)
        finally:
            self.ctx.pop_unknown_branch()
        else_vars = scope.vars
        merged: Dict[str, object] = {}
        for name in set(then_vars) | set(else_vars):
            a = then_vars.get(name, _MISSING)
            b = else_vars.get(name, _MISSING)
            if a is b or (a is not _MISSING and b is not _MISSING
                          and _same_value(a, b)):
                merged[name] = a
            elif a is _MISSING:
                merged[name] = b
            elif b is _MISSING:
                merged[name] = a
            else:
                sa = as_sym(a) if not callable(a) else None
                kind = sa.kind if isinstance(sa, SymVal) else "float"
                taints = (taints_of(a) if not callable(a) else frozenset()) \
                    | (taints_of(b) if not callable(b) else frozenset())
                merged[name] = SymVal.opaque(kind, taints, True)
        scope.vars = merged

    def _exec_for(self, stmt: ast.For, scope: Scope,
                  func: InterpFunc) -> None:
        iterable = self._eval(stmt.iter, scope, func)
        if isinstance(iterable, SymVal):
            raise AnalysisLimit("iteration over a symbolic value")
        count = 0
        broke = False
        for item in iterable:
            if count >= LOOP_CAP:
                self.recorder.note(
                    f"loop truncated after {LOOP_CAP} iterations")
                break
            count += 1
            self._assign(stmt.target, item, scope, func)
            try:
                self._exec_block(stmt.body, scope, func)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke and stmt.orelse:
            self._exec_block(stmt.orelse, scope, func)

    def _exec_while(self, stmt: ast.While, scope: Scope,
                    func: InterpFunc) -> None:
        count = 0
        while True:
            test = self._eval(stmt.test, scope, func)
            if isinstance(test, SymVal):
                value = test.concrete_value()
                if value is None or test.varying:
                    self._exec_unknown_while(stmt, scope, func)
                    return
                test = bool(np.asarray(value))
            if not test:
                break
            if count >= LOOP_CAP:
                self.recorder.note(
                    f"while loop truncated after {LOOP_CAP} iterations")
                break
            count += 1
            try:
                self._exec_block(stmt.body, scope, func)
            except _Break:
                break
            except _Continue:
                continue

    def _exec_unknown_while(self, stmt: ast.While, scope: Scope,
                            func: InterpFunc) -> None:
        self.recorder.note(
            f"data-dependent while loop: analyzed "
            f"{UNKNOWN_WHILE_ITERS} iterations")
        for _ in range(UNKNOWN_WHILE_ITERS):
            try:
                self._exec_block(stmt.body, scope, func)
            except (_Break, _Continue):
                break

    def _exec_with(self, stmt: ast.With, scope: Scope,
                   func: InterpFunc) -> None:
        if len(stmt.items) != 1:
            raise AnalysisLimit("multi-item with statements")
        cm = self._eval(stmt.items[0].context_expr, scope, func)
        if not hasattr(cm, "__enter__"):
            raise AnalysisLimit("with on a non-context-manager value")
        entered = cm.__enter__()
        if stmt.items[0].optional_vars is not None:
            self._assign(stmt.items[0].optional_vars, entered, scope, func)
        try:
            self._exec_block(stmt.body, scope, func)
        finally:
            cm.__exit__(None, None, None)

    # -- assignment -----------------------------------------------------
    def _assign(self, target: ast.expr, value, scope: Scope,
                func: InterpFunc) -> None:
        if isinstance(target, ast.Name):
            scope.vars[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, SymVal):
                raise AnalysisLimit("tuple-unpacking a symbolic value")
            items = list(value)
            if len(items) != len(target.elts):
                raise AnalysisLimit("unpack arity mismatch")
            for tgt, item in zip(target.elts, items):
                self._assign(tgt, item, scope, func)
        elif isinstance(target, ast.Subscript):
            obj = self._eval(target.value, scope, func)
            index = self._eval(target.slice, scope, func)
            if isinstance(obj, OpaqueData):
                return
            if isinstance(index, SymVal):
                index = int(index)
            try:
                obj[index] = value
            except Exception as exc:
                raise AnalysisLimit(f"subscript store failed: {exc}") \
                    from None
        else:
            raise AnalysisLimit(
                f"unsupported assignment target {type(target).__name__}")

    def _eval_target_load(self, target: ast.expr, scope: Scope,
                          func: InterpFunc):
        return self._eval(target, scope, func)

    # -- expression evaluation ------------------------------------------
    def _eval(self, node: ast.expr, scope: Scope, func: InterpFunc):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return self._lookup(node.id, scope, func)
        if isinstance(node, ast.Tuple):
            return tuple(self._eval(e, scope, func) for e in node.elts)
        if isinstance(node, ast.List):
            return [self._eval(e, scope, func) for e in node.elts]
        if isinstance(node, ast.Dict):
            return {self._eval(k, scope, func): self._eval(v, scope, func)
                    for k, v in zip(node.keys, node.values)}
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, scope, func)
            right = self._eval(node.right, scope, func)
            return self._binop(type(node.op), left, right)
        if isinstance(node, ast.UnaryOp):
            return self._unaryop(node, scope, func)
        if isinstance(node, ast.BoolOp):
            return self._boolop(node, scope, func)
        if isinstance(node, ast.Compare):
            return self._compare(node, scope, func)
        if isinstance(node, ast.Call):
            return self._call(node, scope, func)
        if isinstance(node, ast.Attribute):
            return self._attribute(node, scope, func)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, scope, func)
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, scope, func)
            if isinstance(test, SymVal):
                value = test.concrete_value()
                if value is None or test.varying:
                    return _select(test,
                                   self._eval(node.body, scope, func),
                                   self._eval(node.orelse, scope, func))
                test = bool(np.asarray(value))
            return self._eval(node.body if test else node.orelse,
                              scope, func)
        if isinstance(node, ast.Slice):
            def opt(sub):
                if sub is None:
                    return None
                value = self._eval(sub, scope, func)
                return int(value) if isinstance(value, SymVal) else value
            return slice(opt(node.lower), opt(node.upper), opt(node.step))
        if isinstance(node, ast.ListComp):
            return self._listcomp(node, scope, func)
        if isinstance(node, ast.Index):   # pragma: no cover - py<3.9 AST
            return self._eval(node.value, scope, func)
        raise AnalysisLimit(f"unsupported expression "
                            f"{type(node).__name__}")

    def _lookup(self, name: str, scope: Scope, func: InterpFunc):
        frame: Optional[Scope] = scope
        while frame is not None:
            if name in frame.vars:
                return self._intercept(frame.vars[name])
            frame = frame.parent
        if name in func.globals:
            return self._intercept(func.globals[name])
        if name in self._builtins:
            return self._builtins[name]
        raise AnalysisLimit(f"unknown name {name!r}")

    _BINOPS = {
        ast.Add: lambda a, b: a + b,
        ast.Sub: lambda a, b: a - b,
        ast.Mult: lambda a, b: a * b,
        ast.Div: lambda a, b: a / b,
        ast.FloorDiv: lambda a, b: a // b,
        ast.Mod: lambda a, b: a % b,
        ast.Pow: lambda a, b: a ** b,
        ast.LShift: lambda a, b: a << b,
        ast.RShift: lambda a, b: a >> b,
        ast.BitAnd: lambda a, b: a & b,
        ast.BitOr: lambda a, b: a | b,
        ast.BitXor: lambda a, b: a ^ b,
    }

    def _binop(self, op_type, left, right):
        fn = self._BINOPS.get(op_type)
        if fn is None:
            raise AnalysisLimit(f"unsupported operator {op_type.__name__}")
        try:
            return fn(left, right)
        except AnalysisLimit:
            raise
        except Exception as exc:
            raise AnalysisLimit(f"operator failed: {exc}") from None

    def _unaryop(self, node: ast.UnaryOp, scope: Scope, func: InterpFunc):
        value = self._eval(node.operand, scope, func)
        if isinstance(node.op, ast.USub):
            return -value
        if isinstance(node.op, ast.UAdd):
            return +value
        if isinstance(node.op, ast.Invert):
            return ~value
        if isinstance(node.op, ast.Not):
            if isinstance(value, SymVal):
                cv = value.concrete_value()
                if cv is None:
                    return SymVal.opaque("bool", value.taints, value.varying)
                return SymVal(np.logical_not(cv), None, "bool",
                              value.taints, value.varying)
            return not value
        raise AnalysisLimit("unsupported unary operator")

    def _boolop(self, node: ast.BoolOp, scope: Scope, func: InterpFunc):
        is_and = isinstance(node.op, ast.And)
        result = None
        for sub in node.values:
            result = self._eval(sub, scope, func)
            truth = bool(result)    # may raise AnalysisLimit via SymVal
            if is_and and not truth:
                return result
            if not is_and and truth:
                return result
        return result

    _CMPOPS = {
        ast.Lt: lambda a, b: a < b,
        ast.LtE: lambda a, b: a <= b,
        ast.Gt: lambda a, b: a > b,
        ast.GtE: lambda a, b: a >= b,
        ast.Eq: lambda a, b: a == b,
        ast.NotEq: lambda a, b: a != b,
        ast.Is: lambda a, b: a is b,
        ast.IsNot: lambda a, b: a is not b,
        ast.In: lambda a, b: a in b,
        ast.NotIn: lambda a, b: a not in b,
    }

    def _compare(self, node: ast.Compare, scope: Scope, func: InterpFunc):
        left = self._eval(node.left, scope, func)
        result = None
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator, scope, func)
            fn = self._CMPOPS.get(type(op))
            if fn is None:
                raise AnalysisLimit(f"unsupported comparison "
                                    f"{type(op).__name__}")
            piece = fn(left, right)
            result = piece if result is None else (result & piece)
            left = right
        return result

    def _call(self, node: ast.Call, scope: Scope, func: InterpFunc):
        self.recorder.current_line = node.lineno + func.line_offset
        callee = self._eval(node.func, scope, func)
        args = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                spread = self._eval(a.value, scope, func)
                if isinstance(spread, SymVal):
                    raise AnalysisLimit("star-unpacking a symbolic value")
                args.extend(spread)
            else:
                args.append(self._eval(a, scope, func))
        kwargs = {kw.arg: self._eval(kw.value, scope, func)
                  for kw in node.keywords if kw.arg is not None}
        if isinstance(callee, InterpFunc):
            return self._call_interp(callee, args, kwargs)
        if callable(callee):
            module = getattr(callee, "__module__", "") or ""
            if (module.startswith("repro.")
                    and not module.startswith("repro.analysis")
                    and inspect.isfunction(callee)):
                return self._call_native_function(callee, args, kwargs)
            try:
                return callee(*args, **kwargs)
            except AnalysisLimit:
                raise
            except (_Break, _Continue, _Return):
                raise
            except Exception as exc:
                raise AnalysisLimit(
                    f"call to {getattr(callee, '__name__', callee)!r} "
                    f"failed: {exc}") from None
        raise AnalysisLimit(f"call of non-callable "
                            f"{type(callee).__name__}")

    def _attribute(self, node: ast.Attribute, scope: Scope,
                   func: InterpFunc):
        obj = self._eval(node.value, scope, func)
        name = node.attr
        if isinstance(obj, SymVal):
            if name == "astype":
                return obj.astype
            raise AnalysisLimit(f"attribute {name!r} on a symbolic value")
        if isinstance(obj, LintArray):
            if name in ("name", "space", "size", "itemsize", "dtype"):
                value = getattr(obj, name)
                if name == "size" and value is None:
                    raise AnalysisLimit(
                        f"size of {obj.name!r} not declared in the lint "
                        f"target")
                return value
            raise AnalysisLimit(f"attribute {name!r} on array marker")
        try:
            return self._intercept(getattr(obj, name))
        except AttributeError:
            raise AnalysisLimit(
                f"no attribute {name!r} on {type(obj).__name__}") from None

    def _subscript(self, node: ast.Subscript, scope: Scope,
                   func: InterpFunc):
        obj = self._eval(node.value, scope, func)
        index = self._eval(node.slice, scope, func)
        if isinstance(obj, OpaqueData):
            return obj[index]
        if isinstance(obj, SymVal):
            raise AnalysisLimit("subscript on a symbolic value")
        if isinstance(index, SymVal):
            cv = index.concrete_value()
            if cv is None:
                raise AnalysisLimit("data-dependent subscript on a native "
                                    "container")
            if isinstance(obj, np.ndarray):
                return SymVal(obj[np.asarray(cv)], None,
                              "float" if obj.dtype.kind == "f" else "int",
                              index.taints, True)
            index = int(index)
        try:
            return obj[index]
        except Exception as exc:
            raise AnalysisLimit(f"subscript failed: {exc}") from None

    def _listcomp(self, node: ast.ListComp, scope: Scope,
                  func: InterpFunc):
        if len(node.generators) != 1:
            raise AnalysisLimit("nested comprehensions")
        gen = node.generators[0]
        iterable = self._eval(gen.iter, scope, func)
        if isinstance(iterable, SymVal):
            raise AnalysisLimit("comprehension over a symbolic value")
        out = []
        for item in iterable:
            self._assign(gen.target, item, scope, func)
            keep = True
            for cond in gen.ifs:
                keep = keep and bool(self._eval(cond, scope, func))
            if keep:
                out.append(self._eval(node.elt, scope, func))
        return out


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


def _same_value(a, b) -> bool:
    if isinstance(a, SymVal) and isinstance(b, SymVal):
        return a.same_expr(b)
    if isinstance(a, SymVal) or isinstance(b, SymVal):
        return False
    try:
        return bool(np.all(np.asarray(a) == np.asarray(b)))
    except Exception:
        return a is b


def interpret(target: LintTarget, coord: Tuple[int, int, int],
              spec: DeviceSpec = DEFAULT_DEVICE,
              ) -> Tuple[Recorder, LintContext]:
    """Run one sample block; returns the event recorder and context."""
    interp = KernelInterp(target, coord, spec)
    recorder = interp.run()
    return recorder, interp.ctx
