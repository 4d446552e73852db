"""Liveness over the kernel IR: static registers-per-thread.

Section 4.2 of the paper turns on register pressure: 10 registers per
thread let three 256-thread matmul blocks share an SM (the full 768
thread contexts), one more register would drop that to two, and the
prefetching variant's 11 registers actually do.  This module estimates
a kernel's register demand the way that anecdote reasons: the peak
number of *per-thread* values simultaneously live at any program
point.

The analysis is a backward liveness dataflow over the basic blocks of
:func:`repro.analysis.ir.lower_kernel`, with the closure environment
resolved (tile size, ``unrolled``/``prefetch`` flags) so configuration
branches are pruned before liveness: an ``if`` whose condition the
closure decides keeps only its taken successor.  A ``ctx.masked``
region keeps its fall-through edge, since a predicated definition does
not overwrite the value a masked-off lane still holds.  Values are
classified by a forward data flow over the same blocks:

* **varying** — derived from thread identity (``ctx.tx``,
  ``ctx.global_tid*``) or loaded data: needs a register per thread;
* **uniform** — derived only from kernel parameters and constants
  (``ntiles = n // tile``): kept in shared/constant storage or
  rematerialized by the compiler, no per-thread register;
* **induction** — a ``for`` target whose loop survives at the ISA
  level.  The DSL marks that explicitly: a loop body that calls
  ``ctx.loop_tail`` pays per-iteration bookkeeping, so its induction
  variable occupies a register (it is live around the back edge); a
  fully unrolled loop (no ``loop_tail``) folds the index into
  immediates — exactly the Section 4.3 "frees the induction register"
  effect;
* **shared** — handles from ``ctx.shared_alloc``: compile-time base
  addresses, no register.

The estimate is a *lower bound* (compiler temporaries for address
arithmetic are not modeled), but it reproduces the ladder anecdotes
exactly: tiled 10, +unroll 9, +prefetch 11 registers — and therefore
the 3/3/2 blocks-per-SM occupancy the paper derives from them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .ir import BasicBlock, IRInstr, KernelIR, lower_kernel
from .source import kernel_source

#: ctx methods whose result is per-thread regardless of arguments
VARYING_CALLS = frozenset({
    "global_tid", "global_tid_x", "global_tid_y",
    "ld_global", "ld_shared", "ld_const", "ld_tex", "atom_global_add",
})

#: ctx attributes that are per-thread lane vectors
VARYING_ATTRS = frozenset({"tx", "ty", "tz", "tid"})


@dataclass(frozen=True)
class RegisterEstimate:
    """Static register-pressure estimate for one kernel."""

    kernel: str
    regs: int                       # peak simultaneously-live values
    peak_names: Tuple[str, ...]     # the values live at the peak
    classes: Dict[str, str] = field(default_factory=dict)
    fallback: bool = False          # IR analysis failed; regs is the
    #                                 kernel's declared count

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "regs": self.regs,
            "peak_names": list(self.peak_names),
            "fallback": self.fallback,
        }


def _const_eval(node: ast.AST, env: Dict[str, object]) -> object:
    """Evaluate a configuration expression against the closure env.
    Returns the value, or None when it involves runtime state."""
    try:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        if not names <= set(env):
            return None
        code = compile(ast.fix_missing_locations(ast.Expression(body=node)),
                       "<cfg>", "eval")
        return eval(code, {"__builtins__": {}}, dict(env))  # noqa: S307
    except Exception:
        return None


class _Liveness:
    """Value classification and backward liveness on one kernel IR."""

    def __init__(self, ir: KernelIR, env: Dict[str, object]) -> None:
        self.ir = ir
        self.succs = {b.index: self._taken(b, env) for b in ir.blocks}
        self.reachable = ir.reachable_from(
            ir.entry, lambda blk: self.succs[blk.index])
        self.varying: Set[str] = set()
        self.shared: Set[str] = set()
        #: loop header -> its materialized induction variables
        self.carried: Dict[int, Set[str]] = {}
        for b in self.reachable:
            loops = [lp for lp in ir.loops if b in lp.body]
            if not loops or not any("loop_tail" in i.ops
                                    for i in ir.blocks[b].instrs):
                continue
            # the innermost enclosing loop pays the tail
            inner = min(loops, key=lambda lp: len(lp.body))
            head = ir.blocks[inner.header]
            if head.branch is not None and head.branch.kind == "loop":
                self.carried[head.index] = set(head.instrs[0].binds)

    @staticmethod
    def _taken(blk: BasicBlock, env: Dict[str, object]) -> List[int]:
        """Successors, with a closure-decided ``if`` pruned."""
        branch = blk.branch
        if branch is not None and branch.kind == "if" \
                and branch.test is not None:
            value = _const_eval(branch.test, env)
            if value is not None:
                return [blk.succs[0] if value else blk.succs[1]]
        return blk.succs

    def _varying(self, instr: IRInstr) -> bool:
        return bool(VARYING_ATTRS.intersection(instr.seeds)
                    or VARYING_CALLS.intersection(instr.ops)
                    or instr.array_ctor
                    or self.varying.intersection(instr.srcs))

    def classify(self) -> None:
        """Forward classification of every bound name, to fixpoint."""
        instrs = [i for b in sorted(self.reachable)
                  for i in self.ir.blocks[b].instrs if i.binds]
        size = -1
        while size != len(self.varying) + len(self.shared):
            size = len(self.varying) + len(self.shared)
            for instr in instrs:
                if "shared_alloc" in instr.ops:
                    self.shared.update(instr.binds)
                elif self._varying(instr):
                    self.varying.update(set(instr.binds) - self.shared)

    def _walk(self, b: int, live_in: Dict[int, Set[str]]
              ) -> Tuple[Set[str], List[Tuple[int, Set[str]]]]:
        """Live-in of block ``b`` from its successors' live-ins, and the
        live set before each statement (and each non-loop branch)."""
        live: Set[str] = set()
        for s in self.succs[b]:
            live |= live_in[s]
            if self.ir.dominates(s, b):     # back edge: the induction
                live |= self.carried.get(s, set())   # variable stays live
        blk = self.ir.blocks[b]
        points = []
        if blk.branch is not None and blk.branch.kind != "loop":
            if len(self.succs[b]) > 1:
                live = live | set(blk.branch.srcs)
            points.append((blk.branch.line, live))
        for instr in reversed(blk.instrs):
            live = (live - set(instr.binds)) | set(instr.srcs)
            points.append((instr.line, live))
        return live, points

    def liveness(self) -> Set[str]:
        """The per-thread values live at the peak program point."""
        live_in: Dict[int, Set[str]] = {b: set() for b in self.reachable}
        points: Dict[int, List[Tuple[int, Set[str]]]] = {}
        work = sorted(self.reachable)
        while work:
            b = work.pop()
            live, points[b] = self._walk(b, live_in)
            if live != live_in[b]:
                live_in[b] = live
                work.extend(p for p in self.ir.blocks[b].preds
                            if p in self.reachable and p not in work)
        counted = self.varying.union(*self.carried.values())
        # ties go to the latest source line, the first point a
        # backward walk of the source reaches
        ordered = sorted((p for ps in points.values() for p in ps),
                         key=lambda p: -p[0])
        return max((live & counted for _, live in ordered), key=len,
                   default=set())

    def run(self) -> Tuple[int, Tuple[str, ...], Dict[str, str]]:
        self.classify()
        peak = self.liveness()
        classes = {n: "varying" for n in sorted(self.varying)}
        classes.update((n, "shared") for n in sorted(self.shared))
        classes.update((n, "induction") for names in self.carried.values()
                       for n in sorted(names))
        return max(1, len(peak)), tuple(sorted(peak)), classes


def estimate_registers(kernel) -> RegisterEstimate:
    """Estimate registers/thread for a DSL kernel (see module docs).

    Falls back to the kernel's declared ``regs_per_thread`` when its
    source is unavailable or uses constructs the IR analysis cannot
    follow — the estimate then carries ``fallback=True``.
    """
    name = getattr(kernel, "name", "<kernel>")
    declared = int(getattr(kernel, "regs_per_thread", 10))
    try:
        env = kernel_source(kernel).env
        regs, peak_names, classes = _Liveness(lower_kernel(kernel),
                                              env).run()
        return RegisterEstimate(name, regs, peak_names, classes)
    except Exception:
        return RegisterEstimate(name, declared, (), {}, fallback=True)


def static_registers(kernel, prefer_declared: bool = False) -> int:
    """The register count downstream occupancy math should use."""
    if prefer_declared:
        return int(getattr(kernel, "regs_per_thread", 10))
    return estimate_registers(kernel).regs
