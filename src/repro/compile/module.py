"""Whole-application AOT modules.

The per-kernel pipeline (plan → executor → collector) treats every
launch as an island: each one builds a plan, traces its sample blocks
through the scalar interpreter, and materializes its trace — even when
an application launches the *same configuration* hundreds of times in
a timestep loop.  A :class:`CompiledModule` treats the application's
declared launch sequence (:class:`ModuleSchedule`) as the compilation
unit instead:

* :func:`repro.compile.fuse.fuse_schedule` partitions the sequence
  into **fused groups** using the R7 inter-launch dataflow as the
  legality oracle — ``fusable-private`` intermediates never leave the
  device between a group's launches, ``loop-carried`` arrays stay
  device-resident across its iterations, and host steps / refused
  kernels break groups (those launches transparently fall back to the
  ordinary per-launch path).

* Inside a fused group the first occurrence of each distinct launch
  configuration (:meth:`~repro.cuda.plan.LaunchPlan.module_key`) runs
  through the full :class:`~repro.cuda.executors.CompiledExecutor`
  path — exact traced sample blocks, bit-identical outputs.  Every
  repeat executes the compiled program directly and **replays** the
  recorded trace: the dominant per-launch cost (two scalar traced
  blocks with per-operation accounting) is paid once per
  configuration, not once per launch.  Replay is sound for the same
  reason trace memoization (``memoize=True``) is: a launch
  configuration fixes the kernel's address and control streams, which
  for the suite's kernels are data-independent.

* Compiled programs come through the artifact-cache-aware
  :func:`repro.compile.get_program`, so a warm on-disk cache
  (``REPRO_AOT_CACHE``) lets a cold process skip lowering entirely.

What fusion does **not** do: merge two launches into one grid sweep.
The paper's time-sliced applications launch one kernel per step
precisely because a step reads neighbour cells other blocks wrote in
the previous step — the launch boundary *is* the global barrier.  A
fused group preserves it by running its launches back-to-back in
order; the win is amortization, not reordering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..cuda.executors import CompiledExecutor
from ..cuda.launch import LaunchResult
from ..obs.profiler import active_profiler
from ..obs.registry import get_registry
from .fuse import FusionPlan, fuse_schedule
from .program import get_program, plan_context
from .runtime import GridRT, prelude_for

__all__ = ["CompiledModule", "HostStep", "ModuleSchedule"]


@dataclass
class HostStep:
    """Host code between launches (D2D copies, constant staging...).

    An explicit fusion barrier: the module runs ``fn()`` at the step's
    position and never fuses across it.
    """

    fn: Callable[[], None]
    note: str = ""


@dataclass
class ModuleSchedule:
    """An application's declared launch sequence.

    Built by :meth:`repro.apps.base.Application.module_schedule`:
    every :class:`~repro.cuda.plan.LaunchPlan` is constructed up front
    (plan building is side-effect-free), host logic between launches
    is declared as :class:`HostStep` entries, and ``outputs()``
    downloads the results after the last step.
    """

    app: str
    device: object                     # repro.cuda.memory.Device
    steps: List[Union[object, HostStep]] = field(default_factory=list)
    #: host-side download of the final results (runs after execution)
    outputs: Optional[Callable[[], Dict[str, np.ndarray]]] = None
    #: iterative solvers: executed steps stand for this many
    time_steps_scale: float = 1.0

    def plans(self) -> List[object]:
        return [s for s in self.steps if not isinstance(s, HostStep)]


@dataclass
class _Replay:
    """Recorded accounting of one launch configuration."""

    trace: object                      # KernelTrace (finalized, scaled)
    smem_bytes: int
    blocks_traced: int
    dispositions: Dict[str, int]
    memo_hits: int


class CompiledModule:
    """Executable form of one :class:`ModuleSchedule` (see module
    docstring).  ``stats`` is a local :class:`collections.Counter`
    (``fuse_applied`` / ``trace_replays`` / ``fallback_launches`` /
    ``host_steps`` / ``fused_launches``); the same events feed the
    ambient metrics registry as ``module.*`` counters when enabled.
    """

    def __init__(self, schedule: ModuleSchedule) -> None:
        self.schedule = schedule
        self.fusion: FusionPlan = fuse_schedule(
            schedule, spec=schedule.device.spec)
        self.stats: Counter = Counter()
        self._replays: Dict[Tuple, _Replay] = {}
        self._executor = CompiledExecutor()
        self._fused_steps = frozenset(
            i for g in self.fusion.groups if g.fused for i in g.steps)

    # ------------------------------------------------------------------
    def execute(self) -> List[LaunchResult]:
        """Run the whole schedule; returns one result per launch."""
        registry = get_registry()
        results: List[LaunchResult] = []
        for i, step in enumerate(self.schedule.steps):
            if isinstance(step, HostStep):
                step.fn()
                self.stats["host_steps"] += 1
                continue
            if i in self._fused_steps:
                results.append(self._run_fused(step))
            else:
                results.append(self._run_fallback(step))
        self.stats["fuse_applied"] = self.fusion.fuse_applied
        if registry.enabled:
            app = self.schedule.app
            registry.counter("module.fuse_applied", app=app).inc(
                self.fusion.fuse_applied)
            for key in ("trace_replays", "fallback_launches",
                        "fused_launches", "host_steps"):
                if self.stats[key]:
                    registry.counter(f"module.{key}", app=app).inc(
                        self.stats[key])
        return results

    # ------------------------------------------------------------------
    def _run_fallback(self, plan) -> LaunchResult:
        """Per-launch path for steps outside fused groups."""
        self.stats["fallback_launches"] += 1
        return plan.execute("auto")

    @staticmethod
    def _replay_eligible(plan) -> bool:
        return (plan.trace_enabled and not plan.record_stream
                and not plan.memoize)

    def _run_fused(self, plan) -> LaunchResult:
        key = plan.module_key()
        if self._replay_eligible(plan):
            replay = self._replays.get(key)
            if replay is not None:
                return self._run_replay(plan, replay)
        result = self._executor.execute(plan)
        self.stats["fused_launches"] += 1
        if self._replay_eligible(plan) and result.executor == "compiled":
            self._replays[key] = _Replay(
                trace=result.trace.scaled(1.0),
                smem_bytes=result.smem_bytes_per_block,
                blocks_traced=result.blocks_traced,
                dispositions=dict(result.block_dispositions),
                memo_hits=result.memo_hits)
        return result

    def _run_replay(self, plan, replay: _Replay) -> LaunchResult:
        """Execute the compiled program over the full grid and attach
        the configuration's recorded accounting — no plan re-tracing,
        no collector."""
        program = get_program(plan.kernel, plan_context(plan))
        prelude = prelude_for(plan.grid, plan.block)
        t0 = perf_counter()
        chunk = max(1, self._executor.max_lanes // plan.block.size)
        start, total = 0, plan.grid.size
        while start < total:
            stop = min(total, start + chunk)
            rt = GridRT(prelude, start, stop, plan.spec, plan.kernel.name)
            program.entry(rt, *plan.args)
            start = stop
        t1 = perf_counter()
        result = LaunchResult(
            kernel=plan.kernel,
            grid=plan.grid,
            block=plan.block,
            trace=replay.trace.scaled(1.0),
            smem_bytes_per_block=replay.smem_bytes,
            device=plan.device,
            blocks_executed=total,
            blocks_traced=replay.blocks_traced,
            stream=None,
            executor="module",
            memo_hits=replay.memo_hits,
            block_dispositions=dict(replay.dispositions),
            stage_seconds={
                "plan": plan.build_seconds,
                "execute": t1 - t0,
                "collect": 0.0,
                "finalize": 0.0,
            },
        )
        self.stats["trace_replays"] += 1
        registry = get_registry()
        if registry.enabled:
            registry.counter("launch.count", kernel=plan.kernel.name,
                             executor="module").inc()
        profiler = active_profiler()
        if profiler is not None:
            profiler.on_launch(result)
        return result
