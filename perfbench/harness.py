"""Measurement machinery of the benchmark: summary statistics, layer
wrappers installed from outside the program, and self-time accounting
over the recorded span forest.

Every layer boundary is timed by rebinding the layer's public entry
point *wherever it is bound*: several modules import the memory-system
classifiers by name (``from ..sim.memsys import coalesce_block_access``),
so patching the defining module alone would miss most calls.  The
wrappers open spans on the ambient :class:`repro.obs.spans.SpanTracer`,
so they nest with the program's own ``plan.build`` / ``executor.*`` /
``collector.finalize`` spans into one tree.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

#: (module, attribute, layer).  ``Class.method`` attributes patch the
#: class; plain functions are rebound in every module that holds them.
#: Two entries sharing a layer form one layer: a call made while the
#: layer is already open (``coalesce_block_access`` -> ``coalesce_half_warp``,
#: ``inspect.getsource`` -> ``getsourcelines``) opens no second span.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.memsys", "coalesce_block_access", "sim.memsys.coalesce"),
    ("repro.sim.memsys", "coalesce_half_warp", "sim.memsys.coalesce"),
    ("repro.sim.memsys", "block_bank_conflicts", "sim.memsys.banks"),
    ("repro.sim.memsys", "bank_conflict_degree", "sim.memsys.banks"),
    ("repro.sim.memsys", "CacheHierarchy.access", "sim.memsys.cache"),
    ("repro.sim.timing", "estimate_kernel_time", "sim.timing"),
    ("repro.compile.program", "compile_kernel", "compile.lower"),
    ("repro.compile.program", "get_program", "compile.program"),
    ("repro.compile.fuse", "fuse_schedule", "compile.fuse"),
    ("repro.compile.module", "CompiledModule.execute", "compile.module"),
    ("ast", "parse", "analysis.parse"),
    ("inspect", "getsourcelines", "analysis.parse"),
    ("repro.analysis.ir", "lower_kernel", "analysis.ir"),
    ("repro.analysis.interp", "interpret", "analysis.interp"),
    ("repro.analysis.rules", "analyze_target", "analysis.rules"),
    ("repro.analysis.rules", "rule_memory", "analysis.rules.memory"),
    ("repro.analysis.rules", "_compile_status_safe",
     "analysis.compile_status"),
    ("repro.analysis.census", "census_target", "analysis.census"),
    ("repro.analysis.estimate", "estimate_target", "analysis.estimate"),
    ("repro.analysis.liveness", "estimate_registers", "analysis.liveness"),
    ("repro.analysis.divergence", "analyze_divergence",
     "analysis.divergence"),
)

#: the program's own spans, mapped onto layers
PROGRAM_SPANS = {
    "plan.build": "cuda.plan",
    "executor.compiled": "compile.sweep",
    "collector.finalize": "trace.finalize",
}
#: every other ``executor.<name>`` span is the interpreting executors
EXECUTOR_LAYER = "cuda.executor"
TRACED_BLOCK = "cuda.traced_block"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: speed-probe seconds that define the reference host: about the
#: probe's median on an idle 2.0 GHz Xeon VM
PROBE_REF_S = 0.010
#: the program slows down more than the probe in a slow phase: over
#: ten runs of each workload on a shared 2-vCPU VM, operation times
#: followed the probe time to this power, which brought the spread
#: of run results down the most on every workload
PROBE_EXPONENT = 1.25
_PROBE_LANES = np.arange(256)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of small NumPy operations and
    dictionary updates, the kind of work the program's interpreters
    and classifiers spend their time on."""
    t0 = perf_counter()
    table: Dict[int, int] = {}
    for k in range(600):
        table[k & 63] = int(np.unique((_PROBE_LANES * 3 + k) % 16).size)
    for k in range(30000):
        table[k & 63] = k
    return perf_counter() - t0


def reference_scale(probe_seconds: float) -> float:
    """Factor from host seconds to reference-host seconds while the
    speed probe takes ``probe_seconds``."""
    return (PROBE_REF_S / probe_seconds) ** PROBE_EXPONENT


class HostClock:
    """Converts host seconds to reference-host seconds.

    A shared host slows every process down in phases that last from a
    second to minutes.  The probe runs between consecutive operations,
    and an operation's host seconds are scaled by
    :func:`reference_scale` of the mean of the probes taken just
    before and just after it, so a phase that slows the operation
    slows its probes too and cancels out.
    """

    def __init__(self) -> None:
        self.last = speed_probe()

    def scale(self) -> float:
        """Scale factor for the operation that just ended."""
        probe = speed_probe()
        speed = (self.last + probe) / 2
        self.last = probe
        return reference_scale(speed)


# ----------------------------------------------------------------------
# Self time over a span forest
# ----------------------------------------------------------------------

def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_of(name: str) -> str:
    """Layer a span belongs to (wrapper spans carry it as their name)."""
    if name in PROGRAM_SPANS:
        return PROGRAM_SPANS[name]
    if name.startswith("executor."):
        return EXECUTOR_LAYER
    return name


def layer_totals(roots: Sequence) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, spans)}`` over a span forest; a span's
    self time is its duration minus what its children cover."""
    out: Dict[str, Tuple[float, int]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        own = node.seconds - covered(((c.t0, c.t1) for c in node.children),
                                     node.t0, node.t1)
        layer = layer_of(node.name)
        secs, count = out.get(layer, (0.0, 0))
        out[layer] = (secs + own, count + 1)
        stack.extend(node.children)
    return out


def iter_spans(roots: Sequence) -> Iterable:
    for root in roots:
        for node, _depth in root.walk():
            yield node


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------

def _resolve(module: str, attr: str):
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return None, attr, getattr(mod, attr)


class LayerWrappers:
    """Installs span-opening wrappers on every :data:`WRAPPED` entry
    point plus the traced-block boundary, and restores the originals.

    Use as a context manager, or call :meth:`install` / :meth:`restore`.
    ``bindings`` lists every ``(namespace, name, original)`` rebound.
    """

    def __init__(self) -> None:
        self.bindings: List[Tuple[object, str, object]] = []
        self._depth: Dict[str, int] = {}

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        from repro.obs.spans import span
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth.get(layer):
                return fn(*args, **kwargs)
            depth[layer] = 1
            try:
                with span(layer):
                    return fn(*args, **kwargs)
            finally:
                depth[layer] = 0
        return wrapper

    def install(self) -> "LayerWrappers":
        if self.bindings:
            raise RuntimeError("layer wrappers are already installed")
        functions: Dict[int, Tuple[object, Callable]] = {}
        for module, attr, layer in WRAPPED:
            cls, name, original = _resolve(module, attr)
            wrapper = self._wrap(original, layer)
            if cls is not None:
                self._bind(cls, name, original, wrapper)
            else:
                functions[id(original)] = (original, wrapper)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bind(mod, name, value, hit[1])
        self._install_traced_block()
        return self

    def _bind(self, namespace, name: str, original, wrapper) -> None:
        self.bindings.append((namespace, name, original))
        setattr(namespace, name, wrapper)

    def _install_traced_block(self) -> None:
        """``TraceCollector.begin_block`` -> ``finish_block`` is one
        span: it covers the traced block's context construction, the
        kernel body and the fold-back of its trace."""
        from repro.obs.spans import span
        from repro.trace.collector import TraceCollector
        begin = TraceCollector.__dict__["begin_block"]
        finish = TraceCollector.__dict__["finish_block"]
        open_blocks: Dict[Tuple[int, int], object] = {}

        @functools.wraps(begin)
        def begin_block(collector, linear):
            cm = span(TRACED_BLOCK)
            cm.__enter__()
            open_blocks[(id(collector), linear)] = cm
            return begin(collector, linear)

        @functools.wraps(finish)
        def finish_block(collector, linear, ctx):
            try:
                return finish(collector, linear, ctx)
            finally:
                cm = open_blocks.pop((id(collector), linear), None)
                if cm is not None:
                    cm.__exit__(None, None, None)

        self._bind(TraceCollector, "begin_block", begin, begin_block)
        self._bind(TraceCollector, "finish_block", finish, finish_block)

    def restore(self) -> None:
        for namespace, name, original in reversed(self.bindings):
            setattr(namespace, name, original)
        self.bindings = []

    def __enter__(self) -> "LayerWrappers":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()
