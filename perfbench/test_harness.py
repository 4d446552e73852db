"""Unit tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

import os
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import harness  # noqa: E402
from repro.obs.spans import Span, SpanTracer, use_tracer  # noqa: E402


# ----------------------------------------------------------------------
# median and quartiles
# ----------------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    q1, med, q3 = harness.quartiles(values)
    assert med == statistics.median(values) == 3.5
    assert (q1, q3) == tuple(statistics.quantiles(values, n=4)[::2])


def test_quartiles_of_odd_sample_and_single_value():
    assert harness.quartiles([3.0, 1.0, 2.0])[1] == 2.0
    assert harness.quartiles([7.5]) == (7.5, 7.5, 7.5)
    with pytest.raises(ValueError):
        harness.quartiles([])


# ----------------------------------------------------------------------
# self time from nested spans
# ----------------------------------------------------------------------

def _span(name, t0, t1, *children):
    return Span(name=name, t0=t0, t1=t1, children=list(children))


def test_self_time_subtracts_children():
    root = _span("apps.host", 0.0, 10.0,
                 _span("plan.build", 1.0, 2.0),
                 _span("executor.sequential", 2.0, 9.0,
                       _span("cuda.traced_block", 3.0, 8.0,
                             _span("sim.memsys.banks", 4.0, 5.0),
                             _span("sim.memsys.banks", 6.0, 6.5))),
                 _span("collector.finalize", 9.0, 9.5))
    totals = harness.layer_totals([root])
    assert totals["apps.host"] == (pytest.approx(1.5), 1)
    assert totals["cuda.plan"] == (pytest.approx(1.0), 1)
    assert totals["cuda.executor"] == (pytest.approx(2.0), 1)
    assert totals["cuda.traced_block"] == (pytest.approx(3.5), 1)
    assert totals["sim.memsys.banks"] == (pytest.approx(1.5), 2)
    assert totals["trace.finalize"] == (pytest.approx(0.5), 1)
    # self times partition the root interval
    assert sum(s for s, _ in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    root = _span("executor.compiled", 0.0, 4.0,
                 _span("compile.lower", 1.0, 3.0),
                 _span("compile.program", 2.0, 3.5))
    totals = harness.layer_totals([root])
    assert totals["compile.sweep"][0] == pytest.approx(1.5)


def test_covered_clips_to_the_interval():
    assert harness.covered([(0, 2), (1, 3), (5, 9)], 1.0, 6.0) == 3.0
    assert harness.covered([], 0.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# wrapper installation
# ----------------------------------------------------------------------

def _bindings_of(originals):
    """Every (module, name) in sys.modules bound to one of
    ``originals``, plus the class attributes."""
    ids = {id(f) for f in originals}
    found = []
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if id(value) in ids:
                found.append((mod, name, value))
    return found


def test_install_then_restore_leaves_every_reference_identical():
    import repro.analysis.interp as interp
    import repro.analysis.symbolic as symbolic
    import repro.cuda.context as context
    import repro.sim.memsys as memsys
    from repro.compile.module import CompiledModule
    from repro.trace.collector import TraceCollector

    originals = [harness._resolve(m, a)[2] for m, a, _ in harness.WRAPPED]
    before = _bindings_of(originals)
    methods = {(cls, name): cls.__dict__[name] for cls, name in (
        (memsys.CacheHierarchy, "access"), (CompiledModule, "execute"),
        (TraceCollector, "begin_block"), (TraceCollector, "finish_block"))}
    # the modules that import the classifiers by name are all covered
    by_name = {(m.__name__, n) for m, n, _ in before}
    for mod, name in ((context, "coalesce_block_access"),
                      (context, "block_bank_conflicts"),
                      (interp, "coalesce_block_access"),
                      (symbolic, "bank_conflict_degree"),
                      (symbolic, "coalesce_half_warp")):
        assert (mod.__name__, name) in by_name

    wrappers = harness.LayerWrappers().install()
    try:
        for mod, name, value in before:
            assert getattr(mod, name) is not value, (mod.__name__, name)
        for (cls, name), value in methods.items():
            assert cls.__dict__[name] is not value
        with pytest.raises(RuntimeError):
            wrappers.install()
    finally:
        wrappers.restore()

    for mod, name, value in before:
        assert getattr(mod, name) is value, (mod.__name__, name)
    for (cls, name), value in methods.items():
        assert cls.__dict__[name] is value
    assert _bindings_of(originals) == before


def test_wrapped_launch_nests_layers_and_skips_reentrant_calls():
    from repro.apps.matmul import build_kernel
    from repro.cuda import Device, launch
    dev = Device()
    n = 32
    a = dev.to_device(np.ones((n, n), np.float32), "A")
    b = dev.to_device(np.ones((n, n), np.float32), "B")
    c = dev.alloc((n, n), np.float32, "C")
    tracer = SpanTracer()
    with harness.LayerWrappers(), use_tracer(tracer):
        launch(build_kernel("naive"), (2, 2), (16, 16), (a, b, c, n),
               device=dev, functional=False, trace_blocks=1)
    names = [node.name for node in harness.iter_spans(tracer.roots)]
    assert names.count("cuda.traced_block") == 1
    assert "sim.memsys.coalesce" in names
    # no coalesce span directly inside another coalesce span
    for node in harness.iter_spans(tracer.roots):
        if node.name == "sim.memsys.coalesce":
            assert all(c.name != node.name for c in node.children)
    block = next(node for node in harness.iter_spans(tracer.roots)
                 if node.name == "cuda.traced_block")
    assert block.t1 >= block.t0 > 0
