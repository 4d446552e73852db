"""Whole-application AOT modules: fusion legality, trace replay, the
on-disk artifact cache and the content-keyed program cache.

The module layer's contract mirrors the executors': running an app
through :meth:`Application.run_module` must be *observationally
identical* to the sequential per-launch path — same output bits, same
merged trace statistics — whatever mix of fused execution, trace
replay and per-launch fallback the fusion plan picked.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.apps.fdtd import Fdtd
from repro.apps.lbm import Lbm
from repro.apps.mri_q import MriQ
from repro.apps.registry import ALL_APPS
from repro.compile import (
    ArtifactCache,
    CompiledModule,
    HostStep,
    ModuleSchedule,
    clear_program_cache,
    compile_status,
    fuse_schedule,
    get_program,
    plan_context,
    use_artifact_cache,
)
from repro.compile import program as program_mod
from repro.compile.fuse import MIN_FUSE_STEPS
from repro.cuda import Device, LaunchPlan, kernel
from repro.obs.registry import MetricsRegistry, use_registry

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _sequential_run(app_cls, workload):
    app = app_cls()
    app.executor = "sequential"
    return app.run(dict(workload), functional=True)


def _assert_runs_identical(ref, mod):
    assert set(ref.outputs) == set(mod.outputs)
    for key in ref.outputs:
        np.testing.assert_array_equal(ref.outputs[key], mod.outputs[key])
    assert ref.merged_trace.summary() == mod.merged_trace.summary()


# ----------------------------------------------------------------------
# Fusion legality (R7 as the oracle)
# ----------------------------------------------------------------------

def test_fdtd_schedule_is_one_fused_group():
    app = Fdtd()
    wl = app.default_workload("test")          # steps=3 -> 6 launches
    schedule = app.module_schedule(wl)
    fusion = fuse_schedule(schedule)
    assert len(fusion.groups) == 1
    group = fusion.groups[0]
    assert group.fused and group.reason == ""
    assert len(group.steps) == 2 * int(wl["steps"])
    # the three fields flow around the timestep loop: loop-carried,
    # kept device-resident across the group's launches
    assert set(group.carried) == {"Ez", "Hx", "Hy"}
    assert fusion.fuse_applied == 2 * int(wl["steps"]) - 1


def test_lbm_soa_schedule_fuses():
    app = Lbm()
    wl = app.default_workload("test")          # soa layout, steps=2
    fusion = fuse_schedule(app.module_schedule(wl))
    assert [g.fused for g in fusion.groups] == [True]
    assert fusion.fuse_applied == int(wl["steps"]) - 1


def test_lbm_texture_host_steps_break_groups():
    app = Lbm()
    wl = {"nx": 32, "ny": 16, "steps": 2, "total_steps": 2,
          "layout": "texture"}
    schedule = app.module_schedule(wl)
    # launch / host re-bind copy / launch / host re-bind copy
    kinds = [isinstance(s, HostStep) for s in schedule.steps]
    assert kinds == [False, True, False, True]
    fusion = fuse_schedule(schedule)
    assert all(not g.fused for g in fusion.groups)
    assert fusion.fuse_applied == 0
    for group in fusion.groups:
        assert "host step barrier" in group.reason


def test_host_step_caps_but_does_not_unfuse_the_run_before_it():
    """A barrier ends a group; the launches before it still fuse."""
    app = Fdtd()
    wl = app.default_workload("test")
    schedule = app.module_schedule(wl)
    noted = []
    schedule.steps.append(HostStep(lambda: noted.append(1), note="drain"))
    fusion = fuse_schedule(schedule)
    assert [g.fused for g in fusion.groups] == [True]
    assert len(fusion.groups[0].steps) == 2 * int(wl["steps"])


def test_second_run_module_reuses_r7_footprints(monkeypatch):
    from repro.analysis.interp import KernelInterp
    calls = []
    run = KernelInterp.run

    def counting_run(self):
        calls.append(self.target.kernel.name)
        return run(self)

    # two constant-memory chunks (1024 + 64 samples): a fused pair
    wl = {"nvoxels": 256, "nsamples": 1088, "trace_blocks": 1}
    first = MriQ().run_module(dict(wl)).module.fusion
    monkeypatch.setattr(KernelInterp, "run", counting_run)
    second = MriQ().run_module(dict(wl)).module.fusion
    assert calls == []
    assert second.groups == first.groups
    assert any(g.fused for g in second.groups)
    assert second.dataflow.to_dict() == first.dataflow.to_dict()


# two kernels under one @kernel name and argument signature: the copy
# direction is in the body, or in a closure constant.  The B-writing
# twin loads its source twice, so the two traces differ too (a copy
# A->B and a copy B->A have equal per-array statistics).
@kernel("r7_twin", regs_per_thread=4)
def r7_twin_writes_a(ctx, a, b, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        ctx.st_global(a, i, ctx.ld_global(b, i))


@kernel("r7_twin", regs_per_thread=4)
def r7_twin_writes_b(ctx, a, b, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        ctx.st_global(b, i, ctx.ld_global(a, i) + ctx.ld_global(a, i))


def r7_twin_factory(write_a):
    @kernel("r7_twin", regs_per_thread=4)
    def r7_twin(ctx, a, b, n):
        i = ctx.global_tid()
        dst = a if write_a else b
        src = b if write_a else a
        with ctx.masked(i < n):
            v = ctx.ld_global(src, i)
            if not write_a:
                v = v + ctx.ld_global(src, i)
            ctx.st_global(dst, i, v)
    return r7_twin


@pytest.mark.parametrize("twins", [
    (r7_twin_writes_a, r7_twin_writes_b),
    (r7_twin_factory(True), r7_twin_factory(False)),
], ids=["body", "closure"])
def test_r7_footprints_tell_same_named_kernels_apart(twins):
    from repro.analysis.rules import analyze_launch_sequence
    dev = Device()
    a = dev.alloc(64, np.float32, "A")
    b = dev.alloc(64, np.float32, "B")
    plans = [LaunchPlan.build(k, (2,), (32,), (a, b, 64), device=dev)
             for k in twins]
    assert plans[0].arg_signature() == plans[1].arg_signature()
    expect = [(("B",), ("A",)), (("A",), ("B",))]
    within = analyze_launch_sequence(plans).launches
    assert [(la.reads, la.writes) for la in within] == expect
    for plan, footprint in zip(plans, expect):
        (la,) = analyze_launch_sequence([plan]).launches
        assert (la.reads, la.writes) == footprint
    # one fused module: the second twin must not replay the first's
    # trace (same name, same signature, another kernel)
    module = CompiledModule(ModuleSchedule(app="twins", device=dev,
                                           steps=plans))
    assert [g.fused for g in module.fusion.groups] == [True]
    results = module.execute()
    for kern, result in zip(twins, results):
        solo_dev = Device()
        solo = LaunchPlan.build(
            kern, (2,), (32,), (solo_dev.alloc(64, np.float32, "A"),
                                solo_dev.alloc(64, np.float32, "B"), 64),
            device=solo_dev).execute("compiled")
        assert result.trace == solo.trace
    assert module.stats["trace_replays"] == 0


def test_groups_below_threshold_are_refused():
    app = Fdtd()
    wl = {"nx": 32, "ny": 32, "steps": 1, "total_steps": 1}  # 2 launches
    schedule = app.module_schedule(wl)
    assert len(schedule.steps) == MIN_FUSE_STEPS
    fusion = fuse_schedule(schedule)
    assert [g.fused for g in fusion.groups] == [True]
    # one launch short of the threshold: nothing to amortize
    schedule.steps = schedule.steps[:MIN_FUSE_STEPS - 1]
    fusion = fuse_schedule(schedule)
    assert [g.fused for g in fusion.groups] == [False]
    assert f"below the fusion threshold ({MIN_FUSE_STEPS})" \
        in fusion.groups[0].reason


# ----------------------------------------------------------------------
# Bit-identity of the module path + replay accounting
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app_cls", [Lbm, Fdtd, MriQ])
def test_module_run_identical_to_sequential(app_cls):
    wl = app_cls().default_workload("test")
    ref = _sequential_run(app_cls, wl)
    mod = app_cls().run_module(dict(wl))
    _assert_runs_identical(ref, mod)


def test_fdtd_module_replays_repeated_configurations():
    wl = Fdtd().default_workload("test")       # steps=3 -> 6 launches
    mod = Fdtd().run_module(dict(wl))
    module = mod.module
    assert module is not None
    # 2 distinct configurations (H update, E update) trace once each;
    # the other 4 launches replay
    assert module.stats["fused_launches"] == 2
    assert module.stats["trace_replays"] == 2 * int(wl["steps"]) - 2
    assert module.stats["fuse_applied"] == 2 * int(wl["steps"]) - 1
    replayed = [l for l in mod.launches if l.executor == "module"]
    assert len(replayed) == module.stats["trace_replays"]
    # replayed launches carry the recorded configuration's accounting
    traced = [l for l in mod.launches if l.executor == "compiled"]
    assert {l.trace.summary()["flops"] for l in replayed} <= \
        {l.trace.summary()["flops"] for l in traced}


def test_module_counters_reach_the_registry():
    reg = MetricsRegistry()
    with use_registry(reg):
        Fdtd().run_module()
    assert reg.value("module.fuse_applied", app="fdtd") == 5
    assert reg.value("module.trace_replays", app="fdtd") == 4
    assert reg.value("module.fused_launches", app="fdtd") == 2


def test_apps_without_schedule_fall_back_to_plain_run():
    app = ALL_APPS["saxpy"]()
    wl = app.default_workload("test")
    mod = app.run_module(dict(wl))
    assert mod.module is None
    _assert_runs_identical(_sequential_run(ALL_APPS["saxpy"], wl), mod)


# ----------------------------------------------------------------------
# Artifact cache: round-trip, staleness, corruption
# ----------------------------------------------------------------------

@kernel("artifact_probe", regs_per_thread=4)
def artifact_probe(ctx, out, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        ctx.st_global(out, i, (i * 2).astype(np.float32))


def _probe_plan():
    dev = Device()
    out = dev.alloc(64, np.float32, "out")
    return LaunchPlan.build(artifact_probe, (2,), (32,), (out, 64),
                            device=dev, functional=True), out


def test_artifact_roundtrip_in_process(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    with use_artifact_cache(cache):
        clear_program_cache()
        plan, out = _probe_plan()
        plan.execute("compiled")
        first = out.to_host().copy()
        assert cache.stats["writes"] == 1
        assert cache.stats["cold_hits"] == 0
        # a fresh memory cache now loads from disk instead of lowering
        clear_program_cache()
        plan, out = _probe_plan()
        plan.execute("compiled")
        assert cache.stats["cold_hits"] == 1
        assert cache.stats["writes"] == 1
        np.testing.assert_array_equal(first, out.to_host())
    clear_program_cache()


def test_artifact_roundtrip_across_processes(tmp_path):
    """A cold process with a warm REPRO_AOT_CACHE reloads the compiled
    programs from disk and produces the same output bits."""
    script = (
        "import hashlib, json\n"
        "from repro.apps.fdtd import Fdtd\n"
        "from repro.compile import active_artifact_cache\n"
        "run = Fdtd().run_module()\n"
        "cache = active_artifact_cache()\n"
        "print(json.dumps({\n"
        "    'checksums': {k: hashlib.sha256(v.tobytes()).hexdigest()\n"
        "                  for k, v in sorted(run.outputs.items())},\n"
        "    'writes': cache.stats['writes'],\n"
        "    'cold_hits': cache.stats['cold_hits'],\n"
        "}))\n")
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_AOT_CACHE=str(tmp_path))

    def child():
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    cold = child()
    warm = child()
    assert cold["writes"] == 2 and cold["cold_hits"] == 0
    assert warm["cold_hits"] == 2 and warm["writes"] == 0
    assert cold["checksums"] == warm["checksums"]


def test_stale_artifact_is_invalidated(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    plan, _ = _probe_plan()
    program = get_program(artifact_probe)
    assert cache.store(artifact_probe, program, *plan_context(plan))
    path = cache.path_for(artifact_probe, *plan_context(plan))
    # simulate an edited kernel: same file name, different fingerprint
    with open(path, "rb") as fh:
        wrapper = pickle.loads(fh.read())
    wrapper["fingerprint"] = "0" * 64
    with open(path, "wb") as fh:
        fh.write(pickle.dumps(wrapper))
    assert cache.load(artifact_probe, *plan_context(plan)) is None
    assert cache.stats["invalidated"] == 1
    assert not os.path.exists(path)            # stale file removed
    # the rewrite is clean: store + load round-trips again
    assert cache.store(artifact_probe, program, *plan_context(plan))
    assert cache.load(artifact_probe, *plan_context(plan)) is not None


def test_corrupt_artifact_is_discarded(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    plan, _ = _probe_plan()
    program = get_program(artifact_probe)
    assert cache.store(artifact_probe, program, *plan_context(plan))
    path = cache.path_for(artifact_probe, *plan_context(plan))
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.load(artifact_probe, *plan_context(plan)) is None
    assert cache.stats["corrupt"] == 1
    assert not os.path.exists(path)


def test_fingerprint_tracks_closure_constants():
    from repro.apps.lbm import lbm_step_kernel
    assert lbm_step_kernel("aos").fingerprint != \
        lbm_step_kernel("soa").fingerprint
    assert lbm_step_kernel("aos").fingerprint == \
        lbm_step_kernel("aos").fingerprint


def test_fingerprint_is_stable_across_hash_seeds():
    """Set constants are encoded in sorted order and a recursive helper
    as a back-reference: equal content gives one key in every
    process, whatever ``PYTHONHASHSEED`` is."""
    script = textwrap.dedent("""\
        from repro.cuda import kernel
        scope = {"MODES": frozenset({"a", "bb", "ccc", "dddd"})}
        exec("def walk(x):\\n    return walk(x - 1) if x else 0\\n"
             "def probe(ctx, out):\\n"
             "    ctx.st_global(out, ctx.tx, walk(len(MODES)))\\n", scope)
        print(kernel("probe")(scope["probe"]).fingerprint)
        """)
    keys = {subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=SRC,
                             PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2", "3")}
    assert len(keys) == 1 and len(keys.pop().strip()) == 64


_STALE_MODULE = """\
import numpy as np
from repro.cuda import kernel

SCALE = {scale}


def scaled(x):
    return {body}


@kernel("stale_probe", regs_per_thread=4)
def stale_probe(ctx, out, n):
    i = ctx.global_tid()
    with ctx.masked(i < n):
        ctx.st_global(out, i, scaled(i.astype(np.float32)))
"""

_STALE_CHILD = """\
import json
import numpy as np
from stale_kernel import stale_probe
from repro.compile import active_artifact_cache
from repro.cuda import Device, LaunchPlan

outs = []
for executor in ("compiled", "sequential"):
    dev = Device()
    out = dev.alloc(256, np.float32, "out")
    LaunchPlan.build(stale_probe, (8,), (32,), (out, 256),
                     device=dev).execute(executor)
    outs.append(out.to_host())
print(json.dumps({"stats": dict(active_artifact_cache().stats),
                  "identical": bool(np.array_equal(*outs)),
                  "first": float(outs[0][1])}))
"""


def test_edited_global_or_helper_invalidates_the_artifact(tmp_path):
    """The fingerprint covers the module globals and helpers a kernel
    reaches, not only its own code: editing either one invalidates
    the artifact in a fresh process instead of loading it."""
    src = tmp_path / "src"
    src.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), SRC]),
               PYTHONDONTWRITEBYTECODE="1",
               REPRO_AOT_CACHE=str(tmp_path / "cache"))

    def child(scale, body):
        (src / "stale_kernel.py").write_text(
            _STALE_MODULE.format(scale=scale, body=body))
        proc = subprocess.run([sys.executable, "-c", _STALE_CHILD],
                              env=env, capture_output=True, text=True,
                              check=True)
        return json.loads(proc.stdout)

    populate = child("2.0", "x * SCALE")
    assert populate["stats"]["writes"] == 1 and populate["first"] == 2.0
    for scale, body, first in (("3.0", "x * SCALE", 3.0),
                               ("3.0", "x * SCALE + 1.0", 4.0)):
        run = child(scale, body)
        assert run["stats"].get("cold_hits", 0) == 0
        assert run["stats"]["invalidated"] == 1
        assert run["identical"] and run["first"] == first


def test_warm_load_imports_no_analyzer(tmp_path):
    """A process that imports the AOT apps and warm-loads their
    programs from disk never imports :mod:`repro.analysis`."""
    script = textwrap.dedent("""\
        import json, sys
        from repro.apps.fdtd import fdtd_e_kernel, fdtd_h_kernel
        from repro.apps.lbm import lbm_step_kernel
        from repro.apps.mri_q import mri_q_kernel
        from repro.compile import active_artifact_cache, get_program
        for kern in (lbm_step_kernel("soa"), fdtd_h_kernel(),
                     fdtd_e_kernel(), mri_q_kernel()):
            get_program(kern, ("bench", ()))
        print(json.dumps({
            "stats": dict(active_artifact_cache().stats),
            "analysis": sorted(m for m in sys.modules
                               if m.startswith("repro.analysis"))}))
        """)
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_AOT_CACHE=str(tmp_path))

    def child():
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    assert child()["stats"]["writes"] == 4
    warm = child()
    assert warm["stats"] == {"cold_hits": 4}
    assert warm["analysis"] == []


def test_fresh_closures_of_one_kernel_lower_once(monkeypatch):
    from repro.apps.lbm import lbm_step_kernel
    clear_program_cache()
    calls = []
    real = program_mod.compile_kernel

    def counting(kern):
        calls.append(kern.name)
        return real(kern)

    monkeypatch.setattr(program_mod, "compile_kernel", counting)
    first, second = lbm_step_kernel("aos"), lbm_step_kernel("aos")
    assert first.fn is not second.fn
    assert get_program(first) is get_program(second)
    assert calls == ["lbm_step_aos"]
    clear_program_cache()


# ----------------------------------------------------------------------
# Negative-cache observability (R6 surfacing)
# ----------------------------------------------------------------------

@kernel("module_sync_in_branch", regs_per_thread=4)
def module_sync_in_branch(ctx, out):
    i = ctx.global_tid()
    with ctx.masked(i < 8):
        ctx.sync()
    ctx.st_global(out, i, i.astype(np.float32))


def test_negative_cache_hits_reach_the_registry():
    clear_program_cache()
    reg = MetricsRegistry()
    with use_registry(reg):
        from repro.compile import compile_status
        assert compile_status(module_sync_in_branch)[0] is False
        assert compile_status(module_sync_in_branch)[0] is False
    assert reg.value("compile.negative_cache_hits",
                     kernel="module_sync_in_branch") >= 1
    clear_program_cache()


def _order_sensitive_kernel():
    """A fresh ``batchable=False`` kernel object on every call."""
    @kernel("module_order_sensitive", regs_per_thread=4, batchable=False)
    def module_order_sensitive(ctx, out):
        ctx.st_global(out, ctx.global_tid(), 1.0)
    return module_order_sensitive


def test_refusal_is_negatively_cached_across_kernel_objects():
    clear_program_cache()
    reg = MetricsRegistry()
    with use_registry(reg):
        for _ in range(3):
            ok, reason = compile_status(_order_sensitive_kernel())
            assert not ok and "batchable=False" in reason
    assert reg.value("compile.negative_cache_hits",
                     kernel="module_order_sensitive") == 2
    clear_program_cache()
