"""The benchmark's workloads: fixed operation lists and their output
checks.  Why each workload exists, and which inputs the apps generate
from their own fixed RNGs, is written down in ``README.md``.

A workload is built from the seed once (set-up), then each *pass*
calls every operation in order; an operation returns its output and
:meth:`Workload.check` raises :class:`CheckFailed` when the output is
wrong.  Nothing here times anything: ``run.py`` does.
"""

from __future__ import annotations

import json
import math
import os
from functools import partial
from typing import Callable, Dict, List, Tuple

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

G80 = "geforce_8800_gtx"
CACHED = "rtx_3090"
FERMI = "gtx_480"
VARIANTS = ("naive", "tiled", "tiled_unrolled", "prefetch")

#: ladder sizes: (device, n); 2 traced blocks per launch, as the
#: paper-figure experiments use
LADDER = ((G80, 512), (CACHED, 256))
LADDER_TRACE_BLOCKS = 2
#: functional matmul edge
MATMUL_N = 512
#: time-sliced apps: 8 of 100 steps on a 128x128 domain
STENCIL_WL = {"nx": 128, "ny": 128, "steps": 8, "total_steps": 100}
#: mri-q: two constant-memory chunks (1024 + 64 samples), 8 blocks
MRI_WL = {"nvoxels": 2048, "nsamples": 1088, "trace_blocks": 1}
#: apps linted on the strict-segment G80 and estimated on the
#: cached-line gtx_480
LINT_APPS = ("matmul", "fdtd", "mri-q", "saxpy")
LINT_DEVICE = G80
ESTIMATE_DEVICE = FERMI

Op = Tuple[str, Callable[[], object]]


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def load_golden() -> Dict[str, object]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class Workload:
    """Base: ``ops()`` lists the pass, ``check(name, out)`` validates
    one operation's output, ``report()`` gives derived figures."""

    name = ""
    #: layer of the span a traced pass opens around each operation
    root_layer = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def check(self, name: str, out) -> None:
        raise NotImplementedError

    def report(self) -> Dict[str, float]:
        return {}


def ladder_gflops(app, n: int, variant: str) -> float:
    """Modelled GFLOPS of one performance-only ladder launch."""
    run = app.run({"n": n, "variant": variant, "tile": 16,
                   "trace_blocks": LADDER_TRACE_BLOCKS}, functional=False)
    return run.launches[0].estimate().gflops


class LadderTraced(Workload):
    """Section 4 matmul ladder, performance-only, with the timing model."""

    name = "ladder_traced"
    root_layer = "apps.host"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.apps.matmul import MatMul
        from repro.arch.registry import device_by_name
        from repro.data.paper import MATMUL_GFLOPS
        self.apps = {dev: MatMul(device_by_name(dev)) for dev, _ in LADDER}
        self.golden = load_golden()["ladder_gflops"][G80]
        self.paper = {v: MATMUL_GFLOPS[v].value for v in VARIANTS}
        self.peak = device_by_name(CACHED).peak_gflops_with_sfu
        self.last: Dict[str, float] = {}

    def ops(self) -> List[Op]:
        return [(f"{dev}/{variant}", partial(ladder_gflops, self.apps[dev],
                                             n, variant))
                for dev, n in LADDER for variant in VARIANTS]

    def check(self, name: str, out) -> None:
        dev, variant = name.split("/")
        self.last[name] = out
        if dev == G80:
            # the G80 anchors are bit-exact; any drift is a failure
            if out != self.golden[variant]:
                raise CheckFailed(f"{name}: {out!r} GFLOPS, golden "
                                  f"{self.golden[variant]!r}")
        elif not (math.isfinite(out) and 0.0 < out <= self.peak):
            raise CheckFailed(f"{name}: {out!r} GFLOPS outside "
                              f"(0, {self.peak}]")

    def report(self) -> Dict[str, float]:
        errs = [abs(self.last[f"{G80}/{v}"] - p) / p
                for v, p in self.paper.items() if f"{G80}/{v}" in self.last]
        return {"paper_err_pct": 100.0 * sum(errs) / len(errs)} if errs \
            else {}


class AppsFunctional(Workload):
    """Full functional execution on the G80: a seeded 512^3 matmul
    through ``launch(executor="auto")`` and three apps through both
    ``run()`` and ``run_module()``."""

    name = "apps_functional"
    root_layer = "apps.host"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.apps.registry import get_app
        rng = np.random.default_rng(seed)
        n = MATMUL_N
        self.a = rng.standard_normal((n, n), dtype=np.float32)
        self.b = rng.standard_normal((n, n), dtype=np.float32)
        a64, b64 = self.a.astype(np.float64), self.b.astype(np.float64)
        self.c_ref = a64 @ b64
        # the float32 dot-product forward-error bound, n*eps*(|A| @ |B|)
        self.c_tol = n * np.finfo(np.float32).eps * (np.abs(a64)
                                                       @ np.abs(b64))
        self.apps = {name: (get_app(name), wl) for name, wl in (
            ("lbm", STENCIL_WL), ("fdtd", STENCIL_WL), ("mri-q", MRI_WL))}
        self.refs = {name: app.reference(wl)
                     for name, (app, wl) in self.apps.items()}
        self._per_launch: Dict[str, Dict[str, np.ndarray]] = {}

    def _matmul(self) -> np.ndarray:
        from repro.apps.matmul import build_kernel
        from repro.cuda import Device, launch
        n = MATMUL_N
        dev = Device()
        d_a = dev.to_device(self.a, "A")
        d_b = dev.to_device(self.b, "B")
        d_c = dev.alloc((n, n), np.float32, "C")
        launch(build_kernel("tiled_unrolled", 16), (n // 16, n // 16),
               (16, 16), (d_a, d_b, d_c, n), device=dev, executor="auto")
        return d_c.to_host()

    def ops(self) -> List[Op]:
        ops: List[Op] = [("matmul512/launch", self._matmul)]
        for name, (app, wl) in self.apps.items():
            ops.append((f"{name}/run", partial(app.run, wl)))
            ops.append((f"{name}/run_module", partial(app.run_module, wl)))
        return ops

    def check(self, name: str, out) -> None:
        if name == "matmul512/launch":
            if not (np.abs(out - self.c_ref) <= self.c_tol).all():
                raise CheckFailed(f"{name}: C differs from the reference "
                                  f"beyond the float32 error bound")
            return
        app_name, path = name.split("/")
        app, _wl = self.apps[app_name]
        outputs = out.outputs
        if path == "run":
            for key, expect in self.refs[app_name].items():
                if not np.allclose(outputs[key], expect,
                                   rtol=app.verify_rtol,
                                   atol=app.verify_atol):
                    raise CheckFailed(f"{name}: {key} differs from "
                                      f"reference()")
            self._per_launch[app_name] = outputs
            return
        base = self._per_launch.get(app_name)
        if base is None:
            raise CheckFailed(f"{name}: no run() output to compare with")
        for key, expect in base.items():
            got = outputs[key]
            if got.dtype != expect.dtype or not np.array_equal(got, expect):
                raise CheckFailed(f"{name}: {key} is not bit-identical "
                                  f"to run()")


class LintSuite(Workload):
    """What ``lint_apps`` does on the strict-segment G80 and
    ``estimate_app`` on the cached-line gtx_480, one lint target per
    operation; nothing launches."""

    name = "lint_suite"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.arch.registry import device_by_name
        self.lint_spec = device_by_name(LINT_DEVICE)
        self.estimate_spec = device_by_name(ESTIMATE_DEVICE)
        self.golden = load_golden()["lint_findings"]

    def ops(self) -> List[Op]:
        from repro.apps.registry import get_app
        # one operation per lint target, each building its targets
        # afresh as lint_app does, so kernels and their compiled
        # programs are new objects on every call
        return [(f"{app}/{i}/{kind}", partial(fn, app, i))
                for app in LINT_APPS
                for i in range(len(get_app(app).lint_targets()))
                for kind, fn in (("lint", self._lint),
                                 ("estimate", self._estimate))]

    def _lint(self, app: str, i: int):
        from repro.analysis.rules import analyze_target
        from repro.apps.registry import get_app
        target = get_app(app, self.lint_spec).lint_targets()[i]
        return [analyze_target(target, app=app, spec=self.lint_spec)]

    def _estimate(self, app: str, i: int):
        from repro.analysis.estimate import estimate_target
        from repro.apps.registry import get_app
        target = get_app(app, self.estimate_spec).lint_targets()[i]
        return [estimate_target(target, self.estimate_spec)]

    def check(self, name: str, out) -> None:
        target, kind = name.rsplit("/", 1)
        if kind == "lint":
            keys = finding_keys(out)
            if keys != self.golden[target]:
                raise CheckFailed(f"{name}: finding keys {keys} differ "
                                  f"from the golden {self.golden[target]}")
            return
        peak = self.estimate_spec.peak_gflops_with_sfu
        for est in out:
            gflops = est.time.gflops if est.time is not None else 0.0
            if not (math.isfinite(gflops) and 0.0 <= gflops <= peak):
                raise CheckFailed(f"{name}: {est.kernel} estimate "
                                  f"{gflops!r} GFLOPS outside [0, {peak}]")


def finding_keys(reports) -> List[List[str]]:
    """Sorted ``[app, kernel, rule, severity]`` of every finding."""
    return sorted([r.app, f.kernel, f.rule, f.severity.name]
                  for r in reports for f in r.findings)


WORKLOADS = {cls.name: cls for cls in (LadderTraced, AppsFunctional,
                                       LintSuite)}
