"""The shared kernel-source front end (:mod:`repro.analysis.source`).

Pins:

* one parse per code object: a second lint of the same app parses
  nothing, although it rebuilds every kernel;
* closures of one code object share the tree and the memo, not the
  closure environment or the kernel fingerprint;
* the shared tree is read-only: compiling a kernel (an in-place AST
  rewrite) and estimating its registers leave it untouched;
* the source-unavailable fallbacks of every consumer: liveness falls
  back to the declared count, lint notes the missing source, the
  compiled executor falls back to sequential execution, and the grid
  compiler refuses the kernel once (negatively cached, no artifact).
"""

from __future__ import annotations

import ast
import os
import tempfile

import numpy as np
import pytest

from repro.analysis import source
from repro.analysis.lint import lint_app
from repro.analysis.liveness import estimate_registers
from repro.analysis.rules import analyze_target
from repro.analysis.targets import LintTarget, garr
from repro.apps.matmul import build_kernel
from repro.compile import (
    ArtifactCache,
    CompileError,
    clear_program_cache,
    compile_kernel,
    get_program,
    use_artifact_cache,
)
from repro.cuda import (
    CompiledExecutor,
    Device,
    SequentialExecutor,
    kernel,
    launch,
)
from repro.obs.registry import MetricsRegistry, use_registry


def test_second_lint_parses_nothing(monkeypatch):
    monkeypatch.setattr(source, "_PARSED", {})
    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(1)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    lint_app("matmul")
    first = len(calls)
    assert 0 < first == len(source._PARSED)   # once per code object
    lint_app("matmul")
    assert len(calls) == first


def test_closures_of_one_code_share_the_tree_not_the_env():
    tiled = build_kernel("tiled", 16)
    unrolled = build_kernel("tiled_unrolled", 8)
    a, b = source.kernel_source(tiled), source.kernel_source(unrolled)
    assert a.fdef is b.fdef and a.memo is b.memo
    assert (a.env["tile"], a.env["unrolled"]) == (16, False)
    assert (b.env["tile"], b.env["unrolled"]) == (8, True)
    assert tiled.fingerprint != unrolled.fingerprint


def test_compiling_leaves_the_shared_tree_untouched():
    kern = build_kernel("prefetch", 16)
    fdef = source.kernel_source(kern).fdef
    before = ast.dump(fdef, include_attributes=True)
    assert fdef.decorator_list
    compile_kernel(kern)
    estimate_registers(kern)        # evaluates the shared branch tests
    assert source.kernel_source(kern).fdef is fdef
    assert ast.dump(fdef, include_attributes=True) == before


# ----------------------------------------------------------------------
# Source-unavailable fallbacks
# ----------------------------------------------------------------------

def _sourceless_kernel():
    """A kernel defined by ``exec`` of a string: no file, no source."""
    namespace = {}
    exec("def fill(ctx, out):\n"          # noqa: S102
         "    ctx.st_global(out, ctx.global_tid(), 2.0)\n", namespace)
    return kernel("sourceless_fill", regs_per_thread=7)(namespace["fill"])


def _estimate_falls_back():
    est = estimate_registers(_sourceless_kernel())
    assert est.fallback and est.regs == 7
    assert estimate_registers(abs).fallback


def _lint_notes_missing_source():
    target = LintTarget(kernel=_sourceless_kernel(), grid=(2,),
                        block=(32,), args=(garr("out", 64),))
    messages = [f.message for f in analyze_target(target).findings
                if f.rule == "analysis"]
    assert "kernel source unavailable" in messages


def _compiled_launch_runs_sequentially():
    kern = _sourceless_kernel()
    outs = []
    reg = MetricsRegistry()
    with use_registry(reg):
        for ex in (SequentialExecutor(), CompiledExecutor()):
            dev = Device()
            out = dev.alloc(8 * 32, np.float32, "out")
            launch(kern, (8,), (32,), (out,), device=dev, executor=ex)
            outs.append(out.to_host())
    assert reg.total("executor.compile_fallbacks") == 1
    np.testing.assert_array_equal(outs[0], outs[1])
    assert (outs[1] == 2.0).all()


def _compile_refuses_once():
    """The fingerprint needs no source, so a sourceless kernel is keyed:
    lowering refuses it, no artifact is written, and fresh copies of
    it are answered by the negative cache."""
    assert _sourceless_kernel().fingerprint is not None
    clear_program_cache()
    reg = MetricsRegistry()
    with tempfile.TemporaryDirectory() as root, use_registry(reg), \
            use_artifact_cache(ArtifactCache(root)) as cache:
        for _ in range(2):
            with pytest.raises(CompileError, match="unavailable"):
                get_program(_sourceless_kernel(), ("bench", ()))
        assert os.listdir(root) == [] and cache.stats["writes"] == 0
    assert reg.value("compile.negative_cache_hits",
                     kernel="sourceless_fill") == 1
    clear_program_cache()


@pytest.mark.parametrize("check", [
    _estimate_falls_back, _lint_notes_missing_source,
    _compiled_launch_runs_sequentially, _compile_refuses_once,
], ids=["estimate", "lint", "compiled-executor", "fingerprint"])
def test_source_unavailable_fallbacks(check):
    check()
