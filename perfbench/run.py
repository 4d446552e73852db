#!/usr/bin/env python3
"""Benchmark runner: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload ladder_traced --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed; ``--trace 1`` adds layer wrappers and reports per-layer
metrics, the tracing overhead and the share no layer covers, and
writes the traced pass as a Chrome trace under ``perfbench/out/``.
The last line of standard output is the result as one JSON object.
``--record-golden`` rewrites ``golden.json`` from the current program.
See ``README.md`` for the workloads and metrics.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: cold set-ups measured in fresh processes, besides the run's own
SETUP_PROCESSES = 2
SETUP_TIMEOUT_S = 60
#: untraced passes at least (median needs several samples)
MIN_PASSES = 3
#: traced passes at least (the exact-count self-check compares them)
MIN_TRACED_PASSES = 2

#: (name, unit) of every per-layer metric of a traced run
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cuda.plan.s", "s"), ("cuda.plan.calls", "count"),
    ("cuda.executor.s", "s"),
    ("cuda.executor.compiled.calls", "count"),
    ("cuda.executor.sequential.calls", "count"),
    ("cuda.executor.batched.calls", "count"),
    ("cuda.executor.compile_fallbacks", "count"),
    ("cuda.traced_block.s", "s"), ("cuda.traced_block.count", "count"),
    ("trace.memo_hit_ratio", "ratio"), ("trace.finalize.s", "s"),
    ("compile.lower.s", "s"), ("compile.lower.calls", "count"),
    ("compile.program.s", "s"), ("compile.program.calls", "count"),
    ("compile.program_hit_ratio", "ratio"),
    ("compile.sweep.s", "s"), ("compile.module.s", "s"),
    ("compile.fuse.s", "s"),
    ("compile.module.fuse_applied", "count"),
    ("compile.module.trace_replays", "count"),
    ("compile.module.fallback_launches", "count"),
    ("compile.module.replay_ratio", "ratio"),
    ("sim.memsys.coalesce.s", "s"), ("sim.memsys.coalesce.calls", "count"),
    ("sim.memsys.banks.s", "s"), ("sim.memsys.banks.calls", "count"),
    ("sim.memsys.cache.s", "s"), ("sim.memsys.cache.calls", "count"),
    ("sim.timing.s", "s"), ("sim.timing.calls", "count"),
    ("apps.host.s", "s"),
    ("analysis.parse.s", "s"), ("analysis.parse.calls", "count"),
    ("analysis.ir.s", "s"), ("analysis.interp.s", "s"),
    ("analysis.rules.s", "s"), ("analysis.rules.memory.s", "s"),
    ("analysis.census.s", "s"), ("analysis.estimate.s", "s"),
    ("analysis.liveness.s", "s"), ("analysis.divergence.s", "s"),
    ("analysis.compile_status.s", "s"),
    ("trace.pass_s", "s"), ("trace.uncovered_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class Tally:
    """Operations attempted and failed, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def add(self, attempted: int, failed: int, errors: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[:10 - len(self.errors)])


class Pass:
    """Seconds of every operation of one pass, as measured on the host
    (``host``) and in reference-host seconds (``ref``)."""

    def __init__(self) -> None:
        self.host: List[float] = []
        self.ref: List[float] = []


def run_pass(workload, ops, tally: Tally, clock, tracer=None) -> Pass:
    """Call every operation once (output checks are not timed).  With
    ``tracer`` each operation of an app workload opens the
    ``apps.host`` root span."""
    from workloads import CheckFailed
    gc.collect()
    timed = Pass()
    for name, fn in ops:
        tally.attempted += 1
        out, error = None, None
        t0 = perf_counter()
        try:
            if tracer is not None and workload.root_layer:
                with tracer.span(workload.root_layer):
                    out = fn()
            else:
                out = fn()
        except Exception:       # one failed op must not stop the run;
            error = traceback.format_exc(limit=3)        # it is counted
        seconds = perf_counter() - t0
        timed.host.append(seconds)
        timed.ref.append(seconds * clock.scale())
        if error is not None:
            tally.fail(f"{name}: {error}")
            continue
        try:
            workload.check(name, out)
        except CheckFailed as exc:
            tally.fail(str(exc))
    return timed


def pass_seconds(passes: List[List[float]]) -> float:
    """Seconds of one pass with every operation at its median over
    ``passes``: a slow phase that hits a minority of the passes of an
    operation drops out, where the median of pass totals keeps it."""
    return sum(statistics.median(op) for op in zip(*passes))


def set_up(name: str, seed: int, tally: Tally):
    """Imports, input generation and the first call of every
    operation; returns ``(workload, ops, clock, set-up seconds)`` with
    the seconds as ``(host, reference-host)``."""
    import harness
    from workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    ops = workload.ops()
    before = perf_counter() - T_START
    clock = harness.HostClock()
    scale = harness.reference_scale(clock.last)
    first = run_pass(workload, ops, tally, clock)
    return workload, ops, clock, (before + sum(first.host),
                                  before * scale + sum(first.ref))


def cold_setups(args, tally: Tally) -> List[Tuple[float, float]]:
    """:data:`SETUP_PROCESSES` set-ups, each in a fresh process."""
    out = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        tally.add(child["attempted"], child["failed"], child["errors"])
        out.append(tuple(child["setup_s"]))
    return out


def timed_passes(workload, ops, clock, seconds: float, minimum: int,
                 tally: Tally) -> List[Pass]:
    passes: List[Pass] = []
    t0 = perf_counter()
    while len(passes) < minimum or perf_counter() - t0 < seconds:
        passes.append(run_pass(workload, ops, tally, clock))
    return passes


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def traced_pass(workload, ops, clock, tally: Tally):
    """One pass under a fresh tracer and metrics registry; returns
    ``(timed pass, per-layer values, exact counts, tracer)``.  Layer
    seconds are host seconds."""
    import harness
    from repro.obs import MetricsRegistry, SpanTracer, use_registry, \
        use_tracer
    tracer = SpanTracer()
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        timed = run_pass(workload, ops, tally, clock, tracer=tracer)
    wall = sum(timed.host)

    totals = harness.layer_totals(tracer.roots)
    known = {name[:-2] for name, unit in PER_LAYER if name.endswith(".s")}
    unmapped = set(totals) - known
    if unmapped:
        raise RuntimeError(f"spans of unmapped layers: {sorted(unmapped)}")
    covered = harness.covered(((r.t0, r.t1) for r in tracer.roots),
                              float("-inf"), float("inf"))
    self_sum = sum(secs for secs, _ in totals.values())
    if abs(self_sum - covered) > 1e-6 * max(wall, 1e-9) or covered > wall:
        raise RuntimeError(f"layer self times {self_sum!r} s do not add "
                           f"up to the covered {covered!r} s of a "
                           f"{wall!r} s pass")

    spans = list(harness.iter_spans(tracer.roots))
    executors = {n: 0 for n in ("compiled", "sequential", "batched")}
    program_calls = program_hits = 0
    for node in spans:
        kind = node.name.partition(".")[2]
        if node.name.startswith("executor.") and kind in executors:
            executors[kind] += 1
        if node.name == "compile.program":
            program_calls += 1
            program_hits += not any(d.name == "compile.lower"
                                    for d, _ in node.walk())

    values: Dict[str, float] = {}
    for layer in known:
        values[f"{layer}.s"] = totals.get(layer, (0.0, 0))[0]
    counts: Dict[str, float] = {
        f"{layer}.calls": totals.get(layer, (0.0, 0))[1]
        for layer in ("cuda.plan", "compile.lower", "compile.program",
                      "sim.memsys.coalesce", "sim.memsys.banks",
                      "sim.memsys.cache", "sim.timing", "analysis.parse")}
    counts["cuda.traced_block.count"] = \
        totals.get(harness.TRACED_BLOCK, (0.0, 0))[1]
    for kind, n in executors.items():
        counts[f"cuda.executor.{kind}.calls"] = n
    counts["cuda.executor.compile_fallbacks"] = \
        registry.total("executor.compile_fallbacks")
    for key in ("fuse_applied", "trace_replays", "fallback_launches"):
        counts[f"compile.module.{key}"] = registry.total(f"module.{key}")
    values.update(counts)

    memo = registry.total("collector.memo_hits")
    traced = counts["cuda.traced_block.count"]
    values["trace.memo_hit_ratio"] = memo / (memo + traced) \
        if memo + traced else 0.0
    values["compile.program_hit_ratio"] = program_hits / program_calls \
        if program_calls else 0.0
    replays = counts["compile.module.trace_replays"]
    fused = registry.total("module.fused_launches")
    values["compile.module.replay_ratio"] = replays / (replays + fused) \
        if replays + fused else 0.0
    values["trace.pass_s"] = wall
    values["trace.uncovered_share"] = (wall - covered) / wall if wall else 0.0
    return timed, values, counts, tracer


def traced_run(args, workload, ops, clock,
               tally: Tally) -> Dict[str, object]:
    """Untraced passes for half of ``--seconds`` (the base of the
    tracing overhead), then traced passes for the other half."""
    import harness
    untraced = timed_passes(workload, ops, clock, args.seconds / 2,
                            MIN_PASSES, tally)
    timed, values, counts = [], [], []
    with harness.LayerWrappers():
        t0 = perf_counter()
        while len(timed) < MIN_TRACED_PASSES \
                or perf_counter() - t0 < args.seconds / 2:
            one, layer_values, exact, tracer = traced_pass(
                workload, ops, clock, tally)
            if counts and exact != counts[0]:
                diff = {k: (counts[0][k], v) for k, v in exact.items()
                        if v != counts[0][k]}
                raise RuntimeError(f"layer counts differ between two "
                                   f"traced passes of the same inputs: "
                                   f"{diff}")
            timed.append(one)
            values.append(layer_values)
            counts.append(exact)

    medians = {name: statistics.median(v[name] for v in values)
               for name in values[0]}
    medians["trace.overhead_ratio"] = \
        pass_seconds([p.ref for p in timed]) \
        / pass_seconds([p.ref for p in untraced])
    os.makedirs(OUT, exist_ok=True)
    tracer.write_chrome_trace(os.path.join(
        OUT, f"{args.workload}-seed{args.seed}.trace.json"))
    return {name: metric(medians[name], unit) for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def record_golden() -> int:
    from workloads import (G80, GOLDEN_PATH, LADDER, VARIANTS, LintSuite,
                           finding_keys, ladder_gflops)
    from repro.apps.matmul import MatMul
    from repro.arch.registry import device_by_name
    app, n = MatMul(device_by_name(G80)), dict(LADDER)[G80]
    golden = {
        "ladder_gflops": {G80: {v: ladder_gflops(app, n, v)
                                for v in VARIANTS}},
        "lint_findings": {name.rsplit("/", 1)[0]: finding_keys(fn())
                          for name, fn in LintSuite(0).ops()
                          if name.endswith("/lint")},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    # the program's own REPRO_* knobs (executor policy, on-disk
    # artifact cache) would change what is measured
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)

    if args.record_golden:
        return record_golden()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    tally = Tally()
    workload, ops, clock, setup_s = set_up(args.workload, args.seed, tally)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "attempted": tally.attempted,
                          "failed": tally.failed, "errors": tally.errors}))
        return 0

    import harness
    details: Dict[str, object] = {"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics = traced_run(args, workload, ops, clock, tally)
    else:
        setups = [setup_s] + cold_setups(args, tally)
        passes = timed_passes(workload, ops, clock, args.seconds,
                              MIN_PASSES, tally)
        q1, _, q3 = harness.quartiles([sum(p.ref) for p in passes])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": metric(pass_seconds([p.ref for p in passes]), "s"),
            "setup_s": metric(statistics.median(s[1] for s in setups), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        details.update(
            wall_host_s=pass_seconds([p.host for p in passes]),
            setup_host_s=statistics.median(s[0] for s in setups),
            wall_q1=q1, wall_q3=q3, setups=setups,
            passes=[{"host": p.host, "ref": p.ref} for p in passes])
    details.update(workload.report())
    details["fail_frac"] = tally.failed / tally.attempted
    details["errors"] = tally.errors

    for name, m in metrics.items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    for name, unit in (("wall_host_s", "s"), ("setup_host_s", "s"),
                       ("fail_frac", "ratio"), ("paper_err_pct", "%")):
        if name in details:
            print(f"{name:<34} {details[name]:>14.6g} {unit}")
    if "passes" in details:
        print(f"{'pass total quartiles':<34} {details['wall_q1']:.4f} .. "
              f"{details['wall_q3']:.4f} s over {len(passes)} passes")
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({**details, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
