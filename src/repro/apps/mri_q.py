"""MRI-Q — Q-matrix computation for non-Cartesian MRI reconstruction.

Stone et al.'s kernel (paper reference [25]): for every voxel of the
reconstruction volume, accumulate over all k-space samples

    Q_r(x) += |phi(k)|^2 * cos(2*pi * k . x)
    Q_i(x) += |phi(k)|^2 * sin(2*pi * k . x)

The paper singles the MRI applications out: "a substantial number of
executed operations are trigonometry functions; the SFUs execute these
much faster than even CPU fast math libraries.  This accounts for
approximately 30% of the speedup.  We also spent significant effort
improving the CPU versions (approximately 4.3X over the original
code)."  MRI-Q's 457X kernel / 431X application speedups are the
suite's maxima.

Implementation notes: one thread per voxel; the k-space trajectory
(kx, ky, kz, |phi|^2) streams through constant memory in chunks, so
every warp reads the same sample via the broadcasting constant cache —
the same structure as the real kernel.  Careful thread organization
means there are no shared-memory or cache conflicts ("most notably in
the MRI applications").
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cuda import Device, kernel
from ..sim.cpumodel import CpuCostParams
from .base import Application

#: k-space samples per constant-memory chunk (4 arrays x 4 KB = 16 KB).
SAMPLES_PER_CHUNK = 1024


def mri_q_kernel():
    """Accumulate one chunk of k-space samples into (Qr, Qi)."""

    @kernel("mri_q", regs_per_thread=14,
            notes="trig on SFUs; k-space data via constant cache")
    def mri_q(ctx, kx, ky, kz, phi2, x, y, z, qr, qi, nsamples):
        i = ctx.global_tid()
        ctx.address_ops(3)
        px = ctx.ld_global(x, i)
        py = ctx.ld_global(y, i)
        pz = ctx.ld_global(z, i)
        acc_r = ctx.ld_global(qr, i)
        acc_i = ctx.ld_global(qi, i)
        zero = np.zeros(ctx.nthreads, dtype=np.int64)
        two_pi = np.float32(2.0 * np.pi)
        for s in range(nsamples):
            skx = ctx.ld_const(kx, zero + s)
            sky = ctx.ld_const(ky, zero + s)
            skz = ctx.ld_const(kz, zero + s)
            mag = ctx.ld_const(phi2, zero + s)
            arg = ctx.fmul(skx, px)
            arg = ctx.fma(sky, py, arg)
            arg = ctx.fma(skz, pz, arg)
            arg = ctx.fmul(arg, two_pi)
            acc_r = ctx.fma(mag, ctx.sfu_cos(arg), acc_r)
            acc_i = ctx.fma(mag, ctx.sfu_sin(arg), acc_i)
            ctx.loop_tail(1)
        ctx.st_global(qr, i, acc_r)
        ctx.st_global(qi, i, acc_i)

    return mri_q


class MriQ(Application):
    """Non-Cartesian MRI: Q-matrix precomputation."""

    name = "mri-q"
    description = "MRI reconstruction Q matrix (trig-dominated)"
    kernel_fraction = 0.9998          # Table 2: >99% (app speedup 431
    # of kernel 457 implies the serial remainder is ~0.02%)
    # Scalar CPU with fast-math sincos, already 4.3X-optimized by the
    # authors; a fast-math sin/cos pair still costs ~100 cycles on a K8.
    cpu_params = CpuCostParams(simd=False, miss_fraction=0.0, op_scale=0.8,
                               sfu_cycles=50.0)
    verify_rtol = 2e-3
    verify_atol = 1e-3

    BLOCK = 256

    def default_workload(self, scale: str = "test") -> Dict[str, object]:
        if scale == "full":
            return {"nvoxels": 32768, "nsamples": 2048}
        return {"nvoxels": 512, "nsamples": 96}

    def _data(self, nvoxels: int, nsamples: int):
        rng = np.random.default_rng(2718)
        traj = rng.uniform(-0.5, 0.5, (3, nsamples)).astype(np.float32)
        phi2 = rng.uniform(0.1, 1.0, nsamples).astype(np.float32)
        pos = rng.uniform(-16.0, 16.0, (3, nvoxels)).astype(np.float32)
        return traj, phi2, pos

    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        nv, ns = int(workload["nvoxels"]), int(workload["nsamples"])
        traj, phi2, pos = self._data(nv, ns)
        arg = 2.0 * np.pi * (traj.T @ pos)          # (ns, nv)
        qr = (phi2[:, None] * np.cos(arg)).sum(axis=0)
        qi = (phi2[:, None] * np.sin(arg)).sum(axis=0)
        return {"Qr": qr.astype(np.float32), "Qi": qi.astype(np.float32)}

    def lint_targets(self):
        from ..analysis.targets import LintTarget, carr, garr
        nv, ns = 512, 96
        return [LintTarget(
            mri_q_kernel(), (-(-nv // self.BLOCK),), (self.BLOCK,),
            (carr("kx", ns), carr("ky", ns), carr("kz", ns),
             carr("phi2", ns),
             garr("x", nv), garr("y", nv), garr("z", nv),
             garr("Qr", nv), garr("Qi", nv), ns))]

    def module_schedule(self, workload: Dict[str, object],
                        device: Optional[Device] = None,
                        functional: bool = True):
        """Declared launch sequence: one accumulation launch per
        constant-memory chunk of the k-space trajectory.  All chunks
        are staged up front (plan arguments bind at build time;
        ``reset_constant_space`` between chunks keeps the 64 KB meter
        faithful to the per-launch path); Qr/Qi accumulate in place
        and stay device-resident across the chunk loop."""
        from ..compile.module import ModuleSchedule
        from ..cuda.plan import LaunchPlan
        nv, ns = int(workload["nvoxels"]), int(workload["nsamples"])
        dev = self._make_device(device)
        traj, phi2, pos = self._data(nv, ns)

        d_x = dev.to_device(pos[0], "x")
        d_y = dev.to_device(pos[1], "y")
        d_z = dev.to_device(pos[2], "z")
        d_qr = dev.alloc(nv, np.float32, "Qr")
        d_qi = dev.alloc(nv, np.float32, "Qi")
        kern = mri_q_kernel()
        grid = -(-nv // self.BLOCK)
        tb = int(workload.get("trace_blocks", 2))

        sched = []
        for start in range(0, ns, SAMPLES_PER_CHUNK):
            stop = min(start + SAMPLES_PER_CHUNK, ns)
            c_kx = dev.to_constant(traj[0, start:stop], "kx")
            c_ky = dev.to_constant(traj[1, start:stop], "ky")
            c_kz = dev.to_constant(traj[2, start:stop], "kz")
            c_p2 = dev.to_constant(phi2[start:stop], "phi2")
            sched.append(LaunchPlan.build(
                kern, (grid,), (self.BLOCK,),
                (c_kx, c_ky, c_kz, c_p2, d_x, d_y, d_z, d_qr, d_qi,
                 stop - start),
                device=dev, functional=functional, trace_blocks=tb))
            dev.reset_constant_space()

        def outputs() -> Dict[str, np.ndarray]:
            return {"Qr": dev.from_device(d_qr),
                    "Qi": dev.from_device(d_qi)}

        return ModuleSchedule(app=self.name, device=dev, steps=sched,
                              outputs=outputs)
