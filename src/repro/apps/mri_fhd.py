"""MRI-FHD — F^H d computation for non-Cartesian MRI reconstruction.

The companion kernel to MRI-Q (Stone et al., paper reference [25]):
for every voxel, accumulate the k-space data vector rotated by the
voxel's phase,

    FHd_r(x) += real(d(k)) * cos(arg) + imag(d(k)) * sin(arg)
    FHd_i(x) += imag(d(k)) * cos(arg) - real(d(k)) * sin(arg)
    arg       = 2*pi * k . x

Structurally identical to MRI-Q — one thread per voxel, trajectory and
sample data streamed through the broadcasting constant cache, sin/cos
on the SFUs — but with two more FMAs per sample, which is why its
speedup (316X kernel / 263X app in the paper) sits a notch below
MRI-Q's.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cuda import Device, kernel
from ..sim.cpumodel import CpuCostParams
from .base import Application

#: samples per constant-memory chunk (5 arrays x 4 B x 1024 = 20 KB)
SAMPLES_PER_CHUNK = 1024


def mri_fhd_kernel():
    """Accumulate one chunk of k-space samples into (FHd_r, FHd_i)."""

    @kernel("mri_fhd", regs_per_thread=16,
            notes="trig on SFUs; sample data via constant cache")
    def mri_fhd(ctx, kx, ky, kz, dr, di, x, y, z, out_r, out_i, nsamples):
        i = ctx.global_tid()
        ctx.address_ops(3)
        px = ctx.ld_global(x, i)
        py = ctx.ld_global(y, i)
        pz = ctx.ld_global(z, i)
        acc_r = ctx.ld_global(out_r, i)
        acc_i = ctx.ld_global(out_i, i)
        zero = np.zeros(ctx.nthreads, dtype=np.int64)
        two_pi = np.float32(2.0 * np.pi)
        for s in range(nsamples):
            skx = ctx.ld_const(kx, zero + s)
            sky = ctx.ld_const(ky, zero + s)
            skz = ctx.ld_const(kz, zero + s)
            sdr = ctx.ld_const(dr, zero + s)
            sdi = ctx.ld_const(di, zero + s)
            arg = ctx.fmul(skx, px)
            arg = ctx.fma(sky, py, arg)
            arg = ctx.fma(skz, pz, arg)
            arg = ctx.fmul(arg, two_pi)
            c = ctx.sfu_cos(arg)
            s_ = ctx.sfu_sin(arg)
            acc_r = ctx.fma(sdr, c, acc_r)
            acc_r = ctx.fma(sdi, s_, acc_r)
            acc_i = ctx.fma(sdi, c, acc_i)
            acc_i = ctx.fma(ctx.fmul(sdr, np.float32(-1.0)), s_, acc_i)
            ctx.loop_tail(1)
        ctx.st_global(out_r, i, acc_r)
        ctx.st_global(out_i, i, acc_i)

    return mri_fhd


class MriFhd(Application):
    """Non-Cartesian MRI: F^H d vector computation."""

    name = "mri-fhd"
    description = "MRI reconstruction FHd vector (trig-dominated)"
    kernel_fraction = 0.9994          # paper: 316X kernel vs 263X app
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
        rng = np.random.default_rng(3141)
        traj = rng.uniform(-0.5, 0.5, (3, nsamples)).astype(np.float32)
        data = rng.standard_normal((2, nsamples)).astype(np.float32)
        pos = rng.uniform(-16.0, 16.0, (3, nvoxels)).astype(np.float32)
        return traj, data, pos

    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        nv, ns = int(workload["nvoxels"]), int(workload["nsamples"])
        traj, data, pos = self._data(nv, ns)
        arg = 2.0 * np.pi * (traj.T @ pos)      # (ns, nv)
        c, s = np.cos(arg), np.sin(arg)
        dr, di = data[0][:, None], data[1][:, None]
        out_r = (dr * c + di * s).sum(axis=0)
        out_i = (di * c - dr * s).sum(axis=0)
        return {"FHd_r": out_r.astype(np.float32),
                "FHd_i": out_i.astype(np.float32)}

    def lint_targets(self):
        from ..analysis.targets import LintTarget, carr, garr
        nv, ns = 512, 96
        return [LintTarget(
            mri_fhd_kernel(), (-(-nv // self.BLOCK),), (self.BLOCK,),
            (carr("kx", ns), carr("ky", ns), carr("kz", ns),
             carr("dr", ns), carr("di", ns),
             garr("x", nv), garr("y", nv), garr("z", nv),
             garr("FHd_r", nv), garr("FHd_i", nv), ns))]

    def module_schedule(self, workload: Dict[str, object],
                        device: Optional[Device] = None,
                        functional: bool = True):
        """Declared launch sequence: one accumulation launch per
        constant-memory chunk, staged up front exactly like
        :meth:`MriQ.module_schedule`; FHd_r/FHd_i stay device-resident
        across the chunk loop."""
        from ..compile.module import ModuleSchedule
        from ..cuda.plan import LaunchPlan
        nv, ns = int(workload["nvoxels"]), int(workload["nsamples"])
        dev = self._make_device(device)
        traj, data, pos = self._data(nv, ns)

        d_x = dev.to_device(pos[0], "x")
        d_y = dev.to_device(pos[1], "y")
        d_z = dev.to_device(pos[2], "z")
        d_r = dev.alloc(nv, np.float32, "FHd_r")
        d_i = dev.alloc(nv, np.float32, "FHd_i")
        kern = mri_fhd_kernel()
        grid = -(-nv // self.BLOCK)
        tb = int(workload.get("trace_blocks", 2))

        sched = []
        for start in range(0, ns, SAMPLES_PER_CHUNK):
            stop = min(start + SAMPLES_PER_CHUNK, ns)
            c_kx = dev.to_constant(traj[0, start:stop], "kx")
            c_ky = dev.to_constant(traj[1, start:stop], "ky")
            c_kz = dev.to_constant(traj[2, start:stop], "kz")
            c_dr = dev.to_constant(data[0, start:stop], "dr")
            c_di = dev.to_constant(data[1, start:stop], "di")
            sched.append(LaunchPlan.build(
                kern, (grid,), (self.BLOCK,),
                (c_kx, c_ky, c_kz, c_dr, c_di, d_x, d_y, d_z, d_r, d_i,
                 stop - start),
                device=dev, functional=functional, trace_blocks=tb))
            dev.reset_constant_space()

        def outputs() -> Dict[str, np.ndarray]:
            return {"FHd_r": dev.from_device(d_r),
                    "FHd_i": dev.from_device(d_i)}

        return ModuleSchedule(app=self.name, device=dev, steps=sched,
                              outputs=outputs)
