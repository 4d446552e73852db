"""FDTD — finite-difference time-domain electromagnetic simulation.

Table 2's outlier: only **16.4%** of the serial application's time is
in the kernel, "limiting potential application speedup to 1.2X" — the
paper's Amdahl's-law cautionary tale (measured: 10.5X kernel, 1.16X
application, the suite minima).

FDTD is also one of the paper's *time-sliced simulators*: "For each
time step, updates must propagate through the system, requiring global
synchronization.  Since there is no efficient means to ... perform
barrier synchronization across thread blocks, a kernel is invoked for
each time step ... This places high demand on global memory bandwidth
since the kernel must fetch from and store back the entire system to
global memory after performing only a small amount of computation."

We implement the classic 2D TM_z Yee scheme (fields Ez, Hx, Hy) with
PEC boundaries.  Each time step launches two kernels (H update, then E
update) so all inter-step communication goes through global memory,
exactly like the paper's port.  The +1-offset neighbour loads are
misaligned with respect to 64 B segments and therefore *uncoalesced*
under the G80 rules — one of the reasons the kernel saturates the
memory system despite its high thread count.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cuda import Device, kernel
from ..sim.cpumodel import CpuCostParams
from .base import Application


def fdtd_h_kernel():
    """Update Hx, Hy from Ez (one interior cell per thread)."""

    @kernel("fdtd_update_h", regs_per_thread=12,
            notes="stencil; +1-offset loads are uncoalesced on G80")
    def update_h(ctx, ez, hx, hy, nx, ny, chx, chy):
        gx = ctx.global_tid_x()
        gy = ctx.global_tid_y()
        ctx.address_ops(4)
        idx = gy * nx + gx
        interior = (gx < nx - 1) & (gy < ny - 1)
        with ctx.masked(interior):
            e = ctx.ld_global(ez, idx)
            e_xp = ctx.ld_global(ez, idx + 1)        # misaligned load
            e_yp = ctx.ld_global(ez, idx + nx)
            h_x = ctx.ld_global(hx, idx)
            h_y = ctx.ld_global(hy, idx)
            h_x = ctx.fma(ctx.fsub(e_xp, e), np.float32(-chx), h_x)
            h_y = ctx.fma(ctx.fsub(e_yp, e), np.float32(chy), h_y)
            ctx.st_global(hx, idx, h_x)
            ctx.st_global(hy, idx, h_y)

    return update_h


def fdtd_e_kernel():
    """Update Ez from Hx, Hy (one interior cell per thread)."""

    @kernel("fdtd_update_e", regs_per_thread=12,
            notes="stencil; -1-offset loads are uncoalesced on G80")
    def update_e(ctx, ez, hx, hy, nx, ny, ce):
        gx = ctx.global_tid_x()
        gy = ctx.global_tid_y()
        ctx.address_ops(4)
        idx = gy * nx + gx
        interior = (gx > 0) & (gx < nx - 1) & (gy > 0) & (gy < ny - 1)
        with ctx.masked(interior):
            e = ctx.ld_global(ez, idx)
            h_y = ctx.ld_global(hy, idx)
            h_ym = ctx.ld_global(hy, idx - nx)
            h_x = ctx.ld_global(hx, idx)
            h_xm = ctx.ld_global(hx, idx - 1)        # misaligned load
            curl = ctx.fsub(ctx.fsub(h_y, h_ym), ctx.fsub(h_x, h_xm))
            ctx.st_global(ez, idx, ctx.fma(curl, np.float32(ce), e))

    return update_e


def _initial_ez(nx: int, ny: int) -> np.ndarray:
    """Gaussian pulse in the middle of the domain (deterministic)."""
    x = np.arange(nx, dtype=np.float32) - nx / 2
    y = np.arange(ny, dtype=np.float32) - ny / 2
    r2 = x[None, :] ** 2 + y[:, None] ** 2
    return np.exp(-r2 / (2.0 * (max(nx, ny) / 16.0) ** 2)).astype(np.float32)


def fdtd_reference(nx, ny, steps, chx=0.5, chy=0.5, ce=0.5):
    """NumPy Yee updates, bit-matching the kernel's operation order."""
    ez = _initial_ez(nx, ny)
    hx = np.zeros((ny, nx), np.float32)
    hy = np.zeros((ny, nx), np.float32)
    for _ in range(steps):
        diff_x = (ez[:-1, 1:] - ez[:-1, :-1]).astype(np.float32)
        diff_y = (ez[1:, :-1] - ez[:-1, :-1]).astype(np.float32)
        hx[:-1, :-1] = diff_x * np.float32(-chx) + hx[:-1, :-1]
        hy[:-1, :-1] = diff_y * np.float32(chy) + hy[:-1, :-1]
        curl = ((hy[1:-1, 1:-1] - hy[:-2, 1:-1])
                - (hx[1:-1, 1:-1] - hx[1:-1, :-2])).astype(np.float32)
        ez[1:-1, 1:-1] = curl * np.float32(ce) + ez[1:-1, 1:-1]
    return ez, hx, hy


class Fdtd(Application):
    """2D TM_z finite-difference time-domain solver."""

    name = "fdtd"
    description = "FDTD electromagnetic field solver (time-sliced)"
    kernel_fraction = 0.164           # Table 2: 16.4% -> app cap 1.2X
    # scalar CPU stencil, streaming working set
    cpu_params = CpuCostParams(simd=True, miss_fraction=1.0)

    BLOCK = (16, 16)

    def default_workload(self, scale: str = "test") -> Dict[str, object]:
        if scale == "full":
            return {"nx": 512, "ny": 512, "steps": 2, "total_steps": 1000}
        return {"nx": 32, "ny": 32, "steps": 3, "total_steps": 3}

    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        ez, hx, hy = fdtd_reference(int(workload["nx"]), int(workload["ny"]),
                                    int(workload["steps"]))
        return {"Ez": ez, "Hx": hx, "Hy": hy}

    def lint_targets(self):
        from ..analysis.targets import LintTarget, garr
        nx, ny = 64, 32
        grid = (nx // self.BLOCK[0], ny // self.BLOCK[1])
        fields = (garr("ez", nx * ny), garr("hx", nx * ny),
                  garr("hy", nx * ny))
        return [
            LintTarget(fdtd_h_kernel(), grid, self.BLOCK,
                       fields + (nx, ny, 0.5, 0.5), note="h"),
            LintTarget(fdtd_e_kernel(), grid, self.BLOCK,
                       fields + (nx, ny, 0.5), note="e"),
        ]

    def module_schedule(self, workload: Dict[str, object],
                        device: Optional[Device] = None,
                        functional: bool = True):
        """Declared launch sequence: ``steps`` interleaved H/E update
        launches over the same three field arrays with no host code
        between them — the canonical fully-fusable timestep loop
        (Ez/Hx/Hy are R7 loop-carried and stay device-resident)."""
        from ..compile.module import ModuleSchedule
        from ..cuda.plan import LaunchPlan
        nx, ny = int(workload["nx"]), int(workload["ny"])
        steps = int(workload["steps"])
        total = int(workload.get("total_steps", steps))
        dev = self._make_device(device)

        d_ez = dev.to_device(_initial_ez(nx, ny), "Ez")
        d_hx = dev.to_device(np.zeros((ny, nx), np.float32), "Hx")
        d_hy = dev.to_device(np.zeros((ny, nx), np.float32), "Hy")
        kh, ke = fdtd_h_kernel(), fdtd_e_kernel()
        grid = (nx // self.BLOCK[0], ny // self.BLOCK[1])
        tb = int(workload.get("trace_blocks", 2))

        sched = []
        for _ in range(steps):
            sched.append(LaunchPlan.build(
                kh, grid, self.BLOCK, (d_ez, d_hx, d_hy, nx, ny, 0.5, 0.5),
                device=dev, functional=functional, trace_blocks=tb))
            sched.append(LaunchPlan.build(
                ke, grid, self.BLOCK, (d_ez, d_hx, d_hy, nx, ny, 0.5),
                device=dev, functional=functional, trace_blocks=tb))

        def outputs() -> Dict[str, np.ndarray]:
            return {"Ez": dev.from_device(d_ez),
                    "Hx": dev.from_device(d_hx),
                    "Hy": dev.from_device(d_hy)}

        return ModuleSchedule(app=self.name, device=dev, steps=sched,
                              outputs=outputs,
                              time_steps_scale=total / steps)
