"""LBM — Lattice-Boltzmann fluid simulation (Figure 5's case study).

The paper uses LBM to illustrate two memory-system lessons:

* **Figure 5 (access patterns).**  The natural array-of-structures
  layout (all distributions of a cell adjacent) makes every load a
  large-stride, uncoalesced access.  Reorganizing to
  structure-of-arrays (one plane per distribution) restores coalescing
  for most directions, and staging/reading through **texture memory**
  absorbs the remaining +-1-offset misalignments: "kernel performance
  improves by 2.8X over global-only access by the use of texture
  memory" (Section 5.2).

* **Time-sliced simulation.**  Like FEM and FDTD, a kernel is invoked
  per time step so that all writes are visible before the next step —
  the whole lattice streams through DRAM every step.

* **Shared-memory capacity.**  The port keeps each thread's 9
  distributions in shared memory during collision; at 256
  threads/block that is 9.2 KB, so only one block fits per SM — LBM is
  "limited in the number of threads that can be run due to memory
  capacity constraints: shared memory" (Section 5.1).

We implement the standard D2Q9 BGK scheme on a periodic torus.  Three
kernel variants select the Figure 5 layouts: ``aos``, ``soa`` and
``texture``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..cuda import Device, kernel
from ..sim.cpumodel import CpuCostParams
from .base import Application

LAYOUTS = ("aos", "soa", "texture")

#: D2Q9 lattice: velocities and weights (rest, axis, diagonal).
EX = np.array([0, 1, 0, -1, 0, 1, -1, -1, 1], dtype=np.int64)
EY = np.array([0, 0, 1, 0, -1, 1, 1, -1, -1], dtype=np.int64)
W = np.array([4 / 9] + [1 / 9] * 4 + [1 / 36] * 4, dtype=np.float32)
Q = 9


def _equilibrium(rho, ux, uy):
    """D2Q9 BGK equilibrium distributions, float32 NumPy."""
    feq = np.empty((Q,) + np.shape(rho), dtype=np.float32)
    u2 = ux * ux + uy * uy
    for d in range(Q):
        eu = EX[d] * ux + EY[d] * uy
        feq[d] = (W[d] * rho
                  * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * u2))
    return feq.astype(np.float32)


def _initial_f(nx: int, ny: int) -> np.ndarray:
    """Shear-flow initial condition (deterministic)."""
    y = np.arange(ny, dtype=np.float32)[:, None]
    x = np.arange(nx, dtype=np.float32)[None, :]
    rho = np.ones((ny, nx), dtype=np.float32)
    ux = (0.05 * np.sin(2 * np.pi * y / ny)).astype(np.float32) \
        + np.zeros((ny, nx), np.float32)
    uy = (0.02 * np.cos(2 * np.pi * x / nx)).astype(np.float32) \
        + np.zeros((ny, nx), np.float32)
    return _equilibrium(rho, ux, uy)


def lbm_reference(nx: int, ny: int, steps: int, tau: float = 0.8):
    """NumPy stream-and-collide, the functional ground truth."""
    f = _initial_f(nx, ny)
    inv_tau = np.float32(1.0 / tau)
    for _ in range(steps):
        # streaming: pull from the upwind neighbour (periodic)
        fs = np.empty_like(f)
        for d in range(Q):
            fs[d] = np.roll(np.roll(f[d], EY[d], axis=0), EX[d], axis=1)
        rho = fs.sum(axis=0)
        ux = (EX[:, None, None] * fs).sum(axis=0) / rho
        uy = (EY[:, None, None] * fs).sum(axis=0) / rho
        feq = _equilibrium(rho.astype(np.float32), ux.astype(np.float32),
                           uy.astype(np.float32))
        f = (fs + (feq - fs) * inv_tau).astype(np.float32)
    return f


def lbm_step_kernel(layout: str):
    """One stream-and-collide step; ``layout`` picks the Figure 5 case."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown LBM layout {layout!r}; one of {LAYOUTS}")

    @kernel(f"lbm_step_{layout}", regs_per_thread=32,
            static_smem_bytes=0,
            notes=f"D2Q9 stream+collide, {layout} distribution layout")
    def step(ctx, f_in, f_out, nx, ny, inv_tau):
        n = nx * ny
        cell = ctx.global_tid()
        ctx.address_ops(4)
        x = cell % nx
        y = cell // nx
        # collision scratch: 9 distributions per thread in shared memory
        sh = ctx.shared_alloc((ctx.threads_per_block, Q), np.float32,
                              "fpriv")

        rho = np.zeros(ctx.nthreads, dtype=np.float32)
        mx = np.zeros(ctx.nthreads, dtype=np.float32)
        my = np.zeros(ctx.nthreads, dtype=np.float32)
        for d in range(Q):
            # pull streaming: upwind neighbour, periodic wrap
            xs = (x - EX[d]) % nx
            ys = (y - EY[d]) % ny
            ctx.address_ops(3)
            src_cell = ys * nx + xs
            if layout == "aos":
                fd = ctx.ld_global(f_in, src_cell * Q + d)
            elif layout == "soa":
                fd = ctx.ld_global(f_in, d * n + src_cell)
            else:  # texture path over the SoA layout
                fd = ctx.ld_tex(f_in, d * n + src_cell)
            ctx.st_shared(sh, ctx.tid * Q + d, fd)
            rho = ctx.fadd(rho, fd)
            if EX[d]:
                mx = ctx.fma(fd, np.float32(EX[d]), mx)
            if EY[d]:
                my = ctx.fma(fd, np.float32(EY[d]), my)
            ctx.loop_tail(1)
        ux = ctx.fdiv(mx, rho)
        uy = ctx.fdiv(my, rho)
        u2 = ctx.fma(ux, ux, ctx.fmul(uy, uy))
        for d in range(Q):
            eu = np.float32(EX[d]) * ux + np.float32(EY[d]) * uy
            ctx.address_ops(1)
            feq = ctx.fma(np.float32(4.5), ctx.fmul(eu, eu),
                          ctx.fma(np.float32(3.0), eu,
                                  ctx.fma(np.float32(-1.5), u2,
                                          np.float32(1.0))))
            feq = ctx.fmul(feq, ctx.fmul(np.float32(W[d]), rho))
            fd = ctx.ld_shared(sh, ctx.tid * Q + d)
            fnew = ctx.fma(ctx.fsub(feq, fd), inv_tau, fd)
            if layout == "aos":
                ctx.st_global(f_out, cell * Q + d, fnew)
            else:
                ctx.st_global(f_out, d * n + cell, fnew)
            ctx.loop_tail(1)

    return step


class Lbm(Application):
    """D2Q9 Lattice-Boltzmann on a periodic torus."""

    name = "lbm"
    description = "Lattice-Boltzmann fluid dynamics (time-sliced)"
    kernel_fraction = 0.998           # Table 2: >99%
    cpu_params = CpuCostParams(simd=False, miss_fraction=1.0, op_scale=0.8)
    verify_rtol = 1e-3
    verify_atol = 1e-4

    BLOCK = 256

    def default_workload(self, scale: str = "test") -> Dict[str, object]:
        if scale == "full":
            # The port keeps SPEC LBM's cell-major (array-of-structures)
            # layout, as the paper's did — Figure 5 and the texture
            # variant quantify what the reorganizations would buy.
            return {"nx": 256, "ny": 256, "steps": 2, "total_steps": 500,
                    "layout": "aos"}
        return {"nx": 32, "ny": 16, "steps": 2, "total_steps": 2,
                "layout": "soa"}

    def reference(self, workload: Dict[str, object]) -> Dict[str, np.ndarray]:
        f = lbm_reference(int(workload["nx"]), int(workload["ny"]),
                          int(workload["steps"]))
        return {"f": f}

    def _pack(self, f: np.ndarray, layout: str) -> np.ndarray:
        """Host-side packing into the kernel's storage layout."""
        q, ny, nx = f.shape
        if layout == "aos":
            return np.ascontiguousarray(
                f.reshape(q, ny * nx).T).reshape(-1)     # cell-major
        return f.reshape(-1)                             # plane-major

    def _unpack(self, flat: np.ndarray, layout: str, nx: int, ny: int):
        if layout == "aos":
            return flat.reshape(ny * nx, Q).T.reshape(Q, ny, nx).copy()
        return flat.reshape(Q, ny, nx).copy()

    def lint_targets(self):
        from ..analysis.targets import LintTarget, garr, tarr
        nx, ny = 32, 16
        n = nx * ny * Q
        targets = []
        for layout in LAYOUTS:
            f_in = tarr("f_in", n) if layout == "texture" \
                else garr("f_in", n)
            targets.append(LintTarget(
                lbm_step_kernel(layout), (nx * ny // self.BLOCK,),
                (self.BLOCK,), (f_in, garr("f_out", n), nx, ny, 1.25),
                note=layout))
        return targets

    def module_schedule(self, workload: Dict[str, object],
                        device: Optional[Device] = None,
                        functional: bool = True):
        """Declared launch sequence: ``steps`` stream-and-collide
        launches ping-ponging f_a/f_b (the swap is pure Python — no
        host step needed), except the texture layout whose inter-step
        D2D copy (re-binding the produced buffer as the next texture)
        is an explicit :class:`HostStep` fusion barrier."""
        from ..compile.module import HostStep, ModuleSchedule
        from ..cuda.plan import LaunchPlan
        nx, ny = int(workload["nx"]), int(workload["ny"])
        steps = int(workload["steps"])
        total = int(workload.get("total_steps", steps))
        layout = str(workload.get("layout", "soa"))
        dev = self._make_device(device)

        f0 = self._pack(_initial_f(nx, ny), layout)
        kern = lbm_step_kernel(layout)
        grid = (nx * ny // self.BLOCK,)
        tb = int(workload.get("trace_blocks", 2))
        inv_tau = np.float32(1.0 / 0.8)

        if layout == "texture":
            # read via texture binding, write to global, then copy
            # forward (the G80 cannot render to a bound texture)
            buf_a = dev.to_texture(f0, "f_a")
            buf_b = dev.alloc(f0.shape, np.float32, "f_b")
        else:
            buf_a = dev.to_device(f0, "f_a")
            buf_b = dev.alloc(f0.shape, np.float32, "f_b")

        sched: List = []
        src, dst = buf_a, buf_b
        for _ in range(steps):
            sched.append(LaunchPlan.build(
                kern, grid, (self.BLOCK,), (src, dst, nx, ny, inv_tau),
                device=dev, functional=functional, trace_blocks=tb))
            if layout == "texture":
                sched.append(HostStep(
                    lambda s=src, d=dst: s.data.__setitem__(
                        slice(None), d.data),
                    note="texture re-bind copy"))
            else:
                src, dst = dst, src
        final = src

        def outputs() -> Dict[str, np.ndarray]:
            return {"f": self._unpack(final.data.copy(), layout, nx, ny)}

        return ModuleSchedule(app=self.name, device=dev, steps=sched,
                              outputs=outputs,
                              time_steps_scale=total / steps)
