"""One parse per kernel: the shared front end of every source consumer.

The abstract interpreter (:mod:`repro.analysis.interp`), the kernel IR
(:mod:`repro.analysis.ir`), register liveness
(:mod:`repro.analysis.liveness`) and the grid compiler
(:mod:`repro.compile.lower`) all start from a kernel's own Python
source.  :func:`kernel_source` fetches and parses it once per *code
object* and pairs the shared tree with the closure environment of the
function at hand.  Kernel factories (``build_kernel("tiled", 16)``,
``lbm_step_kernel(layout)``) return fresh closures of one code object
on every call, so a suite sweep that rebuilds its kernels per
operation re-reads nothing; the closures differ only in their cells,
which is why the environment is per function.  Results derived from
the tree alone — the lowered :class:`~repro.analysis.ir.KernelIR` and
its divergence analysis — are memoized on the same per-code entry
(:attr:`KernelSource.memo`).

Cache key
    Nothing here identifies a kernel *configuration*.  Caches whose
    results depend on the closure, the module globals or the helpers
    a kernel calls — compiled programs, on-disk artifacts, R7's launch
    footprints, module trace replay — key on
    :attr:`repro.cuda.launch.Kernel.fingerprint`, a content hash of
    the kernel's code objects, closure cells and named globals (helper
    functions included, recursively) that needs no source.

The tree is shared by every consumer and must be treated as
read-only: the grid compiler's in-place ``NodeTransformer`` works on a
deep copy.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass
from typing import Dict

__all__ = ["KernelSource", "kernel_source"]


@dataclass(frozen=True)
class KernelSource:
    """A kernel function's parsed source plus its closure environment.

    ``fdef`` is the dedented definition (shared, read-only); the
    absolute file line of a node is ``line_offset + node.lineno``;
    ``env`` maps the function's free variables to their closure cell
    values; ``memo`` holds results derived from the tree alone, shared
    by every function of the same code object.
    """

    fdef: ast.FunctionDef
    line_offset: int
    env: Dict[str, object]
    memo: Dict[object, object]


#: the environment-free entry of every code object parsed so far (its
#: ``env`` is empty; its ``memo`` is the shared one).  The code object
#: is held strongly, so a key can never be reused by another kernel
#: the way a recycled ``id()`` can.
_PARSED: Dict[types.CodeType, KernelSource] = {}


def kernel_source(fn: object) -> KernelSource:
    """The :class:`KernelSource` of a kernel function (or of a
    :class:`~repro.cuda.launch.Kernel`, which is unwrapped).

    Raises :class:`TypeError` for objects without Python source
    (builtins), :class:`OSError` when the source cannot be read
    (interactively defined functions) and :class:`SyntaxError` /
    :class:`ValueError` when it does not parse as one plain ``def``.
    """
    fn = getattr(fn, "fn", fn)
    code = getattr(fn, "__code__", None)
    if not isinstance(code, types.CodeType):
        raise TypeError(f"{fn!r} has no Python source")
    entry = _PARSED.get(code)
    if entry is None:
        lines, start = inspect.getsourcelines(code)
        tree = ast.parse(textwrap.dedent("".join(lines)))
        fdef = tree.body[0] if tree.body else None
        if not isinstance(fdef, ast.FunctionDef):
            raise ValueError(f"not a function definition: {code.co_name!r}")
        if len(_PARSED) > 512:
            _PARSED.clear()
        entry = _PARSED[code] = KernelSource(fdef, start - 1, {}, {})
    cells = getattr(fn, "__closure__", None) or ()
    env = {name: cell.cell_contents
           for name, cell in zip(code.co_freevars, cells)}
    return KernelSource(entry.fdef, entry.line_offset, env, entry.memo)
