"""Memory-system models: coalescing, bank conflicts, caches.

This module implements the global-memory coalescing rules as *data on
the device spec*, not as code assumptions.  Two rules exist:

**Strict-segment rule** (CUDA 1.x, the paper's Section 3.2): a
coalescing group (a half-warp) issues one memory transaction iff the
k-th active thread accesses the k-th word of an aligned segment.  Any
other pattern is *uncoalesced* and serialized into one transaction per
active thread with a minimum-granularity bus charge.  Duplicate
addresses are merged for DRAM *bus* accounting (the controller's read
combining, cf. the paper's footnote 4) but still pay per-thread
serialization in the memory pipeline.

**Cached-line rule** (Fermi and later): a full warp's accesses are
gathered into the distinct cache lines they touch — one transaction
per line, regardless of the permutation of threads within the lines.
An access is coalesced when it touches no more lines than its useful
bytes require; misaligned or strided patterns cost extra lines, not
per-thread serialization.

Which rule applies, and over how many threads, comes from
``spec.coalescing_rule`` / ``spec.coalesce_group``.

**Bank conflicts.**  Shared memory is word-interleaved over
``spec.shared_mem_banks`` banks; an access group (half-warp on
16-bank devices, full warp on 32-bank ones) serializes by the maximum
number of distinct words mapped to the same bank (conflict degree).
All threads reading the *same* word are served by a broadcast
(degree 1).

**Caches.**  Constant and texture reads go through small per-SM caches
modeled with simple direct-mapped line structures sized per
:class:`~repro.arch.device.DeviceSpec`; devices with cached global
loads additionally route them through a two-level
:class:`CacheHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..arch.device import CACHED_LINE, DeviceSpec, DEFAULT_DEVICE
from ..obs.registry import get_registry


@dataclass(frozen=True)
class CoalesceResult:
    """Outcome of one coalescing-group global access event.

    :func:`coalesce_half_warp` given an ``(R, lanes)`` stack of groups
    returns one whose fields are length-``R`` arrays, one entry per
    row; :attr:`efficiency` is defined for single-group results.
    """

    coalesced: bool
    transactions: int          # serialized transactions issued
    bus_bytes: int             # bytes occupying the DRAM bus
    useful_bytes: int          # bytes the threads actually requested

    @property
    def efficiency(self) -> float:
        return self.useful_bytes / self.bus_bytes if self.bus_bytes else 1.0


# ----------------------------------------------------------------------
# Row-batched classification
# ----------------------------------------------------------------------
#
# Every classifier below works on a ``(groups, lanes)`` matrix: each
# row is sorted with its inactive lanes moved to the end, the last lane
# of every run of equal values is marked, and per-row counts come from
# row sums / ``bincount`` over those marks.  A vectorized fast-path
# test first settles the fully active, in-order (or conflict-free)
# rows that dominate real kernels; only the rows it rejects are sorted.

#: stands in for an inactive lane; sorts after every real value
_INACTIVE = np.iinfo(np.int64).max


def _sort_active(values: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Sort each row's active values, inactive lanes last."""
    return np.sort(np.where(active, values, _INACTIVE), axis=1)


def _run_ends(keys: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Mark the last valid lane of every run of equal ``keys`` in each
    row of a row-sorted matrix (one mark per distinct value)."""
    end = valid.copy()
    end[:, :-1] &= keys[:, 1:] != keys[:, :-1]
    return end


def group_rows(values: np.ndarray, active: np.ndarray, width: int
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Pad a block-wide access with inactive lanes and reshape it into
    ``(groups, width)`` rows."""
    pad = (-values.shape[0]) % width
    values = values.astype(np.int64, copy=False)
    if pad:
        values = np.concatenate([values, np.zeros(pad, dtype=np.int64)])
        active = np.concatenate([active, np.zeros(pad, dtype=bool)])
    return values.reshape(-1, width), active.reshape(-1, width)


def _coalesce_rows(A: np.ndarray, M: np.ndarray, itemsize: int,
                   spec: DeviceSpec) -> np.ndarray:
    """Apply the device's coalescing rule to every row of ``A``/``M``.

    Returns a ``(4, R)`` matrix whose rows are ``coalesced`` (0/1),
    ``transactions``, ``bus_bytes`` and ``useful_bytes`` per group; a
    group with no active lane is coalesced and costs nothing.
    """
    group = spec.coalesce_group
    segment = group * itemsize
    cached = spec.coalescing_rule == CACHED_LINE
    line = spec.cache_line_bytes
    # Fast path: fully active, in-order rows aligned to a segment
    # (strict) or a line (cached) cost one segment rounded up to lines.
    lane_offsets = np.arange(group, dtype=np.int64) * itemsize
    fast = ((A == A[:, :1] + lane_offsets) & M).all(axis=1) \
        & (A[:, 0] % (line if cached else segment) == 0)
    fast_txn = -(-segment // line) if cached else 1
    out = np.multiply.outer(
        (1, fast_txn, fast_txn * line if cached else segment, segment), fast)
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return out
    As, Ms = A[slow], M[slow]
    n_active = Ms.sum(axis=1)
    useful = n_active * itemsize
    out[3, slow] = useful

    if cached:
        # one transaction per distinct line the warp touches
        lines = _sort_active(
            np.concatenate([As // line, (As + itemsize - 1) // line], axis=1),
            np.concatenate([Ms, Ms], axis=1))
        txn = _run_ends(lines, lines != _INACTIVE).sum(axis=1)
        out[0, slow] = txn <= np.maximum(1, -(-useful // line))
        out[1, slow] = txn
        out[2, slow] = txn * line
        return out

    # Strict segments: lane k must hit word k of an aligned segment.
    lane0 = Ms.argmax(axis=1)
    base = As[np.arange(len(As)), lane0] - lane0 * itemsize
    ok = ((As == base[:, None] + lane_offsets) | ~Ms).all(axis=1) \
        & (base % segment == 0) & (n_active > 0)
    # Otherwise one transaction per active thread; the bus is charged
    # per distinct minimum-transaction segment, up to the highest byte
    # requested in it (duplicate addresses merge).
    min_txn = spec.min_transaction_bytes
    addrs = _sort_active(As, Ms)
    segs = addrs // min_txn
    end = _run_ends(segs, addrs != _INACTIVE)
    span = np.where(end, addrs + itemsize - segs * min_txn + min_txn - 1, 0)
    out[0, slow] = ok | (n_active == 0)
    out[1, slow] = np.where(ok, 1, n_active)
    out[2, slow] = np.where(ok, segment,
                            (span // min_txn).sum(axis=1) * min_txn)
    return out


def coalesce_half_warp(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> CoalesceResult:
    """Apply the device's coalescing rule to one group access.

    The group is a half-warp on strict-segment (CUDA 1.x) devices —
    hence the historical name — and a full warp on cached-line ones;
    the caller supplies exactly ``spec.coalesce_group`` lanes.

    Parameters
    ----------
    addresses:
        Byte addresses, one per thread slot of the group (length
        ``spec.coalesce_group``); entries for inactive threads are
        ignored.  An ``(R, spec.coalesce_group)`` stack classifies
        ``R`` groups in one call, and every field of the result is
        then a length-``R`` array.
    active:
        Boolean activity mask of the same shape.
    itemsize:
        Access width in bytes (4, 8 or 16).
    """
    group = spec.coalesce_group
    if addresses.shape[-1] != group or active.shape != addresses.shape:
        raise ValueError(f"expected a coalescing group of {group} lanes")
    coalesced, transactions, bus, useful = _coalesce_rows(
        np.atleast_2d(addresses).astype(np.int64), np.atleast_2d(active),
        itemsize, spec)
    if addresses.ndim == 2:
        return CoalesceResult(coalesced.astype(bool), transactions, bus,
                              useful)
    return CoalesceResult(bool(coalesced[0]), int(transactions[0]),
                          int(bus[0]), int(useful[0]))


def coalesce_block_access(
    addresses: np.ndarray,
    active: np.ndarray,
    itemsize: int,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[int, int, int, int, int]:
    """Coalesce a whole block-wide access, group by group.

    The group width and rule come from ``spec`` (half-warp strict
    segments on CUDA 1.x, full-warp cache lines on Fermi and later).
    Returns ``(warp_accesses, transactions, bus_bytes, useful_bytes,
    coalesced_accesses)`` summed over all groups that had at least one
    active thread.
    """
    A, M = group_rows(addresses, active, spec.coalesce_group)
    rows = _coalesce_rows(A, M, itemsize, spec)
    # a group is active iff it requested useful bytes; an inactive one
    # counts as coalesced in its row but is no warp access here
    accesses = int(np.count_nonzero(rows[3]))
    coalesced, transactions, bus, useful = rows.sum(axis=1).tolist()
    return (accesses, transactions, bus, useful,
            coalesced - (len(A) - accesses))


# ----------------------------------------------------------------------
# Shared-memory bank conflicts
# ----------------------------------------------------------------------

def _bank_degrees(W: np.ndarray, M: np.ndarray,
                  spec: DeviceSpec) -> np.ndarray:
    """Conflict degree of every row of ``W``/``M`` (0 when inactive)."""
    nbanks = spec.shared_mem_banks
    # Fast path: fully active rows whose words span fewer than nbanks
    # (stride 1, broadcast, or a few broadcast words: distinct words
    # are then in distinct banks), or whose lanes all hit distinct
    # banks (odd strides).
    fully = M.all(axis=1)
    fast = fully & (W.max(axis=1) - W.min(axis=1) < nbanks)
    if not fast.all():
        banks = np.sort(W % nbanks, axis=1)
        fast |= fully & (np.diff(banks, axis=1) != 0).all(axis=1)
    degrees = fast.astype(np.int64)
    slow = np.flatnonzero(~fast & M.any(axis=1))
    if slow.size:
        # distinct words per (row, bank), maximum over banks
        words = _sort_active(W[slow], M[slow])
        end = _run_ends(words, words != _INACTIVE)
        row = np.nonzero(end)[0]
        per_bank = np.bincount(row * nbanks + words[end] % nbanks,
                               minlength=slow.size * nbanks)
        degrees[slow] = per_bank.reshape(slow.size, nbanks).max(axis=1)
    return degrees


def bank_conflict_degree(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Union[int, np.ndarray]:
    """Conflict degree of one shared-memory access group.

    The group is a half-warp on 16-bank devices and a full warp on
    32-bank ones (``spec.shared_access_group``).  ``word_indices`` are
    word (4 B) offsets into shared memory.  The degree is the maximum,
    over banks, of the number of *distinct* words accessed in that
    bank; duplicate words broadcast for free.  A degree of 1 is
    conflict-free, 0 an access with no active lane.  An ``(R, lanes)``
    stack returns the ``R`` per-row degrees as an array.
    """
    degrees = _bank_degrees(np.atleast_2d(word_indices).astype(np.int64),
                            np.atleast_2d(active), spec)
    return degrees if word_indices.ndim == 2 else int(degrees[0])


def block_bank_conflicts(
    word_indices: np.ndarray,
    active: np.ndarray,
    spec: DeviceSpec = DEFAULT_DEVICE,
) -> Tuple[int, int]:
    """Sum conflict degrees over the access groups of a block-wide
    shared access.

    Returns ``(accesses, total_degree)``; ``total_degree - accesses``
    is the number of *extra* serialization passes caused by conflicts.
    """
    W, M = group_rows(word_indices, active, spec.shared_access_group)
    return int(M.any(axis=1).sum()), int(_bank_degrees(W, M, spec).sum())


def const_broadcast_cycles(words: np.ndarray, active: np.ndarray,
                           spec: DeviceSpec = DEFAULT_DEVICE) -> float:
    """Constant-cache serialization cycles of a block-wide access.

    The constant cache broadcasts ONE word per cycle to each coalescing
    group (a half-warp on the G80, a warp on later devices); threads
    reading different words serialize (Section 5.2's "care must be
    taken").  Each distinct active word past the first costs one
    group's share of the warp issue time.
    """
    W, M = group_rows(words, active, spec.coalesce_group)
    if ((W == W[:, :1]) | ~M).all():
        return 0.0          # every group reads one word: a broadcast
    sorted_words = _sort_active(W, M)
    distinct = _run_ends(sorted_words, sorted_words != _INACTIVE).sum(axis=1)
    passes = int((distinct - (distinct > 0)).sum())
    group_share = spec.coalesce_group / spec.warp_size
    return passes * (spec.timing.issue_cycles_per_warp_inst * group_share)


# ----------------------------------------------------------------------
# Read-only caches (constant / texture)
# ----------------------------------------------------------------------

class DirectMappedCache:
    """A small direct-mapped line cache for the constant/texture paths.

    The paper's applications use these paths for working sets that
    either fit (constant tables, MRI trajectory data) or exhibit 2D
    locality (texture-staged LBM grids); a simple line cache captures
    the hit-rate distinction that matters for the timing model.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 32,
                 space: str = "cache") -> None:
        if capacity_bytes % line_bytes:
            raise ValueError("capacity must be a multiple of the line size")
        self.line_bytes = line_bytes
        self.num_lines = capacity_bytes // line_bytes
        self.tags = np.full(self.num_lines, -1, dtype=np.int64)
        #: label under which hit/miss counters are published
        self.space = space
        self.hits = 0
        self.misses = 0

    def access(self, addresses: np.ndarray, active: np.ndarray) -> Tuple[int, int]:
        """Access a vector of byte addresses; returns (hits, misses).

        Duplicate lines within one access are counted once (warp-level
        broadcast), matching constant-cache behaviour.
        """
        if not active.any():
            return 0, 0
        lines = np.unique(addresses[active] // self.line_bytes)
        hits, misses, _ = self.probe_lines(lines)
        return hits, misses

    def probe_lines(self, lines: np.ndarray
                    ) -> Tuple[int, int, np.ndarray]:
        """Probe a vector of distinct line indices; returns
        ``(hits, misses, missed_lines)`` so a backing level can be
        consulted for the misses only."""
        hits = misses = 0
        missed = []
        for line in lines:
            slot = int(line % self.num_lines)
            if self.tags[slot] == line:
                hits += 1
            else:
                self.tags[slot] = line
                misses += 1
                missed.append(line)
        self.hits += hits
        self.misses += misses
        registry = get_registry()
        if registry.enabled:
            if hits:
                registry.counter("memsys.cache_hits",
                                 space=self.space).inc(hits)
            if misses:
                registry.counter("memsys.cache_misses",
                                 space=self.space).inc(misses)
        return hits, misses, np.asarray(missed, dtype=np.int64)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def reset(self) -> None:
        self.tags[:] = -1
        self.hits = 0
        self.misses = 0


# ----------------------------------------------------------------------
# Global-load cache hierarchy (cached-line devices)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyOutcome:
    """Result of routing one global access through the L1/L2 levels."""

    lines: int          # distinct lines the access touched
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int

    @property
    def dram_lines(self) -> int:
        """Lines that had to be fetched from DRAM."""
        return self.l2_misses


class CacheHierarchy:
    """Two-level cache for the global-load path of Fermi-class devices.

    Traced blocks execute sequentially, so a single L1 stands in for
    the per-SM L1s (the same modeling convention the constant/texture
    caches use) and a single L2 for the device-wide one.  Only lines
    that miss in L2 occupy the DRAM bus; the coalescing classifier
    still decides how many *transactions* the warp issues.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        if not spec.has_cached_global_loads:
            raise ValueError(f"{spec.name} has no cached global path")
        line = spec.cache_line_bytes
        self.line_bytes = line
        self.l1: Optional[DirectMappedCache] = (
            DirectMappedCache(spec.l1_cache_bytes_per_sm, line, space="l1")
            if spec.l1_cache_bytes_per_sm else None)
        self.l2: Optional[DirectMappedCache] = (
            DirectMappedCache(spec.l2_cache_bytes, line, space="l2")
            if spec.l2_cache_bytes else None)

    def access(self, addresses: np.ndarray, active: np.ndarray,
               itemsize: int = 4) -> HierarchyOutcome:
        """Route one block-wide access through the hierarchy."""
        if not active.any():
            return HierarchyOutcome(0, 0, 0, 0, 0)
        addrs = addresses[active].astype(np.int64)
        first = addrs // self.line_bytes
        last = (addrs + itemsize - 1) // self.line_bytes
        lines = np.unique(np.concatenate([first, last]))
        l1_hits = l1_misses = l2_hits = l2_misses = 0
        missed = lines
        if self.l1 is not None:
            l1_hits, l1_misses, missed = self.l1.probe_lines(lines)
        if self.l2 is not None:
            l2_hits, l2_misses, missed = self.l2.probe_lines(missed)
        else:
            l2_misses = int(missed.size)
        return HierarchyOutcome(int(lines.size), l1_hits, l1_misses,
                                l2_hits, l2_misses)

    def reset(self) -> None:
        for level in (self.l1, self.l2):
            if level is not None:
                level.reset()
