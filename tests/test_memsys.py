"""Tests for the G80 coalescing, bank-conflict and cache models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import DEFAULT_DEVICE
from repro.arch.device import CACHED_LINE
from repro.arch.registry import device_by_name, device_names
from repro.analysis.symbolic import (
    SymVal, classify_global, classify_shared, fresh_sym)
from repro.sim.memsys import (
    CacheHierarchy,
    DirectMappedCache,
    bank_conflict_degree,
    block_bank_conflicts,
    coalesce_block_access,
    coalesce_half_warp,
    const_broadcast_cycles,
)

HW = DEFAULT_DEVICE.half_warp
ALL = np.ones(HW, dtype=bool)


# ----------------------------------------------------------------------
# Reference oracle: the scalar per-group classifiers, one np.unique
# loop per group, kept independent of the row-batched implementation.
# ----------------------------------------------------------------------

def ref_coalesce_group(addresses, active, itemsize, spec):
    """``(coalesced, transactions, bus_bytes, useful_bytes)`` of one group."""
    n_active = int(active.sum())
    if n_active == 0:
        return True, 0, 0, 0
    addrs = addresses[active].astype(np.int64)
    useful = n_active * itemsize
    if spec.coalescing_rule == CACHED_LINE:
        line = spec.cache_line_bytes
        lines = np.unique(np.concatenate(
            [addrs // line, (addrs + itemsize - 1) // line]))
        txn = int(lines.size)
        return txn <= max(1, -(-useful // line)), txn, txn * line, useful
    segment = spec.coalesce_group * itemsize
    lanes = np.nonzero(active)[0]
    base = addresses[lanes[0]] - lanes[0] * itemsize
    if base % segment == 0 and np.all(
            addresses[lanes] == base + lanes * itemsize):
        return True, 1, segment, useful
    min_txn = spec.min_transaction_bytes
    bus = 0
    for seg in np.unique(addrs // min_txn):
        span = int(np.max(addrs[addrs // min_txn == seg])) + itemsize \
            - seg * min_txn
        bus += int(np.ceil(span / min_txn)) * min_txn
    return False, n_active, bus, useful


def ref_bank_degree(words, active, spec):
    if not active.any():
        return 0
    words = words[active].astype(np.int64)
    banks = words % spec.shared_mem_banks
    return max(len(np.unique(words[banks == b])) for b in np.unique(banks))


def ref_groups(values, active, width):
    """Split a block-wide access into its (values, active) groups."""
    for s in range(0, values.shape[0], width):
        v, a = values[s:s + width], active[s:s + width]
        pad = width - v.shape[0]
        yield (np.concatenate([v, np.zeros(pad, np.int64)]),
               np.concatenate([a, np.zeros(pad, bool)]))


def ref_block_coalesce(addresses, active, itemsize, spec):
    totals = [0, 0, 0, 0, 0]
    for a, m in ref_groups(addresses, active, spec.coalesce_group):
        if m.any():
            coal, txn, bus, useful = ref_coalesce_group(a, m, itemsize, spec)
            for i, v in enumerate((1, txn, bus, useful, int(coal))):
                totals[i] += v
    return tuple(totals)


def ref_block_banks(words, active, spec):
    degrees = [ref_bank_degree(w, m, spec) for w, m in
               ref_groups(words, active, spec.shared_access_group)
               if m.any()]
    return len(degrees), sum(degrees)


def ref_const_cycles(words, active, spec):
    group = spec.coalesce_group
    extra = 0.0
    for w, m in ref_groups(words, active, group):
        if m.any():
            extra += (len(np.unique(w[m])) - 1) * (
                spec.timing.issue_cycles_per_warp_inst
                * group / spec.warp_size)
    return extra


def ref_probe_lines(tags, lines):
    """Sequential direct-mapped probe; mutates ``tags``."""
    hits, missed = 0, []
    for line in lines:
        slot = int(line % tags.size)
        if tags[slot] == line:
            hits += 1
        else:
            tags[slot] = line
            missed.append(int(line))
    return hits, len(missed), missed


@st.composite
def block_accesses(draw):
    """A block-wide access on a registered device: strided, permuted,
    broadcast, random or misaligned lanes under a full, partial or
    empty mask, over a thread count that need not fill the last
    group."""
    spec = device_by_name(draw(st.sampled_from(device_names())))
    itemsize = draw(st.sampled_from([4, 8, 16]))
    n = draw(st.integers(1, 3 * spec.warp_size + 7))
    lane = np.arange(n, dtype=np.int64)
    kind = draw(st.sampled_from(
        ["stride", "permuted", "broadcast", "random", "rows"]))
    stride = draw(st.integers(-3, 33))
    base = draw(st.integers(-300, 300))
    if kind == "stride":
        words = base + lane * stride
    elif kind == "permuted":
        words = base + np.array(draw(st.permutations(range(n))), np.int64)
    elif kind == "broadcast":
        words = np.full(n, base, dtype=np.int64)
    elif kind == "random":
        words = np.array(draw(st.lists(st.integers(-64, 2048),
                                       min_size=n, max_size=n)), np.int64)
    else:   # naive-matmul row broadcast: each group of 16 reads one row
        words = base + (lane // 16) * max(stride, 1) * 64
    masking = draw(st.sampled_from(["full", "partial", "empty"]))
    if masking == "full":
        active = np.ones(n, bool)
    elif masking == "empty":
        active = np.zeros(n, bool)
    else:
        active = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)), bool)
    # a byte offset that is not a multiple of the item size misaligns
    skew = draw(st.sampled_from([0, 0, itemsize // 2, 4]))
    return spec, itemsize, words, words * itemsize + skew, active


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block_accesses())
def test_batched_classifiers_match_scalar_oracle(access):
    spec, itemsize, words, addresses, active = access
    assert coalesce_block_access(addresses, active, itemsize, spec) \
        == ref_block_coalesce(addresses, active, itemsize, spec)
    assert block_bank_conflicts(words, active, spec) \
        == ref_block_banks(words, active, spec)
    assert const_broadcast_cycles(words, active, spec) \
        == ref_const_cycles(words, active, spec)

    # the per-row entry points: one group, and a stack of groups
    group = spec.coalesce_group
    rows = list(ref_groups(addresses, active, group))
    stack = coalesce_half_warp(np.array([a for a, _ in rows]),
                               np.array([m for _, m in rows]), itemsize, spec)
    for i, (a, m) in enumerate(rows):
        expect = ref_coalesce_group(a, m, itemsize, spec)
        single = coalesce_half_warp(a, m, itemsize, spec)
        assert (single.coalesced, single.transactions, single.bus_bytes,
                single.useful_bytes) == expect
        assert (stack.coalesced[i], stack.transactions[i],
                stack.bus_bytes[i], stack.useful_bytes[i]) == expect
    hw = spec.shared_access_group
    rows = list(ref_groups(words, active, hw))
    degrees = bank_conflict_degree(np.array([w for w, _ in rows]),
                                   np.array([m for _, m in rows]), spec)
    assert list(degrees) == [ref_bank_degree(w, m, spec) for w, m in rows]


# ----------------------------------------------------------------------
# The static classifiers of repro.analysis.symbolic run the same
# batched implementation over a whole access; the oracles below are
# their per-row loops over the scalar reference classifiers.
# ----------------------------------------------------------------------

GLOBAL_ORDER = ["coalesced", "broadcast", "misaligned", "strided",
                "irregular"]


def ref_classify_global(words, active, itemsize, spec):
    worst, all_coalesced = "coalesced", True
    for addrs, act in ref_groups(words * itemsize, active,
                                 spec.coalesce_group):
        if not act.any():
            continue
        coalesced = ref_coalesce_group(addrs, act, itemsize, spec)[0]
        if coalesced or int(act.sum()) <= 1:
            continue
        all_coalesced = False
        vals = addrs[act] // itemsize
        diffs = np.diff(vals)
        if np.ptp(vals) == 0:
            label = "broadcast"
        elif diffs.size and np.ptp(diffs) == 0:
            label = "misaligned" if diffs[0] == 1 else f"strided({diffs[0]})"
        else:
            label = "irregular"
        if GLOBAL_ORDER.index(label.split("(")[0]) \
                > GLOBAL_ORDER.index(worst.split("(")[0]):
            worst = label
    return ("coalesced", True) if all_coalesced else (worst, False)


def ref_classify_shared(lanes, coeffs, active, word_scale, word_offset,
                        spec):
    """``lanes + sum(coeff * unknown)``, scaled to words."""
    nbanks, hw = spec.shared_mem_banks, spec.shared_access_group
    words = np.broadcast_to(np.asarray(lanes, np.int64), active.shape) \
        * word_scale + word_offset
    if not coeffs:
        degree = max([1] + [ref_bank_degree(w, a, spec) for w, a in
                            ref_groups(words, active, hw) if a.any()])
        return ("conflict-free" if degree <= 1
                else f"{degree}-way"), degree
    if any((c * word_scale) % nbanks for c in coeffs):
        return "data-dependent", None
    for r, a in ref_groups(words % nbanks, active, hw):
        vals = r[a]
        if vals.size and np.unique(vals).size != vals.size:
            return "data-dependent", None
    return "conflict-free", 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_accesses(), st.data())
def test_static_classifiers_match_per_row_oracle(access, data):
    spec, itemsize, words, _, active = access
    n = words.shape[0]
    mask = None if active.all() and data.draw(st.booleans()) else active
    assert classify_global(words, mask, n, itemsize, spec) \
        == ref_classify_global(words, active, itemsize, spec)

    nbanks = spec.shared_mem_banks
    scale = data.draw(st.sampled_from([1, 2, 4]))
    offset = data.draw(st.integers(-40, 40))
    # unknown terms whose scaled coefficients mostly keep banks decidable
    coeffs = data.draw(st.lists(
        st.sampled_from([nbanks, 2 * nbanks, nbanks // 2, 1, 3]),
        max_size=2))
    scalar = data.draw(st.booleans()) and n > 0
    lanes = int(words[0]) if scalar else words
    index = SymVal(lanes, {fresh_sym(): c for c in coeffs})
    assert classify_shared(index, mask, n, scale, offset, spec) \
        == ref_classify_shared(lanes, coeffs, active, scale, offset, spec)


def test_static_shared_opaque_term_bank_collision():
    # lanes 3 and 5 of the first half-warp both hit bank 3, and an
    # unknown term with a bank-count coefficient cannot tell whether
    # they read the same word; the second half-warp is partly masked
    spec = DEFAULT_DEVICE
    lanes = np.arange(2 * HW, dtype=np.int64)
    lanes[5] = 3 + spec.shared_mem_banks
    mask = np.ones(2 * HW, bool)
    mask[HW:] = lanes[:HW] % 2 == 0
    term = {fresh_sym(): spec.shared_mem_banks}
    assert classify_shared(SymVal(lanes, term), mask, 2 * HW, spec=spec) \
        == ("data-dependent", None)
    mask[5] = False         # the colliding lane is inactive
    assert classify_shared(SymVal(lanes, term), mask, 2 * HW, spec=spec) \
        == ("conflict-free", 1)


def addresses(base, stride, itemsize=4, n=HW):
    return base + np.arange(n, dtype=np.int64) * stride * itemsize


class TestCoalesceHalfWarp:
    def test_contiguous_aligned_is_one_transaction(self):
        res = coalesce_half_warp(addresses(0, 1), ALL, 4)
        assert res.coalesced
        assert res.transactions == 1
        assert res.bus_bytes == 64
        assert res.useful_bytes == 64
        assert res.efficiency == 1.0

    def test_contiguous_aligned_any_segment(self):
        res = coalesce_half_warp(addresses(64 * 123, 1), ALL, 4)
        assert res.coalesced

    def test_misaligned_contiguous_serializes(self):
        # CUDA 1.x: thread k must hit word k of an *aligned* segment
        res = coalesce_half_warp(addresses(4, 1), ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW

    def test_strided_serializes(self):
        res = coalesce_half_warp(addresses(0, 2), ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW
        assert res.useful_bytes == 64
        assert res.bus_bytes > res.useful_bytes

    def test_permuted_serializes(self):
        addr = addresses(0, 1)[::-1].copy()
        res = coalesce_half_warp(addr, ALL, 4)
        assert not res.coalesced

    def test_broadcast_same_address_merges_bus_traffic(self):
        # the paper's footnote 4: the memory system may combine
        # simultaneous loads of the same value into one request
        addr = np.zeros(HW, dtype=np.int64)
        res = coalesce_half_warp(addr, ALL, 4)
        assert not res.coalesced
        assert res.transactions == HW            # serialized issue
        assert res.bus_bytes == 32               # but one 32 B segment
        assert res.useful_bytes == 64

    def test_partial_warp_in_order_coalesces(self):
        active = ALL.copy()
        active[5] = False
        res = coalesce_half_warp(addresses(0, 1), active, 4)
        assert res.coalesced
        assert res.useful_bytes == (HW - 1) * 4

    def test_inactive_half_warp_is_free(self):
        res = coalesce_half_warp(addresses(0, 1), np.zeros(HW, bool), 4)
        assert res.transactions == 0
        assert res.bus_bytes == 0

    def test_eight_byte_items(self):
        res = coalesce_half_warp(addresses(0, 1, itemsize=8), ALL, 8)
        assert res.coalesced
        assert res.bus_bytes == 128

    def test_wrong_lane_count_rejected(self):
        with pytest.raises(ValueError):
            coalesce_half_warp(np.zeros(8, np.int64), np.ones(8, bool), 4)


class TestCoalesceBlockAccess:
    def test_block_of_contiguous_half_warps(self):
        n = 256
        addr = np.arange(n, dtype=np.int64) * 4
        wa, txn, bus, useful, coal = coalesce_block_access(
            addr, np.ones(n, bool), 4)
        assert wa == n // HW
        assert txn == n // HW
        assert coal == n // HW
        assert bus == useful == n * 4

    def test_row_broadcast_pattern_matches_naive_matmul(self):
        # 16x16 block reading A[row][k]: every half-warp hits one address
        n = 256
        row = np.repeat(np.arange(16), 16)
        addr = (row * 4096 * 4).astype(np.int64)
        wa, txn, bus, useful, coal = coalesce_block_access(
            addr, np.ones(n, bool), 4)
        assert wa == 16
        assert coal == 0
        assert txn == 16 * HW        # fully serialized
        assert bus == 16 * 32        # one 32 B segment per half-warp

    def test_partially_active_tail_block(self):
        n = 40  # 2.5 half-warps
        addr = np.arange(n, dtype=np.int64) * 4
        active = np.ones(n, bool)
        wa, txn, bus, useful, coal = coalesce_block_access(addr, active, 4)
        assert wa == 3
        assert useful == n * 4

    def test_fast_and_slow_paths_agree(self):
        # a random mix of fast-path and general rows, against the oracle
        rng = np.random.default_rng(7)
        n = 128
        addr = rng.integers(0, 4096, n).astype(np.int64) * 4
        addr[:64] = np.arange(64) * 4 + 4096
        active = rng.random(n) > 0.3
        active[:32] = True
        assert coalesce_block_access(addr, active, 4) \
            == ref_block_coalesce(addr, active, 4, DEFAULT_DEVICE)


@settings(max_examples=60, deadline=None)
@given(
    base_seg=st.integers(0, 1000),
    data=st.data(),
)
def test_property_bus_bytes_at_least_useful(base_seg, data):
    """Bus traffic can never be less than the bytes actually requested."""
    perm = data.draw(st.permutations(list(range(HW))))
    stride = data.draw(st.integers(1, 8))
    addr = (base_seg * 64 + np.array(perm, dtype=np.int64) * stride * 4)
    res = coalesce_half_warp(addr, ALL, 4)
    assert res.bus_bytes >= res.useful_bytes or res.transactions == 0


@settings(max_examples=60, deadline=None)
@given(offsets=st.lists(st.integers(0, 10 ** 6), min_size=HW, max_size=HW))
def test_property_uncoalesced_transactions_equal_active_threads(offsets):
    addr = np.array(offsets, dtype=np.int64) * 4
    res = coalesce_half_warp(addr, ALL, 4)
    if not res.coalesced:
        assert res.transactions == HW
    else:
        assert res.transactions == 1


@settings(max_examples=40, deadline=None)
@given(seg=st.integers(0, 10 ** 5))
def test_property_in_order_aligned_always_coalesces(seg):
    addr = seg * 64 + np.arange(HW, dtype=np.int64) * 4
    res = coalesce_half_warp(addr, ALL, 4)
    assert res.coalesced and res.transactions == 1


class TestBankConflicts:
    def test_stride_one_conflict_free(self):
        words = np.arange(HW, dtype=np.int64)
        assert bank_conflict_degree(words, ALL) == 1

    def test_stride_two_degree_two(self):
        words = np.arange(HW, dtype=np.int64) * 2
        assert bank_conflict_degree(words, ALL) == 2

    def test_stride_sixteen_fully_serialized(self):
        words = np.arange(HW, dtype=np.int64) * 16
        assert bank_conflict_degree(words, ALL) == 16

    def test_broadcast_is_free(self):
        words = np.full(HW, 7, dtype=np.int64)
        assert bank_conflict_degree(words, ALL) == 1

    def test_odd_stride_conflict_free(self):
        # odd strides permute the 16 banks -> conflict-free
        words = np.arange(HW, dtype=np.int64) * 3
        assert bank_conflict_degree(words, ALL) == 1

    def test_inactive_access(self):
        assert bank_conflict_degree(np.zeros(HW, np.int64),
                                    np.zeros(HW, bool)) == 0

    def test_block_level_totals(self):
        words = np.concatenate([
            np.arange(HW, dtype=np.int64),          # degree 1
            np.arange(HW, dtype=np.int64) * 2,      # degree 2
        ])
        accesses, total = block_bank_conflicts(words, np.ones(2 * HW, bool))
        assert accesses == 2
        assert total == 3

    def test_block_fast_slow_agree(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 256, 4 * HW).astype(np.int64)
        words[:HW] = np.arange(HW)                  # fast: conflict-free
        active = np.ones(4 * HW, bool)
        accesses, total = block_bank_conflicts(words, active)
        assert (accesses, total) == ref_block_banks(words, active,
                                                    DEFAULT_DEVICE)
        assert accesses == 4


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.integers(0, 4095), min_size=HW, max_size=HW))
def test_property_conflict_degree_bounds(words):
    degree = bank_conflict_degree(np.array(words, dtype=np.int64), ALL)
    assert 1 <= degree <= HW


class TestDirectMappedCache:
    def test_first_access_misses_then_hits(self):
        c = DirectMappedCache(1024)
        addr = np.arange(8, dtype=np.int64) * 4
        h, m = c.access(addr, np.ones(8, bool))
        assert h == 0 and m == 1          # one 32 B line covers 8 words
        h, m = c.access(addr, np.ones(8, bool))
        assert h == 1 and m == 0

    def test_capacity_eviction(self):
        c = DirectMappedCache(64, line_bytes=32)  # 2 lines
        a = np.array([0], dtype=np.int64)
        b = np.array([64], dtype=np.int64)        # maps to same slot
        on = np.ones(1, bool)
        c.access(a, on)
        c.access(b, on)
        h, m = c.access(a, on)
        assert m == 1                              # evicted

    def test_duplicate_lines_counted_once(self):
        c = DirectMappedCache(1024)
        addr = np.zeros(16, dtype=np.int64)
        h, m = c.access(addr, np.ones(16, bool))
        assert h + m == 1

    def test_hit_rate_and_reset(self):
        c = DirectMappedCache(1024)
        addr = np.array([0], dtype=np.int64)
        on = np.ones(1, bool)
        c.access(addr, on)
        c.access(addr, on)
        assert c.hit_rate == pytest.approx(0.5)
        c.reset()
        assert c.hits == 0 and c.misses == 0 and c.hit_rate == 1.0

    def test_probe_matches_sequential_oracle(self):
        # 8 slots; lines 3 and 11 share a slot within one access, so the
        # later line evicts the earlier one as in the sequential probe;
        # accesses need not be sorted
        c = DirectMappedCache(8 * 32)
        tags = np.full(8, -1, dtype=np.int64)
        rng = np.random.default_rng(5)
        accesses = [np.array([3, 11]), np.array([3, 4, 5]),
                    np.array([11, 12]), np.array([13, 5, 6]),
                    np.array([5, 13, 21])] + [
            rng.permutation(np.unique(rng.integers(0, 24, rng.integers(0, 9))))
            for _ in range(60)]
        for lines in accesses:
            hits, misses, missed = c.probe_lines(lines)
            assert (hits, misses, list(missed)) == ref_probe_lines(tags, lines)
            assert np.array_equal(c.tags, tags)

    def test_access_matches_sequential_oracle(self):
        # block-wide accesses: single-line broadcasts (the shortcut that
        # skips the sort), mixed lines, partial and empty masks, through
        # the read-only cache and the L1/L2 hierarchy alike
        rng = np.random.default_rng(11)
        cache = DirectMappedCache(8 * 32)
        spec = device_by_name("gtx_480")
        hier = CacheHierarchy(spec)
        line = hier.line_bytes
        tags = np.full(cache.num_lines, -1, dtype=np.int64)
        l1_tags = np.full(hier.l1.num_lines, -1, dtype=np.int64)
        l2_tags = np.full(hier.l2.num_lines, -1, dtype=np.int64)
        for trial in range(120):
            kind = trial % 4
            if kind == 0:      # one line, varied offsets inside it
                base = int(rng.integers(0, 1300)) * line
                addr = base + 4 * rng.integers(0, line // 4, 64)
            elif kind == 1:    # one word broadcast to every lane
                addr = np.full(64, 4 * int(rng.integers(0, 40000)))
            else:              # mixed lines
                addr = 4 * rng.integers(0, 40000, 64)
            addr = addr.astype(np.int64)
            on = rng.random(64) < (0.0 if trial % 7 == 0 else 0.6)
            active = addr[on]
            expect = ((0, 0) if not on.any() else ref_probe_lines(
                tags, np.unique(active // cache.line_bytes))[:2])
            assert cache.access(addr, on) == expect
            assert np.array_equal(cache.tags, tags)

            out = hier.access(addr, on, 4)
            lines = np.unique(np.concatenate(
                [active // line, (active + 3) // line]))
            l1_hits, l1_misses, missed = ref_probe_lines(l1_tags, lines)
            l2_hits, l2_misses, _ = ref_probe_lines(
                l2_tags, np.asarray(missed, dtype=np.int64))
            assert (out.lines, out.l1_hits, out.l1_misses, out.l2_hits,
                    out.l2_misses) == (lines.size, l1_hits, l1_misses,
                                       l2_hits, l2_misses)
        assert cache.hits + cache.misses > 0

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            DirectMappedCache(100, line_bytes=32)
