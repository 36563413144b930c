"""Single-pass stack-distance simulation of the associativity axis.

The paper's dense grids (Figures 3-5, Equations 1-3) sweep cache size and
set size together, and even the vectorised fast path pays one full trace
replay per grid cell.  Mattson's inclusion property makes most of that
redundant for LRU: at a fixed (set count, block size), the content of an
A-way set-associative cache is exactly the top ``A`` entries of the
per-set LRU stack, for *every* ``A`` at once.  One replay that records
each access's **stack distance** -- the depth at which its block sits --
therefore yields exact hit and miss counts for every associativity
simultaneously: an A-way cache hits precisely the accesses with distance
``<= A``, so per-associativity miss counts are suffix sums of one
histogram.

Writebacks need one more invariant.  Per resident block the kernel
tracks ``reach``: the deepest stack position the block has occupied
since it was last written (:data:`_CLEAN` when it has not been written
since it entered the stack).  The A-way cache's copy is dirty iff
``reach <= A`` -- a deeper excursion means that cache already evicted
(and wrote back) the block after that write and re-fetched it clean.
When an access pushes an entry from depth ``A`` to ``A + 1``, the A-way
cache evicts it at exactly that access; a dirty crossing is therefore
one writeback at associativity ``A``, stamped with the pushing access's
order key (the fast path's victim-key rule, which decides whether the
writeback lands before or after the warmup boundary).

Scope: the deepest level of a :func:`repro.sim.fast.fast_eligible`
configuration whose replacement is genuinely LRU (a direct-mapped
deepest level qualifies under any stated policy -- one way leaves
nothing to choose).  Upstream levels are replayed by the fast path's
front (:class:`repro.sim.fast._Front`) and are identical across the
derived grid; one histogram loop runs a stack per stream it yields,
whole-array replay being the one-chunk case of chunked replay.  The
one-chunk input streams are cached so a sweep's groups replay the
upstream levels once, not once per group.
Count-identity with :class:`~repro.sim.fast.FastFunctionalSimulator`
and the reference simulator is enforced by ``tests/sim/test_stackdist.py``;
the sweep planner that fans grid groups out over the worker pool lives
in :mod:`repro.core.sweep`.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.audit import maybe_audit_functional
from repro.cache.stats import CacheStats
from repro.sim import memo
from repro.sim.config import SystemConfig
from repro.sim.fast import (
    MAX_FAST_ASSOCIATIVITY,
    _BUCKET_WRITE,
    _Front,
    _offset_bits,
    fast_eligible,
)
from repro.sim.functional import FunctionalResult
from repro.trace.record import IFETCH, WRITE, Trace
from repro.trace.store import replay_chunk_records

#: The associativities one stack pass derives: every power of two the
#: fast path accepts (:class:`~repro.sim.config.LevelConfig` rejects
#: non-powers-of-two, so this is the whole eligible axis).
STACK_ASSOCIATIVITIES = (1, 2, 4, 8, 16)

#: Stack width -- one column per way of the widest derived cache.
_WIDTH = MAX_FAST_ASSOCIATIVITY

#: ``reach`` sentinel for a block with no write since it entered the
#: stack: no cache of any width holds a dirty copy of it.
_CLEAN = _WIDTH + 1

#: Bound on cached deepest-level input streams (a few streams of the
#: active trace suite; entries are a modest multiple of the post-L1
#: miss stream, far smaller than the traces themselves).
_FRONT_CACHE_ENTRIES = 8

#: Cache of ``(upstream stats, deepest-level input stream)`` keyed by
#: (trace fingerprint, upstream projection).  Every group of a size x
#: associativity sweep shares its upstream levels, and replaying them
#: once per *group* -- rather than once per trace -- would forfeit most
#: of the single-pass win.  Entries are pure functions of their key, so
#: reuse can never change a result.
_front_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()


def stackdist_eligible(config: SystemConfig) -> bool:
    """True when one stack pass reproduces the fast path for every
    member associativity.

    Requires a fast-eligible configuration whose deepest level really
    replaces LRU; a direct-mapped deepest level is eligible under any
    stated replacement policy, replacement being irrelevant at one way.
    """
    if not fast_eligible(config):
        return False
    deepest = config.levels[-1]
    return deepest.replacement == "lru" or deepest.associativity == 1


def grid_projection(config: SystemConfig) -> Tuple:
    """The identity of a configuration's single-pass group.

    Two eligible configurations with equal grid projections differ at
    most in the deepest level's associativity (and the total size that
    scales with it), so one stack-distance pass serves both.
    """
    deepest = config.levels[-1]
    return (
        config.enforce_inclusion,
        tuple(memo.level_projection(level) for level in config.levels[:-1]),
        (
            deepest.geometry().sets,
            deepest.block_bytes,
            deepest.split,
            deepest.write_policy,
            deepest.fetch_blocks,
            deepest.write_allocate,
            deepest.prefetch,
        ),
    )


def member_config(config: SystemConfig, associativity: int) -> SystemConfig:
    """The group member with ``associativity`` ways at the deepest level.

    Holds the set count fixed, so the size scales with the way count;
    the replacement policy is pinned to LRU where it matters (the stack
    pass *is* LRU).
    """
    index = len(config.levels) - 1
    deepest = config.levels[index]
    size = deepest.geometry().sets * deepest.block_bytes * associativity
    if deepest.split:
        size *= 2
    changes = {"associativity": associativity, "size_bytes": size}
    if associativity > 1:
        changes["replacement"] = "lru"
    return config.with_level(index, **changes)


@dataclass(frozen=True)
class StackdistGridResult:
    """Every member result of one single-pass grid group.

    ``results`` pairs each derived associativity (in
    :data:`STACK_ASSOCIATIVITIES` order) with a full
    :class:`~repro.sim.functional.FunctionalResult` whose configuration
    differs from the group's only in the deepest level's way count and
    size.
    """

    results: Tuple[Tuple[int, FunctionalResult], ...]

    def result_for(self, associativity: int) -> FunctionalResult:
        for ways, result in self.results:
            if ways == associativity:
                return result
        raise KeyError(
            f"associativity {associativity} is not derived by the stack "
            f"pass (members: {STACK_ASSOCIATIVITIES})"
        )


def _new_stack_state(sets: int) -> Tuple[np.ndarray, np.ndarray]:
    """A cold persistent ``(tags, reach)`` stack state for chunked replay."""
    return (
        np.full((sets, _WIDTH), -1, dtype=np.int64),
        np.full((sets, _WIDTH), _CLEAN, dtype=np.int64),
    )


def _stack_pass(
    blocks: np.ndarray,
    is_write: np.ndarray,
    bucket: np.ndarray,
    order_keys: np.ndarray,
    sets: int,
    warmup_key: int,
    state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One width-16 LRU stack replay of a single reference stream.

    Structured like :func:`repro.sim.fast._simulate_lru_level` -- bucket
    by set, replay in per-set time order, one vectorised step across all
    touched sets -- but over a fixed width-:data:`_WIDTH` stack whose
    positions double as every member cache's LRU order.

    ``state`` supports chunked streaming replay: pass a persistent
    ``(tags, reach)`` pair of shape ``(sets, _WIDTH)`` (see
    :func:`_new_stack_state`); the touched rows are gathered into the
    pass's rank-ordered working arrays and scattered back afterwards, so
    replaying a stream piecewise yields the same histograms as one call.

    Returns ``(read_hist, write_hist, writebacks)``:

    * ``read_hist[d-1]`` / ``write_hist[d-1]`` count post-warmup
      accesses of each statistics bucket with stack distance ``d``
      (1..16); index 16 counts distances beyond the stack, a miss at
      every member associativity.
    * ``writebacks[A-1]`` counts post-warmup dirty evictions from the
      A-way member cache (see the module docstring for the ``reach``
      invariant that makes all sixteen exact in one pass).
    """
    n = len(blocks)
    read_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    write_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    writebacks = np.zeros(_WIDTH, dtype=np.int64)
    if n == 0:
        return read_hist, write_hist, writebacks
    set_index = (blocks & (sets - 1)).astype(np.int64)
    # Rank sets by descending access count (stable, so equal-count sets
    # keep a deterministic order).  Step t touches exactly the sets with
    # more than t accesses -- ranks [0, k) -- so the per-step state is a
    # contiguous *prefix* of the rank-ordered arrays: plain views,
    # updated in place, instead of per-step gather/scatter copies.
    counts = np.bincount(set_index, minlength=sets)
    ids_by_rank = np.argsort(-counts, kind="stable")
    rank_of_set = np.empty(sets, dtype=np.int64)
    rank_of_set[ids_by_rank] = np.arange(sets)
    rank = rank_of_set[set_index]
    # Stable sort by rank: within a set, accesses stay in time order.
    set_order = np.argsort(rank, kind="stable")
    sorted_ranks = rank[set_order]
    new_set = np.empty(n, dtype=bool)
    new_set[0] = True
    np.not_equal(sorted_ranks[1:], sorted_ranks[:-1], out=new_set[1:])
    starts = np.flatnonzero(new_set)
    seq = np.arange(n, dtype=np.int64)
    seq -= np.repeat(starts, np.diff(np.append(starts, n)))
    # Re-sort by (sequence number, rank): step t's accesses form one
    # contiguous slice, one access per set, rank order == row order.
    step_order = np.argsort(seq, kind="stable")
    blocks_s = blocks[set_order][step_order].astype(np.int64)
    write_s = is_write[set_order][step_order]
    keys_s = order_keys[set_order][step_order]
    step_starts = np.append(0, np.cumsum(np.bincount(seq)))

    touched = int(sorted_ranks[-1]) + 1
    ways = np.arange(_WIDTH)
    depths = ways[None, :] + 1  # way w holds stack depth w + 1
    if state is None:
        tags = np.full((touched, _WIDTH), -1, dtype=np.int64)
        reach = np.full((touched, _WIDTH), _CLEAN, dtype=np.int64)
        touched_ids = None
    else:
        # Ranks order sets by descending count, so the touched sets are
        # exactly the first ``touched`` ranks: gather their persistent
        # rows into rank order, scatter the final state back at the end.
        touched_ids = ids_by_rank[:touched]
        tags = state[0][touched_ids]
        reach = state[1][touched_ids]
    dist_s = np.empty(n, dtype=np.int64)
    counted_s = keys_s >= warmup_key
    all_counted = bool(counted_s.all())
    # Preallocated per-step scratch (the loop body runs tens of
    # thousands of times; allocation is pure dispatch overhead at this
    # size).  ``match``'s extra always-true column turns argmax into a
    # combined hit test + hit way + evict position: first True index is
    # the hit way, or _WIDTH on a miss.
    row_idx = np.arange(touched)
    match = np.empty((touched, _WIDTH + 1), dtype=bool)
    match[:, _WIDTH] = True
    cross_buf = np.empty((touched, _WIDTH), dtype=bool)
    dirty_buf = np.empty((touched, _WIDTH), dtype=bool)
    shift_buf = np.empty((touched, _WIDTH - 1), dtype=bool)
    tmp_tags = np.empty((touched, _WIDTH - 1), dtype=np.int64)
    tmp_reach = np.empty((touched, _WIDTH - 1), dtype=np.int64)
    # Writebacks accumulate per row; one reduction at the end replaces a
    # per-step axis-0 sum.
    wb_rows = np.zeros((touched, _WIDTH), dtype=np.int64)
    for t in range(len(step_starts) - 1):
        lo, hi = int(step_starts[t]), int(step_starts[t + 1])
        k = hi - lo
        block = blocks_s[lo:hi, None]
        row_tags = tags[:k]
        row_reach = reach[:k]
        m = match[:k]
        np.equal(row_tags, block, out=m[:, :_WIDTH])
        # A hit evicts nothing below its own way; a miss (evict_pos ==
        # _WIDTH) pushes every entry down, the deepest off the stack.
        evict_pos = m.argmax(axis=1)
        # ``evict_pos`` is already the 0-based histogram bucket: stack
        # distance d lands at index d - 1, off-stack at index _WIDTH.
        dist_s[lo:hi] = evict_pos
        # Entries at ways [0, evict_pos) get pushed one position deeper;
        # each crossing from depth w+1 to w+2 evicts the block from the
        # (w+1)-way member cache, writing it back if dirty there.  An
        # entry with ``reach <= w + 1`` is necessarily valid and dirty
        # there (an empty or clean slot's reach is :data:`_CLEAN`).
        cross = np.less(ways, evict_pos[:, None], out=cross_buf[:k])
        cross &= np.less_equal(row_reach, depths, out=dirty_buf[:k])
        if not all_counted:
            cross &= counted_s[lo:hi, None]
        wb_rows[:k] += cross
        # Promote the accessed block to way 0.  A write resets its reach
        # to depth 1 (dirty in every member); a read hit preserves it; a
        # fetch enters with no dirty copy anywhere.  Shifted entries'
        # reach grows to their new depth.  The shifted columns are
        # staged through scratch copies, so reading ``[:, :-1]`` while
        # writing ``[:, 1:]`` is safe.
        hit = evict_pos != _WIDTH
        pos = np.minimum(evict_pos, _WIDTH - 1)
        head_reach = np.where(
            write_s[lo:hi], 1, np.where(hit, row_reach[row_idx[:k], pos], _CLEAN)
        )
        shifted = np.less_equal(ways[1:], pos[:, None], out=shift_buf[:k])
        np.copyto(tmp_tags[:k], row_tags[:, :-1])
        np.maximum(row_reach[:, :-1], depths[:, 1:], out=tmp_reach[:k])
        np.copyto(row_tags[:, 1:], tmp_tags[:k], where=shifted)
        np.copyto(row_reach[:, 1:], tmp_reach[:k], where=shifted)
        row_tags[:, 0] = blocks_s[lo:hi]
        row_reach[:, 0] = head_reach

    if touched_ids is not None and state is not None:
        state[0][touched_ids] = tags
        state[1][touched_ids] = reach
    writebacks += wb_rows.sum(axis=0)
    counted_dist = dist_s[counted_s]
    counted_write = (bucket[set_order][step_order])[counted_s] == _BUCKET_WRITE
    read_hist += np.bincount(
        counted_dist[~counted_write], minlength=_WIDTH + 1
    ).astype(np.int64)
    write_hist += np.bincount(
        counted_dist[counted_write], minlength=_WIDTH + 1
    ).astype(np.int64)
    return read_hist, write_hist, writebacks


def _front_key(trace: Trace, config: SystemConfig) -> Tuple:
    return (
        memo.trace_fingerprint(trace),
        config.enforce_inclusion,
        tuple(memo.level_projection(level) for level in config.levels[:-1]),
    )


def _front_streams(front: _Front) -> Tuple[Iterable[List[Tuple]], List[CacheStats]]:
    """The front's streams, chunk by chunk, and its upstream statistics.

    A one-chunk front over at least one level is served from the cache
    (the statistics are fresh copies the caller owns; the stream arrays
    are shared and treated as read-only by the kernel).  A chunked front
    bypasses it -- its entries hold whole-trace streams, exactly what
    chunked replay exists to avoid -- and its statistics are complete
    once the streams are exhausted.
    """
    if front.chunk_records is not None or front.levels == 0:
        return front.streams(), front.level_stats
    key = _front_key(front.trace, front.config)
    hit = _front_cache.get(key)
    if hit is None:
        with telemetry.span(
            "stackdist.front", records=len(front.trace), depth=front.levels
        ):
            (streams,) = front.streams()
        hit = (tuple(front.level_stats), streams)
        _front_cache[key] = hit
        while len(_front_cache) > _FRONT_CACHE_ENTRIES:
            _front_cache.popitem(last=False)
    else:
        _front_cache.move_to_end(key)
    upstream, streams = hit
    return [streams], [replace(stats) for stats in upstream]


def clear_front_cache() -> None:
    """Drop the cached upstream streams (tests and benchmarks)."""
    _front_cache.clear()


def _grid_histograms(
    trace: Trace, config: SystemConfig, chunk_records: Optional[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[CacheStats]]:
    """Stack replay of the deepest level: histograms plus upstream statistics.

    The fast path's front (:class:`repro.sim.fast._Front`) replays the
    upstream levels and yields the deepest level's input streams; each
    stream gets its own stack (a split first level at depth 1 is two
    member caches).  With ``chunk_records`` the stacks keep persistent
    state between chunks, so peak residency is bounded per chunk;
    without, the trace is one chunk and the stacks start cold on compact
    touched-sets state.
    """
    deepest = config.levels[-1]
    sets = deepest.geometry().sets
    warmup_key = trace.warmup * 4 ** (config.depth - 1)
    front = _Front(trace, config, config.depth - 1, chunk_records)
    shift = _offset_bits(deepest, front.offset_bits) - front.offset_bits
    states = [
        None if chunk_records is None else _new_stack_state(sets)
        for _ in range(front.sides)
    ]
    read_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    write_hist = np.zeros(_WIDTH + 1, dtype=np.int64)
    writebacks = np.zeros(_WIDTH, dtype=np.int64)
    chunks, upstream = _front_streams(front)
    for index, streams in enumerate(chunks):
        with (
            telemetry.span("stackdist.chunk", index=index)
            if chunk_records is not None else nullcontext()
        ):
            for state, (s_blocks, s_write, s_bucket, s_keys) in zip(
                states, streams
            ):
                part_read, part_write, part_wb = _stack_pass(
                    s_blocks >> shift, s_write, s_bucket, s_keys, sets,
                    warmup_key, state=state,
                )
                read_hist += part_read
                write_hist += part_write
                writebacks += part_wb
    return read_hist, write_hist, writebacks, upstream


def run_stackdist_grid(trace: Trace, config: SystemConfig) -> StackdistGridResult:
    """Replay ``trace`` once against ``config``'s grid group.

    Returns the exact functional result of every member associativity
    (counts identical to :func:`repro.sim.fast.run_functional` on each
    member configuration).  With ``REPRO_TRACE_CHUNK`` set (and smaller
    than the trace), the replay streams in chunks through persistent
    stack state -- same histograms, bounded residency.
    """
    if not stackdist_eligible(config):
        raise ValueError(
            "configuration outside the stack-distance path (the deepest "
            "level must be fast-eligible LRU); use run_functional"
        )
    warmup = trace.warmup
    # Chunked histogram accumulation is count-identical to the one-shot
    # pass (parity tests); REPRO_TRACE_CHUNK tunes residency only.
    chunk = replay_chunk_records()  # repro: noqa RPR008
    if chunk is not None and chunk >= len(trace):
        chunk = None
    with telemetry.span(
        "stackdist.pass",
        sets=config.levels[-1].geometry().sets,
        records=len(trace),
        chunked=chunk is not None,
    ):
        read_hist, write_hist, writebacks, upstream = _grid_histograms(
            trace, config, chunk
        )

    measured_kinds = trace.kinds[warmup:]
    cpu_writes = int(np.count_nonzero(measured_kinds == WRITE))
    cpu_reads = int(measured_kinds.size) - cpu_writes
    cpu_ifetches = int(np.count_nonzero(measured_kinds == IFETCH))
    reads = int(read_hist.sum())
    writes = int(write_hist.sum())

    members = []
    for ways in STACK_ASSOCIATIVITIES:
        read_misses = int(read_hist[ways:].sum())
        write_misses = int(write_hist[ways:].sum())
        stats = CacheStats(
            reads=reads,
            read_misses=read_misses,
            writes=writes,
            write_misses=write_misses,
            writebacks=int(writebacks[ways - 1]),
            blocks_fetched=read_misses + write_misses,
        )
        # Memory traffic is whatever leaves the deepest level: the
        # demand fetches and the dirty victims.  The key-threshold
        # algebra makes the post-warmup cuts coincide (an event with
        # level key k is counted iff k >= warmup_key, and its memory
        # key 4k+1 or 4k+2 is counted iff it exceeds 4*warmup_key).
        result = FunctionalResult(
            trace_name=trace.name,
            config=member_config(config, ways),
            cpu_reads=cpu_reads,
            cpu_writes=cpu_writes,
            cpu_ifetches=cpu_ifetches,
            level_stats=[replace(stats) for stats in upstream] + [stats],
            memory_reads=stats.blocks_fetched,
            memory_writes=stats.writebacks,
        )
        members.append(
            # Validate-and-raise only; the result itself is untouched.
            (ways, maybe_audit_functional(trace, result, source="stackdist"))  # repro: noqa RPR008
        )
    return StackdistGridResult(results=tuple(members))
