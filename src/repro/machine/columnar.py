"""The columnar epoch kernel: block-at-a-time retirement of the fast path.

:func:`repro.machine.fast_path.loop_runner` retires guaranteed on-chip
hits one reference at a time — three set lookups, a TLB move-to-back and
an L1 move-to-front per reference, all in Python.  This module lowers
each reference stream into fixed 16-reference *column blocks* (the
engine's scheduling quantum) and retires whole blocks at once:

* **Static lowering** (:func:`block_index`, numpy, once per stream):
  every block whose references all carry a hit-filter kind (no prefetch
  carriers) is summarized into per-block columns — the set of virtual
  pages it touches, the per-L1-set lines it touches in last-touch order,
  and the distinct ``(page, line-offset)`` pairs it writes.  Blocks are
  classified with one ``np.minimum.reduceat`` over the kind column; the
  summaries are memoized on the stream, so the trace cache amortizes
  them across warmup/measured passes and runs.
* **Dynamic tag filter** (:func:`columnar_runner`, per block at run
  time): a block retires in bulk iff its line sets are subsets of the
  live L1 ``resident`` sets, its page set is covered by the TLB *and*
  the engine's page cache, and every written line is exclusively owned
  by this CPU.  These are exactly the per-reference filter predicates of
  the scalar fast path, evaluated as C-level ``frozenset <= set`` /
  ``dict.keys() >= frozenset`` operations.

Bit-identity argument — the same contract as the scalar filter, lifted
from references to blocks:

* A retired reference changes only LRU recency and hit counters — no
  insertion, eviction, invalidation or bus transaction.  Therefore if
  every reference of a block passes the filter against *block-start*
  state, block-start state remains valid for all of them, and checking
  once per block is sound.
* The scalar per-reference LRU updates are replayed in batch with the
  identical final state: the TLB moves the block's pages to the LRU
  tail in last-touch order; each touched L1 set removes the block's
  lines and re-inserts them most-recently-used-first.  (The scalar
  path's ``prev_vpage`` / ``ways[0]`` skips are state no-ops — they
  only elide moves of entries already in position — so the batch replay
  needs no knowledge of them.)
* The clock advances by ``busy_per_ref`` once per reference, as
  *sequential* float additions, preserving the oracle's rounding.
* Any block that fails the static or dynamic filter is delegated,
  whole, to an inner scalar :func:`loop_runner` — the per-reference
  semantics (including partial in-block retirement) are untouched.
  After a bulk block retires, the inner runner's cached ``prev_vpage``
  is invalidated through the shared ``prev_reset`` cell, because the
  bulk replay may have moved other pages to the TLB tail.

The runner speaks the same generator protocol as ``loop_runner`` (prime
with ``next()``, ``send`` ``(start, end, clock, busy_per_ref,
fault_concurrency)``), so the engine selects it per
``EngineOptions.columnar`` without touching the chunk dispatch.

The kernel is deliberately *geometry-blind*: its static lowering and
dynamic filter touch only L1 sets, the TLB, the page cache and the
coherence maps — never the LLC — so sliced, shared and three-level
geometries (:mod:`repro.machine.hierarchy`) need no columnar changes.
Every reference that could reach the LLC falls through to the inner
scalar runner, which carries the geometry's set hash and sharing rules.
"""

from __future__ import annotations

import numpy as np

from repro.machine.fast_path import loop_runner
from repro.machine.memory_system import MemorySystem

__all__ = ["BLOCK", "block_index", "columnar_runner"]

#: References per column block.  Matches the engine's scheduling quantum
#: (``repro.sim.engine._CHUNK``) so a parallel-loop chunk is exactly one
#: block; block starts are BLOCK-aligned from 0 in every stream.
BLOCK = 16

_BLOCK_SHIFT = 4
_BLOCK_LOW = BLOCK - 1


def block_index(stream, geom: tuple) -> list:
    """Static per-block summaries for one reference stream.

    ``geom`` is ``(l1d_shift, l1d_nsets, l1i_shift, l1i_nsets,
    line_mask)`` — the geometry the summaries are specialized to.  The
    result is memoized on the stream (keyed by ``geom``), mirroring how
    ``CpuTrace.ref_stream`` memoizes its column view.

    Entry ``b`` covers references ``[BLOCK*b, BLOCK*b + count)`` and is
    either ``None`` (the block carries a kind-0 reference and must take
    the scalar path) or the tuple::

        (pages_set, pages_lt, d_lines, i_lines,
         d_replay, i_replay, writes, fastd, fasti, count)

    with ``pages_lt`` the pages in last-touch order, ``d_replay`` /
    ``i_replay`` tuples of ``(set_index, lines, mru_lines)`` per touched
    L1 set, and ``writes`` the distinct ``(vpage, line_offset)`` pairs
    needing the exclusive-ownership check.
    """
    cached = stream.__dict__.get("_columnar")
    if cached is not None and cached[0] == geom:
        return cached[1]
    l1d_shift, l1d_nsets, l1i_shift, l1i_nsets, line_mask = geom
    kinds = np.asarray(stream.fast_kinds, dtype=np.int8)
    n = len(kinds)
    nblocks = (n + _BLOCK_LOW) >> _BLOCK_SHIFT
    blocks: list = [None] * nblocks
    if n:
        starts = np.arange(0, n, BLOCK)
        eligible = np.nonzero(np.minimum.reduceat(kinds, starts) > 0)[0]
    else:
        eligible = np.empty(0, dtype=np.int64)
    kind_list = stream.fast_kinds
    vpages = stream.vpages
    vlines = stream.vlines
    offsets = stream.offsets
    for b in eligible.tolist():
        s = b << _BLOCK_SHIFT
        e = min(s + BLOCK, n)
        pages: dict = {}
        d_sets: dict = {}
        i_sets: dict = {}
        writes: dict = {}
        fastd = 0
        fasti = 0
        for i in range(s, e):
            kind = kind_list[i]
            vpage = vpages[i]
            pages.pop(vpage, None)
            pages[vpage] = None
            vline = vlines[i]
            if kind == 2:
                fasti += 1
                touched = i_sets.setdefault((vline >> l1i_shift) % l1i_nsets, {})
            else:
                fastd += 1
                touched = d_sets.setdefault((vline >> l1d_shift) % l1d_nsets, {})
                if kind == 3:
                    writes[(vpage, offsets[i] & line_mask)] = None
            touched.pop(vline, None)
            touched[vline] = None
        blocks[b] = (
            frozenset(pages),
            tuple(pages),
            frozenset(
                line for touched in d_sets.values() for line in touched
            ),
            frozenset(
                line for touched in i_sets.values() for line in touched
            ),
            tuple(
                (si, tuple(touched), tuple(reversed(touched)))
                for si, touched in d_sets.items()
            ),
            tuple(
                (si, tuple(touched), tuple(reversed(touched)))
                for si, touched in i_sets.items()
            ),
            tuple(writes),
            fastd,
            fasti,
            e - s,
        )
    stream.__dict__["_columnar"] = (geom, blocks)
    return blocks


def columnar_runner(ms: MemorySystem, vm, page_cache: dict, cpu: int, stream,
                    fault_watch=None):
    """Block-retiring generator, protocol-compatible with ``loop_runner``.

    Retires statically eligible blocks that pass the dynamic tag filter
    in bulk; delegates contiguous runs of everything else to an inner
    scalar :func:`loop_runner` in single sends (sub-chunking a send is
    bit-identical: integer deltas commute, float accumulators are
    re-seeded from live values, and bus state round-trips through the
    same flush/reload pairs).
    """
    l1d = ms._l1d[cpu]
    l1i = ms._l1i[cpu]
    geom = (
        l1d._line_shift,
        l1d._num_sets,
        l1i._line_shift,
        l1i._num_sets,
        ms._line_mask,
    )
    blocks = block_index(stream, geom)
    prev_reset = [False]
    inner = loop_runner(ms, vm, page_cache, cpu, stream,
                        fault_watch=fault_watch, prev_reset=prev_reset)
    next(inner)
    inner_send = inner.send

    tlb = ms._tlb[cpu]
    tlb_entries = tlb._entries
    tlb_move = tlb_entries.move_to_end
    tlb_keys = tlb_entries.keys()
    pc_keys = page_cache.keys()
    l1d_sets = l1d._sets
    l1d_resident = l1d.resident
    l1i_sets = l1i._sets
    l1i_resident = l1i.resident
    stats = ms.stats.cpus[cpu]
    sharers_get = ms._sharers.get
    cpu_bit = 1 << cpu
    dirty_get = ms._dirty.get
    pending_map = ms._pending

    # Dynamic-filter backoff.  Streaming phases touch new lines in every
    # block, so no block ever has its lines resident and every check
    # fails; after each failure the next ``cooldown`` eligible blocks
    # are delegated *unchecked* (cooldown doubles per consecutive
    # failure, capped at 256 blocks) so those phases degenerate to
    # near-pure scalar execution instead of paying one failed filter per
    # block.  A successful retirement resets the streak.  The backoff
    # survives chunk boundaries, which is what makes it effective inside
    # 16-reference parallel-loop chunks.  It only changes *which* blocks
    # get checked, never how one is executed — bit-identity holds.
    fail_streak = 0
    cooldown = 0
    result = None
    try:
        while True:
            start, end, t, busy_per_ref, fault_concurrency = yield result
            kernel_total = 0.0
            fault_kernel = 0.0
            fastd_total = 0
            fasti_total = 0
            retired_blocks = 0
            pos = start
            while pos < end:
                block = blocks[pos >> _BLOCK_SHIFT] if not pos & _BLOCK_LOW \
                    else None
                if block is not None and not cooldown \
                        and end - pos >= block[9]:
                    if (
                        block[2] <= l1d_resident
                        and block[3] <= l1i_resident
                        and tlb_keys >= block[0]
                        and pc_keys >= block[0]
                    ):
                        ok = True
                        for wpage, woffset in block[6]:
                            pline = page_cache[wpage] + woffset
                            if (
                                sharers_get(pline) != cpu_bit
                                or dirty_get(pline) != cpu
                                or pline in pending_map
                            ):
                                ok = False
                                break
                        if ok:
                            fail_streak = 0
                            for vpage in block[1]:
                                tlb_move(vpage)
                            for si, lines, mru in block[4]:
                                ways = l1d_sets[si]
                                for line in lines:
                                    ways.remove(line)
                                ways[0:0] = mru
                            for si, lines, mru in block[5]:
                                ways = l1i_sets[si]
                                for line in lines:
                                    ways.remove(line)
                                ways[0:0] = mru
                            count = block[9]
                            fastd_total += block[7]
                            fasti_total += block[8]
                            retired_blocks += 1
                            for _ in range(count):
                                t += busy_per_ref
                            prev_reset[0] = True
                            pos += count
                            continue
                    cooldown = 1 << min(fail_streak, 8)
                    fail_streak += 1
                # Delegate a run of references to the scalar inner
                # runner: this block (plus any statically ineligible
                # blocks after it), widened to the remaining cooldown.
                npos = min(
                    pos + (max(cooldown, 1) << _BLOCK_SHIFT), end
                )
                while npos < end and blocks[npos >> _BLOCK_SHIFT] is None:
                    npos = min(npos + BLOCK, end)
                if cooldown:
                    delegated = (npos - pos + _BLOCK_LOW) >> _BLOCK_SHIFT
                    cooldown = max(0, cooldown - delegated)
                t, kernel, faults = inner_send(
                    (pos, npos, t, busy_per_ref, fault_concurrency)
                )
                kernel_total += kernel
                fault_kernel += faults
                pos = npos
            if fastd_total or fasti_total:
                tlb.hits += fastd_total + fasti_total
                stats.l1d_hits += fastd_total
                stats.l1i_hits += fasti_total
                ms.fast_retired_data += fastd_total
                ms.fast_retired_instr += fasti_total
                ms.fast_retired_blocks += retired_blocks
            result = (t, kernel_total, fault_kernel)
    finally:
        inner.close()
