"""The engine's flattened fast execution path.

:meth:`repro.machine.memory_system.MemorySystem.access` is the *oracle*:
a layered, readable implementation of one memory reference (TLB -> L1 ->
L2 -> coherence -> bus).  It is also ~a dozen Python calls per miss, and
the simulator executes hundreds of thousands of references per run.  This
module re-implements :func:`repro.machine.memory_system.reference_runner`
-- the oracle's chunk runner, one ``access`` call per reference -- as one
flat generator with every hot structure in a frame local, preceded by the
vectorized hit filter that retires guaranteed on-chip read hits in bulk.

The entry point is :func:`loop_runner`: a generator instantiated once per
engine loop per CPU.  All state capture and column hoisting happens once
at priming time; each scheduling chunk is then a single ``send`` carrying
``(start, end, clock, busy_per_ref, fault_concurrency)``.  This matters
because the engine's scheduling quantum is only 16 references — paying a
40-local setup per chunk would cost more than the references themselves.

Correctness contract — the fast path must be **bit-identical** to the
oracle (``EngineOptions(fast_path=False)``), which the equivalence suite
in ``tests/test_fast_path_equivalence.py`` enforces.  The rules that keep
it sound:

* **Hit filter eligibility.**  A reference may bypass the oracle only if
  it carries no prefetch, its virtual page is in this CPU's TLB *and* in
  the engine's page cache (TLB residency alone is insufficient:
  cold-page reclaim unmaps pages without a TLB shootdown), and its
  L2-aligned virtual line is resident in the matching on-chip cache.
  Reads (data or instruction) meeting those conditions are guaranteed
  hits with no coherence side effect.  A *write* additionally requires
  that the written physical line is already exclusively owned by this
  CPU — its sharer mask is this CPU's bit alone, it is dirty here, and it
  carries no pending invalidation masks — which makes the oracle's
  write-coherence step a provable no-op with zero stall.  Retiring an
  eligible reference touches only LRU recency (replayed exactly: TLB
  move-to-back, L1 move-to-front) and the hit counters.  While a run of
  hits retires, no insertion, eviction or invalidation can occur, so
  eligibility checked against current state stays sound for every
  reference until the next fall-through.
* **Containers are aliased, never copied.**  Dicts, sets and lists (TLB
  entries, cache sets, ``resident`` views, sharer/dirty/pending maps,
  the page cache) are bound to frame locals once per loop; out-of-line
  calls (``vm.fault``, reclaim callbacks, ``ms.prefetch``) mutate the
  same objects in place, so the aliases never go stale.  Structures that
  the engine *replaces* (``ms.stats`` per measured phase,
  ``_frame_conflicts`` per recolor step) only change at phase boundaries,
  and the engine builds fresh runners for every loop.
* **Scalars are either written through immediately or flushed at every
  chunk boundary and around every out-of-line call.**  Bus state
  (backlog, occupancy tallies) is shared between CPUs, so it is reloaded
  at chunk entry and written back at chunk exit as well as around
  ``vm.fault`` / ``ms.prefetch`` — both can issue bus transactions.
  Integer statistics deltas commute and are flushed once per chunk;
  float accumulators (``l1_stall_ns``, per-kind ``l2_stall_ns``) are
  updated in the same order as the oracle's per-event additions so the
  floating-point results match bit for bit.
* **Floating-point expressions are copied verbatim.**  ``t +=
  busy_per_ref + stall + kernel`` per reference (never ``busy * k``),
  ``max(0.0, ...)`` for backlog draining, one division for bus occupancy
  (precomputed — same operands, same single rounding).
* **``prev_vpage`` may persist across chunks.**  The move-to-back skip
  only requires that the previously touched page, when still present, is
  at the LRU tail.  Every slow reference re-inserts its page at the tail
  as its final TLB action, hits keep it there, and foreign effects
  between chunks (shootdowns, reclaim) only *remove* entries — removal
  never changes which entry is at the tail.

What forces the slow (inline oracle replica) path: references carrying a
prefetch, TLB misses, unmapped pages, any reference whose line is not
provably resident, and writes to lines that are shared, clean, foreign-
owned or invalidation-pending.  The replica executes the identical state
transitions as ``MemorySystem.access`` with the call layers removed.
"""

from __future__ import annotations

from repro.machine.bus import BusTransactionKind
from repro.machine.memory_system import MemorySystem, cpus_in
from repro.machine.stats import MissKind

__all__ = ["loop_runner"]

_DATA = BusTransactionKind.DATA
_WRITEBACK = BusTransactionKind.WRITEBACK
_UPGRADE = BusTransactionKind.UPGRADE

_COLD = MissKind.COLD
_CAPACITY = MissKind.CAPACITY
_CONFLICT = MissKind.CONFLICT
_TRUE = MissKind.TRUE_SHARING
_FALSE = MissKind.FALSE_SHARING


def loop_runner(ms: MemorySystem, vm, page_cache: dict, cpu: int, stream,
                fault_watch=None, prev_reset=None):
    """Generator executing ``stream`` chunks for ``cpu``: the oracle, flat.

    Prime with ``next()``, then for each scheduling chunk ``send`` a tuple
    ``(start, end, clock, busy_per_ref, fault_concurrency)``; the yield
    returns ``(new_clock, kernel_ns, fault_kernel_ns)``: the advanced CPU
    clock, the total kernel time incurred (TLB-miss servicing plus page
    faults, what the steady-state engine charges to the kernel overhead
    category), and the page-fault component alone (what the init loop
    charges — it adds TLB service time to the clock but not to overhead).

    ``fault_watch``, when given, is called after every page fault while
    the cached bus state is already flushed — it may mutate the memory
    system and page tables (the engine's adaptive-CDPC watchdog re-plans
    and migrates pages from here).

    ``prev_reset``, when given, is a shared one-element list cell: when
    its flag is set at chunk entry, the cached ``prev_vpage`` is
    invalidated before any reference executes.  The columnar kernel
    (:mod:`repro.machine.columnar`) retires whole blocks *between* this
    runner's chunks; a retired block moves other pages to the TLB tail,
    so the move-to-back skip must not trust a ``prev_vpage`` that
    predates it.

    A runner is valid for one engine loop: everything captured is either
    a constant or a container mutated in place for the loop's lifetime.
    """
    config = ms.config
    tlb = ms._tlb[cpu]
    l1d = ms._l1d[cpu]
    l1i = ms._l1i[cpu]
    l2 = ms._l2[cpu]
    shadow = ms._shadow[cpu]
    stats = ms.stats.cpus[cpu]
    bus = ms.bus

    tlb_entries = tlb._entries
    tlb_move = tlb_entries.move_to_end
    tlb_pop = tlb_entries.popitem
    tlb_cap = tlb.config.entries
    tlb_miss_ns = ms._tlb_miss_ns
    l1d_sets = l1d._sets
    l1d_shift = l1d._line_shift
    l1d_nsets = l1d._num_sets
    l1d_assoc = l1d._associativity
    l1d_resident = l1d.resident
    l1i_sets = l1i._sets
    l1i_shift = l1i._line_shift
    l1i_nsets = l1i._num_sets
    l1i_assoc = l1i._associativity
    l1i_resident = l1i.resident
    l2_sets = l2._sets
    l2_shift = l2._line_shift
    l2_nsets = l2._num_sets
    l2_assoc = l2._associativity
    l2_resident = l2.resident
    # Geometry hooks: a sliced LLC supplies its set hash (None keeps the
    # classic inline modulo); a shared LLC changes the coherence rules;
    # a mid-level cache adds a probe between the L1s and the LLC.
    l2_index = ms._llc_index
    llc_shared = ms.llc_shared
    all_mid = ms._mid
    if all_mid is not None:
        mid_cache = all_mid[cpu]
        mid_sets = all_mid[cpu]._sets
        mid_shift = mid_cache._line_shift
        mid_nsets = mid_cache._num_sets
        mid_assoc = mid_cache._associativity
        mid_resident = mid_cache.resident
        mid_hit_ns = ms._mid_hit_ns
    else:
        mid_sets = None
        mid_shift = mid_nsets = mid_assoc = 0
        mid_resident = None
        mid_hit_ns = 0.0
    shadow_lines = shadow._lines
    shadow_move = shadow_lines.move_to_end
    shadow_pop = shadow_lines.popitem
    shadow_cap = shadow.capacity
    l2_misses = stats.l2_misses
    l2_stall = stats.l2_stall_ns
    bus_busy = bus.busy_ns
    bus_tx = bus.transactions
    sharers = ms._sharers
    cpu_bit = 1 << cpu
    not_cpu_bit = ~cpu_bit
    dirty = ms._dirty
    pending_map = ms._pending
    seen = ms._seen[cpu]
    inflight = ms._inflight
    frame_misses = ms.frame_misses
    frame_conflicts = ms._frame_conflicts
    line_mask = ms._line_mask
    word = ms._word
    page_shift = ms._page_shift
    l2_hit_ns = config.l2_hit_ns
    mem_ns = config.mem_latency_ns
    remote_ns = config.remote_latency_ns
    # Precomputed bus occupancies: identical to the oracle's
    # (payload + COMMAND_BYTES) / bandwidth — same operands, one
    # division, so bit-identical results.
    data_occ = (ms._line + bus.COMMAND_BYTES) / bus.bandwidth_bytes_per_ns
    cmd_occ = (0 + bus.COMMAND_BYTES) / bus.bandwidth_bytes_per_ns
    all_l1d = ms._l1d
    all_l1i = ms._l1i
    all_l2 = ms._l2

    flags = stream.flags
    prefetches = stream.prefetch
    vpages = stream.vpages
    offsets = stream.offsets
    vlines = stream.vlines
    fast_kinds = stream.fast_kinds

    page_table = vm.page_table
    is_mapped = page_table.is_mapped
    frame_of = page_table.frame_of
    fault = vm.fault
    fault_ns = vm.PAGE_FAULT_NS
    page_cache_get = page_cache.get
    sharers_get = sharers.get
    dirty_get = dirty.get
    psz = 1 << page_shift
    line_m1 = ~line_mask  # line_size - 1

    # Bus scalars: localized per chunk, flushed at chunk boundaries and
    # around out-of-line calls.  Declared here so the closures below can
    # bind them as cells of this generator frame.
    bus_backlog = bus._backlog_ns
    bus_last_update = bus._last_update_ns
    bus_last_complete = bus.last_complete_ns
    busy_data = bus_busy[_DATA]
    busy_wb = bus_busy[_WRITEBACK]
    busy_up = bus_busy[_UPGRADE]
    tx_data = bus_tx[_DATA]
    tx_wb = bus_tx[_WRITEBACK]
    tx_up = bus_tx[_UPGRADE]

    def flush_bus() -> None:
        bus._backlog_ns = bus_backlog
        bus._last_update_ns = bus_last_update
        bus.last_complete_ns = bus_last_complete
        bus_busy[_DATA] = busy_data
        bus_busy[_WRITEBACK] = busy_wb
        bus_busy[_UPGRADE] = busy_up
        bus_tx[_DATA] = tx_data
        bus_tx[_WRITEBACK] = tx_wb
        bus_tx[_UPGRADE] = tx_up

    def load_bus() -> tuple:
        return (
            bus._backlog_ns,
            bus._last_update_ns,
            bus.last_complete_ns,
            bus_busy[_DATA],
            bus_busy[_WRITEBACK],
            bus_busy[_UPGRADE],
            bus_tx[_DATA],
            bus_tx[_WRITEBACK],
            bus_tx[_UPGRADE],
        )

    def wcoh(at_ns: float, paddr: int, pline: int, vline: int) -> float:
        # Inline replica of MemorySystem._write_coherence.
        nonlocal bus_backlog, bus_last_update, bus_last_complete
        nonlocal busy_up, tx_up
        others = sharers_get(pline, 0) & not_cpu_bit
        sharers[pline] = cpu_bit
        word_bit = 1 << ((paddr & line_m1) // word)
        stall = 0.0
        d = dirty.get(pline)
        if others or (d is not None and d != cpu):
            # Bus UPGRADE request (zero payload), inline.
            if at_ns > bus_last_update:
                bus_backlog = max(0.0, bus_backlog - (at_ns - bus_last_update))
                bus_last_update = at_ns
            grant = at_ns + bus_backlog
            bus_backlog += cmd_occ
            busy_up += cmd_occ
            tx_up += 1
            bus_last_complete = max(bus_last_complete, grant + cmd_occ)
            stall = grant - at_ns
        if others:
            pend = pending_map.get(pline)
            if pend is None:
                pend = pending_map[pline] = {}
            for other in cpus_in(others):
                if not llc_shared:
                    all_l2[other].invalidate(pline)
                if all_mid is not None:
                    all_mid[other].invalidate(pline)
                all_l1d[other].invalidate(vline)
                all_l1i[other].invalidate(vline)
                pend[other] = pend.get(other, 0) | word_bit
        pend = pending_map.get(pline)
        if pend is not None:
            for other in pend:
                if other != cpu:
                    pend[other] |= word_bit
        dirty[pline] = cpu
        return stall

    prev_vpage = -1
    result = None
    while True:
        start, end, t, busy_per_ref, fault_concurrency = yield result

        if prev_reset is not None and prev_reset[0]:
            prev_vpage = -1
            prev_reset[0] = False
        # Reload shared bus state (other CPUs ran between our chunks) and
        # reset the per-chunk statistic deltas.
        (
            bus_backlog,
            bus_last_update,
            bus_last_complete,
            busy_data,
            busy_wb,
            busy_up,
            tx_data,
            tx_wb,
            tx_up,
        ) = load_bus()
        kernel_total = 0.0
        fault_kernel = 0.0
        # Integer statistic deltas: commute, flushed once at chunk end.
        # ``fastd_d``/``fasti_d`` count filter retirements, which credit
        # the TLB hit counter and the matching L1 hit counter together.
        fastd_d = 0
        fasti_d = 0
        tlb_hits_d = 0
        tlb_misses_d = 0
        stats_tlb_misses_d = 0
        l1d_hits_d = 0
        l1d_misses_d = 0
        l1i_hits_d = 0
        l1i_misses_d = 0
        l2_hits_d = 0
        mid_hits_d = 0
        demand_d = 0
        # Float accumulator seeded from the live value so the addition
        # order matches the oracle's per-event updates bit for bit.
        l1_stall = stats.l1_stall_ns

        index = start
        while index < end:
            # ---- Vectorized hit filter: guaranteed on-chip hits.  The
            # most selective predicate (L1 residency) runs first so
            # fall-through references reject in one set lookup.
            kind = fast_kinds[index]
            vpage = vpages[index]
            if kind == 3:
                # Write filter: retire only when the written line is
                # already exclusively owned by this CPU (sole sharer,
                # dirty here, no pending invalidation masks) — then the
                # oracle's write-coherence step is a provable no-op with
                # zero stall.
                vline = vlines[index]
                if vline in l1d_resident and vpage in tlb_entries:
                    base = page_cache_get(vpage)
                    if base is not None:
                        pline = (base + offsets[index]) & line_mask
                        if (
                            sharers_get(pline) == cpu_bit
                            and dirty_get(pline) == cpu
                            and pline not in pending_map
                        ):
                            if vpage != prev_vpage:
                                tlb_move(vpage)
                                prev_vpage = vpage
                            ways = l1d_sets[(vline >> l1d_shift) % l1d_nsets]
                            if ways[0] != vline:
                                ways.remove(vline)
                                ways.insert(0, vline)
                            fastd_d += 1
                            t += busy_per_ref
                            index += 1
                            continue
            elif kind == 1:
                vline = vlines[index]
                if (
                    vline in l1d_resident
                    and vpage in tlb_entries
                    and vpage in page_cache
                ):
                    if vpage != prev_vpage:
                        tlb_move(vpage)
                        prev_vpage = vpage
                    ways = l1d_sets[(vline >> l1d_shift) % l1d_nsets]
                    if ways[0] != vline:
                        ways.remove(vline)
                        ways.insert(0, vline)
                    fastd_d += 1
                    t += busy_per_ref
                    index += 1
                    continue
            elif kind == 2:
                vline = vlines[index]
                if (
                    vline in l1i_resident
                    and vpage in tlb_entries
                    and vpage in page_cache
                ):
                    if vpage != prev_vpage:
                        tlb_move(vpage)
                        prev_vpage = vpage
                    ways = l1i_sets[(vline >> l1i_shift) % l1i_nsets]
                    if ways[0] != vline:
                        ways.remove(vline)
                        ways.insert(0, vline)
                    fasti_d += 1
                    t += busy_per_ref
                    index += 1
                    continue

            # ---- Slow path: inline replica of reference_runner's
            # per-reference body plus MemorySystem.access.
            base = page_cache_get(vpage)
            if base is None:
                if not is_mapped(vpage):
                    flush_bus()
                    fault(vpage, cpu, concurrent_faults=fault_concurrency)
                    if fault_watch is not None:
                        fault_watch()
                    (
                        bus_backlog,
                        bus_last_update,
                        bus_last_complete,
                        busy_data,
                        busy_wb,
                        busy_up,
                        tx_data,
                        tx_wb,
                        tx_up,
                    ) = load_bus()
                    t += fault_ns
                    kernel_total += fault_ns
                    fault_kernel += fault_ns
                base = frame_of(vpage) * psz
                page_cache[vpage] = base
            if prefetches is not None:
                target = prefetches[index]
                if target:
                    tlb_strict = bool(target & 1)
                    target &= ~1
                    tpage = target // psz
                    tbase = page_cache.get(tpage)
                    if tbase is None:
                        # Target page not yet faulted: dropped exactly as
                        # a TLB-missing prefetch is.
                        stats.prefetches_issued += 1
                        stats.prefetches_dropped_tlb += 1
                    else:
                        flush_bus()
                        t += ms.prefetch(
                            cpu, t, target, tbase + target % psz, tlb_strict
                        )
                        # A footnote-1 prefetch may fill a TLB entry,
                        # putting a different page at the LRU tail — the
                        # move-to-back skip must not trust prev_vpage
                        # until the next reference re-establishes it.
                        prev_vpage = -1
                        (
                            bus_backlog,
                            bus_last_update,
                            bus_last_complete,
                            busy_data,
                            busy_wb,
                            busy_up,
                            tx_data,
                            tx_wb,
                            tx_up,
                        ) = load_bus()

            flag = flags[index]
            is_write = flag & 1
            paddr = base + offsets[index]

            # TLB (oracle: Tlb.access).  The move-to-back is skipped when
            # this page was the last one touched: it is already at the
            # LRU tail (same invariant as the hit filter's skip).
            kernel_ns = 0.0
            if vpage in tlb_entries:
                if vpage != prev_vpage:
                    tlb_move(vpage)
                tlb_hits_d += 1
            else:
                tlb_misses_d += 1
                tlb_entries[vpage] = None
                if len(tlb_entries) > tlb_cap:
                    tlb_pop(False)
                stats_tlb_misses_d += 1
                kernel_ns = tlb_miss_ns

            # On-chip cache (oracle: SetAssociativeCache.access_line).
            vline = vlines[index]
            if flag & 2:
                ways = l1i_sets[(vline >> l1i_shift) % l1i_nsets]
                l1_resident = l1i_resident
            else:
                ways = l1d_sets[(vline >> l1d_shift) % l1d_nsets]
                l1_resident = l1d_resident
            pline = paddr & line_mask
            if vline in ways:
                ways.remove(vline)
                ways.insert(0, vline)
                if flag & 2:
                    l1i_hits_d += 1
                else:
                    l1d_hits_d += 1
                stall = 0.0
            else:
                ways.insert(0, vline)
                l1_resident.add(vline)
                if len(ways) > (l1i_assoc if flag & 2 else l1d_assoc):
                    l1_resident.discard(ways.pop())
                if flag & 2:
                    l1i_misses_d += 1
                else:
                    l1d_misses_d += 1

                # External cache (oracle: MemorySystem._l2_access), with
                # the mid-level lookup/insert pair first when present.
                mways = (
                    None if mid_sets is None
                    else mid_sets[(pline >> mid_shift) % mid_nsets]
                )
                if mways is not None and pline in mways:
                    mways.remove(pline)
                    mways.insert(0, pline)
                    mid_hits_d += 1
                    l2_hits_d += 1
                    stall = mid_hit_ns
                    l1_stall += stall
                else:
                    if mways is not None:
                        mways.insert(0, pline)
                        mid_resident.add(pline)
                        if len(mways) > mid_assoc:
                            mid_resident.discard(mways.pop())
                    if pline in shadow_lines:
                        shadow_move(pline)
                        shadow_hit = True
                    else:
                        shadow_lines[pline] = None
                        if len(shadow_lines) > shadow_cap:
                            shadow_pop(False)
                        shadow_hit = False
                    l2_ways = l2_sets[
                        (pline >> l2_shift) % l2_nsets if l2_index is None
                        else l2_index(pline)
                    ]
                    if pline in l2_ways:
                        l2_ways.remove(pline)
                        l2_ways.insert(0, pline)
                        if llc_shared:
                            # Oracle's shared-LLC hit bookkeeping: register
                            # the reader as a sharer, consume its pending
                            # mask.
                            sharers[pline] = sharers_get(pline, 0) | cpu_bit
                            pend = pending_map.get(pline)
                            if pend is not None and cpu in pend:
                                del pend[cpu]
                                if not pend:
                                    del pending_map[pline]
                        # ``inflight`` is empty unless prefetching is
                        # active, so guard the per-hit tuple construction
                        # behind a truth test (x + 0.0 == x exactly for the
                        # positive hit latency, so skipping ``extra`` is
                        # bit-identical).
                        if inflight and (cpu, pline) in inflight:
                            # Demand access caught up with an in-flight
                            # prefetch.
                            stats.prefetches_useful += 1
                            extra = max(0.0, inflight.pop((cpu, pline)) - t)
                            stall = l2_hit_ns + extra
                        else:
                            stall = l2_hit_ns
                        l2_hits_d += 1
                        l1_stall += stall
                    else:
                        # Miss classification (oracle: _classify_miss).
                        pend = pending_map.get(pline)
                        if pend is not None and cpu in pend:
                            mask = pend.pop(cpu)
                            if not pend:
                                del pending_map[pline]
                            if mask & (1 << ((paddr & line_m1) // word)):
                                miss_kind = _TRUE
                            else:
                                miss_kind = _FALSE
                        elif pline not in seen:
                            miss_kind = _COLD
                        elif shadow_hit:
                            miss_kind = _CONFLICT
                        else:
                            miss_kind = _CAPACITY
                        l2_misses[miss_kind] += 1
                        frame = paddr >> page_shift
                        frame_misses[frame] += 1
                        if miss_kind is _CONFLICT:
                            frame_conflicts[frame] += 1
                        seen.add(pline)

                        # Line fetch (oracle: _fetch_line) — bus DATA request
                        # inline.
                        if t > bus_last_update:
                            bus_backlog = max(
                                0.0, bus_backlog - (t - bus_last_update)
                            )
                            bus_last_update = t
                        grant = t + bus_backlog
                        bus_backlog += data_occ
                        busy_data += data_occ
                        tx_data += 1
                        bus_last_complete = max(
                            bus_last_complete, grant + data_occ
                        )
                        queue_delay = grant - t
                        downer = dirty_get(pline)
                        if downer is not None and downer != cpu:
                            # Cache-to-cache transfer + owner writeback,
                            # inline.
                            if grant > bus_last_update:
                                bus_backlog = max(
                                    0.0, bus_backlog - (grant - bus_last_update)
                                )
                                bus_last_update = grant
                            wb_grant = grant + bus_backlog
                            bus_backlog += data_occ
                            busy_wb += data_occ
                            tx_wb += 1
                            bus_last_complete = max(
                                bus_last_complete, wb_grant + data_occ
                            )
                            dirty[pline] = None
                            stall = queue_delay + remote_ns
                        else:
                            stall = queue_delay + mem_ns
                        l2_stall[miss_kind] += stall

                        # Insert + eviction (oracle: insert /
                        # _handle_eviction).
                        l2_ways.insert(0, pline)
                        l2_resident.add(pline)
                        if len(l2_ways) > l2_assoc:
                            victim = l2_ways.pop()
                            l2_resident.discard(victim)
                            if victim in sharers:
                                sharers[victim] &= not_cpu_bit
                            if dirty_get(victim) == cpu:
                                dirty[victim] = None
                                if t > bus_last_update:
                                    bus_backlog = max(
                                        0.0, bus_backlog - (t - bus_last_update)
                                    )
                                    bus_last_update = t
                                wb_grant = t + bus_backlog
                                bus_backlog += data_occ
                                busy_wb += data_occ
                                tx_wb += 1
                                bus_last_complete = max(
                                    bus_last_complete, wb_grant + data_occ
                                )
                            if inflight and (cpu, victim) in inflight:
                                del inflight[(cpu, victim)]
                        sharers[pline] = sharers_get(pline, 0) | cpu_bit
                        demand_d += 1

            # Write coherence (oracle: _write_coherence, called with the
            # clock advanced by the stall so far).
            if is_write:
                stall += wcoh(t + stall, paddr, pline, vline)

            t += busy_per_ref + stall + kernel_ns
            kernel_total += kernel_ns
            prev_vpage = vpage
            index += 1

        flush_bus()
        tlb.hits += tlb_hits_d + fastd_d + fasti_d
        tlb.misses += tlb_misses_d
        stats.tlb_misses += stats_tlb_misses_d
        stats.l1d_hits += l1d_hits_d + fastd_d
        stats.l1d_misses += l1d_misses_d
        stats.l1i_hits += l1i_hits_d + fasti_d
        stats.l1i_misses += l1i_misses_d
        stats.l2_hits += l2_hits_d
        stats.l1_stall_ns = l1_stall
        ms.mid_hits += mid_hits_d
        ms.demand_l2_misses += demand_d
        ms.fast_retired_data += fastd_d
        ms.fast_retired_instr += fasti_d
        result = (t, kernel_total, fault_kernel)
