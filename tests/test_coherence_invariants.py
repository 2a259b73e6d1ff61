"""Property tests on the coherence protocol's invariants.

Hypothesis drives random interleavings of reads/writes from multiple
processors against one memory system and checks the invariants an
invalidate protocol must maintain:

* single-writer: a dirty line has exactly one owner, which caches it;
* write-invalidate: after a write, no other processor holds the line;
* the sharer directory never claims a processor that evicted the line;
* classification sanity: the first access to a line by a processor is
  COLD; sharing misses only follow a remote write.

The property tests map every virtual address to the same physical one;
the last two tests give the line distinct virtual and physical addresses,
because the L1s are virtually indexed and the directory is physical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import CacheConfig, MachineConfig
from repro.machine.memory_system import MemorySystem
from repro.machine.stats import MissKind


def tiny(num_cpus=3) -> MachineConfig:
    return MachineConfig(
        num_cpus=num_cpus,
        page_size=256,
        l1d=CacheConfig(512, 64, 2),
        l1i=CacheConfig(512, 64, 2),
        l2=CacheConfig(2048, 64, 1),  # 32 lines
    )


ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),  # cpu
        st.integers(0, 15),  # word index (lines 0..3, 8 words each... )
        st.booleans(),  # write?
    ),
    min_size=1,
    max_size=200,
)


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_single_writer_invariant(ops):
    ms = MemorySystem(tiny())
    t = 0.0
    for cpu, word, is_write in ops:
        addr = word * 8
        ms.access(cpu, t, addr, addr, is_write)
        t += 10.0
        if is_write:
            sharers, dirty = ms.line_state(addr)
            assert dirty == cpu
            assert sharers == frozenset({cpu})


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_sharers_subset_of_caching_cpus(ops):
    config = tiny()
    ms = MemorySystem(config)
    t = 0.0
    touched = set()
    for cpu, word, is_write in ops:
        addr = word * 8
        ms.access(cpu, t, addr, addr, is_write)
        t += 10.0
        touched.add(addr & ~(config.l2.line_size - 1))
    for line in touched:
        sharers, dirty = ms.line_state(line)
        for cpu in sharers:
            assert ms._l2[cpu].contains(line), (line, cpu)
        if dirty is not None:
            assert dirty in sharers


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_first_touch_per_cpu_is_cold(ops):
    ms = MemorySystem(tiny())
    t = 0.0
    seen: set[tuple[int, int]] = set()
    for cpu, word, is_write in ops:
        addr = word * 8
        line = addr & ~63
        result = ms.access(cpu, t, addr, addr, is_write)
        t += 10.0
        if (cpu, line) not in seen:
            if result.miss_kind is not None:
                assert result.miss_kind is MissKind.COLD
            seen.add((cpu, line))
        else:
            assert result.miss_kind is not MissKind.COLD


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_sharing_misses_only_after_remote_write(ops):
    ms = MemorySystem(tiny())
    t = 0.0
    last_writer: dict[int, int] = {}
    for cpu, word, is_write in ops:
        addr = word * 8
        line = addr & ~63
        result = ms.access(cpu, t, addr, addr, is_write)
        t += 10.0
        if result.miss_kind in (MissKind.TRUE_SHARING, MissKind.FALSE_SHARING):
            assert line in last_writer and last_writer[line] != cpu
        if is_write:
            last_writer[line] = cpu


@given(ops_strategy)
@settings(max_examples=40, deadline=None)
def test_stats_conserve_accesses(ops):
    """Every data access is exactly one of: L1 hit, L2 hit, or L2 miss."""
    ms = MemorySystem(tiny())
    t = 0.0
    for cpu, word, is_write in ops:
        addr = word * 8
        ms.access(cpu, t, addr, addr, is_write)
        t += 10.0
    total = sum(
        s.l1d_hits + s.l2_hits + s.total_l2_misses for s in ms.stats.cpus
    )
    assert total == len(ops)


# One line whose virtual and physical addresses differ (both in L1 set 0).
VADDR, PADDR = 0x1000, 0x200


def test_remote_write_drops_the_readers_virtual_line():
    ms = MemorySystem(tiny())
    ms.access(1, 0.0, VADDR, PADDR, False)
    ms.access(0, 10.0, VADDR, PADDR, True)
    result = ms.access(1, 20.0, VADDR, PADDR, False)
    assert not result.l1_hit
    assert result.miss_kind is MissKind.TRUE_SHARING


def test_remote_write_keeps_the_line_at_the_physical_address():
    ms = MemorySystem(tiny())
    ms.access(1, 0.0, VADDR, PADDR, False)
    # An unrelated line whose virtual address equals the shared line's
    # physical address.
    ms.access(1, 5.0, PADDR, 0x400, False)
    ms.access(0, 10.0, VADDR, PADDR, True)
    assert ms.access(1, 20.0, PADDR, 0x400, False).l1_hit
