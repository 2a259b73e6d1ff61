"""Differential tests: the miss path's O(1) structures against naive models.

The TLB and the fully-associative shadow cache keep LRU order in an
``OrderedDict`` (``move_to_end`` on a hit, ``popitem(last=False)`` to
evict).  Here each is driven beside a plain list ordered least recently
used first, and hit/miss, the victim and the whole LRU order must agree
after every operation of a long access/invalidate sequence.

The sliced LLC's set index runs on per-byte slice tables.  It must equal
the parity definition of the XOR slice hash for random full-rank masks,
including frame masks wider than one byte and nonzero in-page masks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.cache import FullyAssociativeLRU
from repro.machine.config import TlbConfig
from repro.machine.hierarchy import SlicedHashColor
from repro.machine.tlb import Tlb


class ListLRU:
    """LRU over a list, least recently used first."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []

    def access(self, key):
        """Returns ``(hit, victim)``."""
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)
            return True, None
        self.order.append(key)
        if len(self.order) > self.capacity:
            return False, self.order.pop(0)
        return False, None

    def invalidate(self, key):
        if key in self.order:
            self.order.remove(key)


#: (key, invalidate?) operations over a key space a few times the capacity.
operations = st.lists(
    st.tuples(st.integers(0, 23), st.integers(0, 5).map(lambda r: r == 0)),
    min_size=1,
    max_size=600,
)


@given(st.integers(1, 8), operations)
@settings(max_examples=80, deadline=None)
def test_tlb_matches_list_model(capacity, ops):
    tlb = Tlb(TlbConfig(entries=capacity))
    model = ListLRU(capacity)
    misses = 0
    for key, invalidate in ops:
        if invalidate:
            tlb.invalidate(key)
            model.invalidate(key)
        else:
            hit, _victim = model.access(key)
            misses += not hit
            assert tlb.access(key) == hit
        assert list(tlb.entries) == model.order
    assert tlb.misses == misses


@given(st.integers(1, 8), operations)
@settings(max_examples=80, deadline=None)
def test_shadow_matches_list_model(capacity, ops):
    shadow = FullyAssociativeLRU(capacity)
    model = ListLRU(capacity)
    for key, invalidate in ops:
        line = key * 64
        if invalidate:
            assert shadow.invalidate(line) == (line in model.order)
            model.invalidate(line)
        else:
            before = set(shadow._lines)
            hit, victim = model.access(line)
            assert shadow.access(line) == hit
            evicted = before - set(shadow._lines)
            assert evicted == ({victim} if victim is not None else set())
        assert list(shadow._lines) == model.order


def _parity(value):
    return bin(value).count("1") & 1


def parity_index(cf, line_addr):
    """The slice hash by its definition: one parity per mask pair."""
    frame = line_addr >> cf.page_shift
    offset = line_addr & ((1 << cf.page_shift) - 1)
    slice_id = 0
    for i, (frame_mask, offset_mask) in enumerate(
        zip(cf.frame_masks, cf.offset_masks)
    ):
        slice_id |= (_parity(frame & frame_mask) ^ _parity(offset & offset_mask)) << i
    local = (line_addr >> cf.line_shift) % cf.sets_per_slice
    return slice_id * cf.sets_per_slice + local


def _rank(masks):
    """Rank of the masks as GF(2) row vectors."""
    rows = list(masks)
    rank = 0
    for bit in reversed(range(max(rows).bit_length())):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows]
        rank += 1
    return rank


@st.composite
def sliced_colors(draw):
    bits = draw(st.integers(1, 3))
    line_shift = 6
    page_shift = draw(st.sampled_from([8, 10, 12]))
    lines_per_page = 1 << (page_shift - line_shift)
    span = draw(st.sampled_from([1, 2, 4]))
    width = draw(st.sampled_from([6, 8, 12, 16, 24]))
    frame_masks = tuple(
        draw(st.lists(st.integers(1, (1 << width) - 1), min_size=bits,
                      max_size=bits).filter(lambda m: _rank(m) == len(m)))
    )
    page_bits = ((1 << page_shift) - 1) & ~((1 << line_shift) - 1)
    offset_masks = tuple(
        draw(st.integers(0, page_bits)) & page_bits for _ in range(bits)
    )
    return SlicedHashColor(
        slices=1 << bits,
        sets_per_slice=lines_per_page * span,
        lines_per_page=lines_per_page,
        line_shift=line_shift,
        page_shift=page_shift,
        frame_masks=frame_masks,
        offset_masks=offset_masks,
    )


@given(sliced_colors(), st.lists(st.integers(0, (1 << 30) - 1), min_size=1,
                                 max_size=50))
@settings(max_examples=120, deadline=None)
def test_table_index_equals_parity_definition(cf, frames):
    lines_per_page = cf.lines_per_page
    for frame in frames:
        slice_id = parity_index(cf, frame << cf.page_shift) // cf.sets_per_slice
        assert cf.color_of(frame) == slice_id * cf.span + frame % cf.span
        for k in {0, lines_per_page - 1, frame % lines_per_page}:
            line_addr = (frame << cf.page_shift) + (k << cf.line_shift)
            expected = parity_index(cf, line_addr)
            assert cf.line_index(line_addr) == expected
            assert cf.set_of(cf.color_of(frame), k) == expected
