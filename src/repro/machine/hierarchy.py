"""Composable cache-hierarchy descriptions and pluggable color functions.

The paper's machine model is a 1996 bus-based SMP: one physically-indexed
external cache per processor, direct-mapped or low-associativity, so a
page color is literally a bit-field of the physical frame number
(Section 2.1).  Modern last-level caches break that assumption twice
over: the LLC is split into *slices* selected by an XOR hash of physical
address bits (the Sandy-Bridge-style hash reverse-engineered in
*Cracking Intel Sandy Bridge's Cache Hash Function*), and capacity is
spread over three levels with different sharing domains.

This module is the geometry vocabulary that lets the rest of the stack
stop assuming ``color = (pfn >> k) & mask``:

* :class:`CacheLevel` — one cache level: capacity, line size,
  associativity, sharing domain (private-per-CPU vs shared), write
  policy, and an optional slice hash.
* :class:`CacheHierarchy` — a composition of levels (split L1s, an
  optional private mid-level cache, and the physically-indexed LLC the
  coloring question is about).
* :class:`ColorFunction` — the protocol the OS/CDPC layers query through
  ``machine.color_of(frame)`` / ``machine.num_colors``; implementations
  are :class:`BitFieldColor` (classic), :class:`SlicedHashColor`
  (XOR-of-address-bits slice hash) and :class:`TableColor` (table-driven
  remap over either).

**Exactness contract.**  Everything downstream — the per-color free
lists, the symbolic miss analyzer's ``(color, line-in-page)`` footprint
bins, the CDPC hint generator — is sound only if two frames of the same
color are *conflict-equivalent*: line ``k`` of both pages lands in the
same cache set, for every ``k``.  Bit-field extraction has this trivially.
An XOR slice hash has it because parity is GF(2)-linear:
``H(frame·P + off) = H(frame·P) XOR H(off)``, so the slice of line ``k``
is the frame's slice XOR'd with a per-``k`` constant, identical for every
frame of the color.  The implementations here are exact by construction,
which is what lets the static analyzer stay keyed on ``(color, k)`` pairs
(they biject onto global cache sets) on every geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional, Protocol, runtime_checkable

from repro.machine.config_base import CacheConfig, is_power_of_two

__all__ = [
    "BitFieldColor",
    "CacheHierarchy",
    "CacheLevel",
    "ColorFunction",
    "SlicedHashColor",
    "TableColor",
    "xor_slice_masks",
]


def _hash_bits(masks: tuple[int, ...], value: int) -> int:
    """Hash bit ``i`` is the parity of ``value & masks[i]`` (the definition)."""
    s = 0
    for i, mask in enumerate(masks):
        s |= (bin(value & mask).count("1") & 1) << i
    return s


@runtime_checkable
class ColorFunction(Protocol):
    """Maps physical frames to page colors, and colors to cache sets.

    ``color_of`` is the OS-facing direction (which free list does a frame
    belong to); ``set_of`` / ``line_index`` are the analyzer- and
    simulator-facing directions (which global cache set does line ``k``
    of a page of this color occupy).  Implementations must be exact:
    ``set_of(color_of(f), k) == line_index(f * page_size + k * line_size)``
    for every frame ``f`` and line ``k``.
    """

    #: Total number of page colors (equivalence classes of frames).
    num_colors: int
    #: True only for plain bit-field extraction, where ``color_of`` is
    #: exactly ``frame % num_colors`` — consumers may then keep their
    #: historical inline arithmetic (the fast path does).
    classic: bool

    def color_of(self, frame: int) -> int:
        """Color of a physical frame number."""
        ...

    def set_of(self, color: int, line_in_page: int) -> int:
        """Global cache-set index of line ``line_in_page`` of a page."""
        ...

    def line_index(self, line_addr: int) -> int:
        """Global cache-set index of a line-aligned physical address."""
        ...

    def frames_of_color(self, color: int) -> Iterator[int]:
        """Physical frames of ``color``, in increasing order (unbounded)."""
        ...


@dataclass(frozen=True)
class BitFieldColor:
    """Classic bit-field color extraction (the paper's machine model).

    ``color = frame % num_colors`` and set ``color * lines_per_page + k``
    — the identity the whole pre-geometry stack hard-coded.
    """

    num_colors: int
    lines_per_page: int
    num_sets: int
    line_shift: int
    classic: bool = True

    def color_of(self, frame: int) -> int:
        return frame % self.num_colors

    def set_of(self, color: int, line_in_page: int) -> int:
        return (color * self.lines_per_page + line_in_page) % self.num_sets

    def line_index(self, line_addr: int) -> int:
        return (line_addr >> self.line_shift) % self.num_sets

    def frames_of_color(self, color: int) -> Iterator[int]:
        frame = color % self.num_colors
        while True:
            yield frame
            frame += self.num_colors


@dataclass(frozen=True)
class SlicedHashColor:
    """Sliced LLC with an XOR-of-address-bits slice hash.

    Slice bit ``i`` of a physical address is the parity of the address
    bits selected by one mask; masks are carried split into a
    frame-number part (``frame_masks``, bits at or above the page) and an
    in-page part (``offset_masks``, bits between the line offset and the
    page).  Within a slice the set is the classic modulo of the line
    address, so a page of ``lines_per_page`` lines covers a contiguous
    run of ``lines_per_page`` sets — but the *slice* of each line varies
    with the in-page hash bits, which is exactly the behaviour that
    breaks naive bit-field coloring on sliced hardware.

    A color is ``(slice-of-frame, set-run-within-slice)`` flattened:
    ``num_colors = slices * span`` where
    ``span = sets_per_slice // lines_per_page``.  GF(2) linearity of the
    parity hash makes colors exact conflict-equivalence classes (module
    docstring), and lets the hash run as byte-table lookups
    (``_frame_tables``, ``_offset_slices``; memoized on the instance as
    plain tuples, so the instance still pickles).
    """

    slices: int
    sets_per_slice: int
    lines_per_page: int
    line_shift: int
    page_shift: int
    frame_masks: tuple[int, ...]
    offset_masks: tuple[int, ...]
    classic: bool = False

    def __post_init__(self) -> None:
        if not is_power_of_two(self.slices) or self.slices < 2:
            raise ValueError("slices must be a power of two >= 2")
        if len(self.frame_masks) != self.slices.bit_length() - 1:
            raise ValueError("need one frame mask per slice-index bit")
        if len(self.offset_masks) != len(self.frame_masks):
            raise ValueError("need one offset mask per slice-index bit")
        if self.sets_per_slice % self.lines_per_page:
            raise ValueError(
                "sets per slice must be a multiple of lines per page "
                "(each page must cover whole set runs)"
            )

    @property
    def span(self) -> int:
        """Set runs per slice: distinct in-slice positions a page can take."""
        return self.sets_per_slice // self.lines_per_page

    @property
    def num_colors(self) -> int:
        return self.slices * self.span

    @property
    def num_sets(self) -> int:
        return self.slices * self.sets_per_slice

    @cached_property
    def _frame_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per-byte frame-slice tables, built on first use.

        Parity is GF(2)-linear, so a frame's slice is the XOR of one
        256-entry lookup per byte of the frame masks' width:
        ``_frame_tables[j][b]`` is the slice of frame ``b << 8j``.
        """
        width = max(mask.bit_length() for mask in self.frame_masks)
        return tuple(
            tuple(_hash_bits(self.frame_masks, b << shift) for b in range(256))
            for shift in range(0, width, 8)
        )

    @cached_property
    def _offset_slices(self) -> tuple[int, ...]:
        """Slice contribution of line ``k`` of a page, built on first use."""
        return tuple(
            _hash_bits(self.offset_masks, k << self.line_shift)
            for k in range(self.lines_per_page)
        )

    def _frame_slice(self, frame: int) -> int:
        s = 0
        for table in self._frame_tables:
            s ^= table[frame & 255]
            frame >>= 8
        return s

    def color_of(self, frame: int) -> int:
        return self._frame_slice(frame) * self.span + frame % self.span

    def set_of(self, color: int, line_in_page: int) -> int:
        run = color % self.span
        slice_id = (color // self.span) ^ self._offset_slices[line_in_page]
        return (
            slice_id * self.sets_per_slice
            + run * self.lines_per_page
            + line_in_page
        )

    def line_index(self, line_addr: int) -> int:
        line = line_addr >> self.line_shift
        slice_id = (
            self._frame_slice(line_addr >> self.page_shift)
            ^ self._offset_slices[line % self.lines_per_page]
        )
        return slice_id * self.sets_per_slice + line % self.sets_per_slice

    def frames_of_color(self, color: int) -> Iterator[int]:
        span = self.span
        run = color % span
        slice_id = color // span
        # Frames of the color recur with period num_colors * slices when
        # the masks are full-rank (xor_slice_masks construction); a plain
        # filtered scan stays correct for arbitrary masks.
        frame = run
        while True:
            if self._frame_slice(frame) == slice_id:
                yield frame
            frame += span


@dataclass(frozen=True)
class TableColor:
    """A table-driven color map: a permutation over a base function.

    Models firmware- or BIOS-level address scrambling where the color of
    a frame is looked up, not computed.  The table must be a permutation
    of ``range(base.num_colors)`` so colors remain exact equivalence
    classes; global set indices are unchanged (only the *labels* move),
    so the simulator's per-set behaviour is identical to the base.
    """

    base: "SlicedHashColor | BitFieldColor"
    table: tuple[int, ...]
    classic: bool = False

    def __post_init__(self) -> None:
        if sorted(self.table) != list(range(self.base.num_colors)):
            raise ValueError("color table must be a permutation of the colors")
        object.__setattr__(
            self, "_inverse", tuple(
                pair[1] for pair in sorted(
                    (mapped, original) for original, mapped in enumerate(self.table)
                )
            )
        )

    @property
    def num_colors(self) -> int:
        return self.base.num_colors

    def color_of(self, frame: int) -> int:
        return self.table[self.base.color_of(frame)]

    def set_of(self, color: int, line_in_page: int) -> int:
        inverse: tuple[int, ...] = self._inverse  # type: ignore[attr-defined]
        return self.base.set_of(inverse[color], line_in_page)

    def line_index(self, line_addr: int) -> int:
        return self.base.line_index(line_addr)

    def frames_of_color(self, color: int) -> Iterator[int]:
        inverse: tuple[int, ...] = self._inverse  # type: ignore[attr-defined]
        return self.base.frames_of_color(inverse[color])


def xor_slice_masks(
    slices: int, span: int, page_shift: int, line_shift: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Default slice-hash masks: realistic *and* perfectly color-balanced.

    Hash bit ``i`` is the parity of two frame bits chosen above the
    ``span`` field plus one in-page bit (when the page has spare bits
    above the line offset).  Using frame-bit columns disjoint from the
    span identity bits makes the linear map ``frame -> (hash, frame %
    span)`` full-rank, so every color owns exactly ``1 / num_colors`` of
    any frame pool whose size is a multiple of ``num_colors * slices`` —
    the per-color free lists stay balanced, like contiguous physical
    memory under a bit-field color.
    """
    if not is_power_of_two(slices) or slices < 2:
        raise ValueError("slices must be a power of two >= 2")
    if not is_power_of_two(span):
        raise ValueError("span must be a power of two")
    bits = slices.bit_length() - 1
    low = span.bit_length() - 1
    frame_masks = tuple(
        (1 << (low + i)) | (1 << (low + bits + i)) for i in range(bits)
    )
    page_mask = ((1 << page_shift) - 1) & ~((1 << line_shift) - 1)
    offset_masks = tuple(
        (1 << (line_shift + i)) & page_mask for i in range(bits)
    )
    return frame_masks, offset_masks


@dataclass(frozen=True)
class CacheLevel:
    """One level of the cache hierarchy.

    ``shared`` selects the sharing domain: ``False`` is one cache per
    CPU (the paper's external caches), ``True`` is a single cache shared
    by every CPU (a modern LLC).  ``write_policy`` is descriptive — the
    timing model charges write-back traffic for both spellings (see
    DESIGN.md); it is validated and serialized so geometries round-trip.
    ``slices``/``frame_masks``/``offset_masks`` describe an XOR slice
    hash; ``hit_ns`` overrides the hit latency for mid-level caches.
    """

    size: int
    line_size: int
    associativity: int = 1
    shared: bool = False
    write_policy: str = "writeback"
    hit_ns: Optional[float] = None
    slices: int = 1
    frame_masks: tuple[int, ...] = ()
    offset_masks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not is_power_of_two(self.size):
            raise ValueError(f"cache size must be a power of two, got {self.size}")
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line size must be a power of two, got {self.line_size}")
        if self.associativity < 1:
            raise ValueError("associativity must be >= 1")
        if self.write_policy not in ("writeback", "writethrough"):
            raise ValueError(f"unknown write policy {self.write_policy!r}")
        if not is_power_of_two(self.slices):
            raise ValueError("slices must be a power of two")
        if self.size % (self.line_size * self.associativity * self.slices):
            raise ValueError(
                "cache size must be divisible by line_size * associativity * slices"
            )
        if self.slices > 1 and len(self.frame_masks) != self.slices.bit_length() - 1:
            raise ValueError("need one frame mask per slice-index bit")

    @property
    def cache_config(self) -> CacheConfig:
        """The flat geometry view the behavioural cache models consume."""
        return CacheConfig(self.size, self.line_size, self.associativity)

    @property
    def sets_per_slice(self) -> int:
        return self.size // (self.line_size * self.associativity * self.slices)

    def scaled(self, factor: int, new_page_size: int) -> "CacheLevel":
        """Shrink capacity by ``factor``, preserving lines and the hash.

        Frame masks address frame-number bits, which survive scaling
        unchanged (that is what keeps ``num_colors`` invariant); in-page
        offset masks are truncated to the smaller page.
        """
        if self.size % factor:
            raise ValueError(f"cannot scale {self} by {factor}")
        new_size = self.size // factor
        if new_size < self.line_size * self.associativity * self.slices:
            raise ValueError(f"scaling by {factor} leaves less than one set per slice")
        keep = (new_page_size - 1) & ~(self.line_size - 1)
        return replace(
            self,
            size=new_size,
            offset_masks=tuple(mask & keep for mask in self.offset_masks),
        )

    @classmethod
    def from_cache_config(
        cls, config: CacheConfig, shared: bool = False
    ) -> "CacheLevel":
        return cls(config.size, config.line_size, config.associativity, shared=shared)


@dataclass(frozen=True)
class CacheHierarchy:
    """A complete cache hierarchy: split L1s, optional mid level, LLC.

    ``derived=True`` marks a hierarchy synthesized from the legacy
    ``l1d``/``l1i``/``l2`` fields of :class:`~repro.machine.config.
    MachineConfig`; such a hierarchy is re-derived whenever those fields
    are replaced, so ``dataclasses.replace(config, l2=...)`` keeps its
    historical meaning.  An explicitly constructed hierarchy
    (``derived=False``) is authoritative and the flat fields become
    read-only views of its levels.

    ``color_table`` optionally permutes the color labels (the
    :class:`TableColor` map) without changing the underlying sets.
    """

    l1d: CacheLevel
    l1i: CacheLevel
    llc: CacheLevel
    mid: Optional[CacheLevel] = None
    color_table: tuple[int, ...] = ()
    derived: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.l1d.shared or self.l1i.shared:
            raise ValueError("L1 caches are per-CPU; shared L1s are not modeled")
        if self.mid is not None and self.mid.shared:
            raise ValueError("the mid-level cache is per-CPU in this model")

    @classmethod
    def classic(
        cls, l1d: CacheConfig, l1i: CacheConfig, l2: CacheConfig
    ) -> "CacheHierarchy":
        """The legacy two-level geometry, marked re-derivable."""
        return cls(
            l1d=CacheLevel.from_cache_config(l1d),
            l1i=CacheLevel.from_cache_config(l1i),
            llc=CacheLevel.from_cache_config(l2),
            derived=True,
        )

    @property
    def levels(self) -> tuple[CacheLevel, ...]:
        """All levels, innermost first (L1s, mid when present, LLC)."""
        if self.mid is not None:
            return (self.l1d, self.l1i, self.mid, self.llc)
        return (self.l1d, self.l1i, self.llc)

    def scaled(self, factor: int, page_size: int) -> "CacheHierarchy":
        new_page = page_size // factor
        return replace(
            self,
            l1d=self.l1d.scaled(factor, new_page),
            l1i=self.l1i.scaled(factor, new_page),
            llc=self.llc.scaled(factor, new_page),
            mid=None if self.mid is None else self.mid.scaled(factor, new_page),
        )

    def color_function(self, page_size: int) -> ColorFunction:
        """Build the color function for this geometry at ``page_size``."""
        llc = self.llc
        if page_size < llc.line_size:
            raise ValueError("page size must be at least one LLC line")
        lines_per_page = page_size // llc.line_size
        line_shift = llc.line_size.bit_length() - 1
        base: SlicedHashColor | BitFieldColor
        if llc.slices > 1:
            base = SlicedHashColor(
                slices=llc.slices,
                sets_per_slice=llc.sets_per_slice,
                lines_per_page=lines_per_page,
                line_shift=line_shift,
                page_shift=page_size.bit_length() - 1,
                frame_masks=llc.frame_masks,
                offset_masks=llc.offset_masks,
            )
        else:
            base = BitFieldColor(
                num_colors=llc.size // (page_size * llc.associativity),
                lines_per_page=lines_per_page,
                num_sets=llc.cache_config.num_sets,
                line_shift=line_shift,
            )
        if self.color_table:
            return TableColor(base, self.color_table)
        return base
