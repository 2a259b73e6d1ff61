"""Machine configuration: cache geometry, latencies, and preset machines.

The presets mirror the two platforms of the paper plus two modern
geometries the paper could not measure:

* ``sgi_base`` — the SimOS base configuration of Section 3.2: 400MHz
  single-issue R4400-class processors, 32KB two-way split on-chip caches,
  a 1MB direct-mapped external cache with 128-byte lines, a 1.2 GB/s
  split-transaction bus, 500ns memory latency and 750ns remote latency.
* ``alpha_server`` — the validation platform of Section 7: an 8-CPU
  AlphaServer 8400 with 350MHz 21164 processors and a 4MB direct-mapped
  external cache.
* ``sliced_llc_8x`` — the base machine with its external cache split
  into 8 slices selected by a Sandy-Bridge-style XOR hash of physical
  address bits (see :mod:`repro.machine.hierarchy`).
* ``three_level`` — a private 256KB mid-level cache per CPU under a
  single 4MB LLC shared by every CPU.

The machine's *geometry* is a :class:`~repro.machine.hierarchy.
CacheHierarchy`.  For backward compatibility the historical flat fields
(``l1d``/``l1i``/``l2``) remain: constructing a config from them
synthesizes a classic two-level hierarchy, and constructing from an
explicit ``hierarchy=`` makes the flat fields read-only views of its
levels.  Page-color questions go through :attr:`MachineConfig.
color_function` — ``machine.color_of(frame)`` / ``machine.num_colors``
— never through bit arithmetic on the frame number.

Because a pure-Python simulator cannot run reference-sized data sets,
every configuration can be geometrically scaled with
:meth:`MachineConfig.scaled`.  Scaling divides cache size and page size
by the same factor and preserves per-level line sizes, associativities,
slice counts and the frame-bit hash rows, which keeps the quantity CDPC
cares about — the number of page colors — invariant on every geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.machine.config_base import CacheConfig, TlbConfig, is_power_of_two
from repro.machine.hierarchy import CacheHierarchy, CacheLevel, ColorFunction, xor_slice_masks

__all__ = [
    "CacheConfig",
    "MACHINE_PRESETS",
    "MachineConfig",
    "TlbConfig",
    "alpha_server",
    "sgi_2way",
    "sgi_4mb",
    "sgi_8way",
    "sgi_base",
    "sliced_llc_8x",
    "three_level",
]

@dataclass(frozen=True)
class MachineConfig:
    """A complete bus-based multiprocessor memory-system configuration."""

    num_cpus: int = 1
    cpu_clock_mhz: float = 400.0
    page_size: int = 4096
    word_size: int = 8
    # On-chip caches are virtually indexed; the external cache is
    # physically indexed (Section 5.4), which is why page mapping matters.
    # With an explicit ``hierarchy=`` these three become views of its
    # levels; without one they define a classic two-level hierarchy.
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 128, 2))
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 128, 2))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(1024 * 1024, 128, 1))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    # Latencies from Section 3.2.
    l2_hit_ns: float = 50.0
    mem_latency_ns: float = 500.0
    remote_latency_ns: float = 750.0
    bus_bandwidth_gb_s: float = 1.2
    max_outstanding_prefetches: int = 4
    scale_factor: int = 1
    hierarchy: Optional[CacheHierarchy] = None

    def __post_init__(self) -> None:
        if self.num_cpus < 1:
            raise ValueError("num_cpus must be >= 1")
        if not is_power_of_two(self.page_size):
            raise ValueError("page size must be a power of two")
        hierarchy = self.hierarchy
        if hierarchy is None or hierarchy.derived:
            # Legacy spelling (or a replace() of one): the flat fields are
            # authoritative and the hierarchy is re-derived from them.
            hierarchy = CacheHierarchy.classic(self.l1d, self.l1i, self.l2)
            object.__setattr__(self, "hierarchy", hierarchy)
        else:
            object.__setattr__(self, "l1d", hierarchy.l1d.cache_config)
            object.__setattr__(self, "l1i", hierarchy.l1i.cache_config)
            object.__setattr__(self, "l2", hierarchy.llc.cache_config)
        if self.page_size < self.l2.line_size:
            raise ValueError("page size must be at least one L2 line")
        # Building the color function validates the geometry/page-size
        # combination (e.g. a slice must cover whole pages).
        self.color_function

    @functools.cached_property
    def color_function(self) -> ColorFunction:
        """The geometry's frame→color map (see :mod:`repro.machine.hierarchy`)."""
        assert self.hierarchy is not None
        return self.hierarchy.color_function(self.page_size)

    @property
    def cycle_ns(self) -> float:
        """Duration of one CPU cycle in nanoseconds."""
        return 1000.0 / self.cpu_clock_mhz

    @property
    def num_colors(self) -> int:
        """Number of page colors in the physically-indexed external cache.

        Section 2.1 for the classic geometry: cache size / (page size *
        associativity).  Sliced and table-driven geometries answer
        through their color function; the count is always the number of
        conflict-equivalence classes of physical frames.
        """
        return self.color_function.num_colors

    def page_number(self, addr: int) -> int:
        return addr // self.page_size

    def page_color_of_frame(self, frame: int) -> int:
        """Color of a physical frame number."""
        return self.color_function.color_of(frame)

    def color_of(self, frame: int) -> int:
        """Color of a physical frame number (geometry-aware spelling)."""
        return self.color_function.color_of(frame)

    def scaled(self, factor: int) -> "MachineConfig":
        """Geometrically scale caches, pages and lines down by ``factor``.

        The number of colors is invariant under scaling, so the page-mapping
        behaviour the paper studies is preserved while shrinking simulation
        cost by the same factor.
        """
        if factor == 1:
            return self
        assert self.hierarchy is not None
        if not self.hierarchy.derived:
            return replace(
                self,
                page_size=self.page_size // factor,
                hierarchy=self.hierarchy.scaled(factor, self.page_size),
                scale_factor=self.scale_factor * factor,
            )
        return replace(
            self,
            page_size=self.page_size // factor,
            l1d=self.l1d.scaled(factor),
            l1i=self.l1i.scaled(factor),
            l2=self.l2.scaled(factor),
            scale_factor=self.scale_factor * factor,
        )

    def with_cpus(self, num_cpus: int) -> "MachineConfig":
        return replace(self, num_cpus=num_cpus)

    # ------------------------------------------------------------------
    # Lossless serialization (service requests, result-store fingerprints)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict carrying the full geometry; see :meth:`from_dict`."""
        assert self.hierarchy is not None
        out: dict[str, Any] = {
            "num_cpus": self.num_cpus,
            "cpu_clock_mhz": self.cpu_clock_mhz,
            "page_size": self.page_size,
            "word_size": self.word_size,
            "l1d": _cache_to_dict(self.l1d),
            "l1i": _cache_to_dict(self.l1i),
            "l2": _cache_to_dict(self.l2),
            "tlb": {"entries": self.tlb.entries,
                    "miss_latency_ns": self.tlb.miss_latency_ns},
            "l2_hit_ns": self.l2_hit_ns,
            "mem_latency_ns": self.mem_latency_ns,
            "remote_latency_ns": self.remote_latency_ns,
            "bus_bandwidth_gb_s": self.bus_bandwidth_gb_s,
            "max_outstanding_prefetches": self.max_outstanding_prefetches,
            "scale_factor": self.scale_factor,
        }
        if not self.hierarchy.derived:
            # A derived hierarchy is a pure function of the flat fields
            # above, so omitting it keeps legacy payloads unchanged while
            # the round trip stays lossless.
            out["hierarchy"] = _hierarchy_to_dict(self.hierarchy)
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MachineConfig":
        """Inverse of :meth:`to_dict`: ``from_dict(cfg.to_dict()) == cfg``."""
        payload = dict(data)
        hierarchy_data = payload.pop("hierarchy", None)
        tlb_data = payload.pop("tlb", None)
        kwargs: dict[str, Any] = {}
        for name in ("l1d", "l1i", "l2"):
            if name in payload:
                kwargs[name] = _cache_from_dict(payload.pop(name))
        if tlb_data is not None:
            kwargs["tlb"] = TlbConfig(**tlb_data)
        if hierarchy_data is not None:
            kwargs["hierarchy"] = _hierarchy_from_dict(hierarchy_data)
            # The flat fields are views of the hierarchy; drop any copies.
            for name in ("l1d", "l1i", "l2"):
                kwargs.pop(name, None)
        kwargs.update(payload)
        return cls(**kwargs)


def _cache_to_dict(config: CacheConfig) -> dict[str, Any]:
    return {
        "size": config.size,
        "line_size": config.line_size,
        "associativity": config.associativity,
    }


def _cache_from_dict(data: dict[str, Any]) -> CacheConfig:
    return CacheConfig(**data)


def _level_to_dict(level: CacheLevel) -> dict[str, Any]:
    return {
        "size": level.size,
        "line_size": level.line_size,
        "associativity": level.associativity,
        "shared": level.shared,
        "write_policy": level.write_policy,
        "hit_ns": level.hit_ns,
        "slices": level.slices,
        "frame_masks": list(level.frame_masks),
        "offset_masks": list(level.offset_masks),
    }


def _level_from_dict(data: dict[str, Any]) -> CacheLevel:
    payload = dict(data)
    payload["frame_masks"] = tuple(payload.get("frame_masks", ()))
    payload["offset_masks"] = tuple(payload.get("offset_masks", ()))
    return CacheLevel(**payload)


def _hierarchy_to_dict(hierarchy: CacheHierarchy) -> dict[str, Any]:
    return {
        "l1d": _level_to_dict(hierarchy.l1d),
        "l1i": _level_to_dict(hierarchy.l1i),
        "llc": _level_to_dict(hierarchy.llc),
        "mid": None if hierarchy.mid is None else _level_to_dict(hierarchy.mid),
        "color_table": list(hierarchy.color_table),
    }


def _hierarchy_from_dict(data: dict[str, Any]) -> CacheHierarchy:
    return CacheHierarchy(
        l1d=_level_from_dict(data["l1d"]),
        l1i=_level_from_dict(data["l1i"]),
        llc=_level_from_dict(data["llc"]),
        mid=None if data.get("mid") is None else _level_from_dict(data["mid"]),
        color_table=tuple(data.get("color_table", ())),
    )


# ----------------------------------------------------------------------
# Presets


def sgi_base(num_cpus: int = 1) -> MachineConfig:
    """The paper's base SimOS configuration: 1MB direct-mapped external cache."""
    return MachineConfig(num_cpus=num_cpus)


def sgi_2way(num_cpus: int = 1) -> MachineConfig:
    """Base configuration with a two-way set-associative external cache."""
    return replace(sgi_base(num_cpus), l2=CacheConfig(1024 * 1024, 128, 2))


def sgi_4mb(num_cpus: int = 1) -> MachineConfig:
    """Base configuration with a 4MB direct-mapped external cache."""
    return replace(sgi_base(num_cpus), l2=CacheConfig(4 * 1024 * 1024, 128, 1))


def sgi_8way(num_cpus: int = 1) -> MachineConfig:
    """Base configuration with an eight-way set-associative external cache.

    Section 6.1: tomcatv has seven large data structures, so "only an
    eight-way set-associative cache of size 1MB would eliminate all
    conflicts for 16 processors" without CDPC.  This preset exists to test
    that claim.
    """
    return replace(sgi_base(num_cpus), l2=CacheConfig(1024 * 1024, 128, 8))


def alpha_server(num_cpus: int = 1) -> MachineConfig:
    """The AlphaServer 8400 validation platform of Section 7."""
    return MachineConfig(
        num_cpus=num_cpus,
        cpu_clock_mhz=350.0,
        l1d=CacheConfig(8 * 1024, 32, 1),
        l1i=CacheConfig(8 * 1024, 32, 1),
        l2=CacheConfig(4 * 1024 * 1024, 64, 1),
        # The 8400's TLAS bus is faster than the SimOS base bus.
        bus_bandwidth_gb_s=1.6,
        mem_latency_ns=400.0,
        remote_latency_ns=600.0,
    )


def sliced_llc_8x(num_cpus: int = 1) -> MachineConfig:
    """The base machine with an 8-slice XOR-hashed external cache.

    Same 1MB capacity, line size and 256 colors as ``sgi_base`` — only
    the *shape* of a color changes (a (slice, set-run) pair instead of a
    frame bit-field), so policy comparisons against the classic geometry
    isolate the effect of the hash.  The default masks
    (:func:`~repro.machine.hierarchy.xor_slice_masks`) mix frame bits
    with an in-page bit per hash row, so consecutive lines of one page
    spread across slices as on real sliced hardware.
    """
    lines_per_page = 4096 // 128
    sets_per_slice = (1024 * 1024) // (128 * 8)
    frame_masks, offset_masks = xor_slice_masks(
        slices=8,
        span=sets_per_slice // lines_per_page,
        page_shift=12,
        line_shift=7,
    )
    hierarchy = CacheHierarchy(
        l1d=CacheLevel(32 * 1024, 128, 2),
        l1i=CacheLevel(32 * 1024, 128, 2),
        llc=CacheLevel(
            1024 * 1024, 128, 1,
            slices=8, frame_masks=frame_masks, offset_masks=offset_masks,
        ),
    )
    return MachineConfig(num_cpus=num_cpus, hierarchy=hierarchy)


def three_level(num_cpus: int = 1) -> MachineConfig:
    """Three-level geometry: private 256KB mid-level caches, shared 4MB LLC.

    The mid level absorbs part of each CPU's working set at a 25ns hit
    latency; the physically-indexed LLC — the level page coloring is
    about — is one cache shared by every CPU, so colors partition a
    capacity all CPUs compete for.
    """
    hierarchy = CacheHierarchy(
        l1d=CacheLevel(32 * 1024, 128, 2),
        l1i=CacheLevel(32 * 1024, 128, 2),
        mid=CacheLevel(256 * 1024, 128, 4, hit_ns=25.0),
        llc=CacheLevel(4 * 1024 * 1024, 128, 1, shared=True),
    )
    return MachineConfig(num_cpus=num_cpus, hierarchy=hierarchy)


#: Machine models addressable by name (``--machine`` on the CLI, the
#: ``machine`` field of service requests, ``Session(machine=...)``).
MACHINE_PRESETS: dict[str, Callable[[int], MachineConfig]] = {
    "sgi_base": sgi_base,
    "sgi_2way": sgi_2way,
    "sgi_4mb": sgi_4mb,
    "sgi_8way": sgi_8way,
    "alpha_server": alpha_server,
    "sliced_llc_8x": sliced_llc_8x,
    "three_level": three_level,
}
