"""Symbolic footprint rules (rule family ``static``).

Where the ``color`` rules inspect the CDPC *assignment* (which pages got
which colors), these rules score the plan the OS would actually
**realize** — instruction pages, overflow fallbacks, and the exact
per-(CPU, color, cache-line) page-bin occupancy computed by the symbolic
footprint engine in :mod:`repro.checker.staticmiss`:

* ``S001`` — an *avoidable* cycle-wide bin hotspot: the realized plan
  stacks pages into a (color, line) bin that a balanced plan would keep
  within the cache associativity.  Capacity-bound overflows (balanced
  occupancy already exceeds the associativity, so no plan fits) are
  deliberately excluded — only a bigger cache fixes those.
* ``S002`` — single-loop conflict thrash: one loop execution alone
  overflows a bin a balanced plan would fit, so every sweep of that loop
  thrashes the set (the su2cor strided situation of Section 6.1 at page
  granularity).
* ``S003`` — advisory plan score: emitted whenever the footprint engine
  finds any data-page occupancy witness, summarizing worst occupancy and
  skew so CI diffs surface plan regressions before simulation does.

Each rule emits at most one diagnostic per report (the worst instance),
keeping reports scale-invariant: shrinking the machine and workload by
the same factor preserves the *set* of findings even as witness counts
change.  These rules only run when :attr:`LintContext.static` is set —
building the program image is about 15% of a static prediction's time
(see docs/static_analysis.md), which the engine's default per-run lint
gate must not pay.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.checker.diagnostics import Diagnostic, Severity
from repro.checker.registry import LintContext, register
from repro.checker.staticmiss import (
    ConflictHotspot,
    StaticConflictSummary,
    conflict_summary,
    program_image,
)

#: Minimum pages beyond the associativity before a fixable overflow is
#: called a hotspot.  One extra page in one bin (swim's u/v pair under
#: CDPC) costs a handful of misses; systematic stacking costs thousands.
HOTSPOT_EXCESS_THRESHOLD = 2


def static_summary(ctx: LintContext) -> StaticConflictSummary:
    """Build (once per context) the occupancy summary the S rules share."""
    cached = ctx.static_summary
    if isinstance(cached, StaticConflictSummary):
        return cached
    image = program_image(ctx.program, ctx.layout, ctx.config, ctx.num_cpus)
    summary = conflict_summary(image, ctx.coloring)
    ctx.static_summary = summary
    return summary


def _avoidable(
    hotspots: list[ConflictHotspot], assoc: int
) -> Optional[ConflictHotspot]:
    """Worst hotspot a balanced plan would have kept conflict-free."""
    for hotspot in hotspots:  # already sorted worst-skew first
        if (
            hotspot.balanced <= assoc
            and hotspot.occupancy >= assoc + HOTSPOT_EXCESS_THRESHOLD
        ):
            return hotspot
    return None


@register(
    "S001",
    "Realized plan stacks an avoidable bin hotspot",
    family="static",
    paper_section="4, 6.1",
    needs_static=True,
)
def rule_static_avoidable_hotspot(ctx: LintContext) -> Iterator[Diagnostic]:
    """Cycle-wide data footprint overflows a bin a balanced plan fits.

    ``balanced`` is the per-(line) page count divided evenly over the
    colors; when it is within the associativity but the realized plan
    still stacks ``assoc + 2`` or more pages into one bin, the conflict
    misses are the plan's fault, not the cache's.
    """
    assoc = ctx.config.l2.associativity
    summary = static_summary(ctx)
    hotspot = _avoidable(summary.hotspots, assoc)
    if hotspot is None:
        return
    yield Diagnostic(
        rule_id="S001",
        severity=Severity.WARNING,
        message=(
            f"cpu {hotspot.cpu} stacks {hotspot.occupancy} pages of "
            f"{'/'.join(hotspot.arrays)} into color {hotspot.color} line "
            f"{hotspot.line_index} ({assoc}-way cache, balanced plan "
            f"needs only {hotspot.balanced})"
        ),
        array=hotspot.arrays[0],
        fix_hint=(
            "re-run coloring with these pages split across colors, or "
            "verify the plan with `python -m repro lint --verify-plan`"
        ),
        evidence={
            "cpu": hotspot.cpu,
            "color": hotspot.color,
            "line_index": hotspot.line_index,
            "occupancy": hotspot.occupancy,
            "balanced": hotspot.balanced,
            "pages": list(hotspot.pages[:8]),
        },
    )


@register(
    "S002",
    "Single loop thrashes an avoidably overfull bin",
    family="static",
    paper_section="4, 6.1",
    needs_static=True,
)
def rule_static_loop_thrash(ctx: LintContext) -> Iterator[Diagnostic]:
    """One loop's own footprint overflows a bin a balanced plan fits.

    Cycle-wide occupancy can hide this: the cycle may look balanced while
    a single loop touches an over-stacked subset every sweep, paying the
    conflict misses at that loop's full reference rate.
    """
    assoc = ctx.config.l2.associativity
    summary = static_summary(ctx)
    hotspot = _avoidable(summary.loop_hotspots, assoc)
    if hotspot is None:
        return
    yield Diagnostic(
        rule_id="S002",
        severity=Severity.WARNING,
        message=(
            f"every sweep of this loop drives {hotspot.occupancy} pages of "
            f"{'/'.join(hotspot.arrays)} through color {hotspot.color} "
            f"line {hotspot.line_index} on cpu {hotspot.cpu} "
            f"({assoc}-way cache, balanced plan needs {hotspot.balanced})"
        ),
        loop=hotspot.loop,
        phase=hotspot.phase,
        array=hotspot.arrays[0],
        fix_hint=(
            "recolor the loop's arrays apart (distinct colors per array) "
            "or pad the arrays so their hot pages spread over more lines"
        ),
        evidence={
            "cpu": hotspot.cpu,
            "color": hotspot.color,
            "line_index": hotspot.line_index,
            "occupancy": hotspot.occupancy,
            "balanced": hotspot.balanced,
            "pages": list(hotspot.pages[:8]),
        },
    )


@register(
    "S003",
    "Static plan score: occupancy witnesses present",
    family="static",
    paper_section="4, 6.2",
    needs_static=True,
)
def rule_static_plan_score(ctx: LintContext) -> Iterator[Diagnostic]:
    """Advisory summary whenever any data bin exceeds the associativity.

    A conflict-free plan (every bin within the associativity) emits
    nothing, so clean workloads stay at zero findings; anything else gets
    one INFO line CI can diff across commits as a plan-quality score.
    """
    summary = static_summary(ctx)
    if summary.data_witnesses == 0:
        return
    assoc = ctx.config.l2.associativity
    worst = summary.hotspots[0] if summary.hotspots else None
    detail = ""
    if worst is not None:
        detail = (
            f"; worst bin holds {worst.occupancy} pages "
            f"(balanced {worst.balanced}, skew {worst.skew:.1f}x)"
        )
    yield Diagnostic(
        rule_id="S003",
        severity=Severity.INFO,
        message=(
            f"realized plan leaves {summary.data_witnesses} data page-bin(s) "
            f"over the {assoc}-way associativity "
            f"(max occupancy {summary.max_occupancy}){detail}"
        ),
        fix_hint=(
            "score the plan against simulation with "
            "`python -m repro predict <workload> --check`"
        ),
        evidence={
            "data_witnesses": summary.data_witnesses,
            "max_occupancy": summary.max_occupancy,
            "overflow_pages": len(summary.plan.overflow_pages),
        },
    )
