"""Entry points tying the rule registry to programs and machine configs.

:func:`lint_program` is the one-stop API: it rebuilds the same compiler
artifacts the engine would build (layout, access summary, CDPC coloring)
and runs every registered rule over them.  The engine itself calls
:func:`lint_context` with its *already computed* artifacts so the
pre-simulation gate adds no duplicate compilation work.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

# Importing the rule modules registers their rules in DEFAULT_REGISTRY.
import repro.checker.colorlint  # noqa: F401
import repro.checker.races  # noqa: F401
import repro.checker.staticrules  # noqa: F401
from repro.checker.diagnostics import LintReport
from repro.checker.registry import DEFAULT_REGISTRY, LintContext, RuleRegistry
from repro.compiler.ir import Program
from repro.compiler.padding import Layout, layout_arrays
from repro.compiler.summaries import extract_summary
from repro.core.access_summary import AccessSummary
from repro.core.coloring import ColoringResult, generate_page_colors
from repro.machine.config import MachineConfig


def lint_context(
    program: Program,
    config: MachineConfig,
    *,
    num_cpus: Optional[int] = None,
    aligned: bool = True,
    cdpc: bool = True,
    layout: Optional[Layout] = None,
    summary: Optional[AccessSummary] = None,
    coloring: Optional[ColoringResult] = None,
    static: bool = False,
) -> LintContext:
    """Build (or adopt) the compiler artifacts the rules inspect."""
    cpus = num_cpus if num_cpus is not None else config.num_cpus
    if layout is None:
        layout = layout_arrays(
            program.arrays,
            config.l2.line_size,
            config.l1d.size,
            aligned=aligned,
            groups=program.group_pairs(),
        )
    if summary is None:
        summary = extract_summary(program, layout)
    if coloring is None and cdpc:
        coloring = generate_page_colors(
            summary, config.page_size, config.num_colors, cpus
        )
    return LintContext(
        program=program,
        config=config,
        num_cpus=cpus,
        layout=layout,
        summary=summary,
        coloring=coloring,
        aligned=aligned,
        static=static,
    )


def lint_context_report(
    ctx: LintContext,
    registry: RuleRegistry = DEFAULT_REGISTRY,
    only: Optional[Iterable[str]] = None,
    skip: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the registry over a prepared context."""
    report = LintReport(program=ctx.program.name)
    report.extend(registry.run_all(ctx, only=only, skip=skip))
    report.sort()
    return report


def lint_program(
    program: Program,
    config: MachineConfig,
    *,
    num_cpus: Optional[int] = None,
    aligned: bool = True,
    cdpc: bool = True,
    static: bool = False,
    registry: RuleRegistry = DEFAULT_REGISTRY,
    only: Optional[Iterable[str]] = None,
    skip: Optional[Iterable[str]] = None,
) -> LintReport:
    """Statically analyze one program for one machine configuration."""
    ctx = lint_context(
        program,
        config,
        num_cpus=num_cpus,
        aligned=aligned,
        cdpc=cdpc,
        static=static,
    )
    return lint_context_report(ctx, registry=registry, only=only, skip=skip)


def lint_workload(
    name: str,
    config: MachineConfig,
    **kwargs: Any,
) -> LintReport:
    """Build a bundled SPEC95fp workload at the machine's scale and lint it.

    Unlike :func:`lint_program`, the symbolic footprint rules default to
    *on* here: workload-level linting is the offline/CI path where the
    program-image cost is acceptable.
    """
    from repro.workloads.specfp import get_workload

    kwargs.setdefault("static", True)
    workload = get_workload(name, scale=config.scale_factor)
    return lint_program(workload.program, config, **kwargs)
