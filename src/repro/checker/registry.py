"""Rule registry: discoverable, individually addressable analysis rules.

Each rule is a function from a :class:`LintContext` to an iterable of
:class:`~repro.checker.diagnostics.Diagnostic`.  Registration attaches the
metadata the docs and the CLI surface: a stable rule id, a one-line title,
and the paper section the rule reproduces.

Three rule families exist:

* ``race``   — affine dependence / race detection over loop declarations
  and static schedules (Sections 3.2, 5.1);
* ``color``  — color-plan linting over a :class:`ColoringResult` plus
  machine geometry (Sections 2.1, 5.2-5.4, 6.1-6.2);
* ``static`` — symbolic footprint/occupancy scoring of the *realized*
  color plan via :mod:`repro.checker.staticmiss` (Sections 4, 6).  These
  rules build a full program image (about 15% of a static prediction's
  time; see docs/static_analysis.md), so they only
  run when :attr:`LintContext.static` is set — the engine's per-run lint
  gate leaves it off unless ``EngineOptions.static_check`` asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.checker.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.compiler.ir import Program
    from repro.compiler.padding import Layout
    from repro.core.access_summary import AccessSummary
    from repro.core.coloring import ColoringResult
    from repro.machine.config import MachineConfig


@dataclass
class LintContext:
    """Everything a rule may inspect: program, machine, compiler outputs."""

    program: "Program"
    config: "MachineConfig"
    num_cpus: int
    layout: "Layout"
    summary: "AccessSummary"
    #: CDPC output; None when linting a non-CDPC configuration (color
    #: rules that require it are skipped).
    coloring: Optional["ColoringResult"] = None
    #: Whether the layout was produced by the aligned+padded layout pass.
    aligned: bool = True
    #: Whether symbolic footprint rules (family "static") may run.  Off by
    #: default to keep the engine's per-run lint gate cheap; the lint CLI,
    #: lint_workload and EngineOptions.static_check opt in.
    static: bool = False
    #: Memoized :class:`repro.checker.staticmiss.StaticConflictSummary`,
    #: shared by the S00x rules so the program image is built once.
    static_summary: Optional[object] = None


RuleFn = Callable[[LintContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class Rule:
    """A registered analysis rule plus its documentation metadata."""

    rule_id: str
    title: str
    family: str  # "race" | "color" | "static"
    paper_section: str
    fn: RuleFn
    #: Rules needing a ColoringResult are skipped when none is available.
    needs_coloring: bool = False
    #: Rules needing the symbolic footprint engine are skipped unless the
    #: context opts in (LintContext.static).
    needs_static: bool = False

    def run(self, ctx: LintContext) -> list[Diagnostic]:
        if self.needs_coloring and ctx.coloring is None:
            return []
        if self.needs_static and not ctx.static:
            return []
        return list(self.fn(ctx))


@dataclass
class RuleRegistry:
    """Ordered collection of rules, addressable by id."""

    rules: dict[str, Rule] = field(default_factory=dict)

    def register(
        self,
        rule_id: str,
        title: str,
        family: str,
        paper_section: str,
        needs_coloring: bool = False,
        needs_static: bool = False,
    ) -> Callable[[RuleFn], RuleFn]:
        """Decorator registering ``fn`` under ``rule_id``."""
        if family not in ("race", "color", "static"):
            raise ValueError(f"unknown rule family {family!r}")

        def decorator(fn: RuleFn) -> RuleFn:
            if rule_id in self.rules:
                raise ValueError(f"duplicate rule id {rule_id!r}")
            self.rules[rule_id] = Rule(
                rule_id=rule_id,
                title=title,
                family=family,
                paper_section=paper_section,
                fn=fn,
                needs_coloring=needs_coloring,
                needs_static=needs_static,
            )
            return fn

        return decorator

    def get(self, rule_id: str) -> Rule:
        return self.rules[rule_id]

    def ids(self) -> list[str]:
        return sorted(self.rules)

    def family(self, family: str) -> list[Rule]:
        return [r for r in self.rules.values() if r.family == family]

    def run_all(
        self,
        ctx: LintContext,
        only: Optional[Iterable[str]] = None,
        skip: Optional[Iterable[str]] = None,
    ) -> list[Diagnostic]:
        """Run every (selected) rule and concatenate the findings."""
        selected = set(only) if only is not None else None
        skipped = set(skip) if skip is not None else set()
        unknown = (selected or set()) | skipped
        unknown -= set(self.rules)
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        findings: list[Diagnostic] = []
        for rule_id in sorted(self.rules):
            if selected is not None and rule_id not in selected:
                continue
            if rule_id in skipped:
                continue
            findings.extend(self.rules[rule_id].run(ctx))
        return findings


#: The process-wide default registry; rule modules register into it at
#: import time (see repro.checker.races / repro.checker.colorlint).
DEFAULT_REGISTRY = RuleRegistry()

register = DEFAULT_REGISTRY.register
