"""Color-plan rules, the diagnostics/registry machinery, and the engine gate."""

from __future__ import annotations

import json

import pytest

from repro.checker import (
    DEFAULT_REGISTRY,
    Diagnostic,
    LintError,
    LintReport,
    RuleRegistry,
    Severity,
    lint_context,
    lint_context_report,
    lint_program,
)
from repro.compiler.ir import (
    ArrayDecl,
    BoundaryAccess,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    Program,
    StridedAccess,
)
from repro.core.coloring import ColoringResult
from repro.core.segments import UniformAccessSegment
from repro.sim.engine import EngineOptions, run_program
from repro.sim.tracegen import SimProfile


def program_of(loops, arrays, name="prog"):
    return Program(name, tuple(arrays), (Phase("p", tuple(loops)),))


def partitioned_loop(arrays, units, kind=LoopKind.PARALLEL):
    accesses = tuple(
        PartitionedAccess(a.name, units=units, is_write=(i == 0))
        for i, a in enumerate(arrays)
    )
    return Loop("l", kind, accesses)


class TestColorBinOverflow:
    def test_capacity_overflow_fires_C001(self, tiny_config):
        # 40 pages per processor against 16 colors x 1-way: unavoidable.
        arrays = (ArrayDecl("x", 80 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 80)], arrays)
        report = lint_program(program, tiny_config)
        hits = report.by_rule("C001")
        assert hits and hits[0].severity is Severity.WARNING
        assert "unavoidable at this cache size" in hits[0].message
        assert not hits[0].evidence["avoidable_cpus"]

    def test_fitting_footprint_is_quiet(self, tiny_config):
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 8)], arrays)
        assert not lint_program(program, tiny_config).by_rule("C001")

    def test_stacked_plan_reports_avoidable_overflow(self, tiny_config):
        # A hand-made coloring that stacks a fitting footprint on one bin.
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 8)], arrays)
        ctx = lint_context(program, tiny_config)
        ctx.coloring = ColoringResult(
            segments=[UniformAccessSegment("x", 0, 4, frozenset([0]))],
            colors={page: 0 for page in range(4)},
            num_colors=tiny_config.num_colors,
        )
        hits = lint_context_report(ctx).by_rule("C001")
        assert hits
        assert hits[0].evidence["avoidable_cpus"] == [0]
        assert "different page order could avoid" in hits[0].message

    def test_without_coloring_rule_is_skipped(self, tiny_config):
        arrays = (ArrayDecl("x", 80 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 80)], arrays)
        report = lint_program(program, tiny_config, cdpc=False)
        assert not report.by_rule("C001")


class TestGroupedCollision:
    def test_grouped_pair_stacked_on_one_bin_fires_C002(self, tiny_config):
        arrays = (
            ArrayDecl("a", 4 * tiny_config.page_size),
            ArrayDecl("b", 4 * tiny_config.page_size),
        )
        program = program_of([partitioned_loop(arrays, 4)], arrays)
        ctx = lint_context(program, tiny_config)
        ctx.coloring = ColoringResult(
            segments=[
                UniformAccessSegment("a", 0, 1, frozenset([0])),
                UniformAccessSegment("b", 4, 5, frozenset([0])),
            ],
            colors={0: 5, 4: 5},
            num_colors=tiny_config.num_colors,
        )
        hits = lint_context_report(ctx).by_rule("C002")
        assert hits
        assert hits[0].evidence["pair"] == ["a", "b"]

    def test_cdpc_plan_for_grouped_arrays_is_quiet(self, tiny_config):
        # The real coloring keeps the group apart: no collision finding.
        arrays = (
            ArrayDecl("a", 4 * tiny_config.page_size),
            ArrayDecl("b", 4 * tiny_config.page_size),
        )
        program = program_of([partitioned_loop(arrays, 4)], arrays)
        assert not lint_program(program, tiny_config).by_rule("C002")


class TestUnsummarizableStrided:
    def test_parallel_strided_is_warning(self, tiny_config):
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        loop = Loop("l", LoopKind.PARALLEL,
                    (StridedAccess("x", block_bytes=256),))
        report = lint_program(program_of([loop], arrays), tiny_config)
        hits = report.by_rule("C003")
        assert hits and hits[0].severity is Severity.WARNING
        assert hits[0].array == "x"
        assert hits[0].evidence["pages"] == 8

    def test_suppressed_only_strided_is_info(self, tiny_config):
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        loop = Loop("l", LoopKind.SUPPRESSED,
                    (StridedAccess("x", block_bytes=256),))
        report = lint_program(program_of([loop], arrays), tiny_config)
        hits = report.by_rule("C003")
        assert hits and hits[0].severity is Severity.INFO
        assert report.clean


class TestPaddingMissed:
    def test_unaligned_bases_fire_C004(self, tiny_config):
        arrays = (ArrayDecl("a", 1000), ArrayDecl("b", 1000))
        program = program_of([partitioned_loop(arrays, 4)], arrays)
        report = lint_program(program, tiny_config, aligned=False)
        hits = report.by_rule("C004")
        assert any("cache-line boundary" in d.message for d in hits)

    def test_grouped_same_line_index_fires_C004(self, tiny_config):
        # Unaligned back-to-back layout: b starts exactly one L1-size
        # multiple after a, landing on the same L1 line index.
        size = 2 * tiny_config.l1d.size
        arrays = (ArrayDecl("a", size), ArrayDecl("b", size))
        program = program_of([partitioned_loop(arrays, 8)], arrays)
        report = lint_program(program, tiny_config, aligned=False)
        hits = report.by_rule("C004")
        assert any(d.evidence.get("pair") == ["a", "b"] for d in hits)

    def test_aligned_layout_pass_is_quiet(self, tiny_config):
        size = 2 * tiny_config.l1d.size
        arrays = (ArrayDecl("a", size), ArrayDecl("b", size))
        program = program_of([partitioned_loop(arrays, 8)], arrays)
        assert not lint_program(program, tiny_config).by_rule("C004")


class TestDiagnosticsMachinery:
    def test_span_formatting(self):
        d = Diagnostic("X001", Severity.ERROR, "msg", loop="l", phase="p", array="a")
        assert d.span == "p/l[a]"
        assert Diagnostic("X001", Severity.INFO, "m").span == "<program>"

    def test_report_sorts_most_severe_first(self):
        report = LintReport(program="p")
        report.extend([
            Diagnostic("B001", Severity.INFO, "note"),
            Diagnostic("A002", Severity.ERROR, "boom"),
            Diagnostic("A001", Severity.WARNING, "hmm"),
        ])
        report.sort()
        assert [d.severity for d in report] == [
            Severity.ERROR, Severity.WARNING, Severity.INFO,
        ]

    def test_clean_tracks_warning_threshold(self):
        report = LintReport(program="p")
        assert report.clean
        report.extend([Diagnostic("A001", Severity.INFO, "note")])
        assert report.clean
        report.extend([Diagnostic("A001", Severity.WARNING, "hmm")])
        assert not report.clean

    def test_raise_if_errors(self):
        report = LintReport(program="p")
        report.raise_if_errors()  # no errors: no raise
        report.extend([Diagnostic("A001", Severity.ERROR, "boom")])
        with pytest.raises(LintError, match="1 error"):
            report.raise_if_errors()

    def test_json_round_trip(self):
        report = LintReport(program="p")
        report.extend([
            Diagnostic("A001", Severity.ERROR, "boom", loop="l",
                       evidence={"witness": [0, 1, 2, 3]}),
        ])
        payload = json.loads(report.to_json())
        assert payload["program"] == "p"
        assert payload["num_errors"] == 1
        assert payload["diagnostics"][0]["severity"] == "ERROR"
        assert payload["diagnostics"][0]["evidence"]["witness"] == [0, 1, 2, 3]

    def test_render_text_mentions_counts(self):
        report = LintReport(program="p")
        assert "clean" in report.render_text()
        report.extend([Diagnostic("A001", Severity.WARNING, "hmm",
                                  fix_hint="pad it")])
        text = report.render_text()
        assert "1 warning(s)" in text and "hint: pad it" in text


class TestRegistry:
    def test_default_registry_has_all_documented_rules(self):
        # The affine rules (A001-A004) live outside the registry.
        assert DEFAULT_REGISTRY.ids() == [
            "C001", "C002", "C003", "C004",
            "R001", "R002", "R004", "R005", "R006",
            "S001", "S002", "S003",
        ]
        for rule_id in DEFAULT_REGISTRY.ids():
            rule = DEFAULT_REGISTRY.get(rule_id)
            assert rule.paper_section
            assert rule.family in ("race", "color", "static")
            # Static rules must not run in the engine's default lint gate.
            if rule.family == "static":
                assert rule.needs_static

    def test_duplicate_registration_rejected(self):
        registry = RuleRegistry()

        @registry.register("T001", "t", family="race", paper_section="0")
        def rule(ctx):
            return []

        with pytest.raises(ValueError, match="duplicate"):
            registry.register("T001", "t", family="race", paper_section="0")(rule)

    def test_unknown_family_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(ValueError, match="family"):
            registry.register("T001", "t", family="nope", paper_section="0")

    def test_only_and_skip_selection(self, tiny_config):
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        loop = Loop("l", LoopKind.PARALLEL, (
            StridedAccess("x", block_bytes=256, is_write=True),
            PartitionedAccess("x", units=8),
        ))
        program = program_of([loop], arrays)
        everything = lint_program(program, tiny_config)
        assert everything.by_rule("R002") and everything.by_rule("C003")
        only = lint_program(program, tiny_config, only=["C003"])
        assert {d.rule_id for d in only} == {"C003"}
        skipped = lint_program(program, tiny_config, skip=["R002", "R004"])
        assert not skipped.by_rule("R002")

    def test_unknown_rule_id_raises(self, tiny_config):
        arrays = (ArrayDecl("x", 8 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 8)], arrays)
        with pytest.raises(KeyError, match="Z999"):
            lint_program(program, tiny_config, only=["Z999"])


def racy_program(config):
    arrays = (ArrayDecl("x", 16 * config.page_size),)
    loop = Loop("l", LoopKind.PARALLEL,
                (BoundaryAccess("x", units=16, is_write=True),))
    return program_of([loop], arrays, name="racy")


class TestEngineGate:
    def test_strict_run_refuses_racy_program(self, tiny_config):
        options = EngineOptions(profile=SimProfile.fast(), strict=True)
        with pytest.raises(LintError, match="R001"):
            run_program(racy_program(tiny_config), tiny_config, options)

    def test_default_run_warns_and_proceeds(self, tiny_config):
        options = EngineOptions(profile=SimProfile.fast())
        with pytest.warns(UserWarning, match="static analysis found"):
            result = run_program(racy_program(tiny_config), tiny_config, options)
        assert result.stats is not None

    def test_clean_program_runs_quietly_in_strict_mode(self, tiny_config):
        arrays = (ArrayDecl("x", 16 * tiny_config.page_size),)
        program = program_of([partitioned_loop(arrays, 16)], arrays)
        options = EngineOptions(profile=SimProfile.fast(), strict=True)
        result = run_program(program, tiny_config, options)
        assert result.stats is not None
