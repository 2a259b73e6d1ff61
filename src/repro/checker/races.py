"""Affine dependence & race detection (rule family ``race``).

The paper's premise (Sections 3.2, 5.1) is that SUIF's static analyses
make per-processor access patterns *provably* predictable.  This module
closes the fidelity gap between that premise and our declarative workload
models: it proves — or refutes — that a loop declared ``PARALLEL`` is
actually free of cross-processor conflicting accesses under its static
schedule.

Two layers of analysis:

* **Affine layer** (:func:`test_cross_processor`, :func:`check_nest`,
  :func:`lint_affine`) — an exact GCD/Banerjee-style dependence test over
  :class:`~repro.compiler.affine.AffineRef` subscript pairs of an
  :class:`~repro.compiler.affine.AffineNest`.  The distributed ``i`` loop
  is mapped to processors with the same
  :func:`~repro.common.iteration_ranges` the simulator's scheduler uses,
  so "cross-processor" means exactly what the machine would execute.  The
  test first tries to *refute* a dependence (integer-infeasibility via
  GCD, bounds-infeasibility via Banerjee limits), then searches for a
  concrete witness ``(i1, j1) / (i2, j2)`` on two different processors.
  The search is exact for any nest whose subscripts link the distributed
  index through one equation (every shape the compiler front-end can
  produce) and falls back to a capped pair enumeration otherwise; if the
  cap is exceeded the verdict is conservatively ``unknown`` — a seeded
  race is never reported clean.

* **Declarative IR layer** (rules ``R001``-``R006``) — the same question
  asked of :class:`~repro.compiler.ir.Loop` access declarations: byte
  ranges per processor are materialized from the declarations
  (partitioned chunks, boundary strips, whole-array spans) and
  intersected across processors, flagging loops mis-declared ``PARALLEL``
  (ERROR), false sharing at unaligned partition boundaries (WARNING),
  schedule load imbalance such as applu's 33-on-16 (WARNING), and loops
  that look needlessly ``SUPPRESSED`` (INFO).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.checker.diagnostics import Diagnostic, LintReport, Severity
from repro.checker.registry import LintContext, register
from repro.common import Direction, Partitioning, iteration_ranges
from repro.compiler.affine import AffineNest, AffineProgram, AffineRef, Subscript
from repro.compiler.ir import (
    Access,
    BoundaryAccess,
    InstructionStream,
    Loop,
    LoopKind,
    PartitionedAccess,
    Phase,
    StridedAccess,
    WholeArrayAccess,
)
from repro.compiler.parallelize import schedule_loop
from repro.sim.tracegen import _is_upper, _neighbour_list

__all__ = [
    "DependenceVerdict",
    "check_nest",
    "lint_affine",
    "test_cross_processor",
]

#: Pair-enumeration budget of the exact search; beyond it the verdict is
#: a conservative ``unknown`` (never ``clean``).
MAX_PAIRS = 1_000_000

#: Imbalance fraction at which R005 warns (applu's 33-on-16 is 0.3125).
IMBALANCE_THRESHOLD = 0.15

#: Grain heuristics for the needlessly-SUPPRESSED advisory (R006/A004).
SUPPRESSED_MIN_IPW = 6.0
SUPPRESSED_MIN_ITER_FACTOR = 2


# ----------------------------------------------------------------------
# Integer machinery: extended gcd, bounded 2-variable diophantine solve.


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(|a|, |b|) >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for positive ``b``."""
    return -(-a // b)


_INF = 1 << 62


def _t_range(start: int, stride: int, n: int) -> Optional[tuple[int, int]]:
    """Integer ``t`` interval with ``0 <= start + stride*t < n``."""
    if stride == 0:
        return (-_INF, _INF) if 0 <= start < n else None
    if stride > 0:
        return (_ceil_div(-start, stride), (n - 1 - start) // stride)
    s = -stride
    return (_ceil_div(start - (n - 1), s), start // s)


def _solve_2var(u: int, v: int, w: int, n1: int, n2: int) -> Optional[tuple[int, int]]:
    """Find ``(x, y)`` with ``u*x - v*y == w``, ``0 <= x < n1``, ``0 <= y < n2``."""
    if n1 <= 0 or n2 <= 0:
        return None
    if u == 0 and v == 0:
        return (0, 0) if w == 0 else None
    if u == 0:
        if w % v:
            return None
        y = -(w // v)
        return (0, y) if 0 <= y < n2 else None
    if v == 0:
        if w % u:
            return None
        x = w // u
        return (x, 0) if 0 <= x < n1 else None
    g, p, q = _egcd(u, -v)
    if w % g:
        return None
    scale = w // g
    x0, y0 = p * scale, q * scale  # u*x0 - v*y0 == w
    sx, sy = v // g, u // g  # x = x0 + sx*t, y = y0 + sy*t stays a solution
    r1 = _t_range(x0, sx, n1)
    r2 = _t_range(y0, sy, n2)
    if r1 is None or r2 is None:
        return None
    t_lo = max(r1[0], r2[0])
    t_hi = min(r1[1], r2[1])
    if t_lo > t_hi:
        return None
    return (x0 + sx * t_lo, y0 + sy * t_lo)


def _eq_unsolvable(
    coeffs: tuple[int, int, int, int],
    rhs: int,
    bounds: tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]],
) -> bool:
    """GCD + Banerjee-bounds refutation of one linear equation.

    ``sum(coeffs[k] * x[k]) == rhs`` over ``bounds[k] = (lo, hi)`` with
    ``hi`` exclusive.  True means *provably* no integer solution.
    """
    nonzero = [abs(c) for c in coeffs if c]
    if not nonzero:
        return rhs != 0
    if rhs % math.gcd(*nonzero):
        return True
    lo = hi = 0
    for c, (b_lo, b_hi) in zip(coeffs, bounds):
        if c > 0:
            lo += c * b_lo
            hi += c * (b_hi - 1)
        elif c < 0:
            lo += c * (b_hi - 1)
            hi += c * b_lo
    return not (lo <= rhs <= hi)


# ----------------------------------------------------------------------
# The affine cross-processor dependence test.


@dataclass(frozen=True)
class DependenceVerdict:
    """Outcome of one reference-pair dependence test.

    ``status`` is ``"clean"`` (proven no cross-processor overlap),
    ``"race"`` (a concrete witness was constructed) or ``"unknown"``
    (the exact search exceeded its budget; treated conservatively).
    """

    status: str
    ref_a: AffineRef
    ref_b: AffineRef
    #: ``(i1, j1, i2, j2)`` witness iterations for a ``race`` verdict.
    witness: Optional[tuple[int, int, int, int]] = None
    #: Processors executing the witness iterations.
    cpus: Optional[tuple[int, int]] = None

    @property
    def is_write_write(self) -> bool:
        return self.ref_a.is_write and self.ref_b.is_write


def _cpu_of_iteration(nest: AffineNest, num_cpus: int) -> list[int]:
    ranges = iteration_ranges(
        nest.i_extent, num_cpus, nest.partitioning, nest.direction
    )
    cpu_of = [0] * nest.i_extent
    for cpu, (lo, hi) in enumerate(ranges):
        for i in range(lo, hi):
            cpu_of[i] = cpu
    return cpu_of


def _subscript_value(sub: Subscript, i: int, j: int) -> int:
    return sub.i_coef * i + sub.j_coef * j + sub.const


def _witness_is_valid(
    ref_a: AffineRef, ref_b: AffineRef, witness: tuple[int, int, int, int]
) -> bool:
    i1, j1, i2, j2 = witness
    return (
        _subscript_value(ref_a.row, i1, j1) == _subscript_value(ref_b.row, i2, j2)
        and _subscript_value(ref_a.col, i1, j1) == _subscript_value(ref_b.col, i2, j2)
    )


def test_cross_processor(
    ref_a: AffineRef,
    ref_b: AffineRef,
    nest: AffineNest,
    num_cpus: int,
    max_pairs: int = MAX_PAIRS,
) -> DependenceVerdict:
    """Can ``ref_a`` on one processor touch an element ``ref_b`` touches
    on a *different* processor?

    Element equality of ``A(row_a(i1,j1), col_a(i1,j1))`` and
    ``A(row_b(i2,j2), col_b(i2,j2))`` is two linear equations over the
    four iteration variables; processor assignment of ``i1``/``i2``
    follows the nest's static schedule.
    """
    if ref_a.array != ref_b.array:
        raise ValueError("dependence test requires references to one array")
    if num_cpus < 2 or nest.i_extent < 2:
        return DependenceVerdict("clean", ref_a, ref_b)

    I_ext, J_ext = nest.i_extent, nest.j_extent
    a1, b1, c1 = ref_a.row.i_coef, ref_a.row.j_coef, ref_a.row.const
    d1, e1, f1 = ref_a.col.i_coef, ref_a.col.j_coef, ref_a.col.const
    a2, b2, c2 = ref_b.row.i_coef, ref_b.row.j_coef, ref_b.row.const
    d2, e2, f2 = ref_b.col.i_coef, ref_b.col.j_coef, ref_b.col.const

    bounds = ((0, I_ext), (0, J_ext), (0, I_ext), (0, J_ext))
    if _eq_unsolvable((a1, b1, -a2, -b2), c2 - c1, bounds):
        return DependenceVerdict("clean", ref_a, ref_b)
    if _eq_unsolvable((d1, e1, -d2, -e2), f2 - f1, bounds):
        return DependenceVerdict("clean", ref_a, ref_b)

    cpu_of = _cpu_of_iteration(nest, num_cpus)

    def fixed_i_solution(i1: int, i2: int) -> Optional[tuple[int, int]]:
        """Solve the remaining 2x2 system in (j1, j2) for fixed i's."""
        rhs_row = (a2 * i2 + c2) - (a1 * i1 + c1)
        rhs_col = (d2 * i2 + f2) - (d1 * i1 + f1)
        det = b2 * e1 - b1 * e2  # det of [[b1, -b2], [e1, -e2]]
        if det != 0:
            num_j1 = -rhs_row * e2 + b2 * rhs_col
            num_j2 = b1 * rhs_col - e1 * rhs_row
            if num_j1 % det or num_j2 % det:
                return None
            j1, j2 = num_j1 // det, num_j2 // det
            if 0 <= j1 < J_ext and 0 <= j2 < J_ext:
                return (j1, j2)
            return None
        # Degenerate system: rows are proportional (or j-free).
        if b1 == 0 and b2 == 0:
            if rhs_row != 0:
                return None
            return _solve_2var(e1, e2, rhs_col, J_ext, J_ext)
        if e1 == 0 and e2 == 0:
            if rhs_col != 0:
                return None
            return _solve_2var(b1, b2, rhs_row, J_ext, J_ext)
        if b1 * rhs_col != e1 * rhs_row or b2 * rhs_col != e2 * rhs_row:
            return None
        return _solve_2var(b1, b2, rhs_row, J_ext, J_ext)

    def verdict_for(i1: int, i2: int) -> Optional[DependenceVerdict]:
        if not (0 <= i1 < I_ext and 0 <= i2 < I_ext):
            return None
        if cpu_of[i1] == cpu_of[i2]:
            return None
        sol = fixed_i_solution(i1, i2)
        if sol is None:
            return None
        witness = (i1, sol[0], i2, sol[1])
        assert _witness_is_valid(ref_a, ref_b, witness)
        return DependenceVerdict(
            "race", ref_a, ref_b, witness, (cpu_of[i1], cpu_of[i2])
        )

    # Linked search: one equation free of j ties i1 to i2, making the
    # search O(I).  This covers every shape `classify_ref` accepts.
    if e1 == 0 and e2 == 0 and (d1 or d2):
        if d2 != 0:
            for i1 in range(I_ext):
                num = d1 * i1 + f1 - f2
                if num % d2:
                    continue
                found = verdict_for(i1, num // d2)
                if found:
                    return found
            return DependenceVerdict("clean", ref_a, ref_b)
        # d2 == 0, d1 != 0: i1 is pinned by the column equation.
        num = f2 - f1
        if num % d1:
            return DependenceVerdict("clean", ref_a, ref_b)
        i1 = num // d1
        for i2 in range(I_ext):
            found = verdict_for(i1, i2)
            if found:
                return found
        return DependenceVerdict("clean", ref_a, ref_b)
    if b1 == 0 and b2 == 0 and (a1 or a2):
        if a2 != 0:
            for i1 in range(I_ext):
                num = a1 * i1 + c1 - c2
                if num % a2:
                    continue
                found = verdict_for(i1, num // a2)
                if found:
                    return found
            return DependenceVerdict("clean", ref_a, ref_b)
        num = c2 - c1
        if num % a1:
            return DependenceVerdict("clean", ref_a, ref_b)
        i1 = num // a1
        for i2 in range(I_ext):
            found = verdict_for(i1, i2)
            if found:
                return found
        return DependenceVerdict("clean", ref_a, ref_b)

    # General search: capped pair enumeration; O(1) solve per pair.
    if I_ext * I_ext > max_pairs:
        return DependenceVerdict("unknown", ref_a, ref_b)
    for i1 in range(I_ext):
        for i2 in range(I_ext):
            found = verdict_for(i1, i2)
            if found:
                return found
    return DependenceVerdict("clean", ref_a, ref_b)


def _ref_pairs(nest: AffineNest) -> Iterator[tuple[AffineRef, AffineRef]]:
    """Unordered reference pairs to the same array with >= 1 write.

    A write reference pairs with itself: two *different* processors
    executing the same static reference can still touch one element.
    """
    refs = nest.refs
    for idx_a, ref_a in enumerate(refs):
        for ref_b in refs[idx_a:]:
            if ref_a.array != ref_b.array:
                continue
            if ref_a.is_write or ref_b.is_write:
                yield ref_a, ref_b


def _describe_ref(ref: AffineRef) -> str:
    def term(sub: Subscript) -> str:
        parts = []
        if sub.i_coef:
            parts.append(f"{sub.i_coef}i" if sub.i_coef != 1 else "i")
        if sub.j_coef:
            parts.append(f"{sub.j_coef}j" if sub.j_coef != 1 else "j")
        if sub.const or not parts:
            parts.append(str(sub.const))
        return "+".join(parts).replace("+-", "-")

    mode = "write" if ref.is_write else "read"
    return f"{mode} {ref.array}({term(ref.row)}, {term(ref.col)})"


def check_nest(
    nest: AffineNest,
    num_cpus: int,
    phase: Optional[str] = None,
    max_pairs: int = MAX_PAIRS,
) -> list[Diagnostic]:
    """Race-check one affine nest against its declared execution mode."""
    findings: list[Diagnostic] = []
    if num_cpus < 2:
        return findings
    verdicts = [
        test_cross_processor(ref_a, ref_b, nest, num_cpus, max_pairs)
        for ref_a, ref_b in _ref_pairs(nest)
    ]
    races = [v for v in verdicts if v.status == "race"]
    unknowns = [v for v in verdicts if v.status == "unknown"]

    if nest.kind is LoopKind.PARALLEL:
        for verdict in races:
            i1, j1, i2, j2 = verdict.witness  # type: ignore[misc]
            kind = "write-write" if verdict.is_write_write else "read-write"
            rule = "A001" if verdict.is_write_write else "A002"
            findings.append(
                Diagnostic(
                    rule_id=rule,
                    severity=Severity.ERROR,
                    loop=nest.name,
                    phase=phase,
                    array=verdict.ref_a.array,
                    message=(
                        f"loop declared PARALLEL has a cross-processor {kind} "
                        f"overlap: {_describe_ref(verdict.ref_a)} at (i={i1}, j={j1}) "
                        f"on cpu {verdict.cpus[0]} and "  # type: ignore[index]
                        f"{_describe_ref(verdict.ref_b)} at (i={i2}, j={j2}) "
                        f"on cpu {verdict.cpus[1]} "  # type: ignore[index]
                        f"touch the same element"
                    ),
                    fix_hint=(
                        "declare the loop SEQUENTIAL/SUPPRESSED, or privatize "
                        "the overlapping region"
                    ),
                    evidence={
                        "witness": [i1, j1, i2, j2],
                        "cpus": list(verdict.cpus),  # type: ignore[arg-type]
                    },
                )
            )
        for verdict in unknowns:
            findings.append(
                Diagnostic(
                    rule_id="A003",
                    severity=Severity.WARNING,
                    loop=nest.name,
                    phase=phase,
                    array=verdict.ref_a.array,
                    message=(
                        f"cannot prove PARALLEL loop race-free: the dependence "
                        f"test for {_describe_ref(verdict.ref_a)} vs "
                        f"{_describe_ref(verdict.ref_b)} exceeded its search "
                        f"budget"
                    ),
                    fix_hint="raise max_pairs or simplify the subscripts",
                )
            )
    elif nest.kind is LoopKind.SUPPRESSED:
        if (
            not races
            and not unknowns
            and nest.i_extent >= SUPPRESSED_MIN_ITER_FACTOR * num_cpus
            and nest.instructions_per_point >= SUPPRESSED_MIN_IPW
        ):
            findings.append(
                Diagnostic(
                    rule_id="A004",
                    severity=Severity.INFO,
                    loop=nest.name,
                    phase=phase,
                    message=(
                        f"loop is SUPPRESSED but provably race-free with "
                        f"{nest.i_extent} coarse iterations on {num_cpus} "
                        f"processors; it looks profitably parallelizable"
                    ),
                    fix_hint="declare the loop PARALLEL",
                )
            )
    return findings


def lint_affine(program: AffineProgram, num_cpus: int) -> LintReport:
    """Run the race detector over every nest of an affine program."""
    report = LintReport(program=program.name)
    for phase in program.phases:
        for nest in phase.nests:
            report.extend(check_nest(nest, num_cpus, phase=phase.name))
    report.sort()
    return report


# ----------------------------------------------------------------------
# Declarative-IR rules (registered in the default registry).


def _boundary_bytes(access: BoundaryAccess, size: int) -> int:
    unit = max(1, size // max(access.units, 1))
    return max(8, int(unit * access.boundary_fraction))


def _partition_spans(
    units: int,
    size: int,
    partitioning: Partitioning,
    direction: Direction,
    num_cpus: int,
) -> list[tuple[int, int]]:
    """Per-cpu owned byte range (relative to the array base)."""
    unit = max(1, size // max(units, 1))
    total_units = -(-size // unit)
    spans = []
    for lo_u, hi_u in iteration_ranges(total_units, num_cpus, partitioning, direction):
        lo = lo_u * unit
        hi = min(hi_u * unit, size)
        spans.append((lo, max(lo, hi)))
    return spans


def _access_cpu_spans(
    access: Access, size: int, num_cpus: int
) -> Optional[list[list[tuple[int, int]]]]:
    """Byte intervals each processor touches, or None if not interval-shaped.

    Strided accesses and instruction streams return None and are handled
    by dedicated logic.
    """
    if isinstance(access, PartitionedAccess):
        owned = _partition_spans(
            access.units, size, access.partitioning, access.direction, num_cpus
        )
        return [[span] for span in owned]
    if isinstance(access, BoundaryAccess):
        owned = _partition_spans(
            access.units, size, access.partitioning, access.direction, num_cpus
        )
        boundary = _boundary_bytes(access, size)
        spans: list[list[tuple[int, int]]] = [[span] for span in owned]
        for cpu in range(num_cpus):
            for neighbour in _neighbour_list(access.comm, cpu, num_cpus):
                n_lo, n_hi = owned[neighbour]
                if n_hi <= n_lo:
                    continue
                if _is_upper(cpu, neighbour, num_cpus, access.comm):
                    strip = (n_lo, min(n_lo + boundary, n_hi))
                else:
                    strip = (max(n_hi - boundary, n_lo), n_hi)
                if strip[1] > strip[0]:
                    spans[cpu].append(strip)
        return spans
    if isinstance(access, WholeArrayAccess):
        return [[(0, size)] for _ in range(num_cpus)]
    return None


def _spans_overlap(
    spans_a: list[list[tuple[int, int]]], spans_b: list[list[tuple[int, int]]]
) -> Optional[tuple[int, int]]:
    """First (cpu_a, cpu_b) pair, a != b, whose intervals intersect."""
    num_cpus = len(spans_a)
    for cpu_a in range(num_cpus):
        for cpu_b in range(num_cpus):
            if cpu_a == cpu_b:
                continue
            for lo_a, hi_a in spans_a[cpu_a]:
                for lo_b, hi_b in spans_b[cpu_b]:
                    if lo_a < hi_b and lo_b < hi_a:
                        return (cpu_a, cpu_b)
    return None


def _mode(access: Access) -> str:
    return "write" if getattr(access, "is_write", False) else "read"


def _access_kind(access: Access) -> str:
    return type(access).__name__


def _iter_parallel_loops(ctx: LintContext) -> Iterator[tuple[Phase, Loop]]:
    for phase in ctx.program.phases:
        for loop in phase.loops:
            if loop.kind is LoopKind.PARALLEL:
                yield phase, loop


@register(
    "R001",
    "Cross-processor overlap in a PARALLEL loop",
    family="race",
    paper_section="3.2, 5.1",
)
def rule_parallel_overlap(ctx: LintContext) -> Iterator[Diagnostic]:
    """Conflicting accesses from two processors in one parallel loop.

    Materializes the per-processor byte ranges each declaration implies
    (partition chunks, boundary strips, whole-array spans) and intersects
    them across processors for every same-array access pair with at least
    one write — a boundary *write*, a whole-array write, or mismatched
    partitionings all surface here.
    """
    if ctx.num_cpus < 2:
        return
    for phase, loop in _iter_parallel_loops(ctx):
        accesses = [a for a in loop.accesses if not isinstance(a, InstructionStream)]
        for idx_a, acc_a in enumerate(accesses):
            for acc_b in accesses[idx_a:]:
                array = getattr(acc_a, "array", None)
                if array is None or getattr(acc_b, "array", None) != array:
                    continue
                if not (acc_a.is_write or acc_b.is_write):
                    continue
                if isinstance(acc_a, StridedAccess) or isinstance(acc_b, StridedAccess):
                    continue  # handled by R002
                size = ctx.layout.sizes[array]
                spans_a = _access_cpu_spans(acc_a, size, ctx.num_cpus)
                spans_b = _access_cpu_spans(acc_b, size, ctx.num_cpus)
                if spans_a is None or spans_b is None:
                    continue
                hit = _spans_overlap(spans_a, spans_b)
                if hit is None:
                    continue
                write_write = acc_a.is_write and acc_b.is_write
                kind = "write-write" if write_write else "read-write"
                yield Diagnostic(
                    rule_id="R001",
                    severity=Severity.ERROR,
                    loop=loop.name,
                    phase=phase.name,
                    array=array,
                    message=(
                        f"loop declared PARALLEL has a cross-processor {kind} "
                        f"overlap on '{array}': the "
                        f"{_access_kind(acc_a)} ({_mode(acc_a)}) of cpu {hit[0]} "
                        f"intersects the {_access_kind(acc_b)} "
                        f"({_mode(acc_b)}) of cpu {hit[1]}"
                    ),
                    fix_hint=(
                        "declare the loop SEQUENTIAL/SUPPRESSED, or make the "
                        "conflicting access read-only / privatized"
                    ),
                    evidence={"cpus": list(hit)},
                )


@register(
    "R002",
    "Strided access conflicting with another access form",
    family="race",
    paper_section="5.1, 6.1",
)
def rule_strided_conflicts(ctx: LintContext) -> Iterator[Diagnostic]:
    """Cyclic (strided) footprints spread over the whole array.

    A strided access is race-free against itself (each processor owns
    every P-th block), but its footprint interleaves through every other
    processor's partition — so pairing it with *any* other access form on
    the same array, with a write on either side, is a cross-processor
    overlap.  Two strided accesses with different block sizes likewise
    misalign their ownership patterns.
    """
    if ctx.num_cpus < 2:
        return
    for phase, loop in _iter_parallel_loops(ctx):
        accesses = [a for a in loop.accesses if not isinstance(a, InstructionStream)]
        for idx_a, acc_a in enumerate(accesses):
            for acc_b in accesses[idx_a + 1 :]:
                array = getattr(acc_a, "array", None)
                if array is None or getattr(acc_b, "array", None) != array:
                    continue
                if not (acc_a.is_write or acc_b.is_write):
                    continue
                strided_a = isinstance(acc_a, StridedAccess)
                strided_b = isinstance(acc_b, StridedAccess)
                if not (strided_a or strided_b):
                    continue
                if strided_a and strided_b:
                    if acc_a.block_bytes == acc_b.block_bytes:
                        continue  # identical interleaving: same owner per block
                    detail = (
                        f"two strided accesses with different block sizes "
                        f"({acc_a.block_bytes} vs {acc_b.block_bytes} bytes) "
                        f"assign the same bytes to different processors"
                    )
                else:
                    other = acc_b if strided_a else acc_a
                    detail = (
                        f"a strided access interleaves through every "
                        f"processor's partition while a "
                        f"{_access_kind(other)} ({_mode(other)}) also touches "
                        f"'{array}'"
                    )
                yield Diagnostic(
                    rule_id="R002",
                    severity=Severity.ERROR,
                    loop=loop.name,
                    phase=phase.name,
                    array=array,
                    message=(
                        f"loop declared PARALLEL has a cross-processor overlap "
                        f"on '{array}': {detail}"
                    ),
                    fix_hint=(
                        "restructure to one access form per array, or declare "
                        "the loop SUPPRESSED"
                    ),
                )


@register(
    "R004",
    "False sharing at unaligned partition boundaries",
    family="race",
    paper_section="5.4",
)
def rule_false_sharing(ctx: LintContext) -> Iterator[Diagnostic]:
    """Written partition boundaries that split a cache line.

    Section 5.4's alignment measure exists precisely so that processors
    "operate on multiples of the line size"; a written partition whose
    per-processor boundary falls mid-line ping-pongs that line between
    two owners.
    """
    if ctx.num_cpus < 2:
        return
    line = ctx.config.l2.line_size
    for phase, loop in _iter_parallel_loops(ctx):
        for access in loop.accesses:
            if not getattr(access, "is_write", False):
                continue
            array = getattr(access, "array", None)
            if array is None:
                continue
            base = ctx.layout.base_of(array)
            if isinstance(access, StridedAccess):
                if access.block_bytes % line or base % line:
                    yield Diagnostic(
                        rule_id="R004",
                        severity=Severity.WARNING,
                        loop=loop.name,
                        phase=phase.name,
                        array=array,
                        message=(
                            f"strided write with a {access.block_bytes}-byte "
                            f"interleave block that is not a multiple of the "
                            f"{line}-byte cache line: adjacent processors "
                            f"share boundary lines"
                        ),
                        fix_hint="round the interleave block to the line size",
                    )
                continue
            if not isinstance(access, (PartitionedAccess, BoundaryAccess)):
                continue
            size = ctx.layout.sizes[array]
            spans = _partition_spans(
                access.units, size, access.partitioning, access.direction,
                ctx.num_cpus,
            )
            misaligned = sorted(
                {
                    (base + lo) % line
                    for lo, hi in spans
                    if hi > lo and lo > 0 and (base + lo) % line
                }
            )
            if misaligned:
                yield Diagnostic(
                    rule_id="R004",
                    severity=Severity.WARNING,
                    loop=loop.name,
                    phase=phase.name,
                    array=array,
                    message=(
                        f"written partition boundaries of '{array}' are not "
                        f"aligned to the {line}-byte cache line "
                        f"(offsets {misaligned}): neighbouring processors "
                        f"false-share the boundary lines"
                    ),
                    fix_hint=(
                        "pad the partition unit (or the array) to a line "
                        "multiple"
                    ),
                )


@register(
    "R005",
    "Static schedule load imbalance",
    family="race",
    paper_section="4.1",
)
def rule_schedule_imbalance(ctx: LintContext) -> Iterator[Diagnostic]:
    """Iteration counts that waste processors under the static schedule.

    The applu example of Section 4.1: 33 iterations on 16 processors
    under a blocked partitioning leave five processors idle.
    """
    if ctx.num_cpus < 2:
        return
    for phase, loop in _iter_parallel_loops(ctx):
        schedule = schedule_loop(loop, ctx.num_cpus)
        fraction = schedule.imbalance_fraction()
        if fraction < IMBALANCE_THRESHOLD:
            continue
        counts = [schedule.iterations_of(cpu) for cpu in range(ctx.num_cpus)]
        idle = sum(1 for c in counts if c == 0)
        yield Diagnostic(
            rule_id="R005",
            severity=Severity.WARNING,
            loop=loop.name,
            phase=phase.name,
            message=(
                f"{loop.effective_iterations} iterations on {ctx.num_cpus} "
                f"processors lose {fraction:.0%} of parallel capacity to "
                f"load imbalance"
                + (f" ({idle} processors get no work)" if idle else "")
            ),
            fix_hint=(
                "choose an iteration count divisible by the processor count, "
                "or switch to an even partitioning"
            ),
            evidence={"imbalance": round(fraction, 4), "counts": counts},
        )


@register(
    "R006",
    "Needlessly SUPPRESSED loop",
    family="race",
    paper_section="4.1 (Figure 2)",
)
def rule_needlessly_suppressed(ctx: LintContext) -> Iterator[Diagnostic]:
    """Coarse-grain, provably race-free loops running on the master only."""
    if ctx.num_cpus < 2:
        return
    for phase in ctx.program.phases:
        for loop in phase.loops:
            if loop.kind is not LoopKind.SUPPRESSED:
                continue
            if any(isinstance(a, StridedAccess) for a in loop.accesses):
                continue  # gather/scatter order: legitimately suppressed
            if loop.effective_iterations < SUPPRESSED_MIN_ITER_FACTOR * ctx.num_cpus:
                continue
            if loop.instructions_per_word < SUPPRESSED_MIN_IPW:
                continue
            if _loop_has_overlap(ctx, loop):
                continue
            yield Diagnostic(
                rule_id="R006",
                severity=Severity.INFO,
                loop=loop.name,
                phase=phase.name,
                message=(
                    f"loop is SUPPRESSED but race-free with "
                    f"{loop.effective_iterations} coarse iterations "
                    f"({loop.instructions_per_word:.1f} instructions/word) on "
                    f"{ctx.num_cpus} processors; it looks profitably "
                    f"parallelizable"
                ),
                fix_hint="declare the loop PARALLEL",
            )


def _loop_has_overlap(ctx: LintContext, loop: Loop) -> bool:
    """Would R001 fire if this loop ran parallel?"""
    accesses = [a for a in loop.accesses if not isinstance(a, InstructionStream)]
    for idx_a, acc_a in enumerate(accesses):
        for acc_b in accesses[idx_a:]:
            array = getattr(acc_a, "array", None)
            if array is None or getattr(acc_b, "array", None) != array:
                continue
            if not (acc_a.is_write or acc_b.is_write):
                continue
            size = ctx.layout.sizes[array]
            spans_a = _access_cpu_spans(acc_a, size, ctx.num_cpus)
            spans_b = _access_cpu_spans(acc_b, size, ctx.num_cpus)
            if spans_a is None or spans_b is None:
                return True  # conservatively assume overlap
            if _spans_overlap(spans_a, spans_b) is not None:
                return True
    return False
