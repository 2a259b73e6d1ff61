"""Figure 5 — access patterns in coloring order.

The same three workloads as Figure 3, re-plotted in the page order CDPC
produces: each processor's pages become one dense block.  We verify the
density increase quantitatively and that the mapping is conflict-free
(at most one page per color per processor) at 16 processors, where each
processor's footprint fits within the color space.
"""

from conftest import BENCH_SCALE, make_config, publish

from repro.analysis.access_maps import (
    coloring_order_map,
    conflict_depth,
    footprint_density,
    page_access_map,
    va_order_map,
)
from repro.analysis.report import render_table
from repro.compiler.padding import layout_arrays
from repro.compiler.summaries import extract_summary
from repro.core.coloring import generate_page_colors
from repro.workloads import get_workload

WORKLOADS = ("tomcatv", "swim", "hydro2d")
NUM_CPUS = 16


def build():
    config = make_config("sgi_base", NUM_CPUS)
    out = {}
    for name in WORKLOADS:
        program = get_workload(name, BENCH_SCALE).program
        layout = layout_arrays(
            program.arrays, config.l2.line_size, config.l1d.size,
            groups=program.group_pairs(),
        )
        summary = extract_summary(program, layout)
        access_map = page_access_map(summary, config.page_size, NUM_CPUS)
        coloring = generate_page_colors(
            summary, config.page_size, config.num_colors, NUM_CPUS
        )
        out[name] = (config, access_map, coloring)
    return out


def test_fig5(bench_once):
    data = bench_once(build)
    rows = []
    for name in WORKLOADS:
        config, access_map, coloring = data[name]
        va = va_order_map(access_map)
        cdpc = coloring_order_map(coloring, access_map)
        depth = conflict_depth(coloring.colors, access_map, config.num_colors)
        for cpu in (0, NUM_CPUS // 2, NUM_CPUS - 1):
            rows.append(
                [name, cpu,
                 round(footprint_density(va, cpu), 3),
                 round(footprint_density(cdpc, cpu), 3),
                 depth]
            )
    publish(
        "fig5_coloring_order",
        render_table(
            ["bench", "cpu", "density (VA order)", "density (CDPC order)",
             "max pages/color"], rows
        ),
    )
    for name, cpu, va_density, cdpc_density, depth in rows:
        # Figure 5: "the access patterns are significantly denser".  Edge
        # processors under *rotate* communication own pages at both ends of
        # every array (a cycle no linear order can keep adjacent), so the
        # positional-density check applies to interior processors; the
        # conflict-depth bound covers everyone.
        if cpu == NUM_CPUS // 2:
            assert cdpc_density > 3 * va_density, (name, cpu)
            assert cdpc_density > 0.9, (name, cpu)
        # At most one extra page per color from shared boundary pages.
        assert depth <= 2, (name, cpu)
    # tomcatv (shift communication, fits 16 ways): fully conflict-free.
    assert rows[0][4] == 1
