"""Figure 3 — page-level access patterns in virtual-address order.

The paper plots, for tomcatv/swim/hydro2d on 16 processors, which virtual
pages each processor touches: sparse stripes spanning far more address
space than one cache.  We reproduce the quantitative content: per-processor
footprint (pages), positional span, and density (pages/span), showing the
sparsity that defeats a page-coloring policy.
"""

from conftest import BENCH_SCALE, make_config, publish

from repro.analysis.access_maps import footprint_density, page_access_map, va_order_map
from repro.analysis.report import render_table
from repro.compiler.padding import layout_arrays
from repro.compiler.summaries import extract_summary
from repro.workloads import get_workload

WORKLOADS = ("tomcatv", "swim", "hydro2d")
NUM_CPUS = 16


def build_maps():
    config = make_config("sgi_base", NUM_CPUS)
    maps = {}
    for name in WORKLOADS:
        program = get_workload(name, BENCH_SCALE).program
        layout = layout_arrays(
            program.arrays, config.l2.line_size, config.l1d.size,
            groups=program.group_pairs(),
        )
        summary = extract_summary(program, layout)
        access_map = page_access_map(summary, config.page_size, NUM_CPUS)
        maps[name] = (config, access_map)
    return maps


def test_fig3(bench_once):
    maps = bench_once(build_maps)
    rows = []
    for name in WORKLOADS:
        config, access_map = maps[name]
        ordered = va_order_map(access_map)
        cache_pages = config.l2.size // config.page_size
        for cpu in (0, NUM_CPUS // 2, NUM_CPUS - 1):
            pages = sum(1 for _p, cpus in ordered if cpu in cpus)
            density = footprint_density(ordered, cpu)
            span = pages / density if density else 0
            rows.append([name, cpu, pages, int(span), round(density, 3),
                         round(span / cache_pages, 1)])
    publish(
        "fig3_access_patterns_va_order",
        render_table(
            ["bench", "cpu", "pages", "span", "density", "span/cache"], rows
        ),
    )
    # Section 4.2: each processor accesses less than one cache worth of
    # data, but spread over a range significantly larger than the cache.
    for name, cpu, pages, span, density, span_ratio in rows:
        config, _ = maps[name]
        cache_pages = config.l2.size // config.page_size
        assert pages < 1.2 * cache_pages, (name, cpu)
        assert span_ratio > 3.0, (name, cpu)
        assert density < 0.5, (name, cpu)
