#!/usr/bin/env python3
"""Render the paper's Figures 3 and 5 as ASCII dot plots.

Figure 3: which virtual pages each processor touches, in virtual-address
order — sparse stripes spanning many cache-sized extents.  Figure 5: the
same accesses in CDPC's coloring order — one dense block per processor.

Run:  python examples/figure3_and_5.py [workload] [num_cpus]
"""

import sys

from repro import sgi_base
from repro.analysis.access_maps import (
    coloring_order_map,
    page_access_map,
    va_order_map,
)
from repro.analysis.access_plot import render_access_map
from repro.compiler.padding import layout_arrays
from repro.compiler.summaries import extract_summary
from repro.core.coloring import generate_page_colors
from repro.workloads import get_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "tomcatv"
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 16

    config = sgi_base(num_cpus).scaled(16)
    program = get_workload(workload, config.scale_factor).program
    layout = layout_arrays(
        program.arrays, config.l2.line_size, config.l1d.size,
        groups=program.group_pairs(),
    )
    summary = extract_summary(program, layout)
    access_map = page_access_map(summary, config.page_size, num_cpus)
    coloring = generate_page_colors(
        summary, config.page_size, config.num_colors, num_cpus
    )
    cache_pages = config.l2.size // config.page_size

    print(f"Figure 3 — {workload}, {num_cpus} CPUs, virtual-address order")
    print(render_access_map(va_order_map(access_map), num_cpus,
                            cache_pages=cache_pages))
    print()
    print(f"Figure 5 — same accesses in CDPC coloring order")
    print(render_access_map(coloring_order_map(coloring, access_map), num_cpus,
                            cache_pages=cache_pages))


if __name__ == "__main__":
    main()
