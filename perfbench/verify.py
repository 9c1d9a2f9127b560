"""Independent re-measurement of a job's result rows.

Every row's best placement must place each router of the fleet on its
own in-bounds cell, and an independent numpy ``Evaluator`` must measure
exactly the giant-component size and covered-client count the job
reported.  The reference tier is ``dense``, except where the dense
matrices would not fit comfortably (city scale), where the numpy
``sparse`` tier stands in; neither shares code with the compiled tier
that ``engine="auto"`` runs.
"""

from __future__ import annotations

from workloads import Row

#: Above this many matrix cells (N^2 + M * N) the reference is ``sparse``.
DENSE_REFERENCE_CELLS = 1 << 22


def reference_engine(problem) -> str:
    n, m = problem.n_routers, problem.n_clients
    return "dense" if n * n + m * n <= DENSE_REFERENCE_CELLS else "sparse"


def placement_problems(problem, placement) -> list[str]:
    """Invariant breaches of one placement (empty when valid)."""
    cells = [tuple(cell) for cell in placement.cells]
    found = []
    if len(cells) != problem.n_routers:
        found.append(f"{len(cells)} routers placed, fleet has {problem.n_routers}")
    width, height = problem.grid.width, problem.grid.height
    outside = [c for c in cells if not (0 <= c[0] < width and 0 <= c[1] < height)]
    if outside:
        found.append(f"{len(outside)} cells outside the {width}x{height} grid")
    if len(set(cells)) != len(cells):
        found.append(f"{len(cells) - len(set(cells))} shared cells")
    return found


def verify_rows(rows: list[Row]) -> list[str]:
    """One message per failing row."""
    from repro.core.evaluation import Evaluator

    evaluators: dict[int, Evaluator] = {}
    failures = []
    for row in rows:
        found = placement_problems(row.problem, row.placement)
        if not found:
            key = id(row.problem)
            if key not in evaluators:
                evaluators[key] = Evaluator(
                    row.problem, engine=reference_engine(row.problem)
                )
            measured = evaluators[key].evaluate(row.placement)
            if (measured.giant_size, measured.covered_clients) != (row.giant, row.covered):
                found.append(
                    f"reported giant/covered {row.giant}/{row.covered}, "
                    f"re-measured {measured.giant_size}/{measured.covered_clients}"
                )
        if found:
            failures.append(f"{row.label}: " + "; ".join(found))
    return failures
