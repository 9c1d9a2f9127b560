"""One-shot regeneration of every table and figure.

``run_all`` executes the whole evaluation section of the paper —
Tables 1-3, Figures 1-3 (GA initializer study) and Figure 4
(neighborhood search) — and renders each artifact as text and CSV.
Used by the CLI (``wmn-placement reproduce``; the README's Quickstart
shows the paper-scale run).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.config import ExperimentScale, current_scale
from repro.experiments.figures import (
    FigureResult,
    PAPER_GA_FIGURE_NUMBERS,
    figure_from_study,
    run_ns_figure,
)
from repro.experiments.reporting import (
    figure_to_csv,
    format_figure,
    format_table,
    table_to_csv,
)
from repro.experiments.study import run_distribution_study
from repro.experiments.tables import (
    PAPER_TABLE_NUMBERS,
    TableResult,
    table_from_study,
)

__all__ = ["ReproductionReport", "run_all"]


@dataclass(frozen=True)
class ReproductionReport:
    """Every regenerated artifact from one full run."""

    tables: tuple[TableResult, ...]
    figures: tuple[FigureResult, ...]
    scale_name: str
    seed: int

    def render_text(self) -> str:
        """All artifacts as one readable text report.

        Each figure is followed by its convergence analysis (effort to
        reach 50% / 75% connectivity, area under the curve) — the "how
        fast" question the paper asks of the search methods.
        """
        from repro.experiments.analysis import speed_summary

        parts = [
            f"Reproduction report (scale={self.scale_name}, seed={self.seed})",
            "=" * 64,
            "",
        ]
        for table in self.tables:
            parts.append(format_table(table))
            parts.append("")
        for figure in self.figures:
            parts.append(format_figure(figure))
            parts.append("Convergence analysis:")
            parts.append(speed_summary(figure))
            parts.append("")
        return "\n".join(parts)

    def save_csvs(self, directory: "str | Path") -> list[Path]:
        """Write one CSV per artifact into ``directory``; returns paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written: list[Path] = []
        for table in self.tables:
            path = directory / f"table{table.table_number}_{table.distribution}.csv"
            path.write_text(table_to_csv(table))
            written.append(path)
        for figure in self.figures:
            path = directory / f"figure{figure.figure_number}.csv"
            path.write_text(figure_to_csv(figure))
            written.append(path)
        return written


def run_all(
    scale: ExperimentScale | None = None,
    seed: int = 1,
    distributions: tuple[str, ...] = ("normal", "exponential", "weibull"),
    specs: dict | None = None,
    engine: str = "auto",
) -> ReproductionReport:
    """Regenerate Tables 1-3 and Figures 1-4.

    ``specs`` optionally maps distribution names to
    :class:`~repro.instances.generator.InstanceSpec` overrides (smaller
    instances for tests and demos); the catalog instances are used
    otherwise.
    """
    if scale is None:
        scale = current_scale()
    specs = specs or {}
    # Table k and Figure k are two views of the same GA runs (as in the
    # paper), so each distribution's study executes exactly once.
    tables = []
    ga_figures = []
    for distribution in distributions:
        if distribution not in PAPER_TABLE_NUMBERS:
            continue
        study = run_distribution_study(
            distribution,
            scale=scale,
            seed=seed,
            spec=specs.get(distribution),
            engine=engine,
        )
        tables.append(table_from_study(study))
        if distribution in PAPER_GA_FIGURE_NUMBERS:
            ga_figures.append(figure_from_study(study))
    ns_figure = run_ns_figure(
        scale=scale, seed=seed, spec=specs.get("normal"), engine=engine
    )
    return ReproductionReport(
        tables=tuple(tables),
        figures=tuple(ga_figures) + (ns_figure,),
        scale_name=scale.name,
        seed=seed,
    )
