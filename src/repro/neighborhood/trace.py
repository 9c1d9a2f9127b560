"""Search traces and results.

Figure 4 of the paper plots "the evolution of the size of the giant
component" against "nb phases" of neighborhood search.  Every search in
this subpackage records a :class:`SearchTrace`: one :class:`PhaseRecord`
per phase with the metrics of the incumbent solution, ready to be
printed as the figure's series.  A run returns its trace and best
solution as a :class:`SearchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.evaluation import Evaluation

__all__ = ["PhaseRecord", "SearchResult", "SearchTrace"]


@dataclass(frozen=True, slots=True)
class PhaseRecord:
    """The incumbent's state at the end of one search phase."""

    phase: int
    giant_size: int
    covered_clients: int
    fitness: float
    improved: bool
    n_evaluations: int

    def as_dict(self) -> dict:
        """Plain-dict form for serialization and reporting."""
        return {
            "phase": self.phase,
            "giant_size": self.giant_size,
            "covered_clients": self.covered_clients,
            "fitness": self.fitness,
            "improved": self.improved,
            "n_evaluations": self.n_evaluations,
        }


@dataclass
class SearchTrace:
    """Phase-by-phase history of one neighborhood search run."""

    records: list[PhaseRecord] = field(default_factory=list)

    def append(self, record: PhaseRecord) -> None:
        """Add the next phase record (phases must arrive in order)."""
        if self.records and record.phase <= self.records[-1].phase:
            raise ValueError(
                f"phase {record.phase} out of order after "
                f"{self.records[-1].phase}"
            )
        self.records.append(record)

    def record_phase(
        self, phase: int, evaluation: Evaluation, improved: bool, n_evaluations: int
    ) -> None:
        """Convenience: append a record built from an evaluation."""
        self.append(
            PhaseRecord(
                phase=phase,
                giant_size=evaluation.giant_size,
                covered_clients=evaluation.covered_clients,
                fitness=evaluation.fitness,
                improved=improved,
                n_evaluations=n_evaluations,
            )
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[PhaseRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> PhaseRecord:
        return self.records[index]

    @property
    def phases(self) -> list[int]:
        """Phase numbers (the figure's x axis)."""
        return [record.phase for record in self.records]

    @property
    def giant_sizes(self) -> list[int]:
        """Giant component sizes (the figure's y axis)."""
        return [record.giant_size for record in self.records]

    @property
    def fitness_values(self) -> list[float]:
        """Fitness per phase."""
        return [record.fitness for record in self.records]

    def best_fitness(self) -> float:
        """Highest fitness seen (the final value under monotone accept)."""
        if not self.records:
            raise ValueError("empty trace")
        return max(record.fitness for record in self.records)

    def final(self) -> PhaseRecord:
        """The last phase record."""
        if not self.records:
            raise ValueError("empty trace")
        return self.records[-1]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one local search run.

    ``stopped_by`` is ``None`` for a run that exhausted its budget (or
    met its stall/target condition) and ``"deadline"``/``"cancelled"``
    when a :class:`~repro.anytime.deadline.Deadline` stopped it early —
    the returned ``best`` is still a fully evaluated incumbent either
    way.  ``elapsed_seconds`` is wall-clock (excluded from equality:
    two bit-identical runs never have identical timings).
    """

    best: Evaluation
    trace: SearchTrace
    n_phases: int
    n_evaluations: int
    stopped_by: str | None = None
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def giant_size(self) -> int:
        """Giant component size of the best solution found."""
        return self.best.giant_size

    @property
    def covered_clients(self) -> int:
        """Covered clients of the best solution found."""
        return self.best.covered_clients
