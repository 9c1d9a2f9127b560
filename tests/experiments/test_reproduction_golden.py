"""Golden pin of the whole paper reproduction at micro scale.

``run_all`` regenerates Tables 1-3 and Figures 1-4.  Everything in it is
seeded, so a refactor of the placement representation, the GA operators
or the engine must leave every rendered number, every figure series,
every GA trace record and every GA best placement exactly as it was.
This test hashes all of those into one SHA-256 digest and compares it
with a constant captured before the array-native ``Placement`` rewrite.

The digest must not depend on the engine tier: CI runs this test with
``REPRO_COMPILED=0`` (numpy tiers) and again with the compiled kernels.

If the digest changes on purpose (a deliberate change of the GA or of
an ad hoc method), recapture it with ``python
tests/experiments/test_reproduction_golden.py`` and say why in the
change log.
"""

from __future__ import annotations

import hashlib

from repro.experiments.config import ExperimentScale
from repro.experiments.runner import run_all
from repro.genetic.engine import GeneticAlgorithm
from repro.instances.catalog import tiny_spec

MICRO_SCALE = ExperimentScale(
    name="micro",
    population_size=10,
    n_generations=12,
    ns_phases=4,
    ns_candidates=4,
    record_step=2,
)

DISTRIBUTIONS = ("normal", "exponential", "weibull")

#: Captured on the tuple-of-``Point`` implementation that preceded the
#: array-native ``Placement``.
GOLDEN_DIGEST = "882066ca35893a527f679b586202d812851cc2172bc6c83aab38687b04279dca"


def reproduction_digest() -> str:
    """SHA-256 over the report, the figure series and every GA run."""
    runs = []
    original_run = GeneticAlgorithm.run

    def recording_run(self, *args, **kwargs):
        result = original_run(self, *args, **kwargs)
        runs.append(result)
        return result

    GeneticAlgorithm.run = recording_run
    try:
        report = run_all(
            MICRO_SCALE,
            seed=1,
            distributions=DISTRIBUTIONS,
            specs={name: tiny_spec(name) for name in DISTRIBUTIONS},
        )
    finally:
        GeneticAlgorithm.run = original_run

    digest = hashlib.sha256()
    digest.update(report.render_text().encode())
    for figure in report.figures:
        for series in figure.series:
            digest.update(repr((series.label, series.x, series.giant_sizes)).encode())
    for result in runs:
        digest.update(repr([tuple(cell) for cell in result.best.placement]).encode())
        for record in result.trace:
            digest.update(repr(record.as_dict()).encode())
    return digest.hexdigest()


def test_reproduction_matches_golden_digest():
    assert reproduction_digest() == GOLDEN_DIGEST


if __name__ == "__main__":
    print(reproduction_digest())
