"""Unit tests for the multi-seed replication harness."""

from __future__ import annotations

import pytest

from repro.experiments.replication import (
    ReplicatedMetric,
    format_replication,
    replicate_movements,
    replicate_standalone,
)
from repro.instances.catalog import tiny_spec
from repro.resilience.checkpoint import CheckpointError


class TestReplicatedMetric:
    def test_statistics(self):
        metric = ReplicatedMetric((1.0, 2.0, 3.0))
        assert metric.mean == pytest.approx(2.0)
        assert metric.std == pytest.approx(1.0)
        assert metric.minimum == 1.0
        assert metric.maximum == 3.0
        assert metric.n_seeds == 3

    def test_single_value_std_zero(self):
        assert ReplicatedMetric((4.0,)).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedMetric(())

    def test_str_format(self):
        assert "+/-" in str(ReplicatedMetric((1.0, 3.0)))


class TestReplicateStandalone:
    @pytest.fixture(scope="class")
    def results(self):
        return replicate_standalone(
            tiny_spec(), n_seeds=4, methods=("random", "near", "hotspot")
        )

    def test_all_methods_covered(self, results):
        assert set(results) == {"random", "near", "hotspot"}

    def test_metrics_present_and_bounded(self, results):
        spec = tiny_spec()
        for metrics in results.values():
            assert set(metrics) == {"giant", "coverage", "fitness"}
            assert metrics["giant"].n_seeds == 4
            assert 0 <= metrics["giant"].minimum
            assert metrics["giant"].maximum <= spec.n_routers
            assert metrics["coverage"].maximum <= spec.n_clients

    def test_seed_variation_exists_for_random(self, results):
        # Random placement across 4 seeds almost surely varies.
        assert results["random"]["fitness"].std >= 0.0

    def test_invalid_seed_count(self):
        with pytest.raises(ValueError):
            replicate_standalone(tiny_spec(), n_seeds=0)

    def test_formatting(self, results):
        text = format_replication(results, "stand-alone replication")
        assert "stand-alone replication" in text
        assert "random" in text
        assert "+/-" in text


class TestReplicateMovements:
    def test_swap_and_random_compared(self):
        results = replicate_movements(
            tiny_spec(), n_seeds=2, n_candidates=4, max_phases=4
        )
        assert set(results) == {"Swap", "Random"}
        for metrics in results.values():
            assert metrics["giant"].n_seeds == 2
            assert metrics["giant"].maximum <= tiny_spec().n_routers

    def test_invalid_seed_count(self):
        with pytest.raises(ValueError):
            replicate_movements(tiny_spec(), n_seeds=-1)


def values(results):
    return {
        name: {metric: replicated.values for metric, replicated in metrics.items()}
        for name, metrics in results.items()
    }


class TestReplicateOnAnInstance:
    def test_spec_and_its_instance_agree_at_seed_zero(self):
        spec = tiny_spec(seed=0)
        problem = spec.generate()
        movements = dict(n_seeds=3, n_candidates=4, max_phases=3)
        assert values(replicate_movements(spec, **movements)) == values(
            replicate_movements(problem, **movements)
        )
        standalone = dict(n_seeds=3, methods=("random", "hotspot"))
        assert values(replicate_standalone(spec, **standalone)) == values(
            replicate_standalone(problem, **standalone)
        )

    def test_resume_refuses_another_instance(self, tmp_path):
        directory = str(tmp_path / "ck")
        kwargs = dict(n_seeds=2, methods=("random",))
        replicate_standalone(
            tiny_spec(seed=1).generate(), checkpoint=directory, **kwargs
        )
        with pytest.raises(CheckpointError, match="instance"):
            replicate_standalone(
                tiny_spec(seed=2).generate(), resume_from=directory, **kwargs
            )


@pytest.mark.parametrize(
    "harness", [replicate_standalone, replicate_movements]
)
@pytest.mark.parametrize("refused", [dict(workers=0), dict(n_seeds=0)])
def test_a_refused_call_creates_nothing_on_disk(harness, refused, tmp_path):
    directory = tmp_path / "ck"
    with pytest.raises(ValueError):
        harness(tiny_spec(), checkpoint=str(directory), **refused)
    assert not directory.exists()
