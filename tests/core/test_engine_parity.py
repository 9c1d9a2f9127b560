"""Parity of every evaluation path with the dense reference.

The batched (``Evaluator.evaluate_many`` on every tier) and incremental
engines must reproduce the reference path — ``Evaluator(problem,
engine="dense").evaluate`` — *bit for bit*: identical
``NetworkMetrics``, identical fitness floats, identical giant-component
masks, for random placements under every link rule and coverage rule.
Experiments may then batch or delta-evaluate freely without perturbing
any result.  References are pinned to ``engine="dense"``: ``"auto"``
resolves to the compiled tier whenever the kernels build, which would
compare compiled with compiled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import (
    StackedDeltaEngine,
    StackedEngine,
    compiled_available,
)
from repro.core.engine import stacked
from repro.core.evaluation import Evaluator
from repro.core.fitness import LexicographicFitness
from repro.core.radio import CoverageRule, LinkRule
from repro.core.solution import Placement
from repro.instances.catalog import city_spec, paper_spec, tiny_spec
from repro.neighborhood.movements import RandomMovement
from repro.neighborhood.search import NeighborhoodSearch

from tests.conftest import (
    free_cell,
    measure_placement,
    phase_of,
    ref_apply_row,
    relocate_row,
    swap_row,
)

LINK_RULES = list(LinkRule)
COVERAGE_RULES = list(CoverageRule)

#: Every tier this machine can run (compiled only when its kernels build).
TIERS = ("dense", "sparse") + (("compiled",) if compiled_available() else ())


def make_problem(link_rule: LinkRule, coverage_rule: CoverageRule, seed: int = 7):
    problem = tiny_spec(seed=seed).generate()
    return problem.with_link_rule(link_rule).with_coverage_rule(coverage_rule)


def random_placements(problem, rng, count: int) -> list[Placement]:
    return [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(count)
    ]


def delta_engine(problem, engine="auto"):
    """A one-chain delta engine on the tier ``engine`` resolves to."""
    return StackedDeltaEngine(problem, engine=engine)


def reset(delta, placement):
    """Cache ``placement`` as chain 0's incumbent; its evaluation."""
    delta.reset_chain(0, placement)
    return measure_placement(delta, 0, placement)


def propose(delta, current, move):
    """``current ⊕ move`` (a move row) measured against the cached incumbent."""
    return measure_placement(delta, 0, ref_apply_row(move, current.placement))


def assert_same_evaluation(scalar, other):
    assert other.metrics == scalar.metrics
    assert other.fitness == scalar.fitness
    assert np.array_equal(other.giant_mask, scalar.giant_mask)
    assert other.placement is scalar.placement or (
        other.placement.cells == scalar.placement.cells
    )


@pytest.mark.parametrize("link_rule", LINK_RULES, ids=[r.value for r in LINK_RULES])
@pytest.mark.parametrize(
    "coverage_rule", COVERAGE_RULES, ids=[r.value for r in COVERAGE_RULES]
)
class TestBatchParity:
    def test_random_placements_bit_identical(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(42)
        placements = random_placements(problem, rng, 12)
        scalar = Evaluator(problem, engine="dense")
        scalar_evals = [scalar.evaluate(p) for p in placements]
        for tier in TIERS:
            batch_evals = Evaluator(problem, engine=tier).evaluate_many(placements)
            for reference, candidate in zip(scalar_evals, batch_evals):
                assert_same_evaluation(reference, candidate)

    def test_evaluate_many_adapter_matches(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(3)
        placements = random_placements(problem, rng, 5)
        evaluator = Evaluator(problem)
        via_adapter = evaluator.evaluate_many(placements)
        via_scalar = [evaluator.evaluate(p) for p in placements]
        reference = Evaluator(problem, engine="dense")
        for placement, batched, single in zip(placements, via_adapter, via_scalar):
            ref = reference.evaluate(placement)
            assert_same_evaluation(ref, batched)
            assert_same_evaluation(ref, single)

    def test_alternate_fitness_function(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(11)
        placements = random_placements(problem, rng, 4)
        fitness = LexicographicFitness()
        scalar = Evaluator(problem, fitness, engine="dense")
        batch = Evaluator(problem, fitness)
        for ref, got in zip(
            [scalar.evaluate(p) for p in placements],
            batch.evaluate_many(placements),
        ):
            assert_same_evaluation(ref, got)


@pytest.mark.parametrize("link_rule", LINK_RULES, ids=[r.value for r in LINK_RULES])
@pytest.mark.parametrize(
    "coverage_rule", COVERAGE_RULES, ids=[r.value for r in COVERAGE_RULES]
)
class TestDeltaParity:
    def test_random_move_chain_bit_identical(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(99)
        delta = delta_engine(problem)
        current = reset(
            delta, Placement.random(problem.grid, problem.n_routers, rng)
        )
        reference = Evaluator(problem, engine="dense")
        assert_same_evaluation(reference.evaluate(current.placement), current)
        for step in range(40):
            if step % 5 == 4:
                a, b = rng.choice(problem.n_routers, size=2, replace=False)
                move = swap_row(int(a), int(b))
            else:
                router = int(rng.integers(0, problem.n_routers))
                cell = free_cell(
                    problem.grid, current.placement.occupied, rng
                )
                move = relocate_row(router, cell)
            candidate = propose(delta, current, move)
            expected = reference.evaluate(ref_apply_row(move, current.placement))
            assert_same_evaluation(expected, candidate)
            # Accept roughly half the candidates so the caches advance
            # through commits and later proposes build on them.
            if rng.uniform() < 0.5:
                delta.commit_chain(0, candidate.placement)
                current = candidate

    def test_speculative_proposals_share_incumbent(self, link_rule, coverage_rule):
        """Tabu-style usage: many previews off one incumbent, one commit."""
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(5)
        delta = delta_engine(problem)
        current = reset(
            delta, Placement.random(problem.grid, problem.n_routers, rng)
        )
        reference = Evaluator(problem, engine="dense")
        candidates = []
        for _ in range(8):
            router = int(rng.integers(0, problem.n_routers))
            cell = free_cell(problem.grid, current.placement.occupied, rng)
            move = relocate_row(router, cell)
            candidate = propose(delta, current, move)
            assert_same_evaluation(
                reference.evaluate(ref_apply_row(move, current.placement)), candidate
            )
            candidates.append(candidate)
        chosen = max(candidates, key=lambda e: e.fitness)
        delta.commit_chain(0, chosen.placement)
        follow_up = propose(
            delta,
            chosen,
            relocate_row(
                0,
                free_cell(problem.grid, chosen.placement.occupied, rng),
            )
        )
        expected = reference.evaluate(follow_up.placement)
        assert_same_evaluation(expected, follow_up)


@pytest.mark.parametrize("link_rule", LINK_RULES, ids=[r.value for r in LINK_RULES])
@pytest.mark.parametrize(
    "coverage_rule", COVERAGE_RULES, ids=[r.value for r in COVERAGE_RULES]
)
class TestSparseParity:
    def test_tiny_instance_bit_identical(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(21)
        placements = random_placements(problem, rng, 8)
        scalar = Evaluator(problem, engine="dense")
        measurement = StackedEngine(problem, engine="sparse").measure_placements(
            placements
        )
        for index, placement in enumerate(placements):
            assert_same_evaluation(
                scalar.evaluate(placement),
                measurement.evaluation(index, placement),
            )

    def test_sparse_delta_move_chain_bit_identical(self, link_rule, coverage_rule):
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(77)
        delta = delta_engine(problem, engine="sparse")
        current = reset(
            delta, Placement.random(problem.grid, problem.n_routers, rng)
        )
        reference = Evaluator(problem, engine="dense")
        assert_same_evaluation(reference.evaluate(current.placement), current)
        for step in range(40):
            if step % 5 == 4:
                a, b = rng.choice(problem.n_routers, size=2, replace=False)
                move = swap_row(int(a), int(b))
            else:
                router = int(rng.integers(0, problem.n_routers))
                cell = free_cell(
                    problem.grid, current.placement.occupied, rng
                )
                move = relocate_row(router, cell)
            candidate = propose(delta, current, move)
            expected = reference.evaluate(ref_apply_row(move, current.placement))
            assert_same_evaluation(expected, candidate)
            if rng.uniform() < 0.5:
                delta.commit_chain(0, candidate.placement)
                current = candidate

    def test_sparse_delta_commit_of_earlier_propose(self, link_rule, coverage_rule):
        """Commit an evaluation that was not the last one measured: the
        update rule recomputes the chosen candidate's state."""
        problem = make_problem(link_rule, coverage_rule)
        rng = np.random.default_rng(55)
        delta = delta_engine(problem, engine="sparse")
        current = reset(
            delta, Placement.random(problem.grid, problem.n_routers, rng)
        )
        reference = Evaluator(problem, engine="dense")
        for _ in range(4):
            candidates = []
            for _ in range(5):
                router = int(rng.integers(0, problem.n_routers))
                cell = free_cell(
                    problem.grid, current.placement.occupied, rng
                )
                candidates.append(
                    propose(
                        delta, current, relocate_row(router, cell)
                    )
                )
            chosen = candidates[0]  # deliberately not the last measured
            delta.commit_chain(0, chosen.placement)
            current = chosen
            follow = propose(
                delta,
                current,
                relocate_row(
                    0,
                    free_cell(problem.grid, current.placement.occupied, rng),
                )
            )
            assert_same_evaluation(reference.evaluate(follow.placement), follow)


class TestSparseParityAtScale:
    """Cross-engine parity on the paper catalog and a city-scale frame."""

    def test_paper_catalog_instances(self):
        rng = np.random.default_rng(31)
        for distribution, params in [
            ("normal", {"mean": 64.0, "std": 12.8}),
            ("exponential", {"scale": 32.0}),
            ("weibull", {"shape": 1.2}),
            ("uniform", {}),
        ]:
            problem = paper_spec(distribution, **params).generate()
            placements = random_placements(problem, rng, 3)
            scalar = Evaluator(problem, engine="dense")
            references = [scalar.evaluate(p) for p in placements]
            for tier in ("dense", "sparse"):
                batch = Evaluator(problem, engine=tier).evaluate_many(placements)
                for ref, got in zip(references, batch):
                    assert_same_evaluation(ref, got)

    def test_city_scale_frame(self):
        # Small enough for the dense reference, sparse enough (512x512
        # area) that binning actually prunes: the city regime in miniature.
        problem = city_spec(256, 2_000, seed=5).generate()
        rng = np.random.default_rng(13)
        placements = random_placements(problem, rng, 3)
        scalar = Evaluator(problem, engine="dense")
        sparse = Evaluator(problem, engine="sparse")
        references = [scalar.evaluate(p) for p in placements]
        for ref, got in zip(references, sparse.evaluate_many(placements)):
            assert_same_evaluation(ref, got)

    def test_sparse_counter_semantics(self):
        problem = make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        rng = np.random.default_rng(17)
        placements = random_placements(problem, rng, 5)
        forced = Evaluator(problem, engine="sparse")
        assert forced.engine == "sparse"
        forced.evaluate_many(placements)
        assert forced.n_evaluations == 5
        forced.evaluate(placements[0])
        assert forced.n_evaluations == 6


class TestCounterSemantics:
    def test_count_charges_outside_measurements(self):
        evaluator = Evaluator(make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY))
        evaluator.count()
        evaluator.count(4)
        assert evaluator.n_evaluations == 5

    def test_evaluate_many_counts_each_placement(self):
        problem = make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        rng = np.random.default_rng(1)
        evaluator = Evaluator(problem)
        evaluator.evaluate_many(random_placements(problem, rng, 7))
        assert evaluator.n_evaluations == 7

    def test_evaluate_many_counts_across_chunks(self, monkeypatch):
        problem = make_problem(LinkRule.OVERLAP, CoverageRule.ANY_ROUTER)
        rng = np.random.default_rng(2)
        placements = random_placements(problem, rng, 9)
        unchunked = Evaluator(problem, engine="dense").evaluate_many(placements)
        monkeypatch.setattr(stacked, "DEFAULT_MAX_CHUNK", 4)
        passes = []
        measure = stacked.measure_stack
        monkeypatch.setattr(
            stacked,
            "measure_stack",
            lambda *args: passes.append(len(args[2])) or measure(*args),
        )
        batch = Evaluator(problem, engine="dense")
        chunked = batch.evaluate_many(placements)
        assert passes == [4, 4, 1]
        assert batch.n_evaluations == 9
        for ref, got in zip(unchunked, chunked):
            assert_same_evaluation(ref, got)

    def test_delta_counts_through_wrapped_evaluator(self):
        # The delta engine is pure measurement; a search on it charges
        # its evaluator the start and every measured candidate.
        problem = make_problem(LinkRule.UNIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        rng = np.random.default_rng(3)
        evaluator = Evaluator(problem)
        NeighborhoodSearch(
            RandomMovement(), n_candidates=1, max_phases=1
        ).run(
            evaluator, Placement.random(problem.grid, problem.n_routers, rng), rng
        )
        assert evaluator.n_evaluations == 2

    def test_empty_batch_is_free(self):
        problem = make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        evaluator = Evaluator(problem)
        assert evaluator.evaluate_many([]) == []
        assert evaluator.n_evaluations == 0


class TestIntegerFastPathBoundaries:
    """The narrow-dtype comparisons must match the float64 reference."""

    def test_negative_coordinates_match_reference(self):
        # Regression: mixed-sign coordinates once overflowed the int16
        # fast path; they must route through a wider dtype and agree
        # with the scalar formulas exactly.
        from repro.core.coverage import coverage_matrix
        from repro.core.engine import batch_adjacency, batch_coverage
        from repro.core.network import adjacency_matrix

        positions = np.array([[[-100.0, 0.0], [100.0, 0.0], [0.0, -3.0]]])
        radii = np.array([50.0, 50.0, 120.0])
        clients = np.array([[-100.0, 0.0], [90.0, 5.0]])
        for rule in LinkRule:
            batched = batch_adjacency(positions, radii, rule)
            assert np.array_equal(
                batched[0], adjacency_matrix(positions[0], radii, rule)
            )
        assert np.array_equal(
            batch_coverage(clients, positions, radii)[0],
            coverage_matrix(clients, positions[0], radii),
        )

    def test_non_integral_coordinates_match_reference(self):
        from repro.core.coverage import coverage_matrix
        from repro.core.engine import batch_adjacency, batch_coverage
        from repro.core.network import adjacency_matrix

        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 60, size=(2, 9, 2))
        radii = rng.uniform(2, 9, size=9)
        clients = rng.uniform(0, 60, size=(5, 2))
        for rule in LinkRule:
            batched = batch_adjacency(positions, radii, rule)
            for index in range(2):
                assert np.array_equal(
                    batched[index],
                    adjacency_matrix(positions[index], radii, rule),
                )
        cov = batch_coverage(clients, positions, radii)
        for index in range(2):
            assert np.array_equal(
                cov[index], coverage_matrix(clients, positions[index], radii)
            )


class TestValidation:
    def test_batch_rejects_wrong_fleet_size(self):
        problem = make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        rng = np.random.default_rng(4)
        short = Placement.random(problem.grid, problem.n_routers - 1, rng)
        full = Placement.random(problem.grid, problem.n_routers, rng)
        for tier in TIERS:
            evaluator = Evaluator(problem, engine=tier)
            for candidates in ([short], [full, short]):
                with pytest.raises(ValueError):
                    evaluator.evaluate_many(candidates)
            assert evaluator.n_evaluations == 0

    def test_delta_requires_reset(self):
        problem = make_problem(LinkRule.BIDIRECTIONAL, CoverageRule.GIANT_ONLY)
        delta = delta_engine(problem)
        placement = Placement.random(
            problem.grid, problem.n_routers, np.random.default_rng(6)
        )
        phase, _ = phase_of([(0, placement, (), ())])
        with pytest.raises(ValueError, match="no incumbent"):
            delta.measure_phase(phase)
