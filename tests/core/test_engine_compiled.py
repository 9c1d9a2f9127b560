"""Parity and availability tests for the compiled (C-kernel) tier.

Two halves with different availability requirements:

* The parity classes need the kernels built (system C toolchain) and
  skip cleanly without one — tier 1 must pass on a box with no
  compiler.
* The fallback class runs everywhere: it forces the tier unavailable
  through the ``REPRO_COMPILED`` gate and asserts the documented
  contract — ``engine="compiled"`` fails loudly, ``engine="auto"``
  falls back silently with identical results.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import compiled
from repro.core.engine.components import labels_from_edges
from repro.core.engine.dispatch import ENGINE_TIERS, resolve_engine
from repro.core.engine.sparse import link_hits
from repro.core.engine.stacked import (
    PhaseCandidates,
    StackedDeltaEngine,
    StackedEngine,
)
from repro.core.evaluation import Evaluator
from repro.core.problem import ProblemInstance
from repro.core.radio import CoverageRule, LinkRule, RadioProfile
from repro.core.solution import Placement
from repro.instances.catalog import city_spec, tiny_spec

from tests.conftest import (
    free_cell,
    measure_placement,
    ref_apply_row,
    relocate_row,
)

needs_kernels = pytest.mark.skipif(
    not compiled.is_available(),
    reason="compiled kernels not available (no C toolchain?)",
)

LINK_RULES = [LinkRule.OVERLAP, LinkRule.BIDIRECTIONAL, LinkRule.UNIDIRECTIONAL]
COVERAGE_RULES = [CoverageRule.GIANT_ONLY, CoverageRule.ANY_ROUTER]


def tiny_problem(link_rule=LinkRule.BIDIRECTIONAL, coverage_rule=CoverageRule.GIANT_ONLY):
    problem = tiny_spec(seed=3).generate()
    return problem.with_link_rule(link_rule).with_coverage_rule(coverage_rule)


def random_placements(problem, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Placement.random(problem.grid, problem.n_routers, rng)
        for _ in range(count)
    ]


def assert_same_evaluation(a, b):
    assert a.metrics == b.metrics
    assert a.fitness == b.fitness
    assert np.array_equal(a.giant_mask, b.giant_mask)


@needs_kernels
class TestScalarParity:
    @pytest.mark.parametrize("link_rule", LINK_RULES)
    @pytest.mark.parametrize("coverage_rule", COVERAGE_RULES)
    def test_bit_identical_to_dense(self, link_rule, coverage_rule):
        problem = tiny_problem(link_rule, coverage_rule)
        reference = Evaluator(problem, engine="dense")
        under_test = Evaluator(problem, engine="compiled")
        assert under_test.engine == "compiled"
        for placement in random_placements(problem, 5, seed=11):
            assert_same_evaluation(
                under_test.evaluate(placement), reference.evaluate(placement)
            )

    def test_sparse_form_matches_both_numpy_engines(self):
        # City scale forces the bin-pair kernel form.
        problem = city_spec(1024, 4_000, seed=3).generate()
        placement = random_placements(problem, 1, seed=12)[0]
        compiled_eval = Evaluator(problem, engine="compiled").evaluate(placement)
        for numpy_engine in ("dense", "sparse"):
            reference = Evaluator(problem, engine=numpy_engine).evaluate(placement)
            assert_same_evaluation(compiled_eval, reference)

    def test_evaluate_many_counts_and_matches(self):
        problem = tiny_problem()
        placements = random_placements(problem, 6, seed=13)
        reference = Evaluator(problem, engine="dense")
        under_test = Evaluator(problem, engine="compiled")
        batch = under_test.evaluate_many(placements)
        assert under_test.n_evaluations == len(placements)
        for evaluation, placement in zip(batch, placements):
            assert_same_evaluation(evaluation, reference.evaluate(placement))

    def test_zero_clients(self):
        rng = np.random.default_rng(5)
        problem = ProblemInstance.build(
            32, 32, 8, [], RadioProfile(3.0, 6.0), rng
        )
        placement = random_placements(problem, 1, seed=14)[0]
        compiled_eval = Evaluator(problem, engine="compiled").evaluate(placement)
        reference = Evaluator(problem, engine="dense").evaluate(placement)
        assert compiled_eval.covered_clients == 0
        assert_same_evaluation(compiled_eval, reference)


@needs_kernels
class TestStackedParity:
    def test_measure_placements_matches_numpy_stack(self):
        problem = tiny_problem()
        placements = random_placements(problem, 9, seed=15)
        reference = StackedEngine(problem, engine="dense").measure_placements(
            placements
        )
        engine = StackedEngine(problem, engine="compiled")
        assert engine.engine == "compiled" and engine.layout == "dense"
        measurement = engine.measure_placements(placements)
        for name in (
            "giant_sizes", "covered_clients", "n_components",
            "n_links", "mean_degrees", "fitness", "giant_masks",
        ):
            assert np.array_equal(
                getattr(measurement, name), getattr(reference, name)
            ), name

    def test_city_stack_matches_numpy_sparse(self):
        problem = city_spec(1024, 4_000, seed=3).generate()
        engine = StackedEngine(problem, engine="compiled")
        assert engine.layout == "sparse"
        placements = random_placements(problem, 2, seed=16)
        reference = StackedEngine(problem, engine="sparse").measure_placements(
            placements
        )
        measurement = engine.measure_placements(placements)
        assert np.array_equal(measurement.fitness, reference.fitness)
        assert np.array_equal(measurement.giant_masks, reference.giant_masks)

    def test_empty_stack(self):
        problem = tiny_problem()
        engine = StackedEngine(problem, engine="compiled")
        assert len(engine.measure_placements([])) == 0


@needs_kernels
class TestDeltaParity:
    @pytest.mark.parametrize("coverage_rule", COVERAGE_RULES)
    def test_propose_commit_loop_matches_dense(self, coverage_rule):
        problem = tiny_problem(coverage_rule=coverage_rule)
        rng = np.random.default_rng(17)
        start = Placement.random(problem.grid, problem.n_routers, rng)
        under_test = StackedDeltaEngine(problem, engine="compiled")
        reference = StackedDeltaEngine(problem, engine="dense")
        assert under_test.engine == "compiled"
        assert under_test.layout == "dense"
        under_test.reset_chain(0, start)
        reference.reset_chain(0, start)
        assert_same_evaluation(
            measure_placement(under_test, 0, start),
            measure_placement(reference, 0, start),
        )
        incumbent = start
        for _ in range(20):
            router = int(rng.integers(0, len(incumbent)))
            cell = free_cell(problem.grid, incumbent.occupied, rng)
            candidate = ref_apply_row(relocate_row(router, cell), incumbent)
            ours = measure_placement(under_test, 0, candidate)
            theirs = measure_placement(reference, 0, candidate)
            assert_same_evaluation(ours, theirs)
            if rng.random() < 0.5:
                under_test.commit_chain(0, candidate)
                reference.commit_chain(0, candidate)
                incumbent = candidate

    def test_sparse_layout_propose_matches(self):
        problem = city_spec(1024, 4_000, seed=3).generate()
        rng = np.random.default_rng(18)
        start = Placement.random(problem.grid, problem.n_routers, rng)
        under_test = StackedDeltaEngine(problem, engine="compiled")
        reference = StackedDeltaEngine(problem, engine="sparse")
        assert under_test.layout == "sparse"
        under_test.reset_chain(0, start)
        reference.reset_chain(0, start)
        assert_same_evaluation(
            measure_placement(under_test, 0, start),
            measure_placement(reference, 0, start),
        )
        for _ in range(5):
            router = int(rng.integers(0, len(start)))
            cell = free_cell(problem.grid, start.occupied, rng)
            candidate = ref_apply_row(relocate_row(router, cell), start)
            assert_same_evaluation(
                measure_placement(under_test, 0, candidate),
                measure_placement(reference, 0, candidate),
            )

    def test_reports_size_heuristic_layout(self):
        problem = tiny_problem()
        delta = StackedDeltaEngine(problem, engine="compiled")
        delta.reset_chain(0, random_placements(problem, 1, seed=19)[0])
        assert delta.engine == "compiled"
        assert delta.layout == "dense"


@needs_kernels
class TestStackedDeltaParity:
    def test_phase_matches_dense_engine(self):
        problem = tiny_problem()
        rng = np.random.default_rng(20)
        incumbent = Placement.random(problem.grid, problem.n_routers, rng)
        under_test = StackedDeltaEngine(problem, engine="compiled")
        reference = StackedDeltaEngine(problem, engine="dense")
        under_test.reset_chain(0, incumbent)
        reference.reset_chain(0, incumbent)
        # Candidate 0 is a no-op, 1-4 relocations, 5 a swap.
        pair_candidate, pair_router, pair_xy = [], [], []
        for candidate in range(1, 5):
            router = int(rng.integers(0, len(incumbent)))
            cell = free_cell(problem.grid, incumbent.occupied, rng)
            pair_candidate.append(candidate)
            pair_router.append(router)
            pair_xy.append((cell.x, cell.y))
        a = int(rng.integers(0, len(incumbent)))
        b = (a + 1) % len(incumbent)
        pair_candidate += [5, 5]
        pair_router += [a, b]
        pair_xy += [tuple(incumbent[b]), tuple(incumbent[a])]
        candidates = PhaseCandidates(
            [0] * 6, pair_candidate, pair_router, pair_xy
        )
        ours = under_test.measure_phase(candidates)
        theirs = reference.measure_phase(candidates)
        for name in (
            "giant_sizes", "covered_clients", "n_components",
            "n_links", "mean_degrees", "fitness", "giant_masks",
        ):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            StackedDeltaEngine(tiny_problem(), engine="turbo")


@needs_kernels
class TestKernelUnits:
    def test_label_components_matches_numpy(self):
        rng = np.random.default_rng(21)
        for n_nodes, n_edges in ((1, 0), (64, 120), (8192, 24_000)):
            rows = rng.integers(0, n_nodes, n_edges)
            cols = rng.integers(0, n_nodes, n_edges)
            keep = rows != cols
            rows, cols = rows[keep], cols[keep]
            assert np.array_equal(
                compiled.label_components(n_nodes, rows, cols),
                labels_from_edges(n_nodes, rows, cols),
            )

    def test_label_components_validates(self):
        with pytest.raises(ValueError):
            compiled.label_components(2, np.array([0]), np.array([5]))
        with pytest.raises(ValueError):
            compiled.label_components(-1, np.zeros(0, int), np.zeros(0, int))

    @pytest.mark.parametrize("link_rule", LINK_RULES)
    def test_link_hits_matches_numpy(self, link_rule):
        rng = np.random.default_rng(22)
        positions = rng.uniform(0, 64, size=(100, 2))
        radii = rng.uniform(2, 10, size=100)
        rows = rng.integers(0, 100, 400)
        cols = rng.integers(0, 100, 400)
        ours = compiled.link_hits_compiled(positions, radii, link_rule, rows, cols)
        theirs = link_hits(positions, radii, link_rule, rows, cols)
        assert np.array_equal(ours[0], theirs[0])
        assert np.array_equal(ours[1], theirs[1])

    def test_client_csr_is_contiguous(self):
        # The kernels walk raw int64 buffers, so the hit list must be
        # contiguous.
        coverage = np.zeros((6, 4), dtype=bool)
        coverage[1, 2] = coverage[3, 0] = coverage[3, 3] = True
        ptr, hit = compiled.client_csr(coverage)
        assert hit.flags["C_CONTIGUOUS"] and ptr.flags["C_CONTIGUOUS"]
        assert ptr.tolist() == [0, 0, 1, 1, 3, 3, 3]
        assert hit.tolist() == [2, 0, 3]

    def test_giant_covered_exchanges_mover_columns(self):
        coverage = np.array(
            [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=bool
        )
        ptr, hit = compiled.client_csr(coverage)
        # Routers 0 and 2 form the giant: router 0 links to router 2
        # from any cell and never to router 1.
        range_squared = np.array(
            [[0.0, 0.0, 1e6], [0.0, 0.0, 0.0], [1e6, 0.0, 0.0]]
        )
        clients = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        state = compiled.chain_state(
            positions, coverage, np.array([0]), np.array([2]), ptr, hit, None
        )
        # Candidate 0 moves router 0 (in the giant) to cover only the
        # last client: c0 loses its hit, c2 keeps router 2, c3 gains.
        giants, covered, components, links, masks = compiled.measure_phase_dense(
            np.array([state]), np.array([0, 1]),
            np.array([0]), np.array([0]), np.array([[30.0, 0.0]]),
            range_squared, clients, np.ones(3), True,
        )
        assert covered.tolist() == [2]
        assert masks.tolist() == [[True, False, True]]
        assert (giants.tolist(), components.tolist(), links.tolist()) == (
            [2], [2], [1]
        )

    def test_dense_edges_matches_nonzero(self):
        rng = np.random.default_rng(41)
        half = rng.random((30, 30)) < 0.2
        adjacency = np.triu(half, k=1)
        adjacency = adjacency | adjacency.T
        rows, cols = compiled.dense_edges(adjacency)
        ref_rows, ref_cols = np.nonzero(adjacency)
        one_way = ref_rows < ref_cols
        assert np.array_equal(rows, ref_rows[one_way])
        assert np.array_equal(cols, ref_cols[one_way])

    def test_set_num_threads_validates(self):
        with pytest.raises(ValueError):
            compiled.set_num_threads(0)


class TestForcedUnavailability:
    """The documented fallback contract, no toolchain required."""

    @pytest.fixture()
    def disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")

    def test_compiled_engine_raises_clear_error(self, disabled):
        problem = tiny_problem()
        with pytest.raises(RuntimeError, match="engine='auto'"):
            Evaluator(problem, engine="compiled")

    def test_require_names_the_gate(self, disabled):
        with pytest.raises(RuntimeError, match="REPRO_COMPILED"):
            compiled.require()

    def test_auto_falls_back_silently_with_identical_results(self, disabled):
        problem = tiny_problem()
        auto = Evaluator(problem, engine="auto")
        assert auto.engine in ("dense", "sparse")
        forced = Evaluator(problem, engine=auto.engine)
        for placement in random_placements(problem, 3, seed=23):
            assert_same_evaluation(
                auto.evaluate(placement), forced.evaluate(placement)
            )

    def test_is_available_honors_gate(self, disabled):
        assert not compiled.is_available()


class TestBuildCache:
    """A publish prunes other-hash libraries from directories it owns."""

    @pytest.mark.skipif(
        compiled._find_compiler() is None, reason="no C compiler found"
    )
    def test_publish_prunes_stale_siblings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED_CACHE", str(tmp_path))
        stale = tmp_path / "repro_kernels_0000000000000000.so"
        stale.write_bytes(b"stale")
        leftover = tmp_path / ".repro_kernels_0000000000000000.so.1.tmp"
        leftover.write_bytes(b"leftover")
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("kept")
        live = compiled._compile_library()
        assert live.parent == tmp_path and live.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [live.name, "notes.txt"]
        )
        # The live library is reused as is, and still loads.
        assert compiled._compile_library() == live
        compiled._bind(ctypes.CDLL(str(live)))

    def test_shared_fallback_is_not_owned(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILED_CACHE", raising=False)
        (build, build_owned), (shared, shared_owned) = compiled._cache_dirs()
        assert build.name == "_build" and build_owned
        assert not shared_owned
        monkeypatch.setenv("REPRO_COMPILED_CACHE", "/nonexistent/cache")
        assert compiled._cache_dirs() == [(Path("/nonexistent/cache"), True)]


class TestDispatchContract:
    def test_error_message_lists_every_tier(self):
        problem = tiny_problem()
        with pytest.raises(ValueError) as excinfo:
            resolve_engine(problem, "turbo")
        for tier in ENGINE_TIERS:
            assert repr(tier) in str(excinfo.value)

    def test_compiled_is_a_tier(self):
        assert "compiled" in ENGINE_TIERS
