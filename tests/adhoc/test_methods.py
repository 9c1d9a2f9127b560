"""Unit tests for the seven concrete ad hoc placement methods.

Every method must produce a valid placement; each pattern method must
put its pattern share where its topology says (left band, diagonals,
central zone, corners, dense zones).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adhoc import (
    ColLeftPlacement,
    CornersPlacement,
    CrossPlacement,
    DiagPlacement,
    HotSpotPlacement,
    MethodNotApplicableError,
    NearPlacement,
    RandomPlacement,
    paper_methods,
)
from repro.core.density import DensityMap
from repro.core.geometry import Point
from repro.core.grid import GridArea
from repro.instances.catalog import tiny_spec


@pytest.mark.parametrize("method", paper_methods(), ids=lambda m: m.name)
class TestAllMethods:
    def test_valid_full_placement(self, method, tiny_problem, rng):
        placement = method.place(tiny_problem, rng)
        assert len(placement) == tiny_problem.n_routers
        assert len(placement.occupied) == tiny_problem.n_routers
        assert all(tiny_problem.grid.contains(c) for c in placement)

    def test_deterministic_for_same_seed(self, method, tiny_problem):
        a = method.place(tiny_problem, np.random.default_rng(3))
        b = method.place(tiny_problem, np.random.default_rng(3))
        assert a.cells == b.cells

    def test_works_on_minimal_fleet(self, method, rng):
        spec = tiny_spec()
        from dataclasses import replace

        problem = replace(spec, n_routers=1).generate()
        placement = method.place(problem, rng)
        assert len(placement) == 1


class TestRandom:
    def test_spreads_over_grid(self, tiny_problem, rng):
        placement = RandomPlacement().place(tiny_problem, rng)
        xs = {c.x for c in placement}
        assert len(xs) > 4  # not collapsed to a band


class TestColLeft:
    def test_pattern_in_left_band(self, tiny_problem, rng):
        method = ColLeftPlacement(band_width=2, pattern_fraction=0.9)
        placement = method.place(tiny_problem, rng)
        in_band = [c for c in placement if c.x < 4]
        n_pattern = round(0.9 * tiny_problem.n_routers)
        assert len(in_band) >= n_pattern

    def test_pattern_spans_height(self, tiny_problem, rng):
        placement = ColLeftPlacement(band_width=1).place(tiny_problem, rng)
        ys = sorted(c.y for c in placement if c.x <= 2)
        assert ys[0] < 6
        assert ys[-1] > 26

    def test_band_width_validation(self):
        with pytest.raises(ValueError):
            ColLeftPlacement(band_width=0)

    def test_effective_band_width_derived(self):
        method = ColLeftPlacement()
        assert method.effective_band_width(GridArea(128, 128)) == 4
        assert method.effective_band_width(GridArea(16, 16)) == 1


class TestDiag:
    def test_pattern_near_main_diagonal(self, tiny_problem, rng):
        placement = DiagPlacement().place(tiny_problem, rng)
        on_diagonal = [c for c in placement if abs(c.x - c.y) <= 3]
        assert len(on_diagonal) >= round(0.9 * tiny_problem.n_routers)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            DiagPlacement(jitter=-1)

    def test_applicability_near_square_only(self):
        method = DiagPlacement()
        assert method.is_applicable(GridArea(100, 95))
        assert not method.is_applicable(GridArea(100, 50))

    def test_strict_mode_on_elongated_grid(self, rng):
        from dataclasses import replace

        problem = replace(tiny_spec(), width=64, height=16).generate()
        with pytest.raises(MethodNotApplicableError):
            DiagPlacement(strict=True).place(problem, rng)

    def test_jitter_spreads_band(self, tiny_problem, rng):
        placement = DiagPlacement(jitter=2).place(tiny_problem, rng)
        assert all(abs(c.x - c.y) <= 8 for c in placement if abs(c.x - c.y) <= 8)


class TestCross:
    def test_pattern_on_either_diagonal(self, tiny_problem, rng):
        placement = CrossPlacement().place(tiny_problem, rng)
        size = tiny_problem.grid.width - 1
        on_cross = [
            c
            for c in placement
            if abs(c.x - c.y) <= 3 or abs(c.x + c.y - size) <= 3
        ]
        assert len(on_cross) >= round(0.9 * tiny_problem.n_routers)

    def test_both_diagonals_used(self, tiny_problem, rng):
        placement = CrossPlacement().place(tiny_problem, rng)
        size = tiny_problem.grid.width - 1
        main = [c for c in placement if abs(c.x - c.y) <= 2]
        anti = [c for c in placement if abs(c.x + c.y - size) <= 2]
        assert len(main) >= 4
        assert len(anti) >= 4

    def test_applicability(self):
        assert not CrossPlacement().is_applicable(GridArea(100, 60))


class TestNear:
    def test_pattern_in_central_zone(self, tiny_problem, rng):
        method = NearPlacement(zone_fraction=0.5)
        placement = method.place(tiny_problem, rng)
        zone = method.central_zone(tiny_problem.grid)
        inside = [c for c in placement if zone.contains(c)]
        assert len(inside) >= round(0.9 * tiny_problem.n_routers)

    def test_explicit_zone_size(self, tiny_problem, rng):
        method = NearPlacement(zone_width=8, zone_height=6)
        zone = method.central_zone(tiny_problem.grid)
        assert zone.width == 8 and zone.height == 6
        assert zone.center == tiny_problem.grid.center

    def test_zone_smaller_than_pattern_overflows_gracefully(self, rng):
        problem = tiny_spec().generate()
        # 2x2 zone cannot hold ~14 pattern routers; nudging spills over.
        placement = NearPlacement(zone_width=2, zone_height=2).place(problem, rng)
        assert len(placement.occupied) == problem.n_routers

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NearPlacement(zone_fraction=0.0)
        with pytest.raises(ValueError):
            NearPlacement(zone_width=-2)


class TestCorners:
    def test_pattern_in_corner_zones(self, tiny_problem, rng):
        method = CornersPlacement(zone_fraction=0.25)
        placement = method.place(tiny_problem, rng)
        zones = method.corner_zones(tiny_problem.grid)
        inside = [
            c for c in placement if any(z.contains(c) for z in zones)
        ]
        assert len(inside) >= round(0.9 * tiny_problem.n_routers)

    def test_all_four_corners_used(self, tiny_problem, rng):
        method = CornersPlacement(zone_fraction=0.25)
        placement = method.place(tiny_problem, rng)
        zones = method.corner_zones(tiny_problem.grid)
        for zone in zones:
            assert any(zone.contains(c) for c in placement)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CornersPlacement(zone_fraction=0.6)
        with pytest.raises(ValueError):
            CornersPlacement(zone_height=0)


class TestHotSpot:
    def test_strongest_router_in_densest_zone(self, tiny_problem, rng):
        method = HotSpotPlacement()
        placement = method.place(tiny_problem, rng)
        width, height = method.window_size(tiny_problem.grid)
        density = DensityMap.build(
            tiny_problem.grid,
            tiny_problem.clients.positions,
            width,
            height,
        )
        densest = density.densest_window()
        # The strongest router: max radius, then lowest id.
        strongest = int(np.argmax(tiny_problem.fleet.radii))
        assert densest.contains(placement[strongest])

    def test_routers_follow_client_mass(self, tiny_problem, rng):
        placement = HotSpotPlacement().place(tiny_problem, rng)
        clients = tiny_problem.clients.positions
        centroid = clients.mean(axis=0)
        distances = np.linalg.norm(
            placement.positions_array() - centroid, axis=1
        )
        # Placements hug the client mass: mean distance well under the
        # grid diagonal.
        assert distances.mean() < tiny_problem.grid.width / 2

    def test_no_clients_falls_back(self, rng):
        from dataclasses import replace

        problem = replace(tiny_spec(), n_clients=0).generate()
        placement = HotSpotPlacement().place(problem, rng)
        assert len(placement.occupied) == problem.n_routers

    def test_window_size_derived_and_explicit(self):
        grid = GridArea(128, 128)
        assert HotSpotPlacement().window_size(grid) == (8, 8)
        assert HotSpotPlacement(window_width=5, window_height=9).window_size(
            grid
        ) == (5, 9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HotSpotPlacement(window_fraction=0.0)
        with pytest.raises(ValueError):
            HotSpotPlacement(window_width=0)

    def test_quota_allocation_covers_fleet(self, tiny_problem, rng):
        # Regardless of zone counts, every router must be placed once.
        placement = HotSpotPlacement(window_fraction=0.5).place(
            tiny_problem, rng
        )
        assert len(placement) == tiny_problem.n_routers
