"""Unit tests for routers and the router fleet."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.radio import RadioProfile
from repro.core.routers import MeshRouter, RouterFleet
from repro.neighborhood.movements import _router_picks


class TestMeshRouter:
    def test_valid(self):
        r = MeshRouter(router_id=0, radius=3.5)
        assert r.router_id == 0
        assert r.radius == 3.5

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            MeshRouter(router_id=-1, radius=1.0)

    @pytest.mark.parametrize("radius", [0.0, -2.0])
    def test_non_positive_radius_rejected(self, radius):
        with pytest.raises(ValueError):
            MeshRouter(router_id=0, radius=radius)

    def test_frozen(self):
        r = MeshRouter(0, 1.0)
        with pytest.raises(AttributeError):
            r.radius = 2.0


class TestRouterFleet:
    def test_from_radii(self):
        fleet = RouterFleet.from_radii([2.0, 3.0, 4.0])
        assert len(fleet) == 3
        assert [r.router_id for r in fleet] == [0, 1, 2]
        assert np.array_equal(fleet.radii, [2.0, 3.0, 4.0])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            RouterFleet(())

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError, match="ids must equal positions"):
            RouterFleet((MeshRouter(1, 2.0),))

    def test_indexing(self):
        fleet = RouterFleet.from_radii([5.0, 6.0])
        assert fleet[1].radius == 6.0

    def test_radii_read_only(self):
        fleet = RouterFleet.from_radii([1.0, 2.0])
        with pytest.raises(ValueError):
            fleet.radii[0] = 9.0

    def test_oscillating_respects_profile(self, rng):
        profile = RadioProfile(2.0, 6.0)
        fleet = RouterFleet.oscillating(50, profile, rng)
        assert len(fleet) == 50
        assert fleet.radii.min() >= 2.0
        assert fleet.radii.max() <= 6.0

    def test_oscillating_non_positive_count(self, rng):
        with pytest.raises(ValueError):
            RouterFleet.oscillating(0, RadioProfile(1, 2), rng)

    def test_by_power_descending(self):
        fleet = RouterFleet.from_radii([3.0, 5.0, 1.0, 5.0])
        ordered = fleet.by_power_descending()
        assert [r.radius for r in ordered] == [5.0, 5.0, 3.0, 1.0]
        # Ties broken by id: router 1 before router 3.
        assert [r.router_id for r in ordered][:2] == [1, 3]

    def test_router_picks(self):
        fleet = RouterFleet.from_radii([3.0, 5.0, 1.0, 4.0])
        members = np.array([[True, False, True, True], [True, True, False, True]])
        assert _router_picks(fleet.radii, members, strongest=True).tolist() == [3, 1]
        assert _router_picks(fleet.radii, members, strongest=False).tolist() == [2, 0]

    def test_router_picks_tie_prefers_lower_id(self):
        fleet = RouterFleet.from_radii([5.0, 5.0, 1.0])
        members = np.array([[True, True, False]])
        assert _router_picks(fleet.radii, members, strongest=True).tolist() == [0]
        assert _router_picks(fleet.radii, members, strongest=False).tolist() == [0]

    def test_router_picks_empty_row(self):
        fleet = RouterFleet.from_radii([1.0, 2.0])
        members = np.array([[False, False], [True, False]])
        assert _router_picks(fleet.radii, members, strongest=True).tolist() == [-1, 0]
        assert _router_picks(fleet.radii, members, strongest=False).tolist() == [-1, 0]

    def test_iteration_order(self):
        fleet = RouterFleet.from_radii([1.0, 2.0, 3.0])
        assert [r.router_id for r in fleet] == [0, 1, 2]
