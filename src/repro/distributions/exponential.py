"""Exponential client distribution.

Clients pile up towards the origin corner of the grid and thin out
exponentially — the paper's asymmetric-hotspot scenario (Table 2).

Sampling uses the inverse-transform method on top of the uniform PRNG:
``X = -scale * ln(1 - U)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.distributions.base import ClientDistribution

__all__ = ["ExponentialDistribution"]


@dataclass(frozen=True)
class ExponentialDistribution(ClientDistribution):
    """Per-axis Exponential with the given ``scale`` (mean).

    When ``scale`` is ``None`` it defaults to ``extent / 4`` so that the
    bulk of the mass sits in the lower-left quarter of the grid (the
    paper leaves the parameter unspecified).
    """

    scale: float | None = None

    name: ClassVar[str] = "exponential"

    def __post_init__(self) -> None:
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def axis_scale(self, extent: int) -> float:
        """Effective scale for an axis of the given extent."""
        return self.scale if self.scale is not None else extent / 4.0

    def sample_axis(
        self, count: int, extent: int, rng: np.random.Generator
    ) -> np.ndarray:
        uniforms = rng.uniform(0.0, 1.0, size=count)
        # Inverse transform; 1 - U avoids log(0) because U < 1.
        return -self.axis_scale(extent) * np.log1p(-uniforms)
