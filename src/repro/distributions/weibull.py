"""Weibull client distribution.

"It has been shown from studies in real urban areas or university
campuses that users tend to cluster to hotspots.  Therefore different
client mesh node distributions should be considered, for instance
Weibull distribution" (Section 2).  The Weibull's shape parameter tunes
how sharply clients cluster near the origin corner: ``shape < 1`` is
extremely heavy near zero, ``shape = 1`` recovers the Exponential and
larger shapes push the mode away from the corner.

Sampling uses the inverse-transform method:
``X = scale * (-ln(1 - U)) ** (1 / shape)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.distributions.base import ClientDistribution

__all__ = ["WeibullDistribution"]


@dataclass(frozen=True)
class WeibullDistribution(ClientDistribution):
    """Per-axis Weibull with the given ``shape`` and ``scale``.

    When ``scale`` is ``None`` it defaults to ``extent / 3`` (the paper
    leaves Weibull parameters unspecified; the default produces a
    hotspot around the lower-left with a visible tail across the grid).
    """

    shape: float = 1.2
    scale: float | None = None

    name: ClassVar[str] = "weibull"

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if self.scale is not None and self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def axis_scale(self, extent: int) -> float:
        """Effective scale for an axis of the given extent."""
        return self.scale if self.scale is not None else extent / 3.0

    def sample_axis(
        self, count: int, extent: int, rng: np.random.Generator
    ) -> np.ndarray:
        uniforms = rng.uniform(0.0, 1.0, size=count)
        return self.axis_scale(extent) * np.power(
            -np.log1p(-uniforms), 1.0 / self.shape
        )
