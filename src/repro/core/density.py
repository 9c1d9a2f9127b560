"""Denseness of grid sub-areas.

Two of the paper's algorithms rank sub-areas of the grid by how densely
populated they are:

* *HotSpot* placement puts "the most powerful mesh router in the most
  dense zone (in terms of client nodes) ... the second most powerful mesh
  router in the second most dense zone, and so on" (Section 3).
* The *swap movement* locates "the position of most dense Hg x Wg area"
  and "the position of most sparse Hg x Wg area" (Algorithm 3).

:class:`DensityMap` supports both with an integral-image (2-D prefix sum)
over the point histogram, so every sliding-window count is O(1) after an
O(W*H) setup — the same trick used by image processing box filters.  The
paper notes HotSpot "has a greater computational cost as compared to
other methods due to the computation of denseness property"; prefix sums
keep that cost modest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.geometry import Point, Rect
from repro.core.grid import GridArea

__all__ = ["DensityMap"]


@dataclass(frozen=True)
class DensityMap:
    """Sliding-window point counts over a grid.

    Built from a set of points (client cells, router cells, or both) and
    a window size ``window_width x window_height``; exposes the count of
    points inside every window position and the ranked dense/sparse
    windows.
    """

    grid: GridArea
    window_width: int
    window_height: int
    _window_counts: np.ndarray
    _histogram: np.ndarray

    @classmethod
    def build(
        cls,
        grid: GridArea,
        points: "np.ndarray | list[Point]",
        window_width: int,
        window_height: int,
    ) -> "DensityMap":
        """Compute the density map of ``points`` for the given window size."""
        if window_width <= 0 or window_height <= 0:
            raise ValueError(
                f"window must be positive, got {window_width}x{window_height}"
            )
        if window_width > grid.width or window_height > grid.height:
            raise ValueError(
                f"window {window_width}x{window_height} exceeds grid "
                f"{grid.width}x{grid.height}"
            )
        histogram = np.zeros((grid.height, grid.width), dtype=np.int64)
        array = np.asarray(points, dtype=int).reshape(-1, 2)
        if array.size:
            xs = array[:, 0]
            ys = array[:, 1]
            outside = (xs < 0) | (xs >= grid.width) | (ys < 0) | (ys >= grid.height)
            if outside.any():
                index = int(np.flatnonzero(outside)[0])
                raise ValueError(
                    f"point ({array[index, 0]}, {array[index, 1]}) outside the grid"
                )
            np.add.at(histogram, (ys, xs), 1)
        # Integral image with a zero border row/column, so that
        # sum(rect) = I[y1, x1] - I[y0, x1] - I[y1, x0] + I[y0, x0].
        integral = np.zeros((grid.height + 1, grid.width + 1), dtype=np.int64)
        np.cumsum(np.cumsum(histogram, axis=0), axis=1, out=integral[1:, 1:])
        window_counts = (
            integral[window_height:, window_width:]
            - integral[:-window_height, window_width:]
            - integral[window_height:, :-window_width]
            + integral[:-window_height, :-window_width]
        )
        return cls(
            grid=grid,
            window_width=window_width,
            window_height=window_height,
            _window_counts=window_counts,
            _histogram=histogram,
        )

    # ------------------------------------------------------------------
    # Raw counts
    # ------------------------------------------------------------------

    @property
    def window_counts(self) -> np.ndarray:
        """``(H - Hg + 1, W - Wg + 1)`` array of per-window point counts.

        Entry ``[y0, x0]`` is the number of points in
        ``Rect(x0, y0, Wg, Hg)``.
        """
        return self._window_counts

    @property
    def total_points(self) -> int:
        """Total number of points the map was built from."""
        return int(self._histogram.sum())

    def count_in(self, rect: Rect) -> int:
        """Exact point count inside an arbitrary rectangle (brute check)."""
        clipped = rect.intersection(self.grid.bounds)
        if clipped.area == 0:
            return 0
        return int(
            self._histogram[clipped.y0 : clipped.y1, clipped.x0 : clipped.x1].sum()
        )

    def window_at(self, x0: int, y0: int) -> Rect:
        """The window rectangle anchored at ``(x0, y0)``."""
        rect = Rect(x0, y0, self.window_width, self.window_height)
        if (
            x0 < 0
            or y0 < 0
            or rect.x1 > self.grid.width
            or rect.y1 > self.grid.height
        ):
            raise ValueError(f"window anchor ({x0}, {y0}) out of range")
        return rect

    # ------------------------------------------------------------------
    # Ranked windows
    # ------------------------------------------------------------------

    def densest_window(self) -> Rect:
        """The window with the most points (row-major first on ties)."""
        return self._extreme_window(densest=True)

    def sparsest_window(self) -> Rect:
        """The window with the fewest points (row-major first on ties)."""
        return self._extreme_window(densest=False)

    def _extreme_window(self, densest: bool) -> Rect:
        counts = self._window_counts
        flat_index = int(counts.argmax() if densest else counts.argmin())
        y0, x0 = np.unravel_index(flat_index, counts.shape)
        return self.window_at(int(x0), int(y0))

    def ranked_windows(
        self,
        count: int,
        densest: bool = True,
        min_overlap_free: bool = True,
    ) -> list[Rect]:
        """The top ``count`` windows, optionally non-overlapping.

        With ``min_overlap_free`` (the default) windows are selected by
        greedy non-maximum suppression: the best window is taken, every
        window overlapping it is discarded, and so on.  This yields the
        *distinct* "most dense zone, second most dense zone, ..." ordering
        HotSpot needs; without suppression the top windows would all be
        one-cell shifts of each other.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        counts = self._window_counts
        n_rows, n_cols = counts.shape
        if not min_overlap_free:
            # Stable sort on the (negated) counts keeps row-major order
            # among ties, matching densest_window()/sparsest_window().
            keys = -counts if densest else counts
            order = np.argsort(keys, axis=None, kind="stable")[:count]
            return [
                self.window_at(int(flat) % n_cols, int(flat) // n_cols)
                for flat in order
            ]
        # Masked non-maximum suppression: each pass takes the first
        # extreme of the working copy (argmax/argmin keep the row-major
        # first on ties, like the stable sort) and overwrites every
        # anchor whose window would overlap the pick with a sentinel no
        # real count reaches.  Landing on a sentinel means every window
        # is blocked.
        work = counts.copy()
        if densest:
            sentinel, pick = -1, work.argmax
        else:
            sentinel, pick = np.iinfo(work.dtype).max, work.argmin
        selected: list[Rect] = []
        while len(selected) < count:
            flat_index = int(pick())
            y0, x0 = divmod(flat_index, n_cols)
            if work[y0, x0] == sentinel:
                break
            selected.append(self.window_at(x0, y0))
            work[
                max(0, y0 - self.window_height + 1) : y0 + self.window_height,
                max(0, x0 - self.window_width + 1) : x0 + self.window_width,
            ] = sentinel
        return selected
