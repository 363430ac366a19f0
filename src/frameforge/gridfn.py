"""Real samples on a uniform grid with per-cell quadrature weights.

The grid subdivides a bounding box into n^d equal cells; samples live at
cell centers and integrals use the midpoint rule.  When a grid function is
attached to a box-union domain, each cell weight is the exact volume of the
cell's intersection with the domain, so restriction to the domain costs no
quadrature error for piecewise-constant data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .geometry import Box, BoxUnionSet, cartesian, exact_reading


def grid_centers(box: Box, n: int) -> list[np.ndarray]:
    """Per-axis cell-center coordinates for an n-per-axis grid on the box."""
    if n < 1:
        raise InputError(f"grid needs at least one cell per axis, got {n}")
    return [a + (b - a) / n * (np.arange(n) + 0.5) for a, b in zip(box.lo, box.hi)]


def grid_points(box: Box, n: int) -> np.ndarray:
    """All cell centers of an n-per-axis grid as an (n^d, d) array in C order."""
    return cartesian(grid_centers(box, n))


def cell_volumes(box: Box, n: int, omega: Optional[BoxUnionSet] = None) -> np.ndarray:
    """Cell weights: full cell volume, or |cell ∩ omega| when a domain is given.

    Each of omega's boxes adds the outer product of its per-axis overlaps
    with the cell intervals, so the weights are exact box arithmetic with no
    loop over cells.  Cell i of side S from g meets [lo, hi) exactly when
    n (lo - g) < (i + 1) S and i S < n (hi - g), in integers on the decimals
    as written (``exact_reading``), so a face on a cell edge leaves no sliver.
    """
    d = box.dim
    steps = [(b - a) / n for a, b in zip(box.lo, box.hi)]
    if omega is None:
        full = float(np.prod(steps))
        return np.full((n,) * d, full)
    if omega.dim != d:
        raise InputError(f"domain dimension {omega.dim} != box dimension {box.dim}")
    idx = np.arange(n)
    cell_lo = [a + idx * s for a, s in zip(box.lo, steps)]
    cell_hi = [a + (idx + 1) * s for a, s in zip(box.lo, steps)]
    lo, hi, (g, top), _ = exact_reading(omega, [box.lo, box.hi])
    g, side = g.tolist(), (top - g).tolist()
    runs = [[(max(n * (a - c) // s, 0), min(-(n * (c - b) // s), n))
             for a, b, c, s in zip(box_lo, box_hi, g, side)]
            for box_lo, box_hi in zip(lo.tolist(), hi.tolist())]
    weights = np.zeros((n,) * d)
    for b, cells in zip(omega.boxes, runs):
        if all(i < j for i, j in cells):
            sides = [np.maximum(np.minimum(c_hi[i:j], b_hi) - np.maximum(c_lo[i:j], b_lo), 0.0)
                     for c_lo, c_hi, b_lo, b_hi, (i, j) in zip(cell_lo, cell_hi, b.lo, b.hi, cells)]
            weights[tuple(slice(i, j) for i, j in cells)] += reduce(np.multiply.outer, sides)
    return weights


@dataclass(frozen=True)
class GridFunction:
    """Real samples at the cell centres of an n-per-axis grid on the box.
    The cell weights are derived once from the box and the optional domain
    (``cell_volumes``), so they are exact and never passed in."""

    bounding_box: Box
    samples: np.ndarray  # real, shape (n,)*dim
    domain: Optional[BoxUnionSet] = None
    cell_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples)
        if np.iscomplexobj(s) and s.imag.any():
            raise InputError(f"grid samples must be real, got {s[s.imag != 0].flat[0]}")
        s = np.array(s.real, dtype=float)
        if not np.isfinite(s).all():  # the rule of geometry.as_vec, over a whole array
            raise InputError(f"every number must be finite, got {s[~np.isfinite(s)][0]}")
        d = self.bounding_box.dim
        if s.ndim != d:
            raise InputError(f"samples of shape {s.shape} do not fit a {d}-d grid")
        if len(set(s.shape)) != 1:
            raise InputError("grid must have the same number of cells per axis")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "cell_weights",
                           cell_volumes(self.bounding_box, s.shape[0], self.domain))

    @property
    def dim(self) -> int:
        return self.bounding_box.dim

    @property
    def n_per_axis(self) -> int:
        return self.samples.shape[0]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(side / self.n_per_axis for side in self.bounding_box.sides)

    def axes(self) -> list[np.ndarray]:
        return grid_centers(self.bounding_box, self.n_per_axis)

    def points(self) -> np.ndarray:
        """All cell centers as an (n^d, d) array in C order."""
        return grid_points(self.bounding_box, self.n_per_axis)

    def integral(self) -> float:
        return float(np.sum(self.samples * self.cell_weights))

    def norm_sq(self) -> float:
        return float(np.sum(self.samples ** 2 * self.cell_weights))

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of the samples; zero outside the box.

        Inside the box but beyond the outermost cell centers the edge sample
        value is held constant, which keeps indicator data exact.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise InputError(f"query points have dimension {pts.shape[1]}, grid has {self.dim}")
        inside = self.bounding_box.contains(pts)
        out = np.zeros(len(pts))
        if not inside.any():
            return out
        q = pts[inside]
        if self.dim == 1:
            out[inside] = np.interp(q[:, 0], self.axes()[0], self.samples)
        else:
            from scipy.ndimage import map_coordinates
            coords = ((q - self.bounding_box.lo) / np.array(self.spacing) - 0.5).T
            out[inside] = map_coordinates(self.samples, coords, order=1, mode="nearest")
        return out

    @staticmethod
    def from_callable(fn: Callable[[np.ndarray], np.ndarray], box: Box, n: int,
                      omega: Optional[BoxUnionSet] = None) -> "GridFunction":
        """Sample ``fn`` (vectorized over an (m, d) point array) at cell centers."""
        return GridFunction(box, np.reshape(fn(grid_points(box, n)), (n,) * box.dim), omega)

    @staticmethod
    def indicator(box: Box, n: int) -> "GridFunction":
        return GridFunction(box, np.ones((n,) * box.dim))
