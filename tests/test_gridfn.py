"""Cell grids: cell centres and exact cell weights against a box-union domain."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameforge.errors import InputError
from frameforge.geometry import Box, BoxUnionSet, canonicalize
from frameforge.gridfn import GridFunction, cell_volumes, grid_points


def exact(v):
    """The decimal that ``repr`` writes for the float v, as an exact Fraction."""
    return Fraction(repr(v))


def cell_loop_volumes(box, n, omega):
    """Oracle: |cell ∩ omega| by one box intersection per cell and domain
    box, counted where the cell meets that box on the decimals as written:
    cell i spans [g + i S / n, g + (i + 1) S / n) on exact corners g, g + S."""
    steps = [(b - a) / n for a, b in zip(box.lo, box.hi)]
    weights = np.empty((n,) * box.dim)
    for idx in np.ndindex(*weights.shape):
        lo = tuple(a + i * s for a, i, s in zip(box.lo, idx, steps))
        hi = tuple(a + (i + 1) * s for a, i, s in zip(box.lo, idx, steps))
        ends = [(exact(a) + i * (exact(b) - exact(a)) / n,
                 exact(a) + (i + 1) * (exact(b) - exact(a)) / n)
                for a, b, i in zip(box.lo, box.hi, idx)]
        weights[idx] = sum(p.volume for b in omega.boxes
                           if all(c_lo < exact(f_hi) and exact(f_lo) < c_hi
                                  for (c_lo, c_hi), f_lo, f_hi in zip(ends, b.lo, b.hi))
                           and (p := b.intersect(Box(lo, hi))) is not None)
    return weights


@st.composite
def domains_on_grids(draw):
    """A random 1-D or 2-D box union, a grid box around it and a cell count."""
    d = draw(st.integers(1, 2))
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
        side = draw(st.lists(st.floats(0.05, 2), min_size=d, max_size=d))
        boxes.append(Box(tuple(lo), tuple(a + s for a, s in zip(lo, side))))
    omega = canonicalize(boxes)
    bb = omega.bounding_box()
    pad_lo = draw(st.lists(st.floats(0, 1), min_size=d, max_size=d))
    pad_hi = draw(st.lists(st.floats(0, 1), min_size=d, max_size=d))
    grid_box = Box(tuple(a - p for a, p in zip(bb.lo, pad_lo)),
                   tuple(b + p for b, p in zip(bb.hi, pad_hi)))
    return omega, grid_box, draw(st.integers(1, 24 if d == 1 else 12))


class TestCellVolumes:
    @given(domains_on_grids())
    @example((BoxUnionSet.from_intervals([(0, 0.1), (0.3, 0.4)]), Box((0.0,), (0.4,)), 256))
    @example((BoxUnionSet(2, (Box((0.0, 0.0), (1.0, 0.7847263618629674)),)),
              Box((0.0, -0.7847263618629674), (1.0, 1.5694527237259348)), 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_intersection_byte_for_byte(self, case):
        omega, grid_box, n = case
        fast = cell_volumes(grid_box, n, omega)
        assert fast.shape == (n,) * omega.dim
        assert fast.tobytes() == cell_loop_volumes(grid_box, n, omega).tobytes()


class TestGridFunction:
    def test_weights_come_from_the_box_and_the_domain(self):
        box, omega = Box((-8.0,), (8.0,)), BoxUnionSet.from_intervals([(-8.0, 0.3)])
        f = GridFunction(box, np.ones(16), omega)
        assert f.cell_weights.tobytes() == cell_volumes(box, 16, omega).tobytes()
        assert f.integral() == float(cell_volumes(box, 16, omega).sum())
        assert GridFunction.indicator(box, 16).cell_weights.tolist() == [1.0] * 16

    def test_a_complex_sample_is_refused(self):
        with pytest.raises(InputError, match=re.escape("grid samples must be real, got (1+5j)")):
            GridFunction(Box((0.0,), (1.0,)), np.array([1.0, 1 + 5j]))

    def test_samples_and_results_are_real(self):
        f = GridFunction(Box((0.0,), (1.0,)), np.array([1.0, 3.0], dtype=complex))
        assert f.samples.dtype == np.float64
        assert f.interpolate(np.array([[0.25], [0.5], [2.0]])).tolist() == [1.0, 2.0, 0.0]
        assert type(f.integral()) is float and f.integral() == 2.0


class TestGridPoints:
    def test_cell_centres_in_c_order(self):
        pts = grid_points(Box((0.0, 0.0), (1.0, 2.0)), 2)
        assert pts.tolist() == [[0.25, 0.5], [0.25, 1.5], [0.75, 0.5], [0.75, 1.5]]

