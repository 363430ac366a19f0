"""Box-union geometry: canonical form, measures, overlaps, lattice packing."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import decimal_bases, decimal_packings, decimal_unions, decimals

from frameforge import geometry
from frameforge.errors import InputError
from frameforge.geometry import (
    Box,
    BoxUnionSet,
    Lattice,
    ResidueVerdict,
    ResidueWitness,
    canonicalize,
    cantor_tower,
    cartesian,
    cover_counts,
    lattice_residue_check,
    meets,
    overlap_profile,
    overlap_zero_set,
    translate_overlap,
)
from frameforge.framebounds import ContinuousFreqMeasure
from frameforge.gridfn import GridFunction
from frameforge.pointsets import FiniteSet, WeightedComb, integers
from frameforge.windows import parse_expr


def interval_sweep_measure(intervals):
    """Independent 1-D union-length oracle via sorted endpoint events."""
    events = []
    for a, b in intervals:
        events.append((a, +1))
        events.append((b, -1))
    events.sort()
    depth, total, start = 0, 0.0, None
    for x, d in events:
        if depth == 0 and d > 0:
            start = x
        depth += d
        if depth == 0 and d < 0:
            total += x - start
    return total


def interval_intersection_overlap(intervals, x):
    """Direct interval-intersection oracle for |omega ∩ (omega + x)|."""
    total = 0.0
    for a, b in intervals:
        for c, d in intervals:
            total += max(0.0, min(b, d + x) - max(a, c + x))
    return total


def mc_indicator_measure(boxes, rng, n_samples=1_000_000):
    """Monte Carlo union-volume oracle by indicator integration."""
    lo = np.min([b.lo for b in boxes], axis=0)
    hi = np.max([b.hi for b in boxes], axis=0)
    pts = rng.uniform(lo, hi, size=(n_samples, len(lo)))
    inside = np.zeros(n_samples, dtype=bool)
    for b in boxes:
        inside |= np.all((pts >= b.lo) & (pts < b.hi), axis=1)
    return inside.mean() * np.prod(hi - lo)


class TestCanonicalize:
    def test_overlapping_intervals_merge(self):
        s = canonicalize([Box((0.0,), (1.0,)), Box((0.5,), (1.5,))])
        assert s.boxes == (Box((0.0,), (1.5,)),)
        assert s.measure() == 1.5

    def test_disjoint_intervals_unchanged(self):
        s = canonicalize([Box((0.0,), (1.0,)), Box((2.0,), (3.0,))])
        assert len(s.boxes) == 2
        assert s.measure() == 2.0

    def test_2d_overlap_against_monte_carlo(self):
        boxes = [Box((0.0, 0.0), (1.0, 1.0)), Box((0.5, 0.0), (1.5, 1.0))]
        s = canonicalize(boxes)
        assert s.measure() == pytest.approx(1.5, abs=1e-12)
        mc = mc_indicator_measure(boxes, np.random.default_rng(42))
        assert abs(s.measure() - mc) < 0.01

    def test_3d_overlap_against_monte_carlo(self):
        boxes = [Box((0, 0, 0), (1, 1, 1)), Box((0.5, 0, 0), (1.5, 1, 1)),
                 Box((0, 0.5, 0.25), (1, 1.5, 1.25))]
        s = canonicalize(boxes)
        mc = mc_indicator_measure(boxes, np.random.default_rng(0))
        assert abs(s.measure() - mc) < 0.01

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            canonicalize([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            canonicalize([Box((0.0,), (1.0,)), Box((0.0, 0.0), (1.0, 1.0))])

    @given(st.lists(st.tuples(st.floats(-4, 4), st.floats(0.125, 2)),
                    min_size=1, max_size=6))
    def test_measure_matches_sweep_oracle(self, raw):
        intervals = [(a, a + w) for a, w in raw]
        s = BoxUnionSet.from_intervals(intervals)
        assert s.measure() == pytest.approx(interval_sweep_measure(intervals), abs=1e-9)

    @given(st.lists(st.tuples(st.floats(-4, 4), st.floats(0.25, 2)),
                    min_size=1, max_size=4),
           st.floats(0.1, 0.9))
    def test_idempotent_and_subdivision_invariant(self, raw, frac):
        intervals = [(a, a + w) for a, w in raw]
        s = BoxUnionSet.from_intervals(intervals)
        again = canonicalize(list(s.boxes))
        assert again.boxes == s.boxes
        # splitting each input interval leaves the canonical measure unchanged
        split = []
        for a, b in intervals:
            m = a + frac * (b - a)
            split += [(a, m), (m, b)]
        assert BoxUnionSet.from_intervals(split).measure() == pytest.approx(
            s.measure(), abs=1e-9)


class TestMeasure:
    def test_unit_interval(self):
        assert BoxUnionSet.from_intervals([(0, 1)]).measure() == 1.0

    def test_two_halves(self):
        assert BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5)]).measure() == 1.0

    def test_cantor_tower_n2(self):
        oracle = interval_sweep_measure(
            [(-1, 1), (0.5, 1.5), (-1.5, -0.5), (1.75, 2.25), (-2.25, -1.75)])
        tower = cantor_tower(2)
        assert tower.omega.measure() == pytest.approx(oracle, abs=1e-12)
        assert tower.omega.measure() == pytest.approx(4.0, abs=1e-12)
        assert tower.tail_measure == 1.0


class TestTranslateOverlap:
    def test_half_shift(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        assert translate_overlap(s, (0.5,)) == 0.5

    def test_far_shift(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        assert translate_overlap(s, (2.0,)) == 0.0

    def test_two_piece_shift_against_oracle(self):
        intervals = [(0, 0.5), (1, 1.5)]
        s = BoxUnionSet.from_intervals(intervals)
        assert translate_overlap(s, (1.0,)) == pytest.approx(
            interval_intersection_overlap(intervals, 1.0), abs=1e-12)
        assert translate_overlap(s, (1.0,)) == 0.5

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.25, 1.5)),
                    min_size=1, max_size=5),
           st.floats(-5, 5))
    def test_symmetry_exact(self, raw, x):
        s = BoxUnionSet.from_intervals([(a, a + w) for a, w in raw])
        assert translate_overlap(s, (x,)) == translate_overlap(s, (-x,))

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(0.25, 1.5)),
                    min_size=1, max_size=5))
    def test_zero_shift_gives_measure(self, raw):
        s = BoxUnionSet.from_intervals([(a, a + w) for a, w in raw])
        assert translate_overlap(s, (0.0,)) == pytest.approx(s.measure(), rel=1e-12)


EIGHTHS = st.integers(-24, 24).map(lambda v: v / 8)


class TestOverlapProfile:
    def test_unit_interval_profile(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        prof = overlap_profile(s, [(0.0,), (0.5,), (1.0,)])
        assert [v for _, v in prof] == [1.0, 0.5, 0.0]

    def test_second_interval_lands_on_first(self):
        s = BoxUnionSet.from_intervals([(0, 1), (2, 3)])
        prof = overlap_profile(s, [(2.0,)])
        assert prof[0][1] == 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            overlap_profile(BoxUnionSet.from_intervals([(0, 1)]), [])

    @given(st.lists(st.tuples(EIGHTHS, EIGHTHS, st.sampled_from([0.25, 0.5, 1.5]),
                              st.sampled_from([0.25, 0.75, 1.0])),
                    min_size=1, max_size=4),
           st.lists(st.tuples(EIGHTHS, EIGHTHS), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_box_cuts(self, raw, shifts):
        # oracle: Box.intersect over every pair of boxes, one shift at a time
        # (corners on a grid of eighths, so no translate degenerates)
        s = canonicalize([Box((a, b), (a + w, b + h)) for a, b, w, h in raw])
        prof = overlap_profile(s, shifts)
        for (x, got), shift in zip(prof, shifts):
            assert x == shift
            moved = s.translate(shift)
            cuts = [b.intersect(p) for b in s.boxes for p in moved.boxes]
            oracle = sum(c.volume for c in cuts if c is not None)
            assert got == pytest.approx(oracle, rel=1e-12, abs=1e-12)
            assert got == translate_overlap(s, shift)

    def test_blocks_of_shifts_change_nothing(self, monkeypatch):
        omega = cantor_tower(6, k=4).omega
        xs = [(x,) for x in np.arange(-7.0, 7.0, 0.03)]
        whole = overlap_profile(omega, xs)
        for block in (1, 50, 1000):
            monkeypatch.setattr(geometry, "_OVERLAP_BLOCK", block)
            assert overlap_profile(omega, xs) == whole

    def test_dimension_mismatch_rejected(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        with pytest.raises(InputError):
            translate_overlap(s, (0.5, 0.5))
        with pytest.raises(InputError):
            overlap_profile(s, [(0.5,), (0.5, 0.5)])

    def test_cantor_tower_positive_overlaps(self):
        omega = cantor_tower(12).omega
        xs = np.arange(0.0, 8.0 + 1e-9, 0.01)
        prof = overlap_profile(omega, [(x,) for x in xs])
        assert all(v > 0 for _, v in prof)


SIXTEENTHS = st.integers(-16, 32).map(lambda v: v / 16)


@st.composite
def sixteenth_unions(draw):
    """A 1-D or 2-D box union with every face on a sixteenth."""
    d = draw(st.sampled_from([1, 2]))
    corner = st.tuples(*[SIXTEENTHS] * d)
    side = st.tuples(*[st.integers(1, 24).map(lambda v: v / 16)] * d)
    raw = draw(st.lists(st.tuples(corner, side), min_size=1, max_size=4))
    return canonicalize([Box(lo, tuple(a + w for a, w in zip(lo, sides)))
                         for lo, sides in raw])


class TestOverlapZeroSet:
    @given(sixteenth_unions(), st.integers(1, 40).map(lambda v: v / 16))
    @settings(max_examples=60, deadline=None)
    def test_matches_profile_on_the_thirty_second_grid(self, omega, x_max):
        # every breakpoint is a sixteenth and every midpoint a thirty-second,
        # so the grid meets every cell and face the zero set is made of
        zero_set = overlap_zero_set(omega, x_max)
        axis = np.arange(-32 * x_max, 32 * x_max + 1) / 32
        shifts = cartesian([axis[axis >= 0]] + [axis] * (omega.dim - 1))
        zero = np.array([v for _, v in overlap_profile(omega, shifts)]) == 0.0
        lo, hi = (np.array([box[e] for box in zero_set]).reshape(-1, 1, omega.dim)
                  for e in (0, 1))
        inside = np.any(np.all((lo <= shifts) & (shifts <= hi), axis=2), axis=0)
        assert np.array_equal(zero, inside), shifts[zero != inside]

    def test_unit_interval_vanishes_beyond_its_length(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        assert overlap_zero_set(s, 3.0) == [((1.0,), (3.0,))]
        assert overlap_zero_set(s, 0.5) == []

    def test_boxes_are_maximal_runs_along_the_first_axis(self):
        s = BoxUnionSet.from_intervals([(0, 1), (3, 4)])
        assert overlap_zero_set(s, 6.0) == [((1.0,), (2.0,)), ((4.0,), (6.0,))]

    def test_touching_faces_give_no_negative_zero(self):
        # lo_i - hi_j = 0 for boxes that share a face; a -0.0 end would
        # print as such in the CSV
        s = canonicalize([Box((0, 0), (1, 1)), Box((1, 0), (2, 0.5))])
        ends = [v for lo, hi in overlap_zero_set(s, 3.0) for v in lo + hi]
        assert 0.0 in ends
        assert all(math.copysign(1.0, v) > 0 for v in ends if v == 0.0)

    def test_no_box_lies_inside_another(self):
        # the L-shape's breakpoint rows gave six degenerate boxes, each inside
        # the box of a midpoint row beside it
        s = canonicalize([Box((0, 0), (1, 1)), Box((1, 0), (2, 0.5))])
        assert overlap_zero_set(s, 3.0) == [
            ((0.0, -3.0), (3.0, -1.0)), ((2.0, -1.0), (3.0, -0.5)), ((2.0, -0.5), (3.0, 0.5)),
            ((1.0, 0.5), (3.0, 1.0)), ((0.0, 1.0), (3.0, 3.0))]

    def test_bad_x_max_rejected(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        for x_max in (0.0, -2.0, float("inf"), float("nan")):
            with pytest.raises(InputError, match="x_max"):
                overlap_zero_set(s, x_max)


    def test_reads_no_overlap_at_the_nodes(self, monkeypatch):
        # the zero set counts covering box pairs; reading the overlap at
        # every node costs nodes x pairs and took seconds on these boxes
        def forbidden(omega, xs):
            raise AssertionError(f"overlap read at {len(xs)} shifts")

        rng = np.random.default_rng(19)
        lo, hi = np.sort(rng.uniform(0.0, 5.0, size=(2, 10, 2)), axis=0)
        omega = canonicalize([Box(tuple(a), tuple(b)) for a, b in zip(lo, hi)])
        holed, full = cantor_tower(12, k=5).omega, cantor_tower(12).omega
        monkeypatch.setattr(geometry, "_overlaps", forbidden)
        zero_set = overlap_zero_set(omega, 5.0)
        assert zero_set and all(0.0 <= a[0] and max(map(abs, a + b)) <= 5.0
                                for a, b in zero_set)
        assert ((2.01953125,), (2.982421875,)) in overlap_zero_set(holed, 8.0)
        assert overlap_zero_set(full, 8.0) == []

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_overlap_read_at_every_node(self, data):
        # on dyadic faces the old binary node reading is exact, and the zero
        # set keeps it bit for bit; on the other draws (faces in [1, 1.5])
        # the zero set reads the decimals as written, so 1.2 - 1.1 is 0.1,
        # not the binary 0.09999999999999987: there the oracle is the pair
        # test on Fraction(repr(face))
        d = data.draw(st.integers(1, 3))
        dyadic = data.draw(st.booleans())
        if dyadic:
            face, side = SIXTEENTHS, st.integers(1, 24).map(lambda v: v / 16)
        else:
            face, side = st.floats(1.0, 1.5), st.floats(0.01, 0.5)
        raw = data.draw(st.lists(st.tuples(st.tuples(*[face] * d), st.tuples(*[side] * d)),
                                 min_size=1, max_size=4 if d < 3 else 2))
        omega = canonicalize([Box(lo, tuple(a + w for a, w in zip(lo, sides)))
                              for lo, sides in raw])
        x_max = data.draw(st.sampled_from([0.25, 1.0, 2.5]))
        expected = (zero_set_from_nodes(omega, x_max, overlap_read_at_nodes) if dyadic else
                    zero_set_from_nodes(omega, x_max, no_pair_holds_the_nodes, fraction))
        assert repr(overlap_zero_set(omega, x_max)) == repr(expected)

    def test_decimal_faces_give_the_decimal_zero_set(self):
        # in binary 0.1 + 0.2 > 0.3, and the float breakpoints read
        # 0.10000000000000003 and 0.19999999999999998
        s = BoxUnionSet.from_intervals([(0, 0.1), (0.3, 0.4)])
        assert overlap_zero_set(s, 0.5) == [((0.1,), (0.2,)), ((0.4,), (0.5,))]


def fraction(v):
    """The decimal that ``repr`` writes for the float v, as an exact Fraction."""
    return Fraction(repr(v))


def overlap_read_at_nodes(omega, nodes):
    """Zero reads of the translate overlap over the whole node grid."""
    shape = [len(n) for n in nodes]
    return geometry._overlaps(omega, cartesian(nodes)).reshape(shape) == 0.0


def no_pair_holds_the_nodes(omega, nodes):
    """Nodes outside every pair's open product (lo_i - hi_j, hi_i - lo_j),
    on the faces as ``fraction`` reads them."""
    held = np.zeros([len(n) for n in nodes], dtype=bool)
    for p in omega.boxes:
        for q in omega.boxes:
            masks = [(a - d < n) & (n < b - c) for a, b, c, d, n
                     in zip(*(map(fraction, v) for v in (p.lo, p.hi, q.lo, q.hi)), nodes)]
            held |= functools.reduce(np.multiply.outer, masks)
    return ~held


def zero_set_from_nodes(omega, x_max, zero_at, read=float):
    """``overlap_zero_set`` with every face and x_max read by ``read`` (the
    binary float, or ``fraction``) and the zero nodes read by ``zero_at``;
    with ``overlap_read_at_nodes`` this is how it read them before it
    counted covering pairs and read the decimals as written."""
    los = np.array([[read(v) for v in b.lo] for b in omega.boxes])
    his = np.array([[read(v) for v in b.hi] for b in omega.boxes])
    top, breaks = read(x_max), []
    for a in range(omega.dim):
        start, diffs = -top if a else read(0.0), np.subtract.outer(los[:, a], his[:, a]).ravel()
        b = np.unique(np.r_[start, top, diffs, 0 - diffs])
        breaks.append(b[(b >= start) & (b <= top)])
    nodes = [(b[k // 2] + b[(k + 1) // 2]) / 2 for b in breaks
             for k in [np.arange(2 * len(b) - 1)]]
    zero = zero_at(omega, nodes)
    edges = np.diff(np.moveaxis(zero, 0, -1).astype(np.int8), axis=-1, prepend=0, append=0)
    *rest, first = np.nonzero(edges == 1)
    last = np.nonzero(edges == -1)[-1] - 1
    lo = np.stack([b[k // 2] for b, k in zip(breaks, [first, *rest])], 1)
    hi = np.stack([b[(k + 1) // 2] for b, k in zip(breaks, [last, *rest])], 1)
    inside = np.all((lo[:, None] >= lo[None]) & (hi[:, None] <= hi[None]), axis=2)
    keep = ~(inside & ~np.eye(len(lo), dtype=bool)).any(axis=1)
    return [(tuple(map(float, a)), tuple(map(float, b)))
            for a, b in zip(lo[keep].tolist(), hi[keep].tolist())]


class TestCoverCounts:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_count_over_the_items(self, data):
        # runs may be empty (start >= stop) or end at the last node
        shape = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        m = data.draw(st.integers(0, 8))
        runs = [tuple(np.array(data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m)),
                               dtype=int) for _ in "se") for n in shape]
        counts = cover_counts(runs, shape)
        assert counts.shape == tuple(shape)
        assert counts.ravel().tolist() == [
            sum(all(s[k] <= i < e[k] for i, (s, e) in zip(node, runs)) for k in range(m))
            for node in np.ndindex(*shape)]

    def test_one_item_covers_its_box(self):
        counts = cover_counts([(np.array([1, 0]), np.array([3, 2])),
                               (np.array([0, 2]), np.array([2, 2]))], (3, 2))
        assert counts.tolist() == [[0, 0], [1, 1], [1, 1]]


class TestLatticeResidue:
    def test_shift_collision_violates(self):
        s = BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5)])
        verdict = lattice_residue_check(s, Lattice.scaled_integers(1.0))
        assert not verdict.holds
        w = verdict.witness
        assert w.overlap > 0
        # the witness point lies in the set both directly and after the shift
        assert s.contains(w.point)
        shifted_back = tuple(p + g for p, g in zip(w.point, w.gamma_prime))
        assert s.contains(shifted_back)

    def test_witness_is_the_first_colliding_vector(self):
        # ±1, ±2 and ±3 all collide; the witness is the lexicographically
        # first lattice vector, -3, and carries its own overlap
        s = BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5), (3, 3.25)])
        w = lattice_residue_check(s, Lattice.scaled_integers(1.0)).witness
        assert w.gamma_prime == (3.0,)
        assert w.overlap == translate_overlap(s, (-3.0,)) == 0.25

    def test_even_lattice_holds(self):
        s = BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5)])
        assert lattice_residue_check(s, Lattice.scaled_integers(2.0)).holds

    def test_fundamental_domain(self):
        s = BoxUnionSet.from_intervals([(0, 1)])
        assert lattice_residue_check(s, Lattice.scaled_integers(1.0)).holds

    @given(st.floats(0.5, 3.0), st.floats(-1, 1), st.floats(0.25, 1.0))
    @settings(max_examples=40)
    def test_holds_implies_packing_bound(self, covol, a, w):
        s = BoxUnionSet.from_intervals([(a, a + w), (a + covol, a + covol + w / 2)])
        verdict = lattice_residue_check(s, Lattice.scaled_integers(covol))
        if verdict.holds:
            assert s.measure() <= covol + 1e-9


def exact_pair_test(omega, x):
    """|omega ∩ (omega + x)| > 0 for Fractions x, on the faces as ``fraction`` reads them."""
    boxes, x = [tuple(tuple(map(fraction, v)) for v in (b.lo, b.hi)) for b in omega.boxes], tuple(x)
    return any(all(p_lo - q_hi < v < p_hi - q_lo for p_lo, p_hi, q_lo, q_hi, v
                   in zip(*p, *q, x)) for p in boxes for q in boxes)


def exact_residue_witness(omega, lattice):
    """The lexicographically first nonzero vector of an upper-triangular
    basis that passes ``exact_pair_test``, in Fractions, or None: back
    substitution finds every coefficient vector n with |(B n)_a| below the
    bounding box's side on each axis."""
    basis = [[fraction(v) for v in row] for row in lattice.basis]
    bb, d = omega.bounding_box(), omega.dim
    sides = [fraction(h) - fraction(l) for l, h in zip(bb.lo, bb.hi)]

    def coefficients(axis, tail):
        if axis < 0:
            yield tail
            return
        rest, a = sum(basis[axis][j] * n for j, n in enumerate(tail, axis + 1)), basis[axis][axis]
        for n in range(math.floor((-sides[axis] - rest) / a),
                       math.ceil((sides[axis] - rest) / a) + 1):
            yield from coefficients(axis - 1, (n,) + tail)

    deltas = [tuple(sum(b * n for b, n in zip(row, c)) for row in basis)
              for c in coefficients(d - 1, ())]
    return min((v for v in deltas if any(v) and exact_pair_test(omega, v)), default=None)


def float_residue_check(omega, lattice):
    """The binary reading ``lattice_residue_check`` replaced: lattice points
    in the difference box, its upper faces padded by 1e-9, and the first
    whose overlap reads above 0.0."""
    bb = omega.bounding_box()
    diff = Box(tuple(a - b for a, b in zip(bb.lo, bb.hi)),
               tuple(b - a + 1e-9 for a, b in zip(bb.lo, bb.hi)))
    deltas = lattice.points_in_box(diff)
    deltas = deltas[np.any(deltas != 0.0, axis=1)]
    overlaps = geometry._overlaps(omega, deltas)
    hits = np.flatnonzero(overlaps > 0.0)
    if hits.size == 0:
        return ResidueVerdict(True, None)
    delta, ov = deltas[hits[0]], float(overlaps[hits[0]])
    moved = omega.translate(delta).boxes
    point = next((cut.center for b in omega.boxes for p in moved
                  if (cut := b.intersect(p)) is not None), None)
    return ResidueVerdict(False, ResidueWitness(tuple(-float(v) for v in delta), point, ov))


TENTHS = BoxUnionSet.from_intervals([(0, 0.1), (0.3, 0.4)])
TENTHS_SQUARES = canonicalize([Box((0, 0), (0.1, 0.1)), Box((0.3, 0.3), (0.4, 0.4))])
# faces at 10^3 read at the 10^17 scale of 0.30000000000000004 pass 2^60: Python ints
LONG_TENTHS = BoxUnionSet.from_intervals([(0, 0.1), (0.3, 1000.0)])


@st.composite
def sixteenth_packings(draw):
    """A ``sixteenth_unions`` domain and a diagonal or upper-triangular basis
    with spacings in [1/4, 2] and a shear in [-1, 1], all on sixteenths."""
    omega = draw(sixteenth_unions())
    spacing = [draw(st.integers(4, 32).map(lambda v: v / 16)) for _ in range(omega.dim)]
    basis = (tuple(spacing),) if omega.dim == 1 else (
        (spacing[0], draw(st.integers(-16, 16).map(lambda v: v / 16))), (0.0, spacing[1]))
    return omega, Lattice(basis)


class TestDecimalReading:
    """On decimal faces, shifts and bases, the overlap sign, the residue
    verdict and its witness, and the zero set are those of the pair test on
    Fraction(repr(.)), the decimals as written; on dyadic ones the residue
    check is the binary reading's, bit for bit."""

    @given(decimal_unions(), st.lists(st.tuples(decimals(-1, 1), decimals(-1, 1)),
                                      min_size=1, max_size=8))
    @example(TENTHS, [(0.2, 0.0), (0.1, 0.0), (0.30000000000000004, 0.0), (0.3, 0.0)])
    @example(TENTHS_SQUARES, [(0.2, 0.2), (0.3, 0.3), (0.25, 0.3)])
    @example(LONG_TENTHS, [(1e-17, 0.0), (999.9, 0.0), (1000.0, 0.0)])  # past int64
    @settings(max_examples=60, deadline=None)
    def test_overlap_sign(self, omega, shifts):
        xs = [x[:omega.dim] for x in shifts]
        assert meets(omega, np.eye(len(xs), dtype=int), xs).tolist() == [
            exact_pair_test(omega, map(fraction, x)) for x in xs]

    @given(decimal_packings())
    @example((TENTHS, Lattice.scaled_integers(0.2)))
    @example((TENTHS, Lattice.scaled_integers(0.1)))
    @example((TENTHS_SQUARES, Lattice.scaled_integers(0.2, 2)))
    @example((LONG_TENTHS, Lattice.scaled_integers(0.1 + 0.2)))  # past int64
    @settings(max_examples=80, deadline=None)
    def test_residue_verdict_and_witness(self, case):
        omega, lattice = case
        verdict, delta = lattice_residue_check(omega, lattice), exact_residue_witness(*case)
        assert verdict.holds is (delta is None)
        if delta is not None:
            assert verdict.witness.gamma_prime == tuple(float(-v) for v in delta)
            assert verdict.witness.overlap > 0.0

    @given(decimal_unions(), decimals(0.1, 2))
    @example(TENTHS, 0.5)
    @example(TENTHS_SQUARES, 0.5)
    @settings(max_examples=60, deadline=None)
    def test_zero_set(self, omega, x_max):
        assert repr(overlap_zero_set(omega, x_max)) == repr(
            zero_set_from_nodes(omega, x_max, no_pair_holds_the_nodes, fraction))

    def test_reproductions(self):
        # in binary 0.1 + 0.2 > 0.3: the float reading refused both
        # tilings with overlaps of 5.55e-17 and 3.08e-33, and witnessed
        # 0.1Z with the shift 0.30000000000000004
        assert lattice_residue_check(TENTHS, Lattice.scaled_integers(0.2)).holds
        assert lattice_residue_check(TENTHS_SQUARES, Lattice.scaled_integers(0.2, 2)).holds
        w = lattice_residue_check(TENTHS, Lattice.scaled_integers(0.1)).witness
        assert w.gamma_prime == (0.3,) and w.point == (0.05,)

    @given(sixteenth_packings())
    @settings(max_examples=80, deadline=None)
    def test_dyadic_input_keeps_the_binary_verdict(self, case):
        assert repr(lattice_residue_check(*case)) == repr(float_residue_check(*case))


class TestLattice:
    def test_covolume(self):
        assert Lattice.scaled_integers(0.5).covolume == 0.5

    def test_dual_of_dual_roundtrip(self):
        g = Lattice(((2.0, 1.0), (0.0, 1.0)))
        back = g.dual().dual()
        assert np.allclose(back.matrix, g.matrix, atol=1e-12)

    def test_dual_covolume_reciprocal(self):
        g = Lattice.scaled_integers(2.0)
        assert g.dual().covolume == pytest.approx(0.5, rel=1e-12)

    def test_points_in_box(self):
        pts = Lattice.scaled_integers(1.0).points_in_box(Box((-2.5,), (2.5,)))
        assert pts.ravel().tolist() == [-2, -1, 0, 1, 2]

    def test_matrix_and_covolume_are_stored_read_only(self):
        g = Lattice(((2.0, 1.0), (0.0, 3.0)))
        assert g.matrix is g.matrix and g.matrix.tolist() == [[2.0, 1.0], [0.0, 3.0]]
        assert g.covolume == float(abs(np.linalg.det(np.array(g.basis))))
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 5.0
        # the stored values take no part in equality, hashing or the repr
        same = Lattice(((2, 1), (0, 3)))
        assert same == g and hash(same) == hash(g)
        assert repr(g) == "Lattice(basis=((2.0, 1.0), (0.0, 3.0)))"

    def test_inverse_is_stored_read_only(self):
        g = Lattice(((2.0, 1.0), (0.0, 4.0)))
        assert g.inverse is g.inverse and g.inverse.tolist() == [[0.5, -0.125], [0.0, 0.25]]
        with pytest.raises(ValueError, match="read-only"):
            g.inverse[0, 0] = 5.0
        assert g.dual().matrix.tolist() == g.inverse.T.tolist()


def walked_points(lattice, box, offsets, margin=4):
    """The enumeration's definition: every point n B^T + o, n whole, with
    lo <= p < hi, walked over the coefficients within ``margin`` of the box
    on every axis, bounded back to front from an upper-triangular basis."""
    basis, d, parts = lattice.basis, lattice.dim, []
    for o in offsets:
        ranges = [None] * d
        for a in reversed(range(d)):
            tail = [sorted(basis[a][j] * ranges[j][[0, -1]]) for j in range(a + 1, d)]
            least, most = sum(t[0] for t in tail), sum(t[1] for t in tail)
            ends = [(f - o[a] - r) / basis[a][a] for f in (box.lo[a], box.hi[a])
                    for r in (least, most)]
            ranges[a] = np.arange(math.floor(min(ends)) - margin, math.ceil(max(ends)) + margin + 1)
        parts.append(cartesian(ranges) @ lattice.matrix.T + o)
    pts = np.vstack(parts)
    pts = pts[[box_oracle(box, p) for p in pts.tolist()]]
    return pts[np.lexsort(pts[:, ::-1].T)]


@st.composite
def enumerations(draw):
    """A ``decimal_bases`` lattice, a box of decimal faces in [-3, 3] (or
    with faces on lattice points) and one to three decimal offsets, or None."""
    d = draw(st.integers(1, 2))
    lattice = draw(decimal_bases(d))
    if draw(st.booleans()):
        n = draw(st.lists(st.integers(-8, 8), min_size=d, max_size=d))
        m = [v + draw(st.integers(1, 6)) for v in n]
        lo, hi = lattice.matrix @ n, lattice.matrix @ m
        if np.any(lo == hi):
            lo = lo - 0.5
    else:
        lo = np.array([draw(decimals(-3, 2)) for _ in range(d)])
        hi = lo + np.array([draw(decimals(0.001, 1)) for _ in range(d)])
    box = Box(tuple(np.minimum(lo, hi).tolist()), tuple(np.maximum(lo, hi).tolist()))
    offsets = draw(st.none() | st.lists(st.tuples(*[decimals(-1, 1)] * d), min_size=1,
                                        max_size=3).map(tuple))
    return lattice, box, offsets


class TestEnumerationOracle:
    """``Lattice.points_in_box`` keeps exactly the points n B^T + o that
    ``Box.contains`` holds: the integer walk ``walked_points`` decides."""

    @given(enumerations())
    @example((Lattice.scaled_integers(0.1), Box((0.30000000000000004,), (0.7000000000000001,)),
              None))
    @example((Lattice(((0.1, 0.7), (0.0, 0.3))), Box((0.8, 0.3), (1.6, 0.8999999999999999)),
              ((0.0, 0.0),)))
    @example((Lattice.scaled_integers(1.0), Box((1000.3,), (1003.3,)), ((1000.3,),)))
    @example((Lattice.scaled_integers(1.0), Box((997.3,), (1000.3,)), ((1000.3,), (0.5,))))
    # past 2^53 the float n + o of n = -1 rounds onto the face: only the
    # one-step pad keeps it
    @example((Lattice.scaled_integers(1.0), Box((1e16,), (1e16 + 4,)), ((1e16,),)))
    @settings(max_examples=120, deadline=None)
    def test_points_in_box_match_the_integer_walk(self, case):
        lattice, box, offsets = case
        got = lattice.points_in_box(box) if offsets is None else lattice.points_in_box(box, offsets)
        walked = walked_points(lattice, box, offsets or ((0.0,) * lattice.dim,))
        assert got.tolist() == walked.tolist()


def box_oracle(box, p):
    """The definition: lo_a <= x_a < hi_a on every axis, in Python floats."""
    return all(a <= x < b for a, x, b in zip(box.lo, p, box.hi))


class TestPointInBox:
    def test_cartesian_is_c_order(self):
        assert cartesian([[0.0, 1.0], [5.0, 6.0, 7.0]]).tolist() == [
            [0.0, 5.0], [0.0, 6.0], [0.0, 7.0], [1.0, 5.0], [1.0, 6.0], [1.0, 7.0]]

    @pytest.mark.parametrize("d", [1, 2])
    def test_cartesian_returns_a_fresh_array(self, d):
        axes = [np.array([0.0, 1.0]) for _ in range(d)]
        out = cartesian(axes)
        out[:] = 9.0
        assert [a.tolist() for a in axes] == [[0.0, 1.0]] * d

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_array_contains_matches_one_point_calls(self, data):
        d = data.draw(st.integers(1, 3))
        # half-integer corners and coordinates put many points on box faces
        half = st.integers(-6, 6).map(lambda k: k / 2.0)
        coord = st.one_of(half, st.floats(-4.0, 4.0))
        boxes = []
        for _ in range(data.draw(st.integers(1, 4))):
            lo = data.draw(st.lists(half, min_size=d, max_size=d))
            sides = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
            boxes.append(Box(tuple(lo), tuple(a + s / 2.0 for a, s in zip(lo, sides))))
        omega = canonicalize(boxes)
        points = data.draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=20))
        # every corner of every box: a point on a lower face, an upper face or both
        points += [p for b in boxes for p in itertools.product(*zip(b.lo, b.hi))]
        pts = np.array(points)
        for box in boxes:
            mask = box.contains(pts)
            assert mask.shape == (len(points),)
            assert mask.tolist() == [box_oracle(box, p) for p in points]
            assert mask.tolist() == [box.contains(p) for p in points]
        mask = omega.contains(pts)
        assert mask.tolist() == [omega.contains(p) for p in points]
        assert mask.tolist() == [any(box_oracle(b, p) for b in boxes) for p in points]

    def test_one_point_calls_return_bools(self):
        box = Box((0.0,), (1.0,))
        assert box.contains(0.0) is True and box.contains((1.0,)) is False
        omega = BoxUnionSet.from_intervals([(0, 1), (2, 3)])
        assert omega.contains(2.5) is True and omega.contains((1.5,)) is False

    def test_points_of_another_dimension_are_refused(self):
        with pytest.raises(InputError, match="points of dimension 2 in a box of dimension 1"):
            Box((0.0,), (1.0,)).contains((0.5, 2.0))
        with pytest.raises(InputError, match="points of dimension 3 in a box of dimension 2"):
            Box((0.0, 0.0), (1.0, 1.0)).contains(np.zeros((4, 3)))


class TestCantorTower:
    def test_full_overlap_at_one(self):
        omega = cantor_tower(2).omega
        assert translate_overlap(omega, (1.0,)) > 0

    def test_holed_excludes_small_intervals(self):
        omega = cantor_tower(12, k=5).omega
        assert omega.contains((0.0,))
        assert not omega.contains((2.0,))  # |n|=2 interval removed
        assert not omega.contains((5.0,))  # |n|=5 interval removed
        assert omega.contains((6.0,))      # |n|=6 interval kept

    def test_holed_zero_overlap_near_five_halves(self):
        omega = cantor_tower(12, k=5).omega
        assert translate_overlap(omega, (2.5,)) == 0.0
        for dx in (-0.01, -0.005, 0.005, 0.01):
            assert translate_overlap(omega, (2.5 + dx,)) == 0.0

    def test_full_profile_positive_within_truncation_range(self):
        omega = cantor_tower(12).omega
        xs = np.arange(0.0, 8.0 + 1e-9, 0.01)
        assert all(translate_overlap(omega, (x,)) > 0 for x in xs)

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            cantor_tower(1)
        with pytest.raises(InputError):
            cantor_tower(6, k=6)
        with pytest.raises(InputError):
            cantor_tower(12, k=3)


UNIT_BOX = Box((0.0,), (1.0,))
# each builds a valid object from one finite number v
NUMBER_TAKERS = {
    "box": lambda v: Box((0.0, v), (1.0, 2.0)),
    "box_translate": lambda v: UNIT_BOX.translate((v,)),
    "lattice": lambda v: Lattice(((1.0, v), (0.0, 1.0))),
    "finite_set": lambda v: FiniteSet(((0.5,), (v,))),
    "comb_weight": lambda v: WeightedComb.single(integers(), v if v else 1.0),
    "atom_point": lambda v: ContinuousFreqMeasure(atoms=(((v,), 1.0),)),
    "atom_weight": lambda v: ContinuousFreqMeasure(atoms=(((0.0,), v if v else 1.0),)),
    "grid_samples": lambda v: GridFunction(UNIT_BOX, np.array([1.0, v])),
}


def whole_oracle(x):
    """The whole-number rule on the exact value of the float x."""
    exact = Fraction(x)
    n = round(exact)
    return n, abs(exact - n) <= Fraction(1, 10 ** 9) * max(1, abs(exact))


# each former whole-number rule, with dyadic input of the kind its site saw
FORMER_RULES = {
    # framebounds' period and cell ratios, all at least 1: relative 1e-9 x
    "relative": (lambda x: abs(x - round(x)) <= 1e-9 * x,
                 [1.0, 3.0 + 2 ** -40, 3.0 + 2 ** -20, 2.75, 4096.5]),
    # construction._aligned_grid: 1e-9 max(1, |x|), the rule that stays
    "relative_from_one": (lambda x: abs(x - round(x)) <= 1e-9 * max(1.0, abs(x)),
                          [0.0, 2 ** -31, 0.25, -7.0, 1e6 + 2 ** -20]),
    # Lattice.same_group, the coset offsets, repeats_along: absolute 1e-9
    "absolute": (lambda x: abs(x - round(x)) <= 1e-9,
                 [0.0, -2.0 + 2 ** -31, 0.5, 5.0 + 2 ** -26]),
}


class TestWholeNumberRule:
    @given(st.integers(-10 ** 6, 10 ** 6), st.sampled_from([1 - 1e-12, 1 + 1e-12]))
    def test_near_whole_numbers_are_whole(self, k, factor):
        n, whole = geometry.nearest_whole(k * factor)
        assert (n.dtype, int(n), bool(whole)) == (np.int64, *whole_oracle(k * factor))
        assert (int(n), bool(whole)) == (k, True)

    @given(st.integers(-10 ** 5, 10 ** 5), st.integers(1, 3).flatmap(
        lambda p: st.tuples(st.just(10 ** p), st.integers(1, 10 ** p - 1))))
    def test_decimals_off_the_integers_are_not_whole(self, k, fraction):
        x = float(k + Fraction(fraction[1], fraction[0]))
        n, whole = geometry.nearest_whole(x)
        assert (int(n), bool(whole)) == whole_oracle(x)
        assert not whole

    @pytest.mark.parametrize("rule", list(FORMER_RULES))
    def test_decides_as_each_former_rule_did_on_dyadic_input(self, rule):
        former, xs = FORMER_RULES[rule]
        assert geometry.nearest_whole(xs)[1].tolist() == [former(x) for x in xs]


class TestNumberRule:
    def test_finite_numbers_convert_as_float_does(self):
        assert geometry.as_vec(3) == (3.0,) and geometry.as_vec("0.1") == (0.1,)
        assert geometry.as_vec([1, "2.5", np.float64(0.3), True]) == (1.0, 2.5, 0.3, 1.0)
        assert geometry.as_points([[1], 2], 1) == ((1.0,), (2.0,))
        with pytest.raises(InputError, match="dimension 2, expected 1"):
            geometry.as_points([[1, 2]], 1)

    def test_unreadable_numbers_keep_float_errors(self):
        # the decoders turn these into "bad ... description"
        with pytest.raises(ValueError) as exc:
            geometry.as_vec(["a"])
        assert not isinstance(exc.value, InputError)
        with pytest.raises(TypeError):
            geometry.as_vec([None])

    def test_whole_numbers_convert_to_int(self):
        assert geometry.as_whole(3) == 3 and geometry.as_whole(2.0) == 2
        assert geometry.as_whole("4") == 4 and geometry.as_whole(np.int64(5)) == 5

    @pytest.mark.parametrize("value, named", [
        (1.9, "whole number, got 1.9"), (True, "whole number, got True"),
        ("2.5", "whole number, got 2.5"), ([1], r"whole number, got \[1\]"),
        (math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
    ], ids=["fraction", "boolean", "fraction_text", "sequence", "nan", "inf"])
    def test_counts_refuse_what_is_not_one_whole_number(self, value, named):
        with pytest.raises(InputError, match=named):
            geometry.as_whole(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_points_refuse_non_finite_coordinates(self, value):
        with pytest.raises(InputError, match=f"^every number must be finite, got {value}$"):
            geometry.as_points([[0.0], [value]], 1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("take", list(NUMBER_TAKERS), ids=list(NUMBER_TAKERS))
    def test_constructors_refuse_non_finite_numbers(self, take, value):
        NUMBER_TAKERS[take](0.0)
        with pytest.raises(InputError, match="must be finite, got"):
            NUMBER_TAKERS[take](value)

    @pytest.mark.parametrize("text", ["x^1e400", "(1-x)^-1e400", "indicator(0,1e400)",
                                      "2.0*-1e400"])
    def test_window_numbers_refuse_overflow(self, text):
        # the window syntax has no spelling of NaN
        with pytest.raises(InputError, match="must be finite, got -?1e400"):
            parse_expr(text)
