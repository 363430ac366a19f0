"""Structured point sets: enumeration, closed-form Beurling densities and
the exact finite-h extremes of the sliding-cube count."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frameforge.errors import InputError
from frameforge.geometry import Box, Lattice
from frameforge.pointsets import (
    EventuallyPeriodic1D,
    FinitePerturbation,
    FiniteSet,
    LatticeCosets,
    WeightedComb,
    density_closed_form,
    density_windowed,
    integers,
)
from strategies import (
    decimals,
    lattice_cosets_2d,
    overlapping_decimal_tails,
    perturbed_eventually_periodic,
    perturbed_lattice_cosets_2d,
    sixteenths,
    two_period_comb,
)


def right_half_integers():
    return EventuallyPeriodic1D(right_period=1.0, right_start=0.0)


def left_negative_integers():
    return EventuallyPeriodic1D(left_period=1.0, left_start=-1.0)


class TestEnumeration:
    def test_integers(self):
        pts = integers().points_in_box(Box((-2.5,), (2.5,)))
        assert pts.ravel().tolist() == [-2, -1, 0, 1, 2]

    def test_half_integers(self):
        pts = integers(scale=0.5).points_in_box(Box((0.0,), (1.0,)))
        assert pts.ravel().tolist() == [0.0, 0.5]

    def test_right_tail_only(self):
        pts = right_half_integers().points_in_box(Box((-3.0,), (3.0,)))
        assert pts.ravel().tolist() == [0.0, 1.0, 2.0]

    def test_left_tail_only(self):
        pts = left_negative_integers().points_in_box(Box((-3.5,), (3.0,)))
        assert pts.ravel().tolist() == [-3.0, -2.0, -1.0]

    def test_core_and_tails(self):
        s = EventuallyPeriodic1D(right_period=2.0, right_start=1.0, core=(0.25,))
        pts = s.points_in_box(Box((0.0,), (6.0,)))
        assert pts.ravel().tolist() == [0.25, 1.0, 3.0, 5.0]

    def test_finite_perturbation(self):
        s = FinitePerturbation(integers(), added=((0.5,),), removed=((0.0,),))
        pts = s.points_in_box(Box((-1.5,), (1.5,)))
        assert pts.ravel().tolist() == [-1.0, 0.5, 1.0]

    def test_2d_lattice_cosets(self):
        s = LatticeCosets(Lattice.scaled_integers(1.0, 2), ((0.0, 0.0), (0.5, 0.5)))
        pts = s.points_in_box(Box((0.0, 0.0), (1.0, 1.0)))
        assert pts.tolist() == [[0.0, 0.0], [0.5, 0.5]]

    def test_2d_lattice_defaults_to_the_origin_coset(self):
        s = LatticeCosets(Lattice.scaled_integers(1.0, 2))
        assert s.offsets == ((0.0, 0.0),)
        pts = s.points_in_box(Box((0.0, 0.0), (2.0, 1.0)))
        assert pts.tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_finite_perturbation_removes_only_the_given_point(self):
        s = FinitePerturbation(integers(scale=1 / 1024), removed=((1000.0,),))
        assert len(s.points_in_box(Box((999.0,), (1001.0,)))) == 2047

    def test_coset_membership_is_decided_on_the_reported_points(self):
        # -0.7 + 0.33 rounds to -0.36999999999999994, inside the box, while
        # the shifted face -0.3699999999999999 - 0.33 rounds to -0.7
        s = LatticeCosets(Lattice.scaled_integers(0.7), ((0.0,), (0.1,), (0.33,)))
        box = Box((-1.67,), (-0.3699999999999999,))
        pts = s.points_in_box(box)
        assert len(pts) == 6 and box.contains(pts).all()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_tails_match_their_enumeration(self, data):
        # dyadic starts, periods, core points and box ends keep every s ± p n
        # exact; a point both tails reach is one point of the set
        def eighths(lo, hi):
            return st.integers(lo, hi).map(lambda k: k / 8)
        sides = data.draw(st.sampled_from([(1,), (-1,), (1, -1)]))
        tails = {e: (data.draw(eighths(-40, 40)), data.draw(eighths(1, 24))) for e in sides}
        tail_points = [s + e * p * n for e, (s, p) in tails.items() for n in range(480)]
        core = [c for c in data.draw(st.lists(eighths(-200, 200), max_size=4, unique=True))
                if c not in tail_points]
        lo = data.draw(eighths(-200, 200))
        hi = lo + data.draw(eighths(1, 200))
        kwargs = {f"{side}_{field}": v for e, side in ((1, "right"), (-1, "left"))
                  if e in tails for field, v in zip(("start", "period"), tails[e])}
        s = EventuallyPeriodic1D(core=tuple(core), **kwargs)
        expected = sorted({x for x in tail_points + core if lo <= x < hi})
        assert s.points_in_box(Box((lo,), (hi,))).ravel().tolist() == expected

    def test_points_both_tails_reach_are_reported_once(self):
        both = EventuallyPeriodic1D(right_period=1.0, left_period=1.0)
        assert both.points_in_box(Box((-2.0,), (2.0,))).ravel().tolist() == [-2, -1, 0, 1]
        # 0.5 - 0.1 n and 0.1 n differ by rounding at three of the six points
        tenths = EventuallyPeriodic1D(right_period=0.1, right_start=0.0,
                                      left_period=0.1, left_start=0.5)
        pts = tenths.points_in_box(Box((-0.05,), (0.55,))).ravel()
        assert pts == pytest.approx(np.arange(6) * 0.1, abs=1e-15)
        # the integers as two tails that overlap on 0, 1, 2 and 3
        z = WeightedComb.single(EventuallyPeriodic1D(right_period=1.0, left_period=1.0,
                                                     left_start=3.0))
        pts = [z.terms[0][1].points_in_box(Box((-0.5,), (3.5,)))]
        assert z.masses_in_boxes([np.array([-0.5])], [np.array([3.5])], pts).tolist() == [4.0]
        rep = density_windowed(z, (10.0,))
        assert (rep.lower, rep.upper) == (1.0, 1.0)

    def test_tails_that_overlap_far_out_are_reported_once(self):
        # a left-tail point 1000 - 0.1 m lies up to 1.8e-12 steps of 0.1
        # off the right tail's grid, by rounding, on the 10^4 points both reach
        s = EventuallyPeriodic1D(right_period=0.1, right_start=0.0,
                                 left_period=0.1, left_start=1000.0)
        pts = s.points_in_box(Box((0.0,), (1001.0,))).ravel()
        assert len(pts) == 10010 and np.diff(pts).min() > 0.05
        rep = density_windowed(WeightedComb.single(s), (10.0, 100.0))
        assert rep.upper <= 10.01

    def test_left_tail_points_far_out_are_kept(self):
        # in [5e5, 5e5 + 10) the right tail has 10^4 points and the left one 14,
        # of which the two with m a multiple of 10 lie on the right tail too;
        # 5e8 steps of 0.001 out, a tail index off by 1e-4 is still a miss
        s = EventuallyPeriodic1D(right_period=0.001, right_start=0.0,
                                 left_period=0.7071, left_start=1e6)
        assert len(s.points_in_box(Box((5e5,), (5e5 + 10.0,)))) == 10012

    @given(decimals(0.05, 2), decimals(-3, 3), st.integers(1000, 10 ** 6), st.integers(1, 8),
           st.sampled_from([1, -1]))
    @example(0.1, 0.0, 99999, 3, 1)  # lo / 0.1 reads 99999 + 1.5e-12: a ceil dropped the point
    @example(0.3, 0.1, 10 ** 6, 3, -1)
    @settings(max_examples=100, deadline=None)
    def test_faces_on_tail_points_far_out(self, p, start, n, k, e):
        # the box's faces are the tail's own points n and n + k far out, where
        # no other tail reaches; the tail's points are s + e p m as it
        # computes them, so the box test alone decides, and the face n is in
        tails = {"right_period": p, "right_start": start, "left_period": p, "left_start": start}
        s = EventuallyPeriodic1D(**tails)
        faces = sorted((start + (e * p) * n, start + (e * p) * (n + k)))
        walked = sorted(x for m in range(n - 20, n + k + 20)
                        if faces[0] <= (x := start + (e * p) * m) < faces[1])
        assert s.points_in_box(Box((faces[0],), (faces[1],))).ravel().tolist() == walked
        assert len(walked) == k

    def test_a_core_point_far_out_is_not_read_onto_the_tail(self):
        s = EventuallyPeriodic1D(right_period=1.0, core=(1e6 + 1e-4,))
        pts = s.points_in_box(Box((1e6 - 0.5,), (1e6 + 0.5,))).ravel()
        assert pts.tolist() == [1e6, 1e6 + 1e-4]

    @given(sixteenths(0.25, 2), sixteenths(-3, 3), st.integers(-10, 40) | st.integers(1, 10 ** 9),
           st.integers(0, 15), st.sampled_from([1, -1]))
    @example(0.5, 0.0, 10 ** 9, 1, 1)
    def test_tail_membership_is_exact_on_sixteenths(self, p, s, n, sixteenth, e):
        # every number here is exact in binary, so membership has an exact answer
        x = s + e * (p * n + sixteenth / 16)
        tail = EventuallyPeriodic1D(right_period=p, right_start=s) if e > 0 else \
            EventuallyPeriodic1D(left_period=p, left_start=s)
        index = (Fraction(x) - Fraction(s)) / (e * Fraction(p))
        exact = index.denominator == 1 and index >= 0
        assert bool(tail._in_tail(x, tail._tails())) == exact

    @given(st.one_of(perturbed_eventually_periodic(), perturbed_eventually_periodic(decimals),
                     overlapping_decimal_tails()))
    @settings(max_examples=100, deadline=None)
    def test_points_are_pairwise_distinct(self, s):
        # every point lies on a grid of 1/16 or of 1/1000, so two points
        # nearer than half a step are one point reported twice
        lo, hi = s.anchor_hull()
        pts = s.points_in_box(Box((lo[0] - 4.0,), (hi[0] + 4.0,))).ravel()
        assert np.all(np.diff(pts) > 5e-4)

    def test_invalid_duplicate_offsets(self):
        with pytest.raises(InputError):
            LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (1.0,)))

    def test_distinct_offsets_far_out_are_kept(self):
        # offsets are compared in lattice coordinates reduced mod 1, so an
        # offset 1e6 out keeps the old absolute 1e-9 test
        z = Lattice.scaled_integers(1.0)
        assert len(LatticeCosets(z, ((0.0,), (1e6 + 1e-4,))).offsets) == 2
        with pytest.raises(InputError):
            LatticeCosets(z, ((0.25,), (1e6 + 0.25,)))

    def test_core_tail_collision_rejected(self):
        with pytest.raises(InputError):
            EventuallyPeriodic1D(right_period=1.0, right_start=0.0, core=(2.0,))


class TestClosedFormDensity:
    def test_scaled_lattice(self):
        rep = density_closed_form(WeightedComb.single(integers(scale=0.25)))
        assert rep.method == "closed_form"
        assert rep.lower == rep.upper == 4.0

    def test_one_sided_sets_and_their_sum(self):
        mu = WeightedComb.single(right_half_integers())
        nu = WeightedComb.single(left_negative_integers())
        rep_mu = density_closed_form(mu)
        rep_nu = density_closed_form(nu)
        rep_sum = density_closed_form(mu.plus(nu))
        assert (rep_mu.lower, rep_mu.upper) == (0.0, 1.0)
        assert (rep_nu.lower, rep_nu.upper) == (0.0, 1.0)
        assert (rep_sum.lower, rep_sum.upper) == (1.0, 1.0)

    def test_finite_perturbation_keeps_density(self):
        s = FinitePerturbation(integers(), added=((0.5,),), removed=((0.0,),))
        rep = density_closed_form(WeightedComb.single(s))
        assert (rep.lower, rep.upper) == (1.0, 1.0)

    def test_finite_set_has_zero_density(self):
        rep = density_closed_form(WeightedComb.single(FiniteSet(((0.0,), (3.0,)))))
        assert (rep.lower, rep.upper) == (0.0, 0.0)

    def test_2d_lattice_density(self):
        s = LatticeCosets(Lattice.scaled_integers(0.5, 2), ((0.0, 0.0),))
        rep = density_closed_form(WeightedComb.single(s))
        assert rep.lower == rep.upper == pytest.approx(4.0)

    def test_2d_families_report_their_density_as_both_tails(self):
        cosets = LatticeCosets(Lattice.scaled_integers(0.5, 2), ((0.0, 0.0), (0.25, 0.0)))
        moved = FinitePerturbation(cosets, added=((0.1, 0.1),), removed=((0.0, 0.0),))
        assert cosets.tail_densities() == moved.tail_densities() == (8.0, 8.0)
        assert FiniteSet(((0.0, 1.0),), dimension=2).tail_densities() == (0.0, 0.0)
        rep = density_closed_form(WeightedComb(((0.5, cosets), (2.0, moved))))
        assert rep.lower == rep.upper == 20.0

    def test_offsets_scale_the_density(self):
        s = LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (0.25,)))
        rep = density_closed_form(WeightedComb.single(s))
        assert rep.lower == rep.upper == pytest.approx(2.0)

    @given(st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(0.1, 3.0))
    def test_homogeneity(self, c1, c2, scale):
        comb = WeightedComb(((c1, integers()), (c2, integers(scale=0.5))))
        base = density_closed_form(comb)
        scaled = density_closed_form(WeightedComb(tuple((scale * w, s) for w, s in comb.terms)))
        assert scaled.upper == pytest.approx(scale * base.upper, rel=1e-12)
        assert scaled.lower == pytest.approx(scale * base.lower, rel=1e-12)

    @given(st.floats(0.5, 2.0), st.floats(0.5, 2.0))
    @settings(max_examples=30)
    def test_monotone_subadditive_upper(self, w1, w2):
        mu = WeightedComb(((w1, integers()),))
        nu = WeightedComb(((w2, integers(scale=0.5)),))
        d_mu = density_closed_form(mu).upper
        d_nu = density_closed_form(nu).upper
        d_sum = density_closed_form(mu.plus(nu)).upper
        assert d_mu <= d_sum + 1e-12
        assert d_sum <= d_mu + d_nu + 1e-12

    def test_dual_lattice_density_reciprocal(self):
        g = Lattice.scaled_integers(2.0)
        d = density_closed_form(WeightedComb.single(LatticeCosets(g, ((0.0,),)))).upper
        d_dual = density_closed_form(
            WeightedComb.single(LatticeCosets(g.dual(), ((0.0,),)))).upper
        assert d_dual == pytest.approx(g.covolume, rel=1e-12)
        assert d_dual == pytest.approx(1.0 / d, rel=1e-12)


SUPPORTS = {
    1: [integers(),
        LatticeCosets(Lattice.scaled_integers(0.7), ((0.0,), (0.1,), (0.33,))),
        EventuallyPeriodic1D(right_period=0.5, right_start=0.0,
                             left_period=2.0, left_start=-1.0, core=(-0.25,)),
        FiniteSet(((0.0,), (3.0,), (3.5,))),
        FinitePerturbation(integers(scale=0.3), added=((0.5,),),
                           removed=((0.0,), (0.3,)))],
    2: [LatticeCosets(Lattice.scaled_integers(1.08, 2),
                      ((0.0, 0.0), (0.26784, 0.66096))),
        LatticeCosets(Lattice(((1.0, 0.3), (0.2, 0.9))), ((0.0, 0.0), (0.31, 0.17))),
        FiniteSet(((0.0, 1.0), (0.5, 0.5), (-1.0, 2.0)), dimension=2),
        FinitePerturbation(integers(dim=2), added=((0.5, 0.5),), removed=((1.0, 0.0),))],
}


class TestMassesInBoxes:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_product_grid_matches_one_box_counts(self, data):
        d = data.draw(st.sampled_from([1, 2]))
        supports = data.draw(st.lists(st.sampled_from(SUPPORTS[d]), min_size=1, max_size=3))
        weights = data.draw(st.lists(st.floats(0.25, 4.0), min_size=len(supports),
                                     max_size=len(supports)))
        comb = WeightedComb(tuple(zip(weights, supports)))
        # faces on point coordinates as well as anywhere; upper faces are
        # lo + side sums, as the probe and the windowed estimator form them,
        # or drawn on their own, when some boxes are empty
        near = Box((-6.0,) * d, (6.0,) * d)
        coords = [sorted({p[k] for s in supports for p in s.points_in_box(near).tolist()})
                  for k in range(d)]
        lows, highs = [], []
        for k in range(d):
            face = st.one_of(st.sampled_from(coords[k]), st.floats(-6.0, 6.0))
            lo = sorted(data.draw(st.lists(face, min_size=1, max_size=5)))
            if data.draw(st.booleans()):
                side = data.draw(st.one_of(st.floats(0.01, 6.0), st.sampled_from(
                    [b - a for a in coords[k] for b in coords[k] if b > a])))
                hi = [a + side for a in lo]
            else:
                hi = sorted(data.draw(st.lists(face, min_size=len(lo), max_size=len(lo))))
            lows.append(np.array(lo))
            highs.append(np.array(hi))
        assume(all(lo[0] < hi[-1] for lo, hi in zip(lows, highs)))
        hull = Box(tuple(lo[0] for lo in lows), tuple(hi[-1] for hi in highs))
        masses = comb.masses_in_boxes(lows, highs, [s.points_in_box(hull) for _, s in comb.terms])
        assert masses.shape == tuple(len(lo) for lo in lows)
        for index in np.ndindex(*masses.shape):
            lo, hi = zip(*((low[i], high[i]) for low, high, i in zip(lows, highs, index)))
            one = (sum(w * s.count_in_box(Box(lo, hi)) for w, s in comb.terms)
                   if all(a < b for a, b in zip(lo, hi)) else 0.0)
            assert masses[index] == one, (lo, hi)

    @pytest.mark.parametrize("support", SUPPORTS[2], ids=lambda s: type(s).__name__)
    def test_product_grid_matches_the_per_box_loop(self, support):
        # an 8 x 8 grid of overlapping boxes: each point lies in several boxes
        # on each axis, and some boxes hold several points; half the lower
        # faces come from point coordinates and each side is the spread of
        # the coordinates, so some points sit on lower and on upper faces
        rng = np.random.default_rng(5)
        coords = support.points_in_box(Box((-4.0, -4.0), (3.0, 3.0))).T
        lows = [np.sort(np.r_[rng.choice(c, 4), rng.uniform(-4.0, 3.0, 4)]) for c in coords]
        highs = [lo + np.ptp(c) for lo, c in zip(lows, coords)]
        hull = Box(tuple(lo[0] for lo in lows), tuple(hi[-1] for hi in highs))
        pts = support.points_in_box(hull)
        loop = np.zeros((8, 8))
        for i, j in np.ndindex(8, 8):
            box = Box((lows[0][i], lows[1][j]), (highs[0][i], highs[1][j]))
            loop[i, j] = np.count_nonzero(box.contains(pts))
        masses = WeightedComb.single(support).masses_in_boxes(lows, highs, [pts])
        assert masses.tolist() == loop.tolist() and loop.max() > 1


class TestWindowedEstimator:
    def test_integer_lattice_bracket(self):
        rep = density_windowed(WeightedComb.single(integers()), (10.0, 100.0))
        assert rep.method == "windowed_estimate"
        assert 1.0 <= rep.upper <= 1.1
        assert 0.9 <= rep.lower <= 1.0

    def test_right_tail_has_empty_far_left_windows(self):
        rep = density_windowed(WeightedComb.single(right_half_integers()), (100.0,))
        assert rep.lower == pytest.approx(0.0, abs=1e-12)

    def test_half_integers(self):
        rep = density_windowed(WeightedComb.single(integers(scale=0.5)), (100.0,))
        assert rep.upper == pytest.approx(2.0, abs=0.02)
        assert rep.lower == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("support", [
        integers(),
        integers(scale=0.5),
        right_half_integers(),
        left_negative_integers(),
        EventuallyPeriodic1D(right_period=0.5, right_start=0.0,
                             left_period=2.0, left_start=-1.0, core=(-0.25,)),
        FinitePerturbation(integers(), added=((0.5,),), removed=((0.0,),)),
    ])
    def test_consistency_with_closed_form_at_h_1000(self, support):
        comb = WeightedComb.single(support)
        cf = density_closed_form(comb)
        est = density_windowed(comb, (1000.0,))
        slack = 2.0 / 1000.0
        assert abs(est.upper - cf.upper) <= slack
        assert abs(est.lower - cf.lower) <= slack

    def test_trace_has_one_row_per_h(self):
        rep = density_windowed(WeightedComb.single(integers()), (10.0, 50.0))
        assert [row[0] for row in rep.estimator_trace] == [10.0, 50.0]

    def test_2d_lattice_estimate(self):
        rep = density_windowed(WeightedComb.single(integers(dim=2)), (20.0,))
        assert rep.upper == pytest.approx(1.0, abs=0.11)
        assert rep.lower == pytest.approx(1.0, abs=0.11)

    def test_empty_h_list_rejected(self):
        with pytest.raises(InputError):
            density_windowed(WeightedComb.single(integers()), ())


def brute_extremes(comb, h):
    """min and max over h^d of the comb's mass in [c, c + h)^d, over every
    corner c whose coordinates are breakpoints p_a or p_a - h within 2h + 8
    of the supports' anchor hulls, or the upper end of that range, where the
    mass past the last breakpoint is read; all points are enumerated over a
    box wider by h."""
    lo = np.min([s.anchor_hull()[0] for _, s in comb.terms], axis=0)
    hi = np.max([s.anchor_hull()[1] for _, s in comb.terms], axis=0)
    reach = 2.0 * h + 8.0
    parts = [(w, s.points_in_box(Box(tuple(lo - reach), tuple(hi + reach + h))))
             for w, s in comb.terms]
    pts = np.vstack([p for _, p in parts])
    weights = np.concatenate([np.full(len(p), w) for w, p in parts])
    axes = [np.unique(np.r_[p, p - h, b + reach]) for p, b in zip(pts.T, hi)]
    axes = [c[(a - reach <= c) & (c <= b + reach)] for c, a, b in zip(axes, lo, hi)]
    masses = []
    for index in np.ndindex(*(len(c) for c in axes[:-1])):
        inside = np.ones(len(pts), dtype=bool)
        for a, i in enumerate(index):
            inside &= (pts[:, a] >= axes[a][i]) & (pts[:, a] < axes[a][i] + h)
        order = np.argsort(pts[inside, -1])
        last, cum = pts[inside, -1][order], np.r_[0.0, np.cumsum(weights[inside][order])]
        masses.append(cum[np.searchsorted(last, axes[-1] + h)]
                      - cum[np.searchsorted(last, axes[-1])])
    masses = np.concatenate(masses)
    return masses.min() / h ** comb.dim, masses.max() / h ** comb.dim


class TestWindowedIsExact:
    """Every trace row holds the least and the largest count over all
    positions, as a brute-force reading of a much wider box finds them."""

    @given(st.one_of(perturbed_eventually_periodic(), lattice_cosets_2d(),
                     perturbed_lattice_cosets_2d()).map(WeightedComb.single),
           st.lists(sixteenths(0.0625, 4), min_size=1, max_size=2, unique=True))
    # [-999.5, 0.5) holds 999 points and [0.5, 1000.5) 1001: (0.999, 1.001);
    # a square on the one point holds it: an upper density of 1/100
    @example(WeightedComb.single(FinitePerturbation(integers(), added=((0.5,),),
                                                    removed=((0.0,),))), [1000.0])
    @example(WeightedComb.single(FiniteSet(((5000.0, 5000.0),), dimension=2)), [10.0])
    # the supports meet only more than one longer period past the hull
    @example(two_period_comb(), [0.25])
    @settings(max_examples=80, deadline=None)
    def test_trace_rows_are_the_brute_force_extremes(self, comb, hs):
        rep = density_windowed(comb, hs)
        assert [row[0] for row in rep.estimator_trace] == sorted(hs)
        for h, lower, upper in rep.estimator_trace:
            assert (lower, upper) == brute_extremes(comb, h)
