"""Convolution of combs with grid functions and the density bracket check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frameforge.errors import InputError
from frameforge.convolution import (
    check_density_convolution_bracket,
    comb_convolve,
    translation_bounded_probe,
)
from frameforge.geometry import Box, Lattice, cartesian
from frameforge.gridfn import GridFunction
from frameforge.pointsets import (
    EventuallyPeriodic1D,
    FinitePerturbation,
    FiniteSet,
    LatticeCosets,
    WeightedComb,
    integers,
)
from strategies import (
    lattice_cosets_2d,
    perturbed_eventually_periodic,
    sixteenths,
    two_period_comb,
)


def tent(peak_at=1.0, half_width=1.0):
    """Hat function of height 1 supported on [peak-half_width, peak+half_width]."""
    def fn(pts):
        t = 1.0 - np.abs(pts[:, 0] - peak_at) / half_width
        return np.maximum(t, 0.0)
    return fn


def direct_convolution_oracle(weights_points, fn, xs):
    """Brute-force sum over explicitly enumerated comb points, analytic f."""
    out = np.zeros(len(xs))
    for w, p in weights_points:
        out += w * fn(np.array([(x - p,) for x in xs]))
    return out


class TestCombConvolve:
    def test_unit_tiling(self):
        chi = GridFunction.indicator(Box((0.0,), (1.0,)), 64)
        out = comb_convolve(WeightedComb.single(integers()), chi,
                            Box((-2.0,), (3.0,)), 128)
        assert np.allclose(out.samples, 1.0, atol=1e-12)

    def test_double_cover(self):
        chi = GridFunction.indicator(Box((0.0,), (2.0,)), 64)
        out = comb_convolve(WeightedComb.single(integers()), chi,
                            Box((0.0,), (4.0,)), 128)
        assert np.allclose(out.samples, 2.0, atol=1e-12)

    def test_tent_on_even_lattice_matches_direct_sum(self):
        f = GridFunction.from_callable(tent(), Box((0.0,), (2.0,)), 512)
        evals = Box((-3.0,), (3.0,))
        out = comb_convolve(WeightedComb.single(integers(scale=2.0)), f, evals, 64)
        xs = out.axes()[0]
        pts = [(1.0, float(p)) for p in range(-4, 5, 2)]
        oracle = direct_convolution_oracle(pts, tent(), xs)
        assert np.allclose(out.samples, oracle, atol=5e-3)
        assert out.samples.min() >= -1e-12
        assert out.samples.max() <= 1.0 + 1e-9
        # the periodized tent peaks where x - lambda hits the tent apex,
        # i.e. at odd integers for the even lattice and apex at 1
        peak_xs = xs[np.isclose(out.samples, out.samples.max(), atol=1e-9)]
        assert all(abs((x - 1.0) % 2.0) < 0.05 or abs((x - 1.0) % 2.0) > 1.95
                   for x in peak_xs)

    def test_negative_function_rejected(self):
        bad = GridFunction(Box((0.0,), (1.0,)), -np.ones(8))
        with pytest.raises(InputError):
            comb_convolve(WeightedComb.single(integers()), bad, Box((0.0,), (1.0,)), 8)

    def test_2d_unit_tiling(self):
        from frameforge.geometry import Box as B2
        chi = GridFunction.indicator(B2((0.0, 0.0), (1.0, 1.0)), 16)
        out = comb_convolve(WeightedComb.single(integers(dim=2)), chi,
                            B2((-1.0, -1.0), (2.0, 2.0)), 24)
        assert np.allclose(out.samples, 1.0, atol=1e-9)

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity_in_the_function(self, a):
        base = GridFunction.indicator(Box((0.0,), (1.0,)), 32)
        scaled = GridFunction(base.bounding_box, a * base.samples)
        comb = WeightedComb.single(integers())
        out1 = comb_convolve(comb, base, Box((0.0,), (2.0,)), 32)
        out2 = comb_convolve(comb, scaled, Box((0.0,), (2.0,)), 32)
        assert np.allclose(out2.samples, a * out1.samples, rtol=1e-12, atol=1e-12)


class TestTranslationBoundedProbe:
    def test_unit_lattice(self):
        rep = translation_bounded_probe(WeightedComb.single(integers()),
                                        Box((0.0,), (1.0,)))
        assert rep.sup_estimate == 1.0

    def test_two_cosets(self):
        comb = WeightedComb.single(
            LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (0.5,))))
        rep = translation_bounded_probe(comb, Box((0.0,), (1.0,)))
        assert rep.sup_estimate == 2.0

    def test_right_tail_window_of_ten(self):
        comb = WeightedComb.single(EventuallyPeriodic1D(right_period=1.0))
        rep = translation_bounded_probe(comb, Box((0.0,), (10.0,)))
        # direct count oracle: ten consecutive integers fit in [x, x+10)
        assert rep.sup_estimate == 10.0

    def test_2d_lattice_unit_window(self):
        comb = WeightedComb.single(integers(dim=2))
        rep = translation_bounded_probe(comb, Box((0.0, 0.0), (1.0, 1.0)))
        assert rep.sup_estimate == 1.0

    def test_2d_points_far_from_the_origin(self):
        # every support's hull is read, wherever it lies
        far = FiniteSet(((10.0, 10.0),), dimension=2)
        rep = translation_bounded_probe(WeightedComb.single(far), Box((0.0, 0.0), (1.0, 1.0)))
        assert rep == (1.0, (10.0, 10.0))
        added = FinitePerturbation(integers(dim=2), added=((10.5, 10.5),))
        rep = translation_bounded_probe(WeightedComb.single(added),
                                        Box((0.0, 0.0), (1.0, 1.0)))
        assert rep.sup_estimate == 2.0

    def test_2d_corner_from_two_cosets(self):
        # the sup 12 sits at a corner whose x comes from one coset and whose
        # y from the other; whole points as corners reach only 10
        cosets = LatticeCosets(Lattice.scaled_integers(1.08, 2),
                               ((0.0, 0.0), (0.26784, 0.66096)))
        window = Box((0.0, 0.0), (2.429, 1.515))
        rep = translation_bounded_probe(WeightedComb.single(cosets), window)
        assert rep.sup_estimate == 12.0
        corner = rep.attained_at
        placed = Box(corner, tuple(c + s for c, s in zip(corner, window.sides)))
        assert len(cosets.points_in_box(placed)) == 12


def brute_sup(comb, sides, wide, reach):
    """max over every corner with point coordinates within ``reach`` of the
    origin of the comb's mass in [corner, corner + sides), all points of ``wide``."""
    parts = [(w, s.points_in_box(wide)) for w, s in comb.terms]
    axes = [np.unique(a[np.abs(a) <= reach]) for a in np.vstack([p for _, p in parts]).T]
    corners = cartesian(axes)
    masses = sum(w * np.all((p[None] >= corners[:, None]) & (p[None] < corners[:, None] + sides),
                            axis=2).sum(axis=1) for w, p in parts)
    return float(np.max(masses, initial=0))


class TestProbeIsExact:
    """The probe equals a brute-force sup over every point-coordinate corner
    in a box much wider than its own, and attains it at its reported corner."""

    def check(self, comb, sides, wide, reach):
        window = Box((0.0,) * len(sides), tuple(sides))
        rep = translation_bounded_probe(comb, window)
        assert rep.sup_estimate == brute_sup(comb, np.array(sides), wide, reach)
        placed = Box(rep.attained_at, tuple(c + s for c, s in zip(rep.attained_at, sides)))
        assert sum(w * len(s.points_in_box(placed)) for w, s in comb.terms) == rep.sup_estimate

    @given(perturbed_eventually_periodic().map(WeightedComb.single), sixteenths(0.0625, 4))
    # the supports meet only more than one longer period past the hull
    @example(two_period_comb(), 0.25)
    @settings(max_examples=80, deadline=None)
    def test_eventually_periodic_with_perturbation(self, comb, side):
        self.check(comb, [side], Box((-48.0,), (48.0,)), 40.0)

    @given(lattice_cosets_2d().map(WeightedComb.single),
           st.tuples(sixteenths(0.0625, 2), sixteenths(0.0625, 2)))
    @settings(max_examples=40, deadline=None)
    def test_2d_lattice_cosets(self, comb, sides):
        self.check(comb, list(sides), Box((-8.0, -8.0), (8.0, 8.0)), 6.0)

    def test_empty_probe_reports_zero(self):
        rep = translation_bounded_probe(WeightedComb.single(EventuallyPeriodic1D()),
                                        Box((0.0,), (1.0,)))
        assert rep.sup_estimate == 0.0


class TestDensityConvolutionBracket:
    def test_unit_tiling_saturates(self):
        chi = GridFunction.indicator(Box((0.0,), (1.0,)), 64)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi)], Box((0.0,), (4.0,)), 256)
        assert rep.sup_sum == pytest.approx(1.0, abs=1e-12)
        assert rep.inf_sum == pytest.approx(1.0, abs=1e-12)
        assert rep.masses == (1.0,)
        assert rep.densities.upper == 1.0
        assert rep.densities.lower == 1.0
        assert rep.tol < 1e-9
        assert rep.upper_holds and rep.lower_holds and not rep.inconclusive

    def test_half_indicator_pattern(self):
        chi_half = GridFunction.indicator(Box((0.0,), (0.5,)), 64)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi_half)], Box((0.0,), (4.0,)), 512)
        assert rep.sup_sum == pytest.approx(1.0, abs=1e-9)
        assert rep.inf_sum == pytest.approx(0.0, abs=1e-9)
        assert rep.masses[0] == pytest.approx(0.5, abs=1e-12)
        assert rep.densities.upper == pytest.approx(0.5)
        assert rep.upper_holds and rep.lower_holds

    def test_two_pair_tiling(self):
        chi1 = GridFunction.indicator(Box((0.0,), (1.0,)), 64)
        chi2 = GridFunction.indicator(Box((0.0,), (2.0,)), 64)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi1),
             (WeightedComb.single(integers(scale=2.0)), chi2)],
            Box((0.0,), (4.0,)), 256)
        assert rep.sup_sum == pytest.approx(2.0, abs=1e-9)
        assert rep.inf_sum == pytest.approx(2.0, abs=1e-9)
        # comb is delta_Z + 2 delta_2Z with densities 1 + 2*(1/2) = 2
        assert rep.densities.upper == pytest.approx(2.0)
        assert rep.densities.lower == pytest.approx(2.0)
        assert abs(rep.densities.upper - rep.sup_sum) <= rep.tol + 1e-9
        assert abs(rep.densities.lower - rep.inf_sum) <= rep.tol + 1e-9

    @given(st.floats(0.5, 2.0), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_upper_bound_never_violated(self, scale, reps):
        chi = GridFunction.indicator(Box((0.0,), (scale,)), 32)
        comb = WeightedComb.single(integers(), weight=float(reps))
        rep = check_density_convolution_bracket(
            [(comb, chi)], Box((0.0,), (4.0,)), 128)
        assert rep.densities.upper <= rep.sup_sum + rep.tol + 1e-9

    @given(st.floats(0.5, 2.0), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_lower_bound_never_violated(self, scale, reps):
        chi = GridFunction.indicator(Box((0.0,), (scale,)), 32)
        comb = WeightedComb.single(integers(), weight=float(reps))
        rep = check_density_convolution_bracket(
            [(comb, chi)], Box((0.0,), (4.0,)), 128)
        assert rep.inf_sum - rep.tol - 1e-9 <= rep.densities.lower

    @pytest.mark.parametrize("s, lo, hi", [(0.99, 0.0, 1.0), (1.01, 1.0, 2.0)])
    def test_support_narrower_than_a_cell_off_the_lattice(self, s, lo, hi):
        # every eval cell centre sees S = 1; the true range is [lo, hi]
        chi = GridFunction.indicator(Box((0.0,), (s,)), 256)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi)], Box((0.0,), (4.0,)), 128)
        assert set(rep.sum_grid.samples.tolist()) == {1.0}
        assert (rep.inf_sum, rep.sup_sum) == (lo, hi)
        assert rep.densities.upper == pytest.approx(s)
        assert rep.tol < 1e-9
        assert rep.upper_holds and rep.lower_holds

    @pytest.mark.parametrize("excess", [1e-9, 1e-13, 1e-15])
    def test_a_sliver_of_overlap_is_read(self, excess):
        # translates of [0, 1 + excess) overlap on [n + 1, n + 1 + excess),
        # where S = 2, however narrow that cell of the cuts is
        chi = GridFunction.indicator(Box((0.0,), (1.0 + excess,)), 256)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi)], Box((0.0,), (4.0,)), 64)
        assert (rep.inf_sum, rep.sup_sum) == (1.0, 2.0)

    def test_a_box_two_ulps_wide_keeps_its_widest_cell(self):
        # no cell of [0.5, 0.5 + 2 ulps) holds two quarter points strictly inside
        chi = GridFunction.indicator(Box((0.0,), (1.0,)), 256)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi)], Box((0.5,), (0.5 + 2.3e-16,)), 4)
        assert (rep.inf_sum, rep.sup_sum) == (1.0, 1.0)

    def test_extremes_are_limits_of_the_interpolant(self):
        # h interpolates x on [0, 1) from 4 cell centres: it is held at 1/8
        # below the first centre and at 7/8 above the last, so S ranges over
        # [1/8, 7/8] while the two eval cell centres per period see 1/4, 3/4
        h = GridFunction.from_callable(lambda p: p[:, 0], Box((0.0,), (1.0,)), 4)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), h)], Box((0.0,), (2.0,)), 4)
        assert rep.sum_grid.samples.tolist() == [0.25, 0.75, 0.25, 0.75]
        assert rep.inf_sum == pytest.approx(0.125, abs=1e-12)
        assert rep.sup_sum == pytest.approx(0.875, abs=1e-12)
        assert rep.upper_holds and rep.lower_holds

    def test_2d_product_support(self):
        # chi of [0, 1.25) x [0, 0.5) on Z^2 covers each x by 1 or 2
        # translates and each y by 0 or 1
        chi = GridFunction.indicator(Box((0.0, 0.0), (1.25, 0.5)), 8)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(LatticeCosets(Lattice.scaled_integers(1.0, 2))),
              chi)], Box((0.0, 0.0), (2.0, 2.0)), 16)
        assert (rep.inf_sum, rep.sup_sum) == (0.0, 2.0)
        assert rep.densities.upper == pytest.approx(0.625)
        assert rep.upper_holds and rep.lower_holds

    @pytest.mark.parametrize("supports, hi", [
        ([FiniteSet(((0.0,), (1.0,), (2.5,)))], 4.0),
        ([FinitePerturbation(integers(), added=((0.5,),))], 4.0),
        ([EventuallyPeriodic1D(right_period=1.0, left_period=2.0)], 4.0),
        ([integers(), integers(scale=2.0)], 4.0),
        ([integers()], 0.5),
    ], ids=["finite_set", "finite_perturbation", "eventually_periodic",
            "two_lattices", "box_below_a_period"])
    def test_box_without_every_value_of_s_is_inconclusive(self, supports, hi):
        # no common period, or a box narrower than one period: the extremes
        # of S outside the box are unknown
        chi = GridFunction.indicator(Box((0.0,), (1.0,)), 64)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(s), chi) for s in supports], Box((0.0,), (hi,)), 64)
        assert rep.inconclusive

    def test_periodic_supports_over_whole_periods_stay_conclusive(self):
        chi = GridFunction.indicator(Box((0.0,), (1.0,)), 64)
        cosets = LatticeCosets(Lattice.scaled_integers(1.0), ((0.0,), (0.5,)))
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(integers()), chi), (WeightedComb.single(cosets), chi)],
            Box((0.0,), (4.0,)), 64)
        assert not rep.inconclusive

    def test_one_lattice_in_two_bases_stays_conclusive(self):
        # (1, 0), (1, 1) and (1, 0), (0, 1) generate the same group Z^2
        chi = GridFunction.indicator(Box((0.0, 0.0), (1.0, 1.0)), 8)
        supports = [integers(dim=2), LatticeCosets(Lattice(((1.0, 1.0), (0.0, 1.0))))]
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(s), chi) for s in supports], Box((0.0, 0.0), (2.0, 2.0)), 8)
        assert not rep.inconclusive

    @pytest.mark.parametrize("width, inconclusive", [(1.5, False), (0.75, True)])
    def test_skew_lattice_box_spans_the_cell(self, width, inconclusive):
        # basis (1, 0), (1/2, 1): the fundamental parallelepiped spans 3/2 along x
        skew = LatticeCosets(Lattice(((1.0, 0.5), (0.0, 1.0))))
        chi = GridFunction.indicator(Box((0.0, 0.0), (1.0, 1.0)), 8)
        rep = check_density_convolution_bracket(
            [(WeightedComb.single(skew), chi)], Box((0.0, 0.0), (width, 1.0)), 8)
        assert rep.inconclusive is inconclusive
