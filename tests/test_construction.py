"""Frame builders, obstruction scans and tight-frame-measure certificates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import decimal_packings

from frameforge import construction
from frameforge.errors import InputError
from frameforge.construction import (
    CertificateRefusal,
    ConstructionRefusal,
    TightFrameRefusal,
    analysis_coefficients,
    build_bounded_window_frame,
    build_lattice_tight_frame,
    cosine_measure_certificate,
    tight_frame_obstruction_scan,
)
from frameforge.framebounds import (
    ContinuousFreqMeasure,
    CosineFreqMeasure,
    WindowedSystem,
    ess_report,
    estimate_frame_bounds,
    nyquist_box,
    window_ranges,
)
from frameforge.geometry import (
    Box,
    BoxUnionSet,
    Lattice,
    canonicalize,
    cantor_tower,
    lattice_residue_check,
    translate_overlap,
)
from frameforge.gridfn import GridFunction, grid_points
from frameforge.pointsets import LatticeCosets
from frameforge.serialization import load_system, save_system
from frameforge.windows import Window

UNIT = BoxUnionSet.from_intervals([(0, 1)])
TWO_PIECE = BoxUnionSet.from_intervals([(0, 0.5), (1, 1.5)])
SQUARE = BoxUnionSet(2, (Box((0.0, 0.0), (1.0, 1.0)),))
TENTHS = BoxUnionSet.from_intervals([(0, 0.1), (0.3, 0.4)])


class TestBoundedWindowFrame:
    def test_linear_pair_prediction(self):
        result = build_bounded_window_frame(
            [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")], UNIT)
        assert result.predicted_A == pytest.approx(0.25, abs=0.01)
        # partition covers the domain disjointly
        assert sum(p.measure() for p in result.partition) == pytest.approx(
            1.0, abs=1e-9)
        rep = estimate_frame_bounds(result.system, 256)
        assert rep.A_est >= 0.8 * result.predicted_A
        assert rep.B_est <= 1.2 * result.predicted_B

    def test_indicator_orthonormal(self):
        result = build_bounded_window_frame([Window.indicator()], UNIT)
        assert result.predicted_A == pytest.approx(1.0, abs=1e-6)
        rep = estimate_frame_bounds(result.system, 128)
        assert rep.A_est == pytest.approx(1.0, abs=1e-9)

    def test_l_shape_indicator(self):
        l_shape = canonicalize([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.5))])
        result = build_bounded_window_frame([Window.indicator()], l_shape, grid_n=64)
        assert result.predicted_A == pytest.approx(1.0, abs=1e-12)
        rep = estimate_frame_bounds(result.system, 64)
        assert rep.A_est == pytest.approx(1.0, abs=1e-12)
        assert rep.B_est == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_windows_are_redundant(self):
        base = build_bounded_window_frame(
            [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")], UNIT)
        extended = build_bounded_window_frame(
            [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0"),
             Window.from_string("x^-0.25"), Window.from_string("(1-x)^-0.25")],
            UNIT)
        # windows outside J take no frequency, so the system is the base one
        assert extended.system.pairs == base.system.pairs
        assert (extended.predicted_A, extended.predicted_B) == (
            base.predicted_A, base.predicted_B)
        assert "no frequencies for windows [2, 3]" in extended.provenance

    def test_window_outside_l2_takes_no_frequency(self, tmp_path):
        # (1-x)^-1 is not square-integrable on [0, 1), so with the zero
        # frequency the system had no upper frame bound; it takes none, and
        # the saved system is the orthonormal basis of the indicator
        result = build_bounded_window_frame(
            [Window.indicator(), Window.from_string("(1-x)^-1.0")], UNIT)
        assert (result.predicted_A, result.predicted_B) == (1.0, 1.0)
        path = str(tmp_path / "system.json")
        save_system(result.system, path)
        system = load_system(path)
        assert len(system.pairs) == 1
        for grid_n in (64, 256, 1024):
            rep = estimate_frame_bounds(system, grid_n)
            assert (rep.A_est, rep.B_est) == (1.0, 1.0)

    def test_decimal_rectangle_constructs(self):
        # a cube of side 0.5 at (0.2, 0) has float sides 0.49999999999999994
        # and 0.5; the constant is measured on [0, 0.5)^2, whose sides are exact
        rect = BoxUnionSet(2, (Box((0.2, 0.0), (0.5, 0.5)),))
        result = build_bounded_window_frame([Window.indicator()], rect)
        assert result.predicted_A == pytest.approx(0.25, rel=1e-12)
        rep = estimate_frame_bounds(result.system, 16)
        assert rep.A_est == pytest.approx(0.25, rel=1e-12)
        assert rep.B_est == pytest.approx(0.25, rel=1e-12)

    @given(st.integers(0, 9), st.integers(0, 9), st.sampled_from([3, 7, 11, 23, 37]),
           st.sampled_from([1, 2, 5]), st.booleans())
    @example(2, 0, 3, 5, False)
    @settings(max_examples=40, deadline=None)
    def test_rectangles_with_faces_on_tenths_construct(self, a0, a1, s0, s1, swap):
        # [a0, a0 + s0) x [a1, a1 + s1) in tenths: the harmonic lattice of the
        # larger side s is tight on it with constant s^2
        lo, hi = [a0 / 10, a1 / 10], [(a0 + s0) / 10, (a1 + s1) / 10]
        if swap:
            lo, hi = lo[::-1], hi[::-1]
        rect = BoxUnionSet(2, (Box(tuple(lo), tuple(hi)),))
        result = build_bounded_window_frame([Window.indicator()], rect, 16)
        side = max(rect.bounding_box().sides)
        assert result.predicted_A == pytest.approx(side ** 2, rel=1e-9)
        rep = estimate_frame_bounds(result.system, 16)
        assert rep.A_est == pytest.approx(result.predicted_A, rel=1e-9)
        assert rep.B_est == pytest.approx(result.predicted_A, rel=1e-9)

    def test_all_unbounded_refused(self):
        with pytest.raises(ConstructionRefusal):
            build_bounded_window_frame(
                [Window.from_string("x^-0.25"), Window.from_string("(1-x)^-0.25")],
                UNIT)

    def test_singularity_outside_the_support_is_bounded(self):
        # x^-0.25 blows up at 0, where its indicator factor is 0, so both
        # windows are bounded and max |g_j| lies in [1, 2^0.25] on [0, 1)
        windows = [Window.from_string("indicator(0,0.5)"),
                   Window.from_string("x^-0.25*indicator(0.5,1)")]
        result = build_bounded_window_frame(windows, UNIT)
        assert "J=[0, 1]" in result.provenance
        assert result.predicted_A == 1.0
        rep = estimate_frame_bounds(result.system, 256)
        assert rep.A_est == pytest.approx(1.0, abs=1e-9)
        assert rep.B_est <= result.predicted_B

    def test_not_bounded_away_from_zero_refused(self):
        with pytest.raises(ConstructionRefusal):
            build_bounded_window_frame([Window.from_string("x^1.0")],
                                       BoxUnionSet.from_intervals([(0, 1)]))

    def test_small_infimum_is_not_vanishing(self):
        # x >= 1/1024 on the domain, so m = 1/1024 and the guaranteed lower
        # bound is the cube constant (the cover side) times m^2
        omega = BoxUnionSet.from_intervals([(1 / 1024, 1)])
        result = build_bounded_window_frame([Window.from_string("x^1.0")], omega)
        assert result.predicted_A == pytest.approx((1023 / 1024) / 1024 ** 2, rel=1e-12)

    def test_window_vanishing_at_the_left_face_refused(self):
        omega = BoxUnionSet.from_intervals([(0, 3 / 16)])
        with pytest.raises(ConstructionRefusal):
            build_bounded_window_frame(
                [Window.from_string("1.196*x^0.273*(1-x)^0.625")], omega)

    @given(st.integers(0, 15).flatmap(
               lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 16))),
           st.lists(st.tuples(*[st.integers(lo, hi).map(lambda k: k / 1000)
                                for lo, hi in ((500, 1500), (0, 2000), (0, 2000))]),
                    min_size=1, max_size=2),
           st.tuples(st.sampled_from([None, -0.25, -1.0]), st.sampled_from([None, -0.25, -1.0])))
    @example((0, 16), [(1.0, 1.0, 0.0), (1.0, 0.0, 1.0)], (-0.25, -1.0))
    @settings(max_examples=40, deadline=None)
    def test_refusal_follows_the_theorem_and_predictions_are_bounds(self, faces, params,
                                                                    singular):
        # s x^a (1-x)^b vanishes only at a face: at 0 when a > 0, at 1 when b > 0;
        # x^e and (1-x)^e with e < 0 are unbounded when the domain reaches 0 or 1
        # (outside L2 for e = -1), so they sit outside J and cannot help
        lo, hi = faces[0] / 16, faces[1] / 16
        omega = BoxUnionSet.from_intervals([(lo, hi)])
        unbounded = ([f"x^{singular[0]}"] * (lo == 0 and singular[0] is not None)
                     + [f"(1-x)^{singular[1]}"] * (hi == 1 and singular[1] is not None))
        windows = [Window.from_string(text) for text in unbounded] + [
            Window.from_string(f"{s}*x^{a}*(1-x)^{b}") for s, a, b in params]
        vanishes = ((lo == 0 and all(a > 0 for _, a, _ in params))
                    or (hi == 1 and all(b > 0 for *_, b in params)))
        if vanishes:
            with pytest.raises(ConstructionRefusal):
                build_bounded_window_frame(windows, omega)
            return
        result = build_bounded_window_frame(windows, omega)
        rep = estimate_frame_bounds(result.system, 256)
        assert result.predicted_A <= rep.A_est * (1 + 1e-9)
        assert result.predicted_B >= rep.B_est * (1 - 1e-9)

    def test_partition_goes_to_the_first_window_that_clears_m(self):
        # m = 1 and both windows clear it on [1/2, 1)
        result = build_bounded_window_frame(
            [Window.from_string("1.0"), Window.from_string("2.0*indicator(0.5,1)")], UNIT)
        assert result.partition == (UNIT,)

    def test_partition_keeps_the_gaps(self):
        result = build_bounded_window_frame([Window.indicator()], TWO_PIECE, grid_n=8)
        assert result.partition == (TWO_PIECE,)

    def test_partition_of_a_staircase(self):
        # one column's pieces end at y = 1/2 where the next column's begin
        stairs = canonicalize([Box((0.0, 0.0), (0.5, 0.5)), Box((0.5, 0.5), (1.0, 1.0))])
        result = build_bounded_window_frame([Window.indicator()], stairs, grid_n=8)
        assert result.partition == (stairs,)

    def test_partition_reads_the_table_that_gives_m(self):
        # the unbounded window's face at 0.3819 cuts the cell where x and
        # (1-x)^2 cross; left of it only (1-x)^2 clears m = 0.3819
        windows = [Window.from_string(t) for t in
                   ("x^1.0", "(1-x)^2.0", "(1-x)^-1.0*indicator(0.3819,1)")]
        result = build_bounded_window_frame(windows, UNIT, 256)
        assert result.partition == (BoxUnionSet.from_intervals([(0.3819, 1)]),
                                    BoxUnionSet.from_intervals([(0, 0.3819)]))

    @given(st.tuples(*[st.sampled_from([0.5, 1.0, 2.0]), st.integers(1, 24).map(lambda k: k / 8)]
                     * 2),
           st.lists(st.integers(1, 9999).map(lambda k: k / 10000).flatmap(
               lambda c: st.sampled_from([f"(1-x)^-1.0*indicator({c},1)",
                                          f"x^-0.5*indicator(0,{c})",
                                          f"1.5*indicator({c},1)"])), min_size=1, max_size=2),
           st.integers(2, 32))
    @settings(max_examples=60, deadline=None)
    def test_every_partition_piece_has_a_window_that_clears_m(self, powers, cut, grid_n):
        # s x^a and t (1-x)^b together stay away from 0 on [0, 1]; a cut
        # window's face in the cell where they cross moves m
        s, a, t, b = powers
        windows = [Window.from_string(w) for w in [f"{s}*x^{a}", f"{t}*(1-x)^{b}"] + cut]
        lo, _, infs, sups = window_ranges(windows, UNIT, grid_n)
        ess = ess_report(infs, sups, grid_n)
        result = build_bounded_window_frame(windows, UNIT, grid_n)
        for part in result.partition:
            inside = part.contains(lo)
            assert any(np.all(infs[j, inside] >= ess.ess_inf_of_max[0]) for j in ess.J)

    def test_partition_sets_disjoint(self):
        result = build_bounded_window_frame(
            [Window.from_string("x^1.0"), Window.from_string("(1-x)^1.0")], UNIT)
        t1, t2 = result.partition
        for b1 in t1.boxes:
            for b2 in t2.boxes:
                assert b1.intersect(b2) is None


class TestLatticeTightFrame:
    def test_unit_interval_unit_lattice(self):
        result = build_lattice_tight_frame(UNIT, Lattice.scaled_integers(1.0))
        assert result.predicted_A == pytest.approx(1.0, abs=1e-9)
        assert result.predicted_B == pytest.approx(1.0, abs=1e-9)

    def test_two_piece_packing_constant_two(self):
        # a diagonal lattice is measured on the untruncated fibers
        result = build_lattice_tight_frame(TWO_PIECE, Lattice.scaled_integers(2.0))
        assert result.predicted_A == pytest.approx(2.0, abs=1e-12)
        assert result.predicted_B == pytest.approx(2.0, abs=1e-12)
        assert result.provenance.endswith("at 256 cells per axis, untruncated")
        freq = result.system.pairs[0][1]
        assert isinstance(freq, LatticeCosets)
        assert freq.lattice.covolume == pytest.approx(0.5)

    def test_two_piece_parseval_summation_oracle(self):
        # direct Parseval cross-check for f ≡ 1: quadrature coefficients over
        # the dual lattice must sum close to 2 * ||f||^2
        from frameforge.gridfn import GridFunction
        f = GridFunction.from_callable(lambda p: np.ones(len(p)), TWO_PIECE.bounding_box(),
                                       1536, omega=TWO_PIECE)
        lam = (np.arange(-256, 256) * 0.5).reshape(-1, 1)
        coefs = analysis_coefficients(f, Window.indicator(), lam)
        total = float(np.sum(np.abs(coefs) ** 2))
        assert total == pytest.approx(2.0 * f.norm_sq(), rel=0.02)

    def test_l_shape_unit_square_lattice(self):
        l_shape = canonicalize([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.5))])
        result = build_lattice_tight_frame(l_shape, Lattice.scaled_integers(1.0, 2))
        assert result.predicted_A == pytest.approx(1.0, abs=1e-9)
        assert result.predicted_B == pytest.approx(1.0, abs=1e-9)
        assert result.system.pairs[0][1].offsets == ((0.0, 0.0),)

    def test_refusal_with_vanishing_coefficients(self):
        with pytest.raises(TightFrameRefusal) as exc:
            build_lattice_tight_frame(TWO_PIECE, Lattice.scaled_integers(1.0))
        counter = exc.value.counterexample
        assert np.sqrt(counter.norm_sq()) >= 0.1
        lam = np.arange(-64, 64, dtype=float).reshape(-1, 1)
        coefs = analysis_coefficients(counter, Window.indicator(), lam)
        assert np.max(np.abs(coefs)) < 1e-9

    def test_skew_lattice_on_the_nyquist_grid(self):
        # a skew lattice is cut to the Nyquist band of the grid; on the unit
        # square at 8 cells that band is [-4, 4)^2, as the old matched grid's
        # truncation radius 4 was, and the bounds agree to the last bit
        skew = Lattice(((1.0, 0.5), (0.0, 1.0)))
        result = build_lattice_tight_frame(SQUARE, skew, grid_n=8)
        assert (result.predicted_A, result.predicted_B) == (0.999999999999996,
                                                            1.0000000000000036)
        assert result.provenance.endswith("Nyquist band")

    def test_counterexample_lies_on_the_coarsest_aligned_grid(self):
        # the faces of [0, 0.5) and [1, 1.5) and the shift 1 are whole cells
        # on multiples of 3 cells over [0, 1.5), the first from 256 being 258
        with pytest.raises(TightFrameRefusal) as exc:
            build_lattice_tight_frame(TWO_PIECE, Lattice.scaled_integers(1.0))
        assert exc.value.counterexample.n_per_axis == 258

    def test_refusal_without_an_aligned_grid(self):
        # the face at 1 + 1/pi is a whole number of cells on no grid up to
        # the limit, so no exact counterexample can be sampled
        omega = BoxUnionSet.from_intervals([(0, 0.5), (1, 1 + 1 / math.pi)])
        with pytest.raises(InputError, match="no grid of 256 to 65536 cells"):
            build_lattice_tight_frame(omega, Lattice.scaled_integers(1.0))

    def test_decimal_tiling_is_tight(self):
        # [0, 0.1) and [0.3, 0.4) tile R under 0.2Z, though 0.1 + 0.2 > 0.3
        # in binary; the dual lattice 5Z gives the constant 0.2
        result = build_lattice_tight_frame(TENTHS, Lattice.scaled_integers(0.2))
        assert result.predicted_A == pytest.approx(0.2, abs=1e-12)
        assert result.predicted_B == pytest.approx(0.2, abs=1e-12)

    def test_decimal_refusal_witnesses_the_decimal_shift(self):
        # under 0.1Z the pieces collide at the shift 0.3 as written, where
        # the binary sum 3 x 0.1 read 0.30000000000000004
        with pytest.raises(TightFrameRefusal) as exc:
            build_lattice_tight_frame(TENTHS, Lattice.scaled_integers(0.1))
        assert exc.value.witness.gamma_prime == (0.3,)
        assert np.sqrt(exc.value.counterexample.norm_sq()) == pytest.approx(math.sqrt(0.2))

    @given(st.one_of(decimal_packings(dims=(1,)), decimal_packings(dims=(2,), places=1)))
    @settings(max_examples=40, deadline=None)
    def test_every_decimal_refusal_has_a_nonzero_counterexample(self, case):
        # 2-D draws keep to tenths, so an aligned grid of at most 256 cells
        # per axis exists for every collision
        omega, lattice = case
        if lattice_residue_check(omega, lattice).holds:
            return
        with pytest.raises(TightFrameRefusal) as exc:
            build_lattice_tight_frame(omega, lattice)
        assert exc.value.counterexample.norm_sq() > 0.0


class TestCubeConstant:
    """The constant of a cube's harmonic exponentials, as the bounded-window
    builder measures it: the cube packs under its side lattice, and the dual
    exponentials are tight with constant side^d."""

    @staticmethod
    def constant(lo, hi, grid_n=2):
        cube = BoxUnionSet(len(lo), (Box(lo, hi),))
        result = build_lattice_tight_frame(cube, Lattice.scaled_integers(hi[0] - lo[0], len(lo)),
                                           grid_n)
        assert result.predicted_A == result.predicted_B
        return result.predicted_A

    def test_unit_cube(self):
        assert self.constant((0.0,), (1.0,)) == pytest.approx(1.0, abs=1e-9)

    def test_side_two_cube(self):
        assert self.constant((0.0,), (2.0,)) == pytest.approx(2.0, abs=1e-9)

    def test_unit_square(self):
        assert self.constant((0.0, 0.0), (1.0, 1.0)) == pytest.approx(1.0, abs=1e-9)

    def test_unit_square_at_the_default_grid(self):
        assert self.constant((0.0, 0.0), (1.0, 1.0), 256) == pytest.approx(1.0, abs=1e-14)


class TestObstructionScan:
    def test_full_tower_satisfies_hypothesis(self):
        tower = cantor_tower(12)
        verdict = tight_frame_obstruction_scan(
            tower.omega, x_max=8.0, tail_measure=tower.tail_measure)
        assert verdict.hypothesis_satisfied
        assert verdict.R == 0.0 and verdict.zero_set == ()
        assert "tail measure" in verdict.caveat

    def test_holed_tower_zero_intervals_are_exact(self):
        # each end is where two tower intervals start to meet, 2 + 2^-6 + 2^-8
        # for those at 6 and 8, and so on; the gap around 5/2 is one of them
        tower = cantor_tower(12, k=5)
        verdict = tight_frame_obstruction_scan(tower.omega, x_max=8.0)
        assert verdict.zero_set == (((2.01953125,), (2.982421875,)),
                                    ((3.017578125,), (3.9833984375,)),
                                    ((4.0166015625,), (4.98388671875,)))

    def test_holed_tower_satisfied_beyond_k(self):
        tower = cantor_tower(12, k=5)
        verdict = tight_frame_obstruction_scan(tower.omega, x_max=8.0)
        assert verdict.hypothesis_satisfied
        assert verdict.R == 4.98388671875 <= 5

    def test_bounded_set_fails_hypothesis(self):
        verdict = tight_frame_obstruction_scan(UNIT, x_max=4.0)
        assert not verdict.hypothesis_satisfied
        assert verdict.zero_set == (((1.0,), (4.0,)),)
        assert verdict.R == 4.0

    @pytest.mark.parametrize("x_max", [0.0, -1.0, math.inf, math.nan])
    def test_bad_x_max_rejected(self, x_max):
        with pytest.raises(InputError, match="x_max"):
            tight_frame_obstruction_scan(UNIT, x_max)

    def test_holed_square_zero_set_reaches_the_scan_face(self):
        # the square of a holed tower has zero-overlap shifts out to
        # (3.96875, -7) and (7, 3.96875) on the face of the scanned box
        tower = cantor_tower(6, k=4).omega
        omega = canonicalize([Box((a.lo[0], b.lo[0]), (a.hi[0], b.hi[0]))
                              for a in tower.boxes for b in tower.boxes])
        verdict = tight_frame_obstruction_scan(omega, 7.0)
        assert not verdict.hypothesis_satisfied
        assert verdict.R == math.sqrt(3.96875 ** 2 + 7.0 ** 2)
        for x in ((3.96875, -7.0), (7.0, 3.96875)):
            assert translate_overlap(omega, x) == 0.0
            assert any(all(a <= v <= b for a, v, b in zip(lo, x, hi))
                       for lo, hi in verdict.zero_set)

    def test_zero_interval_between_samples(self):
        # the overlap vanishes on [1.002, 1.007], between two shifts of a
        # 0.01 grid
        omega = BoxUnionSet.from_intervals([(0, 1.002), (2.009, 3)])
        verdict = tight_frame_obstruction_scan(omega, x_max=2.5)
        assert verdict.zero_set == (((1.002,), (2.009 - 1.002,)),)
        assert verdict.R == 2.009 - 1.002
        assert translate_overlap(omega, (1.004,)) == 0.0

    def test_zero_shift_with_mixed_signs(self):
        # a staircase along the diagonal misses its translate only for shifts
        # across the diagonal, such as (2, -2) or its mirror (-2, 2); none of
        # them has two coordinates of one sign
        omega = canonicalize([Box((k, k), (k + 1.5, k + 1.5)) for k in range(5)])
        verdict = tight_frame_obstruction_scan(omega, x_max=2.0)
        assert not verdict.hypothesis_satisfied
        assert translate_overlap(omega, (2.0, -2.0)) == 0.0
        assert any(lo[0] <= 2.0 <= hi[0] and lo[1] <= -2.0 <= hi[1]
                   for lo, hi in verdict.zero_set)


def no_overlap_check(monkeypatch):
    """Skip the exact overlap refusal, so overlapping shifts are measured."""
    monkeypatch.setattr(construction, "meets", lambda omega, n, gens: np.zeros(len(n), bool))


@st.composite
def aligned_shift_cases(draw):
    """1-3 intervals with ends in sixteenths of [0, 2), a shift in
    sixteenths of (0, 4] and a grid_n <= 256 whose cells divide a sixteenth."""
    count = draw(st.integers(1, 3))
    ends = sorted(draw(st.sets(st.integers(0, 31), min_size=2 * count,
                               max_size=2 * count)))
    omega = BoxUnionSet.from_intervals(
        [(a / 16, b / 16) for a, b in zip(ends[::2], ends[1::2])])
    width = ends[-1] - ends[0]
    return omega, draw(st.integers(1, 64)) / 16, width * draw(st.integers(1, 256 // width))


def longest_chain(omega, x0, grid_n):
    """L, the most active cells in one run i, i + c, i + 2c, ... on the grid
    over the bounding box, c being x0 in cells; the faces are whole cells, so
    a cell is active when its centre lies in the domain."""
    bb = omega.bounding_box()
    c = np.rint(np.asarray(x0) / np.array(bb.sides) * grid_n).astype(int)
    active = omega.contains(grid_points(bb, grid_n)).reshape((grid_n,) * omega.dim)
    longest = 0
    for cell in np.argwhere(active):
        run = 0
        while np.all((0 <= cell) & (cell < grid_n)) and active[tuple(cell)]:
            cell, run = cell + c, run + 1
        longest = max(longest, run)
    return longest


def sampled_cosine_measure(omega, x0, grid_n):
    """The cosine measure as the density sampled on the grid's alias band,
    in N cells per axis, N the first size above grid_n that keeps every alias
    of the lags 0 and ±x0 off the grid's index differences; the cosine is
    read in whole half-turns of N and folded, so the density is even."""
    bb, d = omega.bounding_box(), omega.dim
    c = np.abs(np.rint(np.asarray(x0) / np.array(bb.sides) * grid_n)).astype(int)
    N = next(N for N in itertools.count(grid_n + 1)
             if np.any(-((grid_n - c) // N) > (c + grid_n) // N) or not np.any((c + grid_n) // N))
    j = np.indices((N,) * d).reshape(d, -1)
    turns = (np.sign(x0).astype(int) * c) @ (2 * j + 1 - N) % (2 * N)
    turns = np.minimum(turns, 2 * N - turns)
    return ContinuousFreqMeasure(density=GridFunction(
        nyquist_box(bb, grid_n), 1.0 + np.cos(np.pi * turns / N).reshape((N,) * d)))


L_SHAPE = canonicalize([Box((0.0, 0.0), (1.0, 0.5)), Box((0.0, 0.5), (0.5, 1.0))])
CHAINS_2D = [(SQUARE, (0.25, 0.125), 16), (SQUARE, (0.25, -0.375), 16),
             (SQUARE, (0.5, 0.0), 16), (SQUARE, (2.0, 0.0), 16), (L_SHAPE, (0.5, 0.25), 16),
             (L_SHAPE, (0.125, 0.125), 32)]


class TestCosineCertificate:
    def test_unit_interval_shift_two(self):
        # 256 cells of shift on a 128-cell grid: no two cells couple
        cert = cosine_measure_certificate(UNIT, (2.0,), grid_n=128)
        assert cert.holds
        assert cert.report.A_est == pytest.approx(1.0, abs=1e-9)
        assert cert.report.B_est == pytest.approx(1.0, abs=1e-9)
        assert cert.report.notes == ("dense eigensolve of 128 blocks of order at most 1 "
                                     "in real arithmetic")
        assert cert.measure_descriptor == CosineFreqMeasure((2.0,))

    def test_overlapping_shift_refused(self):
        with pytest.raises(CertificateRefusal) as exc:
            cosine_measure_certificate(UNIT, (0.5,))
        assert exc.value.overlap == pytest.approx(0.5)

    def test_decimal_shift_off_the_domain_certifies(self):
        # |TENTHS ∩ (TENTHS ± 0.2)| = 0 on the decimals as written; the
        # binary faces read an overlap of 5.55e-17, and the cell beside the
        # face 0.3 a sliver of weight
        cert = cosine_measure_certificate(TENTHS, (0.2,))
        assert cert.holds and cert.report.grid_n == 256
        assert cert.report.A_est == pytest.approx(1.0, abs=1e-9)
        assert cert.report.B_est == pytest.approx(1.0, abs=1e-9)

    def test_decimal_overlap_refused(self):
        with pytest.raises(CertificateRefusal) as exc:
            cosine_measure_certificate(TENTHS, (0.25,))
        assert exc.value.overlap == pytest.approx(0.05)

    def test_two_component_domain(self):
        # 192 cells on [0, 3) put both gaps' faces on cell boundaries
        omega = BoxUnionSet.from_intervals([(0, 1), (2, 3)])
        cert = cosine_measure_certificate(omega, (4.0,), grid_n=192)
        assert cert.holds
        assert cert.report.A_est == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("omega, x0, grid_n", [(TWO_PIECE, 0.75, 258), (UNIT, 0.5, 256)])
    def test_overlap_measures_as_not_tight(self, monkeypatch, omega, x0, grid_n):
        no_overlap_check(monkeypatch)
        cert = cosine_measure_certificate(omega, (x0,), grid_n=grid_n)
        assert not cert.holds
        assert cert.report.A_est == pytest.approx(0.5, abs=1e-9)
        assert cert.report.B_est == pytest.approx(1.5, abs=1e-9)

    @pytest.mark.parametrize("x0, tight", [((2.0, 0.0), True), ((0.5, 0.0), False),
                                           ((0.5, 0.25), False)])
    def test_unit_square(self, monkeypatch, x0, tight):
        no_overlap_check(monkeypatch)
        cert = cosine_measure_certificate(SQUARE, x0, grid_n=16)
        assert cert.holds is tight
        assert cert.report.A_est == pytest.approx(1.0 if tight else 0.5, abs=1e-9)
        assert cert.report.B_est == pytest.approx(1.0 if tight else 1.5, abs=1e-9)

    @pytest.mark.parametrize("omega, x0", [
        (TWO_PIECE, 0.5), (BoxUnionSet.from_intervals([(0, 1), (2, 3)]), 3.0),
    ], ids=["x0_off_the_grid", "faces_off_the_grid"])
    def test_misaligned_grid_rejected(self, omega, x0):
        with pytest.raises(InputError, match="whole numbers of grid cells"):
            cosine_measure_certificate(omega, (x0,), grid_n=256)

    def test_a_grid_past_the_dense_limit_certifies(self):
        # x0 = 2.0001 is a whole number of cells only on multiples of 10^4,
        # and the lags fall off the grid: 10^4 blocks of order 1
        cert = cosine_measure_certificate(UNIT, (2.0001,))
        assert cert.report.grid_n == 10000
        assert cert.report.A_est == pytest.approx(1.0, abs=1e-12)
        assert cert.report.B_est == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [4099, 65537])
    def test_no_grid_up_to_the_cap_aligns(self, q):
        # 2 + 1/q is read as the decimal its repr writes, 2.000243961941937
        # for q = 4099, a whole number of cells on no grid up to 65536 cells;
        # at q = 65537 the relative whole-number rule would take 65529 cells
        with pytest.raises(InputError, match="no grid of 256 to 65536 cells"):
            cosine_measure_certificate(UNIT, (2.0 + 1.0 / q,))
        with pytest.raises(InputError, match=f"no grid of {q} cells"):
            cosine_measure_certificate(UNIT, (2.0 + 1.0 / q,), grid_n=q)

    @pytest.mark.parametrize("omega, x0, grid_n", [
        (TWO_PIECE, (0.5,), 258), (BoxUnionSet.from_intervals([(0, 1), (2, 3)]), (4.0,), 258),
        (UNIT, (2.0,), 256), (SQUARE, (2.0, 0.0), 16), (SQUARE, (0.0, 1.25), 16),
    ])
    def test_default_grid_is_the_coarsest_aligned_one(self, omega, x0, grid_n):
        # at least 256 cells: 256 per axis in 1-D, 16 in 2-D
        cert = cosine_measure_certificate(omega, x0)
        assert cert.report.grid_n == grid_n
        assert cert.holds

    @pytest.mark.parametrize("omega, x0, grid_n", [
        (UNIT, (1e5,), 256), (UNIT, (-1e5,), 256), (SQUARE, (1e5, 3.0), 16),
        (SQUARE, (2.0, 0.0), 256),
    ])
    def test_far_shifts_and_fine_grids_stay_tight(self, omega, x0, grid_n):
        # x0 = 1e5 lies 2.56e7 cells out: its lags fall off the grid
        cert = cosine_measure_certificate(omega, x0, grid_n)
        assert cert.holds
        assert cert.report.A_est == pytest.approx(1.0, abs=1e-12)
        assert cert.report.B_est == pytest.approx(1.0, abs=1e-12)

    def check_chains(self, omega, x0, grid_n):
        # a run of L cells along c is the tridiagonal I + (T + T*)/2, whose
        # eigenvalues are 1 + cos(pi k / (L + 1)), k = 1 .. L
        with pytest.MonkeyPatch.context() as mp:
            no_overlap_check(mp)
            rep = cosine_measure_certificate(omega, x0, grid_n).report
        edge = math.cos(math.pi / (longest_chain(omega, x0, grid_n) + 1))
        assert rep.A_est == pytest.approx(1.0 - edge, abs=1e-12)
        assert rep.B_est == pytest.approx(1.0 + edge, abs=1e-12)

    @given(aligned_shift_cases())
    @settings(max_examples=40, deadline=None)
    def test_chains_read_their_closed_eigenvalues_in_1d(self, case):
        omega, x0, grid_n = case
        self.check_chains(omega, (x0,), grid_n)

    @pytest.mark.parametrize("omega, x0, grid_n", CHAINS_2D)
    def test_chains_read_their_closed_eigenvalues_in_2d(self, omega, x0, grid_n):
        self.check_chains(omega, x0, grid_n)

    @pytest.mark.parametrize("omega, x0, grid_n", [
        (UNIT, (0.25,), 64), (UNIT, (2.0,), 128), (TWO_PIECE, (0.5,), 258),
        (TWO_PIECE, (0.75,), 258),
        (BoxUnionSet.from_intervals([(0, 0.25), (0.5, 1), (1.25, 2)]), (-0.25,), 256),
        (SQUARE, (0.25, 0.125), 32), *CHAINS_2D[1:],
    ])
    def test_agrees_with_the_sampled_density(self, monkeypatch, omega, x0, grid_n):
        # the density sampled on the alias band, its kernel taken by DFT and
        # every active cell (at most 1024) solved as one block
        no_overlap_check(monkeypatch)
        rep = cosine_measure_certificate(omega, x0, grid_n).report
        sampled = estimate_frame_bounds(WindowedSystem(
            omega, ((Window.indicator(), sampled_cosine_measure(omega, x0, grid_n)),)), grid_n)
        assert sampled.notes.startswith("dense eigensolve of order ")
        assert rep.A_est == pytest.approx(sampled.A_est, abs=1e-9)
        assert rep.B_est == pytest.approx(sampled.B_est, abs=1e-9)

    @given(aligned_shift_cases())
    @settings(max_examples=40, deadline=None)
    def test_verdict_follows_the_true_overlap(self, case):
        # the measured verdict alone, with the exact check skipped, must
        # agree with the geometry: a lag that meets the domain joins cells
        # into paths, whose operator I + (T + T*)/2 has B - A >= 1
        omega, x0, grid_n = case
        disjoint = translate_overlap(omega, (x0,)) == 0.0 == translate_overlap(omega, (-x0,))
        with pytest.MonkeyPatch.context() as mp:
            no_overlap_check(mp)
            cert = cosine_measure_certificate(omega, (x0,), grid_n=grid_n)
        assert cert.holds is disjoint
        rep = cert.report
        if disjoint:
            assert rep.A_est == pytest.approx(1.0, abs=1e-9)
        else:
            assert rep.B_est - rep.A_est >= 1.0 - 1e-9
