"""Zak transform values, quasiperiodicity, and Gabor certification."""

import math

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from frameforge import zak
from frameforge.errors import InputError
from frameforge.geometry import Box, canonicalize
from frameforge.framebounds import WindowedSystem, estimate_frame_bounds
from frameforge.pointsets import integers
from frameforge.windows import Window
from frameforge.zak import (
    FRAME_CERTIFIED,
    NECESSARY_ONLY,
    NOT_FRAME,
    certify_gabor,
    zak_transform,
)
from frameforge.zak import _zak_modulus
from zak_reference import certify_gabor_separable, gabor_windows, quasiperiodicity_residuals


def chi(a, b):
    return Window.from_string(f"indicator({a},{b})")


class TestZakTransform:
    def test_unit_indicator_is_one(self):
        # single-term sum oracle: only k = 0 contributes, g(x - 0) = 1
        z = zak_transform(chi(0, 1), 32)
        assert np.allclose(z.values, 1.0, atol=1e-12)

    def test_half_indicator_is_step(self):
        z = zak_transform(chi(0, 0.5), 32)
        xs = np.arange(32) / 32
        expected = (xs < 0.5).astype(float)
        assert np.allclose(z.values, expected[:, None], atol=1e-12)

    def test_double_indicator_two_term_sum(self):
        # two-term oracle: for x in [0,1) the shifts k in {0, -1} keep x - k
        # inside [0,2), so Zg = 1 + e^{-2 pi i t}
        z = zak_transform(chi(0, 2), 32)
        ts = np.arange(32) / 32
        expected = 1.0 + np.exp(-2j * np.pi * ts)
        assert np.allclose(z.values, expected[None, :], atol=1e-12)
        # modulus vanishes at t = 1/2
        assert abs(z.values[0, 16]) < 1e-12

    def test_unitarity(self):
        for w, norm_sq in [(chi(0, 1), 1.0), (chi(0, 0.5), 0.5), (chi(0, 2), 2.0)]:
            z = zak_transform(w, 256)
            assert z.quadrature_norm_sq() == pytest.approx(norm_sq, rel=1e-6)
            assert z.unitarity_residual() <= 1e-6

    def test_non_compact_support_rejected(self):
        with pytest.raises(InputError):
            zak_transform(Window.from_string("x^1.0"), 32)

    def test_tiny_grid_rejected(self):
        with pytest.raises(InputError):
            zak_transform(chi(0, 1), 8)

    def test_quasiperiodicity_residuals(self):
        for w in [chi(0, 1), chi(0, 0.5), chi(0, 2), chi(-0.25, 1.75)]:
            r_t, r_x = quasiperiodicity_residuals(w, 64)
            assert r_t <= 1e-9
            assert r_x <= 1e-9


class TestGaborWindows:
    def test_q_one_returns_same_grid(self):
        z = zak_transform(chi(0, 1), 32)
        assert gabor_windows(z, 1, 1)[0] is z

    def test_half_indicator_shifts_partition_the_square(self):
        z = zak_transform(chi(0, 0.5), 32)
        g0, g1 = gabor_windows(z, 1, 2)
        combined = np.maximum(np.abs(g0.values), np.abs(g1.values))
        assert np.allclose(combined, 1.0, atol=1e-12)

    def test_full_indicator_shifted_modulus_one(self):
        z = zak_transform(chi(0, 1), 32)
        for g in gabor_windows(z, 1, 2):
            assert np.allclose(np.abs(g.values), 1.0, atol=1e-12)

    def test_shift_wrap_uses_quasiperiodic_phase(self):
        # compare the rolled grid against a direct evaluation of Zg(x - 1/2, t)
        window = chi(0, 2)
        m = 32
        z = zak_transform(window, m)
        g1 = gabor_windows(z, 1, 2)[1]
        xs = np.arange(m) / m - 0.5
        ts = np.arange(m) / m
        from frameforge.zak import _zak_values
        direct = _zak_values(window, xs, ts, window.support_box())
        assert np.allclose(g1.values, direct, atol=1e-9)

    def test_m_not_divisible_rejected(self):
        z = zak_transform(chi(0, 1), 32)
        with pytest.raises(InputError):
            gabor_windows(z, 1, 3)
        with pytest.raises(InputError):
            certify_gabor(chi(0, 1), 1, 3, 32)

    def test_non_coprime_rejected(self):
        z = zak_transform(chi(0, 1), 32)
        with pytest.raises(InputError):
            gabor_windows(z, 2, 4)
        with pytest.raises(InputError):
            certify_gabor(chi(0, 1), 2, 4, 32)

    @pytest.mark.parametrize("p", [0, 3, -1])
    def test_q_one_needs_p_one(self, p):
        # gcd(p, 1) = 1 for every p, but shift 0 is degenerate and shift
        # p > 1 has ab = p > 1, which is never a frame
        with pytest.raises(InputError):
            gabor_windows(zak_transform(chi(0, 1), 64), p, 1)
        with pytest.raises(InputError):
            certify_gabor(chi(0, 1), p, 1, 64)


SHIFTS = [(M, p, q) for M in (240, 256) for q in (1, 2, 3, 4) if M % q == 0
          for p in range(1, max(q, 2)) if math.gcd(p, q) == 1]


@st.composite
def gabor_cases(draw):
    """Windows (x or 1) on [a, a + L) in sixteenths, with every valid shift."""
    a = draw(st.integers(-16, 16)) / 16
    length = draw(st.integers(1, 40)) / 16
    factor = draw(st.sampled_from(["", "x^1.0*"]))
    M, p, q = draw(st.sampled_from(SHIFTS))
    return Window.from_string(f"{factor}indicator({a!r},{a + length!r})"), M, p, q


def modulus_columns(case):
    window, M, _, _ = case
    return _zak_modulus(window, M, window.support_box()).shape[1]


class TestCertifyGabor:
    @pytest.mark.parametrize("M,p,q", SHIFTS)
    def test_matches_the_shifted_windows(self, M, p, q):
        # reference: the moduli of the phased windows from gabor_windows
        for text in ["indicator(0,0.5)", "indicator(0,2)", "indicator(-0.25,1.75)",
                     "x^1.0*indicator(0,1.5)"]:
            window = Window.from_string(text)
            mods = np.stack([np.abs(g.values)
                             for g in gabor_windows(zak_transform(window, M), p, q)])
            max_mod = mods.max(axis=0)
            zz = np.sum(mods ** 2, axis=0)
            v = certify_gabor(window, p, q, M)
            for got, want in [(v.A_53, max_mod.min()), (v.B_53, max_mod.max()),
                              (v.zz_min, zz.min()), (v.zz_max, zz.max())]:
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), text
            if max_mod.min() <= v.eps_zero:
                verdict = NOT_FRAME
            else:
                verdict = FRAME_CERTIFIED if p == 1 else NECESSARY_ONLY
            assert v.verdict == verdict, text

    @given(gabor_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_full_grid_oracle(self, case):
        window, M, p, q = case
        grid = zak_transform(window, M)
        mods = np.stack([np.abs(g.values) for g in gabor_windows(grid, p, q)])
        max_mod = mods.max(axis=0)
        zz = np.sum(mods ** 2, axis=0)
        v = certify_gabor(window, p, q, M)
        for got, want in [(v.A_53, max_mod.min()), (v.B_53, max_mod.max()),
                          (v.zz_min, zz.min()), (v.zz_max, zz.max()),
                          (v.unitarity_residual, grid.unitarity_residual())]:
            assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
        if max_mod.min() <= v.eps_zero:
            verdict = NOT_FRAME
        else:
            verdict = FRAME_CERTIFIED if p == 1 else NECESSARY_ONLY
        assert v.verdict == verdict

    def test_oracle_draws_reach_both_modulus_shapes(self):
        # the t-independent column, also with its one term at some k != 0
        # (a support reaching outside [0, 1)), and the full M x M grid
        find(gabor_cases(), lambda c: modulus_columns(c) == c[1])
        find(gabor_cases(), lambda c: modulus_columns(c) == 1
             and not 0.0 <= c[0].support_box().lo[0] < c[0].support_box().hi[0] <= 1.0)

    def test_refusals(self):
        with pytest.raises(InputError, match="at least"):
            certify_gabor(chi(0, 1), 1, 1, 8)
        with pytest.raises(InputError, match="compact support"):
            certify_gabor(Window.from_string("x^1.0"), 1, 1, 64)
        square = Window.indicator(Box((0.0, 0.0), (1.0, 1.0)), label="square")
        with pytest.raises(InputError, match="one-dimensional"):
            certify_gabor(square, 1, 1, 64)
        with pytest.raises(InputError, match="zero norm"):
            certify_gabor(Window.from_string("0.0*indicator(0,1)"), 1, 1, 64)
        for text in ("indicator(0,1)*indicator(2,3)*indicator(0.5,0.7)",
                     "indicator(0,1)*indicator(2,3)"):
            with pytest.raises(InputError, match="has empty support"):
                certify_gabor(Window.from_string(text), 1, 1, 64)

    def test_painless_window_builds_no_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("built the M x M Zak grid")
        monkeypatch.setattr(zak, "_zak_values", no_grid)
        v = certify_gabor(chi(0.25, 0.9375), 1, 4, 2048)
        assert v.verdict == FRAME_CERTIFIED
        assert v.A_53 == v.B_53 == 1.0
        # a support longer than 1 does need the grid
        with pytest.raises(AssertionError):
            certify_gabor(chi(0, 2), 1, 2, 64)

    def test_unit_indicator_orthonormal_case(self):
        v = certify_gabor(chi(0, 1), 1, 1, 64)
        assert v.verdict == FRAME_CERTIFIED
        assert v.A_53 == pytest.approx(1.0, abs=1e-9)
        assert v.B_53 == pytest.approx(1.0, abs=1e-9)

    def test_half_indicator_critical_shift_fails(self):
        v = certify_gabor(chi(0, 0.5), 1, 1, 64)
        assert v.verdict == NOT_FRAME
        assert v.A_53 <= v.eps_zero

    def test_half_indicator_oversampled_certifies(self):
        v = certify_gabor(chi(0, 0.5), 1, 2, 64)
        assert v.verdict == FRAME_CERTIFIED
        assert v.A_53 == pytest.approx(1.0, abs=1e-9)

    def test_p_greater_one_gives_necessity_only(self):
        v = certify_gabor(chi(0, 1), 2, 3, 66)
        assert v.verdict in (NECESSARY_ONLY, NOT_FRAME)
        if v.A_53 > v.eps_zero:
            assert v.verdict == NECESSARY_ONLY

    def test_zz_comparison_norm_equivalence(self):
        for (w, p, q) in [(chi(0, 0.5), 1, 2), (chi(0, 1), 1, 2), (chi(0, 2), 1, 4)]:
            v = certify_gabor(w, p, q, 64)
            # pointwise max^2 <= sum <= q * max^2 implies these orderings
            assert v.zz_max <= q * v.B_53 ** 2 + 1e-9
            assert v.zz_min >= v.A_53 ** 2 - 1e-9

    def test_grid_min_robust_under_refinement(self):
        for (w, p, q) in [(chi(0, 0.5), 1, 2), (chi(0, 1), 1, 1)]:
            a1 = certify_gabor(w, p, q, 64).A_53
            a2 = certify_gabor(w, p, q, 128).A_53
            assert a2 <= 1.1 * a1 + 1e-12 and a1 <= 1.1 * a2 + 1e-12

    def test_consistency_with_frame_bounds_on_the_square(self):
        # Zak image of (chi_[0,1/2), shift 1/2) on the unit square: windows are
        # the two vertical half strips, frequencies are the integer lattice
        square = canonicalize([Box((0.0, 0.0), (1.0, 1.0))])
        strips = (
            Window.indicator(Box((0.0, 0.0), (0.5, 1.0)), label="strip0"),
            Window.indicator(Box((0.5, 0.0), (1.0, 1.0)), label="strip1"),
        )
        system = WindowedSystem(square, tuple((w, integers(dim=2)) for w in strips))
        rep = estimate_frame_bounds(system, 16)
        v = certify_gabor(chi(0, 0.5), 1, 2, 64)
        assert rep.A_est == pytest.approx(v.A_53 ** 2, rel=0.05)
        assert rep.B_est == pytest.approx(v.B_53 ** 2, rel=0.05)
        assert (rep.A_est > 0) == (v.A_53 > v.eps_zero)

    def test_separable_product(self):
        v = certify_gabor_separable([chi(0, 0.5), chi(0, 0.5)], 1, 2, 64)
        assert v.verdict == FRAME_CERTIFIED
        assert v.A_53 == pytest.approx(1.0, abs=1e-9)
        v2 = certify_gabor_separable([chi(0, 0.5), chi(0, 0.5)], 1, 1, 64)
        assert v2.verdict == NOT_FRAME

    @given(st.sampled_from([32, 64]), st.sampled_from([1, 2, 4]),
           st.sampled_from([0.5, 1.0, 1.5]))
    @settings(max_examples=12, deadline=None)
    def test_l2_linf_pointwise_equivalence(self, m, q, width):
        z = zak_transform(chi(0, width), m)
        shifted = gabor_windows(z, 1, q)
        mods = np.stack([np.abs(g.values) for g in shifted])
        max_sq = mods.max(axis=0) ** 2
        sum_sq = np.sum(mods ** 2, axis=0)
        assert np.all(max_sq <= sum_sq + 1e-12)
        assert np.all(sum_sq <= q * max_sq + 1e-12)
